//! Enum dispatch over the monomorphized simulators, for call sites that
//! pick the register-file backend at run time.

use super::*;

/// A [`Simulator`] whose register-file backend is chosen by the
/// [`SimConfig`] at run time.
///
/// The generic `Simulator<R, T>` statically dispatches every register-file
/// access; this facade moves the one dynamic decision — which backend —
/// to construction time, where [`RegFileKind`]-driven harnesses (bench
/// bins, carf-trace, the parallel engine, sweeps) live. Inside a run,
/// each arm is the fully monomorphized machine.
///
/// Adding a backend (e.g. a compressing or port-reduced file) means
/// implementing [`IntRegFile`] + [`RegFileBackend`], extending
/// [`RegFileKind`], and adding an arm here; the pipeline itself is
/// untouched.
///
/// # Example
///
/// ```
/// use carf_core::CarfParams;
/// use carf_isa::{Asm, x};
/// use carf_sim::{AnySimulator, SimConfig};
///
/// let mut asm = Asm::new();
/// asm.li(x(1), 100);
/// asm.label("loop");
/// asm.addi(x(1), x(1), -1);
/// asm.bne(x(1), x(0), "loop");
/// asm.halt();
/// let program = asm.finish()?;
///
/// // Same program on the baseline and the content-aware machine.
/// let base = AnySimulator::new(SimConfig::paper_baseline(), &program).run(10_000)?;
/// let carf = AnySimulator::new(SimConfig::paper_carf(CarfParams::paper_default()), &program)
///     .run(10_000)?;
/// assert!(base.halted && carf.halted);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub enum AnySimulator<T: Tracer = NopTracer> {
    /// The monolithic baseline file.
    Baseline(Box<Simulator<BaselineRegFile, T>>),
    /// The paper's content-aware file.
    ContentAware(Box<Simulator<ContentAwareRegFile, T>>),
    /// The dictionary-compressed file with a full-width overflow bank.
    Compressed(Box<Simulator<CompressedRegFile, T>>),
    /// The read-port-reduced file with an operand-reuse capture buffer.
    PortReduced(Box<Simulator<PortReducedRegFile, T>>),
}

/// Runs `$body` with `$sim` bound to whichever arm is live.
macro_rules! dispatch {
    ($self:expr, $sim:ident => $body:expr) => {
        match $self {
            AnySimulator::Baseline($sim) => $body,
            AnySimulator::ContentAware($sim) => $body,
            AnySimulator::Compressed($sim) => $body,
            AnySimulator::PortReduced($sim) => $body,
        }
    };
}

impl AnySimulator {
    /// Builds an untraced machine with the backend named by
    /// `config.regfile`.
    pub fn new(config: SimConfig, program: &Program) -> Self {
        Self::with_tracer(config, program, NopTracer)
    }

    /// [`AnySimulator::from_checkpoint_in`] with a [`ProgramImage`] built
    /// for this one call.
    ///
    /// # Errors
    ///
    /// As [`Simulator::from_checkpoint_in`].
    pub fn from_checkpoint(
        config: SimConfig,
        program: &Program,
        ckpt: &Checkpoint,
    ) -> Result<Self, SimError> {
        Self::from_checkpoint_in(config, &ProgramImage::new(program), ckpt)
    }

    /// See [`Simulator::from_checkpoint_in`]; the backend is named by
    /// `config.regfile`.
    ///
    /// # Errors
    ///
    /// As [`Simulator::from_checkpoint_in`].
    pub fn from_checkpoint_in(
        config: SimConfig,
        image: &ProgramImage,
        ckpt: &Checkpoint,
    ) -> Result<Self, SimError> {
        Ok(match &config.regfile {
            RegFileKind::Baseline => AnySimulator::Baseline(Box::new(
                Simulator::from_checkpoint_in(config, image, ckpt)?,
            )),
            RegFileKind::ContentAware(..) => AnySimulator::ContentAware(Box::new(
                Simulator::from_checkpoint_in(config, image, ckpt)?,
            )),
            RegFileKind::Compressed(..) => AnySimulator::Compressed(Box::new(
                Simulator::from_checkpoint_in(config, image, ckpt)?,
            )),
            RegFileKind::PortReduced(..) => AnySimulator::PortReduced(Box::new(
                Simulator::from_checkpoint_in(config, image, ckpt)?,
            )),
        })
    }
}

impl<T: Tracer> AnySimulator<T> {
    /// Builds a machine that reports pipeline events to `tracer`, with the
    /// backend named by `config.regfile`.
    pub fn with_tracer(config: SimConfig, program: &Program, tracer: T) -> Self {
        match &config.regfile {
            RegFileKind::Baseline => {
                AnySimulator::Baseline(Box::new(Simulator::with_tracer(config, program, tracer)))
            }
            RegFileKind::ContentAware(..) => {
                AnySimulator::ContentAware(Box::new(Simulator::with_tracer(
                    config, program, tracer,
                )))
            }
            RegFileKind::Compressed(..) => {
                AnySimulator::Compressed(Box::new(Simulator::with_tracer(config, program, tracer)))
            }
            RegFileKind::PortReduced(..) => {
                AnySimulator::PortReduced(Box::new(Simulator::with_tracer(
                    config, program, tracer,
                )))
            }
        }
    }

    /// See [`Simulator::run`].
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] on co-simulation divergence, watchdog expiry,
    /// runaway fetch, or an internal invariant failure.
    pub fn run(&mut self, max_insts: u64) -> Result<SimResult, SimError> {
        dispatch!(self, sim => sim.run(max_insts))
    }

    /// See [`Simulator::run_exact`].
    ///
    /// # Errors
    ///
    /// As [`AnySimulator::run`].
    pub fn run_exact(&mut self, target: u64) -> Result<SimResult, SimError> {
        dispatch!(self, sim => sim.run_exact(target))
    }

    /// See [`Simulator::arch_checkpoint`].
    pub fn arch_checkpoint(&self) -> Checkpoint {
        dispatch!(self, sim => sim.arch_checkpoint())
    }

    /// See [`Simulator::retired`].
    pub fn retired(&self) -> u64 {
        dispatch!(self, sim => sim.retired())
    }

    /// See [`Simulator::install_warm_state`].
    pub fn install_warm_state(&mut self, warm: &WarmState) {
        dispatch!(self, sim => sim.install_warm_state(warm))
    }

    /// See [`Simulator::step_cycle`].
    ///
    /// # Errors
    ///
    /// As [`AnySimulator::run`].
    pub fn step_cycle(&mut self) -> Result<(), SimError> {
        dispatch!(self, sim => sim.step_cycle())
    }

    /// See [`Simulator::stats`].
    pub fn stats(&self) -> &SimStats {
        dispatch!(self, sim => sim.stats())
    }

    /// Brings the aggregate groups of [`AnySimulator::stats`] up to date
    /// (what [`Simulator::run`] does when it returns).
    pub(crate) fn finalize_stats(&mut self) {
        dispatch!(self, sim => sim.finalize_stats())
    }

    /// See [`Simulator::is_halted`].
    pub fn is_halted(&self) -> bool {
        dispatch!(self, sim => sim.is_halted())
    }

    /// See [`Simulator::set_fetch_slot`].
    pub fn set_fetch_slot(&mut self, open: bool) {
        dispatch!(self, sim => sim.set_fetch_slot(open));
    }

    /// See [`Simulator::in_flight`].
    pub fn in_flight(&self) -> usize {
        dispatch!(self, sim => sim.in_flight())
    }

    /// See [`Simulator::attach_shared_l2`].
    pub fn attach_shared_l2(&mut self, handle: carf_mem::SharedL2Handle) {
        dispatch!(self, sim => sim.attach_shared_l2(handle));
    }

    /// The integer register file, behind the common interface. The
    /// defaulted [`IntRegFile`] hooks (CARF introspection, occupancy
    /// reports, SMT capacity limiting) replace per-backend type escape hatches.
    pub fn int_regfile(&self) -> &dyn IntRegFile {
        dispatch!(self, sim => sim.int_regfile() as &dyn IntRegFile)
    }

    /// Mutable access to the integer register file.
    pub fn int_regfile_mut(&mut self) -> &mut dyn IntRegFile {
        dispatch!(self, sim => sim.int_regfile_mut() as &mut dyn IntRegFile)
    }

    /// See [`Simulator::tracer`].
    pub fn tracer(&self) -> &T {
        dispatch!(self, sim => sim.tracer())
    }

    /// See [`Simulator::tracer_mut`].
    pub fn tracer_mut(&mut self) -> &mut T {
        dispatch!(self, sim => sim.tracer_mut())
    }

    /// See [`Simulator::into_tracer`].
    pub fn into_tracer(self) -> T {
        dispatch!(self, sim => sim.into_tracer())
    }
}

impl<T: Tracer> std::fmt::Debug for AnySimulator<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        dispatch!(self, sim => sim.fmt(f))
    }
}
