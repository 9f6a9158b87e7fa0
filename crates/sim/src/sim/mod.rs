//! The cycle-level out-of-order pipeline.
//!
//! An 8-wide superscalar with fetch (gshare + BTB + RAS), decode, rename
//! (RAT + free lists), dispatch into ROB / issue queues / LSQ, oldest-first
//! wakeup-select issue, one or two register-read stages (per the register
//! file organization), execute on a functional-unit pool, a memory stage
//! with store-to-load forwarding and a configurable dependence policy
//! (optimistic with violation squash by default), a one- or two-stage
//! writeback with port arbitration (and the content-aware file's
//! Long-allocation stall), and in-order commit with golden-model
//! co-simulation.
//!
//! Branch recovery restores the rename map by undoing the squashed
//! suffix's renames youngest first (equivalent to checkpoint
//! restoration); the number of simultaneously unresolved branches is
//! still bounded by [`SimConfig::checkpoints`], modeling the hardware
//! checkpoint budget.
//!
//! # Module layout
//!
//! This module holds the shared pipeline state ([`Simulator`] and its
//! support types) plus the per-cycle driver; each pipeline stage lives in
//! its own submodule as an `impl` block over the same state:
//! [`fetch`](self), `dispatch`, `issue`, `execute`, `writeback`, `retire`,
//! and `recovery`. The reorder buffer and the handles every pipeline event
//! carries live in `rob`. [`AnySimulator`] (in `any`) is the enum-dispatched
//! facade for runtime [`RegFileKind`] selection; the generic
//! `Simulator<R, _>` itself is monomorphized per register-file backend.

mod any;
mod dispatch;
mod execute;
mod fetch;
mod issue;
mod recovery;
mod retire;
mod rob;
#[cfg(test)]
mod tests;
mod writeback;

pub use any::AnySimulator;
pub(crate) use rob::MAX_ROB_SIZE;

use std::collections::{BTreeMap, VecDeque};

use carf_core::{
    BaselineRegFile, CompressedRegFile, ContentAwareRegFile, IntRegFile, PortReducedRegFile,
};
use carf_isa::semantics::{
    eval_branch, eval_fp_alu, eval_fp_to_int, eval_int_alu, eval_int_to_fp, extend_load,
    load_width, store_bytes, store_width, LoadWidth,
};
use carf_isa::{
    Checkpoint, Inst, InstKind, Machine, Opcode, Program, ProgramImage, StepOutcome, INST_BYTES,
};
use carf_mem::{MemoryHierarchy, PortMeter, SparseMemory};

use crate::bpred::{BranchPredictor, CondPrediction};
use crate::config::{RegFileKind, SimConfig};
use crate::fu::FuPool;
use crate::lsq::{LoadDecision, LoadStoreQueue, MemDepPolicy};
use crate::rename::{Preg, RenameTables};
use crate::stats::SimStats;
use crate::trace::{NopTracer, StallCause, TraceEvent, Tracer};
use rob::{last_handle_of, seq_of, Rob};

/// Sentinel for "not scheduled yet".
const NEVER: u64 = u64::MAX;

/// How many consecutive failed Long allocations at writeback trigger the
/// pseudo-deadlock recovery flush.
const LONG_RECOVERY_PATIENCE: u32 = 16;

/// A bucketed timing wheel: O(1) event scheduling and per-cycle drain.
///
/// Events within the ring horizon land in a power-of-two slot array; the
/// rare event beyond it (only possible with latencies past the horizon)
/// spills to a `BTreeMap`. As long as every event for a given cycle lands
/// in the ring — true for all supported memory/FU latencies — a cycle's
/// events drain in exact insertion order, matching the event-map scheduler
/// this replaces.
#[derive(Debug)]
struct TimingWheel {
    slots: Vec<Vec<u64>>,
    mask: u64,
    overflow: BTreeMap<u64, Vec<u64>>,
}

impl TimingWheel {
    fn new(len: usize) -> Self {
        debug_assert!(len.is_power_of_two());
        Self {
            slots: (0..len).map(|_| Vec::new()).collect(),
            mask: len as u64 - 1,
            overflow: BTreeMap::new(),
        }
    }

    /// Schedules `handle` for cycle `when` (`when >= now`; a slot is
    /// reused only after its cycle has drained, so the ring never wraps
    /// onto a live slot within the horizon).
    fn schedule(&mut self, now: u64, when: u64, handle: u64) {
        debug_assert!(when >= now, "scheduling into the past: {when} < {now}");
        if when - now < self.slots.len() as u64 {
            self.slots[(when & self.mask) as usize].push(handle);
        } else {
            self.overflow.entry(when).or_default().push(handle);
        }
    }

    /// Appends every event scheduled for `now` to `out` (ring slot first,
    /// then any overflow spill) and clears them. An empty `out` trades
    /// buffers with the slot instead of copying, so capacity circulates
    /// between the slots and the caller's scratch and the steady-state hot
    /// loop stays allocation-free.
    fn drain_into(&mut self, now: u64, out: &mut Vec<u64>) {
        let slot = &mut self.slots[(now & self.mask) as usize];
        if out.is_empty() {
            std::mem::swap(out, slot);
        } else {
            out.append(slot);
        }
        if !self.overflow.is_empty() {
            if let Some(mut spill) = self.overflow.remove(&now) {
                out.append(&mut spill);
            }
        }
    }
}

/// Ring horizon for completion/wakeup events: comfortably past the worst
/// memory round trip (L1 + L2 + DRAM ≈ 105 cycles) and the slowest FU.
const WHEEL_SLOTS: usize = 512;

/// Ring horizon for operand-capture events (at most `read_stages` ahead).
const CAPTURE_SLOTS: usize = 8;

/// Simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A committed instruction disagreed with the functional golden model.
    CosimMismatch {
        /// Sequence number of the offending instruction.
        seq: u64,
        /// Its PC.
        pc: u64,
        /// What differed.
        detail: String,
    },
    /// No instruction committed for the watchdog period — a simulator
    /// deadlock.
    Watchdog {
        /// Cycle at which the watchdog fired.
        cycle: u64,
    },
    /// The fetch unit left the code segment with nothing in flight to
    /// redirect it (a runaway program).
    RunawayFetch {
        /// The wild PC.
        pc: u64,
    },
    /// An internal pipeline invariant failed (e.g. a register-file write
    /// that the organization guarantees cannot stall was refused). A bug
    /// in the simulator or a backend, not in the simulated program.
    Internal {
        /// Cycle at which the invariant failed.
        cycle: u64,
        /// What failed.
        detail: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::CosimMismatch { seq, pc, detail } => {
                write!(f, "co-simulation mismatch at seq {seq}, pc {pc:#x}: {detail}")
            }
            SimError::Watchdog { cycle } => write!(f, "no commit progress by cycle {cycle}"),
            SimError::RunawayFetch { pc } => write!(f, "runaway fetch at pc {pc:#x}"),
            SimError::Internal { cycle, detail } => {
                write!(f, "internal invariant failed at cycle {cycle}: {detail}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Outcome of a completed run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimResult {
    /// Instructions committed.
    pub committed: u64,
    /// Cycles simulated.
    pub cycles: u64,
    /// `true` when the program executed `halt` (vs. hitting the budget).
    pub halted: bool,
    /// Committed instructions per cycle.
    pub ipc: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Src {
    None,
    Zero,
    Int(Preg),
    Fp(Preg),
}

#[derive(Debug, Clone, Copy)]
struct Dest {
    is_int: bool,
    arch: u8,
    new: Preg,
    old: Preg,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// In an issue queue (or, for nop/halt, nothing to do — see
    /// `Completed`).
    Waiting,
    /// Selected; operand capture scheduled.
    Issued,
    /// Operands captured; execution completion scheduled.
    Captured,
    /// A load waiting for disambiguation or a cache port.
    WaitDisambig,
    /// A load with its access in flight.
    WaitData,
    /// Result computed, waiting in the writeback queue.
    WbPending,
    /// Writeback granted; committable once `wb_done_at` passes.
    WbGranted,
    /// Ready to commit.
    Completed,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    /// This instruction's ROB handle (see `rob`); 0 marks a vacant
    /// position.
    handle: u64,
    pc: u64,
    inst: Inst,
    kind: InstKind,
    pred_next: u64,
    dest: Option<Dest>,
    srcs: [Src; 2],
    src_from_rf: [bool; 2],
    src_vals: [u64; 2],
    state: SlotState,
    wb_done_at: u64,
    actual_next: u64,
    mem_addr: Option<u64>,
    load_data: u64,
    result: u64,
    branch_unresolved: bool,
    wb_fail_cycles: u32,
    cond_pred: Option<CondPrediction>,
}

impl Slot {
    /// What a ring position holds before its first dispatch and after each
    /// commit or squash (only the handle is reset then).
    const VACANT: Slot = Slot {
        handle: 0,
        pc: 0,
        inst: Inst { op: Opcode::Nop, rd: 0, rs1: 0, rs2: 0, imm: 0 },
        kind: InstKind::Nop,
        pred_next: 0,
        dest: None,
        srcs: [Src::None; 2],
        src_from_rf: [false; 2],
        src_vals: [0; 2],
        state: SlotState::Completed,
        wb_done_at: NEVER,
        actual_next: 0,
        mem_addr: None,
        load_data: 0,
        result: 0,
        branch_unresolved: false,
        wb_fail_cycles: 0,
        cond_pred: None,
    };

    fn is_mem(&self) -> bool {
        matches!(self.kind, InstKind::Load | InstKind::Store)
    }
}

#[derive(Debug, Clone, Copy)]
struct PregState {
    value: u64,
    cap_avail_at: u64,
    in_rf_at: u64,
    valid: bool,
}

impl PregState {
    fn reset() -> Self {
        Self { value: 0, cap_avail_at: NEVER, in_rf_at: NEVER, valid: false }
    }

    fn architectural_zero() -> Self {
        Self { value: 0, cap_avail_at: 0, in_rf_at: 0, valid: true }
    }
}

#[derive(Debug, Clone, Copy)]
struct Fetched {
    inst: Inst,
    pc: u64,
    pred_next: u64,
    ready_at: u64,
    cond_pred: Option<CondPrediction>,
}

/// The machine.
///
/// Generic over the integer register-file backend `R` — every RF access in
/// the hot loop is statically dispatched and monomorphized per
/// organization — and over a [`Tracer`]; the default [`NopTracer`]
/// compiles every tracing hook away (see the `trace` module), so plain
/// `Simulator::new` is exactly the untraced machine.
///
/// `R` must implement [`RegFileBackend`] for construction from a
/// [`SimConfig`]; use [`AnySimulator`] when the backend is chosen at run
/// time (CLI flags, sweeps over [`RegFileKind`]).
///
/// # Example
///
/// ```
/// use carf_core::BaselineRegFile;
/// use carf_isa::{Asm, x};
/// use carf_sim::{SimConfig, Simulator};
///
/// let mut asm = Asm::new();
/// asm.li(x(1), 10);
/// asm.label("loop");
/// asm.addi(x(1), x(1), -1);
/// asm.bne(x(1), x(0), "loop");
/// asm.halt();
/// let program = asm.finish()?;
///
/// let mut sim = Simulator::<BaselineRegFile>::new(SimConfig::test_small(), &program);
/// let result = sim.run(1_000_000)?;
/// assert!(result.halted);
/// assert!(result.ipc > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Simulator<R: IntRegFile, T: Tracer = NopTracer> {
    config: SimConfig,
    program: Program,
    now: u64,
    seq_counter: u64,
    halted: bool,
    // Front end.
    fetch_pc: u64,
    fetch_resume_at: u64,
    fetch_wild: bool,
    /// SMT fetch-slot gate: when `false`, [`Simulator::fetch`] inserts
    /// nothing this cycle (the multi-context arbiter granted the slot to a
    /// co-runner). Always `true` for solo runs — the gate is only ever
    /// closed through [`Simulator::set_fetch_slot`].
    fetch_gate: bool,
    fetch_q: VecDeque<Fetched>,
    bpred: BranchPredictor,
    // Rename and in-flight structures.
    rename: RenameTables,
    unresolved_branches: usize,
    rob: Rob,
    int_iq_len: usize,
    fp_iq_len: usize,
    lsq: LoadStoreQueue,
    // Register files and the bypass scoreboard.
    int_rf: R,
    fp_rf: BaselineRegFile,
    int_pregs: Vec<PregState>,
    fp_pregs: Vec<PregState>,
    // Execution machinery.
    int_fus: FuPool,
    fp_fus: FuPool,
    int_read_ports: PortMeter,
    int_write_ports: PortMeter,
    fp_read_ports: PortMeter,
    fp_write_ports: PortMeter,
    // Event-driven scheduling: timing wheels make per-cycle event cost
    // proportional to the events that fire, and per-preg consumer lists
    // make wakeup O(woken) instead of a full issue-queue rescan. Every
    // list holds ROB handles; a squashed or committed entry's handle
    // stops resolving and is skipped lazily.
    capture_wheel: TimingWheel,
    completion_wheel: TimingWheel,
    wake_wheel: TimingWheel,
    int_consumers: Vec<Vec<u64>>,
    fp_consumers: Vec<Vec<u64>>,
    pending_loads: Vec<u64>,
    wb_pending: Vec<u64>,
    /// Issue candidates the Long guard held back, parked until the first
    /// cycle without the guard instead of re-queued every cycle (see
    /// `issue`).
    guard_held: Vec<u64>,
    // Reusable scratch buffers: the per-cycle stages below swap through
    // these instead of allocating, so the steady-state hot loop is
    // allocation-free.
    handle_scratch: Vec<u64>,
    issue_cand: Vec<u64>,
    event_scratch: Vec<u64>,
    oracle_scratch: Vec<u64>,
    // Memory.
    hier: MemoryHierarchy,
    mem: SparseMemory,
    // Commit.
    commit_int_rat: [Preg; 32],
    commit_fp_rat: [Preg; 32],
    rob_interval_count: u64,
    last_commit_cycle: u64,
    golden: Option<Machine>,
    /// When set, commit stops (mid-burst) once `stats.committed` reaches
    /// this count — [`Simulator::run_exact`]'s instruction-precise brake.
    commit_limit: Option<u64>,
    /// PC of the next instruction to commit: the architectural PC at every
    /// commit boundary (what a checkpoint captures).
    commit_next_pc: u64,
    /// Instructions already retired before this simulator was constructed
    /// (non-zero when seeded from a checkpoint); global retired count =
    /// `retired_base + stats.committed`.
    retired_base: u64,
    // Derived configuration.
    read_stages: u64,
    wb_stages: u64,
    full_bypass: bool,
    stats: SimStats,
    tracer: T,
}

/// Construction of a register-file backend from a [`SimConfig`].
///
/// `Simulator<R, _>` is generic over [`IntRegFile`] for its hot path; this
/// extra bound is what lets `Simulator::new` build the backend itself. A
/// backend is *strict* about its config: constructing
/// `Simulator<BaselineRegFile>` from a config that names the content-aware
/// file (or vice versa) is a programming error and panics — runtime
/// selection belongs to [`AnySimulator`].
pub trait RegFileBackend: IntRegFile + Sized {
    /// Builds the backend described by `config.regfile`.
    ///
    /// # Panics
    ///
    /// Panics when `config.regfile` names a different organization, or
    /// when the parameters are invalid.
    fn from_config(config: &SimConfig) -> Self;
}

impl RegFileBackend for BaselineRegFile {
    fn from_config(config: &SimConfig) -> Self {
        match &config.regfile {
            RegFileKind::Baseline => BaselineRegFile::new(config.int_pregs),
            other => panic!(
                "config names {other:?}, not the baseline register file; \
                 build the matching Simulator<_> or use AnySimulator"
            ),
        }
    }
}

impl RegFileBackend for ContentAwareRegFile {
    fn from_config(config: &SimConfig) -> Self {
        match &config.regfile {
            RegFileKind::ContentAware(params, policies) => {
                let mut p = *params;
                p.simple_entries = config.int_pregs;
                ContentAwareRegFile::with_policies(p, *policies)
            }
            other => panic!(
                "config names {other:?}, not the content-aware register file; \
                 build the matching Simulator<_> or use AnySimulator"
            ),
        }
    }
}

impl RegFileBackend for CompressedRegFile {
    fn from_config(config: &SimConfig) -> Self {
        match &config.regfile {
            RegFileKind::Compressed(params) => {
                let mut p = *params;
                p.simple_entries = config.int_pregs;
                CompressedRegFile::new(p)
            }
            other => panic!(
                "config names {other:?}, not the compressed register file; \
                 build the matching Simulator<_> or use AnySimulator"
            ),
        }
    }
}

impl RegFileBackend for PortReducedRegFile {
    fn from_config(config: &SimConfig) -> Self {
        match &config.regfile {
            RegFileKind::PortReduced(params) => {
                PortReducedRegFile::new(config.int_pregs, *params)
            }
            other => panic!(
                "config names {other:?}, not the port-reduced register file; \
                 build the matching Simulator<_> or use AnySimulator"
            ),
        }
    }
}

/// One event of a fast-forwarded (functionally executed) region, applied
/// through [`WarmState::apply`] to bring cold cache and branch-predictor
/// state up to date before a measured interval. Produced by an
/// [`carf_isa::ExecObserver`] wired into the decoded fast-forward loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmEvent {
    /// An instruction fetch at `pc` (IL1 path).
    Fetch {
        /// The instruction's byte address.
        pc: u64,
    },
    /// A data access (DL1/L2 path).
    Data {
        /// Effective byte address.
        addr: u64,
        /// `true` for stores.
        is_write: bool,
    },
    /// A conditional branch outcome (gshare training).
    CondBranch {
        /// The branch's byte address.
        pc: u64,
        /// Resolved direction.
        taken: bool,
    },
    /// An indirect jump outcome (BTB/RAS training).
    IndirectJump {
        /// The jump's byte address.
        pc: u64,
        /// Resolved target.
        target: u64,
        /// Return-convention jump (pops the RAS).
        is_return: bool,
    },
    /// A call pushed `return_addr` (RAS training).
    Call {
        /// The link-register value.
        return_addr: u64,
    },
}

/// Functionally warmed microarchitectural state: a cache hierarchy and
/// branch predictor kept continuously up to date with the *entire*
/// fast-forwarded instruction stream, cloned into each measured
/// interval's simulator via [`Simulator::install_warm_state`].
///
/// Persistence is the point. Warming from only the events since the last
/// measured interval cannot rebuild a working set that took the whole
/// run to form (a table scattered across L2 sees each line touched
/// rarely), and the resulting cold misses bias sampled IPC far below
/// truth on exactly the workloads with the largest footprints. One
/// warm state spanning the run gives every window the same long access
/// memory the straight-through machine has.
///
/// A fetch to the IL1 line the previous fetch touched is skipped, which
/// removes most fetch events (straight-line code fetches each 64-byte
/// line many times in a row) and is exact:
/// - only fetches access the IL1: data accesses go to the DL1, the
///   hierarchy is non-inclusive, so an L2 eviction never invalidates an
///   IL1 line, and fetches never dirty a line;
/// - so the repeated line is still resident and the repeat fetch is a
///   hit, which touches nothing below the IL1;
/// - that hit only gives the line, already the most recent in its set, a
///   newer LRU stamp (every set keeps its order) and counts one more IL1
///   hit. The skipped hits are the only difference an installed state
///   carries, and a sampling driver's window deltas cancel them.
#[derive(Debug, Clone)]
pub struct WarmState {
    hier: MemoryHierarchy,
    bpred: BranchPredictor,
    /// `log2` of the IL1 line size.
    il1_line_shift: u32,
    /// The IL1 line of the last fetch applied (`None` before the first).
    last_fetch_line: Option<u64>,
}

impl WarmState {
    /// Cold structures shaped by `config` (the same geometry the
    /// simulator itself uses, so clones drop in directly).
    pub fn new(config: &SimConfig) -> Self {
        Self {
            hier: MemoryHierarchy::new(config.hierarchy),
            bpred: BranchPredictor::new(&config.bpred),
            il1_line_shift: config.hierarchy.il1.line_bytes.trailing_zeros(),
            last_fetch_line: None,
        }
    }

    /// Applies one fast-forwarded event: a cache access down the
    /// hierarchy (skipped for a fetch to the previous fetch's IL1 line,
    /// see the type docs), or a predict/train round of the branch
    /// predictor.
    pub fn apply(&mut self, event: WarmEvent) {
        match event {
            WarmEvent::Fetch { pc } => {
                let line = pc >> self.il1_line_shift;
                if self.last_fetch_line != Some(line) {
                    self.last_fetch_line = Some(line);
                    self.hier.fetch_latency(pc);
                }
            }
            WarmEvent::Data { addr, is_write } => {
                self.hier.data_access(addr, is_write);
            }
            WarmEvent::CondBranch { pc, taken } => {
                let pred = self.bpred.predict_cond(pc);
                self.bpred.resolve_cond(pred, taken);
            }
            WarmEvent::IndirectJump { pc, target, is_return } => {
                let predicted = self.bpred.predict_indirect(pc, is_return);
                self.bpred.resolve_indirect(pc, target, predicted != target);
            }
            WarmEvent::Call { return_addr } => {
                self.bpred.push_return(return_addr);
            }
        }
    }
}

impl<R: RegFileBackend> Simulator<R> {
    /// Builds an untraced machine around `program` (the program's data
    /// image is loaded into simulated memory).
    pub fn new(config: SimConfig, program: &Program) -> Self {
        Self::with_tracer(config, program, NopTracer)
    }

    /// Builds an untraced machine whose architectural state — registers,
    /// memory, PC, retired count — is seeded from `ckpt` instead of the
    /// program's reset state, with `image` the [`ProgramImage`] of the
    /// program `ckpt` was captured from: the machine is built around the
    /// memory restored from the image. The microarchitectural state
    /// (caches, branch predictor, register-file placement history) starts
    /// cold, exactly as at reset; sampled-simulation drivers warm it with
    /// a detailed warm-up window before measuring.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Internal`] when `ckpt` belongs to a different
    /// program, or when the register-file organization refuses a
    /// checkpointed value (impossible for organizations whose Long file
    /// covers all 32 architectural registers, as the paper's does).
    pub fn from_checkpoint_in(
        config: SimConfig,
        image: &ProgramImage,
        ckpt: &Checkpoint,
    ) -> Result<Self, SimError> {
        let internal = |detail: String| SimError::Internal { cycle: 0, detail };
        let mem = image.restore_memory(ckpt).map_err(|e| internal(e.to_string()))?;
        let golden = if config.cosim {
            Some(Machine::from_checkpoint_in(image, ckpt).map_err(|e| internal(e.to_string()))?)
        } else {
            None
        };
        let mut sim = Self::build(config, image.program(), mem, golden, NopTracer);
        // Re-seed the 32 architectural registers with the checkpointed
        // values. Placement is value-dependent for the content-aware file,
        // so go through the full release/alloc/write sequence rather than
        // poking values in.
        for i in 0..32usize {
            sim.int_rf.release(i);
            sim.int_rf.on_alloc(i);
            sim.int_rf
                .try_write(i, ckpt.regs[i], false)
                .map_err(|_| internal(format!("register file refused checkpoint value x{i}")))?;
            sim.int_pregs[i].value = ckpt.regs[i];
            sim.fp_rf.release(i);
            sim.fp_rf.on_alloc(i);
            sim.fp_rf
                .try_write(i, ckpt.fregs[i], false)
                .map_err(|_| internal(format!("fp file refused checkpoint value f{i}")))?;
            sim.fp_pregs[i].value = ckpt.fregs[i];
        }
        // As in `with_tracer`: seeding writes are bookkeeping, not workload
        // accesses.
        sim.int_rf.stats_mut().reset();
        sim.fp_rf.stats_mut().reset();
        sim.fetch_pc = ckpt.pc;
        sim.commit_next_pc = ckpt.pc;
        sim.retired_base = ckpt.retired;
        sim.halted = ckpt.halted;
        Ok(sim)
    }
}

impl<R: RegFileBackend, T: Tracer> Simulator<R, T> {
    /// Builds a machine that reports pipeline events to `tracer`.
    pub fn with_tracer(config: SimConfig, program: &Program, tracer: T) -> Self {
        let mut mem = SparseMemory::new();
        program.load_data(&mut mem);
        let golden = config.cosim.then(|| Machine::load(program));
        Self::build(config, program, mem, golden, tracer)
    }

    /// A reset-state pipeline around `mem` (the committed memory image)
    /// and `golden` (the co-simulation reference, present iff
    /// `config.cosim`), with the PC at the program's entry.
    fn build(
        config: SimConfig,
        program: &Program,
        mem: SparseMemory,
        golden: Option<Machine>,
        tracer: T,
    ) -> Self {
        let int_rf = R::from_config(&config);
        let read_stages = u64::from(int_rf.read_stages());
        let wb_stages = u64::from(int_rf.writeback_stages());
        let full_bypass = int_rf.writeback_stages() == 1 || int_rf.extra_bypass_level();
        // An organization with its own physical port budget (the
        // port-reduced file) overrides the machine configuration.
        let int_read_ports = int_rf.read_port_limit().unwrap_or(config.rf_read_ports);

        let rename = RenameTables::new(config.int_pregs, config.fp_pregs);

        let mut sim = Self {
            now: 0,
            seq_counter: 0,
            halted: false,
            fetch_pc: program.entry,
            fetch_resume_at: 0,
            fetch_wild: false,
            fetch_gate: true,
            fetch_q: VecDeque::new(),
            bpred: BranchPredictor::new(&config.bpred),
            rename,
            unresolved_branches: 0,
            rob: Rob::new(config.rob_size),
            int_iq_len: 0,
            fp_iq_len: 0,
            lsq: LoadStoreQueue::new(config.lsq_size),
            int_rf,
            fp_rf: BaselineRegFile::new(config.fp_pregs),
            int_pregs: vec![PregState::reset(); config.int_pregs],
            fp_pregs: vec![PregState::reset(); config.fp_pregs],
            int_fus: FuPool::new(config.int_units),
            fp_fus: FuPool::new(config.fp_units),
            int_read_ports: PortMeter::new(int_read_ports),
            int_write_ports: PortMeter::new(config.rf_write_ports),
            fp_read_ports: PortMeter::new(config.rf_read_ports),
            fp_write_ports: PortMeter::new(config.rf_write_ports),
            capture_wheel: TimingWheel::new(CAPTURE_SLOTS),
            completion_wheel: TimingWheel::new(WHEEL_SLOTS),
            wake_wheel: TimingWheel::new(WHEEL_SLOTS),
            int_consumers: vec![Vec::new(); config.int_pregs],
            fp_consumers: vec![Vec::new(); config.fp_pregs],
            pending_loads: Vec::new(),
            wb_pending: Vec::new(),
            guard_held: Vec::new(),
            handle_scratch: Vec::new(),
            issue_cand: Vec::new(),
            event_scratch: Vec::new(),
            oracle_scratch: Vec::new(),
            hier: MemoryHierarchy::new(config.hierarchy),
            mem,
            commit_int_rat: std::array::from_fn(|i| i as Preg),
            commit_fp_rat: std::array::from_fn(|i| i as Preg),
            rob_interval_count: 0,
            last_commit_cycle: 0,
            golden,
            commit_limit: None,
            commit_next_pc: program.entry,
            retired_base: 0,
            read_stages,
            wb_stages,
            full_bypass,
            stats: SimStats::default(),
            tracer,
            program: program.clone(),
            config,
        };
        // The 32 initial architectural registers hold zero and are readable
        // from the register files.
        for p in 0..32usize {
            sim.int_rf.on_alloc(p);
            sim.int_rf
                .try_write(p, 0, false)
                .expect("initializing an architectural register cannot fail");
            sim.int_pregs[p] = PregState::architectural_zero();
            sim.fp_rf.on_alloc(p);
            sim.fp_rf.try_write(p, 0, false).expect("fp init write cannot fail");
            sim.fp_pregs[p] = PregState::architectural_zero();
        }
        // Initialization writes are bookkeeping, not workload accesses.
        sim.int_rf.stats_mut().reset();
        sim.fp_rf.stats_mut().reset();
        sim
    }
}

impl<R: IntRegFile, T: Tracer> Simulator<R, T> {
    /// The accumulated statistics.
    ///
    /// The live counters, which the pipeline counts into [`SimStats`]
    /// itself (`cycles`, `committed`, `long_guard_stall_cycles`, the
    /// operand, squash and dispatch-stall counts, the oracle), are current
    /// after every cycle. The aggregate groups are copied out of the
    /// structures that count them: `mem`, `bpred`, `int_rf`, `fp_rf`, the
    /// Long and Short occupancy figures, `stl_forwards`, the LSQ counters
    /// and the FU denials. They are current once [`Simulator::run`] or
    /// [`Simulator::run_exact`] returns, or once
    /// [`MultiSim`](crate::MultiSim) has finalized the context; bare
    /// [`Simulator::step_cycle`] calls leave them as they were.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The installed tracer.
    pub fn tracer(&self) -> &T {
        &self.tracer
    }

    /// Mutable access to the installed tracer.
    pub fn tracer_mut(&mut self) -> &mut T {
        &mut self.tracer
    }

    /// Consumes the machine and returns the tracer (to read out reports
    /// after a run).
    pub fn into_tracer(self) -> T {
        self.tracer
    }

    /// The integer register file (for inspection in tests and experiments).
    pub fn int_regfile(&self) -> &R {
        &self.int_rf
    }

    /// Mutable access to the integer register file (experiment harnesses,
    /// e.g. the SMT shared-Long-file study).
    pub fn int_regfile_mut(&mut self) -> &mut R {
        &mut self.int_rf
    }

    /// `true` once `halt` has committed.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Opens or closes this machine's fetch slot for the *next* cycle
    /// (multi-context fetch arbitration: round-robin/ICOUNT grant the slot
    /// to a subset of contexts each cycle). A closed gate only suppresses
    /// new fetches — everything already in flight proceeds normally. Solo
    /// harnesses never call this; the gate defaults to open.
    pub fn set_fetch_slot(&mut self, open: bool) {
        self.fetch_gate = open;
    }

    /// Instructions currently in flight (fetched or renamed, not yet
    /// retired) — the ICOUNT arbitration metric.
    pub fn in_flight(&self) -> usize {
        self.rob.len() + self.fetch_q.len()
    }

    /// Routes this machine's L2 traffic through a shared array (the
    /// multi-context "2-core shared-L2" flavor); see
    /// [`MemoryHierarchy::attach_shared_l2`].
    pub fn attach_shared_l2(&mut self, handle: carf_mem::SharedL2Handle) {
        self.hier.attach_shared_l2(handle);
    }

    /// Advances the machine one cycle (no-op once halted). External
    /// harnesses use this to interleave several machines on one clock;
    /// [`Simulator::run`] is the usual driver.
    ///
    /// A step keeps the live counters of [`Simulator::stats`] current but
    /// leaves its aggregate groups as they were (see there);
    /// [`MultiSim`](crate::MultiSim) finalizes them when a context
    /// finishes.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] on co-simulation divergence, watchdog
    /// expiry, or runaway fetch.
    pub fn step_cycle(&mut self) -> Result<(), SimError> {
        if self.halted {
            return Ok(());
        }
        self.cycle()?;
        if self.now.saturating_sub(self.last_commit_cycle) > self.config.watchdog_cycles {
            return Err(SimError::Watchdog { cycle: self.now });
        }
        Ok(())
    }

    /// Runs until `halt` commits or `max_insts` instructions commit.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] on co-simulation divergence, watchdog expiry,
    /// or runaway fetch.
    pub fn run(&mut self, max_insts: u64) -> Result<SimResult, SimError> {
        while !self.halted && self.stats.committed < max_insts {
            self.cycle()?;
            if self.now.saturating_sub(self.last_commit_cycle) > self.config.watchdog_cycles {
                return Err(SimError::Watchdog { cycle: self.now });
            }
        }
        self.finalize_stats();
        Ok(SimResult {
            committed: self.stats.committed,
            cycles: self.stats.cycles,
            halted: self.halted,
            ipc: self.stats.ipc(),
        })
    }

    /// Runs until the *global* retired count — `retired_base` plus this
    /// run's commits — reaches exactly `target` (or `halt` commits first).
    /// Unlike [`Simulator::run`], commit stops mid-burst at the boundary,
    /// so the committed architectural state afterwards is the state after
    /// exactly `target` instructions: the instruction-precise driver for
    /// sampled simulation (warm-up and measurement windows end at exact
    /// instruction counts).
    ///
    /// # Errors
    ///
    /// As [`Simulator::run`].
    pub fn run_exact(&mut self, target: u64) -> Result<SimResult, SimError> {
        let local = target.saturating_sub(self.retired_base);
        self.commit_limit = Some(local);
        while !self.halted && self.stats.committed < local {
            self.cycle()?;
            if self.now.saturating_sub(self.last_commit_cycle) > self.config.watchdog_cycles {
                self.commit_limit = None;
                return Err(SimError::Watchdog { cycle: self.now });
            }
        }
        self.commit_limit = None;
        self.finalize_stats();
        Ok(SimResult {
            committed: self.stats.committed,
            cycles: self.stats.cycles,
            halted: self.halted,
            ipc: self.stats.ipc(),
        })
    }

    /// Captures the committed architectural state as a [`Checkpoint`]:
    /// the commit-RAT register values, the committed memory image (stores
    /// drain to it at commit), the next-to-commit PC, and the global
    /// retired count. Bit-comparable with the functional executor's
    /// [`Machine::checkpoint`] — the sampling round-trip tests pin the two
    /// to each other.
    pub fn arch_checkpoint(&self) -> Checkpoint {
        let regs = std::array::from_fn(|i| {
            self.int_pregs[self.commit_int_rat[i] as usize].value
        });
        let fregs = std::array::from_fn(|i| {
            self.fp_pregs[self.commit_fp_rat[i] as usize].value
        });
        Checkpoint::from_parts(
            regs,
            fregs,
            self.commit_next_pc,
            self.retired_base + self.stats.committed,
            self.halted,
            &self.mem,
            &ProgramImage::new(&self.program),
        )
    }

    /// Instructions retired globally: commits of this run plus the
    /// checkpointed count this simulator was seeded with (0 for a
    /// reset-state machine).
    pub fn retired(&self) -> u64 {
        self.retired_base + self.stats.committed
    }

    /// Installs functionally warmed cache and branch-predictor state (see
    /// [`WarmState`]), replacing this simulator's cold structures. Call
    /// right after [`Simulator::from_checkpoint_in`], before running: a
    /// measured interval then starts with the microarchitectural memory
    /// of every instruction the fast-forward skipped, not a cold machine.
    ///
    /// Only caches and predictor state change — nothing architectural, no
    /// pipeline activity, no cycles. The absolute hit/miss and prediction
    /// counters carried in by the warm state (its IL1 hit count short by
    /// the repeat-line fetches it skipped) are harmless to a sampling
    /// driver, which deltas statistics around the measured window anyway.
    pub fn install_warm_state(&mut self, warm: &WarmState) {
        self.hier = warm.hier.clone();
        self.bpred = warm.bpred.clone();
    }

    /// Copies the aggregate groups of [`Simulator::stats`] out of the
    /// structures that count them, as they stand now.
    pub(crate) fn finalize_stats(&mut self) {
        self.stats.bpred = *self.bpred.stats();
        self.stats.mem = self.hier.stats();
        self.stats.int_rf = *self.int_rf.stats();
        self.stats.fp_rf = *self.fp_rf.stats();
        self.stats.stl_forwards = self.lsq.forwards();
        self.stats.int_fu_denials = self.int_fus.denials();
        self.stats.fp_fu_denials = self.fp_fus.denials();
        self.stats.lsq_wait_events = self.lsq.wait_events();
        self.stats.lsq_peak = self.lsq.peak_len();
        if let Some(occ) = self.int_rf.occupancy_report() {
            self.stats.long_mean_live = occ.long_mean_live;
            self.stats.long_peak_live = occ.long_peak_live;
            self.stats.short_mean_occupancy = occ.short_mean_occupancy;
            self.stats.long_occupancy_hist = occ.long_occupancy_hist;
        }
    }

    // ----- per-cycle machinery ------------------------------------------

    fn cycle(&mut self) -> Result<(), SimError> {
        self.now += 1;
        self.stats.cycles = self.now;
        self.hier.begin_cycle();
        self.int_read_ports.begin_cycle();
        self.int_write_ports.begin_cycle();
        self.fp_read_ports.begin_cycle();
        self.fp_write_ports.begin_cycle();

        let committed_before = self.stats.committed;
        self.commit()?;
        if T::ENABLED {
            // Exactly one Cycle event per simulated cycle (including the
            // halting one), so attribution buckets sum to total cycles.
            let commits = self.stats.committed - committed_before;
            let cause = self.classify_cycle(commits);
            self.tracer.event(TraceEvent::Cycle {
                cycle: self.now,
                commits,
                cause,
                rob: self.rob.len() as u32,
                iq: (self.int_iq_len + self.fp_iq_len) as u32,
                lsq: self.lsq.len() as u32,
            });
        }
        if self.halted {
            return Ok(());
        }
        self.writeback()?;
        self.exec_complete();
        self.capture_operands();
        self.memory_stage();
        self.issue();
        self.dispatch();
        self.fetch()?;
        self.sample();
        Ok(())
    }
    // ----- sampling --------------------------------------------------------

    fn sample(&mut self) {
        // Occupancy statistics are cheap; sample them every cycle.
        self.int_rf.sample_occupancy();
        let Some(period) = self.config.oracle_period else { return };
        if !self.now.is_multiple_of(period) {
            return;
        }
        self.oracle_scratch.clear();
        self.oracle_scratch.extend(self.int_pregs.iter().filter(|s| s.valid).map(|s| s.value));
        self.stats.oracle.record(&mut self.oracle_scratch);
    }
}

impl<R: IntRegFile, T: Tracer> std::fmt::Debug for Simulator<R, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("cycle", &self.now)
            .field("committed", &self.stats.committed)
            .field("rob", &self.rob.len())
            .field("halted", &self.halted)
            .finish()
    }
}
