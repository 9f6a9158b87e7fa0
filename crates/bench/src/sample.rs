//! SimPoint-style interval sampling: fast-forward functionally, simulate
//! a few intervals cycle-level, and estimate whole-run IPC from them.
//!
//! The run is split into fixed-size intervals of [`SampleSpec::interval`]
//! committed instructions. Every [`SampleSpec::period`]-th interval is
//! *measured*: the functional executor fast-forwards (via the decoded
//! cache, [`carf_isa::Machine::run_decoded`]) to [`SampleSpec::warmup`]
//! instructions before the interval, takes an architectural
//! [`carf_isa::Checkpoint`], and a cycle-level simulator seeded from it runs the
//! warm-up window (filling caches, the branch predictor, and the register
//! file's placement state) followed by the measured interval. Only the
//! measured window's statistics deltas are kept.
//!
//! The sampled IPC estimate is Σ committed / Σ cycles over the measured
//! intervals; the per-interval IPC spread gives a 95% confidence interval
//! (`1.96·sd/√K`). The detailed fraction tends to
//! `(warmup + interval) / (period · interval)` — 17.5% at the defaults —
//! as a run grows, but it is not a bound: the first window has no warm-up
//! and a run rarely spans a whole number of periods, so a short run can
//! exceed it (a 500k-instruction run at the defaults simulates 17.8%).
//! [`SampleSpec::detail_insts`] gives the exact count for a run's length.

use carf_isa::{
    DecodedProgram, ExecError, ExecObserver, Machine, NullObserver, Program, ProgramImage,
};
use carf_sim::{AnySimulator, SimConfig, SimStats, WarmEvent, WarmState};
use carf_workloads::Workload;

use crate::Budget;

/// Sampling parameters: interval geometry and warm-up depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleSpec {
    /// Committed instructions per interval.
    pub interval: u64,
    /// Every `period`-th interval is measured cycle-level.
    pub period: u64,
    /// Detailed warm-up instructions before each measured interval.
    pub warmup: u64,
}

impl Default for SampleSpec {
    fn default() -> Self {
        // 5000-instruction intervals, every 8th measured, 2000-instruction
        // warm-up: at most (2000+5000)/40000 = 17.5% of instructions are
        // simulated cycle-level, with 5 (quick) to 25 (full) measured
        // intervals per workload at the standard budgets.
        Self { interval: 5_000, period: 8, warmup: 2_000 }
    }
}

impl SampleSpec {
    /// Parses an `--sample=I/P/W` value: interval, period, and warm-up as
    /// positive integers (e.g. `5000/8/2000`). An empty string yields the
    /// default spec.
    ///
    /// # Errors
    ///
    /// Returns a message describing the malformed component.
    pub fn parse(spec: &str) -> Result<Self, String> {
        if spec.is_empty() {
            return Ok(Self::default());
        }
        let parts: Vec<&str> = spec.split('/').collect();
        let [i, p, w] = parts.as_slice() else {
            return Err(format!(
                "`--sample` expects INTERVAL/PERIOD/WARMUP (e.g. 5000/8/2000), got `{spec}`"
            ));
        };
        let num = |name: &str, v: &str| {
            v.parse::<u64>()
                .ok()
                .filter(|n| *n >= 1)
                .ok_or_else(|| format!("`--sample` {name} expects a positive integer, got `{v}`"))
        };
        let out = Self { interval: num("interval", i)?, period: num("period", p)?, warmup: num("warmup", w)? };
        // The gap below, `detail_bound` and `detail_insts` multiply no
        // more than this.
        if out.interval.checked_mul(out.period).is_none() {
            return Err(format!(
                "`--sample` interval * period ({} * {}) overflows a 64-bit count",
                out.interval, out.period
            ));
        }
        let gap = out.interval * (out.period - 1).max(1);
        if out.warmup >= gap {
            return Err(format!(
                "`--sample` warm-up ({}) must be shorter than the gap between \
                 measured intervals ({gap})",
                out.warmup
            ));
        }
        Ok(out)
    }

    /// The long-run fraction of instructions simulated cycle-level,
    /// `(warmup + interval) / (period · interval)`. A description, not a
    /// bound: [`SampleSpec::detail_insts`] is the exact count for one run.
    pub fn detail_bound(&self) -> f64 {
        (self.warmup + self.interval) as f64 / (self.period * self.interval) as f64
    }

    /// Instructions a sampled run simulates cycle-level when the program
    /// retires `total_insts` under a cap of `max_insts`: the sum, over the
    /// measured windows that start before the cap and whose warm-up
    /// starts before the program ends, of each window's span from its
    /// warm-up start to its end, `min(start + interval, total)`. The
    /// first window starts at 0 with no warm-up, and a program that halts
    /// during a window's warm-up still simulates that warm-up.
    pub fn detail_insts(&self, total_insts: u64, max_insts: u64) -> u64 {
        let stride = self.interval * self.period;
        let mut detailed = 0;
        let mut start = 0u64;
        while start < max_insts {
            let warm_start = start.saturating_sub(self.warmup);
            if warm_start >= total_insts {
                break;
            }
            detailed += start.saturating_add(self.interval).min(total_insts) - warm_start;
            match start.checked_add(stride) {
                Some(next) => start = next,
                None => break,
            }
        }
        detailed
    }

    /// A compact `I/P/W` tag for report headers.
    pub fn label(&self) -> String {
        format!("{}/{}/{}", self.interval, self.period, self.warmup)
    }
}

/// One measured interval's exact statistics window.
#[derive(Debug, Clone, Copy)]
pub struct IntervalSample {
    /// Interval index in the full run.
    pub index: u64,
    /// First instruction of the measured window (global retired count).
    pub start: u64,
    /// Instructions committed in the window (a short final interval
    /// commits fewer than the interval length).
    pub committed: u64,
    /// Cycles the window took.
    pub cycles: u64,
}

impl IntervalSample {
    /// The interval's IPC.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }
}

/// The outcome of one sampled run.
#[derive(Debug, Clone)]
pub struct SampledRun {
    /// Statistics aggregated over the measured windows only (warm-up
    /// excluded): `stats.ipc()` is the sampled IPC estimate, and every
    /// counter is the sum of exact before/after deltas, so downstream
    /// consumers (energy models, access-mix tables) work unchanged.
    /// Oracle demographics and occupancy histograms are not windowed.
    pub stats: SimStats,
    /// The measured intervals, in run order.
    pub intervals: Vec<IntervalSample>,
    /// Instructions the full run retires (functional count, budget-capped).
    pub total_insts: u64,
    /// Instructions simulated cycle-level (warm-up + measured).
    pub detailed_insts: u64,
}

impl SampledRun {
    /// The sampled IPC estimate: Σ committed / Σ cycles over measured
    /// intervals.
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }

    /// Unweighted mean of per-interval IPC.
    pub fn mean_interval_ipc(&self) -> f64 {
        crate::mean(self.intervals.iter().map(IntervalSample::ipc))
    }

    /// 95% confidence half-width on the mean interval IPC:
    /// `1.96 · sd / √K` (0.0 with fewer than two intervals).
    pub fn ci95(&self) -> f64 {
        let k = self.intervals.len();
        if k < 2 {
            return 0.0;
        }
        let mean = self.mean_interval_ipc();
        let var = self
            .intervals
            .iter()
            .map(|s| (s.ipc() - mean).powi(2))
            .sum::<f64>()
            / (k - 1) as f64;
        1.96 * var.sqrt() / (k as f64).sqrt()
    }

    /// Fraction of retired instructions that were simulated cycle-level.
    pub fn detail_fraction(&self) -> f64 {
        if self.total_insts == 0 {
            0.0
        } else {
            self.detailed_insts as f64 / self.total_insts as f64
        }
    }
}

/// Relative sampling error `|sampled - full| / full`, or `None` when the
/// comparison is meaningless — either input non-finite or a zero
/// reference. A checker must treat `None` as a loud failure, never as
/// "within tolerance": NaN compares false against every bound, so a naive
/// `err > bound` test silently passes exactly when the run is broken.
pub fn relative_error(sampled: f64, full: f64) -> Option<f64> {
    if !sampled.is_finite() || !full.is_finite() || full == 0.0 {
        return None;
    }
    let err = (sampled - full).abs() / full.abs();
    err.is_finite().then_some(err)
}

/// Advances the functional machine to `target` retired instructions (a
/// no-op when already there or halted), streaming the region's accesses
/// into `obs` for functional warming.
fn fast_forward(
    m: &mut Machine,
    decoded: &DecodedProgram,
    target: u64,
    obs: &mut impl ExecObserver,
) -> Result<(), String> {
    let needed = target.saturating_sub(m.retired());
    if needed == 0 || m.is_halted() {
        return Ok(());
    }
    match m.run_decoded_with(decoded, needed, obs) {
        Ok(_) => Ok(()),                          // program halted before target
        Err(ExecError::InstLimit(_)) => Ok(()),   // reached target
        Err(e) => Err(format!("fast-forward failed: {e}")),
    }
}

/// Streams the decoded executor's event channel into a persistent
/// [`WarmState`] — the functional-warming hookup.
///
/// Without warming, every measured interval starts from cold caches and
/// a cold branch predictor, and the detailed warm-up window (thousands
/// of instructions) cannot rebuild a working set that took hundreds of
/// thousands of instructions to form: sampled IPC comes out 20–60% low
/// on cache-resident kernels. The warm state is fed the *entire*
/// fast-forwarded stream (not just the stretch since the last window) so
/// large, sparsely revisited footprints accumulate the same way they do
/// in a straight-through run; each measured interval's simulator gets a
/// clone of it via [`AnySimulator::install_warm_state`].
struct WarmSink<'a>(&'a mut WarmState);

impl ExecObserver for WarmSink<'_> {
    fn retire(&mut self, pc: u64) {
        self.0.apply(WarmEvent::Fetch { pc });
    }

    fn load(&mut self, addr: u64) {
        self.0.apply(WarmEvent::Data { addr, is_write: false });
    }

    fn store(&mut self, addr: u64) {
        self.0.apply(WarmEvent::Data { addr, is_write: true });
    }

    fn cond_branch(&mut self, pc: u64, taken: bool) {
        self.0.apply(WarmEvent::CondBranch { pc, taken });
    }

    fn indirect_jump(&mut self, pc: u64, target: u64, is_return: bool) {
        self.0.apply(WarmEvent::IndirectJump { pc, target, is_return });
    }

    fn call(&mut self, return_addr: u64) {
        self.0.apply(WarmEvent::Call { return_addr });
    }
}

/// Adds the `after - before` window of every monotonic counter to `agg`.
fn add_window_delta(agg: &mut SimStats, before: &SimStats, after: &SimStats) {
    macro_rules! add {
        ($($field:ident).+) => {
            agg.$($field).+ += after.$($field).+ - before.$($field).+;
        };
        ($($($field:ident).+),+ $(,)?) => {
            $( add!($($field).+); )+
        };
    }
    add!(
        cycles, committed, loads, stores, branches, fp_ops, fetched, squashed,
        mispredicts, deadlock_recoveries, long_guard_stall_cycles,
        bypassed_operands, rf_operands, zero_operands, wb_long_retries,
        load_replays, mem_dep_violations,
        dispatch_stalls.rob, dispatch_stalls.pregs, dispatch_stalls.lsq,
        dispatch_stalls.iq, dispatch_stalls.checkpoints,
        operand_mix.only_simple, operand_mix.only_short, operand_mix.only_long,
        operand_mix.simple_short, operand_mix.simple_long, operand_mix.short_long,
        bpred.cond_predictions, bpred.cond_mispredicts,
        bpred.indirect_predictions, bpred.indirect_mispredicts,
        mem.il1.hits, mem.il1.misses, mem.il1.writebacks,
        mem.dl1.hits, mem.dl1.misses, mem.dl1.writebacks,
        mem.l2.hits, mem.l2.misses, mem.l2.writebacks,
        mem.memory_accesses,
        int_rf.reads.simple, int_rf.reads.short, int_rf.reads.long,
        int_rf.writes.simple, int_rf.writes.short, int_rf.writes.long,
        int_rf.total_reads, int_rf.total_writes, int_rf.long_write_stalls,
        int_rf.short_allocs, int_rf.short_alloc_rejects, int_rf.short_reclaims,
        int_rf.long_allocs, int_rf.long_releases,
        fp_rf.reads.simple, fp_rf.reads.short, fp_rf.reads.long,
        fp_rf.writes.simple, fp_rf.writes.short, fp_rf.writes.long,
        fp_rf.total_reads, fp_rf.total_writes, fp_rf.long_write_stalls,
        fp_rf.short_allocs, fp_rf.short_alloc_rejects, fp_rf.short_reclaims,
        fp_rf.long_allocs, fp_rf.long_releases,
        int_rf.capture_reuse_hits, fp_rf.capture_reuse_hits,
        dest_class_matches, dest_class_total, stl_forwards,
        rf_read_port_denials, int_fu_denials, fp_fu_denials, lsq_wait_events,
    );
    agg.lsq_peak = agg.lsq_peak.max(after.lsq_peak);
    agg.long_peak_live = agg.long_peak_live.max(after.long_peak_live);
}

/// Runs `program` under `config` with interval sampling and returns the
/// sampled estimate.
///
/// Each measured interval seeds a fresh simulator from a functional
/// checkpoint ([`AnySimulator::from_checkpoint_in`]), warms it for
/// [`SampleSpec::warmup`] instructions, then measures. The program's
/// fingerprint and initial data image are computed once per run (one
/// [`ProgramImage`]), so a window costs one checkpoint diff, one memory
/// restore and one copy of the warm state. Every simulated window runs
/// with whatever co-simulation setting `config` carries, so a sampled run
/// keeps the golden-model safety net.
///
/// # Errors
///
/// Returns a message on simulator errors (co-simulation mismatch,
/// watchdog, checkpoint refusal) — sampled numbers from a broken run are
/// worse than no numbers.
pub fn run_program_sampled(
    config: &SimConfig,
    program: &Program,
    spec: &SampleSpec,
    max_insts: u64,
) -> Result<SampledRun, String> {
    let image = ProgramImage::new(program);
    let decoded = DecodedProgram::decode(program);
    let mut m = Machine::load(program);
    let mut warm = WarmState::new(config);
    let mut agg = SimStats::default();
    let mut intervals = Vec::new();
    let mut detailed_insts = 0u64;
    let mut mean_live_sum = 0.0f64;
    let mut short_occ_sum = 0.0f64;

    let mut index = 0u64;
    loop {
        let start = index * spec.interval;
        if start >= max_insts || m.is_halted() {
            break;
        }
        if index.is_multiple_of(spec.period) {
            let end = (start + spec.interval).min(max_insts);
            let warm_start = start.saturating_sub(spec.warmup);
            fast_forward(&mut m, &decoded, warm_start, &mut WarmSink(&mut warm))?;
            if m.retired() < warm_start {
                break; // program ended before this interval
            }
            let ckpt = m.checkpoint_in(&image);
            let mut sim = AnySimulator::from_checkpoint_in(config.clone(), &image, &ckpt)
                .map_err(|e| format!("checkpoint restore failed: {e}"))?;
            sim.install_warm_state(&warm); // functionally warmed caches/bpred
            sim.run_exact(start).map_err(|e| format!("warm-up window failed: {e}"))?;
            let before = sim.stats().clone();
            sim.run_exact(end).map_err(|e| format!("measured window failed: {e}"))?;
            let after = sim.stats();
            let committed = after.committed - before.committed;
            if committed > 0 {
                add_window_delta(&mut agg, &before, after);
                mean_live_sum += after.long_mean_live;
                short_occ_sum += after.short_mean_occupancy;
                intervals.push(IntervalSample {
                    index,
                    start,
                    committed,
                    cycles: after.cycles - before.cycles,
                });
            }
            detailed_insts += sim.retired() - warm_start;
        }
        index += 1;
    }
    // Finish the functional run for the true instruction total (nothing
    // left to warm — no simulator runs after this).
    fast_forward(&mut m, &decoded, max_insts, &mut NullObserver)?;

    // Occupancy means are per-window simulator means; report their average
    // over the measured windows (each window weighs equally, like the IPC
    // confidence interval).
    let k = intervals.len().max(1) as f64;
    agg.long_mean_live = mean_live_sum / k;
    agg.short_mean_occupancy = short_occ_sum / k;

    Ok(SampledRun {
        stats: agg,
        intervals,
        total_insts: m.retired().min(max_insts),
        detailed_insts,
    })
}

/// [`run_program_sampled`] for a [`Workload`] at a [`Budget`]'s size,
/// using the budget's sample spec (or the default when unset).
///
/// # Panics
///
/// Panics on simulator errors, like [`crate::run_workload`].
pub fn run_workload_sampled(
    config: &SimConfig,
    workload: &Workload,
    budget: &Budget,
) -> SampledRun {
    let spec = budget.sample.unwrap_or_default();
    let program = workload.build(workload.size(budget.size));
    run_program_sampled(config, &program, &spec, budget.max_insts)
        .unwrap_or_else(|e| panic!("{} under {:?}: {e}", workload.name, config.regfile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use carf_workloads::SizeClass;

    #[test]
    fn spec_parsing() {
        assert_eq!(SampleSpec::parse("").unwrap(), SampleSpec::default());
        let s = SampleSpec::parse("1000/4/500").unwrap();
        assert_eq!((s.interval, s.period, s.warmup), (1000, 4, 500));
        assert!(SampleSpec::parse("1000/4").is_err());
        assert!(SampleSpec::parse("0/4/500").is_err());
        assert!(SampleSpec::parse("x/4/500").is_err());
        // Warm-up longer than the gap between measured intervals would
        // make windows overlap.
        assert!(SampleSpec::parse("1000/2/1000").is_err());
    }

    #[test]
    fn spec_parsing_rejects_an_interval_period_product_past_u64() {
        // 6148914691236517206 * 3 wraps to 2 in release builds, so an
        // unchecked product would pass the warm-up check (and panic in
        // debug builds).
        let err = SampleSpec::parse("6148914691236517206/4/1").unwrap_err();
        assert!(err.contains("interval * period"), "{err}");
        let half = SampleSpec::parse(&format!("{}/2/1", u64::MAX / 2)).unwrap();
        let bound = half.detail_bound();
        assert!(bound.is_finite() && bound <= 1.0, "{bound}");
    }

    #[test]
    fn default_detail_bound_is_under_a_fifth() {
        assert!(SampleSpec::default().detail_bound() <= 0.20);
    }

    #[test]
    fn detail_insts_counts_what_the_spec_schedules() {
        // 30k windows every 120k with a 5k warm-up: a 30k window at 0 and
        // a full 35k window at 120k, 32.5% of a 200k run against the
        // long-run 29.2%.
        let coarse = SampleSpec::parse("30000/4/5000").unwrap();
        assert_eq!(coarse.detail_insts(200_000, 200_000), 65_000);
        assert!(coarse.detail_insts(200_000, 200_000) as f64 / 200_000.0 > coarse.detail_bound());
        // The default spec: 5k at 0, then 7k at every 40k.
        let spec = SampleSpec::default();
        assert_eq!(spec.detail_insts(500_000, 500_000), 89_000);
        assert_eq!(spec.detail_insts(1_000_000, 1_000_000), 173_000);
        // A window the cap cuts short counts up to the cap.
        assert_eq!(spec.detail_insts(42_000, 42_000), 5_000 + 4_000);
        assert_eq!(spec.detail_insts(0, 500_000), 0);
        // Near the top of the 64-bit count: the second window starts at
        // 2^64 - 2 and ends with the run, and no third one is scheduled.
        let huge = SampleSpec { interval: u64::MAX / 2, period: 2, warmup: 1 };
        assert_eq!(huge.detail_insts(u64::MAX, u64::MAX), u64::MAX / 2 + 2);
    }

    /// A counting loop that retires `2 * n + 3` instructions, then halts.
    fn halting_program(n: u64) -> Program {
        use carf_isa::{x, Asm};
        let mut asm = Asm::new();
        asm.li(x(1), 0);
        asm.li(x(2), n);
        asm.label("loop");
        asm.addi(x(1), x(1), 1);
        asm.bne(x(1), x(2), "loop");
        asm.halt();
        asm.finish().expect("assembly")
    }

    #[test]
    fn runs_that_halt_simulate_what_the_spec_schedules() {
        let spec = SampleSpec { interval: 1_000, period: 4, warmup: 500 };
        let config = carf_sim::SimConfig::test_small();
        // Halts at 8,501, inside the window at 8,000; then at 11,801, in
        // the warm-up of the window at 12,000, which never measures.
        for (n, total, detailed) in [(4_249, 8_501, 1_000 + 1_500 + 1_001), (5_899, 11_801, 4_301)] {
            let program = halting_program(n);
            let run = run_program_sampled(&config, &program, &spec, 100_000).expect("sampled run");
            assert_eq!(run.total_insts, total);
            assert_eq!(run.detailed_insts, detailed, "n = {n}");
            assert_eq!(spec.detail_insts(run.total_insts, 100_000), run.detailed_insts, "n = {n}");
        }
    }

    #[test]
    fn sampled_run_estimates_full_ipc() {
        let spec = SampleSpec { interval: 2_000, period: 4, warmup: 1_000 };
        let config = carf_sim::SimConfig::test_small();
        let w = &carf_workloads::int_suite()[0];
        let program = w.build(w.size(SizeClass::Test));
        let max = 40_000;

        let sampled = run_program_sampled(&config, &program, &spec, max).expect("sampled run");
        assert!(!sampled.intervals.is_empty());
        assert!(sampled.detailed_insts < sampled.total_insts);

        let mut full = AnySimulator::new(config, &program);
        let full_ipc = full.run(max).expect("full run").ipc;
        let err = (sampled.ipc() - full_ipc).abs() / full_ipc;
        // Tiny windows on a tiny budget: just require the estimate to be
        // in the right neighborhood; carf-sample --check enforces the
        // tight statistical bound at real budgets.
        assert!(
            err < 0.25,
            "sampled {:.3} vs full {full_ipc:.3} ({:.1}% off)",
            sampled.ipc(),
            err * 100.0
        );
    }

    /// One interval gives no spread to estimate from: the interval must be
    /// pinned to a zero-width CI, not NaN (sample variance divides by
    /// K-1).
    #[test]
    fn single_interval_ci_is_zero_not_nan() {
        let one = SampledRun {
            stats: SimStats::default(),
            intervals: vec![IntervalSample { index: 0, start: 0, committed: 100, cycles: 50 }],
            total_insts: 100,
            detailed_insts: 100,
        };
        assert_eq!(one.ci95(), 0.0);
        assert!(one.mean_interval_ipc().is_finite());
        let none = SampledRun { intervals: Vec::new(), ..one };
        assert_eq!(none.ci95(), 0.0);
        assert_eq!(none.mean_interval_ipc(), 0.0);
    }

    /// A zero-cycle window (possible when a measured window is degenerate)
    /// must report 0 IPC, and a run containing one must keep every derived
    /// figure finite.
    #[test]
    fn zero_cycle_windows_stay_finite() {
        let dead = IntervalSample { index: 0, start: 0, committed: 0, cycles: 0 };
        assert_eq!(dead.ipc(), 0.0);
        let run = SampledRun {
            stats: SimStats::default(),
            intervals: vec![
                dead,
                IntervalSample { index: 8, start: 40_000, committed: 5_000, cycles: 2_500 },
            ],
            total_insts: 0,
            detailed_insts: 0,
        };
        assert!(run.ipc().is_finite());
        assert!(run.mean_interval_ipc().is_finite());
        assert!(run.ci95().is_finite());
        assert_eq!(run.detail_fraction(), 0.0);
    }

    #[test]
    fn relative_error_rejects_degenerate_comparisons() {
        assert_eq!(relative_error(1.1, 1.0), Some(0.10000000000000009));
        assert_eq!(relative_error(2.0, 2.0), Some(0.0));
        assert_eq!(relative_error(f64::NAN, 1.0), None);
        assert_eq!(relative_error(1.0, f64::NAN), None);
        assert_eq!(relative_error(f64::INFINITY, 1.0), None);
        assert_eq!(relative_error(1.0, 0.0), None);
    }

    #[test]
    fn json_numbers_never_emit_bare_nan() {
        // A sampled IPC or CI95 can be NaN; `{:.4}` would print bare
        // `NaN`/`inf`, which is not JSON.
        use crate::json::Value;
        assert_eq!(Value::fixed(1.25, 4).to_string(), "1.2500");
        assert_eq!(Value::fixed(0.0, 4).to_string(), "0.0000");
        assert_eq!(Value::fixed(f64::NAN, 4).to_string(), "null");
        assert_eq!(Value::fixed(f64::INFINITY, 4).to_string(), "null");
        assert_eq!(Value::fixed(f64::NEG_INFINITY, 4).to_string(), "null");
    }

    /// The sampled statistics of three kernels on both machines, pinned
    /// across commits: `(stats_hash, windows, total_insts,
    /// detailed_insts, memory counters folded)`. A change to the sampling
    /// driver, the checkpoint path or functional warming that moves any
    /// sampled number fails here, not only in the benchmark's digest.
    #[test]
    fn sampled_statistics_are_pinned() {
        const PINNED: [(&str, &str, u64, usize, u64, u64, u64); 6] = [
            ("pointer_chase", "base", 0xe8fd_a955_3b71_1328, 5, 200_000, 33_000, 0xef61_7207_8131_b6b4),
            ("pointer_chase", "carf", 0xc3c9_79b8_10b6_daa5, 5, 200_000, 33_000, 0x6867_6787_7a6a_38a7),
            ("sparse_update", "base", 0x9dc4_0c4a_b6e6_7dfe, 5, 200_000, 33_000, 0x3a03_6397_55ce_964e),
            ("sparse_update", "carf", 0x39d4_a6e0_3658_0fa8, 5, 200_000, 33_000, 0xc67c_87e8_bd89_8e91),
            ("matvec", "base", 0xb479_2702_c965_bba3, 5, 200_000, 33_000, 0x7716_e82c_2233_c267),
            ("matvec", "carf", 0x99e2_bae5_0787_d7b2, 5, 200_000, 33_000, 0x3140_964c_6fdc_583a),
        ];
        let machines = [
            ("base", SimConfig::paper_baseline()),
            ("carf", SimConfig::paper_carf(carf_core::CarfParams::paper_default())),
        ];
        let workloads = carf_workloads::all_workloads();
        let mut got = Vec::new();
        for (name, machine, ..) in PINNED {
            let w = workloads.iter().find(|w| w.name == name).expect("pinned kernel");
            let config = &machines.iter().find(|(m, _)| *m == machine).expect("machine").1;
            let program = w.build(w.size(SizeClass::Quick));
            let run = run_program_sampled(config, &program, &SampleSpec::default(), 200_000)
                .expect("sampled run");
            let m = &run.stats.mem;
            let mem = [m.il1, m.dl1, m.l2]
                .iter()
                .flat_map(|c| [c.hits, c.misses, c.writebacks])
                .chain([m.memory_accesses])
                .fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
                    (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
                });
            got.push((
                name,
                machine,
                crate::fingerprint::stats_hash(&run.stats),
                run.intervals.len(),
                run.total_insts,
                run.detailed_insts,
                mem,
            ));
        }
        assert_eq!(got, PINNED);
    }

    #[test]
    fn sampling_is_deterministic() {
        let spec = SampleSpec { interval: 1_000, period: 4, warmup: 500 };
        let config = carf_sim::SimConfig::test_small();
        let w = &carf_workloads::int_suite()[1];
        let program = w.build(w.size(SizeClass::Test));
        let a = run_program_sampled(&config, &program, &spec, 20_000).unwrap();
        let b = run_program_sampled(&config, &program, &spec, 20_000).unwrap();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.intervals.len(), b.intervals.len());
        assert_eq!(a.total_insts, b.total_insts);
    }
}
