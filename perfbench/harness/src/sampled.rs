//! The `sampled` workload: the 14 suite kernels under base and carf with
//! interval sampling at the default `SampleSpec` (what `--sample` runs),
//! plus a functional-only pass over the same kernels. One thread.
//!
//! The traced run cannot time the private steps inside
//! `run_program_sampled`, so it drives the same public calls in the same
//! order ([`replica`]); a test pins that the replica reproduces
//! `run_program_sampled`'s aggregate statistics bit for bit.

use crate::inputs::{suite_kernels, Kernel, Rng, Scale};
use crate::report::{guarded, Digest, Report};
use crate::spans::Spans;
use crate::timing::{median, rate, ratio, Sampler, Timed, TimerCost, SETUPS_PER_ROUND};
use carf_bench::fingerprint::stats_hash;
use carf_bench::sample::{run_program_sampled, SampleSpec, SampledRun};
use carf_core::CarfParams;
use carf_isa::{DecodedProgram, ExecError, ExecObserver, Machine, NullObserver, Program};
use carf_sim::{AnySimulator, SimConfig, SimStats, WarmEvent, WarmState};
use carf_workloads::SizeClass;
use std::cell::Cell;
use std::time::Instant;

/// Instruction cap of a sampled run: half the full budget, so that one
/// round takes about 2.5 s on a 2-CPU host and every run repeats several
/// times (see `timing::median`). 13 windows per kernel at the default
/// spec.
pub const NORMAL_INSTS: u64 = 500_000;
/// Instruction cap of a sampled run at the smallest scale.
pub const SMALLEST_INSTS: u64 = 60_000;
/// The functional pass runs each kernel this many times per round.
pub const FF_REPEATS: usize = 2;
/// About one `WarmState::apply` in this many is timed in the traced run.
pub const WARM_TIMING_PERIOD: u32 = 64;

/// Options of one `sampled` run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload seed.
    pub seed: u64,
    /// Keep starting rounds until this many seconds have been measured.
    pub seconds: f64,
    /// Run the traced pass instead of the timed rounds.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
}

/// The machines of the sampled runs: base and carf.
pub fn machines() -> [(&'static str, SimConfig); 2] {
    [
        ("base", SimConfig::paper_baseline()),
        ("carf", SimConfig::paper_carf(CarfParams::paper_default())),
    ]
}

/// Builds the seed-sized kernels.
pub fn setup(seed: u64, scale: Scale, spans: &mut Spans) -> (Vec<Kernel>, u64) {
    let (class, cap) = match scale {
        Scale::Normal => (SizeClass::Full, NORMAL_INSTS),
        Scale::Smallest => (SizeClass::Test, SMALLEST_INSTS),
    };
    (suite_kernels(&mut Rng::new(seed), class, spans), cap)
}

/// Runs the functional executor alone for up to `cap` instructions and
/// returns the retired count.
pub fn functional_pass(kernel: &Kernel, cap: u64) -> Result<u64, String> {
    let mut m = Machine::load(&kernel.program);
    match m.run_decoded(&kernel.decoded, cap) {
        Ok(_) | Err(ExecError::InstLimit(_)) => Ok(m.retired()),
        Err(e) => Err(format!("functional pass failed: {e}")),
    }
}

struct Round {
    wall: f64,
    /// `[kernel][machine]` → the time of the sampled run.
    secs: Vec<Vec<Option<Timed>>>,
    /// `[kernel]` → the time of each functional pass.
    ff_secs: Vec<Vec<Timed>>,
    /// `[kernel]` → instructions of one functional pass.
    ff_insts: Vec<Option<u64>>,
    /// `[kernel][machine]`.
    runs: Vec<Vec<Option<SampledRun>>>,
    /// Wall time of every operation with its checks, in round order.
    op_walls: Vec<Timed>,
}

fn round(
    kernels: &[Kernel],
    cap: u64,
    spec: &SampleSpec,
    first: Option<&Round>,
    report: &mut Report,
) -> Round {
    let start = Instant::now();
    let mut r = Round {
        wall: 0.0,
        secs: Vec::new(),
        ff_secs: Vec::new(),
        ff_insts: Vec::new(),
        runs: Vec::new(),
        op_walls: Vec::new(),
    };
    for (ki, k) in kernels.iter().enumerate() {
        let mut ff_secs = Vec::with_capacity(FF_REPEATS);
        let (ff, wall) = Timed::run(|| {
            let mut ff = Ok(0);
            for _ in 0..FF_REPEATS {
                let t = Instant::now();
                ff = guarded(|| functional_pass(k, cap));
                ff_secs.push(t.elapsed().as_secs_f64());
            }
            report.check(
                &format!("functional/{}", k.name),
                ff.as_ref().map(|_| ()).map_err(Clone::clone),
            );
            ff
        });
        r.op_walls.push(wall);
        let ff = ff.ok();
        r.ff_secs.push(
            ff_secs
                .into_iter()
                .map(|secs| Timed {
                    secs,
                    reference: wall.reference,
                })
                .collect(),
        );
        r.ff_insts.push(ff);
        let (mut secs_row, mut row) = (Vec::new(), Vec::new());
        for (mi, (mname, cfg)) in machines().iter().enumerate() {
            let mut secs = 0.0;
            let (out, wall) = Timed::run(|| {
                let start = Instant::now();
                let out = guarded(|| run_program_sampled(cfg, &k.program, spec, cap));
                secs = start.elapsed().as_secs_f64();
                let outcome = out.as_ref().map_err(Clone::clone).and_then(|s| {
                    check_total(s.total_insts, ff)?;
                    same_as_first(first.and_then(|r| r.runs[ki][mi].as_ref()), s)
                });
                report.check(&format!("sampled/{mname}/{}", k.name), outcome);
                out
            });
            r.op_walls.push(wall);
            secs_row.push(out.is_ok().then_some(Timed {
                secs,
                reference: wall.reference,
            }));
            row.push(out.ok());
        }
        r.secs.push(secs_row);
        r.runs.push(row);
    }
    r.wall = start.elapsed().as_secs_f64();
    r
}

/// A repeated or traced sampled run must aggregate exactly the statistics
/// of the first untraced run.
fn same_as_first(first: Option<&SampledRun>, got: &SampledRun) -> Result<(), String> {
    match first {
        Some(f) if stats_hash(&f.stats) != stats_hash(&got.stats) => Err(format!(
            "stats_hash {:016x} differs from the first run's {:016x}",
            stats_hash(&got.stats),
            stats_hash(&f.stats)
        )),
        _ => Ok(()),
    }
}

/// A sampled run covers exactly the instructions the functional executor
/// retires on its own.
fn check_total(sampled: u64, functional: Option<u64>) -> Result<(), String> {
    match functional {
        Some(f) if f == sampled => Ok(()),
        Some(f) => Err(format!(
            "sampled run covered {sampled} instructions, functional pass {f}"
        )),
        None => Err("no functional total to compare against".into()),
    }
}

/// Runs the workload and returns its report.
///
/// # Errors
///
/// Never at present; the signature matches the other workloads.
pub fn run(opts: &Options) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setup_spans = Spans::new(opts.trace);
    let ((kernels, cap), first_setup) =
        Timed::run(|| setup(opts.seed, opts.scale, &mut setup_spans));
    let mut setup_times = vec![first_setup];
    report.inputs = kernels
        .iter()
        .map(|k| format!("{}={}", k.name, k.size))
        .collect();
    let spec = SampleSpec::default();

    // Rounds keep starting while one more fits in the measured time.
    let started = Instant::now();
    let first = round(&kernels, cap, &spec, None, &mut report);
    let mut digest = Digest::default();
    for s in first.runs.iter().flatten().flatten() {
        digest.add_stats(&s.stats);
    }
    report.digest = digest.hex();

    if opts.trace {
        report.set("setup_s", first_setup.secs);
        traced(&kernels, cap, &spec, &first, &setup_spans, &mut report);
        return Ok(report);
    }
    // The first round warms up and is not timed; at least one more is.
    let mut rounds = vec![first];
    while rounds.len() < 2 || started.elapsed().as_secs_f64() + rounds[0].wall <= opts.seconds {
        // More set-ups between rounds spread the set-up samples over the run.
        for _ in 0..SETUPS_PER_ROUND {
            let (_, t) = Timed::run(|| setup(opts.seed, opts.scale, &mut Spans::new(false)));
            setup_times.push(t);
        }
        let r = round(&kernels, cap, &spec, Some(&rounds[0]), &mut report);
        rounds.push(r);
    }
    // Each operation's median over the timed rounds (see `median`), in
    // seconds adjusted to a quiet host for the gated metrics and in host
    // seconds for the report.
    report.set(
        "setup_s",
        median(setup_times.iter().map(Timed::adjusted)).unwrap_or(0.0),
    );
    report.set(
        "setup_host_s",
        median(setup_times.iter().map(Timed::secs)).unwrap_or(0.0),
    );
    let (first, timed) = (&rounds[0], &rounds[1..]);
    let wall = |unit: fn(&Timed) -> f64| -> f64 {
        (0..first.op_walls.len())
            .filter_map(|i| median(timed.iter().map(|r| unit(&r.op_walls[i]))))
            .sum()
    };
    report.set("wall_adj_s", wall(Timed::adjusted));
    report.set("wall_s", wall(Timed::secs));
    let n_machines = machines().len();
    let sampled = |unit: fn(&Timed) -> f64| -> Vec<(u64, f64)> {
        (0..kernels.len())
            .flat_map(|ki| (0..n_machines).map(move |mi| (ki, mi)))
            .filter_map(|(ki, mi)| {
                let insts = first.runs[ki][mi].as_ref()?.total_insts;
                let runs = timed
                    .iter()
                    .filter_map(|r| r.secs[ki][mi].as_ref().map(unit));
                Some((insts, median(runs)?))
            })
            .collect()
    };
    report.set("kips_adj_sampled", rate(sampled(Timed::adjusted)) / 1e3);
    report.set("kips_sampled", rate(sampled(Timed::secs)) / 1e3);
    let ff = |unit: fn(&Timed) -> f64| -> Vec<(u64, f64)> {
        (0..kernels.len())
            .filter_map(|ki| {
                let runs = timed.iter().flat_map(|r| r.ff_secs[ki].iter().map(unit));
                Some((first.ff_insts[ki]?, median(runs)?))
            })
            .collect()
    };
    report.set("kips_adj_ff", rate(ff(Timed::adjusted)) / 1e3);
    report.set("kips_ff", rate(ff(Timed::secs)) / 1e3);
    report
        .notes
        .push(format!("rounds={} (1 warm-up)", rounds.len()));
    Ok(report)
}

/// Feeds the fast-forwarded stream into a [`WarmState`], as
/// `run_program_sampled`'s own observer does, counting events and timing
/// about one `apply` in [`WARM_TIMING_PERIOD`].
struct TimedWarmSink<'a> {
    warm: &'a mut WarmState,
    sampler: &'a Sampler,
    events: &'a Cell<u64>,
}

impl TimedWarmSink<'_> {
    fn apply(&mut self, e: WarmEvent) {
        self.events.set(self.events.get() + 1);
        let warm = &mut *self.warm;
        self.sampler.call(|| warm.apply(e));
    }
}

impl ExecObserver for TimedWarmSink<'_> {
    fn retire(&mut self, pc: u64) {
        self.apply(WarmEvent::Fetch { pc });
    }

    fn load(&mut self, addr: u64) {
        self.apply(WarmEvent::Data {
            addr,
            is_write: false,
        });
    }

    fn store(&mut self, addr: u64) {
        self.apply(WarmEvent::Data {
            addr,
            is_write: true,
        });
    }

    fn cond_branch(&mut self, pc: u64, taken: bool) {
        self.apply(WarmEvent::CondBranch { pc, taken });
    }

    fn indirect_jump(&mut self, pc: u64, target: u64, is_return: bool) {
        self.apply(WarmEvent::IndirectJump {
            pc,
            target,
            is_return,
        });
    }

    fn call(&mut self, return_addr: u64) {
        self.apply(WarmEvent::Call { return_addr });
    }
}

/// What the traced replica counted beyond the sampled run itself.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplicaCounts {
    /// Instructions the functional executor ran.
    pub ff_insts: u64,
    /// Architectural checkpoints taken.
    pub checkpoints: u64,
    /// Events applied to the warm state.
    pub warm_events: u64,
}

fn fast_forward<O: ExecObserver>(
    m: &mut Machine,
    decoded: &DecodedProgram,
    target: u64,
    obs: &mut O,
    counts: &mut ReplicaCounts,
    spans: &mut Spans,
) -> Result<(), String> {
    let needed = target.saturating_sub(m.retired());
    if needed == 0 || m.is_halted() {
        return Ok(());
    }
    let before = m.retired();
    let out = spans.span("isa.ff", |_| m.run_decoded_with(decoded, needed, obs));
    counts.ff_insts += m.retired() - before;
    match out {
        Ok(_) | Err(ExecError::InstLimit(_)) => Ok(()),
        Err(e) => Err(format!("fast-forward failed: {e}")),
    }
}

/// Adds the `after - before` window of every monotonic counter to `agg`:
/// the aggregation `run_program_sampled` documents for its measured
/// windows.
fn add_window_delta(agg: &mut SimStats, before: &SimStats, after: &SimStats) {
    macro_rules! add {
        ($($($field:ident).+),+ $(,)?) => {
            $( agg.$($field).+ += after.$($field).+ - before.$($field).+; )+
        };
    }
    add!(
        cycles,
        committed,
        loads,
        stores,
        branches,
        fp_ops,
        fetched,
        squashed,
        mispredicts,
        deadlock_recoveries,
        long_guard_stall_cycles,
        bypassed_operands,
        rf_operands,
        zero_operands,
        wb_long_retries,
        load_replays,
        mem_dep_violations,
        dispatch_stalls.rob,
        dispatch_stalls.pregs,
        dispatch_stalls.lsq,
        dispatch_stalls.iq,
        dispatch_stalls.checkpoints,
        operand_mix.only_simple,
        operand_mix.only_short,
        operand_mix.only_long,
        operand_mix.simple_short,
        operand_mix.simple_long,
        operand_mix.short_long,
        bpred.cond_predictions,
        bpred.cond_mispredicts,
        bpred.indirect_predictions,
        bpred.indirect_mispredicts,
        mem.il1.hits,
        mem.il1.misses,
        mem.il1.writebacks,
        mem.dl1.hits,
        mem.dl1.misses,
        mem.dl1.writebacks,
        mem.l2.hits,
        mem.l2.misses,
        mem.l2.writebacks,
        mem.memory_accesses,
        int_rf.reads.simple,
        int_rf.reads.short,
        int_rf.reads.long,
        int_rf.writes.simple,
        int_rf.writes.short,
        int_rf.writes.long,
        int_rf.total_reads,
        int_rf.total_writes,
        int_rf.long_write_stalls,
        int_rf.short_allocs,
        int_rf.short_alloc_rejects,
        int_rf.short_reclaims,
        int_rf.long_allocs,
        int_rf.long_releases,
        fp_rf.reads.simple,
        fp_rf.reads.short,
        fp_rf.reads.long,
        fp_rf.writes.simple,
        fp_rf.writes.short,
        fp_rf.writes.long,
        fp_rf.total_reads,
        fp_rf.total_writes,
        fp_rf.long_write_stalls,
        fp_rf.short_allocs,
        fp_rf.short_alloc_rejects,
        fp_rf.short_reclaims,
        fp_rf.long_allocs,
        fp_rf.long_releases,
        int_rf.capture_reuse_hits,
        fp_rf.capture_reuse_hits,
        dest_class_matches,
        dest_class_total,
        stl_forwards,
        rf_read_port_denials,
        int_fu_denials,
        fp_fu_denials,
        lsq_wait_events,
    );
    agg.lsq_peak = agg.lsq_peak.max(after.lsq_peak);
    agg.long_peak_live = agg.long_peak_live.max(after.long_peak_live);
}

/// `run_program_sampled` driven through the same public calls in the same
/// order — `run_decoded_with` (functional warming), `Machine::checkpoint`,
/// `AnySimulator::from_checkpoint`, `install_warm_state`, `run_exact` —
/// with a span around each call.
///
/// # Errors
///
/// As `run_program_sampled`.
pub fn replica(
    config: &SimConfig,
    program: &Program,
    spec: &SampleSpec,
    max_insts: u64,
    warm_sampler: &Sampler,
    spans: &mut Spans,
    counts: &mut ReplicaCounts,
) -> Result<SampledRun, String> {
    let decoded = spans.span("isa.decode", |_| DecodedProgram::decode(program));
    let mut m = Machine::load(program);
    let mut warm = WarmState::new(config);
    let events = Cell::new(0u64);
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
            let mut sink = TimedWarmSink {
                warm: &mut warm,
                sampler: warm_sampler,
                events: &events,
            };
            fast_forward(&mut m, &decoded, warm_start, &mut sink, counts, spans)?;
            if m.retired() < warm_start {
                break;
            }
            let ckpt = spans.span("isa.checkpoint", |_| m.checkpoint(program));
            counts.checkpoints += 1;
            let mut sim = spans.span("sim.build", |_| {
                let mut sim = AnySimulator::from_checkpoint(config.clone(), program, &ckpt)
                    .map_err(|e| format!("checkpoint restore failed: {e}"))?;
                sim.install_warm_state(&warm);
                Ok::<_, String>(sim)
            })?;
            spans
                .span("sim.run", |_| sim.run_exact(start))
                .map_err(|e| format!("warm-up window failed: {e}"))?;
            let before = sim.stats().clone();
            spans
                .span("sim.run", |_| sim.run_exact(end))
                .map_err(|e| format!("measured window failed: {e}"))?;
            let after = sim.stats();
            let committed = after.committed - before.committed;
            if committed > 0 {
                add_window_delta(&mut agg, &before, after);
                mean_live_sum += after.long_mean_live;
                short_occ_sum += after.short_mean_occupancy;
                intervals.push(carf_bench::sample::IntervalSample {
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
    fast_forward(
        &mut m,
        &decoded,
        max_insts,
        &mut NullObserver,
        counts,
        spans,
    )?;
    counts.warm_events += events.get();

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

/// The traced run: the replica over every kernel and machine, plus the
/// functional pass, each checked against the first untraced round.
fn traced(
    kernels: &[Kernel],
    cap: u64,
    spec: &SampleSpec,
    first: &Round,
    setup: &Spans,
    report: &mut Report,
) {
    let cost = TimerCost::calibrate();
    let warm_sampler = Sampler::new(WARM_TIMING_PERIOD, cost);
    let mut spans = Spans::new(true);
    let mut counts = ReplicaCounts::default();
    let mut windows = 0u64;
    let (mut detailed, mut total) = (0u64, 0u64);
    let mut mem = [(0u64, 0u64); 3];
    let pass_start = Instant::now();
    let mut point = 0u32;
    for (ki, k) in kernels.iter().enumerate() {
        point += 1;
        spans.set_point(point);
        let mut ff = Ok(0);
        for _ in 0..FF_REPEATS {
            ff = spans.span("isa.ff", |_| guarded(|| functional_pass(k, cap)));
            counts.ff_insts += ff.as_ref().copied().unwrap_or(0);
        }
        for (mi, (mname, cfg)) in machines().iter().enumerate() {
            point += 1;
            spans.set_point(point);
            let out = guarded(|| {
                replica(
                    cfg,
                    &k.program,
                    spec,
                    cap,
                    &warm_sampler,
                    &mut spans,
                    &mut counts,
                )
            });
            let outcome = out.as_ref().map_err(Clone::clone).and_then(|s| {
                check_total(s.total_insts, ff.as_ref().ok().copied())?;
                same_as_first(first.runs[ki][mi].as_ref(), s)
            });
            report.check(&format!("traced/{mname}/{}", k.name), outcome);
            if let Ok(s) = out {
                windows += s.intervals.len() as u64;
                detailed += s.detailed_insts;
                total += s.total_insts;
                let st = &s.stats.mem;
                for (slot, c) in [st.il1, st.dl1, st.l2].iter().enumerate() {
                    mem[slot].0 += c.misses;
                    mem[slot].1 += c.hits + c.misses;
                }
            }
        }
    }
    let wall = pass_start.elapsed().as_secs_f64();
    let setup_totals = setup.totals();
    let totals = spans.totals();
    let self_s = |name: &str| totals.get(name).map_or(0.0, |v| v.1);
    report.set(
        "workloads.build_s",
        setup_totals.get("workloads.build").map_or(0.0, |v| v.1),
    );
    report.set(
        "isa.decode_s",
        self_s("isa.decode") + setup_totals.get("isa.decode").map_or(0.0, |v| v.1),
    );
    // The warm-state applies run inside the fast-forward spans.
    let warm_s = warm_sampler.estimated_s();
    report.set(
        "isa.ff_s",
        (self_s("isa.ff") - warm_s - warm_sampler.timer_overhead_s()).max(0.0),
    );
    report.set("isa.ff_insts", counts.ff_insts as f64);
    report.set("isa.checkpoint_s", self_s("isa.checkpoint"));
    report.set("isa.checkpoints", counts.checkpoints as f64);
    report.set("mem.warm_s", warm_s);
    report.set("mem.warm_events", counts.warm_events as f64);
    report.set(
        "mem.il1_miss_ratio",
        ratio(mem[0].0 as f64, mem[0].1 as f64),
    );
    report.set(
        "mem.dl1_miss_ratio",
        ratio(mem[1].0 as f64, mem[1].1 as f64),
    );
    report.set("mem.l2_miss_ratio", ratio(mem[2].0 as f64, mem[2].1 as f64));
    report.set("sim.build_s", self_s("sim.build"));
    report.set("sample.windows", windows as f64);
    report.set(
        "sample.detail_fraction",
        ratio(detailed as f64, total as f64),
    );
    report.set("trace.overhead_s", wall - first.wall);
    report.notes.push(format!(
        "traced pass {wall:.3}s, untraced round {:.3}s",
        first.wall
    ));
    report.span_lines = spans.to_json_lines();
}
