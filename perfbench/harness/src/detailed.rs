//! The `detailed` workload: every suite kernel and corpus program run
//! straight through under the four `--machine all` configurations, plus
//! two 4-context CARF `MultiSim` co-simulations. The result cache is not
//! involved and every simulator starts with empty caches and predictor,
//! as in the experiment binaries. One thread.

use crate::counting::{Counting, Op};
use crate::inputs::{assemble, corpus_sources, functional_checkpoint, suite_kernels};
use crate::inputs::{Kernel, Rng, Scale};
use crate::report::{guarded, Digest, Report};
use crate::spans::Spans;
use crate::timing::{median, rate, ratio, Sampler, Timed, TimerCost, SETUPS_PER_ROUND};
use carf_bench::cli::MachineSet;
use carf_bench::fingerprint::stats_hash;
use carf_bench::{baseline_geometry, rf_energy_carf, rf_energy_monolithic, ClassTotals};
use carf_core::{
    BaselineRegFile, CarfParams, CompressedRegFile, ContentAwareRegFile, PortReducedRegFile,
};
use carf_energy::TechModel;
use carf_isa::{Checkpoint, Program};
use carf_sim::{
    AnySimulator, FetchArbitration, MultiSim, RegFileBackend, RegFileKind, SharingPolicy,
    SimConfig, SimStats, Simulator, StallCause, TraceRecorder,
};
use carf_workloads::{SizeClass, Suite};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::Instant;

/// Committed-instruction cap per point: a quarter of the experiment
/// binaries' `--quick` budget, so that one round (every point once) takes
/// about 3 s on a 2-CPU host and every point runs several times in a run
/// (see `timing::median`).
pub const NORMAL_POINT_INSTS: u64 = 50_000;
/// Committed-instruction cap per point at the smallest scale.
pub const SMALLEST_POINT_INSTS: u64 = 20_000;
/// Shared-clock cap of the co-simulation.
pub const MULTI_MAX_CYCLES: u64 = 200_000_000;
/// Shared Long-file capacity of the co-simulation.
pub const MULTI_LONG_CAPACITY: usize = 48;
/// Each round runs every co-simulation this many times: a co-simulation's
/// host speed varies more from run to run than a single machine's.
pub const MULTI_REPEATS: usize = 2;
/// About one `MultiSim::step` in this many is timed in the traced run.
pub const STEP_TIMING_PERIOD: u32 = 16;
/// The paper's CARF IPC cost on SPECint2000 and SPECfp2000, in percent.
pub const PAPER_IPC_DELTA_INT: f64 = -1.7;
/// See [`PAPER_IPC_DELTA_INT`].
pub const PAPER_IPC_DELTA_FP: f64 = -0.3;
/// The paper's CARF register-file energy as a percentage of the baseline.
pub const PAPER_ENERGY_PCT: f64 = 50.0;

/// Options of one `detailed` run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload seed.
    pub seed: u64,
    /// Keep starting rounds until this many seconds have been measured.
    pub seconds: f64,
    /// Run the traced passes instead of the timed rounds.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
    /// Corrupt the reference state of the first point (self-test).
    pub inject_mismatch: bool,
}

/// The programs, their functional references, and the co-simulation's
/// contexts.
#[derive(Debug)]
pub struct Inputs {
    /// Committed-instruction cap of every point (and co-simulated context).
    pub cap: u64,
    /// Suite kernels (INT, then FP) followed by the corpus programs.
    pub programs: Vec<Kernel>,
    /// The functional executor's checkpoint of each program after `cap`
    /// instructions (or at its halt, if earlier).
    pub refs: Vec<Checkpoint>,
    /// The co-simulations: each four indices into `programs`.
    pub multi: Vec<Vec<usize>>,
}

/// Builds the inputs for `seed`: seed-sized suite kernels, the linked
/// corpus, decoding, and the functional reference runs.
///
/// # Errors
///
/// On an unreadable, unassemblable or unlinkable corpus, or a functional
/// run that fails.
pub fn setup(seed: u64, scale: Scale, root: &Path, spans: &mut Spans) -> Result<Inputs, String> {
    let mut rng = Rng::new(seed);
    let (class, cap) = match scale {
        Scale::Normal => (SizeClass::Quick, NORMAL_POINT_INSTS),
        Scale::Smallest => (SizeClass::Test, SMALLEST_POINT_INSTS),
    };
    let mut programs = suite_kernels(&mut rng, class, spans);
    let sources = corpus_sources(&root.join("corpus"))?;
    let sources = match scale {
        Scale::Normal => &sources[..],
        Scale::Smallest => &sources[..sources.len().min(2)],
    };
    for (name, units) in sources {
        programs.push(assemble(name, units, spans)?);
    }
    let mut refs = Vec::with_capacity(programs.len());
    for k in &programs {
        refs.push(spans.span("isa.ff", |_| functional_checkpoint(k, cap))?);
    }
    // Two quartets, the INT kernels in registry order. The quartets are
    // fixed rather than seed-drawn: shared-Long contention, and with it
    // the co-simulation's IPC and KIPS, depends on which kernels share a
    // core, so a seed-drawn pairing would move `kips_multi` by more than
    // host noise does.
    let ints: Vec<usize> = (0..programs.len())
        .filter(|&i| programs[i].suite == Some(Suite::Int))
        .collect();
    let multi = ints.chunks(4).map(<[usize]>::to_vec).collect();
    Ok(Inputs {
        cap,
        programs,
        refs,
        multi,
    })
}

/// The machines of `--machine all`: base, carf, compressed, ports.
pub fn machines() -> Vec<(&'static str, SimConfig)> {
    MachineSet::All.configs()
}

/// Position of the machine called `name` in [`machines`].
fn machine(name: &str) -> usize {
    machines()
        .iter()
        .position(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("`--machine all` has no {name} machine"))
}

fn multi_policy() -> SharingPolicy {
    SharingPolicy {
        shared_long_capacity: Some(MULTI_LONG_CAPACITY),
        shared_l2: false,
        fetch: FetchArbitration::ICount { slots: 2 },
    }
}

fn carf_config() -> SimConfig {
    SimConfig::paper_carf(CarfParams::paper_default())
}

/// The functional executor's checkpoint fingerprints, by program and
/// retired count. A machine may commit a few instructions past the cap in
/// its last cycle, so references at other counts are computed on demand
/// and kept for later rounds.
#[derive(Debug)]
struct References {
    known: HashMap<(usize, u64), u64>,
    /// Program whose references are corrupted (the injected mismatch).
    corrupt: Option<usize>,
}

impl References {
    fn new(inputs: &Inputs, corrupt: Option<usize>) -> Self {
        let mut refs = Self {
            known: HashMap::new(),
            corrupt,
        };
        for (pi, r) in inputs.refs.iter().enumerate() {
            let fp = refs.fingerprint(pi, r.clone());
            refs.known.insert((pi, r.retired), fp);
        }
        refs
    }

    fn fingerprint(&self, pi: usize, mut ckpt: Checkpoint) -> u64 {
        if self.corrupt == Some(pi) {
            // A functional executor that disagrees with every machine on
            // this program: its x10 is off by one.
            ckpt.regs[10] ^= 1;
        }
        ckpt.fingerprint()
    }
}

/// Compares a cycle-level run's final architectural state with the
/// functional executor's at the same retired count.
fn check_arch(
    refs: &mut References,
    pi: usize,
    kernel: &Kernel,
    got: &Checkpoint,
) -> Result<(), String> {
    let expected = match refs.known.get(&(pi, got.retired)) {
        Some(fp) => *fp,
        None => {
            let fp = refs.fingerprint(pi, functional_checkpoint(kernel, got.retired)?);
            refs.known.insert((pi, got.retired), fp);
            fp
        }
    };
    if got.fingerprint() == expected {
        Ok(())
    } else {
        Err(format!(
            "architectural state after {} instructions differs from the functional executor's",
            got.retired
        ))
    }
}

/// One untraced point: host seconds in `AnySimulator::new` + `run`.
struct Point {
    secs: f64,
    stats: SimStats,
    checkpoint: Checkpoint,
}

fn run_point(cfg: &SimConfig, program: &Program, cap: u64) -> Result<Point, String> {
    let start = Instant::now();
    let mut sim = AnySimulator::new(cfg.clone(), program);
    sim.run(cap).map_err(|e| e.to_string())?;
    let secs = start.elapsed().as_secs_f64();
    Ok(Point {
        secs,
        stats: sim.stats().clone(),
        checkpoint: sim.arch_checkpoint(),
    })
}

/// The co-simulation's outcome.
struct Multi {
    secs: f64,
    stats: Vec<SimStats>,
    checkpoints: Vec<Checkpoint>,
    cycles: u64,
    active_cycles: u64,
    guard_cycles: u64,
    window_shrunk: u64,
    fetch_denied: u64,
}

fn run_multi(
    inputs: &Inputs,
    group: &[usize],
    step_sampler: Option<&Sampler>,
) -> Result<Multi, String> {
    let start = Instant::now();
    let contexts = group
        .iter()
        .map(|&i| (carf_config(), &inputs.programs[i].program))
        .collect();
    let mut multi = MultiSim::new(contexts, multi_policy())?;
    match step_sampler {
        None => {
            multi
                .run(MULTI_MAX_CYCLES, inputs.cap)
                .map_err(|e| e.to_string())?;
        }
        Some(s) => {
            // `MultiSim::run`'s loop, with about one step in N timed.
            while multi.cycles() < MULTI_MAX_CYCLES && !multi.all_done() {
                s.call(|| multi.step(inputs.cap))
                    .map_err(|e| e.to_string())?;
            }
        }
    }
    let secs = start.elapsed().as_secs_f64();
    let results = multi.results();
    let contention = multi.contention();
    Ok(Multi {
        secs,
        stats: (0..multi.len())
            .map(|i| multi.ctx(i).stats().clone())
            .collect(),
        checkpoints: (0..multi.len())
            .map(|i| multi.ctx(i).arch_checkpoint())
            .collect(),
        cycles: multi.cycles(),
        active_cycles: results.iter().map(|r| r.cycles).sum(),
        guard_cycles: results.iter().map(|r| r.long_guard_stall_cycles).sum(),
        window_shrunk: contention.long_window_shrunk.iter().sum(),
        fetch_denied: contention.fetch_denied.iter().sum(),
    })
}

/// Per-point results of one untraced round, kept for the checks and
/// metrics of later rounds and passes.
struct Round {
    wall: f64,
    /// `[program][machine]` → the point's time; `None` where it failed.
    secs: Vec<Vec<Option<Timed>>>,
    /// `[group]` → the time of each run of the co-simulation.
    multi_secs: Vec<Vec<Timed>>,
    /// Wall time of every operation with its checks, in round order.
    op_walls: Vec<Timed>,
    /// `[program][machine]`; `None` where the point failed.
    stats: Vec<Vec<Option<SimStats>>>,
    /// `[group]` → per-context statistics.
    multi_stats: Vec<Option<Vec<SimStats>>>,
}

fn untraced_round(
    inputs: &Inputs,
    refs: &mut References,
    first: Option<&Round>,
    report: &mut Report,
) -> Round {
    let machines = machines();
    let start = Instant::now();
    let mut secs = Vec::with_capacity(inputs.programs.len());
    let mut stats = Vec::with_capacity(inputs.programs.len());
    let mut op_walls = Vec::new();
    for (pi, k) in inputs.programs.iter().enumerate() {
        let mut secs_row = Vec::with_capacity(machines.len());
        let mut row = Vec::with_capacity(machines.len());
        for (mi, (mname, cfg)) in machines.iter().enumerate() {
            let (out, wall) = Timed::run(|| {
                let out = guarded(|| run_point(cfg, &k.program, inputs.cap));
                let outcome = out.as_ref().map_err(Clone::clone).and_then(|p| {
                    check_arch(refs, pi, k, &p.checkpoint)?;
                    same_as_first(first.and_then(|r| r.stats[pi][mi].as_ref()), &p.stats)
                });
                report.check(&format!("detailed/{mname}/{}", k.name), outcome);
                out
            });
            op_walls.push(wall);
            secs_row.push(out.as_ref().ok().map(|p| Timed {
                secs: p.secs,
                reference: wall.reference,
            }));
            row.push(out.ok().map(|p| p.stats));
        }
        secs.push(secs_row);
        stats.push(row);
    }
    let groups = inputs.multi.len();
    let (mut multi_secs, mut multi_stats) = (vec![Vec::new(); groups], vec![None; groups]);
    for _ in 0..MULTI_REPEATS {
        for gi in 0..groups {
            let earlier =
                first.map_or(multi_stats[gi].as_deref(), |r| r.multi_stats[gi].as_deref());
            let (m, wall) = Timed::run(|| multi_op(inputs, gi, refs, earlier, None, report));
            op_walls.push(wall);
            if let Some(m) = m {
                multi_secs[gi].push(Timed {
                    secs: m.secs,
                    reference: wall.reference,
                });
                multi_stats[gi].get_or_insert(m.stats);
            }
        }
    }
    Round {
        wall: start.elapsed().as_secs_f64(),
        secs,
        multi_secs,
        op_walls,
        stats,
        multi_stats,
    }
}

/// Runs and checks co-simulation `gi`; `earlier` holds the per-context
/// statistics of an earlier run of it, which this run must reproduce.
fn multi_op(
    inputs: &Inputs,
    gi: usize,
    refs: &mut References,
    earlier: Option<&[SimStats]>,
    sampler: Option<&Sampler>,
    report: &mut Report,
) -> Option<Multi> {
    let group = &inputs.multi[gi];
    let out = guarded(|| run_multi(inputs, group, sampler));
    let outcome = out.as_ref().map_err(Clone::clone).and_then(|m| {
        for (ci, &pi) in group.iter().enumerate() {
            check_arch(refs, pi, &inputs.programs[pi], &m.checkpoints[ci])
                .map_err(|e| format!("context {ci}: {e}"))?;
            same_as_first(earlier.map(|s| &s[ci]), &m.stats[ci])
                .map_err(|e| format!("context {ci}: {e}"))?;
        }
        Ok(())
    });
    let names: Vec<&str> = group
        .iter()
        .map(|&i| inputs.programs[i].name.as_str())
        .collect();
    report.check(&format!("detailed/multi/{}", names.join("+")), outcome);
    out.ok()
}

/// A repeated or traced run must retire exactly the statistics of the
/// first untraced run of the same point.
fn same_as_first(first: Option<&SimStats>, got: &SimStats) -> Result<(), String> {
    match first {
        Some(f) if stats_hash(f) != stats_hash(got) => Err(format!(
            "stats_hash {:016x} differs from the first run's {:016x}",
            stats_hash(got),
            stats_hash(f)
        )),
        _ => Ok(()),
    }
}

/// Runs the workload and returns its report.
///
/// # Errors
///
/// When the inputs cannot be built (nothing was attempted).
pub fn run(opts: &Options, root: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setup_spans = Spans::new(opts.trace);
    let (inputs, first_setup) = Timed::run(|| setup(opts.seed, opts.scale, root, &mut setup_spans));
    let inputs = inputs?;
    let mut setup_times = vec![first_setup];
    report.inputs = inputs
        .programs
        .iter()
        .map(|k| format!("{}={}", k.name, k.size))
        .collect();
    for group in &inputs.multi {
        let names: Vec<&str> = group
            .iter()
            .map(|&i| inputs.programs[i].name.as_str())
            .collect();
        report.inputs.push(format!("multi={}", names.join("+")));
    }

    let mut refs = References::new(&inputs, opts.inject_mismatch.then_some(0));
    // Rounds keep starting while one more fits in the measured time.
    let started = Instant::now();
    let first = untraced_round(&inputs, &mut refs, None, &mut report);
    let mut digest = Digest::default();
    for row in &first.stats {
        for s in row.iter().flatten() {
            digest.add_stats(s);
        }
    }
    for s in first.multi_stats.iter().flatten().flatten() {
        digest.add_stats(s);
    }
    report.digest = digest.hex();
    paper_error_metrics(&inputs, &first, &mut report);

    if opts.trace {
        report.set("setup_s", first_setup.secs);
        traced(&inputs, &mut refs, &first, &setup_spans, &mut report);
        return Ok(report);
    }

    // The first round warms up and is not timed; at least one more is.
    let mut rounds = vec![first];
    while rounds.len() < 2 || started.elapsed().as_secs_f64() + rounds[0].wall <= opts.seconds {
        // More set-ups between rounds spread the set-up samples over the run.
        for _ in 0..SETUPS_PER_ROUND {
            let (out, t) =
                Timed::run(|| setup(opts.seed, opts.scale, root, &mut Spans::new(false)));
            out?;
            setup_times.push(t);
        }
        let r = untraced_round(&inputs, &mut refs, Some(&rounds[0]), &mut report);
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
    let points = |mi: usize, unit: fn(&Timed) -> f64| -> Vec<(u64, f64)> {
        (0..inputs.programs.len())
            .filter_map(|pi| {
                let committed = first.stats[pi][mi].as_ref()?.committed;
                let runs = timed
                    .iter()
                    .filter_map(|r| r.secs[pi][mi].as_ref().map(unit));
                Some((committed, median(runs)?))
            })
            .collect()
    };
    for (mi, (mname, _)) in machines().iter().enumerate() {
        report.set(
            format!("kips_adj_{mname}"),
            rate(points(mi, Timed::adjusted)) / 1e3,
        );
        report.set(format!("kips_{mname}"), rate(points(mi, Timed::secs)) / 1e3);
    }
    let multi = |unit: fn(&Timed) -> f64| -> Vec<(u64, f64)> {
        (0..inputs.multi.len())
            .filter_map(|gi| {
                let committed = first.multi_stats[gi]
                    .as_ref()?
                    .iter()
                    .map(|s| s.committed)
                    .sum();
                let runs = timed.iter().flat_map(|r| r.multi_secs[gi].iter().map(unit));
                Some((committed, median(runs)?))
            })
            .collect()
    };
    report.set("kips_adj_multi", rate(multi(Timed::adjusted)) / 1e3);
    report.set("kips_multi", rate(multi(Timed::secs)) / 1e3);
    report
        .notes
        .push(format!("rounds={} (1 warm-up)", rounds.len()));
    Ok(report)
}

fn class_totals(s: &SimStats) -> (ClassTotals, ClassTotals) {
    let r = &s.int_rf;
    (
        ClassTotals {
            simple: r.reads.simple,
            short: r.reads.short,
            long: r.reads.long,
            total: r.total_reads,
        },
        ClassTotals {
            simple: r.writes.simple,
            short: r.writes.short,
            long: r.writes.long,
            total: r.total_writes,
        },
    )
}

fn add_totals(a: &mut ClassTotals, b: &ClassTotals) {
    a.simple += b.simple;
    a.short += b.short;
    a.long += b.long;
    a.total += b.total;
}

/// The simulator's distance from the paper's headline numbers, on the
/// suite kernels (the corpus has no paper reference).
fn paper_error_metrics(inputs: &Inputs, first: &Round, report: &mut Report) {
    let (base, carf) = (machine("base"), machine("carf"));
    let mut deltas: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut reads = [ClassTotals::default(), ClassTotals::default()];
    let mut writes = [ClassTotals::default(), ClassTotals::default()];
    for (pi, k) in inputs.programs.iter().enumerate() {
        let Some(suite) = k.suite else { continue };
        let (Some(b), Some(c)) = (&first.stats[pi][base], &first.stats[pi][carf]) else {
            continue;
        };
        let key = if suite == Suite::Int { "int" } else { "fp" };
        deltas.entry(key).or_default().push(c.ipc() / b.ipc());
        for (slot, s) in [(0, b), (1, c)] {
            let (r, w) = class_totals(s);
            add_totals(&mut reads[slot], &r);
            add_totals(&mut writes[slot], &w);
        }
    }
    let mean_delta_pct = |key: &str| {
        let v = deltas.get(key).map_or(&[][..], Vec::as_slice);
        100.0 * (v.iter().sum::<f64>() / v.len().max(1) as f64 - 1.0)
    };
    report.set(
        "ipc_err_int_pp",
        (mean_delta_pct("int") - PAPER_IPC_DELTA_INT).abs(),
    );
    report.set(
        "ipc_err_fp_pp",
        (mean_delta_pct("fp") - PAPER_IPC_DELTA_FP).abs(),
    );
    let model = TechModel::default_model();
    let e_base = rf_energy_monolithic(&model, &baseline_geometry(), &reads[0], &writes[0]);
    let e_carf = rf_energy_carf(&model, &CarfParams::paper_default(), &reads[1], &writes[1]);
    report.set(
        "energy_err_pp",
        (100.0 * e_carf / e_base - PAPER_ENERGY_PCT).abs(),
    );
}

/// What the counting pass measured for one point.
struct Counted {
    build_s: f64,
    run_s: f64,
    self_s: f64,
    timer_s: f64,
    calls: Vec<u64>,
    write_accepts: u64,
    stats: SimStats,
    checkpoint: Checkpoint,
}

fn counted_point<R: RegFileBackend>(
    cfg: &SimConfig,
    program: &Program,
    cap: u64,
    cost: TimerCost,
    spans: &mut Spans,
) -> Result<Counted, String> {
    let start = Instant::now();
    let mut sim: Simulator<Counting<R>> =
        spans.span("sim.new", |_| Simulator::new(cfg.clone(), program));
    let build_s = start.elapsed().as_secs_f64();
    sim.int_regfile_mut().reset_meter(cost);
    spans
        .span("sim.run", |_| sim.run(cap))
        .map_err(|e| e.to_string())?;
    let run_s = start.elapsed().as_secs_f64();
    let checkpoint = spans.span("isa.checkpoint", |_| sim.arch_checkpoint());
    let meter = sim.int_regfile().meter();
    Ok(Counted {
        build_s,
        run_s,
        self_s: meter.self_s(),
        timer_s: meter.timer_overhead_s(),
        calls: Op::REPORTED
            .iter()
            .map(|(op, _)| meter.count(*op))
            .collect(),
        write_accepts: meter.writes_accepted(),
        stats: sim.stats().clone(),
        checkpoint,
    })
}

fn counted_dispatch(
    cfg: &SimConfig,
    program: &Program,
    cap: u64,
    cost: TimerCost,
    spans: &mut Spans,
) -> Result<Counted, String> {
    match cfg.regfile {
        RegFileKind::Baseline => counted_point::<BaselineRegFile>(cfg, program, cap, cost, spans),
        RegFileKind::ContentAware(..) => {
            counted_point::<ContentAwareRegFile>(cfg, program, cap, cost, spans)
        }
        RegFileKind::Compressed(..) => {
            counted_point::<CompressedRegFile>(cfg, program, cap, cost, spans)
        }
        RegFileKind::PortReduced(..) => {
            counted_point::<PortReducedRegFile>(cfg, program, cap, cost, spans)
        }
    }
}

/// The traced run: a counting pass (register-file wrapper, sampled step
/// timer, spans) and a stall-attribution pass (`TraceRecorder` on base
/// and carf), each checked against the first untraced round point by
/// point.
fn traced(
    inputs: &Inputs,
    refs: &mut References,
    first: &Round,
    setup: &Spans,
    report: &mut Report,
) {
    let machines = machines();
    let cost = TimerCost::calibrate();
    let mut spans = Spans::new(true);

    // Counting pass.
    let pass_start = Instant::now();
    let mut build_s = 0.0;
    let mut run_s = vec![0.0f64; machines.len()];
    let mut self_s = vec![0.0f64; machines.len()];
    let mut calls = vec![vec![0u64; Op::REPORTED.len()]; machines.len()];
    let mut accepts = vec![0u64; machines.len()];
    let mut committed = vec![0u64; machines.len()];
    let mut cycles = vec![0u64; machines.len()];
    let mut point_id = 0u32;
    for (pi, k) in inputs.programs.iter().enumerate() {
        for (mi, (mname, cfg)) in machines.iter().enumerate() {
            point_id += 1;
            spans.set_point(point_id);
            let out = guarded(|| counted_dispatch(cfg, &k.program, inputs.cap, cost, &mut spans));
            let outcome = out.as_ref().map_err(Clone::clone).and_then(|c| {
                check_arch(refs, pi, k, &c.checkpoint)?;
                same_as_first(first.stats[pi][mi].as_ref(), &c.stats)
            });
            report.check(&format!("traced/{mname}/{}", k.name), outcome);
            if let Ok(c) = out {
                build_s += c.build_s;
                run_s[mi] += c.run_s - c.timer_s;
                self_s[mi] += c.self_s;
                for (t, n) in calls[mi].iter_mut().zip(&c.calls) {
                    *t += n;
                }
                accepts[mi] += c.write_accepts;
                committed[mi] += c.stats.committed;
                cycles[mi] += c.stats.cycles;
            }
        }
    }
    point_id += 1;
    spans.set_point(point_id);
    let step_sampler = Sampler::new(STEP_TIMING_PERIOD, cost);
    let multi: Vec<Multi> = (0..inputs.multi.len())
        .filter_map(|gi| {
            spans.span("multi.run", |_| {
                multi_op(
                    inputs,
                    gi,
                    refs,
                    first.multi_stats[gi].as_deref(),
                    Some(&step_sampler),
                    report,
                )
            })
        })
        .collect();
    let counted_wall = pass_start.elapsed().as_secs_f64();
    // The same operations untraced: every point and one run of each
    // co-simulation (a round runs them `MULTI_REPEATS` times).
    let same_ops = inputs.programs.len() * machines.len() + inputs.multi.len();
    let untraced_wall: f64 = first.op_walls[..same_ops].iter().map(Timed::secs).sum();
    let overhead = counted_wall - untraced_wall;

    // Stall-attribution pass.
    let stall_start = Instant::now();
    let mut buckets: BTreeMap<(usize, &'static str), u64> = BTreeMap::new();
    let mut bucket_cycles = [0u64; 2];
    for (pi, k) in inputs.programs.iter().enumerate() {
        for (slot, mname) in ["base", "carf"].into_iter().enumerate() {
            let mi = machine(mname);
            let cfg = &machines[mi].1;
            let out = guarded(|| {
                let mut sim =
                    AnySimulator::with_tracer(cfg.clone(), &k.program, TraceRecorder::new());
                sim.run(inputs.cap).map_err(|e| e.to_string())?;
                let stats = sim.stats().clone();
                Ok((stats, sim.into_tracer().stall_report()))
            });
            let outcome = out
                .as_ref()
                .map_err(Clone::clone)
                .and_then(|(s, _)| same_as_first(first.stats[pi][mi].as_ref(), s));
            report.check(&format!("stalls/{mname}/{}", k.name), outcome);
            if let Ok((_, stall)) = out {
                bucket_cycles[slot] += stall.total_cycles;
                for (name, n) in stall.buckets() {
                    *buckets.entry((slot, name)).or_default() += n;
                }
            }
        }
    }
    report.notes.push(format!(
        "counting pass {counted_wall:.3}s, the same operations untraced {untraced_wall:.3}s, \
         stall pass {:.3}s",
        stall_start.elapsed().as_secs_f64()
    ));

    // Set-up layers.
    let totals = setup.totals();
    let t = |name: &str| totals.get(name).map_or(0.0, |v| v.1);
    report.set("workloads.build_s", t("workloads.build"));
    report.set("isa.link_s", t("isa.link"));
    report.set("isa.decode_s", t("isa.decode"));
    report.set("isa.ff_s", t("isa.ff"));
    report.set(
        "isa.ff_insts",
        inputs.refs.iter().map(|r| r.retired as f64).sum(),
    );

    let checkpoints = spans
        .spans()
        .iter()
        .filter(|s| s.name == "isa.checkpoint")
        .count();
    report.set("isa.checkpoint_s", spans.total_s("isa.checkpoint"));
    report.set("isa.checkpoints", checkpoints as f64);

    // Memory hierarchy, from the untraced round.
    let mut il1 = (0u64, 0u64);
    let mut dl1 = (0u64, 0u64);
    let mut l2 = (0u64, 0u64);
    for s in first.stats.iter().flatten().flatten() {
        il1 = (
            il1.0 + s.mem.il1.misses,
            il1.1 + s.mem.il1.hits + s.mem.il1.misses,
        );
        dl1 = (
            dl1.0 + s.mem.dl1.misses,
            dl1.1 + s.mem.dl1.hits + s.mem.dl1.misses,
        );
        l2 = (
            l2.0 + s.mem.l2.misses,
            l2.1 + s.mem.l2.hits + s.mem.l2.misses,
        );
    }
    report.set("mem.il1_miss_ratio", ratio(il1.0 as f64, il1.1 as f64));
    report.set("mem.dl1_miss_ratio", ratio(dl1.0 as f64, dl1.1 as f64));
    report.set("mem.l2_miss_ratio", ratio(l2.0 as f64, l2.1 as f64));

    // Register files and pipeline.
    for (mi, (mname, _)) in machines.iter().enumerate() {
        for (oi, (_, opname)) in Op::REPORTED.iter().enumerate() {
            report.set(
                format!("core.{mname}.calls_per_inst.{opname}"),
                ratio(calls[mi][oi] as f64, committed[mi] as f64),
            );
        }
        report.set(format!("core.{mname}.self_s"), self_s[mi]);
        report.set(format!("core.{mname}.share"), ratio(self_s[mi], run_s[mi]));
        report.set(format!("sim.{mname}.run_s"), run_s[mi]);
        report.set(
            format!("sim.{mname}.ns_per_cycle"),
            ratio(run_s[mi] * 1e9, cycles[mi] as f64),
        );
    }
    let try_write = Op::REPORTED
        .iter()
        .position(|(op, _)| *op == Op::TryWrite)
        .unwrap_or(0);
    for mname in ["carf", "compressed"] {
        let mi = machine(mname);
        report.set(
            format!("core.{mname}.write_accept_ratio"),
            ratio(accepts[mi] as f64, calls[mi][try_write] as f64),
        );
    }
    let mut carf_rf = carf_core::AccessStats::default();
    for row in &first.stats {
        if let Some(s) = &row[machine("carf")] {
            carf_rf.merge(&s.int_rf);
        }
    }
    for (dir, c) in [("reads", carf_rf.reads), ("writes", carf_rf.writes)] {
        report.set(format!("core.carf.{dir}.simple"), c.simple as f64);
        report.set(format!("core.carf.{dir}.short"), c.short as f64);
        report.set(format!("core.carf.{dir}.long"), c.long as f64);
    }
    report.set("sim.build_s", build_s);
    for (slot, mname) in ["base", "carf"].into_iter().enumerate() {
        let mi = machine(mname);
        let (fetched, done) = first
            .stats
            .iter()
            .filter_map(|row| row[mi].as_ref())
            .fold((0u64, 0u64), |(f, c), s| (f + s.fetched, c + s.committed));
        report.set(
            format!("sim.{mname}.fetched_per_committed"),
            ratio(fetched as f64, done as f64),
        );
        for cause in StallCause::ALL {
            let n = buckets.get(&(slot, cause.name())).copied().unwrap_or(0);
            report.set(
                format!("sim.{mname}.stall.{}", cause.name()),
                ratio(n as f64, bucket_cycles[slot] as f64),
            );
        }
    }

    // Co-simulation.
    let sum = |f: fn(&Multi) -> u64| multi.iter().map(f).sum::<u64>() as f64;
    report.set("multi.step_s", step_sampler.estimated_s());
    report.set("multi.cycles", sum(|m| m.cycles));
    report.set(
        "multi.guard_share",
        ratio(sum(|m| m.guard_cycles), sum(|m| m.active_cycles)),
    );
    report.set("multi.window_shrunk", sum(|m| m.window_shrunk));
    report.set("multi.fetch_denied", sum(|m| m.fetch_denied));
    report.set("trace.overhead_s", overhead);
    report.span_lines = spans.to_json_lines();
}
