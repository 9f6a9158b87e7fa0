//! Experiment harness: reproduces every table and figure of the CARF
//! paper's evaluation.
//!
//! Each binary in `src/bin/` regenerates one artifact (`fig5_ipc_sweep`,
//! `table3_access_energy`, ...) and prints the measured series next to the
//! paper's reported numbers. All binaries accept `--full` for the
//! long-running configuration (the default is a quick run with the same
//! shape); results land on stdout in fixed-width tables.
//!
//! The building blocks here are deliberately small:
//!
//! * [`Budget`] — instruction budget / workload sizing from the CLI;
//! * [`run_workload`] — one (configuration × workload) timing simulation;
//! * [`SuiteResult`] / [`run_suite`] — per-suite aggregation (the paper
//!   reports INT and FP averages);
//! * [`carf_geometries`], [`rf_energy_carf`], and [`rf_energy_monolithic`]
//!   — the bridge from simulated
//!   access counts to the analytic energy model, exactly as the paper
//!   multiplies Table 3 per-access energies by measured access counts.

use carf_core::{CarfParams, PortReducedParams, ValueClass};
use carf_energy::{BankedOrganization, RegFileGeometry, TechModel, PAPER_BASELINE, PAPER_UNLIMITED};
use carf_sim::{RegFileKind, SimConfig, SimStats, AnySimulator};
use carf_workloads::{SizeClass, Suite, Workload};

pub mod cache;
pub mod cli;
pub mod corpus;
pub mod fingerprint;
pub mod fsio;
pub mod parallel;
pub mod sample;
pub mod statsio;

pub use cache::{
    run_custom_cached, run_matrix_cached, run_multi_cached, workload_identity, CacheStatus,
    MatrixOutcome, MultiOutcome, MultiPoint, MultiThreadRecord, ResultCache,
};
pub use parallel::{results_dir, run_ordered, write_merged_record, write_timing_json};

/// Per-run instruction budget, workload sizing, and harness parallelism.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Workload problem-size class.
    pub size: SizeClass,
    /// Committed-instruction cap per simulation.
    pub max_insts: u64,
    /// Oracle sampling period (cycles) when an experiment needs it.
    pub oracle_period: u64,
    /// Worker threads for the parallel experiment engine (1 = serial).
    pub jobs: usize,
    /// When set, [`run_workload`] estimates via interval sampling
    /// (checkpointed fast-forward) instead of simulating every instruction
    /// cycle-level.
    pub sample: Option<sample::SampleSpec>,
}

/// Parses a `CARF_JOBS`-style worker-count override: `Some(n)` for a
/// positive integer (surrounding whitespace allowed), `None` for anything
/// degenerate (empty, zero, negative, non-numeric, overflowing).
pub fn parse_jobs_override(raw: &str) -> Option<usize> {
    raw.trim().parse::<usize>().ok().filter(|n| *n >= 1)
}

/// The default worker count: the `CARF_JOBS` environment variable when set
/// (and a positive integer), else the machine's available parallelism.
/// A degenerate `CARF_JOBS` (zero, empty, non-numeric) is diagnosed once
/// per process and falls back to the available cores — experiments that
/// construct several [`Budget`]s must not repeat the warning per budget.
pub fn default_jobs() -> usize {
    if let Ok(v) = std::env::var("CARF_JOBS") {
        if let Some(n) = parse_jobs_override(&v) {
            return n;
        }
        static WARN_ONCE: std::sync::Once = std::sync::Once::new();
        WARN_ONCE.call_once(|| {
            eprintln!(
                "warning: ignoring invalid CARF_JOBS={v:?} (want a positive integer); \
                 using available cores"
            );
        });
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Budget {
    /// Quick runs: a few hundred thousand instructions per point.
    pub fn quick() -> Self {
        Self {
            size: SizeClass::Quick,
            max_insts: 200_000,
            oracle_period: 16,
            jobs: default_jobs(),
            sample: None,
        }
    }

    /// Full runs: a million-plus instructions per point.
    pub fn full() -> Self {
        Self {
            size: SizeClass::Full,
            max_insts: 1_000_000,
            oracle_period: 8,
            jobs: default_jobs(),
            sample: None,
        }
    }

    /// Parses the process arguments. `--full` selects [`Budget::full`],
    /// `--quick` (the default) [`Budget::quick`]; `--jobs N` (or
    /// `--jobs=N`) overrides the worker count, which otherwise comes from
    /// [`default_jobs`]. Any other argument prints a usage message and
    /// exits with status 2.
    ///
    /// Binaries should prefer [`cli::budget_for`], which names the binary
    /// in the usage message; richer grammars build a [`cli::CliSpec`].
    pub fn from_args() -> Self {
        Self::parse_args(std::env::args().skip(1)).unwrap_or_else(|bad| {
            eprintln!("error: {bad}");
            eprintln!("usage: <experiment> [--quick | --full] [--jobs N] [--sample[=I/P/W]]");
            eprintln!("  --quick    quick budget: ~200k instructions per point (default)");
            eprintln!("  --full     full budget: ~1M instructions per point");
            eprintln!("  --jobs N   worker threads (default: CARF_JOBS or available cores)");
            eprintln!("  --sample   interval sampling (default spec 5000/8/2000:");
            eprintln!("             interval/period/warmup; override with --sample=I/P/W)");
            std::process::exit(2);
        })
    }

    /// [`Budget::from_args`] on an explicit argument list; `Err` carries
    /// a message describing the first bad argument.
    pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut full = false;
        let mut jobs: Option<usize> = None;
        let mut sample: Option<sample::SampleSpec> = None;
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--full" => full = true,
                "--quick" => full = false,
                "--sample" => sample = Some(sample::SampleSpec::default()),
                "--jobs" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => jobs = Some(n),
                    _ => return Err("`--jobs` expects a positive integer".into()),
                },
                s => {
                    if let Some(v) = s.strip_prefix("--jobs=") {
                        match v.parse::<usize>() {
                            Ok(n) if n >= 1 => jobs = Some(n),
                            _ => return Err(format!("`{s}` expects a positive integer")),
                        }
                    } else if let Some(v) = s.strip_prefix("--sample=") {
                        sample = Some(sample::SampleSpec::parse(v)?);
                    } else {
                        return Err(format!("unrecognized argument `{arg}`"));
                    }
                }
            }
        }
        let mut budget = if full { Self::full() } else { Self::quick() };
        if let Some(n) = jobs {
            budget.jobs = n;
        }
        budget.sample = sample;
        Ok(budget)
    }

    /// A short human-readable tag for report headers.
    pub fn label(&self) -> &'static str {
        match self.size {
            SizeClass::Full => "full",
            SizeClass::Quick => "quick",
            SizeClass::Test => "test",
        }
    }
}

/// Runs one workload under one machine configuration and returns the
/// statistics.
///
/// With [`Budget::sample`] set, the run is estimated via checkpointed
/// interval sampling (see [`sample`]): the returned statistics are the
/// exact deltas of the measured windows, so IPC and access-mix consumers
/// work unchanged at a fraction of the cycle-level work.
///
/// # Panics
///
/// Panics on simulator errors (co-simulation mismatch, watchdog) — an
/// experiment must not silently produce numbers from a broken run.
pub fn run_workload(config: &SimConfig, workload: &Workload, budget: &Budget) -> SimStats {
    if budget.sample.is_some() {
        return sample::run_workload_sampled(config, workload, budget).stats;
    }
    let program = workload.build(workload.size(budget.size));
    let mut sim = AnySimulator::new(config.clone(), &program);
    sim.run(budget.max_insts)
        .unwrap_or_else(|e| panic!("{} under {:?}: {e}", workload.name, config.regfile));
    sim.stats().clone()
}

/// Aggregated results for one suite under one configuration.
#[derive(Debug, Clone)]
pub struct SuiteResult {
    /// Which suite.
    pub suite: Suite,
    /// Per-workload names and stats, in registry order.
    pub runs: Vec<(String, SimStats)>,
}

impl SuiteResult {
    /// Arithmetic mean of per-workload IPC.
    pub fn mean_ipc(&self) -> f64 {
        mean(self.runs.iter().map(|(_, s)| s.ipc()))
    }

    /// Mean of per-workload relative IPC against a reference run of the
    /// same suite (the paper's "relative IPC": 100% = unlimited machine).
    pub fn mean_relative_ipc(&self, reference: &SuiteResult) -> f64 {
        assert_eq!(self.runs.len(), reference.runs.len(), "suites must match");
        mean(
            self.runs
                .iter()
                .zip(reference.runs.iter())
                .map(|((_, a), (_, b))| a.ipc() / b.ipc()),
        )
    }

    /// Suite-wide bypass fraction (total operands, paper Table 2).
    pub fn bypass_fraction(&self) -> f64 {
        let byp: u64 = self.runs.iter().map(|(_, s)| s.bypassed_operands).sum();
        let rf: u64 = self.runs.iter().map(|(_, s)| s.rf_operands).sum();
        if byp + rf == 0 {
            0.0
        } else {
            byp as f64 / (byp + rf) as f64
        }
    }

    /// Summed register-file access counts by class over the suite.
    pub fn access_totals(&self) -> (ClassTotals, ClassTotals) {
        let mut reads = ClassTotals::default();
        let mut writes = ClassTotals::default();
        for (_, s) in &self.runs {
            reads.simple += s.int_rf.reads.simple;
            reads.short += s.int_rf.reads.short;
            reads.long += s.int_rf.reads.long;
            reads.total += s.int_rf.total_reads;
            writes.simple += s.int_rf.writes.simple;
            writes.short += s.int_rf.writes.short;
            writes.long += s.int_rf.writes.long;
            writes.total += s.int_rf.total_writes;
        }
        (reads, writes)
    }
}

/// Summed access counts for one direction.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassTotals {
    /// Simple-file-only accesses.
    pub simple: u64,
    /// Simple+Short accesses.
    pub short: u64,
    /// Simple+Long accesses.
    pub long: u64,
    /// All accesses (meaningful for the baseline too).
    pub total: u64,
}

impl ClassTotals {
    /// Fraction of classified accesses in `class`.
    pub fn fraction(&self, class: ValueClass) -> f64 {
        let sum = self.simple + self.short + self.long;
        if sum == 0 {
            return 0.0;
        }
        let n = match class {
            ValueClass::Simple => self.simple,
            ValueClass::Short => self.short,
            ValueClass::Long => self.long,
        };
        n as f64 / sum as f64
    }
}

fn suite_workloads(suite: Suite) -> Vec<Workload> {
    match suite {
        Suite::Int => carf_workloads::int_suite(),
        Suite::Fp => carf_workloads::fp_suite(),
    }
}

/// [`run_workload`] plus wall-clock accounting into the timing collector.
fn run_workload_timed(
    config: &SimConfig,
    suite: Suite,
    workload: &Workload,
    budget: &Budget,
) -> (String, SimStats) {
    let start = std::time::Instant::now();
    let stats = run_workload(config, workload, budget);
    parallel::record_point(
        format!("{suite:?}/{}", workload.name),
        start.elapsed().as_secs_f64(),
        stats.committed,
    );
    (workload.name.to_string(), stats)
}

/// Runs every workload of `suite` under `config`, dispatching the points
/// over [`Budget::jobs`] workers. Results are in registry order and
/// identical to a serial run (see [`parallel::run_ordered`]).
pub fn run_suite(config: &SimConfig, suite: Suite, budget: &Budget) -> SuiteResult {
    parallel::note_run_start();
    let workloads = suite_workloads(suite);
    let runs = parallel::run_ordered(&workloads, budget.jobs, |w| {
        run_workload_timed(config, suite, w, budget)
    });
    SuiteResult { suite, runs }
}

/// [`run_suite`] over an explicit workload list (e.g. corpus programs)
/// instead of a registry suite, with the same worker-pool dispatch.
pub fn run_workloads(
    config: &SimConfig,
    suite: Suite,
    workloads: &[Workload],
    budget: &Budget,
) -> SuiteResult {
    parallel::note_run_start();
    let runs = parallel::run_ordered(workloads, budget.jobs, |w| {
        run_workload_timed(config, suite, w, budget)
    });
    SuiteResult { suite, runs }
}

/// Runs several `(configuration, suite)` experiment points as **one** flat
/// work list over the worker pool, so a long suite under one configuration
/// can overlap with the next configuration's points. Returns one
/// [`SuiteResult`] per input point, in input order.
pub fn run_matrix(points: &[(SimConfig, Suite)], budget: &Budget) -> Vec<SuiteResult> {
    parallel::note_run_start();
    let mut flat: Vec<(usize, Suite, Workload)> = Vec::new();
    for (pi, (_, suite)) in points.iter().enumerate() {
        for w in suite_workloads(*suite) {
            flat.push((pi, *suite, w));
        }
    }
    let results = parallel::run_ordered(&flat, budget.jobs, |(pi, suite, w)| {
        run_workload_timed(&points[*pi].0, *suite, w, budget)
    });
    let mut out: Vec<SuiteResult> =
        points.iter().map(|(_, suite)| SuiteResult { suite: *suite, runs: Vec::new() }).collect();
    for ((pi, _, _), run) in flat.iter().zip(results) {
        out[*pi].runs.push(run);
    }
    out
}

/// The three content-aware sub-file geometries for `params`, with the
/// paper's port provisioning: every sub-file keeps the baseline's 8R/6W,
/// and the Short file carries one extra read port per write port for the
/// WR1 compares.
pub fn carf_geometries(params: &CarfParams) -> [RegFileGeometry; 3] {
    let (r, w) = (PAPER_BASELINE.read_ports, PAPER_BASELINE.write_ports);
    [
        RegFileGeometry::new(params.simple_entries, params.simple_width(), r, w),
        RegFileGeometry::new(params.short_entries, params.short_width(), r + w, w),
        RegFileGeometry::new(params.long_entries, params.long_width(), r, w),
    ]
}

/// Total register-file energy of a content-aware run: measured access
/// counts × per-access energies of each sub-file. Every access touches the
/// Simple file; short/long accesses additionally touch their sub-file —
/// mirroring the paper's RF1/RF2 and WR1/WR2 structure.
pub fn rf_energy_carf(
    model: &TechModel,
    params: &CarfParams,
    reads: &ClassTotals,
    writes: &ClassTotals,
) -> f64 {
    let [simple, short, long] = carf_geometries(params);
    let classified_reads = reads.simple + reads.short + reads.long;
    let classified_writes = writes.simple + writes.short + writes.long;
    classified_reads as f64 * model.read_energy(&simple)
        + reads.short as f64 * model.read_energy(&short)
        + reads.long as f64 * model.read_energy(&long)
        + classified_writes as f64 * model.write_energy(&simple)
        + writes.short as f64 * model.read_energy(&short) // WR1 probe reads the Short file
        + writes.long as f64 * model.write_energy(&long)
}

/// Total register-file energy of a monolithic run (baseline or unlimited).
pub fn rf_energy_monolithic(
    model: &TechModel,
    geometry: &RegFileGeometry,
    reads: &ClassTotals,
    writes: &ClassTotals,
) -> f64 {
    reads.total as f64 * model.read_energy(geometry)
        + writes.total as f64 * model.write_energy(geometry)
}

/// The compressed organization's three arrays: the narrow bank every tag
/// lives in (payload + class tag), the high-bits dictionary probed on
/// every write, and the full-width overflow bank holding incompressible
/// values whole.
pub fn compressed_geometries(params: &CarfParams) -> [RegFileGeometry; 3] {
    let (r, w) = (PAPER_BASELINE.read_ports, PAPER_BASELINE.write_ports);
    [
        RegFileGeometry::new(params.simple_entries, params.simple_width(), r, w),
        RegFileGeometry::new(params.short_entries, params.short_width(), r + w, w),
        RegFileGeometry::new(params.long_entries, 64, r, w),
    ]
}

/// Total register-file energy of a compressed run. Every access touches
/// the narrow bank; dictionary-compressed reads also read the dictionary,
/// overflowed values read/write the overflow bank, and — unlike CARF,
/// where only Short writes probe — *every* classified write probes the
/// dictionary (static compression trains on all results).
pub fn rf_energy_compressed(
    model: &TechModel,
    params: &CarfParams,
    reads: &ClassTotals,
    writes: &ClassTotals,
) -> f64 {
    let [narrow, dict, overflow] = compressed_geometries(params);
    let classified_reads = reads.simple + reads.short + reads.long;
    let classified_writes = writes.simple + writes.short + writes.long;
    classified_reads as f64 * model.read_energy(&narrow)
        + reads.short as f64 * model.read_energy(&dict)
        + reads.long as f64 * model.read_energy(&overflow)
        + classified_writes as f64 * model.write_energy(&narrow)
        + classified_writes as f64 * model.read_energy(&dict)
        + writes.long as f64 * model.write_energy(&overflow)
}

/// The port-reduced organization: a full-width main array with the
/// reduced read-port budget, plus (when configured) the small capture
/// buffer, which keeps the baseline's port provisioning so any issue slot
/// can source from it.
pub fn port_reduced_geometries(
    params: &PortReducedParams,
) -> (RegFileGeometry, Option<RegFileGeometry>) {
    let w = PAPER_BASELINE.write_ports;
    let main = RegFileGeometry::new(PAPER_BASELINE.entries, 64, params.read_ports, w);
    let capture = (params.capture_entries > 0).then(|| {
        RegFileGeometry::new(params.capture_entries, 64, PAPER_BASELINE.read_ports, w)
    });
    (main, capture)
}

/// Total register-file energy of a port-reduced run: capture-buffer hits
/// are served by the small buffer instead of the main array, every other
/// read pays the main array, and every writeback writes both (the buffer
/// captures the last writebacks).
pub fn rf_energy_port_reduced(
    model: &TechModel,
    params: &PortReducedParams,
    reads: &ClassTotals,
    writes: &ClassTotals,
    capture_hits: u64,
) -> f64 {
    let (main, capture) = port_reduced_geometries(params);
    let hits = capture_hits.min(reads.total);
    let mut energy = (reads.total - hits) as f64 * model.read_energy(&main)
        + writes.total as f64 * model.write_energy(&main);
    if let Some(cap) = capture {
        energy += hits as f64 * model.read_energy(&cap)
            + writes.total as f64 * model.write_energy(&cap);
    }
    energy
}

/// The banked-area/access-time view of the backend named by `kind`, for
/// the cross-backend comparison table (paper Figures 8/9 style).
pub fn organization_for(kind: &RegFileKind) -> BankedOrganization {
    match kind {
        RegFileKind::Baseline => BankedOrganization::monolithic("baseline", PAPER_BASELINE),
        RegFileKind::ContentAware(p, _) => {
            let [simple, short, long] = carf_geometries(p);
            BankedOrganization::new(
                "carf",
                vec![
                    ("simple".into(), simple),
                    ("short".into(), short),
                    ("long".into(), long),
                ],
            )
        }
        RegFileKind::Compressed(p) => {
            let [narrow, dict, overflow] = compressed_geometries(p);
            BankedOrganization::new(
                "compressed",
                vec![
                    ("narrow".into(), narrow),
                    ("dict".into(), dict),
                    ("overflow".into(), overflow),
                ],
            )
        }
        RegFileKind::PortReduced(p) => {
            let (main, cap) = port_reduced_geometries(p);
            let mut banks = vec![("main".to_string(), main)];
            if let Some(c) = cap {
                banks.push(("capture".into(), c));
            }
            BankedOrganization::new("ports", banks)
        }
    }
}

/// Total register-file energy of a run under `kind`, dispatching to the
/// backend's accounting.
pub fn rf_energy_for(
    model: &TechModel,
    kind: &RegFileKind,
    reads: &ClassTotals,
    writes: &ClassTotals,
    capture_hits: u64,
) -> f64 {
    match kind {
        RegFileKind::Baseline => rf_energy_monolithic(model, &PAPER_BASELINE, reads, writes),
        RegFileKind::ContentAware(p, _) => rf_energy_carf(model, p, reads, writes),
        RegFileKind::Compressed(p) => rf_energy_compressed(model, p, reads, writes),
        RegFileKind::PortReduced(p) => {
            rf_energy_port_reduced(model, p, reads, writes, capture_hits)
        }
    }
}

/// The unlimited comparator geometry (re-exported for binaries).
pub fn unlimited_geometry() -> RegFileGeometry {
    PAPER_UNLIMITED
}

/// The baseline geometry (re-exported for binaries).
pub fn baseline_geometry() -> RegFileGeometry {
    PAPER_BASELINE
}

/// Arithmetic mean of an iterator (0.0 when empty).
pub fn mean<I: IntoIterator<Item = f64>>(values: I) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Prints a fixed-width table: a header row then data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>()));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(v: f64) -> String {
    // Normalize negative zero and float dust so tables print "0.0%".
    let v = if v.abs() < 5e-12 { 0.0 } else { v };
    format!("{:.1}%", v * 100.0)
}

/// The `d+n` sweep axis used throughout the paper's figures.
pub const DN_SWEEP: [u32; 7] = [8, 12, 16, 20, 24, 28, 32];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_handles_empty_and_values() {
        assert_eq!(mean([] as [f64; 0]), 0.0);
        assert!((mean([1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn class_totals_fractions() {
        let t = ClassTotals { simple: 50, short: 30, long: 20, total: 100 };
        assert!((t.fraction(ValueClass::Simple) - 0.5).abs() < 1e-12);
        assert!((t.fraction(ValueClass::Long) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn geometries_match_paper_at_dn20() {
        let g = carf_geometries(&CarfParams::paper_default());
        assert_eq!((g[0].entries, g[0].bits), (112, 22));
        assert_eq!((g[1].entries, g[1].bits, g[1].read_ports), (8, 44, 14));
        assert_eq!((g[2].entries, g[2].bits), (48, 50));
    }

    #[test]
    fn carf_energy_is_cheaper_than_baseline_per_access_mix() {
        // Same access volume through CARF (all simple) must cost less than
        // through the monolithic baseline.
        let model = TechModel::default_model();
        let params = CarfParams::paper_default();
        let reads = ClassTotals { simple: 1000, short: 0, long: 0, total: 1000 };
        let writes = ClassTotals { simple: 600, short: 0, long: 0, total: 600 };
        let carf = rf_energy_carf(&model, &params, &reads, &writes);
        let base = rf_energy_monolithic(&model, &baseline_geometry(), &reads, &writes);
        assert!(carf < base * 0.6, "carf={carf:.0} base={base:.0}");
    }

    #[test]
    fn backend_zoo_areas_order_sensibly() {
        let model = TechModel::default_model();
        let base = organization_for(&RegFileKind::Baseline);
        let comp = organization_for(&RegFileKind::Compressed(CarfParams::paper_default()));
        let ports = organization_for(&RegFileKind::PortReduced(PortReducedParams::default()));
        // Narrow banks shrink the compressed file below the 64-bit
        // monolith; halving read ports shrinks every cell of the
        // port-reduced file.
        assert!(comp.area(&model) < base.area(&model));
        assert!(ports.area(&model) < base.area(&model));
        // The capture buffer is present and small.
        assert_eq!(ports.banks.len(), 2);
        assert!(ports.banks[1].1.entries == PortReducedParams::default().capture_entries);
        // Zero-depth capture folds away.
        let bare = organization_for(&RegFileKind::PortReduced(PortReducedParams {
            read_ports: 8,
            capture_entries: 0,
        }));
        assert_eq!(bare.banks.len(), 1);
    }

    #[test]
    fn port_reduced_energy_rewards_capture_hits() {
        let model = TechModel::default_model();
        let params = PortReducedParams::default();
        let reads = ClassTotals { total: 1000, ..ClassTotals::default() };
        let writes = ClassTotals { total: 600, ..ClassTotals::default() };
        let cold = rf_energy_port_reduced(&model, &params, &reads, &writes, 0);
        let warm = rf_energy_port_reduced(&model, &params, &reads, &writes, 400);
        assert!(warm < cold, "buffer-served reads must be cheaper than array reads");
        // Hits are clamped to the read volume: more "hits" than reads must
        // not go negative or beat the all-hits case.
        let capped = rf_energy_port_reduced(&model, &params, &reads, &writes, 5000);
        let all = rf_energy_port_reduced(&model, &params, &reads, &writes, 1000);
        assert_eq!(capped, all);
    }

    #[test]
    fn compressed_energy_is_cheaper_than_baseline_on_a_simple_mix() {
        let model = TechModel::default_model();
        let params = CarfParams::paper_default();
        let reads = ClassTotals { simple: 1000, short: 0, long: 0, total: 1000 };
        let writes = ClassTotals { simple: 600, short: 0, long: 0, total: 600 };
        let comp = rf_energy_compressed(&model, &params, &reads, &writes);
        let base = rf_energy_monolithic(&model, &baseline_geometry(), &reads, &writes);
        assert!(comp < base, "comp={comp:.0} base={base:.0}");
        // An all-overflow mix must cost more than the all-narrow mix: the
        // exception path is the expensive one.
        let long_reads = ClassTotals { simple: 0, short: 0, long: 1000, total: 1000 };
        let long_writes = ClassTotals { simple: 0, short: 0, long: 600, total: 600 };
        let overflowed = rf_energy_compressed(&model, &params, &long_reads, &long_writes);
        assert!(overflowed > comp);
    }

    #[test]
    fn budget_labels() {
        assert_eq!(Budget::quick().label(), "quick");
        assert_eq!(Budget::full().label(), "full");
    }

    #[test]
    fn jobs_override_accepts_only_positive_integers() {
        assert_eq!(parse_jobs_override("4"), Some(4));
        assert_eq!(parse_jobs_override("  12 \n"), Some(12));
        assert_eq!(parse_jobs_override("0"), None);
        assert_eq!(parse_jobs_override(""), None);
        assert_eq!(parse_jobs_override("-3"), None);
        assert_eq!(parse_jobs_override("eight"), None);
        assert_eq!(parse_jobs_override("99999999999999999999999"), None);
    }

    #[test]
    fn budget_arg_parsing() {
        let ok = |args: &[&str]| {
            Budget::parse_args(args.iter().map(|s| s.to_string())).expect("valid args")
        };
        assert_eq!(ok(&["--quick"]).label(), "quick");
        assert_eq!(ok(&["--full"]).label(), "full");
        assert_eq!(ok(&["--jobs", "3"]).jobs, 3);
        assert_eq!(ok(&["--jobs=5", "--full"]).jobs, 5);
        assert!(Budget::parse_args(["--jobs".to_string(), "0".to_string()]).is_err());
        assert!(Budget::parse_args(["--bogus".to_string()]).is_err());
    }
}
