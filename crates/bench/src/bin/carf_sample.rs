//! Sampled-vs-full validation: runs every workload both ways — straight
//! cycle-level and via checkpointed interval sampling — and reports the
//! sampled IPC estimate with its error bar next to the full-run truth.
//!
//! ```text
//! carf-sample [--quick | --full] [--jobs N] [--sample[=I/P/W]]
//!             [--machine base|carf|both] [--suite int|fp|all] [--check TOL]
//! ```
//!
//! With `--check TOL` (a relative tolerance, e.g. `0.05`), the binary
//! exits nonzero when any workload's sampled IPC misses the full-run IPC
//! by more than `max(CI95, TOL × full)` — the statistical bound when the
//! intervals have spread, the loose floor when a homogeneous kernel's
//! intervals are all alike — or when a sampled run simulated more than the
//! spec's detail bound of instructions cycle-level. Per-workload results
//! land in `results/sample_quality.json`.

use carf_bench::cli::{parse_suites, CliSpec, MachineSet, OptSpec};
use carf_bench::json::Value;
use carf_bench::sample::{relative_error, run_program_sampled, SampledRun, SampleSpec};
use carf_bench::{parallel, print_table, Budget};
use carf_sim::{AnySimulator, SimConfig};
use carf_workloads::{Suite, Workload};

const SPEC: CliSpec = CliSpec {
    bin: "carf-sample",
    options: &[
        OptSpec {
            name: "--machine",
            value: Some("M"),
            help: "which machine: base, carf, or both (default both)",
        },
        OptSpec {
            name: "--suite",
            value: Some("S"),
            help: "which suite: int (default), fp, or all",
        },
        OptSpec {
            name: "--check",
            value: Some("TOL"),
            help: "fail (exit 1) when sampled IPC misses full IPC by more than max(CI95, TOL*full)",
        },
    ],
    operands: None,
};

struct Point {
    machine: &'static str,
    workload: String,
    full_ipc: f64,
    sampled: SampledRun,
}

fn run_point(
    machine: &'static str,
    config: &SimConfig,
    workload: &Workload,
    spec: &SampleSpec,
    budget: &Budget,
) -> Point {
    let program = workload.build(workload.size(budget.size));
    let mut sim = AnySimulator::new(config.clone(), &program);
    let full = sim
        .run(budget.max_insts)
        .unwrap_or_else(|e| panic!("{} full run under {machine}: {e}", workload.name));
    let sampled = run_program_sampled(config, &program, spec, budget.max_insts)
        .unwrap_or_else(|e| panic!("{} sampled run under {machine}: {e}", workload.name));
    Point { machine, workload: workload.name.to_string(), full_ipc: full.ipc, sampled }
}

fn quality_record(budget: &Budget, spec: &SampleSpec, points: &[Point]) -> Value {
    let rows = points.iter().map(|p| {
        Value::object([
            ("machine", p.machine.into()),
            ("workload", p.workload.as_str().into()),
            ("full_ipc", Value::fixed(p.full_ipc, 4)),
            ("sampled_ipc", Value::fixed(p.sampled.ipc(), 4)),
            ("ci95", Value::fixed(p.sampled.ci95(), 4)),
            ("intervals", p.sampled.intervals.len().into()),
            ("detail_fraction", Value::fixed(p.sampled.detail_fraction(), 4)),
        ])
    });
    Value::object([
        ("bin", "carf-sample".into()),
        ("budget", budget.label().into()),
        ("spec", spec.label().into()),
        ("points", rows.collect()),
    ])
}

fn main() {
    let parsed = SPEC.parse();
    let budget = parsed.budget;
    let spec = budget.sample.unwrap_or_default();
    let machines = match parsed.option("--machine") {
        Some(v) => MachineSet::parse(v).unwrap_or_else(|bad| SPEC.fail(&bad)),
        None => MachineSet::Both,
    };
    let suites = match parsed.option("--suite") {
        Some(v) => parse_suites(v).unwrap_or_else(|bad| SPEC.fail(&bad)),
        None => vec![Suite::Int],
    };
    let check: Option<f64> = parsed.option("--check").map(|v| {
        v.parse::<f64>()
            .ok()
            .filter(|t| t.is_finite() && *t > 0.0)
            .unwrap_or_else(|| SPEC.fail("`--check` expects a positive relative tolerance"))
    });

    println!(
        "== sampled vs full IPC ({} budget, spec {}, detail bound {:.1}%) ==",
        budget.label(),
        spec.label(),
        spec.detail_bound() * 100.0
    );

    let mut work: Vec<(&'static str, SimConfig, Workload)> = Vec::new();
    for (label, config) in machines.configs() {
        for suite in &suites {
            let ws = match suite {
                Suite::Int => carf_workloads::int_suite(),
                Suite::Fp => carf_workloads::fp_suite(),
            };
            for w in ws {
                work.push((label, config.clone(), w));
            }
        }
    }
    parallel::note_run_start();
    let points = parallel::run_ordered(&work, budget.jobs, |(label, config, w)| {
        run_point(label, config, w, &spec, &budget)
    });

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for p in &points {
        let err = (p.sampled.ipc() - p.full_ipc).abs();
        let rel = relative_error(p.sampled.ipc(), p.full_ipc);
        let ci = p.sampled.ci95();
        rows.push(vec![
            format!("{}/{}", p.machine, p.workload),
            format!("{:.3}", p.full_ipc),
            format!("{:.3}", p.sampled.ipc()),
            format!("±{ci:.3}"),
            rel.map_or("n/a".to_string(), |r| format!("{:.1}%", r * 100.0)),
            format!("{}", p.sampled.intervals.len()),
            format!("{:.1}%", p.sampled.detail_fraction() * 100.0),
        ]);
        if let Some(tol) = check {
            // A non-finite error or bound means the run itself is broken;
            // `err > bound` with a NaN on either side would compare false
            // and let exactly those runs slip through, so check finiteness
            // explicitly first.
            let bound = ci.max(tol * p.full_ipc);
            if rel.is_none() || !ci.is_finite() || !bound.is_finite() {
                failures.push(format!(
                    "{}/{}: non-finite quality figures (sampled {}, full {}, ci {ci}) — \
                     the comparison is meaningless",
                    p.machine,
                    p.workload,
                    p.sampled.ipc(),
                    p.full_ipc
                ));
            } else if err > bound {
                failures.push(format!(
                    "{}/{}: sampled {:.3} vs full {:.3} (off by {err:.3}, bound {bound:.3})",
                    p.machine,
                    p.workload,
                    p.sampled.ipc(),
                    p.full_ipc
                ));
            }
            if p.sampled.detail_fraction() > spec.detail_bound() + 1e-9 {
                failures.push(format!(
                    "{}/{}: detail fraction {:.1}% exceeds the spec bound {:.1}%",
                    p.machine,
                    p.workload,
                    p.sampled.detail_fraction() * 100.0,
                    spec.detail_bound() * 100.0
                ));
            }
        }
    }
    print_table(
        "sampled vs full",
        &["point", "full IPC", "sampled", "CI95", "err", "K", "detail"],
        &rows,
    );

    let mean_detail = carf_bench::mean(points.iter().map(|p| p.sampled.detail_fraction()));
    let mean_err = carf_bench::mean(
        points.iter().map(|p| relative_error(p.sampled.ipc(), p.full_ipc).unwrap_or(0.0)),
    );
    println!(
        "\nmean |error| {:.2}%, mean detail fraction {:.1}%, wall {:.2}s",
        mean_err * 100.0,
        mean_detail * 100.0,
        parallel::total_secs()
    );

    let record = quality_record(&budget, &spec, &points);
    let path = parallel::exit_on_write_error(parallel::write_records(
        "sample_quality.json",
        vec![record],
        &["bin", "budget", "spec"],
        parallel::TIMING_KEEP_RUNS,
    ));
    println!("quality record -> {}", path.display());

    if !failures.is_empty() {
        eprintln!("\nsampling quality check FAILED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    if check.is_some() {
        println!("sampling quality check passed ({} points)", points.len());
    }
}
