//! `carf-trace`: pipeline observability CLI.
//!
//! Runs selected workloads under the baseline and/or content-aware
//! machines with a [`TraceRecorder`] installed, then reports per-cycle
//! stall attribution (buckets sum to total cycles by construction) and
//! mean stage latencies. It also exports a Chrome trace-event JSON per
//! point (loadable in Perfetto or `chrome://tracing`) and merges a
//! counters record into `results/trace_counters.json`: the recorder's
//! dispatch/issue/execute counts, buckets and latencies beside the
//! run's own `SimStats` counts, the CARF-specific ones (WR1 outcomes,
//! Long-file writeback retries, issue-guard cycles) included.
//!
//! Replaces the old `diag_stalls` diagnostic, which ignored its arguments
//! and panicked on unknown workloads.

use carf_bench::cli::{CliSpec, MachineSet, OptSpec};
use carf_bench::json::Value;
use carf_bench::{fsio, parallel, trace, Budget};
use carf_sim::{SimConfig, AnySimulator, StageLatencies, StallReport, TraceRecorder};
use carf_workloads::{all_workloads, Workload};

/// Workloads traced when none are named: the four kernels where the
/// baseline and content-aware machines diverge the most.
const DEFAULT_WORKLOADS: [&str; 4] = ["stencil3", "particle_push", "tridiag", "sort_kernel"];

const SPEC: CliSpec = CliSpec {
    bin: "carf-trace",
    options: &[
        OptSpec {
            name: "--window",
            value: Some("N"),
            help: "Chrome-trace cycle window length (default 5000)",
        },
        OptSpec {
            name: "--machine",
            value: Some("M"),
            help: "trace the baseline, the content-aware machine, or both (default)",
        },
    ],
    operands: Some((
        "workload",
        "kernels to trace (default: stencil3 particle_push tridiag sort_kernel)",
    )),
};

struct TraceArgs {
    budget: Budget,
    window: u64,
    machine: MachineSet,
    workloads: Vec<Workload>,
}

fn parse_trace_args() -> TraceArgs {
    let parsed = SPEC.parse();
    let window = match parsed.option("--window") {
        Some(v) => match v.parse::<u64>() {
            Ok(n) if n >= 1 => n,
            _ => SPEC.fail("`--window` expects a positive cycle count"),
        },
        None => 5_000,
    };
    let machine = match parsed.option("--machine") {
        Some(v) => MachineSet::parse(v).unwrap_or_else(|bad| SPEC.fail(&bad)),
        None => MachineSet::Both,
    };

    let registry = all_workloads();
    let names: Vec<String> = if parsed.operands.is_empty() {
        DEFAULT_WORKLOADS.iter().map(|s| s.to_string()).collect()
    } else {
        parsed.operands
    };
    let mut workloads = Vec::new();
    for name in &names {
        match registry.iter().find(|w| w.name == *name) {
            Some(w) => workloads.push(w.clone()),
            None => {
                eprintln!(
                    "valid workloads: {}",
                    registry.iter().map(|w| w.name).collect::<Vec<_>>().join(" ")
                );
                SPEC.fail(&format!("unknown workload `{name}`"));
            }
        }
    }

    TraceArgs { budget: parsed.budget, window, machine, workloads }
}

/// Everything one traced point produces.
struct PointOutput {
    workload: String,
    label: &'static str,
    config_tag: String,
    ipc: f64,
    cycles: u64,
    committed: u64,
    report: StallReport,
    latencies: StageLatencies,
    chrome_json: String,
    counters: Vec<(&'static str, Value)>,
}

fn run_point(
    workload: &Workload,
    label: &'static str,
    config: &SimConfig,
    budget: &Budget,
    window: u64,
) -> Result<PointOutput, String> {
    let program = workload.build(workload.size(budget.size));
    let mut sim =
        AnySimulator::with_tracer(config.clone(), &program, TraceRecorder::with_window(0, window));
    let result = sim
        .run(budget.max_insts)
        .map_err(|e| format!("{} under {label}: {e}", workload.name))?;
    let counters = trace::counters(sim.tracer(), sim.stats());
    let recorder = sim.into_tracer();
    let report = recorder.stall_report();
    if report.bucket_sum() != recorder.cycles() {
        return Err(format!(
            "{} under {label}: stall buckets sum to {} but {} cycles ran \
             (attribution invariant broken)",
            workload.name,
            report.bucket_sum(),
            recorder.cycles()
        ));
    }
    Ok(PointOutput {
        workload: workload.name.to_string(),
        label,
        config_tag: config.describe(),
        ipc: result.ipc,
        cycles: result.cycles,
        committed: result.committed,
        report,
        latencies: *recorder.latencies(),
        chrome_json: trace::chrome_trace(&recorder),
        counters,
    })
}

fn main() {
    let TraceArgs { budget, window, machine, workloads } = parse_trace_args();

    let configs = machine.configs();

    let points: Vec<(Workload, &'static str, SimConfig)> = workloads
        .iter()
        .flat_map(|w| configs.iter().map(|(l, c)| (w.clone(), *l, c.clone())))
        .collect();

    println!(
        "carf-trace: {} point(s), budget={}, window={} cycles, {} worker(s)",
        points.len(),
        budget.label(),
        window,
        budget.jobs
    );

    let results = parallel::run_ordered(&points, budget.jobs, |(w, label, cfg)| {
        run_point(w, label, cfg, &budget, window)
    });

    let mut failed = false;
    let traces_dir = parallel::results_dir().join("traces");
    let mut records = Vec::new();
    for result in results {
        let point = match result {
            Ok(p) => p,
            Err(msg) => {
                eprintln!("error: {msg}");
                failed = true;
                continue;
            }
        };
        println!(
            "\n== {} [{}: {}] ==\nipc={:.3}  cycles={}  committed={}",
            point.workload, point.label, point.config_tag, point.ipc, point.cycles, point.committed
        );
        print!("{}", point.report);
        let h = &point.latencies;
        println!(
            "latency means (cycles): dispatch->issue {:.1}, issue->execute {:.1}, \
             execute->retire {:.1}, dispatch->retire {:.1}",
            h.dispatch_to_issue.mean(),
            h.issue_to_execute.mean(),
            h.execute_to_retire.mean(),
            h.dispatch_to_retire.mean()
        );

        let trace_path = traces_dir.join(format!("{}_{}.json", point.workload, point.label));
        parallel::exit_on_write_error(
            fsio::atomic_write(&trace_path, point.chrome_json.as_bytes()).map_err(|e| {
                std::io::Error::new(e.kind(), format!("{}: {e}", trace_path.display()))
            }),
        );
        println!("chrome trace -> {}", trace_path.display());

        // One merged record per (bin, workload, machine, budget).
        let key = [
            ("bin", "carf-trace".into()),
            ("workload", point.workload.into()),
            ("machine", point.label.into()),
            ("budget", budget.label().into()),
        ];
        records.push(Value::object(key.into_iter().chain(point.counters)));
    }
    if !records.is_empty() {
        let path = parallel::exit_on_write_error(parallel::write_records(
            "trace_counters.json",
            records,
            &["bin", "workload", "machine", "budget"],
            1,
        ));
        println!("\ncounters -> {}", path.display());
    }
    if failed {
        std::process::exit(1);
    }
}
