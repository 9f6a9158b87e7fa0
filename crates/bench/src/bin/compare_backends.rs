//! `compare_backends`: the register-file backend zoo in one table.
//!
//! Runs the selected workload suites across all four backends (monolithic
//! baseline, content-aware, compressed, port-reduced) and emits a single
//! comparison table — per-suite IPC, register-file energy and area
//! relative to the baseline, and the stall attribution that explains the
//! differences (the port-reduced machine's conflicts surface as
//! issue-structural cycles and read-port denials). A merged record lands
//! in `results/backend_compare.json`.

use carf_bench::cache::run_derived_cached;
use carf_bench::cli::{parse_suites, CliSpec, MachineSet, OptSpec};
use carf_bench::json::Value;
use carf_bench::{
    organization_for, parallel, pct, print_table, rf_energy_for, run_matrix_cached, Budget,
    ClassTotals, SuiteResult,
};
use carf_energy::TechModel;
use carf_sim::{AnySimulator, SimConfig, TraceRecorder};
use carf_workloads::{all_workloads, Suite};

const SPEC: CliSpec = CliSpec {
    bin: "compare_backends",
    options: &[OptSpec {
        name: "--suite",
        value: Some("S"),
        help: "int, fp, or all (default all)",
    }],
    operands: None,
};

/// The kernel traced for stall attribution: its wide dependence fronts
/// contend for read ports, so the port-reduced machine's conflicts show
/// up in the issue-structural bucket.
const STALL_WORKLOAD: &str = "tridiag";

/// Per-machine aggregation over the selected suites.
struct MachineRow {
    label: &'static str,
    config: SimConfig,
    suites: Vec<(Suite, SuiteResult)>,
}

impl MachineRow {
    fn ipc(&self, suite: Suite) -> Option<f64> {
        self.suites.iter().find(|(s, _)| *s == suite).map(|(_, r)| r.mean_ipc())
    }

    fn totals(&self) -> (ClassTotals, ClassTotals, u64, u64) {
        let mut reads = ClassTotals::default();
        let mut writes = ClassTotals::default();
        let mut capture_hits = 0u64;
        let mut port_denials = 0u64;
        for (_, result) in &self.suites {
            let (r, w) = result.access_totals();
            (reads, writes) = (reads + r, writes + w);
            for (_, s) in &result.runs {
                capture_hits += s.int_rf.capture_reuse_hits;
                port_denials += s.rf_read_port_denials;
            }
        }
        (reads, writes, capture_hits, port_denials)
    }
}

/// Issue-structural stall share of one traced run (the bucket where
/// read-port conflicts land), as a fraction of all cycles.
fn traced_issue_structural_share(config: &SimConfig, budget: &Budget) -> f64 {
    let workload = all_workloads()
        .into_iter()
        .find(|w| w.name == STALL_WORKLOAD)
        .expect("stall workload is registered");
    let program = workload.build(workload.size(budget.size));
    let mut sim =
        AnySimulator::with_tracer(config.clone(), &program, TraceRecorder::with_window(0, 0));
    sim.run(budget.max_insts)
        .unwrap_or_else(|e| panic!("{STALL_WORKLOAD} under {:?}: {e}", config.regfile));
    let recorder = sim.into_tracer();
    let report = recorder.stall_report();
    assert_eq!(report.bucket_sum(), recorder.cycles(), "stall attribution invariant");
    let issue = report
        .buckets()
        .iter()
        .find(|(name, _)| *name == "issue_structural")
        .map_or(0, |(_, n)| *n);
    if report.total_cycles == 0 {
        0.0
    } else {
        issue as f64 / report.total_cycles as f64
    }
}

fn main() {
    let parsed = SPEC.parse();
    let budget = parsed.budget;
    let suites = match parsed.option("--suite") {
        Some(v) => parse_suites(v).unwrap_or_else(|bad| SPEC.fail(&bad)),
        None => vec![Suite::Int, Suite::Fp],
    };
    let machines = MachineSet::All.configs();

    println!(
        "compare_backends: {} machine(s) x {} suite(s), budget={}, {} worker(s)",
        machines.len(),
        suites.len(),
        budget.label(),
        budget.jobs
    );

    // One flat (configuration x suite) matrix over the worker pool.
    let points: Vec<(SimConfig, Suite)> = machines
        .iter()
        .flat_map(|(_, c)| suites.iter().map(|s| (c.clone(), *s)))
        .collect();
    let results = run_matrix_cached(&points, &budget).results;

    let mut result_iter = results.into_iter();
    let rows: Vec<MachineRow> = machines
        .iter()
        .map(|(label, config)| MachineRow {
            label,
            config: config.clone(),
            suites: suites.iter().map(|s| (*s, result_iter.next().expect("matrix row"))).collect(),
        })
        .collect();

    // The traced stall-attribution runs are simulations too: cache them
    // as derived scalars, one per machine, so a warm re-run does zero
    // simulation.
    let configs: Vec<SimConfig> = rows.iter().map(|row| row.config.clone()).collect();
    let issue_shares = run_derived_cached("issue_structural_share/tridiag", &configs, &budget, |c| {
        traced_issue_structural_share(c, &budget)
    })
    .results;

    let model = TechModel::default_model();
    let base = rows.first().expect("baseline row");
    let (base_reads, base_writes, base_hits, _) = base.totals();
    let base_energy =
        rf_energy_for(&model, &base.config.regfile, &base_reads, &base_writes, base_hits);
    let base_area = organization_for(&base.config.regfile).area(&model);
    let base_int_ipc = base.ipc(Suite::Int);

    let mut header = vec!["machine"];
    if suites.contains(&Suite::Int) {
        header.push("ipc(int)");
    }
    if suites.contains(&Suite::Fp) {
        header.push("ipc(fp)");
    }
    header.extend(["rel-ipc", "energy", "area", "issue-struct", "port-denials", "capture-hits"]);

    let mut table: Vec<Vec<String>> = Vec::new();
    let mut records: Vec<Value> = Vec::new();
    for (row, &issue_share) in rows.iter().zip(&issue_shares) {
        let (reads, writes, capture_hits, port_denials) = row.totals();
        let energy = rf_energy_for(&model, &row.config.regfile, &reads, &writes, capture_hits);
        let area = organization_for(&row.config.regfile).area(&model);
        let rel_ipc = match (row.ipc(Suite::Int), base_int_ipc) {
            (Some(ipc), Some(base_ipc)) if base_ipc > 0.0 => ipc / base_ipc,
            _ => {
                // INT not selected: fall back to the FP suite ratio.
                let (a, b) = (row.ipc(Suite::Fp), base.ipc(Suite::Fp));
                match (a, b) {
                    (Some(x), Some(y)) if y > 0.0 => x / y,
                    _ => 1.0,
                }
            }
        };

        let mut cells = vec![row.label.to_string()];
        if suites.contains(&Suite::Int) {
            cells.push(format!("{:.3}", row.ipc(Suite::Int).unwrap_or(0.0)));
        }
        if suites.contains(&Suite::Fp) {
            cells.push(format!("{:.3}", row.ipc(Suite::Fp).unwrap_or(0.0)));
        }
        cells.push(pct(rel_ipc));
        cells.push(pct(energy / base_energy));
        cells.push(pct(area / base_area));
        cells.push(pct(issue_share));
        cells.push(port_denials.to_string());
        cells.push(capture_hits.to_string());
        table.push(cells);

        records.push(Value::object([
            ("bin", "compare_backends".into()),
            ("machine", row.label.into()),
            ("budget", budget.label().into()),
            ("config", row.config.describe().into()),
            ("ipc_int", Value::fixed(row.ipc(Suite::Int).unwrap_or(0.0), 4)),
            ("ipc_fp", Value::fixed(row.ipc(Suite::Fp).unwrap_or(0.0), 4)),
            ("rel_ipc", Value::fixed(rel_ipc, 4)),
            ("energy_rel", Value::fixed(energy / base_energy, 4)),
            ("area_rel", Value::fixed(area / base_area, 4)),
            ("issue_structural_share", Value::fixed(issue_share, 4)),
            ("rf_read_port_denials", port_denials.into()),
            ("capture_reuse_hits", capture_hits.into()),
        ]));
    }

    print_table(
        &format!("backend zoo ({} budget, energy/area relative to baseline)", budget.label()),
        &header,
        &table,
    );
    println!(
        "\nstall shares traced on `{STALL_WORKLOAD}`; port conflicts land in \
         the issue-struct bucket."
    );

    let path = parallel::exit_on_write_error(parallel::write_records(
        "backend_compare.json",
        records,
        &["bin", "machine", "budget"],
        1,
    ));
    println!("records -> {}", path.display());
}
