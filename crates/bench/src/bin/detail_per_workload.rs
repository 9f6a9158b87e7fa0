//! Per-workload detail behind the suite averages: IPC under all three
//! machines, the relative IPC the paper's Figure 5 averages, and the
//! write-classification mix per kernel.

use carf_bench::{pct, print_table, run_matrix_cached};
use carf_core::{CarfParams, ValueClass};
use carf_sim::SimConfig;
use carf_workloads::Suite;

fn main() {
    let budget = carf_bench::cli::budget_for(env!("CARGO_BIN_NAME"));
    println!("Per-workload detail at d+n = 20 ({} run)", budget.label());

    let unlimited = SimConfig::paper_unlimited();
    let baseline = SimConfig::paper_baseline();
    let carf = SimConfig::paper_carf(CarfParams::paper_default());

    // The three machines on each suite, INT first, so the rows come out in
    // `all_workloads()` order.
    let points: Vec<(SimConfig, Suite)> = [Suite::Int, Suite::Fp]
        .into_iter()
        .flat_map(|suite| {
            [(unlimited.clone(), suite), (baseline.clone(), suite), (carf.clone(), suite)]
        })
        .collect();
    let results = run_matrix_cached(&points, &budget).results;

    let mut rows = Vec::new();
    for machines in results.chunks(3) {
        let (unl, base, carf) = (&machines[0], &machines[1], &machines[2]);
        for (((name, u), (_, b)), (_, c)) in unl.runs.iter().zip(&base.runs).zip(&carf.runs) {
            let writes = c.int_rf.writes;
            rows.push(vec![
                format!("{name} ({})", unl.suite),
                format!("{:.3}", u.ipc()),
                format!("{:.3}", b.ipc()),
                format!("{:.3}", c.ipc()),
                pct(c.ipc() / b.ipc()),
                pct(writes.fraction(ValueClass::Simple)),
                pct(writes.fraction(ValueClass::Short)),
                pct(writes.fraction(ValueClass::Long)),
                format!("{:.1}", c.long_mean_live),
                pct(c.bpred.cond_accuracy()),
            ]);
        }
    }
    print_table(
        "IPC and write classification per kernel",
        &[
            "workload",
            "unl ipc",
            "base ipc",
            "carf ipc",
            "carf/base",
            "w.simple",
            "w.short",
            "w.long",
            "live L",
            "bpred",
        ],
        &rows,
    );
    println!("\nThe paper reports suite averages only; this is the spread underneath.");
}
