//! Table 2: percentage of source operands supplied by the bypass network
//! (no register-file access), for the baseline (one bypass level) and the
//! content-aware machine (extra bypass level covering the longer
//! writeback).

use carf_bench::{pct, print_table, run_matrix_cached};
use carf_core::CarfParams;
use carf_sim::SimConfig;
use carf_workloads::Suite;

fn main() {
    let budget = carf_bench::cli::budget_for(env!("CARGO_BIN_NAME"));
    println!("Table 2: percentage of bypassed operands ({} run)", budget.label());
    let base = SimConfig::paper_baseline();
    let carf = SimConfig::paper_carf(CarfParams::paper_default());

    let suites = [(Suite::Int, "38.1%", "47.9%"), (Suite::Fp, "21.1%", "28.4%")];
    let points: Vec<(SimConfig, Suite)> = suites
        .iter()
        .flat_map(|(suite, _, _)| [(base.clone(), *suite), (carf.clone(), *suite)])
        .collect();
    let results = run_matrix_cached(&points, &budget).results;

    let mut rows = Vec::new();
    for ((suite, paper_base, paper_carf), pair) in suites.into_iter().zip(results.chunks(2)) {
        let (b, c) = (&pair[0], &pair[1]);
        rows.push(vec![
            format!("SPEC {suite}"),
            pct(b.bypass_fraction()),
            paper_base.to_string(),
            pct(c.bypass_fraction()),
            paper_carf.to_string(),
        ]);
    }
    print_table(
        "Bypassed source operands",
        &["suite", "baseline", "baseline (paper)", "content-aware", "carf (paper)"],
        &rows,
    );
    println!("\nShape check: the content-aware machine bypasses more operands than");
    println!("the baseline (its extra level covers the two-stage writeback), and");
    println!("INT codes bypass more than FP codes.");
}
