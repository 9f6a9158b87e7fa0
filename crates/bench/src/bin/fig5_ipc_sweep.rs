//! Figure 5: average relative IPC as a function of `d+n`, for the INT and
//! FP suites, against the unlimited-resource machine (100%) and the
//! baseline.
//!
//! Configuration per the paper: 8 Short registers (n = 3), 48 Long, 112
//! Simple; `d+n` swept from 8 to 32.

use carf_bench::{pct, print_table, run_matrix_cached, write_timing_json, DN_SWEEP};
use carf_core::CarfParams;
use carf_sim::SimConfig;
use carf_workloads::Suite;

fn main() {
    let budget = carf_bench::cli::budget_for(env!("CARGO_BIN_NAME"));
    println!("Figure 5: relative IPC vs d+n ({} run)", budget.label());

    // One flat matrix: 2 reference configs + the 7-point sweep, for both
    // suites, dispatched together over the worker pool.
    let mut points = vec![
        (SimConfig::paper_unlimited(), Suite::Int),
        (SimConfig::paper_unlimited(), Suite::Fp),
        (SimConfig::paper_baseline(), Suite::Int),
        (SimConfig::paper_baseline(), Suite::Fp),
    ];
    for dn in DN_SWEEP {
        let cfg = SimConfig::paper_carf(CarfParams::with_dn(dn));
        points.push((cfg.clone(), Suite::Int));
        points.push((cfg, Suite::Fp));
    }
    let results = run_matrix_cached(&points, &budget).results;
    let (unlimited_int, unlimited_fp) = (&results[0], &results[1]);
    let (baseline_int, baseline_fp) = (&results[2], &results[3]);

    let mut rows = vec![vec![
        "baseline".to_string(),
        pct(baseline_int.mean_relative_ipc(unlimited_int)),
        pct(baseline_fp.mean_relative_ipc(unlimited_fp)),
        "~99%".to_string(),
        "~99.9%".to_string(),
    ]];
    for (i, dn) in DN_SWEEP.iter().enumerate() {
        let (int, fp) = (&results[4 + 2 * i], &results[5 + 2 * i]);
        let (paper_int, paper_fp) = paper_anchor(*dn);
        rows.push(vec![
            format!("carf d+n={dn}"),
            pct(int.mean_relative_ipc(unlimited_int)),
            pct(fp.mean_relative_ipc(unlimited_fp)),
            paper_int.to_string(),
            paper_fp.to_string(),
        ]);
    }
    print_table(
        "Average relative IPC (100% = unlimited machine)",
        &["config", "INT", "FP", "INT (paper)", "FP (paper)"],
        &rows,
    );
    println!(
        "\nShape check: INT should approach its plateau around d+n = 20 and");
    println!("FP should sit within a fraction of a percent of the baseline.");
    carf_bench::parallel::exit_on_write_error(write_timing_json(&budget));
}

/// Paper Figure 5 anchors (read off the described curve: INT rises from
/// ~96% toward a ~98.3% plateau at d+n = 20; FP stays ≥99%).
fn paper_anchor(dn: u32) -> (&'static str, &'static str) {
    match dn {
        8 => ("~96%", "~99%"),
        12 => ("~97%", "~99.3%"),
        16 => ("~98%", "~99.5%"),
        20 => ("~98.3%", "~99.7%"),
        24 | 28 | 32 => ("~98.5%", "~99.7%"),
        _ => ("-", "-"),
    }
}
