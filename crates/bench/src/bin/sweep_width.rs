//! Machine-width sensitivity (beyond the paper): how does the
//! content-aware file's IPC cost scale with issue width?
//!
//! The paper evaluates one 8-wide machine. The organization's costs (one
//! extra read stage, two-stage writeback) are pipeline-depth effects, so
//! narrower machines — with less ILP to lose — should pay less, and wider
//! ones more. This sweep quantifies that, supporting the paper's framing
//! that the technique targets wide-issue 64-bit processors.

use carf_bench::{mean, pct, print_table, run_matrix_cached, write_timing_json};
use carf_core::CarfParams;
use carf_sim::SimConfig;
use carf_workloads::Suite;

fn width_config(width: usize, base: SimConfig) -> SimConfig {
    SimConfig {
        fetch_width: width,
        issue_width: width,
        commit_width: width,
        int_units: width,
        fp_units: width,
        rf_read_ports: width as u32,
        rf_write_ports: (width * 3 / 4).max(1) as u32,
        ..base
    }
}

fn main() {
    let budget = carf_bench::cli::budget_for(env!("CARGO_BIN_NAME"));
    println!("Issue-width sensitivity of the content-aware organization ({} run)", budget.label());

    // One flat matrix: per width, base Int/Fp then carf Int/Fp.
    const WIDTHS: [usize; 4] = [2, 4, 8, 16];
    let mut points = Vec::new();
    for width in WIDTHS {
        let base = width_config(width, SimConfig::paper_baseline());
        let carf = width_config(width, SimConfig::paper_carf(CarfParams::paper_default()));
        points.push((base.clone(), Suite::Int));
        points.push((base, Suite::Fp));
        points.push((carf.clone(), Suite::Int));
        points.push((carf, Suite::Fp));
    }
    let results = run_matrix_cached(&points, &budget).results;

    let mut rows = Vec::new();
    for (i, width) in WIDTHS.iter().enumerate() {
        let (b_int, b_fp) = (&results[4 * i], &results[4 * i + 1]);
        let (c_int, c_fp) = (&results[4 * i + 2], &results[4 * i + 3]);
        rows.push(vec![
            format!("{width}-wide"),
            format!("{:.3}", mean(b_int.runs.iter().map(|(_, s)| s.ipc()))),
            pct(c_int.mean_relative_ipc(b_int)),
            pct(c_fp.mean_relative_ipc(b_fp)),
        ]);
    }
    print_table(
        "CARF IPC relative to a same-width baseline",
        &["machine", "base INT ipc", "INT rel", "FP rel"],
        &rows,
    );
    println!("\n(The paper's machine is the 8-wide row; 8R/6W-equivalent port scaling.)");
    carf_bench::parallel::exit_on_write_error(write_timing_json(&budget));
}
