//! §4 baseline port selection: the paper reduces 2×8 read / 8 write ports
//! to 8 read / 6 write at a combined ~0.4% IPC cost, and we sweep the same
//! axis.

use carf_bench::{pct, print_table, run_matrix_cached, write_timing_json};
use carf_sim::SimConfig;
use carf_workloads::Suite;

const PORT_SWEEP: [(u32, u32, &str); 5] = [
    (16, 8, "100% (reference)"),
    (8, 8, "-0.17%"),
    (8, 6, "-0.38% (chosen)"),
    (8, 4, "-"),
    (4, 6, "-"),
];

fn main() {
    let budget = carf_bench::cli::budget_for(env!("CARGO_BIN_NAME"));
    println!("Baseline register-file port sweep ({} run)", budget.label());

    // The 16R/8W reference is the sweep's first point; everything runs as
    // one flat matrix over the worker pool.
    let mut points = Vec::new();
    for (r, w, _) in PORT_SWEEP {
        let mut cfg = SimConfig::paper_baseline();
        cfg.rf_read_ports = r;
        cfg.rf_write_ports = w;
        points.push((cfg.clone(), Suite::Int));
        points.push((cfg, Suite::Fp));
    }
    let results = run_matrix_cached(&points, &budget).results;
    let reference = (&results[0], &results[1]);

    let mut rows = Vec::new();
    for (i, (r, w, paper)) in PORT_SWEEP.iter().enumerate() {
        let (int, fp) = (&results[2 * i], &results[2 * i + 1]);
        rows.push(vec![
            format!("{r}R/{w}W"),
            pct(int.mean_relative_ipc(reference.0)),
            pct(fp.mean_relative_ipc(reference.1)),
            paper.to_string(),
        ]);
    }
    print_table(
        "Relative IPC vs the 16R/8W file",
        &["ports", "INT", "FP", "paper (delta)"],
        &rows,
    );
    println!("\nPaper: halving read ports costs 0.17%, and 6 write ports another");
    println!("0.21% — justifying the 8R/6W baseline used everywhere else.");
    carf_bench::parallel::exit_on_write_error(write_timing_json(&budget));
}
