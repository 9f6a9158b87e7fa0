//! §4 sensitivity studies: Short-file size (2/8/32 entries) and Long-file
//! size (40/48/56/112 entries), at `d+n = 20`.
//!
//! Paper findings: even 2 Short registers deliver 98+% of INT IPC (8 is
//! chosen); 48 Long registers match 112 within noise (40 costs ~0.6%);
//! FP wants 56 to reach 99.75%. Mean live Long count is far below the
//! peak (the paper reports ≈12.7), motivating the SMT direction.

use carf_bench::{pct, print_table, run_matrix_cached, write_timing_json};
use carf_core::CarfParams;
use carf_sim::SimConfig;
use carf_workloads::Suite;

const SHORT_SIZES: [usize; 3] = [2, 8, 32];
const LONG_SIZES: [usize; 4] = [40, 48, 56, 112];

fn main() {
    let budget = carf_bench::cli::budget_for(env!("CARGO_BIN_NAME"));
    println!("Sub-file size sensitivity at d+n = 20 ({} run)", budget.label());

    // One flat matrix: the unlimited references, the Short-size sweep, and
    // the Long-size sweep, all dispatched together.
    let mut points = vec![
        (SimConfig::paper_unlimited(), Suite::Int),
        (SimConfig::paper_unlimited(), Suite::Fp),
    ];
    for m in SHORT_SIZES {
        let n = m.trailing_zeros();
        let params = CarfParams { d: 20 - n, short_entries: m, ..CarfParams::paper_default() };
        let cfg = SimConfig::paper_carf(params);
        points.push((cfg.clone(), Suite::Int));
        points.push((cfg, Suite::Fp));
    }
    for k in LONG_SIZES {
        let params = CarfParams { long_entries: k, ..CarfParams::paper_default() };
        let cfg = SimConfig::paper_carf(params);
        points.push((cfg.clone(), Suite::Int));
        points.push((cfg, Suite::Fp));
    }
    let results = run_matrix_cached(&points, &budget).results;
    let (unlimited_int, unlimited_fp) = (&results[0], &results[1]);

    // Short-file sweep (n changes with M; d adjusts to keep d+n = 20).
    let mut rows = Vec::new();
    for (i, m) in SHORT_SIZES.iter().enumerate() {
        let (int, fp) = (&results[2 + 2 * i], &results[3 + 2 * i]);
        rows.push(vec![
            format!("{m} short"),
            pct(int.mean_relative_ipc(unlimited_int)),
            pct(fp.mean_relative_ipc(unlimited_fp)),
        ]);
    }
    print_table("Short-file size (paper: ≥98% INT even at 2; 8 chosen)",
        &["config", "INT rel IPC", "FP rel IPC"], &rows);

    // Long-file sweep.
    let long_base = 2 + 2 * SHORT_SIZES.len();
    let mut rows = Vec::new();
    for (i, k) in LONG_SIZES.iter().enumerate() {
        let (int, fp) = (&results[long_base + 2 * i], &results[long_base + 1 + 2 * i]);
        let mean_live = carf_bench::mean(
            int.runs.iter().chain(fp.runs.iter()).map(|(_, s)| s.long_mean_live),
        );
        let peak = int
            .runs
            .iter()
            .chain(fp.runs.iter())
            .map(|(_, s)| s.long_peak_live)
            .max()
            .unwrap_or(0);
        rows.push(vec![
            format!("{k} long"),
            pct(int.mean_relative_ipc(unlimited_int)),
            pct(fp.mean_relative_ipc(unlimited_fp)),
            format!("{mean_live:.1}"),
            format!("{peak}"),
        ]);
    }
    print_table(
        "Long-file size (paper: 48 ≈ 112; 40 costs ~0.6% INT; FP wants 56)",
        &["config", "INT rel IPC", "FP rel IPC", "mean live", "peak live"],
        &rows,
    );
    println!("\nPaper: mean live long count ≈ 12.7 — far below the 48 provisioned —");
    println!("because the Long file is sized for peaks (the SMT opportunity, §6).");
    carf_bench::parallel::exit_on_write_error(write_timing_json(&budget));
}
