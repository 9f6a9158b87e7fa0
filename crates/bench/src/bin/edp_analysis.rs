//! Energy-delay analysis across the `d+n` sweep.
//!
//! The paper (§5): "Using this figure \[7\] in conjunction with Figure 5 can
//! determine the value of d+n which delivers the highest energy-delay
//! product." This binary does exactly that combination: per `d+n`, the
//! register-file energy (Figure 7's pipeline) times the suite delay
//! (1/IPC from Figure 5's pipeline), both normalized to the baseline.

use carf_bench::{
    baseline_geometry, combined_access_totals, pct, print_table, rf_energy_carf,
    rf_energy_monolithic, run_matrix_cached, write_timing_json, DN_SWEEP,
};
use carf_core::CarfParams;
use carf_energy::TechModel;
use carf_sim::SimConfig;
use carf_workloads::Suite;

struct Point {
    rel_ipc: f64,
    energy: f64,
}

fn main() {
    let budget = carf_bench::cli::budget_for(env!("CARGO_BIN_NAME"));
    println!("Energy-delay analysis across d+n ({} run)", budget.label());
    let model = TechModel::default_model();

    // One flat matrix: the baseline plus the full d+n sweep, both suites.
    let mut matrix = vec![
        (SimConfig::paper_baseline(), Suite::Int),
        (SimConfig::paper_baseline(), Suite::Fp),
    ];
    for dn in DN_SWEEP {
        let cfg = SimConfig::paper_carf(CarfParams::with_dn(dn));
        matrix.push((cfg.clone(), Suite::Int));
        matrix.push((cfg, Suite::Fp));
    }
    let results = run_matrix_cached(&matrix, &budget).results;

    let (base_int, base_fp) = (&results[0], &results[1]);
    let (base_r, base_w) = combined_access_totals(base_int, base_fp);
    let base_energy = rf_energy_monolithic(&model, &baseline_geometry(), &base_r, &base_w);

    let mut points = Vec::new();
    for (i, dn) in DN_SWEEP.iter().enumerate() {
        let params = CarfParams::with_dn(*dn);
        let (int, fp) = (&results[2 + 2 * i], &results[3 + 2 * i]);
        let rel_ipc =
            0.5 * (int.mean_relative_ipc(base_int) + fp.mean_relative_ipc(base_fp));
        let (r, w) = combined_access_totals(int, fp);
        let energy = rf_energy_carf(&model, &params, &r, &w);
        points.push((*dn, Point { rel_ipc, energy }));
    }

    let mut rows = Vec::new();
    let mut best = (0u32, f64::INFINITY);
    for (dn, p) in &points {
        let rel_energy = p.energy / base_energy;
        let rel_delay = 1.0 / p.rel_ipc;
        let edp = rel_energy * rel_delay; // baseline = 1.0
        if edp < best.1 {
            best = (*dn, edp);
        }
        rows.push(vec![
            format!("{dn}"),
            pct(p.rel_ipc),
            pct(rel_energy),
            format!("{edp:.3}"),
        ]);
    }
    print_table(
        "Register-file energy-delay vs baseline (lower is better)",
        &["d+n", "rel IPC (vs base)", "rel RF energy", "rel ED product"],
        &rows,
    );
    println!("\nbest energy-delay at d+n = {} (paper selects d+n = 20, balancing", best.0);
    println!("the IPC plateau against energy that grows with the Simple width).");
    carf_bench::parallel::exit_on_write_error(write_timing_json(&budget));
}
