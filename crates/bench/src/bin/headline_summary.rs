//! §5 headline: the chosen configuration (d+n = 20, 8 Short, 48 Long)
//! against the baseline — IPC, energy, area, access time, and the
//! frequency-scaling speed-up estimate.

use carf_bench::{
    baseline_geometry, carf_geometries, combined_access_totals, pct, print_table, rf_energy_carf,
    rf_energy_monolithic, run_matrix_cached, unlimited_geometry, write_timing_json,
};
use carf_core::CarfParams;
use carf_energy::TechModel;
use carf_sim::SimConfig;
use carf_workloads::Suite;

fn main() {
    let budget = carf_bench::cli::budget_for(env!("CARGO_BIN_NAME"));
    println!("Headline summary at d+n = 20 ({} run)", budget.label());
    let params = CarfParams::paper_default();
    let model = TechModel::default_model();

    let base_cfg = SimConfig::paper_baseline();
    let carf_cfg = SimConfig::paper_carf(params);

    // All four suite runs dispatch as one matrix over the worker pool.
    let results = run_matrix_cached(
        &[
            (base_cfg.clone(), Suite::Int),
            (base_cfg, Suite::Fp),
            (carf_cfg.clone(), Suite::Int),
            (carf_cfg, Suite::Fp),
        ],
        &budget,
    )
    .results;
    let (base_int, base_fp) = (&results[0], &results[1]);
    let (carf_int, carf_fp) = (&results[2], &results[3]);

    let int_delta = carf_int.mean_relative_ipc(base_int) - 1.0;
    let fp_delta = carf_fp.mean_relative_ipc(base_fp) - 1.0;

    // Energy: measured access counts priced by the model.
    let (base_reads, base_writes) = combined_access_totals(base_int, base_fp);
    let (carf_reads, carf_writes) = combined_access_totals(carf_int, carf_fp);

    let e_base =
        rf_energy_monolithic(&model, &baseline_geometry(), &base_reads, &base_writes);
    let e_unl =
        rf_energy_monolithic(&model, &unlimited_geometry(), &base_reads, &base_writes);
    let e_carf = rf_energy_carf(&model, &params, &carf_reads, &carf_writes);

    let a_base = model.area(&baseline_geometry());
    let a_carf: f64 = carf_geometries(&params).iter().map(|g| model.area(g)).sum();
    let t_base = model.access_time(&baseline_geometry());
    let t_carf = carf_geometries(&params)
        .iter()
        .map(|g| model.access_time(g))
        .fold(0.0f64, f64::max);

    let rows = vec![
        vec![
            "IPC delta (INT)".into(),
            format!("{:+.2}%", int_delta * 100.0),
            "-1.7%".into(),
        ],
        vec![
            "IPC delta (FP)".into(),
            format!("{:+.2}%", fp_delta * 100.0),
            "-0.3%".into(),
        ],
        vec!["RF energy vs baseline".into(), pct(e_carf / e_base), "~50%".into()],
        vec!["RF energy vs unlimited".into(), pct(e_carf / e_unl), "~23%".into()],
        vec!["RF area vs baseline".into(), pct(a_carf / a_base), "82.1%".into()],
        vec!["RF access time vs baseline".into(), pct(t_carf / t_base), "~85%".into()],
    ];
    print_table("Content-aware vs baseline", &["metric", "measured", "paper"], &rows);

    // Frequency-scaling estimate, as in the paper's §5: if the access-time
    // headroom converts into clock frequency, the IPC loss flips into a
    // speed-up.
    println!("\nFrequency-scaling estimate (paper: +5% clock → +3% perf; +10..15% → +8..13%):");
    let loss = (int_delta + fp_delta) / 2.0;
    for boost in [0.05, 0.10, 0.15] {
        let speedup = (1.0 + loss) * (1.0 + boost) - 1.0;
        println!("  clock +{:>4}: overall {:+.1}%", pct(boost), speedup * 100.0);
    }
    carf_bench::parallel::exit_on_write_error(write_timing_json(&budget));
}
