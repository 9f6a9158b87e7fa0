//! Figure 7: total register-file energy (reads + writes) relative to the
//! unlimited-resource file, as a function of `d+n`, with the baseline for
//! comparison.
//!
//! Combines the measured access counts (Figure 6's data) with the
//! per-access energies (Table 3's data), exactly as the paper does.

use carf_bench::{
    baseline_geometry, combined_access_totals, pct, print_table, rf_energy_carf,
    rf_energy_monolithic, run_matrix_cached, unlimited_geometry, DN_SWEEP,
};
use carf_core::CarfParams;
use carf_energy::TechModel;
use carf_sim::SimConfig;
use carf_workloads::Suite;

fn main() {
    let budget = carf_bench::cli::budget_for(env!("CARGO_BIN_NAME"));
    println!("Figure 7: relative register-file energy ({} run)", budget.label());
    let model = TechModel::default_model();

    // The baseline, then Figure 5's sweep points, each on both suites, so
    // a run after fig5 is served from its cache.
    let configs = std::iter::once(SimConfig::paper_baseline())
        .chain(DN_SWEEP.iter().map(|dn| SimConfig::paper_carf(CarfParams::with_dn(*dn))));
    let points: Vec<(SimConfig, Suite)> =
        configs.flat_map(|cfg| [(cfg.clone(), Suite::Int), (cfg, Suite::Fp)]).collect();
    let results = run_matrix_cached(&points, &budget).results;
    let mut pairs = results.chunks(2);

    // The unlimited machine defines 100%: its access volume priced at its
    // own per-access energy. We use the baseline machine's access counts
    // for both monolithic organizations (their pipelines are identical).
    let base = pairs.next().expect("the baseline pair");
    let (base_reads, base_writes) = combined_access_totals(&base[0], &base[1]);
    let unl_energy =
        rf_energy_monolithic(&model, &unlimited_geometry(), &base_reads, &base_writes);
    let base_energy =
        rf_energy_monolithic(&model, &baseline_geometry(), &base_reads, &base_writes);

    let mut rows = vec![vec![
        "baseline".to_string(),
        pct(base_energy / unl_energy),
        "~48.8%".to_string(),
        "100.0%".to_string(),
    ]];
    for (dn, pair) in DN_SWEEP.into_iter().zip(pairs) {
        let params = CarfParams::with_dn(dn);
        let (reads, writes) = combined_access_totals(&pair[0], &pair[1]);
        let carf = rf_energy_carf(&model, &params, &reads, &writes);
        let paper = if dn == 20 { "~24%" } else { "-" };
        rows.push(vec![
            format!("carf d+n={dn}"),
            pct(carf / unl_energy),
            paper.to_string(),
            pct(carf / base_energy),
        ]);
    }
    print_table(
        "RF energy, reads + writes",
        &["config", "vs unlimited", "vs unlimited (paper)", "vs baseline"],
        &rows,
    );
    println!("\nPaper headline: the content-aware file halves the baseline's energy");
    println!("(roughly 77% savings against the unlimited file at d+n = 20).");
}
