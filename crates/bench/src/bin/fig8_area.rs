//! Figure 8: register-file area relative to the unlimited-resource file as
//! a function of `d+n` (model output).

use carf_bench::{baseline_geometry, carf_geometries, pct, print_table, unlimited_geometry, DN_SWEEP};
use carf_core::CarfParams;
use carf_energy::TechModel;

fn main() {
    // A model, not a simulation: the budget flags are checked like every
    // binary's, then unused.
    carf_bench::cli::budget_for(env!("CARGO_BIN_NAME"));
    println!("Figure 8: relative register-file area");
    let model = TechModel::default_model();
    let unl = model.area(&unlimited_geometry());
    let base = model.area(&baseline_geometry());

    let mut rows = vec![vec![
        "baseline".to_string(),
        pct(base / unl),
        "-".to_string(),
        "100.0%".to_string(),
    ]];
    for dn in DN_SWEEP {
        let params = CarfParams::with_dn(dn);
        let total: f64 = carf_geometries(&params).iter().map(|g| model.area(g)).sum();
        let paper = if dn == 20 { "82.1% of baseline" } else { "-" };
        rows.push(vec![
            format!("carf d+n={dn}"),
            pct(total / unl),
            paper.to_string(),
            pct(total / base),
        ]);
    }
    print_table(
        "Cell-array area",
        &["config", "vs unlimited", "paper", "vs baseline"],
        &rows,
    );
    println!("\nPaper headline: the content-aware organization occupies 82.1% of the");
    println!("baseline register file's area at d+n = 20 (an 18% reduction).");
}
