//! Figure 9: access time of each register file relative to the
//! unlimited-resource file as a function of `d+n` (model output).
//!
//! Every content-aware component must come in under the baseline; the
//! slowest one bounds the achievable clock — the paper reads ~15% headroom
//! off this figure.

use carf_bench::{baseline_geometry, carf_geometries, pct, print_table, unlimited_geometry, DN_SWEEP};
use carf_core::CarfParams;
use carf_energy::TechModel;

fn main() {
    // A model, not a simulation: the budget flags are checked like every
    // binary's, then unused.
    carf_bench::cli::budget_for(env!("CARGO_BIN_NAME"));
    println!("Figure 9: relative register-file access time");
    let model = TechModel::default_model();
    let unl = model.access_time(&unlimited_geometry());
    let base = model.access_time(&baseline_geometry());

    println!("\nbaseline: {} of unlimited", pct(base / unl));
    let mut rows = Vec::new();
    for dn in DN_SWEEP {
        let params = CarfParams::with_dn(dn);
        let [simple, short, long] = carf_geometries(&params);
        let (ts, tsh, tl) = (
            model.access_time(&simple),
            model.access_time(&short),
            model.access_time(&long),
        );
        let slowest = ts.max(tsh).max(tl);
        rows.push(vec![
            format!("{dn}"),
            pct(ts / unl),
            pct(tsh / unl),
            pct(tl / unl),
            pct(1.0 - slowest / base),
        ]);
    }
    print_table(
        "Access time vs unlimited (headroom vs baseline)",
        &["d+n", "simple", "short", "long", "clock headroom"],
        &rows,
    );
    println!("\nPaper headline: all three sub-files are faster than the baseline;");
    println!("the critical (simple) file leaves up to ~15% clock-frequency headroom.");
}
