//! Table 3: single-access energy of each register file, normalized to the
//! unlimited-resource file, as a function of `d+n`.
//!
//! Pure model output (no simulation): geometry per the paper's §3 formulas
//! fed into the Rixner-style energy model.

use carf_bench::{carf_geometries, pct, print_table, unlimited_geometry, DN_SWEEP};
use carf_core::CarfParams;
use carf_energy::{TechModel, PAPER_BASELINE};

fn main() {
    // A model, not a simulation: the budget flags are checked like every
    // binary's, then unused.
    carf_bench::cli::budget_for(env!("CARGO_BIN_NAME"));
    println!("Table 3: single-access energy relative to the unlimited file");
    let model = TechModel::default_model();
    let unl = model.read_energy(&unlimited_geometry());

    let mut rows = Vec::new();
    for dn in DN_SWEEP {
        let params = CarfParams::with_dn(dn);
        let [simple, short, long] = carf_geometries(&params);
        rows.push(vec![
            format!("{dn}"),
            pct(model.read_energy(&simple) / unl),
            pct(model.read_energy(&short) / unl),
            pct(model.read_energy(&long) / unl),
        ]);
    }
    print_table("Per-access energy (measured model)", &["d+n", "simple", "short", "long"], &rows);

    let base = model.read_energy(&PAPER_BASELINE) / unl;
    println!("\nbaseline (112x64b, 8R/6W): {} (paper: 48.8%)", pct(base));
    println!("Paper anchors at d+n=20: short 2.9%, long 16.9%; short falls and long");
    println!("falls with growing d+n while simple grows with its width.");
}
