//! Figure 6: register-file READ and WRITE access distribution by value
//! type as a function of `d+n` (n fixed at 3, 8 Short / 48 Long).
//!
//! The paper's trend: growing `d+n` reclassifies long values as short or
//! simple — at `d+n = 24` over half of all accesses are short and long
//! accesses drop below 20%.

use carf_bench::{combined_access_totals, pct, print_table, run_matrix_cached, DN_SWEEP};
use carf_core::{CarfParams, ValueClass};
use carf_sim::SimConfig;
use carf_workloads::Suite;

fn main() {
    let budget = carf_bench::cli::budget_for(env!("CARGO_BIN_NAME"));
    println!("Figure 6: access distribution by value type ({} run)", budget.label());

    // Figure 5's sweep points, so a run after fig5 is served from its cache.
    let points: Vec<(SimConfig, Suite)> = DN_SWEEP
        .iter()
        .flat_map(|dn| {
            let cfg = SimConfig::paper_carf(CarfParams::with_dn(*dn));
            [(cfg.clone(), Suite::Int), (cfg, Suite::Fp)]
        })
        .collect();
    let results = run_matrix_cached(&points, &budget).results;

    let mut read_rows = Vec::new();
    let mut write_rows = Vec::new();
    for (dn, pair) in DN_SWEEP.iter().zip(results.chunks(2)) {
        let (reads, writes) = combined_access_totals(&pair[0], &pair[1]);
        read_rows.push(vec![
            format!("{dn}"),
            pct(reads.fraction(ValueClass::Simple)),
            pct(reads.fraction(ValueClass::Short)),
            pct(reads.fraction(ValueClass::Long)),
        ]);
        write_rows.push(vec![
            format!("{dn}"),
            pct(writes.fraction(ValueClass::Simple)),
            pct(writes.fraction(ValueClass::Short)),
            pct(writes.fraction(ValueClass::Long)),
        ]);
    }
    print_table("READ accesses by value type", &["d+n", "simple", "short", "long"], &read_rows);
    print_table("WRITE accesses by value type", &["d+n", "simple", "short", "long"], &write_rows);
    println!("\nPaper anchors: long fraction falls as d+n grows; at d+n = 24 short");
    println!("accesses exceed 50% of reads and long accesses sit below 20%.");
}
