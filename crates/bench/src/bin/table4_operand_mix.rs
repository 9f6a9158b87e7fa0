//! Table 4: distribution of operations by the value types of their integer
//! source operands, at `d+n = 20`.
//!
//! The paper's motivation for value-type clustering: over 86% of
//! instructions read operands of a single type.

use carf_bench::{pct, print_table, run_matrix_cached};
use carf_core::CarfParams;
use carf_sim::{OperandMix, SimConfig};
use carf_workloads::Suite;

fn main() {
    let budget = carf_bench::cli::budget_for(env!("CARGO_BIN_NAME"));
    println!("Table 4: operation distribution by source operand types ({} run)", budget.label());
    let cfg = SimConfig::paper_carf(CarfParams::paper_default());

    let results =
        run_matrix_cached(&[(cfg.clone(), Suite::Int), (cfg, Suite::Fp)], &budget).results;
    let mut mix = OperandMix::default();
    for (_, stats) in results.iter().flat_map(|r| &r.runs) {
        let m = stats.operand_mix;
        mix.only_simple += m.only_simple;
        mix.only_short += m.only_short;
        mix.only_long += m.only_long;
        mix.simple_short += m.simple_short;
        mix.simple_long += m.simple_long;
        mix.short_long += m.short_long;
    }

    let labels = [
        ("Only simple operands", "47.4%"),
        ("Only short operands", "21.7%"),
        ("Only long operands", "17.5%"),
        ("Combination of simple and short", "6.3%"),
        ("Combination of simple and long", "6.2%"),
        ("Combination of short and long", "1.0%"),
    ];
    let f = mix.fractions();
    let rows: Vec<Vec<String>> = labels
        .iter()
        .enumerate()
        .map(|(i, (label, paper))| vec![label.to_string(), pct(f[i]), paper.to_string()])
        .collect();
    print_table("Operand-type mix (d+n = 20)", &["category", "measured", "paper"], &rows);
    println!(
        "\nsame-type fraction: {} (paper: >86%) over {} instructions",
        pct(mix.same_type_fraction()),
        mix.total()
    );
}
