//! Figure 1: distribution of live integer register values by frequency
//! group, for the INT and FP suites.
//!
//! Reproduces the paper's oracle: every sampling period the live integer
//! physical-register values are grouped by exact value, groups are ranked
//! by population, and each live register is attributed to its group's rank
//! bucket.
//!
//! With `--corpus` the real-program corpus (see `carf_bench::corpus`) runs
//! through the same oracle, and the synthetic-vs-real delta lands in
//! `results/corpus_demographics.json`.

use carf_bench::cli::CliSpec;
use carf_bench::corpus::{self, json_fractions};
use carf_bench::json::Value;
use carf_bench::{pct, print_table, SuiteResult};
use carf_core::analysis::{GroupAccumulator, GROUP_LABELS};

const SPEC: CliSpec = CliSpec {
    bin: "fig1_value_distribution",
    options: corpus::CORPUS_OPTIONS,
    operands: None,
};

/// The oracle's value groups merged over one suite's (or the corpus's) runs.
fn merged(result: &SuiteResult) -> GroupAccumulator {
    let mut acc = GroupAccumulator::new();
    for (_, stats) in &result.runs {
        acc.merge(&stats.oracle.values);
    }
    acc
}

fn main() {
    let parsed = SPEC.parse_unsampled(corpus::ORACLE_UNSAMPLED);
    let budget = parsed.budget;
    println!("Figure 1: distribution of live integer data values ({} run)", budget.label());
    let results = corpus::oracle_suites(&budget);
    let (int, fp) = (merged(&results[0]), merged(&results[1]));

    // The paper's attested anchors: a single value accounts for ~14% of all
    // live SPECint register values; the REST slice dominates both pies.
    let paper_int = ["~14%", "-", "-", "-", "-", "~55%"];
    let paper_fp = ["~13%", "-", "-", "-", "-", "~63%"];

    let rows: Vec<Vec<String>> = GROUP_LABELS
        .iter()
        .enumerate()
        .map(|(i, label)| {
            vec![
                label.to_string(),
                pct(int.fractions()[i]),
                paper_int[i].to_string(),
                pct(fp.fractions()[i]),
                paper_fp[i].to_string(),
            ]
        })
        .collect();
    print_table(
        "Fraction of live integer registers per frequency group",
        &["group", "INT (measured)", "INT (paper)", "FP (measured)", "FP (paper)"],
        &rows,
    );
    println!(
        "\nsnapshots: INT {}  FP {} (oracle period: every {} cycles)",
        int.snapshots(),
        fp.snapshots(),
        budget.oracle_period
    );

    let Some(corpus_runs) = corpus::oracle_corpus(&parsed, &budget) else { return };
    let (real, programs) = (merged(&corpus_runs), corpus_runs.runs.len());

    let (sf, cf) = (int.fractions(), real.fractions());
    let rows: Vec<Vec<String>> = GROUP_LABELS
        .iter()
        .enumerate()
        .map(|(i, label)| {
            vec![
                label.to_string(),
                pct(sf[i]),
                pct(cf[i]),
                format!("{:+.1} pp", (cf[i] - sf[i]) * 100.0),
            ]
        })
        .collect();
    print_table(
        &format!("Synthetic INT vs corpus ({programs} programs)"),
        &["group", "synthetic", "corpus", "delta"],
        &rows,
    );

    let delta: Vec<f64> = (0..sf.len()).map(|i| (cf[i] - sf[i]) * 100.0).collect();
    let record = Value::object([
        ("figure", "fig1".into()),
        ("budget", budget.label().into()),
        ("programs", programs.into()),
        ("snapshots", real.snapshots().into()),
        ("synthetic_int", json_fractions(&sf)),
        ("corpus", json_fractions(&cf)),
        ("delta_pp", json_fractions(&delta)),
    ]);
    corpus::write_demographics(record);
}
