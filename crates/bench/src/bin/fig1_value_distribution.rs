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

use carf_bench::cli::{CliSpec, OptSpec};
use carf_bench::json::Value;
use carf_bench::{
    corpus, parallel, pct, print_table, run_custom_with_cache, suite_points, Budget, SuiteResult,
};
use carf_core::analysis::{GroupAccumulator, GROUP_LABELS};
use carf_sim::SimConfig;
use carf_workloads::Suite;

const SPEC: CliSpec = CliSpec {
    bin: "fig1_value_distribution",
    options: &[
        OptSpec {
            name: "--corpus",
            value: None,
            help: "also run the real-program corpus; report the synthetic-vs-real delta",
        },
        OptSpec {
            name: "--corpus-dir",
            value: Some("DIR"),
            help: "corpus root (default: corpus/; implies --corpus)",
        },
    ],
    operands: None,
};

fn oracle_config(budget: &Budget) -> SimConfig {
    let mut cfg = SimConfig::paper_baseline();
    cfg.oracle_period = Some(budget.oracle_period);
    cfg
}

/// The oracle's value groups merged over one suite's (or the corpus's) runs.
fn merged(result: &SuiteResult) -> GroupAccumulator {
    let mut acc = GroupAccumulator::new();
    for (_, stats) in &result.runs {
        acc.merge(&stats.oracle.values);
    }
    acc
}

fn json_fractions(f: &[f64]) -> Value {
    f.iter().map(|x| Value::fixed(*x, 6)).collect()
}

fn main() {
    let parsed = SPEC.parse();
    let budget = parsed.budget;
    println!("Figure 1: distribution of live integer data values ({} run)", budget.label());
    // Oracle points are not cached: no other binary stores them.
    let cfg = oracle_config(&budget);
    let points = suite_points(&[(cfg.clone(), Suite::Int), (cfg.clone(), Suite::Fp)]);
    let results = run_custom_with_cache(&points, &budget, None).results;
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

    let Some(root) = corpus::corpus_root(&parsed) else { return };
    let workloads = match corpus::workloads(&root, Suite::Int) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let points = [(cfg, Suite::Int, workloads)];
    let real = merged(&run_custom_with_cache(&points, &budget, None).results[0]);
    let workloads = &points[0].2;

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
        &format!("Synthetic INT vs corpus ({} programs)", workloads.len()),
        &["group", "synthetic", "corpus", "delta"],
        &rows,
    );

    let delta: Vec<f64> = (0..sf.len()).map(|i| (cf[i] - sf[i]) * 100.0).collect();
    let record = Value::object([
        ("figure", "fig1".into()),
        ("budget", budget.label().into()),
        ("programs", workloads.len().into()),
        ("snapshots", real.snapshots().into()),
        ("synthetic_int", json_fractions(&sf)),
        ("corpus", json_fractions(&cf)),
        ("delta_pp", json_fractions(&delta)),
    ]);
    let path = parallel::exit_on_write_error(parallel::write_records(
        "corpus_demographics.json",
        vec![record],
        &["figure", "budget"],
        1,
    ));
    println!("\ncorpus demographics -> {}", path.display());
}
