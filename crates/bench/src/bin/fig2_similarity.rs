//! Figure 2: distribution of `(64-d)`-similar live integer values for
//! d = 8, 12, 16.
//!
//! Same oracle as Figure 1, but live registers are grouped by their high
//! `64-d` bits, exposing *partial* value locality: the population collapses
//! into far fewer groups as `d` grows.
//!
//! With `--corpus` the real-program corpus runs through the same oracle
//! and the synthetic-vs-real delta (per `d`) lands in
//! `results/corpus_demographics.json`.

use carf_bench::cli::CliSpec;
use carf_bench::corpus::{self, json_fractions};
use carf_bench::json::Value;
use carf_bench::{pct, print_table, SuiteResult};
use carf_core::analysis::{GroupAccumulator, GROUP_LABELS};
use carf_sim::SimStats;

const SPEC: CliSpec = CliSpec {
    bin: "fig2_similarity",
    options: corpus::CORPUS_OPTIONS,
    operands: None,
};

fn merge(runs: &[SimStats], pick: fn(&SimStats) -> &GroupAccumulator) -> GroupAccumulator {
    let mut acc = GroupAccumulator::new();
    for s in runs {
        acc.merge(pick(s));
    }
    acc
}

/// Every run's statistics, in point order.
fn stats_of(results: Vec<SuiteResult>) -> Vec<SimStats> {
    results.into_iter().flat_map(|r| r.runs).map(|(_, s)| s).collect()
}

fn main() {
    let parsed = SPEC.parse_unsampled(corpus::ORACLE_UNSAMPLED);
    let budget = parsed.budget;
    println!("Figure 2: (64-d)-similar live value distribution ({} run)", budget.label());

    let runs = stats_of(corpus::oracle_suites(&budget));
    let d8 = merge(&runs, |s| &s.oracle.sim_d8);
    let d12 = merge(&runs, |s| &s.oracle.sim_d12);
    let d16 = merge(&runs, |s| &s.oracle.sim_d16);

    // Attested paper anchors (Figure 2a prose): ~35% in group 1, ~9% in
    // group 2, ~10% in groups 3-4, ~35% in REST; REST shrinks as d grows
    // and the top four groups reach ~70% at d = 16.
    let paper_d8 = ["~35%", "~9%", "~10%", "-", "-", "~35%"];

    let rows: Vec<Vec<String>> = GROUP_LABELS
        .iter()
        .enumerate()
        .map(|(i, label)| {
            vec![
                label.to_string(),
                pct(d8.fractions()[i]),
                paper_d8[i].to_string(),
                pct(d12.fractions()[i]),
                pct(d16.fractions()[i]),
            ]
        })
        .collect();
    print_table(
        "Fraction of live registers per similarity group",
        &["group", "d=8", "d=8 (paper)", "d=12", "d=16"],
        &rows,
    );

    for (d, acc) in [(8usize, &d8), (12, &d12), (16, &d16)] {
        let f = acc.fractions();
        let top4 = f[0] + f[1] + f[2];
        println!("d={d:2}: top four groups capture {} (paper: ~70% at d=16); REST {}",
            pct(top4), pct(f[5]));
    }

    let Some(real) = corpus::oracle_corpus(&parsed, &budget) else { return };
    let programs = real.runs.len();
    let corpus_runs = stats_of(vec![real]);
    let c8 = merge(&corpus_runs, |s| &s.oracle.sim_d8);
    let c12 = merge(&corpus_runs, |s| &s.oracle.sim_d12);
    let c16 = merge(&corpus_runs, |s| &s.oracle.sim_d16);

    println!();
    let rows: Vec<Vec<String>> = GROUP_LABELS
        .iter()
        .enumerate()
        .map(|(i, label)| {
            vec![
                label.to_string(),
                pct(d8.fractions()[i]),
                pct(c8.fractions()[i]),
                format!("{:+.1} pp", (c8.fractions()[i] - d8.fractions()[i]) * 100.0),
                pct(c16.fractions()[i]),
            ]
        })
        .collect();
    print_table(
        &format!("Synthetic vs corpus, d=8 ({programs} programs)"),
        &["group", "synthetic d=8", "corpus d=8", "delta", "corpus d=16"],
        &rows,
    );

    let mut fields: Vec<(String, Value)> = vec![
        ("figure".into(), "fig2".into()),
        ("budget".into(), budget.label().into()),
        ("programs".into(), programs.into()),
        ("snapshots".into(), c8.snapshots().into()),
    ];
    for (tag, synth, real) in [("d8", &d8, &c8), ("d12", &d12, &c12), ("d16", &d16, &c16)] {
        let (sf, cf) = (synth.fractions(), real.fractions());
        let delta: Vec<f64> = (0..sf.len()).map(|i| (cf[i] - sf[i]) * 100.0).collect();
        fields.push((format!("synthetic_{tag}"), json_fractions(&sf)));
        fields.push((format!("corpus_{tag}"), json_fractions(&cf)));
        fields.push((format!("delta_pp_{tag}"), json_fractions(&delta)));
    }
    corpus::write_demographics(Value::Object(fields));
}
