//! §6 SMT direction: can one Long file feed two threads?
//!
//! The paper observes that the 48-entry Long file is sized for *peaks*
//! while the mean demand is ≈12.7 live entries, and suggests sharing it
//! between SMT threads. We quantify that: each workload's sampled
//! Long-occupancy histogram is an empirical demand distribution; under an
//! independence assumption, a two-thread workload pair's combined demand
//! is the convolution of the two distributions. The overflow probability
//! `P(combined > K)` estimates how often a shared K-entry file would have
//! to stall one thread.

use carf_bench::cli::CliSpec;
use carf_bench::{pct, print_table, run_custom_cached, suite_points};
use carf_core::CarfParams;
use carf_sim::SimConfig;
use carf_workloads::Suite;

/// Normalizes a histogram into a probability distribution.
fn to_dist(hist: &[u64]) -> Vec<f64> {
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return vec![1.0];
    }
    hist.iter().map(|h| *h as f64 / total as f64).collect()
}

/// Distribution of the sum of two independent demands.
fn convolve(a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; a.len() + b.len() - 1];
    for (i, pa) in a.iter().enumerate() {
        for (j, pb) in b.iter().enumerate() {
            out[i + j] += pa * pb;
        }
    }
    out
}

/// `P(demand > k)`.
fn overflow(dist: &[f64], k: usize) -> f64 {
    dist.iter().skip(k + 1).sum()
}

fn main() {
    let budget = CliSpec::budget_only(env!("CARGO_BIN_NAME"))
        .parse_unsampled(
            "sampled windows do not carry the Long-file occupancy histogram, \
             so every P(demand > K) would read 0",
        )
        .budget;
    println!("§6 SMT Long-file sharing estimate ({} run)", budget.label());
    let cfg = SimConfig::paper_carf(CarfParams::paper_default());

    // A representative spread: pointer-heavy, hash-heavy, FP, mixed. Each
    // pick keeps its suite, so the runs are served from fig5's cache.
    let pick = ["pointer_chase", "hash_table", "sparse_update", "matvec", "tridiag"];
    let mut points = suite_points(&[(cfg.clone(), Suite::Int), (cfg, Suite::Fp)]);
    for (_, _, workloads) in &mut points {
        workloads.retain(|w| pick.contains(&w.name));
    }
    let results = run_custom_cached(&points, &budget).results;
    let dists: Vec<(String, Vec<f64>, f64)> = results
        .iter()
        .flat_map(|r| &r.runs)
        .map(|(name, stats)| {
            (name.clone(), to_dist(&stats.long_occupancy_hist), stats.long_mean_live)
        })
        .collect();

    let mut rows = Vec::new();
    for (name, dist, mean) in &dists {
        rows.push(vec![
            name.clone(),
            format!("{mean:.1}"),
            pct(overflow(dist, 48)),
        ]);
    }
    print_table(
        "Single-thread Long demand (48 entries provisioned)",
        &["workload", "mean live", "P(demand > 48)"],
        &rows,
    );

    let mut rows = Vec::new();
    for i in 0..dists.len() {
        for j in (i + 1)..dists.len() {
            let combined = convolve(&dists[i].1, &dists[j].1);
            rows.push(vec![
                format!("{} + {}", dists[i].0, dists[j].0),
                pct(overflow(&combined, 48)),
                pct(overflow(&combined, 56)),
                pct(overflow(&combined, 64)),
            ]);
        }
    }
    print_table(
        "Two-thread shared-file overflow probability",
        &["pair", "K=48", "K=56", "K=64"],
        &rows,
    );
    println!("\nPaper §6: mean demand (~12.7) is far below the 48 provisioned for");
    println!("peaks, so a single Long file \"can feed more than one thread,");
    println!("especially if only one of them has high peak register usage\".");
}
