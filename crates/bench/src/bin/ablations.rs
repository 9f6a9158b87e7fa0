//! Ablations of the design choices the paper discusses:
//!
//! * direct-indexed vs. fully associative Short file (§4: CAM gains little
//!   IPC for much energy);
//! * Short allocation from address computations only vs. from every result
//!   (§3.1: allocate-everything thrashes);
//! * the extra bypass level (§3.1: optional, small effect);
//! * the pseudo-deadlock guard threshold (§3.1: stall at the issue width).

use carf_bench::{mean, pct, print_table, run_matrix_cached, write_timing_json, SuiteResult};
use carf_core::{CarfParams, Policies, ShortAllocPolicy, ShortIndexPolicy};
use carf_sim::{SimConfig, SimStats};
use carf_workloads::Suite;

fn with_policies(policies: Policies) -> SimConfig {
    SimConfig::paper_carf_with(CarfParams::paper_default(), policies)
}

/// Collapse one config's Int+Fp suite results into (mean ipc, all stats).
fn collapse(int: &SuiteResult, fp: &SuiteResult) -> (f64, Vec<SimStats>) {
    let stats: Vec<SimStats> =
        int.runs.iter().chain(fp.runs.iter()).map(|(_, s)| s.clone()).collect();
    (mean(stats.iter().map(|s| s.ipc())), stats)
}

fn main() {
    let budget = carf_bench::cli::budget_for(env!("CARGO_BIN_NAME"));
    println!("Design-choice ablations at d+n = 20 ({} run)", budget.label());

    let variants: [(&str, Policies); 4] = [
        (
            "associative short",
            Policies { short_index: ShortIndexPolicy::Associative, ..Policies::default() },
        ),
        (
            "alloc on all results",
            Policies { short_alloc: ShortAllocPolicy::AllResults, ..Policies::default() },
        ),
        ("no extra bypass", Policies { extra_bypass: false, ..Policies::default() }),
        ("guard threshold 0", Policies { long_stall_threshold: 0, ..Policies::default() }),
    ];
    const AGING: [(&str, u64); 4] = [
        ("tick every 64 commits", 64),
        ("tick every 128 (paper)", 128),
        ("tick every 512", 512),
        ("never free shorts", 0),
    ];

    // One flat matrix over every ablated config: the reference, the four
    // policy variants, the conservative LSQ, and the aging-interval sweep.
    let mut configs = vec![with_policies(Policies::default())];
    for (_, policies) in &variants {
        configs.push(with_policies(*policies));
    }
    {
        let mut cfg = SimConfig::paper_carf(CarfParams::paper_default());
        cfg.mem_dep = carf_sim::MemDepPolicy::Conservative;
        configs.push(cfg);
    }
    for (_, interval) in AGING {
        let mut cfg = SimConfig::paper_carf(CarfParams::paper_default());
        cfg.rob_interval_commits = interval;
        configs.push(cfg);
    }
    let mut points = Vec::new();
    for cfg in &configs {
        points.push((cfg.clone(), Suite::Int));
        points.push((cfg.clone(), Suite::Fp));
    }
    let results = run_matrix_cached(&points, &budget).results;
    let by_config = |i: usize| collapse(&results[2 * i], &results[2 * i + 1]);

    let (ref_ipc, ref_stats) = by_config(0);
    let short_writes: u64 = ref_stats.iter().map(|s| s.int_rf.writes.short).sum();

    let mut rows = vec![vec![
        "paper default".into(),
        "100.0%".into(),
        format!("{short_writes}"),
        "direct, addresses-only, extra bypass, guard=8".into(),
    ]];

    for (vi, (name, _)) in variants.iter().enumerate() {
        let (ipc, stats) = by_config(1 + vi);
        let sw: u64 = stats.iter().map(|s| s.int_rf.writes.short).sum();
        let note = match *name {
            "associative short" => "paper: tiny IPC gain, large energy cost (CAM)",
            "alloc on all results" => "paper: thrashes the small Short file",
            "no extra bypass" => "paper: optional, little performance effect",
            _ => "paper: stall at issue width avoids pseudo-deadlock",
        };
        rows.push(vec![
            (*name).into(),
            pct(ipc / ref_ipc),
            format!("{sw}"),
            note.into(),
        ]);
    }
    print_table(
        "IPC relative to the paper's policies",
        &["variant", "rel IPC", "short writes", "note"],
        &rows,
    );

    // Memory-dependence policy (beyond the paper): the optimistic default
    // (loads run ahead of unresolved stores, squash on violation) vs a
    // fully conservative LSQ.
    {
        let (ipc, _) = by_config(5);
        let violations: u64 = ref_stats.iter().map(|s| s.mem_dep_violations).sum();
        println!(
            "\nmemory-dependence ablation: a fully conservative LSQ reaches {} of\n\
             the optimistic default's IPC; the default squashed {violations}\n\
             violations across both suites.",
            pct(ipc / ref_ipc)
        );
    }

    // Short-file aging interval: the paper ticks once per ROB's worth of
    // commits; never freeing shows whether the aging scheme earns its keep.
    let mut rows = vec![];
    for (ai, (label, _)) in AGING.iter().enumerate() {
        let (ipc, stats) = by_config(6 + ai);
        let sw: u64 = stats.iter().map(|s| s.int_rf.writes.short).sum();
        let occupancy = mean(stats.iter().map(|s| s.short_mean_occupancy));
        rows.push(vec![
            (*label).into(),
            pct(ipc / ref_ipc),
            format!("{sw}"),
            format!("{occupancy:.1} / 8"),
        ]);
    }
    print_table(
        "Short-file aging interval",
        &["variant", "rel IPC", "short writes", "mean occupancy"],
        &rows,
    );

    // Guard-pressure detail: deadlock recoveries must stay at zero with the
    // paper's guard.
    let recoveries: u64 = ref_stats.iter().map(|s| s.deadlock_recoveries).sum();
    let guard_cycles: u64 = ref_stats.iter().map(|s| s.long_guard_stall_cycles).sum();
    println!("\nwith the paper's guard: {recoveries} pseudo-deadlock recoveries,");
    println!("{guard_cycles} guarded issue cycles across both suites.");
    carf_bench::parallel::exit_on_write_error(write_timing_json(&budget));
}
