//! Pinned-statistics regression tests: a fixed seeded workload must
//! produce exactly the same counters run over run. These guard the
//! simulator's hot-loop buffer reuse (write-back, wakeup, scheduler scan,
//! squash recovery) — a scratch buffer that leaks state across cycles or
//! across a squash shows up here as a drifted counter.

use carf_core::analysis::NUM_GROUPS;
use carf_sim::{SimConfig, SimStats, AnySimulator, TraceRecorder};
use carf_workloads::{random_program, RandomProgramParams};

/// A branchy, memory-heavy seeded workload: mispredict squashes and load
/// replays exercise the recovery paths where stale scratch state would be
/// most damaging.
fn pinned_run(config: &SimConfig) -> SimStats {
    let program = random_program(&RandomProgramParams {
        seed: 0xCAFE,
        body_len: 80,
        iterations: 400,
        include_fp: true,
        include_mem: true,
        include_branches: true,
    });
    let mut sim = AnySimulator::new(config.clone(), &program);
    let r = sim.run(1_000_000).expect("clean run");
    assert!(r.halted, "pinned workload must run to completion");
    sim.stats().clone()
}

fn fingerprint(s: &SimStats) -> Vec<(&'static str, u64)> {
    vec![
        ("cycles", s.cycles),
        ("committed", s.committed),
        ("loads", s.loads),
        ("stores", s.stores),
        ("branches", s.branches),
        ("fetched", s.fetched),
        ("squashed", s.squashed),
        ("mispredicts", s.mispredicts),
        ("bypassed_operands", s.bypassed_operands),
        ("rf_operands", s.rf_operands),
        ("zero_operands", s.zero_operands),
        ("load_replays", s.load_replays),
        ("int_rf_reads", s.int_rf.total_reads),
        ("int_rf_writes", s.int_rf.total_writes),
        ("fp_rf_reads", s.fp_rf.total_reads),
        ("fp_rf_writes", s.fp_rf.total_writes),
        ("stl_forwards", s.stl_forwards),
    ]
}

/// Every accumulator's `raw_parts()` (exact values, then d = 8, 12, 16),
/// followed by `live_sum` and `snapshots`.
type OracleFingerprint = ([([u64; NUM_GROUPS], u64, u64); 4], u64, u64);

fn oracle_fingerprint(s: &SimStats) -> OracleFingerprint {
    let o = &s.oracle;
    (
        [o.values.raw_parts(), o.sim_d8.raw_parts(), o.sim_d12.raw_parts(), o.sim_d16.raw_parts()],
        o.live_sum,
        o.snapshots,
    )
}

fn assert_fingerprint(config: &SimConfig, expected: &[(&str, u64)]) -> SimStats {
    let stats = pinned_run(config);
    let got = fingerprint(&stats);
    for ((name, want), (_, have)) in expected.iter().zip(&got) {
        assert_eq!(
            have, want,
            "{name} drifted on the pinned workload (got {have}, pinned {want});\n\
             full fingerprint: {got:?}"
        );
    }
    stats
}

#[test]
fn baseline_stats_are_pinned() {
    let mut cfg = SimConfig::paper_baseline();
    cfg.cosim = true;
    // Pinned against the pre-refactor simulator; regenerate only for
    // intentional timing-model changes (print `fingerprint(&pinned_run(..))`).
    assert_fingerprint(
        &cfg,
        &[
            ("cycles", 14752),
            ("committed", 29222),
            ("loads", 1607),
            ("stores", 201),
            ("branches", 2800),
            ("fetched", 30334),
            ("squashed", 691),
            ("mispredicts", 41),
            ("bypassed_operands", 26225),
            ("rf_operands", 23215),
            ("zero_operands", 403),
            ("load_replays", 0),
            ("int_rf_reads", 17729),
            ("int_rf_writes", 23583),
            ("fp_rf_reads", 5486),
            ("fp_rf_writes", 2822),
            ("stl_forwards", 0),
        ],
    );
}

#[test]
fn carf_stats_are_pinned() {
    let mut cfg = SimConfig::paper_carf(carf_core::CarfParams::paper_default());
    cfg.cosim = true;
    cfg.oracle_period = Some(16);
    let stats = assert_fingerprint(
        &cfg,
        &[
            ("cycles", 14767),
            ("committed", 29222),
            ("loads", 1607),
            ("stores", 201),
            ("branches", 2800),
            ("fetched", 30334),
            ("squashed", 754),
            ("mispredicts", 41),
            ("bypassed_operands", 28623),
            ("rf_operands", 20811),
            ("zero_operands", 403),
            ("load_replays", 0),
            ("int_rf_reads", 15334),
            ("int_rf_writes", 23581),
            ("fp_rf_reads", 5477),
            ("fp_rf_writes", 2822),
            ("stl_forwards", 0),
        ],
    );
    // The oracle's groupings (Figs. 1 and 2), exactly.
    assert_eq!(
        oracle_fingerprint(&stats),
        (
            [
                ([38918, 10542, 7158, 7506, 8414, 4915], 77453, 922),
                ([50503, 5249, 5201, 6599, 7841, 2060], 77453, 922),
                ([52002, 10463, 5268, 5896, 3759, 65], 77453, 922),
                ([52017, 10467, 6119, 5787, 3003, 60], 77453, 922),
            ],
            77453,
            922,
        ),
        "the oracle drifted on the pinned workload"
    );
}

/// Installing a tracer must observe the pipeline, never perturb it: the
/// traced run's statistics must be bit-identical to the pinned untraced
/// fingerprints, and the stall attribution must account for every cycle.
#[test]
fn traced_run_matches_pinned_fingerprint() {
    let program = random_program(&RandomProgramParams {
        seed: 0xCAFE,
        body_len: 80,
        iterations: 400,
        include_fp: true,
        include_mem: true,
        include_branches: true,
    });
    for (untraced_cfg, pinned_cycles) in [
        (SimConfig::paper_baseline(), 14752u64),
        (SimConfig::paper_carf(carf_core::CarfParams::paper_default()), 14767),
    ] {
        let mut cfg = untraced_cfg;
        cfg.cosim = true;
        let untraced = pinned_run(&cfg);

        let mut sim = AnySimulator::with_tracer(cfg.clone(), &program, TraceRecorder::new());
        let r = sim.run(1_000_000).expect("clean traced run");
        assert!(r.halted);
        let traced_fp = fingerprint(sim.stats());
        assert_eq!(
            traced_fp,
            fingerprint(&untraced),
            "tracing perturbed the simulation under {:?}",
            cfg.regfile
        );
        assert_eq!(untraced.cycles, pinned_cycles, "pinned cycle count drifted");

        let recorder = sim.into_tracer();
        let report = recorder.stall_report();
        assert_eq!(recorder.cycles(), untraced.cycles, "one Cycle event per cycle");
        assert_eq!(
            report.bucket_sum(),
            untraced.cycles,
            "stall buckets must sum to total cycles:\n{report}"
        );
    }
}

/// The bpred-hostile branch storm: near-random branch outcomes keep the
/// front end squashing, so the recovery path (`squash_younger_than`) runs
/// constantly. Pinned so the suffix-bounded recovery rewrite is provably
/// behaviour-preserving, with sanity bounds proving the kernel really is
/// hostile (a healthy mispredict rate, not a predictable loop).
fn branch_storm_run() -> SimStats {
    let wl = carf_workloads::extended_suite()
        .into_iter()
        .find(|w| w.name == "branch_storm")
        .expect("branch_storm registered");
    let program = wl.build(8); // 2000 iterations
    let mut cfg = SimConfig::paper_baseline();
    cfg.cosim = true;
    let mut sim = AnySimulator::new(cfg, &program);
    let r = sim.run(1_000_000).expect("clean run");
    assert!(r.halted, "branch storm must run to completion");
    sim.stats().clone()
}

#[test]
fn squash_storm_stats_are_pinned() {
    let stats = branch_storm_run();
    assert!(
        stats.mispredicts * 4 > stats.branches,
        "branch_storm must be bpred-hostile: {} mispredicts / {} branches",
        stats.mispredicts,
        stats.branches
    );
    assert!(
        stats.squashed * 4 > stats.committed,
        "mispredict recovery must dominate: {} squashed / {} committed",
        stats.squashed,
        stats.committed
    );
    let got = fingerprint(&stats);
    let expected: &[(&str, u64)] = &[
        ("cycles", 32983),
        ("committed", 28014),
        ("loads", 0),
        ("stores", 1),
        ("branches", 6000),
        ("fetched", 107626),
        ("squashed", 55537),
        ("mispredicts", 2944),
        ("bypassed_operands", 35563),
        ("rf_operands", 17550),
        ("zero_operands", 9834),
        ("load_replays", 0),
        ("int_rf_reads", 17550),
        ("int_rf_writes", 30442),
        ("fp_rf_reads", 0),
        ("fp_rf_writes", 0),
        ("stl_forwards", 0),
    ];
    for ((name, want), (_, have)) in expected.iter().zip(&got) {
        assert_eq!(
            have, want,
            "{name} drifted on the squash storm (got {have}, pinned {want});\n\
             full fingerprint: {got:?}"
        );
    }
}

#[test]
#[ignore = "prints the current fingerprints for re-pinning"]
fn print_fingerprints() {
    let mut base = SimConfig::paper_baseline();
    base.cosim = true;
    println!("baseline: {:?}", fingerprint(&pinned_run(&base)));
    let mut carf = SimConfig::paper_carf(carf_core::CarfParams::paper_default());
    carf.cosim = true;
    carf.oracle_period = Some(16);
    let carf_stats = pinned_run(&carf);
    println!("carf: {:?}", fingerprint(&carf_stats));
    println!("carf oracle: {:?}", oracle_fingerprint(&carf_stats));
    println!("branch_storm: {:?}", fingerprint(&branch_storm_run()));
}
