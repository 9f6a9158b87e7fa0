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

/// The Long guard under pressure (paper §3.1): a 36-entry Long file on the
/// two suite kernels whose live Long values crowd it, so the guard holds
/// issue back on most cycles. Every other pinned run stalls on the guard
/// on no cycle at all, so these pin the guard's path, and name the
/// counters it moves that [`fingerprint`] leaves out.
const GUARD_HEAVY_LONG_ENTRIES: usize = 36;

fn guard_heavy_run(config: &SimConfig, workload: &str) -> SimStats {
    let program = carf_workloads::int_suite()
        .into_iter()
        .find(|w| w.name == workload)
        .unwrap_or_else(|| panic!("no workload {workload}"))
        .build_class(carf_workloads::SizeClass::Test);
    let mut cfg = config.clone();
    cfg.cosim = true;
    let mut sim = AnySimulator::new(cfg, &program);
    let r = sim.run(30_000).expect("clean run");
    assert!(r.halted, "{workload} must run to completion");
    let stats = sim.stats().clone();
    assert!(
        stats.long_guard_stall_cycles * 5 > stats.cycles,
        "{workload} must stall on the guard on over 20% of cycles: {} of {}",
        stats.long_guard_stall_cycles,
        stats.cycles
    );
    stats
}

fn guard_fingerprint(s: &SimStats) -> Vec<(&'static str, u64)> {
    let mut fp = fingerprint(s);
    fp.extend([
        ("long_guard_stall_cycles", s.long_guard_stall_cycles),
        ("rf_read_port_denials", s.rf_read_port_denials),
        ("wb_long_retries", s.wb_long_retries),
        ("deadlock_recoveries", s.deadlock_recoveries),
        ("int_rf_writes_simple", s.int_rf.writes.simple),
        ("int_rf_writes_short", s.int_rf.writes.short),
        ("int_rf_writes_long", s.int_rf.writes.long),
        ("int_rf_long_write_stalls", s.int_rf.long_write_stalls),
        ("dl1_hits", s.mem.dl1.hits),
        ("dl1_misses", s.mem.dl1.misses),
        ("l2_hits", s.mem.l2.hits),
        ("l2_misses", s.mem.l2.misses),
    ]);
    fp
}

/// The guard-heavy points: (label, machine, workload).
fn guard_heavy_points() -> Vec<(&'static str, SimConfig, &'static str)> {
    let params =
        carf_core::CarfParams { long_entries: GUARD_HEAVY_LONG_ENTRIES, ..Default::default() };
    vec![
        ("carf/hash_table", SimConfig::paper_carf(params), "hash_table"),
        ("carf/sparse_update", SimConfig::paper_carf(params), "sparse_update"),
        ("compressed/hash_table", SimConfig::paper_compressed(params), "hash_table"),
        ("compressed/sparse_update", SimConfig::paper_compressed(params), "sparse_update"),
    ]
}

#[test]
fn guard_heavy_stats_are_pinned() {
    // Captured before issue candidates held back by the guard were parked
    // in a list instead of re-queued every cycle; that change must leave
    // every one of these counters as it was.
    let expected: &[(&str, &[(&str, u64)])] = &[
        (
            "carf/hash_table",
            &[
                ("cycles", 25942),
                ("committed", 24009),
                ("loads", 2000),
                ("stores", 2001),
                ("branches", 2000),
                ("fetched", 24102),
                ("squashed", 58),
                ("mispredicts", 16),
                ("bypassed_operands", 20668),
                ("rf_operands", 15334),
                ("zero_operands", 2000),
                ("load_replays", 921),
                ("int_rf_reads", 15334),
                ("int_rf_writes", 20022),
                ("fp_rf_reads", 0),
                ("fp_rf_writes", 0),
                ("stl_forwards", 1),
                ("long_guard_stall_cycles", 17463),
                ("rf_read_port_denials", 182),
                ("wb_long_retries", 0),
                ("deadlock_recoveries", 0),
                ("int_rf_writes_simple", 7590),
                ("int_rf_writes_short", 1999),
                ("int_rf_writes_long", 10433),
                ("int_rf_long_write_stalls", 0),
                ("dl1_hits", 3497),
                ("dl1_misses", 503),
                ("l2_hits", 1),
                ("l2_misses", 506),
            ],
        ),
        (
            "carf/sparse_update",
            &[
                ("cycles", 35304),
                ("committed", 24009),
                ("loads", 2000),
                ("stores", 2001),
                ("branches", 2000),
                ("fetched", 24098),
                ("squashed", 57),
                ("mispredicts", 16),
                ("bypassed_operands", 20721),
                ("rf_operands", 15281),
                ("zero_operands", 2000),
                ("load_replays", 3097),
                ("int_rf_reads", 15281),
                ("int_rf_writes", 20022),
                ("fp_rf_reads", 0),
                ("fp_rf_writes", 0),
                ("stl_forwards", 0),
                ("long_guard_stall_cycles", 26175),
                ("rf_read_port_denials", 241),
                ("wb_long_retries", 0),
                ("deadlock_recoveries", 0),
                ("int_rf_writes_simple", 7972),
                ("int_rf_writes_short", 1996),
                ("int_rf_writes_long", 10054),
                ("int_rf_long_write_stalls", 0),
                ("dl1_hits", 2086),
                ("dl1_misses", 1915),
                ("l2_hits", 1523),
                ("l2_misses", 1798),
            ],
        ),
        (
            "compressed/hash_table",
            &[
                ("cycles", 22524),
                ("committed", 24009),
                ("loads", 2000),
                ("stores", 2001),
                ("branches", 2000),
                ("fetched", 24098),
                ("squashed", 55),
                ("mispredicts", 16),
                ("bypassed_operands", 21270),
                ("rf_operands", 14732),
                ("zero_operands", 2000),
                ("load_replays", 0),
                ("int_rf_reads", 14732),
                ("int_rf_writes", 20016),
                ("fp_rf_reads", 0),
                ("fp_rf_writes", 0),
                ("stl_forwards", 1),
                ("long_guard_stall_cycles", 11792),
                ("rf_read_port_denials", 30),
                ("wb_long_retries", 0),
                ("deadlock_recoveries", 0),
                ("int_rf_writes_simple", 7590),
                ("int_rf_writes_short", 2556),
                ("int_rf_writes_long", 9870),
                ("int_rf_long_write_stalls", 0),
                ("dl1_hits", 3497),
                ("dl1_misses", 503),
                ("l2_hits", 1),
                ("l2_misses", 506),
            ],
        ),
        (
            "compressed/sparse_update",
            &[
                ("cycles", 33903),
                ("committed", 24009),
                ("loads", 2000),
                ("stores", 2001),
                ("branches", 2000),
                ("fetched", 24098),
                ("squashed", 57),
                ("mispredicts", 16),
                ("bypassed_operands", 20360),
                ("rf_operands", 15642),
                ("zero_operands", 2000),
                ("load_replays", 0),
                ("int_rf_reads", 15642),
                ("int_rf_writes", 20021),
                ("fp_rf_reads", 0),
                ("fp_rf_writes", 0),
                ("stl_forwards", 0),
                ("long_guard_stall_cycles", 24303),
                ("rf_read_port_denials", 136),
                ("wb_long_retries", 0),
                ("deadlock_recoveries", 0),
                ("int_rf_writes_simple", 7972),
                ("int_rf_writes_short", 1435),
                ("int_rf_writes_long", 10614),
                ("int_rf_long_write_stalls", 0),
                ("dl1_hits", 2086),
                ("dl1_misses", 1915),
                ("l2_hits", 1523),
                ("l2_misses", 1798),
            ],
        ),
    ];
    let points = guard_heavy_points();
    assert_eq!(points.len(), expected.len());
    for ((label, config, workload), (pinned_label, want)) in points.iter().zip(expected) {
        assert_eq!(label, pinned_label);
        let got = guard_fingerprint(&guard_heavy_run(config, workload));
        assert_eq!(got.len(), want.len(), "{label}");
        for ((name, have), (pinned_name, want)) in got.iter().zip(want.iter()) {
            assert_eq!(name, pinned_name);
            assert_eq!(
                have, want,
                "{name} drifted on {label} (got {have}, pinned {want});\n\
                 full fingerprint: {got:?}"
            );
        }
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
    for (label, config, workload) in guard_heavy_points() {
        println!("{label}: {:?}", guard_fingerprint(&guard_heavy_run(&config, workload)));
    }
}
