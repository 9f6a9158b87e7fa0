//! The pinned 42-point fingerprint suite, as a library.
//!
//! The scheduler-equivalence table — every workload × {baseline,
//! unlimited, carf} machine at a fixed instruction cap, folded to one
//! FNV-1a word per point — started life inside
//! `tests/scheduler_equivalence.rs`, which asserts through this module
//! (serial and parallel, traced and untraced). [`stats_hash`] is the same
//! fold the benchmark harness uses to pin its own runs.
//!
//! Any intentional timing-model change re-pins via the ignored
//! `print_pinned_table` test; an *unintentional* drift fails the tier-1
//! test suite.

use carf_core::CarfParams;
use carf_sim::{
    AnySimulator, FetchArbitration, MultiSim, SharingPolicy, SimConfig, SimStats, TraceRecorder,
    Tracer,
};
use carf_workloads::{all_workloads, SizeClass, Workload};

/// Committed-instruction cap per point: small enough to keep 3 configs ×
/// 14 workloads × {traced, untraced} × {jobs 1, 4} fast in debug builds,
/// large enough that every pipeline mechanism (squash, replay, port
/// conflicts, both IQs) is exercised.
pub const PINNED_MAX_INSTS: u64 = 15_000;

/// The three machines of the pinned sweep.
pub fn pinned_configs() -> Vec<(&'static str, SimConfig)> {
    vec![
        ("baseline", SimConfig::paper_baseline()),
        ("unlimited", SimConfig::paper_unlimited()),
        ("carf", SimConfig::paper_carf(CarfParams::paper_default())),
    ]
}

/// The counters a scheduling change could plausibly move, folded to one
/// FNV-1a word. `cycles` rides alongside in the pinned table so a drift
/// is immediately interpretable.
pub fn stats_hash(s: &SimStats) -> u64 {
    let fields = [
        s.cycles,
        s.committed,
        s.loads,
        s.stores,
        s.branches,
        s.fetched,
        s.squashed,
        s.mispredicts,
        s.bypassed_operands,
        s.rf_operands,
        s.zero_operands,
        s.load_replays,
        s.int_rf.total_reads,
        s.int_rf.total_writes,
        s.fp_rf.total_reads,
        s.fp_rf.total_writes,
        s.stl_forwards,
    ];
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in fields {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Runs one pinned point (optionally traced, with the tracer's own
/// invariants asserted).
///
/// # Panics
///
/// On simulator errors or tracer-invariant violations.
pub fn run_point(cfg: &SimConfig, workload: &Workload, traced: bool) -> SimStats {
    let program = workload.build_class(SizeClass::Test);
    if traced {
        let mut sim = AnySimulator::with_tracer(cfg.clone(), &program, TraceRecorder::new());
        sim.run(PINNED_MAX_INSTS).unwrap_or_else(|e| panic!("{} traced: {e}", workload.name));
        let stats = sim.stats().clone();
        let recorder = sim.into_tracer();
        assert_eq!(recorder.cycles(), stats.cycles, "{}: one Cycle event per cycle", workload.name);
        assert_eq!(
            recorder.stall_report().bucket_sum(),
            stats.cycles,
            "{}: stall buckets must sum to total cycles",
            workload.name
        );
        stats
    } else {
        let mut sim = AnySimulator::new(cfg.clone(), &program);
        sim.run(PINNED_MAX_INSTS).unwrap_or_else(|e| panic!("{}: {e}", workload.name));
        sim.stats().clone()
    }
}

/// All 42 points as one flat list, in (config, workload-registry) order.
pub fn points() -> Vec<(&'static str, SimConfig, Workload)> {
    let mut out = Vec::new();
    for (cfg_name, cfg) in pinned_configs() {
        for w in all_workloads() {
            out.push((cfg_name, cfg.clone(), w));
        }
    }
    out
}

/// Runs the full sweep over `jobs` workers and returns
/// `(config/workload, cycles, hash)` per point, in pinned-table order.
pub fn sweep(jobs: usize, traced: bool) -> Vec<(String, u64, u64)> {
    let pts = points();
    let stats = crate::run_ordered(&pts, jobs, |(_, cfg, w)| run_point(cfg, w, traced));
    pts.iter()
        .zip(&stats)
        .map(|((cfg_name, _, w), s)| (format!("{cfg_name}/{}", w.name), s.cycles, stats_hash(s)))
        .collect()
}

/// Captured from the pre-rewrite scan-based scheduler; regenerate only for
/// intentional timing-model changes (`cargo test -p carf-bench --test
/// scheduler_equivalence -- --ignored --nocapture print_pinned_table`).
pub const PINNED: &[(&str, u64, u64)] = &[
    // (config/workload, cycles, fnv1a-of-fingerprint)
    ("baseline/pointer_chase", 8546, 0xacb864d444d34a26),
    ("baseline/hash_table", 16046, 0xdc406d114049a2e5),
    ("baseline/sort_kernel", 5709, 0xee1172b592aef1b0),
    ("baseline/string_match", 10809, 0xbcf6b76a2a6eeb08),
    ("baseline/graph_walk", 13221, 0xd4bcfc5db1c5bf19),
    ("baseline/state_machine", 17803, 0x23d410ef65a379c7),
    ("baseline/compress_loop", 8898, 0x44f124f0fb612078),
    ("baseline/sparse_update", 18496, 0xd558b85929560c05),
    ("baseline/matvec", 13402, 0xe8977c5e9aad301a),
    ("baseline/stencil3", 9497, 0x3861d8ddbb727407),
    ("baseline/dot_products", 13253, 0xaacac4c3ed3db2d8),
    ("baseline/particle_push", 4474, 0x43b199f369710192),
    ("baseline/tridiag", 16227, 0xd584e6ba90dddf3a),
    ("baseline/table_interp", 7063, 0x960f0aaf266c018b),
    ("unlimited/pointer_chase", 7782, 0xd5fa2d9c4b2407bd),
    ("unlimited/hash_table", 12659, 0x29546bc79d43c0f2),
    ("unlimited/sort_kernel", 5486, 0x8c1401e3c30c3b06),
    ("unlimited/string_match", 10809, 0xbcf6b76a2a6eeb08),
    ("unlimited/graph_walk", 11808, 0xd4abd23abb6b6689),
    ("unlimited/state_machine", 17803, 0x23d410ef65a379c7),
    ("unlimited/compress_loop", 8898, 0xa3b223235e40b506),
    ("unlimited/sparse_update", 14299, 0xd5d19c0c353474b7),
    ("unlimited/matvec", 13402, 0xe8977c5e9aad301a),
    ("unlimited/stencil3", 9497, 0x3861d8ddbb727407),
    ("unlimited/dot_products", 13253, 0xaacac4c3ed3db2d8),
    ("unlimited/particle_push", 4474, 0x43b199f369710192),
    ("unlimited/tridiag", 16227, 0xd584e6ba90dddf3a),
    ("unlimited/table_interp", 7063, 0x960f0aaf266c018b),
    ("carf/pointer_chase", 8618, 0xffbd652de94a7549),
    ("carf/hash_table", 16308, 0xb4faf80266ecfd53),
    ("carf/sort_kernel", 5897, 0x0dab35b9a055ca0a),
    ("carf/string_match", 11008, 0x5cbd67b77177b3f5),
    ("carf/graph_walk", 13549, 0x4711f23321afa90a),
    ("carf/state_machine", 17805, 0xb00d2df8fc8d5cb7),
    ("carf/compress_loop", 9258, 0xdc03346f80ed62bc),
    ("carf/sparse_update", 18808, 0xdaa9ca5d8a986c1b),
    ("carf/matvec", 13552, 0x6f40950c8b32ed32),
    ("carf/stencil3", 9644, 0xafa89f78c9eaec3a),
    ("carf/dot_products", 13364, 0xb30b022a2d78903e),
    ("carf/particle_push", 4502, 0x21c65c207495dd56),
    ("carf/tridiag", 16845, 0xb6a8640000fa7937),
    ("carf/table_interp", 7102, 0x291875a27d907087),
];

/// Compares a [`sweep`] result against [`PINNED`]. The error lists every
/// drifted point (name, got, pinned), so a failure is immediately
/// actionable.
pub fn check_pinned(got: &[(String, u64, u64)]) -> Result<(), String> {
    check_rows(got, PINNED)
}

/// Compares a [`multi_sweep`] result against [`MULTI_PINNED`].
pub fn check_multi_pinned(got: &[(String, u64, u64)]) -> Result<(), String> {
    check_rows(got, MULTI_PINNED)
}

fn check_rows(got: &[(String, u64, u64)], pinned: &[(&str, u64, u64)]) -> Result<(), String> {
    if got.len() != pinned.len() {
        return Err(format!(
            "point count drifted from the pinned table: got {}, pinned {}",
            got.len(),
            pinned.len()
        ));
    }
    let mut drift = Vec::new();
    for ((name, cycles, hash), (p_name, p_cycles, p_hash)) in got.iter().zip(pinned) {
        if name != p_name {
            return Err(format!("point order drifted: got `{name}`, pinned `{p_name}`"));
        }
        if (cycles, hash) != (p_cycles, p_hash) {
            drift.push(format!(
                "  {name}: got cycles={cycles} hash={hash:#018x}, \
                 pinned cycles={p_cycles} hash={p_hash:#018x}"
            ));
        }
    }
    if drift.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} of {} pinned fingerprints drifted:\n{}",
            drift.len(),
            pinned.len(),
            drift.join("\n")
        ))
    }
}

// ---------------------------------------------------------------------
// Multi-context pinning: the shared-resource layer, frozen.
// ---------------------------------------------------------------------

/// One pinned multi-context scenario: a label, the ordered contexts,
/// and the sharing policy.
pub type MultiPointSpec = (&'static str, Vec<(SimConfig, Workload)>, SharingPolicy);

/// The pinned multi-context scenarios. Two shapes cover the layer's
/// moving parts:
///
/// * `smt4` — four content-aware contexts competitively sharing a
///   44-entry Long window (under the 48 private entries, so the window
///   binds) with 2-slot ICOUNT fetch: capacity windowing, the
///   incremental live counter, and selection-based arbitration;
/// * `l2x2` — a heterogeneous baseline+carf pair behind one shared L2
///   with single-slot round-robin fetch: the shared hierarchy seam and
///   rotation-based arbitration across *different* backends.
#[must_use]
pub fn multi_points() -> Vec<MultiPointSpec> {
    let pick = |name: &str| {
        all_workloads()
            .into_iter()
            .find(|w| w.name == name)
            .unwrap_or_else(|| panic!("workload {name} is registered"))
    };
    let carf = SimConfig::paper_carf(CarfParams::paper_default());
    vec![
        (
            "smt4",
            ["pointer_chase", "sparse_update", "hash_table", "matvec"]
                .iter()
                .map(|n| (carf.clone(), pick(n)))
                .collect(),
            SharingPolicy {
                shared_long_capacity: Some(44),
                shared_l2: false,
                fetch: FetchArbitration::ICount { slots: 2 },
            },
        ),
        (
            "l2x2",
            vec![
                (SimConfig::paper_baseline(), pick("pointer_chase")),
                (carf, pick("hash_table")),
            ],
            SharingPolicy {
                shared_long_capacity: None,
                shared_l2: true,
                fetch: FetchArbitration::RoundRobin { slots: 1 },
            },
        ),
    ]
}

fn multi_rows<T: Tracer>(
    name: &str,
    contexts: &[(SimConfig, Workload)],
    multi: &mut MultiSim<T>,
) -> Vec<(String, u64, u64)> {
    let results = multi
        .run(10_000_000, PINNED_MAX_INSTS)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    contexts
        .iter()
        .enumerate()
        .map(|(i, (_, w))| {
            (
                format!("{name}/{i}:{}", w.name),
                results[i].cycles,
                stats_hash(multi.ctx(i).stats()),
            )
        })
        .collect()
}

/// Runs one pinned multi-context scenario (optionally traced) and
/// returns one `(scenario/ctx:workload, active-cycles, hash)` row per
/// context. Tracing must not perturb timing, so traced and untraced
/// sweeps check against the same [`MULTI_PINNED`] rows.
///
/// # Panics
///
/// On configuration or simulator errors.
pub fn run_multi_point(
    name: &str,
    contexts: &[(SimConfig, Workload)],
    policy: SharingPolicy,
    traced: bool,
) -> Vec<(String, u64, u64)> {
    let programs: Vec<_> =
        contexts.iter().map(|(_, w)| w.build_class(SizeClass::Test)).collect();
    let ctxs: Vec<(SimConfig, &carf_isa::Program)> =
        contexts.iter().map(|(c, _)| c.clone()).zip(programs.iter()).collect();
    if traced {
        let mut multi = MultiSim::with_tracers(ctxs, policy, TraceRecorder::new)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        multi_rows(name, contexts, &mut multi)
    } else {
        let mut multi =
            MultiSim::new(ctxs, policy).unwrap_or_else(|e| panic!("{name}: {e}"));
        multi_rows(name, contexts, &mut multi)
    }
}

/// Runs every pinned multi-context scenario over `jobs` workers and
/// returns the rows in [`multi_points`] order.
pub fn multi_sweep(jobs: usize, traced: bool) -> Vec<(String, u64, u64)> {
    let scenarios = multi_points();
    crate::run_ordered(&scenarios, jobs, |(name, contexts, policy)| {
        run_multi_point(name, contexts, *policy, traced)
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Captured at the introduction of the multi-context layer; regenerate
/// only for intentional timing-model changes (`cargo test -p carf-bench
/// --test scheduler_equivalence -- --ignored --nocapture
/// print_multi_pinned_table`).
pub const MULTI_PINNED: &[(&str, u64, u64)] = &[
    // (scenario/ctx:workload, active-cycles, fnv1a-of-fingerprint)
    ("smt4/0:pointer_chase", 35661, 0xf4e07a309b132169),
    ("smt4/1:sparse_update", 41375, 0xec202aff9d86f49f),
    ("smt4/2:hash_table", 38496, 0xa77768322abea0ca),
    ("smt4/3:matvec", 26523, 0xd80de611d2099a0b),
    ("l2x2/0:pointer_chase", 8378, 0x2ecda20a70ca2d71),
    ("l2x2/1:hash_table", 14078, 0x39466f25723ac459),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_hash_is_stable_and_sensitive() {
        let mut s = SimStats { cycles: 100, committed: 50, ..SimStats::default() };
        let h = stats_hash(&s);
        assert_eq!(h, stats_hash(&s.clone()), "pure function of the counters");
        s.stl_forwards += 1;
        assert_ne!(h, stats_hash(&s));
    }

    #[test]
    fn check_pinned_reports_every_drifted_point() {
        let mut got: Vec<(String, u64, u64)> =
            PINNED.iter().map(|(n, c, h)| (n.to_string(), *c, *h)).collect();
        assert_eq!(check_pinned(&got), Ok(()));
        got[3].1 += 1;
        got[7].2 ^= 1;
        let err = check_pinned(&got).unwrap_err();
        assert!(err.contains("2 of 42"), "{err}");
        assert!(err.contains(&got[3].0), "{err}");
        assert!(err.contains(&got[7].0), "{err}");
        got.truncate(10);
        assert!(check_pinned(&got).unwrap_err().contains("point count"), "short sweep");
    }

    #[test]
    fn pinned_table_covers_three_configs_times_all_workloads() {
        assert_eq!(PINNED.len(), 3 * all_workloads().len());
        assert_eq!(points().len(), PINNED.len());
    }
}
