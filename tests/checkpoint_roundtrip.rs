//! Checkpoint round-trip guarantees behind sampled simulation: a
//! [`carf_isa::Checkpoint`] taken anywhere in a run must restore to the
//! bit-identical architectural state (registers, pc, memory image,
//! retired count), both on the functional machine and across the
//! functional→cycle-level hand-off `carf-sample` performs — and a sampled
//! run itself must be deterministic whatever the worker count.

use carf_bench::sample::SampleSpec;
use carf_bench::{run_custom_with_cache, suite_points, Budget};
use carf_core::CarfParams;
use carf_isa::{DecodedProgram, ExecError, Machine};
use carf_sim::{AnySimulator, SimConfig};
use carf_workloads::{all_workloads, SizeClass, Suite};
use proptest::prelude::*;

/// Advances `m` to `target` retired instructions; halting early is fine,
/// anything else fatal.
fn fast_forward(m: &mut Machine, decoded: &DecodedProgram, target: u64) {
    let needed = target.saturating_sub(m.retired());
    if needed == 0 || m.is_halted() {
        return;
    }
    match m.run_decoded(decoded, needed) {
        Ok(_) | Err(ExecError::InstLimit(_)) => {}
        Err(e) => panic!("fast-forward failed: {e}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Save/restore at a random cut point, for every workload family:
    /// the restored machine's checkpoint must fingerprint identically,
    /// and *continuing* from the restore must track the original machine
    /// instruction for instruction.
    #[test]
    fn functional_checkpoints_round_trip_bit_identically(
        cut in 1u64..20_000,
        extra in 1u64..5_000,
    ) {
        for w in all_workloads() {
            let program = w.build_class(SizeClass::Test);
            let decoded = DecodedProgram::decode(&program);

            let mut m = Machine::load(&program);
            fast_forward(&mut m, &decoded, cut);
            let ckpt = m.checkpoint(&program);

            let mut restored = Machine::from_checkpoint(&program, &ckpt)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            prop_assert_eq!(
                restored.checkpoint(&program).fingerprint(),
                ckpt.fingerprint(),
                "{}: restore must reproduce the checkpoint exactly", w.name
            );

            fast_forward(&mut m, &decoded, cut + extra);
            fast_forward(&mut restored, &decoded, cut + extra);
            prop_assert_eq!(
                m.retired(), restored.retired(),
                "{}: continuation diverged in length", w.name
            );
            prop_assert_eq!(
                m.checkpoint(&program).fingerprint(),
                restored.checkpoint(&program).fingerprint(),
                "{}: continuation diverged architecturally", w.name
            );
        }
    }

}

/// A checkpoint taken from a machine that ran clean through must carry
/// the halted flag and final state faithfully.
#[test]
fn checkpoints_survive_program_completion() {
    for w in all_workloads() {
        let program = w.build_class(SizeClass::Test);
        let mut m = Machine::load(&program);
        // Test-size workloads may exceed this cap; either way is a valid
        // state to checkpoint.
        let _ = m.run(&program, 50_000);
        let ckpt = m.checkpoint(&program);
        let restored = Machine::from_checkpoint(&program, &ckpt)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert_eq!(restored.is_halted(), m.is_halted(), "{}", w.name);
        assert_eq!(restored.retired(), m.retired(), "{}", w.name);
        assert_eq!(restored.checkpoint(&program).fingerprint(), ckpt.fingerprint(), "{}", w.name);
    }
}

/// The hand-off `carf-sample` relies on, under co-simulation on the pinned
/// suite's workloads: fast-forwarding functionally, restoring into the
/// cycle-level simulator, and simulating an interval must land on the same
/// architectural state (and retired count) as simulating straight through
/// from reset — for both the baseline and the content-aware machine.
#[test]
fn restore_then_simulate_matches_straight_through() {
    const FF_TARGET: u64 = 5_000;
    const MEASURE: u64 = 2_000;

    let configs = [
        ("baseline", SimConfig::paper_baseline()),
        ("carf", SimConfig::paper_carf(CarfParams::paper_default())),
    ];
    for (label, base_cfg) in configs {
        let mut cfg = base_cfg;
        cfg.cosim = true; // golden machine cross-checks every commit
        for w in all_workloads() {
            let program = w.build_class(SizeClass::Test);

            let mut straight = AnySimulator::new(cfg.clone(), &program);
            straight
                .run_exact(FF_TARGET + MEASURE)
                .unwrap_or_else(|e| panic!("{label}/{} straight: {e}", w.name));

            let decoded = DecodedProgram::decode(&program);
            let mut m = Machine::load(&program);
            fast_forward(&mut m, &decoded, FF_TARGET);
            let ckpt = m.checkpoint(&program);
            let mut resumed = AnySimulator::from_checkpoint(cfg.clone(), &program, &ckpt)
                .unwrap_or_else(|e| panic!("{label}/{} restore: {e}", w.name));
            resumed
                .run_exact(FF_TARGET + MEASURE)
                .unwrap_or_else(|e| panic!("{label}/{} resumed: {e}", w.name));

            assert_eq!(
                straight.retired(),
                resumed.retired(),
                "{label}/{}: retired counts diverged",
                w.name
            );
            assert_eq!(
                straight.arch_checkpoint().fingerprint(),
                resumed.arch_checkpoint().fingerprint(),
                "{label}/{}: architectural state diverged after restore",
                w.name
            );
        }
    }
}

/// Sampled runs must be bit-identical serial vs parallel: sampling rides
/// the same worker pool as every sweep binary, so the `--sample` flag must
/// not reintroduce scheduling-dependent results.
#[test]
fn sampled_runs_are_deterministic_across_worker_counts() {
    let mut serial = Budget::quick();
    serial.size = SizeClass::Test;
    serial.max_insts = 40_000;
    serial.jobs = 1;
    serial.sample = Some(SampleSpec { interval: 2_000, period: 4, warmup: 1_000 });
    let mut parallel = serial;
    parallel.jobs = 4;

    let carf = SimConfig::paper_carf(CarfParams::paper_default());
    let points = suite_points(&[(carf.clone(), Suite::Int), (carf, Suite::Fp)]);

    let s = run_custom_with_cache(&points, &serial, None).results;
    let p = run_custom_with_cache(&points, &parallel, None).results;
    assert_eq!(s.len(), p.len());
    for (a, b) in s.iter().zip(&p) {
        assert_eq!(a.suite, b.suite);
        assert_eq!(a.runs.len(), b.runs.len(), "{:?}", a.suite);
        for ((an, astats), (bn, bstats)) in a.runs.iter().zip(&b.runs) {
            assert_eq!(an, bn, "{:?}: workload order must match", a.suite);
            assert_eq!(astats, bstats, "{:?}/{an}: sampled run diverged with jobs=4", a.suite);
        }
    }
}
