//! Co-simulation fuzzing: randomly generated (but guaranteed-terminating)
//! programs must commit the exact architectural effects of the functional
//! reference machine, under every register-file organization and under
//! deliberately tiny (stress) machine shapes.

use carf_core::{CarfParams, Policies};
use carf_sim::{RegFileKind, SimConfig, AnySimulator};
use carf_workloads::{int_suite, random_program, RandomProgramParams, SizeClass};

fn stress_config() -> SimConfig {
    // Tiny structures maximize squashes, stalls, and recovery traffic.
    let mut cfg = SimConfig::test_small();
    cfg.rob_size = 16;
    cfg.lsq_size = 8;
    cfg.iq_int = 8;
    cfg.iq_fp = 8;
    cfg.int_pregs = 48;
    cfg.fp_pregs = 48;
    cfg.checkpoints = 4;
    cfg.cosim = true;
    cfg
}

fn run_seed(cfg: &SimConfig, seed: u64) {
    let program = random_program(&RandomProgramParams { seed, ..Default::default() });
    let mut sim = AnySimulator::new(cfg.clone(), &program);
    let result = sim.run(5_000_000).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    assert!(result.halted, "seed {seed} did not halt");
}

#[test]
fn random_programs_on_the_baseline() {
    let cfg = stress_config();
    for seed in 0..25 {
        run_seed(&cfg, seed);
    }
}

#[test]
fn random_programs_on_the_content_aware_machine() {
    let mut cfg = stress_config();
    cfg.regfile = RegFileKind::ContentAware(
        CarfParams { simple_entries: 48, ..CarfParams::paper_default() },
        Policies::default(),
    );
    for seed in 0..25 {
        run_seed(&cfg, seed);
    }
}

#[test]
fn random_programs_with_tiny_long_file() {
    // Long-file starvation path: the guard and (if needed) the recovery
    // flush must keep the machine correct and live. The file must still be
    // able to back every architecturally live wide value (the generator's
    // sandbox initializes 16 registers with wide values), so 20 entries is
    // tight but satisfiable — below that the configuration is unsatisfiable
    // for *any* hardware and the watchdog correctly reports a deadlock.
    let mut cfg = stress_config();
    cfg.regfile = RegFileKind::ContentAware(
        CarfParams { simple_entries: 48, long_entries: 20, ..CarfParams::paper_default() },
        Policies { long_stall_threshold: 4, ..Policies::default() },
    );
    for seed in 0..15 {
        run_seed(&cfg, seed);
    }
}

#[test]
fn unsatisfiable_long_file_is_detected_not_hung() {
    // More architecturally live wide values than Long entries: impossible
    // to make progress; the simulator must report it via the watchdog
    // rather than spin forever.
    let mut cfg = stress_config();
    cfg.watchdog_cycles = 5_000;
    cfg.regfile = RegFileKind::ContentAware(
        CarfParams { simple_entries: 48, long_entries: 4, ..CarfParams::paper_default() },
        Policies { long_stall_threshold: 2, ..Policies::default() },
    );
    let program = random_program(&RandomProgramParams { seed: 0, ..Default::default() });
    let mut sim = AnySimulator::new(cfg, &program);
    match sim.run(5_000_000) {
        Err(carf_sim::SimError::Watchdog { .. }) => {}
        other => panic!("expected a watchdog report, got {other:?}"),
    }
}

#[test]
fn random_programs_with_associative_short_file() {
    let mut cfg = stress_config();
    cfg.regfile = RegFileKind::ContentAware(
        CarfParams { simple_entries: 48, ..CarfParams::paper_default() },
        Policies {
            short_index: carf_core::ShortIndexPolicy::Associative,
            ..Policies::default()
        },
    );
    for seed in 0..15 {
        run_seed(&cfg, seed);
    }
}

#[test]
fn random_programs_without_extra_bypass() {
    let mut cfg = stress_config();
    cfg.regfile = RegFileKind::ContentAware(
        CarfParams { simple_entries: 48, ..CarfParams::paper_default() },
        Policies { extra_bypass: false, ..Policies::default() },
    );
    for seed in 0..15 {
        run_seed(&cfg, seed);
    }
}

#[test]
fn random_programs_with_narrow_and_wide_dn() {
    for dn in [8u32, 32] {
        let mut cfg = stress_config();
        cfg.regfile = RegFileKind::ContentAware(
            CarfParams { simple_entries: 48, ..CarfParams::with_dn(dn) },
            Policies::default(),
        );
        for seed in 0..10 {
            run_seed(&cfg, seed);
        }
    }
}

#[test]
fn branch_heavy_random_programs() {
    let cfg = stress_config();
    for seed in 100..115 {
        let program = random_program(&RandomProgramParams {
            seed,
            body_len: 40,
            iterations: 60,
            include_fp: false,
            include_mem: true,
            include_branches: true,
        });
        let mut sim = AnySimulator::new(cfg.clone(), &program);
        let result = sim.run(5_000_000).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(result.halted);
    }
}

#[test]
fn memory_heavy_random_programs() {
    let mut cfg = stress_config();
    cfg.regfile = RegFileKind::ContentAware(
        CarfParams { simple_entries: 48, ..CarfParams::paper_default() },
        Policies::default(),
    );
    for seed in 200..215 {
        let program = random_program(&RandomProgramParams {
            seed,
            body_len: 80,
            iterations: 40,
            include_fp: true,
            include_mem: true,
            include_branches: false,
        });
        let mut sim = AnySimulator::new(cfg.clone(), &program);
        let result = sim.run(5_000_000).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(result.halted);
    }
}

#[test]
fn random_programs_with_optimistic_memory_disambiguation() {
    let mut cfg = stress_config();
    cfg.mem_dep = carf_sim::MemDepPolicy::Optimistic;
    cfg.regfile = RegFileKind::ContentAware(
        CarfParams { simple_entries: 48, ..CarfParams::paper_default() },
        Policies::default(),
    );
    for seed in 300..325 {
        let program = random_program(&RandomProgramParams {
            seed,
            body_len: 60,
            iterations: 40,
            include_fp: true,
            include_mem: true,
            include_branches: true,
        });
        let mut sim = AnySimulator::new(cfg.clone(), &program);
        let result = sim.run(5_000_000).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(result.halted, "seed {seed}");
    }
}

#[test]
fn the_checkpoint_budget_bounds_unresolved_branches_at_dispatch() {
    // `checkpoints` caps the branches in flight past dispatch: with one, a
    // branch behind an unresolved one must wait; with one per ROB entry
    // the cap can never bind, because a full ROB stalls dispatch first.
    let program = int_suite()
        .into_iter()
        .find(|w| w.name == "state_machine")
        .expect("state_machine is in the int suite")
        .build_class(SizeClass::Test);
    let checkpoint_stalls = |checkpoints: usize| {
        let mut cfg = SimConfig::test_small();
        cfg.cosim = true;
        cfg.checkpoints = checkpoints;
        let mut sim = AnySimulator::new(cfg, &program);
        let result = sim
            .run(5_000_000)
            .unwrap_or_else(|e| panic!("checkpoints = {checkpoints}: {e}"));
        assert!(result.halted, "checkpoints = {checkpoints} did not halt");
        sim.stats().dispatch_stalls.checkpoints
    };
    assert_ne!(checkpoint_stalls(1), 0);
    assert_eq!(checkpoint_stalls(SimConfig::test_small().rob_size), 0);
}
