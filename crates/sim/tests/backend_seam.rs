//! The register-file backend seam: [`AnySimulator`] must construct the
//! backend named by the configuration, the defaulted [`IntRegFile`] hooks
//! must behave per contract on both backends (no-ops on the baseline,
//! real introspection on the content-aware file), and the enum facade
//! must agree bit-for-bit with direct monomorphized construction.

use carf_core::{
    BaselineRegFile, CarfParams, CompressedRegFile, ContentAwareRegFile, PortReducedParams,
    PortReducedRegFile, ValueClass,
};
use carf_sim::{
    AnySimulator, MultiSim, MultiThreadResult, SharingPolicy, SimConfig, SimStats, Simulator,
};
use carf_workloads::{random_program, RandomProgramParams};
use carf_isa::Program;

fn pinned_program() -> Program {
    random_program(&RandomProgramParams {
        seed: 0x5EAD,
        body_len: 60,
        iterations: 300,
        include_fp: true,
        include_mem: true,
        include_branches: true,
    })
}

fn run_any(config: SimConfig, program: &Program) -> (AnySimulator, SimStats) {
    let mut sim = AnySimulator::new(config, program);
    let r = sim.run(1_000_000).expect("clean run");
    assert!(r.halted);
    let stats = sim.stats().clone();
    (sim, stats)
}

#[test]
fn any_simulator_selects_the_configured_backend() {
    let program = pinned_program();
    let (base, _) = run_any(SimConfig::paper_baseline(), &program);
    let (carf, _) = run_any(SimConfig::paper_carf(CarfParams::paper_default()), &program);
    let (comp, _) = run_any(SimConfig::paper_compressed(CarfParams::paper_default()), &program);
    let (ports, _) = run_any(SimConfig::paper_port_reduced(PortReducedParams::default()), &program);
    assert!(matches!(base, AnySimulator::Baseline(_)));
    assert!(matches!(carf, AnySimulator::ContentAware(_)));
    assert!(matches!(comp, AnySimulator::Compressed(_)));
    assert!(matches!(ports, AnySimulator::PortReduced(_)));
}

#[test]
fn enum_facade_matches_direct_monomorphized_construction() {
    let program = pinned_program();
    let (_, via_enum) = run_any(SimConfig::paper_baseline(), &program);
    let mut direct = Simulator::<BaselineRegFile>::new(SimConfig::paper_baseline(), &program);
    direct.run(1_000_000).expect("clean run");
    assert_eq!(format!("{via_enum:?}"), format!("{:?}", direct.stats()));

    let carf_cfg = SimConfig::paper_carf(CarfParams::paper_default());
    let (_, via_enum) = run_any(carf_cfg.clone(), &program);
    let mut direct = Simulator::<ContentAwareRegFile>::new(carf_cfg, &program);
    direct.run(1_000_000).expect("clean run");
    assert_eq!(format!("{via_enum:?}"), format!("{:?}", direct.stats()));

    let comp_cfg = SimConfig::paper_compressed(CarfParams::paper_default());
    let (_, via_enum) = run_any(comp_cfg.clone(), &program);
    let mut direct = Simulator::<CompressedRegFile>::new(comp_cfg, &program);
    direct.run(1_000_000).expect("clean run");
    assert_eq!(format!("{via_enum:?}"), format!("{:?}", direct.stats()));

    let port_cfg = SimConfig::paper_port_reduced(PortReducedParams::default());
    let (_, via_enum) = run_any(port_cfg.clone(), &program);
    let mut direct = Simulator::<PortReducedRegFile>::new(port_cfg, &program);
    direct.run(1_000_000).expect("clean run");
    assert_eq!(format!("{via_enum:?}"), format!("{:?}", direct.stats()));
}

/// The compressed organization must expose its structure through the same
/// capability hooks the content-aware file uses, and the port-reduced
/// organization must surface its port budget, capture reuse, and the
/// arbitration denials it causes.
#[test]
fn backend_zoo_hooks_and_counters_behave() {
    let program = pinned_program();

    let (comp, comp_stats) =
        run_any(SimConfig::paper_compressed(CarfParams::paper_default()), &program);
    let rf = comp.int_regfile();
    assert!(rf.carf_params().is_some(), "compressed file reuses the CARF geometry");
    assert!(rf.carf_policies().is_none(), "but has no CARF policy knobs");
    assert!(rf.read_port_limit().is_none(), "no private port budget");
    let occ = rf.occupancy_report().expect("occupancy report");
    assert!(occ.long_peak_live > 0, "pinned workload must exercise the overflow bank");
    assert_eq!(rf.classify_value(5, false), Some(ValueClass::Simple));
    assert!(comp_stats.int_rf.total_writes > 0);

    // Two read ports on a 4-wide machine: arbitration must actually deny,
    // and the capture buffer must serve some reads port-free.
    let squeezed = SimConfig::paper_port_reduced(PortReducedParams {
        read_ports: 2,
        capture_entries: 8,
    });
    let (ports, port_stats) = run_any(squeezed, &program);
    let rf = ports.int_regfile();
    assert_eq!(rf.read_port_limit(), Some(2));
    assert!(rf.carf_params().is_none());
    assert!(rf.classify_value(5, false).is_none(), "untyped storage never classifies");
    assert!(
        port_stats.int_rf.capture_reuse_hits > 0,
        "the capture buffer must serve some operands port-free"
    );

    // A budget equal to the machine default must deny exactly as often as
    // the baseline's own metering; halving it must deny more and cost
    // cycles.
    let roomy = SimConfig::paper_port_reduced(PortReducedParams {
        read_ports: 8,
        capture_entries: 0,
    });
    let (_, roomy_stats) = run_any(roomy, &program);
    let (_, base_stats) = run_any(SimConfig::paper_baseline(), &program);
    assert_eq!(roomy_stats.rf_read_port_denials, base_stats.rf_read_port_denials);
    assert_eq!(roomy_stats.int_rf.capture_reuse_hits, 0, "zero-depth buffer never hits");
    assert!(
        port_stats.rf_read_port_denials > roomy_stats.rf_read_port_denials,
        "a 2-port budget must deny more than the 8-port machine \
         ({} <= {})",
        port_stats.rf_read_port_denials,
        roomy_stats.rf_read_port_denials
    );
    assert!(port_stats.cycles > roomy_stats.cycles, "port starvation must cost cycles");
}

#[test]
fn baseline_defaulted_hooks_are_noops() {
    let program = pinned_program();
    let (mut sim, stats) = run_any(SimConfig::paper_baseline(), &program);
    let rf = sim.int_regfile();
    assert!(rf.carf_params().is_none());
    assert!(rf.carf_policies().is_none());
    assert_eq!(rf.long_live_count(), 0);
    assert_eq!(rf.mean_short_occupancy(), 0.0);
    assert!(rf.occupancy_report().is_none());
    assert!(rf.classify_value(3, false).is_none());
    assert!(rf.classify_value(u64::MAX, true).is_none());
    // The monolithic file has no Long sub-file: capacity limiting must be
    // inert, leaving a rerun under a tiny "limit" bit-identical.
    sim.int_regfile_mut().set_long_capacity_limit(1);
    let (_, relimited) = run_any(SimConfig::paper_baseline(), &program);
    assert_eq!(format!("{stats:?}"), format!("{relimited:?}"));
}

#[test]
fn content_aware_hooks_expose_the_real_organization() {
    let program = pinned_program();
    let params = CarfParams::paper_default();
    let (sim, stats) = run_any(SimConfig::paper_carf(params), &program);
    let rf = sim.int_regfile();

    let got = rf.carf_params().expect("carf params");
    assert_eq!(got.long_entries, params.long_entries);
    assert_eq!(got.short_entries, params.short_entries);
    let policies = rf.carf_policies().expect("carf policies");
    assert_eq!(policies.long_stall_threshold, 8);

    let occ = rf.occupancy_report().expect("occupancy report");
    assert!(occ.long_peak_live > 0, "pinned workload must exercise the Long file");
    assert!(occ.long_mean_live > 0.0);
    assert_eq!(rf.mean_short_occupancy(), occ.short_mean_occupancy);
    // The histogram is the distribution behind the mean: it must cover
    // the sampled cycles up to the recorded peak.
    assert!(occ.long_occupancy_hist.len() > occ.long_peak_live);

    // WR1-style outcome classification: in-range values are Simple, wide
    // ones are not.
    assert_eq!(rf.classify_value(5, false), Some(ValueClass::Simple));
    let wide = rf.classify_value(0xDEAD_BEEF_1234_5678, false).expect("classified");
    assert_ne!(wide, ValueClass::Simple);

    assert!(stats.int_rf.total_writes > 0);
}

#[test]
#[should_panic]
fn carf_backend_rejects_a_baseline_config() {
    let program = pinned_program();
    let _ = Simulator::<ContentAwareRegFile>::new(SimConfig::paper_baseline(), &program);
}

#[test]
#[should_panic]
fn baseline_backend_rejects_a_carf_config() {
    let program = pinned_program();
    let _ = Simulator::<BaselineRegFile>::new(
        SimConfig::paper_carf(CarfParams::paper_default()),
        &program,
    );
}

/// Regression for the removal of concrete-type access: the shared-Long SMT experiment only
/// works if `set_long_capacity_limit` / `long_live_count` reach the
/// concrete file through the trait hooks. The co-simulation must be
/// deterministic, and an aggressive shared capacity must actually bite
/// (more Long-guard stalls than private files).
#[test]
fn smt_shared_long_capacity_still_bites_through_the_hooks() {
    let mk = |seed: u64| {
        random_program(&RandomProgramParams {
            seed,
            body_len: 60,
            iterations: 200,
            include_fp: false,
            include_mem: true,
            include_branches: true,
        })
    };
    let (a, b) = (mk(0xA11CE), mk(0xB0B));
    let cfg = SimConfig::paper_carf(CarfParams::paper_default());

    let run = |capacity: usize| {
        let mut smt = MultiSim::new(
            vec![(cfg.clone(), &a), (cfg.clone(), &b)],
            SharingPolicy::shared_long(capacity),
        )
        .unwrap();
        smt.run(2_000_000, 100_000).expect("clean smt run")
    };

    let full = run(48);
    let full_again = run(48);
    for (x, y) in full.iter().zip(&full_again) {
        assert_eq!(x.committed, y.committed, "SMT run must be deterministic");
        assert_eq!(x.cycles, y.cycles);
        assert_eq!(x.long_guard_stall_cycles, y.long_guard_stall_cycles);
    }

    let squeezed = run(40);
    let stalls = |r: &[MultiThreadResult]| -> u64 {
        r.iter().map(|t| t.long_guard_stall_cycles).sum()
    };
    assert!(
        stalls(&squeezed) >= stalls(&full),
        "a smaller shared Long file must not reduce guard stalls \
         (squeezed {} < full {})",
        stalls(&squeezed),
        stalls(&full)
    );
    for t in &squeezed {
        assert!(t.committed > 0, "both threads must make progress under pressure");
    }
}
