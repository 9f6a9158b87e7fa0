//! The counting register-file wrapper forwards every `IntRegFile` method,
//! defaulted hooks included, and leaves a simulation bit-identical.

use carf_bench::fingerprint::stats_hash;
use carf_bench::statsio::stats_to_json;
use carf_core::{
    BaselineRegFile, CarfParams, CompressedRegFile, ContentAwareRegFile, IntRegFile,
    PortReducedParams, PortReducedRegFile,
};
use carf_perfbench::counting::{Counting, Op};
use carf_perfbench::timing::TimerCost;
use carf_sim::{RegFileBackend, SimConfig, Simulator};
use carf_workloads::{all_workloads, SizeClass};

const COST: TimerCost = TimerCost {
    inside_ns: 0.0,
    total_ns: 0.0,
};

/// Calls every trait method on the wrapper and on a twin of the wrapped
/// backend, asserting equal results, then that each call was counted
/// exactly once.
fn exercise<R: IntRegFile + Clone>(plain: R) {
    let mut twin = plain.clone();
    let mut rf = Counting::wrap(plain, COST);
    let tag = 40;
    assert_eq!(rf.num_tags(), twin.num_tags());
    rf.on_alloc(tag);
    twin.on_alloc(tag);
    let value = 0x7fff_1234_5678_9abc;
    assert_eq!(
        rf.try_write(tag, value, true),
        twin.try_write(tag, value, true)
    );
    assert_eq!(rf.read(tag), twin.read(tag));
    assert_eq!(rf.peek(tag), twin.peek(tag));
    assert_eq!(rf.class_of(tag), twin.class_of(tag));
    rf.observe_address(0x1000_2000);
    twin.observe_address(0x1000_2000);
    rf.rob_interval_tick();
    twin.rob_interval_tick();
    assert_eq!(rf.should_stall_issue(), twin.should_stall_issue());
    assert_eq!(rf.read_stages(), twin.read_stages());
    assert_eq!(rf.writeback_stages(), twin.writeback_stages());
    assert_eq!(rf.extra_bypass_level(), twin.extra_bypass_level());
    rf.sample_occupancy();
    twin.sample_occupancy();
    rf.stats_mut().long_write_stalls += 1;
    twin.stats_mut().long_write_stalls += 1;
    assert_eq!(rf.stats(), twin.stats());
    assert_eq!(rf.carf_params(), twin.carf_params());
    assert_eq!(rf.carf_policies(), twin.carf_policies());
    rf.set_long_capacity_limit(7);
    twin.set_long_capacity_limit(7);
    assert_eq!(rf.long_live_count(), twin.long_live_count());
    assert_eq!(rf.mean_short_occupancy(), twin.mean_short_occupancy());
    assert_eq!(rf.occupancy_report(), twin.occupancy_report());
    assert_eq!(
        rf.classify_value(value, false),
        twin.classify_value(value, false)
    );
    assert_eq!(rf.read_port_limit(), twin.read_port_limit());
    assert_eq!(rf.capture_buffer_hit(tag), twin.capture_buffer_hit(tag));
    rf.release(tag);
    twin.release(tag);
    assert_eq!(rf.peek(tag), twin.peek(tag));
    assert_eq!(rf.stats(), twin.stats());

    for op in Op::ALL {
        let expected = match op {
            Op::Peek | Op::Stats => 2,
            _ => 1,
        };
        assert_eq!(
            rf.meter().count(op),
            expected,
            "{op:?} was not forwarded exactly as called"
        );
    }
    assert_eq!(rf.meter().writes_accepted(), 1);
}

#[test]
fn every_method_is_forwarded_on_every_backend() {
    let params = CarfParams::paper_default();
    exercise(BaselineRegFile::new(128));
    exercise(ContentAwareRegFile::new(params));
    exercise(CompressedRegFile::new(params));
    exercise(PortReducedRegFile::new(128, PortReducedParams::default()));
}

#[test]
fn overridden_hooks_reach_the_backend() {
    let carf = Counting::wrap(ContentAwareRegFile::new(CarfParams::paper_default()), COST);
    assert!(carf.carf_params().is_some() && carf.carf_policies().is_some());
    assert!(carf.occupancy_report().is_some());
    let ports = Counting::wrap(
        PortReducedRegFile::new(128, PortReducedParams::default()),
        COST,
    );
    assert_eq!(
        ports.read_port_limit(),
        Some(PortReducedParams::default().read_ports)
    );
}

fn same_simulation<R: RegFileBackend>(cfg: &SimConfig) {
    for w in all_workloads().iter().take(4) {
        let program = w.build_class(SizeClass::Test);
        let mut plain: Simulator<R> = Simulator::new(cfg.clone(), &program);
        plain.run(10_000).expect("plain run");
        let mut counted: Simulator<Counting<R>> = Simulator::new(cfg.clone(), &program);
        counted.int_regfile_mut().reset_meter(COST);
        counted.run(10_000).expect("counted run");
        assert_eq!(
            stats_hash(plain.stats()),
            stats_hash(counted.stats()),
            "{}",
            w.name
        );
        assert_eq!(
            stats_to_json(plain.stats()),
            stats_to_json(counted.stats()),
            "{}",
            w.name
        );
        let meter = counted.int_regfile().meter();
        assert!(
            meter.count(Op::Read) > 0 && meter.count(Op::TryWrite) > 0,
            "{}",
            w.name
        );
        assert!(meter.self_s() >= 0.0);
    }
}

#[test]
fn wrapped_simulations_are_bit_identical() {
    let params = CarfParams::paper_default();
    same_simulation::<BaselineRegFile>(&SimConfig::paper_baseline());
    same_simulation::<ContentAwareRegFile>(&SimConfig::paper_carf(params));
    same_simulation::<CompressedRegFile>(&SimConfig::paper_compressed(params));
    same_simulation::<PortReducedRegFile>(&SimConfig::paper_port_reduced(
        PortReducedParams::default(),
    ));
}
