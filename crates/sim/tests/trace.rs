//! Tracer integration tests on real simulations: the stall attribution
//! must account for every simulated cycle, and the retired lifetimes must
//! follow the recorder's stage definitions. The JSON exports are tested
//! where they live, in `carf-bench`.

use std::collections::BTreeMap;

use carf_isa::InstKind;
use carf_sim::{SimConfig, AnySimulator, TraceEvent, TraceRecorder, Tracer};
use carf_workloads::{random_program, RandomProgramParams, SizeClass};

fn traced_run(config: SimConfig) -> TraceRecorder {
    let program = random_program(&RandomProgramParams {
        seed: 0xBEEF,
        body_len: 60,
        iterations: 200,
        include_fp: true,
        include_mem: true,
        include_branches: true,
    });
    let mut sim = AnySimulator::with_tracer(config, &program, TraceRecorder::new());
    sim.run(500_000).expect("clean run");
    sim.into_tracer()
}

#[test]
fn stall_buckets_sum_to_total_cycles() {
    for config in [
        SimConfig::paper_baseline(),
        SimConfig::paper_carf(carf_core::CarfParams::paper_default()),
    ] {
        let recorder = traced_run(config);
        let report = recorder.stall_report();
        assert!(recorder.cycles() > 0);
        assert_eq!(report.total_cycles, recorder.cycles());
        assert_eq!(
            report.bucket_sum(),
            recorder.cycles(),
            "every cycle must land in exactly one bucket:\n{report}"
        );
        // A real run commits most cycles; the commit bucket dominates.
        let commit = report.buckets().iter().find(|(n, _)| *n == "commit").unwrap().1;
        assert!(commit > 0, "commit bucket empty on a committing run");
    }
}

/// Feeds a whole-run recorder and logs every raw issue and execute cycle
/// beside it, per sequence number.
struct Tee {
    recorder: TraceRecorder,
    issues: BTreeMap<u64, Vec<u64>>,
    executes: BTreeMap<u64, Vec<u64>>,
}

impl Tracer for Tee {
    fn event(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::Issue { cycle, seq } => self.issues.entry(seq).or_default().push(cycle),
            TraceEvent::Execute { cycle, seq } => {
                self.executes.entry(seq).or_default().push(cycle);
            }
            _ => {}
        }
        self.recorder.event(event);
    }
}

#[test]
fn lifetimes_keep_the_first_issue_and_a_stores_address_generation() {
    let tee = Tee {
        recorder: TraceRecorder::with_window(0, u64::MAX),
        issues: BTreeMap::new(),
        executes: BTreeMap::new(),
    };
    // Scattered loads miss the L1, so their speculatively woken consumers
    // replay from the issue queue.
    let program = carf_workloads::int_suite()
        .into_iter()
        .find(|w| w.name == "sparse_update")
        .expect("registered kernel")
        .build_class(SizeClass::Test);
    let config = SimConfig::paper_carf(carf_core::CarfParams::paper_default());
    let mut sim = AnySimulator::with_tracer(config, &program, tee);
    sim.run(20_000).expect("clean run");
    let tee = sim.into_tracer();

    let (mut reissued, mut stores) = (0, 0);
    for life in tee.recorder.lifetimes() {
        let issues = tee.issues.get(&life.seq).map_or(&[][..], Vec::as_slice);
        // A replayed instruction keeps its first issue cycle.
        assert_eq!(life.issued, issues.first().copied().unwrap_or(0), "{life}");
        if issues.len() > 1 {
            reissued += 1;
        }
        // A store executes at address generation.
        if life.inst.kind() == InstKind::Store {
            stores += 1;
            assert!(life.executed > life.issued, "{life}");
            assert_eq!(tee.executes[&life.seq].last(), Some(&life.executed), "{life}");
        }
    }
    assert!(reissued > 0, "no retired instruction was replayed");
    assert!(stores > 0, "no store retired");
}
