//! The traced `sampled` run drives `run_program_sampled`'s public calls
//! itself; this pins that the replica aggregates the same statistics bit
//! for bit.

use carf_bench::sample::{run_program_sampled, SampleSpec};
use carf_bench::statsio::stats_to_json;
use carf_perfbench::sampled::{machines, replica, ReplicaCounts};
use carf_perfbench::spans::Spans;
use carf_perfbench::timing::{Sampler, TimerCost};
use carf_workloads::{all_workloads, SizeClass};

#[test]
fn replica_reproduces_run_program_sampled() {
    let spec = SampleSpec {
        interval: 2_000,
        period: 4,
        warmup: 500,
    };
    let sampler = Sampler::new(8, TimerCost::calibrate());
    for w in all_workloads() {
        let program = w.build_class(SizeClass::Test);
        for (mname, cfg) in machines() {
            let want = run_program_sampled(&cfg, &program, &spec, 40_000).expect("sampled run");
            let mut spans = Spans::new(true);
            let mut counts = ReplicaCounts::default();
            let got = replica(
                &cfg,
                &program,
                &spec,
                40_000,
                &sampler,
                &mut spans,
                &mut counts,
            )
            .expect("replica run");
            let what = format!("{}/{mname}", w.name);
            assert_eq!(
                stats_to_json(&got.stats),
                stats_to_json(&want.stats),
                "{what}"
            );
            assert_eq!(got.stats, want.stats, "{what}");
            assert_eq!(got.total_insts, want.total_insts, "{what}");
            assert_eq!(got.detailed_insts, want.detailed_insts, "{what}");
            assert_eq!(got.intervals.len(), want.intervals.len(), "{what}");
            assert_eq!(
                counts.checkpoints as usize,
                spans
                    .spans()
                    .iter()
                    .filter(|s| s.name == "isa.checkpoint")
                    .count()
            );
            assert!(
                counts.warm_events > 0 || want.intervals.len() <= 1,
                "{what}"
            );
        }
    }
}
