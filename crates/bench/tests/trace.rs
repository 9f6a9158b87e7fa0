//! The trace exports on real simulations: the Chrome trace must parse
//! with monotone timestamps and carry every event kind, and the counters
//! record must parse, reflect the run and keep its pinned layout.

use carf_bench::json::{self, Value};
use carf_bench::trace;
use carf_sim::{AnySimulator, SimConfig, SimStats, TraceRecorder};
use carf_workloads::{all_workloads, random_program, RandomProgramParams, SizeClass};

fn traced_run(config: SimConfig) -> (TraceRecorder, SimStats) {
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
    let stats = sim.stats().clone();
    (sim.into_tracer(), stats)
}

#[test]
fn chrome_trace_is_valid_and_monotone() {
    for config in [
        SimConfig::paper_baseline(),
        SimConfig::paper_carf(carf_core::CarfParams::paper_default()),
    ] {
        let text = trace::chrome_trace(&traced_run(config).0);
        let doc = json::parse(&text).expect("the Chrome trace is JSON");
        assert_eq!(doc.get("displayTimeUnit").and_then(Value::as_str), Some("ms"));
        let events = doc.get("traceEvents").and_then(Value::as_array).expect("an event list");

        let ts: Vec<u64> = events.iter().filter_map(|e| e.get("ts")?.as_u64()).collect();
        assert!(ts.len() > 100, "expected a populated trace, got {} events", ts.len());
        assert!(
            ts.windows(2).all(|w| w[0] <= w[1]),
            "trace timestamps must be monotonically non-decreasing"
        );
        // Slices, counters, and metadata are all present.
        for phase in ["X", "C", "M"] {
            assert!(
                events.iter().any(|e| e.get("ph").and_then(Value::as_str) == Some(phase)),
                "no \"{phase}\" event"
            );
        }
    }
}

#[test]
fn counters_json_is_valid_and_reflects_the_run() {
    let (recorder, stats) =
        traced_run(SimConfig::paper_carf(carf_core::CarfParams::paper_default()));
    let record = json::parse(&Value::object(trace::counters(&recorder, &stats)).to_string())
        .expect("the counters record is JSON");
    assert_eq!(record.get("cycles").and_then(Value::as_u64), Some(recorder.cycles()));
    let wr1 = record.get("wr1").expect("WR1 outcomes");
    let stalls = record.get("stall_cycles").expect("stall buckets");
    let sum: u64 = match stalls {
        Value::Object(members) => members.iter().filter_map(|(_, v)| v.as_u64()).sum(),
        other => panic!("stall_cycles is not an object: {other}"),
    };
    assert_eq!(sum, recorder.cycles(), "the buckets sum to the cycle count");
    // The CARF machine classifies integer results at WR1: the outcomes
    // must be populated on this integer-heavy workload.
    let writes = stats.int_rf.writes;
    assert_eq!(wr1.get("short").and_then(Value::as_u64), Some(writes.short));
    assert!(writes.total() > 0, "no WR1 outcomes recorded");
    assert!(stats.committed > 0 && recorder.counters().dispatched >= stats.committed);
}

/// The whole record of one deterministic traced run, pinned: a member
/// renamed, moved or counted differently shows here.
#[test]
fn counters_record_is_pinned() {
    let program = all_workloads()
        .into_iter()
        .find(|w| w.name == "sort_kernel")
        .expect("registered kernel")
        .build_class(SizeClass::Test);
    let config = SimConfig::paper_carf(carf_core::CarfParams::paper_default());
    let mut sim = AnySimulator::with_tracer(config, &program, TraceRecorder::new());
    sim.run(30_000).expect("clean run");
    let record = Value::object(trace::counters(sim.tracer(), sim.stats())).to_string();
    let pinned = concat!(
        r#"{"cycles":9930,"fetched":38286,"dispatched":36115,"issued":33966,"executed":31293,"#,
        r#""writebacks":17842,"wb_retries":0,"retired":30004,"squashed":6061,"#,
        r#""long_guard_cycles":0,"squash_events":{"mispredict":263,"mem_order":0,"#,
        r#""long_recovery":0},"dispatch_stalls":{"rob":0,"pregs":728,"lsq":0,"iq":1,"#,
        r#""checkpoints":0},"wr1":{"simple":11618,"short":3762,"long":2462},"#,
        r#""stall_cycles":{"commit":6996,"frontend_empty":463,"data_dependency":0,"#,
        r#""issue_structural":131,"execute":675,"mem_disambig":0,"mem_data":876,"#,
        r#""writeback_port":229,"long_writeback":0,"writeback_latency":560,"#,
        r#""store_commit_port":0,"other":0},"latency_means":{"dispatch_to_issue":3.628,"#,
        r#""issue_to_execute":3.231,"execute_to_retire":7.200,"dispatch_to_retire":14.059}}"#,
    );
    assert_eq!(record, pinned);
}
