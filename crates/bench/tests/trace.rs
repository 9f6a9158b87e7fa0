//! The trace exports on real simulations: the Chrome trace must parse
//! with monotone timestamps and carry every event kind, and the counters
//! record must parse and reflect the run.

use carf_bench::json::{self, Value};
use carf_bench::trace;
use carf_sim::{AnySimulator, SimConfig, TraceRecorder};
use carf_workloads::{random_program, RandomProgramParams};

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
fn chrome_trace_is_valid_and_monotone() {
    for config in [
        SimConfig::paper_baseline(),
        SimConfig::paper_carf(carf_core::CarfParams::paper_default()),
    ] {
        let text = trace::chrome_trace(&traced_run(config));
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
    let recorder = traced_run(SimConfig::paper_carf(carf_core::CarfParams::paper_default()));
    let record = json::parse(&Value::object(trace::counters(&recorder)).to_string())
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
    let c = recorder.counters();
    assert_eq!(wr1.get("short").and_then(Value::as_u64), Some(c.wr1_short));
    assert!(c.wr1_simple + c.wr1_short + c.wr1_long > 0, "no WR1 outcomes recorded");
    assert!(c.retired > 0 && c.dispatched >= c.retired);
}
