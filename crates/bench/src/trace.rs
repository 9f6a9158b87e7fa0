//! JSON exports of a traced run: a Chrome trace-event document of the
//! [`TraceRecorder`]'s cycle window and a flat counters record. The
//! recorder itself holds no JSON; these read its windowed lifetimes and
//! samples, its dispatch/issue/execute counts, stall buckets and mean
//! stage latencies through its accessors, and every other count from the
//! run's [`SimStats`].

use crate::json::{self, Value};
use carf_sim::{InstTimeline, SimStats, TraceRecorder};

/// The recorder's window as a Chrome trace-event document
/// (Perfetto-loadable), one event per line. One simulated cycle maps to
/// 1 µs; retired instructions become `"X"` complete events on greedily
/// packed lanes, per-cycle occupancies become `"C"` counter events, and
/// events are ordered by timestamp.
pub fn chrome_trace(recorder: &TraceRecorder) -> String {
    // (ts, rank, event): rank orders same-ts events deterministically.
    // Events are rendered as they are built, so the window's events
    // never exist as one tree.
    let process = Value::object([
        ("name", "process_name".into()),
        ("ph", "M".into()),
        ("pid", 1u32.into()),
        ("tid", 0u32.into()),
        ("args", Value::object([("name", "carf-sim pipeline".into())])),
    ]);
    let mut events: Vec<(u64, u32, String)> = vec![(0, 0, process.to_string())];
    let mut slices: Vec<&InstTimeline> = recorder.lifetimes().iter().collect();
    slices.sort_by_key(|l| (l.dispatched, l.seq));
    // Greedy lane packing: each lane is a tid; an instruction takes the
    // first lane free at its dispatch cycle.
    let mut lane_busy_until: Vec<u64> = Vec::new();
    for life in slices {
        let lane = match lane_busy_until.iter().position(|b| *b <= life.dispatched) {
            Some(i) => i,
            None => {
                lane_busy_until.push(0);
                lane_busy_until.len() - 1
            }
        };
        let dur = life.committed.saturating_sub(life.dispatched).max(1);
        lane_busy_until[lane] = life.dispatched + dur;
        let args = Value::object([
            ("seq", life.seq.into()),
            ("pc", life.pc.into()),
            ("issued", life.issued.into()),
            ("executed", life.executed.into()),
        ]);
        let slice = Value::object([
            ("name", life.inst.to_string().into()),
            ("cat", format!("{:?}", life.inst.kind()).into()),
            ("ph", "X".into()),
            ("ts", life.dispatched.into()),
            ("dur", dur.into()),
            ("pid", 1u32.into()),
            ("tid", (lane + 1).into()),
            ("args", args),
        ]);
        events.push((life.dispatched, 1, slice.to_string()));
    }
    for s in recorder.samples() {
        let args = Value::object([
            ("rob", s.rob.into()),
            ("iq", s.iq.into()),
            ("lsq", s.lsq.into()),
            ("commits", s.commits.into()),
        ]);
        let counter = Value::object([
            ("name", "occupancy".into()),
            ("ph", "C".into()),
            ("ts", s.cycle.into()),
            ("pid", 1u32.into()),
            ("tid", 0u32.into()),
            ("args", args),
        ]);
        events.push((s.cycle, 2, counter.to_string()));
    }
    events.sort_by_key(|(ts, rank, _)| (*ts, *rank));
    json::render_object_with_lines(
        &[("displayTimeUnit", "ms".into())],
        "traceEvents",
        events.into_iter().map(|(_, _, event)| event),
    )
}

/// The counters, stall buckets and stage-latency means of one traced run
/// as the members of one flat record. `stats` is the run's own
/// statistics: they hold every count the recorder does not.
pub fn counters(recorder: &TraceRecorder, stats: &SimStats) -> Vec<(&'static str, Value)> {
    let c = recorder.counters();
    let l = recorder.latencies();
    let group = |names: &[&str], counts: &[u64]| {
        Value::object(names.iter().zip(counts).map(|(n, v)| (*n, Value::from(*v))))
    };
    let (d, w) = (&stats.dispatch_stalls, &stats.int_rf.writes);
    vec![
        ("cycles", recorder.cycles().into()),
        ("fetched", stats.fetched.into()),
        ("dispatched", c.dispatched.into()),
        ("issued", c.issued.into()),
        ("executed", c.executed.into()),
        ("writebacks", (stats.int_rf.total_writes + stats.fp_rf.total_writes).into()),
        ("wb_retries", stats.wb_long_retries.into()),
        ("retired", stats.committed.into()),
        ("squashed", stats.squashed.into()),
        ("long_guard_cycles", stats.long_guard_stall_cycles.into()),
        (
            "squash_events",
            group(
                &["mispredict", "mem_order", "long_recovery"],
                &[stats.mispredicts, stats.mem_dep_violations, stats.deadlock_recoveries],
            ),
        ),
        (
            "dispatch_stalls",
            group(
                &["rob", "pregs", "lsq", "iq", "checkpoints"],
                &[d.rob, d.pregs, d.lsq, d.iq, d.checkpoints],
            ),
        ),
        ("wr1", group(&["simple", "short", "long"], &[w.simple, w.short, w.long])),
        (
            "stall_cycles",
            Value::object(
                recorder.stall_report().buckets().iter().map(|(n, v)| (*n, Value::from(*v))),
            ),
        ),
        (
            "latency_means",
            Value::object([
                ("dispatch_to_issue", Value::fixed(l.dispatch_to_issue.mean(), 3)),
                ("issue_to_execute", Value::fixed(l.issue_to_execute.mean(), 3)),
                ("execute_to_retire", Value::fixed(l.execute_to_retire.mean(), 3)),
                ("dispatch_to_retire", Value::fixed(l.dispatch_to_retire.mean(), 3)),
            ]),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use carf_isa::{Inst, InstKind, Opcode};
    use carf_sim::{StallCause, TraceEvent, Tracer};

    #[test]
    fn a_retired_lifetime_becomes_one_slice_from_dispatch_to_retire() {
        let mut r = TraceRecorder::with_window(0, 100);
        let inst = Inst { op: Opcode::Addi, rd: 1, rs1: 1, rs2: 0, imm: 1 };
        r.event(TraceEvent::Dispatch { cycle: 1, seq: 1, pc: 0, inst, kind: InstKind::IntAlu });
        r.event(TraceEvent::Issue { cycle: 3, seq: 1 });
        r.event(TraceEvent::Execute { cycle: 6, seq: 1 });
        r.event(TraceEvent::Retire { cycle: 9, seq: 1, pc: 0 });
        let doc = crate::json::parse(&chrome_trace(&r)).expect("JSON");
        let events = doc.get("traceEvents").and_then(Value::as_array).expect("events");
        let slices: Vec<&Value> =
            events.iter().filter(|e| e.get("ph").and_then(Value::as_str) == Some("X")).collect();
        assert_eq!(slices.len(), 1);
        assert_eq!(slices[0].get("ts").and_then(Value::as_u64), Some(1));
        assert_eq!(slices[0].get("dur").and_then(Value::as_u64), Some(8));
    }

    #[test]
    fn counters_json_is_flat_and_complete() {
        let mut r = TraceRecorder::new();
        r.event(TraceEvent::Cycle {
            cycle: 1,
            commits: 0,
            cause: StallCause::LongWriteback,
            rob: 1,
            iq: 0,
            lsq: 0,
        });
        let mut stats = SimStats::default();
        stats.int_rf.writes.short = 1;
        let json = Value::object(counters(&r, &stats)).to_string();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"wr1\":{\"simple\":0,\"short\":1,\"long\":0}"));
        assert!(json.contains("\"long_writeback\":1"));
    }
}
