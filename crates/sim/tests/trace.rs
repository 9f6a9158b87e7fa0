//! Tracer integration tests on real simulations: the Chrome trace export
//! must be well-formed JSON with monotone timestamps, the stall
//! attribution must account for every simulated cycle, and the retired
//! lifetimes must follow the recorder's stage definitions.

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

/// A minimal structural JSON checker: verifies balanced braces/brackets
/// outside strings and that strings close. It accepts a superset of JSON,
/// but catches the failure modes of hand-rolled serialization (unbalanced
/// nesting, unterminated or unescaped strings).
fn assert_balanced_json(json: &str) {
    let mut depth_obj = 0i64;
    let mut depth_arr = 0i64;
    let mut in_string = false;
    let mut escaped = false;
    for c in json.chars() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            } else {
                assert!(c as u32 >= 0x20, "raw control character inside a JSON string");
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => depth_obj += 1,
            '}' => {
                depth_obj -= 1;
                assert!(depth_obj >= 0, "unbalanced braces");
            }
            '[' => depth_arr += 1,
            ']' => {
                depth_arr -= 1;
                assert!(depth_arr >= 0, "unbalanced brackets");
            }
            _ => {}
        }
    }
    assert!(!in_string, "unterminated string");
    assert_eq!(depth_obj, 0, "unbalanced braces");
    assert_eq!(depth_arr, 0, "unbalanced brackets");
}

/// Extracts every `"ts":<n>` value, in order of appearance.
fn timestamps(json: &str) -> Vec<u64> {
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(pos) = rest.find("\"ts\":") {
        rest = &rest[pos + 5..];
        let end = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        out.push(rest[..end].parse::<u64>().expect("numeric ts"));
    }
    out
}

#[test]
fn chrome_trace_is_valid_and_monotone() {
    for config in [
        SimConfig::paper_baseline(),
        SimConfig::paper_carf(carf_core::CarfParams::paper_default()),
    ] {
        let recorder = traced_run(config);
        let json = recorder.chrome_trace_json();
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert_balanced_json(&json);

        let ts = timestamps(&json);
        assert!(ts.len() > 100, "expected a populated trace, got {} events", ts.len());
        assert!(
            ts.windows(2).all(|w| w[0] <= w[1]),
            "trace timestamps must be monotonically non-decreasing"
        );
        // Slices, counters, and metadata are all present.
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"ph\":\"M\""));
    }
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

#[test]
fn counters_json_is_valid_and_reflects_the_run() {
    let recorder = traced_run(SimConfig::paper_carf(carf_core::CarfParams::paper_default()));
    let json = recorder.counters_json();
    assert_balanced_json(&json);
    assert!(json.contains("\"cycles\":"));
    assert!(json.contains("\"wr1\":{"));
    assert!(json.contains("\"stall_cycles\":{"));
    // The CARF machine classifies integer results at WR1: the outcomes
    // must be populated on this integer-heavy workload.
    let c = recorder.counters();
    assert!(c.wr1_simple + c.wr1_short + c.wr1_long > 0, "no WR1 outcomes recorded");
    assert!(c.retired > 0 && c.dispatched >= c.retired);
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
