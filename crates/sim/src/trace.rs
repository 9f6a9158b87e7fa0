//! Zero-cost-when-off pipeline observability.
//!
//! The simulator is generic over a [`Tracer`]. The default [`NopTracer`]
//! sets `ENABLED = false`, and every hook in the pipeline is guarded by
//! `if T::ENABLED { ... }` — a compile-time constant, so the monomorphized
//! no-op simulator contains no tracing code at all and the hot loop stays
//! allocation-free. Installing a [`TraceRecorder`] (via
//! [`Simulator::with_tracer`](crate::Simulator::with_tracer)) turns the
//! same hooks into structured [`TraceEvent`]s, which the recorder folds
//! into:
//!
//! * a per-cycle **stall attribution**: every simulated cycle is charged
//!   to exactly one [`StallCause`] bucket (decided by the state of the
//!   ROB head right after commit), so the buckets always sum to the
//!   total cycle count — see [`StallReport`];
//! * **per-instruction lifetimes** (dispatch → issue → execute → retire)
//!   and log₂ **stage-latency histograms**;
//! * a **Chrome trace-event JSON** export of a bounded cycle window,
//!   loadable in Perfetto or `chrome://tracing`;
//! * a flat **counters JSON** object for merging into `results/`.
//!
//! CARF-specific behavior is visible through the same stream: WR1 type
//! determination outcomes ride on [`TraceEvent::Writeback`], Long-file
//! writeback starvation on [`TraceEvent::WritebackRetry`], and the issue
//! guard on [`TraceEvent::LongGuard`]; Short-file alloc/reject/reclaim
//! and Long-file pointer traffic are mirrored into
//! [`carf_core::AccessStats`] by the register file itself.

use std::collections::BTreeMap;

use carf_core::ValueClass;
use carf_isa::{Inst, InstKind};

/// Receives structured pipeline events.
///
/// `ENABLED` is the zero-cost switch: the simulator only evaluates (and
/// only *compiles*) its tracing hooks when `T::ENABLED` is true.
pub trait Tracer {
    /// Whether the simulator should emit events to this tracer.
    const ENABLED: bool = true;

    /// Handles one pipeline event.
    fn event(&mut self, event: TraceEvent);
}

/// The default tracer: compiles to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NopTracer;

impl Tracer for NopTracer {
    const ENABLED: bool = false;

    #[inline(always)]
    fn event(&mut self, _event: TraceEvent) {}
}

/// Why dispatch stopped mid-group (mirrors
/// [`crate::stats::DispatchStalls`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchStallCause {
    /// Reorder buffer full.
    Rob,
    /// No free physical register.
    Pregs,
    /// Load/store queue full.
    Lsq,
    /// Issue queue full.
    Iq,
    /// No branch checkpoint available.
    Checkpoints,
}

/// Why in-flight instructions were squashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SquashReason {
    /// Branch or indirect-jump misprediction.
    Mispredict,
    /// Memory-dependence violation (optimistic disambiguation).
    MemOrder,
    /// Long-file pseudo-deadlock recovery flush.
    LongRecovery,
}

/// The single bucket each simulated cycle is charged to.
///
/// Classification happens right after the commit stage: a cycle that
/// committed anything is `Commit`; otherwise the state of the ROB head —
/// the instruction actually blocking retirement — names the cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallCause {
    /// At least one instruction committed.
    Commit,
    /// The ROB was empty (front-end starvation: fetch redirect, icache
    /// miss, or program drain).
    FrontendEmpty,
    /// The head was waiting for a source operand.
    DataDependency,
    /// The head's operands were ready but it lost selection (issue width,
    /// read ports, functional units, or the Long-file issue guard).
    IssueStructural,
    /// The head was executing.
    Execute,
    /// The head was a load waiting for memory disambiguation or a cache
    /// port.
    MemDisambig,
    /// The head was a load with its access in flight.
    MemData,
    /// The head lost writeback port arbitration.
    WritebackPort,
    /// The head's writeback was starved by a full Long file.
    LongWriteback,
    /// The head's writeback was granted but still draining.
    WritebackLatency,
    /// The head was a committable store denied a cache port.
    StoreCommitPort,
    /// Anything else (should stay at ~0; a catch-all so the sum
    /// invariant can never break).
    Other,
}

impl StallCause {
    /// Every bucket, in report order.
    pub const ALL: [StallCause; 12] = [
        StallCause::Commit,
        StallCause::FrontendEmpty,
        StallCause::DataDependency,
        StallCause::IssueStructural,
        StallCause::Execute,
        StallCause::MemDisambig,
        StallCause::MemData,
        StallCause::WritebackPort,
        StallCause::LongWriteback,
        StallCause::WritebackLatency,
        StallCause::StoreCommitPort,
        StallCause::Other,
    ];

    /// Stable snake_case name (used as a JSON key).
    pub fn name(self) -> &'static str {
        match self {
            StallCause::Commit => "commit",
            StallCause::FrontendEmpty => "frontend_empty",
            StallCause::DataDependency => "data_dependency",
            StallCause::IssueStructural => "issue_structural",
            StallCause::Execute => "execute",
            StallCause::MemDisambig => "mem_disambig",
            StallCause::MemData => "mem_data",
            StallCause::WritebackPort => "writeback_port",
            StallCause::LongWriteback => "long_writeback",
            StallCause::WritebackLatency => "writeback_latency",
            StallCause::StoreCommitPort => "store_commit_port",
            StallCause::Other => "other",
        }
    }

    fn index(self) -> usize {
        StallCause::ALL.iter().position(|c| *c == self).expect("cause is in ALL")
    }
}

/// One structured pipeline event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// An instruction entered the fetch queue (possibly wrong-path).
    Fetch {
        /// Cycle of the event.
        cycle: u64,
        /// Instruction address.
        pc: u64,
    },
    /// An instruction was renamed into the ROB.
    Dispatch {
        /// Cycle of the event.
        cycle: u64,
        /// Program-order sequence number.
        seq: u64,
        /// Instruction address.
        pc: u64,
        /// The instruction itself (disassembles via `Display`).
        inst: Inst,
        /// Its kind.
        kind: InstKind,
    },
    /// Dispatch stopped mid-group on a structural hazard.
    DispatchStall {
        /// Cycle of the event.
        cycle: u64,
        /// The hazard.
        cause: DispatchStallCause,
    },
    /// An instruction was selected for execution.
    Issue {
        /// Cycle of the event.
        cycle: u64,
        /// Sequence number.
        seq: u64,
    },
    /// An instruction produced its result (or finished address
    /// generation, for memory ops).
    Execute {
        /// Cycle of the event.
        cycle: u64,
        /// Sequence number.
        seq: u64,
    },
    /// A register write was granted. For integer writes on the
    /// content-aware file, `class` carries the WR1 type-determination
    /// outcome (`None` for FP writes or the baseline file).
    Writeback {
        /// Cycle of the event.
        cycle: u64,
        /// Sequence number.
        seq: u64,
        /// WR1 outcome, when known.
        class: Option<ValueClass>,
    },
    /// An integer write was deferred by a full Long file.
    WritebackRetry {
        /// Cycle of the event.
        cycle: u64,
        /// Sequence number.
        seq: u64,
    },
    /// An instruction retired.
    Retire {
        /// Cycle of the event.
        cycle: u64,
        /// Sequence number.
        seq: u64,
        /// Instruction address.
        pc: u64,
    },
    /// Everything younger than `keep_seq` was flushed.
    Squash {
        /// Cycle of the event.
        cycle: u64,
        /// Oldest surviving sequence number.
        keep_seq: u64,
        /// Instructions removed from the ROB.
        squashed: u64,
        /// Why.
        reason: SquashReason,
    },
    /// The Long-file issue guard stalled selection this cycle.
    LongGuard {
        /// Cycle of the event.
        cycle: u64,
    },
    /// End-of-cycle summary: emitted exactly once per simulated cycle,
    /// carrying the attribution verdict and occupancy samples.
    Cycle {
        /// The cycle number.
        cycle: u64,
        /// Instructions committed this cycle.
        commits: u64,
        /// The bucket this cycle is charged to.
        cause: StallCause,
        /// ROB occupancy after commit.
        rob: u32,
        /// Combined issue-queue occupancy.
        iq: u32,
        /// Load/store queue occupancy.
        lsq: u32,
    },
}

/// Log₂-bucketed latency histogram (bucket `i` holds latencies in
/// `[2^(i-1), 2^i)`, with bucket 0 for zero-cycle latencies; the last
/// bucket is open-ended).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; 16],
    count: u64,
    sum: u64,
}

impl LatencyHistogram {
    fn record(&mut self, latency: u64) {
        let idx = if latency == 0 {
            0
        } else {
            (64 - latency.leading_zeros() as usize).min(self.buckets.len() - 1)
        };
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += latency;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in cycles (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The raw buckets (see the type-level doc for bucket boundaries).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Human-readable label for bucket `i`, e.g. `"3-4"`.
    pub fn bucket_label(i: usize) -> String {
        match i {
            0 => "0".into(),
            1 => "1".into(),
            2 => "2".into(),
            15 => format!("{}+", 1u64 << 14),
            _ => format!("{}-{}", 1u64 << (i - 1), (1u64 << i) - 1),
        }
    }
}

/// Per-stage latency histograms over retired instructions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageHistograms {
    /// Dispatch → issue (queue wait). Only instructions that issued.
    pub dispatch_to_issue: LatencyHistogram,
    /// Issue → execute (read + execute latency).
    pub issue_to_execute: LatencyHistogram,
    /// Execute → retire (writeback + commit wait).
    pub execute_to_retire: LatencyHistogram,
    /// Dispatch → retire (whole in-window lifetime).
    pub dispatch_to_retire: LatencyHistogram,
}

/// Aggregate event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCounters {
    /// Instructions fetched (including wrong-path).
    pub fetched: u64,
    /// Instructions dispatched into the ROB.
    pub dispatched: u64,
    /// Issue selections.
    pub issued: u64,
    /// Execution completions.
    pub executed: u64,
    /// Granted register writebacks.
    pub writebacks: u64,
    /// Writeback retries forced by a full Long file.
    pub wb_retries: u64,
    /// Retired instructions.
    pub retired: u64,
    /// Squashed instructions.
    pub squashed: u64,
    /// Squash floods by reason: [mispredict, mem-order, long-recovery].
    pub squash_events: [u64; 3],
    /// Cycles the Long-file issue guard was active.
    pub long_guard_cycles: u64,
    /// Dispatch stall events by cause: [rob, pregs, lsq, iq, checkpoints].
    pub dispatch_stalls: [u64; 5],
    /// WR1 outcomes that classified the result as simple.
    pub wr1_simple: u64,
    /// WR1 outcomes that classified the result as short.
    pub wr1_short: u64,
    /// WR1 outcomes that classified the result as long.
    pub wr1_long: u64,
}

/// Stage-by-stage timing of one retired instruction, as folded from the
/// event stream by [`TraceRecorder`] (see [`TraceRecorder::lifetimes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstTimeline {
    /// Program-order sequence number.
    pub seq: u64,
    /// Instruction address.
    pub pc: u64,
    /// The instruction (disassembles via `Display`).
    pub inst: Inst,
    /// Cycle the instruction entered the ROB.
    pub dispatched: u64,
    /// Cycle of its *first* selection for execution; a replayed
    /// instruction keeps it (0 for no-exec ops).
    pub issued: u64,
    /// Cycle of its last [`TraceEvent::Execute`]: the result for loads
    /// and computing ops, address generation for stores (0 for no-exec
    /// ops).
    pub executed: u64,
    /// Cycle it retired.
    pub committed: u64,
}

impl std::fmt::Display for InstTimeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:>6} {:#010x} D{:<6} I{:<6} E{:<6} C{:<6} {}",
            self.seq, self.pc, self.dispatched, self.issued, self.executed, self.committed,
            self.inst
        )
    }
}

#[derive(Debug, Clone, Copy)]
struct CycleSample {
    cycle: u64,
    commits: u64,
    rob: u32,
    iq: u32,
    lsq: u32,
}

/// A [`Tracer`] that folds the event stream into reports and exports.
///
/// Memory use is bounded: in-flight lifetimes are capped by the ROB
/// (squashes drop their tail), and per-cycle samples plus retired
/// lifetimes are only kept inside the configured cycle window.
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    window_start: u64,
    window_end: u64,
    buckets: [u64; StallCause::ALL.len()],
    total_cycles: u64,
    counters: TraceCounters,
    inflight: BTreeMap<u64, InstTimeline>,
    slices: Vec<InstTimeline>,
    samples: Vec<CycleSample>,
    histograms: StageHistograms,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceRecorder {
    /// Default Chrome-trace window length, in cycles.
    pub const DEFAULT_WINDOW: u64 = 20_000;

    /// A recorder whose trace window covers the first
    /// [`Self::DEFAULT_WINDOW`] cycles. Attribution, counters, and
    /// histograms always cover the whole run regardless of the window.
    pub fn new() -> Self {
        Self::with_window(0, Self::DEFAULT_WINDOW)
    }

    /// A recorder whose Chrome-trace window covers cycles
    /// `[start, start + len)`.
    pub fn with_window(start: u64, len: u64) -> Self {
        Self {
            window_start: start,
            window_end: start.saturating_add(len),
            buckets: [0; StallCause::ALL.len()],
            total_cycles: 0,
            counters: TraceCounters::default(),
            inflight: BTreeMap::new(),
            slices: Vec::new(),
            samples: Vec::new(),
            histograms: StageHistograms::default(),
        }
    }

    fn in_window(&self, cycle: u64) -> bool {
        cycle >= self.window_start && cycle < self.window_end
    }

    /// Total cycles observed.
    pub fn cycles(&self) -> u64 {
        self.total_cycles
    }

    /// The aggregate event counters.
    pub fn counters(&self) -> &TraceCounters {
        &self.counters
    }

    /// The stage-latency histograms over retired instructions.
    pub fn histograms(&self) -> &StageHistograms {
        &self.histograms
    }

    /// The lifetimes of retired instructions dispatched inside the
    /// window, in retire order.
    pub fn lifetimes(&self) -> &[InstTimeline] {
        &self.slices
    }

    /// The per-cycle stall attribution. Its buckets sum to
    /// [`Self::cycles`] by construction.
    pub fn stall_report(&self) -> StallReport {
        StallReport {
            total_cycles: self.total_cycles,
            buckets: StallCause::ALL
                .iter()
                .map(|c| (c.name(), self.buckets[c.index()]))
                .collect(),
        }
    }

    /// Serializes the windowed trace as Chrome trace-event JSON
    /// (Perfetto-loadable). One simulated cycle maps to 1 µs; retired
    /// instructions become `"X"` complete events on greedily packed
    /// lanes, per-cycle occupancies become `"C"` counter events.
    pub fn chrome_trace_json(&self) -> String {
        // (ts, rank, json) — rank orders same-ts events deterministically.
        let mut events: Vec<(u64, u32, String)> = Vec::new();
        events.push((
            0,
            0,
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"carf-sim pipeline\"}}"
                .into(),
        ));

        let mut slices: Vec<&InstTimeline> = self.slices.iter().collect();
        slices.sort_by_key(|l| (l.dispatched, l.seq));
        // Greedy lane packing: each lane is a tid; an instruction takes
        // the first lane free at its dispatch cycle.
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
            events.push((
                life.dispatched,
                1,
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"{:?}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                     \"pid\":1,\"tid\":{},\"args\":{{\"seq\":{},\"pc\":{},\"issued\":{},\
                     \"executed\":{}}}}}",
                    json_escape(&life.inst.to_string()),
                    life.inst.kind(),
                    life.dispatched,
                    dur,
                    lane + 1,
                    life.seq,
                    life.pc,
                    life.issued,
                    life.executed,
                ),
            ));
        }
        for s in &self.samples {
            events.push((
                s.cycle,
                2,
                format!(
                    "{{\"name\":\"occupancy\",\"ph\":\"C\",\"ts\":{},\"pid\":1,\"tid\":0,\
                     \"args\":{{\"rob\":{},\"iq\":{},\"lsq\":{},\"commits\":{}}}}}",
                    s.cycle, s.rob, s.iq, s.lsq, s.commits
                ),
            ));
        }
        events.sort_by_key(|(ts, rank, _)| (*ts, *rank));

        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, (_, _, ev)) in events.iter().enumerate() {
            out.push_str(ev);
            if i + 1 < events.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("]}\n");
        out
    }

    /// Serializes the counters, stall buckets, and histogram means as one
    /// flat JSON object (no trailing newline).
    pub fn counters_json(&self) -> String {
        let c = &self.counters;
        let mut out = format!(
            "{{\"cycles\":{},\"fetched\":{},\"dispatched\":{},\"issued\":{},\"executed\":{},\
             \"writebacks\":{},\"wb_retries\":{},\"retired\":{},\"squashed\":{},\
             \"long_guard_cycles\":{}",
            self.total_cycles,
            c.fetched,
            c.dispatched,
            c.issued,
            c.executed,
            c.writebacks,
            c.wb_retries,
            c.retired,
            c.squashed,
            c.long_guard_cycles,
        );
        out.push_str(&format!(
            ",\"squash_events\":{{\"mispredict\":{},\"mem_order\":{},\"long_recovery\":{}}}",
            c.squash_events[0], c.squash_events[1], c.squash_events[2]
        ));
        out.push_str(&format!(
            ",\"dispatch_stalls\":{{\"rob\":{},\"pregs\":{},\"lsq\":{},\"iq\":{},\
             \"checkpoints\":{}}}",
            c.dispatch_stalls[0],
            c.dispatch_stalls[1],
            c.dispatch_stalls[2],
            c.dispatch_stalls[3],
            c.dispatch_stalls[4]
        ));
        out.push_str(&format!(
            ",\"wr1\":{{\"simple\":{},\"short\":{},\"long\":{}}}",
            c.wr1_simple, c.wr1_short, c.wr1_long
        ));
        out.push_str(",\"stall_cycles\":{");
        for (i, cause) in StallCause::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", cause.name(), self.buckets[cause.index()]));
        }
        out.push('}');
        out.push_str(&format!(
            ",\"latency_means\":{{\"dispatch_to_issue\":{:.3},\"issue_to_execute\":{:.3},\
             \"execute_to_retire\":{:.3},\"dispatch_to_retire\":{:.3}}}}}",
            self.histograms.dispatch_to_issue.mean(),
            self.histograms.issue_to_execute.mean(),
            self.histograms.execute_to_retire.mean(),
            self.histograms.dispatch_to_retire.mean()
        ));
        out
    }
}

impl Tracer for TraceRecorder {
    fn event(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::Fetch { .. } => self.counters.fetched += 1,
            TraceEvent::Dispatch { cycle, seq, pc, inst, .. } => {
                self.counters.dispatched += 1;
                self.inflight.insert(
                    seq,
                    InstTimeline {
                        seq,
                        pc,
                        inst,
                        dispatched: cycle,
                        issued: 0,
                        executed: 0,
                        committed: 0,
                    },
                );
            }
            TraceEvent::DispatchStall { cause, .. } => {
                self.counters.dispatch_stalls[cause as usize] += 1;
            }
            TraceEvent::Issue { cycle, seq } => {
                self.counters.issued += 1;
                if let Some(life) = self.inflight.get_mut(&seq) {
                    // Replays re-issue: keep the first issue cycle.
                    if life.issued == 0 {
                        life.issued = cycle;
                    }
                }
            }
            TraceEvent::Execute { cycle, seq } => {
                self.counters.executed += 1;
                if let Some(life) = self.inflight.get_mut(&seq) {
                    life.executed = cycle;
                }
            }
            TraceEvent::Writeback { class, .. } => {
                self.counters.writebacks += 1;
                match class {
                    Some(ValueClass::Simple) => self.counters.wr1_simple += 1,
                    Some(ValueClass::Short) => self.counters.wr1_short += 1,
                    Some(ValueClass::Long) => self.counters.wr1_long += 1,
                    None => {}
                }
            }
            TraceEvent::WritebackRetry { .. } => self.counters.wb_retries += 1,
            TraceEvent::Retire { cycle, seq, .. } => {
                self.counters.retired += 1;
                if let Some(mut life) = self.inflight.remove(&seq) {
                    life.committed = cycle;
                    if life.issued > 0 {
                        self.histograms
                            .dispatch_to_issue
                            .record(life.issued.saturating_sub(life.dispatched));
                        if life.executed > 0 {
                            self.histograms
                                .issue_to_execute
                                .record(life.executed.saturating_sub(life.issued));
                            self.histograms
                                .execute_to_retire
                                .record(cycle.saturating_sub(life.executed));
                        }
                    }
                    self.histograms
                        .dispatch_to_retire
                        .record(cycle.saturating_sub(life.dispatched));
                    if self.in_window(life.dispatched) {
                        self.slices.push(life);
                    }
                }
            }
            TraceEvent::Squash { keep_seq, squashed, reason, .. } => {
                self.counters.squashed += squashed;
                self.counters.squash_events[reason as usize] += 1;
                // Drop the flushed tail of in-flight lifetimes.
                self.inflight.split_off(&(keep_seq + 1));
            }
            TraceEvent::LongGuard { .. } => self.counters.long_guard_cycles += 1,
            TraceEvent::Cycle { cycle, commits, cause, rob, iq, lsq } => {
                self.total_cycles += 1;
                self.buckets[cause.index()] += 1;
                if self.in_window(cycle) {
                    self.samples.push(CycleSample { cycle, commits, rob, iq, lsq });
                }
            }
        }
    }
}

/// The per-cycle stall attribution: one count per [`StallCause`], summing
/// to the total simulated cycles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallReport {
    /// Total cycles attributed.
    pub total_cycles: u64,
    buckets: Vec<(&'static str, u64)>,
}

impl StallReport {
    /// The `(name, cycles)` buckets in [`StallCause::ALL`] order.
    pub fn buckets(&self) -> &[(&'static str, u64)] {
        &self.buckets
    }

    /// Sum over all buckets — always equals `total_cycles`.
    pub fn bucket_sum(&self) -> u64 {
        self.buckets.iter().map(|(_, n)| n).sum()
    }
}

impl std::fmt::Display for StallReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{:<18} {:>12} {:>7}", "cycle bucket", "cycles", "share")?;
        for (name, cycles) in &self.buckets {
            let share = if self.total_cycles == 0 {
                0.0
            } else {
                100.0 * *cycles as f64 / self.total_cycles as f64
            };
            writeln!(f, "{name:<18} {cycles:>12} {share:>6.2}%")?;
        }
        writeln!(f, "{:<18} {:>12} {:>7}", "total", self.total_cycles, "100%")
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst() -> Inst {
        Inst { op: carf_isa::Opcode::Addi, rd: 1, rs1: 1, rs2: 0, imm: 1 }
    }

    #[test]
    fn attribution_counts_every_cycle_once() {
        let mut r = TraceRecorder::new();
        for cycle in 1..=10u64 {
            let cause = if cycle % 2 == 0 { StallCause::Commit } else { StallCause::Execute };
            r.event(TraceEvent::Cycle { cycle, commits: 0, cause, rob: 0, iq: 0, lsq: 0 });
        }
        let report = r.stall_report();
        assert_eq!(report.total_cycles, 10);
        assert_eq!(report.bucket_sum(), 10);
        let commit = report.buckets().iter().find(|(n, _)| *n == "commit").unwrap();
        assert_eq!(commit.1, 5);
        assert!(report.to_string().contains("commit"));
    }

    #[test]
    fn lifetimes_feed_histograms_and_slices() {
        let mut r = TraceRecorder::with_window(0, 100);
        r.event(TraceEvent::Dispatch { cycle: 1, seq: 1, pc: 0, inst: inst(), kind: InstKind::IntAlu });
        r.event(TraceEvent::Issue { cycle: 3, seq: 1 });
        r.event(TraceEvent::Execute { cycle: 6, seq: 1 });
        r.event(TraceEvent::Retire { cycle: 9, seq: 1, pc: 0 });
        assert_eq!(r.counters().retired, 1);
        assert_eq!(r.histograms().dispatch_to_issue.count(), 1);
        assert!((r.histograms().dispatch_to_retire.mean() - 8.0).abs() < 1e-12);
        let json = r.chrome_trace_json();
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":8"));
    }

    #[test]
    fn squash_drops_younger_lifetimes_only() {
        let mut r = TraceRecorder::new();
        for seq in 1..=5u64 {
            r.event(TraceEvent::Dispatch {
                cycle: seq,
                seq,
                pc: 0,
                inst: inst(),
                kind: InstKind::IntAlu,
            });
        }
        r.event(TraceEvent::Squash {
            cycle: 6,
            keep_seq: 2,
            squashed: 3,
            reason: SquashReason::Mispredict,
        });
        assert_eq!(r.counters().squashed, 3);
        assert_eq!(r.inflight.len(), 2);
        // Survivors still retire normally.
        r.event(TraceEvent::Retire { cycle: 7, seq: 1, pc: 0 });
        r.event(TraceEvent::Retire { cycle: 7, seq: 2, pc: 0 });
        assert_eq!(r.counters().retired, 2);
        assert!(r.inflight.is_empty());
    }

    #[test]
    fn window_bounds_trace_exports() {
        let mut r = TraceRecorder::with_window(10, 5); // cycles [10, 15)
        for seq in [1u64, 2] {
            let dispatch = if seq == 1 { 2 } else { 12 };
            r.event(TraceEvent::Dispatch {
                cycle: dispatch,
                seq,
                pc: 0,
                inst: inst(),
                kind: InstKind::IntAlu,
            });
            r.event(TraceEvent::Retire { cycle: dispatch + 2, seq, pc: 0 });
        }
        // Only the seq-2 lifetime (dispatched at 12) is in the window.
        assert_eq!(r.slices.len(), 1);
        assert_eq!(r.slices[0].seq, 2);
        // Histograms still cover everything.
        assert_eq!(r.histograms().dispatch_to_retire.count(), 2);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = LatencyHistogram::default();
        for lat in [0u64, 1, 2, 3, 4, 5, 100_000] {
            h.record(lat);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.buckets()[0], 1); // 0
        assert_eq!(h.buckets()[1], 1); // 1
        assert_eq!(h.buckets()[2], 2); // 2, 3
        assert_eq!(h.buckets()[3], 2); // 4, 5
        assert_eq!(h.buckets()[15], 1); // overflow
        assert_eq!(LatencyHistogram::bucket_label(3), "4-7");
        assert_eq!(LatencyHistogram::bucket_label(15), "16384+");
    }

    #[test]
    fn counters_json_is_flat_and_complete() {
        let mut r = TraceRecorder::new();
        r.event(TraceEvent::Writeback { cycle: 1, seq: 1, class: Some(ValueClass::Short) });
        r.event(TraceEvent::Cycle {
            cycle: 1,
            commits: 0,
            cause: StallCause::LongWriteback,
            rob: 1,
            iq: 0,
            lsq: 0,
        });
        let json = r.counters_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"wr1\":{\"simple\":0,\"short\":1,\"long\":0}"));
        assert!(json.contains("\"long_writeback\":1"));
    }
}
