//! Zero-cost-when-off pipeline observability.
//!
//! The simulator is generic over a [`Tracer`]. The default [`NopTracer`]
//! sets `ENABLED = false`, and every hook in the pipeline is guarded by
//! `if T::ENABLED { ... }` — a compile-time constant, so the monomorphized
//! no-op simulator contains no tracing code at all and the hot loop stays
//! allocation-free. Installing a [`TraceRecorder`] (via
//! [`Simulator::with_tracer`](crate::Simulator::with_tracer)) turns the
//! same hooks into structured [`TraceEvent`]s, which carry timing only and
//! which the recorder folds into:
//!
//! * a per-cycle **stall attribution**: every simulated cycle is charged
//!   to exactly one [`StallCause`] bucket (decided by the state of the
//!   ROB head right after commit), so the buckets always sum to the
//!   total cycle count — see [`StallReport`];
//! * **per-instruction lifetimes** (dispatch → issue → execute → retire)
//!   and mean **stage latencies**;
//! * per-cycle occupancy **samples** of a bounded cycle window.
//!
//! Counts that every run needs — fetches, writebacks and their WR1
//! type-determination outcomes, Long-file writeback retries, issue-guard
//! cycles, squashes and dispatch stalls — live in [`crate::SimStats`],
//! which every run keeps with or without a tracer; the events do not
//! repeat them.
//!
//! The recorder holds no JSON: `carf_bench::trace` exports the windowed
//! lifetimes and samples as a Chrome trace (loadable in Perfetto or
//! `chrome://tracing`) and, with the run's `SimStats`, the counters as a
//! flat results record.

use std::collections::BTreeMap;

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

/// The mean of a stream of latencies, in cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyMean {
    count: u64,
    sum: u64,
}

impl LatencyMean {
    fn record(&mut self, latency: u64) {
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
}

/// Per-stage mean latencies over retired instructions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageLatencies {
    /// Dispatch → issue (queue wait). Only instructions that issued.
    pub dispatch_to_issue: LatencyMean,
    /// Issue → execute (read + execute latency).
    pub issue_to_execute: LatencyMean,
    /// Execute → retire (writeback + commit wait).
    pub execute_to_retire: LatencyMean,
    /// Dispatch → retire (whole in-window lifetime).
    pub dispatch_to_retire: LatencyMean,
}

/// The event counts only the tracer sees; every other count is in
/// [`crate::SimStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCounters {
    /// Instructions dispatched into the ROB.
    pub dispatched: u64,
    /// Issue selections.
    pub issued: u64,
    /// Execution completions.
    pub executed: u64,
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

/// The pipeline occupancy at the end of one cycle inside the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleSample {
    /// The cycle.
    pub cycle: u64,
    /// Instructions retired in it.
    pub commits: u64,
    /// ROB entries in use.
    pub rob: u32,
    /// Issue-queue entries in use.
    pub iq: u32,
    /// Load/store-queue entries in use.
    pub lsq: u32,
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
    latencies: StageLatencies,
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
    /// latencies always cover the whole run regardless of the window.
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
            latencies: StageLatencies::default(),
        }
    }

    fn in_window(&self, cycle: u64) -> bool {
        cycle >= self.window_start && cycle < self.window_end
    }

    /// The per-cycle occupancy samples inside the window, in cycle order.
    pub fn samples(&self) -> &[CycleSample] {
        &self.samples
    }

    /// Total cycles observed.
    pub fn cycles(&self) -> u64 {
        self.total_cycles
    }

    /// The dispatch, issue and execute counts.
    pub fn counters(&self) -> &TraceCounters {
        &self.counters
    }

    /// The mean stage latencies over retired instructions.
    pub fn latencies(&self) -> &StageLatencies {
        &self.latencies
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
}

impl Tracer for TraceRecorder {
    fn event(&mut self, event: TraceEvent) {
        match event {
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
            TraceEvent::Retire { cycle, seq, .. } => {
                if let Some(mut life) = self.inflight.remove(&seq) {
                    life.committed = cycle;
                    if life.issued > 0 {
                        self.latencies
                            .dispatch_to_issue
                            .record(life.issued.saturating_sub(life.dispatched));
                        if life.executed > 0 {
                            self.latencies
                                .issue_to_execute
                                .record(life.executed.saturating_sub(life.issued));
                            self.latencies
                                .execute_to_retire
                                .record(cycle.saturating_sub(life.executed));
                        }
                    }
                    self.latencies
                        .dispatch_to_retire
                        .record(cycle.saturating_sub(life.dispatched));
                    if self.in_window(life.dispatched) {
                        self.slices.push(life);
                    }
                }
            }
            TraceEvent::Squash { keep_seq, .. } => {
                // Drop the flushed tail of in-flight lifetimes.
                self.inflight.split_off(&(keep_seq + 1));
            }
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
        let c = r.counters();
        assert_eq!((c.dispatched, c.issued, c.executed), (1, 1, 1));
        assert_eq!(r.latencies().dispatch_to_issue.count(), 1);
        assert!((r.latencies().dispatch_to_retire.mean() - 8.0).abs() < 1e-12);
        let life = r.lifetimes()[0];
        assert_eq!((life.dispatched, life.issued, life.executed, life.committed), (1, 3, 6, 9));
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
        r.event(TraceEvent::Squash { cycle: 6, keep_seq: 2 });
        assert_eq!(r.inflight.len(), 2);
        // Survivors still retire normally.
        r.event(TraceEvent::Retire { cycle: 7, seq: 1, pc: 0 });
        r.event(TraceEvent::Retire { cycle: 7, seq: 2, pc: 0 });
        assert_eq!(r.lifetimes().len(), 2);
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
        // Latencies still cover everything.
        assert_eq!(r.latencies().dispatch_to_retire.count(), 2);
    }
}
