//! Simulation statistics: everything the paper's tables and figures need.

use crate::bpred::BpredStats;
use carf_core::analysis::GroupAccumulator;
use carf_core::{AccessStats, ValueClass};
use carf_mem::HierarchyStats;

/// Source-operand value-type mix over committed instructions that read at
/// least one integer register (paper Table 4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OperandMix {
    /// All integer source operands were simple.
    pub only_simple: u64,
    /// All were short.
    pub only_short: u64,
    /// All were long.
    pub only_long: u64,
    /// Mixed simple and short.
    pub simple_short: u64,
    /// Mixed simple and long.
    pub simple_long: u64,
    /// Mixed short and long.
    pub short_long: u64,
}

impl OperandMix {
    /// Records one committed instruction's integer operand classes.
    pub fn record(&mut self, classes: &[ValueClass]) {
        if classes.is_empty() {
            return;
        }
        let has = |c: ValueClass| classes.contains(&c);
        let (s, sh, l) = (has(ValueClass::Simple), has(ValueClass::Short), has(ValueClass::Long));
        match (s, sh, l) {
            (true, false, false) => self.only_simple += 1,
            (false, true, false) => self.only_short += 1,
            (false, false, true) => self.only_long += 1,
            (true, true, false) => self.simple_short += 1,
            (true, false, true) => self.simple_long += 1,
            (false, true, true) => self.short_long += 1,
            // Three-way mixes are folded into short+long, the rarest bucket
            // the paper reports.
            (true, true, true) => self.short_long += 1,
            (false, false, false) => {}
        }
    }

    /// Instructions recorded.
    pub fn total(&self) -> u64 {
        self.only_simple
            + self.only_short
            + self.only_long
            + self.simple_short
            + self.simple_long
            + self.short_long
    }

    /// The six fractions in the paper's Table 4 row order.
    pub fn fractions(&self) -> [f64; 6] {
        let t = self.total();
        if t == 0 {
            return [0.0; 6];
        }
        [
            self.only_simple as f64 / t as f64,
            self.only_short as f64 / t as f64,
            self.only_long as f64 / t as f64,
            self.simple_short as f64 / t as f64,
            self.simple_long as f64 / t as f64,
            self.short_long as f64 / t as f64,
        ]
    }

    /// Fraction of instructions whose operands were all of one type (the
    /// paper reports over 86%, motivating value-type clustering).
    pub fn same_type_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            return 0.0;
        }
        (self.only_simple + self.only_short + self.only_long) as f64 / t as f64
    }
}

/// Oracle live-value demographics (paper Figures 1 and 2).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OracleData {
    /// Exact-value grouping (Figure 1).
    pub values: GroupAccumulator,
    /// `(64-8)`-similarity grouping (Figure 2a).
    pub sim_d8: GroupAccumulator,
    /// `(64-12)`-similarity grouping (Figure 2b).
    pub sim_d12: GroupAccumulator,
    /// `(64-16)`-similarity grouping (Figure 2c).
    pub sim_d16: GroupAccumulator,
    /// Mean number of live integer values per snapshot.
    pub live_sum: u64,
    /// Snapshots taken.
    pub snapshots: u64,
}

impl OracleData {
    /// Records one snapshot of the live integer values, sorting them in
    /// place so all four groupings read one sorted slice.
    pub fn record(&mut self, live: &mut [u64]) {
        if live.is_empty() {
            return;
        }
        live.sort_unstable();
        self.values.record_sorted(live, 0);
        self.sim_d8.record_sorted(live, 8);
        self.sim_d12.record_sorted(live, 12);
        self.sim_d16.record_sorted(live, 16);
        self.live_sum += live.len() as u64;
        self.snapshots += 1;
    }

    /// Mean live integer registers per snapshot.
    pub fn mean_live(&self) -> f64 {
        if self.snapshots == 0 {
            0.0
        } else {
            self.live_sum as f64 / self.snapshots as f64
        }
    }
}

/// Where dispatch stalled, by cause.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchStalls {
    /// Reorder buffer full.
    pub rob: u64,
    /// No free physical register.
    pub pregs: u64,
    /// Load/store queue full.
    pub lsq: u64,
    /// Issue queue full.
    pub iq: u64,
    /// No branch checkpoint available.
    pub checkpoints: u64,
}

/// Everything measured during one simulation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Committed loads.
    pub loads: u64,
    /// Committed stores.
    pub stores: u64,
    /// Committed conditional branches.
    pub branches: u64,
    /// Committed FP arithmetic operations.
    pub fp_ops: u64,
    /// Instructions fetched (including wrong path).
    pub fetched: u64,
    /// Instructions squashed by recovery.
    pub squashed: u64,
    /// Branch mispredict recoveries.
    pub mispredicts: u64,
    /// Long-file pseudo-deadlock recoveries (should be ~0 with the guard).
    pub deadlock_recoveries: u64,
    /// Cycles issue was stalled by the Long-file guard.
    pub long_guard_stall_cycles: u64,
    /// Source operands supplied by the bypass network.
    pub bypassed_operands: u64,
    /// Source operands read from the register files.
    pub rf_operands: u64,
    /// Source operands satisfied by the hardwired zero register.
    pub zero_operands: u64,
    /// Write-back retries due to a full Long file.
    pub wb_long_retries: u64,
    /// Issue-queue replays caused by load-hit misspeculation.
    pub load_replays: u64,
    /// Memory-dependence violations (optimistic policy only): a store
    /// resolved over a younger already-performed load, forcing a squash.
    pub mem_dep_violations: u64,
    /// Dispatch stall causes.
    pub dispatch_stalls: DispatchStalls,
    /// Table 4 operand mix.
    pub operand_mix: OperandMix,
    /// Oracle demographics (when enabled).
    pub oracle: OracleData,
    /// Branch predictor counters (copied at end of run).
    pub bpred: BpredStats,
    /// Cache hierarchy counters (copied at end of run).
    pub mem: HierarchyStats,
    /// Integer register-file access counters (copied at end of run).
    pub int_rf: AccessStats,
    /// FP register-file access counters (copied at end of run).
    pub fp_rf: AccessStats,
    /// Mean live Long entries (content-aware runs).
    pub long_mean_live: f64,
    /// Peak live Long entries.
    pub long_peak_live: usize,
    /// Mean Short-file occupancy.
    pub short_mean_occupancy: f64,
    /// Sampled Long-file occupancy histogram (`hist[i]` = samples with `i`
    /// live entries; content-aware runs only).
    pub long_occupancy_hist: Vec<u64>,
    /// Committed instructions whose integer result class equaled one of
    /// their integer source classes (paper §6: "the result operand is
    /// typically of the same value type as the source operands").
    pub dest_class_matches: u64,
    /// Committed instructions with an integer destination and at least one
    /// integer register source (denominator for the above).
    pub dest_class_total: u64,
    /// Store-to-load forwards.
    pub stl_forwards: u64,
    /// Integer read-port arbitration denials at issue (the instruction
    /// retries next cycle; port-reduced organizations make this visible).
    pub rf_read_port_denials: u64,
    /// Integer functional-unit acquisition denials (structural pressure).
    pub int_fu_denials: u64,
    /// FP functional-unit acquisition denials.
    pub fp_fu_denials: u64,
    /// Load disambiguation wait events in the LSQ.
    pub lsq_wait_events: u64,
    /// Highest LSQ occupancy reached.
    pub lsq_peak: usize,
}

impl SimStats {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Fraction of committed results that shared a value type with one of
    /// their sources (1.0 when nothing qualified).
    pub fn dest_class_match_fraction(&self) -> f64 {
        if self.dest_class_total == 0 {
            0.0
        } else {
            self.dest_class_matches as f64 / self.dest_class_total as f64
        }
    }

    /// Fraction of register source operands that came from bypass rather
    /// than a register-file read (paper Table 2 — zero-register operands
    /// are excluded, as they require neither).
    pub fn bypass_fraction(&self) -> f64 {
        let total = self.bypassed_operands + self.rf_operands;
        if total == 0 {
            0.0
        } else {
            self.bypassed_operands as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operand_mix_buckets() {
        let mut m = OperandMix::default();
        m.record(&[ValueClass::Simple, ValueClass::Simple]);
        m.record(&[ValueClass::Simple]);
        m.record(&[ValueClass::Short, ValueClass::Short]);
        m.record(&[ValueClass::Long]);
        m.record(&[ValueClass::Simple, ValueClass::Short]);
        m.record(&[ValueClass::Simple, ValueClass::Long]);
        m.record(&[ValueClass::Short, ValueClass::Long]);
        m.record(&[]); // no integer operands: not counted
        assert_eq!(m.total(), 7);
        assert_eq!(m.only_simple, 2);
        assert_eq!(m.only_short, 1);
        assert_eq!(m.only_long, 1);
        assert_eq!(m.simple_short, 1);
        assert_eq!(m.simple_long, 1);
        assert_eq!(m.short_long, 1);
        let f = m.fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((m.same_type_fraction() - 4.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn ipc_and_bypass_fraction() {
        let s = SimStats {
            cycles: 100,
            committed: 250,
            bypassed_operands: 30,
            rf_operands: 70,
            zero_operands: 1000, // must not affect the fraction
            ..Default::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-12);
        assert!((s.bypass_fraction() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.bypass_fraction(), 0.0);
        assert_eq!(s.operand_mix.fractions(), [0.0; 6]);
    }

    #[test]
    fn oracle_records_mean_live() {
        let mut o = OracleData::default();
        o.record(&mut [4, 3, 2, 1]);
        o.record(&mut [5, 6]);
        assert_eq!(o.snapshots, 2);
        assert!((o.mean_live() - 3.0).abs() < 1e-12);
        o.record(&mut []); // ignored
        assert_eq!(o.snapshots, 2);
    }
}
