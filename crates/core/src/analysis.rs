//! Oracle analysis of live-value populations (paper Figures 1 and 2).
//!
//! The paper uses "an oracle that each cycle grouped and counted all live
//! values in integer registers": group the live values (exactly for
//! Figure 1, by their high `64-d` bits for Figure 2), rank the groups by
//! population, and attribute each live register to the rank bucket of its
//! group. The buckets are Group 1, Group 2, Groups 3–4, Groups 5–8,
//! Groups 9–16, and REST.
//!
//! A snapshot is grouped from its values sorted ascending. `v >> d` is
//! monotone in `v`, so every group is one run of equal keys in the sorted
//! slice, and every grouping of one snapshot reads the same sorted slice
//! in one run-length pass. Only the 16 largest runs need a rank: every
//! later rank is REST, whose population is the snapshot's size minus
//! theirs. Recording a sorted snapshot
//! ([`GroupAccumulator::record_sorted`]) therefore neither allocates nor
//! hashes.

/// Number of rank buckets.
pub const NUM_GROUPS: usize = 6;

/// Number of ranks with a bucket of their own; every rank from here on is
/// REST.
const RANKED: usize = 16;

/// Human-readable bucket labels in paper order.
pub const GROUP_LABELS: [&str; NUM_GROUPS] =
    ["Group 1", "Group 2", "Group 3..4", "Group 5..8", "Group 9..16", "REST"];

/// The rank bucket for the group with 0-based popularity rank `rank`.
pub fn bucket_for_rank(rank: usize) -> usize {
    match rank {
        0 => 0,
        1 => 1,
        2..=3 => 2,
        4..=7 => 3,
        8..=15 => 4,
        _ => 5,
    }
}

/// Accumulates rank-bucket populations over many oracle snapshots.
///
/// # Example
///
/// ```
/// use carf_core::analysis::GroupAccumulator;
///
/// let mut acc = GroupAccumulator::new();
/// // Five live registers: three hold 7, one holds 9, one holds 12.
/// acc.record_values(&[7, 7, 7, 9, 12]);
/// let f = acc.fractions();
/// assert!((f[0] - 0.6).abs() < 1e-12); // Group 1 = the value 7
/// assert!((f[1] - 0.2).abs() < 1e-12); // Group 2
/// assert!((f[2] - 0.2).abs() < 1e-12); // Groups 3..4
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GroupAccumulator {
    totals: [u64; NUM_GROUPS],
    live_total: u64,
    snapshots: u64,
}

impl GroupAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one snapshot, grouping live registers by exact value
    /// (Figure 1). Sorts a copy of `live`; see
    /// [`GroupAccumulator::record_sorted`].
    pub fn record_values(&mut self, live: &[u64]) {
        self.record_similarity(live, 0);
    }

    /// Records one snapshot, grouping live registers by their high `64-d`
    /// bits (Figure 2's `(64-d)`-similarity). Sorts a copy of `live`; see
    /// [`GroupAccumulator::record_sorted`].
    pub fn record_similarity(&mut self, live: &[u64], d: u32) {
        let mut sorted = live.to_vec();
        sorted.sort_unstable();
        self.record_sorted(&sorted, d);
    }

    /// Records one snapshot of live values sorted ascending, grouping them
    /// by their high `64-d` bits: `d = 0` groups exact values, and
    /// `d >= 64` puts every value in one group. An empty snapshot is not
    /// recorded.
    pub fn record_sorted(&mut self, sorted: &[u64], d: u32) {
        debug_assert!(sorted.is_sorted(), "record_sorted needs ascending values");
        if sorted.is_empty() {
            return;
        }
        let key = |v: u64| v.checked_shr(d).unwrap_or(0);
        // The RANKED largest group sizes, descending; unused slots stay 0.
        let mut top = [0u64; RANKED];
        for run in sorted.chunk_by(|a, b| key(*a) == key(*b)) {
            let size = run.len() as u64;
            if size <= top[RANKED - 1] {
                continue;
            }
            let mut rank = RANKED - 1;
            while rank > 0 && top[rank - 1] < size {
                top[rank] = top[rank - 1];
                rank -= 1;
            }
            top[rank] = size;
        }
        let n = sorted.len() as u64;
        let mut ranked = 0;
        for (rank, size) in top.into_iter().enumerate() {
            self.totals[bucket_for_rank(rank)] += size;
            ranked += size;
        }
        self.totals[bucket_for_rank(RANKED)] += n - ranked;
        self.live_total += n;
        self.snapshots += 1;
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &GroupAccumulator) {
        for (a, b) in self.totals.iter_mut().zip(other.totals.iter()) {
            *a += b;
        }
        self.live_total += other.live_total;
        self.snapshots += other.snapshots;
    }

    /// Number of snapshots recorded.
    pub fn snapshots(&self) -> u64 {
        self.snapshots
    }

    /// The raw accumulator state `(bucket totals, live registers counted,
    /// snapshots)`, for exact serialization (the result cache stores and
    /// restores accumulators losslessly).
    pub fn raw_parts(&self) -> ([u64; NUM_GROUPS], u64, u64) {
        (self.totals, self.live_total, self.snapshots)
    }

    /// Rebuilds an accumulator from [`GroupAccumulator::raw_parts`] output.
    pub fn from_raw_parts(totals: [u64; NUM_GROUPS], live_total: u64, snapshots: u64) -> Self {
        Self { totals, live_total, snapshots }
    }

    /// Fraction of live registers in each bucket (sums to 1 when any
    /// snapshot was recorded).
    pub fn fractions(&self) -> [f64; NUM_GROUPS] {
        let mut out = [0.0; NUM_GROUPS];
        if self.live_total == 0 {
            return out;
        }
        for (o, t) in out.iter_mut().zip(self.totals.iter()) {
            *o = *t as f64 / self.live_total as f64;
        }
        out
    }

    /// A one-line report: `label pct, label pct, ...`.
    pub fn report(&self) -> String {
        self.fractions()
            .iter()
            .zip(GROUP_LABELS.iter())
            .map(|(frac, label)| format!("{label}: {:.1}%", frac * 100.0))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_for_rank(0), 0);
        assert_eq!(bucket_for_rank(1), 1);
        assert_eq!(bucket_for_rank(2), 2);
        assert_eq!(bucket_for_rank(3), 2);
        assert_eq!(bucket_for_rank(4), 3);
        assert_eq!(bucket_for_rank(7), 3);
        assert_eq!(bucket_for_rank(8), 4);
        assert_eq!(bucket_for_rank(15), 4);
        assert_eq!(bucket_for_rank(16), 5);
        assert_eq!(bucket_for_rank(1000), 5);
    }

    #[test]
    fn uniform_population_spreads_over_buckets() {
        let mut acc = GroupAccumulator::new();
        // 20 distinct values: one per group; buckets get 1,1,2,4,8,4.
        let live: Vec<u64> = (0..20).collect();
        acc.record_values(&live);
        let f = acc.fractions();
        assert!((f[0] - 1.0 / 20.0).abs() < 1e-12);
        assert!((f[2] - 2.0 / 20.0).abs() < 1e-12);
        assert!((f[4] - 8.0 / 20.0).abs() < 1e-12);
        assert!((f[5] - 4.0 / 20.0).abs() < 1e-12);
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn similarity_grouping_collapses_nearby_values() {
        let mut acc = GroupAccumulator::new();
        // Four addresses in one 2^16-aligned region + one outlier.
        let base = 0x0000_7f3a_8000_0000u64;
        acc.record_similarity(&[base, base + 4, base + 0xfff8, base + 0x100, 0x1], 16);
        let f = acc.fractions();
        assert!((f[0] - 0.8).abs() < 1e-12);
        assert!((f[1] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn exact_grouping_does_not_collapse_nearby_values() {
        let mut acc = GroupAccumulator::new();
        let base = 0x0000_7f3a_8000_0000u64;
        acc.record_values(&[base, base + 4, base + 8, base + 12]);
        let f = acc.fractions();
        // Four distinct values: ranks 0..3 → buckets 0,1,2,2.
        assert!((f[0] - 0.25).abs() < 1e-12);
        assert!((f[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn snapshots_accumulate_and_merge() {
        let mut a = GroupAccumulator::new();
        a.record_values(&[1, 1]);
        let mut b = GroupAccumulator::new();
        b.record_values(&[2, 3]);
        a.merge(&b);
        assert_eq!(a.snapshots(), 2);
        let f = a.fractions();
        // 2 of 4 live registers in Group 1 snapshots-combined: value 1 twice
        // (group1 of snap A), values 2 and 3 split 1/1 in snap B.
        assert!((f[0] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_snapshot_is_ignored() {
        let mut acc = GroupAccumulator::new();
        acc.record_values(&[]);
        assert_eq!(acc.snapshots(), 0);
        assert_eq!(acc.fractions(), [0.0; NUM_GROUPS]);
    }

    #[test]
    fn report_mentions_all_labels() {
        let mut acc = GroupAccumulator::new();
        acc.record_values(&[5, 5, 6]);
        let r = acc.report();
        for label in GROUP_LABELS {
            assert!(r.contains(label), "{r}");
        }
    }

    #[test]
    fn raw_parts_round_trip_exactly() {
        let mut acc = GroupAccumulator::new();
        acc.record_values(&[7, 7, 9, 12]);
        acc.record_similarity(&[1 << 40, (1 << 40) + 4], 16);
        let (totals, live, snaps) = acc.raw_parts();
        assert_eq!(GroupAccumulator::from_raw_parts(totals, live, snaps), acc);
    }

    #[test]
    fn d_64_degenerates_to_one_group() {
        let mut acc = GroupAccumulator::new();
        acc.record_similarity(&[1, 2, u64::MAX], 64);
        let f = acc.fractions();
        assert!((f[0] - 1.0).abs() < 1e-12);
    }
}
