//! Property-based tests of the content-aware register file's invariants.

use carf_core::analysis::{bucket_for_rank, GroupAccumulator, NUM_GROUPS};
use carf_core::{
    classify, is_simple, reconstruct_long, reconstruct_short, split_long, split_short,
    AccessStats, CarfParams, CompressedRegFile, ContentAwareRegFile, IntRegFile, LongFile,
    LongFileFull, Policies, ShortFile, ShortIndexPolicy, SimpleFile, SubfileOccupancy, ValueClass,
};
use proptest::prelude::*;
use std::collections::HashMap;

/// Arbitrary valid geometry across the paper's sweep range.
fn arb_params() -> impl Strategy<Value = CarfParams> {
    (5u32..=29, 0u32..=5, 1usize..=64, 33usize..=128).prop_map(|(d, n_exp, longs, simples)| {
        CarfParams {
            d,
            short_entries: 1 << n_exp,
            long_entries: longs,
            simple_entries: simples,
        }
    })
    .prop_filter("valid geometry", |p| p.validate().is_ok())
}

/// A value mixture biased toward the interesting classification regions.
fn arb_value() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..=0xFFFF,                             // small positive
        Just(u64::MAX),                            // -1
        (0i64..=0xFFFF).prop_map(|v| (-v) as u64), // small negative
        (0u64..=0xFFFF).prop_map(|v| 0x0000_7f3a_8000_0000 | v), // heap-like
        any::<u64>(),                              // anything
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn short_split_reconstruct_is_identity(params in arb_params(), v in any::<u64>()) {
        let (hi, lo) = split_short(&params, v);
        prop_assert_eq!(reconstruct_short(&params, hi, lo), v);
        // The stored high part fits in the Short entry width.
        prop_assert!(u128::from(hi) < (1u128 << params.short_width()));
    }

    #[test]
    fn long_split_reconstruct_is_identity(params in arb_params(), v in any::<u64>()) {
        let (hi, lo) = split_long(&params, v);
        prop_assert_eq!(reconstruct_long(&params, hi, lo), v);
        prop_assert!(u128::from(hi) < (1u128 << params.long_width()));
        prop_assert!(u128::from(lo) < (1u128 << (params.dn() - params.m())));
    }

    #[test]
    fn simple_values_are_exactly_the_sign_extensions(params in arb_params(), v in arb_value()) {
        let dn = params.dn();
        let truncated = ((v as i64) << (64 - dn)) >> (64 - dn);
        prop_assert_eq!(is_simple(&params, v), truncated as u64 == v);
    }

    #[test]
    fn classification_is_exhaustive_and_ordered(params in arb_params(), v in arb_value(), hit: bool) {
        let class = classify(&params, v, hit);
        match class {
            ValueClass::Simple => prop_assert!(is_simple(&params, v)),
            ValueClass::Short => {
                prop_assert!(!is_simple(&params, v));
                prop_assert!(hit);
            }
            ValueClass::Long => prop_assert!(!is_simple(&params, v)),
        }
    }

    #[test]
    fn regfile_reads_back_what_was_written(
        params in arb_params(),
        values in proptest::collection::vec(arb_value(), 1..40),
    ) {
        let mut rf = ContentAwareRegFile::new(params);
        let tags = rf.num_tags();
        let mut live: Vec<(usize, u64)> = Vec::new();
        for (i, v) in values.iter().enumerate() {
            let tag = i % tags;
            if let Some(pos) = live.iter().position(|(t, _)| *t == tag) {
                let (_, expected) = live.remove(pos);
                prop_assert_eq!(rf.read(tag), expected);
                rf.release(tag);
            }
            rf.on_alloc(tag);
            match rf.try_write(tag, *v, i % 3 == 0) {
                Ok(_) => live.push((tag, *v)),
                Err(_) => rf.release(tag), // long file full: give the tag back
            }
        }
        for (tag, expected) in live {
            prop_assert_eq!(rf.read(tag), expected);
        }
    }

    #[test]
    fn associative_and_direct_policies_agree_on_values(
        values in proptest::collection::vec(arb_value(), 1..30),
    ) {
        let params = CarfParams::paper_default();
        let mut direct = ContentAwareRegFile::new(params);
        let mut assoc = ContentAwareRegFile::with_policies(
            params,
            Policies { short_index: ShortIndexPolicy::Associative, ..Policies::default() },
        );
        for (i, v) in values.iter().enumerate() {
            let tag = i % 64;
            for rf in [&mut direct, &mut assoc] {
                if rf.class_of(tag).is_some() {
                    rf.release(tag);
                }
                rf.on_alloc(tag);
                if rf.try_write(tag, *v, true).is_ok() {
                    // Whatever the classification, the value is identical.
                    prop_assert_eq!(rf.read(tag), *v);
                } else {
                    rf.release(tag);
                }
            }
        }
    }

    #[test]
    fn aging_ticks_never_disturb_live_values(
        params in arb_params(),
        values in proptest::collection::vec(arb_value(), 1..24),
        tick_every in 1usize..6,
    ) {
        let mut rf = ContentAwareRegFile::new(params);
        let tags = rf.num_tags();
        let mut live: Vec<(usize, u64)> = Vec::new();
        for (i, v) in values.iter().enumerate() {
            rf.observe_address(*v);
            let tag = i % tags;
            if let Some(pos) = live.iter().position(|(t, _)| *t == tag) {
                live.remove(pos);
                rf.release(tag);
            }
            rf.on_alloc(tag);
            if rf.try_write(tag, *v, true).is_ok() {
                live.push((tag, *v));
            } else {
                rf.release(tag);
            }
            if i % tick_every == 0 {
                rf.rob_interval_tick();
            }
            for (t, expected) in &live {
                prop_assert_eq!(rf.read(*t), *expected, "after tick at step {}", i);
            }
        }
    }

    #[test]
    fn stats_counts_match_operations(
        values in proptest::collection::vec(arb_value(), 1..32),
    ) {
        let params = CarfParams::paper_default();
        let mut rf = ContentAwareRegFile::new(params);
        let mut ok_writes = 0u64;
        let mut reads = 0u64;
        for (i, v) in values.iter().enumerate() {
            let tag = i % 96;
            if rf.class_of(tag).is_some() {
                rf.release(tag);
            }
            rf.on_alloc(tag);
            if rf.try_write(tag, *v, false).is_ok() {
                ok_writes += 1;
                let _ = rf.read(tag);
                reads += 1;
            } else {
                rf.release(tag);
            }
        }
        prop_assert_eq!(rf.stats().total_writes, ok_writes);
        prop_assert_eq!(rf.stats().total_reads, reads);
        prop_assert_eq!(rf.stats().writes.total(), ok_writes);
        prop_assert_eq!(rf.stats().reads.total(), reads);
    }
}

/// The oracle grouping before it sorted, kept as the reference model:
/// count each key `v >> d` in a `HashMap`, rank the group sizes
/// descending, and add each size to its rank's bucket.
fn reference_grouping(snapshots: &[Vec<u64>], d: u32) -> GroupAccumulator {
    let mut totals = [0u64; NUM_GROUPS];
    let (mut live, mut recorded) = (0u64, 0u64);
    for snapshot in snapshots.iter().filter(|s| !s.is_empty()) {
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for v in snapshot {
            *counts.entry(if d >= 64 { 0 } else { v >> d }).or_insert(0) += 1;
        }
        let mut sizes: Vec<u64> = counts.into_values().collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        for (rank, size) in sizes.into_iter().enumerate() {
            totals[bucket_for_rank(rank)] += size;
        }
        live += snapshot.len() as u64;
        recorded += 1;
    }
    GroupAccumulator::from_raw_parts(totals, live, recorded)
}

/// Live values with heavy ties at every grouping width and, in a snapshot
/// of more than a few dozen values, more than 16 groups.
fn arb_live_value() -> impl Strategy<Value = u64> {
    prop_oneof![
        // A few hot small values.
        0u64..6,
        // 40 values, 5 groups at d = 12.
        (0u64..40).prop_map(|k| k << 9),
        // 32 heap-like regions.
        (0u64..32, 0u64..0x1000).prop_map(|(k, lo)| (k << 36) | lo),
        // Distinct at every d < 64.
        any::<u64>(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn sorted_grouping_matches_the_hashmap_reference(
        snapshots in proptest::collection::vec(
            proptest::collection::vec(arb_live_value(), 0..131),
            1..10,
        ),
    ) {
        for d in [0, 8, 12, 16, 63, 64] {
            let mut acc = GroupAccumulator::new();
            for snapshot in &snapshots {
                acc.record_similarity(snapshot, d);
            }
            prop_assert_eq!(acc.raw_parts(), reference_grouping(&snapshots, d).raw_parts());
        }
    }
}

/// The statically-compressed file as it was written before it ran the
/// content-aware file's code, kept as the reference model: a narrow bank,
/// a high-bit dictionary trained by every result, and an overflow bank
/// that stores incompressible values whole, with a one-stage pipeline and
/// an issue guard at 8 free overflow entries.
#[derive(Debug, Clone)]
struct ReferenceCompressed {
    params: CarfParams,
    narrow: SimpleFile,
    dict: ShortFile,
    overflow: LongFile,
    dict_ptr: Vec<Option<u32>>,
    over_ptr: Vec<Option<u32>>,
    stats: AccessStats,
    dict_occupancy_sum: u64,
    occupancy_samples: u64,
}

impl ReferenceCompressed {
    fn new(params: CarfParams) -> Self {
        params.validate().expect("invalid compressed-file parameters");
        Self {
            narrow: SimpleFile::new(params.simple_entries),
            dict: ShortFile::new(&params),
            overflow: LongFile::new(params.long_entries),
            dict_ptr: vec![None; params.simple_entries],
            over_ptr: vec![None; params.simple_entries],
            params,
            stats: AccessStats::new(),
            dict_occupancy_sum: 0,
            occupancy_samples: 0,
        }
    }

    fn reconstruct(&self, tag: usize) -> u64 {
        let entry = self.narrow.read(tag);
        match entry.rd.expect("register read before write") {
            ValueClass::Simple => {
                let shift = 64 - self.params.dn();
                (((entry.value << shift) as i64) >> shift) as u64
            }
            ValueClass::Short => {
                let idx = self.dict_ptr[tag].expect("short value without dictionary slot") as usize;
                reconstruct_short(&self.params, self.dict.slot(idx).high, entry.value)
            }
            ValueClass::Long => {
                let idx = self.over_ptr[tag].expect("long value without overflow slot") as usize;
                self.overflow.read(idx)
            }
        }
    }
}

impl IntRegFile for ReferenceCompressed {
    fn num_tags(&self) -> usize {
        self.params.simple_entries
    }

    fn on_alloc(&mut self, tag: usize) {
        self.narrow.clear(tag);
        assert!(self.over_ptr[tag].is_none(), "tag {tag} reallocated while holding an overflow entry");
        self.dict_ptr[tag] = None;
        self.over_ptr[tag] = None;
    }

    fn try_write(
        &mut self,
        tag: usize,
        value: u64,
        _from_address_op: bool,
    ) -> Result<Option<ValueClass>, LongFileFull> {
        let class = match classify(&self.params, value, self.dict.probe(&self.params, value).is_some()) {
            ValueClass::Simple => ValueClass::Simple,
            ValueClass::Short => {
                let idx = self.dict.probe(&self.params, value).expect("probe hit vanished");
                self.dict.mark_used(idx);
                self.dict_ptr[tag] = Some(idx as u32);
                ValueClass::Short
            }
            ValueClass::Long => match self.dict.try_alloc(&self.params, value) {
                Some(idx) => {
                    self.dict_ptr[tag] = Some(idx as u32);
                    ValueClass::Short
                }
                None => ValueClass::Long,
            },
        };
        match class {
            ValueClass::Simple => {
                self.narrow.write(tag, class, value & self.params.value_field_mask());
            }
            ValueClass::Short => {
                self.narrow.write(tag, class, split_short(&self.params, value).1);
            }
            ValueClass::Long => {
                let idx = match self.overflow.alloc(value) {
                    Ok(idx) => idx,
                    Err(full) => {
                        self.stats.long_write_stalls += 1;
                        return Err(full);
                    }
                };
                self.over_ptr[tag] = Some(idx as u32);
                self.narrow.write(tag, class, 0);
            }
        }
        self.stats.writes.bump(class);
        self.stats.total_writes += 1;
        Ok(Some(class))
    }

    fn read(&mut self, tag: usize) -> u64 {
        let value = self.reconstruct(tag);
        let class = self.narrow.read(tag).rd.expect("register read before write");
        self.stats.reads.bump(class);
        self.stats.total_reads += 1;
        value
    }

    fn peek(&self, tag: usize) -> Option<u64> {
        self.narrow.read(tag).rd.map(|_| self.reconstruct(tag))
    }

    fn class_of(&self, tag: usize) -> Option<ValueClass> {
        self.narrow.read(tag).rd
    }

    fn release(&mut self, tag: usize) {
        if let Some(idx) = self.over_ptr[tag].take() {
            self.overflow.release(idx as usize);
        }
        self.dict_ptr[tag] = None;
        self.narrow.clear(tag);
    }

    fn observe_address(&mut self, _addr: u64) {}

    fn rob_interval_tick(&mut self) {
        let refs: Vec<usize> = self
            .dict_ptr
            .iter()
            .enumerate()
            .filter(|(tag, p)| p.is_some() && self.narrow.read(*tag).rd == Some(ValueClass::Short))
            .filter_map(|(_, p)| p.map(|i| i as usize))
            .collect();
        self.dict.rob_interval_tick(refs);
    }

    fn should_stall_issue(&self) -> bool {
        self.overflow.free_count() <= 8
    }

    fn read_stages(&self) -> u32 {
        1
    }

    fn writeback_stages(&self) -> u32 {
        1
    }

    fn extra_bypass_level(&self) -> bool {
        false
    }

    fn sample_occupancy(&mut self) {
        self.overflow.sample_occupancy();
        self.dict_occupancy_sum += self.dict.occupancy() as u64;
        self.occupancy_samples += 1;
        self.stats.short_allocs = self.dict.allocations();
        self.stats.short_alloc_rejects = self.dict.rejected_allocations();
        self.stats.short_reclaims = self.dict.reclaims();
        self.stats.long_allocs = self.overflow.allocations();
        self.stats.long_releases = self.overflow.releases();
    }

    fn stats(&self) -> &AccessStats {
        &self.stats
    }

    fn stats_mut(&mut self) -> &mut AccessStats {
        &mut self.stats
    }

    fn carf_params(&self) -> Option<&CarfParams> {
        Some(&self.params)
    }

    fn set_long_capacity_limit(&mut self, limit: usize) {
        self.overflow.set_capacity_limit(limit);
    }

    fn long_live_count(&self) -> usize {
        self.overflow.live_count()
    }

    fn mean_short_occupancy(&self) -> f64 {
        if self.occupancy_samples == 0 {
            0.0
        } else {
            self.dict_occupancy_sum as f64 / self.occupancy_samples as f64
        }
    }

    fn occupancy_report(&self) -> Option<SubfileOccupancy> {
        Some(SubfileOccupancy {
            long_mean_live: self.overflow.mean_live(),
            long_peak_live: self.overflow.peak_live(),
            short_mean_occupancy: self.mean_short_occupancy(),
            long_occupancy_hist: self.overflow.occupancy_histogram().to_vec(),
        })
    }

    fn classify_value(&self, value: u64, _from_address_op: bool) -> Option<ValueClass> {
        Some(classify(&self.params, value, self.dict.probe(&self.params, value).is_some()))
    }
}

/// One step of a register-file driver: the operation code picks what
/// happens to the tag (taken modulo the file's tags) and the value.
fn arb_step() -> impl Strategy<Value = (u8, usize, u64, bool)> {
    (0u8..8, 0usize..128, arb_value(), any::<bool>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn compressed_file_matches_the_reference_model(
        params in arb_params(),
        steps in proptest::collection::vec(arb_step(), 1..400),
    ) {
        let mut new = CompressedRegFile::new(params);
        let mut old = ReferenceCompressed::new(params);
        prop_assert_eq!(new.num_tags(), old.num_tags());
        prop_assert_eq!(new.carf_params(), old.carf_params());
        prop_assert_eq!(new.carf_policies(), old.carf_policies());
        prop_assert_eq!(new.read_stages(), old.read_stages());
        prop_assert_eq!(new.writeback_stages(), old.writeback_stages());
        prop_assert_eq!(new.extra_bypass_level(), old.extra_bypass_level());
        // Tags handed to `on_alloc` and not released since.
        let mut allocated = vec![false; params.simple_entries];
        for (i, &(op, tag, value, address)) in steps.iter().enumerate() {
            let tag = tag % params.simple_entries;
            match op {
                // Write, allocating the tag first (and releasing its
                // previous value) unless a rejected write left it waiting.
                0 | 1 => {
                    if !allocated[tag] || new.class_of(tag).is_some() {
                        new.release(tag);
                        old.release(tag);
                        new.on_alloc(tag);
                        old.on_alloc(tag);
                        allocated[tag] = true;
                    }
                    prop_assert_eq!(
                        new.try_write(tag, value, address),
                        old.try_write(tag, value, address),
                        "write at step {}", i
                    );
                }
                2 => {
                    if new.class_of(tag).is_some() {
                        prop_assert_eq!(new.read(tag), old.read(tag), "read at step {}", i);
                    }
                }
                3 => {
                    new.release(tag);
                    old.release(tag);
                    allocated[tag] = false;
                }
                4 => {
                    new.observe_address(value);
                    old.observe_address(value);
                }
                5 => {
                    new.rob_interval_tick();
                    old.rob_interval_tick();
                }
                6 => {
                    new.sample_occupancy();
                    old.sample_occupancy();
                }
                _ => {
                    let limit = tag % (params.long_entries + 2);
                    new.set_long_capacity_limit(limit);
                    old.set_long_capacity_limit(limit);
                }
            }
            prop_assert_eq!(new.class_of(tag), old.class_of(tag), "class at step {}", i);
            prop_assert_eq!(new.peek(tag), old.peek(tag), "peek at step {}", i);
            prop_assert_eq!(new.should_stall_issue(), old.should_stall_issue(), "stall at step {}", i);
            prop_assert_eq!(
                new.classify_value(value, address),
                old.classify_value(value, address),
                "classify at step {}", i
            );
            prop_assert_eq!(new.long_live_count(), old.long_live_count(), "live at step {}", i);
        }
        new.sample_occupancy();
        old.sample_occupancy();
        prop_assert_eq!(new.stats(), old.stats());
        prop_assert_eq!(new.occupancy_report(), old.occupancy_report());
    }
}
