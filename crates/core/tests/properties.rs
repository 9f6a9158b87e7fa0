//! Property-based tests of the content-aware register file's invariants.

use carf_core::analysis::{bucket_for_rank, GroupAccumulator, NUM_GROUPS};
use carf_core::{
    classify, is_simple, reconstruct_long, reconstruct_short, split_long, split_short,
    CarfParams, ContentAwareRegFile, IntRegFile, Policies, ShortIndexPolicy, ValueClass,
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
