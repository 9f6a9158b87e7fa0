//! Property-based tests of the memory substrate.

use carf_mem::{
    Cache, CacheConfig, CacheStats, HierarchyConfig, LineState, MemoryHierarchy, PortMeter,
    SparseMemory,
};
use proptest::prelude::*;
use std::collections::HashMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sparse_memory_matches_a_hashmap_model(
        ops in proptest::collection::vec((any::<u32>(), any::<u64>(), any::<bool>()), 1..200),
    ) {
        let mut mem = SparseMemory::new();
        let mut model: HashMap<u64, u64> = HashMap::new();
        for (addr_seed, value, is_write) in ops {
            // 8-byte aligned within a 1 MB window (keeps the model simple).
            let addr = u64::from(addr_seed % (1 << 17)) * 8;
            if is_write {
                mem.write_u64(addr, value);
                model.insert(addr, value);
            } else {
                let expected = model.get(&addr).copied().unwrap_or(0);
                prop_assert_eq!(mem.read_u64(addr), expected);
            }
        }
    }

    #[test]
    fn byte_and_word_views_agree(addr in any::<u32>(), value in any::<u64>()) {
        let addr = u64::from(addr);
        let mut mem = SparseMemory::new();
        mem.write_u64(addr, value);
        let mut rebuilt = 0u64;
        for i in 0..8 {
            rebuilt |= u64::from(mem.read_u8(addr + i)) << (8 * i);
        }
        prop_assert_eq!(rebuilt, value);
    }

    #[test]
    fn cache_hits_after_access_and_respects_capacity(
        addrs in proptest::collection::vec(0u64..(1 << 14), 1..100),
    ) {
        let config = CacheConfig { size_bytes: 1024, assoc: 2, line_bytes: 32, latency: 1 };
        let mut cache = Cache::new(config);
        for addr in &addrs {
            cache.access(*addr, false);
            // Immediately after an access, the line is resident.
            prop_assert!(cache.probe(*addr));
        }
        // Residency never exceeds capacity: count distinct resident lines.
        let resident = (0u64..(1 << 14) / 32)
            .filter(|line| cache.probe(line * 32))
            .count();
        prop_assert!(resident <= 1024 / 32, "{resident} lines resident");
    }

    #[test]
    fn mru_line_survives_any_single_access(
        a in 0u64..(1 << 12),
        b in 0u64..(1 << 12),
    ) {
        let config = CacheConfig { size_bytes: 512, assoc: 2, line_bytes: 32, latency: 1 };
        let mut cache = Cache::new(config);
        cache.access(a, false);
        cache.access(b, false);
        // b is the most recently used line: one more access anywhere can
        // evict at most the LRU way, never b.
        cache.access(a ^ 0x1000, false);
        prop_assert!(cache.probe(b));
    }

    #[test]
    fn hierarchy_latency_is_monotone_in_distance(addr in any::<u32>()) {
        let addr = u64::from(addr);
        let mut h = MemoryHierarchy::new(HierarchyConfig::paper());
        let cold = h.data_access(addr, false);
        let warm = h.data_access(addr, false);
        prop_assert!(cold >= warm);
        prop_assert_eq!(warm, 1); // L1 hit
    }

    #[test]
    fn port_meter_totals_are_conserved(
        limit in 1u32..8,
        requests in proptest::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut meter = PortMeter::new(limit);
        let mut granted = 0u64;
        let mut denied = 0u64;
        for new_cycle in requests {
            if new_cycle {
                meter.begin_cycle();
            }
            if meter.try_acquire() {
                granted += 1;
            } else {
                denied += 1;
            }
        }
        prop_assert_eq!(meter.total_granted(), granted);
        prop_assert_eq!(meter.total_denied(), denied);
    }

    #[test]
    fn stats_account_every_lookup(
        addrs in proptest::collection::vec(0u64..(1 << 13), 1..80),
    ) {
        let mut cache = Cache::new(CacheConfig { size_bytes: 512, assoc: 2, line_bytes: 32, latency: 1 });
        for addr in &addrs {
            cache.access(*addr, addr % 2 == 0);
        }
        let s = cache.stats();
        prop_assert_eq!(s.hits + s.misses, addrs.len() as u64);
        prop_assert!(s.writebacks <= s.misses);
    }
}

/// 8-byte-aligned addresses whose page numbers differ only in their high
/// bits (2^40 apart), and addresses in the top page of the address space.
fn arb_far_addr() -> impl Strategy<Value = u64> {
    prop_oneof![
        (0u64..64, 0u64..512).prop_map(|(k, slot)| (k << 40) | (slot * 8)),
        (0u64..512).prop_map(|slot| u64::MAX - 7 - slot * 8),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn far_apart_and_top_page_addresses_read_back(
        ops in proptest::collection::vec((arb_far_addr(), any::<u64>(), any::<bool>()), 1..200),
    ) {
        let mut mem = SparseMemory::new();
        let mut model: HashMap<u64, u64> = HashMap::new();
        for (addr, value, is_write) in ops {
            if is_write {
                mem.write_u64(addr, value);
                model.insert(addr, value);
            } else {
                prop_assert_eq!(mem.read_u64(addr), model.get(&addr).copied().unwrap_or(0));
            }
        }
        for (addr, value) in &model {
            prop_assert_eq!(mem.read_u64(*addr), *value);
        }
    }

    #[test]
    fn delta_fingerprints_do_not_depend_on_insertion_order(
        writes in proptest::collection::vec((arb_far_addr(), any::<u64>()), 1..64),
    ) {
        let mut entries: Vec<(u64, u64)> =
            writes.into_iter().collect::<HashMap<u64, u64>>().into_iter().collect();
        entries.sort_unstable();
        let (mut forward, mut backward) = (SparseMemory::new(), SparseMemory::new());
        for (addr, value) in &entries {
            forward.write_u64(*addr, *value);
        }
        for (addr, value) in entries.iter().rev() {
            backward.write_u64(*addr, *value);
        }
        let base = SparseMemory::new();
        let seed = 0xcbf2_9ce4_8422_2325;
        prop_assert_eq!(
            forward.delta_from(&base).fold_fnv1a(seed),
            backward.delta_from(&base).fold_fnv1a(seed)
        );
    }
}

/// The cache algorithm as it was written with one `Vec<Way>` per set,
/// kept as the reference for the flat set-major array: look the tag up in
/// its set, else fill the first invalid way or the least recently used.
struct ReferenceCache {
    sets: Vec<Vec<RefWay>>,
    stats: CacheStats,
    clock: u64,
    offset_bits: u32,
    index_bits: u32,
}

#[derive(Clone, Copy, Default)]
struct RefWay {
    tag: u64,
    valid: bool,
    dirty: bool,
    stamp: u64,
}

impl ReferenceCache {
    fn new(config: CacheConfig) -> Self {
        Self {
            sets: vec![vec![RefWay::default(); config.assoc]; config.sets()],
            stats: CacheStats::default(),
            clock: 0,
            offset_bits: config.line_bytes.trailing_zeros(),
            index_bits: config.sets().trailing_zeros(),
        }
    }

    fn access(&mut self, addr: u64, is_write: bool) -> LineState {
        self.clock += 1;
        let line = addr >> self.offset_bits;
        let index = (line & ((1 << self.index_bits) - 1)) as usize;
        let tag = line >> self.index_bits;
        let set = &mut self.sets[index];
        if let Some(way) = set.iter_mut().find(|w| w.valid && w.tag == tag) {
            way.stamp = self.clock;
            way.dirty |= is_write;
            self.stats.hits += 1;
            return LineState::Hit;
        }
        self.stats.misses += 1;
        let victim = match set.iter().position(|w| !w.valid) {
            Some(i) => i,
            None => set.iter().enumerate().min_by_key(|(_, w)| w.stamp).map(|(i, _)| i).unwrap(),
        };
        let old = set[victim];
        set[victim] = RefWay { tag, valid: true, dirty: is_write, stamp: self.clock };
        if old.valid && old.dirty {
            self.stats.writebacks += 1;
            LineState::MissDirtyEviction(((old.tag << self.index_bits) | index as u64) << self.offset_bits)
        } else {
            LineState::Miss
        }
    }
}

/// Reads and writes confined to a few sets of `config` (the first, the
/// last and two between), each drawing from three times as many tags as
/// the set has ways, at any byte of the line: every set sees hits, fills
/// into invalid ways, LRU evictions and dirty victims.
fn arb_set_stream(config: CacheConfig) -> impl Strategy<Value = Vec<(u64, bool)>> {
    let sets = config.sets() as u64;
    let line = config.line_bytes as u64;
    let chosen = [0, 1, sets / 2 + 1, sets - 1];
    let tags = 3 * config.assoc as u64;
    let addr = (0usize..chosen.len(), 0..tags, 0..line).prop_map(move |(s, tag, offset)| {
        (tag * sets + chosen[s]) * line + offset
    });
    proptest::collection::vec((addr, any::<bool>()), 1..400)
}

fn check_against_reference(config: CacheConfig, stream: &[(u64, bool)]) {
    let mut cache = Cache::new(config);
    let mut reference = ReferenceCache::new(config);
    for (i, &(addr, is_write)) in stream.iter().enumerate() {
        assert_eq!(
            cache.access(addr, is_write),
            reference.access(addr, is_write),
            "access {i} of {addr:#x} (write {is_write})"
        );
    }
    assert_eq!(*cache.stats(), reference.stats);
    // Residency at the end agrees line by line.
    for &(addr, _) in stream {
        let line = addr >> reference.offset_bits;
        let set = &reference.sets[(line & ((1 << reference.index_bits) - 1)) as usize];
        let resident = set.iter().any(|w| w.valid && w.tag == line >> reference.index_bits);
        assert_eq!(cache.probe(addr), resident, "{addr:#x}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn flat_cache_matches_the_per_set_reference_on_a_tiny_geometry(
        stream in arb_set_stream(CacheConfig { size_bytes: 256, assoc: 2, line_bytes: 16, latency: 1 }),
    ) {
        check_against_reference(
            CacheConfig { size_bytes: 256, assoc: 2, line_bytes: 16, latency: 1 },
            &stream,
        );
    }

    #[test]
    fn flat_cache_matches_the_per_set_reference_on_the_papers_geometry(
        dl1 in arb_set_stream(CacheConfig::paper_dl1()),
        l2 in arb_set_stream(CacheConfig::paper_l2()),
    ) {
        check_against_reference(CacheConfig::paper_dl1(), &dl1);
        check_against_reference(CacheConfig::paper_l2(), &l2);
    }
}
