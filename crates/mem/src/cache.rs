//! Set-associative, write-back, write-allocate cache tag array with LRU.

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes. Must be `assoc * line_bytes * sets`.
    pub size_bytes: usize,
    /// Associativity (ways per set). Must be a power of two and ≥ 1.
    pub assoc: usize,
    /// Line size in bytes. Must be a power of two.
    pub line_bytes: usize,
    /// Hit latency in cycles.
    pub latency: u32,
}

impl CacheConfig {
    /// The paper's L1 instruction cache: 32 KB, 4-way, 1 cycle.
    pub fn paper_il1() -> Self {
        Self { size_bytes: 32 * 1024, assoc: 4, line_bytes: 64, latency: 1 }
    }

    /// The paper's L1 data cache: 32 KB, 4-way, 1 cycle (2 ports, tracked by
    /// the hierarchy, not the tag array).
    pub fn paper_dl1() -> Self {
        Self { size_bytes: 32 * 1024, assoc: 4, line_bytes: 64, latency: 1 }
    }

    /// The paper's unified L2: 1 MB, 4-way, 10 cycles.
    pub fn paper_l2() -> Self {
        Self { size_bytes: 1024 * 1024, assoc: 4, line_bytes: 64, latency: 10 }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.assoc * self.line_bytes)
    }
}

/// Residency state of a line lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineState {
    /// The line was present.
    Hit,
    /// The line was absent and has been filled; no dirty victim.
    Miss,
    /// The line was absent; filling it evicted the dirty line whose base
    /// address is carried here (it must be written back to the next level).
    MissDirtyEviction(u64),
}

impl LineState {
    /// `true` for [`LineState::Hit`].
    pub fn is_hit(&self) -> bool {
        matches!(self, LineState::Hit)
    }
}

/// Hit/miss/eviction counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Misses that evicted a dirty line (write-backs generated).
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss ratio over all lookups, or 0.0 when no lookups happened.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Way {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Monotonic touch stamp for LRU (larger = more recent).
    stamp: u64,
}

/// A set-associative, write-back, write-allocate cache *tag array* with true
/// LRU replacement.
///
/// The cache tracks residency and dirtiness only; data lives in
/// [`SparseMemory`](crate::SparseMemory). [`Cache::access`] performs a
/// lookup, fills on miss, and reports whether a dirty victim was evicted so
/// a hierarchy can charge the write-back.
///
/// The `sets × assoc` ways live in one flat, set-major array: set `s`
/// owns ways `s·assoc .. (s+1)·assoc`. Building a cache is one
/// allocation and cloning one is one copy, which is what a sampled run
/// pays per measured window when it copies the functionally warmed
/// hierarchy into a fresh simulator (the paper's 1 MB L2 alone has 4,096
/// sets).
///
/// # Example
///
/// ```
/// use carf_mem::{Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig::paper_dl1());
/// assert!(!c.access(0x1000, false).is_hit()); // cold miss fills the line
/// assert!(c.access(0x1008, false).is_hit());  // same 64-byte line
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    ways: Vec<Way>,
    stats: CacheStats,
    clock: u64,
    offset_bits: u32,
    index_bits: u32,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (non-power-of-two line size or
    /// set count, or `size_bytes` not divisible by `assoc * line_bytes`).
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.assoc >= 1, "associativity must be at least 1");
        assert!(config.line_bytes.is_power_of_two(), "line size must be a power of two");
        assert_eq!(
            config.size_bytes % (config.assoc * config.line_bytes),
            0,
            "capacity must be a whole number of sets"
        );
        let sets = config.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Self {
            config,
            ways: vec![Way::default(); sets * config.assoc],
            stats: CacheStats::default(),
            clock: 0,
            offset_bits: config.line_bytes.trailing_zeros(),
            index_bits: sets.trailing_zeros(),
        }
    }

    /// The geometry this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated hit/miss statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn split(&self, addr: u64) -> (u64, usize) {
        let line = addr >> self.offset_bits;
        let index = (line & ((1 << self.index_bits) - 1)) as usize;
        let tag = line >> self.index_bits;
        (tag, index)
    }

    fn line_base(&self, tag: u64, index: usize) -> u64 {
        ((tag << self.index_bits) | index as u64) << self.offset_bits
    }

    /// The ways of set `index`.
    fn set(&self, index: usize) -> &[Way] {
        let assoc = self.config.assoc;
        &self.ways[index * assoc..(index + 1) * assoc]
    }

    fn set_mut(&mut self, index: usize) -> &mut [Way] {
        let assoc = self.config.assoc;
        &mut self.ways[index * assoc..(index + 1) * assoc]
    }

    /// Looks up (and on miss, fills) the line containing `addr`.
    ///
    /// `is_write` marks the line dirty on a store. Returns the residency
    /// outcome, including the base address of any dirty victim.
    pub fn access(&mut self, addr: u64, is_write: bool) -> LineState {
        self.clock += 1;
        let clock = self.clock;
        let (tag, index) = self.split(addr);
        let set = self.set_mut(index);

        if let Some(way) = set.iter_mut().find(|w| w.valid && w.tag == tag) {
            way.stamp = clock;
            way.dirty |= is_write;
            self.stats.hits += 1;
            return LineState::Hit;
        }

        // Victim: an invalid way if any, else the least recently used.
        let victim = match set.iter().position(|w| !w.valid) {
            Some(i) => i,
            None => set
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.stamp)
                .map(|(i, _)| i)
                .expect("set has at least one way"),
        };
        let old = std::mem::replace(
            &mut set[victim],
            Way { tag, valid: true, dirty: is_write, stamp: clock },
        );
        self.stats.misses += 1;
        let evicted = (old.valid && old.dirty).then(|| self.line_base(old.tag, index));
        match evicted {
            Some(base) => {
                self.stats.writebacks += 1;
                LineState::MissDirtyEviction(base)
            }
            None => LineState::Miss,
        }
    }

    /// Returns `true` if the line containing `addr` is resident, without
    /// touching LRU state or statistics.
    pub fn probe(&self, addr: u64) -> bool {
        let (tag, index) = self.split(addr);
        self.set(index).iter().any(|w| w.valid && w.tag == tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 16-byte lines = 64 bytes.
        Cache::new(CacheConfig { size_bytes: 64, assoc: 2, line_bytes: 16, latency: 1 })
    }

    #[test]
    fn geometry_is_derived_correctly() {
        let c = CacheConfig::paper_dl1();
        assert_eq!(c.sets(), 128);
        assert_eq!(CacheConfig::paper_l2().sets(), 4096);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert_eq!(c.access(0x0, false), LineState::Miss);
        assert_eq!(c.access(0x8, false), LineState::Hit); // same line
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Set 0 holds lines with addr bit 4 == 0: 0x00, 0x20, 0x40 ...
        c.access(0x00, false);
        c.access(0x20, false);
        c.access(0x00, false); // touch 0x00, making 0x20 LRU
        c.access(0x40, false); // evicts 0x20
        assert!(c.probe(0x00));
        assert!(!c.probe(0x20));
        assert!(c.probe(0x40));
    }

    #[test]
    fn dirty_eviction_reports_victim_base() {
        let mut c = tiny();
        c.access(0x00, true); // dirty
        c.access(0x20, false);
        match c.access(0x40, false) {
            LineState::MissDirtyEviction(base) => assert_eq!(base, 0x00),
            other => panic!("expected dirty eviction, got {other:?}"),
        }
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_is_silent() {
        let mut c = tiny();
        c.access(0x00, false);
        c.access(0x20, false);
        assert_eq!(c.access(0x40, false), LineState::Miss);
        assert_eq!(c.stats().writebacks, 0);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        c.access(0x00, false); // clean fill
        c.access(0x00, true); // dirty it via a write hit
        c.access(0x20, false);
        assert!(matches!(c.access(0x40, false), LineState::MissDirtyEviction(0x00)));
    }

    #[test]
    fn probe_does_not_perturb_lru() {
        let mut c = tiny();
        c.access(0x00, false);
        c.access(0x20, false);
        assert!(c.probe(0x00)); // must not refresh 0x00
        c.access(0x40, false); // LRU is still 0x00
        assert!(!c.probe(0x00));
        assert!(c.probe(0x20));
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = tiny();
        c.access(0x00, false); // set 0
        c.access(0x10, false); // set 1
        c.access(0x30, false); // set 1
        c.access(0x50, false); // set 1: evicts within set 1 only
        assert!(c.probe(0x00));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        let _ = Cache::new(CacheConfig { size_bytes: 96, assoc: 2, line_bytes: 24, latency: 1 });
    }

    #[test]
    fn miss_ratio() {
        let mut c = tiny();
        c.access(0x00, false);
        c.access(0x00, false);
        c.access(0x00, false);
        c.access(0x20, false);
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-12);
    }
}
