//! The composed IL1 / DL1 / L2 / DRAM latency hierarchy.

use crate::cache::{Cache, CacheConfig, CacheStats, LineState};
use crate::ports::PortMeter;
use crate::shared_l2::SharedL2Handle;

/// Configuration of the full hierarchy (paper Table 1 by default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 instruction cache geometry.
    pub il1: CacheConfig,
    /// L1 data cache geometry.
    pub dl1: CacheConfig,
    /// Number of DL1 read/write ports per cycle (paper: 2).
    pub dl1_ports: u32,
    /// Unified L2 geometry.
    pub l2: CacheConfig,
    /// Main memory latency in cycles (paper: 100).
    pub memory_latency: u32,
}

impl HierarchyConfig {
    /// The exact configuration of the paper's Table 1.
    pub fn paper() -> Self {
        Self {
            il1: CacheConfig::paper_il1(),
            dl1: CacheConfig::paper_dl1(),
            dl1_ports: 2,
            l2: CacheConfig::paper_l2(),
            memory_latency: 100,
        }
    }

    /// A miniature hierarchy for fast unit tests (tiny caches, short
    /// latencies) that still exercises every path.
    pub fn tiny() -> Self {
        Self {
            il1: CacheConfig { size_bytes: 512, assoc: 2, line_bytes: 32, latency: 1 },
            dl1: CacheConfig { size_bytes: 512, assoc: 2, line_bytes: 32, latency: 1 },
            dl1_ports: 2,
            l2: CacheConfig { size_bytes: 4096, assoc: 2, line_bytes: 32, latency: 4 },
            memory_latency: 20,
        }
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Aggregated statistics for the hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// IL1 counters.
    pub il1: CacheStats,
    /// DL1 counters.
    pub dl1: CacheStats,
    /// L2 counters.
    pub l2: CacheStats,
    /// Accesses that went all the way to DRAM.
    pub memory_accesses: u64,
}

/// The IL1/DL1/L2/DRAM stack.
///
/// Instruction fetches go through [`MemoryHierarchy::fetch_latency`]; data
/// accesses through [`MemoryHierarchy::data_access`]. Both return the total
/// latency in cycles of the critical path (L1 + L2 on L1 miss + DRAM on L2
/// miss). Dirty evictions are propagated to the next level as writes but are
/// charged off the critical path, the usual approximation for write-back
/// hierarchies.
///
/// DL1 ports are a per-cycle resource: the pipeline calls
/// [`MemoryHierarchy::begin_cycle`] once per cycle and
/// [`MemoryHierarchy::try_dl1_port`] before each load/store it wants to
/// issue that cycle.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    il1: Cache,
    dl1: Cache,
    l2: Cache,
    dl1_ports: PortMeter,
    memory_latency: u32,
    memory_accesses: u64,
    /// When attached, the private `l2` array is bypassed and every L2
    /// access (including dirty L1 write-backs) goes through this shared
    /// array instead; [`MemoryHierarchy::stats`] then reports the shared
    /// aggregate counters.
    shared_l2: Option<SharedL2Handle>,
}

impl MemoryHierarchy {
    /// Builds an empty hierarchy from `config`.
    pub fn new(config: HierarchyConfig) -> Self {
        Self {
            il1: Cache::new(config.il1),
            dl1: Cache::new(config.dl1),
            l2: Cache::new(config.l2),
            dl1_ports: PortMeter::new(config.dl1_ports),
            memory_latency: config.memory_latency,
            memory_accesses: 0,
            shared_l2: None,
        }
    }

    /// Replaces the private L2 with a [`SharedL2Handle`]: from here on,
    /// every L1 miss and dirty write-back is routed to the shared array,
    /// and [`MemoryHierarchy::stats`] reports its aggregate counters.
    ///
    /// The L1s stay private; the caller is responsible for giving every
    /// sharer the same shared geometry (the multi-context layer builds
    /// one handle and clones it per context).
    pub fn attach_shared_l2(&mut self, handle: SharedL2Handle) {
        self.shared_l2 = Some(handle);
    }

    /// The attached shared L2, if any.
    pub fn shared_l2(&self) -> Option<&SharedL2Handle> {
        self.shared_l2.as_ref()
    }

    /// Starts a new cycle (releases DL1 ports).
    pub fn begin_cycle(&mut self) {
        self.dl1_ports.begin_cycle();
    }

    /// Claims one DL1 port for this cycle; `false` means the access must
    /// retry next cycle.
    pub fn try_dl1_port(&mut self) -> bool {
        self.dl1_ports.try_acquire()
    }

    /// Latency of an L2 access at `addr` (including DRAM on miss), also
    /// absorbing any dirty victim from L1.
    fn l2_access(&mut self, addr: u64, is_write: bool) -> u32 {
        if let Some(shared) = &self.shared_l2 {
            return shared.access(addr, is_write);
        }
        let state = self.l2.access(addr, is_write);
        let mut latency = self.l2.config().latency;
        if !state.is_hit() {
            self.memory_accesses += 1;
            latency += self.memory_latency;
        }
        // L2 dirty victims drain to DRAM off the critical path.
        latency
    }

    fn absorb_l1_victim(&mut self, state: LineState) {
        if let LineState::MissDirtyEviction(base) = state {
            // The write-back installs the victim in L2 (write-allocate), off
            // the critical path: no latency is charged to the triggering
            // access.
            if let Some(shared) = &self.shared_l2 {
                shared.absorb_victim(base);
            } else {
                let _ = self.l2.access(base, true);
            }
        }
    }

    /// Latency in cycles of an instruction fetch at `addr`.
    pub fn fetch_latency(&mut self, addr: u64) -> u32 {
        let state = self.il1.access(addr, false);
        let mut latency = self.il1.config().latency;
        if !state.is_hit() {
            latency += self.l2_access(addr, false);
        }
        self.absorb_l1_victim(state);
        latency
    }

    /// Latency in cycles of a data access at `addr` (`is_write` for stores).
    ///
    /// Port availability is *not* checked here; call
    /// [`MemoryHierarchy::try_dl1_port`] first.
    pub fn data_access(&mut self, addr: u64, is_write: bool) -> u32 {
        let state = self.dl1.access(addr, is_write);
        let mut latency = self.dl1.config().latency;
        if !state.is_hit() {
            latency += self.l2_access(addr, is_write);
        }
        self.absorb_l1_victim(state);
        latency
    }

    /// Aggregated hit/miss statistics.
    pub fn stats(&self) -> HierarchyStats {
        let (l2, memory_accesses) = match &self.shared_l2 {
            // Shared mode: the L2/DRAM counters are the *aggregate* over
            // every sharer (there is one physical array; per-sharer
            // attribution would be a fiction).
            Some(shared) => shared.stats(),
            None => (*self.l2.stats(), self.memory_accesses),
        };
        HierarchyStats { il1: *self.il1.stats(), dl1: *self.dl1.stats(), l2, memory_accesses }
    }

    /// Clears statistics but keeps cache contents (for warm-up discard).
    pub fn reset_stats(&mut self) {
        self.il1.reset_stats();
        self.dl1.reset_stats();
        self.l2.reset_stats();
        self.memory_accesses = 0;
        if let Some(shared) = &self.shared_l2 {
            shared.reset_stats();
        }
    }
}

impl Default for MemoryHierarchy {
    fn default() -> Self {
        Self::new(HierarchyConfig::paper())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_data_access_pays_full_path() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::paper());
        let lat = h.data_access(0x1000, false);
        assert_eq!(lat, 1 + 10 + 100);
        assert_eq!(h.stats().memory_accesses, 1);
    }

    #[test]
    fn l1_hit_is_one_cycle() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::paper());
        h.data_access(0x1000, false);
        assert_eq!(h.data_access(0x1000, false), 1);
        assert_eq!(h.data_access(0x1038, false), 1); // same 64B line
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::tiny());
        // tiny DL1: 2 ways, 32B lines, 8 sets. Fill one set past capacity.
        let set_stride = 512 / 2; // sets * line = 8 * 32 = 256
        h.data_access(0x0, false);
        h.data_access(set_stride as u64, false);
        h.data_access(2 * set_stride as u64, false); // evicts 0x0 from DL1
        let lat = h.data_access(0x0, false); // DL1 miss, L2 hit
        assert_eq!(lat, 1 + 4);
    }

    #[test]
    fn fetch_and_data_paths_are_independent() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::paper());
        h.fetch_latency(0x2000);
        // Same address as data: still a DL1 miss (but an L2 hit, since the
        // fetch installed the line in the shared L2).
        assert_eq!(h.data_access(0x2000, false), 1 + 10);
        assert_eq!(h.stats().il1.misses, 1);
        assert_eq!(h.stats().dl1.misses, 1);
    }

    #[test]
    fn dl1_port_limit_is_enforced_per_cycle() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::paper());
        h.begin_cycle();
        assert!(h.try_dl1_port());
        assert!(h.try_dl1_port());
        assert!(!h.try_dl1_port());
        h.begin_cycle();
        assert!(h.try_dl1_port());
    }

    #[test]
    fn dirty_writeback_lands_in_l2() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::tiny());
        let set_stride = 256u64;
        h.data_access(0x0, true); // dirty in DL1
        h.data_access(set_stride, false);
        h.data_access(2 * set_stride, false); // evicts dirty 0x0 into L2
        assert_eq!(h.stats().dl1.writebacks, 1);
        // 0x0 now hits in L2.
        assert_eq!(h.data_access(0x0, false), 1 + 4);
    }

    #[test]
    fn shared_l2_is_one_array_across_hierarchies() {
        let cfg = HierarchyConfig::tiny();
        let shared = SharedL2Handle::new(cfg.l2, cfg.memory_latency);
        let mut a = MemoryHierarchy::new(cfg);
        let mut b = MemoryHierarchy::new(cfg);
        a.attach_shared_l2(shared.clone());
        b.attach_shared_l2(shared.clone());
        // Core A's cold miss installs the line in the shared L2 …
        assert_eq!(a.data_access(0x1000, false), 1 + 4 + 20);
        // … so core B's DL1 miss hits there (constructive sharing).
        assert_eq!(b.data_access(0x1000, false), 1 + 4);
        // Both hierarchies report the same aggregate L2/DRAM counters.
        assert_eq!(a.stats().l2, b.stats().l2);
        assert_eq!(a.stats().memory_accesses, 1);
        // Private L1 counters stay per-core.
        assert_eq!(a.stats().dl1.misses, 1);
        assert_eq!(b.stats().dl1.misses, 1);
        assert_eq!(shared.sharers(), 3); // a, b, and the local handle
    }

    #[test]
    fn shared_l2_absorbs_dirty_victims() {
        let cfg = HierarchyConfig::tiny();
        let shared = SharedL2Handle::new(cfg.l2, cfg.memory_latency);
        let mut h = MemoryHierarchy::new(cfg);
        h.attach_shared_l2(shared);
        let set_stride = 256u64;
        h.data_access(0x0, true); // dirty in DL1
        h.data_access(set_stride, false);
        h.data_access(2 * set_stride, false); // evicts dirty 0x0 into shared L2
        assert_eq!(h.stats().dl1.writebacks, 1);
        assert_eq!(h.data_access(0x0, false), 1 + 4); // shared-L2 hit
    }

    #[test]
    fn unattached_hierarchy_is_byte_for_byte_private() {
        // The Option field must not perturb the private path: same
        // latencies and counters as the pre-shared-L2 code.
        let mut h = MemoryHierarchy::new(HierarchyConfig::paper());
        assert_eq!(h.data_access(0x1000, false), 1 + 10 + 100);
        assert_eq!(h.data_access(0x1000, false), 1);
        assert!(h.shared_l2().is_none());
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::paper());
        h.data_access(0x3000, false);
        h.reset_stats();
        assert_eq!(h.stats().dl1.misses, 0);
        assert_eq!(h.data_access(0x3000, false), 1); // still resident
    }
}

#[cfg(test)]
mod inclusivity_tests {
    use super::*;

    // The hierarchy is non-inclusive non-exclusive ("NINE"): an L2
    // eviction does not back-invalidate L1, and an L1 fill does not evict
    // from L2. These tests pin that behavior down so it is a documented
    // property rather than an accident.

    #[test]
    fn l2_eviction_leaves_l1_resident_lines_alone() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::tiny());
        h.data_access(0x0, false); // in both L1 and L2
        // Thrash L2 set 0 (tiny L2: 64 sets x 32B lines -> 2 KB stride).
        let l2_stride = 4096u64 / 2;
        for i in 1..=4 {
            // Use fetches so DL1 is not disturbed.
            h.fetch_latency(i * l2_stride);
        }
        // 0x0 may be gone from L2, but DL1 still hits in one cycle.
        assert_eq!(h.data_access(0x0, false), 1);
    }

    #[test]
    fn il1_and_dl1_do_not_share_lines() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::tiny());
        h.fetch_latency(0x100);
        // A data access to the same line misses DL1 (separate arrays).
        assert!(h.data_access(0x100, false) > 1);
        // And vice versa: the fetch path still hits its own array.
        assert_eq!(h.fetch_latency(0x100), 1);
    }

    #[test]
    fn write_then_read_hits_dirty_line() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::tiny());
        h.data_access(0x40, true);
        assert_eq!(h.data_access(0x40, false), 1);
        assert_eq!(h.stats().dl1.hits, 1);
    }

    #[test]
    fn independent_sets_do_not_interfere() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::paper());
        // 128 sets x 64B lines: addresses 0x0 and 0x40 are different sets.
        h.data_access(0x0, false);
        h.data_access(0x40, false);
        assert_eq!(h.data_access(0x0, false), 1);
        assert_eq!(h.data_access(0x40, false), 1);
    }
}
