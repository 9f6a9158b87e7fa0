//! A unified L2 shared by several simulated cores.
//!
//! The multi-context layer (`carf_sim::multi`) runs N pipelines on one
//! shared clock; in its "2-core" flavor each context keeps private L1s
//! but the L2 array and the DRAM channel behind it are one physical
//! resource. [`SharedL2Handle`] is that resource: a clonable handle to
//! one tag array + DRAM-access counter, attached to each context's
//! [`MemoryHierarchy`](crate::MemoryHierarchy) via
//! [`MemoryHierarchy::attach_shared_l2`](crate::MemoryHierarchy::attach_shared_l2).
//!
//! Determinism: the handle serializes access through a mutex, but the
//! multi-context layer steps contexts *sequentially* on one thread, so
//! the interleaving of L2 accesses is a pure function of the program —
//! there is no timing-dependent lock order. The mutex exists only so the
//! handle is `Send + Sync` (harnesses run independent co-simulations on
//! worker threads, each with its own shared L2).

use std::sync::{Arc, Mutex};

use crate::cache::{Cache, CacheConfig, CacheStats};

#[derive(Debug)]
struct SharedL2Inner {
    l2: Cache,
    memory_latency: u32,
    memory_accesses: u64,
}

/// Clonable handle to one shared L2 array + DRAM path.
///
/// All clones see (and mutate) the same tags and counters; per-sharer
/// hit/miss attribution is intentionally not tracked — contention shows
/// up in each sharer's latencies, and the aggregate counters live here.
#[derive(Debug, Clone)]
pub struct SharedL2Handle {
    inner: Arc<Mutex<SharedL2Inner>>,
}

impl SharedL2Handle {
    /// Builds an empty shared L2 with the given geometry and the DRAM
    /// latency charged on a miss.
    pub fn new(l2: CacheConfig, memory_latency: u32) -> Self {
        Self {
            inner: Arc::new(Mutex::new(SharedL2Inner {
                l2: Cache::new(l2),
                memory_latency,
                memory_accesses: 0,
            })),
        }
    }

    /// Latency of an access at `addr` (L2 latency, plus DRAM on a miss).
    pub fn access(&self, addr: u64, is_write: bool) -> u32 {
        let mut inner = self.inner.lock().expect("shared L2 poisoned");
        let state = inner.l2.access(addr, is_write);
        let mut latency = inner.l2.config().latency;
        if !state.is_hit() {
            inner.memory_accesses += 1;
            latency += inner.memory_latency;
        }
        // L2 dirty victims drain to DRAM off the critical path.
        latency
    }

    /// Installs a dirty L1 victim line (write-allocate, off the critical
    /// path: no latency is charged to the triggering access).
    pub fn absorb_victim(&self, base: u64) {
        let mut inner = self.inner.lock().expect("shared L2 poisoned");
        let _ = inner.l2.access(base, true);
    }

    /// Aggregate L2 counters (across every sharer).
    pub fn stats(&self) -> (CacheStats, u64) {
        let inner = self.inner.lock().expect("shared L2 poisoned");
        (*inner.l2.stats(), inner.memory_accesses)
    }

    /// Number of sharers holding a clone of this handle.
    pub fn sharers(&self) -> usize {
        Arc::strong_count(&self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SharedL2Handle {
        SharedL2Handle::new(
            CacheConfig { size_bytes: 4096, assoc: 2, line_bytes: 32, latency: 4 },
            20,
        )
    }

    #[test]
    fn clones_share_one_tag_array() {
        let a = tiny();
        let b = a.clone();
        assert_eq!(a.access(0x1000, false), 4 + 20); // cold miss via a
        assert_eq!(b.access(0x1000, false), 4); // hit via b: same array
        let (stats, dram) = a.stats();
        assert_eq!((stats.hits, stats.misses, dram), (1, 1, 1));
    }

    #[test]
    fn victims_install_without_latency_accounting() {
        let l2 = tiny();
        l2.absorb_victim(0x40);
        assert_eq!(l2.access(0x40, false), 4); // resident now
    }
}
