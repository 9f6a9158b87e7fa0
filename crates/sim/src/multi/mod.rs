//! N heterogeneous contexts on one shared clock, with pluggable
//! shared-resource policies.
//!
//! The paper's §6 suggests that "a smaller number of long registers can
//! feed more than one thread". A lockstep pair of content-aware pipelines
//! first tested that; this module is the generalization: [`MultiSim`]
//! runs any number of contexts — each an [`AnySimulator`] over any
//! [`RegFileKind`](crate::RegFileKind), any program, its own
//! [`SimConfig`] — in lockstep, and a [`SharingPolicy`] decides which
//! physical resources they compete for:
//!
//! * **Shared Long file** — each cycle every context's Long file is
//!   windowed to the shared capacity minus the co-runners' live entries,
//!   through the defaulted [`IntRegFile`](carf_core::IntRegFile) hooks,
//!   so the same experiment runs over all four backends (backends
//!   without a Long file ignore the window: built-in control rows).
//! * **Shared L2** — private L1s over one
//!   [`SharedL2Handle`](carf_mem::SharedL2Handle) tag array and DRAM
//!   channel (the multi-core flavor).
//! * **Fetch arbitration** — free, round-robin, or ICOUNT fetch slots
//!   (the SMT front-end flavor).
//!
//! Policies perturb *timing only*: every context retires exactly the
//! architectural state it would retire running alone (the differential
//! fuzz suite in `crates/sim/tests/` pins this against the functional
//! executor for random programs over every backend).
//!
//! Contexts are stepped sequentially on the caller's thread, so a
//! co-simulation is deterministic at any harness worker count.
//!
//! # Example
//!
//! ```no_run
//! use carf_core::CarfParams;
//! use carf_sim::{MultiSim, SharingPolicy, SimConfig};
//! use carf_workloads::{int_suite, SizeClass};
//!
//! let wls = int_suite();
//! let a = wls[0].build_class(SizeClass::Test);
//! let b = wls[1].build_class(SizeClass::Test);
//! let cfg = SimConfig::paper_carf(CarfParams::paper_default());
//! let mut multi = MultiSim::new(
//!     vec![(cfg.clone(), &a), (cfg, &b)],
//!     SharingPolicy::shared_long(48),
//! )?;
//! let results = multi.run(200_000, 100_000)?;
//! assert_eq!(results.len(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod policy;

pub use policy::{FetchArbitration, SharingPolicy};

use crate::config::{RegFileKind, SimConfig};
use crate::sim::{AnySimulator, SimError};
use crate::trace::{NopTracer, Tracer};
use carf_isa::Program;
use carf_mem::SharedL2Handle;

/// Per-context outcome of a multi-context run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiThreadResult {
    /// Instructions the context committed.
    pub committed: u64,
    /// The context's *active* cycles on the shared clock (a co-runner
    /// finishing late must not dilute its IPC).
    pub cycles: u64,
    /// The context's IPC over its active cycles.
    pub ipc: f64,
    /// Cycles this context's issue was stalled by the (possibly
    /// windowed) Long guard.
    pub long_guard_stall_cycles: u64,
}

/// Aggregate contention counters for one co-simulation (the
/// cross-context effects no per-context [`SimStats`](crate::SimStats)
/// can see).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ContentionStats {
    /// Cycles the shared clock advanced.
    pub cycles: u64,
    /// Per context: cycles its fetch slot was arbitrated away while it
    /// still had work to do.
    pub fetch_denied: Vec<u64>,
    /// Per context: cycles its Long window was smaller than the full
    /// shared capacity (co-runners held live entries).
    pub long_window_shrunk: Vec<u64>,
    /// Peak sum of live Long entries across all contexts (how close the
    /// shared array came to the provisioned capacity).
    pub peak_long_total: usize,
}

/// N contexts in lockstep under a [`SharingPolicy`].
#[derive(Debug)]
pub struct MultiSim<T: Tracer = NopTracer> {
    ctxs: Vec<AnySimulator<T>>,
    policy: SharingPolicy,
    /// Incrementally maintained live-Long counts: `live[i]` is context
    /// i's count at the end of the last cycle it stepped (frozen once a
    /// context is done — its entries still occupy the shared array).
    /// Invariant: `total_live == live.iter().sum()`.
    live: Vec<usize>,
    total_live: usize,
    done: Vec<bool>,
    finish_cycle: Vec<u64>,
    cycles: u64,
    /// Next context index favored by round-robin fetch arbitration.
    rr_next: usize,
    contention: ContentionStats,
    /// Scratch for per-cycle fetch grants (no per-cycle allocation).
    grant_scratch: Vec<bool>,
}

impl MultiSim {
    /// Builds an untraced co-simulation.
    ///
    /// # Errors
    ///
    /// Returns a message when `contexts` is empty; when a shared-Long
    /// policy names a capacity of zero, or larger than a Long-file
    /// backend's private file (each context's file is a window onto the
    /// shared array, so it must be at least as large); when fetch
    /// arbitration grants zero slots; or when a shared-L2 policy mixes
    /// contexts with different L2 geometries or memory latencies.
    pub fn new(
        contexts: Vec<(SimConfig, &Program)>,
        policy: SharingPolicy,
    ) -> Result<Self, String> {
        Self::with_tracers(contexts, policy, || NopTracer)
    }
}

impl<T: Tracer> MultiSim<T> {
    /// Builds a co-simulation whose contexts report to tracers built by
    /// `mk_tracer` (called once per context, in context order).
    ///
    /// # Errors
    ///
    /// As [`MultiSim::new`].
    pub fn with_tracers(
        contexts: Vec<(SimConfig, &Program)>,
        policy: SharingPolicy,
        mut mk_tracer: impl FnMut() -> T,
    ) -> Result<Self, String> {
        if contexts.is_empty() {
            return Err("a multi-context simulation needs at least one context".into());
        }
        if let Some(cap) = policy.shared_long_capacity {
            if cap == 0 {
                return Err("shared Long capacity must be at least 1".into());
            }
            for (i, (config, _)) in contexts.iter().enumerate() {
                let private = match &config.regfile {
                    RegFileKind::ContentAware(params, _) => Some(params.long_entries),
                    RegFileKind::Compressed(params) => Some(params.long_entries),
                    // No Long file: the capacity window is inert (the
                    // defaulted IntRegFile hooks) — a valid control row.
                    RegFileKind::Baseline | RegFileKind::PortReduced(_) => None,
                };
                if let Some(entries) = private {
                    if entries < cap {
                        return Err(format!(
                            "context {i}'s long file ({entries}) smaller than the shared \
                             capacity ({cap})"
                        ));
                    }
                }
            }
        }
        match policy.fetch {
            FetchArbitration::RoundRobin { slots } | FetchArbitration::ICount { slots }
                if slots == 0 =>
            {
                return Err("fetch arbitration must grant at least one slot per cycle".into())
            }
            _ => {}
        }
        let shared_l2 = if policy.shared_l2 {
            let first = contexts[0].0.hierarchy;
            for (i, (config, _)) in contexts.iter().enumerate() {
                if config.hierarchy.l2 != first.l2
                    || config.hierarchy.memory_latency != first.memory_latency
                {
                    return Err(format!(
                        "context {i} configures a different L2 geometry or memory latency; \
                         a shared L2 is one physical array"
                    ));
                }
            }
            Some(SharedL2Handle::new(first.l2, first.memory_latency))
        } else {
            None
        };

        let n = contexts.len();
        let mut ctxs = Vec::with_capacity(n);
        for (config, program) in contexts {
            let mut sim = AnySimulator::with_tracer(config, program, mk_tracer());
            if let Some(handle) = &shared_l2 {
                sim.attach_shared_l2(handle.clone());
            }
            ctxs.push(sim);
        }
        Ok(Self {
            ctxs,
            policy,
            live: vec![0; n],
            total_live: 0,
            done: vec![false; n],
            finish_cycle: vec![0; n],
            cycles: 0,
            rr_next: 0,
            contention: ContentionStats {
                fetch_denied: vec![0; n],
                long_window_shrunk: vec![0; n],
                ..ContentionStats::default()
            },
            grant_scratch: vec![true; n],
        })
    }

    /// Decides this cycle's fetch grants and applies them to the gates.
    fn arbitrate_fetch(&mut self) {
        let slots = match self.policy.fetch {
            FetchArbitration::Free => return,
            FetchArbitration::RoundRobin { slots } | FetchArbitration::ICount { slots } => slots,
        };
        let n = self.ctxs.len();
        let mut grants = std::mem::take(&mut self.grant_scratch);
        grants.iter_mut().for_each(|g| *g = false);
        let mut granted = 0usize;
        match self.policy.fetch {
            FetchArbitration::RoundRobin { .. } => {
                let mut last = None;
                for off in 0..n {
                    if granted == slots {
                        break;
                    }
                    let i = (self.rr_next + off) % n;
                    if !self.done[i] {
                        grants[i] = true;
                        granted += 1;
                        last = Some(i);
                    }
                }
                if let Some(last) = last {
                    self.rr_next = (last + 1) % n;
                }
            }
            FetchArbitration::ICount { .. } => {
                // Grant the `slots` active contexts with the fewest
                // instructions in flight; ties break toward lower index
                // (deterministic). N is tiny, so a selection scan beats
                // sorting machinery.
                let mut picked = vec![false; n];
                while granted < slots {
                    let mut best: Option<(usize, usize)> = None;
                    for (i, taken) in picked.iter().enumerate() {
                        if self.done[i] || *taken {
                            continue;
                        }
                        let load = self.ctxs[i].in_flight();
                        if best.is_none_or(|(_, b)| load < b) {
                            best = Some((i, load));
                        }
                    }
                    let Some((i, _)) = best else { break };
                    picked[i] = true;
                    grants[i] = true;
                    granted += 1;
                }
            }
            FetchArbitration::Free => unreachable!(),
        }
        for (i, granted) in grants.iter().enumerate() {
            if !self.done[i] {
                self.ctxs[i].set_fetch_slot(*granted);
                if !granted {
                    self.contention.fetch_denied[i] += 1;
                }
            }
        }
        self.grant_scratch = grants;
    }

    /// Advances every unfinished context one cycle under the policy.
    ///
    /// # Errors
    ///
    /// Propagates any context's [`SimError`].
    pub fn step(&mut self, per_thread_insts: u64) -> Result<(), SimError> {
        self.arbitrate_fetch();
        // Competitive Long sharing: window every context to the physical
        // array minus the co-runners' live entries, all computed from the
        // start-of-cycle snapshot (`live`/`total_live` are end-of-last-
        // cycle counts, maintained incrementally below instead of
        // recounting every context's file each cycle).
        if let Some(cap) = self.policy.shared_long_capacity {
            let total = self.total_live;
            self.contention.peak_long_total = self.contention.peak_long_total.max(total);
            for i in 0..self.ctxs.len() {
                if self.done[i] {
                    continue;
                }
                let others = total - self.live[i];
                let budget = cap.saturating_sub(others);
                if others > 0 {
                    self.contention.long_window_shrunk[i] += 1;
                }
                self.ctxs[i].int_regfile_mut().set_long_capacity_limit(budget);
            }
        }
        for i in 0..self.ctxs.len() {
            if self.done[i] {
                continue;
            }
            let sim = &mut self.ctxs[i];
            sim.step_cycle()?;
            if self.policy.shared_long_capacity.is_some() {
                let now = sim.int_regfile().long_live_count();
                self.total_live = self.total_live - self.live[i] + now;
                self.live[i] = now;
            }
            if sim.is_halted() || sim.stats().committed >= per_thread_insts {
                self.done[i] = true;
                self.finish_cycle[i] = self.cycles + 1;
            }
        }
        self.cycles += 1;
        self.contention.cycles = self.cycles;
        Ok(())
    }

    /// Runs until every context halts or reaches `per_thread_insts`, or
    /// the shared clock hits `max_cycles`.
    ///
    /// # Errors
    ///
    /// Propagates any context's [`SimError`].
    pub fn run(
        &mut self,
        max_cycles: u64,
        per_thread_insts: u64,
    ) -> Result<Vec<MultiThreadResult>, SimError> {
        while self.cycles < max_cycles && self.done.iter().any(|d| !d) {
            self.step(per_thread_insts)?;
        }
        Ok(self.results())
    }

    /// Per-context results at the current clock.
    pub fn results(&self) -> Vec<MultiThreadResult> {
        self.ctxs
            .iter()
            .enumerate()
            .map(|(i, sim)| {
                let stats = sim.stats();
                let cycles = if self.done[i] { self.finish_cycle[i] } else { self.cycles }.max(1);
                MultiThreadResult {
                    committed: stats.committed,
                    cycles,
                    ipc: stats.committed as f64 / cycles as f64,
                    long_guard_stall_cycles: stats.long_guard_stall_cycles,
                }
            })
            .collect()
    }

    /// The shared clock.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Number of contexts.
    pub fn len(&self) -> usize {
        self.ctxs.len()
    }

    /// `true` when built with zero contexts (construction forbids it, so
    /// always `false`; provided for the conventional pair with `len`).
    pub fn is_empty(&self) -> bool {
        self.ctxs.is_empty()
    }

    /// `true` once every context halted or hit its instruction target.
    pub fn all_done(&self) -> bool {
        self.done.iter().all(|d| *d)
    }

    /// The policy in force.
    pub fn policy(&self) -> &SharingPolicy {
        &self.policy
    }

    /// Context `i` (checkpoints, stats, tracer readout).
    pub fn ctx(&self, i: usize) -> &AnySimulator<T> {
        &self.ctxs[i]
    }

    /// Mutable access to context `i`.
    pub fn ctx_mut(&mut self, i: usize) -> &mut AnySimulator<T> {
        &mut self.ctxs[i]
    }

    /// Aggregate cross-context contention counters.
    pub fn contention(&self) -> &ContentionStats {
        &self.contention
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carf_core::CarfParams;
    use carf_workloads::{int_suite, SizeClass, Workload};

    fn carf_cfg() -> SimConfig {
        let mut cfg = SimConfig::paper_carf(CarfParams::paper_default());
        cfg.cosim = true;
        cfg
    }

    fn programs(names: &[&str]) -> Vec<carf_isa::Program> {
        let wls = int_suite();
        names
            .iter()
            .map(|n| {
                wls.iter()
                    .find(|w: &&Workload| w.name == *n)
                    .unwrap_or_else(|| panic!("no workload {n}"))
                    .build_class(SizeClass::Test)
            })
            .collect()
    }

    #[test]
    fn heterogeneous_backends_share_a_clock() {
        let progs = programs(&["pointer_chase", "hash_table", "sort_kernel", "state_machine"]);
        let mut cfgs = vec![
            SimConfig::paper_baseline(),
            carf_cfg(),
            SimConfig::paper_compressed(CarfParams::paper_default()),
            SimConfig::paper_port_reduced(Default::default()),
        ];
        for c in &mut cfgs {
            c.cosim = true;
        }
        let mut multi = MultiSim::new(
            cfgs.into_iter().zip(progs.iter()).collect(),
            SharingPolicy::shared_long(48),
        )
        .unwrap();
        let results = multi.run(400_000, 5_000).unwrap();
        assert_eq!(results.len(), 4);
        for (i, r) in results.iter().enumerate() {
            assert!(r.committed >= 5_000, "context {i}: {r:?}");
        }
    }

    #[test]
    fn shared_long_matches_legacy_recount_semantics() {
        // The incremental live counter must reproduce the original
        // per-cycle recount bit for bit: same budgets, same stalls, same
        // per-thread cycle counts.
        let progs = programs(&["hash_table", "sparse_update"]);
        let (cap, per_thread, max_cycles) = (40usize, 15_000u64, 400_000u64);
        let mut multi = MultiSim::new(
            progs.iter().map(|p| (carf_cfg(), p)).collect(),
            SharingPolicy::shared_long(cap),
        )
        .unwrap();
        let new = multi.run(max_cycles, per_thread).unwrap();

        // Reference: the original two-pipeline shared-Long loop,
        // recounting every context's live Long entries at the top of
        // every cycle.
        let mut sims: Vec<AnySimulator> =
            progs.iter().map(|p| AnySimulator::new(carf_cfg(), p)).collect();
        let mut done = vec![false; sims.len()];
        let mut finish = vec![0u64; sims.len()];
        let mut clock = 0u64;
        while clock < max_cycles && done.iter().any(|d| !d) {
            let lives: Vec<usize> =
                sims.iter().map(|s| s.int_regfile().long_live_count()).collect();
            let total: usize = lives.iter().sum();
            for (i, sim) in sims.iter_mut().enumerate() {
                if done[i] {
                    continue;
                }
                let budget = cap.saturating_sub(total - lives[i]);
                sim.int_regfile_mut().set_long_capacity_limit(budget);
                sim.step_cycle().unwrap();
                if sim.is_halted() || sim.stats().committed >= per_thread {
                    done[i] = true;
                    finish[i] = clock + 1;
                }
            }
            clock += 1;
        }
        for (i, n) in new.iter().enumerate() {
            let stats = sims[i].stats();
            assert_eq!(n.committed, stats.committed, "context {i}");
            assert_eq!(n.cycles, if done[i] { finish[i] } else { clock }.max(1), "context {i}");
            assert_eq!(
                n.long_guard_stall_cycles, stats.long_guard_stall_cycles,
                "context {i}"
            );
            assert_eq!(
                multi.ctx(i).arch_checkpoint().fingerprint(),
                sims[i].arch_checkpoint().fingerprint(),
                "context {i}"
            );
        }
    }

    #[test]
    fn tighter_long_capacity_cannot_reduce_guard_pressure() {
        let progs = programs(&["hash_table", "sparse_update"]);
        let run_at = |cap: usize| {
            let mut multi = MultiSim::new(
                progs.iter().map(|p| (carf_cfg(), p)).collect(),
                SharingPolicy::shared_long(cap),
            )
            .unwrap();
            let rs = multi.run(400_000, 15_000).unwrap();
            rs.iter().map(|r| r.long_guard_stall_cycles).sum::<u64>()
        };
        assert!(run_at(40) >= run_at(48), "tighter sharing cannot reduce guard pressure");
    }

    #[test]
    fn shared_l2_constructive_and_destructive_sharing_runs() {
        let progs = programs(&["pointer_chase", "hash_table"]);
        let mut multi = MultiSim::new(
            progs.iter().map(|p| (carf_cfg(), p)).collect(),
            SharingPolicy::shared_l2(),
        )
        .unwrap();
        // Step a fixed slice of the shared clock so both contexts snapshot
        // the shared counters at the same instant (a finished context's
        // stats freeze while co-runners keep mutating the shared array).
        for _ in 0..1_000 {
            multi.step(u64::MAX).unwrap();
        }
        assert!(!multi.all_done(), "workloads too short for this test");
        // Both contexts report the same aggregate shared-L2 counters.
        let a = multi.ctx(0).stats().mem;
        let b = multi.ctx(1).stats().mem;
        assert_eq!(a.l2, b.l2);
        assert_eq!(a.memory_accesses, b.memory_accesses);
        // Private L1s stay per-context: the two programs differ.
        assert_ne!(a.dl1.hits, b.dl1.hits);
        // And the run completes correctly under sharing.
        let results = multi.run(400_000, 10_000).unwrap();
        for r in &results {
            assert!(r.committed >= 10_000, "{r:?}");
        }
    }

    #[test]
    fn round_robin_single_slot_denies_half_the_cycles() {
        let progs = programs(&["pointer_chase", "hash_table"]);
        let mut multi = MultiSim::new(
            progs.iter().map(|p| (carf_cfg(), p)).collect(),
            SharingPolicy {
                fetch: FetchArbitration::RoundRobin { slots: 1 },
                ..SharingPolicy::isolated()
            },
        )
        .unwrap();
        multi.run(400_000, 5_000).unwrap();
        let c = multi.contention();
        // With one slot and two hungry contexts, each is denied roughly
        // every other cycle while both run.
        assert!(c.fetch_denied[0] > 0 && c.fetch_denied[1] > 0, "{c:?}");
        // And arbitration slows both down versus free fetch.
        let mut free = MultiSim::new(
            progs.iter().map(|p| (carf_cfg(), p)).collect(),
            SharingPolicy::isolated(),
        )
        .unwrap();
        free.run(400_000, 5_000).unwrap();
        assert!(multi.cycles() > free.cycles());
    }

    #[test]
    fn icount_favors_the_drainer() {
        let progs = programs(&["pointer_chase", "hash_table"]);
        let mut multi = MultiSim::new(
            progs.iter().map(|p| (carf_cfg(), p)).collect(),
            SharingPolicy {
                fetch: FetchArbitration::ICount { slots: 1 },
                ..SharingPolicy::isolated()
            },
        )
        .unwrap();
        let results = multi.run(400_000, 5_000).unwrap();
        for (i, r) in results.iter().enumerate() {
            assert!(r.committed >= 5_000, "context {i}: {r:?}");
        }
        let c = multi.contention();
        assert_eq!(c.fetch_denied.iter().filter(|&&d| d > 0).count(), 2);
    }

    #[test]
    fn sharing_policies_do_not_change_architectural_state() {
        // Timing-only: the shared-everything run must retire exactly the
        // state of isolated solo runs.
        let progs = programs(&["pointer_chase", "sort_kernel"]);
        let policy = SharingPolicy {
            shared_long_capacity: Some(44),
            shared_l2: true,
            fetch: FetchArbitration::ICount { slots: 1 },
        };
        let mut shared =
            MultiSim::new(progs.iter().map(|p| (carf_cfg(), p)).collect(), policy).unwrap();
        shared.run(600_000, 8_000).unwrap();
        for (i, p) in progs.iter().enumerate() {
            let mut solo = AnySimulator::new(carf_cfg(), p);
            solo.run(8_000).unwrap();
            assert_eq!(
                shared.ctx(i).arch_checkpoint().fingerprint(),
                solo.arch_checkpoint().fingerprint(),
                "context {i} diverged architecturally under sharing"
            );
            assert_eq!(shared.ctx(i).retired(), solo.retired(), "context {i}");
        }
    }

    #[test]
    fn construction_errors_are_reported() {
        let wls = int_suite();
        let a = wls[0].build_class(SizeClass::Test);
        assert!(MultiSim::new(vec![], SharingPolicy::isolated())
            .unwrap_err()
            .contains("at least one context"));
        assert!(MultiSim::new(vec![(carf_cfg(), &a)], SharingPolicy::shared_long(0))
            .unwrap_err()
            .contains("at least 1"));
        let small = SimConfig::paper_carf(CarfParams {
            long_entries: 40,
            ..CarfParams::paper_default()
        });
        assert!(MultiSim::new(vec![(small, &a)], SharingPolicy::shared_long(48))
            .unwrap_err()
            .contains("smaller than the shared capacity"));
        assert!(MultiSim::new(
            vec![(carf_cfg(), &a)],
            SharingPolicy {
                fetch: FetchArbitration::RoundRobin { slots: 0 },
                ..SharingPolicy::isolated()
            },
        )
        .unwrap_err()
        .contains("at least one slot"));
        let mut tiny_l2 = carf_cfg();
        tiny_l2.hierarchy = carf_mem::HierarchyConfig::tiny();
        assert!(MultiSim::new(
            vec![(carf_cfg(), &a), (tiny_l2, &a)],
            SharingPolicy::shared_l2(),
        )
        .unwrap_err()
        .contains("different L2 geometry"));
        // A Baseline context under a shared-Long policy is *valid*: the
        // capacity window is inert (control row), not an error.
        let mut base = SimConfig::paper_baseline();
        base.cosim = true;
        let mut multi =
            MultiSim::new(vec![(base, &a)], SharingPolicy::shared_long(48)).unwrap();
        multi.run(200_000, 2_000).unwrap();
    }
}
