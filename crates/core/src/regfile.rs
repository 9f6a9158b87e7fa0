//! The composed content-aware register file and the common register-file
//! interface the pipeline programs against.

use std::marker::PhantomData;

use crate::long_file::{LongFile, LongFileFull};
use crate::params::CarfParams;
use crate::short_file::ShortFile;
use crate::simple_file::SimpleFile;
use crate::stats::AccessStats;
use crate::value::{
    classify, extend_simple, is_simple, reconstruct_long, reconstruct_short, split_long,
    split_short, ValueClass,
};

/// When the Short file may be allocated (paper §3.1 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShortAllocPolicy {
    /// Only load/store address computations allocate Short entries — the
    /// paper's choice ("good short values mainly come from address
    /// computations").
    #[default]
    AddressesOnly,
    /// Every produced result attempts an allocation. The paper reports this
    /// thrashes the small Short file.
    AllResults,
}

/// How the Short file is searched (paper §4 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShortIndexPolicy {
    /// Direct-indexed by value bits `[d, d+n)` — the paper's choice.
    #[default]
    DirectIndexed,
    /// Fully associative (CAM). Slightly better IPC, much worse energy;
    /// modeled for the ablation study.
    Associative,
}

/// Tunable policies of the content-aware file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Policies {
    /// Short allocation trigger.
    pub short_alloc: ShortAllocPolicy,
    /// Short lookup organization.
    pub short_index: ShortIndexPolicy,
    /// Stall issue when free Long entries drop to this many (the paper
    /// stalls at the issue width to avoid pseudo-deadlock).
    pub long_stall_threshold: usize,
    /// Whether the extra bypass level of the modified pipeline is present.
    pub extra_bypass: bool,
}

impl Default for Policies {
    fn default() -> Self {
        Self {
            short_alloc: ShortAllocPolicy::AddressesOnly,
            short_index: ShortIndexPolicy::DirectIndexed,
            long_stall_threshold: 8, // the paper's issue width
            extra_bypass: true,
        }
    }
}

/// Occupancy report of a content-aware (or otherwise partitioned) register
/// file's sub-structures, for end-of-run statistics. Organizations without
/// sub-files (the baseline) report `None` from
/// [`IntRegFile::occupancy_report`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SubfileOccupancy {
    /// Mean live Long entries over the sampled run.
    pub long_mean_live: f64,
    /// Peak live Long entries.
    pub long_peak_live: usize,
    /// Mean sampled Short-file occupancy.
    pub short_mean_occupancy: f64,
    /// Histogram of live-Long-entry counts (index = live entries).
    pub long_occupancy_hist: Vec<u64>,
}

/// The physical integer register file interface the pipeline uses.
///
/// Two implementations serve the four backends: the sub-file code behind
/// the [`ContentAwareRegFile`] and the
/// [`CompressedRegFile`](crate::CompressedRegFile), and the untyped array
/// behind the [`BaselineRegFile`](crate::BaselineRegFile) and the
/// [`PortReducedRegFile`](crate::PortReducedRegFile). The simulator is
/// generic over it and monomorphizes per backend. Tags are physical
/// register numbers assigned by the renamer.
///
/// Organization-specific capabilities (CARF introspection, SMT Long-file
/// sharing, occupancy reporting) are defaulted hooks rather than concrete-type
/// escape hatches: a backend without the capability inherits the no-op default,
/// and callers stay generic.
pub trait IntRegFile {
    /// Number of physical tags.
    fn num_tags(&self) -> usize;

    /// Called when the renamer assigns `tag` to a new instruction; clears
    /// any stale state.
    fn on_alloc(&mut self, tag: usize);

    /// Writes `value` into `tag` (the full WR1+WR2 sequence for the
    /// content-aware file). `from_address_op` is `true` when the producing
    /// instruction computed a load/store address.
    ///
    /// Returns the value class chosen (where the organization has one).
    ///
    /// # Errors
    ///
    /// Returns [`LongFileFull`] when a long value cannot be allocated; the
    /// pipeline must retry next cycle (this is the paper's pseudo-deadlock
    /// stall, resolved when commit frees Long entries).
    fn try_write(
        &mut self,
        tag: usize,
        value: u64,
        from_address_op: bool,
    ) -> Result<Option<ValueClass>, LongFileFull>;

    /// Reads the value held in `tag`, updating access statistics.
    ///
    /// # Panics
    ///
    /// Panics if `tag` was never written — the pipeline must not read an
    /// unproduced operand from the register file (it would come from the
    /// bypass network instead).
    fn read(&mut self, tag: usize) -> u64;

    /// Reads without touching statistics (oracle sampling, debugging).
    fn peek(&self, tag: usize) -> Option<u64>;

    /// The value class stored in `tag`, for organizations that track one.
    fn class_of(&self, tag: usize) -> Option<ValueClass>;

    /// Releases `tag` (commit of an overwriting instruction, or squash).
    fn release(&mut self, tag: usize);

    /// Observes an effective address computed by a load/store (the Short
    /// file's only allocation trigger under the paper's policy).
    fn observe_address(&mut self, addr: u64);

    /// Ends a ROB interval (drives the Short file's reference-bit aging).
    fn rob_interval_tick(&mut self);

    /// `true` when instruction issue should stall to avoid Long-file
    /// pseudo-deadlock.
    fn should_stall_issue(&self) -> bool;

    /// Pipeline register-read stages this organization needs (1 for the
    /// baseline, 2 for the content-aware file: RF1 + RF2).
    fn read_stages(&self) -> u32;

    /// Pipeline writeback stages (1 for the baseline, 2 for WR1 + WR2).
    fn writeback_stages(&self) -> u32;

    /// Whether the organization comes with the extra bypass level.
    fn extra_bypass_level(&self) -> bool;

    /// Samples occupancy statistics (call once per cycle or period).
    fn sample_occupancy(&mut self);

    /// Accumulated access statistics.
    fn stats(&self) -> &AccessStats;

    /// Mutable access to statistics (the pipeline adds bypass counts).
    fn stats_mut(&mut self) -> &mut AccessStats;

    // ----- defaulted capability hooks -----------------------------------
    //
    // Everything below has a no-op default so simple organizations (the
    // baseline) implement nothing, while content-aware-style organizations
    // expose their specifics without concrete-type escape hatches.

    /// The CARF geometry, for organizations built from [`CarfParams`].
    fn carf_params(&self) -> Option<&CarfParams> {
        None
    }

    /// The CARF policies, for organizations that have them.
    fn carf_policies(&self) -> Option<&Policies> {
        None
    }

    /// Caps the number of live Long entries (SMT shared-Long-file
    /// experiments). No-op for organizations without a Long file.
    fn set_long_capacity_limit(&mut self, _limit: usize) {}

    /// Currently live Long entries (0 for organizations without a Long
    /// file).
    fn long_live_count(&self) -> usize {
        0
    }

    /// Mean sampled Short-file occupancy (0.0 without a Short file).
    fn mean_short_occupancy(&self) -> f64 {
        0.0
    }

    /// End-of-run sub-file occupancy statistics, `None` for monolithic
    /// organizations.
    fn occupancy_report(&self) -> Option<SubfileOccupancy> {
        None
    }

    /// The value class WR1 type-determination *would* choose for `value`
    /// right now, without performing the write or any allocation (a probe
    /// miss reports [`ValueClass::Long`] even where the actual write could
    /// still allocate a Short entry). `None` for untyped organizations.
    ///
    /// Contract (pinned by the shared boundary test in
    /// `tests/classify_boundaries.rs`): for every typed organization this
    /// must equal [`crate::classify`]`(params, value, probe_hit)` where
    /// `probe_hit` is the organization's own non-mutating Short/dictionary
    /// probe — in particular the Simple test wins over a probe hit, and the
    /// `from_address_op` flag never changes the *probe* outcome (it only
    /// governs allocation, which this hook must not perform).
    fn classify_value(&self, _value: u64, _from_address_op: bool) -> Option<ValueClass> {
        None
    }

    /// Physical read-port budget this organization imposes on the issue
    /// stage, overriding the machine configuration's port count. `None`
    /// (the default) leaves the configured `rf_read_ports` budget in
    /// force.
    fn read_port_limit(&self) -> Option<u32> {
        None
    }

    /// `true` when a read of `tag` this cycle would be served by an
    /// operand-reuse/last-writeback capture buffer instead of a physical
    /// read port. Backends with such a buffer count the hit into
    /// [`AccessStats::capture_reuse_hits`]; the default has no buffer and
    /// never hits, so port accounting is unchanged.
    fn capture_buffer_hit(&mut self, _tag: usize) -> bool {
        false
    }
}

/// What tells apart the organizations that run [`SubfileRegFile`]'s code:
/// the paper's content-aware file and the statically-compressed file
/// ([`CompressedRegFile`](crate::CompressedRegFile)). Only this crate's
/// markers implement it.
pub trait SubfileOrganization {
    /// Register-read stages, and as many writeback stages: 2 for RF1+RF2
    /// and WR1+WR2, 1 where every sub-file is read or written in one cycle.
    const STAGES: u32;
    /// Whether [`IntRegFile::carf_policies`] reports the file's policies.
    const REPORTS_POLICIES: bool;
}

/// The paper's organization: two-stage read and writeback, under the
/// [`Policies`] it was built with.
#[derive(Debug, Clone)]
pub enum ContentAware {}

impl SubfileOrganization for ContentAware {
    const STAGES: u32 = 2;
    const REPORTS_POLICIES: bool = true;
}

/// The paper's three-file content-aware integer register file.
///
/// * N Simple entries (one per physical tag), each `d+n+2` bits;
/// * M Short entries of `64-d-n` bits, direct-indexed, aged by
///   Tcur/Tarch/Told reference bits at ROB-interval boundaries;
/// * K Long entries of `64-d-n+m` bits with a free list.
///
/// Writes perform WR1 (type determination: sign-extension compare plus a
/// Short probe) and WR2 (the write, with Long allocation when needed);
/// reads perform RF1 (Simple access) and RF2 (Short/Long access plus the
/// result mux). Values always reconstruct exactly — verified by a shadow
/// copy under `debug_assertions` and by the crate's property tests.
///
/// **Liveness requirement:** the Long file must be able to back every
/// architecturally live wide value at once — `long_entries` must be at
/// least the number of architectural integer registers that can
/// simultaneously hold long values (32 on this ISA), plus slack for
/// in-flight results. The paper's 48 entries satisfy this; a smaller file
/// can deadlock on a workload whose committed state is all-wide, which no
/// stall or flush can resolve.
///
/// # Example
///
/// ```
/// use carf_core::{CarfParams, ContentAwareRegFile, IntRegFile, ValueClass};
///
/// let mut rf = ContentAwareRegFile::new(CarfParams::paper_default());
/// let heap_ptr = 0x0000_7f3a_8000_1040u64;
///
/// // A load computes this address: the Short file learns its high bits.
/// rf.observe_address(heap_ptr);
///
/// // A later pointer value in the same region classifies as short.
/// rf.on_alloc(3);
/// let class = rf.try_write(3, heap_ptr + 0x80, true)?.unwrap();
/// assert_eq!(class, ValueClass::Short);
/// assert_eq!(rf.read(3), heap_ptr + 0x80);
/// # Ok::<(), carf_core::LongFileFull>(())
/// ```
pub type ContentAwareRegFile = SubfileRegFile<ContentAware>;

/// Simple, Short and Long sub-files behind a WR1 type check, under a
/// [`Policies`] record; the organization `O` sets the pipeline shape. See
/// [`ContentAwareRegFile`] for the layout.
#[derive(Debug, Clone)]
pub struct SubfileRegFile<O> {
    params: CarfParams,
    policies: Policies,
    simple: SimpleFile,
    short: ShortFile,
    long: LongFile,
    /// Explicit Short slot per tag — required under the associative policy
    /// (where the pointer is not recoverable from the value bits) and used
    /// as a cross-check under the direct policy.
    short_ptr: Vec<Option<u32>>,
    /// Long slot per tag (for release).
    long_ptr: Vec<Option<u32>>,
    /// Shadow of the full written value, used to assert reconstruction
    /// correctness in debug builds.
    shadow: Vec<u64>,
    stats: AccessStats,
    short_occupancy_sum: u64,
    occupancy_samples: u64,
    organization: PhantomData<O>,
}

impl ContentAwareRegFile {
    /// Creates an empty file with the paper's default policies.
    ///
    /// # Panics
    ///
    /// Panics if `params` fail [`CarfParams::validate`].
    pub fn new(params: CarfParams) -> Self {
        Self::with_policies(params, Policies::default())
    }

    /// Creates an empty file with explicit policies.
    ///
    /// # Panics
    ///
    /// Panics if `params` fail [`CarfParams::validate`].
    pub fn with_policies(params: CarfParams, policies: Policies) -> Self {
        Self::build(params, policies)
    }

    /// The active policies.
    pub fn policies(&self) -> &Policies {
        &self.policies
    }
}

impl<O: SubfileOrganization> SubfileRegFile<O> {
    /// An empty file.
    ///
    /// # Panics
    ///
    /// Panics if `params` fail [`CarfParams::validate`].
    pub(crate) fn build(params: CarfParams, policies: Policies) -> Self {
        params.validate().expect("invalid CARF parameters");
        Self {
            simple: SimpleFile::new(params.simple_entries),
            short: ShortFile::new(&params),
            long: LongFile::new(params.long_entries),
            short_ptr: vec![None; params.simple_entries],
            long_ptr: vec![None; params.simple_entries],
            shadow: vec![0; params.simple_entries],
            params,
            policies,
            stats: AccessStats::new(),
            short_occupancy_sum: 0,
            occupancy_samples: 0,
            organization: PhantomData,
        }
    }

    /// The geometry this file was built with.
    pub fn params(&self) -> &CarfParams {
        &self.params
    }

    /// The Short sub-file (inspection and tests).
    pub fn short_file(&self) -> &ShortFile {
        &self.short
    }

    /// The Long sub-file (inspection and tests).
    pub fn long_file(&self) -> &LongFile {
        &self.long
    }

    fn probe_short(&self, value: u64) -> Option<usize> {
        match self.policies.short_index {
            ShortIndexPolicy::DirectIndexed => self.short.probe(&self.params, value),
            ShortIndexPolicy::Associative => self.short.probe_associative(&self.params, value),
        }
    }

    fn alloc_short(&mut self, value: u64) -> Option<usize> {
        match self.policies.short_index {
            ShortIndexPolicy::DirectIndexed => self.short.try_alloc(&self.params, value),
            ShortIndexPolicy::Associative => {
                self.short.try_alloc_associative(&self.params, value)
            }
        }
    }

    fn reconstruct(&self, tag: usize) -> u64 {
        let entry = self.simple.read(tag);
        match entry.rd.expect("register read before write") {
            ValueClass::Simple => extend_simple(&self.params, entry.value),
            ValueClass::Short => {
                let idx = self.short_ptr[tag].expect("short value without slot pointer") as usize;
                reconstruct_short(&self.params, self.short.slot(idx).high, entry.value)
            }
            ValueClass::Long => {
                let idx = self.long_ptr[tag].expect("long value without slot pointer") as usize;
                reconstruct_long(&self.params, self.long.read(idx), entry.value)
            }
        }
    }
}

impl<O: SubfileOrganization> IntRegFile for SubfileRegFile<O> {
    fn num_tags(&self) -> usize {
        self.params.simple_entries
    }

    fn on_alloc(&mut self, tag: usize) {
        self.simple.clear(tag);
        debug_assert!(self.long_ptr[tag].is_none(), "tag {tag} reallocated while holding a long entry");
        self.short_ptr[tag] = None;
        self.long_ptr[tag] = None;
    }

    fn try_write(
        &mut self,
        tag: usize,
        value: u64,
        from_address_op: bool,
    ) -> Result<Option<ValueClass>, LongFileFull> {
        // WR1: type determination. The sign-extension compare and the Short
        // probe happen concurrently in hardware.
        let class = if is_simple(&self.params, value) {
            ValueClass::Simple
        } else if let Some(idx) = self.probe_short(value) {
            self.short.mark_used(idx);
            self.short_ptr[tag] = Some(idx as u32);
            ValueClass::Short
        } else {
            // Allocation policies: the paper allocates Short entries from
            // address computations only; the ablation tries every result.
            let alloc_now = match self.policies.short_alloc {
                ShortAllocPolicy::AddressesOnly => from_address_op,
                ShortAllocPolicy::AllResults => true,
            };
            let allocated = if alloc_now { self.alloc_short(value) } else { None };
            match allocated {
                Some(idx) => {
                    self.short_ptr[tag] = Some(idx as u32);
                    ValueClass::Short
                }
                None => ValueClass::Long,
            }
        };

        // WR2: perform the write (and the Long allocation when needed).
        match class {
            ValueClass::Simple => {
                self.simple.write(tag, class, value & self.params.value_field_mask());
            }
            ValueClass::Short => {
                self.simple.write(tag, class, split_short(&self.params, value).1);
            }
            ValueClass::Long => {
                let (high, low) = split_long(&self.params, value);
                let idx = match self.long.alloc(high) {
                    Ok(idx) => idx,
                    Err(full) => {
                        self.stats.long_write_stalls += 1;
                        return Err(full);
                    }
                };
                self.long_ptr[tag] = Some(idx as u32);
                // The Value field packs the m-bit pointer above the low
                // d+n-m value bits.
                let packed = ((idx as u64) << (self.params.dn() - self.params.m())) | low;
                self.simple.write(tag, class, packed);
            }
        }
        self.shadow[tag] = value;
        self.stats.writes.bump(class);
        self.stats.total_writes += 1;
        Ok(Some(class))
    }

    fn read(&mut self, tag: usize) -> u64 {
        let value = self.reconstruct(tag);
        debug_assert_eq!(
            value, self.shadow[tag],
            "sub-file reconstruction diverged for tag {tag}"
        );
        let class = self.simple.read(tag).rd.expect("register read before write");
        self.stats.reads.bump(class);
        self.stats.total_reads += 1;
        value
    }

    fn peek(&self, tag: usize) -> Option<u64> {
        self.simple.read(tag).rd.map(|_| self.reconstruct(tag))
    }

    fn class_of(&self, tag: usize) -> Option<ValueClass> {
        self.simple.read(tag).rd
    }

    fn release(&mut self, tag: usize) {
        if let Some(idx) = self.long_ptr[tag].take() {
            self.long.release(idx as usize);
        }
        self.short_ptr[tag] = None;
        self.simple.clear(tag);
    }

    fn observe_address(&mut self, addr: u64) {
        // A simple address needs no Short entry: the value it would back is
        // already representable in the Simple file alone.
        if is_simple(&self.params, addr) {
            return;
        }
        if matches!(self.policies.short_alloc, ShortAllocPolicy::AddressesOnly) {
            let _ = self.alloc_short(addr);
        }
    }

    fn rob_interval_tick(&mut self) {
        // Background Tarch scan: every live short value protects its slot.
        // (The paper scans architectural registers; protecting all live
        // Simple entries is the safe superset and prevents a live value from
        // losing its high bits.)
        let refs: Vec<usize> = self
            .short_ptr
            .iter()
            .enumerate()
            .filter(|(tag, p)| {
                p.is_some() && self.simple.read(*tag).rd == Some(ValueClass::Short)
            })
            .filter_map(|(_, p)| p.map(|i| i as usize))
            .collect();
        self.short.rob_interval_tick(refs);
    }

    fn should_stall_issue(&self) -> bool {
        self.long.free_count() <= self.policies.long_stall_threshold
    }

    fn read_stages(&self) -> u32 {
        O::STAGES
    }

    fn writeback_stages(&self) -> u32 {
        O::STAGES
    }

    fn extra_bypass_level(&self) -> bool {
        self.policies.extra_bypass
    }

    fn sample_occupancy(&mut self) {
        self.long.sample_occupancy();
        self.short_occupancy_sum += self.short.occupancy() as u64;
        self.occupancy_samples += 1;
        // Mirror the sub-files' traffic counters into the access stats so
        // observers see Short alloc/reject/reclaim and Long pointer traffic
        // without reaching into the sub-file internals.
        self.stats.short_allocs = self.short.allocations();
        self.stats.short_alloc_rejects = self.short.rejected_allocations();
        self.stats.short_reclaims = self.short.reclaims();
        self.stats.long_allocs = self.long.allocations();
        self.stats.long_releases = self.long.releases();
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

    fn carf_policies(&self) -> Option<&Policies> {
        O::REPORTS_POLICIES.then_some(&self.policies)
    }

    /// Caps the Long file's live entries (see
    /// [`LongFile::set_capacity_limit`]); models sharing the physical
    /// array with another SMT thread.
    fn set_long_capacity_limit(&mut self, limit: usize) {
        self.long.set_capacity_limit(limit);
    }

    fn long_live_count(&self) -> usize {
        self.long.live_count()
    }

    fn mean_short_occupancy(&self) -> f64 {
        if self.occupancy_samples == 0 {
            0.0
        } else {
            self.short_occupancy_sum as f64 / self.occupancy_samples as f64
        }
    }

    fn occupancy_report(&self) -> Option<SubfileOccupancy> {
        Some(SubfileOccupancy {
            long_mean_live: self.long.mean_live(),
            long_peak_live: self.long.peak_live(),
            short_mean_occupancy: self.mean_short_occupancy(),
            long_occupancy_hist: self.long.occupancy_histogram().to_vec(),
        })
    }

    fn classify_value(&self, value: u64, _from_address_op: bool) -> Option<ValueClass> {
        // Delegate precedence to the shared free function so the hook can
        // never drift from the WR1 algebra (pinned by the cross-backend
        // boundary test).
        Some(classify(&self.params, value, self.probe_short(value).is_some()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEAP: u64 = 0x0000_7f3a_8000_0000;

    fn rf() -> ContentAwareRegFile {
        ContentAwareRegFile::new(CarfParams::paper_default())
    }

    #[test]
    fn simple_values_round_trip() {
        let mut rf = rf();
        for (tag, v) in [(0usize, 0u64), (1, 42), (2, (-1i64) as u64), (3, (-524288i64) as u64)] {
            rf.on_alloc(tag);
            assert_eq!(rf.try_write(tag, v, false).unwrap(), Some(ValueClass::Simple));
            assert_eq!(rf.read(tag), v);
        }
        assert_eq!(rf.stats().writes.simple, 4);
        assert_eq!(rf.stats().reads.simple, 4);
    }

    #[test]
    fn address_observation_enables_short_classification() {
        let mut rf = rf();
        rf.observe_address(HEAP + 0x100);
        rf.on_alloc(0);
        let class = rf.try_write(0, HEAP + 0x3f00, true).unwrap().unwrap();
        assert_eq!(class, ValueClass::Short);
        assert_eq!(rf.read(0), HEAP + 0x3f00);
    }

    #[test]
    fn unknown_wide_value_is_long() {
        let mut rf = rf();
        rf.on_alloc(0);
        let v = 0xdead_beef_cafe_f00d;
        assert_eq!(rf.try_write(0, v, false).unwrap(), Some(ValueClass::Long));
        assert_eq!(rf.read(0), v);
        assert_eq!(rf.long_file().live_count(), 1);
        rf.release(0);
        assert_eq!(rf.long_file().live_count(), 0);
    }

    #[test]
    fn address_producers_allocate_short_entries_on_write() {
        let mut rf = rf();
        rf.on_alloc(0);
        // No prior observation, but the producing instruction is an address
        // computation, so WR-time allocation applies.
        assert_eq!(rf.try_write(0, HEAP, true).unwrap(), Some(ValueClass::Short));
        // A non-address producer in a *different* region stays long.
        rf.on_alloc(1);
        assert_eq!(
            rf.try_write(1, 0x1111_2222_3333_4444, false).unwrap(),
            Some(ValueClass::Long)
        );
    }

    #[test]
    fn long_exhaustion_stalls_and_recovers() {
        let params = CarfParams { long_entries: 2, ..CarfParams::paper_default() };
        let mut rf = ContentAwareRegFile::with_policies(
            params,
            Policies { long_stall_threshold: 0, ..Policies::default() },
        );
        rf.on_alloc(0);
        rf.on_alloc(1);
        rf.on_alloc(2);
        rf.try_write(0, 0xaaaa_bbbb_cccc_dddd, false).unwrap();
        rf.try_write(1, 0x9999_8888_7777_6666, false).unwrap();
        assert!(rf.try_write(2, 0x1234_5678_9abc_def1, false).is_err());
        assert_eq!(rf.stats().long_write_stalls, 1);
        // Commit frees tag 0; the retry succeeds.
        rf.release(0);
        assert!(rf.try_write(2, 0x1234_5678_9abc_def1, false).is_ok());
        assert_eq!(rf.read(2), 0x1234_5678_9abc_def1);
    }

    #[test]
    fn issue_stall_guard_tracks_free_longs() {
        let params = CarfParams { long_entries: 10, ..CarfParams::paper_default() };
        let mut rf = ContentAwareRegFile::with_policies(
            params,
            Policies { long_stall_threshold: 8, ..Policies::default() },
        );
        assert!(!rf.should_stall_issue());
        rf.on_alloc(0);
        rf.on_alloc(1);
        rf.try_write(0, 0xdead_0000_0000_0001, false).unwrap();
        assert!(!rf.should_stall_issue()); // 9 free > 8
        rf.try_write(1, 0xbeef_0000_0000_0001, false).unwrap();
        assert!(rf.should_stall_issue()); // 8 free <= 8
    }

    #[test]
    fn short_slot_survives_while_live_register_points_at_it() {
        let mut rf = rf();
        rf.observe_address(HEAP);
        rf.on_alloc(0);
        rf.try_write(0, HEAP + 4, true).unwrap();
        // Many ROB intervals pass with no further use.
        for _ in 0..8 {
            rf.rob_interval_tick();
        }
        // The live register still reads back correctly: its slot was
        // protected by the background scan.
        assert_eq!(rf.read(0), HEAP + 4);
        // After release, the slot ages out and can be reclaimed.
        rf.release(0);
        rf.rob_interval_tick();
        rf.rob_interval_tick();
        let other = 0x0000_5555_0000_0000u64 | (HEAP & 0xe_0000);
        rf.observe_address(other);
        // Same direct slot, new group: allocation succeeded.
        assert_eq!(rf.short_file().occupancy(), 1);
    }

    #[test]
    fn all_results_policy_allocates_from_any_producer() {
        let params = CarfParams::paper_default();
        let mut rf = ContentAwareRegFile::with_policies(
            params,
            Policies { short_alloc: ShortAllocPolicy::AllResults, ..Policies::default() },
        );
        rf.on_alloc(0);
        // Not an address op, but the policy allocates anyway.
        assert_eq!(rf.try_write(0, HEAP, false).unwrap(), Some(ValueClass::Short));
    }

    #[test]
    fn associative_policy_reconstructs_correctly() {
        let params = CarfParams::paper_default();
        let mut rf = ContentAwareRegFile::with_policies(
            params,
            Policies { short_index: ShortIndexPolicy::Associative, ..Policies::default() },
        );
        // Two groups colliding on the same direct slot both fit.
        let a = HEAP | (3 << 17);
        let b = 0x0000_6666_0000_0000u64 | (3 << 17);
        rf.observe_address(a);
        rf.observe_address(b);
        rf.on_alloc(0);
        rf.on_alloc(1);
        assert_eq!(rf.try_write(0, a + 5, true).unwrap(), Some(ValueClass::Short));
        assert_eq!(rf.try_write(1, b + 9, true).unwrap(), Some(ValueClass::Short));
        assert_eq!(rf.read(0), a + 5);
        assert_eq!(rf.read(1), b + 9);
    }

    #[test]
    fn peek_does_not_touch_stats() {
        let mut rf = rf();
        rf.on_alloc(0);
        rf.try_write(0, 7, false).unwrap();
        assert_eq!(rf.peek(0), Some(7));
        assert_eq!(rf.peek(1), None);
        assert_eq!(rf.stats().total_reads, 0);
    }

    #[test]
    #[should_panic(expected = "read before write")]
    fn reading_unwritten_tag_is_a_pipeline_bug() {
        let mut rf = rf();
        rf.on_alloc(0);
        let _ = rf.read(0);
    }

    #[test]
    fn occupancy_sampling() {
        let mut rf = rf();
        rf.observe_address(HEAP);
        rf.sample_occupancy();
        assert_eq!(rf.mean_short_occupancy(), 1.0);
        assert_eq!(rf.long_file().mean_live(), 0.0);
    }

    #[test]
    fn write_after_release_reuses_tag_cleanly() {
        let mut rf = rf();
        rf.on_alloc(5);
        rf.try_write(5, 0xdead_beef_0000_0001, false).unwrap();
        rf.release(5);
        rf.on_alloc(5);
        rf.try_write(5, 3, false).unwrap();
        assert_eq!(rf.read(5), 3);
        assert_eq!(rf.class_of(5), Some(ValueClass::Simple));
        assert_eq!(rf.long_file().live_count(), 0);
    }
}
