//! A statically-compressed register file: narrow value-class-aware banks
//! with an exception path for incompressible values.
//!
//! The organization follows the static data-compression register files
//! studied for GPUs (Angerd et al., arXiv 2006.05693), transplanted onto
//! this ISA's integer file: most values are stored compressed in a narrow
//! bank, a small dictionary holds the high-bit patterns shared by groups
//! of similar values, and the minority of incompressible values overflow
//! into a small exception bank. That is the content-aware file's
//! Simple/Short/Long structure under another allocation policy, so this
//! file runs [`SubfileRegFile`]'s code — but with a *baseline-shaped
//! pipeline*: single-cycle read and writeback, no extra bypass level, and
//! no address-only allocation policy (static compression learns from every
//! produced result, not just addresses).

use crate::params::CarfParams;
use crate::regfile::{
    Policies, ShortAllocPolicy, ShortIndexPolicy, SubfileOrganization, SubfileRegFile,
};

/// Every produced result may claim the direct-indexed dictionary slot it
/// maps to; issue stalls at one issue group's worth of free overflow
/// entries (the paper's pseudo-deadlock guard); no extra bypass level.
const POLICIES: Policies = Policies {
    short_alloc: ShortAllocPolicy::AllResults,
    short_index: ShortIndexPolicy::DirectIndexed,
    long_stall_threshold: 8,
    extra_bypass: false,
};

/// The compressed organization: the narrow bank, dictionary and overflow
/// bank are read in parallel and muxed in one cycle, and written in one.
#[derive(Debug, Clone)]
pub enum Compressed {}

impl SubfileOrganization for Compressed {
    const STAGES: u32 = 1;
    const REPORTS_POLICIES: bool = false;
}

/// A narrow-bank register file with dictionary compression and an
/// overflow bank.
///
/// * N narrow entries of `d+n+2` bits (2-bit class tag + `d+n`-bit
///   payload), one per physical tag: the Simple file;
/// * M dictionary entries of `64-d-n` bits holding shared high-bit
///   patterns: the Short file, aged by the same reference bits;
/// * K overflow entries holding what the narrow entry cannot: the Long
///   file.
///
/// A write classifies its value with [`classify`](crate::classify):
/// sign-extending values store only their low `d+n` bits; values whose
/// high bits match (or can claim) a dictionary entry store their low bits
/// plus the dictionary reference; everything else goes to the overflow
/// bank, and a full overflow bank reports
/// [`LongFileFull`](crate::LongFileFull) so the pipeline retries (the same
/// recovery path as the content-aware Long file).
///
/// # Example
///
/// ```
/// use carf_core::{CarfParams, CompressedRegFile, IntRegFile, ValueClass};
///
/// let mut rf = CompressedRegFile::new(CarfParams::paper_default());
/// rf.on_alloc(0);
/// // A small constant compresses to its low 20 bits.
/// assert_eq!(rf.try_write(0, 42, false)?, Some(ValueClass::Simple));
/// // A wide pointer claims a dictionary entry on first sight...
/// rf.on_alloc(1);
/// assert_eq!(rf.try_write(1, 0x7f3a_8000_1040, false)?, Some(ValueClass::Short));
/// // ...and similar values share it.
/// rf.on_alloc(2);
/// assert_eq!(rf.try_write(2, 0x7f3a_8000_2080, false)?, Some(ValueClass::Short));
/// assert_eq!(rf.read(2), 0x7f3a_8000_2080);
/// # Ok::<(), carf_core::LongFileFull>(())
/// ```
pub type CompressedRegFile = SubfileRegFile<Compressed>;

impl CompressedRegFile {
    /// Creates an empty file. The geometry is shared with the
    /// content-aware organization: `simple_entries` narrow entries,
    /// `short_entries` dictionary entries, `long_entries` overflow
    /// entries.
    ///
    /// # Panics
    ///
    /// Panics if `params` fail [`CarfParams::validate`].
    pub fn new(params: CarfParams) -> Self {
        Self::build(params, POLICIES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IntRegFile, ValueClass};

    const HEAP: u64 = 0x0000_7f3a_8000_0000;

    fn rf() -> CompressedRegFile {
        CompressedRegFile::new(CarfParams::paper_default())
    }


    #[test]
    fn any_producer_trains_the_dictionary() {
        let mut rf = rf();
        rf.on_alloc(0);
        // First sight of the region claims a dictionary slot even though
        // the producer is not an address computation.
        assert_eq!(rf.try_write(0, HEAP, false).unwrap(), Some(ValueClass::Short));
        rf.on_alloc(1);
        assert_eq!(rf.try_write(1, HEAP + 0x1f00, false).unwrap(), Some(ValueClass::Short));
        assert_eq!(rf.read(0), HEAP);
        assert_eq!(rf.read(1), HEAP + 0x1f00);
        assert_eq!(rf.short_file().occupancy(), 1);
    }

    #[test]
    fn observe_address_is_inert() {
        let mut rf = rf();
        rf.observe_address(HEAP);
        assert_eq!(rf.short_file().occupancy(), 0);
    }

    #[test]
    fn dictionary_conflict_overflows_whole_value() {
        let mut rf = rf();
        // Two wide regions colliding on the same direct dictionary slot:
        // the second is incompressible and takes the exception path.
        let a = HEAP;
        let b = 0x0000_5555_0000_0000u64 | (a & 0xe_0000);
        rf.on_alloc(0);
        rf.on_alloc(1);
        assert_eq!(rf.try_write(0, a, false).unwrap(), Some(ValueClass::Short));
        assert_eq!(rf.try_write(1, b, false).unwrap(), Some(ValueClass::Long));
        assert_eq!(rf.read(0), a);
        assert_eq!(rf.read(1), b);
        assert_eq!(rf.long_file().live_count(), 1);
        rf.release(1);
        assert_eq!(rf.long_file().live_count(), 0);
    }

    #[test]
    fn overflow_exhaustion_stalls_and_recovers() {
        let params = CarfParams { long_entries: 2, ..CarfParams::paper_default() };
        let mut rf = CompressedRegFile::new(params);
        // All values collide on dictionary slot 3: the first claims it and
        // compresses; the rest are incompressible and fill the overflow.
        let wide = |i: u64| (0x1111_0000_0000_0000u64 * (i + 1)) | (3 << 17);
        for tag in 0..4usize {
            rf.on_alloc(tag);
        }
        assert_eq!(rf.try_write(0, wide(0), false).unwrap(), Some(ValueClass::Short));
        assert_eq!(rf.try_write(1, wide(1), false).unwrap(), Some(ValueClass::Long));
        assert_eq!(rf.try_write(2, wide(2), false).unwrap(), Some(ValueClass::Long));
        assert!(rf.try_write(3, wide(3), false).is_err());
        assert_eq!(rf.stats().long_write_stalls, 1);
        // Commit frees an overflow holder; the retry succeeds.
        rf.release(1);
        assert!(rf.try_write(3, wide(3), false).is_ok());
        assert_eq!(rf.read(3), wide(3));
    }

    #[test]
    fn pipeline_shape_is_baseline_like() {
        let rf = rf();
        assert_eq!(rf.read_stages(), 1);
        assert_eq!(rf.writeback_stages(), 1);
        assert!(!rf.extra_bypass_level());
    }

    #[test]
    fn issue_guard_tracks_free_overflow_entries() {
        let params = CarfParams { long_entries: 10, ..CarfParams::paper_default() };
        let mut rf = CompressedRegFile::new(params);
        assert!(!rf.should_stall_issue());
        let wide = |i: u64| (0x1111_0000_0000_0000u64 * (i + 1)) | (5 << 17);
        rf.on_alloc(0);
        rf.try_write(0, wide(0), false).unwrap();
        // Dict holds wide(0)'s group; occupy a second tag with a colliding
        // region so it overflows.
        rf.on_alloc(1);
        rf.try_write(1, wide(1), false).unwrap();
        assert!(!rf.should_stall_issue()); // 9 free > 8
        rf.on_alloc(2);
        rf.try_write(2, wide(2), false).unwrap();
        assert!(rf.should_stall_issue()); // 8 free <= 8
    }

    #[test]
    fn live_registers_protect_dictionary_entries() {
        let mut rf = rf();
        rf.on_alloc(0);
        rf.try_write(0, HEAP + 4, false).unwrap();
        for _ in 0..8 {
            rf.rob_interval_tick();
        }
        assert_eq!(rf.read(0), HEAP + 4);
        // After release the entry ages out and the slot can be reclaimed.
        rf.release(0);
        rf.rob_interval_tick();
        rf.rob_interval_tick();
        let other = 0x0000_5555_0000_0000u64 | (HEAP & 0xe_0000);
        rf.on_alloc(1);
        assert_eq!(rf.try_write(1, other, false).unwrap(), Some(ValueClass::Short));
    }

    #[test]
    fn hooks_expose_the_organization() {
        let mut rf = rf();
        assert!(rf.carf_params().is_some());
        assert!(rf.carf_policies().is_none()); // no CARF policies here
        // Claim the direct dictionary slot with one region, then overflow
        // a colliding one.
        rf.on_alloc(0);
        rf.try_write(0, (0xAAAA << 32) | (5 << 17), false).unwrap();
        rf.on_alloc(1);
        rf.try_write(1, (0xBBBB << 32) | (5 << 17), false).unwrap();
        rf.sample_occupancy();
        let occ = rf.occupancy_report().expect("report");
        assert_eq!(occ.long_peak_live, 1);
        assert_eq!(rf.long_live_count(), 1);
        assert_eq!(rf.classify_value(7, true), Some(ValueClass::Simple));
    }

    #[test]
    fn classify_value_matches_subsequent_write() {
        let mut rf = rf();
        for (tag, v) in
            [(0usize, 9u64), (1, HEAP), (2, HEAP + 0x40), (3, 0xdead_beef_0000_0000)]
        {
            let predicted = rf.classify_value(v, false).unwrap();
            rf.on_alloc(tag);
            let written = rf.try_write(tag, v, false).unwrap().unwrap();
            // A probe miss predicts Long but the write may still claim a
            // free dictionary slot — the documented hook contract.
            if predicted != written {
                assert_eq!(predicted, ValueClass::Long);
                assert_eq!(written, ValueClass::Short);
            }
        }
    }
}
