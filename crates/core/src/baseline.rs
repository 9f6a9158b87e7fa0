//! The conventional monolithic register file used as the paper's baseline
//! (and, with more entries/ports, as the "unlimited" comparator), and the
//! untyped array it shares with the port-reduced file.

use std::marker::PhantomData;

use crate::long_file::LongFileFull;
use crate::regfile::IntRegFile;
use crate::stats::AccessStats;
use crate::value::ValueClass;

/// What tells apart the organizations that run [`ArrayRegFile`]'s code:
/// the baseline and the port-reduced file. Only this crate's markers
/// implement it.
pub trait ArrayOrganization {
    /// Whether the file keeps a ring of recent writebacks. The baseline
    /// compiles the ring's bookkeeping out: kept in, even at depth 0, it
    /// slowed every machine, since each one's FP file is a baseline array.
    const CAPTURES: bool;
}

/// The baseline organization: no read-port budget of its own and no
/// capture buffer.
#[derive(Debug, Clone)]
pub enum Baseline {}

impl ArrayOrganization for Baseline {
    const CAPTURES: bool = false;
}

/// A monolithic N×64-bit physical register file.
///
/// Single-cycle read, single-cycle writeback, no value typing. Port counts
/// are a property of the surrounding pipeline configuration, not of this
/// structure.
///
/// # Example
///
/// ```
/// use carf_core::{BaselineRegFile, IntRegFile};
///
/// let mut rf = BaselineRegFile::new(112);
/// rf.on_alloc(7);
/// rf.try_write(7, 0xdead_beef, false)?;
/// assert_eq!(rf.read(7), 0xdead_beef);
/// # Ok::<(), carf_core::LongFileFull>(())
/// ```
pub type BaselineRegFile = ArrayRegFile<Baseline>;

impl BaselineRegFile {
    /// Creates a file with `entries` physical registers.
    pub fn new(entries: usize) -> Self {
        Self::build(entries, None, 0)
    }
}

/// An untyped N×64-bit array with an optional read-port budget of its own
/// and, where the organization `O` keeps one, a ring of the most recent
/// writebacks (depth 0: none).
#[derive(Debug, Clone)]
pub struct ArrayRegFile<O> {
    values: Vec<u64>,
    written: Vec<bool>,
    /// Read-port budget that overrides the machine's (`None`: keep it).
    read_ports: Option<u32>,
    /// Ring of the most recently written tags, oldest evicted first.
    capture: Vec<usize>,
    capture_entries: usize,
    capture_head: usize,
    stats: AccessStats,
    organization: PhantomData<O>,
}

impl<O: ArrayOrganization> ArrayRegFile<O> {
    pub(crate) fn build(entries: usize, read_ports: Option<u32>, capture_entries: usize) -> Self {
        Self {
            values: vec![0; entries],
            written: vec![false; entries],
            read_ports,
            capture: Vec::with_capacity(capture_entries),
            capture_entries,
            capture_head: 0,
            stats: AccessStats::new(),
            organization: PhantomData,
        }
    }

    /// Tags currently resident in the capture buffer (inspection).
    pub fn captured_tags(&self) -> &[usize] {
        &self.capture
    }

    fn capture_push(&mut self, tag: usize) {
        if !O::CAPTURES || self.capture_entries == 0 {
            return;
        }
        // A rewrite of a resident tag refreshes in place.
        if self.capture.contains(&tag) {
            return;
        }
        if self.capture.len() < self.capture_entries {
            self.capture.push(tag);
        } else {
            self.capture[self.capture_head] = tag;
            self.capture_head = (self.capture_head + 1) % self.capture_entries;
        }
    }

    fn capture_evict(&mut self, tag: usize) {
        if !O::CAPTURES {
            return;
        }
        if let Some(pos) = self.capture.iter().position(|&t| t == tag) {
            self.capture.swap_remove(pos);
            if self.capture_head >= self.capture.len() && !self.capture.is_empty() {
                self.capture_head = 0;
            }
        }
    }
}

impl<O: ArrayOrganization> IntRegFile for ArrayRegFile<O> {
    fn num_tags(&self) -> usize {
        self.values.len()
    }

    fn on_alloc(&mut self, tag: usize) {
        self.written[tag] = false;
        // The tag is being renamed to a new instruction: a stale capture
        // entry must not serve the *previous* value's reads port-free.
        self.capture_evict(tag);
    }

    fn try_write(
        &mut self,
        tag: usize,
        value: u64,
        _from_address_op: bool,
    ) -> Result<Option<ValueClass>, LongFileFull> {
        self.values[tag] = value;
        self.written[tag] = true;
        self.capture_push(tag);
        self.stats.total_writes += 1;
        Ok(None)
    }

    fn read(&mut self, tag: usize) -> u64 {
        assert!(self.written[tag], "register read before write (tag {tag})");
        self.stats.total_reads += 1;
        self.values[tag]
    }

    fn peek(&self, tag: usize) -> Option<u64> {
        self.written[tag].then(|| self.values[tag])
    }

    fn class_of(&self, _tag: usize) -> Option<ValueClass> {
        None
    }

    fn release(&mut self, tag: usize) {
        self.written[tag] = false;
        self.capture_evict(tag);
    }

    fn observe_address(&mut self, _addr: u64) {}

    fn rob_interval_tick(&mut self) {}

    fn should_stall_issue(&self) -> bool {
        false
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

    fn sample_occupancy(&mut self) {}

    fn stats(&self) -> &AccessStats {
        &self.stats
    }

    fn stats_mut(&mut self) -> &mut AccessStats {
        &mut self.stats
    }

    fn read_port_limit(&self) -> Option<u32> {
        self.read_ports
    }

    fn capture_buffer_hit(&mut self, tag: usize) -> bool {
        let hit = O::CAPTURES && self.written[tag] && self.capture.contains(&tag);
        if hit {
            // Counts successful lookups: an instruction denied issue for an
            // unrelated structural reason may probe the same operand again
            // next cycle.
            self.stats.capture_reuse_hits += 1;
        }
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_release() {
        let mut rf = BaselineRegFile::new(4);
        rf.on_alloc(2);
        rf.try_write(2, 99, false).unwrap();
        assert_eq!(rf.read(2), 99);
        assert_eq!(rf.peek(2), Some(99));
        rf.release(2);
        assert_eq!(rf.peek(2), None);
        assert_eq!(rf.stats().total_reads, 1);
        assert_eq!(rf.stats().total_writes, 1);
    }

    #[test]
    fn pipeline_shape_is_single_stage() {
        let rf = BaselineRegFile::new(4);
        assert_eq!(rf.read_stages(), 1);
        assert_eq!(rf.writeback_stages(), 1);
        assert!(!rf.extra_bypass_level());
        assert!(!rf.should_stall_issue());
        assert_eq!(rf.class_of(0), None);
    }

    #[test]
    #[should_panic(expected = "read before write")]
    fn unwritten_read_panics() {
        let mut rf = BaselineRegFile::new(4);
        rf.on_alloc(0);
        let _ = rf.read(0);
    }

    #[test]
    fn writes_never_stall() {
        let mut rf = BaselineRegFile::new(2);
        for tag in 0..2 {
            rf.on_alloc(tag);
            assert!(rf.try_write(tag, u64::MAX, false).is_ok());
        }
    }
}
