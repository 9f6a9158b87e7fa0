//! A monolithic register file with a reduced physical read-port budget
//! and an operand-reuse capture buffer.
//!
//! Follows the read-port-count reduction schemes studied for centralized
//! physical register files (Los, arXiv 2502.00147): the full-width
//! monolithic array keeps fewer read ports than the issue width demands,
//! and a small capture buffer holding the most recent writeback results
//! serves re-read operands without consuming a port. Operands that miss
//! the buffer arbitrate for the reduced port budget; losers retry next
//! cycle and surface as issue-structural stalls in the tracer's
//! attribution buckets.

use crate::baseline::{ArrayOrganization, ArrayRegFile};

/// Geometry of a [`PortReducedRegFile`]: the physical read-port budget and
/// the capture-buffer depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortReducedParams {
    /// Physical read ports on the monolithic array (must be at least 1;
    /// the paper's baseline has 8).
    pub read_ports: u32,
    /// Capture-buffer entries (most recent writebacks); `0` disables the
    /// buffer entirely.
    pub capture_entries: usize,
}

impl Default for PortReducedParams {
    /// Half the paper baseline's 8 read ports, with an 8-entry capture
    /// buffer to win back the lost bandwidth.
    fn default() -> Self {
        Self { read_ports: 4, capture_entries: 8 }
    }
}

impl PortReducedParams {
    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.read_ports == 0 {
            return Err("port-reduced file needs at least one read port".into());
        }
        Ok(())
    }
}

/// The port-reduced organization: the baseline's array with a read-port
/// budget of its own and a capture buffer.
#[derive(Debug, Clone)]
pub enum PortReduced {}

impl ArrayOrganization for PortReduced {
    const CAPTURES: bool = true;
}

/// A monolithic N×64-bit file with a configurable read-port budget and a
/// last-writeback capture buffer.
///
/// Storage is the baseline file's array, run by the same code (single-cycle
/// read and writeback, no value typing); the difference is purely in
/// issue-stage port accounting, reached through the
/// [`IntRegFile::read_port_limit`](crate::IntRegFile::read_port_limit) and
/// [`IntRegFile::capture_buffer_hit`](crate::IntRegFile::capture_buffer_hit)
/// hooks. A capture-buffer hit means the operand's value is still resident
/// in the buffer from its producer's writeback, so the read consumes no
/// physical port; the architectural value is served from the backing array
/// either way, so correctness never depends on the buffer contents.
///
/// # Example
///
/// ```
/// use carf_core::{IntRegFile, PortReducedParams, PortReducedRegFile};
///
/// let mut rf = PortReducedRegFile::new(112, PortReducedParams::default());
/// rf.on_alloc(7);
/// rf.try_write(7, 0xdead_beef, false)?;
/// assert_eq!(rf.read_port_limit(), Some(4));
/// assert!(rf.capture_buffer_hit(7)); // just written: still captured
/// assert_eq!(rf.read(7), 0xdead_beef);
/// # Ok::<(), carf_core::LongFileFull>(())
/// ```
pub type PortReducedRegFile = ArrayRegFile<PortReduced>;

impl PortReducedRegFile {
    /// Creates a file with `entries` physical registers.
    ///
    /// # Panics
    ///
    /// Panics if `params` fail [`PortReducedParams::validate`].
    pub fn new(entries: usize, params: PortReducedParams) -> Self {
        params.validate().expect("invalid port-reduced parameters");
        Self::build(entries, Some(params.read_ports), params.capture_entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IntRegFile;

    fn rf() -> PortReducedRegFile {
        PortReducedRegFile::new(16, PortReducedParams { read_ports: 2, capture_entries: 3 })
    }

    #[test]
    fn port_limit_reflects_the_budget() {
        assert_eq!(rf().read_port_limit(), Some(2));
    }

    #[test]
    fn capture_buffer_holds_the_last_writebacks() {
        let mut rf = rf();
        for tag in 0..4usize {
            rf.on_alloc(tag);
            rf.try_write(tag, tag as u64, false).unwrap();
        }
        // Depth 3: tag 0 was evicted by tag 3.
        assert!(!rf.capture_buffer_hit(0));
        assert!(rf.capture_buffer_hit(1));
        assert!(rf.capture_buffer_hit(2));
        assert!(rf.capture_buffer_hit(3));
        assert_eq!(rf.stats().capture_reuse_hits, 3);
    }

    #[test]
    fn rename_evicts_the_stale_tag() {
        let mut rf = rf();
        rf.on_alloc(5);
        rf.try_write(5, 1, false).unwrap();
        assert!(rf.capture_buffer_hit(5));
        // The tag is recycled to a new instruction: the old capture entry
        // must not serve the unwritten new value.
        rf.on_alloc(5);
        assert!(!rf.capture_buffer_hit(5));
    }

    #[test]
    fn release_evicts_the_tag() {
        let mut rf = rf();
        rf.on_alloc(1);
        rf.try_write(1, 7, false).unwrap();
        rf.release(1);
        assert!(!rf.capture_buffer_hit(1));
    }

    #[test]
    fn rewrite_of_resident_tag_refreshes_in_place() {
        let mut rf = rf();
        rf.on_alloc(0);
        rf.try_write(0, 1, false).unwrap();
        rf.try_write(0, 2, false).unwrap();
        assert_eq!(rf.captured_tags().iter().filter(|&&t| t == 0).count(), 1);
        assert_eq!(rf.read(0), 2);
    }

    #[test]
    fn zero_depth_buffer_never_hits() {
        let mut rf =
            PortReducedRegFile::new(8, PortReducedParams { read_ports: 1, capture_entries: 0 });
        rf.on_alloc(0);
        rf.try_write(0, 1, false).unwrap();
        assert!(!rf.capture_buffer_hit(0));
        assert_eq!(rf.stats().capture_reuse_hits, 0);
    }

    #[test]
    #[should_panic(expected = "at least one read port")]
    fn zero_ports_are_rejected() {
        let _ = PortReducedRegFile::new(8, PortReducedParams { read_ports: 0, capture_entries: 4 });
    }
}
