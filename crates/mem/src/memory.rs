//! Sparse, paged 64-bit physical memory.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = (PAGE_SIZE as u64) - 1;

/// Hashes a page number with one 64×64→128-bit multiply, folding the
/// product's high half into its low half: the table indexes by the low
/// bits and tags by the high ones, and the fold lets pages that differ
/// only in their high bits still spread over both. Every load and store
/// hashes a page number, which is why the hash is a single multiply. Page
/// numbers come from the simulated program; one crafted to collide slows
/// only its own simulation.
#[derive(Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("pages are keyed by u64 page numbers, hashed by write_u64");
    }

    fn write_u64(&mut self, page: u64) {
        // 2^64 / φ, rounded to odd.
        let product = u128::from(page) * 0x9e37_79b9_7f4a_7c15;
        self.0 = product as u64 ^ (product >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type PageMap = HashMap<u64, Box<[u8; PAGE_SIZE]>, BuildHasherDefault<PageHasher>>;

/// A sparsely allocated flat 64-bit address space.
///
/// Pages (4 KiB) are allocated on first touch and zero-filled, so programs
/// may freely read uninitialized memory and observe zeros — the same
/// convention the functional executor and the timing simulator rely on.
/// All multi-byte accesses are little-endian and may straddle page
/// boundaries; accesses contained in one page take a single page lookup
/// and a slice copy, the hot path for both simulators.
///
/// # Example
///
/// ```
/// use carf_mem::SparseMemory;
///
/// let mut mem = SparseMemory::new();
/// assert_eq!(mem.read_u64(0xdead_0000), 0);
/// mem.write_u64(0xdead_0000, 0x0123_4567_89ab_cdef);
/// assert_eq!(mem.read_u32(0xdead_0004), 0x0123_4567);
/// ```
#[derive(Clone, Default)]
pub struct SparseMemory {
    pages: PageMap,
}

impl SparseMemory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct pages that have been touched by a write.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    fn page_mut(&mut self, num: u64) -> &mut [u8; PAGE_SIZE] {
        self.pages.entry(num).or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }

    /// Reads a single byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr >> PAGE_SHIFT)) {
            Some(page) => page[(addr & PAGE_MASK) as usize],
            None => 0,
        }
    }

    /// Writes a single byte, allocating the containing page if needed.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        self.page_mut(addr >> PAGE_SHIFT)[(addr & PAGE_MASK) as usize] = value;
    }

    /// Reads `buf.len()` bytes starting at `addr`, one page lookup per
    /// spanned page.
    pub fn read_bytes(&self, addr: u64, buf: &mut [u8]) {
        let mut addr = addr;
        let mut buf = &mut buf[..];
        while !buf.is_empty() {
            let off = (addr & PAGE_MASK) as usize;
            let n = buf.len().min(PAGE_SIZE - off);
            let (head, rest) = buf.split_at_mut(n);
            match self.pages.get(&(addr >> PAGE_SHIFT)) {
                Some(page) => head.copy_from_slice(&page[off..off + n]),
                None => head.fill(0),
            }
            buf = rest;
            addr = addr.wrapping_add(n as u64);
        }
    }

    /// Writes all of `bytes` starting at `addr`, one page lookup per
    /// spanned page.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        let mut addr = addr;
        let mut bytes = bytes;
        while !bytes.is_empty() {
            let off = (addr & PAGE_MASK) as usize;
            let n = bytes.len().min(PAGE_SIZE - off);
            let (head, rest) = bytes.split_at(n);
            self.page_mut(addr >> PAGE_SHIFT)[off..off + n].copy_from_slice(head);
            bytes = rest;
            addr = addr.wrapping_add(n as u64);
        }
    }

    /// Reads a little-endian `u16`.
    pub fn read_u16(&self, addr: u64) -> u16 {
        let mut buf = [0u8; 2];
        self.read_bytes(addr, &mut buf);
        u16::from_le_bytes(buf)
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&self, addr: u64) -> u32 {
        let off = (addr & PAGE_MASK) as usize;
        if off + 4 <= PAGE_SIZE {
            return match self.pages.get(&(addr >> PAGE_SHIFT)) {
                Some(page) => {
                    u32::from_le_bytes(page[off..off + 4].try_into().expect("4-byte slice"))
                }
                None => 0,
            };
        }
        let mut buf = [0u8; 4];
        self.read_bytes(addr, &mut buf);
        u32::from_le_bytes(buf)
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        let off = (addr & PAGE_MASK) as usize;
        if off + 4 <= PAGE_SIZE {
            self.page_mut(addr >> PAGE_SHIFT)[off..off + 4].copy_from_slice(&value.to_le_bytes());
        } else {
            self.write_bytes(addr, &value.to_le_bytes());
        }
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&self, addr: u64) -> u64 {
        let off = (addr & PAGE_MASK) as usize;
        if off + 8 <= PAGE_SIZE {
            return match self.pages.get(&(addr >> PAGE_SHIFT)) {
                Some(page) => {
                    u64::from_le_bytes(page[off..off + 8].try_into().expect("8-byte slice"))
                }
                None => 0,
            };
        }
        let mut buf = [0u8; 8];
        self.read_bytes(addr, &mut buf);
        u64::from_le_bytes(buf)
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        let off = (addr & PAGE_MASK) as usize;
        if off + 8 <= PAGE_SIZE {
            self.page_mut(addr >> PAGE_SHIFT)[off..off + 8].copy_from_slice(&value.to_le_bytes());
        } else {
            self.write_bytes(addr, &value.to_le_bytes());
        }
    }

    /// Reads an `f64` stored as its IEEE-754 bit pattern.
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes an `f64` as its IEEE-754 bit pattern.
    pub fn write_f64(&mut self, addr: u64, value: f64) {
        self.write_u64(addr, value.to_bits());
    }

    /// The pages of `self` whose contents differ from `base`, as a
    /// copy-on-write checkpoint payload: `base.clone()` plus
    /// [`SparseMemory::apply_delta`] reads identically to `self` at every
    /// address. Pages are sorted by page number, so two deltas of equal
    /// states fold to the same [`MemoryDelta::fold_fnv1a`] fingerprint.
    pub fn delta_from(&self, base: &SparseMemory) -> MemoryDelta {
        let mut pages: Vec<(u64, Box<[u8; PAGE_SIZE]>)> = Vec::new();
        for (num, page) in &self.pages {
            match base.pages.get(num) {
                Some(b) if b[..] == page[..] => {}
                _ => pages.push((*num, page.clone())),
            }
        }
        // A page resident in the base but not in self reads as zeros in
        // self; materialize an explicit zero page so the restore matches.
        for num in base.pages.keys() {
            if !self.pages.contains_key(num) {
                pages.push((*num, Box::new([0u8; PAGE_SIZE])));
            }
        }
        pages.sort_unstable_by_key(|(n, _)| *n);
        MemoryDelta { pages }
    }

    /// Overwrites every page named by `delta` with its recorded contents.
    pub fn apply_delta(&mut self, delta: &MemoryDelta) {
        for (num, page) in &delta.pages {
            self.pages.insert(*num, page.clone());
        }
    }
}

impl std::fmt::Debug for SparseMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SparseMemory")
            .field("resident_pages", &self.pages.len())
            .finish()
    }
}

/// The pages of one memory image that differ from a base image — the
/// copy-on-write payload of an architectural checkpoint. Built by
/// [`SparseMemory::delta_from`], applied by [`SparseMemory::apply_delta`].
#[derive(Clone, Default)]
pub struct MemoryDelta {
    pages: Vec<(u64, Box<[u8; PAGE_SIZE]>)>,
}

impl MemoryDelta {
    /// `true` when no page differs.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Number of recorded pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Folds the delta (page numbers and contents, in address order) into
    /// a running FNV-1a hash.
    pub fn fold_fnv1a(&self, mut h: u64) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        for (num, page) in &self.pages {
            for b in num.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(PRIME);
            }
            for b in page.iter() {
                h = (h ^ u64::from(*b)).wrapping_mul(PRIME);
            }
        }
        h
    }
}

impl std::fmt::Debug for MemoryDelta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryDelta")
            .field("pages", &self.pages.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_memory_reads_zero() {
        let mem = SparseMemory::new();
        assert_eq!(mem.read_u8(0), 0);
        assert_eq!(mem.read_u64(u64::MAX - 7), 0);
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn read_back_what_was_written() {
        let mut mem = SparseMemory::new();
        mem.write_u64(0x40, 0x1122_3344_5566_7788);
        assert_eq!(mem.read_u64(0x40), 0x1122_3344_5566_7788);
        // Little-endian byte order.
        assert_eq!(mem.read_u8(0x40), 0x88);
        assert_eq!(mem.read_u8(0x47), 0x11);
    }

    #[test]
    fn cross_page_access() {
        let mut mem = SparseMemory::new();
        let addr = (1 << PAGE_SHIFT) - 4; // straddles first/second page
        mem.write_u64(addr, 0xaabb_ccdd_0011_2233);
        assert_eq!(mem.read_u64(addr), 0xaabb_ccdd_0011_2233);
        assert_eq!(mem.resident_pages(), 2);
    }

    #[test]
    fn straddling_reads_cover_missing_pages() {
        let mut mem = SparseMemory::new();
        // Only the second page exists; the low half of a straddling read
        // must come back zero.
        mem.write_u32(1 << PAGE_SHIFT, 0xdead_beef);
        let addr = (1 << PAGE_SHIFT) - 4;
        assert_eq!(mem.read_u64(addr), 0xdead_beef_0000_0000);
    }

    #[test]
    fn narrow_and_wide_accesses_agree() {
        let mut mem = SparseMemory::new();
        mem.write_u32(0x100, 0xdead_beef);
        mem.write_u32(0x104, 0xcafe_f00d);
        assert_eq!(mem.read_u64(0x100), 0xcafe_f00d_dead_beef);
        assert_eq!(mem.read_u16(0x102), 0xdead);
    }

    #[test]
    fn f64_round_trip() {
        let mut mem = SparseMemory::new();
        mem.write_f64(0x200, -1234.5678);
        assert_eq!(mem.read_f64(0x200), -1234.5678);
        mem.write_f64(0x208, f64::NEG_INFINITY);
        assert_eq!(mem.read_f64(0x208), f64::NEG_INFINITY);
    }

    #[test]
    fn overwrites_take_effect() {
        let mut mem = SparseMemory::new();
        mem.write_u64(0x300, 1);
        mem.write_u64(0x300, 2);
        assert_eq!(mem.read_u64(0x300), 2);
        mem.write_u8(0x300, 0xff);
        assert_eq!(mem.read_u64(0x300), 0xff);
    }

    #[test]
    fn bulk_bytes_round_trip() {
        let mut mem = SparseMemory::new();
        let data: Vec<u8> = (0..=255).collect();
        mem.write_bytes(0xfff0, &data); // crosses a page boundary
        let mut out = vec![0u8; 256];
        mem.read_bytes(0xfff0, &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn delta_round_trips() {
        let mut base = SparseMemory::new();
        base.write_u64(0x1000, 11);
        base.write_u64(0x9000, 22);

        let mut evolved = base.clone();
        evolved.write_u64(0x1000, 33); // modified page
        evolved.write_u64(0x2_0000, 44); // new page

        let delta = evolved.delta_from(&base);
        assert_eq!(delta.page_count(), 2); // untouched 0x9000 page excluded

        let mut restored = base.clone();
        restored.apply_delta(&delta);
        assert_eq!(restored.read_u64(0x1000), 33);
        assert_eq!(restored.read_u64(0x9000), 22);
        assert_eq!(restored.read_u64(0x2_0000), 44);
        // Bit-identical reconstruction: delta of the restore is empty.
        assert!(restored.delta_from(&evolved).is_empty());
    }

    #[test]
    fn delta_fingerprint_is_order_independent() {
        let mut a = SparseMemory::new();
        a.write_u64(0x5000, 7);
        a.write_u64(0x1000, 9);
        let mut b = SparseMemory::new();
        b.write_u64(0x1000, 9);
        b.write_u64(0x5000, 7);
        let base = SparseMemory::new();
        let (da, db) = (a.delta_from(&base), b.delta_from(&base));
        assert_eq!(da.fold_fnv1a(0xcbf2_9ce4_8422_2325), db.fold_fnv1a(0xcbf2_9ce4_8422_2325));
    }

    #[test]
    fn delta_covers_pages_missing_from_self() {
        let mut base = SparseMemory::new();
        base.write_u64(0x7000, 5);
        let empty = SparseMemory::new();
        let delta = empty.delta_from(&base);
        assert_eq!(delta.page_count(), 1);
        let mut restored = base.clone();
        restored.apply_delta(&delta);
        assert_eq!(restored.read_u64(0x7000), 0);
    }
}
