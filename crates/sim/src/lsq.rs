//! The load/store queue: program-order memory tracking, store-to-load
//! forwarding, and conservative disambiguation.

use std::collections::VecDeque;

/// What a load may do this cycle, per the disambiguation rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadDecision {
    /// An older store fully covers the load: use these raw bytes
    /// (zero-extended into the low bits; the pipeline applies the load's
    /// own extension).
    Forward(u64),
    /// No older conflicting store: the load may access the cache.
    Memory,
    /// An older store has an unknown address, unknown data, or partially
    /// overlaps: retry later.
    Wait,
}

/// How loads treat older stores with unknown addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemDepPolicy {
    /// A load waits until every older store's address is known — never
    /// wrong, never replays.
    #[default]
    Conservative,
    /// A load ignores older stores with unknown addresses and goes to
    /// memory; when such a store later resolves to an overlapping address,
    /// the pipeline detects the violation and squashes from the load.
    Optimistic,
}

/// One LSQ entry.
#[derive(Debug, Clone, Copy)]
pub struct LsqEntry {
    /// Program-order key: any number that grows with program order (the
    /// pipeline uses its ROB handles).
    pub seq: u64,
    /// Load or store.
    pub is_load: bool,
    /// Effective address, once computed.
    pub addr: Option<u64>,
    /// Access size in bytes (1, 4, or 8).
    pub size: u8,
    /// Store data (raw bit pattern), once available.
    pub data: Option<u64>,
    /// For loads: the data has been obtained (from memory or forwarding),
    /// so a later-resolving older store that overlaps is a violation.
    pub performed: bool,
}

impl LsqEntry {
    fn range(&self) -> Option<(u128, u128)> {
        self.addr.map(|addr| span(addr, self.size))
    }
}

/// The half-open byte range `[addr, addr + size)`, wide enough that an
/// access ending at the top of the address space ends at 2^64.
fn span(addr: u64, size: u8) -> (u128, u128) {
    (u128::from(addr), u128::from(addr) + u128::from(size))
}

/// A program-ordered load/store queue (paper Table 1: 64 entries).
///
/// Entries are allocated at rename in program order, receive their address
/// (and, for stores, data) at execute, and are removed at commit or by a
/// branch squash. Loads consult [`LoadStoreQueue::load_decision_with`]
/// before touching the data cache, under a [`MemDepPolicy`]: conservative
/// (wait for every older store address) or optimistic (go ahead; the store
/// reports a violation via [`LoadStoreQueue::store_violation`] when it
/// resolves over an already-performed load).
///
/// # Example
///
/// ```
/// use carf_sim::{LoadStoreQueue, LoadDecision};
///
/// let mut lsq = LoadStoreQueue::new(8);
/// lsq.try_push(1, false, 8).unwrap(); // store
/// lsq.try_push(2, true, 8).unwrap();  // load
/// lsq.set_addr(2, 0x100);
/// assert_eq!(lsq.load_decision(2), LoadDecision::Wait); // store addr unknown
/// lsq.set_addr(1, 0x100);
/// lsq.set_store_data(1, 0xdead_beef);
/// assert_eq!(lsq.load_decision(2), LoadDecision::Forward(0xdead_beef));
/// ```
#[derive(Debug, Clone)]
pub struct LoadStoreQueue {
    entries: VecDeque<LsqEntry>,
    capacity: usize,
    forwards: u64,
    wait_events: u64,
    peak_len: usize,
}

/// Error returned when the queue is full at allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LsqFull;

impl LoadStoreQueue {
    /// Creates an empty queue holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Self { entries: VecDeque::new(), capacity, forwards: 0, wait_events: 0, peak_len: 0 }
    }

    /// Entries currently in the queue.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `true` when no more entries can be allocated.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Allocates an entry (at rename, in program order).
    ///
    /// # Errors
    ///
    /// Returns [`LsqFull`] when the queue is at capacity.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not strictly greater than the youngest entry's.
    pub fn try_push(&mut self, seq: u64, is_load: bool, size: u8) -> Result<(), LsqFull> {
        if self.is_full() {
            return Err(LsqFull);
        }
        if let Some(back) = self.entries.back() {
            assert!(back.seq < seq, "LSQ entries must arrive in program order");
        }
        self.entries
            .push_back(LsqEntry { seq, is_load, addr: None, size, data: None, performed: false });
        self.peak_len = self.peak_len.max(self.entries.len());
        Ok(())
    }

    /// Where entry `seq` sits: entries are sorted by `seq`.
    fn position(&self, seq: u64) -> Option<usize> {
        self.entries.binary_search_by_key(&seq, |e| e.seq).ok()
    }

    fn find_mut(&mut self, seq: u64) -> &mut LsqEntry {
        let pos = self.position(seq).unwrap_or_else(|| panic!("sequence {seq} not in LSQ"));
        &mut self.entries[pos]
    }

    /// Records the effective address of entry `seq`.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not queued.
    pub fn set_addr(&mut self, seq: u64, addr: u64) {
        self.find_mut(seq).addr = Some(addr);
    }

    /// Records the data of store `seq`.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not queued or is a load.
    pub fn set_store_data(&mut self, seq: u64, data: u64) {
        let e = self.find_mut(seq);
        assert!(!e.is_load, "set_store_data on a load");
        e.data = Some(data);
    }

    /// The entry for `seq`, if queued.
    pub fn get(&self, seq: u64) -> Option<&LsqEntry> {
        self.position(seq).map(|pos| &self.entries[pos])
    }

    /// Marks load `seq` as having obtained its data (memory access granted
    /// or store-to-load forward taken). Violation detection keys off this.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not queued or is a store.
    pub fn mark_performed(&mut self, seq: u64) {
        let e = self.find_mut(seq);
        assert!(e.is_load, "mark_performed on a store");
        e.performed = true;
    }

    /// Called when store `seq` resolves its address under the optimistic
    /// policy: returns the sequence number of the *oldest* younger load
    /// that already performed against an overlapping address — a memory
    /// dependence violation the pipeline must squash from.
    pub fn store_violation(&self, store_seq: u64, addr: u64, size: u8) -> Option<u64> {
        let (sstart, send) = span(addr, size);
        let younger = self.entries.partition_point(|e| e.seq <= store_seq);
        self.entries
            .range(younger..)
            .filter(|e| e.is_load && e.performed)
            .filter(|e| {
                e.range().is_some_and(|(ls, le)| le > sstart && send > ls)
            })
            .map(|e| e.seq)
            .next()
    }

    /// Decides what load `seq` may do, scanning older stores youngest
    /// first.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not a queued load with a known address.
    pub fn load_decision(&mut self, seq: u64) -> LoadDecision {
        self.load_decision_with(seq, MemDepPolicy::Conservative)
    }

    /// [`LoadStoreQueue::load_decision`] under an explicit dependence
    /// policy.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not a queued load with a known address.
    pub fn load_decision_with(&mut self, seq: u64, policy: MemDepPolicy) -> LoadDecision {
        let pos = self.position(seq).expect("load not in LSQ");
        let load = self.entries[pos];
        assert!(load.is_load, "load_decision on a store");
        let (lstart, lend) = match load.range() {
            Some(r) => r,
            None => panic!("load_decision before the load's address is known"),
        };
        for e in self.entries.range(..pos).rev() {
            if e.is_load {
                continue;
            }
            let (sstart, send) = match e.range() {
                Some(r) => r,
                None => match policy {
                    MemDepPolicy::Conservative => {
                        self.wait_events += 1;
                        return LoadDecision::Wait; // unknown older store address
                    }
                    // Optimistic: assume no conflict; the store checks for a
                    // violation when its address resolves.
                    MemDepPolicy::Optimistic => continue,
                },
            };
            if lend <= sstart || send <= lstart {
                continue; // disjoint
            }
            // Overlap: forward only on full containment with known data.
            if lstart >= sstart && lend <= send {
                match e.data {
                    Some(data) => {
                        let shift = (lstart - sstart) * 8;
                        let bits = u64::from(load.size) * 8;
                        let mask = if bits >= 64 { u64::MAX } else { (1u64 << bits) - 1 };
                        self.forwards += 1;
                        return LoadDecision::Forward((data >> shift) & mask);
                    }
                    None => {
                        self.wait_events += 1;
                        return LoadDecision::Wait;
                    }
                }
            }
            self.wait_events += 1;
            return LoadDecision::Wait; // partial overlap
        }
        LoadDecision::Memory
    }

    /// Removes the head entry at commit.
    ///
    /// # Panics
    ///
    /// Panics if the head's sequence is not `seq` — commits must be in
    /// order.
    pub fn pop_commit(&mut self, seq: u64) -> LsqEntry {
        let head = self.entries.pop_front().expect("committing with an empty LSQ");
        assert_eq!(head.seq, seq, "LSQ commit out of order");
        head
    }

    /// Removes every entry younger than `seq` (branch squash).
    pub fn squash_after(&mut self, seq: u64) {
        while matches!(self.entries.back(), Some(e) if e.seq > seq) {
            self.entries.pop_back();
        }
    }

    /// Store-to-load forwards performed.
    pub fn forwards(&self) -> u64 {
        self.forwards
    }

    /// Times a load had to wait on disambiguation.
    pub fn wait_events(&self) -> u64 {
        self.wait_events
    }

    /// Highest occupancy ever reached (a sizing indicator).
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn independent_load_goes_to_memory() {
        let mut lsq = LoadStoreQueue::new(8);
        lsq.try_push(1, false, 8).unwrap();
        lsq.try_push(2, true, 8).unwrap();
        lsq.set_addr(1, 0x100);
        lsq.set_store_data(1, 1);
        lsq.set_addr(2, 0x200);
        assert_eq!(lsq.load_decision(2), LoadDecision::Memory);
    }

    #[test]
    fn forward_from_youngest_older_store() {
        let mut lsq = LoadStoreQueue::new(8);
        lsq.try_push(1, false, 8).unwrap();
        lsq.try_push(2, false, 8).unwrap();
        lsq.try_push(3, true, 8).unwrap();
        lsq.set_addr(1, 0x100);
        lsq.set_store_data(1, 0x1111);
        lsq.set_addr(2, 0x100);
        lsq.set_store_data(2, 0x2222);
        lsq.set_addr(3, 0x100);
        assert_eq!(lsq.load_decision(3), LoadDecision::Forward(0x2222));
        assert_eq!(lsq.forwards(), 1);
    }

    #[test]
    fn sub_word_forward_extracts_bytes() {
        let mut lsq = LoadStoreQueue::new(8);
        lsq.try_push(1, false, 8).unwrap();
        lsq.try_push(2, true, 1).unwrap();
        lsq.set_addr(1, 0x100);
        lsq.set_store_data(1, 0x8877_6655_4433_2211);
        lsq.set_addr(2, 0x103); // byte 3 of the store
        assert_eq!(lsq.load_decision(2), LoadDecision::Forward(0x44));
    }

    #[test]
    fn unknown_store_address_blocks_all_younger_loads() {
        let mut lsq = LoadStoreQueue::new(8);
        lsq.try_push(1, false, 8).unwrap();
        lsq.try_push(2, true, 8).unwrap();
        lsq.set_addr(2, 0x400);
        assert_eq!(lsq.load_decision(2), LoadDecision::Wait);
        lsq.set_addr(1, 0x100); // disjoint once known
        lsq.set_store_data(1, 0);
        assert_eq!(lsq.load_decision(2), LoadDecision::Memory);
    }

    #[test]
    fn overlapping_store_with_unknown_data_blocks() {
        let mut lsq = LoadStoreQueue::new(8);
        lsq.try_push(1, false, 8).unwrap();
        lsq.try_push(2, true, 8).unwrap();
        lsq.set_addr(1, 0x100);
        lsq.set_addr(2, 0x100);
        assert_eq!(lsq.load_decision(2), LoadDecision::Wait);
    }

    #[test]
    fn partial_overlap_waits() {
        let mut lsq = LoadStoreQueue::new(8);
        lsq.try_push(1, false, 4).unwrap(); // 4-byte store
        lsq.try_push(2, true, 8).unwrap(); // 8-byte load over it
        lsq.set_addr(1, 0x100);
        lsq.set_store_data(1, 0xffff_ffff);
        lsq.set_addr(2, 0x100);
        assert_eq!(lsq.load_decision(2), LoadDecision::Wait);
        assert!(lsq.wait_events() > 0);
    }

    #[test]
    fn younger_stores_are_ignored() {
        let mut lsq = LoadStoreQueue::new(8);
        lsq.try_push(1, true, 8).unwrap();
        lsq.try_push(2, false, 8).unwrap();
        lsq.set_addr(1, 0x100);
        lsq.set_addr(2, 0x100);
        lsq.set_store_data(2, 7);
        assert_eq!(lsq.load_decision(1), LoadDecision::Memory);
    }

    #[test]
    fn capacity_and_ordering() {
        let mut lsq = LoadStoreQueue::new(2);
        lsq.try_push(1, true, 8).unwrap();
        lsq.try_push(2, true, 8).unwrap();
        assert_eq!(lsq.try_push(3, true, 8), Err(LsqFull));
        assert!(lsq.is_full());
    }

    #[test]
    fn commit_pops_in_order() {
        let mut lsq = LoadStoreQueue::new(4);
        lsq.try_push(1, true, 8).unwrap();
        lsq.try_push(2, false, 8).unwrap();
        let e = lsq.pop_commit(1);
        assert!(e.is_load);
        let e = lsq.pop_commit(2);
        assert!(!e.is_load);
        assert!(lsq.is_empty());
    }

    #[test]
    fn squash_removes_younger_entries() {
        let mut lsq = LoadStoreQueue::new(8);
        for seq in 1..=5 {
            lsq.try_push(seq, seq % 2 == 0, 8).unwrap();
        }
        lsq.squash_after(2);
        assert_eq!(lsq.len(), 2);
        assert!(lsq.get(3).is_none());
        assert!(lsq.get(2).is_some());
        // New entries can arrive after the squash point.
        lsq.try_push(6, true, 8).unwrap();
        assert_eq!(lsq.len(), 3);
        // The peak remembers the pre-squash high-water mark.
        assert_eq!(lsq.peak_len(), 5);
    }

    #[test]
    fn accesses_ending_at_the_top_of_the_address_space() {
        const TOP: u64 = 0xffff_ffff_ffff_fff8;
        let mut lsq = LoadStoreQueue::new(8);
        lsq.try_push(1, false, 8).unwrap();
        lsq.try_push(2, true, 8).unwrap();
        lsq.try_push(3, true, 4).unwrap();
        lsq.set_addr(1, TOP);
        lsq.set_store_data(1, 0x8877_6655_4433_2211);
        lsq.set_addr(2, TOP);
        lsq.set_addr(3, TOP + 4);
        assert_eq!(lsq.load_decision(2), LoadDecision::Forward(0x8877_6655_4433_2211));
        assert_eq!(lsq.load_decision(3), LoadDecision::Forward(0x8877_6655));

        // A younger load that went to memory before the store's address
        // was known is a violation once it resolves.
        let mut lsq = LoadStoreQueue::new(8);
        lsq.try_push(1, false, 8).unwrap();
        lsq.try_push(2, true, 8).unwrap();
        lsq.set_addr(2, TOP);
        assert_eq!(lsq.load_decision_with(2, MemDepPolicy::Optimistic), LoadDecision::Memory);
        lsq.mark_performed(2);
        assert_eq!(lsq.store_violation(1, TOP, 8), Some(2));
    }

    #[test]
    #[should_panic(expected = "program order")]
    fn out_of_order_push_is_a_bug() {
        let mut lsq = LoadStoreQueue::new(8);
        lsq.try_push(5, true, 8).unwrap();
        let _ = lsq.try_push(3, true, 8);
    }
}
