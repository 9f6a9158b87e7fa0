//! The reorder buffer: a fixed ring of slots that in-flight instructions
//! are reached through by handle.
//!
//! Every dispatched instruction gets a *handle*,
//! `dispatch_number << POS_BITS | ring_position`. Positions never move
//! while an instruction is in flight, so every pipeline event (timing
//! wheels, wakeup lists, the load and writeback queues, the LSQ) carries
//! the handle, and [`Rob::slot_index`] resolves it with one load and one
//! compare. A vacated position holds handle 0, which no instruction gets
//! (dispatch numbers start at 1), and a reused position holds its new
//! occupant's handle — whose dispatch number is larger, because dispatch
//! numbers never rewind — so a stale handle never resolves.
//!
//! Handles sort exactly like dispatch numbers: the dispatch number is the
//! high part, and two live handles never share one.

use std::ops::{Index, IndexMut};

use super::Slot;

/// Bits of a handle that hold the ring position.
const POS_BITS: u32 = 16;

/// The largest reorder buffer a handle's position field can index.
pub(crate) const MAX_ROB_SIZE: usize = 1 << POS_BITS;

/// The position field of a handle.
const POS_MASK: u64 = MAX_ROB_SIZE as u64 - 1;

/// The dispatch number (program-order sequence number) `handle` carries:
/// what traces, squash records and errors report.
pub(super) fn seq_of(handle: u64) -> u64 {
    handle >> POS_BITS
}

/// The largest handle dispatch number `seq` can carry: exactly the
/// handles of instructions younger than `seq` compare greater.
pub(super) fn last_handle_of(seq: u64) -> u64 {
    seq << POS_BITS | POS_MASK
}

/// A FIFO of in-flight instructions over a ring allocated once.
#[derive(Debug)]
pub(super) struct Rob {
    slots: Box<[Slot]>,
    head: usize,
    len: usize,
}

impl Rob {
    /// An empty buffer of `size` positions.
    ///
    /// # Panics
    ///
    /// Panics when `size` is 0 or past [`MAX_ROB_SIZE`] (see
    /// [`crate::SimConfig::validate`]).
    pub(super) fn new(size: usize) -> Self {
        assert!(
            (1..=MAX_ROB_SIZE).contains(&size),
            "reorder buffer of {size} entries: a handle indexes 1 to {MAX_ROB_SIZE}"
        );
        Self { slots: vec![Slot::VACANT; size].into_boxed_slice(), head: 0, len: 0 }
    }

    pub(super) fn len(&self) -> usize {
        self.len
    }

    pub(super) fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub(super) fn is_full(&self) -> bool {
        self.len == self.slots.len()
    }

    /// The position `offset` entries past `pos`, wrapping at the ring end.
    fn wrap(&self, pos: usize, offset: usize) -> usize {
        let p = pos + offset;
        if p >= self.slots.len() {
            p - self.slots.len()
        } else {
            p
        }
    }

    /// The handle the next [`Rob::push_back`] must carry, for dispatch
    /// number `seq`.
    pub(super) fn next_handle(&self, seq: u64) -> u64 {
        seq << POS_BITS | self.wrap(self.head, self.len) as u64
    }

    /// Appends `slot`, whose handle came from [`Rob::next_handle`].
    pub(super) fn push_back(&mut self, slot: Slot) {
        debug_assert!(!self.is_full(), "dispatch into a full reorder buffer");
        let pos = self.wrap(self.head, self.len);
        debug_assert_eq!(slot.handle & POS_MASK, pos as u64, "handle for another position");
        self.slots[pos] = slot;
        self.len += 1;
    }

    /// The position of the in-flight instruction `handle` names, or `None`
    /// once it has committed or been squashed.
    #[inline]
    pub(super) fn slot_index(&self, handle: u64) -> Option<usize> {
        let pos = (handle & POS_MASK) as usize;
        (self.slots[pos].handle == handle).then_some(pos)
    }

    /// The oldest instruction.
    pub(super) fn front(&self) -> Option<&Slot> {
        (self.len > 0).then(|| &self.slots[self.head])
    }

    /// The position of the oldest instruction.
    pub(super) fn front_index(&self) -> Option<usize> {
        (self.len > 0).then_some(self.head)
    }

    /// The youngest instruction.
    pub(super) fn back(&self) -> Option<&Slot> {
        (self.len > 0).then(|| &self.slots[self.wrap(self.head, self.len - 1)])
    }

    /// Vacates the oldest instruction's position (commit). Only the handle
    /// is reset, so commit reads the slot in place, by index, and retires
    /// it here without copying it out.
    pub(super) fn retire_front(&mut self) {
        debug_assert!(self.len > 0, "commit from an empty reorder buffer");
        self.slots[self.head].handle = 0;
        self.head = self.wrap(self.head, 1);
        self.len -= 1;
    }

    /// Removes the youngest instruction (squash).
    pub(super) fn pop_back(&mut self) -> Option<Slot> {
        if self.len == 0 {
            return None;
        }
        let pos = self.wrap(self.head, self.len - 1);
        let slot = self.slots[pos];
        self.slots[pos].handle = 0;
        self.len -= 1;
        Some(slot)
    }
}

impl Index<usize> for Rob {
    type Output = Slot;

    fn index(&self, pos: usize) -> &Slot {
        &self.slots[pos]
    }
}

impl IndexMut<usize> for Rob {
    fn index_mut(&mut self, pos: usize) -> &mut Slot {
        &mut self.slots[pos]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dispatches one placeholder instruction with dispatch number `seq`.
    fn dispatch(rob: &mut Rob, seq: u64) -> u64 {
        let handle = rob.next_handle(seq);
        rob.push_back(Slot { handle, ..Slot::VACANT });
        handle
    }

    #[test]
    fn a_reused_position_does_not_resolve_a_committed_handle() {
        let mut rob = Rob::new(2);
        let first = dispatch(&mut rob, 1);
        let second = dispatch(&mut rob, 2);
        assert_eq!(rob.front().map(|s| s.handle), Some(first));
        rob.retire_front();
        assert_eq!(rob.slot_index(first), None, "a vacated position holds no handle");
        assert_eq!(rob.front_index(), Some(1));
        let third = dispatch(&mut rob, 3);
        assert_eq!(third & POS_MASK, first & POS_MASK);
        assert_eq!(rob.slot_index(first), None);
        assert_eq!(rob.slot_index(third), Some(0));
        assert_eq!(rob.slot_index(second), Some(1));
    }

    #[test]
    fn a_reused_position_does_not_resolve_a_squashed_handle() {
        let mut rob = Rob::new(4);
        dispatch(&mut rob, 1);
        let squashed = dispatch(&mut rob, 2);
        assert_eq!(rob.pop_back().map(|s| s.handle), Some(squashed));
        assert_eq!(rob.slot_index(squashed), None);
        // The squash burned dispatch number 2; the next dispatch takes the
        // same position under a larger number.
        let next = dispatch(&mut rob, 3);
        assert_eq!(rob.slot_index(next), Some(1));
        assert_eq!(rob.slot_index(squashed), None);
        assert!(next > squashed);
        assert_eq!(seq_of(next), 3);
    }

    #[test]
    fn positions_wrap_in_fifo_order_and_handles_keep_dispatch_order() {
        let mut rob = Rob::new(3);
        let mut live = std::collections::VecDeque::new();
        let mut positions = Vec::new();
        for seq in 1..=10u64 {
            if rob.is_full() {
                let oldest = live.pop_front().expect("a full ring holds something");
                let head = rob.front_index().expect("a full ring holds something");
                assert_eq!(rob[head].handle, oldest);
                rob.retire_front();
            }
            let handle = dispatch(&mut rob, seq);
            positions.push(rob.slot_index(handle).expect("just dispatched"));
            live.push_back(handle);
            assert_eq!(rob.front().map(|s| s.handle), live.front().copied());
            assert_eq!(rob.back().map(|s| s.handle), Some(handle));
        }
        assert_eq!(positions, [0, 1, 2, 0, 1, 2, 0, 1, 2, 0]);
        let handles: Vec<u64> = live.iter().copied().collect();
        assert!(handles.windows(2).all(|w| w[0] < w[1]), "{handles:x?}");
        assert_eq!(handles.iter().map(|&h| seq_of(h)).collect::<Vec<_>>(), [8, 9, 10]);
    }

    #[test]
    fn the_squash_bound_splits_at_a_dispatch_number() {
        let mut rob = Rob::new(4);
        let handles: Vec<u64> = (5..=8).map(|seq| dispatch(&mut rob, seq)).collect();
        let younger: Vec<u64> =
            handles.iter().filter(|&&h| h > last_handle_of(6)).map(|&h| seq_of(h)).collect();
        assert_eq!(younger, [7, 8]);
    }

    #[test]
    #[should_panic(expected = "a handle indexes")]
    fn an_unindexable_ring_is_refused() {
        Rob::new(MAX_ROB_SIZE + 1);
    }
}
