//! Recovery: fetch redirect and suffix squash (mispredict, memory-order, Long pseudo-deadlock).

use super::*;

impl<R: IntRegFile, T: Tracer> Simulator<R, T> {
    // ----- recovery --------------------------------------------------------

    pub(super) fn redirect_fetch(&mut self, target: u64) {
        self.fetch_pc = target;
        self.fetch_wild = false;
        self.fetch_resume_at = self.now + 1;
        self.fetch_q.clear();
    }

    /// Squashes every instruction strictly younger than `keep_seq`.
    ///
    /// Cost is proportional to the squashed suffix only: the rename maps
    /// are recovered by undoing each popped rename in reverse program
    /// order (`map[arch] = old` restores what `arch` pointed to before
    /// that rename — after the whole suffix is undone, the maps equal the
    /// committed RAT plus the surviving prefix renames, i.e. exactly what
    /// a forward rebuild from the committed map produces). Surviving
    /// instructions are never visited, and no pending-event list is swept:
    /// a squashed instruction's handle stops resolving as its ROB position
    /// is vacated, and stays unresolvable when a later dispatch (under a
    /// larger dispatch number) reuses the position, so pending events for
    /// it are dropped lazily when their ROB lookup fails.
    ///
    /// `keep_seq` is a dispatch number, not a handle: the memory-order
    /// squash keeps everything older than its victim, whose predecessor
    /// may itself be gone.
    pub(super) fn squash_younger_than(&mut self, keep_seq: u64) {
        let mut int_map = *self.rename.int_map();
        let mut fp_map = *self.rename.fp_map();
        let bound = last_handle_of(keep_seq);
        while matches!(self.rob.back(), Some(s) if s.handle > bound) {
            let slot = self.rob.pop_back().expect("checked above");
            self.stats.squashed += 1;
            if slot.branch_unresolved {
                self.unresolved_branches = self.unresolved_branches.saturating_sub(1);
            }
            if slot.state == SlotState::Waiting {
                if matches!(slot.kind, InstKind::FpAlu | InstKind::FpDiv) {
                    self.fp_iq_len -= 1;
                } else {
                    self.int_iq_len -= 1;
                }
            }
            if let Some(d) = slot.dest {
                if d.is_int {
                    int_map[d.arch as usize] = d.old;
                    self.int_rf.release(d.new as usize);
                    self.rename.free_int(d.new);
                    self.int_pregs[d.new as usize] = PregState::reset();
                } else {
                    fp_map[d.arch as usize] = d.old;
                    self.fp_rf.release(d.new as usize);
                    self.rename.free_fp(d.new);
                    self.fp_pregs[d.new as usize] = PregState::reset();
                }
            }
        }
        self.rename.set_maps(int_map, fp_map);
        self.lsq.squash_after(bound);
        if T::ENABLED {
            self.tracer.event(TraceEvent::Squash { cycle: self.now, keep_seq });
        }
    }
}
