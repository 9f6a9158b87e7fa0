//! Writeback: port-arbitrated register-file writes (WR1/WR2 for the content-aware file) and Long pseudo-deadlock recovery triggering.

use super::*;

impl<R: IntRegFile, T: Tracer> Simulator<R, T> {
    // ----- writeback -----------------------------------------------------

    /// Drains the writeback queue under port arbitration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Internal`] if the FP file refuses a write — its
    /// baseline organization guarantees writes cannot stall, so a refusal
    /// is a simulator bug surfaced as an error instead of a panic.
    pub(super) fn writeback(&mut self) -> Result<(), SimError> {
        self.wb_pending.sort_unstable();
        // Swap the pending list into the scratch buffer and refill
        // `wb_pending` with whatever must retry; both allocations persist
        // across cycles.
        std::mem::swap(&mut self.wb_pending, &mut self.handle_scratch);
        let mut recovery: Option<u64> = None;
        for wi in 0..self.handle_scratch.len() {
            let handle = self.handle_scratch[wi];
            let Some(idx) = self.rob.slot_index(handle) else { continue };
            if self.rob[idx].state != SlotState::WbPending {
                continue;
            }
            let dest = self.rob[idx].dest.expect("writeback without a destination");
            let result = self.rob[idx].result;
            if dest.is_int {
                if !self.int_write_ports.try_acquire() {
                    self.wb_pending.push(handle);
                    continue;
                }
                match self.int_rf.try_write(dest.new as usize, result, false) {
                    Ok(_) => {
                        let done = self.now + self.wb_stages;
                        self.rob[idx].state = SlotState::WbGranted;
                        self.rob[idx].wb_done_at = done;
                        self.int_pregs[dest.new as usize].in_rf_at = done;
                        // The register-file path opens: consumers may issue
                        // once their capture cycle reaches `done`.
                        let at = self.now.max(done.saturating_sub(self.read_stages));
                        self.wake_consumers(true, dest.new, at);
                    }
                    Err(_) => {
                        self.stats.wb_long_retries += 1;
                        self.rob[idx].wb_fail_cycles += 1;
                        if self.rob[idx].wb_fail_cycles >= LONG_RECOVERY_PATIENCE
                            && recovery.is_none()
                        {
                            recovery = Some(handle);
                        }
                        self.wb_pending.push(handle);
                    }
                }
            } else {
                if !self.fp_write_ports.try_acquire() {
                    self.wb_pending.push(handle);
                    continue;
                }
                if self.fp_rf.try_write(dest.new as usize, result, false).is_err() {
                    return Err(SimError::Internal {
                        cycle: self.now,
                        detail: format!("fp writeback refused for preg {}", dest.new),
                    });
                }
                let done = self.now + 1; // the FP file keeps a 1-stage writeback
                self.rob[idx].state = SlotState::WbGranted;
                self.rob[idx].wb_done_at = done;
                self.fp_pregs[dest.new as usize].in_rf_at = done;
                let at = self.now.max(done.saturating_sub(self.read_stages));
                self.wake_consumers(false, dest.new, at);
            }
        }
        self.handle_scratch.clear();

        // Pseudo-deadlock recovery: the Long file stayed full long enough
        // that commit cannot drain it (younger completed instructions hold
        // every entry). Flush everything younger than the starving write.
        if let Some(handle) = recovery {
            // Only worth a flush when something younger holds entries.
            let youngest = self.rob.back().map(|s| s.handle);
            if self.rob.slot_index(handle).is_some() && youngest != Some(handle) {
                self.stats.deadlock_recoveries += 1;
                let redirect = self.next_pc_of(handle);
                self.squash_younger_than(seq_of(handle));
                self.redirect_fetch(redirect);
            }
        }
        Ok(())
    }

    pub(super) fn next_pc_of(&self, handle: u64) -> u64 {
        let idx = self.rob.slot_index(handle).expect("instruction must be in the ROB");
        let slot = &self.rob[idx];
        if slot.inst.is_control() {
            slot.actual_next
        } else {
            slot.pc + INST_BYTES
        }
    }
}
