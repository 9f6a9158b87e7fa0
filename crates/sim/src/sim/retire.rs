//! Commit: in-order retirement, golden-model checking, and per-cycle stall attribution.

use super::*;

impl<R: IntRegFile, T: Tracer> Simulator<R, T> {
    /// Charges the just-finished commit stage's cycle to one
    /// [`StallCause`] bucket, based on what is blocking the ROB head.
    /// Called once per cycle, so the buckets sum to total cycles.
    pub(super) fn classify_cycle(&self, commits: u64) -> StallCause {
        if commits > 0 {
            return StallCause::Commit;
        }
        let Some(head) = self.rob.front() else {
            return StallCause::FrontendEmpty;
        };
        match head.state {
            SlotState::Waiting => {
                let capture = self.now + self.read_stages;
                let ready =
                    head.srcs.iter().all(|src| self.can_capture(*src, capture).is_some());
                if ready {
                    StallCause::IssueStructural
                } else {
                    StallCause::DataDependency
                }
            }
            SlotState::Issued | SlotState::Captured => StallCause::Execute,
            SlotState::WaitDisambig => StallCause::MemDisambig,
            SlotState::WaitData => StallCause::MemData,
            SlotState::WbPending => {
                if head.wb_fail_cycles > 0 {
                    StallCause::LongWriteback
                } else {
                    StallCause::WritebackPort
                }
            }
            SlotState::WbGranted => StallCause::WritebackLatency,
            SlotState::Completed => {
                if head.kind == InstKind::Store {
                    StallCause::StoreCommitPort
                } else {
                    StallCause::Other
                }
            }
        }
    }

    // ----- commit --------------------------------------------------------

    pub(super) fn commit(&mut self) -> Result<(), SimError> {
        for _ in 0..self.config.commit_width {
            // `run_exact`'s instruction-precise brake: stop mid-burst at
            // the requested boundary so the committed architectural state
            // is exactly the one after `commit_limit` instructions.
            if self.commit_limit.is_some_and(|limit| self.stats.committed >= limit) {
                break;
            }
            let ready = match self.rob.front() {
                Some(slot) => match slot.state {
                    SlotState::Completed => true,
                    SlotState::WbGranted => self.now >= slot.wb_done_at,
                    _ => false,
                },
                None => false,
            };
            if !ready {
                break;
            }
            // Stores drain to memory at commit and need a cache port.
            let (is_store, addr) = {
                let slot = self.rob.front().expect("checked above");
                (slot.kind == InstKind::Store, slot.mem_addr)
            };
            if is_store {
                if !self.hier.try_dl1_port() {
                    break;
                }
                let slot = self.rob.front().expect("checked above");
                // A store only reaches `Completed` after address generation
                // set `mem_addr`; a missing address here is a pipeline bug.
                let Some(addr) = addr else {
                    return Err(SimError::Internal {
                        cycle: self.now,
                        detail: format!("store seq {} committing without an address", slot.seq),
                    });
                };
                self.hier.data_access(addr, true);
                let data = slot.src_vals[1];
                match store_bytes(store_width(slot.inst.op)) {
                    8 => self.mem.write_u64(addr, data),
                    4 => self.mem.write_u32(addr, data as u32),
                    _ => self.mem.write_u8(addr, data as u8),
                }
            }

            let slot = self.rob.pop_front().expect("checked above");
            self.check_golden(&slot)?;
            self.retire_bookkeeping(&slot);
            if slot.kind == InstKind::Halt {
                self.halted = true;
                return Ok(());
            }
        }
        Ok(())
    }

    pub(super) fn retire_bookkeeping(&mut self, slot: &Slot) {
        self.stats.committed += 1;
        self.last_commit_cycle = self.now;
        // Architectural PC at the new commit boundary. `actual_next` is
        // resolved by commit time for every kind; `halt` architecturally
        // stays put (matching the functional executor).
        self.commit_next_pc =
            if slot.kind == InstKind::Halt { slot.pc } else { slot.actual_next };
        if T::ENABLED {
            self.tracer.event(TraceEvent::Retire {
                cycle: self.now,
                seq: slot.seq,
                pc: slot.pc,
            });
        }
        match slot.kind {
            InstKind::Load => self.stats.loads += 1,
            InstKind::Store => self.stats.stores += 1,
            InstKind::Branch => self.stats.branches += 1,
            InstKind::FpAlu | InstKind::FpDiv => self.stats.fp_ops += 1,
            _ => {}
        }
        // Table 4: the value types of this instruction's integer register
        // operands (known by now — producers committed earlier). At most
        // two sources, so a fixed array suffices.
        let mut class_buf = [carf_core::ValueClass::Simple; 2];
        let mut n_classes = 0usize;
        for src in slot.srcs {
            if let Src::Int(p) = src {
                if let Some(c) = self.int_rf.class_of(p as usize) {
                    class_buf[n_classes] = c;
                    n_classes += 1;
                }
            }
        }
        let classes = &class_buf[..n_classes];
        self.stats.operand_mix.record(classes);
        // §6 clustering measurement: does the result's type match a source?
        if let Some(dest) = slot.dest {
            if dest.is_int && !classes.is_empty() {
                if let Some(dc) = self.int_rf.class_of(dest.new as usize) {
                    self.stats.dest_class_total += 1;
                    if classes.contains(&dc) {
                        self.stats.dest_class_matches += 1;
                    }
                }
            }
        }

        if slot.is_mem() {
            self.lsq.pop_commit(slot.seq);
        }
        if let Some(dest) = slot.dest {
            if dest.is_int {
                self.commit_int_rat[dest.arch as usize] = dest.new;
                self.int_rf.release(dest.old as usize);
                self.rename.free_int(dest.old);
                self.int_pregs[dest.old as usize] = PregState::reset();
            } else {
                self.commit_fp_rat[dest.arch as usize] = dest.new;
                self.fp_rf.release(dest.old as usize);
                self.rename.free_fp(dest.old);
                self.fp_pregs[dest.old as usize] = PregState::reset();
            }
        }
        // ROB-interval boundary: drive the Short file's reference-bit
        // aging (paper §3.1: "when the entire ROB is consumed").
        if self.config.rob_interval_commits > 0 {
            self.rob_interval_count += 1;
            if self.rob_interval_count >= self.config.rob_interval_commits {
                self.rob_interval_count = 0;
                self.int_rf.rob_interval_tick();
            }
        }
    }

    pub(super) fn check_golden(&mut self, slot: &Slot) -> Result<(), SimError> {
        let Some(golden) = self.golden.as_mut() else { return Ok(()) };
        let mismatch = |detail: String| SimError::CosimMismatch {
            seq: slot.seq,
            pc: slot.pc,
            detail,
        };
        let outcome = golden
            .step(&self.program)
            .map_err(|e| mismatch(format!("golden model error: {e}")))?;
        let retired = match outcome {
            StepOutcome::Retired(r) => r,
            StepOutcome::Halted => return Err(mismatch("golden model already halted".into())),
        };
        if retired.pc != slot.pc {
            return Err(mismatch(format!(
                "control flow diverged: golden pc {:#x}",
                retired.pc
            )));
        }
        match (slot.dest, retired.int_write, retired.fp_write) {
            (Some(d), Some((r, v)), None) if d.is_int => {
                if r.index() != d.arch as usize || v != slot.result {
                    return Err(mismatch(format!(
                        "int dest x{} = {:#x}, golden x{} = {v:#x}",
                        d.arch, slot.result, r.index()
                    )));
                }
            }
            (Some(d), None, Some((r, v))) if !d.is_int => {
                if r.index() != d.arch as usize || v.to_bits() != slot.result {
                    return Err(mismatch(format!(
                        "fp dest f{} = {:#x}, golden f{} = {:#x}",
                        d.arch,
                        slot.result,
                        r.index(),
                        v.to_bits()
                    )));
                }
            }
            (None, None, None) => {}
            other => {
                return Err(mismatch(format!("write shape mismatch: {other:?}")));
            }
        }
        if slot.is_mem() && retired.mem_addr != slot.mem_addr {
            return Err(mismatch(format!(
                "memory address {:?}, golden {:?}",
                slot.mem_addr, retired.mem_addr
            )));
        }
        Ok(())
    }
}
