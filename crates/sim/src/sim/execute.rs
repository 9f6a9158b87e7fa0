//! Execute: completion events, the memory stage, and operand capture.

use super::*;

impl<R: IntRegFile, T: Tracer> Simulator<R, T> {
    // ----- execute -------------------------------------------------------

    pub(super) fn exec_complete(&mut self) {
        let mut seqs = std::mem::take(&mut self.event_scratch);
        debug_assert!(seqs.is_empty());
        self.completion_wheel.drain_into(self.now, &mut seqs);
        for &seq in &seqs {
            // Squashed events (a mid-list branch resolution may flush
            // younger entries) are skipped lazily.
            let Some(idx) = self.slot_index(seq) else { continue };
            match self.rob[idx].state {
                SlotState::Captured => self.finish_execution(seq),
                SlotState::WaitData => self.finish_load(seq),
                _ => {}
            }
        }
        seqs.clear();
        self.event_scratch = seqs;
    }

    pub(super) fn finish_execution(&mut self, seq: u64) {
        let idx = self.slot_index(seq).expect("slot vanished mid-execution");
        let slot = &self.rob[idx];
        let (a, b) = (slot.src_vals[0], slot.src_vals[1]);
        let inst = slot.inst;
        let pc = slot.pc;
        let kind = slot.kind;
        let pred_next = slot.pred_next;

        match kind {
            InstKind::Load | InstKind::Store => {
                let addr = a.wrapping_add(inst.imm as u64);
                self.rob[idx].mem_addr = Some(addr);
                self.lsq.set_addr(seq, addr);
                // The Short file learns computed addresses here, in
                // parallel with the AGU (paper §3.1).
                self.int_rf.observe_address(addr);
                if kind == InstKind::Store {
                    self.lsq.set_store_data(seq, b);
                    self.rob[idx].state = SlotState::Completed;
                    if T::ENABLED {
                        // Address generation done: the store is executed.
                        self.tracer.event(TraceEvent::Execute { cycle: self.now, seq });
                    }
                    // Optimistic disambiguation: a younger load may already
                    // have read stale data for this address — squash from it.
                    if self.config.mem_dep == MemDepPolicy::Optimistic {
                        let size = self.lsq.get(seq).expect("store queued").size;
                        if let Some(victim) = self.lsq.store_violation(seq, addr, size) {
                            self.stats.mem_dep_violations += 1;
                            let target = {
                                let v = self
                                    .slot_index(victim)
                                    .expect("violating load is in flight");
                                self.rob[v].pc
                            };
                            self.squash_younger_than(victim - 1, SquashReason::MemOrder);
                            self.redirect_fetch(target);
                        }
                    }
                } else {
                    self.rob[idx].state = SlotState::WaitDisambig;
                    self.pending_loads.push(seq);
                }
                return;
            }
            _ => {}
        }

        let result: Option<u64> = match kind {
            InstKind::IntAlu | InstKind::IntMul | InstKind::IntDiv => Some(match inst.op {
                Opcode::Fcmplt | Opcode::Fcmpeq | Opcode::FcvtIF => {
                    eval_fp_to_int(inst.op, f64::from_bits(a), f64::from_bits(b))
                }
                Opcode::Li => inst.imm as u64,
                Opcode::Addi
                | Opcode::Andi
                | Opcode::Ori
                | Opcode::Xori
                | Opcode::Slli
                | Opcode::Srli
                | Opcode::Srai
                | Opcode::Slti => eval_int_alu(inst.op, a, inst.imm as u64),
                _ => eval_int_alu(inst.op, a, b),
            }),
            InstKind::FpAlu | InstKind::FpDiv => Some(match inst.op {
                Opcode::FcvtFI => eval_int_to_fp(a).to_bits(),
                _ => eval_fp_alu(inst.op, f64::from_bits(a), f64::from_bits(b)).to_bits(),
            }),
            InstKind::Jump | InstKind::JumpReg => Some(pc + INST_BYTES),
            InstKind::Branch => None,
            InstKind::Nop | InstKind::Halt | InstKind::Load | InstKind::Store => None,
        };

        // Control resolution (may squash everything younger).
        let mut squash_to: Option<u64> = None;
        match kind {
            InstKind::Branch => {
                let taken = eval_branch(inst.op, a, b);
                let actual = if taken { inst.imm as u64 } else { pc + INST_BYTES };
                let mispredicted = actual != pred_next;
                let pred = self.rob[idx]
                    .cond_pred
                    .expect("conditional branch without a prediction token");
                self.bpred.resolve_cond(pred, taken);
                self.rob[idx].actual_next = actual;
                self.rob[idx].branch_unresolved = false;
                self.unresolved_branches = self.unresolved_branches.saturating_sub(1);
                if mispredicted {
                    squash_to = Some(actual);
                }
            }
            InstKind::JumpReg => {
                let actual = a.wrapping_add(inst.imm as u64);
                let mispredicted = actual != pred_next;
                self.bpred.resolve_indirect(pc, actual, mispredicted);
                self.rob[idx].actual_next = actual;
                self.rob[idx].branch_unresolved = false;
                self.unresolved_branches = self.unresolved_branches.saturating_sub(1);
                if mispredicted {
                    squash_to = Some(actual);
                }
            }
            InstKind::Jump => {
                self.rob[idx].actual_next = inst.imm as u64;
            }
            _ => {}
        }

        match result {
            Some(value) => self.complete_with_result(seq, value),
            None => {
                let idx = self.slot_index(seq).expect("slot vanished");
                self.rob[idx].state = SlotState::Completed;
                if T::ENABLED {
                    self.tracer.event(TraceEvent::Execute { cycle: self.now, seq });
                }
            }
        }

        if let Some(target) = squash_to {
            self.stats.mispredicts += 1;
            self.squash_younger_than(seq, SquashReason::Mispredict);
            self.redirect_fetch(target);
        }
    }

    /// Publishes a computed result: updates the bypass scoreboard and
    /// queues the register write (or completes, for `x0` destinations).
    pub(super) fn complete_with_result(&mut self, seq: u64, value: u64) {
        let idx = self.slot_index(seq).expect("slot vanished");
        self.rob[idx].result = value;
        if T::ENABLED {
            self.tracer.event(TraceEvent::Execute { cycle: self.now, seq });
        }
        match self.rob[idx].dest {
            Some(dest) => {
                let bank = if dest.is_int { &mut self.int_pregs } else { &mut self.fp_pregs };
                let st = &mut bank[dest.new as usize];
                st.value = value;
                st.cap_avail_at = self.now;
                st.valid = true;
                self.rob[idx].state = SlotState::WbPending;
                self.wb_pending.push(seq);
                // The value is on the bypass network this cycle; waiting
                // consumers can be selected from this cycle's issue stage.
                self.wake_consumers(dest.is_int, dest.new, self.now);
            }
            None => {
                self.rob[idx].state = SlotState::Completed;
            }
        }
    }

    pub(super) fn finish_load(&mut self, seq: u64) {
        let idx = self.slot_index(seq).expect("slot vanished");
        let value = self.rob[idx].load_data;
        self.complete_with_result(seq, value);
    }

    // ----- memory stage --------------------------------------------------

    pub(super) fn memory_stage(&mut self) {
        // Same swap-through-scratch pattern as writeback: loads that cannot
        // start go straight back into `pending_loads`.
        std::mem::swap(&mut self.pending_loads, &mut self.seq_scratch);
        for pi in 0..self.seq_scratch.len() {
            let seq = self.seq_scratch[pi];
            let Some(idx) = self.slot_index(seq) else { continue };
            if self.rob[idx].state != SlotState::WaitDisambig {
                continue;
            }
            let inst = self.rob[idx].inst;
            let addr = self.rob[idx].mem_addr.expect("load in memory stage without address");
            match self.lsq.load_decision_with(seq, self.config.mem_dep) {
                LoadDecision::Forward(raw) => {
                    let v = extend_load(load_width(inst.op), raw);
                    self.rob[idx].load_data = v;
                    self.rob[idx].state = SlotState::WaitData;
                    self.lsq.mark_performed(seq);
                    self.completion_wheel.schedule(self.now, self.now + 1, seq);
                }
                LoadDecision::Memory => {
                    if self.hier.try_dl1_port() {
                        let latency = u64::from(self.hier.data_access(addr, false));
                        let width = load_width(inst.op);
                        let raw = match width {
                            LoadWidth::U64 | LoadWidth::F64 => self.mem.read_u64(addr),
                            LoadWidth::I32 => u64::from(self.mem.read_u32(addr)),
                            LoadWidth::U8 => u64::from(self.mem.read_u8(addr)),
                        };
                        self.rob[idx].load_data = extend_load(width, raw);
                        self.rob[idx].state = SlotState::WaitData;
                        self.lsq.mark_performed(seq);
                        let done = self.now + latency;
                        self.completion_wheel.schedule(self.now, done, seq);
                        // Load-resolution wakeup: the return time is now
                        // known, so dependents may schedule against it.
                        if let Some(dest) = self.rob[idx].dest {
                            let bank = if dest.is_int {
                                &mut self.int_pregs
                            } else {
                                &mut self.fp_pregs
                            };
                            bank[dest.new as usize].cap_avail_at = done;
                            let at = self.now.max(done.saturating_sub(self.read_stages));
                            self.wake_consumers(dest.is_int, dest.new, at);
                        }
                    } else {
                        self.pending_loads.push(seq);
                    }
                }
                LoadDecision::Wait => self.pending_loads.push(seq),
            }
        }
        self.seq_scratch.clear();
        // Any load that could not start this cycle has missed its hit
        // speculation: cancel the optimistic wakeup until it is granted.
        for pi in 0..self.pending_loads.len() {
            if let Some(idx) = self.slot_index(self.pending_loads[pi]) {
                if let Some(dest) = self.rob[idx].dest {
                    let bank =
                        if dest.is_int { &mut self.int_pregs } else { &mut self.fp_pregs };
                    bank[dest.new as usize].cap_avail_at = NEVER;
                }
            }
        }
    }

    // ----- operand capture -----------------------------------------------

    pub(super) fn capture_operands(&mut self) {
        let mut seqs = std::mem::take(&mut self.event_scratch);
        debug_assert!(seqs.is_empty());
        self.capture_wheel.drain_into(self.now, &mut seqs);
        for &seq in &seqs {
            let Some(idx) = self.slot_index(seq) else { continue };
            if self.rob[idx].state != SlotState::Issued {
                continue;
            }
            let srcs = self.rob[idx].srcs;
            let from_rf = self.rob[idx].src_from_rf;
            // Load-hit misspeculation replay: a bypassed operand whose
            // producer has not actually delivered goes back to the issue
            // queue (the select/read effort is wasted, as in hardware).
            let misspeculated = srcs.iter().zip(from_rf.iter()).any(|(src, rf)| {
                !rf && match *src {
                    Src::Int(p) => !self.int_pregs[p as usize].valid,
                    Src::Fp(p) => !self.fp_pregs[p as usize].valid,
                    _ => false,
                }
            });
            if misspeculated {
                self.rob[idx].state = SlotState::Waiting;
                self.stats.load_replays += 1;
                let kind = self.rob[idx].kind;
                // Revoke this instruction's own speculative wakeup — its
                // completion time is unknown again, and leaving the stale
                // estimate would let *its* consumers issue-and-replay every
                // cycle (a replay storm).
                if let Some(dest) = self.rob[idx].dest {
                    let bank =
                        if dest.is_int { &mut self.int_pregs } else { &mut self.fp_pregs };
                    bank[dest.new as usize].cap_avail_at = NEVER;
                }
                if matches!(kind, InstKind::FpAlu | InstKind::FpDiv) {
                    self.fp_iq_len += 1;
                } else {
                    self.int_iq_len += 1;
                }
                // Back in the queue: re-park on every still-unwritten
                // operand (the issue may have dropped this entry from the
                // wakeup lists) and re-evaluate from this cycle's issue
                // stage, exactly when the scan-based scheduler would next
                // have seen it.
                self.register_consumers(seq, srcs);
                self.requeue_waiting(seq, srcs, self.now);
                continue;
            }
            let mut vals = [0u64; 2];
            for (i, src) in srcs.iter().enumerate() {
                vals[i] = match *src {
                    Src::None => 0,
                    Src::Zero => {
                        self.stats.zero_operands += 1;
                        0
                    }
                    Src::Int(p) => {
                        if from_rf[i] {
                            self.stats.rf_operands += 1;
                            self.int_rf.read(p as usize)
                        } else {
                            self.stats.bypassed_operands += 1;
                            debug_assert!(self.int_pregs[p as usize].valid);
                            self.int_pregs[p as usize].value
                        }
                    }
                    Src::Fp(p) => {
                        if from_rf[i] {
                            self.stats.rf_operands += 1;
                            self.fp_rf.read(p as usize)
                        } else {
                            self.stats.bypassed_operands += 1;
                            debug_assert!(self.fp_pregs[p as usize].valid);
                            self.fp_pregs[p as usize].value
                        }
                    }
                };
            }
            self.rob[idx].src_vals = vals;
            self.rob[idx].state = SlotState::Captured;
            let latency = self.exec_latency(self.rob[idx].kind);
            self.completion_wheel.schedule(self.now, self.now + latency, seq);
        }
        seqs.clear();
        self.event_scratch = seqs;
    }

    /// Parks a waiting instruction on the wakeup list of every source
    /// register that has not yet been granted its register-file write:
    /// such a register's availability can still change (speculative
    /// wakeup, revocation, completion, writeback), and each change fires
    /// the list. A source already granted (`in_rf_at` finite) is frozen —
    /// `requeue_waiting` computes its exact readiness, no parking needed.
    pub(super) fn register_consumers(&mut self, seq: u64, srcs: [Src; 2]) {
        for src in srcs {
            match src {
                Src::Int(p) if self.int_pregs[p as usize].in_rf_at == NEVER => {
                    self.int_consumers[p as usize].push(seq);
                }
                Src::Fp(p) if self.fp_pregs[p as usize].in_rf_at == NEVER => {
                    self.fp_consumers[p as usize].push(seq);
                }
                _ => {}
            }
        }
    }

    pub(super) fn exec_latency(&self, kind: InstKind) -> u64 {
        match kind {
            InstKind::IntAlu | InstKind::Branch | InstKind::Jump | InstKind::JumpReg => 1,
            InstKind::IntMul => self.config.mul_latency,
            InstKind::IntDiv => self.config.div_latency,
            InstKind::Load | InstKind::Store => 1, // address generation
            InstKind::FpAlu => self.config.fp_latency,
            InstKind::FpDiv => self.config.fpdiv_latency,
            InstKind::Nop | InstKind::Halt => 1,
        }
    }
}
