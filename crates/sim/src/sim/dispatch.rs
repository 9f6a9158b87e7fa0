//! Dispatch: rename (RAT + free lists) and ROB/IQ/LSQ allocation.

use super::*;

impl<R: IntRegFile, T: Tracer> Simulator<R, T> {
    // ----- dispatch (rename) ----------------------------------------------

    #[inline]
    pub(super) fn dispatch_stall_event(&mut self, cause: DispatchStallCause) {
        if T::ENABLED {
            self.tracer.event(TraceEvent::DispatchStall { cycle: self.now, cause });
        }
    }

    pub(super) fn dispatch(&mut self) {
        for _ in 0..self.config.fetch_width {
            let Some(fetched) = self.fetch_q.front().copied() else { break };
            if fetched.ready_at > self.now {
                break;
            }
            let inst = fetched.inst;
            let kind = inst.kind();

            // Structural hazards.
            if self.rob.len() >= self.config.rob_size {
                self.stats.dispatch_stalls.rob += 1;
                self.dispatch_stall_event(DispatchStallCause::Rob);
                break;
            }
            let is_mem = matches!(kind, InstKind::Load | InstKind::Store);
            if is_mem && self.lsq.is_full() {
                self.stats.dispatch_stalls.lsq += 1;
                self.dispatch_stall_event(DispatchStallCause::Lsq);
                break;
            }
            let uses_fp_iq = matches!(kind, InstKind::FpAlu | InstKind::FpDiv);
            let needs_iq = !matches!(kind, InstKind::Nop | InstKind::Halt);
            if needs_iq {
                let len = if uses_fp_iq { self.fp_iq_len } else { self.int_iq_len };
                let cap = if uses_fp_iq { self.config.iq_fp } else { self.config.iq_int };
                if len >= cap {
                    self.stats.dispatch_stalls.iq += 1;
                    self.dispatch_stall_event(DispatchStallCause::Iq);
                    break;
                }
            }
            let takes_checkpoint = matches!(kind, InstKind::Branch | InstKind::JumpReg);
            if takes_checkpoint && self.unresolved_branches >= self.config.checkpoints {
                self.stats.dispatch_stalls.checkpoints += 1;
                self.dispatch_stall_event(DispatchStallCause::Checkpoints);
                break;
            }
            let dest_ref = inst.dest();
            let needs_int_preg = matches!(dest_ref, Some(carf_isa::RegRef::Int(r)) if !r.is_zero());
            let needs_fp_preg = matches!(dest_ref, Some(carf_isa::RegRef::Fp(_)));
            if (needs_int_preg && self.rename.int_free_count() == 0)
                || (needs_fp_preg && self.rename.fp_free_count() == 0)
            {
                self.stats.dispatch_stalls.pregs += 1;
                self.dispatch_stall_event(DispatchStallCause::Pregs);
                break;
            }

            // Commit to dispatching this instruction.
            self.fetch_q.pop_front();
            self.seq_counter += 1;
            let seq = self.seq_counter;

            let mut srcs = [Src::None, Src::None];
            for (i, s) in inst.sources().iter().enumerate() {
                srcs[i] = match s {
                    None => Src::None,
                    Some(carf_isa::RegRef::Int(r)) if r.is_zero() => Src::Zero,
                    Some(carf_isa::RegRef::Int(r)) => Src::Int(self.rename.lookup_int(*r)),
                    Some(carf_isa::RegRef::Fp(r)) => Src::Fp(self.rename.lookup_fp(*r)),
                };
            }

            let dest = match dest_ref {
                Some(carf_isa::RegRef::Int(r)) if !r.is_zero() => {
                    let (new, old) =
                        self.rename.rename_int_dest(r).expect("free count checked above");
                    self.int_rf.on_alloc(new as usize);
                    self.int_pregs[new as usize] = PregState::reset();
                    // A freed register's waiting consumers were all
                    // squashed or committed; drop the stale list entries.
                    self.int_consumers[new as usize].clear();
                    Some(Dest { is_int: true, arch: r.number(), new, old })
                }
                Some(carf_isa::RegRef::Fp(r)) => {
                    let (new, old) =
                        self.rename.rename_fp_dest(r).expect("free count checked above");
                    self.fp_rf.on_alloc(new as usize);
                    self.fp_pregs[new as usize] = PregState::reset();
                    self.fp_consumers[new as usize].clear();
                    Some(Dest { is_int: false, arch: r.number(), new, old })
                }
                _ => None,
            };

            if is_mem {
                let size = match kind {
                    InstKind::Load => match load_width(inst.op) {
                        LoadWidth::U64 | LoadWidth::F64 => 8,
                        LoadWidth::I32 => 4,
                        LoadWidth::U8 => 1,
                    },
                    _ => store_bytes(store_width(inst.op)) as u8,
                };
                self.lsq
                    .try_push(seq, kind == InstKind::Load, size)
                    .expect("fullness checked above");
            }
            if takes_checkpoint {
                self.unresolved_branches += 1;
            }

            let state = if needs_iq { SlotState::Waiting } else { SlotState::Completed };
            if needs_iq {
                if uses_fp_iq {
                    self.fp_iq_len += 1;
                } else {
                    self.int_iq_len += 1;
                }
                // Event-driven scheduling: park on the producers that may
                // still change, and queue the first issue evaluation for
                // the earliest cycle the operands allow (issue has already
                // run this cycle, so never before `now + 1`).
                self.register_consumers(seq, srcs);
                self.requeue_waiting(seq, srcs, self.now + 1);
            }
            self.rob.push_back(Slot {
                seq,
                pc: fetched.pc,
                inst,
                kind,
                pred_next: fetched.pred_next,
                dest,
                srcs,
                src_from_rf: [false; 2],
                src_vals: [0; 2],
                state,
                wb_done_at: NEVER,
                actual_next: fetched.pred_next,
                mem_addr: None,
                load_data: 0,
                result: 0,
                branch_unresolved: takes_checkpoint,
                wb_fail_cycles: 0,
                cond_pred: fetched.cond_pred,
            });
            if T::ENABLED {
                self.tracer.event(TraceEvent::Dispatch {
                    cycle: self.now,
                    seq,
                    pc: fetched.pc,
                    inst,
                    kind,
                });
            }
        }
    }
}
