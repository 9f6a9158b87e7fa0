//! Fetch: branch prediction, I-cache latency, and the fetch queue.

use super::*;

impl<R: IntRegFile, T: Tracer> Simulator<R, T> {
    // ----- fetch -----------------------------------------------------------

    pub(super) fn fetch(&mut self) -> Result<(), SimError> {
        if self.now < self.fetch_resume_at || self.fetch_wild || self.halted {
            // A wild fetch with nothing in flight to redirect it means the
            // program ran off the end without halting.
            if self.fetch_wild && self.rob.is_empty() && self.fetch_q.is_empty() {
                return Err(SimError::RunawayFetch { pc: self.fetch_pc });
            }
            return Ok(());
        }
        // Arbitrated-away fetch slot (multi-context SMT): skip this cycle
        // without touching the IL1 or the predictor. Checked after the
        // runaway test above so a wild machine is still diagnosed.
        if !self.fetch_gate {
            return Ok(());
        }
        if self.fetch_q.len() >= 4 * self.config.fetch_width {
            return Ok(());
        }
        for i in 0..self.config.fetch_width {
            let pc = self.fetch_pc;
            let Some(idx) = self.program.index_of(pc) else {
                self.fetch_wild = true;
                break;
            };
            if i == 0 {
                let latency = u64::from(self.hier.fetch_latency(pc));
                if latency > 1 {
                    // Instruction-cache miss: the line is being filled;
                    // retry once it arrives.
                    self.fetch_resume_at = self.now + latency;
                    return Ok(());
                }
            }
            let inst = self.program.insts[idx];
            let fallthrough = pc + INST_BYTES;
            let mut cond_pred = None;
            let pred_next = match inst.kind() {
                InstKind::Branch => {
                    let pred = self.bpred.predict_cond(pc);
                    cond_pred = Some(pred);
                    if pred.taken {
                        inst.imm as u64
                    } else {
                        fallthrough
                    }
                }
                InstKind::Jump => {
                    if inst.rd != 0 {
                        self.bpred.push_return(fallthrough);
                    }
                    inst.imm as u64
                }
                InstKind::JumpReg => {
                    let is_return = inst.rd == 0;
                    let target = self.bpred.predict_indirect(pc, is_return);
                    if inst.rd != 0 {
                        self.bpred.push_return(fallthrough);
                    }
                    if target == 0 {
                        fallthrough
                    } else {
                        target
                    }
                }
                _ => fallthrough,
            };
            self.fetch_q.push_back(Fetched {
                inst,
                pc,
                pred_next,
                ready_at: self.now + self.config.frontend_depth,
                cond_pred,
            });
            self.stats.fetched += 1;
            if inst.kind() == InstKind::Halt {
                self.fetch_wild = true; // nothing meaningful follows
                break;
            }
            self.fetch_pc = pred_next;
            if pred_next != fallthrough {
                break; // taken control flow ends the fetch group
            }
        }
        Ok(())
    }
}
