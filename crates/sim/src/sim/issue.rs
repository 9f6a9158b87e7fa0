//! Issue: event-driven wakeup/select, operand readiness, and port/FU arbitration.

use super::*;

impl<R: IntRegFile, T: Tracer> Simulator<R, T> {
    // ----- wakeup --------------------------------------------------------

    /// Fires the wakeup list of a physical register whose availability
    /// improved: every still-waiting consumer becomes an issue candidate at
    /// cycle `at` (the first cycle the improvement can matter). Consumers
    /// that issued or were squashed are dropped; the rest stay parked for
    /// the register's next event (e.g. the bypass window closing and the
    /// register-file path opening later).
    pub(super) fn wake_consumers(&mut self, is_int: bool, preg: Preg, at: u64) {
        let list = if is_int {
            &mut self.int_consumers[preg as usize]
        } else {
            &mut self.fp_consumers[preg as usize]
        };
        if list.is_empty() {
            return;
        }
        let mut list = std::mem::take(list);
        let mut keep = 0usize;
        for i in 0..list.len() {
            let seq = list[i];
            let waiting = self
                .slot_index(seq)
                .is_some_and(|idx| self.rob[idx].state == SlotState::Waiting);
            if waiting {
                self.wake_wheel.schedule(self.now, at, seq);
                list[keep] = seq;
                keep += 1;
            }
        }
        list.truncate(keep);
        let slot = if is_int {
            &mut self.int_consumers[preg as usize]
        } else {
            &mut self.fp_consumers[preg as usize]
        };
        debug_assert!(slot.is_empty());
        *slot = list;
    }

    /// The earliest cycle `>= from` at which `src` could be captured
    /// (issue at `t` captures at `t + read_stages`), given the operand's
    /// current availability. `None` means no capture is schedulable from
    /// what is known now — the consumer parks on the producer's wakeup
    /// list and a future event (speculative wakeup, load resolution,
    /// completion, or writeback grant) reschedules it.
    pub(super) fn operand_next_cycle(&self, src: Src, from: u64) -> Option<u64> {
        let st = match src {
            Src::None | Src::Zero => return Some(from),
            Src::Int(p) => &self.int_pregs[p as usize],
            Src::Fp(p) => &self.fp_pregs[p as usize],
        };
        let mut best: Option<u64> = None;
        if st.in_rf_at != NEVER {
            best = Some(from.max(st.in_rf_at.saturating_sub(self.read_stages)));
        }
        if st.cap_avail_at != NEVER {
            let t = from.max(st.cap_avail_at.saturating_sub(self.read_stages));
            // The bypass network holds a value for two cycles past its
            // availability (see `can_capture`); if the earliest capture
            // already misses that window, later ones miss it too.
            let feasible = self.full_bypass
                || t + self.read_stages < st.cap_avail_at.saturating_add(2);
            if feasible {
                best = Some(best.map_or(t, |b| b.min(t)));
            }
        }
        best
    }

    /// Schedules the next issue evaluation of a waiting instruction at the
    /// earliest cycle (`>= from`) all of its operands could be captured.
    /// If any operand has no schedulable capture, the instruction is not
    /// queued at all — it is parked on that operand's wakeup list.
    pub(super) fn requeue_waiting(&mut self, seq: u64, srcs: [Src; 2], from: u64) {
        let mut when = from;
        for src in srcs {
            match self.operand_next_cycle(src, from) {
                Some(t) => when = when.max(t),
                None => return,
            }
        }
        self.wake_wheel.schedule(self.now, when, seq);
    }

    // ----- issue ---------------------------------------------------------

    /// Can a source captured at cycle `c` get its value, and from the RF?
    pub(super) fn can_capture(&self, src: Src, c: u64) -> Option<bool> {
        let st = match src {
            Src::None | Src::Zero => return Some(false),
            Src::Int(p) => &self.int_pregs[p as usize],
            Src::Fp(p) => &self.fp_pregs[p as usize],
        };
        if st.in_rf_at <= c {
            Some(true)
        } else if st.cap_avail_at <= c
            && (self.full_bypass || c < st.cap_avail_at.saturating_add(2))
        {
            Some(false)
        } else {
            None
        }
    }

    pub(super) fn issue(&mut self) {
        // The Long-file guard (paper §3.1) stalls issue when free Long
        // entries drop to the threshold. The oldest instruction is exempt:
        // it is the only guaranteed source of forward progress (its commit
        // frees entries), so stalling it too would livelock.
        let guard = self.int_rf.should_stall_issue();
        if guard {
            self.stats.long_guard_stall_cycles += 1;
            if T::ENABLED {
                self.tracer.event(TraceEvent::LongGuard { cycle: self.now });
            }
        }
        let oldest = self.rob.front().map(|s| s.seq);
        let capture_cycle = self.now + self.read_stages;
        // Event-driven candidate set: only instructions woken for this
        // cycle are evaluated, instead of rescanning both issue queues.
        // Sorted (oldest-first, as the scan-based scheduler selected) and
        // deduplicated (an entry may have been woken by several events).
        // Every candidate the cycle cannot issue is rescheduled, so the
        // candidate set always covers what the full rescan would have
        // found ready; evaluating a not-ready entry has no side effects.
        self.issue_cand.clear();
        self.wake_wheel.drain_into(self.now, &mut self.issue_cand);
        if self.issue_cand.is_empty() {
            return;
        }
        self.issue_cand.sort_unstable();
        self.issue_cand.dedup();

        let mut issued = 0usize;
        let mut ci = 0usize;
        while ci < self.issue_cand.len() {
            let seq = self.issue_cand[ci];
            if issued >= self.config.issue_width {
                // Issue width exhausted: everything still pending retries
                // next cycle (the rescan scheduler re-saw it every cycle).
                for wi in ci..self.issue_cand.len() {
                    let s = self.issue_cand[wi];
                    self.wake_wheel.schedule(self.now, self.now + 1, s);
                }
                break;
            }
            ci += 1;
            // Squashed or already-issued wakeups drop out here.
            let Some(idx) = self.slot_index(seq) else { continue };
            if self.rob[idx].state != SlotState::Waiting {
                continue;
            }
            if guard && Some(seq) != oldest {
                self.wake_wheel.schedule(self.now, self.now + 1, seq);
                continue;
            }
            let kind = self.rob[idx].kind;
            let srcs = self.rob[idx].srcs;

            // Operand readiness and RF/bypass routing.
            let mut from_rf = [false; 2];
            let mut ready = true;
            let mut int_reads = 0u32;
            let mut fp_reads = 0u32;
            for (i, src) in srcs.iter().enumerate() {
                match self.can_capture(*src, capture_cycle) {
                    Some(rf) => {
                        // Zero/None sources report `false` but consume
                        // nothing.
                        let needs_port = rf && matches!(src, Src::Int(_) | Src::Fp(_));
                        from_rf[i] = needs_port;
                        if needs_port {
                            match src {
                                // A capture-buffer hit (port-reduced file)
                                // serves this operand without a physical
                                // port; the value is still read from the
                                // register file, so `from_rf` stays set.
                                Src::Int(p) if self.int_rf.capture_buffer_hit(*p as usize) => {}
                                Src::Int(_) => int_reads += 1,
                                Src::Fp(_) => fp_reads += 1,
                                _ => unreachable!(),
                            }
                        }
                    }
                    None => {
                        ready = false;
                        break;
                    }
                }
            }
            if !ready {
                // Re-evaluate at the operands' next possible capture (or
                // park on a producer's wakeup list if none is known).
                self.requeue_waiting(seq, srcs, self.now + 1);
                continue;
            }

            // Register-file read ports at the capture cycle (checked before
            // the FU so a denial leaks nothing past this cycle). Denials
            // are structural: retry next cycle.
            if int_reads > 0 && !self.int_read_ports.try_acquire_n(int_reads) {
                self.stats.rf_read_port_denials += 1;
                self.wake_wheel.schedule(self.now, self.now + 1, seq);
                continue;
            }
            if fp_reads > 0 && !self.fp_read_ports.try_acquire_n(fp_reads) {
                self.wake_wheel.schedule(self.now, self.now + 1, seq);
                continue;
            }

            // Functional unit for the execute stage.
            let exec_start = capture_cycle + 1;
            let duration = match kind {
                InstKind::IntDiv => self.config.div_latency,
                InstKind::FpDiv => self.config.fpdiv_latency,
                _ => 1,
            };
            let pool = match kind {
                InstKind::FpAlu | InstKind::FpDiv => &mut self.fp_fus,
                _ => &mut self.int_fus,
            };
            if !pool.try_acquire(exec_start, duration) {
                self.wake_wheel.schedule(self.now, self.now + 1, seq);
                continue;
            }

            // Selected.
            self.rob[idx].state = SlotState::Issued;
            self.rob[idx].src_from_rf = from_rf;
            if T::ENABLED {
                self.tracer.event(TraceEvent::Issue { cycle: self.now, seq });
            }
            self.capture_wheel.schedule(self.now, capture_cycle, seq);
            // Speculative wakeup: consumers may be selected against the
            // scheduled completion time of this producer. Loads are woken
            // assuming an L1 hit (address generation + hit latency);
            // consumers that issue on a wrong hit speculation replay from
            // the issue queue at capture.
            if let Some(dest) = self.rob[idx].dest {
                let done = match kind {
                    InstKind::Load => {
                        capture_cycle + 1 + u64::from(self.config.hierarchy.dl1.latency)
                    }
                    _ => capture_cycle + self.exec_latency(kind),
                };
                let bank = if dest.is_int { &mut self.int_pregs } else { &mut self.fp_pregs };
                bank[dest.new as usize].cap_avail_at = done;
                // `done - read_stages` is the first cycle a consumer could
                // be selected against this estimate; it is always at least
                // `now + 1` (a dependent can never issue the same cycle,
                // and this cycle's wakeups have already drained).
                let at = (self.now + 1).max(done.saturating_sub(self.read_stages));
                self.wake_consumers(dest.is_int, dest.new, at);
            }
            match kind {
                InstKind::FpAlu | InstKind::FpDiv => self.fp_iq_len -= 1,
                _ => self.int_iq_len -= 1,
            }
            issued += 1;
        }
    }
}
