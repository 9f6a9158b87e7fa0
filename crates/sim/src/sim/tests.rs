#[cfg(test)]
mod pipeline_tests {
    use crate::lsq::MemDepPolicy;
    use crate::sim::*;
    use crate::trace::TraceRecorder;
    use carf_core::{CarfParams, Policies};
    use carf_isa::{f, x, Asm};

    const HEAP: u64 = 0x0000_7f3a_8000_0000;

    fn run_with(config: SimConfig, asm: Asm) -> (AnySimulator, SimResult) {
        let program = asm.finish().expect("assembly");
        let mut sim = AnySimulator::new(config, &program);
        let result = sim.run(5_000_000).expect("simulation");
        assert!(result.halted, "program must halt");
        (sim, result)
    }

    fn run(asm: Asm) -> (AnySimulator, SimResult) {
        run_with(SimConfig::test_small(), asm)
    }

    fn sum_loop(n: u64) -> Asm {
        let mut asm = Asm::new();
        asm.li(x(1), 0);
        asm.li(x(2), 1);
        asm.li(x(3), n + 1);
        asm.label("loop");
        asm.add(x(1), x(1), x(2));
        asm.addi(x(2), x(2), 1);
        asm.blt(x(2), x(3), "loop");
        asm.halt();
        asm
    }

    #[test]
    fn straight_line_commits_in_order() {
        let mut asm = Asm::new();
        asm.li(x(1), 5);
        asm.li(x(2), 7);
        asm.add(x(3), x(1), x(2));
        asm.mul(x(4), x(3), x(3));
        asm.halt();
        let (_, r) = run(asm);
        assert_eq!(r.committed, 5);
        assert!(r.cycles > 5); // pipeline fill
    }

    #[test]
    fn cosim_validates_a_long_loop() {
        let (sim, r) = run(sum_loop(500));
        assert_eq!(r.committed, 3 + 3 * 500 + 1);
        assert!(sim.stats().ipc() > 0.5, "ipc = {}", sim.stats().ipc());
    }

    #[test]
    fn branch_predictor_learns_the_loop() {
        let (sim, _) = run(sum_loop(2000));
        assert!(
            sim.stats().bpred.cond_accuracy() > 0.95,
            "accuracy = {}",
            sim.stats().bpred.cond_accuracy()
        );
    }

    #[test]
    fn memory_round_trip_with_forwarding() {
        let mut asm = Asm::new();
        let buf = asm.alloc_bytes_zeroed(256);
        asm.li(x(1), buf);
        asm.li(x(2), 0xdead_beef_1234_5678);
        asm.st(x(2), x(1), 8);
        asm.ld(x(3), x(1), 8); // same-address load: forwarded or from cache
        asm.add(x(4), x(3), x(3));
        asm.st(x(4), x(1), 16);
        asm.halt();
        let (sim, r) = run(asm);
        assert_eq!(r.committed, 7);
        assert!(sim.stats().loads >= 1 && sim.stats().stores >= 2);
    }

    #[test]
    fn store_load_chain_through_memory() {
        // Writes then reads back a small table; catches LSQ/memory ordering
        // bugs under cosim.
        let mut asm = Asm::new();
        let buf = asm.alloc_bytes_zeroed(512);
        asm.li(x(1), buf);
        asm.li(x(2), 0); // i
        asm.li(x(3), 32); // n
        asm.label("fill");
        asm.slli(x(4), x(2), 3);
        asm.add(x(5), x(1), x(4));
        asm.mul(x(6), x(2), x(2));
        asm.st(x(6), x(5), 0);
        asm.addi(x(2), x(2), 1);
        asm.blt(x(2), x(3), "fill");
        asm.li(x(2), 0);
        asm.li(x(7), 0); // sum
        asm.label("read");
        asm.slli(x(4), x(2), 3);
        asm.add(x(5), x(1), x(4));
        asm.ld(x(6), x(5), 0);
        asm.add(x(7), x(7), x(6));
        asm.addi(x(2), x(2), 1);
        asm.blt(x(2), x(3), "read");
        asm.halt();
        let (_, r) = run(asm);
        assert!(r.committed > 64);
    }

    #[test]
    fn function_calls_through_ras() {
        let mut asm = Asm::new();
        asm.li(x(10), 1);
        asm.li(x(20), 0); // call count
        asm.label("main_loop");
        asm.jal(x(31), "double");
        asm.addi(x(20), x(20), 1);
        asm.slti(x(21), x(20), 6);
        asm.bne(x(21), x(0), "main_loop");
        asm.halt();
        asm.label("double");
        asm.add(x(10), x(10), x(10));
        asm.ret(x(31));
        let (_, r) = run(asm);
        assert!(r.halted);
        // 6 iterations of 4 instructions + 6 * 2 callee + prologue/halt.
        assert_eq!(r.committed, 2 + 6 * 4 + 6 * 2 + 1);
    }

    #[test]
    fn fp_pipeline_with_cosim() {
        let mut asm = Asm::new();
        let data = asm.alloc_f64s(&[1.5, 2.5, 3.5, 4.5]);
        asm.li(x(1), data);
        asm.li(x(2), 0);
        asm.li(x(3), 4);
        asm.fld(f(10), x(1), 0);
        asm.label("loop");
        asm.slli(x(4), x(2), 3);
        asm.add(x(5), x(1), x(4));
        asm.fld(f(1), x(5), 0);
        asm.fmul(f(2), f(1), f(1));
        asm.fadd(f(10), f(10), f(2));
        asm.addi(x(2), x(2), 1);
        asm.blt(x(2), x(3), "loop");
        asm.fst(f(10), x(1), 64);
        asm.fcvt_if(x(6), f(10));
        asm.halt();
        let (_, r) = run(asm);
        assert!(r.halted);
    }

    #[test]
    fn division_and_unpipelined_units() {
        let mut asm = Asm::new();
        asm.li(x(1), 1000);
        asm.li(x(2), 7);
        asm.div(x(3), x(1), x(2));
        asm.div(x(4), x(3), x(2));
        asm.div(x(5), x(1), x(0)); // divide by zero convention
        asm.fcvt_fi(f(1), x(1));
        asm.fcvt_fi(f(2), x(2));
        asm.fdiv(f(3), f(1), f(2));
        asm.halt();
        let (_, r) = run(asm);
        assert_eq!(r.committed, 9);
    }

    #[test]
    fn data_dependent_branches_mispredict_and_recover() {
        // Branch on a pseudo-random bit: forces mispredicts and recovery.
        let mut asm = Asm::new();
        asm.li(x(1), 12345); // lcg state
        asm.li(x(2), 0); // taken counter
        asm.li(x(3), 400); // iterations
        asm.li(x(5), 6364136223846793005u64);
        asm.li(x(6), 1442695040888963407u64);
        asm.label("loop");
        asm.mul(x(1), x(1), x(5));
        asm.add(x(1), x(1), x(6));
        asm.srli(x(4), x(1), 61);
        asm.andi(x(4), x(4), 1);
        asm.beq(x(4), x(0), "skip");
        asm.addi(x(2), x(2), 1);
        asm.label("skip");
        asm.addi(x(3), x(3), -1);
        asm.bne(x(3), x(0), "loop");
        asm.halt();
        let (sim, r) = run(asm);
        assert!(r.halted);
        assert!(sim.stats().mispredicts > 10, "mispredicts = {}", sim.stats().mispredicts);
        assert!(sim.stats().squashed > 0);
    }

    #[test]
    fn a_four_entry_rob_skips_stale_events_on_reused_positions() {
        // Four ROB positions are reused every few dispatches while
        // squashed instructions still have completion events in flight: a
        // divide issued beside a branch that waits on another divide, and
        // loads squashed by stores whose late addresses they overlap
        // (optimistic policy). Such an event must be skipped, never applied
        // to the position's new occupant. Co-simulation checks every value,
        // and the recorded lifetimes check that nothing completed early.
        let kernel = || {
            let mut asm = Asm::new();
            let table = asm.alloc_u64s(&[3, 1, 4, 1, 5, 9, 2, 6]);
            asm.li(x(10), table);
            asm.li(x(1), 12345); // lcg state
            asm.li(x(3), 300); // iterations
            asm.li(x(5), 6364136223846793005u64);
            asm.li(x(6), 1442695040888963407u64);
            asm.li(x(7), 0); // running sum
            asm.li(x(16), 3);
            asm.label("loop");
            asm.mul(x(1), x(1), x(5));
            asm.add(x(1), x(1), x(6));
            asm.div(x(4), x(1), x(16));
            asm.andi(x(11), x(4), 1);
            asm.beq(x(11), x(0), "skip");
            asm.div(x(12), x(4), x(16));
            asm.add(x(7), x(7), x(12));
            asm.label("skip");
            asm.srli(x(8), x(4), 61);
            asm.slli(x(8), x(8), 3);
            asm.add(x(8), x(10), x(8));
            asm.ld(x(9), x(8), 0);
            asm.add(x(7), x(7), x(9));
            // A store whose address waits on a divide, then a load of the
            // same word (the quotient is almost always 0).
            asm.div(x(13), x(7), x(5));
            asm.add(x(14), x(10), x(13));
            asm.st(x(7), x(14), 8);
            asm.ld(x(15), x(10), 8);
            asm.add(x(7), x(7), x(15));
            asm.addi(x(3), x(3), -1);
            asm.bne(x(3), x(0), "loop");
            asm.halt();
            asm.finish().expect("assembly")
        };
        let carf = RegFileKind::ContentAware(
            CarfParams { simple_entries: 64, ..CarfParams::paper_default() },
            Policies::default(),
        );
        let reference = AnySimulator::new(SimConfig::test_small(), &kernel())
            .run(5_000_000)
            .expect("simulation");
        for regfile in [RegFileKind::Baseline, carf] {
            for mem_dep in [MemDepPolicy::Conservative, MemDepPolicy::Optimistic] {
                let mut cfg = SimConfig::test_small();
                cfg.rob_size = 4;
                cfg.regfile = regfile.clone();
                cfg.mem_dep = mem_dep;
                assert!(cfg.cosim);
                let recorder = TraceRecorder::with_window(0, u64::MAX);
                let mut sim = AnySimulator::with_tracer(cfg.clone(), &kernel(), recorder);
                let r = sim.run(5_000_000).expect("simulation");
                assert!(r.halted && r.committed == reference.committed, "{r:?}");
                let stats = sim.stats();
                assert!(stats.dispatch_stalls.rob > 0, "the ROB never filled");
                assert!(stats.mispredicts > 10, "mispredicts = {}", stats.mispredicts);
                if mem_dep == MemDepPolicy::Optimistic {
                    assert!(stats.mem_dep_violations > 0, "no memory-order squash");
                }
                // Issue, then at least one read stage, then the unit.
                for life in sim.tracer().lifetimes() {
                    let latency = match life.inst.kind() {
                        InstKind::IntDiv => cfg.div_latency,
                        InstKind::IntMul => cfg.mul_latency,
                        InstKind::Load => 2, // address generation, then the access
                        InstKind::Nop | InstKind::Halt => continue,
                        _ => 1,
                    };
                    assert!(
                        life.executed >= life.issued + 1 + latency,
                        "{} issued at {} completed at {}",
                        life.inst,
                        life.issued,
                        life.executed
                    );
                }
            }
        }
    }

    #[test]
    fn carf_machine_matches_golden_on_pointer_workload() {
        // Pointer-chasing through a heap-like region: exercises short
        // classification under cosim.
        let mut asm = Asm::new();
        asm.set_data_base(HEAP);
        // A linked ring of 8 nodes, 16 bytes apart.
        let mut nodes = Vec::new();
        for i in 0..8u64 {
            nodes.push(HEAP + ((i + 1) % 8) * 16);
            nodes.push(i * i);
        }
        let mut bytes = Vec::new();
        for w in &nodes {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        let head = asm.alloc_data(&bytes);
        asm.li(x(1), head);
        asm.li(x(2), 0); // sum
        asm.li(x(3), 64); // steps
        asm.label("chase");
        asm.ld(x(4), x(1), 8); // payload
        asm.add(x(2), x(2), x(4));
        asm.ld(x(1), x(1), 0); // next pointer
        asm.addi(x(3), x(3), -1);
        asm.bne(x(3), x(0), "chase");
        asm.halt();

        let mut cfg = SimConfig::test_small();
        cfg.regfile = RegFileKind::ContentAware(
            CarfParams { simple_entries: 64, ..CarfParams::paper_default() },
            Policies::default(),
        );
        let (sim, r) = run_with(cfg, asm);
        assert!(r.halted);
        let stats = sim.stats();
        // The pointer values classify as short, the counters as simple.
        assert!(stats.int_rf.writes.short > 0, "{:?}", stats.int_rf.writes);
        assert!(stats.int_rf.writes.simple > 0);
    }

    #[test]
    fn carf_and_baseline_compute_identical_results() {
        for make_cfg in [
            SimConfig::test_small,
            || {
                let mut c = SimConfig::test_small();
                c.regfile = RegFileKind::ContentAware(
                    CarfParams { simple_entries: 64, ..CarfParams::paper_default() },
                    Policies::default(),
                );
                c
            },
        ] {
            let (_, r) = run_with(make_cfg(), sum_loop(300));
            assert_eq!(r.committed, 3 + 3 * 300 + 1);
        }
    }

    #[test]
    fn carf_pays_a_small_ipc_cost() {
        let big_loop = || {
            let mut asm = Asm::new();
            asm.set_data_base(HEAP);
            let buf = asm.alloc_bytes_zeroed(4096);
            asm.li(x(1), buf);
            asm.li(x(2), 0);
            asm.li(x(3), 2000);
            asm.label("loop");
            asm.andi(x(4), x(2), 511);
            asm.slli(x(4), x(4), 3);
            asm.add(x(5), x(1), x(4));
            asm.st(x(2), x(5), 0);
            asm.ld(x(6), x(5), 0);
            asm.add(x(7), x(7), x(6));
            asm.addi(x(2), x(2), 1);
            asm.blt(x(2), x(3), "loop");
            asm.halt();
            asm
        };
        let (_, base) = run_with(SimConfig::test_small(), big_loop());
        let mut cfg = SimConfig::test_small();
        cfg.regfile = RegFileKind::ContentAware(
            CarfParams { simple_entries: 64, ..CarfParams::paper_default() },
            Policies::default(),
        );
        let (_, carf) = run_with(cfg, big_loop());
        assert_eq!(base.committed, carf.committed);
        let rel = carf.ipc / base.ipc;
        // The paper reports ~1.7% loss; structurally anything in (0.7, 1.01]
        // is sane for a small kernel.
        assert!(rel > 0.7 && rel < 1.02, "carf/base ipc = {rel:.3}");
    }

    #[test]
    fn long_file_pressure_stalls_but_stays_correct() {
        // Values drawn from many distinct high-bit regions: mostly long.
        let mut asm = Asm::new();
        asm.li(x(9), 0x0101_0101_0101_0101);
        asm.li(x(1), 0x1234_5678_9abc_def0);
        asm.li(x(3), 200);
        asm.label("loop");
        asm.add(x(1), x(1), x(9));
        asm.add(x(2), x(1), x(9));
        asm.add(x(4), x(2), x(9));
        asm.add(x(5), x(4), x(9));
        asm.addi(x(3), x(3), -1);
        asm.bne(x(3), x(0), "loop");
        asm.halt();

        let mut cfg = SimConfig::test_small();
        cfg.regfile = RegFileKind::ContentAware(
            CarfParams {
                simple_entries: 64,
                // Tight: far fewer Long entries than live long values, so
                // the guard (and possibly the recovery path) must engage.
                long_entries: 16,
                ..CarfParams::paper_default()
            },
            Policies { long_stall_threshold: 8, ..Policies::default() },
        );
        let (sim, r) = run_with(cfg, asm);
        assert!(r.halted);
        assert!(
            sim.stats().long_guard_stall_cycles > 0 || sim.stats().wb_long_retries > 0,
            "expected long-file pressure: {:?} guard cycles, {:?} retries",
            sim.stats().long_guard_stall_cycles,
            sim.stats().wb_long_retries,
        );
    }

    #[test]
    fn bypass_supplies_dependent_chains() {
        let (sim, _) = run(sum_loop(400));
        let stats = sim.stats();
        assert!(stats.bypassed_operands > 0, "dependent ops must bypass");
        assert!(stats.rf_operands > 0, "stable values must read the RF");
        let frac = stats.bypass_fraction();
        assert!(frac > 0.05 && frac < 0.95, "bypass fraction = {frac}");
    }

    #[test]
    fn oracle_sampling_records_live_values() {
        let mut cfg = SimConfig::test_small();
        cfg.oracle_period = Some(4);
        let (sim, _) = run_with(cfg, sum_loop(500));
        let oracle = &sim.stats().oracle;
        assert!(oracle.snapshots > 10);
        assert!(oracle.mean_live() > 4.0, "mean live = {}", oracle.mean_live());
        let f = oracle.values.fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_register_operands_are_free() {
        let mut asm = Asm::new();
        asm.li(x(3), 50);
        asm.label("loop");
        asm.add(x(1), x(0), x(0));
        asm.addi(x(3), x(3), -1);
        asm.bne(x(3), x(0), "loop");
        asm.halt();
        let (sim, _) = run(asm);
        assert!(sim.stats().zero_operands > 100);
    }

    #[test]
    fn runaway_program_is_detected() {
        let mut asm = Asm::new();
        asm.li(x(1), 1); // no halt: falls off the end
        let program = asm.finish().unwrap();
        let mut sim = AnySimulator::new(SimConfig::test_small(), &program);
        match sim.run(1_000) {
            Err(SimError::RunawayFetch { .. }) => {}
            other => panic!("expected runaway fetch, got {other:?}"),
        }
    }

    #[test]
    fn instruction_budget_stops_infinite_loops() {
        let mut asm = Asm::new();
        asm.label("spin");
        asm.addi(x(1), x(1), 1);
        asm.j("spin");
        let program = asm.finish().unwrap();
        let mut sim = AnySimulator::new(SimConfig::test_small(), &program);
        let r = sim.run(500).expect("runs fine, just never halts");
        assert!(!r.halted);
        assert!(r.committed >= 500);
    }

    #[test]
    fn table4_operand_mix_is_recorded_for_carf() {
        let mut cfg = SimConfig::test_small();
        cfg.regfile = RegFileKind::ContentAware(
            CarfParams { simple_entries: 64, ..CarfParams::paper_default() },
            Policies::default(),
        );
        let (sim, _) = run_with(cfg, sum_loop(300));
        assert!(sim.stats().operand_mix.total() > 100);
        // A counting loop's operands are overwhelmingly simple.
        assert!(sim.stats().operand_mix.fractions()[0] > 0.5);
    }

    #[test]
    fn paper_configs_run_the_same_program() {
        for cfg in [SimConfig::paper_baseline(), SimConfig::paper_unlimited()] {
            let mut c = cfg;
            c.cosim = true;
            let (_, r) = run_with(c, sum_loop(200));
            assert_eq!(r.committed, 3 + 3 * 200 + 1);
        }
    }
}

#[cfg(test)]
mod timeline_tests {
    use crate::sim::*;
    use crate::trace::{InstTimeline, TraceRecorder};
    use carf_isa::{x, Asm};

    /// The lifetimes a whole-run recorder window collects, in retire order.
    fn lifetimes(program: &Program, max_insts: u64) -> Vec<InstTimeline> {
        let recorder = TraceRecorder::with_window(0, u64::MAX);
        let mut sim = AnySimulator::with_tracer(SimConfig::test_small(), program, recorder);
        sim.run(max_insts).unwrap();
        sim.tracer().lifetimes().to_vec()
    }

    fn countdown(n: u64) -> Program {
        let mut asm = Asm::new();
        asm.li(x(1), n);
        asm.label("l");
        asm.addi(x(1), x(1), -1);
        asm.bne(x(1), x(0), "l");
        asm.halt();
        asm.finish().unwrap()
    }

    #[test]
    fn timeline_records_stage_ordering() {
        let mut asm = Asm::new();
        asm.li(x(1), 3);
        asm.add(x(2), x(1), x(1));
        asm.mul(x(3), x(2), x(2));
        asm.halt();
        let tl = lifetimes(&asm.finish().unwrap(), 1_000);
        assert_eq!(tl.len(), 4);
        // Commit order equals program order here.
        for w in tl.windows(2) {
            assert!(w[0].seq < w[1].seq);
            assert!(w[0].committed <= w[1].committed);
        }
        // Stage ordering within each executing instruction.
        for t in tl.iter().take(3) {
            assert!(t.dispatched <= t.issued, "{t}");
            assert!(t.issued < t.executed, "{t}");
            assert!(t.executed < t.committed, "{t}");
        }
        // The dependent multiply executes after its source add.
        assert!(tl[2].executed > tl[1].executed);
        // Display formatting carries the disassembly.
        assert!(tl[2].to_string().contains("mul x3, x2, x2"));
    }

    #[test]
    fn timeline_cap_keeps_the_first_lifetimes() {
        // A run stopped once N instructions commit (how `carf-as
        // --timeline N` bounds its recording) sees the same first N
        // lifetimes as a run to completion.
        let program = countdown(50);
        let full = lifetimes(&program, 10_000);
        let capped = lifetimes(&program, 5);
        assert!(capped.len() >= 5 && capped.len() < full.len(), "{}", capped.len());
        assert_eq!(capped[..5], full[..5]);
    }

    #[test]
    fn timeline_off_outside_the_window() {
        // Lifetimes are kept only for dispatches inside the window, while
        // the stage latencies still cover the whole run.
        let mut sim = AnySimulator::with_tracer(
            SimConfig::test_small(),
            &countdown(3),
            TraceRecorder::with_window(0, 0),
        );
        let result = sim.run(100).unwrap();
        assert!(sim.tracer().lifetimes().is_empty());
        assert_eq!(sim.tracer().latencies().dispatch_to_retire.count(), result.committed);
    }
}

#[cfg(test)]
mod memdep_tests {
    use crate::sim::*;
    use crate::lsq::MemDepPolicy;
    use carf_isa::{x, Asm};

    /// A store whose address depends on a slow divide, followed by a load
    /// to the same location: the optimistic machine reads early and must
    /// detect the violation when the store resolves.
    fn conflict_kernel(iters: u64) -> carf_isa::Program {
        let mut asm = Asm::new();
        let buf = asm.alloc_u64s(&[5, 6, 7, 8]);
        asm.li(x(10), buf);
        asm.li(x(20), iters);
        asm.li(x(9), 24);
        asm.li(x(8), 3);
        asm.label("loop");
        // Slow address: offset = (24 / 3) = 8, known only after the divide.
        asm.div(x(2), x(9), x(8));
        asm.add(x(3), x(10), x(2));
        asm.st(x(20), x(3), 0); // store to buf+8
        asm.ld(x(4), x(10), 8); // load from buf+8: depends on that store
        asm.add(x(1), x(1), x(4));
        asm.addi(x(20), x(20), -1);
        asm.bne(x(20), x(0), "loop");
        asm.halt();
        asm.finish().expect("assembles")
    }

    #[test]
    fn optimistic_policy_detects_and_recovers_violations() {
        let mut cfg = SimConfig::test_small();
        cfg.mem_dep = MemDepPolicy::Optimistic;
        let program = conflict_kernel(100);
        let mut sim = AnySimulator::new(cfg, &program);
        let r = sim.run(1_000_000).expect("cosim-clean despite violations");
        assert!(r.halted);
        assert!(
            sim.stats().mem_dep_violations > 10,
            "expected violations, got {}",
            sim.stats().mem_dep_violations
        );
    }

    #[test]
    fn conservative_policy_never_violates() {
        let mut cfg = SimConfig::test_small();
        cfg.mem_dep = MemDepPolicy::Conservative;
        let program = conflict_kernel(100);
        let mut sim = AnySimulator::new(cfg, &program);
        let r = sim.run(1_000_000).expect("clean");
        assert!(r.halted);
        assert_eq!(sim.stats().mem_dep_violations, 0);
    }

    #[test]
    fn optimistic_policy_speeds_up_independent_loads_behind_slow_stores() {
        // The store's address resolves slowly but never conflicts with the
        // loads: the optimistic machine should not wait for it.
        let kernel = |iters: u64| {
            let mut asm = Asm::new();
            let buf = asm.alloc_u64s(&[1, 2, 3, 4, 5, 6, 7, 8]);
            asm.li(x(10), buf);
            asm.li(x(20), iters);
            asm.li(x(9), 192);
            asm.li(x(8), 4);
            asm.label("loop");
            asm.div(x(2), x(9), x(8)); // 48: slow
            asm.add(x(3), x(10), x(2));
            asm.st(x(20), x(3), 0); // buf+48: disjoint from the loads
            asm.ld(x(4), x(10), 0);
            asm.ld(x(5), x(10), 8);
            asm.add(x(1), x(4), x(5));
            asm.addi(x(20), x(20), -1);
            asm.bne(x(20), x(0), "loop");
            asm.halt();
            asm.finish().expect("assembles")
        };
        let run = |policy: MemDepPolicy| {
            let mut cfg = SimConfig::test_small();
            cfg.mem_dep = policy;
            let mut sim = AnySimulator::new(cfg, &kernel(300));
            sim.run(1_000_000).expect("clean").cycles
        };
        let conservative = run(MemDepPolicy::Conservative);
        let optimistic = run(MemDepPolicy::Optimistic);
        assert!(
            optimistic < conservative,
            "optimistic {optimistic} should beat conservative {conservative}"
        );
    }
}
