//! The functional (architectural) executor.
//!
//! [`Machine`] runs a [`Program`] one instruction at a time with no notion
//! of timing. It is the golden reference for the cycle-level simulator:
//! `carf-sim` co-simulates against it at commit, checking that every retired
//! instruction wrote the same destination value.

use crate::checkpoint::{Checkpoint, CheckpointMismatch, ProgramImage};
use crate::decoded::{DecodedOp, DecodedProgram};
use crate::inst::{Inst, InstKind, Opcode};
use crate::program::{Program, INST_BYTES};
use crate::reg::{FpReg, IntReg};
use crate::semantics::{
    eval_branch, eval_fp_alu, eval_fp_to_int, eval_int_alu, eval_int_to_fp, extend_load,
    load_width, store_bytes, store_width, LoadWidth, StoreWidth,
};
use carf_mem::SparseMemory;

/// Record of one architecturally retired instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Retired {
    /// The instruction's byte address.
    pub pc: u64,
    /// The instruction itself.
    pub inst: Inst,
    /// The integer destination write, if any (`x0` writes are suppressed).
    pub int_write: Option<(IntReg, u64)>,
    /// The FP destination write, if any.
    pub fp_write: Option<(FpReg, f64)>,
    /// Effective address for loads/stores.
    pub mem_addr: Option<u64>,
    /// The next PC after this instruction.
    pub next_pc: u64,
}

/// Outcome of one [`Machine::step`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepOutcome {
    /// An instruction retired.
    Retired(Retired),
    /// The machine hit `halt` (now or earlier).
    Halted,
}

/// Execution errors (a wild PC is a bug in the program under test).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecError {
    /// The PC left the code segment.
    PcOutOfRange(u64),
    /// `run` hit its instruction budget before `halt`.
    InstLimit(u64),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::PcOutOfRange(pc) => write!(f, "pc {pc:#x} outside the code segment"),
            ExecError::InstLimit(n) => write!(f, "instruction budget of {n} exhausted before halt"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Side channel out of the decoded dispatch loop
/// ([`Machine::run_decoded_with`]): called with each retired
/// instruction's address, effective memory addresses, and control-flow
/// outcomes, in program order.
///
/// The intended use is *functional warming* for sampled simulation — a
/// fast-forward leg streams its access history into cache and
/// branch-predictor models so a measured interval does not start from
/// cold microarchitectural state. Every method defaults to a no-op and
/// the loop is monomorphized per observer, so [`NullObserver`] costs
/// nothing.
pub trait ExecObserver {
    /// An instruction at `pc` is about to execute (and will retire,
    /// unless it is the one that trips `PcOutOfRange` next step).
    #[inline]
    fn retire(&mut self, _pc: u64) {}
    /// A load's effective byte address.
    #[inline]
    fn load(&mut self, _addr: u64) {}
    /// A store's effective byte address.
    #[inline]
    fn store(&mut self, _addr: u64) {}
    /// A conditional branch at `pc` resolved `taken`.
    #[inline]
    fn cond_branch(&mut self, _pc: u64, _taken: bool) {}
    /// An indirect jump at `pc` went to `target`; `is_return` follows the
    /// link-register convention (no link write ⇒ return).
    #[inline]
    fn indirect_jump(&mut self, _pc: u64, _target: u64, _is_return: bool) {}
    /// A call wrote `return_addr` to its link register.
    #[inline]
    fn call(&mut self, _return_addr: u64) {}
}

/// The do-nothing [`ExecObserver`]; `run_decoded` is
/// `run_decoded_with(.., &mut NullObserver)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl ExecObserver for NullObserver {}

/// Architectural machine state plus memory.
///
/// # Example
///
/// ```
/// use carf_isa::{Asm, Machine, x};
///
/// let mut asm = Asm::new();
/// asm.li(x(5), 21);
/// asm.add(x(5), x(5), x(5));
/// asm.halt();
/// let p = asm.finish()?;
/// let mut m = Machine::load(&p);
/// m.run(&p, 100)?;
/// assert_eq!(m.int_reg(x(5)), 42);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    regs: [u64; 32],
    fregs: [f64; 32],
    /// Current program counter (byte address).
    pub pc: u64,
    /// Data memory.
    pub mem: SparseMemory,
    halted: bool,
    retired: u64,
}

impl Machine {
    /// Creates a machine with zeroed registers, the program's data image
    /// loaded, and the PC at the entry point.
    pub fn load(program: &Program) -> Self {
        let mut mem = SparseMemory::new();
        program.load_data(&mut mem);
        Self { regs: [0; 32], fregs: [0.0; 32], pc: program.entry, mem, halted: false, retired: 0 }
    }

    /// Reads an integer register (`x0` is always 0).
    pub fn int_reg(&self, r: IntReg) -> u64 {
        self.regs[r.index()]
    }

    /// Writes an integer register (writes to `x0` are ignored).
    pub fn set_int_reg(&mut self, r: IntReg, v: u64) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }

    /// Reads an FP register.
    pub fn fp_reg(&self, r: FpReg) -> f64 {
        self.fregs[r.index()]
    }

    /// Writes an FP register.
    pub fn set_fp_reg(&mut self, r: FpReg, v: f64) {
        self.fregs[r.index()] = v;
    }

    /// Number of instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// `true` once `halt` has executed.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    fn read_mem(&self, width: LoadWidth, addr: u64) -> u64 {
        let raw = match width {
            LoadWidth::U64 | LoadWidth::F64 => self.mem.read_u64(addr),
            LoadWidth::I32 => u64::from(self.mem.read_u32(addr)),
            LoadWidth::U8 => u64::from(self.mem.read_u8(addr)),
        };
        extend_load(width, raw)
    }

    fn write_mem(&mut self, width: StoreWidth, addr: u64, value: u64) {
        match store_bytes(width) {
            8 => self.mem.write_u64(addr, value),
            4 => self.mem.write_u32(addr, value as u32),
            _ => self.mem.write_u8(addr, value as u8),
        }
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::PcOutOfRange`] if the PC does not address an
    /// instruction in `program`.
    pub fn step(&mut self, program: &Program) -> Result<StepOutcome, ExecError> {
        if self.halted {
            return Ok(StepOutcome::Halted);
        }
        let pc = self.pc;
        let inst = *program.fetch(pc).ok_or(ExecError::PcOutOfRange(pc))?;
        let mut next_pc = pc + crate::program::INST_BYTES;
        let mut int_write: Option<(IntReg, u64)> = None;
        let mut fp_write: Option<(FpReg, f64)> = None;
        let mut mem_addr: Option<u64> = None;

        use Opcode::*;
        match inst.kind() {
            InstKind::IntAlu | InstKind::IntMul | InstKind::IntDiv => match inst.op {
                Fcmplt | Fcmpeq | FcvtIF => {
                    let a = self.fregs[inst.rs1 as usize];
                    let b = self.fregs[inst.rs2 as usize];
                    int_write = Some((IntReg::new(inst.rd), eval_fp_to_int(inst.op, a, b)));
                }
                Li => {
                    int_write = Some((IntReg::new(inst.rd), inst.imm as u64));
                }
                Addi | Andi | Ori | Xori | Slli | Srli | Srai | Slti => {
                    let a = self.regs[inst.rs1 as usize];
                    int_write =
                        Some((IntReg::new(inst.rd), eval_int_alu(inst.op, a, inst.imm as u64)));
                }
                _ => {
                    let a = self.regs[inst.rs1 as usize];
                    let b = self.regs[inst.rs2 as usize];
                    int_write = Some((IntReg::new(inst.rd), eval_int_alu(inst.op, a, b)));
                }
            },
            InstKind::Load => {
                let addr = self.regs[inst.rs1 as usize].wrapping_add(inst.imm as u64);
                mem_addr = Some(addr);
                let width = load_width(inst.op);
                let bits = self.read_mem(width, addr);
                if inst.op == Fld {
                    fp_write = Some((FpReg::new(inst.rd), f64::from_bits(bits)));
                } else {
                    int_write = Some((IntReg::new(inst.rd), bits));
                }
            }
            InstKind::Store => {
                let addr = self.regs[inst.rs1 as usize].wrapping_add(inst.imm as u64);
                mem_addr = Some(addr);
                let value = if inst.op == Fst {
                    self.fregs[inst.rs2 as usize].to_bits()
                } else {
                    self.regs[inst.rs2 as usize]
                };
                self.write_mem(store_width(inst.op), addr, value);
            }
            InstKind::Branch => {
                let a = self.regs[inst.rs1 as usize];
                let b = self.regs[inst.rs2 as usize];
                if eval_branch(inst.op, a, b) {
                    next_pc = inst.imm as u64;
                }
            }
            InstKind::Jump => {
                int_write = Some((IntReg::new(inst.rd), pc + crate::program::INST_BYTES));
                next_pc = inst.imm as u64;
            }
            InstKind::JumpReg => {
                let target = self.regs[inst.rs1 as usize].wrapping_add(inst.imm as u64);
                int_write = Some((IntReg::new(inst.rd), pc + crate::program::INST_BYTES));
                next_pc = target;
            }
            InstKind::FpAlu | InstKind::FpDiv => match inst.op {
                FcvtFI => {
                    let a = self.regs[inst.rs1 as usize];
                    fp_write = Some((FpReg::new(inst.rd), eval_int_to_fp(a)));
                }
                _ => {
                    let a = self.fregs[inst.rs1 as usize];
                    let b = self.fregs[inst.rs2 as usize];
                    fp_write = Some((FpReg::new(inst.rd), eval_fp_alu(inst.op, a, b)));
                }
            },
            InstKind::Nop => {}
            InstKind::Halt => {
                self.halted = true;
                self.retired += 1;
                return Ok(StepOutcome::Retired(Retired {
                    pc,
                    inst,
                    int_write: None,
                    fp_write: None,
                    mem_addr: None,
                    next_pc: pc,
                }));
            }
        }

        if let Some((r, v)) = int_write {
            self.set_int_reg(r, v);
            if r.is_zero() {
                int_write = None;
            }
        }
        if let Some((r, v)) = fp_write {
            self.set_fp_reg(r, v);
        }
        self.pc = next_pc;
        self.retired += 1;
        Ok(StepOutcome::Retired(Retired { pc, inst, int_write, fp_write, mem_addr, next_pc }))
    }

    /// Runs until `halt` or the instruction budget is exhausted.
    ///
    /// Decodes `program` once (see [`DecodedProgram`]) and drives the
    /// tight dispatch loop of [`Machine::run_decoded`]. Call sites that
    /// run in bursts (fast-forward legs between checkpoints) should
    /// decode once themselves and call [`Machine::run_decoded`] directly.
    ///
    /// # Errors
    ///
    /// Propagates [`ExecError::PcOutOfRange`]; returns
    /// [`ExecError::InstLimit`] if the budget runs out first.
    pub fn run(&mut self, program: &Program, max_insts: u64) -> Result<u64, ExecError> {
        let decoded = DecodedProgram::decode(program);
        self.run_decoded(&decoded, max_insts)
    }

    /// [`Machine::run`] via repeated [`Machine::step`] — the pre-decoded-
    /// cache loop. Kept as the reference the decoded executor is pinned
    /// against (differential tests).
    ///
    /// # Errors
    ///
    /// As [`Machine::run`].
    pub fn run_stepwise(&mut self, program: &Program, max_insts: u64) -> Result<u64, ExecError> {
        let start = self.retired;
        while !self.halted {
            if self.retired - start >= max_insts {
                return Err(ExecError::InstLimit(max_insts));
            }
            self.step(program)?;
        }
        Ok(self.retired - start)
    }

    /// The fast-forward hot loop: runs until `halt` or the budget is
    /// exhausted, dispatching pre-decoded ops. Behaves exactly like
    /// [`Machine::run`] — same state evolution, same errors — but skips
    /// per-step decode and retirement-record construction.
    ///
    /// # Errors
    ///
    /// As [`Machine::run`].
    pub fn run_decoded(&mut self, decoded: &DecodedProgram, max_insts: u64) -> Result<u64, ExecError> {
        self.run_decoded_with(decoded, max_insts, &mut NullObserver)
    }

    /// [`Machine::run_decoded`] with an [`ExecObserver`] wired into the
    /// dispatch loop. The observer is monomorphized in, so
    /// [`NullObserver`] compiles to exactly the plain loop — the observed
    /// and unobserved paths are the same function.
    ///
    /// # Errors
    ///
    /// As [`Machine::run`].
    pub fn run_decoded_with<O: ExecObserver>(
        &mut self,
        decoded: &DecodedProgram,
        max_insts: u64,
        obs: &mut O,
    ) -> Result<u64, ExecError> {
        use DecodedOp::*;
        let code_base = decoded.code_base();
        let ops = decoded.ops();
        let n = ops.len() as u64;
        let mut pc = self.pc;
        let mut done: u64 = 0;
        let outcome = loop {
            if self.halted {
                break Ok(());
            }
            if done >= max_insts {
                break Err(ExecError::InstLimit(max_insts));
            }
            let off = pc.wrapping_sub(code_base);
            let idx = off / INST_BYTES;
            if !off.is_multiple_of(INST_BYTES) || idx >= n {
                break Err(ExecError::PcOutOfRange(pc));
            }
            obs.retire(pc);
            let mut next = pc + INST_BYTES;
            match ops[idx as usize] {
                IntRR { op, rd, rs1, rs2 } => {
                    let v = eval_int_alu(op, self.regs[rs1 as usize], self.regs[rs2 as usize]);
                    if rd != 0 {
                        self.regs[rd as usize] = v;
                    }
                }
                IntRI { op, rd, rs1, imm } => {
                    let v = eval_int_alu(op, self.regs[rs1 as usize], imm);
                    if rd != 0 {
                        self.regs[rd as usize] = v;
                    }
                }
                Li { rd, imm } => {
                    if rd != 0 {
                        self.regs[rd as usize] = imm;
                    }
                }
                LoadInt { width, rd, rs1, imm } => {
                    let addr = self.regs[rs1 as usize].wrapping_add(imm);
                    obs.load(addr);
                    let bits = self.read_mem(width, addr);
                    if rd != 0 {
                        self.regs[rd as usize] = bits;
                    }
                }
                LoadFp { rd, rs1, imm } => {
                    let addr = self.regs[rs1 as usize].wrapping_add(imm);
                    obs.load(addr);
                    self.fregs[rd as usize] = f64::from_bits(self.mem.read_u64(addr));
                }
                StoreInt { width, rs1, rs2, imm } => {
                    let addr = self.regs[rs1 as usize].wrapping_add(imm);
                    obs.store(addr);
                    self.write_mem(width, addr, self.regs[rs2 as usize]);
                }
                StoreFp { rs1, rs2, imm } => {
                    let addr = self.regs[rs1 as usize].wrapping_add(imm);
                    obs.store(addr);
                    self.mem.write_u64(addr, self.fregs[rs2 as usize].to_bits());
                }
                Branch { op, rs1, rs2, target } => {
                    let taken = eval_branch(op, self.regs[rs1 as usize], self.regs[rs2 as usize]);
                    obs.cond_branch(pc, taken);
                    if taken {
                        next = target;
                    }
                }
                Jump { rd, target } => {
                    if rd != 0 {
                        self.regs[rd as usize] = pc + INST_BYTES;
                        obs.call(pc + INST_BYTES);
                    }
                    next = target;
                }
                JumpReg { rd, rs1, imm } => {
                    let target = self.regs[rs1 as usize].wrapping_add(imm);
                    obs.indirect_jump(pc, target, rd == 0);
                    if rd != 0 {
                        self.regs[rd as usize] = pc + INST_BYTES;
                        obs.call(pc + INST_BYTES);
                    }
                    next = target;
                }
                FpRR { op, rd, rs1, rs2 } => {
                    self.fregs[rd as usize] =
                        eval_fp_alu(op, self.fregs[rs1 as usize], self.fregs[rs2 as usize]);
                }
                FpFromInt { rd, rs1 } => {
                    self.fregs[rd as usize] = eval_int_to_fp(self.regs[rs1 as usize]);
                }
                IntFromFp { op, rd, rs1, rs2 } => {
                    let v = eval_fp_to_int(op, self.fregs[rs1 as usize], self.fregs[rs2 as usize]);
                    if rd != 0 {
                        self.regs[rd as usize] = v;
                    }
                }
                Nop => {}
                Halt => {
                    // Same contract as `step`: the halt retires and the PC
                    // stays at the halt instruction.
                    self.halted = true;
                    done += 1;
                    break Ok(());
                }
            }
            done += 1;
            pc = next;
        };
        self.pc = pc;
        self.retired += done;
        outcome.map(|()| done)
    }

    /// Captures an architectural checkpoint of this machine (see
    /// [`Checkpoint`]). `program` must be the program the machine is
    /// running; its initial data image is the delta base.
    pub fn checkpoint(&self, program: &Program) -> Checkpoint {
        self.checkpoint_in(&ProgramImage::new(program))
    }

    /// [`Machine::checkpoint`] against a prebuilt [`ProgramImage`] of the
    /// program the machine is running.
    pub fn checkpoint_in(&self, image: &ProgramImage) -> Checkpoint {
        Checkpoint::from_parts(
            self.regs,
            self.fregs.map(f64::to_bits),
            self.pc,
            self.retired,
            self.halted,
            &self.mem,
            image,
        )
    }

    /// Reconstructs a machine from a checkpoint, bit-identical to the one
    /// that captured it.
    ///
    /// # Errors
    ///
    /// Refuses a `program` whose fingerprint differs from the one the
    /// checkpoint was captured against.
    pub fn from_checkpoint(
        program: &Program,
        ckpt: &Checkpoint,
    ) -> Result<Self, CheckpointMismatch> {
        Self::from_checkpoint_in(&ProgramImage::new(program), ckpt)
    }

    /// [`Machine::from_checkpoint`] from a prebuilt [`ProgramImage`].
    ///
    /// # Errors
    ///
    /// As [`Machine::from_checkpoint`].
    pub fn from_checkpoint_in(
        image: &ProgramImage,
        ckpt: &Checkpoint,
    ) -> Result<Self, CheckpointMismatch> {
        let mem = image.restore_memory(ckpt)?;
        Ok(Self {
            regs: ckpt.regs,
            fregs: ckpt.fregs.map(f64::from_bits),
            pc: ckpt.pc,
            mem,
            halted: ckpt.halted,
            retired: ckpt.retired,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::reg::{f, x};

    fn run(asm: Asm) -> Machine {
        let p = asm.finish().expect("assembly");
        let mut m = Machine::load(&p);
        m.run(&p, 1_000_000).expect("execution");
        m
    }

    #[test]
    fn straight_line_arithmetic() {
        let mut asm = Asm::new();
        asm.li(x(1), 10);
        asm.li(x(2), 4);
        asm.sub(x(3), x(1), x(2));
        asm.mul(x(4), x(3), x(3));
        asm.halt();
        let m = run(asm);
        assert_eq!(m.int_reg(x(3)), 6);
        assert_eq!(m.int_reg(x(4)), 36);
    }

    #[test]
    fn x0_is_hardwired_zero() {
        let mut asm = Asm::new();
        asm.li(x(0), 99);
        asm.addi(x(0), x(0), 5);
        asm.add(x(1), x(0), x(0));
        asm.halt();
        let m = run(asm);
        assert_eq!(m.int_reg(x(0)), 0);
        assert_eq!(m.int_reg(x(1)), 0);
    }

    #[test]
    fn loop_with_branch() {
        let mut asm = Asm::new();
        asm.li(x(1), 0); // sum
        asm.li(x(2), 1); // i
        asm.li(x(3), 11); // bound
        asm.label("loop");
        asm.add(x(1), x(1), x(2));
        asm.addi(x(2), x(2), 1);
        asm.blt(x(2), x(3), "loop");
        asm.halt();
        let m = run(asm);
        assert_eq!(m.int_reg(x(1)), 55);
    }

    #[test]
    fn memory_round_trip_all_widths() {
        let mut asm = Asm::new();
        let buf = asm.alloc_bytes_zeroed(64);
        asm.li(x(1), buf);
        asm.li(x(2), 0xffff_ffff_9abc_def0);
        asm.st(x(2), x(1), 0);
        asm.ld(x(3), x(1), 0);
        asm.lw(x(4), x(1), 0); // sign-extends 0x9abcdef0
        asm.lbu(x(5), x(1), 0); // 0xf0
        asm.sw(x(2), x(1), 16);
        asm.ld(x(6), x(1), 16); // only low 32 bits stored
        asm.sb(x(2), x(1), 24);
        asm.ld(x(7), x(1), 24);
        asm.halt();
        let m = run(asm);
        assert_eq!(m.int_reg(x(3)), 0xffff_ffff_9abc_def0);
        assert_eq!(m.int_reg(x(4)), 0xffff_ffff_9abc_def0); // sext of 0x9abcdef0
        assert_eq!(m.int_reg(x(5)), 0xf0);
        assert_eq!(m.int_reg(x(6)), 0x9abc_def0);
        assert_eq!(m.int_reg(x(7)), 0xf0);
    }

    #[test]
    fn call_and_return() {
        let mut asm = Asm::new();
        asm.li(x(10), 5);
        asm.jal(x(31), "double");
        asm.jal(x(31), "double");
        asm.halt();
        asm.label("double");
        asm.add(x(10), x(10), x(10));
        asm.ret(x(31));
        let m = run(asm);
        assert_eq!(m.int_reg(x(10)), 20);
    }

    #[test]
    fn fp_pipeline() {
        let mut asm = Asm::new();
        let data = asm.alloc_f64s(&[3.0, 4.0]);
        asm.li(x(1), data);
        asm.fld(f(1), x(1), 0);
        asm.fld(f(2), x(1), 8);
        asm.fmul(f(3), f(1), f(2));
        asm.fadd(f(4), f(3), f(3));
        asm.fst(f(4), x(1), 16);
        asm.fld(f(5), x(1), 16);
        asm.fcvt_if(x(2), f(5));
        asm.fcmplt(x(3), f(1), f(2));
        asm.halt();
        let m = run(asm);
        assert_eq!(m.fp_reg(f(3)), 12.0);
        assert_eq!(m.int_reg(x(2)), 24);
        assert_eq!(m.int_reg(x(3)), 1);
    }

    #[test]
    fn int_fp_conversions() {
        let mut asm = Asm::new();
        asm.li(x(1), (-7i64) as u64);
        asm.fcvt_fi(f(1), x(1));
        asm.fcvt_if(x(2), f(1));
        asm.halt();
        let m = run(asm);
        assert_eq!(m.fp_reg(f(1)), -7.0);
        assert_eq!(m.int_reg(x(2)), (-7i64) as u64);
    }

    #[test]
    fn retired_records_carry_writes() {
        let mut asm = Asm::new();
        asm.li(x(1), 7);
        asm.halt();
        let p = asm.finish().unwrap();
        let mut m = Machine::load(&p);
        match m.step(&p).unwrap() {
            StepOutcome::Retired(r) => {
                assert_eq!(r.int_write, Some((x(1), 7)));
                assert_eq!(r.pc, p.entry);
                assert_eq!(r.next_pc, p.entry + 8);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pc_out_of_range_is_reported() {
        let p = Program::from_insts(vec![Inst::rri(Opcode::Li, 1, 0, 1)]);
        let mut m = Machine::load(&p);
        m.step(&p).unwrap();
        assert_eq!(m.step(&p), Err(ExecError::PcOutOfRange(p.addr_of(1))));
    }

    #[test]
    fn run_budget_is_enforced() {
        let mut asm = Asm::new();
        asm.label("spin");
        asm.j("spin");
        let p = asm.finish().unwrap();
        let mut m = Machine::load(&p);
        assert_eq!(m.run(&p, 100), Err(ExecError::InstLimit(100)));
    }

    /// Mixed control/memory/FP kernel for the decoded-vs-stepwise
    /// differential tests below.
    fn mixed_kernel() -> Program {
        let mut asm = Asm::new();
        let buf = asm.alloc_f64s(&[1.5, 2.5, 0.0, 0.0]);
        asm.li(x(1), 0); // i
        asm.li(x(2), 40); // bound
        asm.li(x(3), buf);
        asm.label("loop");
        asm.fld(f(1), x(3), 0);
        asm.fld(f(2), x(3), 8);
        asm.fmul(f(3), f(1), f(2));
        asm.fst(f(3), x(3), 16);
        asm.ld(x(4), x(3), 16);
        asm.add(x(5), x(5), x(4));
        asm.sb(x(5), x(3), 24);
        asm.lbu(x(6), x(3), 24);
        asm.jal(x(31), "bump");
        asm.blt(x(1), x(2), "loop");
        asm.halt();
        asm.label("bump");
        asm.addi(x(1), x(1), 1);
        asm.ret(x(31));
        asm.finish().expect("assembly")
    }

    fn arch_fingerprint(m: &Machine, p: &Program) -> u64 {
        m.checkpoint(p).fingerprint()
    }

    #[test]
    fn decoded_and_stepwise_agree_on_a_full_run() {
        let p = mixed_kernel();
        let mut a = Machine::load(&p);
        let mut b = Machine::load(&p);
        let ra = a.run(&p, 1_000_000);
        let rb = b.run_stepwise(&p, 1_000_000);
        assert_eq!(ra.unwrap(), rb.unwrap());
        assert_eq!(arch_fingerprint(&a, &p), arch_fingerprint(&b, &p));
        assert_eq!((a.pc, a.retired(), a.is_halted()), (b.pc, b.retired(), b.is_halted()));
    }

    #[test]
    fn decoded_and_stepwise_agree_at_every_budget() {
        let p = mixed_kernel();
        for budget in [0u64, 1, 2, 7, 63, 200] {
            let mut a = Machine::load(&p);
            let mut b = Machine::load(&p);
            assert_eq!(a.run(&p, budget), b.run_stepwise(&p, budget), "budget {budget}");
            assert_eq!(
                arch_fingerprint(&a, &p),
                arch_fingerprint(&b, &p),
                "state diverged at budget {budget}"
            );
        }
    }

    #[test]
    fn decoded_reports_wild_control_flow_like_stepwise() {
        // A jump straight out of the code segment: the jump itself retires
        // and the *next* step reports PcOutOfRange, in both executors.
        let mut asm = Asm::new();
        asm.li(x(1), 0xdead_0000);
        asm.jalr(x(0), x(1), 0);
        let p = asm.finish().unwrap();
        let mut a = Machine::load(&p);
        let mut b = Machine::load(&p);
        let ra = a.run(&p, 100);
        let rb = b.run_stepwise(&p, 100);
        assert_eq!(ra, rb);
        assert_eq!(ra, Err(ExecError::PcOutOfRange(0xdead_0000)));
        assert_eq!((a.pc, a.retired()), (b.pc, b.retired()));
    }

    #[test]
    fn decoded_budget_matches_stepwise_on_the_spin_loop() {
        let mut asm = Asm::new();
        asm.label("spin");
        asm.j("spin");
        let p = asm.finish().unwrap();
        let mut a = Machine::load(&p);
        let mut b = Machine::load(&p);
        assert_eq!(a.run(&p, 100), Err(ExecError::InstLimit(100)));
        assert_eq!(b.run_stepwise(&p, 100), Err(ExecError::InstLimit(100)));
        assert_eq!((a.pc, a.retired()), (b.pc, b.retired()));
    }

    #[test]
    fn halted_machine_stays_halted() {
        let mut asm = Asm::new();
        asm.halt();
        let p = asm.finish().unwrap();
        let mut m = Machine::load(&p);
        m.step(&p).unwrap();
        assert!(m.is_halted());
        assert_eq!(m.step(&p).unwrap(), StepOutcome::Halted);
        assert_eq!(m.retired(), 1);
    }
}
