//! A 64-bit load/store RISC ISA for the CARF reproduction.
//!
//! The paper evaluates a 64-bit out-of-order machine running SPEC CPU2000
//! binaries. We cannot ship those, so this crate defines a compact 64-bit
//! RISC instruction set with the same operand structure the content-aware
//! register file exploits: two source registers, one destination register,
//! base+offset addressing, and full-width 64-bit integer values. It
//! provides:
//!
//! * typed registers ([`IntReg`], [`FpReg`]) and instructions ([`Inst`],
//!   [`Opcode`], [`InstKind`]);
//! * a fixed-width binary [`encode`]/[`decode`] pair (for round-trip tests
//!   and realism);
//! * a label-resolving [`Asm`] assembler that builds [`Program`]s;
//! * a functional executor ([`Machine`]) used both to drive workloads and as
//!   the *golden reference* the cycle-level simulator is co-simulated
//!   against;
//! * shared [`semantics`] so the functional and timing simulators evaluate
//!   every instruction identically by construction.
//!
//! Program counters are byte addresses; every instruction occupies
//! [`INST_BYTES`] bytes starting at [`Program::code_base`], so code pointers
//! and return addresses look like real 64-bit text-segment addresses — which
//! matters for the value-locality demographics the paper measures.
//!
//! # Example
//!
//! ```
//! use carf_isa::{Asm, Machine, x};
//!
//! let mut asm = Asm::new();
//! asm.li(x(1), 0);
//! asm.li(x(2), 10);
//! asm.label("loop");
//! asm.addi(x(1), x(1), 3);
//! asm.addi(x(2), x(2), -1);
//! asm.bne(x(2), x(0), "loop");
//! asm.halt();
//! let program = asm.finish()?;
//!
//! let mut m = Machine::load(&program);
//! m.run(&program, 1_000_000)?;
//! assert_eq!(m.int_reg(x(1)), 30);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod asm;
mod checkpoint;
mod decoded;
mod encode;
mod exec;
mod inst;
pub mod object;
pub mod parse;
mod program;
mod reg;
pub mod semantics;

pub use asm::{Asm, AsmError, DEFAULT_DATA_BASE};
pub use checkpoint::{program_fingerprint, Checkpoint, CheckpointMismatch, ProgramImage};
pub use decoded::{DecodedOp, DecodedProgram};
pub use encode::{decode, encode, DecodeInstError};
pub use exec::{ExecError, ExecObserver, Machine, NullObserver, Retired, StepOutcome};
pub use inst::{Inst, InstKind, Opcode, RegRef};
pub use object::{
    link, link_with_entry, DataPlace, LinkError, ObjData, ObjectUnit, Reloc, RelocKind,
    SourceDiag, ENTRY_SYMBOL, UNIT_DATA_ALIGN,
};
pub use parse::{parse_asm, parse_object, ParseAsmError};
pub use program::{DataSegment, Program, DEFAULT_CODE_BASE, INST_BYTES};
pub use reg::{f, x, FpReg, IntReg};
