//! Architectural checkpoints: save/restore points for sampled simulation.
//!
//! A [`Checkpoint`] captures everything architecturally visible at an
//! instruction boundary — the 32 integer registers, the 32 FP registers
//! (as bit patterns, so NaN payloads survive), the PC, the retired count,
//! the halt flag — plus the memory image as a copy-on-write
//! [`MemoryDelta`] against the program's initial data image. Workloads
//! are deterministic programs (seeded data baked in at build time), so a
//! program fingerprint is the whole "workload state": restoring against a
//! different program is refused rather than silently diverging.
//!
//! Checkpoints are produced by the functional executor
//! ([`crate::Machine::checkpoint`]) after a fast-forward, and consumed by
//! both executors: [`crate::Machine::from_checkpoint`] resumes functional
//! execution, and the cycle-level simulator seeds its committed state from
//! one (see `carf-sim`). Round trips are bit-identical — the property the
//! sampling driver's validity rests on, pinned by [`Checkpoint::fingerprint`]
//! equality tests.
//!
//! Capture diffs against, and restore starts from, a [`ProgramImage`]: the
//! program's fingerprint and initial data image, computed once. A driver
//! that takes many checkpoints of one program (the sampling driver takes
//! one per measured window) builds the image once and passes it to the
//! `_in` variants; the `&Program` forms build a fresh image per call.

use crate::encode::encode;
use crate::program::Program;
use carf_mem::{MemoryDelta, SparseMemory};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fold_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h = (h ^ u64::from(*b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// A stable FNV-1a fingerprint of a program's identity: every encoded
/// instruction, the code base, the entry point, and the initial data
/// image. Two builds of the same deterministic workload at the same size
/// fingerprint identically; any other change (size, seed, code edit)
/// does not.
pub fn program_fingerprint(program: &Program) -> u64 {
    let mut h = FNV_OFFSET;
    h = fold_bytes(h, &program.code_base.to_le_bytes());
    h = fold_bytes(h, &program.entry.to_le_bytes());
    for inst in &program.insts {
        h = fold_bytes(h, &encode(inst).to_le_bytes());
    }
    for seg in &program.data {
        h = fold_bytes(h, &seg.addr.to_le_bytes());
        h = fold_bytes(h, &(seg.bytes.len() as u64).to_le_bytes());
        h = fold_bytes(h, &seg.bytes);
    }
    h
}

/// A program's identity and initial data image, computed once and shared
/// by every checkpoint captured or restored against the program.
///
/// [`program_fingerprint`] is a byte-serial pass over the whole program
/// and loading the data image allocates every page it touches, so a
/// driver that checkpoints one program many times builds one image
/// rather than paying both per capture and per restore. The image borrows
/// the program it was built from, so it cannot outlive it.
#[derive(Debug, Clone)]
pub struct ProgramImage<'p> {
    program: &'p Program,
    fingerprint: u64,
    data: SparseMemory,
}

impl<'p> ProgramImage<'p> {
    /// Fingerprints `program` and loads its initial data image.
    pub fn new(program: &'p Program) -> Self {
        let mut data = SparseMemory::new();
        program.load_data(&mut data);
        Self { program, fingerprint: program_fingerprint(program), data }
    }

    /// The program this image was built from.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// Reconstructs `ckpt`'s full memory image: a copy of the initial data
    /// image with the checkpoint's delta applied.
    ///
    /// # Errors
    ///
    /// Refuses a checkpoint captured against a program with another
    /// fingerprint.
    pub fn restore_memory(&self, ckpt: &Checkpoint) -> Result<SparseMemory, CheckpointMismatch> {
        ckpt.check_fingerprint(self.fingerprint)?;
        let mut mem = self.data.clone();
        mem.apply_delta(&ckpt.mem);
        Ok(mem)
    }
}

/// Restoring a checkpoint against the wrong program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointMismatch {
    /// Fingerprint the checkpoint was captured against.
    pub expected: u64,
    /// Fingerprint of the program offered for restore.
    pub got: u64,
}

impl std::fmt::Display for CheckpointMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "checkpoint was captured against program {:#018x}, not {:#018x}",
            self.expected, self.got
        )
    }
}

impl std::error::Error for CheckpointMismatch {}

/// One architectural save point (see the module docs).
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Integer register values (`regs[0]` is always 0).
    pub regs: [u64; 32],
    /// FP register bit patterns.
    pub fregs: [u64; 32],
    /// Program counter.
    pub pc: u64,
    /// Instructions retired up to this point.
    pub retired: u64,
    /// `true` when the machine had already halted.
    pub halted: bool,
    /// Fingerprint of the program this checkpoint belongs to.
    pub program_fp: u64,
    /// Memory pages differing from the program's initial data image.
    pub mem: MemoryDelta,
}

impl Checkpoint {
    /// Builds a checkpoint from raw architectural state. `mem` is diffed
    /// against `image`'s initial data image; both executors use this one
    /// constructor so their checkpoints are comparable bit for bit.
    pub fn from_parts(
        regs: [u64; 32],
        fregs: [u64; 32],
        pc: u64,
        retired: u64,
        halted: bool,
        mem: &SparseMemory,
        image: &ProgramImage,
    ) -> Self {
        Self {
            regs,
            fregs,
            pc,
            retired,
            halted,
            program_fp: image.fingerprint,
            mem: mem.delta_from(&image.data),
        }
    }

    /// Reconstructs the full memory image: the program's initial data
    /// image with the delta applied (see [`ProgramImage::restore_memory`]).
    ///
    /// # Errors
    ///
    /// Refuses a `program` whose fingerprint differs from the one the
    /// checkpoint was captured against.
    pub fn restore_memory(&self, program: &Program) -> Result<SparseMemory, CheckpointMismatch> {
        ProgramImage::new(program).restore_memory(self)
    }

    /// The restore guard: refuses a program whose fingerprint `got`
    /// differs from the one this checkpoint was captured against.
    fn check_fingerprint(&self, got: u64) -> Result<(), CheckpointMismatch> {
        if got != self.program_fp {
            return Err(CheckpointMismatch { expected: self.program_fp, got });
        }
        Ok(())
    }

    /// An FNV-1a hash over every field — registers, PC, retired count,
    /// halt flag, program identity, and the full memory delta. Two
    /// checkpoints fingerprint equal iff the architectural states are
    /// bit-identical (modulo FNV collisions), which is how the round-trip
    /// tests assert (fast-forward → restore → simulate) ≡ (simulate
    /// straight through).
    pub fn fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for r in self.regs {
            h = fold_bytes(h, &r.to_le_bytes());
        }
        for r in self.fregs {
            h = fold_bytes(h, &r.to_le_bytes());
        }
        h = fold_bytes(h, &self.pc.to_le_bytes());
        h = fold_bytes(h, &self.retired.to_le_bytes());
        h = fold_bytes(h, &[u8::from(self.halted)]);
        h = fold_bytes(h, &self.program_fp.to_le_bytes());
        self.mem.fold_fnv1a(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::exec::Machine;
    use crate::reg::x;

    fn counting_program(n: i64) -> Program {
        let mut asm = Asm::new();
        let buf = asm.alloc_bytes_zeroed(64);
        asm.li(x(1), 0);
        asm.li(x(2), n as u64);
        asm.li(x(3), buf);
        asm.label("loop");
        asm.addi(x(1), x(1), 1);
        asm.st(x(1), x(3), 0);
        asm.bne(x(1), x(2), "loop");
        asm.halt();
        asm.finish().expect("assembly")
    }

    #[test]
    fn program_fingerprint_distinguishes_programs() {
        let a = counting_program(10);
        let b = counting_program(11);
        assert_eq!(program_fingerprint(&a), program_fingerprint(&a));
        assert_ne!(program_fingerprint(&a), program_fingerprint(&b));
    }

    #[test]
    fn round_trip_equals_straight_through() {
        let p = counting_program(50);
        // Straight through.
        let mut straight = Machine::load(&p);
        straight.run(&p, 1_000_000).expect("halts");
        // Split at an arbitrary point.
        let mut m = Machine::load(&p);
        assert!(m.run(&p, 37).is_err()); // budget exhausted mid-program
        let ckpt = m.checkpoint(&p);
        let mut resumed = Machine::from_checkpoint(&p, &ckpt).expect("same program");
        resumed.run(&p, 1_000_000).expect("halts");
        assert_eq!(
            straight.checkpoint(&p).fingerprint(),
            resumed.checkpoint(&p).fingerprint()
        );
        assert_eq!(straight.retired(), resumed.retired());
    }

    #[test]
    fn checkpoint_is_bit_identical_after_restore() {
        let p = counting_program(20);
        let mut m = Machine::load(&p);
        assert!(m.run(&p, 13).is_err());
        let ckpt = m.checkpoint(&p);
        let restored = Machine::from_checkpoint(&p, &ckpt).expect("same program");
        assert_eq!(ckpt.fingerprint(), restored.checkpoint(&p).fingerprint());
    }

    #[test]
    fn wrong_program_is_refused() {
        let a = counting_program(10);
        let b = counting_program(11);
        let m = Machine::load(&a);
        let ckpt = m.checkpoint(&a);
        assert!(Machine::from_checkpoint(&b, &ckpt).is_err());
        assert!(ckpt.restore_memory(&b).is_err());
        assert!(ckpt.restore_memory(&a).is_ok());
    }

    #[test]
    fn one_image_serves_every_capture_and_restore() {
        let p = counting_program(40);
        let image = ProgramImage::new(&p);
        assert_eq!(image.fingerprint, program_fingerprint(&p));
        let mut m = Machine::load(&p);
        for budget in [0, 7, 19, 30] {
            let _ = m.run(&p, budget);
            let ckpt = m.checkpoint_in(&image);
            assert_eq!(ckpt.fingerprint(), m.checkpoint(&p).fingerprint());
            let restored = Machine::from_checkpoint_in(&image, &ckpt).expect("same program");
            assert_eq!(restored.checkpoint_in(&image).fingerprint(), ckpt.fingerprint());
        }
        // The guard holds on the image path too.
        let other = counting_program(41);
        let foreign = Machine::load(&other).checkpoint(&other);
        let err = image.restore_memory(&foreign).expect_err("different program");
        assert_eq!(err, CheckpointMismatch { expected: program_fingerprint(&other), got: image.fingerprint });
        assert!(Machine::from_checkpoint_in(&image, &foreign).is_err());
    }

    #[test]
    fn halted_state_survives_the_round_trip() {
        let p = counting_program(5);
        let mut m = Machine::load(&p);
        m.run(&p, 1_000_000).expect("halts");
        assert!(m.is_halted());
        let ckpt = m.checkpoint(&p);
        assert!(ckpt.halted);
        let restored = Machine::from_checkpoint(&p, &ckpt).expect("same program");
        assert!(restored.is_halted());
        assert_eq!(restored.retired(), m.retired());
    }
}
