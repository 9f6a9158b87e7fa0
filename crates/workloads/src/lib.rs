//! Synthetic workload suite standing in for SPEC CPU2000.
//!
//! The paper evaluates on SPECint2000 and SPECfp2000 (300M representative
//! instructions each). Those binaries and inputs cannot be shipped, so this
//! crate provides kernels — written in the `carf-isa` assembly — chosen to
//! reproduce the *register value demographics* the content-aware register
//! file exploits:
//!
//! * **addresses** clustered in a few heap/stack regions (pointer chasing,
//!   hashing, graph walking) → *short* values sharing high bits;
//! * **counters, flags, and small constants** (every loop) → *simple*
//!   values;
//! * **hashes, checksums, packed data** → *long* values;
//! * data-dependent branches, irregular memory access, serial FP
//!   dependence chains — the control/memory behaviour that shapes IPC.
//!
//! The integer suite ([`int_suite`]) has eight kernels, the FP suite
//! ([`fp_suite`]) six; all are deterministic (seeded [`rand`] data) and
//! halt. [`random_program`] generates arbitrary-but-terminating programs
//! for stress and property tests.
//!
//! # Example
//!
//! ```
//! use carf_workloads::{int_suite, SizeClass};
//! use carf_isa::Machine;
//!
//! let wl = &int_suite()[0]; // pointer_chase
//! let program = wl.build(wl.size(SizeClass::Test));
//! let mut m = Machine::load(&program);
//! m.run(&program, 50_000_000)?;
//! assert!(m.is_halted());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod extended;
mod fp;
mod gen;
mod int;
mod random;
mod suite;

pub use extended::extended_suite;
pub use random::{random_program, RandomProgramParams};
pub use suite::{all_workloads, fp_suite, int_suite, SizeClass, Suite, Workload};
