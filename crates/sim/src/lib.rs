//! A cycle-level 8-wide out-of-order superscalar simulator.
//!
//! This is the execution-driven timing substrate the CARF paper's
//! evaluation runs on (its Table 1 machine): gshare branch prediction,
//! register renaming with a 128-entry reorder buffer, 32+32-entry issue
//! queues with oldest-first wakeup/select, a 64-entry load/store queue with
//! store-to-load forwarding and optimistic memory disambiguation
//! (violation squash), 8 integer and 8 FP functional units, the
//! two-level cache hierarchy from `carf-mem`, and a pluggable physical
//! integer register file from `carf-core` (baseline or content-aware).
//!
//! The simulator models exactly the pipeline effects the paper's results
//! hinge on:
//!
//! * the content-aware file adds one register-read stage (RF1/RF2) and one
//!   writeback stage (WR1/WR2), lengthening the branch-resolution loop;
//! * an extra bypass level covers the longer writeback window (ablatable);
//! * Long-file pressure stalls issue at the paper's guard threshold, and a
//!   genuine pseudo-deadlock is recovered by flushing younger instructions;
//! * register-file reads/writes are port-arbitrated and classified per
//!   value type for the energy accounting.
//!
//! Every committed instruction can be checked against the functional
//! golden model (`cosim` in [`SimConfig`]); the oracle sampler records the
//! live-value demographics behind the paper's Figures 1 and 2.
//!
//! The simulator is generic over its register-file backend
//! ([`Simulator<R, T>`](Simulator)), so the RF hot path is monomorphized
//! per organization; [`AnySimulator`] enum-dispatches the backend choice at
//! the configuration boundary for [`RegFileKind`]-driven harnesses.
//!
//! # Example
//!
//! ```
//! use carf_isa::{Asm, x};
//! use carf_sim::{AnySimulator, SimConfig};
//! use carf_core::CarfParams;
//!
//! let mut asm = Asm::new();
//! asm.li(x(1), 100);
//! asm.label("loop");
//! asm.addi(x(1), x(1), -1);
//! asm.bne(x(1), x(0), "loop");
//! asm.halt();
//! let program = asm.finish()?;
//!
//! // Same program on the baseline and the content-aware machine.
//! let base = AnySimulator::new(SimConfig::paper_baseline(), &program).run(10_000)?;
//! let carf = AnySimulator::new(SimConfig::paper_carf(CarfParams::paper_default()), &program)
//!     .run(10_000)?;
//! assert!(base.halted && carf.halted);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod bpred;
mod config;
mod fu;
mod lsq;
mod multi;
mod rename;
mod sim;
mod stats;
mod trace;

pub use bpred::{BpredStats, BranchPredictor};
pub use config::{BpredConfig, RegFileKind, SimConfig};
pub use fu::FuPool;
pub use lsq::{LoadDecision, LoadStoreQueue, LsqEntry, LsqFull, MemDepPolicy};
pub use rename::{Preg, RenameTables};
pub use sim::{AnySimulator, RegFileBackend, SimError, SimResult, Simulator, WarmEvent, WarmState};
pub use multi::{ContentionStats, FetchArbitration, MultiSim, MultiThreadResult, SharingPolicy};
pub use stats::{DispatchStalls, OperandMix, OracleData, SimStats};
pub use trace::{
    DispatchStallCause, InstTimeline, LatencyHistogram, NopTracer, SquashReason, StageHistograms,
    StallCause, StallReport, TraceCounters, TraceEvent, TraceRecorder, Tracer,
};
