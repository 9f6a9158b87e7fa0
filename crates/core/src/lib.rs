//! The content-aware integer register file (the paper's contribution).
//!
//! González, Cristal, Ortega, Veidenbaum and Valero, *"A Content Aware
//! Integer Register File Organization"*, ISCA 2004, observe that live
//! 64-bit integer register values exhibit **partial value locality**: many
//! values agree in their high-order bits. They classify values into three
//! types —
//!
//! * **simple**: the value sign-extends from its low `d+n` bits,
//! * **short**: the value shares its high `64-d` bits with other live
//!   values,
//! * **long**: everything else —
//!
//! and replace the monolithic N×64-bit physical register file with three
//! sub-files (Simple, Short, Long), each smaller and narrower than the
//! original. This crate implements that organization from scratch:
//!
//! * [`CarfParams`] — the `d`/`n`/`m` similarity geometry and derived
//!   sub-file widths;
//! * [`classify`] and friends — the value-type algebra (with
//!   reconstruction, used to *prove* reads return what was written);
//! * [`SimpleFile`], [`ShortFile`], [`LongFile`] — the three sub-files,
//!   including the Short file's Tcur/Tarch/Told reference-bit aging and the
//!   Long file's free list;
//! * [`ContentAwareRegFile`] — the composed register file with the paper's
//!   two-stage read (RF1/RF2) and two-stage write (WR1/WR2) semantics,
//!   Short allocation restricted to address computations, and the
//!   pseudo-deadlock issue-stall guard;
//! * [`BaselineRegFile`] — the conventional comparator (also used for the
//!   "unlimited" configuration);
//! * [`CompressedRegFile`] and [`PortReducedRegFile`] — the backend zoo:
//!   static dictionary compression with an overflow bank, which runs the
//!   content-aware file's code under its own policies and a one-stage
//!   pipeline, and a read-port-reduced file, which runs the baseline's
//!   array with a read-port budget and an operand-reuse capture buffer
//!   (four backends, two implementations);
//! * [`analysis`] — the oracle live-value demographics behind the paper's
//!   Figures 1 and 2.
//!
//! # Example
//!
//! ```
//! use carf_core::{CarfParams, ContentAwareRegFile, IntRegFile, ValueClass};
//!
//! let mut rf = ContentAwareRegFile::new(CarfParams::paper_default());
//! rf.on_alloc(0);
//! // A loop counter sign-extends from 20 bits: a *simple* value.
//! rf.try_write(0, 42, false).unwrap();
//! assert_eq!(rf.read(0), 42);
//! assert_eq!(rf.class_of(0), Some(ValueClass::Simple));
//! ```

pub mod analysis;
mod baseline;
mod compressed;
mod long_file;
mod params;
mod port_reduced;
mod regfile;
mod short_file;
mod simple_file;
mod stats;
mod value;

pub use baseline::BaselineRegFile;
pub use compressed::CompressedRegFile;
pub use long_file::{LongFile, LongFileFull};
pub use params::{CarfParams, ParamError};
pub use port_reduced::{PortReducedParams, PortReducedRegFile};
pub use regfile::{
    ContentAwareRegFile, IntRegFile, Policies, ShortAllocPolicy, ShortIndexPolicy, SubfileOccupancy,
};
pub use short_file::{ShortFile, ShortSlot};
pub use simple_file::{SimpleEntry, SimpleFile};
pub use stats::{AccessKind, AccessStats, ClassCounts};
pub use value::{
    classify, is_simple, reconstruct_long, reconstruct_short, split_long, split_short, ValueClass,
};
