//! In-process harness of the repository benchmark: the `detailed` and
//! `sampled` workloads and the result-cache probe of `rerun`. It calls
//! the workspace crates only through their public items. `perfbench/run.py`
//! drives it and prints the benchmark's results.

pub mod counting;
pub mod detailed;
pub mod inputs;
pub mod probe;
pub mod report;
pub mod sampled;
pub mod spans;
pub mod timing;
