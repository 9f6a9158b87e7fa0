//! The parallel experiment engine must be invisible in the results: a
//! worker pool run returns **bit-identical** statistics to the serial run,
//! point for point, whatever the worker count. This is the guarantee that
//! lets every figure/table binary default to parallel execution.

use carf_bench::{run_custom_with_cache, suite_points, Budget};
use carf_core::CarfParams;
use carf_sim::SimConfig;
use carf_workloads::Suite;

#[test]
fn quick_budget_parallel_runs_are_bit_identical_to_serial() {
    let mut serial_budget = Budget::quick();
    serial_budget.jobs = 1;
    let mut parallel_budget = serial_budget;
    parallel_budget.jobs = 4;

    let carf = SimConfig::paper_carf(CarfParams::paper_default());
    let points = suite_points(&[(carf.clone(), Suite::Int), (carf, Suite::Fp)]);

    let serial = run_custom_with_cache(&points, &serial_budget, None).results;
    let parallel = run_custom_with_cache(&points, &parallel_budget, None).results;

    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.suite, p.suite);
        assert_eq!(s.runs.len(), p.runs.len(), "{:?}", s.suite);
        for ((sn, ss), (pn, ps)) in s.runs.iter().zip(&p.runs) {
            assert_eq!(sn, pn, "{:?}: workload order must match", s.suite);
            // Full-stats structural equality: every counter, histogram,
            // and float must agree bit for bit.
            assert_eq!(ss, ps, "{:?}/{sn}: parallel run diverged from serial", s.suite);
        }
    }
}
