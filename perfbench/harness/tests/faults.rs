//! A failed output check is counted and named, and the run goes on.

use carf_perfbench::inputs::Scale;
use carf_perfbench::{detailed, probe};
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn an_architectural_mismatch_is_a_failed_operation() {
    let opts = detailed::Options {
        seed: 7,
        seconds: 0.1,
        trace: false,
        scale: Scale::Smallest,
        inject_mismatch: true,
    };
    let report = detailed::run(&opts, &workspace_root()).expect("the run completes");
    // The first program disagrees with the functional executor on every
    // machine and in its co-simulation, in the warm-up round and in the
    // one timed round that follows; every other operation still ran and
    // passed.
    assert_eq!(
        report.failures.len(),
        2 * (4 + detailed::MULTI_REPEATS),
        "{:?}",
        report.failures
    );
    assert!(report
        .failures
        .iter()
        .all(|f| f.contains("pointer_chase") && f.contains("architectural")));
    assert!(report.attempted > 4 * 15);
    assert!(report.metrics["kips_adj_base"] > 0.0);
    assert!(report.metrics["kips_base"] > 0.0);

    let clean = detailed::run(
        &detailed::Options {
            inject_mismatch: false,
            ..opts
        },
        &workspace_root(),
    )
    .expect("the run completes");
    assert!(clean.failures.is_empty(), "{:?}", clean.failures);
    assert_eq!(clean.attempted, report.attempted);
}

#[test]
fn a_corrupted_cache_entry_is_a_failed_operation() {
    let dir = std::env::temp_dir().join(format!("carf-perfbench-probe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = carf_bench::cache::ResultCache::at(dir.join("cache"));
    let cfg = carf_sim::SimConfig::paper_baseline();
    let budget = carf_bench::Budget::quick();
    let w = &carf_workloads::int_suite()[0];
    let stats = carf_bench::run_workload(
        &cfg,
        w,
        &carf_bench::Budget {
            max_insts: 2_000,
            ..budget
        },
    );
    for key in [1u128, 2, 3] {
        cache.store_point(key, w.name, &cfg, &budget, &stats);
    }
    let victim = cache.entry_path(2);
    let text = std::fs::read_to_string(&victim).expect("entry");
    std::fs::write(&victim, &text[..text.len() / 2]).expect("truncate");

    let report = probe::run(&dir.join("cache"), &dir.join("store")).expect("probe completes");
    assert_eq!(report.attempted, 3);
    assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
    assert!(report.metrics["cache.load_s"] > 0.0);
    let _ = std::fs::remove_dir_all(&dir);
}
