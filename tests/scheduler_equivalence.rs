//! Scheduler-equivalence pinning: the event-driven scheduler rewrite must
//! be performance-only. Every workload × machine configuration fingerprint
//! is pinned in `carf_bench::fingerprint`, and the same fingerprints must
//! come out **bit-identical** traced and untraced, serial (jobs=1) and
//! parallel (jobs=4).
//!
//! A post-rewrite old-vs-new differential harness is impossible (the old
//! scan-based scheduler is gone), so the pinned table *is* the old
//! scheduler: the values were captured from the pre-rewrite simulator and
//! any scheduling change that alters timing, squash behaviour, port
//! arbitration, or access counts lands here as a drifted hash.

use carf_bench::fingerprint::{check_multi_pinned, check_pinned, multi_sweep, sweep};

fn assert_pinned(got: &[(String, u64, u64)]) {
    if let Err(e) = check_pinned(got) {
        panic!("fingerprint drift from the pre-rewrite scheduler:\n{e}");
    }
}

fn assert_multi_pinned(got: &[(String, u64, u64)]) {
    if let Err(e) = check_multi_pinned(got) {
        panic!("multi-context fingerprint drift:\n{e}");
    }
}

#[test]
fn fingerprints_match_pinned_untraced_serial() {
    assert_pinned(&sweep(1, false));
}

#[test]
fn fingerprints_match_pinned_traced_serial() {
    assert_pinned(&sweep(1, true));
}

#[test]
fn fingerprints_match_pinned_untraced_jobs4() {
    assert_pinned(&sweep(4, false));
}

#[test]
fn fingerprints_match_pinned_traced_jobs4() {
    assert_pinned(&sweep(4, true));
}

// The multi-context layer (4-thread shared-Long SMT, 2-core shared-L2)
// pinned the same four ways: arbitration, capacity windowing, and the
// shared hierarchy must be deterministic under tracing and any worker
// count.

#[test]
fn multi_fingerprints_match_pinned_untraced_serial() {
    assert_multi_pinned(&multi_sweep(1, false));
}

#[test]
fn multi_fingerprints_match_pinned_traced_serial() {
    assert_multi_pinned(&multi_sweep(1, true));
}

#[test]
fn multi_fingerprints_match_pinned_untraced_jobs4() {
    assert_multi_pinned(&multi_sweep(4, false));
}

#[test]
fn multi_fingerprints_match_pinned_traced_jobs4() {
    assert_multi_pinned(&multi_sweep(4, true));
}

#[test]
#[ignore = "prints the pinned table for re-pinning"]
fn print_pinned_table() {
    for (name, cycles, hash) in sweep(1, false) {
        println!("    (\"{name}\", {cycles}, {hash:#018x}),");
    }
}

#[test]
#[ignore = "prints the multi-context pinned table for re-pinning"]
fn print_multi_pinned_table() {
    for (name, cycles, hash) in multi_sweep(1, false) {
        println!("    (\"{name}\", {cycles}, {hash:#018x}),");
    }
}
