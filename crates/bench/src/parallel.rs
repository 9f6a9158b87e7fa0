//! Parallel experiment execution engine.
//!
//! Every experiment point — one `(SimConfig, Workload, Budget)` triple —
//! is an independent simulation, so the harness dispatches points over a
//! `std::thread::scope` worker pool (std-only, no external crates). A
//! shared atomic work index hands out points; results are written into
//! per-point slots, so the returned vector is in input order and
//! **byte-identical to the serial run** regardless of worker count or
//! scheduling.
//!
//! The engine also keeps a ledger of what each run simulated: every
//! point's name, wall-clock seconds and committed instructions, plus the
//! total run time, written by [`write_timing_json`] (see
//! `results/bench_timing.json`). Simulator throughput is measured by the
//! repository benchmark (`perfbench/`), not here. Results records of
//! every kind go through [`write_records`], which merges them into their
//! file with [`crate::json::update_records`].

use crate::json::{self, Value};
use crate::Budget;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Maps `f` over `items` on up to `jobs` worker threads and returns the
/// results **in input order**. `jobs <= 1` (or a single item) degenerates
/// to the plain serial map — the parallel path produces exactly the same
/// output, it only changes wall-clock time.
///
/// # Panics
///
/// A panic in any worker propagates to the caller when the thread scope
/// joins (experiments must not silently drop points).
pub fn run_ordered<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let jobs = jobs.max(1).min(items.len().max(1));
    if jobs == 1 {
        return items.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..items.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let result = f(&items[i]);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every index was claimed, so every slot is filled")
        })
        .collect()
}

/// Wall-clock timing of one experiment point.
#[derive(Debug, Clone)]
pub struct PointTiming {
    /// Point label (`suite/workload`).
    pub name: String,
    /// Simulation wall-clock seconds.
    pub secs: f64,
    /// Instructions committed by the simulation.
    pub committed: u64,
}

static POINTS: Mutex<Vec<PointTiming>> = Mutex::new(Vec::new());
static RUN_START: OnceLock<Instant> = OnceLock::new();

/// Marks the start of timed work (first call wins; later calls are no-ops).
pub fn note_run_start() {
    RUN_START.get_or_init(Instant::now);
}

/// Records one point's wall-clock duration and committed-instruction count.
pub fn record_point(name: String, secs: f64, committed: u64) {
    POINTS
        .lock()
        .expect("timing collector poisoned")
        .push(PointTiming { name, secs, committed });
}

/// Seconds elapsed since [`note_run_start`] (0 when nothing ran).
pub fn total_secs() -> f64 {
    RUN_START.get().map_or(0.0, |t| t.elapsed().as_secs_f64())
}

/// Drains the recorded per-point timings.
pub fn take_points() -> Vec<PointTiming> {
    std::mem::take(&mut *POINTS.lock().expect("timing collector poisoned"))
}

/// The invoking binary's file stem (best effort; "unknown" as fallback).
pub fn bin_name() -> String {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.file_stem().map(|s| s.to_string_lossy().into_owned()))
        .unwrap_or_else(|| "unknown".into())
}

/// The directory result files are written to.
///
/// `CARF_RESULTS_DIR` overrides when set (and non-empty); otherwise this is
/// `<workspace root>/results`, anchored from this crate's manifest directory
/// at compile time so experiment binaries produce the same files no matter
/// which directory they are launched from.
pub fn results_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("CARF_RESULTS_DIR") {
        if !dir.trim().is_empty() {
            return PathBuf::from(dir);
        }
    }
    workspace_root().join("results")
}

/// The workspace root, anchored from this crate's manifest directory at
/// compile time (the default `results/` lives here).
pub fn workspace_root() -> PathBuf {
    // crates/bench -> crates -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crate manifest dir has a workspace root two levels up")
        .to_path_buf()
}

/// The raw text of the top-level field `name` of the JSON record
/// `record`: a string without its quotes (escaped as the writer escapes
/// it), any other value in its compact form. `None` when the record does
/// not parse or has no such field. Code in this workspace reads records
/// through [`crate::json`]; this stays for callers outside it.
pub fn json_field(record: &str, name: &str) -> Option<String> {
    let record = json::parse(record).ok()?;
    let value = record.get(name)?;
    let text = value.to_string();
    Some(match value {
        Value::String(_) => text[1..text.len() - 1].to_string(),
        _ => text,
    })
}

/// Merges `records` into `<results dir>/<file_name>` (see
/// [`json::update_records`]), keeping the last `keep` rows per
/// `key_fields` tuple (`keep == 1` replaces), and returns the path.
///
/// # Errors
///
/// As [`json::update_records`]: every error names the file.
pub fn write_records(
    file_name: &str,
    records: Vec<Value>,
    key_fields: &[&str],
    keep: usize,
) -> io::Result<PathBuf> {
    let path = results_dir().join(file_name);
    json::update_records(&path, records, key_fields, keep)?;
    Ok(path)
}

/// What a results write returned, or — when it failed — exits 1 after
/// printing `error: could not write <path>: <cause>` (the error names the
/// path).
pub fn exit_on_write_error<T>(written: io::Result<T>) -> T {
    written.unwrap_or_else(|e| {
        eprintln!("error: could not write {e}");
        std::process::exit(1)
    })
}

/// Merges the run's timing record into `<results dir>/bench_timing.json`
/// (see [`results_dir`]), prints a one-line summary, and returns the path.
/// A run that simulated nothing (every point served from the cache) has
/// no timing to record: it writes nothing, so warm runs cannot rotate the
/// measured records out, and returns `None`.
///
/// The file holds one record per line, each of the form
/// `{"bin": ..., "budget": ..., "jobs": N, "total_secs": S,
/// "points": [{"name": ..., "secs": ..., "committed": ...}, ...]}`: which
/// points a run simulated and how long each took. Throughput is measured
/// by the repository benchmark (`perfbench/`), which reports it with its
/// spread and host. Records are keyed by `(bin, budget, jobs)` **field
/// values** and rotated: re-running the same configuration keeps at most
/// the last [`TIMING_KEEP_RUNS`] records for its key, so the file holds a
/// short history per configuration without growing unboundedly.
///
/// # Errors
///
/// As [`write_records`].
pub fn write_timing_json(budget: &Budget) -> io::Result<Option<PathBuf>> {
    let bin = bin_name();
    let points = take_points();
    let total = total_secs();
    if points.is_empty() {
        println!("timing: nothing simulated, no record written");
        return Ok(None);
    }
    let record = timing_record(&bin, budget.label(), budget.jobs, total, &points);

    let path = write_records(
        "bench_timing.json",
        vec![record],
        &["bin", "budget", "jobs"],
        TIMING_KEEP_RUNS,
    )?;
    println!(
        "timing: {} points in {:.2}s with {} worker(s) -> {}",
        points.len(),
        total,
        budget.jobs,
        path.display()
    );
    Ok(Some(path))
}

/// How many timing records `bench_timing.json` keeps per (bin, budget,
/// jobs) key before the oldest rotates out.
pub const TIMING_KEEP_RUNS: usize = 3;

/// One `bench_timing.json` record.
pub fn timing_record(
    bin: &str,
    budget_label: &str,
    jobs: usize,
    total_secs: f64,
    points: &[PointTiming],
) -> Value {
    let rows = points.iter().map(|p| {
        Value::object([
            ("name", p.name.as_str().into()),
            ("secs", Value::fixed(p.secs, 3)),
            ("committed", p.committed.into()),
        ])
    });
    Value::object([
        ("bin", bin.into()),
        ("budget", budget_label.into()),
        ("jobs", jobs.into()),
        ("total_secs", Value::fixed(total_secs, 3)),
        ("points", rows.collect()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `existing` with `record` merged in by `key_fields` (see
    /// [`json::merge_record`]), each row written back compactly.
    fn merge(existing: &[String], record: &str, key_fields: &[&str], keep: usize) -> Vec<String> {
        let mut rows: Vec<Value> =
            existing.iter().map(|r| json::parse(r).expect("test row")).collect();
        json::merge_record(&mut rows, json::parse(record).expect("test record"), key_fields, keep);
        rows.iter().map(Value::to_string).collect()
    }

    #[test]
    fn ordered_results_match_serial_for_any_job_count() {
        let items: Vec<u64> = (0..100).collect();
        let serial = run_ordered(&items, 1, |v| v * v + 1);
        for jobs in [2, 3, 4, 16] {
            assert_eq!(run_ordered(&items, jobs, |v| v * v + 1), serial);
        }
    }

    #[test]
    fn empty_and_single_item_inputs_work() {
        let empty: Vec<u32> = Vec::new();
        assert!(run_ordered(&empty, 8, |v| *v).is_empty());
        assert_eq!(run_ordered(&[7u32], 8, |v| v + 1), vec![8]);
    }

    #[test]
    fn json_escaping_handles_quotes_and_control() {
        assert_eq!(Value::from("a\"b\\c\nd").to_string(), "\"a\\\"b\\\\c\\u000ad\"");
    }

    #[test]
    fn json_field_extracts_strings_and_scalars() {
        let rec = r#"{"bin":"fig5_ipc_sweep","budget":"quick","jobs":8,"total_secs":1.234}"#;
        assert_eq!(json_field(rec, "bin").as_deref(), Some("fig5_ipc_sweep"));
        assert_eq!(json_field(rec, "budget").as_deref(), Some("quick"));
        assert_eq!(json_field(rec, "jobs").as_deref(), Some("8"));
        assert_eq!(json_field(rec, "total_secs").as_deref(), Some("1.234"));
        assert_eq!(json_field(rec, "missing"), None);
        // Escaped quotes inside a string value don't end the scan early.
        let tricky = r#"{"bin":"a\"b","jobs":2}"#;
        assert_eq!(json_field(tricky, "bin").as_deref(), Some(r#"a\"b"#));
        assert_eq!(json_field(tricky, "jobs").as_deref(), Some("2"));
    }

    #[test]
    fn json_field_is_not_fooled_by_value_prefixes() {
        // The old prefix-matching merge treated "quick" and "quick2" (or
        // jobs 1 vs 16, had the order differed) as the same key. Field
        // comparison must not.
        let a = r#"{"bin":"x","budget":"quick","jobs":1}"#;
        let b = r#"{"bin":"x","budget":"quick","jobs":16}"#;
        assert_ne!(json_field(a, "jobs"), json_field(b, "jobs"));
    }

    #[test]
    fn json_field_matches_only_top_level_keys() {
        // A timing record nests `name`/`secs`/`committed` fields inside the
        // `points` array. The scanner must neither report a nested field as
        // the top-level one nor let a nested occurrence shadow a top-level
        // field that comes after it.
        let rec = r#"{"points":[{"bin":"inner","name":"Int/a"}],"bin":"outer"}"#;
        assert_eq!(json_field(rec, "bin").as_deref(), Some("outer"));
        assert_eq!(json_field(rec, "name"), None, "nested-only field is absent");
        assert_eq!(json_field(rec, "secs"), None);
        // A field name spelled out inside a string value is not a field.
        let tricky = r#"{"note":"see \"bin\" below, jobs: 9","bin":"real","jobs":2}"#;
        assert_eq!(json_field(tricky, "bin").as_deref(), Some("real"));
        assert_eq!(json_field(tricky, "jobs").as_deref(), Some("2"));
    }

    #[test]
    fn json_field_survives_separator_characters_in_values() {
        // Key-field values carrying JSON separator characters (`,` `}` `]`
        // `:`) must come back intact and must not derail the scan for the
        // fields after them.
        let rec = r#"{"budget":"quick,odd}we:ird]","spec":"5000/8/2000","jobs":4}"#;
        assert_eq!(json_field(rec, "budget").as_deref(), Some("quick,odd}we:ird]"));
        assert_eq!(json_field(rec, "spec").as_deref(), Some("5000/8/2000"));
        assert_eq!(json_field(rec, "jobs").as_deref(), Some("4"));
        // Unterminated string: the row is malformed, every field absent.
        assert_eq!(json_field(r#"{"bin":"unterminated"#, "bin"), None);
    }

    #[test]
    fn merge_keys_on_top_level_fields_despite_separator_values() {
        // Two rows whose `budget` values differ only by separator-bearing
        // text are distinct keys; a nested `bin` must not match the key.
        let existing = vec![
            r#"{"bin":"a","budget":"quick,v2","run":1}"#.to_string(),
            r#"{"bin":"a","budget":"quick","run":2}"#.to_string(),
            r#"{"points":[{"bin":"a","budget":"quick"}],"bin":"b","budget":"quick","run":3}"#
                .to_string(),
        ];
        let rec = r#"{"bin":"a","budget":"quick","run":4}"#;
        let merged = merge(&existing, rec, &["bin", "budget"], 1);
        assert_eq!(merged.len(), 3, "{merged:?}");
        assert!(merged.iter().any(|r| r.contains("\"run\":1")), "quick,v2 key kept");
        assert!(!merged.iter().any(|r| r.contains("\"run\":2")), "(a, quick) replaced");
        assert!(merged.iter().any(|r| r.contains("\"run\":3")), "nested key ignored");
        assert_eq!(merged.last().map(String::as_str), Some(rec));
    }

    #[test]
    fn rotation_at_exactly_the_limit_keeps_the_cap_not_one_more() {
        // A file already holding exactly TIMING_KEEP_RUNS rows for a key is
        // the boundary case: merging one more must drop exactly the oldest
        // (never keep keep+1, never drop the newest).
        let rows: Vec<String> = (1..=TIMING_KEEP_RUNS)
            .map(|run| format!("{{\"bin\":\"a\",\"jobs\":1,\"run\":{run}}}"))
            .collect();
        let rec = r#"{"bin":"a","jobs":1,"run":99}"#;
        let merged = merge(&rows, rec, &["bin", "jobs"], TIMING_KEEP_RUNS);
        assert_eq!(merged.len(), TIMING_KEEP_RUNS, "{merged:?}");
        assert!(!merged.iter().any(|r| r.contains("\"run\":1")), "oldest rotated out");
        assert!(merged.iter().any(|r| r.contains("\"run\":2")));
        assert_eq!(merged.last().map(String::as_str), Some(rec), "newest kept last");

        // A legacy over-full file (more than the cap) shrinks back to the
        // cap in one merge rather than lingering above it.
        let overfull: Vec<String> = (1..=TIMING_KEEP_RUNS + 2)
            .map(|run| format!("{{\"bin\":\"a\",\"jobs\":1,\"run\":{run}}}"))
            .collect();
        let merged = merge(&overfull, rec, &["bin", "jobs"], TIMING_KEEP_RUNS);
        assert_eq!(merged.len(), TIMING_KEEP_RUNS, "{merged:?}");
        assert_eq!(merged.last().map(String::as_str), Some(rec));
    }

    #[test]
    fn merge_replaces_only_matching_key_tuple() {
        let existing = vec![
            r#"{"bin":"a","budget":"quick","jobs":4,"total_secs":1.0}"#.to_string(),
            r#"{"bin":"a","budget":"full","jobs":4,"total_secs":9.0}"#.to_string(),
            r#"{"bin":"b","budget":"quick","jobs":4,"total_secs":2.0}"#.to_string(),
        ];
        let rerun = r#"{"bin":"a","budget":"quick","jobs":4,"total_secs":1.5}"#;
        let merged = merge(&existing, rerun, &["bin", "budget", "jobs"], 1);
        assert_eq!(merged.len(), 3, "{merged:?}");
        // The stale (a, quick, 4) record is gone; the other two survive.
        assert!(!merged.iter().any(|r| r.contains("\"total_secs\":1.0")));
        assert!(merged.iter().any(|r| r.contains("\"budget\":\"full\"")));
        assert!(merged.iter().any(|r| r.contains("\"bin\":\"b\"")));
        assert_eq!(merged.last().map(String::as_str), Some(rerun));
    }

    #[test]
    fn rotation_keeps_the_last_three_runs_per_key() {
        // Golden test for the bench_timing.json rotation: runs 1..=4 of the
        // same (bin, budget, jobs) key must leave exactly runs 2, 3, 4 (in
        // that order), while a different key's row is untouched.
        let other = r#"{"bin":"other","budget":"quick","jobs":1,"run":0}"#.to_string();
        let mut rows = vec![other.clone()];
        for run in 1..=4 {
            let rec = format!("{{\"bin\":\"a\",\"budget\":\"quick\",\"jobs\":1,\"run\":{run}}}");
            rows = merge(&rows, &rec, &["bin", "budget", "jobs"], TIMING_KEEP_RUNS);
        }
        let expected = vec![
            other,
            r#"{"bin":"a","budget":"quick","jobs":1,"run":2}"#.to_string(),
            r#"{"bin":"a","budget":"quick","jobs":1,"run":3}"#.to_string(),
            r#"{"bin":"a","budget":"quick","jobs":1,"run":4}"#.to_string(),
        ];
        assert_eq!(rows, expected);
    }

    #[test]
    fn rotation_keeps_rows_missing_a_key_field() {
        let existing = vec![r#"{"note":"hand-written row"}"#.to_string()];
        let merged = merge(&existing, r#"{"bin":"a","jobs":1}"#, &["bin", "jobs"], 1);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0], existing[0]);
    }

    #[test]
    fn rotation_with_keep_one_replaces_like_plain_merge() {
        // Plain replacement is rotation that keeps one run per key.
        let existing = vec![
            r#"{"bin":"a","jobs":1,"run":1}"#.to_string(),
            r#"{"bin":"b","jobs":1,"run":1}"#.to_string(),
        ];
        let rec = r#"{"bin":"a","jobs":1,"run":2}"#;
        let rotated = merge(&existing, rec, &["bin", "jobs"], 1);
        assert_eq!(rotated, vec![existing[1].clone(), rec.to_string()]);
    }

    #[test]
    fn timing_record_shape_is_stable() {
        let points = vec![PointTiming { name: "Int/a".into(), secs: 0.5, committed: 200_000 }];
        let rec = timing_record("fig5_ipc_sweep", "quick", 1, 0.5, &points);
        assert_eq!(
            rec.to_string(),
            "{\"bin\":\"fig5_ipc_sweep\",\"budget\":\"quick\",\"jobs\":1,\
             \"total_secs\":0.500,\"points\":[{\"name\":\"Int/a\",\"secs\":0.500,\
             \"committed\":200000}]}"
        );
    }

    #[test]
    fn merge_keeps_rows_missing_a_key_field() {
        let existing = vec![r#"{"note":"hand-written row"}"#.to_string()];
        let merged = merge(&existing, r#"{"bin":"a","jobs":1}"#, &["bin", "jobs"], 1);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0], existing[0]);
    }

    #[test]
    fn results_dir_is_anchored_at_the_workspace_root() {
        // Regression for the cwd-relative `results/` bug: unless overridden,
        // the directory must be absolute and live next to this crate's
        // workspace, not under whatever directory the binary ran from.
        if std::env::var("CARF_RESULTS_DIR").map_or(true, |v| v.trim().is_empty()) {
            let dir = results_dir();
            assert!(dir.is_absolute(), "{}", dir.display());
            assert_eq!(dir.file_name().and_then(|n| n.to_str()), Some("results"));
            assert!(dir.parent().unwrap().join("crates/bench/Cargo.toml").exists());
        }
    }
}
