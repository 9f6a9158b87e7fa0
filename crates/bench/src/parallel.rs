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
//! The engine also collects wall-clock timing: per-point durations and
//! the total run time, written as machine-readable JSON by
//! [`write_timing_json`] (see `results/bench_timing.json`).

use crate::fsio::{atomic_write, FileLock};
use crate::Budget;
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

impl PointTiming {
    /// Committed kilo-instructions per wall-second (0 for a zero-length run).
    pub fn kips(&self) -> f64 {
        if self.secs > 0.0 {
            self.committed as f64 / 1000.0 / self.secs
        } else {
            0.0
        }
    }
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

/// Geometric mean of per-point KIPS (0 when no point has a measurable rate).
pub fn geomean_kips(points: &[PointTiming]) -> f64 {
    let rates: Vec<f64> = points.iter().map(PointTiming::kips).filter(|k| *k > 0.0).collect();
    if rates.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = rates.iter().map(|k| k.ln()).sum();
    (log_sum / rates.len() as f64).exp()
}

/// Highest per-point KIPS (the peak committed-instruction rate).
pub fn peak_kips(points: &[PointTiming]) -> f64 {
    points.iter().map(PointTiming::kips).fold(0.0, f64::max)
}

/// Seconds elapsed since [`note_run_start`] (0 when nothing ran).
pub fn total_secs() -> f64 {
    RUN_START.get().map_or(0.0, |t| t.elapsed().as_secs_f64())
}

/// Drains the recorded per-point timings.
pub fn take_points() -> Vec<PointTiming> {
    std::mem::take(&mut *POINTS.lock().expect("timing collector poisoned"))
}

/// `s` as the body of a JSON string: quotes, backslashes, and control
/// characters escaped, everything else (plain names) unchanged.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
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

/// Scans the JSON string literal whose opening quote is at `record[start]`
/// and returns the content byte range (quotes stripped, escape sequences
/// preserved verbatim) plus the index of the closing quote. `None` when the
/// string never terminates. Quote and backslash are ASCII, so byte-wise
/// scanning is UTF-8 safe.
fn scan_string(record: &str, start: usize) -> Option<(usize, usize)> {
    let bytes = record.as_bytes();
    let mut i = start + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => return Some((start + 1, i)),
            b'\\' => i += 2,
            _ => i += 1,
        }
    }
    None
}

/// Returns the index just past the JSON value starting at `record[start]`,
/// skipping nested objects/arrays with full string awareness so separator
/// characters inside string values never end the scan early.
fn skip_value(record: &str, start: usize) -> Option<usize> {
    let bytes = record.as_bytes();
    match bytes.get(start)? {
        b'"' => scan_string(record, start).map(|(_, close)| close + 1),
        b'{' | b'[' => {
            let mut depth = 0usize;
            let mut i = start;
            while i < bytes.len() {
                match bytes[i] {
                    b'{' | b'[' => {
                        depth += 1;
                        i += 1;
                    }
                    b'}' | b']' => {
                        depth -= 1;
                        i += 1;
                        if depth == 0 {
                            return Some(i);
                        }
                    }
                    b'"' => i = scan_string(record, i)?.1 + 1,
                    _ => i += 1,
                }
            }
            None
        }
        _ => {
            let rest = &record[start..];
            let len = rest
                .find(|c: char| c == ',' || c == '}' || c == ']' || c.is_whitespace())
                .unwrap_or(rest.len());
            Some(start + len)
        }
    }
}

/// Extracts the raw value of a top-level `"name": value` field from a
/// single-line JSON record (`None` when absent). String values are returned
/// without their quotes (escape sequences preserved); other values are
/// returned as their raw text. The scanner walks the top-level object
/// key-by-key, skipping nested objects, arrays, and string contents, so a
/// field name that appears inside a nested record (`"points":[{"name":…}]`)
/// or inside a string value never shadows — or stands in for — the
/// top-level field.
pub fn json_field(record: &str, name: &str) -> Option<String> {
    let bytes = record.as_bytes();
    let mut i = record.find('{')? + 1;
    loop {
        while i < bytes.len() && (bytes[i].is_ascii_whitespace() || bytes[i] == b',') {
            i += 1;
        }
        match bytes.get(i)? {
            b'}' => return None, // end of the top-level object: field absent
            b'"' => {
                let (key_start, key_end) = scan_string(record, i)?;
                i = key_end + 1;
                while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                    i += 1;
                }
                if bytes.get(i) != Some(&b':') {
                    return None; // malformed row: treat the field as absent
                }
                i += 1;
                while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                    i += 1;
                }
                if i >= bytes.len() {
                    return None;
                }
                if &record[key_start..key_end] == name {
                    return if bytes[i] == b'"' {
                        scan_string(record, i).map(|(s, e)| record[s..e].to_string())
                    } else {
                        let end = skip_value(record, i)?;
                        let value = &record[i..end];
                        (!value.is_empty()).then(|| value.to_string())
                    };
                }
                i = skip_value(record, i)?;
            }
            _ => return None,
        }
    }
}

/// Merges `record` into `existing` one-record-per-line JSON rows: any row
/// whose `key_fields` values all equal the new record's is replaced; every
/// other row (including rows missing a key field) is kept. The new record
/// is appended last.
pub fn merge_json_records(
    existing: &[String],
    record: &str,
    key_fields: &[&str],
) -> Vec<String> {
    let new_key: Vec<Option<String>> =
        key_fields.iter().map(|f| json_field(record, f)).collect();
    let mut out: Vec<String> = existing
        .iter()
        .filter(|row| {
            let row_key: Vec<Option<String>> =
                key_fields.iter().map(|f| json_field(row, f)).collect();
            // Keep the row unless its key tuple is present and equal.
            row_key.iter().any(|v| v.is_none()) || row_key != new_key
        })
        .cloned()
        .collect();
    out.push(record.to_string());
    out
}

/// Merges `record` into `existing` rows keeping **history**: rows whose
/// `key_fields` values all equal the new record's are retained (newest
/// last) up to `keep - 1` of them, so with the appended record the file
/// holds at most the last `keep` runs per key tuple. Rows with a different
/// key — or missing a key field — are kept untouched. `keep == 1`
/// degenerates to [`merge_json_records`]'s replace semantics.
pub fn merge_json_records_rotating(
    existing: &[String],
    record: &str,
    key_fields: &[&str],
    keep: usize,
) -> Vec<String> {
    let keep = keep.max(1);
    let new_key: Vec<Option<String>> =
        key_fields.iter().map(|f| json_field(record, f)).collect();
    let matches_key = |row: &str| {
        let row_key: Vec<Option<String>> =
            key_fields.iter().map(|f| json_field(row, f)).collect();
        row_key.iter().all(|v| v.is_some()) && row_key == new_key
    };
    // Indices of same-key rows, oldest first; drop all but the newest keep-1.
    let same_key: Vec<usize> = existing
        .iter()
        .enumerate()
        .filter(|(_, row)| matches_key(row))
        .map(|(i, _)| i)
        .collect();
    let drop_oldest: usize = same_key.len().saturating_sub(keep - 1);
    let dropped: std::collections::HashSet<usize> =
        same_key.into_iter().take(drop_oldest).collect();
    let mut out: Vec<String> = existing
        .iter()
        .enumerate()
        .filter(|(i, _)| !dropped.contains(i))
        .map(|(_, row)| row.clone())
        .collect();
    out.push(record.to_string());
    out
}

fn read_record_lines(path: &Path) -> Vec<String> {
    std::fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .map(|l| l.trim().trim_end_matches(',').to_string())
        .filter(|l| l.starts_with('{'))
        .collect()
}

fn write_record_lines(dir: &Path, path: &Path, records: &[String]) {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        let sep = if i + 1 < records.len() { "," } else { "" };
        out.push_str(r);
        out.push_str(sep);
        out.push('\n');
    }
    out.push_str("]\n");
    if std::fs::create_dir_all(dir).is_ok() {
        let _ = atomic_write(path, out.as_bytes());
    }
}

/// Reads `file_name` from [`results_dir`], merges `record` by `key_fields`
/// (see [`merge_json_records`]), rewrites the file as a JSON array with one
/// record per line, and returns the path. The read-merge-write cycle runs
/// under an advisory file lock and the rewrite is atomic (temp file +
/// rename), so concurrent experiment binaries cannot lose each other's
/// rows or leave a truncated file behind.
pub fn write_merged_record(file_name: &str, record: &str, key_fields: &[&str]) -> PathBuf {
    let dir = results_dir();
    let path = dir.join(file_name);
    let _ = std::fs::create_dir_all(&dir);
    let _guard = FileLock::acquire(&path);
    let existing = read_record_lines(&path);
    let records = merge_json_records(&existing, record, key_fields);
    write_record_lines(&dir, &path, &records);
    path
}

/// [`write_merged_record`] with rotation: keeps the last `keep` runs per
/// key tuple instead of replacing (see [`merge_json_records_rotating`]).
pub fn write_rotated_record(
    file_name: &str,
    record: &str,
    key_fields: &[&str],
    keep: usize,
) -> PathBuf {
    let dir = results_dir();
    let path = dir.join(file_name);
    let _ = std::fs::create_dir_all(&dir);
    let _guard = FileLock::acquire(&path);
    let existing = read_record_lines(&path);
    let records = merge_json_records_rotating(&existing, record, key_fields, keep);
    write_record_lines(&dir, &path, &records);
    path
}

/// Writes (merging) the run's timing record into
/// `<results dir>/bench_timing.json` (see [`results_dir`]) and returns the
/// path.
///
/// The file is a JSON array with one record per line, each of the form
/// `{"bin": ..., "budget": ..., "jobs": N, "total_secs": S,
/// "geomean_kips": G, "peak_kips": P, "points": [{"name": ..., "secs": ...,
/// "committed": ..., "kips": ...}, ...]}`. Records are keyed by
/// `(bin, budget, jobs)` **field values** and rotated: re-running the same
/// configuration keeps at most the last [`TIMING_KEEP_RUNS`] records for
/// its key, so the file holds a short history per configuration without
/// growing unboundedly.
pub fn write_timing_json(budget: &Budget) -> PathBuf {
    let bin = bin_name();
    let points = take_points();
    let total = total_secs();
    let record = timing_record(&bin, budget.label(), budget.jobs, total, &points);

    let path = write_rotated_record(
        "bench_timing.json",
        &record,
        &["bin", "budget", "jobs"],
        TIMING_KEEP_RUNS,
    );
    println!(
        "timing: {} points in {:.2}s with {} worker(s), geomean {:.1} KIPS -> {}",
        points.len(),
        total,
        budget.jobs,
        geomean_kips(&points),
        path.display()
    );
    path
}

/// How many timing records `bench_timing.json` keeps per (bin, budget,
/// jobs) key before the oldest rotates out.
pub const TIMING_KEEP_RUNS: usize = 3;

/// Formats one `bench_timing.json` record.
pub fn timing_record(
    bin: &str,
    budget_label: &str,
    jobs: usize,
    total_secs: f64,
    points: &[PointTiming],
) -> String {
    let mut record = format!(
        "{{\"bin\":\"{}\",\"budget\":\"{}\",\"jobs\":{},\"total_secs\":{:.3},\
         \"geomean_kips\":{:.3},\"peak_kips\":{:.3},\"points\":[",
        json_escape(bin),
        json_escape(budget_label),
        jobs,
        total_secs,
        geomean_kips(points),
        peak_kips(points),
    );
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            record.push(',');
        }
        record.push_str(&format!(
            "{{\"name\":\"{}\",\"secs\":{:.3},\"committed\":{},\"kips\":{:.3}}}",
            json_escape(&p.name),
            p.secs,
            p.committed,
            p.kips()
        ));
    }
    record.push_str("]}");
    record
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\u000ad");
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
        // A timing record nests `name`/`secs`/`kips` fields inside the
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
        let merged = merge_json_records(&existing, rec, &["bin", "budget"]);
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
        let merged = merge_json_records_rotating(&rows, rec, &["bin", "jobs"], TIMING_KEEP_RUNS);
        assert_eq!(merged.len(), TIMING_KEEP_RUNS, "{merged:?}");
        assert!(!merged.iter().any(|r| r.contains("\"run\":1")), "oldest rotated out");
        assert!(merged.iter().any(|r| r.contains("\"run\":2")));
        assert_eq!(merged.last().map(String::as_str), Some(rec), "newest kept last");

        // A legacy over-full file (more than the cap) shrinks back to the
        // cap in one merge rather than lingering above it.
        let overfull: Vec<String> = (1..=TIMING_KEEP_RUNS + 2)
            .map(|run| format!("{{\"bin\":\"a\",\"jobs\":1,\"run\":{run}}}"))
            .collect();
        let merged = merge_json_records_rotating(&overfull, rec, &["bin", "jobs"], TIMING_KEEP_RUNS);
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
        let merged = merge_json_records(&existing, rerun, &["bin", "budget", "jobs"]);
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
            rows = merge_json_records_rotating(
                &rows,
                &rec,
                &["bin", "budget", "jobs"],
                TIMING_KEEP_RUNS,
            );
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
        let merged = merge_json_records_rotating(
            &existing,
            r#"{"bin":"a","jobs":1}"#,
            &["bin", "jobs"],
            1,
        );
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0], existing[0]);
    }

    #[test]
    fn rotation_with_keep_one_replaces_like_plain_merge() {
        let existing = vec![r#"{"bin":"a","jobs":1,"run":1}"#.to_string()];
        let rec = r#"{"bin":"a","jobs":1,"run":2}"#;
        let rotated = merge_json_records_rotating(&existing, rec, &["bin", "jobs"], 1);
        let merged = merge_json_records(&existing, rec, &["bin", "jobs"]);
        assert_eq!(rotated, merged);
        assert_eq!(rotated, vec![rec.to_string()]);
    }

    #[test]
    fn kips_is_committed_per_millisecond() {
        let p = PointTiming { name: "x".into(), secs: 2.0, committed: 500_000 };
        assert!((p.kips() - 250.0).abs() < 1e-9);
        let zero = PointTiming { name: "z".into(), secs: 0.0, committed: 10 };
        assert_eq!(zero.kips(), 0.0);
    }

    #[test]
    fn geomean_and_peak_kips() {
        let points = vec![
            PointTiming { name: "a".into(), secs: 1.0, committed: 100_000 }, // 100 KIPS
            PointTiming { name: "b".into(), secs: 1.0, committed: 400_000 }, // 400 KIPS
            PointTiming { name: "z".into(), secs: 0.0, committed: 1 },       // excluded
        ];
        assert!((geomean_kips(&points) - 200.0).abs() < 1e-9);
        assert!((peak_kips(&points) - 400.0).abs() < 1e-9);
        assert_eq!(geomean_kips(&[]), 0.0);
        assert_eq!(peak_kips(&[]), 0.0);
    }

    #[test]
    fn timing_record_shape_is_stable() {
        let points = vec![PointTiming { name: "Int/a".into(), secs: 0.5, committed: 200_000 }];
        let rec = timing_record("bench_kips", "quick", 1, 0.5, &points);
        assert_eq!(
            rec,
            "{\"bin\":\"bench_kips\",\"budget\":\"quick\",\"jobs\":1,\
             \"total_secs\":0.500,\"geomean_kips\":400.000,\"peak_kips\":400.000,\
             \"points\":[{\"name\":\"Int/a\",\"secs\":0.500,\"committed\":200000,\
             \"kips\":400.000}]}"
        );
        assert_eq!(json_field(&rec, "geomean_kips").as_deref(), Some("400.000"));
    }

    #[test]
    fn merge_keeps_rows_missing_a_key_field() {
        let existing = vec![r#"{"note":"hand-written row"}"#.to_string()];
        let merged =
            merge_json_records(&existing, r#"{"bin":"a","jobs":1}"#, &["bin", "jobs"]);
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
