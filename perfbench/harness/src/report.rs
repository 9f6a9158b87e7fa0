//! What one harness run hands back to `perfbench/run.py`: metric
//! values, the outcome of every output check, the simulated-statistics
//! digest, and the inputs the seed chose.

use carf_bench::statsio::stats_to_json;
use carf_sim::SimStats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// FNV-1a over a stream of byte strings.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` in.
    pub fn add(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds in a point's full statistics encoding.
    pub fn add_stats(&mut self, stats: &SimStats) {
        self.add(stats_to_json(stats).as_bytes());
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The harness's result for one workload run.
#[derive(Debug, Default)]
pub struct Report {
    /// Metric name → value.
    pub metrics: BTreeMap<String, f64>,
    /// Operations attempted (points, sampled runs, co-simulations).
    pub attempted: u64,
    /// Names and reasons of the operations whose output check failed.
    pub failures: Vec<String>,
    /// Hash over every point's full `SimStats` encoding.
    pub digest: String,
    /// `name=size` of every seed-sized input.
    pub inputs: Vec<String>,
    /// Free-form notes (e.g. trace overhead breakdown).
    pub notes: Vec<String>,
    /// The traced run's spans as JSON lines (empty when untraced).
    pub span_lines: String,
}

impl Report {
    /// Records one operation and its check outcome.
    pub fn check(&mut self, name: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failures.push(format!("{name}: {why}"));
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// The report as one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"metrics\":{");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let v = if v.is_finite() { *v } else { 0.0 };
            let _ = write!(out, "\"{k}\":{v:?}");
        }
        let _ = write!(out, "}},\"attempted\":{},\"failures\":[", self.attempted);
        push_strings(&mut out, &self.failures);
        let _ = write!(out, "],\"digest\":\"{}\",\"inputs\":[", self.digest);
        push_strings(&mut out, &self.inputs);
        out.push_str("],\"notes\":[");
        push_strings(&mut out, &self.notes);
        out.push_str("]}");
        out
    }
}

fn push_strings(out: &mut String, items: &[String]) {
    for (i, s) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

/// Runs `f`, turning a panic into an error so one broken operation is
/// reported as a failed check instead of ending the run.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "unknown panic".into());
        Err(format!("panicked: {msg}"))
    })
}
