//! Spans around the benchmark's calls into each layer's public functions.
//!
//! A span records its name, start, end, parent and the point it belongs
//! to. Spans stay in memory until the run ends; a span's self time is its
//! duration minus the part of it its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-prefixed name, e.g. `sim.run`.
    pub name: &'static str,
    /// The point (program × machine) the span belongs to; 0 for set-up.
    pub point: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder started.
    pub start_ns: u64,
    /// Nanoseconds since the recorder started.
    pub end_ns: u64,
}

/// An in-memory span recorder. Disabled recorders cost one branch per
/// span.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    point: u32,
}

impl Spans {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            point: 0,
        }
    }

    /// Starts attributing spans to `point`.
    pub fn set_point(&mut self, point: u32) {
        self.point = point;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            point: self.point,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total and self seconds per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, (f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += dur as f64 / 1e9;
            e.1 += dur.saturating_sub(child) as f64 / 1e9;
        }
        out
    }

    /// Total seconds of every span named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.totals().get(name).map_or(0.0, |t| t.0)
    }

    /// The spans as JSON lines: `{"id","name","point","parent","start_ns","end_ns","self_ns"}`.
    pub fn to_json_lines(&self) -> String {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = String::new();
        for (i, (s, child)) in self.spans.iter().zip(child_ns).enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"point\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name,
                s.point,
                s.start_ns,
                s.end_ns,
                (s.end_ns - s.start_ns).saturating_sub(child),
            );
        }
        out
    }
}
