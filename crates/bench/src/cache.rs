//! Content-addressed result cache: compute each experiment point once,
//! serve it forever.
//!
//! Every simulation point — one `(SimConfig, workload, budget)` triple —
//! is addressed by a 128-bit FNV-1a fingerprint of a **canonical key
//! text**: every configuration field written explicitly in a fixed,
//! code-defined order (so a cosmetic struct-field reorder cannot change
//! the key), plus the workload identity, the budget's result-affecting
//! parts (size class, instruction cap, sampling spec — *not* the worker
//! count, which never changes results), and [`CACHE_SALT`]. Bump the salt
//! whenever simulator semantics change; every old entry then misses
//! instead of serving stale numbers.
//!
//! Entries live under `<results>/cache/<hh>/<key>.json` (sharded on the
//! first key byte), each written atomically by [`crate::fsio::atomic_write`]
//! and carrying the exact [`crate::statsio`] encoding, so a warm run
//! reproduces **byte-identical** downstream result records. A human-
//! readable `index.json` maps keys back to (config, point, budget) labels;
//! it is maintained under an advisory [`FileLock`] so concurrent bins
//! cannot lose each other's rows.
//!
//! Environment knobs:
//!
//! * `CARF_CACHE=0` (or `off`) — bypass the cache entirely;
//! * `CARF_CACHE_REQUIRE_WARM=1` — fail (exit 3) if any point has to be
//!   simulated: CI uses this to prove a warm re-run does zero simulation.

use crate::fsio::{atomic_write, FileLock};
use crate::parallel::{self, json_escape, json_field};
use crate::sample::SampleSpec;
use crate::statsio::{stats_from_json, stats_to_json, STATS_CODEC_VERSION};
use crate::{Budget, SuiteResult};
use carf_mem::{CacheConfig, HierarchyConfig};
use carf_sim::{BpredConfig, MemDepPolicy, MultiSim, RegFileKind, SharingPolicy, SimConfig, SimStats};
use carf_workloads::{SizeClass, Suite, Workload};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Code-version salt folded into every key. Bump whenever simulator or
/// workload semantics change in a result-affecting way (the pinned
/// fingerprint suite in `tests/scheduler_equivalence.rs` is the tell),
/// so stale entries miss instead of serving outdated numbers.
pub const CACHE_SALT: &str = "carf-cache-v1";

fn write_cache_config(out: &mut String, tag: &str, c: &CacheConfig) {
    let CacheConfig { size_bytes, assoc, line_bytes, latency } = *c;
    let _ = write!(out, "{tag}={size_bytes}/{assoc}/{line_bytes}/{latency};");
}

fn write_regfile(out: &mut String, kind: &RegFileKind) {
    match kind {
        RegFileKind::Baseline => out.push_str("regfile=baseline;"),
        RegFileKind::ContentAware(p, pol) => {
            let carf_core::CarfParams { d, short_entries, long_entries, simple_entries } = *p;
            let carf_core::Policies { short_alloc, short_index, long_stall_threshold, extra_bypass } =
                *pol;
            let alloc = match short_alloc {
                carf_core::ShortAllocPolicy::AddressesOnly => "addr",
                carf_core::ShortAllocPolicy::AllResults => "all",
            };
            let index = match short_index {
                carf_core::ShortIndexPolicy::DirectIndexed => "direct",
                carf_core::ShortIndexPolicy::Associative => "assoc",
            };
            let _ = write!(
                out,
                "regfile=carf/{d}/{short_entries}/{long_entries}/{simple_entries}\
                 /{alloc}/{index}/{long_stall_threshold}/{extra_bypass};"
            );
        }
        RegFileKind::Compressed(p) => {
            let carf_core::CarfParams { d, short_entries, long_entries, simple_entries } = *p;
            let _ = write!(
                out,
                "regfile=compressed/{d}/{short_entries}/{long_entries}/{simple_entries};"
            );
        }
        RegFileKind::PortReduced(p) => {
            let carf_core::PortReducedParams { read_ports, capture_entries } = *p;
            let _ = write!(out, "regfile=ports/{read_ports}/{capture_entries};");
        }
    }
}

/// The canonical, field-order-independent text form of a machine
/// configuration. Every field is written explicitly in a fixed order
/// decided *here*, not by the struct layout — reordering `SimConfig`'s
/// declaration cannot change a cache key, while any new field is a
/// compile error in this function until the key learns about it.
pub fn canonical_config(config: &SimConfig) -> String {
    let SimConfig {
        fetch_width,
        issue_width,
        commit_width,
        frontend_depth,
        rob_size,
        lsq_size,
        iq_int,
        iq_fp,
        int_pregs,
        fp_pregs,
        rf_read_ports,
        rf_write_ports,
        checkpoints,
        int_units,
        fp_units,
        mul_latency,
        div_latency,
        fp_latency,
        fpdiv_latency,
        hierarchy,
        bpred,
        regfile,
        mem_dep,
        rob_interval_commits,
        oracle_period,
        cosim,
        watchdog_cycles,
    } = config;
    let mut out = String::with_capacity(256);
    let _ = write!(
        out,
        "fetch={fetch_width};issue={issue_width};commit={commit_width};\
         frontend={frontend_depth};rob={rob_size};lsq={lsq_size};\
         iq_int={iq_int};iq_fp={iq_fp};int_pregs={int_pregs};fp_pregs={fp_pregs};\
         rf_r={rf_read_ports};rf_w={rf_write_ports};ckpt={checkpoints};\
         int_units={int_units};fp_units={fp_units};mul={mul_latency};\
         div={div_latency};fp={fp_latency};fpdiv={fpdiv_latency};"
    );
    let HierarchyConfig { il1, dl1, dl1_ports, l2, memory_latency } = hierarchy;
    write_cache_config(&mut out, "il1", il1);
    write_cache_config(&mut out, "dl1", dl1);
    let _ = write!(out, "dl1_ports={dl1_ports};");
    write_cache_config(&mut out, "l2", l2);
    let _ = write!(out, "mem_lat={memory_latency};");
    let BpredConfig { gshare_bits, btb_entries, ras_entries } = bpred;
    let _ = write!(out, "gshare={gshare_bits};btb={btb_entries};ras={ras_entries};");
    write_regfile(&mut out, regfile);
    let dep = match mem_dep {
        MemDepPolicy::Conservative => "conservative",
        MemDepPolicy::Optimistic => "optimistic",
    };
    let _ = write!(
        out,
        "mem_dep={dep};rob_interval={rob_interval_commits};\
         oracle={};cosim={cosim};watchdog={watchdog_cycles};",
        oracle_period.map_or_else(|| "none".to_string(), |p| p.to_string()),
    );
    out
}

fn size_label(size: SizeClass) -> &'static str {
    match size {
        SizeClass::Quick => "quick",
        SizeClass::Full => "full",
        SizeClass::Test => "test",
    }
}

/// The budget's result-affecting part in canonical text form. The worker
/// count is deliberately absent: [`parallel::run_ordered`] is
/// bit-identical at any `jobs`, so it must not split the cache.
fn canonical_budget(budget: &Budget) -> String {
    let sample = match &budget.sample {
        Some(SampleSpec { interval, period, warmup }) => format!("{interval}/{period}/{warmup}"),
        None => "none".into(),
    };
    format!(
        "size={};max_insts={};sample={sample};",
        size_label(budget.size),
        budget.max_insts
    )
}

fn fnv128(text: &str) -> u128 {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    let mut h = OFFSET;
    for b in text.as_bytes() {
        h ^= *b as u128;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// The cache identity of a workload. Synthetic kernels are pure
/// `fn(size)` builders, so their name (plus the budget's size class,
/// which is already in the key) pins the program exactly. Fixed-program
/// workloads (assembled corpus kernels) are identified by **content**: the
/// [`carf_isa::program_fingerprint`] over the linked instruction text,
/// entry point, and data image rides along as a `#fingerprint` suffix, so
/// editing one instruction in a `.s` source — or linking with a different
/// entry symbol — changes the key even though the name is unchanged.
pub fn workload_identity(workload: &Workload) -> String {
    match workload.content_fingerprint() {
        Some(fp) => format!("{}#{fp:016x}", workload.name),
        None => workload.name.to_string(),
    }
}

/// The full canonical key text of one simulation point (hash pre-image;
/// exposed so tests can assert *why* two keys differ).
pub fn point_key_text(config: &SimConfig, suite: Suite, workload: &str, budget: &Budget) -> String {
    format!(
        "salt={CACHE_SALT};codec={STATS_CODEC_VERSION};point={suite:?}/{workload};{}{}",
        canonical_budget(budget),
        canonical_config(config),
    )
}

/// The content address of one simulation point.
pub fn point_key(config: &SimConfig, suite: Suite, workload: &str, budget: &Budget) -> u128 {
    fnv128(&point_key_text(config, suite, workload, budget))
}

/// The content address of a named derived scalar (e.g. a traced stall
/// share) of one `(config, budget)` pair.
pub fn derived_key(tag: &str, config: &SimConfig, budget: &Budget) -> u128 {
    fnv128(&format!(
        "salt={CACHE_SALT};derived={tag};{}{}",
        canonical_budget(budget),
        canonical_config(config),
    ))
}

/// Where one point came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// Served from the on-disk cache without simulating.
    Hit,
    /// Simulated (and stored for next time).
    Miss,
    /// The cache is disabled (`CARF_CACHE=0`); simulated, nothing stored.
    Bypass,
}

/// The on-disk content-addressed store under `<results>/cache/`.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// A cache rooted at an explicit directory (tests, harnesses).
    pub fn at(dir: PathBuf) -> Self {
        Self { dir }
    }

    /// The default cache under [`parallel::results_dir`]`/cache`, or
    /// `None` when `CARF_CACHE` is `0`/`off`/`false`.
    pub fn from_env() -> Option<Self> {
        if let Ok(v) = std::env::var("CARF_CACHE") {
            let v = v.trim().to_ascii_lowercase();
            if v == "0" || v == "off" || v == "false" {
                return None;
            }
        }
        Some(Self::at(parallel::results_dir().join("cache")))
    }

    /// The cache root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The entry file for `key`, sharded on the top byte so no single
    /// directory grows unboundedly.
    pub fn entry_path(&self, key: u128) -> PathBuf {
        let hex = format!("{key:032x}");
        self.dir.join(&hex[..2]).join(format!("{hex}.json"))
    }

    /// Looks up a simulation point. Any unreadable, mismatched, or
    /// stale-codec entry is a miss, never an error.
    pub fn load_point(&self, key: u128) -> Option<SimStats> {
        let text = std::fs::read_to_string(self.entry_path(key)).ok()?;
        if json_field(&text, "key")? != format!("{key:032x}") {
            return None;
        }
        stats_from_json(&json_field(&text, "stats")?).ok()
    }

    /// Stores a simulation point and records it in the index. Storage
    /// failures are reported to stderr but never abort an experiment —
    /// the simulation result in hand is still valid.
    pub fn store_point(
        &self,
        key: u128,
        point: &str,
        config: &SimConfig,
        budget: &Budget,
        stats: &SimStats,
    ) {
        let hex = format!("{key:032x}");
        let entry = format!(
            "{{\"key\":\"{hex}\",\"kind\":\"point\",\"point\":\"{}\",\
             \"config\":\"{}\",\"budget\":\"{}\",\"salt\":\"{CACHE_SALT}\",\
             \"stats\":{}}}\n",
            json_escape(point),
            json_escape(&config.describe()),
            json_escape(budget.label()),
            stats_to_json(stats),
        );
        self.commit_entry(&hex, "point", point, config, budget, &entry);
    }

    /// Looks up a derived scalar (stored bit-exactly).
    pub fn load_derived(&self, key: u128) -> Option<f64> {
        let text = std::fs::read_to_string(self.entry_path(key)).ok()?;
        if json_field(&text, "key")? != format!("{key:032x}") {
            return None;
        }
        json_field(&text, "value_bits")?.parse::<u64>().ok().map(f64::from_bits)
    }

    /// Stores a derived scalar under its [`derived_key`].
    pub fn store_derived(
        &self,
        key: u128,
        tag: &str,
        config: &SimConfig,
        budget: &Budget,
        value: f64,
    ) {
        let hex = format!("{key:032x}");
        let entry = format!(
            "{{\"key\":\"{hex}\",\"kind\":\"derived\",\"point\":\"{}\",\
             \"config\":\"{}\",\"budget\":\"{}\",\"salt\":\"{CACHE_SALT}\",\
             \"value_bits\":{}}}\n",
            json_escape(tag),
            json_escape(&config.describe()),
            json_escape(budget.label()),
            value.to_bits(),
        );
        self.commit_entry(&hex, "derived", tag, config, budget, &entry);
    }

    fn commit_entry(
        &self,
        hex: &str,
        kind: &str,
        point: &str,
        config: &SimConfig,
        budget: &Budget,
        entry: &str,
    ) {
        let key: u128 = u128::from_str_radix(hex, 16).expect("hex key");
        let path = self.entry_path(key);
        if let Err(e) = atomic_write(&path, entry.as_bytes()) {
            eprintln!("warning: cache store failed for {}: {e}", path.display());
            return;
        }
        let index_row = format!(
            "{{\"key\":\"{hex}\",\"kind\":\"{kind}\",\"point\":\"{}\",\
             \"config\":\"{}\",\"budget\":\"{}\"}}",
            json_escape(point),
            json_escape(&config.describe()),
            json_escape(budget.label()),
        );
        if let Err(e) = self.merge_index(&index_row) {
            eprintln!("warning: cache index update failed: {e}");
        }
    }

    /// Merges one row into `index.json` (keyed by `key`) under the
    /// advisory lock, with an atomic rewrite.
    fn merge_index(&self, row: &str) -> std::io::Result<()> {
        let path = self.index_path();
        let _guard = FileLock::acquire(&path)?;
        let existing: Vec<String> = std::fs::read_to_string(&path)
            .unwrap_or_default()
            .lines()
            .map(|l| l.trim().trim_end_matches(',').to_string())
            .filter(|l| l.starts_with('{'))
            .collect();
        let rows = parallel::merge_json_records(&existing, row, &["key"]);
        let mut out = String::from("[\n");
        for (i, r) in rows.iter().enumerate() {
            out.push_str(r);
            if i + 1 < rows.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("]\n");
        atomic_write(&path, out.as_bytes())
    }

    /// The human-readable key → (config, point, budget) listing.
    pub fn index_path(&self) -> PathBuf {
        self.dir.join("index.json")
    }
}

/// Whether `CARF_CACHE_REQUIRE_WARM` demands a fully warm run.
fn require_warm() -> bool {
    std::env::var("CARF_CACHE_REQUIRE_WARM").is_ok_and(|v| {
        let v = v.trim();
        !v.is_empty() && v != "0"
    })
}

fn fail_cold(simulated: usize) -> ! {
    eprintln!(
        "error: CARF_CACHE_REQUIRE_WARM is set but {simulated} point(s) required simulation \
         (the cache was cold or disabled)"
    );
    std::process::exit(3);
}

/// The result of a cached matrix run: the per-point suite results (input
/// order, exactly as [`crate::run_matrix`] returns) plus the cache ledger.
#[derive(Debug)]
pub struct MatrixOutcome {
    /// One [`SuiteResult`] per input point, in input order.
    pub results: Vec<SuiteResult>,
    /// Workload runs served from the cache.
    pub served: usize,
    /// Workload runs that had to be simulated.
    pub simulated: usize,
}

impl MatrixOutcome {
    /// One summary line for experiment headers and CI greps.
    pub fn summary(&self) -> String {
        format!("cache: served {}, simulated {}", self.served, self.simulated)
    }
}

/// [`crate::run_matrix`] behind the content-addressed cache: only the
/// points missing from the store are simulated (over the worker pool,
/// order-preserving); everything else is served from disk. With the cache
/// disabled every point simulates and nothing is stored.
///
/// Prints one `cache: served N, simulated M` summary line. With
/// `CARF_CACHE_REQUIRE_WARM` set, exits 3 if any point simulated.
pub fn run_matrix_cached(points: &[(SimConfig, Suite)], budget: &Budget) -> MatrixOutcome {
    let custom: Vec<(SimConfig, Suite, Vec<Workload>)> = points
        .iter()
        .map(|(config, suite)| (config.clone(), *suite, crate::suite_workloads(*suite)))
        .collect();
    run_custom_cached(&custom, budget)
}

/// [`run_matrix_cached`] over explicit workload lists instead of the
/// registry suites — the corpus path, where each point carries its own
/// set of assembled programs. Prints the cache summary line and enforces
/// `CARF_CACHE_REQUIRE_WARM` like [`run_matrix_cached`].
pub fn run_custom_cached(
    points: &[(SimConfig, Suite, Vec<Workload>)],
    budget: &Budget,
) -> MatrixOutcome {
    let cache = ResultCache::from_env();
    let outcome = run_custom_with_cache(points, budget, cache.as_ref());
    println!("{}", outcome.summary());
    if outcome.simulated > 0 && require_warm() {
        fail_cold(outcome.simulated);
    }
    outcome
}

/// [`run_custom_cached`] against an explicit cache (`None` = bypass),
/// without printing or warm enforcement. Workloads are addressed by
/// [`workload_identity`], so fixed-program (corpus) points key on program
/// content, not just name.
pub fn run_custom_with_cache(
    points: &[(SimConfig, Suite, Vec<Workload>)],
    budget: &Budget,
    cache: Option<&ResultCache>,
) -> MatrixOutcome {
    parallel::note_run_start();
    let mut flat: Vec<(usize, Suite, &Workload)> = Vec::new();
    for (pi, (_, suite, workloads)) in points.iter().enumerate() {
        for w in workloads {
            flat.push((pi, *suite, w));
        }
    }

    // Partition into served and to-simulate without losing the flat order.
    let mut runs: Vec<Option<(String, SimStats)>> = Vec::with_capacity(flat.len());
    let mut cold: Vec<usize> = Vec::new();
    for (fi, (pi, suite, w)) in flat.iter().enumerate() {
        let hit = cache.and_then(|c| {
            c.load_point(point_key(&points[*pi].0, *suite, &workload_identity(w), budget))
        });
        match hit {
            Some(stats) => runs.push(Some((w.name.to_string(), stats))),
            None => {
                runs.push(None);
                cold.push(fi);
            }
        }
    }

    let simulated = cold.len();
    let served = flat.len() - simulated;
    let fresh = parallel::run_ordered(&cold, budget.jobs, |fi| {
        let (pi, suite, w) = &flat[*fi];
        crate::run_workload_timed(&points[*pi].0, *suite, w, budget)
    });
    for (fi, run) in cold.iter().zip(fresh) {
        let (pi, suite, w) = &flat[*fi];
        if let Some(c) = cache {
            c.store_point(
                point_key(&points[*pi].0, *suite, &workload_identity(w), budget),
                &format!("{suite:?}/{}", workload_identity(w)),
                &points[*pi].0,
                budget,
                &run.1,
            );
        }
        runs[*fi] = Some(run);
    }

    let mut results: Vec<SuiteResult> = points
        .iter()
        .map(|(_, suite, _)| SuiteResult { suite: *suite, runs: Vec::new() })
        .collect();
    for ((pi, _, _), run) in flat.iter().zip(runs) {
        results[*pi].runs.push(run.expect("every flat slot is filled"));
    }
    MatrixOutcome { results, served, simulated }
}

/// A cached named derived scalar: served bit-exactly from the store when
/// present, otherwise computed by `compute` and stored. Honors
/// `CARF_CACHE` and `CARF_CACHE_REQUIRE_WARM` like [`run_matrix_cached`].
/// Returns the value and its provenance.
pub fn cached_derived_f64(
    tag: &str,
    config: &SimConfig,
    budget: &Budget,
    compute: impl FnOnce() -> f64,
) -> (f64, CacheStatus) {
    let Some(cache) = ResultCache::from_env() else {
        if require_warm() {
            fail_cold(1);
        }
        return (compute(), CacheStatus::Bypass);
    };
    let key = derived_key(tag, config, budget);
    if let Some(v) = cache.load_derived(key) {
        return (v, CacheStatus::Hit);
    }
    if require_warm() {
        fail_cold(1);
    }
    let v = compute();
    cache.store_derived(key, tag, config, budget, v);
    (v, CacheStatus::Miss)
}

// ---------------------------------------------------------------------
// Multi-context points: one cache entry per co-simulation.
// ---------------------------------------------------------------------

/// Version tag for the packed multi-context entry encoding (the
/// `threads` field of a `"kind":"multi"` entry). Bump alongside any
/// change to [`MultiThreadRecord`]'s stored fields.
pub const MULTI_CODEC_VERSION: u32 = 1;

/// One multi-context co-simulation point: an **ordered** tuple of
/// per-context (configuration, workload) pairs under one
/// [`SharingPolicy`]. The order is part of the identity — context index
/// decides fetch-arbitration priority and the round-robin rotation, so
/// swapping two contexts is a different experiment.
#[derive(Debug)]
pub struct MultiPoint {
    /// Human-readable label for tables and the cache index.
    pub label: String,
    /// The contexts, in arbitration order.
    pub contexts: Vec<(SimConfig, Workload)>,
    /// How the contexts share physical resources.
    pub policy: SharingPolicy,
    /// Shared-clock cycle ceiling.
    pub max_cycles: u64,
    /// Per-context committed-instruction quota.
    pub per_thread_insts: u64,
}

/// The cached per-context outcome — exactly the fields IPC and the
/// guard-stall shares derive from, so a warm record is byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiThreadRecord {
    /// Instructions the context committed.
    pub committed: u64,
    /// The context's active cycles (already clamped to ≥ 1 by the
    /// simulator, so [`MultiThreadRecord::ipc`] reproduces the live
    /// value bit-for-bit).
    pub cycles: u64,
    /// Cycles issue stalled on the (possibly windowed) Long guard.
    pub long_guard_stall_cycles: u64,
}

impl MultiThreadRecord {
    /// IPC over the context's active cycles — the same division
    /// `MultiSim::results` performs, on the same integers.
    pub fn ipc(&self) -> f64 {
        self.committed as f64 / self.cycles as f64
    }

    /// Guard-stall cycles as a fraction of the context's active cycles.
    pub fn stall_share(&self) -> f64 {
        self.long_guard_stall_cycles as f64 / self.cycles as f64
    }

    fn pack(&self) -> String {
        format!("{}/{}/{}", self.committed, self.cycles, self.long_guard_stall_cycles)
    }

    fn unpack(text: &str) -> Option<Self> {
        let mut it = text.split('/');
        let committed = it.next()?.parse().ok()?;
        let cycles = it.next()?.parse().ok()?;
        let long_guard_stall_cycles = it.next()?.parse().ok()?;
        if it.next().is_some() {
            return None;
        }
        Some(Self { committed, cycles, long_guard_stall_cycles })
    }
}

/// The canonical key text of one multi-context point: the sharing
/// policy, the run quotas, the budget, and the **ordered** tuple of
/// per-context fingerprints — each context's full [`canonical_config`]
/// plus its [`workload_identity`]. Any perturbation of any context (or
/// of their order) is a different key.
pub fn multi_key_text(point: &MultiPoint, budget: &Budget) -> String {
    let mut out = format!(
        "salt={CACHE_SALT};multicodec={MULTI_CODEC_VERSION};policy={};\
         max_cycles={};per_thread={};{}n={};",
        point.policy.canonical(),
        point.max_cycles,
        point.per_thread_insts,
        canonical_budget(budget),
        point.contexts.len(),
    );
    for (i, (config, workload)) in point.contexts.iter().enumerate() {
        let _ = write!(
            out,
            "ctx{i}={}|{}",
            workload_identity(workload),
            canonical_config(config)
        );
    }
    out
}

/// The content address of one multi-context point.
pub fn multi_key(point: &MultiPoint, budget: &Budget) -> u128 {
    fnv128(&multi_key_text(point, budget))
}

impl ResultCache {
    /// Looks up a multi-context point: the per-context records, in
    /// context order. Unreadable or malformed entries are misses.
    pub fn load_multi(&self, key: u128) -> Option<Vec<MultiThreadRecord>> {
        let text = std::fs::read_to_string(self.entry_path(key)).ok()?;
        if json_field(&text, "key")? != format!("{key:032x}") {
            return None;
        }
        let packed = json_field(&text, "threads")?;
        let threads: Option<Vec<MultiThreadRecord>> =
            packed.split(',').map(MultiThreadRecord::unpack).collect();
        threads.filter(|t| !t.is_empty())
    }

    /// Stores a multi-context point (indexed under the first context's
    /// configuration — the index is a human-readable ledger, not the
    /// identity; the key already covers every context).
    pub fn store_multi(
        &self,
        key: u128,
        point: &MultiPoint,
        budget: &Budget,
        threads: &[MultiThreadRecord],
    ) {
        let hex = format!("{key:032x}");
        let packed: Vec<String> = threads.iter().map(MultiThreadRecord::pack).collect();
        let config = &point.contexts.first().expect("a multi point has contexts").0;
        let entry = format!(
            "{{\"key\":\"{hex}\",\"kind\":\"multi\",\"point\":\"{}\",\
             \"policy\":\"{}\",\"config\":\"{}\",\"budget\":\"{}\",\
             \"salt\":\"{CACHE_SALT}\",\"threads\":\"{}\"}}\n",
            json_escape(&point.label),
            json_escape(&point.policy.canonical()),
            json_escape(&config.describe()),
            json_escape(budget.label()),
            json_escape(&packed.join(",")),
        );
        self.commit_entry(&hex, "multi", &point.label, config, budget, &entry);
    }
}

/// The result of a cached multi-context run: per-point, per-context
/// records (input order) plus the cache ledger.
#[derive(Debug)]
pub struct MultiOutcome {
    /// One record vector per input point, one record per context.
    pub results: Vec<Vec<MultiThreadRecord>>,
    /// Co-simulations served from the cache.
    pub served: usize,
    /// Co-simulations that had to run.
    pub simulated: usize,
}

impl MultiOutcome {
    /// One summary line for experiment headers and CI greps.
    pub fn summary(&self) -> String {
        format!("cache: served {}, simulated {}", self.served, self.simulated)
    }
}

/// Runs multi-context points behind the content-addressed cache: cold
/// points co-simulate over the worker pool (each co-simulation is one
/// work item — its contexts are lockstep-coupled and cannot split),
/// warm points are served from disk. Prints the `cache: served N,
/// simulated M` line; with `CARF_CACHE_REQUIRE_WARM` set, exits 3 if
/// any point simulated.
///
/// Interval sampling does not apply to lockstep co-simulation;
/// `budget.sample` is ignored here (it still participates in the key
/// through the canonical budget, like every budget field).
pub fn run_multi_cached(points: &[MultiPoint], budget: &Budget) -> MultiOutcome {
    let cache = ResultCache::from_env();
    let outcome = run_multi_with_cache(points, budget, cache.as_ref());
    println!("{}", outcome.summary());
    if outcome.simulated > 0 && require_warm() {
        fail_cold(outcome.simulated);
    }
    outcome
}

/// [`run_multi_cached`] against an explicit cache (`None` = bypass),
/// without printing or warm enforcement.
pub fn run_multi_with_cache(
    points: &[MultiPoint],
    budget: &Budget,
    cache: Option<&ResultCache>,
) -> MultiOutcome {
    parallel::note_run_start();
    let mut results: Vec<Option<Vec<MultiThreadRecord>>> = Vec::with_capacity(points.len());
    let mut cold: Vec<usize> = Vec::new();
    for (pi, point) in points.iter().enumerate() {
        match cache.and_then(|c| c.load_multi(multi_key(point, budget))) {
            Some(threads) if threads.len() == point.contexts.len() => {
                results.push(Some(threads));
            }
            _ => {
                results.push(None);
                cold.push(pi);
            }
        }
    }

    let simulated = cold.len();
    let served = points.len() - simulated;
    let fresh = parallel::run_ordered(&cold, budget.jobs, |pi| {
        let point = &points[*pi];
        let programs: Vec<_> = point
            .contexts
            .iter()
            .map(|(_, w)| w.build(w.size(budget.size)))
            .collect();
        let contexts: Vec<_> = point
            .contexts
            .iter()
            .zip(&programs)
            .map(|((config, _), program)| (config.clone(), program))
            .collect();
        let mut multi = MultiSim::new(contexts, point.policy)
            .unwrap_or_else(|e| panic!("{}: {e}", point.label));
        let run = multi
            .run(point.max_cycles, point.per_thread_insts)
            .unwrap_or_else(|e| panic!("{}: {e}", point.label));
        run.into_iter()
            .map(|r| MultiThreadRecord {
                committed: r.committed,
                cycles: r.cycles,
                long_guard_stall_cycles: r.long_guard_stall_cycles,
            })
            .collect::<Vec<_>>()
    });
    for (pi, threads) in cold.iter().zip(fresh) {
        if let Some(c) = cache {
            c.store_multi(multi_key(&points[*pi], budget), &points[*pi], budget, &threads);
        }
        results[*pi] = Some(threads);
    }

    MultiOutcome {
        results: results.into_iter().map(|r| r.expect("every point is filled")).collect(),
        served,
        simulated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carf_core::CarfParams;

    fn temp_cache(tag: &str) -> ResultCache {
        let dir = std::env::temp_dir()
            .join(format!("carf-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ResultCache::at(dir)
    }

    #[test]
    fn key_covers_config_workload_and_budget() {
        let budget = Budget::quick();
        let base = point_key(&SimConfig::paper_baseline(), Suite::Int, "tridiag", &budget);
        // Same everything → same key.
        assert_eq!(
            base,
            point_key(&SimConfig::paper_baseline(), Suite::Int, "tridiag", &budget)
        );
        // Any semantic perturbation → different key.
        let mut cfg = SimConfig::paper_baseline();
        cfg.rob_size += 1;
        assert_ne!(base, point_key(&cfg, Suite::Int, "tridiag", &budget));
        assert_ne!(
            base,
            point_key(&SimConfig::paper_baseline(), Suite::Int, "hash_mix", &budget)
        );
        let mut b2 = budget;
        b2.max_insts += 1;
        assert_ne!(base, point_key(&SimConfig::paper_baseline(), Suite::Int, "tridiag", &b2));
        let mut b3 = budget;
        b3.sample = Some(SampleSpec::default());
        assert_ne!(base, point_key(&SimConfig::paper_baseline(), Suite::Int, "tridiag", &b3));
    }

    #[test]
    fn jobs_do_not_split_the_key() {
        let mut a = Budget::quick();
        a.jobs = 1;
        let mut b = Budget::quick();
        b.jobs = 16;
        let cfg = SimConfig::paper_carf(CarfParams::paper_default());
        assert_eq!(
            point_key(&cfg, Suite::Int, "tridiag", &a),
            point_key(&cfg, Suite::Int, "tridiag", &b)
        );
    }

    #[test]
    fn canonical_config_distinguishes_backends_and_policies() {
        let texts: Vec<String> = [
            SimConfig::paper_baseline(),
            SimConfig::paper_unlimited(),
            SimConfig::paper_carf(CarfParams::paper_default()),
            SimConfig::paper_compressed(CarfParams::paper_default()),
            SimConfig::paper_port_reduced(carf_core::PortReducedParams::default()),
        ]
        .iter()
        .map(canonical_config)
        .collect();
        for (i, a) in texts.iter().enumerate() {
            for b in texts.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
        let mut pol = carf_core::Policies::default();
        pol.extra_bypass = !pol.extra_bypass;
        let tweaked =
            SimConfig::paper_carf_with(CarfParams::paper_default(), pol);
        assert_ne!(canonical_config(&tweaked), texts[2]);
    }

    #[test]
    fn store_and_load_round_trip() {
        let cache = temp_cache("roundtrip");
        let cfg = SimConfig::test_small();
        let budget = Budget::quick();
        let key = point_key(&cfg, Suite::Int, "tridiag", &budget);
        assert!(cache.load_point(key).is_none(), "cold cache misses");
        let stats = SimStats {
            cycles: 4242,
            committed: 9001,
            long_mean_live: 0.1 + 0.2,
            ..SimStats::default()
        };
        cache.store_point(key, "Int/tridiag", &cfg, &budget, &stats);
        let back = cache.load_point(key).expect("warm cache hits");
        assert_eq!(back, stats);
        assert_eq!(back.long_mean_live.to_bits(), stats.long_mean_live.to_bits());
        // The index knows the entry.
        let index = std::fs::read_to_string(cache.index_path()).unwrap();
        assert!(index.contains(&format!("{key:032x}")), "{index}");
        assert!(index.contains("Int/tridiag"));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn derived_values_round_trip_bit_exactly() {
        let cache = temp_cache("derived");
        let cfg = SimConfig::test_small();
        let budget = Budget::quick();
        let key = derived_key("stall_share", &cfg, &budget);
        assert!(cache.load_derived(key).is_none());
        let v = 0.123_456_789_f64;
        cache.store_derived(key, "stall_share", &cfg, &budget, v);
        assert_eq!(cache.load_derived(key).map(f64::to_bits), Some(v.to_bits()));
        // A different tag is a different address.
        assert_ne!(key, derived_key("other", &cfg, &budget));
        // Point keys and derived keys never collide on the same config.
        assert!(cache.load_point(key).is_none(), "derived entry is not a point");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn workload_identity_keys_fixed_programs_by_content() {
        // Synthetic kernels: identity is the bare name (golden keys in
        // tests/cache_keys.rs depend on this staying stable).
        let synthetic = &carf_workloads::int_suite()[0];
        assert_eq!(workload_identity(synthetic), synthetic.name);

        let a = Workload::from_program(
            "kernel",
            Suite::Int,
            "",
            carf_isa::parse_asm("li x1, 1\nhalt\n").unwrap(),
        );
        let b = Workload::from_program(
            "kernel",
            Suite::Int,
            "",
            carf_isa::parse_asm("li x1, 2\nhalt\n").unwrap(),
        );
        let (ia, ib) = (workload_identity(&a), workload_identity(&b));
        assert!(ia.starts_with("kernel#"), "{ia}");
        // Same name, one-immediate edit → different identity → different key.
        assert_ne!(ia, ib);
        let budget = Budget::quick();
        let cfg = SimConfig::paper_baseline();
        assert_ne!(
            point_key(&cfg, Suite::Int, &ia, &budget),
            point_key(&cfg, Suite::Int, &ib, &budget)
        );
    }

    #[test]
    fn entry_paths_are_sharded() {
        let cache = temp_cache("shard");
        let p = cache.entry_path(0xabcd_0000_0000_0000_0000_0000_0000_0001);
        let shard = p.parent().unwrap().file_name().unwrap().to_str().unwrap();
        assert_eq!(shard, "ab");
        assert!(p.file_name().unwrap().to_str().unwrap().ends_with(".json"));
    }

    fn multi_point(names: [&str; 2], policy: SharingPolicy) -> MultiPoint {
        let pick = |name: &str| {
            carf_workloads::all_workloads()
                .into_iter()
                .find(|w| w.name == name)
                .unwrap_or_else(|| panic!("workload {name}"))
        };
        let cfg = SimConfig::paper_carf(CarfParams::paper_default());
        MultiPoint {
            label: format!("{}+{}", names[0], names[1]),
            contexts: names.iter().map(|n| (cfg.clone(), pick(n))).collect(),
            policy,
            max_cycles: 2_000_000,
            per_thread_insts: 3_000,
        }
    }

    #[test]
    fn multi_key_covers_policy_order_and_every_context() {
        let budget = Budget::quick();
        let p = multi_point(["pointer_chase", "hash_table"], SharingPolicy::shared_long(48));
        let base = multi_key(&p, &budget);
        // Reconstructing the same point reproduces the key.
        assert_eq!(
            base,
            multi_key(
                &multi_point(["pointer_chase", "hash_table"], SharingPolicy::shared_long(48)),
                &budget
            )
        );
        // Policy, context order, any context's config, and quotas all
        // perturb the key.
        assert_ne!(
            base,
            multi_key(
                &multi_point(["pointer_chase", "hash_table"], SharingPolicy::shared_long(44)),
                &budget
            )
        );
        assert_ne!(
            base,
            multi_key(
                &multi_point(["hash_table", "pointer_chase"], SharingPolicy::shared_long(48)),
                &budget
            )
        );
        let mut tweaked = multi_point(["pointer_chase", "hash_table"], SharingPolicy::shared_long(48));
        tweaked.contexts[1].0.rob_size += 1;
        assert_ne!(base, multi_key(&tweaked, &budget));
        let mut quotas = multi_point(["pointer_chase", "hash_table"], SharingPolicy::shared_long(48));
        quotas.per_thread_insts += 1;
        assert_ne!(base, multi_key(&quotas, &budget));
    }

    #[test]
    fn multi_records_round_trip() {
        let cache = temp_cache("multi");
        let budget = Budget::quick();
        let point = multi_point(["pointer_chase", "hash_table"], SharingPolicy::shared_long(48));
        let key = multi_key(&point, &budget);
        assert!(cache.load_multi(key).is_none(), "cold cache misses");
        let threads = vec![
            MultiThreadRecord { committed: 3_000, cycles: 4_321, long_guard_stall_cycles: 17 },
            MultiThreadRecord { committed: 3_000, cycles: 5_000, long_guard_stall_cycles: 0 },
        ];
        cache.store_multi(key, &point, &budget, &threads);
        let back = cache.load_multi(key).expect("warm cache hits");
        assert_eq!(back, threads);
        // The derived IPC is the same division on the same integers.
        assert_eq!(back[0].ipc().to_bits(), (3_000f64 / 4_321f64).to_bits());
        let index = std::fs::read_to_string(cache.index_path()).unwrap();
        assert!(index.contains("pointer_chase+hash_table"), "{index}");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn warm_multi_run_serves_identical_records_without_simulating() {
        let cache = temp_cache("multi-run");
        let mut budget = Budget::quick();
        budget.size = SizeClass::Test;
        budget.jobs = 1;
        let points = vec![multi_point(
            ["pointer_chase", "hash_table"],
            SharingPolicy::shared_long(48),
        )];
        let cold = run_multi_with_cache(&points, &budget, Some(&cache));
        assert_eq!((cold.served, cold.simulated), (0, 1));
        assert_eq!(cold.results[0].len(), 2);
        let warm = run_multi_with_cache(&points, &budget, Some(&cache));
        assert_eq!((warm.served, warm.simulated), (1, 0));
        assert_eq!(warm.results, cold.results);
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}
