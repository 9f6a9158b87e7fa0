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
//! first key byte), each one line of compact JSON written atomically by
//! [`crate::fsio::atomic_write`]: `key`, `kind`, `point`, (a multi
//! entry's `policy`,) `config`, `budget`, `salt`, then the payload —
//! the exact [`crate::statsio`] object, a derived scalar's bits, or a
//! multi point's packed `threads` string — so a warm run reproduces
//! **byte-identical** downstream result records. Entries are built and
//! parsed through [`crate::json`]; one that does not parse is a miss.
//! There is no index: each entry's first members already say what it
//! holds, so a store is one atomic rename and a listing reads the entries.
//!
//! Simulation points, multi-context co-simulations and derived scalars go
//! through one loop: look every item up by key, simulate the misses over
//! the worker pool in input order, store their entries, and return an
//! [`Outcome`] ledger. Each public runner is a typed front-end that
//! supplies the key, the decoder, the simulation and the entry; the
//! `*_cached` ones print the ledger as `cache: served N, simulated M`.
//!
//! Environment knobs:
//!
//! * `CARF_CACHE=0` (or `off`) — bypass the cache entirely;
//! * `CARF_CACHE_REQUIRE_WARM=1` — fail (exit 3) if any point has to be
//!   simulated: CI uses this to prove a warm re-run does zero simulation.

use crate::fsio::atomic_write;
use crate::json::{self, Value};
use crate::parallel;
use crate::sample::SampleSpec;
use crate::statsio::{stats_from_value, stats_to_value, STATS_CODEC_VERSION};
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

    /// The parsed entry for `key`; `None` when it is absent, unreadable,
    /// not JSON, or filed under another key.
    fn load_entry(&self, key: u128) -> Option<Value> {
        let text = std::fs::read_to_string(self.entry_path(key)).ok()?;
        let entry = json::parse(&text).ok()?;
        (entry.get("key")?.as_str()? == format!("{key:032x}")).then_some(entry)
    }

    /// Looks up a simulation point. Any unreadable, mismatched, or
    /// stale-codec entry is a miss, never an error.
    pub fn load_point(&self, key: u128) -> Option<SimStats> {
        stats_from_value(self.load_entry(key)?.get("stats")?).ok()
    }

    /// Stores a simulation point.
    pub fn store_point(
        &self,
        key: u128,
        point: &str,
        config: &SimConfig,
        budget: &Budget,
        stats: &SimStats,
    ) {
        self.store(key, &point_entry(key, point, config, budget, stats));
    }

    /// Looks up a derived scalar (stored bit-exactly).
    pub fn load_derived(&self, key: u128) -> Option<f64> {
        self.load_entry(key)?.get("value_bits")?.as_u64().map(f64::from_bits)
    }

    /// Looks up a multi-context point: the per-context records, in
    /// context order. Unreadable or malformed entries are misses.
    pub fn load_multi(&self, key: u128) -> Option<Vec<MultiThreadRecord>> {
        let entry = self.load_entry(key)?;
        let threads: Option<Vec<MultiThreadRecord>> =
            entry.get("threads")?.as_str()?.split(',').map(MultiThreadRecord::unpack).collect();
        threads.filter(|t| !t.is_empty())
    }

    /// Writes `entry` as one line under `key`. A failure is reported to
    /// stderr but never aborts an experiment: the simulation result in
    /// hand is still valid.
    fn store(&self, key: u128, entry: &Value) {
        let path = self.entry_path(key);
        if let Err(e) = atomic_write(&path, format!("{entry}\n").as_bytes()) {
            eprintln!("warning: cache store failed for {}: {e}", path.display());
        }
    }
}

/// An entry: `key`, `kind`, `point`, `extra` (a multi entry's `policy`),
/// `config`, `budget`, `salt`, and last the `payload` member.
fn entry(
    key: u128,
    kind: &str,
    point: &str,
    extra: Option<(&str, Value)>,
    config: &SimConfig,
    budget: &Budget,
    payload: (&str, Value),
) -> Value {
    let head = [
        ("key", format!("{key:032x}").into()),
        ("kind", kind.into()),
        ("point", point.into()),
    ];
    let tail = [
        ("config", config.describe().into()),
        ("budget", budget.label().into()),
        ("salt", CACHE_SALT.into()),
        payload,
    ];
    Value::object(head.into_iter().chain(extra).chain(tail))
}

/// A simulation point's entry: the exact [`crate::statsio`] object.
fn point_entry(
    key: u128,
    point: &str,
    config: &SimConfig,
    budget: &Budget,
    stats: &SimStats,
) -> Value {
    entry(key, "point", point, None, config, budget, ("stats", stats_to_value(stats)))
}

/// A derived scalar's entry, labelled with its tag: the value's bits.
fn derived_entry(key: u128, tag: &str, config: &SimConfig, budget: &Budget, value: f64) -> Value {
    entry(key, "derived", tag, None, config, budget, ("value_bits", value.to_bits().into()))
}

/// The result of a cached run: one result per input item, in input
/// order, plus the cache ledger.
#[derive(Debug)]
pub struct Outcome<T> {
    /// One result per input item, in input order.
    pub results: Vec<T>,
    /// Items served from the cache.
    pub served: usize,
    /// Items that had to be simulated.
    pub simulated: usize,
}

/// Runs `run` against [`ResultCache::from_env`], prints its ledger as
/// `cache: served N, simulated M` and, when `CARF_CACHE_REQUIRE_WARM` is
/// set (and not `0`), exits 3 if anything simulated.
fn announced<T>(run: impl FnOnce(Option<&ResultCache>) -> Outcome<T>) -> Outcome<T> {
    let outcome = run(ResultCache::from_env().as_ref());
    println!("cache: served {}, simulated {}", outcome.served, outcome.simulated);
    let require_warm = std::env::var("CARF_CACHE_REQUIRE_WARM")
        .is_ok_and(|v| !matches!(v.trim(), "" | "0"));
    if outcome.simulated > 0 && require_warm {
        eprintln!(
            "error: CARF_CACHE_REQUIRE_WARM is set but {} point(s) required simulation \
             (the cache was cold or disabled)",
            outcome.simulated
        );
        std::process::exit(3);
    }
    outcome
}

/// The one cache loop. Looks every item up under its `key` through
/// `load`, simulates the misses with `compute` over the worker pool (in
/// input order), stores each one as `entry` builds it, and returns every
/// result with the ledger. With no cache every item simulates, nothing
/// is stored and no key is computed.
fn cached<I: Sync, T: Send>(
    items: &[I],
    budget: &Budget,
    cache: Option<&ResultCache>,
    key: impl Fn(&I) -> u128,
    load: impl Fn(&ResultCache, u128, &I) -> Option<T>,
    compute: impl Fn(&I) -> T + Sync,
    entry: impl Fn(u128, &I, &T) -> Value,
) -> Outcome<T> {
    parallel::note_run_start();
    let keys: Vec<u128> = match cache {
        Some(_) => items.iter().map(key).collect(),
        None => Vec::new(),
    };
    let mut results: Vec<Option<T>> = (0..items.len())
        .map(|i| cache.and_then(|c| load(c, keys[i], &items[i])))
        .collect();
    let cold: Vec<usize> = (0..items.len()).filter(|&i| results[i].is_none()).collect();
    let fresh = parallel::run_ordered(&cold, budget.jobs, |&i| compute(&items[i]));
    for (&i, value) in cold.iter().zip(fresh) {
        if let Some(c) = cache {
            c.store(keys[i], &entry(keys[i], &items[i], &value));
        }
        results[i] = Some(value);
    }
    Outcome {
        results: results.into_iter().map(|r| r.expect("every item is filled")).collect(),
        served: items.len() - cold.len(),
        simulated: cold.len(),
    }
}

/// `(configuration, suite)` pairs as [`run_custom_cached`] points, each
/// carrying its suite's registry workloads in registry order.
pub fn suite_points(points: &[(SimConfig, Suite)]) -> Vec<(SimConfig, Suite, Vec<Workload>)> {
    points
        .iter()
        .map(|(config, suite)| (config.clone(), *suite, crate::suite_workloads(*suite)))
        .collect()
}

/// Runs several `(configuration, suite)` points as one flat work list
/// behind the content-addressed cache: only the workload runs missing
/// from the store are simulated (over the worker pool, order-preserving);
/// everything else is served from disk. With the cache disabled every
/// point simulates and nothing is stored.
///
/// Prints one `cache: served N, simulated M` summary line. With
/// `CARF_CACHE_REQUIRE_WARM` set, exits 3 if any point simulated.
pub fn run_matrix_cached(points: &[(SimConfig, Suite)], budget: &Budget) -> Outcome<SuiteResult> {
    run_custom_cached(&suite_points(points), budget)
}

/// [`run_matrix_cached`] over explicit workload lists instead of the
/// registry suites — the corpus path, where each point carries its own
/// set of assembled programs. Prints the cache summary line and enforces
/// `CARF_CACHE_REQUIRE_WARM` like [`run_matrix_cached`].
pub fn run_custom_cached(
    points: &[(SimConfig, Suite, Vec<Workload>)],
    budget: &Budget,
) -> Outcome<SuiteResult> {
    announced(|cache| run_custom_with_cache(points, budget, cache))
}

/// [`run_custom_cached`] against an explicit cache (`None` = bypass),
/// without printing or warm enforcement: the one function that runs every
/// matrix. Workloads are addressed by [`workload_identity`], so
/// fixed-program (corpus) points key on program content, not just name.
pub fn run_custom_with_cache(
    points: &[(SimConfig, Suite, Vec<Workload>)],
    budget: &Budget,
    cache: Option<&ResultCache>,
) -> Outcome<SuiteResult> {
    let flat: Vec<(&SimConfig, Suite, &Workload)> = points
        .iter()
        .flat_map(|(config, suite, workloads)| workloads.iter().map(move |w| (config, *suite, w)))
        .collect();
    let runs = cached(
        &flat,
        budget,
        cache,
        |&(config, suite, w)| point_key(config, suite, &workload_identity(w), budget),
        |c, key, &(_, _, w)| Some((w.name.to_string(), c.load_point(key)?)),
        |&(config, suite, w)| crate::run_workload_timed(config, suite, w, budget),
        |key, &(config, suite, w), (_, stats)| {
            let label = format!("{suite:?}/{}", workload_identity(w));
            point_entry(key, &label, config, budget, stats)
        },
    );
    let mut flat_runs = runs.results.into_iter();
    let results = points
        .iter()
        .map(|(_, suite, workloads)| SuiteResult {
            suite: *suite,
            runs: flat_runs.by_ref().take(workloads.len()).collect(),
        })
        .collect();
    Outcome { results, served: runs.served, simulated: runs.simulated }
}

/// A named derived scalar (e.g. a traced stall share) of each
/// configuration, in input order: served bit-exactly from the store when
/// present, otherwise computed by `compute` over the worker pool and
/// stored under its [`derived_key`]. Prints the cache summary line and
/// enforces `CARF_CACHE_REQUIRE_WARM` like [`run_matrix_cached`].
pub fn run_derived_cached(
    tag: &str,
    configs: &[SimConfig],
    budget: &Budget,
    compute: impl Fn(&SimConfig) -> f64 + Sync,
) -> Outcome<f64> {
    announced(|cache| run_derived_with_cache(tag, configs, budget, cache, compute))
}

/// [`run_derived_cached`] against an explicit cache, without printing or
/// warm enforcement.
fn run_derived_with_cache(
    tag: &str,
    configs: &[SimConfig],
    budget: &Budget,
    cache: Option<&ResultCache>,
    compute: impl Fn(&SimConfig) -> f64 + Sync,
) -> Outcome<f64> {
    cached(
        configs,
        budget,
        cache,
        |config| derived_key(tag, config, budget),
        |c, key, _| c.load_derived(key),
        compute,
        |key, config, value| derived_entry(key, tag, config, budget, *value),
    )
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
    /// Human-readable label for tables and the cache entry.
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

/// A multi-context point's entry: the packed per-context records, under
/// the first context's configuration (the key covers every context).
fn multi_entry(
    key: u128,
    point: &MultiPoint,
    budget: &Budget,
    threads: &[MultiThreadRecord],
) -> Value {
    let packed: Vec<String> = threads.iter().map(MultiThreadRecord::pack).collect();
    let config = &point.contexts.first().expect("a multi point has contexts").0;
    let policy = Some(("policy", point.policy.canonical().into()));
    let threads = ("threads", packed.join(",").into());
    entry(key, "multi", &point.label, policy, config, budget, threads)
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
pub fn run_multi_cached(points: &[MultiPoint], budget: &Budget) -> Outcome<Vec<MultiThreadRecord>> {
    announced(|cache| run_multi_with_cache(points, budget, cache))
}

/// [`run_multi_cached`] against an explicit cache (`None` = bypass),
/// without printing or warm enforcement. A stored entry with another
/// number of contexts than the point is a miss.
pub fn run_multi_with_cache(
    points: &[MultiPoint],
    budget: &Budget,
    cache: Option<&ResultCache>,
) -> Outcome<Vec<MultiThreadRecord>> {
    cached(
        points,
        budget,
        cache,
        |point| multi_key(point, budget),
        |c, key, point| c.load_multi(key).filter(|t| t.len() == point.contexts.len()),
        |point| co_simulate(point, budget),
        |key, point, threads| multi_entry(key, point, budget, threads),
    )
}

/// One co-simulation: every context's program built at the budget's size,
/// run in lockstep to the point's quotas.
fn co_simulate(point: &MultiPoint, budget: &Budget) -> Vec<MultiThreadRecord> {
    let programs: Vec<_> =
        point.contexts.iter().map(|(_, w)| w.build(w.size(budget.size))).collect();
    let contexts: Vec<_> = point
        .contexts
        .iter()
        .zip(&programs)
        .map(|((config, _), program)| (config.clone(), program))
        .collect();
    let mut multi =
        MultiSim::new(contexts, point.policy).unwrap_or_else(|e| panic!("{}: {e}", point.label));
    let run = multi
        .run(point.max_cycles, point.per_thread_insts)
        .unwrap_or_else(|e| panic!("{}: {e}", point.label));
    run.into_iter()
        .map(|r| MultiThreadRecord {
            committed: r.committed,
            cycles: r.cycles,
            long_guard_stall_cycles: r.long_guard_stall_cycles,
        })
        .collect()
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

    /// Test-sized workloads, 5k instructions, one worker.
    fn tiny_budget() -> Budget {
        let mut budget = Budget::quick();
        budget.size = SizeClass::Test;
        budget.max_insts = 5_000;
        budget.jobs = 1;
        budget
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
        // The entry names itself.
        let text = std::fs::read_to_string(cache.entry_path(key)).unwrap();
        let head = format!("{{\"key\":\"{key:032x}\",\"kind\":\"point\",");
        assert!(text.starts_with(&head), "{text}");
        assert!(text.contains("\"point\":\"Int/tridiag\""), "{text}");
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
        cache.store(key, &derived_entry(key, "stall_share", &cfg, &budget, v));
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
    fn entries_re_emit_byte_identically() {
        let cache = temp_cache("reemit");
        let (cfg, budget) = (SimConfig::test_small(), Budget::quick());
        let stats = SimStats { cycles: 11, long_mean_live: 0.1 + 0.2, ..SimStats::default() };
        cache.store_point(1, "Int/\"odd\\name\"", &cfg, &budget, &stats);
        cache.store(2, &derived_entry(2, "stall_share", &cfg, &budget, 0.25));
        let point = multi_point(["pointer_chase", "hash_table"], SharingPolicy::shared_long(48));
        let record = MultiThreadRecord { committed: 1, cycles: 2, long_guard_stall_cycles: 3 };
        cache.store(3, &multi_entry(3, &point, &budget, &[record, record]));
        for key in [1, 2, 3] {
            let text = std::fs::read_to_string(cache.entry_path(key)).unwrap();
            let entry = json::parse(&text).unwrap();
            assert_eq!(format!("{entry}\n"), text);
        }
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    /// Runs `run` once, rewrites the entry at `key` with `damage`, and
    /// checks that the next run re-simulates the item into the same result
    /// and the same entry bytes, and that the run after serves it.
    fn a_damaged_entry_re_simulates<T: PartialEq + std::fmt::Debug>(
        cache: &ResultCache,
        key: u128,
        run: impl Fn() -> Outcome<T>,
        damage: impl Fn(&str) -> String,
    ) {
        let first = run();
        assert_eq!(first.served + first.simulated, 1);
        let path = cache.entry_path(key);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, damage(&text)).unwrap();
        let rerun = run();
        assert_eq!((rerun.served, rerun.simulated), (0, 1));
        assert_eq!(rerun.results, first.results);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text, "the entry is stored again");
        let warm = run();
        assert_eq!((warm.served, warm.simulated), (1, 0));
        assert_eq!(warm.results, first.results);
    }

    #[test]
    fn a_truncated_entry_is_a_miss_that_re_simulates_and_re_stores() {
        let cache = temp_cache("truncated");
        let budget = tiny_budget();
        let truncate = |text: &str| text[..text.len() / 2].to_string();

        let w = carf_workloads::int_suite().remove(0);
        let points = vec![(SimConfig::test_small(), Suite::Int, vec![w])];
        let key = point_key(&points[0].0, Suite::Int, &workload_identity(&points[0].2[0]), &budget);
        let runs = || {
            let outcome = run_custom_with_cache(&points, &budget, Some(&cache));
            let results = outcome.results.into_iter().map(|r| r.runs).collect();
            Outcome { results, served: outcome.served, simulated: outcome.simulated }
        };
        a_damaged_entry_re_simulates(&cache, key, runs, truncate);

        let pair = ["pointer_chase", "hash_table"];
        let multi = vec![multi_point(pair, SharingPolicy::shared_long(48))];
        let key = multi_key(&multi[0], &budget);
        let run = || run_multi_with_cache(&multi, &budget, Some(&cache));
        a_damaged_entry_re_simulates(&cache, key, run, truncate);
        // An entry with one context's record where the point has two.
        let one_thread = |text: &str| {
            let threads = cache.load_multi(key).unwrap();
            let packed = |t: &[MultiThreadRecord]| {
                t.iter().map(MultiThreadRecord::pack).collect::<Vec<_>>().join(",")
            };
            text.replace(&packed(&threads), &packed(&threads[..1]))
        };
        a_damaged_entry_re_simulates(&cache, key, run, one_thread);

        let configs = [SimConfig::test_small()];
        let key = derived_key("rob_third", &configs[0], &budget);
        let run = || {
            run_derived_with_cache("rob_third", &configs, &budget, Some(&cache), |c| {
                c.rob_size as f64 / 3.0
            })
        };
        a_damaged_entry_re_simulates(&cache, key, run, truncate);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn an_entry_serves_any_point_list_that_names_it() {
        let cache = temp_cache("any-list");
        let mut budget = tiny_budget();
        budget.jobs = 2;
        let (base, carf) =
            (SimConfig::test_small(), SimConfig::paper_carf(CarfParams::with_dn(12)));
        let int: Vec<Workload> = carf_workloads::int_suite().into_iter().take(3).collect();
        let fill = vec![(base.clone(), Suite::Int, int.clone()), (carf.clone(), Suite::Int, int)];
        let cold = run_custom_with_cache(&fill, &budget, Some(&cache));
        assert_eq!((cold.served, cold.simulated), (0, 6));
        let stats_of = |config: &SimConfig, name: &str| {
            let at = fill.iter().position(|(c, _, _)| c == config).expect("a filled config");
            let runs = &cold.results[at].runs;
            runs.iter().find(|(n, _)| n == name).expect("a filled workload").1.clone()
        };

        // Interleaved configs, one repeated, each naming a reordered subset.
        let pick = |names: &[&str]| -> Vec<Workload> {
            names.iter().map(|n| fill[0].2.iter().find(|w| w.name == *n).unwrap().clone()).collect()
        };
        let [a, b, c] = [0, 1, 2].map(|i| fill[0].2[i].name);
        let list = vec![
            (carf.clone(), Suite::Int, pick(&[c, a])),
            (base.clone(), Suite::Int, pick(&[b])),
            (carf.clone(), Suite::Int, pick(&[b, c])),
            (base, Suite::Int, pick(&[c, b, a])),
        ];
        let warm = run_custom_with_cache(&list, &budget, Some(&cache));
        assert_eq!((warm.served, warm.simulated), (8, 0));
        for ((config, _, workloads), result) in list.iter().zip(&warm.results) {
            let names: Vec<&str> = result.runs.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(names, workloads.iter().map(|w| w.name).collect::<Vec<_>>());
            for (name, stats) in &result.runs {
                assert_eq!(*stats, stats_of(config, name), "{name}");
            }
        }
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn a_run_stores_the_bytes_that_storing_each_point_alone_would() {
        let (batched, single) = (temp_cache("batched"), temp_cache("single"));
        let budget = tiny_budget();
        let config = SimConfig::test_small();
        let int: Vec<Workload> = carf_workloads::int_suite().into_iter().take(2).collect();
        let fp: Vec<Workload> = carf_workloads::fp_suite().into_iter().take(1).collect();
        let points = vec![(config.clone(), Suite::Int, int), (config.clone(), Suite::Fp, fp)];
        let run = run_custom_with_cache(&points, &budget, Some(&batched));
        let mut keys = Vec::new();
        for ((_, suite, workloads), result) in points.iter().zip(&run.results) {
            for (w, (_, stats)) in workloads.iter().zip(&result.runs) {
                let key = point_key(&config, *suite, &workload_identity(w), &budget);
                single.store_point(key, &format!("{suite:?}/{}", w.name), &config, &budget, stats);
                keys.push(key);
            }
        }
        assert_eq!(keys.len(), 3);
        for key in keys {
            let entry = |c: &ResultCache| std::fs::read(c.entry_path(key)).unwrap();
            assert_eq!(entry(&batched), entry(&single));
        }
        // The cache holds shard directories and nothing else.
        for cache in [&batched, &single] {
            for e in std::fs::read_dir(cache.dir()).unwrap() {
                assert!(e.unwrap().path().is_dir());
            }
        }
        let _ = std::fs::remove_dir_all(batched.dir());
        let _ = std::fs::remove_dir_all(single.dir());
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
        cache.store(key, &multi_entry(key, &point, &budget, &threads));
        let back = cache.load_multi(key).expect("warm cache hits");
        assert_eq!(back, threads);
        // The derived IPC is the same division on the same integers.
        assert_eq!(back[0].ipc().to_bits(), (3_000f64 / 4_321f64).to_bits());
        let text = std::fs::read_to_string(cache.entry_path(key)).unwrap();
        assert!(text.contains("\"point\":\"pointer_chase+hash_table\""), "{text}");
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
