//! The `rerun` workload's in-process probe of a filled result cache: the
//! read path (`ResultCache::load_point` / `load_derived` / `load_multi`,
//! `stats_from_json`) and the write path (`stats_to_json`, `store_point`
//! into a scratch cache), timed per entry.

use crate::report::{guarded, Report};
use carf_bench::cache::ResultCache;
use carf_bench::parallel::json_field;
use carf_bench::statsio::{stats_from_json, stats_to_json};
use carf_bench::Budget;
use carf_sim::SimConfig;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Every entry file under a cache root (`<hh>/<key>.json`), sorted.
///
/// # Errors
///
/// When the root cannot be listed.
pub fn entries(root: &Path) -> Result<Vec<PathBuf>, String> {
    let list = |dir: &Path| -> Result<Vec<PathBuf>, String> {
        let mut v = Vec::new();
        for e in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
            v.push(e.map_err(|e| format!("{}: {e}", dir.display()))?.path());
        }
        v.sort();
        Ok(v)
    };
    let mut out = Vec::new();
    for shard in list(root)? {
        if !shard.is_dir() {
            continue;
        }
        for f in list(&shard)? {
            if f.extension().is_some_and(|e| e == "json") {
                out.push(f);
            }
        }
    }
    Ok(out)
}

/// Probes every entry of the cache at `cache_dir`, storing decoded points
/// into a fresh cache under `scratch`.
///
/// # Errors
///
/// When the cache cannot be listed.
pub fn run(cache_dir: &Path, scratch: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let cache = ResultCache::at(cache_dir.to_path_buf());
    let store = ResultCache::at(scratch.to_path_buf());
    let (mut bytes, mut load_s, mut decode_s, mut encode_s, mut store_s) =
        (0u64, 0.0, 0.0, 0.0, 0.0);
    let files = entries(cache_dir)?;
    for path in &files {
        let name = path.display().to_string();
        let outcome = guarded(|| {
            let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
            bytes += text.len() as u64;
            let stem = path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default();
            let key = u128::from_str_radix(&stem, 16)
                .map_err(|_| "entry name is not a key".to_string())?;
            let kind = json_field(&text, "kind").ok_or("entry has no kind")?;
            let t = Instant::now();
            let loaded = match kind.as_str() {
                "point" => cache.load_point(key).map(Some),
                "derived" => cache.load_derived(key).map(|_| None),
                "multi" => cache.load_multi(key).map(|_| None),
                other => return Err(format!("unknown entry kind `{other}`")),
            };
            load_s += t.elapsed().as_secs_f64();
            let Some(stats) = loaded.ok_or("the cache does not serve this entry")? else {
                return Ok(());
            };
            let field = json_field(&text, "stats").ok_or("point entry has no stats")?;
            let t = Instant::now();
            let decoded = stats_from_json(&field)?;
            decode_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let encoded = stats_to_json(&decoded);
            encode_s += t.elapsed().as_secs_f64();
            if encoded != field || decoded != stats {
                return Err("statistics do not round-trip".into());
            }
            let label = json_field(&text, "point").unwrap_or_default();
            let t = Instant::now();
            store.store_point(
                key,
                &label,
                &SimConfig::paper_baseline(),
                &Budget::quick(),
                &decoded,
            );
            store_s += t.elapsed().as_secs_f64();
            Ok(())
        });
        report.check(&format!("cache/{name}"), outcome);
    }
    report.set("cache.entries", files.len() as f64);
    report.set("cache.bytes", bytes as f64);
    report.set("cache.load_s", load_s);
    report.set("statsio.decode_s", decode_s);
    report.set("statsio.encode_s", encode_s);
    report.set("cache.store_s", store_s);
    Ok(report)
}
