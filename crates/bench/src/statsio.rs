//! Exact, lossless [`SimStats`] serialization for the result cache.
//!
//! The encoding is a single-line JSON object of dotted scalar fields.
//! Counters are plain integers; every `f64` is stored as its IEEE-754 bit
//! pattern (`f64::to_bits`) so a cached record deserializes **bit
//! identically** — a warm cache run must reproduce byte-identical result
//! files, so "close enough" decimal round-trips are not acceptable.
//!
//! Both directions destructure every struct exhaustively (no `..` rests):
//! adding a field to [`SimStats`] or any nested statistics type is a
//! compile error here until the codec learns about it, which is exactly
//! when the cache salt in [`crate::cache`] must be bumped.

use crate::parallel::json_field;
use carf_core::analysis::{GroupAccumulator, NUM_GROUPS};
use carf_core::{AccessStats, ClassCounts};
use carf_mem::{CacheStats, HierarchyStats};
use carf_sim::{BpredStats, DispatchStalls, OperandMix, OracleData, SimStats};
use std::fmt::Write as _;

/// Codec version: bumped whenever the field set or encoding changes, so a
/// stale cache entry misparses loudly instead of silently.
pub const STATS_CODEC_VERSION: u64 = 1;

struct Writer {
    out: String,
    first: bool,
}

impl Writer {
    fn new() -> Self {
        Self { out: String::from("{"), first: true }
    }

    fn raw(&mut self, key: &str, value: &str) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        let _ = write!(self.out, "\"{key}\":{value}");
    }

    fn u64(&mut self, key: &str, v: u64) {
        self.raw(key, &v.to_string());
    }

    fn usize(&mut self, key: &str, v: usize) {
        self.raw(key, &v.to_string());
    }

    fn f64_bits(&mut self, key: &str, v: f64) {
        self.raw(key, &v.to_bits().to_string());
    }

    fn u64_array(&mut self, key: &str, vs: &[u64]) {
        let body =
            vs.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(",");
        self.raw(key, &format!("[{body}]"));
    }

    fn class_counts(&mut self, prefix: &str, c: &ClassCounts) {
        let ClassCounts { simple, short, long } = *c;
        self.u64(&format!("{prefix}.simple"), simple);
        self.u64(&format!("{prefix}.short"), short);
        self.u64(&format!("{prefix}.long"), long);
    }

    fn access_stats(&mut self, prefix: &str, a: &AccessStats) {
        let AccessStats {
            reads,
            writes,
            total_reads,
            total_writes,
            long_write_stalls,
            short_allocs,
            short_alloc_rejects,
            short_reclaims,
            long_allocs,
            long_releases,
            capture_reuse_hits,
        } = a;
        self.class_counts(&format!("{prefix}.reads"), reads);
        self.class_counts(&format!("{prefix}.writes"), writes);
        self.u64(&format!("{prefix}.total_reads"), *total_reads);
        self.u64(&format!("{prefix}.total_writes"), *total_writes);
        self.u64(&format!("{prefix}.long_write_stalls"), *long_write_stalls);
        self.u64(&format!("{prefix}.short_allocs"), *short_allocs);
        self.u64(&format!("{prefix}.short_alloc_rejects"), *short_alloc_rejects);
        self.u64(&format!("{prefix}.short_reclaims"), *short_reclaims);
        self.u64(&format!("{prefix}.long_allocs"), *long_allocs);
        self.u64(&format!("{prefix}.long_releases"), *long_releases);
        self.u64(&format!("{prefix}.capture_reuse_hits"), *capture_reuse_hits);
    }

    fn cache_stats(&mut self, prefix: &str, c: &CacheStats) {
        let CacheStats { hits, misses, writebacks } = *c;
        self.u64(&format!("{prefix}.hits"), hits);
        self.u64(&format!("{prefix}.misses"), misses);
        self.u64(&format!("{prefix}.writebacks"), writebacks);
    }

    fn group(&mut self, key: &str, g: &GroupAccumulator) {
        let (totals, live_total, snapshots) = g.raw_parts();
        let mut flat: Vec<u64> = totals.to_vec();
        flat.push(live_total);
        flat.push(snapshots);
        self.u64_array(key, &flat);
    }
}

/// Serializes `stats` to the cache/wire encoding (one JSON object, one
/// line, no trailing newline).
pub fn stats_to_json(stats: &SimStats) -> String {
    let SimStats {
        cycles,
        committed,
        loads,
        stores,
        branches,
        fp_ops,
        fetched,
        squashed,
        mispredicts,
        deadlock_recoveries,
        long_guard_stall_cycles,
        bypassed_operands,
        rf_operands,
        zero_operands,
        wb_long_retries,
        load_replays,
        mem_dep_violations,
        dispatch_stalls,
        operand_mix,
        oracle,
        bpred,
        mem,
        int_rf,
        fp_rf,
        long_mean_live,
        long_peak_live,
        short_mean_occupancy,
        long_occupancy_hist,
        dest_class_matches,
        dest_class_total,
        stl_forwards,
        rf_read_port_denials,
        int_fu_denials,
        fp_fu_denials,
        lsq_wait_events,
        lsq_peak,
    } = stats;
    let mut w = Writer::new();
    w.u64("v", STATS_CODEC_VERSION);
    w.u64("cycles", *cycles);
    w.u64("committed", *committed);
    w.u64("loads", *loads);
    w.u64("stores", *stores);
    w.u64("branches", *branches);
    w.u64("fp_ops", *fp_ops);
    w.u64("fetched", *fetched);
    w.u64("squashed", *squashed);
    w.u64("mispredicts", *mispredicts);
    w.u64("deadlock_recoveries", *deadlock_recoveries);
    w.u64("long_guard_stall_cycles", *long_guard_stall_cycles);
    w.u64("bypassed_operands", *bypassed_operands);
    w.u64("rf_operands", *rf_operands);
    w.u64("zero_operands", *zero_operands);
    w.u64("wb_long_retries", *wb_long_retries);
    w.u64("load_replays", *load_replays);
    w.u64("mem_dep_violations", *mem_dep_violations);

    let DispatchStalls { rob, pregs, lsq, iq, checkpoints } = *dispatch_stalls;
    w.u64("dispatch_stalls.rob", rob);
    w.u64("dispatch_stalls.pregs", pregs);
    w.u64("dispatch_stalls.lsq", lsq);
    w.u64("dispatch_stalls.iq", iq);
    w.u64("dispatch_stalls.checkpoints", checkpoints);

    let OperandMix { only_simple, only_short, only_long, simple_short, simple_long, short_long } =
        *operand_mix;
    w.u64("operand_mix.only_simple", only_simple);
    w.u64("operand_mix.only_short", only_short);
    w.u64("operand_mix.only_long", only_long);
    w.u64("operand_mix.simple_short", simple_short);
    w.u64("operand_mix.simple_long", simple_long);
    w.u64("operand_mix.short_long", short_long);

    let OracleData { values, sim_d8, sim_d12, sim_d16, live_sum, snapshots } = oracle;
    w.group("oracle.values", values);
    w.group("oracle.sim_d8", sim_d8);
    w.group("oracle.sim_d12", sim_d12);
    w.group("oracle.sim_d16", sim_d16);
    w.u64("oracle.live_sum", *live_sum);
    w.u64("oracle.snapshots", *snapshots);

    let BpredStats {
        cond_predictions,
        cond_mispredicts,
        indirect_predictions,
        indirect_mispredicts,
    } = *bpred;
    w.u64("bpred.cond_predictions", cond_predictions);
    w.u64("bpred.cond_mispredicts", cond_mispredicts);
    w.u64("bpred.indirect_predictions", indirect_predictions);
    w.u64("bpred.indirect_mispredicts", indirect_mispredicts);

    let HierarchyStats { il1, dl1, l2, memory_accesses } = mem;
    w.cache_stats("mem.il1", il1);
    w.cache_stats("mem.dl1", dl1);
    w.cache_stats("mem.l2", l2);
    w.u64("mem.memory_accesses", *memory_accesses);

    w.access_stats("int_rf", int_rf);
    w.access_stats("fp_rf", fp_rf);

    w.f64_bits("long_mean_live_bits", *long_mean_live);
    w.usize("long_peak_live", *long_peak_live);
    w.f64_bits("short_mean_occupancy_bits", *short_mean_occupancy);
    w.u64_array("long_occupancy_hist", long_occupancy_hist);
    w.u64("dest_class_matches", *dest_class_matches);
    w.u64("dest_class_total", *dest_class_total);
    w.u64("stl_forwards", *stl_forwards);
    w.u64("rf_read_port_denials", *rf_read_port_denials);
    w.u64("int_fu_denials", *int_fu_denials);
    w.u64("fp_fu_denials", *fp_fu_denials);
    w.u64("lsq_wait_events", *lsq_wait_events);
    w.usize("lsq_peak", *lsq_peak);
    w.out.push('}');
    w.out
}

fn get_u64(rec: &str, key: &str) -> Result<u64, String> {
    json_field(rec, key)
        .ok_or_else(|| format!("missing field `{key}`"))?
        .parse::<u64>()
        .map_err(|e| format!("field `{key}`: {e}"))
}

fn get_usize(rec: &str, key: &str) -> Result<usize, String> {
    get_u64(rec, key).map(|v| v as usize)
}

fn get_f64_bits(rec: &str, key: &str) -> Result<f64, String> {
    get_u64(rec, key).map(f64::from_bits)
}

fn get_u64_array(rec: &str, key: &str) -> Result<Vec<u64>, String> {
    let raw = json_field(rec, key).ok_or_else(|| format!("missing field `{key}`"))?;
    let body = raw
        .trim()
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| format!("field `{key}` is not an array: `{raw}`"))?;
    let body = body.trim();
    if body.is_empty() {
        return Ok(Vec::new());
    }
    body.split(',')
        .map(|v| v.trim().parse::<u64>().map_err(|e| format!("field `{key}`: {e}")))
        .collect()
}

fn get_class_counts(rec: &str, prefix: &str) -> Result<ClassCounts, String> {
    Ok(ClassCounts {
        simple: get_u64(rec, &format!("{prefix}.simple"))?,
        short: get_u64(rec, &format!("{prefix}.short"))?,
        long: get_u64(rec, &format!("{prefix}.long"))?,
    })
}

fn get_access_stats(rec: &str, prefix: &str) -> Result<AccessStats, String> {
    Ok(AccessStats {
        reads: get_class_counts(rec, &format!("{prefix}.reads"))?,
        writes: get_class_counts(rec, &format!("{prefix}.writes"))?,
        total_reads: get_u64(rec, &format!("{prefix}.total_reads"))?,
        total_writes: get_u64(rec, &format!("{prefix}.total_writes"))?,
        long_write_stalls: get_u64(rec, &format!("{prefix}.long_write_stalls"))?,
        short_allocs: get_u64(rec, &format!("{prefix}.short_allocs"))?,
        short_alloc_rejects: get_u64(rec, &format!("{prefix}.short_alloc_rejects"))?,
        short_reclaims: get_u64(rec, &format!("{prefix}.short_reclaims"))?,
        long_allocs: get_u64(rec, &format!("{prefix}.long_allocs"))?,
        long_releases: get_u64(rec, &format!("{prefix}.long_releases"))?,
        capture_reuse_hits: get_u64(rec, &format!("{prefix}.capture_reuse_hits"))?,
    })
}

fn get_cache_stats(rec: &str, prefix: &str) -> Result<CacheStats, String> {
    Ok(CacheStats {
        hits: get_u64(rec, &format!("{prefix}.hits"))?,
        misses: get_u64(rec, &format!("{prefix}.misses"))?,
        writebacks: get_u64(rec, &format!("{prefix}.writebacks"))?,
    })
}

fn get_group(rec: &str, key: &str) -> Result<GroupAccumulator, String> {
    let flat = get_u64_array(rec, key)?;
    if flat.len() != NUM_GROUPS + 2 {
        return Err(format!(
            "field `{key}` expects {} elements, got {}",
            NUM_GROUPS + 2,
            flat.len()
        ));
    }
    let mut totals = [0u64; NUM_GROUPS];
    totals.copy_from_slice(&flat[..NUM_GROUPS]);
    Ok(GroupAccumulator::from_raw_parts(totals, flat[NUM_GROUPS], flat[NUM_GROUPS + 1]))
}

/// Deserializes a [`stats_to_json`] record.
///
/// # Errors
///
/// A message naming the first missing or malformed field; a wrong codec
/// version fails immediately (stale cache entries are treated as misses).
pub fn stats_from_json(rec: &str) -> Result<SimStats, String> {
    let v = get_u64(rec, "v")?;
    if v != STATS_CODEC_VERSION {
        return Err(format!("codec version {v}, expected {STATS_CODEC_VERSION}"));
    }
    Ok(SimStats {
        cycles: get_u64(rec, "cycles")?,
        committed: get_u64(rec, "committed")?,
        loads: get_u64(rec, "loads")?,
        stores: get_u64(rec, "stores")?,
        branches: get_u64(rec, "branches")?,
        fp_ops: get_u64(rec, "fp_ops")?,
        fetched: get_u64(rec, "fetched")?,
        squashed: get_u64(rec, "squashed")?,
        mispredicts: get_u64(rec, "mispredicts")?,
        deadlock_recoveries: get_u64(rec, "deadlock_recoveries")?,
        long_guard_stall_cycles: get_u64(rec, "long_guard_stall_cycles")?,
        bypassed_operands: get_u64(rec, "bypassed_operands")?,
        rf_operands: get_u64(rec, "rf_operands")?,
        zero_operands: get_u64(rec, "zero_operands")?,
        wb_long_retries: get_u64(rec, "wb_long_retries")?,
        load_replays: get_u64(rec, "load_replays")?,
        mem_dep_violations: get_u64(rec, "mem_dep_violations")?,
        dispatch_stalls: DispatchStalls {
            rob: get_u64(rec, "dispatch_stalls.rob")?,
            pregs: get_u64(rec, "dispatch_stalls.pregs")?,
            lsq: get_u64(rec, "dispatch_stalls.lsq")?,
            iq: get_u64(rec, "dispatch_stalls.iq")?,
            checkpoints: get_u64(rec, "dispatch_stalls.checkpoints")?,
        },
        operand_mix: OperandMix {
            only_simple: get_u64(rec, "operand_mix.only_simple")?,
            only_short: get_u64(rec, "operand_mix.only_short")?,
            only_long: get_u64(rec, "operand_mix.only_long")?,
            simple_short: get_u64(rec, "operand_mix.simple_short")?,
            simple_long: get_u64(rec, "operand_mix.simple_long")?,
            short_long: get_u64(rec, "operand_mix.short_long")?,
        },
        oracle: OracleData {
            values: get_group(rec, "oracle.values")?,
            sim_d8: get_group(rec, "oracle.sim_d8")?,
            sim_d12: get_group(rec, "oracle.sim_d12")?,
            sim_d16: get_group(rec, "oracle.sim_d16")?,
            live_sum: get_u64(rec, "oracle.live_sum")?,
            snapshots: get_u64(rec, "oracle.snapshots")?,
        },
        bpred: BpredStats {
            cond_predictions: get_u64(rec, "bpred.cond_predictions")?,
            cond_mispredicts: get_u64(rec, "bpred.cond_mispredicts")?,
            indirect_predictions: get_u64(rec, "bpred.indirect_predictions")?,
            indirect_mispredicts: get_u64(rec, "bpred.indirect_mispredicts")?,
        },
        mem: HierarchyStats {
            il1: get_cache_stats(rec, "mem.il1")?,
            dl1: get_cache_stats(rec, "mem.dl1")?,
            l2: get_cache_stats(rec, "mem.l2")?,
            memory_accesses: get_u64(rec, "mem.memory_accesses")?,
        },
        int_rf: get_access_stats(rec, "int_rf")?,
        fp_rf: get_access_stats(rec, "fp_rf")?,
        long_mean_live: get_f64_bits(rec, "long_mean_live_bits")?,
        long_peak_live: get_usize(rec, "long_peak_live")?,
        short_mean_occupancy: get_f64_bits(rec, "short_mean_occupancy_bits")?,
        long_occupancy_hist: get_u64_array(rec, "long_occupancy_hist")?,
        dest_class_matches: get_u64(rec, "dest_class_matches")?,
        dest_class_total: get_u64(rec, "dest_class_total")?,
        stl_forwards: get_u64(rec, "stl_forwards")?,
        rf_read_port_denials: get_u64(rec, "rf_read_port_denials")?,
        int_fu_denials: get_u64(rec, "int_fu_denials")?,
        fp_fu_denials: get_u64(rec, "fp_fu_denials")?,
        lsq_wait_events: get_u64(rec, "lsq_wait_events")?,
        lsq_peak: get_usize(rec, "lsq_peak")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_stats() -> SimStats {
        let mut s = SimStats {
            cycles: 123_456,
            committed: 200_000,
            loads: 41,
            stores: 17,
            branches: 99,
            fp_ops: 3,
            fetched: 250_000,
            squashed: 1_024,
            mispredicts: 77,
            long_mean_live: 13.625_481_9,
            long_peak_live: 48,
            short_mean_occupancy: 0.1 + 0.2, // deliberately non-representable
            long_occupancy_hist: vec![1, 0, 7, 49],
            lsq_peak: 63,
            ..SimStats::default()
        };
        s.dispatch_stalls.rob = 5;
        s.operand_mix.record(&[carf_core::ValueClass::Simple]);
        s.oracle.record(&[7, 7, 9]);
        s.bpred.cond_predictions = 1000;
        s.mem.dl1.hits = 500;
        s.mem.dl1.writebacks = 3;
        s.int_rf.reads.short = 42;
        s.int_rf.capture_reuse_hits = 9;
        s.fp_rf.total_writes = 2;
        s
    }

    #[test]
    fn round_trip_is_exact() {
        let s = busy_stats();
        let json = stats_to_json(&s);
        let back = stats_from_json(&json).expect("parse");
        assert_eq!(back, s);
        // Bit-exactness of the floats specifically.
        assert_eq!(back.short_mean_occupancy.to_bits(), s.short_mean_occupancy.to_bits());
        // And the encoding itself is stable under a second round trip.
        assert_eq!(stats_to_json(&back), json);
    }

    #[test]
    fn default_stats_round_trip() {
        let s = SimStats::default();
        assert_eq!(stats_from_json(&stats_to_json(&s)).unwrap(), s);
    }

    #[test]
    fn wrong_version_and_missing_fields_are_errors() {
        let s = SimStats::default();
        let json = stats_to_json(&s);
        let stale = json.replacen("\"v\":1", "\"v\":999", 1);
        assert!(stats_from_json(&stale).unwrap_err().contains("codec version"));
        let truncated = json.replacen("\"cycles\":0,", "", 1);
        assert!(stats_from_json(&truncated).unwrap_err().contains("cycles"));
        assert!(stats_from_json("{}").is_err());
    }

    #[test]
    fn oracle_groups_round_trip() {
        let mut s = SimStats::default();
        s.oracle.record(&[1, 1, 1, 2, 3]);
        s.oracle.record(&[5; 20]);
        let back = stats_from_json(&stats_to_json(&s)).unwrap();
        assert_eq!(back.oracle, s.oracle);
        assert_eq!(back.oracle.values.fractions(), s.oracle.values.fractions());
    }
}
