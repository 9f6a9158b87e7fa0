//! Exact, lossless [`SimStats`] serialization for the result cache.
//!
//! The encoding is a flat JSON object of dotted scalar fields, built as a
//! [`crate::json::Value`] and written by its compact writer on one line;
//! decoding is one parse followed by field lookups in the parsed object.
//! Counters are plain integers; every `f64` is stored as its IEEE-754 bit
//! pattern (`f64::to_bits`) so a cached record deserializes **bit
//! identically** — a warm cache run must reproduce byte-identical result
//! files, so "close enough" decimal round-trips are not acceptable.
//!
//! One walk over the statistics serves both directions: `visit` hands
//! every stored field, in encoding order, to an encoder that reads it or
//! a decoder that overwrites it. A field's key is its path of field names
//! (`int_rf.reads.short`), with `_bits` appended for an `f64`. The walk
//! destructures every struct exhaustively, so adding a field to
//! [`SimStats`] or any nested statistics type is a compile error here
//! until the codec learns about it, which is exactly when the cache salt
//! in [`crate::cache`] must be bumped.

use crate::json::{self, Value};
use carf_core::analysis::{GroupAccumulator, NUM_GROUPS};
use carf_core::{AccessStats, ClassCounts};
use carf_mem::{CacheStats, HierarchyStats};
use carf_sim::{BpredStats, DispatchStalls, OperandMix, OracleData, SimStats};

/// Codec version: bumped whenever the field set or encoding changes, so a
/// stale cache entry misparses loudly instead of silently.
pub const STATS_CODEC_VERSION: u64 = 1;

/// One stored field, as the walk hands it over.
enum Field<'a> {
    Int(&'a mut u64),
    /// An integer array; a decoder accepts only the given length.
    Ints(&'a mut Vec<u64>, Option<usize>),
}

type Visit<'v> = dyn FnMut(&str, Field<'_>) + 'v;

/// Walks `$value`, a `$T` destructured exhaustively, handing each listed
/// field to its walker under the key `<$prefix><field>`.
macro_rules! walk {
    ($f:ident, $prefix:expr, $value:expr, $T:ident { $($field:ident: $walker:ident),* $(,)? }) => {{
        let $T { $($field),* } = $value;
        let prefix: &str = $prefix;
        $( $walker($f, &format!("{prefix}{}", stringify!($field)), $field); )*
    }};
}

fn int(f: &mut Visit, key: &str, v: &mut u64) {
    f(key, Field::Int(v));
}

fn size(f: &mut Visit, key: &str, v: &mut usize) {
    let mut wide = *v as u64;
    f(key, Field::Int(&mut wide));
    *v = wide as usize;
}

fn bits(f: &mut Visit, key: &str, v: &mut f64) {
    let mut bits = v.to_bits();
    f(&format!("{key}_bits"), Field::Int(&mut bits));
    *v = f64::from_bits(bits);
}

fn ints(f: &mut Visit, key: &str, v: &mut Vec<u64>) {
    f(key, Field::Ints(v, None));
}

/// A group accumulator as one array: the totals, then the live total and
/// the snapshot count.
fn group(f: &mut Visit, key: &str, g: &mut GroupAccumulator) {
    let (totals, live_total, snapshots) = g.raw_parts();
    let mut flat: Vec<u64> = totals.to_vec();
    flat.extend([live_total, snapshots]);
    f(key, Field::Ints(&mut flat, Some(NUM_GROUPS + 2)));
    let mut totals = [0u64; NUM_GROUPS];
    totals.copy_from_slice(&flat[..NUM_GROUPS]);
    *g = GroupAccumulator::from_raw_parts(totals, flat[NUM_GROUPS], flat[NUM_GROUPS + 1]);
}

fn class_counts(f: &mut Visit, key: &str, c: &mut ClassCounts) {
    walk!(f, &format!("{key}."), c, ClassCounts { simple: int, short: int, long: int });
}

fn cache_stats(f: &mut Visit, key: &str, c: &mut CacheStats) {
    walk!(f, &format!("{key}."), c, CacheStats { hits: int, misses: int, writebacks: int });
}

fn access_stats(f: &mut Visit, key: &str, a: &mut AccessStats) {
    walk!(f, &format!("{key}."), a, AccessStats {
        reads: class_counts,
        writes: class_counts,
        total_reads: int,
        total_writes: int,
        long_write_stalls: int,
        short_allocs: int,
        short_alloc_rejects: int,
        short_reclaims: int,
        long_allocs: int,
        long_releases: int,
        capture_reuse_hits: int,
    });
}

fn stalls(f: &mut Visit, key: &str, d: &mut DispatchStalls) {
    walk!(f, &format!("{key}."), d, DispatchStalls {
        rob: int,
        pregs: int,
        lsq: int,
        iq: int,
        checkpoints: int,
    });
}

fn mix(f: &mut Visit, key: &str, m: &mut OperandMix) {
    walk!(f, &format!("{key}."), m, OperandMix {
        only_simple: int,
        only_short: int,
        only_long: int,
        simple_short: int,
        simple_long: int,
        short_long: int,
    });
}

fn oracle_data(f: &mut Visit, key: &str, o: &mut OracleData) {
    walk!(f, &format!("{key}."), o, OracleData {
        values: group,
        sim_d8: group,
        sim_d12: group,
        sim_d16: group,
        live_sum: int,
        snapshots: int,
    });
}

fn bpred_stats(f: &mut Visit, key: &str, b: &mut BpredStats) {
    walk!(f, &format!("{key}."), b, BpredStats {
        cond_predictions: int,
        cond_mispredicts: int,
        indirect_predictions: int,
        indirect_mispredicts: int,
    });
}

fn hierarchy(f: &mut Visit, key: &str, m: &mut HierarchyStats) {
    walk!(f, &format!("{key}."), m, HierarchyStats {
        il1: cache_stats,
        dl1: cache_stats,
        l2: cache_stats,
        memory_accesses: int,
    });
}

/// Every stored field of `stats`, in encoding order.
fn visit(f: &mut Visit, stats: &mut SimStats) {
    walk!(f, "", stats, SimStats {
        cycles: int,
        committed: int,
        loads: int,
        stores: int,
        branches: int,
        fp_ops: int,
        fetched: int,
        squashed: int,
        mispredicts: int,
        deadlock_recoveries: int,
        long_guard_stall_cycles: int,
        bypassed_operands: int,
        rf_operands: int,
        zero_operands: int,
        wb_long_retries: int,
        load_replays: int,
        mem_dep_violations: int,
        dispatch_stalls: stalls,
        operand_mix: mix,
        oracle: oracle_data,
        bpred: bpred_stats,
        mem: hierarchy,
        int_rf: access_stats,
        fp_rf: access_stats,
        long_mean_live: bits,
        long_peak_live: size,
        short_mean_occupancy: bits,
        long_occupancy_hist: ints,
        dest_class_matches: int,
        dest_class_total: int,
        stl_forwards: int,
        rf_read_port_denials: int,
        int_fu_denials: int,
        fp_fu_denials: int,
        lsq_wait_events: int,
        lsq_peak: size,
    });
}

/// Serializes `stats` to the cache/wire encoding (one JSON object, one
/// line, no trailing newline).
pub fn stats_to_json(stats: &SimStats) -> String {
    stats_to_value(stats).to_string()
}

/// The cache encoding of `stats`: a flat object of dotted fields led by
/// the codec version `v`.
pub fn stats_to_value(stats: &SimStats) -> Value {
    let mut members = vec![("v".to_string(), STATS_CODEC_VERSION.into())];
    // The walk hands out `&mut` fields for the decoder's sake, so the
    // encoder walks a copy.
    visit(
        &mut |key, field| {
            let value = match field {
                Field::Int(v) => (*v).into(),
                Field::Ints(vs, _) => vs.iter().map(|&v| Value::from(v)).collect(),
            };
            members.push((key.to_string(), value));
        },
        &mut stats.clone(),
    );
    Value::Object(members)
}

/// Deserializes a [`stats_to_json`] record.
///
/// # Errors
///
/// The parse error, or a message naming the first missing or malformed
/// field; a wrong codec version fails immediately (stale cache entries are
/// treated as misses).
pub fn stats_from_json(rec: &str) -> Result<SimStats, String> {
    stats_from_value(&json::parse(rec).map_err(|e| e.to_string())?)
}

/// Deserializes a parsed [`stats_to_value`] object.
///
/// # Errors
///
/// As [`stats_from_json`], minus the parse error.
pub fn stats_from_value(rec: &Value) -> Result<SimStats, String> {
    let int = |key: &str| {
        let value = rec.get(key).ok_or_else(|| format!("missing field `{key}`"))?;
        value.as_u64().ok_or_else(|| format!("field `{key}` is not an unsigned integer: `{value}`"))
    };
    let v = int("v")?;
    if v != STATS_CODEC_VERSION {
        return Err(format!("codec version {v}, expected {STATS_CODEC_VERSION}"));
    }
    let ints = |key: &str, len: Option<usize>| {
        let value = rec.get(key).ok_or_else(|| format!("missing field `{key}`"))?;
        let items: Option<Vec<u64>> =
            value.as_array().and_then(|items| items.iter().map(Value::as_u64).collect());
        match (items, len) {
            (None, _) => Err(format!("field `{key}` is not an integer array: `{value}`")),
            (Some(items), Some(n)) if n != items.len() => {
                Err(format!("field `{key}` expects {n} elements, got {}", items.len()))
            }
            (Some(items), _) => Ok(items),
        }
    };
    let mut stats = SimStats::default();
    let mut error = None;
    visit(
        &mut |key, field| {
            if error.is_some() {
                return;
            }
            let read = match field {
                Field::Int(v) => int(key).map(|n| *v = n),
                Field::Ints(vs, len) => ints(key, len).map(|items| *vs = items),
            };
            error = read.err();
        },
        &mut stats,
    );
    error.map_or(Ok(stats), Err)
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
        s.oracle.record(&mut [7, 7, 9]);
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
        s.oracle.record(&mut [1, 1, 1, 2, 3]);
        s.oracle.record(&mut [5; 20]);
        let back = stats_from_json(&stats_to_json(&s)).unwrap();
        assert_eq!(back.oracle, s.oracle);
        assert_eq!(back.oracle.values.fractions(), s.oracle.values.fractions());
    }
}
