#!/usr/bin/env bash
# Tier-1 gate: everything CI (and a reviewer) expects to pass.
#   build (release) -> tests -> clippy with warnings denied
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> benchmark harness (perfbench/harness) build + tests"
# The harness is a package of its own that links the workspace crates by
# path, calls their public items, and implements all of `IntRegFile`:
# removing or reshaping an item it needs must fail here, not in a
# benchmark run. Sharing `target/` reuses the workspace's release build.
cargo test --release -q --manifest-path perfbench/harness/Cargo.toml --target-dir target

echo "==> benchmark self-tests (perfbench/tests)"
# Every workload at its smallest size must emit every metric BENCHMARK.json
# names, with its unit, and both injected faults (a corrupted cache entry,
# an architectural mismatch) must be caught. Building into `target/`
# reuses the release build above.
CARGO_TARGET_DIR=target python3 -m unittest discover -s perfbench/tests

echo "==> carf-trace smoke test"
# One traced point end to end: exercises the tracer hooks, the stall
# attribution invariant (the binary exits non-zero if the buckets do not
# sum to the cycle count), and both JSON exporters, whose files must
# load in Python's parser (a check independent of the crate's own).
TRACE_DIR="$(mktemp -d)"
CARF_RESULTS_DIR="$TRACE_DIR" \
    cargo run --release -q -p carf-bench --bin carf-trace -- \
    --quick --jobs 2 --machine both sort_kernel >/dev/null
for f in trace_counters.json traces/sort_kernel_base.json traces/sort_kernel_carf.json; do
    python3 -c "import json, sys; json.load(open(sys.argv[1]))" "$TRACE_DIR/$f"
done
# Each counters record's shape: its members in order, stall buckets that
# sum to the cycle count, and no more instructions retired than dispatched.
python3 - "$TRACE_DIR/trace_counters.json" <<'EOF'
import json, sys
members = ["bin", "workload", "machine", "budget", "cycles", "fetched", "dispatched",
           "issued", "executed", "writebacks", "wb_retries", "retired", "squashed",
           "long_guard_cycles", "squash_events", "dispatch_stalls", "wr1",
           "stall_cycles", "latency_means"]
records = json.load(open(sys.argv[1]))
assert records, "no counters record"
for r in records:
    point = f"{r.get('workload')}/{r.get('machine')}"
    assert list(r) == members, f"{point}: members {list(r)}"
    assert sum(r["stall_cycles"].values()) == r["cycles"], f"{point}: buckets do not sum to cycles"
    assert r["retired"] <= r["dispatched"], f"{point}: retired more than dispatched"
print(f"trace counters: {len(records)} records, shape checked")
EOF

echo "==> compare_backends smoke test (backend zoo, cold then warm cache)"
# All four register-file backends (baseline, CARF, compressed,
# port-reduced) through one quick int-suite matrix: exercises the enum
# dispatch seam, the per-backend energy/area accounting, and the traced
# stall attribution (the binary asserts the bucket-sum invariant).
CMP_DIR="$(mktemp -d)"
CARF_RESULTS_DIR="$CMP_DIR" \
    cargo run --release -q -p carf-bench --bin compare_backends -- \
    --quick --jobs 2 --suite int | tail -n 10
cp "$CMP_DIR/backend_compare.json" "$CMP_DIR/backend_compare.cold.json"
# Warm re-run against the cache the cold run just filled: every point
# (including the traced stall-share scalars) must be served from disk —
# CARF_CACHE_REQUIRE_WARM makes any simulation exit 3 — and the merged
# result record must come out byte-identical.
CARF_RESULTS_DIR="$CMP_DIR" CARF_CACHE_REQUIRE_WARM=1 \
    cargo run --release -q -p carf-bench --bin compare_backends -- \
    --quick --jobs 2 --suite int | grep "cache: served"
cmp "$CMP_DIR/backend_compare.json" "$CMP_DIR/backend_compare.cold.json"
echo "warm re-run: zero simulation, byte-identical record"

echo "==> carf-smt smoke test (multi-context capacity sweep, cold then warm)"
# A 2-context shared-Long co-simulation across the capacity sweep:
# exercises the MultiSim layer, ICOUNT arbitration, the capacity window,
# and the multi-context cache keys. The warm re-run must serve every
# co-simulation from disk and leave the merged record byte-identical.
SMT_DIR="$(mktemp -d)"
CARF_RESULTS_DIR="$SMT_DIR" \
    cargo run --release -q -p carf-bench --bin carf-smt -- \
    --quick --jobs 2 --machine carf --threads 2 | tail -n 6
cp "$SMT_DIR/smt_scaling.json" "$SMT_DIR/smt_scaling.cold.json"
CARF_RESULTS_DIR="$SMT_DIR" CARF_CACHE_REQUIRE_WARM=1 \
    cargo run --release -q -p carf-bench --bin carf-smt -- \
    --quick --jobs 2 --machine carf --threads 2 | grep "cache: served"
cmp "$SMT_DIR/smt_scaling.json" "$SMT_DIR/smt_scaling.cold.json"
echo "warm re-run: zero co-simulation, byte-identical record"

echo "==> figures served from fig5's cache"
# Figs. 6-7, Tables 2 and 4, the per-kernel detail and the §6 SMT
# estimate read only points that fig5's d+n sweep stores, and the
# benchmark's warm re-run relies on it: after one cold fig5 run, each must
# serve every point (CARF_CACHE_REQUIRE_WARM makes any simulation exit 3).
# A warm fig5 re-run simulates nothing, so it must leave the one measured
# timing record in place rather than rotate it out.
FIG_DIR="$(mktemp -d)"
CARF_RESULTS_DIR="$FIG_DIR" \
    cargo run --release -q -p carf-bench --bin fig5_ipc_sweep -- --quick --jobs 2 >/dev/null
for bin in fig6_access_distribution fig7_energy table2_bypass table4_operand_mix \
    detail_per_workload ext_smt_sharing; do
    printf '%s: ' "$bin"
    CARF_RESULTS_DIR="$FIG_DIR" CARF_CACHE_REQUIRE_WARM=1 \
        cargo run --release -q -p carf-bench --bin "$bin" -- --quick --jobs 2 \
        | grep "cache: served"
done
CARF_RESULTS_DIR="$FIG_DIR" \
    cargo run --release -q -p carf-bench --bin fig5_ipc_sweep -- --quick --jobs 2 \
    | grep "^timing:"
python3 -c "
import json, sys
recs = [r for r in json.load(open(sys.argv[1])) if r['bin'] == 'fig5_ipc_sweep']
assert len(recs) == 1 and len(recs[0]['points']) == 126, [len(r['points']) for r in recs]
" "$FIG_DIR/bench_timing.json"

echo "==> multi-context differential fuzz smoke"
# Bounded differential fuzz: random programs co-simulated under maximum
# sharing must match N isolated simulators and the functional executor
# bit-for-bit. The vendored proptest stub seeds its RNG from the test
# name, so this checks the same fixed program set on every run.
cargo test --release -q -p carf-sim --test multi_differential

echo "==> carf-as corpus smoke (assemble, link, run; cold then warm)"
# The whole real-program corpus through the assembler, linker, and one
# baseline+carf matrix; the warm re-run must serve every point from the
# content-addressed cache, and both merged records must stay parseable.
# (capture to a file rather than `| head`: head closing the pipe early
# would SIGPIPE the binary mid-print)
AS_DIR="$(mktemp -d)"
CARF_RESULTS_DIR="$AS_DIR" \
    cargo run --release -q -p carf-bench --bin carf-as -- \
    --quick --jobs 2 --machine both corpus > "$AS_DIR/carf_as.out"
head -n 2 "$AS_DIR/carf_as.out"
CARF_RESULTS_DIR="$AS_DIR" CARF_CACHE_REQUIRE_WARM=1 \
    cargo run --release -q -p carf-bench --bin carf-as -- \
    --quick --jobs 2 --machine both corpus | grep "cache: served"
python3 -c "import json; json.load(open('$AS_DIR/corpus_runs.json'))"
# The cache has no index; its entries are the listing. Read them the way
# EXPERIMENTS.md "Result cache" does: each entry is one line of JSON filed
# under its own key, its first members say what it holds, and the cache
# directory holds nothing but shard directories.
python3 - "$AS_DIR/cache" <<'EOF'
import glob, json, os, sys
root = sys.argv[1]
entries = sorted(glob.glob(os.path.join(root, "*", "*.json")))
assert entries, "the cache holds no entries"
for f in entries:
    text = open(f).read()
    assert text.endswith("\n") and text.count("\n") == 1, f"{f}: not one line"
    e = json.loads(text)
    assert e["key"] == os.path.basename(f)[: -len(".json")], f"{f}: filed under another key"
    head = ["key", "kind", "point"] + (["policy"] if e["kind"] == "multi" else []) + ["config", "budget"]
    assert list(e)[: len(head)] == head, f"{f}: members {list(e)[: len(head)]}"
stray = sorted(n for n in os.listdir(root) if not os.path.isdir(os.path.join(root, n)))
assert not stray, f"not shard directories: {stray}"
print(f"cache listing: {len(entries)} entries, nothing else")
EOF
# One program under co-simulation with its pipeline timeline: the first
# eight commits, traced through the recorder.
CARF_RESULTS_DIR="$AS_DIR" \
    cargo run --release -q -p carf-bench --bin carf-as -- \
    corpus/fibonacci.s --machine carf --cosim --timeline 8 > "$AS_DIR/timeline.out"
ROWS="$(grep -cE '^ +[0-9]+ 0x[0-9a-f]+ D[0-9]+' "$AS_DIR/timeline.out")"
[ "$ROWS" -eq 8 ] || { echo "carf-as --timeline 8 printed $ROWS rows"; exit 1; }

echo "==> corpus demographics (fig1 and fig2 --corpus)"
CARF_RESULTS_DIR="$AS_DIR" \
    cargo run --release -q -p carf-bench --bin fig1_value_distribution -- \
    --quick --jobs 2 --corpus | tail -n 4
CARF_RESULTS_DIR="$AS_DIR" \
    cargo run --release -q -p carf-bench --bin fig2_similarity -- \
    --quick --jobs 2 --corpus | tail -n 4
# Both binaries observe the same oracle runs, so their records must count
# the same programs and snapshots.
python3 -c "
import json
recs = json.load(open('$AS_DIR/corpus_demographics.json'))
f1 = next(x for x in recs if x['figure'] == 'fig1')
assert len(f1['corpus']) == 6 and len(f1['delta_pp']) == 6, f1
f2 = next(x for x in recs if x['figure'] == 'fig2')
for d in ('d8', 'd12', 'd16'):
    for k in ('synthetic_', 'corpus_', 'delta_pp_'):
        assert len(f2[k + d]) == 6, (k + d, f2)
assert (f2['programs'], f2['snapshots']) == (f1['programs'], f1['snapshots']), (f1, f2)
"

echo "==> carf-sample smoke test (sampled vs full IPC)"
# Sampled-simulation gate on a tiny budget: the int suite under the CARF
# machine, checked against the straight-through run. The tolerance is
# deliberately loose — at the quick budget only 5 intervals are measured,
# so per-interval spread (CI95) does the real work and the 15% floor only
# catches wholesale breakage (cold-state bias, window accounting bugs).
CARF_RESULTS_DIR="$(mktemp -d)" \
    cargo run --release -q -p carf-bench --bin carf-sample -- \
    --quick --jobs 2 --sample --suite int --machine carf --check 0.15 \
    | tail -n 3

echo "==> all checks passed"
