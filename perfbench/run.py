#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload detailed|sampled|rerun \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds the in-process harness
(perfbench/harness) and, for `rerun`, the experiment binaries, from source
into $CARGO_TARGET_DIR (default .bench_build), runs one workload, checks
its outputs, and prints a report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics. perfbench/README.md describes the
workloads and what every metric measures.

Two options exist for the self-tests only: --scale smallest runs each
workload at its smallest size, and --inject corrupt-cache|arch-mismatch
injects a fault that an output check must catch.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

# `results/run_all.sh`'s binary list, in its order.
RUN_ALL_BINS = [
    "fig1_value_distribution",
    "fig2_similarity",
    "fig5_ipc_sweep",
    "fig6_access_distribution",
    "table2_bypass",
    "table3_access_energy",
    "table4_operand_mix",
    "fig7_energy",
    "fig8_area",
    "fig9_access_time",
    "related_work",
    "sweep_subfile_sizes",
    "sweep_ports",
    "sweep_width",
    "edp_analysis",
    "headline_summary",
    "detail_per_workload",
    "ext_clustering",
    "ext_smt_sharing",
    "ablations",
    "carf-smt",
]
# The binaries that read the result cache and print `cache: served N,
# simulated M`.
CACHE_BINS = {
    "fig5_ipc_sweep",
    "sweep_subfile_sizes",
    "sweep_ports",
    "sweep_width",
    "edp_analysis",
    "headline_summary",
    "ext_clustering",
    "ablations",
    "carf-smt",
}
# The binaries that compute from analytic models and simulate nothing.
ANALYTIC_BINS = {"table3_access_energy", "fig8_area", "fig9_access_time", "related_work"}
# The same measurements in host time, which moves with the host's load:
# printed for reading, not gated (see README.md).
HOST_TIME = [("wall_s", "s"), ("setup_host_s", "s")] + [
    (f"kips_{w}", "KIPS") for w in ["base", "carf", "compressed", "ports", "multi", "sampled", "ff"]
]
# The smallest `rerun`: one binary of each kind.
SMALLEST_BINS = ["fig8_area", "ext_smt_sharing", "headline_summary"]

CHILD_TIMEOUT_S = 170
HARNESS = "carf-perfbench"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_child(cmd, env=None, timeout=CHILD_TIMEOUT_S, scratch=None):
    """Runs `cmd` to completion and returns (exit code, stdout, stderr,
    peak RSS in MB, wall seconds). The child is reaped with wait4 so its
    own peak resident memory is known, and killed if it outlives
    `timeout`."""
    with tempfile.TemporaryFile(dir=scratch) as out, tempfile.TemporaryFile(dir=scratch) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            # Wait without reaping first, so the timer can never signal a
            # reaped (and possibly reused) pid.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (
            proc.returncode,
            out.read().decode("utf-8", "replace"),
            err.read().decode("utf-8", "replace"),
            usage.ru_maxrss / 1024.0,
            wall,
        )


def build(root, target_dir, bins):
    """Builds the harness and, when `bins` is non-empty, those experiment
    binaries. Cargo's output goes to stderr."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    manifest = os.path.join(root, "perfbench", "harness", "Cargo.toml")
    cmds = [["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]]
    if bins:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", "-p", "carf-bench"]
        for b in bins:
            cmd += ["--bin", b]
        cmds.append(cmd)
    for cmd in cmds:
        rc = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL).returncode
        if rc != 0:
            sys.exit(f"error: `{' '.join(cmd)}` failed with exit code {rc}")


def source_digest(root):
    """SHA-256 over the sources that define the program under test (the
    checkout need not be a git repository)."""
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "corpus", "perfbench", "vendor"]:
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else []
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "__pycache__"))
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def provenance(root, seed, inputs):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    except OSError:
        rustc = "unknown"
    git_rev, dirty = None, None
    if os.path.isdir(os.path.join(root, ".git")):
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        if rev.returncode == 0:
            git_rev = rev.stdout.strip()
            st = subprocess.run(["git", "status", "--porcelain"], cwd=root, capture_output=True, text=True)
            dirty = bool(st.stdout.strip())
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": rustc,
        "git_rev": git_rev,
        "git_dirty": dirty,
        "source_digest": source_digest(root),
        "seed": seed,
        "inputs": inputs,
    }


def harness(bin_path, args, scratch):
    """Runs the harness and returns (report dict, peak RSS MB)."""
    rc, out, err, rss, _ = run_child([bin_path] + args, scratch=scratch)
    if err.strip():
        log(err.rstrip())
    lines = out.strip().splitlines()
    if rc != 0 or not lines:
        sys.exit(f"error: harness {' '.join(args[:1])} failed with exit code {rc}")
    return json.loads(lines[-1]), rss


def normalized_output(text):
    """A binary's output without its timing record and cache ledger lines,
    which legitimately differ between a cold and a warm run."""
    return "".join(
        line for line in text.splitlines(keepends=True)
        if not line.startswith("timing:") and not line.startswith("cache:")
    )


def result_records(results_dir):
    """Every results record the binaries wrote, except timing records,
    lock files and the cache itself: name -> bytes."""
    records = {}
    for name in sorted(os.listdir(results_dir)):
        path = os.path.join(results_dir, name)
        if not os.path.isfile(path) or name.endswith(".lock") or name == "bench_timing.json":
            continue
        with open(path, "rb") as f:
            records[name] = f.read()
    return records


def cache_line(text):
    for line in text.splitlines():
        if line.startswith("cache: served "):
            parts = line[len("cache: served "):].split(", simulated ")
            try:
                return int(parts[0]), int(parts[1])
            except (IndexError, ValueError):
                return None
    return None


def rerun(args, bin_dir, harness_bin, scratch):
    bins = SMALLEST_BINS if args.scale == "smallest" else RUN_ALL_BINS
    jobs = min(2, len(os.sched_getaffinity(0)))
    results = os.path.join(scratch, "results")
    os.makedirs(results)
    env = dict(os.environ, CARF_RESULTS_DIR=results, CARF_JOBS=str(jobs))
    env.pop("CARF_CACHE", None)
    env.pop("CARF_CACHE_REQUIRE_WARM", None)
    failures = []
    attempted = 0
    peak_rss = 0.0

    def run_bin(name):
        rc, out, err, rss, wall = run_child(
            [os.path.join(bin_dir, name), "--quick", "--jobs", str(jobs)], env=env, scratch=scratch
        )
        return rc, out + err, rss, wall

    def adjust():
        """Times the reference loop and returns the factor that adjusts
        host seconds measured next to a quiet host."""
        report, _ = harness(harness_bin, ["reference"], scratch)
        return report["metrics"]["adjust"]

    # The binaries run for seconds each, longer than the host holds one
    # speed, so each pass (and the fill) is adjusted by the median of the
    # factors timed before each of its binaries, not binary by binary.

    # Set-up: the cold fill. The binaries that never read the cache are
    # left out: they would only add their own simulation time.
    cold_out = {}
    setup_host_s = 0.0
    factors = []
    for name in bins:
        if name not in CACHE_BINS and name not in ANALYTIC_BINS:
            continue
        factors.append(adjust())
        rc, out, rss, wall = run_bin(name)
        setup_host_s += wall
        attempted += 1
        peak_rss = max(peak_rss, rss)
        if rc == 0:
            cold_out[name] = normalized_output(out)
        else:
            failures.append(f"rerun/cold/{name}: exit code {rc}")
    setup_s = setup_host_s * statistics.median(factors)
    cold_records = result_records(results)

    if args.inject == "corrupt-cache":
        entries = sorted(
            os.path.join(d, f)
            for d, _, fs in os.walk(os.path.join(results, "cache"))
            for f in fs
            if f.endswith(".json") and f != "index.json"
        )
        with open(entries[0], "r+b") as f:
            f.truncate(os.path.getsize(entries[0]) // 2)

    # Timed part: warm passes over the whole list.
    passes = []
    served = simulated = 0
    digest = hashlib.sha256()
    measured = time.perf_counter()
    while True:
        walls = {}
        factors = []
        for name in bins:
            factors.append(adjust())
            rc, out, rss, wall = run_bin(name)
            attempted += 1
            peak_rss = max(peak_rss, rss)
            walls[name] = wall
            why = []
            if rc != 0:
                why.append(f"exit code {rc}")
            ledger = cache_line(out)
            if name in CACHE_BINS and ledger is None:
                why.append("printed no `cache: served N, simulated M` line")
            if ledger is not None:
                if not passes:
                    served += ledger[0]
                    simulated += ledger[1]
                if ledger[1] != 0:
                    why.append(f"re-simulated {ledger[1]} point(s) against a warm cache")
            if name in cold_out and normalized_output(out) != cold_out[name]:
                why.append("output differs from the cold pass")
            if not passes:
                # Outputs name the results directory, which differs per run.
                text = normalized_output(out).replace(results, "$CARF_RESULTS_DIR")
                digest.update(name.encode() + b"\0" + text.encode())
            if why:
                failures.append(f"rerun/{name}: " + "; ".join(why))
        warm_records = result_records(results)
        attempted += 1
        changed = [n for n, b in cold_records.items() if warm_records.get(n) != b]
        if changed:
            failures.append("rerun/records: differ from the cold pass: " + ", ".join(changed))
        if not passes:
            for n, b in sorted(warm_records.items()):
                digest.update(n.encode() + b"\0" + b.replace(results.encode(), b"$CARF_RESULTS_DIR"))
        passes.append((walls, statistics.median(factors)))
        pass_wall = sum(walls.values())
        if time.perf_counter() - measured + pass_wall >= args.seconds:
            break

    # Each binary's median over the passes, as the in-process workloads
    # take each operation's median, adjusted to a quiet host and in host
    # seconds.
    typical = {name: statistics.median(w[name] for w, _ in passes) for name in bins}
    adjusted = {name: statistics.median(w[name] * f for w, f in passes) for name in bins}
    metrics = {
        "setup_s": setup_s,
        "setup_host_s": setup_host_s,
        "wall_adj_s": sum(adjusted.values()),
        "wall_s": sum(typical.values()),
        "peak_rss_mb": peak_rss,
    }
    if args.trace:
        for name, wall in typical.items():
            metrics[f"bin.{name}.wall_s"] = wall
        metrics["cache.served"] = served
        metrics["cache.simulated"] = simulated
        probe_start = time.perf_counter()
        report, rss = harness(
            harness_bin,
            ["probe", "--cache", os.path.join(results, "cache"), "--scratch", os.path.join(scratch, "store")],
            scratch,
        )
        metrics["trace.overhead_s"] = time.perf_counter() - probe_start
        metrics.update(report["metrics"])
        attempted += report["attempted"]
        failures += report["failures"]
    inputs = [f"bins={len(bins)}", f"jobs={jobs}", f"passes={len(passes)}"]
    return metrics, attempted, failures, digest.hexdigest()[:16], inputs, []


def in_process(args, harness_bin, scratch, work):
    cmd = [
        args.workload,
        "--seed", str(args.seed % 2**64),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scale", args.scale,
    ]
    notes = []
    if args.trace:
        spans = os.path.join(work, f"{args.workload}-spans.jsonl")
        cmd += ["--spans", spans]
        notes.append(f"spans written to {os.path.relpath(spans)}")
    if args.inject == "arch-mismatch":
        cmd.append("--inject-mismatch")
    report, rss = harness(harness_bin, cmd, scratch)
    metrics = dict(report["metrics"])
    metrics["peak_rss_mb"] = rss
    return (
        metrics,
        report["attempted"],
        report["failures"],
        report["digest"],
        report["inputs"],
        report["notes"] + notes,
    )


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=["detailed", "sampled", "rerun"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--scale", choices=["normal", "smallest"], default="normal")
    p.add_argument("--inject", choices=["corrupt-cache", "arch-mismatch"])
    args = p.parse_args()
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    # Terminate like an interrupt, so running children are killed and the
    # scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "Cargo.toml")) or not os.path.isdir(os.path.join(root, "crates")):
        sys.exit("error: run from the root of a checkout of the repository (no Cargo.toml and crates/ here)")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)

    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target_dir = os.path.join(root, target_dir)
    bins = (SMALLEST_BINS if args.scale == "smallest" else RUN_ALL_BINS) if args.workload == "rerun" else []
    build(root, target_dir, bins)
    bin_dir = os.path.join(target_dir, "release")
    harness_bin = os.path.join(bin_dir, HARNESS)

    work = os.path.join(root, ".bench_work")
    os.makedirs(work, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work)
    try:
        if args.workload == "rerun":
            metrics, attempted, failures, digest, inputs, notes = rerun(args, bin_dir, harness_bin, scratch)
        else:
            metrics, attempted, failures, digest, inputs, notes = in_process(args, harness_bin, scratch, work)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    out = {}
    table = []
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if name in metrics:
            value = float(metrics[name])
            shown = f"{value:.6g}"
        elif args.trace:
            # A layer this workload does not exercise did no work.
            value, shown = 0.0, "0 (layer not exercised)"
        else:
            # An end-to-end metric of another workload; see README.md.
            value, shown = 1.0, "n/a"
        out[name] = {"value": value, "unit": unit}
        table.append(f"  {name:<44} {shown:>24} {unit}")

    failed = len(failures)
    attempted = max(attempted, 1)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "digest": digest,
        "fail_share": failed / attempted,
        "attempted": attempted,
        "failures": failures[:50],
        "notes": notes,
        "provenance": provenance(root, args.seed, inputs),
    }
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"simulated-statistics digest {digest}")
    print(f"  {'fail_share':<44} {failed / attempted:>24.6g} ratio ({failed} of {attempted} operations)")
    print("\n".join(table))
    if not args.trace:
        print("in host time (not gated):")
        for name, unit in HOST_TIME:
            if name in metrics:
                print(f"  {name:<44} {float(metrics[name]):>24.6g} {unit}")
    for f in failures[:50]:
        print(f"FAILED {f}")
    print("report: " + json.dumps(report, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
