#!/usr/bin/env python3
"""Alternated perfbench pairs between two checkouts of this repository.

    python3 scripts/bench_pairs.py --parent DIR --change DIR \\
        --workload detailed --seeds 11-14,21-26 [--seconds 20] [--json OUT]

For each seed, in order, it runs the parent's benchmark and the change's,
alternating which side goes first, starting with the parent:

    python3 perfbench/run.py --workload W --seed S --seconds 20 --trace 0

Each run starts in its own checkout, with CARGO_TARGET_DIR set to that
checkout's `.bench_build`, so the two sides never share a build. It then
prints every run's end-to-end metrics, and per metric the parent's and the
change's medians, the change in per cent, the number of pairs in which the
change read higher, and the parent's range and interquartile range.
Metrics the workload does not measure (`n/a` in the benchmark's table) are
left out.

It exits 1 when a run fails (a non-zero exit or a failed operation) or
when the two sides' simulated-statistics digests differ for a seed. It
only runs `perfbench/run.py` as a command, and reads what that prints.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    """`11-14,21` -> [11, 12, 13, 14, 21]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError("no seeds")
    return seeds


def run_once(checkout, workload, seed, seconds):
    """One benchmark run; returns its parsed outcome."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(checkout, ".bench_build"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True,
                          stdin=subprocess.DEVNULL)
    lines = proc.stdout.splitlines()
    run = {"seed": seed, "exit": proc.returncode, "digest": None, "failed": None,
           "metrics": {}, "units": {}}
    report = next((l[len("report: "):] for l in lines if l.startswith("report: ")), None)
    if report is not None:
        run["digest"] = json.loads(report).get("digest")
    # The table marks the end-to-end metrics of other workloads `n/a`.
    absent = {l.split()[0] for l in lines if l.startswith("  ") and l.split()[1:2] == ["n/a"]}
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
        if isinstance(result, dict):
            run["failed"] = result.get("failed")
            for name, m in result.get("metrics", {}).items():
                if name not in absent:
                    run["metrics"][name] = m["value"]
                    run["units"][name] = m["unit"]
    if proc.returncode != 0 or run["failed"] is None:
        sys.stderr.write(proc.stderr[-4000:])
    return run


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def fmt(v):
    return f"{v:.4g}" if abs(v) < 1000 else f"{v:.0f}"


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--workload", required=True, choices=["detailed", "sampled", "rerun"])
    p.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 11-14,21-26")
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--json", help="also write every run's outcome to this file")
    args = p.parse_args()
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    for side, path in sides.items():
        if not os.path.isfile(os.path.join(path, "perfbench", "run.py")):
            p.error(f"--{side} {path}: no perfbench/run.py there")

    runs = {"parent": [], "change": []}
    for i, seed in enumerate(args.seeds):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            run = run_once(sides[side], args.workload, seed, args.seconds)
            runs[side].append(run)
            shown = " ".join(f"{k}={fmt(v)}" for k, v in sorted(run["metrics"].items()))
            print(f"seed {seed} {side:<6} exit {run['exit']} failed {run['failed']} "
                  f"digest {run['digest']} {shown}", flush=True)

    problems = []
    for side, side_runs in runs.items():
        for run in side_runs:
            if run["exit"] != 0 or run["failed"] != 0:
                problems.append(f"{side} seed {run['seed']}: exit {run['exit']}, failed {run['failed']}")
    for a, b in zip(runs["parent"], runs["change"]):
        if a["digest"] != b["digest"]:
            problems.append(f"seed {a['seed']}: digest {a['digest']} (parent) vs {b['digest']} (change)")

    every = [r for side_runs in runs.values() for r in side_runs]
    names = [n for n in every[0]["metrics"] if all(n in r["metrics"] for r in every)]
    pairs = len(args.seeds)
    print(f"\n{args.workload}: {pairs} alternated pairs; medians of each side")
    print(f"{'metric':<22} {'unit':<5} {'parent':>10} {'change':>10} {'change %':>9} "
          f"{'higher':>7} {'parent range':>21} {'parent IQR':>21}")
    for name in names:
        a = [r["metrics"][name] for r in runs["parent"]]
        b = [r["metrics"][name] for r in runs["change"]]
        ma, mb = statistics.median(a), statistics.median(b)
        pct = f"{(mb - ma) / ma * 100:+.1f}%" if ma else "n/a"
        higher = sum(y > x for x, y in zip(a, b))
        q1, q3 = quartiles(a)
        unit = runs["parent"][0]["units"][name]
        print(f"{name:<22} {unit:<5} {fmt(ma):>10} {fmt(mb):>10} {pct:>9} {higher:>4}/{pairs:<2} "
              f"{fmt(min(a)) + '-' + fmt(max(a)):>21} {fmt(q1) + '-' + fmt(q3):>21}")
    digests = sorted({r["digest"] for r in every}, key=str)
    print(f"digests: {', '.join(map(str, digests))}")

    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "seconds": args.seconds, "runs": runs}, f, indent=1)
    for line in problems:
        print(f"FAILED {line}")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
