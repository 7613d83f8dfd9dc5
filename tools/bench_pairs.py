#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in alternating pairs.

Usage:

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload W --seed N \\
        [--pairs 10]

Each pair runs `perfbench/run.py --trace 0` once in each checkout, for
the `run_seconds` that the parent's BENCHMARK.json sets; the side that
goes first alternates from pair to pair, so a drift of the host's speed
over the session falls on both sides alike. Each checkout builds into
its own `.bench_build/` (`CARGO_TARGET_DIR` is cleared for the runs).
The script stops if the two runs of a pair report different host
fingerprints, or if a run fails its correctness check.

It prints every pair with its `jobs_per_s` and failed operations, then
each side's median and quartiles of every `end_to_end` metric that
BENCHMARK.json lists. Two checks decide the exit code:

- the gain rule, on `jobs_per_s`: the change wins at least nine in ten
  pairs, the gap between the medians is larger than the spread between
  the parent's quartiles, and in no pair does a larger share of the
  change's operations fail than of the parent's;
- the bounds: no `end_to_end` metric's median is worse than the
  parent's by more than its `bound` (a fraction of the parent's median).

Exit code: 0 if both hold, 3 if either does not, 1 on a usage, build or
run error.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

GAIN_METRIC = "jobs_per_s"


def run_once(checkout, args, seconds):
    """Run the benchmark in `checkout`; return (host fingerprint, result)."""
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    cmd = [
        sys.executable,
        os.path.join(checkout, "perfbench", "run.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(seconds),
        "--trace",
        "0",
    ]
    out = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"bench_pairs: {checkout}: run failed ({out.returncode}):\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    host = next((l.split(" host: ", 1)[1] for l in lines if " host: " in l), None)
    result = json.loads(lines[-1])
    if not result.get("correct"):
        sys.exit(f"bench_pairs: {checkout}: correctness check failed")
    return host, result


def failed_share(result):
    attempted = result.get("attempted", 0)
    return result.get("failed", 0) / attempted if attempted else 0.0


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    try:
        with open(os.path.join(sides["parent"], "BENCHMARK.json")) as f:
            spec = json.load(f)
        seconds = spec["run_seconds"]
        metrics = spec["end_to_end"]
    except (OSError, ValueError, KeyError) as e:
        sys.exit(f"bench_pairs: cannot read run_seconds and end_to_end from the parent's "
                 f"BENCHMARK.json: {e}")
    gain = next((m for m in metrics if m["name"] == GAIN_METRIC), None)
    if gain is None:
        sys.exit(f"bench_pairs: BENCHMARK.json lists no end_to_end metric {GAIN_METRIC!r}")
    higher = gain.get("better", "higher") == "higher"

    values = {side: {m["name"]: [] for m in metrics} for side in sides}
    wins, more_failed = 0, 0
    print(f"{args.workload} seed={args.seed} {seconds}s runs; gain rule on {GAIN_METRIC} "
          f"({'higher' if higher else 'lower'} is better)")
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        hosts, got = {}, {}
        for side in order:
            hosts[side], got[side] = run_once(sides[side], args, seconds)
        if hosts["parent"] != hosts["change"]:
            sys.exit(f"bench_pairs: host fingerprints differ: {hosts['parent']!r} "
                     f"vs {hosts['change']!r}")
        for side, result in got.items():
            for name, xs in values[side].items():
                m = result["metrics"].get(name)
                if m is None:
                    sys.exit(f"bench_pairs: {sides[side]}: no metric {name!r} in the result")
                xs.append(m["value"])
        p, c = values["parent"][GAIN_METRIC][-1], values["change"][GAIN_METRIC][-1]
        won = c > p if higher else c < p
        wins += won
        worse_failed = failed_share(got["change"]) > failed_share(got["parent"])
        more_failed += worse_failed
        fails = {s: f"{r.get('failed', 0)}/{r.get('attempted', 0)}" for s, r in got.items()}
        print(f"pair {i + 1:2}: {order[0]} first  parent {p:.6g}  change {c:.6g}  "
              f"{'win' if won else 'loss'}  failed parent {fails['parent']} "
              f"change {fails['change']}{'  MORE FAILED' if worse_failed else ''}", flush=True)

    print(f"{'metric':20} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} "
          f"{'change':>8}  bound")
    over_bound = []
    for m in metrics:
        name = m["name"]
        stats = {side: quartiles(values[side][name]) for side in sides}
        med_p, med_c = stats["parent"][1], stats["change"][1]
        worse = med_p - med_c if m.get("better", "higher") == "higher" else med_c - med_p
        rel = (med_c - med_p) / abs(med_p) if med_p else (0.0 if med_c == med_p else math.inf)
        bound = m.get("bound")
        flag = ""
        if bound is not None and worse > bound * abs(med_p):
            over_bound.append(name)
            flag = "  WORSE THAN BOUND"
        cols = {s: f"{q2:.6g} [{q1:.6g}, {q3:.6g}]" for s, (q1, q2, q3) in stats.items()}
        print(f"{name:20} {cols['parent']:>34} {cols['change']:>34} {rel:+8.1%}  "
              f"{bound if bound is not None else '-'}{flag}")

    q1, med_p, q3 = quartiles(values["parent"][GAIN_METRIC])
    gap = statistics.median(values["change"][GAIN_METRIC]) - med_p
    if not higher:
        gap = -gap
    iqr = q3 - q1
    need = math.ceil(0.9 * args.pairs)
    holds = wins >= need and gap > iqr and more_failed == 0
    print(f"{GAIN_METRIC}: wins {wins}/{args.pairs} (need {need}); median gain {gap:.6g} vs "
          f"parent IQR {iqr:.6g}; pairs where more failed: {more_failed}; "
          f"gain rule {'holds' if holds else 'does not hold'}")
    print("bounds: " + (f"exceeded by {', '.join(over_bound)}" if over_bound else "all held"))
    return 0 if holds and not over_bound else 3


if __name__ == "__main__":
    sys.exit(main())
