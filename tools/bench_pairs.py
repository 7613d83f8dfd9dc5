#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in alternating pairs.

Usage:

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload W --seed N \\
        --claim METRIC|none [--pairs 10]

Each pair runs `perfbench/run.py --trace 0` once in each checkout, for
the `run_seconds` that the parent's BENCHMARK.json sets; the side that
goes first alternates from pair to pair, so a drift of the host's speed
over the session falls on both sides alike. Each checkout builds into
its own `.bench_build/` (`CARGO_TARGET_DIR` is cleared for the runs).
The script stops if the two runs of a pair report different host
fingerprints, or if a run fails its correctness check.

It prints every pair with the claimed metric (`jobs_per_s` without a
claim) and failed operations, then each side's median and quartiles of
every `end_to_end` metric that BENCHMARK.json lists, and for each of
them the gain rule's verdict in the direction its `better` field gives:

- the gain rule: the change wins at least nine in ten pairs, the gap
  between the medians is larger than the spread between the parent's
  quartiles, and in no pair does a larger share of the change's
  operations fail than of the parent's;
- the bounds: no `end_to_end` metric's median is worse than the
  parent's by more than its `bound` (a fraction of the parent's median).

`--claim` names the metric whose gain the change claims; the exit code
then needs its gain rule and every bound to hold. `--claim none` (a
change that claims no gain) needs the bounds alone.

Exit code: 0 if the required checks hold, 3 if one does not, 1 on a
usage, build or run error.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys


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


def gain_rule(parent, change, higher, more_failed):
    """The gain rule on one metric's per-pair values: (holds, wins, need,
    median gain in the better direction, the parent's IQR)."""
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    q1, med_p, q3 = quartiles(parent)
    gap = statistics.median(change) - med_p
    if not higher:
        gap = 0.0 - gap  # never -0.0
    need = math.ceil(0.9 * len(parent))
    holds = wins >= need and gap > q3 - q1 and more_failed == 0
    return holds, wins, need, gap, q3 - q1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--claim", required=True, metavar="METRIC|none",
                    help="the end_to_end metric the change claims a gain on, or none")
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
    claim = None if args.claim == "none" else args.claim
    if claim is not None and all(m["name"] != claim for m in metrics):
        names = ", ".join(m["name"] for m in metrics)
        sys.exit(f"bench_pairs: --claim {claim!r} is not an end_to_end metric ({names}) "
                 f"or none")
    higher = {m["name"]: m.get("better", "higher") == "higher" for m in metrics}
    shown = claim or "jobs_per_s"

    values = {side: {m["name"]: [] for m in metrics} for side in sides}
    more_failed = 0
    print(f"{args.workload} seed={args.seed} {seconds}s runs; claim: "
          + (f"{claim} ({'higher' if higher[claim] else 'lower'} is better)" if claim
             else "none (bounds only)"))
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
        p, c = values["parent"][shown][-1], values["change"][shown][-1]
        won = c > p if higher[shown] else c < p
        worse_failed = failed_share(got["change"]) > failed_share(got["parent"])
        more_failed += worse_failed
        fails = {s: f"{r.get('failed', 0)}/{r.get('attempted', 0)}" for s, r in got.items()}
        print(f"pair {i + 1:2}: {order[0]} first  {shown} parent {p:.6g}  change {c:.6g}  "
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

    print(f"gain rule per metric (pairs where more failed: {more_failed}):")
    claim_holds = True
    for m in metrics:
        name = m["name"]
        holds, wins, need, gap, iqr = gain_rule(
            values["parent"][name], values["change"][name], higher[name], more_failed)
        if name == claim:
            claim_holds = holds
        print(f"  {name:20} wins {wins:2}/{args.pairs} (need {need}); median gain {gap:.6g} "
              f"vs parent IQR {iqr:.6g}: {'holds' if holds else 'does not hold'}"
              f"{'  <- claimed' if name == claim else ''}")
    print("bounds: " + (f"exceeded by {', '.join(over_bound)}" if over_bound else "all held"))
    if claim is not None:
        print(f"claim {claim}: gain rule {'holds' if claim_holds else 'does not hold'}")
    return 0 if claim_holds and not over_bound else 3


if __name__ == "__main__":
    sys.exit(main())
