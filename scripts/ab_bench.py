#!/usr/bin/env python3
"""Compare the benchmark of two checkouts in alternating runs.

Runs ``<root>/perfbench/run.py --trace 0`` once in each checkout per pair,
both sides with the same seed (pair i uses --seed START+i). Each pair starts
with the side the previous pair ran second (A B, B A, A B, ...), so a slow
spell on a shared machine hurts both sides alike. Afterwards it prints, for
each side and each end-to-end metric of the change's BENCHMARK.json, the
median and quartiles over the pairs, the number of pairs the change won, the
change/parent ratio of the medians, a verdict (see ``verdict``), and every run
that reported correct: false.

``--workload`` may be given more than once; without it every workload of the
change's BENCHMARK.json runs, one after another, with one table each.

Usage:

    python3 scripts/ab_bench.py PARENT_ROOT CHANGE_ROOT [--workload skm-k11-s2 ...] \\
        --pairs 10 --seconds 30 [--seed 0] [--json out.json | --json-prefix P]

``--json`` writes every run of a single workload to one file; ``--json-prefix
P`` writes each workload's runs to ``P-<workload>.json``.

Standard library only. Exit status 1 if any run failed or was not correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "error": (proc.stderr or proc.stdout).strip()[-500:]}
    return json.loads(lines[-1])


def positive_int(text: str) -> int:
    """argparse type of --pairs: no pairs would measure nothing and exit 0."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """One metric's reading from its paired runs (pair i is parent[i],
    change[i]) and its BENCHMARK.json bound, the first that holds of:

    - ``regressed``: the change's median is worse than the parent's by more
      than ``bound`` of the parent's median;
    - ``unresolved``: the parent's (q3 - q1) / median exceeds ``bound``, and
      not every change run beats every parent run;
    - ``gain``: the change wins at least 9/10 of the pairs (ties count for
      neither side), and its median is better than the parent's by more than
      the parent's q3 - q1;
    - ``within bound``.
    """
    # negated when lower is better, so that higher is better below
    sign = 1.0 if better == "higher" else -1.0
    parent, change = [sign * v for v in parent], [sign * v for v in change]
    q1, med_p, q3 = quartiles(parent)
    med_c = statistics.median(change)
    wins = sum(c > p for p, c in zip(parent, change))
    if med_p - med_c > bound * abs(med_p):
        return "regressed"
    if q3 - q1 > bound * abs(med_p) and not min(change) > max(parent):
        return "unresolved"
    if 10 * wins >= 9 * len(parent) and med_c - med_p > q3 - q1:
        return "gain"
    return "within bound"


def compare(roots: dict, workload: str, metrics: list, args) -> tuple[dict, list]:
    """Run the pairs of one workload and print its table; returns every run
    per side and the runs that failed or were not correct."""
    runs = {side: [] for side in SIDES}
    order = list(SIDES)
    for i in range(args.pairs):
        seed = args.seed + i
        for side in order:
            res = run_once(roots[side], workload, seed, args.seconds)
            res["seed"] = seed
            runs[side].append(res)
            value = res.get("metrics", {}).get("pts_per_s", {}).get("value")
            print(f"{workload} pair {i + 1}/{args.pairs} seed {seed} {side}: "
                  f"correct={res.get('correct')} pts_per_s={value}", file=sys.stderr)
        order.reverse()

    bad = [(side, r) for side in SIDES for r in runs[side]
           if not r.get("correct") or r.get("failed", 0)]
    ok_pairs = [i for i in range(args.pairs)
                if all(runs[side][i].get("correct") for side in SIDES)]
    print(f"workload {workload}: {args.pairs} pairs of {args.seconds} s, "
          f"seeds {args.seed}..{args.seed + args.pairs - 1}, {len(ok_pairs)} pairs usable")
    print(f"{'metric':<13} {'side':<7} {'q1':>11} {'median':>11} {'q3':>11}  wins  change/parent  verdict")
    for name, better, bound in metrics if ok_pairs else ():
        vals = {side: [runs[side][i]["metrics"][name]["value"] for i in ok_pairs]
                for side in SIDES}
        wins = sum((c > p) if better == "higher" else (c < p)
                   for p, c in zip(vals["parent"], vals["change"]))
        medians = {side: statistics.median(vals[side]) for side in SIDES}
        ratio = medians["change"] / medians["parent"] if medians["parent"] else float("nan")
        for side in SIDES:
            q1, q2, q3 = quartiles(vals[side])
            tail = (f"  {wins}/{len(ok_pairs)}  {ratio:.3f} ({better} is better)  "
                    f"{verdict(vals['parent'], vals['change'], better, bound)}"
                    if side == "change" else "")
            print(f"{name:<13} {side:<7} {q1:>11.4g} {q2:>11.4g} {q3:>11.4g}{tail}")
    for side, r in bad:
        print(f"NOT CORRECT: {workload} {side} seed {r['seed']}: "
              f"failed={r.get('failed')} attempted={r.get('attempted')} {r.get('error', '')}")
    return runs, bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_root", type=Path)
    ap.add_argument("change_root", type=Path)
    ap.add_argument("--workload", action="append",
                    help="a workload to run, repeatable (default: every workload)")
    ap.add_argument("--pairs", type=positive_int, default=10)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    out = ap.add_mutually_exclusive_group()
    out.add_argument("--json", type=Path, default=None,
                     help="write every run of the one workload here")
    out.add_argument("--json-prefix", default=None,
                     help="write every run of each workload W to PREFIX-W.json")
    args = ap.parse_args(argv)
    roots = {"parent": args.parent_root.resolve(), "change": args.change_root.resolve()}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    if args.json and len(workloads) != 1:
        ap.error("--json takes exactly one --workload; use --json-prefix for several")

    any_bad = False
    for i, workload in enumerate(workloads):
        if i:
            print()
        runs, bad = compare(roots, workload, metrics, args)
        any_bad = any_bad or bool(bad)
        path = args.json or (args.json_prefix and Path(f"{args.json_prefix}-{workload}.json"))
        if path:
            path.write_text(json.dumps(runs, indent=1), encoding="utf-8")
    return 1 if any_bad else 0


if __name__ == "__main__":
    sys.exit(main())
