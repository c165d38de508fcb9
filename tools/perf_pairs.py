#!/usr/bin/env python3
"""Alternating parent/change pairs of the serve-path benchmark.

Runs perfbench/run.py in two checkouts, a parent and a change, in
alternating order (the parent first in even pairs, the change first in odd
ones, so a drift in host speed hits both sides alike), then summarises
each end-to-end metric:

    python3 tools/perf_pairs.py --parent /path/to/parent --change . \\
        --workload diurnal_day --seed 1 --pairs 10 --seconds 20

Every run must exit 0 and report "correct": true, and every run's
simulated digest must equal the first run's: the two checkouts must
simulate the same outputs. For each metric it prints each side's median
and quartiles, the change's median against the parent's, whether that gap
exceeds the parent's quartile range, and in how many pairs the change won,
by the metric's "better" direction in the change's BENCHMARK.json. A metric
with a "bound" there also gets a verdict, the no-regression rule:

    worse         the change's median is worse than the parent's by more
                  than bound x the parent's median;
    unresolved    otherwise, if the parent's quartile range exceeds
                  bound x its median and not every change run beats every
                  parent run: the runs spread too widely to tell;
    within bound  otherwise.

Exits 1 on a failed run, an incorrect result or a digest mismatch; a
verdict never changes the exit code. The first run in a checkout also
builds its .bench_build/. Standard library only.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

DIGEST = re.compile(r"^simulated digest: ([0-9a-f]+)", re.MULTILINE)


class RunError(Exception):
    pass


def run_once(checkout, workload, seed, seconds):
    """One run.py run in `checkout`: (digest, {metric: value})."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds)]
    p = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if p.returncode != 0:
        raise RunError(f"{checkout}: run.py exited {p.returncode}\n"
                       f"{p.stdout[-2000:]}{p.stderr[-2000:]}")
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if result.get("correct") is not True:
        raise RunError(f"{checkout}: run reported correct: "
                       f"{result.get('correct')}\n{p.stdout[-2000:]}")
    digest = DIGEST.search(p.stdout)
    if digest is None:
        raise RunError(f"{checkout}: no simulated digest in the output")
    return digest.group(1), {name: m["value"]
                             for name, m in result["metrics"].items()}


def end_to_end(checkout):
    """{metric: its BENCHMARK.json entry}, in the file's order."""
    path = os.path.join(checkout, "BENCHMARK.json")
    if not os.path.isfile(path):
        return {}
    with open(path) as f:
        return {m["name"]: m for m in json.load(f)["end_to_end"]}


def quartiles(values):
    """(q1, median, q3), inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def verdict(base, new, way, bound):
    """The no-regression verdict of one metric (see the module doc)."""
    bq1, bmed, bq3 = quartiles(base)
    cmed = quartiles(new)[1]
    allowed = bound * abs(bmed)
    if (cmed - bmed if way == "lower" else bmed - cmed) > allowed:
        return "worse"
    beats_all = all((c > b if way == "higher" else c < b)
                    for c in new for b in base)
    if bq3 - bq1 > allowed and not beats_all:
        return "unresolved"
    return "within bound"


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="parent checkout")
    p.add_argument("--change", required=True, help="change checkout")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="seconds per run")
    a = p.parse_args()
    if a.pairs < 1 or a.seconds <= 0 or a.seed < 0:
        p.error("--pairs must be >= 1, --seconds > 0 and --seed >= 0")

    sides = {"parent": a.parent, "change": a.change}
    runs = {"parent": [], "change": []}
    first_digest = None
    try:
        for i in range(a.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                digest, metrics = run_once(sides[side], a.workload, a.seed,
                                           a.seconds)
                if first_digest is None:
                    first_digest = digest
                elif digest != first_digest:
                    raise RunError(f"{side} pair {i + 1}: simulated digest "
                                   f"{digest} != {first_digest}")
                runs[side].append(metrics)
                print(f"pair {i + 1}/{a.pairs} {side}: " + ", ".join(
                    f"{k}={v:.6g}" for k, v in metrics.items()),
                    file=sys.stderr, flush=True)
    except RunError as e:
        print(f"perf_pairs: {e}", file=sys.stderr)
        return 1

    declared = end_to_end(a.change)
    names = list(declared) + [n for n in runs["parent"][0]
                              if n not in declared]
    print(f"{a.workload} seed {a.seed}: {a.pairs} alternating pairs of "
          f"{a.seconds:g} s; simulated digest {first_digest} on every run")
    print("| metric | better | parent median [q1, q3] | "
          "change median [q1, q3] | change vs parent | gap > parent IQR | "
          "change wins | verdict |")
    print("|---|---|---|---|---|---|---|---|")
    for name in names:
        base = [r[name] for r in runs["parent"]]
        new = [r[name] for r in runs["change"]]
        bq1, bmed, bq3 = quartiles(base)
        cq1, cmed, cq3 = quartiles(new)
        rel = f"{(cmed - bmed) / bmed:+.1%}" if bmed else "n/a"
        gap = "yes" if abs(cmed - bmed) > bq3 - bq1 else "no"
        entry = declared.get(name, {})
        way = entry.get("better")
        judged = "n/a"
        if way in ("higher", "lower"):
            wins = sum(1 for b, c in zip(base, new)
                       if (c > b if way == "higher" else c < b))
            won = f"{wins}/{a.pairs}"
            if "bound" in entry:
                judged = verdict(base, new, way, entry["bound"])
        else:
            way, won = "?", "n/a"
        print(f"| {name} | {way} | {bmed:.6g} [{bq1:.6g}, {bq3:.6g}] | "
              f"{cmed:.6g} [{cq1:.6g}, {cq3:.6g}] | {rel} | {gap} | {won} | "
              f"{judged} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
