"""Paired A/B runs of one perfbench workload on two checkouts.

Usage:
    python scripts/ab_bench.py --parent DIR --change DIR --workload W --seeds 901-910 [--seconds 12]

For every seed it runs ``python3 -m perfbench.run --workload W --seed S
--seconds N --trace 0`` once in each checkout; the parent runs first on
odd seeds, the change on even ones.  It prints each pair's end-to-end
metrics, then per metric each side's median and quartiles, the pairs
the change wins and the gain verdict: a gain needs wins in at least
9/10 of the pairs (ties count for neither) and a median difference
larger than the parent's interquartile range.  A metric whose change
median is worse than the parent's by more than its ``BENCHMARK.json``
bound is flagged.  The bounds and metric directions are read from the
change checkout's ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Sequence

WIN_SHARE = 0.9


def parse_seeds(spec: str) -> List[int]:
    """``"901-905,910"`` -> [901, 902, 903, 904, 905, 910]."""
    seeds: List[int] = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def last_json(stdout: str) -> dict:
    """The last line of ``stdout`` that is a JSON object."""
    for line in reversed(stdout.splitlines()):
        line = line.strip()
        if line.startswith("{"):
            try:
                return json.loads(line)
            except json.JSONDecodeError:
                continue
    raise ValueError("no JSON line in the run's output")


def quartiles(values: Sequence[float]):
    """(q1, median, q3), linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def verdict(parent: Sequence[float], change: Sequence[float], better: str) -> dict:
    """The gain rule for one metric over paired runs: ``parent[i]`` and
    ``change[i]`` are one pair; ``better`` is "higher" or "lower"."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    iqr = p3 - p1
    gain = sign * (cmed - pmed)
    return {
        "pairs": len(parent),
        "wins": wins,
        "parent_median": pmed,
        "change_median": cmed,
        "parent_iqr": iqr,
        "gain": wins >= WIN_SHARE * len(parent) and gain > iqr,
    }


def over_bound(parent_median: float, change_median: float, better: str, bound: float) -> bool:
    """True when the change median is worse than the parent's by more
    than ``bound`` (a fraction of the parent median)."""
    if better == "higher":
        return change_median < parent_median * (1.0 - bound)
    return change_median > parent_median * (1.0 + bound)


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [
        "python3", "-m", "perfbench.run",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
    return last_json(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True)
    ap.add_argument("--seconds", type=float, default=12)
    args = ap.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json")) as fd:
        metrics = json.load(fd)["end_to_end"]
    names = [m["name"] for m in metrics]
    sides = {"parent": args.parent, "change": args.change}
    values: Dict[str, Dict[str, List[float]]] = {s: {n: [] for n in names} for s in sides}
    runs_ok = True

    header = ["seed", "first"] + [f"{n} {s}" for n in names for s in sides] + ["correct", "failed"]
    print("  ".join(header))
    for seed in parse_seeds(args.seeds):
        order = ["parent", "change"] if seed % 2 else ["change", "parent"]
        out = {s: run_once(sides[s], args.workload, seed, args.seconds) for s in order}
        for s in sides:
            for n in names:
                values[s][n].append(float(out[s]["metrics"][n]["value"]))
            runs_ok &= out[s]["correct"] is True and out[s]["failed"] == 0
        cells = [str(seed), order[0]]
        cells += [f"{values[s][n][-1]:.4g}" for n in names for s in sides]
        cells += ["/".join(str(out[s]["correct"]) for s in sides), "/".join(str(out[s]["failed"]) for s in sides)]
        print("  ".join(cells), flush=True)

    print()
    flagged = 0
    for m in metrics:
        n = m["name"]
        v = verdict(values["parent"][n], values["change"][n], m["better"])
        bad = over_bound(v["parent_median"], v["change_median"], m["better"], m["bound"])
        flagged += bad
        for s in sides:
            q1, med, q3 = quartiles(values[s][n])
            print(f"{n} {s}: median {med:.4g}  quartiles [{q1:.4g}, {q3:.4g}]")
        print(
            f"{n}: change wins {v['wins']}/{v['pairs']}, median diff "
            f"{v['change_median'] - v['parent_median']:+.4g} vs parent IQR {v['parent_iqr']:.4g}: "
            f"{'GAIN' if v['gain'] else 'no gain'}"
            + (f"; WORSE than the {m['bound']:.0%} bound" if bad else "")
        )
    print(f"\nall runs correct with 0 failed: {runs_ok}")
    return 0 if runs_ok and not flagged else 1


if __name__ == "__main__":
    sys.exit(main())
