#!/usr/bin/env python3
"""Alternated benchmark pairs of two checkouts of this repository.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --pairs N [--seconds S]

Pair p runs ``bench/run.py --workload W --seed p --seconds S --trace 0`` from
each checkout, one after the other: the parent first in odd pairs, the change
first in even ones. For each end-to-end metric of CHANGE/BENCHMARK.json it
prints both sides' medians and quartiles, the pairs the change wins, and
whether the change's median is worse than the parent's by more than the
metric's bound; then the metrics on which the change shows a gain (see
shown_gains). Nothing is written into either checkout but what bench/run.py
writes itself.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_bench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one untraced bench run from the checkout at root."""
    done = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The first quartile, median and third quartile of values."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def _compare(parent: list[dict], change: list[dict], metric: dict):
    """Both sides' quartiles of one metric, the pairs the change wins (a tie
    counts for neither side) and the sign that makes lower better."""
    sign = 1 if metric["better"] == "lower" else -1
    old = [r["metrics"][metric["name"]]["value"] for r in parent]
    new = [r["metrics"][metric["name"]]["value"] for r in change]
    wins = sum(sign * (b - a) < 0 for a, b in zip(old, new))
    return quartiles(old), quartiles(new), wins, sign


def summarize(parent: list[dict], change: list[dict], end_to_end: list[dict]) -> list[str]:
    """Report lines for paired result lines of bench/run.py (pair i is
    parent[i] and change[i]) on the metrics of BENCHMARK.json's end_to_end."""
    lines = [f"{len(parent)} pairs; failed operations: parent "
             f"{sum(r['failed'] for r in parent)}/{sum(r['attempted'] for r in parent)}, "
             f"change {sum(r['failed'] for r in change)}/{sum(r['attempted'] for r in change)}; "
             f"all correct: {all(r['correct'] for r in parent + change)}"]
    for metric in end_to_end:
        (p1, pm, p3), (c1, cm, c3), wins, sign = _compare(parent, change, metric)
        change_pct = (cm - pm) / pm * 100 if pm else 0.0
        worse = sign * (cm - pm) > metric["bound"] * abs(pm)
        lines.append(
            f"{metric['name']:12s} parent {pm:.4f} [{p1:.4f}, {p3:.4f}]  change {cm:.4f} "
            f"[{c1:.4f}, {c3:.4f}] {metric['unit']}  {change_pct:+.1f}%  "
            f"wins {wins}/{len(parent)}  "
            f"{'WORSE than' if worse else 'within'} bound {metric['bound']}")
    return lines


def shown_gains(parent: list[dict], change: list[dict], end_to_end: list[dict]) -> str:
    """The line naming the metrics on which the change shows a gain: it wins
    at least nine tenths of the pairs, and its median is better than the
    parent's by more than the parent's interquartile spread."""
    names = []
    for metric in end_to_end:
        (p1, pm, p3), (_, cm, _), wins, sign = _compare(parent, change, metric)
        if 10 * wins >= 9 * len(parent) and sign * (pm - cm) > p3 - p1:
            names.append(metric["name"])
    return f"gain shown on: {', '.join(names) or 'none'}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args(argv)
    end_to_end = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    sides = {"parent": [], "change": []}
    for seed in range(1, args.pairs + 1):
        for side in ("parent", "change")[::1 if seed % 2 else -1]:
            sides[side].append(run_bench(roots[side], args.workload, seed, args.seconds))
        print(f"pair {seed} done", file=sys.stderr, flush=True)
    print(f"workload {args.workload}, --seconds {args.seconds:g}")
    print("\n".join(summarize(sides["parent"], sides["change"], end_to_end)))
    print(shown_gains(sides["parent"], sides["change"], end_to_end))
    return 0


if __name__ == "__main__":
    sys.exit(main())
