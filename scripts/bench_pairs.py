#!/usr/bin/env python3
"""Paired benchmark runs: a base commit against this checkout.

Usage: ``python3 scripts/bench_pairs.py [--base REV] [--workload NAME ...]
[--pairs N] [--seconds S]`` (defaults: HEAD, families, 10, 4), or
``make bench-pairs BASE=HEAD WORKLOAD="roundtrip catalog families" PAIRS=10``.

REV is unpacked once with ``git archive`` into a temporary directory, as
``make gate-diff`` does, so ``--base HEAD`` measures the uncommitted
changes.  The workloads run one after another, each in N pairs.  Each
pair runs ``perfbench/run.py`` once on the base and once on this
checkout, on seeds 1, 2, 3, 1, ...; the side that runs first alternates
from pair to pair, so a drift in the host's speed does not favour one
side.  Every run must report ``correct``.  So a claimed gain on one
workload and the check that the others do not move are one command.

For each workload, and each end-to-end metric of ``BENCHMARK.json``, the
table gives the base's median and quartiles, the change's median, their
ratio, and the pairs the change wins (better by the metric's
``better``).  ``gap > iqr`` says whether the medians lie further apart
than the base's quartiles.
"""
import argparse
import json
import os
import subprocess
import sys
import tempfile
from statistics import median, quantiles

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))


def run(root: str, workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=root, check=True, capture_output=True, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"bench-pairs: run in {root} seed {seed} is not correct")
    return {name: m["value"] for name, m in result["metrics"].items()}


def table(workload: str, runs: dict[str, list[dict]], metrics, args) -> None:
    print(f"{workload}: {args.pairs} pairs against {args.base}, "
          f"--seconds {args.seconds}")
    print(f"{'metric':12s} {'base median [quartiles]':>34s} {'change':>10s} "
          f"{'ratio':>7s} {'wins':>6s}  gap > iqr")
    for name, better in metrics:
        b = [r[name] for r in runs["base"]]
        c = [r[name] for r in runs["change"]]
        sign = 1 if better == "lower" else -1
        wins = sum(sign * (y - x) < 0 for x, y in zip(b, c))
        q1, _, q3 = quantiles(b, n=4) if len(b) > 1 else (b[0],) * 3
        gap = sign * (median(b) - median(c))
        print(f"{name:12s} {median(b):12.5g} [{q1:9.5g}, {q3:9.5g}] "
              f"{median(c):10.5g} {median(c) / median(b):7.3f} "
              f"{wins:3d}/{len(b):<2d}  {'yes' if gap > q3 - q1 else 'no'}")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--base", default="HEAD")
    p.add_argument("--workload", nargs="+", default=["families"])
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=4.0)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = [(m["name"], m["better"]) for m in json.load(fh)["end_to_end"]]

    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", args.base], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        base = os.path.join(tmp, "base")
        os.mkdir(base)
        subprocess.run(["tar", "-x", "-C", base], input=archive, check=True)
        for workload in args.workload:
            runs: dict[str, list[dict]] = {"base": [], "change": []}
            for i in range(args.pairs):
                seed = 1 + i % 3
                sides = [("base", base), ("change", ROOT)]
                for side, root in sides if i % 2 == 0 else reversed(sides):
                    runs[side].append(run(root, workload, seed, args.seconds))
                pair = " ".join(f"{name}={runs['base'][-1][name]:.4g}/"
                                f"{runs['change'][-1][name]:.4g}" for name, _ in metrics)
                print(f"{workload} pair {i + 1} seed {seed} (base/change): {pair}",
                      file=sys.stderr)
            table(workload, runs, metrics, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
