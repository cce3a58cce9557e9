"""Compare run records of a parent commit and a change, metric by metric.

Usage (from the repository root):

    python3 perfbench/compare.py --parent P1.json P2.json ... --change C1.json ...

The records are written by ``run.py --record``.  The comparison refuses
(exit 2) when any two records differ in environment (Python, numpy, BLAS
name, version and thread variables, nproc); only the git commit and the
seed may differ.  For each workload and each end-to-end metric of
BENCHMARK.json it prints both medians and the parent's quartiles, and
flags a change whose median is worse than the parent's by more than the
metric's bound ("worse"), or whose parent spread already exceeds the bound
("unresolved").  Exits 1 if any metric is worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

COMPARED_ENV = ("python", "numpy", "blas", "blas_version", "blas_threads", "nproc")


def load(paths: list[str]) -> list[dict]:
    return [json.loads(Path(p).read_text()) for p in paths]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    args = ap.parse_args(argv)
    parent, change = load(args.parent), load(args.change)
    envs = {json.dumps({k: r["env"].get(k) for k in COMPARED_ENV}, sort_keys=True)
            for r in parent + change}
    if len(envs) != 1:
        print("refused: the records come from different environments:", file=sys.stderr)
        for e in sorted(envs):
            print("  " + e, file=sys.stderr)
        return 2
    if {r["trace"] for r in parent + change} != {False}:
        print("refused: compare untraced (--trace 0) records only", file=sys.stderr)
        return 2
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    values: dict = defaultdict(lambda: defaultdict(lambda: ([], [])))
    for side, records in ((0, parent), (1, change)):
        for r in records:
            for name, m in r["metrics"].items():
                values[r["label"]][name][side].append(m["value"])
    worse = False
    print(f"{'workload':<20} {'metric':<18} {'parent':>10} {'q1..q3':>21} {'change':>10}  verdict")
    for workload in sorted(values):
        for metric in bench["end_to_end"]:
            p, c = values[workload][metric["name"]]
            if not p or not c:
                continue
            pm, cm = statistics.median(p), statistics.median(c)
            q1, _, q3 = statistics.quantiles(p, n=4) if len(p) > 1 else (pm, pm, pm)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            if sign * (cm - pm) > metric["bound"] * abs(pm):
                verdict, worse = "worse", True
            elif (q3 - q1) > metric["bound"] * abs(pm):
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{workload:<20} {metric['name']:<18} {pm:>10.5g} {q1:>10.5g}..{q3:<10.5g}"
                  f" {cm:>10.5g}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
