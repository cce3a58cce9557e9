"""Self-test of the benchmark on a tiny workload of its own.

Usage (from the repository root): python3 perfbench/selftest.py

Runs ``spectra``, ``takahashi --n 1,2`` and one deliberately bad argv
(a ``--n`` sweep on the torus, an input error) through the same code as
``run.py``, then checks that:

- every metric name matches ``[A-Za-z0-9_.-]+`` and BENCHMARK.json lists
  exactly the metrics ``run.py`` prints, with the same units;
- the self times of each traced command sum to no more than its total;
- traced and untraced CSV bytes are equal;
- the failure count, and so fail_ratio, counts the bad argv;
- the benchmark's copy of the acceptance script's commands matches
  ``scripts/run_acceptance_experiments.sh``;
- the margin parser reads the three check lines that print no plain
  threshold;
- run.py exits non-zero, printing no result, where there are no sources.

Exits 1 and lists the problems if any check fails.
"""

from __future__ import annotations

import json
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import margins
import run
import spans

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*$")

TINY = [
    ("spectra_torus", run.COMMANDS["spectra_torus"]),
    ("takahashi", ["takahashi", "--n", "1,2", "--check", "--out", "$OUTDIR/takahashi.csv"]),
    ("bad", ["spectra", "--model", "torus2", "--n", "5", "--out", "$OUTDIR/bad.csv"]),
]


def script_commands() -> dict[str, list[str]]:
    text = (run.ROOT / "scripts" / "run_acceptance_experiments.sh").read_text()
    argvs = [shlex.split(line)[1:] for line in text.splitlines() if line.startswith("run ")]
    return {run._stem(a): a for a in argvs}


def check_names(problems: list[str]) -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    listed = {
        "end_to_end": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    printed = {"end_to_end": run.END_TO_END, "per_layer": run.per_layer_units()}
    for kind in listed:
        for name in list(listed[kind]) + list(printed[kind]):
            if not NAME.match(name) or len(name) > 64:
                problems.append(f"bad metric name {name!r}")
        if listed[kind] != printed[kind]:
            problems.append(f"BENCHMARK.json {kind} differs from what run.py prints")
    if sorted(w["name"] for w in bench["workloads"]) != sorted(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")


def check_tiny(problems: list[str]) -> None:
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-") as tmp:
        traced = run.measure(TINY, seed=0, seconds=0, trace=True, tmp=Path(tmp) / "t")
        plain = run.measure(TINY, seed=3, seconds=0, trace=False, tmp=Path(tmp) / "u")
    for rec in (r for p in traced for r in p if r["trace"] and r["stem"] != "bad"):
        total, selfs = spans.root_time(rec["spans"]), spans.self_time_total(rec["spans"])
        if not 0.0 <= selfs <= total or total <= 0.0:
            problems.append(f"{rec['stem']}: self times {selfs:.4g} s vs total {total:.4g} s")
    digests = {}
    for rec in (r for p in traced + plain for r in p if r["stem"] != "bad"):
        digests.setdefault(rec["stem"], set()).add(rec["csv_sha256"])
        if rec["errors"]:
            problems.append(f"{rec['stem']}: unexpected failure {rec['errors']}")
    if any(len(d) != 1 for d in digests.values()):
        problems.append(f"CSV bytes differ between runs: {digests}")
    bad = [r for p in traced + plain for r in p if r["stem"] == "bad"]
    if not bad or not all(r["errors"] for r in bad):
        problems.append("the bad argv was not counted as a failure")
    e2e = run.end_to_end(plain)
    want = 1.0 - 1.0 / len(TINY)
    if abs(e2e["pass_ratio"] - want) > 1e-12:
        problems.append(f"pass_ratio {e2e['pass_ratio']} with one bad argv of {len(TINY)}, want {want}")
    layers = run.per_layer(traced)
    if layers["cli.takahashi.total_s"] <= 0.0 or layers["manifolds.eval_basis.calls"] != 2:
        problems.append(f"traced layers look wrong: {layers}")


def check_script(problems: list[str]) -> None:
    if script_commands() != run.COMMANDS:
        problems.append("run.COMMANDS no longer matches scripts/run_acceptance_experiments.sh")


def check_margins(problems: list[str]) -> None:
    cases = [
        ("check PASS: fitted 0.0157011 vs 0.0161 (2.78%)", ["isometry"], 0.0278, 0.05),
        ("check PASS: errors [0.1, 0.04, 0.02], halving tol 0.7", ["sphere-cumulative"], 0.5, 0.7),
        ("check PASS: error ratio 100.1 in [50, 200]", ["gradient-check"], 100.1, 200.0),
        ("check FAIL: final sup err 5.10% vs 5%", ["hilb-approx"], 0.051, 0.05),
    ]
    for line, argv, value, threshold in cases:
        got = margins.parse_check(line, argv)
        if abs(got["value"] - value) > 1e-12 or abs(got["threshold"] - threshold) > 1e-12:
            problems.append(f"margin of {line!r}: {got}")


def check_without_sources(problems: list[str]) -> None:
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-") as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.HERE, Path(tmp) / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "torus-kn",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=60,
        )
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("run.py without sources did not fail cleanly")


def main() -> int:
    problems: list[str] = []
    for check in (check_names, check_script, check_margins, check_tiny, check_without_sources):
        before = len(problems)
        check(problems)
        print(f"{check.__name__}: {'ok' if len(problems) == before else 'FAILED'}")
    for p in problems:
        print("  " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
