"""Benchmark of bergman-lab: the acceptance script's commands, by dominant layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--record PATH]

Each workload is a subset of the 22 commands of
``scripts/run_acceptance_experiments.sh``, with the script's argv.  Every
command runs in a fresh worker interpreter (``worker.py``), one at a time,
with BLAS pinned to one thread; tables go to a temporary directory inside
the checkout.  A pass runs every command of the workload once; passes repeat
until the next one would end after ``--seconds`` (at least two passes, or
one traced pass).  The seed only permutes the command order within a pass;
seed 0 keeps the script's order.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every
command untraced and then traced, requires equal CSV bytes, and prints the
per-layer metrics of ``spans.py``.  A human-readable report (environment,
check margins, metrics) goes to stderr; the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--record`` also writes the full run record, which ``compare.py`` reads.
See README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import margins
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# The commands of scripts/run_acceptance_experiments.sh, in its order, with
# its argv; "$OUTDIR" is replaced by a temporary directory.  selftest.py
# checks that this list still matches the script.
SCRIPT = r"""
spectra --model torus2 --mu2 20 --out "$OUTDIR/spectra_torus.csv"
exact-pullback --model circle --n 10,25,50 --check --out "$OUTDIR/exact_circle.csv"
exact-pullback --model torus2 --mu2 5,50,100 --check --out "$OUTDIR/exact_torus.csv"
takahashi --n 1,2,3,4,5,6,7,8,9,10 --check --out "$OUTDIR/takahashi.csv"
isometry --model circle --n 16,32,64,96,128 --check --out "$OUTDIR/isometry_circle.csv"
isometry --model torus2 --mu2 64,100,144,225,324,400 --check --out "$OUTDIR/isometry_torus.csv"
isometry --model sphere2 --n 10,14,18,22,26,30 --grid 8 --check --out "$OUTDIR/isometry_sphere.csv"
bergman --model circle --f 'exp:cos(theta)' --n 48,72,96 --grid 64 --check --out "$OUTDIR/bergman_circle.csv"
bergman --model torus2 --symbol xi1sq --mu2 100,225,400 --grid 12 --check --out "$OUTDIR/bergman_torus.csv"
tail-defect --model circle --f 'exp:cos(theta)' --n 8,16,32,64 --grid 48 --check --out "$OUTDIR/tail_circle.csv"
tail-defect --model torus2 --f 'exp:0.3cos(x1)' --mu2 9,25,100,400 --grid 10 --check --out "$OUTDIR/tail_torus.csv"
hilb-approx --model circle --metric 'conformal:u=cos(theta)' --n 48,72,96 --grid 64 --check --out "$OUTDIR/hilb_circle.csv"
hilb-approx --model torus2 --metric aniso-diag:0.3,0.3 --mu2 100,225,400 --check --out "$OUTDIR/hilb_torus.csv"
met-norm --model circle --gdot cos-theta --n 32,64,96 --check --out "$OUTDIR/metnorm_circle.csv"
met-norm --model torus2 --gdot cos-x1-dx1 --mu2 100,225,400 --check --out "$OUTDIR/metnorm_torus.csv"
szego --model torus2 --b one --mu2 400 --check --out "$OUTDIR/szego_weyl.csv"
szego --model torus2 --b "cos(x1),cos(x1)" --mu2 400 --check --out "$OUTDIR/szego_torus_k2.csv"
szego --model circle --b exp-cos-theta --n 128 --check --out "$OUTDIR/szego_circle.csv"
sphere-band --model sphere2 --a one-plus-half-x3sq --k 0 --n 20,40 --check --out "$OUTDIR/band_k0.csv"
sphere-band --model sphere2 --a x3 --k 1 --n 20 --check --out "$OUTDIR/band_k1.csv"
sphere-cumulative --model sphere2 --a one-plus-half-x3sq --n 10,20,40 --check --out "$OUTDIR/cumulative.csv"
gradient-check --model torus2 --check --out "$OUTDIR/gradient.csv"
"""


def _stem(argv: list[str]) -> str:
    return Path(argv[argv.index("--out") + 1]).stem


COMMANDS = {_stem(a): a for a in (shlex.split(line) for line in SCRIPT.strip().splitlines())}

# Workloads 1-3 partition the script; their wall_s add up to its run time.
# Workload 4 reruns the torus sweeps on a two-thread pool (see README.md).
WORKLOADS = {
    "torus-kn": [
        "bergman_torus", "hilb_torus", "metnorm_torus",
        "szego_weyl", "szego_torus_k2", "gradient",
    ],
    "sphere-bands": ["takahashi", "isometry_sphere", "band_k0", "band_k1", "cumulative"],
    "flat-multiplication": [
        "spectra_torus", "exact_circle", "exact_torus", "isometry_circle",
        "isometry_torus", "bergman_circle", "tail_circle", "tail_torus",
        "hilb_circle", "metnorm_circle", "szego_circle",
    ],
    "torus-kn-pool": ["bergman_torus", "hilb_torus", "metnorm_torus"],
}
EXTRA_ARGS = {"torus-kn-pool": ["--threads", "2"]}

# One BLAS thread: deterministic bytes, and the fastest setting measured.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

RUN_LIMIT_S = 170.0  # runs end within 180 s: no command starts after this
END_TO_END = {  # name -> unit
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "1",
    "check_margin_min": "1",
}
OVERHEAD = "perfbench.trace_overhead_s"


def workload_commands(name: str) -> list[tuple[str, list[str]]]:
    extra = EXTRA_ARGS.get(name, [])
    return [(stem, COMMANDS[stem] + extra) for stem in WORKLOADS[name]]


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {}
    for name in spans.LAYER_METRICS:
        kind = name.rsplit(".", 1)[1]
        units[name] = {"self_s": "s", "gflop": "Gflop", "concurrency": "1"}.get(kind, "count")
    for stem in COMMANDS:
        units[f"cli.{stem}.total_s"] = "s"
    units[OVERHEAD] = "s"
    return units


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("BERGMAN_LAB_THREADS", None)  # the CLI then uses one pool thread
    env.update(BLAS_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": BLAS_ENV,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "seed": seed,
    }


def run_command(stem: str, argv: list[str], outdir: Path, trace: bool, timeout: float) -> dict:
    """Run one command in a fresh worker; return its costs and verdict."""
    outdir.mkdir(parents=True, exist_ok=True)
    argv = [a.replace("$OUTDIR", str(outdir)) for a in argv]
    result_path = outdir / f"{stem}.json"
    rec = {"stem": stem, "trace": trace, "errors": []}
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(result_path), repr(t_spawn),
             "1" if trace else "0", *argv],
            cwd=ROOT, env=worker_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        rec["errors"].append(f"timed out after {timeout:.0f} s")
        return rec
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        rec["errors"].append(f"exit {proc.returncode}: {tail[0]}")
    if result_path.is_file():
        rec.update(json.loads(result_path.read_text()))
    else:
        rec["errors"].append("worker wrote no result")
    if "--check" in argv:
        try:
            rec["check"] = margins.parse_check(proc.stdout, argv)
        except ValueError as exc:
            rec["errors"].append(str(exc))
        else:
            if rec["check"] is None:
                rec["errors"].append("no check line")
            elif not rec["check"]["ok"]:
                rec["errors"].append("check FAIL: " + rec["check"]["detail"])
    out = Path(argv[argv.index("--out") + 1])
    rec["csv_sha256"] = hashlib.sha256(out.read_bytes()).hexdigest() if out.is_file() else None
    if rec["csv_sha256"] is None and not rec["errors"]:
        rec["errors"].append("no CSV written")
    return rec


def measure(commands, seed: int, seconds: float, trace: bool, tmp: Path) -> list[list[dict]]:
    """Closed loop over passes; each pass runs every command once, in order.

    With ``trace`` each command runs untraced and then traced.  A command
    fails when its CSV bytes differ from its first run in this process.
    """
    rng = random.Random(seed)
    t_start = time.monotonic()
    passes: list[list[dict]] = []
    first_hash: dict[str, str] = {}
    while True:
        order = list(commands)
        if seed != 0:
            rng.shuffle(order)
        p0 = time.monotonic()
        runs = []
        for stem, argv in order:
            for traced in ((False, True) if trace else (False,)):
                left = RUN_LIMIT_S - (time.monotonic() - t_start)
                if left <= 0.0:
                    runs.append({"stem": stem, "trace": traced, "errors": ["run time limit reached"]})
                    continue
                tag = f"p{len(passes)}{'t' if traced else ''}"
                rec = run_command(stem, argv, tmp / tag, traced, left)
                digest = rec.get("csv_sha256")
                if digest is not None:
                    first_hash.setdefault(stem, digest)
                    if digest != first_hash[stem]:
                        rec["errors"].append("CSV bytes differ from an earlier run")
                runs.append(rec)
        passes.append(runs)
        now = time.monotonic()
        elapsed, last = now - t_start, now - p0
        enough = len(passes) >= (1 if trace else 2)
        if (enough and elapsed + last > seconds) or elapsed + last > RUN_LIMIT_S:
            return passes


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(passes: list[list[dict]]) -> dict[str, float]:
    runs = [r for p in passes for r in p if not r["trace"]]
    failed = sum(1 for r in runs if r["errors"])
    heads = [r["check"]["headroom"] for r in runs if r.get("check")]
    return {
        "wall_s": _median([sum(r.get("main_s", 0.0) for r in p if not r["trace"]) for p in passes]),
        "setup_s": _median([r["setup_s"] for r in runs if "setup_s" in r]),
        "peak_rss_mb": max((r.get("maxrss_mb", 0.0) for r in runs), default=0.0),
        "pass_ratio": 1.0 - failed / len(runs),
        "check_margin_min": min(heads) if heads else 0.0,
    }


def pass_layers(runs: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one pass, from the spans of its traced runs."""
    traced = [r for r in runs if r["trace"] and r.get("spans")]
    merged = []
    for i, r in enumerate(traced):  # span ids restart in every worker
        merged += [[(i, s[0]), None if s[1] is None else (i, s[1]), *s[2:]] for s in r["spans"]]
    out = spans.summarize(merged)
    for stem in COMMANDS:
        out[f"cli.{stem}.total_s"] = sum(spans.root_time(r["spans"]) for r in traced if r["stem"] == stem)
    wall = {t: sum(r.get("main_s", 0.0) for r in runs if r["trace"] == t) for t in (False, True)}
    out[OVERHEAD] = wall[True] - wall[False]
    return out


def per_layer(passes: list[list[dict]]) -> dict[str, float]:
    each = [pass_layers(p) for p in passes]
    return {name: _median([e[name] for e in each]) for name in per_layer_units()}


def margin_report(passes: list[list[dict]]) -> list[dict]:
    """One row per checked command: value, threshold and headroom (all passes agree)."""
    rows = {}
    for p in passes:
        for r in p:
            if r.get("check") and r["stem"] not in rows:
                rows[r["stem"]] = {"stem": r["stem"], **r["check"]}
    return sorted(rows.values(), key=lambda row: row["headroom"])


def run(commands, seed: int, seconds: float, trace: bool, record: str | None, label: str) -> dict:
    """Measure, report to stderr and return the result line's object."""
    env = environment(seed)
    t0 = time.monotonic()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        passes = measure(commands, seed, seconds, trace, Path(tmp))
    took = time.monotonic() - t0
    runs = [r for p in passes for r in p]
    failed = sum(1 for r in runs if r["errors"])
    failures = [f"{r['stem']}{' (traced)' if r['trace'] else ''}: {e}" for r in runs for e in r["errors"]]
    if trace:
        values, units = per_layer(passes), per_layer_units()
    else:
        values, units = end_to_end(passes), END_TO_END
    report = margin_report(passes)

    log = sys.stderr
    print(f"perfbench {label} seed={seed} trace={int(trace)}: "
          f"{len(passes)} passes of {len(commands)} commands in {took:.1f} s", file=log)
    print("env " + json.dumps(env, sort_keys=True), file=log)
    print("check margins (headroom = (threshold - value) / threshold):", file=log)
    for row in report:
        print(f"  {row['stem']:<16} value {row['value']:<12.6g} threshold {row['threshold']:<8.6g} "
              f"headroom {row['headroom']:.4f}", file=log)
    print(f"fail_ratio {failed / len(runs):.4g} ({failed} of {len(runs)} runs)", file=log)
    for f in failures:
        print("  FAILED " + f, file=log)
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}", file=log)

    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    if record:
        full = {
            "label": label, "seed": seed, "seconds": seconds, "trace": trace, "env": env,
            "passes": len(passes), "failures": failures, "margins": report, **result,
            "pass_wall_s": [sum(r.get("main_s", 0.0) for r in p if not r["trace"]) for p in passes],
            "runs": [[{k: v for k, v in r.items() if k != "spans"} for r in p] for p in passes],
        }
        Path(record).write_text(json.dumps(full, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="also write the full run record as JSON here")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "bergman_lab" / "cli.py").is_file():
        print(f"error: no bergman_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run(workload_commands(args.workload), args.seed, args.seconds,
                 bool(args.trace), args.record, args.workload)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
