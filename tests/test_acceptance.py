"""Acceptance suite: every criterion at its stated tolerance.

The acceptance criteria are the ``--check`` runs of
``scripts/run_acceptance_experiments.sh``.  ``test_script_line`` runs each
``run`` line of the script in-process through ``cli.main``, with ``$OUTDIR``
set to a temporary directory, so the thresholds are the CLI's own defaults;
it parses the command's check line as the benchmark does
(``perfbench/margins.py``) and compares the fresh table with the reference
copy in ``out/``.  C4-C11 name the script lines that check them.
C1-C3 and C12 carry their own closed forms, an independent lattice
enumeration, time bounds and a determinism run in child processes.

    pytest tests/test_acceptance.py -v -s

Regenerate the reference tables after a deliberate change of values with
``OPENBLAS_NUM_THREADS=1 OUTDIR=out sh scripts/run_acceptance_experiments.sh``.
"""

import importlib.util
import json
import math
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from bergman_lab import sphereband
from bergman_lab.bergman import dd_kernel
from bergman_lab.cli import COMMANDS, build_parser, main, resolve_config
from bergman_lab.manifolds import basis_for, circle, quadrature_grid, torus2

CIRCLE, TORUS = circle(), torus2()
ROOT = Path(__file__).resolve().parents[1]


def _script_lines() -> dict[str, list[str]]:
    text = (ROOT / "scripts" / "run_acceptance_experiments.sh").read_text()
    argvs = [shlex.split(line)[1:] for line in text.splitlines() if line.startswith("run ")]
    return {Path(a[a.index("--out") + 1]).stem: a for a in argvs}


SCRIPT = _script_lines()

# Columns that hold integers (levels, cutoffs, counts); every other column is
# compared to rounding: the BLAS thread count moves the last bits of some.
INT_COLUMNS = {"level", "multiplicity", "dim_cum", "n", "mu2", "k"}


def assert_matches_reference(fresh: Path, reference: Path) -> None:
    new, old = (p.read_text().splitlines() for p in (fresh, reference))
    assert new[0] == old[0], f"header {new[0]!r} vs {old[0]!r}"
    assert len(new) == len(old), f"{len(new) - 1} rows vs {len(old) - 1}"
    header = old[0].split(",")
    for line_new, line_old in zip(new[1:], old[1:]):
        for col, a, b in zip(header, line_new.split(","), line_old.split(","), strict=True):
            if col in INT_COLUMNS:
                assert a == b, (col, a, b)
            else:
                assert abs(float(a) - float(b)) <= 1e-9 * abs(float(b)) + 1e-12, (col, a, b)


def load_margins(monkeypatch):
    """``perfbench/margins.py``, the benchmark's parser of check lines."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_margins",
                                                  ROOT / "perfbench" / "margins.py")
    margins = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(margins)
    return margins


@pytest.mark.parametrize("stem", list(SCRIPT))
def test_script_line(stem, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("OUTDIR", str(tmp_path))
    argv = [os.path.expandvars(a) for a in SCRIPT[stem]]
    assert main(argv) == 0  # a failed check exits 2
    out = capsys.readouterr().out
    print(out, end="")
    check = load_margins(monkeypatch).parse_check(out, argv)
    assert (check is None) == ("--check" not in argv), out
    if check is not None:
        assert check["ok"], check
        tol = COMMANDS[argv[0]][3]
        if tol is not None:  # gradient-check prints its fixed band
            ns = resolve_config(build_parser().parse_args(argv))
            assert check["threshold"] == (tol(ns) if callable(tol) else tol), check
    assert_matches_reference(tmp_path / f"{stem}.csv", ROOT / "out" / f"{stem}.csv")


def assert_checked(*stems: str) -> None:
    """Each stem is a script line that runs --check at the CLI's default threshold."""
    for stem in stems:
        assert "--check" in SCRIPT[stem] and "--tol" not in SCRIPT[stem], SCRIPT[stem]


def read_table(path: Path) -> list[dict]:
    header, *rows = (line.split(",") for line in path.read_text().splitlines())
    return [dict(zip(header, map(float, row))) for row in rows]


def run_table(tmp_path: Path, argv: list[str]) -> list[dict]:
    out = tmp_path / "table.csv"
    assert main([*argv, "--out", str(out)]) == 0
    return read_table(out)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_c01_circle_exact_pullback():
    start = time.time()
    pts, _ = quadrature_grid(CIRCLE, 64)
    worst = 0.0
    for n in range(1, 51):
        basis = basis_for(CIRCLE, n)
        fld = dd_kernel(None, basis, pts)
        exact = n * (n + 1) * (2 * n + 1) / (6 * math.pi)
        worst = max(worst, np.abs(fld[:, 0, 0] - exact).max() / exact)
    elapsed = time.time() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    report("C1 circle exact pullback",
           ok, f"max rel dev {worst:.2e} (tol 1e-10), {elapsed:.2f}s (< 1s)")


def test_c02_torus_exact_pullback():
    start = time.time()
    pts, _ = quadrature_grid(TORUS, 6)
    fld5 = dd_kernel(None, basis_for(TORUS, 5), pts)
    want5 = 17.0 / (2 * math.pi**2)
    dev5 = max(
        np.abs(fld5[:, 0, 0] - want5).max(),
        np.abs(fld5[:, 1, 1] - want5).max(),
        np.abs(fld5[:, 0, 1]).max(),
    ) / want5

    acc = np.zeros((2, 2))  # independent half-lattice enumeration through 100
    for a in range(0, 11):
        for b in range(-10, 11):
            if (a == 0 and b <= 0) or a * a + b * b > 100:
                continue
            k = np.array([a, b], dtype=float)
            acc += np.outer(k, k) / (2 * math.pi**2)
    fld100 = dd_kernel(None, basis_for(TORUS, 100), pts)
    dev100 = np.abs(fld100 - acc).max() / np.abs(acc).max()
    elapsed = time.time() - start
    ok = dev5 <= 1e-10 and dev100 <= 1e-10 and elapsed < 5.0
    report("C2 torus exact pullback",
           ok, f"dev(mu2=5) {dev5:.2e}, dev(mu2<=100) {dev100:.2e}, {elapsed:.2f}s (< 5s)")


def test_c03_takahashi_identity():
    start = time.time()
    worst = max(sphereband.takahashi_check(n, grid_res=12)[1] for n in range(1, 11))
    elapsed = time.time() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    report("C3 Takahashi identity on S2",
           ok, f"max rel deviation {worst:.2e} (tol 1e-8), {elapsed:.2f}s (< 10s)")


def test_c04_asymptotic_isometry_constants():
    assert_checked("isometry_circle", "isometry_torus", "isometry_sphere")


def test_c05_symbol_law():
    assert_checked("bergman_circle", "bergman_torus")


def test_c06_tail_defect_decay():
    assert_checked("tail_circle", "tail_torus")


def test_c07_hilb_inversion():
    assert_checked("hilb_circle", "hilb_torus")


def test_c08_metric_space_cross_validation(tmp_path):
    """The two C8 assertions that no script line checks."""
    assert_checked("metnorm_circle", "metnorm_torus")
    (row,) = run_table(tmp_path, ["met-norm", "--model", "circle", "--gdot", "cos-theta",
                                  "--n", "1"])
    closed_err = abs(row["closed_form"] - 4.0)
    # the symmetric (left + right)/2 quantization is the symmetrized left one
    # in the real basis, so at mu^2 = 400 it gives the very trace of the
    # left-quantized last row of the script's table, which test_script_line
    # checks; the table's trace is thread-independent (BLAS_GUARDED)
    left = read_table(ROOT / "out" / "metnorm_torus.csv")[-1]
    assert left["mu2"] == 400
    (sym,) = run_table(tmp_path, ["met-norm", "--model", "torus2", "--gdot", "cos-x1-dx1",
                                  "--mu2", "400", "--quantization", "symmetric"])
    quant_gap = abs(left["trace_norm"] - sym["trace_norm"])
    ok = closed_err <= 1e-10 and quant_gap == 0.0
    report("C8 induced metric cross-validation", ok,
           f"circle closed |err| {closed_err:.1e}, quantization gap {quant_gap:.2e}")


def test_c09_szego_traces():
    assert_checked("szego_weyl", "szego_torus_k2", "szego_circle")


def test_c10_sphere_band_asymptotics():
    assert_checked("band_k0", "band_k1", "cumulative")


def test_c11_gradient_check():
    assert_checked("gradient")


# Script lines whose bytes must not depend on the BLAS thread count
BLAS_GUARDED = ("band_k0", "band_k1", "cumulative", "metnorm_torus", "szego_weyl",
                "szego_torus_k2", "bergman_torus", "gradient", "tail_circle", "tail_torus")
RUN_LINES = ("import json, sys\nfrom bergman_lab.cli import main\n"
             "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))")


@pytest.fixture(scope="module")
def blas_tables(tmp_path_factory):
    """Bytes of each guarded table on one and on two BLAS threads.

    The thread count is read when numpy loads, so each setting runs every
    guarded script line in one child interpreter of its own.
    """
    tables = {}
    for threads in ("1", "2"):
        out = tmp_path_factory.mktemp(f"blas{threads}")
        argvs = [[a.replace("$OUTDIR", str(out)) for a in SCRIPT[stem]] for stem in BLAS_GUARDED]
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": str(ROOT / "src")}
        r = subprocess.run([sys.executable, "-c", RUN_LINES, json.dumps(argvs)],
                           capture_output=True, text=True, env=env)
        assert r.returncode == 0, r.stderr
        tables[threads] = {stem: (out / f"{stem}.csv").read_bytes() for stem in BLAS_GUARDED}
    return tables


@pytest.mark.parametrize("stem", ["band_k0", "band_k1", "cumulative"])
def test_sphere_tables_ignore_blas_threads(stem, blas_tables):
    # the separated sphere assembly gives the same bytes on one and two BLAS threads
    assert blas_tables["1"][stem] == blas_tables["2"][stem]


@pytest.mark.parametrize("stem", ["metnorm_torus", "szego_weyl", "szego_torus_k2",
                                  "bergman_torus", "gradient"])
def test_torus_tables_ignore_blas_threads(stem, blas_tables):
    # cosphere integrals are numpy sums, not BLAS dot products, the szego
    # trace of two factors is an elementwise sum, not a GEMM, the xi1sq
    # multiplier is contracted from its 1-D diagonal, and the gradient check
    # evaluates symbols elementwise
    assert blas_tables["1"][stem] == blas_tables["2"][stem]


@pytest.mark.parametrize("stem", ["tail_circle", "tail_torus"])
def test_tail_tables_ignore_blas_threads(stem, blas_tables):
    # the streamed block products are GEMMs of strips of rows; on one and
    # two BLAS threads they give the same bytes, as the whole-block GEMM did
    assert blas_tables["1"][stem] == blas_tables["2"][stem]


def test_c12_determinism_across_threads(tmp_path):
    cases = [
        ["met-norm", "--model", "circle", "--gdot", "cos-theta", "--n", "16,32,48"],
        ["takahashi", "--n", "1,2,3,4"],
    ]
    ok = True
    for args in cases:
        blobs = []
        for threads in ("1", "4"):
            out = tmp_path / f"{args[0]}-{threads}.csv"
            r = subprocess.run(
                [sys.executable, "-m", "bergman_lab", *args,
                 "--out", str(out), "--threads", threads],
                capture_output=True, text=True,
            )
            assert r.returncode == 0, r.stderr
            blobs.append(out.read_bytes())
        ok = ok and blobs[0] == blobs[1]
    report("C12 determinism across thread counts", ok,
           "byte-identical CSV for threads 1 vs 4 (met-norm, takahashi)")
