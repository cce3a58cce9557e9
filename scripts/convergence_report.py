#!/usr/bin/env python3
"""Print the convergence tables of the three headline experiments.

Runs three CLI commands in --check mode, each table followed by its check line:

- ``isometry``: the orthonormal-pullback coefficient against the mu^{n+2} law;
- ``hilb-approx``: the Bergman approximation of a target metric through Hilb_N;
- ``met-norm``: the induced-norm trace formula against its closed form.

The sweeps, thresholds and fits are the commands' own.  ``--quick`` runs
shorter sweeps.  The exit status is the largest one the commands returned
(1 input error, 2 a failed check).

Usage: python scripts/convergence_report.py [--quick]
"""

import argparse
import contextlib
import sys
from pathlib import Path

# this checkout's src/ first, never an installed copy (as the acceptance script does)
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bergman_lab.cli import main  # noqa: E402

# (argv up to the sweep flag, full sweep, quick sweep)
RUNS = [
    (["isometry", "--model", "circle", "--grid", "64", "--n"],
     "16,32,64,96,128", "16,32,64"),
    (["isometry", "--model", "torus2", "--grid", "6", "--mu2"],
     "64,100,144,225,324,400", "100,225,400"),
    (["hilb-approx", "--model", "circle", "--metric", "conformal:u=cos(theta)",
      "--grid", "64", "--n"], "24,48,96,144", "24,48,96"),
    (["hilb-approx", "--model", "torus2", "--metric", "aniso-diag:0.3,0.3", "--mu2"],
     "100,225,400", "64,144"),
    (["met-norm", "--model", "torus2", "--gdot", "cos-x1-dx1", "--mu2"],
     "100,225,400", "64,144"),
]


def report(quick: bool) -> int:
    status = 0
    for argv, full, short in RUNS:
        argv = [*argv, short if quick else full, "--check"]
        print("== bergman-lab " + " ".join(argv), flush=True)
        with contextlib.redirect_stderr(sys.stdout):  # keep each check line under its table
            status = max(status, main(argv))
    return status


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="shorter sweeps")
    sys.exit(report(parser.parse_args().quick))
