#!/usr/bin/env sh
# Run every acceptance experiment through the CLI in --check mode.
# CSV tables land in out/ (override with OUTDIR=...).  Exits non-zero on the
# first tolerance failure.  Every command runs as python3 -m bergman_lab
# from this checkout's src/, never from an installed copy.
set -e

OUTDIR="${OUTDIR:-out}"
mkdir -p "$OUTDIR"
SRC="$(cd "$(dirname "$0")/.." && pwd)/src"

run() {
    echo "== bergman-lab $*"
    PYTHONPATH="$SRC${PYTHONPATH:+:$PYTHONPATH}" python3 -m bergman_lab "$@"
}

run spectra --model torus2 --mu2 20 --out "$OUTDIR/spectra_torus.csv"
run exact-pullback --model circle --n 10,25,50 --check --out "$OUTDIR/exact_circle.csv"
run exact-pullback --model torus2 --mu2 5,50,100 --check --out "$OUTDIR/exact_torus.csv"
run takahashi --n 1,2,3,4,5,6,7,8,9,10 --check --out "$OUTDIR/takahashi.csv"

run isometry --model circle --n 16,32,64,96,128 --check --out "$OUTDIR/isometry_circle.csv"
run isometry --model torus2 --mu2 64,100,144,225,324,400 --check --out "$OUTDIR/isometry_torus.csv"
run isometry --model sphere2 --n 10,14,18,22,26,30 --grid 8 --check --out "$OUTDIR/isometry_sphere.csv"

run bergman --model circle --f 'exp:cos(theta)' --n 48,72,96 --grid 64 --check --out "$OUTDIR/bergman_circle.csv"
run bergman --model torus2 --symbol xi1sq --mu2 100,225,400 --grid 12 --check --out "$OUTDIR/bergman_torus.csv"

run tail-defect --model circle --f 'exp:cos(theta)' --n 8,16,32,64 --grid 48 --check --out "$OUTDIR/tail_circle.csv"
run tail-defect --model torus2 --f 'exp:0.3cos(x1)' --mu2 9,25,100,400 --grid 10 --check --out "$OUTDIR/tail_torus.csv"

run hilb-approx --model circle --metric 'conformal:u=cos(theta)' --n 48,72,96 --grid 64 --check --out "$OUTDIR/hilb_circle.csv"
run hilb-approx --model torus2 --metric aniso-diag:0.3,0.3 --mu2 100,225,400 --check --out "$OUTDIR/hilb_torus.csv"

run met-norm --model circle --gdot cos-theta --n 32,64,96 --check --out "$OUTDIR/metnorm_circle.csv"
run met-norm --model torus2 --gdot cos-x1-dx1 --mu2 100,225,400 --check --out "$OUTDIR/metnorm_torus.csv"

run szego --model torus2 --b one --mu2 400 --check --out "$OUTDIR/szego_weyl.csv"
run szego --model torus2 --b "cos(x1),cos(x1)" --mu2 400 --check --out "$OUTDIR/szego_torus_k2.csv"
run szego --model circle --b exp-cos-theta --n 128 --check --out "$OUTDIR/szego_circle.csv"

run sphere-band --model sphere2 --a one-plus-half-x3sq --k 0 --n 20,40 --check --out "$OUTDIR/band_k0.csv"
run sphere-band --model sphere2 --a x3 --k 1 --n 20 --check --out "$OUTDIR/band_k1.csv"
run sphere-cumulative --model sphere2 --a one-plus-half-x3sq --n 10,20,40 --check --out "$OUTDIR/cumulative.csv"

run gradient-check --model torus2 --check --out "$OUTDIR/gradient.csv"

echo "all experiments passed; tables in $OUTDIR/"
