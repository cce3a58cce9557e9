"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s or -v to see them) and
asserts the same condition, so the suite doubles as a report:

    pytest tests/test_acceptance.py -v
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from bergman_lab import metspace, sphereband
from bergman_lab.bergman import dd_kernel, fit_growth, isometry_measurement
from bergman_lab.cli import trend_ok
from bergman_lab.fields import reference_metric
from bergman_lab.hilb import approximation_sweep
from bergman_lab.manifolds import (
    basis_for,
    circle,
    cosphere_quadrature,
    quadrature_grid,
    sphere2,
    torus2,
)
from bergman_lab.operators import tail_defect, symbol_law_check
from bergman_lab.presets import (
    metric_field,
    perturbation_field,
    scalar_field,
    symbol_field,
)

CIRCLE, TORUS, SPHERE = circle(), torus2(), sphere2()


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
        worst = max(worst, np.abs(fld.values[:, 0, 0] - exact).max() / exact)
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
        np.abs(fld5.values[:, 0, 0] - want5).max(),
        np.abs(fld5.values[:, 1, 1] - want5).max(),
        np.abs(fld5.values[:, 0, 1]).max(),
    ) / want5

    acc = np.zeros((2, 2))  # independent half-lattice enumeration through 100
    for a in range(0, 11):
        for b in range(-10, 11):
            if (a == 0 and b <= 0) or a * a + b * b > 100:
                continue
            k = np.array([a, b], dtype=float)
            acc += np.outer(k, k) / (2 * math.pi**2)
    fld100 = dd_kernel(None, basis_for(TORUS, 100), pts)
    dev100 = np.abs(fld100.values - acc).max() / np.abs(acc).max()
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
    cases = [
        (CIRCLE, [16, 32, 64, 96, 128], 64, 1 / (3 * math.pi)),
        (TORUS, [64, 100, 144, 225, 324, 400], 6, 1 / (16 * math.pi)),
        (SPHERE, [10, 14, 18, 22, 26, 30], 8, 1 / (16 * math.pi)),
    ]
    details, ok = [], True
    for model, sweep, grid, theory in cases:
        pairs = [isometry_measurement(model, c, grid) for c in sweep]
        fitted = fit_growth([p[0] for p in pairs], [p[1] for p in pairs], model.dim)
        rel = abs(fitted - theory) / theory
        ok = ok and rel <= 0.05
        details.append(f"{model.kind} {rel:.2%}")
    report("C4 asymptotic isometry constant (5%)", ok, ", ".join(details))


def test_c05_symbol_law():
    f = scalar_field("exp:cos(theta)", CIRCLE)
    rows_c = symbol_law_check(f, CIRCLE, [48, 72, 96], grid_res=64)
    errs_c = [r[2] for r in rows_c]
    sym = symbol_field("xi1sq", TORUS)
    rows_t = symbol_law_check(sym, TORUS, [100, 225, 400], grid_res=12)
    errs_t = [r[2] for r in rows_t]
    ok = (
        errs_c[-1] <= 0.10 and trend_ok(errs_c)
        and errs_t[-1] <= 0.10 and trend_ok(errs_t)
    )
    report("C5 compressed-symbol law (10% + trend)",
           ok,
           f"circle N=96 err {errs_c[-1]:.2%} {errs_c}, "
           f"torus mu2=400 err {errs_t[-1]:.2%} {errs_t}")


def test_c06_tail_defect_decay():
    f_circle = scalar_field("exp:cos(theta)", CIRCLE)
    vals_c = [tail_defect(f_circle, CIRCLE, n, 2 * n, grid_res=48)
              for n in (8, 16, 32, 64)]
    f_torus = scalar_field("exp:0.3cos(x1)", TORUS)
    vals_t = [tail_defect(f_torus, TORUS, m, 2 * m, grid_res=10)
              for m in (9, 25, 100, 400)]
    r_c = vals_c[-1] / vals_c[0]
    r_t = vals_t[-1] / vals_t[0]
    ok = r_c <= 0.20 and r_t <= 0.20
    report("C6 tail defect decay (<= 20%)",
           ok, f"circle ratio {r_c:.3f}, torus ratio {r_t:.3f}")


def test_c07_hilb_inversion():
    g_c = metric_field("conformal:u=cos(theta)", CIRCLE)
    rows_c = approximation_sweep(g_c, [48, 72, 96], grid_res=64)
    sups_c = [r[2] for r in rows_c]
    g_t = metric_field("aniso-diag:0.3,0.3", TORUS)
    rows_t = approximation_sweep(g_t, [100, 225, 400], grid_res=16)
    sups_t = [r[2] for r in rows_t]
    ok = (
        sups_c[-1] <= 0.05 and trend_ok(sups_c)
        and sups_t[-1] <= 0.10 and trend_ok(sups_t)
    )
    report("C7 Hilb inversion (5% circle / 10% torus, decreasing)",
           ok,
           f"circle sup {sups_c[-1]:.2%} {sups_c}, torus sup {sups_t[-1]:.2%} {sups_t}")


def test_c08_metric_space_cross_validation():
    g_c = reference_metric(CIRCLE)
    gdot_c = perturbation_field("cos-theta", CIRCLE)
    closed_c = metspace.induced_norm_closed(
        g_c, gdot_c, cosphere_quadrature(CIRCLE, 256, 4)
    )
    closed_exact = abs(closed_c - 4.0)
    traces = [
        metspace.induced_norm_trace(g_c, gdot_c, basis_for(CIRCLE, n))
        for n in (32, 64, 96)
    ]
    gaps = [abs(t - 4.0) for t in traces]
    circle_ok = (
        closed_exact <= 1e-10
        and abs(traces[-1] - 4.0) / 4.0 <= 0.10
        and (gaps[-1] <= 1e-9 or trend_ok(gaps))
    )
    g_t = reference_metric(TORUS)
    gdot_t = perturbation_field("cos-x1-dx1", TORUS)
    closed_t = metspace.induced_norm_closed(
        g_t, gdot_t, cosphere_quadrature(TORUS, 32, 64)
    )
    basis_t = basis_for(TORUS, 400)
    trace_t = metspace.induced_norm_trace(g_t, gdot_t, basis_t)
    trace_t_sym = metspace.induced_norm_trace(
        g_t, gdot_t, basis_t, quantization="symmetric"
    )
    torus_gap = abs(trace_t - closed_t) / closed_t
    quant_gap = abs(trace_t - trace_t_sym)
    torus_ok = torus_gap <= 0.10 and quant_gap <= abs(trace_t - closed_t)
    ok = circle_ok and torus_ok
    report("C8 induced metric cross-validation",
           ok,
           f"circle closed |err| {closed_exact:.1e}, trace@96 {traces[-1]:.6f}, "
           f"torus gap {torus_gap:.2%}, quantization gap {quant_gap:.2e}")


def test_c09_szego_traces():
    one = scalar_field("one", TORUS)
    basis_w = basis_for(TORUS, 400)
    quad_t = cosphere_quadrature(TORUS, 32, 32)
    _, _, r_weyl = metspace.szego_trace([one], basis_w, quad_t)
    cosx1 = scalar_field("cos(x1)", TORUS)
    _, _, r_cos2 = metspace.szego_trace([cosx1, cosx1], basis_w, quad_t)
    f = scalar_field("exp-cos-theta", CIRCLE)
    _, _, r_exp = metspace.szego_trace(
        [f], basis_for(CIRCLE, 128), cosphere_quadrature(CIRCLE, 512, 4)
    )
    devs = [abs(r - 1.0) for r in (r_weyl, r_cos2, r_exp)]
    ok = all(d <= 0.05 for d in devs)
    report("C9 Szego traces (ratios within 5%)",
           ok, f"weyl {devs[0]:.2%}, torus k=2 {devs[1]:.2%}, circle exp {devs[2]:.2%}")


def test_c10_sphere_band_asymptotics():
    a = scalar_field("one-plus-half-x3sq", SPHERE)
    e20 = sphereband.sphere_band_check(a, 20, 0)
    e40 = sphereband.sphere_band_check(a, 40, 0)
    x3 = scalar_field("x3", SPHERE)
    e_k1 = sphereband.sphere_band_check(x3, 20, 1)
    cum = [sphereband.cumulative_band_sum(a, n) for n in (10, 20, 40)]
    cum_trend = all(b <= 0.7 * a_ for a_, b in zip(cum, cum[1:]))
    ok = (
        e20 <= 0.10 and e40 <= 0.7 * e20
        and e_k1 <= 0.15
        and cum_trend
    )
    report("C10 sphere band asymptotics",
           ok,
           f"k=0: err20 {e20:.2%}, err40/err20 {e40 / e20:.2f}; "
           f"k=1 err {e_k1:.2%}; cumulative {['%.3f' % c for c in cum]}")


def test_c11_gradient_check():
    from bergman_lab.fields import MetricField
    from bergman_lab.hilb import hilb_symbol
    from bergman_lab.metspace import dhilb_symbol

    g = metric_field("aniso-diag:0.3,0.2", TORUS)
    gdot = perturbation_field("cos-x1-dx1", TORUS)
    sym = dhilb_symbol(g, gdot, trace_sign=-1)
    pts = np.array([[0.7, 1.9], [3.1, 0.2], [5.0, 4.4]])
    xi = np.array([[0.8, 0.6]] * 3)
    exact = sym.values(pts, xi)
    errs = []
    for eps in (1e-3, 1e-4):
        gp = MetricField("p", TORUS, lambda p, e=eps: g.matrix_fn(p) + e * gdot.matrix_fn(p))
        gm = MetricField("m", TORUS, lambda p, e=eps: g.matrix_fn(p) - e * gdot.matrix_fn(p))
        fd = (
            hilb_symbol(gp).symbol.values(pts, xi)
            - hilb_symbol(gm).symbol.values(pts, xi)
        ) / (2 * eps)
        errs.append(np.abs(fd - exact).max())
    ratio = errs[0] / errs[1]
    ok = 50 <= ratio <= 200
    report("C11 gradient second-order convergence",
           ok, f"err(1e-3)/err(1e-4) = {ratio:.1f} (expect ~100 in [50, 200])")


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
