import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bergman_lab import metspace
from bergman_lab.cli import main
from bergman_lab.errors import InputError
from bergman_lab.fields import MetricField, MetricPerturbation, quadratic_form, reference_metric
from bergman_lab.hilb import hilb_symbol
from bergman_lab.manifolds import basis_for, circle, cosphere_quadrature, torus2
from bergman_lab.metspace import (
    dhilb_symbol,
    induced_norm_closed,
    induced_norm_trace,
    szego_trace,
    trace_operators,
)
from bergman_lab.operators import ScalarField, SymbolField
from bergman_lab.presets import metric_field, perturbation_field

CIRCLE, TORUS = circle(), torus2()


def trace_norm(g, gdot, basis, **kw):
    """The trace norm of gdot at g on the window, from its own operators."""
    return induced_norm_trace(*trace_operators(g, gdot, basis, **kw), basis)


def szego(sources, basis, quad):
    """(measured, predicted, ratio) of the Szego trace on one window, from its own assemblies."""
    return szego_trace(sources, basis, quad)(basis)


def cos_theta_perturbation():
    return MetricPerturbation(
        "cos-theta", CIRCLE, lambda p: np.cos(np.atleast_2d(p)[:, 0])[:, None, None]
    )


def cos_x1_dx1():
    def matrices(p):
        pts = np.atleast_2d(p)
        out = np.zeros((pts.shape[0], 2, 2))
        out[:, 0, 0] = np.cos(pts[:, 0])
        return out

    return MetricPerturbation("cos-x1-dx1", TORUS, matrices)


def aniso_metric():
    def matrices(p):
        pts = np.atleast_2d(p)
        out = np.zeros((pts.shape[0], 2, 2))
        out[:, 0, 0] = np.exp(0.3 * np.cos(pts[:, 0]))
        out[:, 1, 1] = np.exp(0.2 * np.cos(pts[:, 1]))
        out[:, 0, 1] = out[:, 1, 0] = 0.1 * np.sin(pts[:, 0] + pts[:, 1])
        return out

    return MetricField("aniso-full", TORUS, matrices)


class TestDhilbSymbol:
    def test_zero_perturbation(self):
        gdot = MetricPerturbation("zero", TORUS, lambda p: np.zeros((np.atleast_2d(p).shape[0], 2, 2)))
        sym = dhilb_symbol(reference_metric(TORUS), gdot)
        pts = np.array([[0.3, 1.2], [2.0, 4.0]])
        np.testing.assert_allclose(sym.values(pts, np.array([[1.0, 0.0]])), 0.0, atol=1e-15)

    def test_perturbation_along_metric(self):
        # gdot = g gives (n + (n+2))/2 = n+1 times the base symbol
        g = aniso_metric()
        gdot = MetricPerturbation("g", TORUS, g.matrix_fn)
        sym = dhilb_symbol(g, gdot)
        base = hilb_symbol(g)
        pts = np.array([[0.4, 1.0], [2.2, 5.3]])
        for xi in ([1.0, 0.0], [0.3, -0.9]):
            x = np.array([xi, xi])
            np.testing.assert_allclose(
                sym.values(pts, x), 3.0 * base.values(pts, x), rtol=1e-12
            )

    @pytest.mark.parametrize("eps_pair", [(1e-3, 1e-4)])
    def test_central_difference_second_order(self, eps_pair):
        # trace_sign=-1 is the exact derivative: second-order FD convergence
        g = aniso_metric()
        gdot = cos_x1_dx1()
        sym = dhilb_symbol(g, gdot, trace_sign=-1)
        pts = np.array([[0.7, 1.9], [3.1, 0.2], [5.0, 4.4]])
        xi = np.array([[0.8, 0.6]] * 3)
        exact = sym.values(pts, xi)
        errs = []
        for eps in eps_pair:
            gp = MetricField("p", TORUS, lambda p, e=eps: g.matrix_fn(p) + e * gdot.matrix_fn(p))
            gm = MetricField("m", TORUS, lambda p, e=eps: g.matrix_fn(p) - e * gdot.matrix_fn(p))
            fd = (
                hilb_symbol(gp).values(pts, xi)
                - hilb_symbol(gm).values(pts, xi)
            ) / (2 * eps)
            errs.append(np.abs(fd - exact).max())
        ratio = errs[0] / errs[1]
        assert 50 <= ratio <= 200

    def test_convention_gap_is_volume_trace_term(self):
        # the two trace_sign conventions differ by hilb_symbol * Tr(g^{-1}gdot)
        g = aniso_metric()
        gdot = cos_x1_dx1()
        pts = np.array([[0.7, 1.9], [3.1, 0.2]])
        xi = np.array([[0.8, 0.6]] * 2)
        plus = dhilb_symbol(g, gdot, trace_sign=1).values(pts, xi)
        minus = dhilb_symbol(g, gdot, trace_sign=-1).values(pts, xi)
        base = hilb_symbol(g).values(pts, xi)
        ginv = g.inverses(pts)
        tr = np.einsum("pij,pji->p", ginv, gdot.matrices(pts))
        np.testing.assert_allclose(plus - minus, base * tr, rtol=1e-12)

    def test_conventions_agree_on_trace_free_perturbations(self):
        g = reference_metric(TORUS)
        gdot = MetricPerturbation(
            "off", TORUS,
            lambda p: np.tile(np.array([[0.0, 1.0], [1.0, 0.0]]),
                              (np.atleast_2d(p).shape[0], 1, 1)),
        )
        pts = np.array([[0.4, 2.0]])
        xi = np.array([[0.6, 0.8]])
        plus = dhilb_symbol(g, gdot, 1).values(pts, xi)
        minus = dhilb_symbol(g, gdot, -1).values(pts, xi)
        np.testing.assert_allclose(plus, minus, rtol=1e-13)


def closed_per_row(g, gdot, quad, trace_sign):
    """Closed-form oracle: the point data on every replicated cosphere row."""
    ginv = g.inverses(quad.points)
    h = gdot.matrices(quad.points)
    tr = np.einsum("pij,pji->p", ginv, h)
    gig = np.einsum("pij,pjk,pkl->pil", ginv, h, ginv)
    n = g.model.dim
    gig, ginv = np.moveaxis(gig, 0, -1), np.moveaxis(ginv, 0, -1)  # component-major
    quadr = (n + 2) * quadratic_form(gig, quad.xis) / quadratic_form(ginv, quad.xis)
    pref = 1.0 / (4.0 * n * (2.0 * math.pi) ** n)
    return pref * float((quad.weights * (trace_sign * tr + quadr) ** 2).sum())


class TestInducedNorm:
    def test_zero_perturbation_gives_zero(self):
        gdot = MetricPerturbation("zero", CIRCLE, lambda p: np.zeros((np.atleast_2d(p).shape[0], 1, 1)))
        val = trace_norm(reference_metric(CIRCLE), gdot, basis_for(CIRCLE, 16))
        assert val == pytest.approx(0.0, abs=1e-20)
        closed = induced_norm_closed(
            reference_metric(CIRCLE), gdot, cosphere_quadrature(CIRCLE, 64, 64)
        )
        assert closed == 0.0

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("model, metric, gdot, base_res", [
        (TORUS, "g0", "cos-x1-dx1", 32),
        (TORUS, "aniso-diag:0.3,0.3", "cos-x1-dx1", 32),
        (TORUS, "conformal:u=0.3cos(x1)", "cos-x1-dx1", 16),
        (CIRCLE, "conformal:u=cos(theta)", "cos-theta", 256),
    ], ids=["torus-g0", "torus-aniso", "torus-conformal", "circle-conformal"])
    def test_closed_form_matches_per_row_oracle(self, model, metric, gdot, base_res, sign):
        # the point data on the base points, repeated per fiber node, is the
        # per-row computation bit for bit
        g, h = metric_field(metric, model), perturbation_field(gdot, model)
        quad = cosphere_quadrature(model, base_res, 64)
        assert induced_norm_closed(g, h, quad, sign) == closed_per_row(g, h, quad, sign)

    def test_circle_closed_form_is_four(self):
        closed = induced_norm_closed(
            reference_metric(CIRCLE), cos_theta_perturbation(),
            cosphere_quadrature(CIRCLE, 64, 4),
        )
        assert closed == pytest.approx(4.0, abs=1e-10)

    def test_circle_trace_formula_is_exactly_four(self):
        # the compressed cosine chain gives Tr(C^2) = N, so the normalized
        # trace is 4 at every window size
        for n in (8, 32, 96):
            val = trace_norm(
                reference_metric(CIRCLE), cos_theta_perturbation(), basis_for(CIRCLE, n)
            )
            assert val == pytest.approx(4.0, abs=1e-10)

    def test_circle_both_conventions_cross_validate(self):
        # trace and closed form agree exactly within each convention:
        # 4 for trace_sign=+1, 1 for the derivative convention
        g = reference_metric(CIRCLE)
        gdot = cos_theta_perturbation()
        quad = cosphere_quadrature(CIRCLE, 64, 4)
        basis = basis_for(CIRCLE, 48)
        for sign, want in ((1, 4.0), (-1, 1.0)):
            closed = induced_norm_closed(g, gdot, quad, trace_sign=sign)
            trace = trace_norm(g, gdot, basis, trace_sign=sign)
            assert closed == pytest.approx(want, abs=1e-10)
            assert trace == pytest.approx(want, abs=1e-10)

    def test_torus_derivative_convention_cross_validates(self):
        g = reference_metric(TORUS)
        gdot = cos_x1_dx1()
        closed = induced_norm_closed(g, gdot, cosphere_quadrature(TORUS, 32, 64),
                                     trace_sign=-1)
        assert closed == pytest.approx(3 * math.pi / 8, rel=1e-12)
        val = trace_norm(g, gdot, basis_for(TORUS, 100), trace_sign=-1)
        assert val == pytest.approx(closed, rel=0.15)

    def test_torus_trace_approaches_closed_form(self):
        closed = induced_norm_closed(
            reference_metric(TORUS), cos_x1_dx1(), cosphere_quadrature(TORUS, 32, 64)
        )
        assert closed == pytest.approx(11 * math.pi / 8, rel=1e-12)
        val = trace_norm(reference_metric(TORUS), cos_x1_dx1(), basis_for(TORUS, 100))
        assert val == pytest.approx(closed, rel=0.15)

    def test_diagonal_r_divides_as_solve_does(self, monkeypatch):
        # R of g0 is diagonal: dividing Rdot by it agrees with an LU solve
        # to round-off, and no solve runs
        basis = basis_for(TORUS, 100)
        r, rdot = trace_operators(reference_metric(TORUS), cos_x1_dx1(), basis)
        assert r.shape == (basis.dim,)
        x = np.linalg.solve(np.diag(r), rdot)
        divided = rdot / r[:, None]
        assert np.abs(divided - x).max() <= 1e-15 * np.abs(x).max()
        want = basis.mu_top ** -2 * float(np.einsum("ij,ji->", x, x))

        def refuse(*args):
            raise AssertionError("solve against a diagonal R")

        monkeypatch.setattr(np.linalg, "solve", refuse)
        assert induced_norm_trace(r, rdot, basis) == pytest.approx(want, rel=1e-14)

    def test_full_r_is_solved(self, monkeypatch):
        basis = basis_for(TORUS, 25)
        r, rdot = trace_operators(aniso_metric(), cos_x1_dx1(), basis)
        assert r.shape == (basis.dim, basis.dim)
        calls = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: calls.append(1) or solve(a, b))
        induced_norm_trace(r, rdot, basis)
        assert calls == [1]

    def test_positivity_on_nonzero_perturbations(self):
        quad = cosphere_quadrature(TORUS, 16, 32)
        g = reference_metric(TORUS)
        for gdot in (cos_x1_dx1(),
                     MetricPerturbation("sin-off", TORUS, lambda p: np.tile(
                         np.array([[0.0, 1.0], [1.0, 0.0]]), (np.atleast_2d(p).shape[0], 1, 1))
                     )):
            assert induced_norm_closed(g, gdot, quad) > 0.0

    @given(st.floats(-4, 4))
    def test_bilinearity(self, alpha):
        quad = cosphere_quadrature(CIRCLE, 32, 4)
        g = reference_metric(CIRCLE)
        gdot = cos_theta_perturbation()
        scaled = MetricPerturbation(
            "scaled", CIRCLE, lambda p: alpha * gdot.matrix_fn(p)
        )
        base = induced_norm_closed(g, gdot, quad)
        got = induced_norm_closed(g, scaled, quad)
        assert got == pytest.approx(alpha**2 * base, abs=1e-12 * (1 + alpha**2))


class TestSzegoTrace:
    def test_weyl_case_counts_dimension(self):
        basis = basis_for(TORUS, 100)
        quad = cosphere_quadrature(TORUS, 16, 16)
        one = ScalarField("one", lambda p: np.ones(np.atleast_2d(p).shape[0]))
        measured, predicted, ratio = szego([one], basis, quad)
        assert measured == pytest.approx(basis.dim)
        assert ratio == pytest.approx(1.0, abs=0.02)

    def test_two_factor_torus_cosine(self):
        basis = basis_for(TORUS, 100)
        quad = cosphere_quadrature(TORUS, 32, 16)
        cosx1 = ScalarField("cosx1", lambda p: np.cos(np.atleast_2d(p)[:, 0]))
        measured, predicted, ratio = szego([cosx1, cosx1], basis, quad)
        assert predicted == pytest.approx(basis.mu_top**2 * math.pi / 2, rel=1e-10)
        assert ratio == pytest.approx(1.0, abs=0.07)

    def test_circle_exponential_bessel_oracle(self):
        # independent oracle: int e^{cos} = 2 pi I0(1) with I0 by power series
        i0 = sum((0.25**k) / math.factorial(k) ** 2 for k in range(18))
        basis = basis_for(CIRCLE, 64)
        quad = cosphere_quadrature(CIRCLE, 256, 4)
        f = ScalarField("ecos", lambda p: np.exp(np.cos(np.atleast_2d(p)[:, 0])))
        measured, predicted, ratio = szego([f], basis, quad)
        assert predicted == pytest.approx(2 * basis.mu_top * i0, rel=1e-12)
        assert measured == pytest.approx((2 * 64 + 1) * i0, rel=1e-12)
        assert ratio == pytest.approx(1.0, abs=0.01)

    def test_three_factor_limit(self, monkeypatch):
        basis = basis_for(CIRCLE, 16)
        quad = cosphere_quadrature(CIRCLE, 64, 4)
        one = ScalarField("one", lambda p: np.ones(np.atleast_2d(p).shape[0]))
        # the factor count is checked before any assembly
        monkeypatch.setattr(metspace, "assemble", None)
        with pytest.raises(InputError, match="1 to 3"):
            szego_trace([one] * 4, basis, quad)

    def test_repeated_field_is_assembled_once(self, monkeypatch, capsys):
        basis = basis_for(TORUS, 25)
        quad = cosphere_quadrature(TORUS, 16, 16)
        cosx1 = ScalarField("cosx1", lambda p: np.cos(np.atleast_2d(p)[:, 0]))
        twin = ScalarField("cosx1", lambda p: np.cos(np.atleast_2d(p)[:, 0]))
        separate = szego([cosx1, twin], basis, quad)
        calls = []
        real = metspace.assemble
        monkeypatch.setattr(metspace, "assemble",
                            lambda s, *a, **k: calls.append(s) or real(s, *a, **k))
        assert szego([cosx1, cosx1], basis, quad) == separate
        assert calls == [cosx1]
        # the command line gives a name listed twice one field object
        calls.clear()
        assert main(["szego", "--model", "torus2", "--b", "cos(x1),cos(x1)",
                     "--mu2", "25"]) == 0
        assert len(calls) == 1

    def test_mixed_symbol_and_multiplication(self):
        basis = basis_for(TORUS, 64)
        quad = cosphere_quadrature(TORUS, 16, 32)
        xi1 = SymbolField("xi1sq", TORUS, lambda p: lambda xi: xi[:, 0] ** 2,
                          x_independent=True)
        cosx1 = ScalarField("cosx1sq", lambda p: np.cos(np.atleast_2d(p)[:, 0]) ** 2)
        measured, predicted, ratio = szego([xi1, cosx1], basis, quad)
        assert ratio == pytest.approx(1.0, abs=0.10)
