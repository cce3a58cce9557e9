import math
from dataclasses import replace

import numpy as np
import pytest

from bergman_lab import operators
from bergman_lab.bergman import dd_kernel
from bergman_lab.errors import NotSPDError, UnsupportedModelError
from bergman_lab.fields import (
    MetricField,
    reference_metric,
    relative_errors,
    sym2x2_eigs,
)
from bergman_lab.hilb import (
    approximate,
    hilb_n,
    hilb_symbol,
    normalization_constant,
)
from bergman_lab.manifolds import basis_for, circle, quadrature_grid, sphere2, torus2
from bergman_lab.operators import (
    ScalarField,
    assemble_kohn_nirenberg,
    assemble_multiplication,
    positivity_repair,
)

CIRCLE, TORUS, SPHERE = circle(), torus2(), sphere2()


def conformal(model, u):
    from bergman_lab.manifolds import g0_matrices

    def matrices(p):
        pts = np.atleast_2d(p)
        return np.exp(u(pts))[:, None, None] * g0_matrices(model, pts)

    return MetricField("conformal", model, matrices, conformal_u=u)


def aniso_diag(a, b):
    def matrices(p):
        pts = np.atleast_2d(p)
        out = np.zeros((pts.shape[0], 2, 2))
        out[:, 0, 0] = np.exp(a * np.cos(pts[:, 0]))
        out[:, 1, 1] = np.exp(b * np.cos(pts[:, 1]))
        return out

    return MetricField("aniso", TORUS, matrices)


class TestHilbSymbol:
    def test_reference_metric_gives_constant(self):
        for model in (CIRCLE, TORUS, SPHERE):
            sym = hilb_symbol(reference_metric(model))
            pts, _ = quadrature_grid(model, 6)
            xi = np.zeros((pts.shape[0], model.dim))
            xi[:, 0] = 1.0
            c_n = normalization_constant(model)
            np.testing.assert_allclose(sym.values(pts, xi), c_n, rtol=1e-13)

    def test_normalization_constants(self):
        assert normalization_constant(CIRCLE) == pytest.approx(3 * math.pi)
        assert normalization_constant(TORUS) == pytest.approx(16 * math.pi)

    def test_circle_conformal_one_line_algebra(self):
        # det ratio e^{-u/2} times |xi|_g^{-3} = e^{3u/2} gives c1 e^u
        u = lambda p: np.cos(p[:, 0])
        sym = hilb_symbol(conformal(CIRCLE, u))
        theta = np.linspace(0.1, 6.0, 9)[:, None]
        got = sym.values(theta, np.ones((9, 1)))
        want = 3 * math.pi * np.exp(np.cos(theta[:, 0]))
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_torus_constant_diagonal_metric(self):
        g = MetricField(
            "diag41", TORUS,
            lambda p: np.broadcast_to(np.diag([4.0, 1.0]), (np.atleast_2d(p).shape[0], 2, 2)).copy(),
        )
        sym = hilb_symbol(g)
        pts = np.array([[0.2, 1.1]])
        for xi in ([1.0, 0.0], [0.0, 1.0], [0.6, 0.8]):
            got = sym.values(pts, np.array([xi]))[0]
            want = 16 * math.pi * 0.5 * (xi[0] ** 2 / 4 + xi[1] ** 2) ** -2
            assert got == pytest.approx(want, rel=1e-12)

    def test_degenerate_metric_rejected(self):
        g = MetricField("bad", CIRCLE, lambda p: -np.ones((np.atleast_2d(p).shape[0], 1, 1)))
        sym = hilb_symbol(g)
        with pytest.raises(NotSPDError):
            sym.values(np.array([[0.0]]), np.array([[1.0]]))


class TestHilbN:
    def test_reference_metric_gives_scaled_identity(self):
        for model, cutoff in ((CIRCLE, 8), (TORUS, 8), (SPHERE, 6)):
            basis = basis_for(model, cutoff)
            mat, shift = positivity_repair(hilb_n(reference_metric(model), basis))
            mat = np.diag(mat) if mat.ndim == 1 else mat  # flat models: a 1-D diagonal
            c_n = normalization_constant(model)
            assert np.abs(mat - c_n * np.eye(basis.dim)).max() <= 1e-10 * c_n
            assert shift == 0.0

    def test_reference_metric_needs_no_fiber_sampling(self, monkeypatch):
        # hilb(g0) is the constant c_n, x-independent: the exact diagonal
        # with no fiber sampling, equal to the full quantization to round-off
        basis = basis_for(TORUS, 100)
        symbol = hilb_symbol(reference_metric(TORUS))
        full = assemble_kohn_nirenberg(replace(symbol, x_independent=False), basis)

        def refuse(*args, **kwargs):
            raise AssertionError("fiber sampling for an x-independent symbol")

        monkeypatch.setattr(operators, "_fiber_samples", refuse)
        diag = hilb_n(reference_metric(TORUS), basis)
        assert diag.shape == (basis.dim,)
        assert np.abs(np.diag(diag) - full).max() <= 1e-14 * np.abs(full).max()

    def test_circle_conformal_reduces_to_multiplication(self):
        u = lambda p: np.cos(p[:, 0])
        basis = basis_for(CIRCLE, 12)
        mat = hilb_n(conformal(CIRCLE, u), basis)
        mult = assemble_multiplication(
            ScalarField("c1eu", lambda p: 3 * math.pi * np.exp(np.cos(np.atleast_2d(p)[:, 0]))),
            basis,
        )
        assert np.abs(mat - mult).max() <= 1e-10 * 3 * math.pi

    def test_torus_anisotropic_is_spd_with_small_shift(self):
        basis = basis_for(TORUS, 64)
        mat, shift = positivity_repair(hilb_n(aniso_diag(0.3, 0.3), basis))
        assert np.linalg.eigvalsh(mat)[0] > 0
        assert shift <= 1e-3 * np.abs(mat).max()

    def test_sphere_needs_conformal(self):
        g = MetricField(
            "notconf", SPHERE,
            lambda p: np.broadcast_to(np.diag([2.0, 1.0]), (np.atleast_2d(p).shape[0], 2, 2)).copy(),
        )
        with pytest.raises(UnsupportedModelError):
            hilb_n(g, basis_for(SPHERE, 4))


class TestApproximate:
    def test_reference_metric_recovered_within_envelope(self):
        basis = basis_for(CIRCLE, 64)
        pts, w = quadrature_grid(CIRCLE, 64)
        field, shift = approximate(hilb_n(reference_metric(CIRCLE), basis), basis, pts)
        sup, _ = relative_errors(pts, field, reference_metric(CIRCLE), w)
        assert sup <= 0.05
        assert shift == 0.0

    @pytest.mark.parametrize(
        "model,cutoff,grid",
        [(CIRCLE, 24, 48), (TORUS, 10, 8), (SPHERE, 8, 10)],
    )
    def test_conformal_consistency_with_multiplication_path(self, model, cutoff, grid):
        # approximate(e^u g0) must coincide with the direct multiplication
        # compression of c_n e^u on every model, including the quantized torus
        u = lambda p: 0.4 * np.cos(p[:, 0])
        g = conformal(model, u)
        basis = basis_for(model, cutoff)
        pts, _ = quadrature_grid(model, grid)
        field, _ = approximate(hilb_n(g, basis), basis, pts)
        c_n = normalization_constant(model)
        mult = assemble_multiplication(
            ScalarField("cneu", lambda p: c_n * np.exp(u(np.atleast_2d(p)))),
            basis,
        )
        n = model.dim
        direct = basis.mu_top ** -(n + 2) * dd_kernel(mult, basis, pts)
        assert np.abs(field - direct).max() <= 1e-10 * np.abs(
            direct
        ).max()

    def test_sphere_conformal_runs(self):
        u = lambda p: 0.3 * np.cos(p[:, 0])
        g = conformal(SPHERE, u)
        basis = basis_for(SPHERE, 16)
        pts, w = quadrature_grid(SPHERE, 10)
        field, _ = approximate(hilb_n(g, basis), basis, pts)
        sup, _ = relative_errors(pts, field, g, w)
        assert sup <= 0.25  # desk-scale sanity; acceptance tightens this

    def test_approximation_fields_are_spd(self):
        u = lambda p: np.cos(p[:, 0])
        g = conformal(CIRCLE, u)
        basis = basis_for(CIRCLE, 32)
        pts, _ = quadrature_grid(CIRCLE, 64)
        field, _ = approximate(hilb_n(g, basis), basis, pts)
        assert field[:, 0, 0].min() > 0.0
        gt = aniso_diag(0.3, 0.3)
        basis_t = basis_for(TORUS, 64)
        pts_t, _ = quadrature_grid(TORUS, 12)
        field_t, _ = approximate(hilb_n(gt, basis_t), basis_t, pts_t)
        assert sym2x2_eigs(field_t)[0].min() > 0.0

    def test_metric_rescaling_covariance(self):
        # Hilb is covariant under g -> lambda^2 g: the approximation scales
        # by exactly lambda^2
        lam_sq = 2.5
        g1 = aniso_diag(0.3, 0.2)
        g2 = MetricField("scaled", TORUS, lambda p: lam_sq * g1.matrix_fn(p))
        basis = basis_for(TORUS, 16)
        pts, _ = quadrature_grid(TORUS, 6)
        f1, _ = approximate(hilb_n(g1, basis), basis, pts)
        f2, _ = approximate(hilb_n(g2, basis), basis, pts)
        assert np.abs(f2 - lam_sq * f1).max() <= 1e-10 * np.abs(
            f2
        ).max()

    def test_coordinate_relabeling_covariance(self):
        # swapping x1 <-> x2 relabels the lattice; the approximation commutes
        g = aniso_diag(0.3, 0.2)

        def swapped_matrices(p):
            pts = np.atleast_2d(p)
            m = g.matrix_fn(pts[:, ::-1])
            return m[:, ::-1, :][:, :, ::-1]

        gs = MetricField("swapped", TORUS, swapped_matrices)
        basis = basis_for(TORUS, 16)
        pts, _ = quadrature_grid(TORUS, 6)
        f1, _ = approximate(hilb_n(g, basis), basis, pts)
        f2, _ = approximate(hilb_n(gs, basis), basis, pts)
        swapped_vals = f1[:, ::-1, :][:, :, ::-1]
        # evaluate f1 at swapped points: grid is symmetric under the swap
        order = np.lexsort((pts[:, 1], pts[:, 0]))
        swapped_pts = pts[:, ::-1]
        order2 = np.lexsort((swapped_pts[:, 1], swapped_pts[:, 0]))
        assert np.abs(
            f2[order] - swapped_vals[order2]
        ).max() <= 1e-10 * np.abs(f2).max()


class TestApproxError:
    def test_identical_fields(self):
        g = reference_metric(TORUS)
        pts, w = quadrature_grid(TORUS, 6)
        sup, l2 = relative_errors(pts, g.matrices(pts), g, w)
        assert sup == 0.0 and l2 == 0.0

    def test_scaled_field(self):
        g = reference_metric(TORUS)
        pts, w = quadrature_grid(TORUS, 6)
        field = 1.1 * g.matrices(pts)
        sup, l2 = relative_errors(pts, field, g, w)
        assert sup == pytest.approx(0.1, rel=1e-12)
        assert l2 == pytest.approx(0.1, rel=1e-12)
