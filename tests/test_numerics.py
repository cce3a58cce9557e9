"""Numerical kernels: the quadrature rules of ``quadrature_grid``, and the
dense symmetric eigen-oracles that other tests compare against."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bergman_lab.errors import InputError, NotSPDError, UnsupportedModelError
from bergman_lab.manifolds import ManifoldModel, circle, quadrature_grid, sphere2

CIRCLE, SPHERE = circle(), sphere2()


def sym_eig(mat) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a symmetric matrix."""
    a = np.asarray(mat, dtype=float)
    if not np.isfinite(a).all():
        raise InputError("matrix has non-finite entries")
    return np.linalg.eigh(0.5 * (a + a.T))


def spd_sqrt(mat) -> np.ndarray:
    """Symmetric positive square root: result @ result == input."""
    w, q = sym_eig(mat)
    if w[0] <= 0.0:
        raise NotSPDError(f"matrix is not positive-definite (min eigenvalue {w[0]:g})")
    return (q * np.sqrt(w)) @ q.T


def integrate(model, res, fn) -> float:
    """Integral of fn(points) over the model with its quadrature grid."""
    pts, w = quadrature_grid(model, res)
    return float(np.dot(w, fn(pts)))


class TestSymEig:
    def test_identity(self):
        w, q = sym_eig(np.eye(3))
        assert w == pytest.approx([1.0, 1.0, 1.0])

    def test_two_by_two_characteristic_roots(self):
        # roots of lambda^2 - 4 lambda + 3
        w, _ = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert w == pytest.approx([1.0, 3.0], abs=1e-14)

    def test_reconstruction_random_50(self):
        a = np.random.randn(50, 50)
        a = 0.5 * (a + a.T)
        w, q = sym_eig(a)
        resid = np.abs((q * w) @ q.T - a).max()
        assert resid <= 1e-10 * (1.0 + np.abs(a).max())

    def test_orthonormal_vectors(self):
        a = np.random.randn(80, 80)
        a = a + a.T
        _, q = sym_eig(a)
        assert np.abs(q.T @ q - np.eye(80)).max() <= 1e-12

    def test_desk_scale_512(self):
        a = np.random.randn(512, 512)
        a = 0.5 * (a + a.T)
        w, q = sym_eig(a)
        assert np.abs(q.T @ q - np.eye(512)).max() <= 1e-12
        assert np.abs((q * w) @ q.T - a).max() <= 1e-10 * (1.0 + np.abs(a).max())

    def test_rejects_non_finite(self):
        bad = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(InputError):
            sym_eig(bad)

    @given(st.integers(min_value=2, max_value=24), st.integers(min_value=0, max_value=2**31))
    def test_reconstruction_property(self, dim, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(dim, dim))
        a = 0.5 * (a + a.T)
        w, q = sym_eig(a)
        assert np.all(np.diff(w) >= -1e-12)
        assert np.abs((q * w) @ q.T - a).max() <= 1e-10 * (1.0 + np.abs(a).max())


class TestSpdSqrt:
    def test_identity(self):
        r = spd_sqrt(np.eye(4))
        assert np.abs(r - np.eye(4)).max() <= 1e-14

    def test_diagonal(self):
        r = spd_sqrt(np.diag([4.0, 9.0]))
        assert r == pytest.approx(np.diag([2.0, 3.0]))

    def test_squares_back(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        r = spd_sqrt(a)
        assert np.abs(r @ r - a).max() <= 1e-12

    def test_rejects_indefinite(self):
        with pytest.raises(NotSPDError):
            spd_sqrt(np.diag([1.0, -1.0]))

    def test_desk_scale_512(self):
        b = np.random.randn(512, 512)
        a = b @ b.T + 512 * np.eye(512)
        r = spd_sqrt(a)
        assert np.abs(r @ r - a).max() <= 1e-10 * np.abs(a).max()

    @given(st.integers(min_value=2, max_value=16), st.integers(min_value=0, max_value=2**31))
    def test_roundtrip_property(self, dim, seed):
        rng = np.random.default_rng(seed)
        b = rng.normal(size=(dim, dim))
        a = b @ b.T + dim * np.eye(dim)
        r = spd_sqrt(a)
        scale = np.abs(a).max()
        assert np.abs(r @ r - a).max() <= 1e-10 * scale


class TestQuadrature:
    """The circle grid is the periodic trapezoid; the sphere grid crosses
    Gauss-Legendre in x3 = cos(theta) with a trapezoid in phi."""

    def test_trapezoid_cos_squared(self):
        got = integrate(CIRCLE, 8, lambda p: np.cos(p[:, 0]) ** 2)
        assert got == pytest.approx(math.pi, abs=1e-14)

    def test_gauss_legendre_degree_three(self):
        # two nodes integrate x3^2 exactly: 2 pi * 2/3
        got = integrate(SPHERE, 2, lambda p: np.cos(p[:, 0]) ** 2)
        assert got == pytest.approx(4 * math.pi / 3, abs=2 * math.pi * 1e-14)

    def test_weight_sum_is_measure(self):
        assert quadrature_grid(CIRCLE, 4)[1].sum() == pytest.approx(2 * math.pi, abs=1e-12)
        assert quadrature_grid(SPHERE, 7)[1].sum() == pytest.approx(4 * math.pi, rel=1e-12)

    def test_too_few_nodes(self):
        with pytest.raises(InputError):
            quadrature_grid(CIRCLE, 1)

    def test_unknown_kind(self):
        with pytest.raises(UnsupportedModelError):
            quadrature_grid(ManifoldModel("klein", 2, 1.0), 4)

    @given(st.integers(min_value=2, max_value=20), st.integers(min_value=0, max_value=19))
    def test_trapezoid_trig_exactness(self, m, k):
        # exact for trigonometric polynomials of degree < m
        got = integrate(CIRCLE, m, lambda p: np.cos(k * p[:, 0]))
        want = 2 * math.pi if k == 0 else 0.0
        if k < m:
            assert got == pytest.approx(want, abs=1e-12)

    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=23))
    def test_gauss_exactness_class(self, m, deg):
        got = integrate(SPHERE, m, lambda p: np.cos(p[:, 0]) ** deg)
        want = 0.0 if deg % 2 else 4 * math.pi / (deg + 1)
        if deg <= 2 * m - 1:
            assert got == pytest.approx(want, abs=2 * math.pi * 1e-12)
