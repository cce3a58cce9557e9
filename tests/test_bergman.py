import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bergman_lab.bergman import (
    _contract,
    dd_kernel,
    fit_growth,
    isometry_measurement,
    isometry_theory_coefficient,
)
from bergman_lab.cli import main
from bergman_lab.errors import InputError
from bergman_lab.fields import g0_operator_norms, sym2x2_eigs
from bergman_lab.manifolds import (
    basis_for,
    circle,
    eval_basis,
    fiber_bundle,
    fiber_tensor,
    g0_matrices,
    quadrature_grid,
    sphere2,
    torus2,
)
from bergman_lab.operators import assemble
from bergman_lab.presets import symbol_field
from test_numerics import spd_sqrt, sym_eig

CIRCLE, TORUS, SPHERE = circle(), torus2(), sphere2()


# Oracles for the paper's embedding claim and the O(d) invariance of the
# Bergman metric; no CLI command checks these, so they live with their tests.

def pullback_by_transform(q, basis, points):
    """(Q Phi)* g_E for a full-rank linear map Q of the eigenspace."""
    w, _ = sym_eig(q.T @ q)
    if w[0] <= 1e-24 * max(w[-1], 1.0):
        raise InputError("transform is singular")
    return dd_kernel(q.T @ q, basis, points)


def immersion_margin(basis, points):
    """Minimum over the grid of the smallest singular value of the Jacobian."""
    _, grads = eval_basis(basis, points)
    gram = np.einsum("dip,djp->pij", grads, grads)  # (P, n, n)
    smin = gram[:, 0, 0] if basis.model.dim == 1 else sym2x2_eigs(gram)[0]
    return float(np.sqrt(np.maximum(smin, 0.0)).min())


def _chart_distance(model, p, q):
    if model.kind == "sphere2":
        ct = np.cos(p[:, 0]) * np.cos(q[:, 0]) + np.sin(p[:, 0]) * np.sin(q[:, 0]) * np.cos(
            p[:, 1] - q[:, 1]
        )
        return np.arccos(np.clip(ct, -1.0, 1.0))
    delta = np.abs(p - q)
    delta = np.minimum(delta, 2.0 * math.pi - delta)  # periodic charts
    return np.sqrt((delta**2).sum(axis=1))


def injectivity_margin(basis, pairs):
    """Minimum ratio (embedded distance / chart distance) over sample pairs.

    A sampled certificate only: positivity at the sample scale, not a proof.
    """
    p, q = pairs
    dist = _chart_distance(basis.model, p, q)
    if np.any(dist == 0.0):
        raise InputError("coincident sample pair")
    vp, _ = eval_basis(basis, p)
    vq, _ = eval_basis(basis, q)
    emb = np.sqrt(((vp - vq) ** 2).sum(axis=0))
    return float((emb / dist).min())


def random_orthogonal(dim, seed=3):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q


class TestDDKernel:
    def test_circle_identity_closed_form(self):
        basis = basis_for(CIRCLE, 3)
        pts, _ = quadrature_grid(CIRCLE, 16)
        fld = dd_kernel(np.eye(basis.dim), basis, pts)
        want = 14.0 / math.pi  # (1 + 4 + 9)/pi
        np.testing.assert_allclose(fld[:, 0, 0], want, rtol=1e-13)

    def test_torus_identity_lattice_sum(self):
        basis = basis_for(TORUS, 5)
        pts, _ = quadrature_grid(TORUS, 8)
        fld = dd_kernel(np.eye(basis.dim), basis, pts)
        want = 17.0 / (2 * math.pi**2)
        np.testing.assert_allclose(fld[:, 0, 0], want, rtol=1e-12)
        np.testing.assert_allclose(fld[:, 1, 1], want, rtol=1e-12)
        np.testing.assert_allclose(fld[:, 0, 1], 0.0, atol=1e-12)

    def test_torus_identity_matches_independent_enumeration(self):
        # independent oracle: direct half-lattice sum of k (x) k / (2 pi^2)
        cutoff = 100
        basis = basis_for(TORUS, cutoff)
        acc = np.zeros((2, 2))
        kmax = int(math.isqrt(cutoff))
        for a in range(0, kmax + 1):
            for b in range(-kmax, kmax + 1):
                if (a == 0 and b <= 0) or a * a + b * b > cutoff:
                    continue
                k = np.array([a, b], dtype=float)
                acc += np.outer(k, k) / (2 * math.pi**2)
        pts = np.array([[0.3, 5.1]])
        fld = dd_kernel(np.eye(basis.dim), basis, pts)
        np.testing.assert_allclose(
            fld[0], acc, rtol=1e-10, atol=1e-10 * acc.max()
        )

    def test_diagonal_contraction_is_the_dense_gemm(self):
        # the matrix of the Fourier multiplier xi1sq, zero on the diagonal
        # wherever k1 = 0, contracted from its diagonal without a GEMM
        basis = basis_for(TORUS, 400)
        diag = assemble(symbol_field("xi1sq", TORUS), basis)
        mat = np.diag(diag)
        assert diag.shape == (basis.dim,) and (diag == 0.0).any()
        _, grads = eval_basis(basis, quadrature_grid(TORUS, 16)[0])
        np.testing.assert_array_equal(_contract(diag, grads, grads), _contract(mat, grads, grads))

    def test_zero_matrix(self):
        basis = basis_for(TORUS, 4)
        pts, _ = quadrature_grid(TORUS, 4)
        fld = dd_kernel(np.zeros((basis.dim, basis.dim)), basis, pts)
        assert np.abs(fld).max() == 0.0

    def test_translation_invariance_on_flat_models(self):
        for model, cutoff, res in ((CIRCLE, 20, 32), (TORUS, 20, 8)):
            basis = basis_for(model, cutoff)
            pts, _ = quadrature_grid(model, res)
            fld = dd_kernel(None, basis, pts)
            spread = fld - fld[0]
            assert np.abs(spread).max() <= 1e-10 * np.abs(fld).max()

    def test_dimension_mismatch(self):
        basis = basis_for(CIRCLE, 3)
        with pytest.raises(InputError):
            dd_kernel(np.eye(5), basis, np.array([[0.0]]))

    @given(st.floats(-3, 3), st.floats(-3, 3), st.integers(0, 2**31))
    def test_linearity(self, alpha, beta, seed):
        basis = basis_for(CIRCLE, 5)
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(basis.dim, basis.dim))
        a = a + a.T
        b = rng.normal(size=(basis.dim, basis.dim))
        b = b + b.T
        pts = np.array([[0.2], [1.9]])
        combo = dd_kernel(alpha * a + beta * b, basis, pts)
        parts = alpha * dd_kernel(a, basis, pts) + beta * dd_kernel(b, basis, pts)
        scale = 1.0 + np.abs(combo).max()
        assert np.abs(combo - parts).max() <= 1e-12 * scale

    @pytest.mark.parametrize("model, cutoff, top, grid", [
        (CIRCLE, 8, 24, 32), (TORUS, 25, 49, 12), (SPHERE, 4, 9, 8), (SPHERE, 9, 9, 8),
    ])
    def test_top_window_gradients_give_the_same_field(self, model, cutoff, top, grid):
        # a window's gradients are the leading rows of a larger window's
        pts, _ = quadrature_grid(model, grid)
        basis = basis_for(model, cutoff)
        _, grads = eval_basis(basis_for(model, top), pts)
        a = np.random.default_rng(cutoff).standard_normal((basis.dim, basis.dim))
        for mat in (a + a.T, None):
            want = dd_kernel(mat, basis, pts)
            assert np.array_equal(dd_kernel(mat, basis, pts, grads), want)

    def test_window_growth_bound_circle(self):
        # consecutive-window fields are PSD with norm <= C delta mu^{n+1},
        # C stable (within 2x) across the top octave
        delta = 4
        consts = []
        for n0 in (16, 24, 32):
            big = basis_for(CIRCLE, n0 + delta)
            lo = 2 * n0 + 1
            a = np.zeros(big.dim)
            a[lo:] = 1.0  # window (n0, n0+delta]
            pts, _ = quadrature_grid(CIRCLE, 16)
            fld = dd_kernel(np.diag(a), big, pts)
            assert fld.min() >= 0.0
            consts.append(np.abs(fld).max() / (delta * n0**2))
        assert max(consts) <= 2.0 * min(consts)

    def test_window_growth_bound_torus(self):
        consts = []
        pts, _ = quadrature_grid(TORUS, 8)
        for mu2 in (100, 196, 400):
            outer = 2 * mu2
            big = basis_for(TORUS, outer)
            lo = basis_for(TORUS, mu2).dim
            a = np.zeros(big.dim)
            a[lo:] = 1.0  # annulus mu^2 in (mu2, 2 mu2]
            fld = dd_kernel(np.diag(a), big, pts)
            sup = g0_operator_norms(TORUS, pts, fld).max()
            assert sym2x2_eigs(fld)[0].min() >= -1e-10 * sup
            mu = math.sqrt(mu2)
            delta = math.sqrt(outer) - mu
            consts.append(sup / (delta * mu**3))
        assert max(consts) <= 2.0 * min(consts)


class TestENMap:
    """E_N of an inner product is dd_kernel of its matrix."""

    def test_identity_reproduces_dd(self):
        basis = basis_for(CIRCLE, 4)
        pts, _ = quadrature_grid(CIRCLE, 8)
        np.testing.assert_allclose(
            dd_kernel(np.eye(basis.dim), basis, pts),
            dd_kernel(None, basis, pts),
            rtol=1e-14,
        )

    def test_scaling_bilinearity(self):
        basis = basis_for(CIRCLE, 4)
        pts, _ = quadrature_grid(CIRCLE, 8)
        c = 2.75
        np.testing.assert_allclose(
            dd_kernel(c * np.eye(basis.dim), basis, pts),
            c * dd_kernel(None, basis, pts),
            rtol=1e-13,
        )

    def test_against_transformed_basis_oracle(self):
        # dd(R) must equal the pullback by the explicitly transformed basis
        # sqrt(R) Phi, assembled from transformed gradients
        basis = basis_for(TORUS, 4)
        rng = np.random.default_rng(7)
        b = rng.normal(size=(basis.dim, basis.dim))
        r = b @ b.T + basis.dim * np.eye(basis.dim)
        pts, _ = quadrature_grid(TORUS, 4)
        lhs = dd_kernel(r, basis, pts)
        root = spd_sqrt(r)
        _, grads = eval_basis(basis, pts)
        tg = np.einsum("ab,bip->aip", root, grads)
        rhs = np.einsum("aip,ajp->pij", tg, tg)
        assert np.abs(lhs - rhs).max() <= 1e-10 * np.abs(rhs).max()


class TestPullback:
    def test_orthogonal_invariance(self):
        basis = basis_for(CIRCLE, 6)
        pts, _ = quadrature_grid(CIRCLE, 8)
        o = random_orthogonal(basis.dim)
        base = dd_kernel(None, basis, pts)
        got = pullback_by_transform(o, basis, pts)
        assert np.abs(got - base).max() <= 1e-10 * np.abs(base).max()

    @given(st.integers(0, 2**31))
    def test_orthogonal_composition_property(self, seed):
        basis = basis_for(CIRCLE, 4)
        pts = np.array([[0.4], [2.2]])
        rng = np.random.default_rng(seed)
        q = rng.normal(size=(basis.dim, basis.dim)) + 2 * np.eye(basis.dim)
        o, _ = np.linalg.qr(rng.normal(size=(basis.dim, basis.dim)))
        a = pullback_by_transform(o @ q, basis, pts)
        b = pullback_by_transform(q, basis, pts)
        assert np.abs(a - b).max() <= 1e-10 * (1.0 + np.abs(b).max())

    def test_rank_one_stretch(self):
        basis = basis_for(CIRCLE, 3)
        pts, _ = quadrature_grid(CIRCLE, 8)
        j = 2  # stretch one direction by 2: adds 3 dphi_j (x) dphi_j
        q = np.eye(basis.dim)
        q[j, j] = 2.0
        got = pullback_by_transform(q, basis, pts)
        base = dd_kernel(None, basis, pts)
        _, grads = eval_basis(basis, pts)
        bump = 3.0 * np.einsum("ip,jp->pij", grads[j], grads[j])
        assert np.abs(got - base - bump).max() <= 1e-12 * np.abs(got).max()

    def test_padded_extension_converges_quadratically(self):
        # extending the basis one level with weight t perturbs by O(t^2)
        small = basis_for(CIRCLE, 3)
        big = basis_for(CIRCLE, 4)
        pts, _ = quadrature_grid(CIRCLE, 8)
        target = dd_kernel(None, small, pts)
        errs = []
        for t in (1e-2, 1e-3):
            q = np.eye(big.dim)
            q[small.dim:, small.dim:] *= t
            got = pullback_by_transform(q, big, pts)
            errs.append(np.abs(got - target).max())
        ratio = errs[0] / errs[1]
        assert 50 <= ratio <= 200

    def test_singular_transform_rejected(self):
        basis = basis_for(CIRCLE, 2)
        q = np.eye(basis.dim)
        q[0, 0] = 0.0
        with pytest.raises(InputError):
            pullback_by_transform(q, basis, np.array([[0.0]]))


class TestEmbeddingMargins:
    def test_circle_immersion_closed_form(self):
        for n in (1, 3, 7):
            basis = basis_for(CIRCLE, n)
            pts, _ = quadrature_grid(CIRCLE, 16)
            margin = immersion_margin(basis, pts)
            want = math.sqrt(sum(k * k for k in range(1, n + 1)) / math.pi)
            assert margin == pytest.approx(want, rel=1e-12)

    def test_constant_only_is_not_an_immersion(self):
        basis = basis_for(CIRCLE, 0)
        pts, _ = quadrature_grid(CIRCLE, 8)
        assert immersion_margin(basis, pts) == 0.0

    def test_torus_immersion_positive(self):
        basis = basis_for(TORUS, 2)
        pts, _ = quadrature_grid(TORUS, 8)
        assert immersion_margin(basis, pts) > 0.0

    def test_circle_injectivity_antipodal(self):
        basis = basis_for(CIRCLE, 1)
        p = np.array([[0.0], [1.0]])
        q = np.array([[math.pi], [1.0 + math.pi]])
        assert injectivity_margin(basis, (p, q)) > 0.0

    def test_sphere_degree_one_injective(self):
        basis = basis_for(SPHERE, 1)
        pts, _ = quadrature_grid(SPHERE, 6)
        p = pts[:-1]
        q = pts[1:]
        assert injectivity_margin(basis, (p, q)) > 0.0

    def test_constant_basis_ratio_zero(self):
        basis = basis_for(CIRCLE, 0)
        assert injectivity_margin(
            basis, (np.array([[0.0]]), np.array([[1.0]]))
        ) == 0.0

    def test_coincident_pair_rejected(self):
        basis = basis_for(CIRCLE, 1)
        with pytest.raises(InputError):
            injectivity_margin(basis, (np.array([[1.0]]), np.array([[1.0]])))


def isometry_fit(model, cutoffs, grid_res):
    """fit_growth over isometry_measurement: the fit the isometry command makes."""
    pts, _ = quadrature_grid(model, grid_res)
    pairs = [isometry_measurement(model, c, pts) for c in cutoffs]
    return fit_growth([p[0] for p in pairs], [p[1] for p in pairs], model.dim)


class TestIsometryFit:
    def test_circle_constant(self):
        c = isometry_fit(CIRCLE, [8, 16, 32, 64], grid_res=32)
        assert c == pytest.approx(1 / (3 * math.pi), rel=0.01)
        assert isometry_theory_coefficient(CIRCLE) == pytest.approx(1 / (3 * math.pi))

    def test_torus_constant(self):
        # lattice-count fluctuations need the sweep to reach mu^2 ~ 400
        c = isometry_fit(TORUS, [64, 100, 144, 225, 400], grid_res=6)
        assert c == pytest.approx(1 / (16 * math.pi), rel=0.05)
        assert isometry_theory_coefficient(TORUS) == pytest.approx(1 / (16 * math.pi))

    def test_sphere_constant(self):
        c = isometry_fit(SPHERE, [6, 10, 14, 18], grid_res=8)
        assert c == pytest.approx(1 / (16 * math.pi), rel=0.05)

    def test_needs_three_levels(self, capsys):
        assert main(["isometry", "--model", "circle", "--n", "4,8"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_fit_growth_recovers_exact_law(self):
        mus = np.array([4.0, 8.0, 16.0, 32.0])
        measured = 0.7 * mus**3 + 0.1 * mus**2
        assert fit_growth(mus, measured, 1) == pytest.approx(0.7, rel=1e-10)


def tensor_sphere_average(model, point, fiber_res=32):
    """Fiber integral of xi (x) xi over one point: Vol(S^{n-1})/n times g0."""
    _, xis, w = fiber_bundle(model, point, fiber_res)
    return fiber_tensor(np.ones(len(w)), xis, w)[0]


class TestTensorSphereAverage:
    def test_two_dimensional_fiber(self):
        for model, point in ((TORUS, np.array([0.5, 1.0])), (SPHERE, np.array([1.2, 0.3]))):
            avg = tensor_sphere_average(model, point, fiber_res=32)
            g0 = g0_matrices(model, point[None, :])[0]
            np.testing.assert_allclose(avg, math.pi * g0, atol=1e-10 * math.pi)

    def test_one_dimensional_fiber(self):
        avg = tensor_sphere_average(CIRCLE, np.array([0.3]))
        np.testing.assert_allclose(avg, 2.0 * np.eye(1), atol=1e-14)

    def test_off_diagonal_vanishes(self):
        avg = tensor_sphere_average(TORUS, np.array([0.0, 0.0]), fiber_res=64)
        assert abs(avg[0, 1]) <= 1e-14
