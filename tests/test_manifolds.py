import math
import tracemalloc

import numpy as np
import pytest

from bergman_lab.errors import ChartError, InputError
from bergman_lab.manifolds import (
    basis_for,
    circle,
    cosphere_quadrature,
    eval_basis,
    fiber_bundle,
    fiber_covectors,
    g0_matrices,
    g0_norm_xi,
    geodesic_flow_sphere,
    model_by_name,
    normalized_legendre,
    quadrature_grid,
    sphere2,
    torus2,
)

CIRCLE, TORUS, SPHERE = circle(), torus2(), sphere2()


def eigenvalues(basis):
    """The integer Laplace eigenvalue of each entry, from its frequencies."""
    f = basis.freqs
    return f[:, 0] * (f[:, 0] + 1) if basis.model.kind == "sphere2" else (f * f).sum(axis=1)


class TestLevels:
    def test_torus_through_five(self):
        mu_sq, mult = np.unique(eigenvalues(basis_for(TORUS, 5)), return_counts=True)
        assert list(zip(mu_sq.tolist(), mult.tolist())) == [
            (0, 1), (1, 4), (2, 4), (4, 4), (5, 8),
        ]

    def test_sphere_level_two(self):
        q = eigenvalues(basis_for(SPHERE, 2))
        assert q[-1] == 6 and (q == 6).sum() == 5

    def test_circle_dimension(self):
        assert basis_for(CIRCLE, 3).dim == 7

    def test_sphere_dimension_closed_form(self):
        for n in (1, 4, 9):
            assert basis_for(SPHERE, n).dim == (n + 1) ** 2

    @pytest.mark.parametrize("cutoff", [0, 1, 7, 40])
    def test_sphere_entries_match_level_loop(self, cutoff):
        basis = basis_for(SPHERE, cutoff)
        freqs = [[l, m] for l in range(cutoff + 1) for m in range(-l, l + 1)]
        lambdas = [math.sqrt(float(l * (l + 1))) for l, _ in freqs]
        assert basis.freqs.tolist() == freqs and basis.freqs.dtype == np.int64
        assert basis.lambdas.tolist() == lambdas and basis.kinds.tolist() == [0] * len(freqs)

    def test_torus_dimension_through_five(self):
        assert basis_for(TORUS, 5).dim == 21

    def test_offsets_are_cumulative(self):
        # entries are ordered by level, so each level is one block whose
        # offset is the number of entries below it
        q = eigenvalues(basis_for(TORUS, 40))
        assert np.all(np.diff(q) >= 0)
        _, offsets, mults = np.unique(q, return_index=True, return_counts=True)
        assert offsets.tolist() == [0] + np.cumsum(mults)[:-1].tolist()

    def test_negative_cutoff(self):
        for model in (CIRCLE, TORUS, SPHERE):
            with pytest.raises(InputError, match="cutoff must be non-negative"):
                basis_for(model, -1)

    def test_weyl_count(self):
        # d_{<=N} / (omega_n Vol(M) mu^n / (2 pi)^n) -> 1 within 5%
        for model, cutoff in ((CIRCLE, 80), (TORUS, 400), (SPHERE, 30)):
            basis = basis_for(model, cutoff)
            n = model.dim
            omega = model.sphere_fiber_volume / n
            weyl = omega * model.volume * basis.mu_top**n / (2 * math.pi) ** n
            assert basis.dim / weyl == pytest.approx(1.0, abs=0.05)


class TestEvalBasis:
    def test_circle_values_at_zero(self):
        basis = basis_for(CIRCLE, 3)
        vals, grads = eval_basis(basis, np.array([[0.0]]))
        # entries: const, cos1, sin1, cos2, sin2, cos3, sin3
        assert vals[3, 0] == pytest.approx(1 / math.sqrt(math.pi))
        assert grads[3, 0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_circle_orthonormal_desk_scale(self):
        basis = basis_for(CIRCLE, 200)
        pts, w = quadrature_grid(CIRCLE, 512)
        vals, _ = eval_basis(basis, pts)
        gram = (vals * w) @ vals.T
        assert np.abs(gram - np.eye(basis.dim)).max() <= 1e-10

    def test_torus_orthonormal_desk_scale(self):
        basis = basis_for(TORUS, 600)
        pts, w = quadrature_grid(TORUS, 64)
        vals, _ = eval_basis(basis, pts)
        gram = (vals * w) @ vals.T
        assert np.abs(gram - np.eye(basis.dim)).max() <= 1e-10

    def test_sphere_orthonormal_desk_scale(self):
        basis = basis_for(SPHERE, 40)
        pts, w = quadrature_grid(SPHERE, 44)
        vals, _ = eval_basis(basis, pts)
        gram = (vals * w) @ vals.T
        assert np.abs(gram - np.eye(basis.dim)).max() <= 1e-10

    def test_sphere_gram_small(self):
        basis = basis_for(SPHERE, 6)
        pts, w = quadrature_grid(SPHERE, 32)
        vals, _ = eval_basis(basis, pts)
        gram = (vals * w) @ vals.T
        assert np.abs(gram - np.eye(basis.dim)).max() <= 1e-10

    @pytest.mark.parametrize("model, cutoff", [(CIRCLE, 37), (TORUS, 0), (TORUS, 130)])
    def test_flat_pairs_give_the_per_row_bits(self, model, cutoff):
        # one phase, cosine and sine per (cos, sin) pair, in the order of
        # operations of a phase per row selected by kind
        basis = basis_for(model, cutoff)
        pts = np.random.default_rng(cutoff).uniform(0.0, 2.0 * np.pi, (53, model.dim))
        vals, grads = eval_basis(basis, pts)
        is_cos = (basis.kinds == 1)[:, None]
        phase = basis.freqs @ pts.T
        cos_ph, sin_ph = np.cos(phase), np.sin(phase)
        norm = math.sqrt(2.0 / model.volume)
        want = np.where(is_cos, cos_ph, sin_ph) * norm
        want[0] = 1.0 / math.sqrt(model.volume)
        np.testing.assert_array_equal(vals, want)
        want = basis.freqs[:, :, None] * np.where(is_cos, -sin_ph, cos_ph)[:, None, :] * norm
        np.testing.assert_array_equal(grads, want)

    def test_lambda_matches_level(self):
        for model, cutoff in ((CIRCLE, 9), (TORUS, 25), (SPHERE, 6)):
            basis = basis_for(model, cutoff)
            assert np.allclose(basis.lambdas**2, eigenvalues(basis)), model.kind

    def test_pole_is_chart_error(self):
        basis = basis_for(SPHERE, 2)
        with pytest.raises(ChartError):
            eval_basis(basis, np.array([[0.0, 0.0]]))

    def test_gradient_against_finite_differences(self):
        h = 1e-6
        for model, cutoff, point in (
            (CIRCLE, 6, np.array([0.7])),
            (TORUS, 8, np.array([0.7, 1.3])),
            (SPHERE, 6, np.array([1.1, 0.6])),
        ):
            basis = basis_for(model, cutoff)
            _, grads = eval_basis(basis, point[None, :])
            for axis in range(model.dim):
                dp = point.copy(); dp[axis] += h
                dm = point.copy(); dm[axis] -= h
                vp, _ = eval_basis(basis, dp[None, :])
                vm, _ = eval_basis(basis, dm[None, :])
                fd = (vp[:, 0] - vm[:, 0]) / (2 * h)
                assert np.abs(fd - grads[:, axis, 0]).max() <= 1e-6 * (
                    1 + np.abs(grads).max()
                )

    def test_eigen_equation_finite_difference(self):
        # second-difference Laplacian matches mu^2 phi to 1e-4 relative
        h = 1e-3
        for model, cutoff, point in (
            (CIRCLE, 10, np.array([0.9])),
            (TORUS, 10, np.array([0.9, 2.1])),
            (SPHERE, 8, np.array([1.2, 0.8])),
        ):
            basis = basis_for(model, cutoff)
            d = basis.dim

            def value(p):
                v, _ = eval_basis(basis, np.asarray(p)[None, :])
                return v[:, 0]

            v0 = value(point)
            second = np.zeros((model.dim, d))
            for axis in range(model.dim):
                dp = point.copy(); dp[axis] += h
                dm = point.copy(); dm[axis] -= h
                second[axis] = (value(dp) - 2 * v0 + value(dm)) / h**2
            if model.kind == "sphere2":
                theta = point[0]
                dp = point.copy(); dp[0] += h
                dm = point.copy(); dm[0] -= h
                first_theta = (value(dp) - value(dm)) / (2 * h)
                lap = -(
                    second[0]
                    + first_theta / math.tan(theta)
                    + second[1] / math.sin(theta) ** 2
                )
            else:
                lap = -second.sum(axis=0)
            mu_sq = basis.lambdas**2
            mask = mu_sq > 0
            rel = np.abs(lap[mask] - mu_sq[mask] * v0[mask]) / (
                mu_sq[mask] * (np.abs(v0[mask]) + 1e-2)
            )
            assert rel.max() <= 1e-4


def sphere_eval_loop(basis, pts):
    """Reference sphere evaluator: one harmonic at a time, as before vectorization."""
    theta, phi = pts[:, 0], pts[:, 1]
    p, dp = normalized_legendre(int(basis.freqs[:, 0].max()), theta)
    vals = np.empty((basis.dim, len(pts)))
    grads = np.empty((basis.dim, 2, len(pts)))
    sqrt2 = math.sqrt(2.0)
    for j, (l, m) in enumerate(basis.freqs.tolist()):
        am = abs(m)
        if m == 0:
            vals[j], grads[j, 0], grads[j, 1] = p[l, 0], dp[l, 0], 0.0
        elif m > 0:
            c = np.cos(m * phi)
            vals[j] = sqrt2 * p[l, am] * c
            grads[j, 0] = sqrt2 * dp[l, am] * c
            grads[j, 1] = -sqrt2 * m * p[l, am] * np.sin(m * phi)
        else:
            s = np.sin(am * phi)
            vals[j] = sqrt2 * p[l, am] * s
            grads[j, 0] = sqrt2 * dp[l, am] * s
            grads[j, 1] = sqrt2 * am * p[l, am] * np.cos(am * phi)
    return vals, grads


class TestSphereEvaluator:
    @pytest.mark.parametrize("cutoff, npts", [(0, 3), (1, 1), (7, 50), (41, 200)])
    def test_bit_identical_to_loop(self, cutoff, npts):
        rng = np.random.default_rng(cutoff)
        pts = np.column_stack([rng.uniform(0.01, math.pi - 0.01, npts),
                               rng.uniform(0.0, 2 * math.pi, npts)])
        basis = basis_for(SPHERE, cutoff)
        vals, grads = eval_basis(basis, pts)
        want_vals, want_grads = sphere_eval_loop(basis, pts)
        assert vals.tobytes() == want_vals.tobytes()
        assert grads.tobytes() == want_grads.tobytes()


    @pytest.mark.parametrize("grid", [False, True])
    def test_matches_per_point_evaluation(self, grid):
        # the Legendre table is built once per distinct colatitude and gathered
        rng = np.random.default_rng(11)
        if grid:
            pts, _ = quadrature_grid(SPHERE, 5)  # 10 points on each colatitude
        else:
            pts = np.column_stack([rng.uniform(0.01, math.pi - 0.01, 40),
                                   rng.uniform(0.0, 2 * math.pi, 40)])
        basis = basis_for(SPHERE, 9)
        vals, grads = eval_basis(basis, pts)
        for i in range(len(pts)):
            one_vals, one_grads = eval_basis(basis, pts[i:i + 1])
            assert np.array_equal(vals[:, i:i + 1], one_vals)
            assert np.array_equal(grads[:, :, i:i + 1], one_grads)

    @pytest.mark.parametrize("model, cutoff", [(CIRCLE, 9), (TORUS, 25), (SPHERE, 9),
                                               (SPHERE, 30)])
    def test_tables_are_c_contiguous(self, model, cutoff):
        # sweeps slice leading rows and reshape them for one GEMM: no copy
        pts, _ = quadrature_grid(model, 6)
        vals, grads = eval_basis(basis_for(model, cutoff), pts)
        assert vals.flags.c_contiguous and grads.flags.c_contiguous

    def test_evaluates_into_its_outputs(self):
        # the sphere-cumulative top window: the trig rows and their co-trig rows
        # are gathered once and the outputs written in place
        basis = basis_for(SPHERE, 40)
        pts, _ = quadrature_grid(SPHERE, 10)
        eval_basis(basis, pts)
        tracemalloc.start()
        try:
            vals, grads = eval_basis(basis, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= vals.nbytes + grads.nbytes + 4 * vals.nbytes

    @pytest.mark.parametrize("theta", [0.0, -0.2])
    def test_pole_among_repeated_colatitudes_is_chart_error(self, theta):
        pts, _ = quadrature_grid(SPHERE, 4)
        bad = np.vstack([pts, [[theta, 0.5]], pts, [[theta, 2.0]]])
        with pytest.raises(ChartError):
            eval_basis(basis_for(SPHERE, 3), bad)


def legendre_loop(lmax, theta):
    """Reference Legendre table: one (l, m) entry at a time, as before vectorization."""
    ct, st = np.cos(theta), np.sin(theta)
    p = np.zeros((lmax + 1, lmax + 1, theta.shape[0]))
    dp = np.zeros_like(p)
    p[0, 0] = 1.0 / math.sqrt(4.0 * math.pi)
    for m in range(1, lmax + 1):
        p[m, m] = math.sqrt((2.0 * m + 1.0) / (2.0 * m)) * st * p[m - 1, m - 1]
    for m in range(0, lmax):
        p[m + 1, m] = math.sqrt(2.0 * m + 3.0) * ct * p[m, m]
    for m in range(0, lmax + 1):
        for l in range(m + 2, lmax + 1):
            a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = math.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
            p[l, m] = a * (ct * p[l - 1, m] - b * p[l - 2, m])
    for m in range(0, lmax + 1):
        for l in range(max(m, 1), lmax + 1):
            c = math.sqrt((2.0 * l + 1.0) * (l * l - m * m) / (2.0 * l - 1.0))
            prev = p[l - 1, m] if l - 1 >= m else 0.0
            dp[l, m] = (l * ct * p[l, m] - c * prev) / st
    return p, dp


class TestLegendre:
    def test_low_degree_closed_forms(self):
        theta = np.array([0.4, 1.1, 2.3])
        p, dp = normalized_legendre(2, theta)
        ct, st = np.cos(theta), np.sin(theta)
        assert p[0, 0] == pytest.approx(math.sqrt(1 / (4 * math.pi)))
        np.testing.assert_allclose(p[1, 0], math.sqrt(3 / (4 * math.pi)) * ct, atol=1e-14)
        np.testing.assert_allclose(p[1, 1], math.sqrt(3 / (8 * math.pi)) * st, atol=1e-14)
        np.testing.assert_allclose(
            p[2, 0], math.sqrt(5 / (16 * math.pi)) * (3 * ct**2 - 1), atol=1e-13
        )
        np.testing.assert_allclose(
            dp[1, 0], -math.sqrt(3 / (4 * math.pi)) * st, atol=1e-13
        )


    @pytest.mark.parametrize("lmax", [0, 1, 2, 10, 40, 80])
    def test_matches_per_entry_loop(self, lmax):
        theta = np.random.default_rng(lmax).uniform(0.01, math.pi - 0.01, 60)
        p, dp = normalized_legendre(lmax, theta)
        want_p, want_dp = legendre_loop(lmax, theta)
        assert p.tobytes() == want_p.tobytes() and dp.tobytes() == want_dp.tobytes()


class TestCosphere:
    @pytest.mark.parametrize(
        "model,mass",
        [
            (CIRCLE, 2 * 2 * math.pi),
            (TORUS, 2 * math.pi * 4 * math.pi**2),
            (SPHERE, 2 * math.pi * 4 * math.pi),
        ],
    )
    def test_total_mass(self, model, mass):
        quad = cosphere_quadrature(model, 16, 16)
        assert quad.weights.sum() == pytest.approx(mass, rel=1e-8)

    def test_fiber_covectors_are_unit(self):
        for model in (CIRCLE, TORUS, SPHERE):
            quad = cosphere_quadrature(model, 8, 12)
            norms = g0_norm_xi(model, quad.points, quad.xis)
            assert np.abs(norms - 1.0).max() <= 1e-12

    def test_fiber_directions_single_point(self):
        reps, xis, w = fiber_bundle(SPHERE, np.array([1.0, 0.5]), 8)
        assert w.sum() == pytest.approx(2 * math.pi)
        np.testing.assert_array_equal(reps, np.tile([1.0, 0.5], (8, 1)))
        norms = g0_norm_xi(SPHERE, reps, xis)
        assert np.abs(norms - 1.0).max() <= 1e-12

    def test_fiber_covectors_match_bundle_rows(self):
        pts = np.array([[1.0, 0.5], [2.0, 3.0], [0.3, 1.0]])
        for model in (CIRCLE, TORUS, SPHERE):
            p = pts[:, : model.dim]
            xis, w = fiber_covectors(model, p, 8)
            reps, flat, w2 = fiber_bundle(model, p, 8)
            nf = len(w)
            assert xis.shape == (nf, 3, model.dim)
            np.testing.assert_array_equal(w, w2)
            for f in range(nf):
                np.testing.assert_array_equal(xis[f], flat[f::nf])
                np.testing.assert_array_equal(p, reps[f::nf])

    def test_resolution_floor(self):
        with pytest.raises(InputError):
            cosphere_quadrature(TORUS, 2, 16)


class TestGeodesicFlow:
    def setup_method(self):
        self.p = np.array([[1.1, 0.4]])
        self.xi = np.array([[0.6, 0.8 * math.sin(1.1)]])

    def test_time_zero_is_identity(self):
        pts = geodesic_flow_sphere(self.p, self.xi, 0.0)
        np.testing.assert_allclose(pts, self.p, atol=1e-14)

    def test_periodicity(self):
        pts = geodesic_flow_sphere(self.p, self.xi, 2 * math.pi)
        np.testing.assert_allclose(pts, self.p, atol=1e-12)

    def test_quarter_great_circle_from_equator(self):
        start = np.array([[math.pi / 2, 0.3]])
        xi = np.array([[0.0, 1.0]])  # unit covector along the equator
        pts = geodesic_flow_sphere(start, xi, math.pi / 2)
        np.testing.assert_allclose(
            pts, [[math.pi / 2, 0.3 + math.pi / 2]], atol=1e-12
        )

    def test_points_only_flow_checks_poles(self):
        start, xi = np.array([[math.pi / 2, 0.0]]), np.array([[1.0, 0.0]])
        with pytest.raises(ChartError):
            geodesic_flow_sphere(start, xi, np.array([0.1, math.pi / 2]))

    def test_pole_output_is_chart_error(self):
        start = np.array([[math.pi / 2, 0.0]])
        xi = np.array([[1.0, 0.0]])  # meridian: reaches the pole at t = pi/2
        with pytest.raises(ChartError):
            geodesic_flow_sphere(start, xi, math.pi / 2)

    def test_time_vector_matches_per_time_calls(self):
        pts, xis = cosphere_rows(997)
        ts = np.linspace(-7.0, 9.0, 23)
        flow = geodesic_flow_sphere(pts, xis, ts)
        assert flow.shape == (23, 997, 2)
        for i, t in enumerate(ts):
            one = geodesic_flow_sphere(pts, xis, t)
            assert one.shape == (997, 2)
            assert np.array_equal(flow[i], one)

    @pytest.mark.parametrize("rows", [5, 40_000])  # one block; one time node per block
    def test_matches_stacked_frame_flow(self, rows):
        pts, xis = cosphere_rows(rows)
        ts = 2.0 * math.pi * (np.arange(6) + 0.5) / 6
        flow = geodesic_flow_sphere(pts, xis, ts)
        for i, t in enumerate(ts):
            assert np.array_equal(flow[i], stacked_frame_flow(pts, xis, t)[0])

    @pytest.mark.parametrize("rows", [1, 40_000])
    def test_pole_at_any_time_node_is_chart_error(self, rows):
        start = np.tile([[math.pi / 2, 0.0]], (rows, 1))
        xi = np.tile([[1.0, 0.0]], (rows, 1))  # meridians: at the pole at t = pi/2
        geodesic_flow_sphere(start, xi, np.array([0.1, 1.0, 2.0]))
        with pytest.raises(ChartError):
            geodesic_flow_sphere(start, xi, np.array([0.1, 1.0, math.pi / 2, 2.0]))

    def test_time_table_is_input_error(self):
        with pytest.raises(InputError):
            geodesic_flow_sphere(self.p, self.xi, np.zeros((2, 2)))


def cosphere_rows(rows, seed=7):
    """Random chart points off the poles with unit covectors, (rows, 2) each."""
    rng = np.random.default_rng(seed)
    pts = np.column_stack([rng.uniform(0.05, math.pi - 0.05, rows),
                           rng.uniform(0.0, 2.0 * math.pi, rows)])
    alpha = rng.uniform(0.0, 2.0 * math.pi, rows)
    return pts, np.column_stack([np.cos(alpha), np.sin(alpha) * np.sin(pts[:, 0])])


def stacked_frame_flow(points, xis, t):
    """Reference flow to one time t by stacked ambient 3-vectors: points and covectors."""
    def frame(theta, phi):
        st, ct, cp, sp = np.sin(theta), np.cos(theta), np.cos(phi), np.sin(phi)
        return (np.stack([st * cp, st * sp, ct], axis=-1),
                np.stack([ct * cp, ct * sp, -st], axis=-1),
                np.stack([-sp, cp, np.zeros_like(sp)], axis=-1))

    theta, phi = points[:, 0], points[:, 1]
    x, e_th, e_ph = frame(theta, phi)
    v = xis[:, :1] * e_th + (xis[:, 1:2] / np.sin(theta)[:, None]) * e_ph
    xt = np.cos(t) * x + np.sin(t) * v
    vt = -np.sin(t) * x + np.cos(t) * v
    theta_t = np.arccos(np.clip(xt[:, 2], -1.0, 1.0))
    phi_t = np.mod(np.arctan2(xt[:, 1], xt[:, 0]), 2.0 * math.pi)
    _, e_th_t, e_ph_t = frame(theta_t, phi_t)
    xi_t = np.stack([np.sum(vt * e_th_t, axis=-1),
                     np.sum(vt * e_ph_t, axis=-1) * np.sin(theta_t)], axis=-1)
    return np.stack([theta_t, phi_t], axis=-1), xi_t


class TestPointTypes:
    """Chart points and covectors are plain arrays; these checks apply to them."""

    def test_manifold_point_carries_g0(self):
        g = g0_matrices(SPHERE, np.array([[1.2, 0.5]]))
        assert g[0, 1, 1] == pytest.approx(math.sin(1.2) ** 2)
        with pytest.raises(ChartError):
            eval_basis(basis_for(SPHERE, 1), np.array([[0.0, 0.5]]))
        with pytest.raises(InputError):
            eval_basis(basis_for(TORUS, 1), np.array([[1.0]]))

    def test_cosphere_point_checks_unit_norm(self):
        pts = np.array([[1.2, 0.5], [1.2, 0.5]])
        xis = np.array([[0.6, 0.8 * math.sin(1.2)], [0.6, 0.8]])
        norms = g0_norm_xi(SPHERE, pts, xis)
        assert norms[0] == pytest.approx(1.0, abs=1e-15)
        assert norms[1] > 1.0
        assert g0_norm_xi(CIRCLE, np.array([[0.3]]), np.array([[1.5]]))[0] == 1.5


class TestModelRegistry:
    def test_volumes(self):
        assert CIRCLE.volume == pytest.approx(2 * math.pi)
        assert TORUS.volume == pytest.approx(4 * math.pi**2)
        assert SPHERE.volume == pytest.approx(4 * math.pi)

    def test_lookup(self):
        assert model_by_name("torus2").kind == "torus2"
        with pytest.raises(InputError):
            model_by_name("klein-bottle")

    def test_g0_matrices_sphere(self):
        pts = np.array([[0.5, 0.0], [1.2, 3.0]])
        g = g0_matrices(SPHERE, pts)
        np.testing.assert_allclose(g[:, 1, 1], np.sin(pts[:, 0]) ** 2)
