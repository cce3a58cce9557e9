import math
import tracemalloc

import numpy as np
import pytest

from bergman_lab import sphereband
from bergman_lab.bergman import _contract, dd_kernel
from bergman_lab.errors import ChartError, InputError
from bergman_lab.fields import sup_relative_error
from bergman_lab.manifolds import (
    basis_for,
    eval_basis,
    fiber_bundle,
    fiber_tensor,
    geodesic_flow_sphere,
    quadrature_grid,
    sphere2,
)
from bergman_lab.operators import (
    ScalarField,
    assemble_multiplication,
    sphere_block,
    symbol_law_predict,
)
from bergman_lab.presets import scalar_field
from bergman_lab.sphereband import (
    band_constant,
    band_dd,
    band_predict,
    cumulative_band_sum,
    flow_integral,
    geodesic_average,
    sphere_band_check,
    takahashi_check,
)

SPHERE = sphere2()

ONE = ScalarField("one", lambda p: np.ones(np.atleast_2d(p).shape[0]))
X3 = ScalarField("x3", lambda p: np.cos(np.atleast_2d(p)[:, 0]))
A_TEST = ScalarField("1+x3^2/2", lambda p: 1 + 0.5 * np.cos(np.atleast_2d(p)[:, 0]) ** 2)


class TestBandBasis:
    def test_band_is_orthonormal(self):
        basis = basis_for(SPHERE, 6)
        band = slice(6 * 6, 7 * 7)
        assert band.stop - band.start == 13
        pts, w = quadrature_grid(SPHERE, 16)
        vals = eval_basis(basis, pts)[0][band]
        gram = (vals * w) @ vals.T
        assert np.abs(gram - np.eye(13)).max() <= 1e-10


class TestTakahashi:
    def test_constant_values(self):
        # the tensor coefficient is mu^2 d / (n Vol); its g0-trace recovers
        # the classical mu^2 d / Vol values 3/(2 pi), 15/(2 pi), ...
        c1, _ = takahashi_check(1)
        c2, _ = takahashi_check(2)
        assert c1 == pytest.approx(3 / (4 * math.pi))
        assert 2 * c1 == pytest.approx(3 / (2 * math.pi))
        assert 2 * c2 == pytest.approx(15 / (2 * math.pi))

    def test_degree_one_is_scaled_round_embedding(self):
        # degree-1 harmonics embed the sphere linearly: sqrt(3/4pi) x
        c, dev = takahashi_check(1)
        assert c == pytest.approx(3 / (4 * math.pi), rel=1e-13)
        assert dev <= 1e-10

    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_deviation_is_quadrature_limited(self, n):
        _, dev = takahashi_check(n)
        assert dev <= 1e-8

    def test_degree_zero_rejected(self):
        with pytest.raises(InputError):
            takahashi_check(0)

    @pytest.mark.parametrize("n", [1, 4, 10])
    def test_evaluates_the_level_rows_only(self, n, monkeypatch):
        # the level subset keeps the top degree, so its rows are the window's
        pts, _ = quadrature_grid(SPHERE, 12)
        basis = basis_for(SPHERE, n)
        _, want = eval_basis(basis, pts)
        band = slice(n * n, (n + 1) ** 2)
        _, got = eval_basis(basis.subset(band), pts)
        assert np.array_equal(got, want[band])
        dims = []
        monkeypatch.setattr(sphereband, "eval_basis",
                            lambda b, p: dims.append(b.dim) or eval_basis(b, p))
        assert takahashi_check(n, points=pts) == takahashi_check(n, grid_res=12)
        assert dims == [2 * n + 1] * 2


class TestBandDD:
    def setup_method(self):
        self.pts, _ = quadrature_grid(SPHERE, 8)

    @pytest.mark.parametrize("n_deg, k", [(5, 0), (5, 2), (6, -1)])
    def test_cross_matrix_is_block_of_multiplication(self, n_deg, k):
        # the tensor of the [N+k, N] block of the full multiplication matrix
        field = scalar_field("exp:0.5cos(phi)+0.3x3", SPHERE)
        big = basis_for(SPHERE, max(n_deg, n_deg + k))
        sl_in, sl_out = (slice(n * n, (n + 1) ** 2) for n in (n_deg, n_deg + k))
        cross = assemble_multiplication(field, big)[sl_out, sl_in]
        block = sphere_block(field, big, sl_out, sl_in)
        assert np.abs(block - cross).max() <= 1e-13 * np.abs(cross).max()
        _, grads = eval_basis(big, self.pts)
        want = _contract(cross, grads[sl_out], grads[sl_in])
        want = 0.5 * (want + np.transpose(want, (0, 2, 1)))
        got = band_dd(field, n_deg, k, self.pts)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("n_deg, k", [(5, 0), (5, 2), (6, -1), (40, 0), (20, 1)])
    def test_level_rows_equal_full_basis_rows(self, n_deg, k):
        # band_dd evaluates only levels N and N+k; their rows are bit-identical
        big = basis_for(SPHERE, max(n_deg, n_deg + k))
        sl_in, sl_out = (slice(n * n, (n + 1) ** 2) for n in (n_deg, n_deg + k))
        rows = np.r_[sl_out] if k == 0 else np.r_[sl_out, sl_in]
        vals, grads = eval_basis(big.subset(rows), self.pts)
        all_vals, all_grads = eval_basis(big, self.pts)
        assert np.array_equal(vals, all_vals[rows]) and np.array_equal(grads, all_grads[rows])
        field = scalar_field("exp:0.5cos(phi)+0.3x3", SPHERE)
        cross = sphere_block(field, big, sl_out, sl_in)
        want = _contract(cross, all_grads[sl_out], all_grads[sl_in])
        want = 0.5 * (want + np.transpose(want, (0, 2, 1)))
        assert np.array_equal(band_dd(field, n_deg, k, self.pts), want)

    def test_unit_function_diagonal_band(self):
        fld = band_dd(ONE, 5, 0, self.pts)
        from bergman_lab.manifolds import g0_matrices

        g0 = g0_matrices(SPHERE, self.pts)
        c = band_constant(5)
        assert np.abs(fld - c * g0).max() <= 1e-10 * c

    def test_unit_function_off_band_vanishes(self):
        fld = band_dd(ONE, 5, 1, self.pts)
        assert np.abs(fld).max() <= 1e-10

    def test_odd_function_same_parity_vanishes(self):
        fld = band_dd(X3, 5, 0, self.pts)
        assert np.abs(fld).max() <= 1e-10
        fld2 = band_dd(X3, 5, 2, self.pts)
        assert np.abs(fld2).max() <= 1e-10

    def test_antipodal_symmetry_of_band_metrics(self):
        # k = 0 band metrics are even: pulling back through the antipodal
        # map theta -> pi - theta, phi -> phi + pi (frame flip diag(-1, 1))
        pts = np.array([[0.7, 0.4], [1.2, 2.0], [2.0, 5.0]])
        anti = np.column_stack([math.pi - pts[:, 0], np.mod(pts[:, 1] + math.pi, 2 * math.pi)])
        f1 = band_dd(A_TEST, 4, 0, pts)
        f2 = band_dd(A_TEST, 4, 0, anti)
        flip = np.diag([-1.0, 1.0])
        pulled = np.einsum("ia,pab,bj->pij", flip, f2, flip)
        assert np.abs(pulled - f1).max() <= 1e-10 * np.abs(f1).max()

    def test_rotation_equivariance_about_axis(self):
        # rotating the test function about x3 translates phi
        gamma = 0.93
        rotated = ScalarField(
            "rot", lambda p: 1 + 0.3 * np.sin(np.atleast_2d(p)[:, 0]) * np.cos(np.atleast_2d(p)[:, 1] - gamma)
        )
        base = ScalarField(
            "base", lambda p: 1 + 0.3 * np.sin(np.atleast_2d(p)[:, 0]) * np.cos(np.atleast_2d(p)[:, 1])
        )
        pts = np.array([[0.9, 0.5], [1.4, 3.0]])
        shifted = np.column_stack([pts[:, 0], np.mod(pts[:, 1] + gamma, 2 * math.pi)])
        f_rot = band_dd(rotated, 4, 0, shifted)
        f_base = band_dd(base, 4, 0, pts)
        assert np.abs(f_rot - f_base).max() <= 1e-8 * np.abs(f_base).max()


class TestGeodesicAverage:
    def setup_method(self):
        self.point = np.array([[math.pi / 2, 0.3]])
        self.xi = np.array([[1.0, 0.0]])

    def test_unit_symbol_full_period(self):
        avg = geodesic_average(ONE, self.point, self.xi, 0)[0]
        assert avg.real == pytest.approx(2 * math.pi, rel=1e-12)
        assert abs(avg.imag) <= 1e-12

    def test_unit_symbol_nonzero_mode_vanishes(self):
        for k in (1, 2, 5):
            assert abs(geodesic_average(ONE, self.point, self.xi, k)[0]) <= 1e-12

    def test_equatorial_average_of_height_vanishes(self):
        xi_eq = np.array([[0.0, 1.0]])  # moves along the equator, x3 = 0
        assert abs(geodesic_average(X3, self.point, xi_eq, 0)[0]) <= 1e-12

    def test_invariant_under_time_origin_shift(self):
        # k = 0 averages only see the orbit, not the starting point: compare
        # with the average started further along the same geodesic; the
        # restarted covector comes from the reference flow
        from test_manifolds import stacked_frame_flow

        p0 = np.array([[1.1, 0.7]])
        xi0 = np.array([[0.6, 0.8 * math.sin(1.1)]])
        p1, xi1 = stacked_frame_flow(p0, xi0, 0.83)
        both = geodesic_average(A_TEST, np.vstack([p0, p1]), np.vstack([xi0, xi1]), 0)
        assert both[1].real == pytest.approx(both[0].real, abs=1e-12)

    def test_requires_enough_nodes(self):
        with pytest.raises(InputError):
            geodesic_average(ONE, self.point, self.xi, 0, t_res=16)


    @pytest.mark.parametrize("fiber_res", [32, 64])  # the library and the CLI fiber
    def test_flow_temporaries_are_blocked(self, fiber_res):
        # the (T, Q, 2) flow outputs and b on them dominate; unblocked (T, Q, 3)
        # frame temporaries would add several more 8 T Q tables
        pts, _ = quadrature_grid(SPHERE, 10)
        reps, xis, _ = fiber_bundle(SPHERE, pts, fiber_res)
        table = 8 * 64 * len(reps)  # bytes of one (T, Q) float table, T = 64
        tracemalloc.start()
        try:
            geodesic_average(A_TEST, reps, xis, 0, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * table, peak / table

    def test_accepts_cosphere_point(self):
        # rows are independent cosphere points: a batch equals row-by-row calls
        pts = np.array([[1.1, 0.7], [math.pi / 2, 0.3]])
        xis = np.array([[0.6, 0.8 * math.sin(1.1)], [1.0, 0.0]])
        batch = geodesic_average(A_TEST, pts, xis, 2)
        assert abs(batch[0]) > 0.1
        for row in range(2):
            single = geodesic_average(A_TEST, pts[row], xis[row], 2)
            assert abs(batch[row] - single[0]) <= 1e-13

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_antipodal_half_matches_flowed_half(self, k):
        # the unflowed half of the t nodes is the antipode of the flowed
        # half: a source that reads both theta and phi sees a wrong antipode
        source = ScalarField("mix", lambda p: np.cos(p[:, 0]) + 0.4 * np.sin(p[:, 0] + p[:, 1]))
        pts = np.array([[1.1, 0.7], [math.pi / 2, 0.3], [0.4, 5.9]])
        xis = np.array([[0.6, 0.8 * math.sin(1.1)], [1.0, 0.0], [0.0, math.sin(0.4)]])
        want, bound = unfolded_average(source, pts, xis, k)
        assert np.abs(geodesic_average(source, pts, xis, k) - want).max() <= 1e-13 * bound

    def test_odd_t_nodes_is_input_error(self):
        # the antipodal fold pairs node j with node j + t_res/2
        with pytest.raises(InputError, match="even"):
            geodesic_average(ONE, self.point, self.xi, 0, t_res=65)

    def test_pole_in_the_antipodal_half_is_chart_error(self):
        # a meridian from theta0 = 2 pi - t_m reaches the north pole at node
        # t_m of the unflowed half (m >= T/2); its partner node t_m - pi is
        # at the south pole, so the flowed half raises
        t_res = 64
        m = t_res // 2 + 5
        theta0 = 2 * math.pi - 2 * math.pi * (m + 0.5) / t_res
        with pytest.raises(ChartError):
            geodesic_average(A_TEST, np.array([[theta0, 0.3]]), np.array([[1.0, 0.0]]), 0, t_res)


def unfolded_average(source, points, xis, k, t_res=64):
    """The geodesic average with every t node flowed, and its bound 2 pi max |b|."""
    ts = 2 * math.pi * (np.arange(t_res) + 0.5) / t_res
    vals = source.values(geodesic_flow_sphere(points, xis, ts).reshape(-1, 2)).reshape(t_res, -1)
    return (2 * math.pi / t_res) * np.exp(-1j * k * ts) @ vals, 2 * math.pi * np.abs(vals).max()


def unfolded_flow_integral(a, k, pts, fiber_res):
    """The flow integral over every fiber and t node, kept complex, and its bound (2 pi)^2 max |b|."""
    reps, xis, wf = fiber_bundle(SPHERE, pts, fiber_res)
    avg, bound = unfolded_average(a, reps, xis, k)
    return fiber_tensor(avg, xis, wf), 2 * math.pi * bound


class TestFoldedFlowIntegral:
    @pytest.mark.parametrize("fiber_res", [8, 32, 64])
    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("name", ["one-plus-half-x3sq", "x3"])  # the CLI presets
    def test_matches_unfolded_sum(self, name, k, fiber_res):
        a = scalar_field(name, SPHERE)
        pts, _ = quadrature_grid(SPHERE, 6)
        want, bound = unfolded_flow_integral(a, k, pts, fiber_res)
        got = flow_integral(a, k, pts, fiber_res)
        assert got.dtype == float
        assert np.abs(got - want.real).max() <= 1e-13 * bound
        assert np.abs(want.imag).max() <= 1e-13 * bound  # what the fold drops

    def test_flows_a_quarter_of_the_rows(self, monkeypatch):
        calls = []

        def spy(points, xis, t):
            calls.append((len(t), len(points)))
            return geodesic_flow_sphere(points, xis, t)

        monkeypatch.setattr(sphereband, "geodesic_flow_sphere", spy)
        pts, _ = quadrature_grid(SPHERE, 4)
        flow_integral(A_TEST, 1, pts, 16, 64)
        assert calls == [(32, 8 * len(pts))]

    def test_odd_fiber_is_input_error(self):
        # the time-reversal fold pairs fiber node f with node f + F/2
        pts, _ = quadrature_grid(SPHERE, 4)
        with pytest.raises(InputError, match="even"):
            flow_integral(A_TEST, 0, pts, 33)


def band_errors(a, degrees, k, grid_res=10, fiber_res=32):
    """sphere_band_check at each degree, sharing one flow integral as a sweep does."""
    pts, _ = quadrature_grid(SPHERE, grid_res)
    integral = flow_integral(a, k, pts, fiber_res)
    return [sphere_band_check(a, n, k, pts, integral) for n in degrees]


def cumulative_errors(a, levels, grid_res=10, fiber_res=32):
    """cumulative_band_sum of every level, in one pass over the top window as a sweep does."""
    pts, _ = quadrature_grid(SPHERE, grid_res)
    law = symbol_law_predict(a, SPHERE, pts, fiber_res)
    return cumulative_band_sum(a, [basis_for(SPHERE, n) for n in levels], law, pts)


class TestBandChecks:
    def test_unit_function_prediction_is_exact(self):
        pts, _ = quadrature_grid(SPHERE, 6)
        pred = band_predict(flow_integral(ONE, 0, pts), 7, 0)
        meas = band_dd(ONE, 7, 0, pts)
        assert np.abs(pred - meas).max() <= 1e-8 * np.abs(
            meas
        ).max()

    def test_even_test_function_small_error(self):
        err = band_errors(A_TEST, [20], 0)[0]
        assert err <= 0.10

    def test_error_decreases_with_degree(self):
        e20, e40 = band_errors(A_TEST, [20, 40], 0)
        assert e40 <= 0.7 * e20

    def test_odd_function_adjacent_band(self):
        err = band_errors(X3, [20], 1)[0]
        assert err <= 0.15

    def test_cumulative_halving_trend(self):
        errs = cumulative_errors(A_TEST, [10, 20])
        assert errs[1] <= 0.7 * errs[0]

    def test_cumulative_stream_is_the_assembled_field(self):
        # the strips contracted as they are made, one per row trig group (61 at
        # d = 961), against the fields of the symmetrized matrix
        pts, _ = quadrature_grid(SPHERE, 8)
        law = symbol_law_predict(A_TEST, SPHERE, pts, 32)
        windows = [basis_for(SPHERE, n) for n in (5, 20, 30)]
        mat = assemble_multiplication(A_TEST, windows[-1])
        want = [sup_relative_error(SPHERE, pts, dd_kernel(mat[:b.dim, :b.dim], b, pts),
                                   law(b.mu_top), A_TEST.name) for b in windows]
        got = cumulative_band_sum(A_TEST, windows, law, pts)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    def test_cumulative_unit_function_matches_isometry_error(self):
        # a = 1 reduces to the orthonormal-pullback error path
        err = cumulative_errors(ONE, [12])[0]
        mu4 = (12 * 13) ** 2
        measured = sum(band_constant(k) for k in range(1, 13))
        pred = mu4 / (16 * math.pi)
        assert err == pytest.approx(abs(measured - pred) / pred, rel=1e-10)

    def test_odd_part_drops_out_of_diagonal_band_sum(self):
        # parity: an odd function couples only adjacent bands, so the sum of
        # the diagonal band blocks ignores the odd part of a entirely
        pts, _ = quadrature_grid(SPHERE, 6)
        odd = ScalarField("odd", lambda p: 0.7 * np.cos(np.atleast_2d(p)[:, 0]))
        total = sum(band_dd(odd, l, 0, pts).sum() for l in range(1, 9))
        assert abs(total) <= 1e-9
        mixed = ScalarField("a+odd", lambda p: A_TEST.fn(p) + odd.fn(p))
        for l in (3, 6):
            with_odd = band_dd(mixed, l, 0, pts)
            even_only = band_dd(A_TEST, l, 0, pts)
            assert np.abs(with_odd - even_only).max() <= 1e-10 * np.abs(even_only).max()
