"""Single-eigenspace pullback metrics on the round sphere.

A band tensor DD Pi_{N+k} B Pi_N is compared against the geodesic-flow
prediction

    (2 pi)^{-(n+1)} * S * int_{-pi}^{pi} e^{-itk}
        int_{S*_x} b(G^t(x, xi)) xi (x) xi  dS(xi) dt,

where the degree scale S = mu_N mu_{N+k} (2N + k + 1)/2 equals N^{n+1} to
leading order and is calibrated so that b = 1, k = 0 reproduces the constant
pullback of a single band exactly (the trace identity fixes that constant to
mu_N^2 d_N / (n Vol): summing |grad Y|^2 over an orthonormal band basis and
integrating must give mu_N^2 d_N).  The t-integral enters through its
2pi-average; this is the normalization under which summing the bands over k
recovers the cumulative mu^{n+2}/((n+2)(2 pi)^n) law.
"""

from __future__ import annotations

import math

import numpy as np

from .bergman import _contract, _symmetric_field
from .errors import InputError
from .fields import g0_operator_norms, sup_relative_error
from .manifolds import (
    basis_for,
    eval_basis,
    fiber_bundle,
    fiber_tensor,
    g0_matrices,
    geodesic_flow_sphere,
    quadrature_grid,
    sphere2,
)
from .operators import ScalarField, _strip_products, sphere_block, sphere_strips


def band_constant(n_deg: int) -> float:
    """Exact pullback constant of one sphere band: mu^2 d / (n Vol)."""
    return n_deg * (n_deg + 1) * (2 * n_deg + 1) / (8.0 * math.pi)


def _band(n_deg: int) -> slice:
    """Rows of degree N in a sphere window: degree l starts at row l^2."""
    return slice(n_deg * n_deg, (n_deg + 1) ** 2)


def takahashi_check(n_deg: int, grid_res: int = 12, points=None) -> tuple[float, float]:
    """Max relative deviation of the level-N pullback from band_constant * g0 on the grid."""
    if n_deg < 1:
        raise InputError("band degree must be at least 1")
    model = sphere2()
    basis = basis_for(model, n_deg)
    pts = quadrature_grid(model, grid_res)[0] if points is None else points
    _, gband = eval_basis(basis.subset(_band(n_deg)), pts)
    c = band_constant(n_deg)
    dev = g0_operator_norms(model, pts, _contract(None, gband, gband) - c * g0_matrices(model, pts))
    return c, float(dev.max() / c)


def band_dd(a: ScalarField, n_deg: int, k: int, points: np.ndarray) -> np.ndarray:
    """Symmetrized mixed-band tensor of multiplication by ``a`` at ``points``, (P, 2, 2).

    sum_{m,m'} <a Y_{N,m}, Y_{N+k,m'}>  dY_{N+k,m'} (x) dY_{N,m}, the
    cross matrix being the (N+k, N) block of the multiplication quadrature.
    Only the rows of the two levels are evaluated, out-level rows first.
    """
    if n_deg < 1 or n_deg + k < 1:
        raise InputError("band degrees must be at least 1")
    model = sphere2()
    big = basis_for(model, max(n_deg, n_deg + k))
    sl_in, sl_out = _band(n_deg), _band(n_deg + k)
    cross = sphere_block(a, big, sl_out, sl_in)  # (d_out, d_in)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    rows = np.r_[sl_out] if k == 0 else np.r_[sl_out, sl_in]
    _, grads = eval_basis(big.subset(rows), pts)
    d_out, d_in = cross.shape
    with np.errstate(over="ignore", invalid="ignore"):  # refused by name where it is compared
        tensor = _contract(cross, grads[:d_out], grads[-d_in:])
        return 0.5 * (tensor + np.transpose(tensor, (0, 2, 1)))


def geodesic_average(a: ScalarField, points, xis, k: int = 0, t_res: int = 64) -> np.ndarray:
    """Unnormalized integral over one period of e^{-itk} a(G^t(x, xi)), per row.

    ``points`` (Q, 2) are chart points and ``xis`` (Q, 2) unit covectors.
    Periodic trapezoid in t on the even node count t_res: exact once the
    pullback t -> a(G^t) is a trigonometric polynomial of degree below t_res.
    Only the first half of the nodes is flowed: node j + t_res/2 is node j
    plus pi, and the base point of G^{t+pi}(x, xi) is the antipode of that of
    G^t(x, xi), the point (pi - theta, phi + pi).
    """
    if t_res < 64:
        raise InputError("t quadrature needs at least 64 nodes")
    if t_res % 2:
        raise InputError(f"t quadrature needs an even node count, got {t_res}")
    # half-step offset: same exactness for periodic integrands, and meridional
    # geodesics from equatorial points no longer land on poles at the nodes
    ts = 2.0 * math.pi * (np.arange(t_res) + 0.5) / t_res
    half = t_res // 2
    # an antipode is on a pole only when its partner is, so the flow's pole
    # check covers both halves
    pts = geodesic_flow_sphere(points, xis, ts[:half]).reshape(-1, 2)
    weights = (2.0 * math.pi / t_res) * np.exp(-1j * k * ts)
    avg = np.tensordot(weights[:half], a.values(pts).reshape(half, -1), axes=(0, 0))
    # the antipodal half, in place
    np.subtract(math.pi, pts[:, 0], out=pts[:, 0])
    np.mod(pts[:, 1] + math.pi, 2.0 * math.pi, out=pts[:, 1])
    return avg + np.tensordot(weights[half:], a.values(pts).reshape(half, -1), axes=(0, 0))


def flow_integral(a: ScalarField, k: int, points: np.ndarray, fiber_res: int = 32,
                  t_res: int = 64) -> np.ndarray:
    """Fiber integral of the geodesic average times xi (x) xi at each point, (P, 2, 2).

    The degree-independent part of ``band_predict``: a sweep over N at one
    offset k computes it once.  For the real scalar ``a``, G^t(x, -xi) is
    G^{-t}(x, xi) with the covector negated and the t nodes are symmetric
    about 0 mod 2 pi, so the average at -xi is the complex conjugate of the
    average at xi.  Fiber node f + F/2 is -xi_f for the even node count
    F = ``fiber_res``, so only the nodes f < F/2 are averaged and the
    integral is 2 Re sum_{f < F/2} w_f avg_f xi_f (x) xi_f, real by
    construction.
    """
    if fiber_res % 2:
        raise InputError(f"the band prediction needs an even fiber node count, got {fiber_res}")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    reps, xis, wf = fiber_bundle(sphere2(), pts, fiber_res)
    half = fiber_res // 2
    reps = reps.reshape(len(pts), fiber_res, 2)[:, :half].reshape(-1, 2)
    xis = xis.reshape(len(pts), fiber_res, 2)[:, :half].reshape(-1, 2)
    with np.errstate(over="ignore", invalid="ignore"):  # refused by name where it is compared
        avg = geodesic_average(a, reps, xis, k, t_res)
        return 2.0 * fiber_tensor(avg.real, xis, wf[:half])


def band_predict(integral: np.ndarray, n_deg: int, k: int) -> np.ndarray:
    """Geodesic-flow prediction for the (N+k, N) band tensor from its ``flow_integral``."""
    mu_in = math.sqrt(n_deg * (n_deg + 1))
    mu_out = math.sqrt((n_deg + k) * (n_deg + k + 1))
    scale = mu_in * mu_out * (2 * n_deg + k + 1) / 2.0
    return (2.0 * math.pi) ** (-(sphere2().dim + 1)) * scale * integral


def sphere_band_check(
    a: ScalarField, n_deg: int, k: int, points: np.ndarray, integral: np.ndarray
) -> float:
    """Sup-normalized relative error of band_dd against band_predict.

    ``integral`` is the ``flow_integral`` of ``a`` and k at ``points``.
    """
    return sup_relative_error(sphere2(), points, band_dd(a, n_deg, k, points),
                              band_predict(integral, n_deg, k), a.name)


def cumulative_band_sum(a: ScalarField, windows: list, law, points: np.ndarray) -> list[float]:
    """Relative error of the Bergman field of multiplication by ``a`` over each window.

    Compares DD Pi_{<=N} B Pi_{<=N} with ``law(mu_N)``, the ``symbol_law_predict``
    of ``a`` at ``points``: mu_N^{n+2} / ((n+2) (2 pi)^n) * int b xi (x) xi dS(xi).
    One pass over the strips of the quadrature sum S of the top window, the last,
    fills every window's S[:d, :d] G; G^T S^T G is the transpose of G^T S G, so the
    symmetrized field is that of (S + S^T) / 2.  The remainder is O(1/N) on the sphere.
    """
    grads = eval_basis(windows[-1], points)[1]
    strips = sphere_strips(a, windows[-1], slice(None), slice(None))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite field is refused below
        products = _strip_products(strips, grads, [(b.dim, 0, b.dim) for b in windows])
    errs = []
    for basis, t in zip(windows, products):
        measured = _symmetric_field(None, grads[:basis.dim], t)
        errs.append(sup_relative_error(basis.model, points, measured, law(basis.mu_top), a.name))
    return errs
