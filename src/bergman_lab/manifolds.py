"""Closed-form spectral models: circle, flat 2-torus, round 2-sphere.

Each model provides an orthonormal real eigenbasis with closed-form values
and chart gradients, whose levels are read from the basis's own frequencies
(|k|^2 on the circle and torus, l(l+1) on the sphere), product
quadrature grids that integrate basis products exactly, the unit cosphere
bundle with its hypersurface measure, and (sphere only) the periodic
geodesic flow.

Chart conventions:
  circle   theta in [0, 2pi),           g0 = dtheta^2
  torus2   (x1, x2) in [0, 2pi)^2,      g0 = dx1^2 + dx2^2
  sphere2  (theta, phi), theta in (0, pi) colatitude, phi in [0, 2pi),
           g0 = dtheta^2 + sin(theta)^2 dphi^2
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ChartError, InputError, UnsupportedModelError

CIRCLE = "circle"
TORUS2 = "torus2"
SPHERE2 = "sphere2"


@dataclass(frozen=True)
class ManifoldModel:
    kind: str
    dim: int
    volume: float

    @property
    def sphere_fiber_volume(self) -> float:
        """Vol(S^{n-1}) of the unit cosphere fiber."""
        return 2.0 if self.dim == 1 else 2.0 * math.pi


def circle() -> ManifoldModel:
    return ManifoldModel(CIRCLE, 1, 2.0 * math.pi)


def torus2() -> ManifoldModel:
    return ManifoldModel(TORUS2, 2, 4.0 * math.pi**2)


def sphere2() -> ManifoldModel:
    return ManifoldModel(SPHERE2, 2, 4.0 * math.pi)


_MODELS = {CIRCLE: circle, TORUS2: torus2, SPHERE2: sphere2}


def model_by_name(name: str) -> ManifoldModel:
    try:
        return _MODELS[name]()
    except KeyError:
        raise InputError(f"unknown model {name!r}; expected one of {sorted(_MODELS)}")


@dataclass(frozen=True)
class CosphereQuadrature:
    """Flattened product quadrature on S*M; weights sum to Vol(S^{n-1}) Vol(M)."""

    points: np.ndarray   # (Q, n) chart coordinates of base points
    xis: np.ndarray      # (Q, n) unit covector components
    weights: np.ndarray  # (Q,)
    fibers: int          # F: row p * F + f is fiber node f over base point p


def _torus_half_lattice(mu2_max: int) -> np.ndarray:
    """One representative k per {k, -k} pair with 0 < |k|^2 <= mu2_max, (K, 2).

    The representative has k1 > 0, or k1 = 0 and k2 > 0; rows are sorted by
    (|k|^2, k1, k2).
    """
    kmax = math.isqrt(mu2_max)
    a, b = np.meshgrid(np.arange(kmax + 1), np.arange(-kmax, kmax + 1), indexing="ij")
    a, b = a.ravel(), b.ravel()
    q = a * a + b * b
    keep = (q <= mu2_max) & ((a > 0) | (b > 0))
    order = np.lexsort((b[keep], a[keep], q[keep]))
    return np.column_stack([a[keep], b[keep]])[order]


def _half_lattice(model: ManifoldModel, cutoff) -> np.ndarray:
    """Flat half lattice (K, n) sorted by level: k = 1..N on the circle (the 1-torus)."""
    if model.kind == CIRCLE:
        return np.arange(1, int(cutoff) + 1)[:, None]
    return _torus_half_lattice(int(cutoff))


@dataclass(frozen=True)
class EigenBasis:
    """Ordered orthonormal eigenbasis of H_{<=N}, with closed-form evaluation.

    Entries are ordered by level, then deterministically inside each level
    (cos before sin, lexicographic frequency on the torus, m = -l..l on the
    sphere).  ``lambdas[j]**2`` is the eigenvalue of entry j, the integer
    |k|^2 or l(l+1) of its ``freqs`` row.
    """

    model: ManifoldModel
    cutoff: float
    lambdas: np.ndarray
    kinds: np.ndarray  # 0 constant, 1 cos, 2 sin (circle/torus); unused on sphere
    freqs: np.ndarray  # circle/torus: (d, n) lattice k; sphere: (d, 2) = (l, m)

    @property
    def dim(self) -> int:
        return self.lambdas.shape[0]

    @property
    def mu_top(self) -> float:
        return float(self.lambdas[-1])

    def subset(self, rows) -> "EigenBasis":
        """Entries ``rows`` alone, in that order.

        ``eval_basis`` gives them the same values as those rows of this
        basis, bit for bit, when the subset keeps the top degree.  A flat
        basis is evaluated by (cos, sin) pairs, so it is never subset.
        """
        return replace(self, lambdas=self.lambdas[rows],
                       kinds=self.kinds[rows], freqs=self.freqs[rows])


def basis_for(model: ManifoldModel, cutoff) -> EigenBasis:
    """The window of every level up to the cutoff, in one lattice pass.

    The cutoff is the top level index for circle and sphere and the value
    mu^2 for the torus (whose levels are the integers representable as a
    sum of two squares).
    """
    if cutoff < 0:
        raise InputError("cutoff must be non-negative")
    # every array below holds at most 16 bytes per point of the lattice box: a
    # box numpy cannot size is an input error, one memory cannot hold a MemoryError
    n = int(cutoff)
    box = {CIRCLE: 2 * n + 1, TORUS2: (2 * math.isqrt(n) + 1) ** 2, SPHERE2: (n + 1) ** 2}
    if 16 * box.get(model.kind, 0) > np.iinfo(np.intp).max:
        raise InputError(f"cutoff {cutoff} is too large for the lattice")
    if model.kind in (CIRCLE, TORUS2):
        # the constant, then a cos and a sin slot per half-lattice point
        ks = np.repeat(_half_lattice(model, cutoff), 2, axis=0)
        lambdas = [0.0] + np.sqrt((ks * ks).sum(axis=1).astype(float)).tolist()
        kinds = [0] + [1, 2] * (len(ks) // 2)
        freqs = np.vstack([np.zeros((1, model.dim), dtype=int), ks])
    elif model.kind == SPHERE2:
        # level l starts at offset l^2, so its entry j has m = j - l^2 - l
        l = np.repeat(np.arange(int(cutoff) + 1), 2 * np.arange(int(cutoff) + 1) + 1)
        lambdas, kinds = np.sqrt(l * (l + 1.0)), np.zeros(len(l), dtype=int)
        freqs = np.column_stack([l, np.arange(len(l)) - l * l - l])
    else:
        raise UnsupportedModelError(model.kind)
    return EigenBasis(
        model, float(cutoff),
        np.array(lambdas), np.array(kinds, dtype=int), freqs,
    )


def _eval_flat(basis: EigenBasis, pts: np.ndarray):
    """The constant 1/sqrt(vol) and the pairs sqrt(2/vol) (cos, sin)(k . x).

    One phase, cosine and sine per (cos, sin) pair, written into the
    outputs; the basis is the constant, then the pairs (``basis_for``).
    """
    vol = basis.model.volume
    ks = basis.freqs[1::2]
    cos_ph = ks @ pts.T  # (pairs, p): the phase, then its cosine
    sin_ph = np.sin(cos_ph)
    np.cos(cos_ph, out=cos_ph)
    norm = math.sqrt(2.0 / vol)
    vals = np.empty((basis.dim, len(pts)))
    vals[0] = 1.0 / math.sqrt(vol)
    np.multiply(cos_ph, norm, out=vals[1::2])
    np.multiply(sin_ph, norm, out=vals[2::2])
    # d/dx_i of each row: k_i times its phase derivative (zero for k = 0)
    grads = np.empty((basis.dim, basis.model.dim, len(pts)))
    grads[0] = 0.0
    np.negative(sin_ph, out=sin_ph)
    for rows, deriv in ((grads[1::2], sin_ph), (grads[2::2], cos_ph)):
        np.multiply(ks[:, :, None], deriv[:, None, :], out=rows)
        rows *= norm
    return vals, grads


def normalized_legendre(lmax: int, theta: np.ndarray):
    """Fully normalized associated Legendre P̄_l^m(cos theta) and d/dtheta.

    Normalization: integral over S^2 of (P̄_l^m e^{im phi})^2 equals 1, no
    Condon-Shortley sign.  Stable upward recurrence in l, each step over
    every m (Holmes & Featherstone, J. Geodesy 76, 2002).
    Returns arrays of shape (lmax+1, lmax+1, len(theta)); entries with
    m > l are zero.
    """
    theta = np.asarray(theta, dtype=float)
    ct, st = np.cos(theta), np.sin(theta)
    if np.any(st <= 0.0):
        raise ChartError("colatitude must lie strictly inside (0, pi)")
    p = np.zeros((lmax + 1, lmax + 1, theta.shape[0]))
    dp = np.zeros_like(p)
    p[0, 0] = 1.0 / math.sqrt(4.0 * math.pi)
    for l in range(1, lmax + 1):
        p[l, l] = math.sqrt((2.0 * l + 1.0) / (2.0 * l)) * st * p[l - 1, l - 1]
        p[l, l - 1] = math.sqrt(2.0 * l + 1.0) * ct * p[l - 1, l - 1]
        m = np.arange(l - 1)
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))[:, None]
        b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))[:, None]
        p[l, :l - 1] = a * (ct * p[l - 1, :l - 1] - b * p[l - 2, :l - 1])
        m = np.arange(l + 1)  # p[l - 1, l] is zero, and so is its coefficient c
        c = np.sqrt((2.0 * l + 1.0) * (l * l - m * m) / (2.0 * l - 1.0))[:, None]
        dp[l, :l + 1] = (l * ct * p[l, :l + 1] - c * p[l - 1, :l + 1]) / st
    return p, dp


def _eval_sphere(basis: EigenBasis, pts: np.ndarray):
    """Pbar_l^0, and sqrt(2) Pbar_l^|m| times cos(m phi) (m > 0) or sin(|m| phi) (m < 0)."""
    theta, phi = pts[:, 0], pts[:, 1]
    l, m = basis.freqs[:, 0], basis.freqs[:, 1]
    am = np.abs(m)
    # a table on the distinct colatitudes only (a grid repeats each), gathered in C order
    colat, at = np.unique(theta, return_inverse=True)
    p, dp = (tab[l[:, None], am[:, None], at] for tab in normalized_legendre(int(l.max()), colat))
    angles = np.arange(am.max() + 1)[:, None] * phi
    # row |m| is cos(|m| phi) and row M + 1 + |m| sin(|m| phi); cos(0 phi) = 1 for m = 0
    cos_sin, sin_row = np.concatenate([np.cos(angles), np.sin(angles)]), am + len(angles)
    trig = cos_sin[np.where(m >= 0, am, sin_row)]  # (d, P)
    scale = np.where(m == 0, 1.0, math.sqrt(2.0))[:, None]
    # d/dphi: -sqrt(2) m Pbar sin(m phi) for cos rows, sqrt(2) |m| Pbar cos for sin rows
    dcoef = np.where(m > 0, -m, am)[:, None] * scale
    # the outputs written in place, each product in the order (scale dp) trig
    values, grads = np.empty_like(p), np.empty((len(p), 2, p.shape[1]))
    np.multiply(np.multiply(scale, dp, out=grads[:, 0]), trig, out=grads[:, 0])
    np.multiply(np.multiply(scale, p, out=values), trig, out=values)
    np.take(cos_sin, np.where(m >= 0, sin_row, am), axis=0, out=trig, mode="clip")  # co-trig
    np.multiply(np.multiply(dcoef, p, out=grads[:, 1]), trig, out=grads[:, 1])
    grads[m == 0, 1] = 0.0
    return values, grads


def eval_basis(basis: EigenBasis, points: np.ndarray):
    """Values (d, P) and chart-covector gradients (d, n, P) at chart points (P, n)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != basis.model.dim:
        raise InputError(
            f"points have dimension {pts.shape[1]}, model is {basis.model.dim}-dimensional"
        )
    if basis.model.kind == SPHERE2:
        return _eval_sphere(basis, pts)
    return _eval_flat(basis, pts)


def g0_matrices(model: ManifoldModel, points: np.ndarray) -> np.ndarray:
    """Reference metric g0 in chart components at each point, shape (P, n, n)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    p = pts.shape[0]
    out = np.broadcast_to(np.eye(model.dim), (p, model.dim, model.dim)).copy()
    if model.kind == SPHERE2:
        out[:, 1, 1] = np.sin(pts[:, 0]) ** 2
    return out


def quadrature_grid(model: ManifoldModel, res: int) -> tuple[np.ndarray, np.ndarray]:
    """Chart points (P, n) and weights (P,) integrating dV_{g0} exactly.

    circle/torus: uniform trapezoid grids (exact for trig polynomials of
    degree < res per axis).  sphere: Gauss-Legendre in cos(theta) with res
    nodes crossed with a 2*res trapezoid in phi; exact for the polynomial
    integrands produced by harmonics of degree < res against each other.
    """
    if res < 2:
        raise InputError("grid resolution must be at least 2")
    if model.kind not in _MODELS:
        raise UnsupportedModelError(model.kind)
    nodes, weights = _trapezoid(res)
    if model.kind != SPHERE2:
        axes = np.meshgrid(*[nodes] * model.dim, indexing="ij")
        pts = np.column_stack([a.ravel() for a in axes])
        return pts, np.full(len(pts), weights[0] ** model.dim)
    # Gauss-Legendre in cos(theta): exact for polynomials of degree <= 2 res - 1
    x, wx = np.polynomial.legendre.leggauss(res)
    phi, wphi = _trapezoid(2 * res)
    theta = np.arccos(x[::-1])  # ascending colatitude in (0, pi)
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    pts = np.column_stack([th.ravel(), ph.ravel()])
    w = np.outer(wx[::-1], wphi).ravel()
    return pts, w


def _trapezoid(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Periodic trapezoid rule on [0, 2pi): exact for trig polynomials of degree < m."""
    return 2.0 * np.pi * np.arange(m) / m, np.full(m, 2.0 * np.pi / m)


def fiber_covectors(model: ManifoldModel, points: np.ndarray, fiber_res: int):
    """Unit fiber covectors on S*M, shape (F, P, n), and fiber weights (F,).

    Fiber nodes are uniform on the unit g0-cosphere circle (n = 2) or the two
    covectors +-dtheta (n = 1); they are taken in an orthonormal coframe so
    |xi|_{g0} = 1 exactly.  The weights sum to Vol(S^{n-1}).  Entry [f] is
    node f at every base point, a contiguous (P, n) block.
    """
    if model.dim == 2 and fiber_res < 4:
        raise InputError("fiber node count must be at least 4")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if model.dim == 1:
        dirs = np.array([[1.0], [-1.0]])
        w = np.array([1.0, 1.0])
    else:
        alpha = 2.0 * math.pi * np.arange(fiber_res) / fiber_res
        dirs = np.column_stack([np.cos(alpha), np.sin(alpha)])
        w = np.full(fiber_res, 2.0 * math.pi / fiber_res)
    xis = np.repeat(dirs[:, None, :], pts.shape[0], axis=1)
    if model.kind == SPHERE2:
        # orthonormal coframe (dtheta, sin(theta) dphi): xi_phi = sin(alpha) sin(theta)
        xis[:, :, 1] *= np.sin(pts[:, 0])
    return xis, w


def fiber_bundle(model: ManifoldModel, points: np.ndarray, fiber_res: int):
    """Replicated base points, unit fiber covectors and fiber weights on S*M.

    Row p * F + f pairs base point p with fiber node f of ``fiber_covectors``.
    Returns points (P*F, n), covectors (P*F, n) and weights (F,).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    xis, w = fiber_covectors(model, pts, fiber_res)
    reps = np.repeat(pts, len(w), axis=0)
    return reps, xis.transpose(1, 0, 2).reshape(-1, pts.shape[1]), w


def fiber_tensor(b: np.ndarray, xis: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Fiber integral of b xi (x) xi over each base point, shape (P, n, n).

    ``b`` (real or complex) and ``xis`` are laid out as ``fiber_bundle``
    returns them; ``w`` are its fiber weights.
    """
    nf, n = len(w), xis.shape[1]
    x = xis.reshape(-1, nf, n)
    return np.einsum("pf,f,pfi,pfj->pij", b.reshape(-1, nf), w, x, x)


def cosphere_quadrature(model: ManifoldModel, base_res: int, fiber_res: int) -> CosphereQuadrature:
    """Product quadrature on the unit cosphere bundle S*M (fibers as in fiber_bundle)."""
    if base_res < 4:
        raise InputError("cosphere base resolution must be at least 4")
    pts, wb = quadrature_grid(model, base_res)
    points, xis, wf = fiber_bundle(model, pts, fiber_res)
    weights = (wb[:, None] * wf).ravel()
    return CosphereQuadrature(points, xis, weights, len(wf))


def g0_norm_xi(model: ManifoldModel, points: np.ndarray, xis: np.ndarray) -> np.ndarray:
    """|xi|_{g0} for chart covector components at chart points."""
    pts = np.atleast_2d(points)
    xis = np.atleast_2d(xis)
    if model.kind != SPHERE2:
        return np.sqrt(sum(xis[:, i] ** 2 for i in range(model.dim)))
    st = np.sin(pts[:, 0])
    return np.sqrt(xis[:, 0] ** 2 + (xis[:, 1] / st) ** 2)


# (time node, point) rows per chart-conversion block of geodesic_flow_sphere:
# bounds its temporaries to a few MB whatever the number of time nodes
_FLOW_BLOCK = 1 << 16


def geodesic_flow_sphere(points: np.ndarray, xis: np.ndarray, t) -> np.ndarray:
    """Base points of the great-circle flow G^t on S*S^2, in chart coordinates.

    The point (P, 2) with covector (P, 2) flows for each time in ``t``: a 1-D
    vector of T times gives points of shape (T, P, 2), entry [i] the flow to
    time t[i]; a scalar time gives (P, 2).  The covector only sets the initial
    velocity.  The base frame is built once; the flow runs in ambient R^3
    (x cos t + v sin t), so pole crossings along the way are harmless, and
    converts back to the chart in blocks of about ``_FLOW_BLOCK`` rows.
    Raises ChartError if an input point or an *output* point at any time
    lies on a pole.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    xi = np.atleast_2d(np.asarray(xis, dtype=float))
    t = np.asarray(t, dtype=float)
    if t.ndim > 1:
        raise InputError("flow times must be a scalar or a 1-D vector")
    ts = t.reshape(-1, 1)
    theta, phi = pts[:, 0], pts[:, 1]
    st = np.sin(theta)
    if np.any(st <= 0.0):
        raise ChartError("flow input at a pole")
    ct, cp, sp = np.cos(theta), np.cos(phi), np.sin(phi)
    # position x and the velocity dual to xi, v = xi_theta e_theta + (xi_phi / sin theta) e_phi,
    # with e_theta = (ct cp, ct sp, -st) and e_phi = (-sp, cp, 0), component by component
    x = (st * cp, st * sp, ct)
    xi_th, xi_ph = xi[:, 0], xi[:, 1] / st
    v = (xi_th * (ct * cp) + xi_ph * -sp, xi_th * (ct * sp) + xi_ph * cp, xi_th * -st)
    out = np.empty((len(ts), *pts.shape))
    step = max(1, _FLOW_BLOCK // max(len(st), 1))
    for lo in range(0, len(ts), step):
        blk = slice(lo, lo + step)
        cos_t, sin_t = np.cos(ts[blk]), np.sin(ts[blk])
        x3 = np.clip(cos_t * x[2] + sin_t * v[2], -1.0, 1.0)
        if np.any(np.abs(x3) >= 1.0 - 1e-14):
            raise ChartError("flow output at a pole")
        out[blk, :, 0] = np.arccos(x3)
        out[blk, :, 1] = np.mod(np.arctan2(cos_t * x[1] + sin_t * v[1],
                                           cos_t * x[0] + sin_t * v[0]), 2.0 * math.pi)
    return out[0] if t.ndim == 0 else out
