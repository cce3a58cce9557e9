"""Metric fields, perturbations, and the norms and errors of (P, n, n) tensor values."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InputError
from .manifolds import ManifoldModel, g0_matrices


def _finite(name: str, values, what: str = "values") -> np.ndarray:
    """Field values, or their ``what``, as floats; a non-finite one is an input error."""
    vals = np.asarray(values, dtype=float)
    if not np.isfinite(vals).all():
        raise InputError(f"field {name!r} has non-finite {what}")
    return vals


def _evaluated(name: str, fn: Callable[[], object], what: str = "values") -> np.ndarray:
    """``fn()`` checked by ``_finite``; numpy does not warn of the overflow it refuses."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(name, fn(), what)


def sym2x2_eigs(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form (smallest, largest) eigenvalues of symmetric (P, 2, 2) values."""
    half_tr = 0.5 * (vals[:, 0, 0] + vals[:, 1, 1])
    disc = np.sqrt((0.5 * (vals[:, 0, 0] - vals[:, 1, 1])) ** 2 + vals[:, 0, 1] ** 2)
    return half_tr - disc, half_tr + disc


def component_major(mats: np.ndarray) -> np.ndarray:
    """(P, n, n) matrices as one contiguous (n, n, P) array, the layout ``quadratic_form`` reads."""
    return np.ascontiguousarray(np.moveaxis(mats, 0, -1))


def quadratic_form(mats: np.ndarray, xis: np.ndarray) -> np.ndarray:
    """xi^T M xi per point of component-major (n, n, P) mats, one component at a
    time, in the order of ``einsum("pij,pi,pj->p")`` (the same bits, faster).

    ``xis`` is (P, n), or one (1, n) row whose components are then scalar
    coefficients: the same products in the same order, so the same bits."""
    total = np.zeros(mats.shape[-1])
    for i in range(xis.shape[1]):
        for j in range(xis.shape[1]):
            total += mats[i, j] * xis[:, i] * xis[:, j]
    return total


def g0_orthonormal(model: ManifoldModel, points: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Covariant 2-tensors in a g0-orthonormal frame, g0^{-1/2} T g0^{-1/2}.

    The chart frame is already orthonormal except on the sphere, where the
    phi component is rescaled by 1/sin(theta).
    """
    if model.kind != "sphere2":
        return values
    s = np.sin(np.atleast_2d(points)[:, 0])
    scale = np.stack([np.ones_like(s), 1.0 / s], axis=1)
    return values * scale[:, :, None] * scale[:, None, :]


def g0_operator_norms(model: ManifoldModel, points: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Pointwise operator norm of covariant 2-tensors w.r.t. g0.

    For a possibly non-symmetric value M this is the largest singular value
    of g0^{-1/2} M g0^{-1/2}; for symmetric values it is the largest
    absolute eigenvalue.
    """
    vals = np.asarray(values, dtype=float)
    if model.dim == 1:
        return np.abs(vals[:, 0, 0])
    vals = g0_orthonormal(model, points, vals)
    asym = vals - np.transpose(vals, (0, 2, 1))
    symmetric = np.max(np.abs(asym)) <= 1e-13 * (1.0 + np.max(np.abs(vals)))
    lo, hi = sym2x2_eigs(vals if symmetric else np.einsum("pki,pkj->pij", vals, vals))
    abs_max = np.maximum(np.abs(hi), np.abs(lo))
    return abs_max if symmetric else np.sqrt(abs_max)


@dataclass(frozen=True)
class MetricField:
    """Riemannian metric as an SPD chart-matrix field.

    ``conformal_u`` is set when the metric is e^u g0 for a scalar u; several
    assemblies (notably on the sphere) are only available in that case.
    ``x_independent`` marks a metric with constant components in a
    g0-orthonormal frame (g0 itself), so symbols built from it, such as its
    hilb symbol, depend on the covector only.
    """

    name: str
    model: ManifoldModel
    matrix_fn: Callable[[np.ndarray], np.ndarray]
    conformal_u: Optional[Callable[[np.ndarray], np.ndarray]] = None
    x_independent: bool = False

    def matrices(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        g = _evaluated(self.name, lambda: self.matrix_fn(pts), "matrices")
        g = 0.5 * (g + np.transpose(g, (0, 2, 1)))
        if self.model.dim == 1:
            if np.any(g[:, 0, 0] <= 0.0):
                raise InputError(f"metric {self.name!r} not positive at a queried point")
        else:
            with np.errstate(over="ignore", invalid="ignore"):  # refused below, with no warning
                det = g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] ** 2
            if np.any(g[:, 0, 0] <= 0.0) or np.any(det <= 0.0):
                raise InputError(f"metric {self.name!r} not SPD at a queried point")
            # ``inverses`` and ``volume_ratio`` divide by this same product
            _finite(self.name, det, "determinants")
        return g

    def inverses(self, points: np.ndarray) -> np.ndarray:
        g = self.matrices(points)
        if self.model.dim == 1:
            return 1.0 / g
        det = g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] ** 2
        inv = np.empty_like(g)
        inv[:, 0, 0] = g[:, 1, 1] / det
        inv[:, 1, 1] = g[:, 0, 0] / det
        inv[:, 0, 1] = inv[:, 1, 0] = -g[:, 0, 1] / det
        return inv

    def volume_ratio(self, points: np.ndarray) -> np.ndarray:
        """dV_{g0}/dV_g = sqrt(det g0 / det g) at each point."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        g = self.matrices(pts)
        g0 = g0_matrices(self.model, pts)
        if self.model.dim == 1:
            return np.sqrt(g0[:, 0, 0] / g[:, 0, 0])
        det_g = g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] ** 2
        det_g0 = g0[:, 0, 0] * g0[:, 1, 1] - g0[:, 0, 1] ** 2
        return np.sqrt(det_g0 / det_g)


@dataclass(frozen=True)
class MetricPerturbation:
    """Symmetric (not necessarily definite) 2-tensor field: a tangent to Met(M)."""

    name: str
    model: ManifoldModel
    matrix_fn: Callable[[np.ndarray], np.ndarray]

    def matrices(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        h = _evaluated(self.name, lambda: self.matrix_fn(pts), "matrices")
        return 0.5 * (h + np.transpose(h, (0, 2, 1)))


def reference_metric(model: ManifoldModel) -> MetricField:
    return MetricField(
        "g0", model,
        lambda pts: g0_matrices(model, pts),
        conformal_u=lambda pts: np.zeros(np.atleast_2d(pts).shape[0]),
        x_independent=True,
    )


def sup_relative_error(model: ManifoldModel, points: np.ndarray, measured: np.ndarray,
                       predicted: np.ndarray, name: str) -> float:
    """sup |measured - predicted| / sup |predicted|, pointwise in the g0 operator norm.

    ``measured`` and ``predicted`` are (P, n, n) values at ``points``.
    Normalized by the sup of the prediction, so points where the predicted
    tensor vanishes do not blow up the report; a prediction that vanishes
    everywhere (the field ``name`` is zero) is an input error, and so is a
    ratio that is not finite (the norms of a huge field overflow).
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        diff = g0_operator_norms(model, points, measured - predicted)
        ref = g0_operator_norms(model, points, predicted)
        if not ref.any():
            raise InputError(f"the predicted tensor of {name!r} is identically zero")
        ratio = diff.max() / ref.max()
        return float(_finite(name, ratio, "relative error against its prediction"))


def relative_errors(points: np.ndarray, approx: np.ndarray, target: MetricField, weights=None):
    """(sup, L2) relative error of (P, n, n) values at ``points`` against a metric field.

    Pointwise errors use the g0 operator norm; the L2 version integrates the
    squared pointwise norms with the supplied grid weights (uniform if None).
    An error that is not finite (the norms of a huge metric overflow) is an
    input error.
    """
    tgt = target.matrices(points)
    w = np.ones(len(tgt)) if weights is None else np.asarray(weights, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        diff = g0_operator_norms(target.model, points, approx - tgt)
        ref = g0_operator_norms(target.model, points, tgt)
        sup = (diff / ref).max()
        l2 = np.sqrt(np.dot(w, diff**2) / np.dot(w, ref**2))
        errs = _finite(target.name, [sup, l2], "sup and L2 relative errors")
    return float(errs[0]), float(errs[1])
