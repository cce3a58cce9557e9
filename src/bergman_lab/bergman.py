"""Pullback metrics from eigenbasis maps and compressed operator kernels.

The central object is the mixed-derivative field of an operator kernel on
the diagonal: for a matrix A over an eigenbasis, the covariant 2-tensor

    T(x) = sum_{i,j} A_ij  dphi_i(x) (x) dphi_j(x),

computed at each grid point as G^T A G from the d-by-n gradient matrix G.
With A the matrix of an inner product this is precisely the Bergman metric
of that inner product; with A = I it is the pullback of the Euclidean
metric by the orthonormal eigenbasis map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .fields import Tensor2Field, sym2x2_eigs
from .manifolds import (
    EigenBasis,
    ManifoldModel,
    basis_for,
    eval_basis,
    g0_matrices,
    quadrature_grid,
)
from .numerics import SPDMatrix, sym_eig


@dataclass(frozen=True)
class InnerProductMatrix:
    """SPD matrix of an inner product on H*_{<=N} in the dual eigenbasis.

    ``shift`` records any positive-definiteness repair applied during
    assembly; the unshifted matrix is recovered as matrix - shift * I.
    """

    matrix: SPDMatrix
    basis: EigenBasis
    shift: float = 0.0

    @property
    def entries(self) -> np.ndarray:
        return self.matrix.entries

    def unshifted(self) -> np.ndarray:
        if self.shift == 0.0:
            return self.matrix.entries
        return self.matrix.entries - self.shift * np.eye(self.matrix.dim)


def _contract(a, grads_in: np.ndarray, grads_out: np.ndarray) -> np.ndarray:
    """sum_{i,j} a_ij grads_in[i] (x) grads_out[j] at every point; (P, n, n)."""
    d_in, n, p = grads_in.shape
    d_out = grads_out.shape[0]
    if a is None:  # identity
        return np.einsum("dip,djp->pij", grads_in, grads_out)
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:  # diagonal
        if a.shape[0] != d_in or d_in != d_out:
            raise InputError("diagonal length does not match basis dimension")
        return np.einsum("dip,d,djp->pij", grads_in, a, grads_out)
    if a.shape != (d_in, d_out):
        raise InputError(f"matrix shape {a.shape} does not match bases ({d_in}, {d_out})")
    t = (a @ grads_out.reshape(d_out, n * p)).reshape(d_in, n, p)
    return np.einsum("dip,djp->pij", grads_in, t)


def dd_kernel(a, basis: EigenBasis, points: np.ndarray) -> Tensor2Field:
    """Bergman-type tensor field of the kernel with matrix ``a`` over ``basis``.

    ``a`` may be a full (d, d) matrix, a length-d diagonal, or None for the
    identity.  The result is symmetrized (exact when a is symmetric).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    _, grads = eval_basis(basis, pts)
    vals = _contract(a, grads, grads)
    vals = 0.5 * (vals + np.transpose(vals, (0, 2, 1)))
    return Tensor2Field(basis.model, pts, vals)


def pullback_by_transform(q: np.ndarray, basis: EigenBasis, points: np.ndarray) -> Tensor2Field:
    """(Q Phi)* g_E for a full-rank linear map Q of the eigenspace."""
    q = np.asarray(q, dtype=float)
    if q.shape != (basis.dim, basis.dim):
        raise InputError("transform must be square over the basis")
    w, _ = sym_eig(q.T @ q)
    if w[0] <= 1e-24 * max(w[-1], 1.0):
        raise InputError("transform is singular")
    return dd_kernel(q.T @ q, basis, points)


def immersion_margin(basis: EigenBasis, points: np.ndarray) -> float:
    """Minimum over the grid of the smallest singular value of the Jacobian."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] == 0:
        raise InputError("empty sample grid")
    _, grads = eval_basis(basis, pts)
    gram = np.einsum("dip,djp->pij", grads, grads)  # (P, n, n)
    smin = gram[:, 0, 0] if basis.model.dim == 1 else sym2x2_eigs(gram)[0]
    return float(np.sqrt(np.maximum(smin, 0.0)).min())


def _chart_distance(model: ManifoldModel, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    if model.kind == "sphere2":
        ct = np.cos(p[:, 0]) * np.cos(q[:, 0]) + np.sin(p[:, 0]) * np.sin(q[:, 0]) * np.cos(
            p[:, 1] - q[:, 1]
        )
        return np.arccos(np.clip(ct, -1.0, 1.0))
    delta = np.abs(p - q)
    delta = np.minimum(delta, 2.0 * math.pi - delta)  # periodic charts
    return np.sqrt((delta**2).sum(axis=1))


def injectivity_margin(basis: EigenBasis, pairs: tuple[np.ndarray, np.ndarray]) -> float:
    """Minimum ratio (embedded distance / chart distance) over sample pairs.

    A sampled certificate only: positivity at the sample scale, not a proof.
    """
    p = np.atleast_2d(np.asarray(pairs[0], dtype=float))
    q = np.atleast_2d(np.asarray(pairs[1], dtype=float))
    dist = _chart_distance(basis.model, p, q)
    if np.any(dist == 0.0):
        raise InputError("coincident sample pair")
    vp, _ = eval_basis(basis, p)
    vq, _ = eval_basis(basis, q)
    emb = np.sqrt(((vp - vq) ** 2).sum(axis=0))
    return float((emb / dist).min())


def isotropic_coefficients(model: ManifoldModel, field: Tensor2Field) -> float:
    """Mean over the grid of Tr(g0^{-1} T)/n: the isotropic part of the field."""
    g0 = g0_matrices(model, field.points)
    if model.dim == 1:
        tr = field.values[:, 0, 0] / g0[:, 0, 0]
    else:
        tr = field.values[:, 0, 0] / g0[:, 0, 0] + field.values[:, 1, 1] / g0[:, 1, 1]
    return float(tr.mean() / model.dim)


def isometry_theory_coefficient(model: ManifoldModel) -> float:
    """Leading coefficient Vol(S^{n-1}) / (n (n+2) (2 pi)^n) of |dPhi|^2 growth."""
    n = model.dim
    return model.sphere_fiber_volume / (n * (n + 2) * (2.0 * math.pi) ** n)


def fit_growth(mus: np.ndarray, measured: np.ndarray, n: int) -> float:
    """Least squares for c in measured ~ c mu^{n+2} + e mu^{n+1}.

    The nuisance mu^{n+1} term absorbs the dominant finite-size bias of the
    asymptotic law.
    """
    mus = np.asarray(mus, dtype=float)
    design = np.column_stack([mus ** (n + 2), mus ** (n + 1)])
    coef, *_ = np.linalg.lstsq(design, np.asarray(measured, dtype=float), rcond=None)
    return float(coef[0])


def isometry_measurement(model: ManifoldModel, cutoff, grid_res: int = 16):
    """(mu, isotropic coefficient of dd(I)) for one spectral window."""
    pts, _ = quadrature_grid(model, grid_res)
    basis = basis_for(model, cutoff)
    fld = dd_kernel(None, basis, pts)
    return basis.mu_top, isotropic_coefficients(model, fld)
