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

import numpy as np

from .errors import InputError
from .manifolds import EigenBasis, ManifoldModel, basis_for, eval_basis, g0_matrices


def _contract(a, grads_in: np.ndarray, grads_out: np.ndarray) -> np.ndarray:
    """sum_{i,j} a_ij grads_in[i] (x) grads_out[j] at every point; (P, n, n).

    The one pairing of two sets of gradients: the Bergman fields, the band
    tensors, the tail defects and the Takahashi pullback all end in it.
    """
    d_in, n, p = grads_in.shape
    d_out = grads_out.shape[0]
    if a is None:  # identity
        return np.einsum("dip,djp->pij", grads_in, grads_out)
    a = np.asarray(a, dtype=float)
    if a.ndim == 1 and a.shape == (d_in,) == (d_out,):  # a square diagonal: no GEMM
        return np.einsum("dip,djp->pij", grads_in, a[:, None, None] * grads_out)
    if a.shape != (d_in, d_out):
        raise InputError(f"matrix shape {a.shape} does not match bases ({d_in}, {d_out})")
    vals = np.empty((p, n, n))
    for j in range(n):  # one (d_in, P) product at a time: the bits of the (d_in, n P) GEMM
        vals[:, :, j] = np.einsum("dip,dp->pi", grads_in, a @ grads_out[:, j, :])
    return vals


def dd_kernel(a, basis: EigenBasis, points: np.ndarray, grads=None) -> np.ndarray:
    """Bergman-type tensor field of the kernel with matrix ``a`` over ``basis``: (P, n, n).

    ``a`` is a (d, d) matrix, its 1-D diagonal, or None for the identity.  The
    result is symmetrized (exact when a is symmetric).  ``grads`` may give the
    gradients at ``points`` of a window led by ``basis``, whose leading rows
    are its own.  A field that is not finite is an input error.
    """
    if grads is None:
        grads = eval_basis(basis, np.atleast_2d(np.asarray(points, dtype=float)))[1]
    grads = grads[:basis.dim]
    return _symmetric_field(a, grads, grads)


def _symmetric_field(a, grads_in: np.ndarray, grads_out: np.ndarray) -> np.ndarray:
    """The ``_contract`` of ``a``, symmetrized; a field that is not finite is an input error."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, with no warning
        vals = _contract(a, grads_in, grads_out)
        vals = 0.5 * (vals + np.transpose(vals, (0, 2, 1)))
    if not np.isfinite(vals).all():
        raise InputError("tensor field has non-finite values")
    return vals


def isotropic_coefficients(model: ManifoldModel, points: np.ndarray, values: np.ndarray) -> float:
    """Mean over the grid of Tr(g0^{-1} T)/n: the isotropic part of the (P, n, n) values."""
    g0 = g0_matrices(model, points)  # diagonal on every model
    ratios = np.diagonal(values, axis1=1, axis2=2) / np.diagonal(g0, axis1=1, axis2=2)
    return float(ratios.sum(axis=1).mean() / model.dim)


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


def isometry_measurement(model: ManifoldModel, cutoff, points: np.ndarray, grads=None):
    """(mu, isotropic coefficient of dd(I) at ``points``) of one window (``grads``: dd_kernel)."""
    basis = basis_for(model, cutoff)
    field = dd_kernel(None, basis, points, grads)
    return basis.mu_top, isotropic_coefficients(model, points, field)
