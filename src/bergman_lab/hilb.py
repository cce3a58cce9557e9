"""Inverting the Bergman limit: from a target metric to an inner product.

The symbol b(x, xi) = c_n (dV_{g0}/dV_g)(x) |xi|_g^{-(n+2)} on the unit
cosphere, with c_n = n (n+2) (2 pi)^n / Vol(S^{n-1}), quantizes to an inner
product whose Bergman metric converges to g after the mu^{-(n+2)} rescale.
On the circle the symbol is fiber-even, and for conformal metrics it is
fiber-independent, so both cases reduce to multiplication operators; the
torus uses the full quantization, and g0 the diagonal of an x-independent
symbol.
"""

from __future__ import annotations

import math

import numpy as np

from .bergman import dd_kernel
from .errors import UnsupportedModelError
from .fields import MetricField, component_major, quadratic_form
from .manifolds import EigenBasis, ManifoldModel
from .operators import SymbolField, assemble, leading_block, positivity_repair


def normalization_constant(model: ManifoldModel) -> float:
    """c_n = n (n+2) (2 pi)^n / Vol(S^{n-1}), fixed by E_N(Hilb(g0)) -> g0."""
    n = model.dim
    return n * (n + 2) * (2.0 * math.pi) ** n / model.sphere_fiber_volume


def hilb_factor(g: MetricField, points: np.ndarray):
    """q -> c_n (dV_{g0}/dV_g) q^{-(n+2)/2} at the points: the hilb symbol of q = |xi|_g^2."""
    n = g.model.dim
    coef = normalization_constant(g.model) * g.volume_ratio(points)
    return lambda q: coef * q ** (-(n + 2) / 2.0)


def hilb_symbol(g: MetricField) -> SymbolField:
    """Strictly positive order-zero symbol inverting the Bergman transform."""

    def make_evaluator(points: np.ndarray):
        factor, ginv = hilb_factor(g, points), component_major(g.inverses(points))
        return lambda xi_unit: factor(quadratic_form(ginv, xi_unit))

    return SymbolField(f"hilb[{g.name}]", g.model, make_evaluator, x_independent=g.x_independent)


def hilb_n(g: MetricField, basis: EigenBasis) -> np.ndarray:
    """Matrix of the inner product <Hilb(g) . , .> on the spectral window, unrepaired.

    ``operators.assemble`` picks the assembly: Kohn-Nirenberg on torus2, and
    on the circle multiplication (the symbol is even in the one-dimensional
    fiber); sphere2 takes conformal metrics only (a fiber-independent symbol,
    so multiplication), anything else raises UnsupportedModelError.  For g0
    the symbol is the constant c_n, x-independent, so flat windows get the
    exact diagonal c_n I, as the 1-D array of its entries, with no fiber
    sampling.  The leading d x d block is the matrix of the first d basis
    elements up to round-off, so a sweep assembles its top window once; each
    window repairs its own block with ``positivity_repair``.
    """
    if g.model.kind == "sphere2" and g.conformal_u is None:
        raise UnsupportedModelError("sphere assembly supports conformal metrics e^u g0 only")
    return assemble(hilb_symbol(g), basis)


def approximate(r: np.ndarray, basis: EigenBasis, points: np.ndarray,
                grads=None) -> tuple[np.ndarray, float]:
    """Normalized Bergman approximation mu^{-(n+2)} E_N(Hilb_N(g)) of g on one window, (P, n, n).

    ``r`` is ``hilb_n(g, top)`` over a window whose leading block is
    ``basis`` (``grads`` as in ``dd_kernel``).  The block's positivity-repair
    shift is returned, not applied (a shift s would add s * dd(I)), so the
    field is that of the assembly.
    """
    block = leading_block(r, basis.dim)
    _, shift = positivity_repair(block)
    return basis.mu_top ** -(basis.model.dim + 2) * dd_kernel(block, basis, points, grads), shift
