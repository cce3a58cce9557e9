"""Inverting the Bergman limit: from a target metric to an inner product.

The symbol b(x, xi) = c_n (dV_{g0}/dV_g)(x) |xi|_g^{-(n+2)} on the unit
cosphere, with c_n = n (n+2) (2 pi)^n / Vol(S^{n-1}), quantizes to an inner
product whose Bergman metric converges to g after the mu^{-(n+2)} rescale.
On the circle the symbol is fiber-even, and for conformal metrics it is
fiber-independent, so both cases reduce to multiplication operators; the
torus uses the full quantization.
"""

from __future__ import annotations

import math

import numpy as np

from .bergman import dd_kernel
from .errors import UnsupportedModelError
from .fields import MetricField, Tensor2Field, quadratic_form
from .manifolds import EigenBasis
from .operators import (
    SymbolField,
    assemble_kohn_nirenberg,
    assemble_multiplication,
    positivity_repair,
)


def normalization_constant(n: int) -> float:
    """c_n = n (n+2) (2 pi)^n / Vol(S^{n-1}), fixed by E_N(Hilb(g0)) -> g0."""
    fiber = 2.0 if n == 1 else 2.0 * math.pi
    return n * (n + 2) * (2.0 * math.pi) ** n / fiber


def hilb_symbol(g: MetricField) -> SymbolField:
    """Strictly positive order-zero symbol inverting the Bergman transform."""
    model = g.model
    n = model.dim
    c_n = normalization_constant(n)

    def make_evaluator(points: np.ndarray):
        ratio = g.volume_ratio(points)
        ginv = g.inverses(points)

        def ev(xi_unit: np.ndarray) -> np.ndarray:
            q = quadratic_form(ginv, xi_unit)
            return c_n * ratio * q ** (-(n + 2) / 2.0)

        return ev

    def fn(points: np.ndarray, xi_unit: np.ndarray) -> np.ndarray:
        return make_evaluator(np.atleast_2d(points))(xi_unit)

    return SymbolField(f"hilb[{g.name}]", model, fn, make_evaluator=make_evaluator)


def hilb_n(
    g: MetricField, basis: EigenBasis, quantization: str = "left"
) -> tuple[np.ndarray, float]:
    """Matrix of the inner product <Hilb(g) . , .> on the spectral window.

    circle: any metric (the symbol is even in the one-dimensional fiber, so
    quantization is multiplication).  torus2: any metric, by Kohn-Nirenberg.
    sphere2: conformal metrics only (fiber-independent symbol); anything
    else raises UnsupportedModelError.  The matrix is repaired onto the SPD
    cone and returned with the applied shift; the unshifted assembly is the
    matrix minus shift * I.
    """
    symbol = hilb_symbol(g)
    if g.model.kind == "torus2":
        mat = assemble_kohn_nirenberg(symbol, basis, quantization=quantization)
    elif g.model.kind == "sphere2" and g.conformal_u is None:
        raise UnsupportedModelError("sphere assembly supports conformal metrics e^u g0 only")
    else:
        mat = assemble_multiplication(symbol.fiber_restriction(), basis)
    return positivity_repair(mat)


def approximate(
    g: MetricField,
    basis: EigenBasis,
    points: np.ndarray,
    quantization: str = "left",
) -> tuple[Tensor2Field, float]:
    """Normalized Bergman approximation mu^{-(n+2)} E_N(Hilb_N(g)) of g.

    The positivity-repair shift is compensated exactly (a shift s adds
    s * dd(I), so the unshifted assembly is used).  Returns the field and
    the shift that was compensated.
    """
    mat, shift = hilb_n(g, basis, quantization=quantization)
    if shift != 0.0:
        mat = mat - shift * np.eye(basis.dim)
    n = g.model.dim
    scale = basis.mu_top ** -(n + 2)
    field = dd_kernel(mat, basis, points)
    return field.scaled(scale), shift
