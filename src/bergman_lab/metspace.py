"""The Riemannian metric induced on the space of metrics.

Two independent routes to the squared length of a tangent vector gdot at g:

  closed form   1/(4 n (2 pi)^n) * integral over S*M of
                (Tr(g^{-1} gdot) + (n+2) <g^{-1} gdot g^{-1} xi, xi> / |xi|_g^2)^2

  trace formula mu_N^{-n} Tr(R^{-1} Rdot R^{-1} Rdot), with R the assembled
                inner product of g and Rdot the assembled derivative symbol.

The trace formula converges to the closed form by the Szego limit theorem;
both are exposed, along with the Szego trace itself for products of up to
three compressions.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import InputError, UnsupportedModelError
from .fields import MetricField, MetricPerturbation, _finite, component_major, quadratic_form
from .hilb import hilb_factor, hilb_n
from .manifolds import CosphereQuadrature, EigenBasis
from .operators import SymbolField, assemble, leading_block, positivity_repair


def _perturbation_scalars(g: MetricField, gdot: MetricPerturbation, points, fibers: int = 1):
    """xi -> |xi|_g^2, Tr(g^{-1} gdot) and (n+2) <g^{-1} gdot g^{-1} xi, xi> / |xi|_g^2.

    Covector row p * fibers + f belongs to point p (``fiber_bundle`` rows),
    or one covector row serves every point."""
    ginv = g.inverses(points)
    h = gdot.matrices(points)
    tr = np.einsum("pij,pji->p", ginv, h)
    gig = np.einsum("pij,pjk,pkl->pil", ginv, h, ginv)
    tr, gig, ginv = (np.repeat(a, fibers, axis=0) for a in (tr, gig, ginv))
    gig, ginv = component_major(gig), component_major(ginv)
    n = g.model.dim

    def scalars(xis: np.ndarray):
        q = quadratic_form(ginv, xis)
        return q, tr, (n + 2) * quadratic_form(gig, xis) / q

    return scalars


def dhilb_symbol(
    g: MetricField, gdot: MetricPerturbation, trace_sign: int = 1
) -> SymbolField:
    """Variation symbol of the inverse-metric quantization along gdot:

        (hilb_symbol(g)/2) (trace_sign * Tr(g^{-1} gdot)
                            + (n+2) <g^{-1} gdot g^{-1} xi, xi> / |xi|_g^2).

    trace_sign=+1 is the convention the closed-form norm integrand uses;
    trace_sign=-1 is the exact Frechet derivative of hilb_symbol (the volume
    ratio decreases in g, so its logarithmic derivative is -Tr(g^{-1}gdot)/2,
    which central differences confirm).  The two differ by
    hilb_symbol * Tr(g^{-1} gdot).  Either way the result is generally
    indefinite and is never positivity-repaired.
    """
    if trace_sign not in (1, -1):
        raise InputError("trace_sign must be +1 or -1")

    def make_evaluator(points: np.ndarray):
        factor = hilb_factor(g, points)
        scalars = _perturbation_scalars(g, gdot, points)

        def ev(xi_unit: np.ndarray) -> np.ndarray:
            q, tr, quadr = scalars(xi_unit)  # q once, for the hilb factor and the ratio
            return 0.5 * factor(q) * (trace_sign * tr + quadr)

        return ev

    return SymbolField(f"dhilb[{g.name};{gdot.name};{trace_sign:+d}]", g.model, make_evaluator)


def trace_operators(
    g: MetricField,
    gdot: MetricPerturbation,
    basis: EigenBasis,
    trace_sign: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """R = Hilb(g) (``hilb_n``) and Rdot, the assembled variation symbol, over the window.

    Rdot is in the same trace_sign convention as induced_norm_closed, so the
    two routes converge to each other.  Assemble them once over the top
    window of a sweep; ``induced_norm_trace`` slices each smaller window.
    """
    if g.model.kind not in ("circle", "torus2"):
        raise UnsupportedModelError("trace norm requires circle or torus2")
    return hilb_n(g, basis), assemble(dhilb_symbol(g, gdot, trace_sign), basis)


def induced_norm_trace(r: np.ndarray, rdot: np.ndarray, basis: EigenBasis) -> float:
    """mu_N^{-n} Tr(R^{-1} Rdot R^{-1} Rdot) on the spectral window ``basis``.

    ``r`` and ``rdot`` come from ``trace_operators`` over a window whose
    leading blocks are ``basis``.  R's block is repaired onto the SPD cone.
    A diagonal R, a 1-D array (g0, whose symbol is x-independent), divides
    Rdot; any other is an LU solve.
    """
    r, _ = positivity_repair(leading_block(r, basis.dim))
    rdot = leading_block(rdot, basis.dim)
    x = rdot / r[:, None] if r.ndim == 1 else np.linalg.solve(r, rdot)
    val = float(np.einsum("ij,ji->", x, x))
    return basis.mu_top ** (-basis.model.dim) * val


def induced_norm_closed(
    g: MetricField,
    gdot: MetricPerturbation,
    quad: CosphereQuadrature,
    trace_sign: int = 1,
) -> float:
    """Cosphere-quadrature evaluation of the closed-form induced norm, point data per base point.

    A sum that is not finite (the integrand of a huge ``gdot`` overflows) is
    an input error naming ``gdot``."""
    base = quad.points[::quad.fibers]
    n = g.model.dim
    pref = 1.0 / (4.0 * n * (2.0 * math.pi) ** n)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, with no warning
        _, tr, quadr = _perturbation_scalars(g, gdot, base, quad.fibers)(quad.xis)
        total = (quad.weights * (trace_sign * tr + quadr) ** 2).sum()
    return pref * float(_finite(gdot.name, total, "closed-form norm"))


def szego_trace(
    sources: list, top: EigenBasis, quad: CosphereQuadrature
) -> Callable[[EigenBasis], tuple[float, float, float]]:
    """Traces of a product of compressions against their symbol-integral law.

    Checks that ``sources`` has 1 to 3 factors, integrates their symbol
    product over S*M once and assembles each distinct field object once
    over the top window ``top``.  Returns ``trace(basis)`` -> (measured,
    predicted, ratio) for a window whose leading blocks are ``basis``, with
    predicted = mu_N^n / (n (2 pi)^n) * integral of the symbol product.
    """
    if not 1 <= len(sources) <= 3:
        raise InputError("szego_trace supports products of 1 to 3 compressions")
    vals = np.ones(quad.points.shape[0])
    for s in sources:
        vals = vals * s.values(quad.points, quad.xis)
    integral = float((quad.weights * vals).sum())
    # a symbol integral that cancels to round-off gives a ratio of two round-offs
    if abs(integral) <= 1e-12 * float((quad.weights * np.abs(vals)).sum()):
        names = ",".join(s.name for s in sources)
        raise InputError(f"the predicted trace of {names!r} is zero up to round-off")
    mats = {}  # a field object given twice is assembled once
    for s in sources:
        if id(s) not in mats:
            mats[id(s)] = assemble(s, top)
    n = top.model.dim

    def trace(basis: EigenBasis) -> tuple[float, float, float]:
        seq = [leading_block(mats[id(s)], basis.dim) for s in sources]
        if len(seq) == 1:  # the trace of a diagonal given as a 1-D array is its sum
            measured = float(seq[0].sum() if seq[0].ndim == 1 else np.trace(seq[0]))
        else:
            seq = [np.diag(a) if a.ndim == 1 else a for a in seq]  # products read squares
            if len(seq) == 3:  # Tr(A B) = sum A_ij B_ji: at most one matrix product
                seq = [seq[0] @ seq[1], seq[2]]
            measured = float(np.einsum("ij,ji->", *seq))
        predicted = basis.mu_top**n / (n * (2.0 * math.pi) ** n) * integral
        return measured, predicted, measured / predicted

    return trace
