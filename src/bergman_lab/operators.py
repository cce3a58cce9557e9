"""Spectral-window compressions of multiplication and order-zero operators.

Multiplication operators are assembled by quadrature on any model; symbols
with genuine fiber dependence are quantized on the torus in the complex
exponential basis (left Kohn-Nirenberg rule: the symbol is evaluated at the
column frequency) and converted to the real basis by the fixed unitary
pairing cos = (u_k + u_{-k})/sqrt(2), sin = (u_k - u_{-k})/(sqrt(2) i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InputError, ResolutionError, UnsupportedModelError
from .fields import Tensor2Field, g0_operator_norms
from .bergman import dd_kernel, _contract
from .manifolds import (
    EigenBasis,
    ManifoldModel,
    basis_dimension,
    basis_for,
    eval_basis,
    fiber_bundle,
    fiber_covectors,
    fiber_tensor,
    g0_norm_xi,
    quadrature_grid,
)
from .numerics import SPDMatrix, SymMatrix

GRAM_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class ScalarField:
    """Smooth real function of position, f(points (P,n)) -> (P,).

    ``values`` accepts and ignores covectors, so a scalar field can stand
    wherever a symbol is evaluated on S*M.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]

    def values(self, points: np.ndarray, xis: Optional[np.ndarray] = None) -> np.ndarray:
        return np.asarray(self.fn(np.atleast_2d(points)), dtype=float)


@dataclass(frozen=True)
class SymbolField:
    """Order-zero symbol b(x, xi) on the cosphere, extended 0-homogeneously.

    ``fn`` receives chart points and *unit* (g0) covectors.  ``x_independent``
    marks pure Fourier multipliers, enabling diagonal assembly.  When a
    symbol factors through point-only data (metric inverses, volume ratios),
    ``make_evaluator`` precomputes that data once per point set; assembly
    loops over many fiber directions then reuse it.
    """

    name: str
    model: ManifoldModel
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    x_independent: bool = False
    make_evaluator: Optional[Callable] = None

    def prepared(self, points: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """Evaluator xi -> b(points, xi) with point-only work done up front."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        ev = self.make_evaluator(pts) if self.make_evaluator is not None else (
            lambda xi_unit: np.asarray(self.fn(pts, xi_unit), dtype=float)
        )

        def call(xis: np.ndarray) -> np.ndarray:
            xi = np.atleast_2d(np.asarray(xis, dtype=float))
            if xi.shape[0] == 1 and pts.shape[0] > 1:
                xi = np.broadcast_to(xi, (pts.shape[0], xi.shape[1]))
            norm = g0_norm_xi(self.model, pts, xi)
            if np.any(norm == 0.0):
                raise InputError("symbol evaluated at xi = 0")
            return np.asarray(ev(xi / norm[:, None]), dtype=float)

        return call

    def values(self, points: np.ndarray, xis: np.ndarray) -> np.ndarray:
        return self.prepared(points)(xis)

    def fiber_average(self, points: np.ndarray, fiber_res: int = 64) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        ev = self.prepared(pts)
        xis, w = fiber_covectors(self.model, pts, fiber_res)
        total = np.zeros(pts.shape[0])
        # one fiber node at a time: a batch over all P * F rows would hold
        # every evaluator temporary at once
        for xi in xis:
            total += ev(xi)
        return total / len(w)

    def fiber_restriction(self) -> ScalarField:
        """The scalar field x -> b(x, e^1) (e^1 = dtheta or dx1).

        Equals b for fiber-constant symbols, and on S^1 for fiber-even ones.
        """

        def fn(points: np.ndarray) -> np.ndarray:
            pts = np.atleast_2d(points)
            xi = np.zeros((pts.shape[0], self.model.dim))
            xi[:, 0] = 1.0
            return self.values(pts, xi)

        return ScalarField(f"{self.name}|fiber", fn)


@dataclass(frozen=True)
class OperatorMatrix:
    """Compression Pi B Pi over an eigenbasis; symmetric, finite."""

    matrix: np.ndarray
    basis: EigenBasis
    provenance: str

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def default_assembly_res(model: ManifoldModel, basis: EigenBasis, bandwidth_pad: int = 48) -> int:
    """Grid resolution that integrates basis products times a smooth factor."""
    if model.kind == "circle":
        return 2 * int(basis.cutoff) + bandwidth_pad
    if model.kind == "torus2":
        kmax = int(math.isqrt(int(basis.cutoff)))
        return 2 * kmax + bandwidth_pad
    return int(basis.cutoff) + max(bandwidth_pad // 2, 8)


def assemble_multiplication(
    f: ScalarField,
    basis: EigenBasis,
    grid: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> OperatorMatrix:
    """Matrix of <f phi_j, phi_k> by quadrature, symmetric by construction.

    Under-resolution is detected by the Gram residual of the same values
    table: the highest-frequency rows must reproduce the identity.
    """
    model = basis.model
    if grid is None:
        grid = quadrature_grid(model, default_assembly_res(model, basis))
    pts, w = grid
    vals, _ = eval_basis(basis, pts)
    probe = vals[-min(basis.dim, 32):]
    gram_rows = (probe * w) @ vals.T
    eye_rows = np.zeros_like(gram_rows)
    eye_rows[np.arange(gram_rows.shape[0]), np.arange(basis.dim - gram_rows.shape[0], basis.dim)] = 1.0
    resid = np.abs(gram_rows - eye_rows).max()
    if resid > GRAM_RESIDUAL_TOL:
        raise ResolutionError(
            f"assembly grid too coarse: Gram residual {resid:.2e} > {GRAM_RESIDUAL_TOL:.0e}"
        )
    fw = w * f.values(pts)
    mat = (vals * fw) @ vals.T
    mat = 0.5 * (mat + mat.T)
    return OperatorMatrix(mat, basis, "multiplication")


def _torus_complex_freqs(basis: EigenBasis) -> np.ndarray:
    """Complex frequency per slot: slot of cos_k carries +k, slot of sin_k carries -k."""
    d = basis.dim
    freqs = np.zeros((d, 2), dtype=int)
    for j in range(d):
        if basis.kinds[j] == 1:
            freqs[j] = basis.freqs[j]
        elif basis.kinds[j] == 2:
            freqs[j] = -basis.freqs[j]
    return freqs


def _real_pairing(basis: EigenBasis):
    """Index/coefficient arrays of the unitary map real basis -> complex slots."""
    d = basis.dim
    idx_p = np.zeros(d, dtype=int)
    idx_m = np.zeros(d, dtype=int)
    w_p = np.zeros(d, dtype=complex)
    w_m = np.zeros(d, dtype=complex)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for j in range(d):
        if basis.kinds[j] == 0:
            idx_p[j] = idx_m[j] = j
            w_p[j] = 1.0
        elif basis.kinds[j] == 1:
            idx_p[j], idx_m[j] = j, j + 1
            w_p[j] = w_m[j] = inv_sqrt2
        else:
            idx_p[j], idx_m[j] = j - 1, j
            w_p[j] = -1j * inv_sqrt2
            w_m[j] = 1j * inv_sqrt2
    return idx_p, idx_m, w_p, w_m


def assemble_kohn_nirenberg(
    symbol: SymbolField,
    basis: EigenBasis,
    fft_res: Optional[int] = None,
    quantization: str = "left",
) -> OperatorMatrix:
    """Quantize an order-zero symbol over a torus eigenbasis.

    Column k of the complex-basis matrix holds the Fourier coefficients of
    x -> b(x, k/|k|) at the row-minus-column frequency; the zero column uses
    the fiber average of b.  ``quantization`` is "left" or "symmetric" (the
    (left + right)/2 variant, equal to the Hermitian part in the complex
    basis).  Output is converted to the real basis and symmetrized.
    """
    if basis.model.kind != "torus2":
        raise UnsupportedModelError("Kohn-Nirenberg assembly requires the torus model")
    if quantization not in ("left", "symmetric"):
        raise InputError(f"unknown quantization {quantization!r}")
    d = basis.dim
    cfreqs = _torus_complex_freqs(basis)
    kmax = int(math.isqrt(int(basis.cutoff)))
    m = fft_res or max(64, ((4 * kmax + 32 + 31) // 32) * 32)
    if symbol.x_independent:
        diag = np.zeros(d, dtype=complex)
        origin = np.zeros((1, 2))
        for j in range(d):
            k = cfreqs[j]
            if k[0] == 0 and k[1] == 0:
                diag[j] = symbol.fiber_average(origin)[0]
            else:
                diag[j] = symbol.values(origin, k[None, :].astype(float))[0]
        bc = np.diag(diag)
    else:
        ax = 2.0 * math.pi * np.arange(m) / m
        x1, x2 = np.meshgrid(ax, ax, indexing="ij")
        grid_pts = np.column_stack([x1.ravel(), x2.ravel()])
        evaluate = symbol.prepared(grid_pts)
        bc = np.zeros((d, d), dtype=complex)
        rows0 = cfreqs[:, 0]
        rows1 = cfreqs[:, 1]
        cache: dict[tuple[int, int], np.ndarray] = {}

        def coeff_table(key) -> np.ndarray:
            if key not in cache:
                if key == (0, 0):
                    v = symbol.fiber_average(grid_pts)
                else:
                    v = evaluate(np.array([key], dtype=float))
                cache[key] = np.fft.fft2(v.reshape(m, m)) / (m * m)
            return cache[key]

        for j in range(d):
            k = (int(cfreqs[j, 0]), int(cfreqs[j, 1]))
            key = (0, 0) if k == (0, 0) else _primitive_direction(k)
            coeffs = coeff_table(key)
            bc[:, j] = coeffs[(rows0 - k[0]) % m, (rows1 - k[1]) % m]
    if quantization == "symmetric":
        bc = 0.5 * (bc + bc.conj().T)
    idx_p, idx_m, w_p, w_m = _real_pairing(basis)
    c1 = bc[:, idx_p] * w_p[None, :] + bc[:, idx_m] * w_m[None, :]
    breal = np.conj(w_p)[:, None] * c1[idx_p, :] + np.conj(w_m)[:, None] * c1[idx_m, :]
    scale = max(np.abs(breal).max(), 1.0)
    if np.abs(breal.imag).max() > 1e-9 * scale:
        raise InputError("quantized matrix has a non-negligible imaginary part")
    mat = breal.real
    mat = 0.5 * (mat + mat.T)
    return OperatorMatrix(mat, basis, "kohn-nirenberg")


def _primitive_direction(k: tuple[int, int]) -> tuple[int, int]:
    g = math.gcd(abs(k[0]), abs(k[1]))
    return (k[0] // g, k[1] // g)


def positivity_repair(op, floor: Optional[float] = None) -> tuple[SPDMatrix, float]:
    """Shift an assembled compression onto the SPD cone if needed.

    Returns the (possibly shifted) SPD matrix and the applied shift.  A shift
    s changes the Bergman field by exactly s * dd(I), which callers subtract
    when an unbiased field is required.
    """
    mat = op.matrix if isinstance(op, OperatorMatrix) else np.asarray(op, dtype=float)
    w = np.linalg.eigvalsh(0.5 * (mat + mat.T))
    scale = max(abs(float(w[0])), abs(float(w[-1])), 1e-300)
    eps = 1e-8 * scale if floor is None else float(floor)
    if eps <= 0.0:
        raise InputError("positivity floor must be positive")
    min_eig = float(w[0])
    if min_eig >= eps:
        return SPDMatrix(SymMatrix(mat), min_eig), 0.0
    shift = eps - min_eig
    repaired = mat + shift * np.eye(mat.shape[0])
    return SPDMatrix(SymMatrix(repaired), eps), shift


def symbol_law_predict(
    source, model: ManifoldModel, points: np.ndarray, mu: float, fiber_res: int = 64
) -> Tensor2Field:
    """Leading-term tensor mu^{n+2} / ((2 pi)^n (n+2)) * avg_xi b(x,xi) xi (x) xi."""
    if model.dim == 2 and fiber_res < 16:
        raise InputError("fiber resolution must be at least 16")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    reps, xis, w = fiber_bundle(model, pts, fiber_res)
    integ = fiber_tensor(source.values(reps, xis), xis, w)
    n = model.dim
    pref = mu ** (n + 2) / ((2.0 * math.pi) ** n * (n + 2))
    return Tensor2Field(model, pts, pref * integ)


def assemble(source, basis: EigenBasis, quantization: str = "left") -> OperatorMatrix:
    """Dispatch: multiplication for scalar fields, Kohn-Nirenberg for symbols."""
    if isinstance(source, ScalarField):
        return assemble_multiplication(source, basis)
    if isinstance(source, SymbolField):
        return assemble_kohn_nirenberg(source, basis, quantization=quantization)
    raise InputError(f"cannot assemble {type(source).__name__}")


def symbol_law_check(
    source,
    model: ManifoldModel,
    cutoffs,
    grid_res: int = 16,
    fiber_res: int = 64,
):
    """Per-level sup relative error of the Bergman field against the symbol law.

    Returns rows (cutoff, mu, rel_err, pd_shift).  The positivity shift is
    compensated exactly (it contributes shift * dd(I)), so the compared field
    is that of the symmetrized assembly itself.
    """
    pts, _ = quadrature_grid(model, grid_res)
    rows = []
    for cutoff in cutoffs:
        basis = basis_for(model, cutoff)
        op = assemble(source, basis)
        _, shift = positivity_repair(op)
        field = dd_kernel(op.matrix, basis, pts)
        pred = symbol_law_predict(source, model, pts, basis.mu_top, fiber_res)
        num = g0_operator_norms(model, pts, field.values - pred.values)
        den = g0_operator_norms(model, pts, pred.values)
        rows.append((cutoff, basis.mu_top, float((num / den).max()), shift))
    return rows


def tail_defect(
    f: ScalarField,
    model: ManifoldModel,
    inner_cutoff,
    outer_cutoff,
    grid_res: int = 16,
    grid: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> float:
    """Normalized size of the off-window block Pi_{<=N} B (I - Pi_{<=N}).

    Assembles B over the outer window, takes the block coupling the inner
    window to its complement, and reports mu_N^{-(n+2)} times the sup of the
    g0 operator norm of its mixed-derivative field.
    """
    if outer_cutoff < 2 * inner_cutoff:
        raise InputError("outer window must be at least twice the inner window")
    big = basis_for(model, outer_cutoff)
    d_in = basis_dimension(model, inner_cutoff)
    if grid is None:
        grid = quadrature_grid(model, default_assembly_res(model, big))
    qpts, w = grid
    vals, _ = eval_basis(big, qpts)
    fw = w * f.values(qpts)
    block = (vals[:d_in] * fw) @ vals[d_in:].T
    spts, _ = quadrature_grid(model, grid_res)
    _, grads = eval_basis(big, spts)
    tensor = _contract(block, grads[:d_in], grads[d_in:])
    sup = float(g0_operator_norms(model, spts, tensor).max())
    mu_in = math.sqrt(basis_for(model, inner_cutoff).levels[-1].mu_sq)
    n = model.dim
    return sup / mu_in ** (n + 2)
