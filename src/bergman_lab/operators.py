"""Spectral-window compressions of multiplication and order-zero operators.

On the circle and the torus both kinds of operator have complex-basis entries
read from a table of Fourier coefficients: of f for multiplication, and of
the symbol under the left Kohn-Nirenberg rule (evaluated at the column
frequency).  The real basis pairs cos = (u_k + u_{-k})/sqrt(2) and
sin = (u_k - u_{-k})/(sqrt(2) i), so each real 2 x 2 pair block is a sum or
difference of four gathered coefficients.  For a Hermitian table row (a real
field, or a real symbol even in xi) the blocks are Toeplitz-plus-Hankel sums
of two real tables, the real and imaginary parts of the row, read by one
gather, a strip of row pairs at a time (``_pair_strips``): multiplication
reads one row for every pair, Kohn-Nirenberg the row of each column's
+-direction pair; both read rows from real FFTs by ``_half_plane``.
On the sphere multiplication is the Gauss-Legendre x trapezoid quadrature
sum, separated into a phi DFT and Legendre-weighted products over the band
that the field's phi spectrum reaches.  Every producer yields (rows, cols,
strip): row indices, the sorted columns it covers (or ``slice(None)``) and
those entries, the others being zero, for ``_collect`` and ``_strip_products``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InputError, ResolutionError, UnsupportedModelError
from .fields import _evaluated, _finite, g0_operator_norms
from .bergman import _contract, dd_kernel
from .manifolds import (
    EigenBasis,
    ManifoldModel,
    eval_basis,
    fiber_bundle,
    fiber_covectors,
    fiber_tensor,
    g0_norm_xi,
    normalized_legendre,
    quadrature_grid,
)

GRAM_RESIDUAL_TOL = 1e-9
# Kohn-Nirenberg fiber sampling: first and largest number of angles; the
# largest FFT grid per axis for a flat multiplication field; and the
# Nyquist-band size, relative to the largest coefficient, that stops both
KN_FIBER_RES = 64
KN_FIBER_RES_MAX = 1024
FFT_RES_MAX = 2048
KN_TAIL_TOL = 1e-14
# rows (row pairs in the pair gather) per strip of every strip loop: the pair
# gather, the in-place symmetrization and the Gershgorin row sums, so a
# temporary is a strip, not a second d x d matrix
_STRIP = 64


@dataclass(frozen=True)
class ScalarField:
    """Smooth real function of position, f(points (P,n)) -> (P,).

    ``values`` accepts and ignores covectors, so a scalar field can stand
    wherever a symbol is evaluated on S*M.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]

    def values(self, points: np.ndarray, xis: Optional[np.ndarray] = None) -> np.ndarray:
        return _evaluated(self.name, lambda: self.fn(np.atleast_2d(points)))


@dataclass(frozen=True)
class SymbolField:
    """Order-zero symbol b(x, xi) on the cosphere, extended 0-homogeneously.

    ``make_evaluator`` maps chart points to an evaluator of *unit* (g0)
    covectors, xi_unit -> b(points, xi_unit), so point-only data (metric
    inverses, volume ratios) is computed once per point set and reused by
    assembly loops over many fiber directions.  On the flat models one
    covector row is passed to the evaluator as one (1, n) row, not repeated
    per point, so the evaluator must broadcast it against its point data; a
    result of shape (1,) is broadcast to the points.  ``x_independent`` marks
    pure Fourier multipliers, enabling diagonal assembly.
    """

    name: str
    model: ManifoldModel
    make_evaluator: Callable[[np.ndarray], Callable[[np.ndarray], np.ndarray]]
    x_independent: bool = False

    def prepared(self, points: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """Evaluator xi -> b(points, xi) with point-only work done up front."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        ev = self.make_evaluator(pts)

        def call(xis: np.ndarray) -> np.ndarray:
            xi = np.atleast_2d(np.asarray(xis, dtype=float))
            # one covector row has one g0 norm off the sphere, one per point on it
            norm = g0_norm_xi(self.model, pts, xi)
            if np.any(norm == 0.0):
                raise InputError("symbol evaluated at xi = 0")
            unit = xi / norm[:, None]
            vals = _evaluated(self.name, lambda: ev(unit))
            return np.broadcast_to(vals, len(pts)) if len(unit) == 1 else vals

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
        On the points it is evaluated at, b(x, e^1) is compared with b at a
        second unit covector, -e^1 on S^1 and e^2 in two dimensions; a
        difference above 1e-12 of max |b| is an input error.
        """

        def fn(points: np.ndarray) -> np.ndarray:
            pts = np.atleast_2d(points)
            ev = self.prepared(pts)
            xi = np.zeros((pts.shape[0], self.model.dim))
            xi[:, 0] = 1.0
            vals = ev(xi)
            other = ev(-xi if self.model.dim == 1 else xi[:, ::-1])
            if np.abs(vals - other).max() > 1e-12 * np.abs(vals).max():
                raise InputError(f"symbol {self.name!r} varies along the fiber, so its fiber "
                                 f"restriction does not quantize it on the {self.model.kind}")
            return vals

        return ScalarField(f"{self.name}|fiber", fn)


def default_assembly_res(model: ManifoldModel, basis: EigenBasis) -> int:
    """Sphere grid resolution that integrates basis products times a smooth factor."""
    return int(basis.cutoff) + 24


def assemble_multiplication(f: ScalarField, basis: EigenBasis) -> np.ndarray:
    """The matrix of <f phi_j, phi_k>, symmetric.

    Circle and torus: the ``_pair_strips`` of the ``_flat_table``, collected by
    ``_collect``.  Sphere: the symmetrized quadrature sum of ``sphere_block``.
    """
    if basis.model.kind == "sphere2":
        return _symmetrize(sphere_block(f, basis, slice(None), slice(None)))
    table, box = _flat_table(f, basis)
    return _collect(_pair_strips(table, basis, box, basis.dim), (basis.dim, basis.dim))


def _collect(strips, shape: tuple[int, int]) -> np.ndarray:
    """The matrix of ``shape`` that the (rows, cols, strip) triples give, zero elsewhere."""
    out = np.zeros(shape)
    for rows, cols, strip in strips:
        out[(rows, cols) if isinstance(cols, slice) else np.ix_(rows, cols)] = strip
    return out


def _strip_products(strips, grads: np.ndarray, windows) -> list[np.ndarray]:
    """One pass over (rows, cols, strip) triples: for each (d, lo, hi) in ``windows``, the
    products of the strip rows below d over its columns in lo..hi-1 with their gradients
    (gathered once per strip), shaped as the gradients."""
    flat = grads.reshape(len(grads), -1)
    products = [np.empty((d, flat.shape[1])) for d, _, _ in windows]
    for rows, cols, strip in strips:
        at, right = np.arange(len(flat))[cols], flat[cols]
        for (d, lo, hi), out in zip(windows, products):
            i, j = np.searchsorted(at, (lo, hi))  # the columns are sorted
            keep = rows < d
            if keep.all():
                out[rows] = strip[:, i:j] @ right[i:j]
            elif keep.any():
                out[rows[keep]] = strip[keep, i:j] @ right[i:j]
    return [t.reshape(len(t), *grads.shape[1:]) for t in products]


def _flat_table(f: ScalarField, basis: EigenBasis):
    """The E and O rows of f's Fourier table for ``_pair_strips``, and its box.

    The complex-basis entry is the Fourier coefficient f^(nu_j - nu_k), read
    from the half plane (``_half_plane``) of one real FFT of f on the uniform
    m-grid.  m doubles while the coefficients in the Nyquist band |nu_i| >=
    m/2 - 1 exceed KN_TAIL_TOL of the largest, so aliasing stays below that
    level; a field not resolved by FFT_RES_MAX points per axis raises
    ResolutionError.
    """
    model = basis.model
    m, box = _fft_grid(basis)
    while True:
        pts, _ = quadrature_grid(model, m)
        with np.errstate(over="ignore", invalid="ignore"):  # _finite refuses an overflow
            coeffs = np.fft.rfftn(f.values(pts).reshape((m,) * model.dim)) / m**model.dim
            mags = _finite(f.name, np.abs(coeffs), "Fourier coefficients")
        # |c(m/2 + 1)| = |c(m/2 - 1)| on the last axis, where the index clips to m/2
        band = np.arange(m // 2 - 1, m // 2 + 2)
        tail = max(np.take(mags, band, axis=i, mode="clip").max() for i in range(model.dim))
        if tail <= KN_TAIL_TOL * mags.max():
            index, mirror = _half_plane(m, box, model.dim)
            half = coeffs.ravel()[index]
            np.conjugate(half, out=half, where=mirror)
            return (lambda lo, hi: (half.real[None], half.imag[None])), box
        if 2 * m > FFT_RES_MAX:
            raise ResolutionError(
                f"field {f.name!r} is not resolved by the FFT grid: its Nyquist band is "
                f"{tail / mags.max():.1e} of its largest coefficient at {m} points per axis"
            )
        m *= 2


def sphere_block(f: ScalarField, basis: EigenBasis, rows: slice, cols: slice) -> np.ndarray:
    """Block [rows, cols] of the quadrature sum of ``sphere_strips``, collected."""
    slots = range(basis.dim)
    return _collect(sphere_strips(f, basis, rows, cols), (len(slots[rows]), len(slots[cols])))


def sphere_strips(f: ScalarField, basis: EigenBasis, rows: slice, cols: slice):
    """The strips of block [rows, cols] of sum_q w_q f_q Y_j(q) Y_k(q), separated.

    On the ``default_assembly_res`` grid Y = Pbar_l^a(theta) s_a sqrt(2) cos(a phi
    - k pi/2) (k = 1 for sin, s_0 = 1/sqrt(2)), so the phi sum of w f Y Y' is
    s_a s_b Re((-i)^(k-k') F[a-b] + (-i)^(k+k') F[a+b]) Pbar Pbar', F the phi
    DFT of w f on each latitude, indexed mod the phi node count as the
    trapezoid aliases; the theta sum is ``_separated_sum``, not symmetrized.  A
    Gram residual of the top 32 slots (the same band sum with f = 1), checked
    before the first strip is formed, flags a coarse grid.
    """
    res = default_assembly_res(basis.model, basis)
    pts, w = quadrature_grid(basis.model, res)
    plm, _ = normalized_legendre(int(basis.cutoff), pts[:: 2 * res, 0])
    top = slice(max(basis.dim - 32, 0), basis.dim)
    gram = _collect(_separated_sum(w.reshape(res, -1), plm, basis, top, slice(None)),
                    (min(basis.dim, 32), basis.dim))
    resid = np.abs(gram - np.eye(gram.shape[0], basis.dim, top.start)).max()
    if resid > GRAM_RESIDUAL_TOL:
        raise ResolutionError(
            f"assembly grid too coarse: Gram residual {resid:.2e} > {GRAM_RESIDUAL_TOL:.0e}"
        )
    return _separated_sum((w * f.values(pts)).reshape(res, -1), plm, basis, rows, cols)


def _separated_sum(fw: np.ndarray, plm: np.ndarray, basis: EigenBasis, rows, cols):
    """The sum over the (theta, phi) grid of fw Y_j Y_k, j in rows, k in cols, by strips.

    A trig product (``sphere_strips``) reads Re F (equal kinds) or Im F at a -+ b;
    it is in the band when either exceeds KN_TAIL_TOL of the largest |F| on some
    latitude (always, if F is not finite).  Yields per row trig index the positions
    in ``rows`` of its rows, in ``cols`` of its band's columns, and one GEMM over them.
    """
    lmax, nphi = plm.shape[0] - 1, fw.shape[1]
    fhat = np.fft.fft(fw, axis=1)  # F = conj(fhat): F[i, n] = sum_phi fw e^{i n phi}
    # Re((-i)^j F) for j = 0..3 is C, S, -C, -S (F = C + iS): column j nphi + n
    tab = np.concatenate([fhat.real, -fhat.imag, -fhat.real, fhat.imag], axis=1)
    mt = np.arange(-lmax, lmax + 1)  # trig index mt + lmax: order a = |mt|, k = 1 for sin
    a, k, s = np.abs(mt), (mt < 0).astype(int), np.where(mt == 0, math.sqrt(0.5), 1.0)
    big = np.abs(fhat).max()
    live = ~(np.abs(tab).max(axis=0) <= KN_TAIL_TOL * big) | ~np.isfinite(big)
    l, m = basis.freqs[rows, 0], basis.freqs[rows, 1]
    lc, mc = basis.freqs[cols, 0], basis.freqs[cols, 1]
    right = plm[lc, np.abs(mc)].T  # (n_theta, n_cols)
    for t in sorted(set(m.tolist())):  # not np.unique, whose first call imports numpy.ma
        r = t + lmax
        # the trig products of row index t with every column index, (n_theta, 2 lmax + 1)
        i1 = (k[r] - k) % 4 * nphi + (a[r] - a) % nphi
        i2 = (k[r] + k) % 4 * nphi + (a[r] + a) % nphi
        slab = s[r] * s * (tab[:, i1] + tab[:, i2])
        near = np.flatnonzero((live[i1] | live[i2])[mc + lmax])
        group = np.flatnonzero(m == t)
        yield group, near, plm[l[group], abs(t)] @ (slab[:, mc[near] + lmax] * right[:, near])


def _fft_grid(basis: EigenBasis) -> tuple[int, int]:
    """FFT points per axis m, and the box 2 kmax that row-minus-column frequencies fill."""
    kmax = int(np.abs(basis.freqs).max())
    return max(64, ((4 * kmax + 32 + 31) // 32) * 32), 2 * kmax


def _half_plane(m: int, box: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices into an n-D real FFT on the m-grid of the half plane of |nu_i| <= box.

    The half plane is the flat offsets o >= 0 from nu = 0 in C order over
    nu + box; ``mirror`` marks the entries whose last component is
    negative, which read the conjugate of the coefficient at -nu.
    """
    width = 2 * box + 1
    nu = np.stack(np.unravel_index(np.arange(width**n // 2, width**n), (width,) * n)) - box
    mirror = nu[-1] < 0
    nu[:, mirror] *= -1
    index = np.ravel_multi_index((*(nu[:-1] % m), nu[-1]), (m,) * (n - 1) + (m // 2 + 1,))
    return index, mirror


def _torus_complex_freqs(basis: EigenBasis) -> np.ndarray:
    """Complex frequency per slot: slot of cos_k carries +k, slot of sin_k carries -k."""
    return np.where(basis.kinds[:, None] == 2, -basis.freqs, basis.freqs)


def _pair_strips(table: Callable[[int, int], tuple[np.ndarray, np.ndarray]],
                 basis: EigenBasis, box: int, rows: int, table_rows: Optional[np.ndarray] = None):
    """The leading ``rows`` rows of the real-basis matrix of E and O, by strips.

    ``table(lo, hi)`` returns rows lo..hi-1 of E (even in nu) and O (odd in
    nu), each row on a half plane (``_half_plane``): entry o is the flat
    offset o >= 0 from nu = 0 in C order over nu + box, and offset -o reads
    E(o) and -O(o).  Row pair a (the constant, then the (cos, sin) pairs)
    reads table row ``table_rows[a]`` (0 by default).  With delta,
    sigma = k_a -+ k_b, the cos-cos, cos-sin, sin-cos and sin-sin blocks are
    E(delta) + E(sigma), O(delta) - O(sigma), -(O(delta) + O(sigma)) and
    E(delta) - E(sigma) (the constant is the cos slot of k = 0 over
    sqrt(2)); each of the four is gathered once.  For one row c = E + iO,
    the coefficients of f, this is multiplication, and the strips are rows of
    an exactly symmetric matrix, in basis order; with the row of pair a's
    direction, Hermitian rows give G-- = conj(G++) and G-+ = conj(G+-), so
    they are rows of the transposed left Kohn-Nirenberg matrix, out of order.

    Yields (rows, slice(None), strip) per strip of _STRIP row pairs, in the
    stable order of their table row, so each strip asks ``table`` for one
    contiguous range of rows, and every index array and buffer covers one
    strip.  Pairs are gathered in the pair layout (cos row, sin row; column
    2j cos and 2j + 1 sin of pair j), whose sin slot of k = 0 is a copy of
    the constant, scaled with its row and column by sqrt(1/2): the matrix is
    that layout without index 0, so pair a is rows 2a - 1 and 2a.  Each strip
    is a view of one buffer that the next strip reuses, split where a row is
    dropped (the constant's cos slot; row ``rows`` of an even count).
    """
    pairs = rows // 2 + 1
    strides = (2 * box + 1) ** np.arange(basis.model.dim - 1, -1, -1)
    width = ((2 * box + 1) ** basis.model.dim + 1) // 2  # entries per table row
    # flat offset of k per pair: every k_b, and so every sigma, is >= 0
    k = np.append(0, basis.freqs[1::2] @ strides)
    if table_rows is None:
        table_rows = np.zeros(pairs, dtype=np.intp)
    order = np.argsort(table_rows[:pairs], kind="stable")
    shape = (min(_STRIP, pairs), len(k))
    index, flip = np.empty(shape, dtype=np.intp), np.empty(shape, dtype=bool)
    d_buf, s_buf = np.empty(shape), np.empty(shape)
    buf = np.empty((shape[0], 2, 2 * len(k)))
    for lo in range(0, pairs, _STRIP):
        a = order[lo:lo + _STRIP]
        block = buf[:len(a)]
        idx, d, s, fl = index[:len(a)], d_buf[:len(a)], s_buf[:len(a)], flip[:len(a)]
        first = table_rows[a[0]]
        even, odd = (t.ravel() for t in table(first, table_rows[a[-1]] + 1))
        ka, base = k[a, None], width * (table_rows[a, None] - first)
        np.subtract(ka, k, out=idx)  # delta
        np.less(idx, 0, out=fl)  # O(-o) = -O(o)
        np.abs(idx, out=idx)
        idx += base
        np.take(even, idx, out=d, mode="clip")
        np.add(ka, k, out=idx)  # sigma
        idx += base
        np.take(even, idx, out=s, mode="clip")
        np.add(d, s, out=block[:, 0, 0::2])
        np.subtract(d, s, out=block[:, 1, 1::2])
        np.take(odd, idx, out=s, mode="clip")
        np.subtract(ka, k, out=idx)  # delta again
        np.abs(idx, out=idx)
        idx += base
        np.take(odd, idx, out=d, mode="clip")
        del even, odd  # so the next strip's rows are not formed beside these
        np.negative(d, out=d, where=fl)
        np.subtract(d, s, out=block[:, 0, 1::2])
        np.add(d, s, out=block[:, 1, 0::2])
        np.negative(block[:, 1, 0::2], out=block[:, 1, 0::2])
        const = np.flatnonzero(a == 0)  # the constant's pair, in one strip only
        block[const, 1] = block[const, 0]
        block[:, :, 1] = block[:, :, 0]
        block[const, 1] *= math.sqrt(0.5)
        block[:, :, 1] *= math.sqrt(0.5)
        at = (2 * a[:, None] + (-1, 0)).ravel()  # the matrix row of each pair-layout row
        cut = np.flatnonzero((at < 0) | (at >= rows))
        for i, j in zip(np.append(0, cut + 1), np.append(cut, len(at))):
            if i < j:
                yield at[i:j], slice(None), block.reshape(len(at), -1)[i:j, 1:]


def _check_real(entries: np.ndarray, mismatch: float) -> None:
    """A conjugate-pair mismatch above 1e-9 * max(largest entry, 1) is an input error.

    A mismatch of at most 1e-9 passes without scanning ``entries``."""
    if mismatch > 1e-9 and mismatch > 1e-9 * max(entries.max(), -entries.min()):
        raise InputError("quantized matrix has a non-negligible imaginary part")


def assemble_kohn_nirenberg(symbol: SymbolField, basis: EigenBasis) -> np.ndarray:
    """Quantize an order-zero symbol over a flat eigenbasis.

    Column k of the complex-basis matrix holds the Fourier coefficients of
    x -> b(x, k/|k|) at the row-minus-column frequency; the zero column uses
    the fiber average of b.  Output is in the real basis, symmetrized: that
    is also the (left + right)/2 quantization, whose complex-basis matrix is
    the Hermitian part of the left one.

    An x-independent symbol is evaluated at +k and -k only, on the circle or
    the torus: a real diagonal, returned as a 1-D array.  Otherwise (torus
    only) b is sampled at L uniform fiber angles (``_fiber_samples``), and
    each column is the trigonometric interpolant in theta of those samples at
    the angle of its direction: a toroidal quantization whose cost grows with
    L, not with the number of lattice directions.  A symbol with a real
    matrix is even in xi, and angle l + L/2 is angle l plus pi: the even part
    (s_l + s_{l+L/2})/2 is interpolated in phi = 2 theta on L/2 nodes, one
    table row per +-direction pair, and the odd part is the mismatch of
    ``_check_real``.
    """
    model = basis.model
    if model.kind == "sphere2" or (model.dim == 1 and not symbol.x_independent):
        raise UnsupportedModelError(
            "Kohn-Nirenberg assembly requires the torus, or the circle for an "
            "x-independent symbol"
        )
    if symbol.x_independent:
        # rows (b(k), b(-k)); the pair (cos_k, sin_k) gets (b(k) + b(-k))/2
        xis = _torus_complex_freqs(basis)[1:].astype(float)
        vals = symbol.values(np.zeros_like(xis), xis).reshape(-1, 2)
        avg = symbol.fiber_average(np.zeros((1, model.dim)))
        diag = np.append(avg, np.repeat(vals.mean(axis=1), 2))
        _check_real(diag, 0.5 * np.ptp(vals, axis=1).max(initial=0.0))
        return diag
    m, box = _fft_grid(basis)
    samples = _fiber_samples(symbol, m, box)
    half = samples.shape[0] // 2
    mismatch = 0.5 * np.abs(samples[:half] - samples[half:]).max()
    # one primitive direction per (cos_k, sin_k) pair: the basis holds the
    # representative of +-k with k1 > 0, or k1 = 0 and k2 > 0
    ks = basis.freqs[1::2]
    dirs, pair_dir = np.unique(ks // np.gcd(*ks.T)[:, None], axis=0, return_inverse=True)
    phi = 2.0 * np.arctan2(dirs[:, 1], dirs[:, 0])
    # Z[l, dir] = e^{i l phi_dir}, Nyquist row cos(L phi / 4); the table
    # F.T @ Z (F the phi DFT of the even part f) equals f.T @ (DFT(Z) / (L/2)),
    # a real weight per folded sample: one real GEMM per real table
    phases = np.exp(1j * np.outer(np.fft.fftfreq(half, 1.0 / half), phi))
    phases[half // 2] = np.cos(0.5 * half * phi)
    weights = np.empty((half, len(dirs) + 1))
    weights[:, :-1] = (np.fft.fft(phases, axis=0) / half).real
    weights[:, -1] = 1.0 / half  # the zero pair: the phi mode 0, the fiber average
    even = 0.5 * (samples[:half].real + samples[half:].real)
    odd = 0.5 * (samples[:half].imag + samples[half:].imag)
    del samples
    # each strip of the gather forms only its own range of direction rows
    out = _collect(_pair_strips(lambda lo, hi: (weights.T[lo:hi] @ even, weights.T[lo:hi] @ odd),
                                basis, box, basis.dim, np.append(len(dirs), pair_dir.ravel())),
                   (basis.dim, basis.dim))
    _check_real(out, mismatch)
    return _symmetrize(out)


def _symmetrize(mat: np.ndarray) -> np.ndarray:
    """(A + A^T) / 2 in place, one strip of rows and its transposed columns at a time."""
    for i in range(0, len(mat), _STRIP):
        strip = mat[i:i + _STRIP, i:]
        np.multiply(strip + mat[i:, i:i + _STRIP].T, 0.5, out=strip)
        mat[i:, i:i + _STRIP] = strip.T
    return mat


def _fiber_samples(symbol: SymbolField, m: int, box: int) -> np.ndarray:
    """x-Fourier coefficients of b at L uniform fiber angles, (L, ((2 box + 1)^2 + 1) / 2).

    Row l is the angle 2 pi l / L of ``fiber_covectors``; each row holds the
    half plane (``_half_plane``) of the real FFT of b on the m x m grid.
    One angle is evaluated at a time.  L starts at KN_FIBER_RES and doubles,
    reusing the samples it has, until the theta coefficients in the Nyquist
    band |l| >= L/2 - 1 are at most KN_TAIL_TOL of the largest (the half
    plane holds every magnitude: column -nu holds column nu's theta
    coefficients at -q, conjugated); a symbol not resolved by
    KN_FIBER_RES_MAX angles raises ResolutionError.
    """
    pts, _ = quadrature_grid(symbol.model, m)
    evaluate = symbol.prepared(pts)
    origin = np.zeros((1, 2))
    index, mirror = _half_plane(m, box, 2)

    def sample(xis: np.ndarray) -> np.ndarray:
        out = np.empty((len(xis), len(index)), dtype=complex)
        for i, xi in enumerate(xis):
            np.take(np.fft.rfft2(evaluate(xi).reshape(m, m)).ravel(), index, out=out[i],
                    mode="clip")
        np.conjugate(out, out=out, where=mirror)
        out /= m * m
        return out

    nfib = KN_FIBER_RES
    samples = sample(fiber_covectors(symbol.model, origin, nfib)[0])
    while True:
        coeffs = np.abs(np.fft.fft(samples, axis=0))
        tail = coeffs[nfib // 2 - 1: nfib // 2 + 2].max()
        if tail <= KN_TAIL_TOL * coeffs.max():
            return samples
        if 2 * nfib > KN_FIBER_RES_MAX:
            raise ResolutionError(
                f"symbol {symbol.name!r} is not resolved in the fiber angle: its "
                f"Nyquist band is {tail / coeffs.max():.1e} of its largest theta "
                f"coefficient at {nfib} angles"
            )
        # the 2L angles are the L angles interleaved with L new ones
        doubled = np.empty((2 * nfib, samples.shape[1]), dtype=complex)
        doubled[0::2] = samples
        doubled[1::2] = sample(fiber_covectors(symbol.model, origin, 2 * nfib)[0][1::2])
        samples, nfib = doubled, 2 * nfib


def leading_block(mat: np.ndarray, d: int) -> np.ndarray:
    """The leading d x d block of a square matrix, or of a diagonal given as a 1-D array."""
    return mat[:d] if mat.ndim == 1 else mat[:d, :d]


def positivity_repair(mat: np.ndarray) -> tuple[np.ndarray, float]:
    """Shift a symmetric assembled compression onto the SPD cone if needed.

    Returns the (possibly shifted) matrix and the applied shift, which lifts
    the smallest eigenvalue to 1e-8 * rho(mat).  A shift s changes the
    Bergman field by exactly s * dd(I), which callers subtract when an
    unbiased field is required.  The zero matrix cannot be lifted.

    A diagonal given as a 1-D array (the x-independent Kohn-Nirenberg case)
    is its own eigenvalues, sorted, and a shift adds to it.  Otherwise the
    Gershgorin bound min_i (a_ii - sum_{j != i} |a_ij|) >= 2e-8 ||mat||_inf
    certifies lambda_min >= 2e-8 rho(mat) without a factorization when that
    floor is positive; failing that, a Cholesky factor of
    mat - 2e-8 ||mat||_inf I certifies the floor with room for its backward
    error (Rump, BIT 46, 2006), and ``eigvalsh`` runs if both fail.  Each
    certificate returns the same ``(mat, 0.0)`` as the eigenvalues would.
    """
    if mat.ndim == 1:
        w = np.sort(mat)
    else:
        row_sums = np.empty(len(mat))
        for i in range(0, len(mat), _STRIP):
            np.abs(mat[i:i + _STRIP]).sum(axis=1, out=row_sums[i:i + _STRIP])
        floor = 2e-8 * row_sums.max()
        diag = np.diagonal(mat)
        # the zero matrix has floor 0: it is refused below, never certified
        if (diag + np.abs(diag) - row_sums).min() >= floor > 0.0:
            return mat, 0.0
        try:
            np.linalg.cholesky(mat - floor * np.eye(mat.shape[0]))
            return mat, 0.0
        except np.linalg.LinAlgError:
            pass
        w = np.linalg.eigvalsh(mat)
    eps = 1e-8 * max(abs(float(w[0])), abs(float(w[-1])))
    if eps <= 0.0:
        raise InputError("cannot shift the zero matrix onto the SPD cone")
    min_eig = float(w[0])
    if min_eig >= eps:
        return mat, 0.0
    shift = eps - min_eig
    return (mat + shift if mat.ndim == 1 else mat + shift * np.eye(mat.shape[0])), shift


def symbol_law_predict(source, model: ManifoldModel, points: np.ndarray,
                       fiber_res: int = 64) -> Callable[[float], np.ndarray]:
    """The cosphere law of ``source`` at ``points``, as a function of the window.

    Integrates b(x, xi) xi (x) xi over each fiber once and returns the law
    mu -> mu^{n+2} / ((2 pi)^n (n+2)) * that integral, (P, n, n) values: the
    leading term of the Bergman field of every window with top eigenvalue
    mu.  A zero integral, or a window at level 0 (mu = 0), is an input error;
    a law that overflows is refused by name where it is compared.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    reps, xis, w = fiber_bundle(model, pts, fiber_res)
    integ = fiber_tensor(source.values(reps, xis), xis, w)
    if not integ.any():
        raise InputError(f"the predicted tensor of {source.name!r} is identically zero")
    n = model.dim

    def law(mu: float) -> np.ndarray:
        if mu == 0.0:
            raise InputError("the symbol law needs a window above level 0")
        pref = mu ** (n + 2) / ((2.0 * math.pi) ** n * (n + 2))
        with np.errstate(over="ignore"):
            return pref * integ

    law.source = source.name
    return law


def assemble(source, basis: EigenBasis) -> np.ndarray:
    """The compression of ``source`` over ``basis``: the one place that picks the assembly.

    A scalar field is a multiplication operator.  A symbol is quantized by
    Kohn-Nirenberg on the torus, and on the circle when it is x-independent
    (a diagonal, returned as a 1-D array); elsewhere it is multiplication by
    its fiber restriction, which is exact for the symbols that reach it: on
    the circle they are even in the fiber (hilb and its variation), on the
    sphere constant in it (hilb of a conformal metric, ``one``), and
    ``fiber_restriction`` refuses others.  Every entry depends only on its
    row and column basis elements, so the leading d x d block over a larger
    window is the assembly over the first d elements, up to the round-off
    that the larger FFT grid, angle count or sphere grid moves: sweeps
    assemble their top window once and slice it with ``leading_block``.
    """
    if isinstance(source, SymbolField):
        kind = basis.model.kind
        if kind == "torus2" or (kind == "circle" and source.x_independent):
            return assemble_kohn_nirenberg(source, basis)
        source = source.fiber_restriction()
    if isinstance(source, ScalarField):
        return assemble_multiplication(source, basis)
    raise InputError(f"cannot assemble {type(source).__name__}")


def symbol_law_check(mat: np.ndarray, basis: EigenBasis, law, points: np.ndarray,
                     grads=None) -> tuple[float, float, float]:
    """Sup relative error of one window's Bergman field against the symbol law.

    ``mat`` is ``assemble(source, top)`` over a window whose leading block is
    ``basis`` (``grads`` as in ``dd_kernel``), and ``law`` is
    ``symbol_law_predict`` of the same source at ``points``.  Returns (mu,
    rel_err, pd_shift).  The positivity shift of the block is reported, not applied
    (it would add shift * dd(I)), so the compared field is that of the
    symmetrized assembly itself.  A relative error that is not finite is an
    input error.
    """
    pred = law(basis.mu_top)
    block = leading_block(mat, basis.dim)
    _, shift = positivity_repair(block)
    field = dd_kernel(block, basis, points, grads)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        num = g0_operator_norms(basis.model, points, field - pred)
        den = g0_operator_norms(basis.model, points, pred)
        rel_err = _finite(law.source, num / den, "relative error against its symbol law")
    return basis.mu_top, float(rel_err.max()), shift


def tail_defect(f: ScalarField, windows: list, points: np.ndarray, grads=None) -> list[float]:
    """Normalized size of the off-window block Pi_{<=N} B (I - Pi_{<=N}) of each window pair.

    For each (inner, outer) pair in ``windows`` the block [:d_in, d_in:d_out]
    of the multiplication matrix couples the inner window to the rest of the
    outer one, and the defect is mu_N^{-(n+2)} times the sup over ``points``
    of the g0 operator norm of its mixed-derivative field.  One pass over
    the strips of the largest inner window's rows over the largest outer
    window, ``top``, fills every window's product ``block @ grads[d_in:d_out]``
    a strip of rows at a time (the bits of one GEMM) and the largest |entry|
    of its block and of the rows given of its square [:d_out, :d_out].  The
    strips are those of ``_pair_strips``, or on the sphere the one strip
    (S[:d_in] + S[:, :d_in]^T) / 2 from one pass over the band of the sum S.  A
    block that is round-off next to that square (a constant field) is an input
    error; for the fields of the acceptance runs those rows hold the whole
    square's largest entry.  ``grads`` may give the gradients at ``points`` of
    a window led by ``top``.
    """
    for inner, outer in windows:
        if outer.cutoff < 2 * inner.cutoff:
            raise InputError("outer window must be at least twice the inner window")
        if inner.mu_top == 0.0:
            raise InputError("tail defect needs an inner window above level 0")
    top = max((outer for _, outer in windows), key=lambda b: b.dim)
    rows = max(inner.dim for inner, _ in windows)
    grads = (eval_basis(top, points)[1] if grads is None else grads)[:top.dim]
    maxima = np.zeros((len(windows), 2))  # largest |entry| of each block and square
    if top.model.kind == "sphere2":
        sym = np.zeros((rows, top.dim))
        for index, cols, strip in sphere_strips(f, top, slice(None), slice(None)):
            sym[np.ix_(index[index < rows], cols)] += strip[index < rows]
            sym[np.ix_(cols[cols < rows], index)] += strip[:, cols < rows].T
        strips = [(np.arange(rows), slice(None), np.multiply(sym, 0.5, out=sym))]
    else:
        table, box = _flat_table(f, top)
        strips = _pair_strips(table, top, box, rows)

    def watched(strips):  # each strip's share of the maxima, before its products
        for index, cols, strip in strips:
            r = index[0]  # the strips hold rows r, r + 1, ..., in basis order, every column
            for (inner, outer), big in zip(windows, maxima):
                block = strip[:max(inner.dim - r, 0), inner.dim:outer.dim]
                big[0] = max(big[0], block.max(initial=0.0), -block.min(initial=0.0))
                square = strip[:max(outer.dim - r, 0), :outer.dim]
                big[1] = max(big[1], square.max(initial=0.0), -square.min(initial=0.0))
            yield index, cols, strip

    products = _strip_products(watched(strips), grads, [(inner.dim, inner.dim, outer.dim)
                                                        for inner, outer in windows])
    defects = []
    for (inner, outer), t, (block_max, square_max) in zip(windows, products, maxima):
        # sphere quadrature entries are certified only to GRAM_RESIDUAL_TOL
        if block_max <= GRAM_RESIDUAL_TOL * square_max:
            raise InputError(f"field {f.name!r} has no tail defect: its off-window block is round-off")
        tensor = _contract(None, grads[:inner.dim], t)
        sup = float(g0_operator_norms(outer.model, points, tensor).max())
        defects.append(sup / inner.mu_top ** (outer.model.dim + 2))
    return defects
