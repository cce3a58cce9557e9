import math
import tracemalloc

import numpy as np
import pytest

from bergman_lab import hilb, metspace, operators
from bergman_lab.errors import InputError, ResolutionError, UnsupportedModelError
from bergman_lab.hilb import hilb_symbol
from bergman_lab.manifolds import (
    basis_for, circle, cosphere_quadrature, eval_basis, fiber_covectors, g0_norm_xi,
    normalized_legendre, quadrature_grid, sphere2, torus2,
)
from bergman_lab.metspace import dhilb_symbol
from bergman_lab.bergman import _contract
from bergman_lab.fields import g0_operator_norms
from bergman_lab.operators import (
    KN_FIBER_RES,
    KN_FIBER_RES_MAX,
    ScalarField,
    SymbolField,
    _torus_complex_freqs,
    assemble_kohn_nirenberg,
    assemble_multiplication,
    positivity_repair,
    tail_defect,
    symbol_law_check,
    symbol_law_predict,
)
from bergman_lab.presets import metric_field, perturbation_field, scalar_field, symbol_field

CIRCLE, TORUS, SPHERE = circle(), torus2(), sphere2()

ONE = ScalarField("one", lambda p: np.ones(np.atleast_2d(p).shape[0]))
COS_THETA = ScalarField("cos", lambda p: np.cos(np.atleast_2d(p)[:, 0]))
EXP_03 = ScalarField("e03", lambda p: np.exp(0.3 * np.cos(np.atleast_2d(p)[:, 0])))
EXP_COS = ScalarField("ecos", lambda p: np.exp(np.cos(np.atleast_2d(p)[:, 0])))
EXP_MIXED = ScalarField("emix", lambda p: np.exp(0.4 * np.cos(np.atleast_2d(p)[:, 0])
                                                  + 0.3 * np.sin(np.atleast_2d(p)[:, 1])))


def fourier_coefficient(fn, m, nodes=4096):
    """FFT-free direct Fourier coefficient (1/2pi) int f e^{-imx} dx."""
    x = 2 * math.pi * np.arange(nodes) / nodes
    return np.sum(fn(x) * np.exp(-1j * m * x)) / nodes


class TestMultiplication:
    def test_unit_function_gives_identity(self):
        for model, cutoff in ((CIRCLE, 12), (TORUS, 10), (SPHERE, 8)):
            basis = basis_for(model, cutoff)
            op = assemble_multiplication(ONE, basis)
            assert np.abs(op - np.eye(basis.dim)).max() <= 1e-10

    def test_circle_cosine_coupling(self):
        basis = basis_for(CIRCLE, 6)
        op = assemble_multiplication(COS_THETA, basis)
        # <cos * cos(k)/sqrt(pi), cos(k+1)/sqrt(pi)> = 1/2 (k >= 1)
        for k in (1, 2, 3):
            i, j = 2 * k - 1, 2 * k + 1
            assert op[i, j] == pytest.approx(0.5, abs=1e-12)
        # constant couples with weight 1/sqrt(2)
        assert op[0, 1] == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_torus_matrix_matches_fourier_convolution_oracle(self):
        # entries in the complex basis are 1-D Fourier coefficients of f at
        # the frequency difference; map them through the real pairing by hand
        basis = basis_for(TORUS, 5)
        op = assemble_multiplication(EXP_03, basis)
        coeff = {m: fourier_coefficient(lambda x: np.exp(0.3 * np.cos(x)), m)
                 for m in range(-8, 9)}

        def complex_entry(kr, kc):
            if kr[1] != kc[1]:
                return 0.0
            d = kr[0] - kc[0]
            return coeff[d].real if abs(d) <= 8 else 0.0

        slots = []  # (complex frequency, real kind, real index)
        for j in range(basis.dim):
            if basis.kinds[j] == 0:
                slots.append(((0, 0), 0, j))
            elif basis.kinds[j] == 1:
                slots.append((tuple(basis.freqs[j]), 1, j))
            else:
                slots.append((tuple(-basis.freqs[j]), 2, j))
        expected = np.zeros((basis.dim, basis.dim))
        for ka, kinda, a in slots:
            for kb, kindb, b in slots:
                total = 0.0
                for sa, ca in _pairing(ka, kinda):
                    for sb, cb in _pairing(kb, kindb):
                        total += (np.conj(ca) * cb * complex_entry(sa, sb)).real
                expected[a, b] = total
        assert np.abs(op - expected).max() <= 1e-10

    def test_under_resolved_grid_raises(self, monkeypatch):
        basis = basis_for(SPHERE, 16)
        # 12 Gauss-Legendre nodes alias the degree-32 products of degree-16
        # harmonics, which the Gram probe detects
        monkeypatch.setattr(operators, "default_assembly_res", lambda model, basis: 12)
        with pytest.raises(ResolutionError, match="Gram residual"):
            assemble_multiplication(EXP_03, basis)

    @pytest.mark.parametrize("model, cutoff, field", [
        (CIRCLE, 4, EXP_COS), (CIRCLE, 16, EXP_03), (CIRCLE, 40, EXP_COS),
        (TORUS, 5, EXP_03), (TORUS, 25, EXP_MIXED), (TORUS, 100, EXP_MIXED),
    ])
    def test_flat_matches_quadrature_oracle(self, model, cutoff, field):
        basis = basis_for(model, cutoff)
        want = quadrature_multiplication(field, basis)
        got = assemble_multiplication(field, basis)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("model, field", [(CIRCLE, "exp:20cos(theta)"),
                                              (TORUS, "exp:20cos(x1)")])
    def test_coarse_fft_grid_raises(self, model, field, monkeypatch):
        # e^{20 cos} needs 128 points per axis; capping the grid at the
        # first size, 64, leaves a Nyquist band of about 6e-10
        f = scalar_field(field, model)
        basis = basis_for(model, 4)
        assemble_multiplication(f, basis)
        monkeypatch.setattr(operators, "FFT_RES_MAX", 64)
        with pytest.raises(ResolutionError, match="64 points per axis"):
            assemble_multiplication(f, basis)

    @pytest.mark.parametrize("cutoff", [4, 16, 30])
    @pytest.mark.parametrize("name", ["one-plus-half-x3sq", "exp:0.5cos(phi)+0.3sin(theta)",
                                      "exp:0.5sin(phi)+0.3x3"])
    def test_sphere_matches_quadrature_oracle(self, cutoff, name):
        basis = basis_for(SPHERE, cutoff)
        field = scalar_field(name, SPHERE)
        want = quadrature_multiplication(field, basis)
        got = assemble_multiplication(field, basis)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("cutoff, rows", [(16, slice(None)), (40, slice(39**2, 41**2))])
    @pytest.mark.parametrize("name", ["exp:0.5sin(phi)+0.3x3", "exp:0.5cos(phi)"])
    def test_sphere_band_matches_quadrature_oracle(self, cutoff, rows, name):
        # the band sum, unsymmetrized: Im F in the cross-kind products, and a
        # broad phi spectrum; at N = 40 the rows of the two top levels
        basis = basis_for(SPHERE, cutoff)
        field = scalar_field(name, SPHERE)
        want = quadrature_sum(field, basis, rows)
        got = operators.sphere_block(field, basis, rows, slice(None))
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("cutoff", [10, 20, 40])
    def test_axisymmetric_field_couples_equal_trig_indices_only(self, cutoff):
        # the phi spectrum of 1 + x3^2 / 2 is round-off beyond frequency 0
        # (exactly zero at N = 30 and 40, not at N = 10 and 20)
        basis = basis_for(SPHERE, cutoff)
        block = operators.sphere_block(scalar_field("one-plus-half-x3sq", SPHERE), basis,
                                       slice(None), slice(None))
        m = basis.freqs[:, 1]
        assert not block[m[:, None] != m].any()

    def test_assembled_matrices_symmetric(self):
        basis = basis_for(TORUS, 8)
        op = assemble_multiplication(EXP_03, basis)
        assert np.abs(op - op.T).max() <= 1e-12


def quadrature_sum(f, basis, rows=slice(None)):
    """Multiplication oracle: ``rows`` of the sum over a quadrature grid of w f Y_j Y_k.

    Flat models: 2 kmax + 48 trapezoid points per axis, which integrate every
    basis product times the first 48 Fourier modes of f exactly.  Sphere:
    the ``default_assembly_res`` grid, whose sum the assembly reorganizes.
    The basis is evaluated on 1,024 points at a time.
    """
    if basis.model.kind == "sphere2":
        res = operators.default_assembly_res(basis.model, basis)
    else:
        res = 2 * int(np.abs(basis.freqs).max()) + 48
    pts, w = quadrature_grid(basis.model, res)
    fw = w * f.values(pts)
    total = 0.0
    for lo in range(0, len(pts), 1024):
        vals, _ = eval_basis(basis, pts[lo:lo + 1024])
        total = total + (vals[rows] * fw[lo:lo + 1024]) @ vals.T
    return total


def quadrature_multiplication(f, basis):
    """The symmetrized ``quadrature_sum`` of every row."""
    mat = quadrature_sum(f, basis)
    return 0.5 * (mat + mat.T)


def complex_separated_sum(fw, plm, basis, rows, cols, coupled=None):
    """Reference ``_separated_sum``, collected: the phi sums from the complex table (-i)^k F.

    ``coupled`` maps a row trig index to the positions in ``cols`` that its
    GEMM covers, zero elsewhere; by default every column.
    """
    lmax, nphi = plm.shape[0] - 1, fw.shape[1]
    fhat = np.conj(np.fft.fft(fw, axis=1))
    mt = np.arange(-lmax, lmax + 1)
    a, k, s = np.abs(mt), (mt < 0).astype(int), np.where(mt == 0, math.sqrt(0.5), 1.0)
    quarter = np.array([1, -1j, -1, 1j])
    g = s[:, None] * s * (quarter[(k[:, None] - k) % 4] * fhat[:, (a[:, None] - a) % nphi]
                          + quarter[(k[:, None] + k) % 4] * fhat[:, (a[:, None] + a) % nphi]).real
    l, m = basis.freqs[rows, 0], basis.freqs[rows, 1]
    lc, mc = basis.freqs[cols, 0], basis.freqs[cols, 1]
    right = plm[lc, np.abs(mc)].T
    out = np.zeros((len(l), len(lc)))
    for t in np.unique(m):
        sel = np.flatnonzero(m == t)
        near = np.arange(len(lc)) if coupled is None else coupled[t]
        out[np.ix_(sel, near)] = plm[l[sel], abs(t)] @ (g[:, t + lmax, mc[near] + lmax]
                                                        * right[:, near])
    return out


class TestSeparatedSum:
    @pytest.mark.parametrize("cutoff", [0, 3, 16, 40])
    @pytest.mark.parametrize("name", ["one", "one-plus-half-x3sq",
                                      "exp:0.5sin(phi)+0.3x3"])
    def test_real_table_matches_complex_table(self, cutoff, name):
        # bit for bit over the columns each row group couples; every entry
        # left out is round-off in the sum over every column
        basis = basis_for(SPHERE, cutoff)
        res = operators.default_assembly_res(SPHERE, basis)
        pts, w = quadrature_grid(SPHERE, res)
        plm, _ = normalized_legendre(cutoff, pts[:: 2 * res, 0])
        fw = (w * scalar_field(name, SPHERE).values(pts)).reshape(res, -1)
        for rows in (slice(None), slice(max(basis.dim - 32, 0), basis.dim)):
            shape = (len(basis.freqs[rows]), basis.dim)
            strips = list(operators._separated_sum(fw, plm, basis, rows, slice(None)))
            got = operators._collect(strips, shape)
            coupled = {basis.freqs[rows, 1][r[0]]: c for r, c, _ in strips}
            assert np.array_equal(got, complex_separated_sum(fw, plm, basis, rows, slice(None),
                                                             coupled))
            off = np.ones(shape, dtype=bool)
            for r, c, _ in strips:
                off[np.ix_(r, c)] = False
            full = complex_separated_sum(fw, plm, basis, rows, slice(None))
            assert np.abs(full[off]).max(initial=0.0) <= 1e-13 * np.abs(full).max()


def _pairing(k, kind):
    """Real basis element as a combination of complex slots (freq, weight)."""
    s2 = math.sqrt(2.0)
    if kind == 0:
        return [((0, 0), 1.0)]
    if kind == 1:
        return [(k, 1 / s2), ((-k[0], -k[1]), 1 / s2)]
    return [(k, -1j / s2), ((-k[0], -k[1]), 1j / s2)]


class TestKohnNirenberg:
    def test_unit_symbol_is_identity(self):
        basis = basis_for(TORUS, 8)
        sym = SymbolField("one", TORUS, lambda p: lambda xi: np.ones(p.shape[0]),
                          x_independent=True)
        op = assemble_kohn_nirenberg(sym, basis)
        assert np.abs(np.diag(op) - np.eye(basis.dim)).max() <= 1e-12

    def test_fiber_independent_symbol_equals_multiplication(self):
        basis = basis_for(TORUS, 13)
        sym = SymbolField("a", TORUS, lambda p: lambda xi: np.exp(0.3 * np.cos(p[:, 0])))
        km = assemble_kohn_nirenberg(sym, basis)
        mm = assemble_multiplication(EXP_03, basis)
        assert np.abs(km - mm).max() <= 1e-10

    def test_fourier_multiplier_is_diagonal(self):
        basis = basis_for(TORUS, 10)
        sym = SymbolField("xi1sq", TORUS, lambda p: lambda xi: xi[:, 0] ** 2,
                          x_independent=True)
        diag = assemble_kohn_nirenberg(sym, basis)
        assert diag.shape == (basis.dim,)
        op = np.diag(diag)
        off = op - np.diag(np.diag(op))
        assert np.abs(off).max() <= 1e-12
        for j in range(1, basis.dim):
            k = basis.freqs[j]
            assert op[j, j] == pytest.approx(k[0] ** 2 / (k @ k), abs=1e-12)

    def test_brute_force_equivalence_small_window(self):
        # apply the quantization rule directly: B psi_b expanded in complex
        # exponentials, symbol applied per frequency, integrated against psi_a
        basis = basis_for(TORUS, 2)  # d = 9

        def bfun(pts, xi_unit):
            return (1.0 + 0.3 * np.cos(pts[:, 0]) * xi_unit[:, 0] ** 2
                    + 0.2 * np.sin(pts[:, 1]) * xi_unit[:, 0] * xi_unit[:, 1])

        sym = SymbolField("mix", TORUS, lambda p: lambda xi: bfun(p, xi))
        op = assemble_kohn_nirenberg(sym, basis)

        res = 48
        ax = 2 * math.pi * np.arange(res) / res
        x1, x2 = np.meshgrid(ax, ax, indexing="ij")
        pts = np.column_stack([x1.ravel(), x2.ravel()])
        w = (2 * math.pi / res) ** 2

        def complex_field(k):
            return np.exp(1j * (k[0] * pts[:, 0] + k[1] * pts[:, 1])) / (2 * math.pi)

        def b_at(k):
            if k == (0, 0):
                alphas = 2 * math.pi * np.arange(256) / 256
                vals = np.zeros(pts.shape[0])
                for a in alphas:
                    xi = np.tile([math.cos(a), math.sin(a)], (pts.shape[0], 1))
                    vals += bfun(pts, xi)
                return vals / 256
            norm = math.hypot(*k)
            xi = np.tile([k[0] / norm, k[1] / norm], (pts.shape[0], 1))
            return bfun(pts, xi)

        def real_field(j):
            vals = np.zeros(pts.shape[0], dtype=complex)
            kind = basis.kinds[j]
            k = tuple(basis.freqs[j]) if kind != 0 else (0, 0)
            for freq, cw in _pairing(k, kind):
                vals += cw * complex_field(freq)
            return vals

        def apply_b(j):
            out = np.zeros(pts.shape[0], dtype=complex)
            kind = basis.kinds[j]
            k = tuple(basis.freqs[j]) if kind != 0 else (0, 0)
            for freq, cw in _pairing(k, kind):
                out += cw * b_at(freq) * complex_field(freq)
            return out

        d = basis.dim
        raw = np.zeros((d, d))
        for b_idx in range(d):
            bpsi = apply_b(b_idx)
            for a_idx in range(d):
                val = w * np.sum(bpsi * np.conj(real_field(a_idx)))
                raw[a_idx, b_idx] = val.real
        expected = 0.5 * (raw + raw.T)
        assert np.abs(op - expected).max() <= 1e-10

    def test_symmetric_variant_matches_symmetrized_left(self, monkeypatch):
        # the (left+right)/2 quantization coincides with the symmetrized left
        # quantization after the real-basis projection, so the one symmetric
        # assembly is both
        basis = basis_for(TORUS, 5)
        sym = SymbolField(
            "mix", TORUS,
            lambda p: lambda xi: 1.0 + 0.4 * np.cos(p[:, 0]) * xi[:, 0] ** 2,
        )
        got, left = complex_path(sym, basis, "left", monkeypatch)
        _, both = complex_path(sym, basis, "symmetric", monkeypatch)
        assert np.array_equal(got, got.T)
        assert np.abs(left - both).max() <= 1e-12

    def test_pairing_arrays_match_per_slot_rule(self):
        basis = basis_for(TORUS, 25)
        idx_p, idx_m, w_p, w_m = _real_pairing(basis)
        cfreqs = _torus_complex_freqs(basis)
        for j, kind in enumerate(basis.kinds.tolist()):
            slots = ((idx_p[j], w_p[j]), (idx_m[j], w_m[j]))
            got = [(tuple(cfreqs[i].tolist()), w) for i, w in slots if w != 0]
            assert got == _pairing(tuple(basis.freqs[j].tolist()), kind), j

    def test_requires_torus(self):
        basis = basis_for(CIRCLE, 4)
        sym = SymbolField("one", CIRCLE, lambda p: lambda xi: np.ones(p.shape[0]))
        with pytest.raises(UnsupportedModelError):
            assemble_kohn_nirenberg(sym, basis)

    @pytest.mark.parametrize("rule", ["left", "symmetric"])
    @pytest.mark.parametrize("fn, x_independent", [
        (lambda p: lambda xi: xi[:, 0], True),  # xi_1 / |xi|
        (lambda p: lambda xi: np.cos(p[:, 0]) * xi[:, 0], False),
        (lambda p: lambda xi: 1.0 + 1e-6 * np.cos(p[:, 0]) * xi[:, 0], False),
    ], ids=["x-independent", "general", "weakly-odd"])
    def test_odd_symbol_is_input_error(self, fn, x_independent, rule):
        # a symbol odd in xi maps real functions to imaginary ones, under the
        # left rule and under (left + right)/2 alike, so the one assembly
        # rejects it for both
        sym = SymbolField("odd", TORUS, fn, x_independent=x_independent)
        basis = basis_for(TORUS, 25)
        bc = per_direction_complex(sym, basis)
        if rule == "symmetric":
            bc = 0.5 * (bc + bc.conj().T)
        breal = real_basis_projection(bc, basis)
        assert np.abs(breal.imag).max() > 1e-9 * np.abs(breal).max()
        with pytest.raises(InputError, match="non-negligible imaginary part"):
            assemble_kohn_nirenberg(sym, basis)


def per_direction_assembly(symbol, basis):
    """Kohn-Nirenberg oracle in the real basis, symmetrized."""
    return complex_to_real(per_direction_complex(symbol, basis), basis)


def per_direction_complex(symbol, basis):
    """Complex-basis left Kohn-Nirenberg matrix: one symbol evaluation and one
    FFT per direction.

    Column k (complex basis) holds the 2-D Fourier coefficients of
    x -> b(x, k/|k|) at the row-minus-column frequency, one cached FFT table
    per primitive direction; the zero column uses the 64-node fiber average.
    """
    d = basis.dim
    cfreqs = _torus_complex_freqs(basis)
    kmax = math.isqrt(int(basis.cutoff))
    m = max(64, ((4 * kmax + 32 + 31) // 32) * 32)
    ax = 2 * math.pi * np.arange(m) / m
    x1, x2 = np.meshgrid(ax, ax, indexing="ij")
    grid_pts = np.column_stack([x1.ravel(), x2.ravel()])
    evaluate = symbol.prepared(grid_pts)
    cache = {}

    def coeff_table(key):
        if key not in cache:
            if key == (0, 0):
                v = symbol.fiber_average(grid_pts)
            else:
                v = evaluate(np.array([key], dtype=float))
            cache[key] = np.fft.fft2(v.reshape(m, m)) / (m * m)
        return cache[key]

    bc = np.zeros((d, d), dtype=complex)
    for j in range(d):
        k = (int(cfreqs[j, 0]), int(cfreqs[j, 1]))
        g = math.gcd(*k)
        coeffs = coeff_table((0, 0) if g == 0 else (k[0] // g, k[1] // g))
        bc[:, j] = coeffs[(cfreqs[:, 0] - k[0]) % m, (cfreqs[:, 1] - k[1]) % m]
    return bc


def _real_pairing(basis):
    """Index/coefficient arrays of the unitary map real basis -> complex slots.

    The constant pairs with itself; the cos and sin slots of k (adjacent,
    cos first) pair with the complex slots of +k and -k.
    """
    kinds = basis.kinds
    j = np.arange(basis.dim)
    idx_p = np.where(kinds == 2, j - 1, j)
    idx_m = np.where(kinds == 1, j + 1, j)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    w_p = np.where(kinds == 0, 1.0, np.where(kinds == 1, inv_sqrt2, -1j * inv_sqrt2))
    w_m = np.where(kinds == 0, 0.0, np.where(kinds == 1, inv_sqrt2, 1j * inv_sqrt2))
    return idx_p, idx_m, w_p, w_m


def real_basis_projection(bc, basis):
    """A dense complex-basis matrix in the real basis, imaginary part kept."""
    idx_p, idx_m, w_p, w_m = _real_pairing(basis)
    c1 = bc[:, idx_p] * w_p[None, :] + bc[:, idx_m] * w_m[None, :]
    return np.conj(w_p)[:, None] * c1[idx_p, :] + np.conj(w_m)[:, None] * c1[idx_m, :]


def complex_to_real(bc, basis):
    """Symmetrized real part of a dense complex-basis matrix in the real basis."""
    breal = real_basis_projection(bc, basis).real
    return 0.5 * (breal + breal.T)


def complex_gather(table, basis, cols, box):
    """Dense complex-basis matrix bc[j, k] = table[cols[k], nu_j - nu_k] in one flat take."""
    cfreqs = _torus_complex_freqs(basis)
    width = 2 * box + 1
    strides = width ** np.arange(cfreqs.shape[1] - 1, -1, -1)
    rows = cfreqs @ strides
    start = cols * width ** len(strides) + box * strides.sum() - rows
    return table.ravel()[rows[:, None] + start[None, :]]


def unfold(half):
    """Full C-order box of a half-plane table: offset -o holds the conjugate of o."""
    return np.concatenate([np.conj(half[..., :0:-1]), half], axis=-1)


def whole_table(table, table_rows=None):
    """Every row of the E and O tables that ``_pair_strips`` reads a strip at a time."""
    return table(0, 1 if table_rows is None else int(table_rows.max()) + 1)


def complex_path(source, basis, rule, monkeypatch):
    """Assembly next to the complex-basis oracle: the dense complex matrix of the
    same coefficient table (or of the symbol on the diagonal), through the pairing.

    ``rule`` is the oracle's quantization: "left" projects the left matrix and
    symmetrizes, "symmetric" projects its Hermitian part, (left + right)/2.

    The table is E + iO as ``_pair_strips`` reads it, unfolded from its half
    plane (E even, O odd), and each complex slot reads the table row of its
    pair (the +k and -k slots of a pair share one).
    """
    seen = []
    pair_strips = operators._pair_strips

    def spy(table, basis, box, rows, table_rows=None):
        even, odd = whole_table(table, table_rows)
        pairs = np.zeros(basis.dim // 2 + 1, int) if table_rows is None else table_rows
        seen.append((unfold(even + 1j * odd), np.append(pairs[0], np.repeat(pairs[1:], 2)), box))
        return pair_strips(table, basis, box, rows, table_rows)

    monkeypatch.setattr(operators, "_pair_strips", spy)
    got = operators.assemble(source, basis)
    if seen:
        table, cols, box = seen[0]
        bc = complex_gather(table, basis, cols, box)
    else:
        cfreqs = _torus_complex_freqs(basis).astype(float)
        vals = source.values(np.zeros_like(cfreqs[1:]), cfreqs[1:])
        avg = source.fiber_average(np.zeros((1, basis.model.dim)))
        bc = np.diag(np.concatenate([avg, vals])).astype(complex)
        got = np.diag(got)  # a 1-D diagonal
    if rule == "symmetric":
        bc = 0.5 * (bc + bc.conj().T)
    return got, complex_to_real(bc, basis)


def _mix(p):
    return lambda xi: (1.0 + 0.3 * np.cos(p[:, 0]) * xi[:, 0] ** 2
                       + 0.2 * np.sin(p[:, 1]) * xi[:, 0] * xi[:, 1])


def _kn_symbols():
    g_aniso = metric_field("aniso-diag:0.3,0.3", TORUS)
    gdot = perturbation_field("cos-x1-dx1", TORUS)
    out = [pytest.param(SymbolField("mix", TORUS, _mix), id="mix")]
    for spec in ("aniso-diag:0.3,0.3", "conformal:u=0.3cos(x1)", "g0"):
        sym = hilb_symbol(metric_field(spec, TORUS))
        out.append(pytest.param(sym, id=f"hilb-{spec}"))
    for sign in (1, -1):
        sym = dhilb_symbol(g_aniso, gdot, trace_sign=sign)
        out.append(pytest.param(sym, id=f"dhilb{sign:+d}"))
    return out


class TestKohnNirenbergFiberFourier:
    @pytest.mark.parametrize("symbol", _kn_symbols())
    def test_matches_per_direction_oracle(self, symbol):
        for mu2 in (25, 100):
            basis = basis_for(TORUS, mu2)
            want = per_direction_assembly(symbol, basis)
            got = assemble_kohn_nirenberg(symbol, basis)
            got = np.diag(got) if got.ndim == 1 else got  # hilb-g0: a 1-D diagonal
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), mu2

    def test_kinked_symbol_is_unresolved(self):
        # |xi_1| has a kink in the fiber angle: its theta coefficients decay
        # like l^-2 and never reach the Nyquist-band tolerance
        sym = SymbolField(
            "abs-xi1", TORUS,
            lambda p: lambda xi: (1.0 + 0.2 * np.cos(p[:, 0])) * np.abs(xi[:, 0]),
        )
        with pytest.raises(ResolutionError):
            assemble_kohn_nirenberg(sym, basis_for(TORUS, 9))

    @pytest.mark.parametrize("name", ["aniso-diag:0.3,0.3", "conformal:u=0.3cos(x1)"])
    def test_tail_check_columns_hold_every_magnitude(self, name):
        # the Nyquist tail check reads the half plane of columns: column -nu
        # holds column nu's theta coefficients at -q, conjugated, and the tail
        # band and the max are symmetric in q
        box, m = 12, 64
        samples = operators._fiber_samples(hilb_symbol(metric_field(name, TORUS)), m, box)
        assert samples.shape[1] == ((2 * box + 1) ** 2 + 1) // 2
        full = np.abs(np.fft.fft(unfold(samples), axis=0))
        half = np.abs(np.fft.fft(samples, axis=0))
        band = slice(len(samples) // 2 - 1, len(samples) // 2 + 2)
        assert half.max() == pytest.approx(full.max(), rel=1e-14)
        assert abs(half[band].max() - full[band].max()) <= 1e-15 * full.max()

    def test_evaluations_do_not_grow_with_directions(self):
        calls = []

        def counted(make_evaluator):
            def prepare(p):
                ev = make_evaluator(p)
                return lambda xi: calls.append(1) or ev(xi)
            return prepare

        def directions(basis):
            ks = {(a // math.gcd(a, b), b // math.gcd(a, b))
                  for a, b in basis.freqs[1:].tolist()}
            return len(ks | {(-a, -b) for a, b in ks})

        # a trigonometric polynomial in theta is resolved by the first
        # sampling; an anisotropic hilb symbol needs one doubling
        aniso = hilb_symbol(metric_field("aniso-diag:0.3,0.3", TORUS))
        for fn, want in ((_mix, KN_FIBER_RES), (aniso.make_evaluator, 2 * KN_FIBER_RES)):
            sym = SymbolField("counted", TORUS, counted(fn))
            for mu2 in (25, 100):
                calls.clear()
                assemble_kohn_nirenberg(sym, basis_for(TORUS, mu2))
                assert len(calls) == want <= 2 * KN_FIBER_RES_MAX
        assert directions(basis_for(TORUS, 100)) > 2 * KN_FIBER_RES

    @pytest.mark.parametrize("mu2, pairs", [(25, None), (100, None), (400, 384)])
    def test_table_has_one_row_per_direction_pair(self, mu2, pairs, monkeypatch):
        # a primitive direction and its negative share a row; the last row is
        # the fiber average of the constant
        basis = basis_for(TORUS, mu2)
        ks = {(a // math.gcd(a, b), b // math.gcd(a, b)) for a, b in basis.freqs[1:].tolist()}
        folded = {max(k, (-k[0], -k[1])) for k in ks}
        assert pairs is None or len(folded) == pairs
        seen, pair_strips = [], operators._pair_strips

        def spy(table, basis, box, rows, table_rows=None):
            even, odd = whole_table(table, table_rows)
            seen.append((even.shape, odd.shape, table_rows))
            return pair_strips(table, basis, box, rows, table_rows)

        monkeypatch.setattr(operators, "_pair_strips", spy)
        assemble_kohn_nirenberg(SymbolField("mix", TORUS, _mix), basis)
        [(even, odd, table_rows)] = seen
        assert even == odd and even[0] == len(folded) + 1
        assert table_rows[0] == len(folded)
        assert sorted(set(table_rows[1:].tolist())) == list(range(len(folded)))


def _even_multiplier(p):
    return lambda xi: 1.0 + 0.5 * xi[:, 0] ** 2


class TestRealGather:
    @pytest.mark.parametrize("rule", ["left", "symmetric"])
    @pytest.mark.parametrize("model, cutoff, source", [
        (CIRCLE, 40, EXP_COS),
        (TORUS, 100, EXP_MIXED),
        (CIRCLE, 30, SymbolField("even", CIRCLE, _even_multiplier, x_independent=True)),
        (TORUS, 100, SymbolField("even", TORUS, _even_multiplier, x_independent=True)),
        (TORUS, 25, SymbolField("mix", TORUS, _mix)),
        (TORUS, 100, hilb_symbol(metric_field("aniso-diag:0.3,0.3", TORUS))),
    ], ids=["circle-mult", "torus-mult", "circle-diag", "torus-diag", "torus-kn-mix",
            "torus-kn-hilb"])
    def test_matches_complex_oracle(self, model, cutoff, source, rule, monkeypatch):
        # one assembly output against both oracle rules
        got, want = complex_path(source, basis_for(model, cutoff), rule, monkeypatch)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_flat_multiplication_holds_no_complex_matrix(self):
        # the dense complex detour (complex gather, pairing copies) peaked at
        # about 10 real d x d matrices
        basis = basis_for(TORUS, 400)
        assemble_multiplication(EXP_03, basis)
        tracemalloc.start()
        try:
            assemble_multiplication(EXP_03, basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 8 * basis.dim ** 2


def full_pair_gather(table, basis, box, table_rows=None):
    """Real pair blocks read from a full C-order box table, with E and O taken at
    delta and sigma directly: eight gathers, no half plane and no sign flip."""
    width = 2 * box + 1
    strides = width ** np.arange(basis.model.dim - 1, -1, -1)
    k = np.append(0, basis.freqs[1::2] @ strides)
    kr = box * strides.sum() + k[:, None]
    if table_rows is not None:
        kr = kr + width ** basis.model.dim * table_rows[:, None]
    delta, sigma = kr - k, kr + k
    even, odd = table.real.ravel(), table.imag.ravel()
    out = np.empty((2 * len(kr), 2 * len(k)))
    out[0::2, 0::2] = even[delta] + even[sigma]
    out[0::2, 1::2] = odd[delta] - odd[sigma]
    out[1::2, 0::2] = -(odd[delta] + odd[sigma])
    out[1::2, 1::2] = even[delta] - even[sigma]
    out[1], out[:, 1] = out[0], out[:, 0]
    out = out[1:, 1:]
    out[0] *= math.sqrt(0.5)
    out[:, 0] *= math.sqrt(0.5)
    return out


class TestHalfPlaneTables:
    """The flat operators read one half plane of each Hermitian table, once."""

    @pytest.mark.parametrize("source", [
        EXP_MIXED, SymbolField("mix", TORUS, _mix),
        hilb_symbol(metric_field("aniso-diag:0.3,0.3", TORUS)),
        dhilb_symbol(metric_field("aniso-diag:0.3,0.3", TORUS),
                     perturbation_field("cos-x1-dx1", TORUS)),
    ], ids=["mult", "kn-mix", "kn-hilb", "kn-dhilb"])
    def test_half_tables_unfold_to_a_hermitian_table(self, source, monkeypatch):
        # O(0) = 0 exactly, so the unfolded table is exactly Hermitian, and the
        # half-plane gather is bit for bit the gather of that full table
        basis = basis_for(TORUS, 100)
        seen, collected = [], []
        pair_strips, collect = operators._pair_strips, operators._collect

        def strips_spy(table, basis, box, rows, table_rows=None):
            even, odd = whole_table(table, table_rows)
            seen.append((unfold(even + 1j * odd), box, table_rows))
            return pair_strips(table, basis, box, rows, table_rows)

        def collect_spy(strips, shape):
            out = collect(strips, shape)
            # a copy: Kohn-Nirenberg symmetrizes the returned array in place
            collected.append(out.copy())
            return out

        monkeypatch.setattr(operators, "_pair_strips", strips_spy)
        monkeypatch.setattr(operators, "_collect", collect_spy)
        operators.assemble(source, basis)
        [(table, box, table_rows)], [got] = seen, collected
        assert table.shape[-1] == (2 * box + 1) ** 2
        np.testing.assert_array_equal(table, np.conj(table[..., ::-1]))
        np.testing.assert_array_equal(got, full_pair_gather(table, basis, box, table_rows))

    def test_gather_holds_one_index_array_and_two_buffers(self):
        # the top window of the tail-defect sweep, streamed with no matrix;
        # E(delta), E(sigma), O(delta) and O(sigma) are each gathered once,
        # through two reused buffers
        basis = basis_for(TORUS, 800)
        rows = basis_for(TORUS, 400).dim
        _, box = operators._fft_grid(basis)
        rng = np.random.default_rng(5)
        even, odd = rng.standard_normal((2, 1, ((2 * box + 1) ** 2 + 1) // 2))

        def stream():
            return sum(len(r) for r, _, _ in operators._pair_strips(
                lambda lo, hi: (even, odd), basis, box, rows))

        got, peak = traced_peak(stream)
        assert got == rows
        strip = operators._STRIP * (basis.dim // 2 + 1)  # entries of one strip of pairs
        # one block (a strip of cos and sin rows, 4 strip), then one strip
        # each of the index array, the two buffers and the sign mask, plus
        # 0.3 MB for ufunc buffers and the per-pair offsets (a whole pair
        # block of each held 20 MB more)
        assert peak < 4 * 8 * strip + 3 * 8 * strip + strip + 300_000


def placed_rows(table, basis, box, rows, table_rows=None):
    """Leading ``rows`` rows of the matrix, each ``_pair_strips`` strip placed by its rows."""
    out = np.full((rows, basis.dim), np.nan)
    for r, _, strip in operators._pair_strips(table, basis, box, rows, table_rows):
        out[r] = strip
    return out


def tail_strips(field, basis, rows):
    """The (rows, cols, strip) triples ``tail_defect`` reads for the leading ``rows`` rows:
    the strips of ``_pair_strips`` on the flat models, and on the sphere the
    leading rows of the assembled matrix."""
    if basis.model.kind == "sphere2":
        return [(np.arange(rows), slice(None), assemble_multiplication(field, basis)[:rows])]
    table, box = operators._flat_table(field, basis)
    return operators._pair_strips(table, basis, box, rows)


class TestStrips:
    """Each large operator is built a strip of rows at a time, bit for bit as whole."""

    @pytest.mark.parametrize("model, cutoff, rows", [
        (CIRCLE, 200, None),  # 201 pairs: three strips and 9 pairs
        (TORUS, 100, None),  # 159 pairs
        (TORUS, 225, 333),  # the leading 167 of 355 pairs
    ])
    @pytest.mark.parametrize("shuffled", [False, True], ids=["one-row", "shuffled-rows"])
    def test_gather_matches_full_table_oracle(self, model, cutoff, rows, shuffled):
        basis = basis_for(model, cutoff)
        _, box = operators._fft_grid(basis)
        pairs = basis.dim // 2 + 1
        used = pairs if rows is None else rows // 2 + 1
        assert used > 2 * operators._STRIP and used % operators._STRIP != 0
        rng = np.random.default_rng(cutoff)
        count = 7 if shuffled else 1
        even, odd = rng.standard_normal((2, count, ((2 * box + 1) ** model.dim + 1) // 2))
        # table rows out of basis order: the gather visits pairs by table row
        table_rows = rng.integers(0, count, pairs) if shuffled else None
        calls = []

        def table(lo, hi):
            calls.append((lo, hi))
            return even[lo:hi], odd[lo:hi]

        # the collected matrix, or the leading rows of the strips alone
        got = (operators._collect(operators._pair_strips(table, basis, box, basis.dim, table_rows),
                                  (basis.dim, basis.dim)) if rows is None
               else placed_rows(table, basis, box, rows, table_rows))
        want = full_pair_gather(unfold(even + 1j * odd), basis, box, table_rows)
        np.testing.assert_array_equal(got, want[:rows])
        # one call per strip, each a range of rows that starts where the last ended
        assert len(calls) == -(-used // operators._STRIP)
        assert all(lo < hi and lo >= prev_hi - 1 for (_, prev_hi), (lo, hi)
                   in zip([(0, 1)] + calls, calls))

    @pytest.mark.parametrize("model, cutoff, field, rows", [
        (CIRCLE, 200, EXP_COS, 401),  # every row: 201 pairs
        (CIRCLE, 200, EXP_COS, 300),
        (TORUS, 225, EXP_MIXED, 333),  # the leading 167 of 355 pairs
    ])
    def test_multiplication_strips_match_full_table_oracle(self, model, cutoff, field, rows):
        # the strips of tail-defect, concatenated, are the oracle's rows bit for bit
        basis = basis_for(model, cutoff)
        assert (rows // 2 + 1) % operators._STRIP != 0
        table, box = operators._flat_table(field, basis)
        even, odd = table(0, 1)
        want = full_pair_gather(unfold(even + 1j * odd), basis, box)[:rows]
        got = np.concatenate([s.copy() for _, _, s in tail_strips(field, basis, rows)])
        np.testing.assert_array_equal(got, want)

    def test_kohn_nirenberg_forms_each_direction_row_once(self, monkeypatch):
        # table rows in direction order: each strip forms its own range, and
        # a row is formed twice only where two strips share it
        basis = basis_for(TORUS, 400)
        calls, pair_strips = [], operators._pair_strips

        def spy(table, basis, box, rows, table_rows=None):
            def counted(lo, hi):
                calls.append((lo, hi))
                return table(lo, hi)
            spy.directions = int(table_rows.max()) + 1
            return pair_strips(counted, basis, box, rows, table_rows)

        monkeypatch.setattr(operators, "_pair_strips", spy)
        assemble_kohn_nirenberg(SymbolField("mix", TORUS, _mix), basis)
        assert len(calls) > 2 and spy.directions == 385
        assert sum(hi - lo for lo, hi in calls) <= spy.directions + len(calls) - 1
        assert all(b[0] >= a[1] - 1 for a, b in zip(calls, calls[1:]))

    def test_sphere_multiplication_is_the_symmetrized_block(self):
        # symmetrized in place by the strip loop of Kohn-Nirenberg, at d = 169
        basis = basis_for(SPHERE, 12)
        field = scalar_field("exp:0.5cos(phi)+0.3sin(theta)", SPHERE)
        block = operators.sphere_block(field, basis, slice(None), slice(None))
        assert basis.dim % operators._STRIP != 0
        np.testing.assert_array_equal(assemble_multiplication(field, basis),
                                      0.5 * (block + block.T))


def traced_peak(fn):
    """The result of a second call of ``fn`` and its tracemalloc peak in bytes."""
    fn()
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryGuards:
    """No assembly holds a second array the size of its operator.

    Each bound lies between the peak of the whole-matrix code and that of
    the strip loops, measured at these sizes (numpy 2.4): Kohn-Nirenberg
    3.97 -> 1.77 times 8 d^2, the sphere multiplication 2.00 -> 1.39, a
    certified positivity repair 1.00 -> 0.06, and the flat evaluator 2.35
    -> 1.36 times the bytes of its outputs.
    """

    def test_kohn_nirenberg_holds_one_square_matrix(self):
        # the hilb-approx top window: d = 1257, the tables formed strip by strip
        basis = basis_for(TORUS, 400)
        sym = hilb_symbol(metric_field("aniso-diag:0.3,0.3", TORUS))
        mat, peak = traced_peak(lambda: assemble_kohn_nirenberg(sym, basis))
        assert mat.shape == (basis.dim, basis.dim)
        assert peak < 2.25 * 8 * basis.dim ** 2

    def test_sphere_multiplication_holds_one_square_matrix(self):
        # the sphere-cumulative top window: d = 1681, symmetrized in place
        basis = basis_for(SPHERE, 40)
        field = scalar_field("one-plus-half-x3sq", SPHERE)
        mat, peak = traced_peak(lambda: assemble_multiplication(field, basis))
        assert mat.shape == (basis.dim, basis.dim)
        assert peak < 1.6 * 8 * basis.dim ** 2

    def test_certified_repair_holds_strips(self):
        # a Gershgorin-certified leading block, its row sums taken by strips
        d = 1257
        rng = np.random.default_rng(7)
        big = rng.uniform(-1.0, 1.0, (d + 1, d + 1))
        big += big.T
        big[np.diag_indices(d + 1)] = 4.0 * d
        block = big[1:, 1:]
        (spd, shift), peak = traced_peak(lambda: positivity_repair(block))
        assert shift == 0.0 and spd is block
        assert peak < 0.25 * 8 * d ** 2

    def test_flat_evaluation_holds_its_outputs_and_one_trig_table(self):
        # the hilb-approx top window on its 16 x 16 grid
        basis = basis_for(TORUS, 400)
        pts, _ = quadrature_grid(TORUS, 16)
        (vals, grads), peak = traced_peak(lambda: eval_basis(basis, pts))
        assert peak < 1.6 * (vals.nbytes + grads.nbytes)


class TestHalfPlaneIndex:
    """One index reads the half plane of a Fourier table from a real FFT."""

    @pytest.mark.parametrize("n, m, box", [(1, 64, 20), (1, 96, 47), (2, 64, 12), (2, 32, 15)])
    def test_reads_the_complex_fft_table(self, n, m, box):
        values = np.random.default_rng(n * m + box).standard_normal((m,) * n)
        index, mirror = operators._half_plane(m, box, n)
        half = np.fft.rfftn(values).ravel()[index]
        np.conjugate(half, out=half, where=mirror)
        width = 2 * box + 1
        nu = np.arange(-box, box + 1) % m
        full = np.fft.fftn(values)[np.ix_(*[nu] * n)].ravel()
        assert half.shape == ((width**n + 1) // 2,)
        assert np.abs(half - full[width**n // 2:]).max() <= 1e-13 * np.abs(full).max()
        table = unfold(half)
        np.testing.assert_array_equal(table, np.conj(table[::-1]))


class TestMultiplicationGather:
    """Flat multiplication reads the two real Hermitian parts of one table row."""

    @pytest.mark.parametrize("model, cutoff, field, rows", [
        (CIRCLE, 64, EXP_COS, 33), (CIRCLE, 64, EXP_COS, 32),
        (TORUS, 100, EXP_MIXED, 161), (TORUS, 100, EXP_MIXED, 160), (TORUS, 100, EXP_MIXED, 1),
        (SPHERE, 12, scalar_field("exp:0.5cos(phi)+0.3sin(theta)", SPHERE), 49),
    ])
    def test_leading_rows_are_the_square_rows(self, model, cutoff, field, rows):
        # the strips that tail-defect reads follow one another from row 0,
        # each a run of consecutive rows; each is a view of one reused buffer,
        # copied before the next
        basis = basis_for(model, cutoff)
        square = assemble_multiplication(field, basis)
        strips = [(r, s.copy()) for r, _, s in tail_strips(field, basis, rows)]
        assert all(np.array_equal(r, np.arange(r[0], r[0] + len(s))) for r, s in strips)
        strips = [(int(r[0]), s) for r, s in strips]
        starts = np.cumsum([0] + [len(s) for _, s in strips])
        assert [r for r, _ in strips] == starts[:-1].tolist() and starts[-1] == rows
        np.testing.assert_array_equal(np.concatenate([s for _, s in strips]), square[:rows])

    @pytest.mark.parametrize("model, cutoff, field", [
        (CIRCLE, 64, EXP_COS), (TORUS, 100, EXP_MIXED),
    ])
    def test_needs_no_kohn_nirenberg_gather(self, model, cutoff, field, monkeypatch):
        # one gather of one table row, whose own buffer is the result: exactly
        # symmetric, with no symmetrization pass after it
        basis = basis_for(model, cutoff)
        want = assemble_multiplication(field, basis)
        calls, collected = [], []
        pair_strips, collect = operators._pair_strips, operators._collect

        def strips_spy(table, basis, box, rows, table_rows=None):
            calls.append((whole_table(table, table_rows)[0].shape[0], table_rows))
            return pair_strips(table, basis, box, rows, table_rows)

        def collect_spy(strips, shape):
            out = collect(strips, shape)
            collected.append(out)
            return out

        monkeypatch.setattr(operators, "_pair_strips", strips_spy)
        monkeypatch.setattr(operators, "_collect", collect_spy)
        got = assemble_multiplication(field, basis)
        [(table_rows, pairs)], [gathered] = calls, collected
        assert table_rows == 1 and pairs is None
        assert got is gathered
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got, got.T)


class TestPrepared:
    @pytest.mark.parametrize("symbol", [
        hilb_symbol(metric_field("conformal:u=cos(theta)", CIRCLE)),
        dhilb_symbol(metric_field("conformal:u=cos(theta)", CIRCLE),
                     perturbation_field("cos-theta", CIRCLE)),
        hilb_symbol(metric_field("aniso-diag:0.3,0.3", TORUS)),
        dhilb_symbol(metric_field("g0", TORUS), perturbation_field("cos-x1-dx1", TORUS)),
        symbol_field("xi1sq", TORUS),
        hilb_symbol(metric_field("conformal:u=0.3x3", SPHERE)), symbol_field("one", SPHERE),
    ], ids=["circle-hilb", "circle-dhilb", "torus-hilb", "torus-dhilb", "torus-xi1sq",
            "sphere-hilb", "sphere-one"])
    def test_one_covector_matches_broadcast(self, symbol):
        # a flat model normalizes one covector row once, the sphere once per
        # point; the oracle broadcasts it to every point first and normalizes
        # each row
        model = symbol.model
        pts, _ = quadrature_grid(model, 64)
        ev = symbol.make_evaluator(pts)
        prepared = symbol.prepared(pts)
        for xi in np.random.default_rng(3).standard_normal((8, model.dim)):
            rows = np.broadcast_to(xi, pts.shape)
            want = ev(rows / g0_norm_xi(model, pts, rows)[:, None])
            np.testing.assert_array_equal(prepared(xi[None]), want)

    @pytest.mark.parametrize("symbol", [
        hilb_symbol(metric_field("g0", TORUS)),
        hilb_symbol(metric_field("aniso-diag:0.3,0.3", TORUS)),
        dhilb_symbol(metric_field("aniso-diag:0.3,0.3", TORUS),
                     perturbation_field("cos-x1-dx1", TORUS), trace_sign=1),
        dhilb_symbol(metric_field("aniso-diag:0.3,0.3", TORUS),
                     perturbation_field("cos-x1-dx1", TORUS), trace_sign=-1),
        symbol_field("xi1sq", TORUS), symbol_field("one", TORUS), SymbolField("mix", TORUS, _mix),
    ], ids=["hilb-g0", "hilb-aniso", "dhilb+1", "dhilb-1", "xi1sq", "one", "mix"])
    def test_one_row_is_the_broadcast_path(self, symbol):
        # the evaluator gets the one normalized (1, n) row, and its quadratic
        # forms have scalar coefficients in the same term order: the same bits
        # as the row broadcast to every point of the 128^2 grid
        pts, _ = quadrature_grid(TORUS, 128)
        prepared = symbol.prepared(pts)
        xis = np.vstack([fiber_covectors(TORUS, np.zeros((1, 2)), 16)[0][:, 0],
                         np.random.default_rng(4).standard_normal((4, 2))])
        for xi in xis:
            got = prepared(xi[None])
            assert got.shape == (len(pts),)
            np.testing.assert_array_equal(got, prepared(np.broadcast_to(xi, pts.shape)))


class TestFiberRestriction:
    """Off the torus a symbol is multiplication by b(x, e^1), exact only when it
    is fiber-even (circle) or fiber-constant (sphere); the CLI tests cover the
    symbols it refuses."""

    @pytest.mark.parametrize("symbol, cutoff", [
        (hilb_symbol(metric_field("conformal:u=cos(theta)", CIRCLE)), 32),
        (dhilb_symbol(metric_field("conformal:u=cos(theta)", CIRCLE),
                      perturbation_field("cos-theta", CIRCLE)), 32),
        (hilb_symbol(metric_field("conformal:u=0.3x3", SPHERE)), 8),
    ], ids=["circle-hilb", "circle-dhilb", "sphere-hilb"])
    def test_admitted_symbol_is_its_restriction(self, symbol, cutoff):
        basis = basis_for(symbol.model, cutoff)
        e1 = np.eye(symbol.model.dim)[:1]
        restriction = ScalarField("b|e1", lambda p: symbol.values(p, e1))
        np.testing.assert_array_equal(operators.assemble(symbol, basis),
                                      assemble_multiplication(restriction, basis))


class TestPositivityRepair:
    def test_identity_unchanged(self):
        basis = basis_for(CIRCLE, 3)
        op = assemble_multiplication(ONE, basis)
        spd, shift = positivity_repair(op)
        assert shift == 0.0
        assert np.abs(spd - np.eye(basis.dim)).max() <= 1e-10

    def test_small_negative_is_shifted(self):
        # the floor is 1e-8 times the spectral radius, here 1
        spd, shift = positivity_repair(np.diag([1.0, -0.01]))
        assert shift == pytest.approx(0.01 + 1e-8)
        assert np.linalg.eigvalsh(spd)[0] > 0

    def test_floor_must_be_positive(self):
        # the floor scales with the matrix, so the zero matrix has none
        with pytest.raises(InputError):
            positivity_repair(np.zeros((2, 2)))
        with pytest.raises(InputError):
            positivity_repair(np.zeros(2))

    def test_certified_matrix_needs_no_eigenvalues(self, monkeypatch):
        mat = assemble_multiplication(EXP_MIXED, basis_for(TORUS, 25))

        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh called on a certified matrix")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        spd, shift = positivity_repair(mat)
        assert shift == 0.0 and spd is mat

    def test_uncertified_floor_falls_back(self, monkeypatch):
        # lambda_min = 1.5e-8 rho clears the 1e-8 floor but not the 2e-8
        # certificate shift, so eigvalsh decides; the rotation keeps the
        # matrix off the diagonal path
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(1) or eigvalsh(m))
        c, s = math.cos(0.3), math.sin(0.3)
        rot = np.array([[c, -s], [s, c]])
        spd, shift = positivity_repair(rot @ np.diag([1.0, 1.5e-8]) @ rot.T)
        assert shift == 0.0 and calls == [1]

    @pytest.mark.parametrize("diag", [
        [0.0, 2.0, 0.0, 1.0],           # exact zeros, as xi1sq gives
        [-0.5, 1.0, 3e-9, 2.0],         # a negative entry
        [1.0, 1.5e-8],                  # between the floor and the certificate
        [3.0, 1.0, 2.0],                # positive definite
        [-1.0, -2.0],
    ])
    def test_diagonal_needs_no_factorization(self, diag, monkeypatch):
        mat = np.array(diag)
        want_spd, want_shift = eigvalsh_repair(np.diag(mat))

        def refuse(*args, **kwargs):
            raise AssertionError("factorization run on a diagonal matrix")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        spd, shift = positivity_repair(mat)
        assert shift == want_shift and np.array_equal(np.diag(spd), want_spd)

    @pytest.mark.parametrize("case", ["hilb-torus", "bergman-circle"])
    def test_gershgorin_certificate_before_cholesky(self, case, monkeypatch):
        # the anisotropic hilb R is diagonally dominant with a Gershgorin
        # bound near 16 and needs no factor; the exp(cos theta)
        # multiplication matrix is not dominant and keeps its Cholesky
        if case == "hilb-torus":
            g = metric_field("aniso-diag:0.3,0.3", TORUS)
            mat = assemble_kohn_nirenberg(hilb_symbol(g), basis_for(TORUS, 100))
        else:
            mat = assemble_multiplication(EXP_COS, basis_for(CIRCLE, 96))
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda m: calls.append(1) or cholesky(m))
        spd, shift = positivity_repair(mat)
        assert calls == ([] if case == "hilb-torus" else [1])
        want_spd, want_shift = eigvalsh_repair(mat)
        assert shift == want_shift == 0.0 and spd is mat
        assert np.array_equal(spd, want_spd)

    def test_zero_diagonal_is_input_error(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvalsh", None)
        with pytest.raises(InputError):
            positivity_repair(np.zeros(3))

    @pytest.mark.parametrize("mu2", [100, 225, 400])
    def test_singular_diagonal_shift_unchanged(self, mu2):
        # xi1sq vanishes on the k = (0, k2) pairs of its diagonal matrix; the
        # shift from the sorted diagonal is eigvalsh's
        mat = assemble_kohn_nirenberg(symbol_field("xi1sq", TORUS), basis_for(TORUS, mu2))
        spd, shift = positivity_repair(mat)
        want_spd, want_shift = eigvalsh_repair(np.diag(mat))
        assert shift == want_shift > 0.0
        assert np.array_equal(np.diag(spd), want_spd)


def eigvalsh_repair(mat):
    """Positivity repair by a full eigvalsh, as before the Cholesky certificate."""
    w = np.linalg.eigvalsh(mat)
    eps = 1e-8 * max(abs(float(w[0])), abs(float(w[-1])))
    if float(w[0]) >= eps:
        return mat, 0.0
    shift = eps - float(w[0])
    return mat + shift * np.eye(mat.shape[0]), shift


class TestSymbolLawPredict:
    def test_unit_symbol_reduces_to_isometry_constant(self):
        pts = np.array([[0.3, 0.9]])
        pred = symbol_law_predict(ONE, TORUS, pts)(3.0)
        const = 3.0**4 * (2 * math.pi / 2) / ((2 * math.pi) ** 2 * 4)
        np.testing.assert_allclose(pred[0], const * np.eye(2), atol=1e-12)

    def test_circle_two_point_fiber(self):
        pts = np.array([[0.7]])
        pred = symbol_law_predict(EXP_03, CIRCLE, pts)(5.0)
        want = 5.0**3 * math.exp(0.3 * math.cos(0.7)) / (3 * math.pi)
        assert pred[0, 0, 0] == pytest.approx(want, rel=1e-12)

    def test_torus_multiplier_moments(self):
        # int cos^4 = 3pi/4 and int cos^2 sin^2 = pi/4 over the fiber circle
        sym = SymbolField("xi1sq", TORUS, lambda p: lambda xi: xi[:, 0] ** 2,
                          x_independent=True)
        pts = np.array([[1.0, 2.0]])
        mu = 2.0
        pred = symbol_law_predict(sym, TORUS, pts, fiber_res=64)(mu)
        pref = mu**4 / ((2 * math.pi) ** 2 * 4)
        np.testing.assert_allclose(
            pred[0],
            pref * np.diag([3 * math.pi / 4, math.pi / 4]),
            rtol=1e-12,
            atol=1e-14,
        )


def law_rows(source, model, cutoffs, grid_res):
    """(cutoff, mu, rel_err, pd_shift) per window, sliced from one top-window assembly."""
    mat = operators.assemble(source, basis_for(model, cutoffs[-1]))
    pts, _ = quadrature_grid(model, grid_res)
    law = symbol_law_predict(source, model, pts)
    return [(c, *symbol_law_check(mat, basis_for(model, c), law, pts)) for c in cutoffs]


def defect(f, model, inner, outer, grid_res=16):
    """Tail defect of one (inner, outer) pair."""
    pts, _ = quadrature_grid(model, grid_res)
    [value] = tail_defect(f, [(basis_for(model, inner), basis_for(model, outer))], pts)
    return value


class TestSymbolLawCheck:
    def test_identity_matches_isometry_path(self):
        rows = law_rows(ONE, CIRCLE, [16, 32], grid_res=32)
        for cutoff, mu, err, shift in rows:
            want = abs(
                sum(k * k for k in range(1, cutoff + 1)) / math.pi
                - mu**3 / (3 * math.pi)
            ) / (mu**3 / (3 * math.pi))
            assert err == pytest.approx(want, rel=1e-8)
            assert shift == 0.0

    def test_circle_exponential_errors_decrease(self):
        f = ScalarField("ecos", lambda p: np.exp(np.cos(p[:, 0])))
        rows = law_rows(f, CIRCLE, [24, 48], grid_res=48)
        errs = [r[2] for r in rows]
        assert errs[1] < errs[0]

    def test_multiplier_block_is_contracted_from_its_diagonal(self, monkeypatch):
        # xi1sq is a Fourier multiplier: dd_kernel gets the diagonal, and the
        # check reads the same numbers as through the dense GEMM
        source, ranks, dd_kernel = symbol_field("xi1sq", TORUS), [], operators.dd_kernel
        monkeypatch.setattr(operators, "dd_kernel", lambda a, *args:
                            ranks.append(np.ndim(a)) or dd_kernel(a, *args))
        got = law_rows(source, TORUS, [25, 100], grid_res=16)
        assert ranks == [1, 1]
        monkeypatch.setattr(operators, "dd_kernel", lambda a, *args:
                            dd_kernel(np.diag(a) if np.ndim(a) == 1 else a, *args))
        assert got == law_rows(source, TORUS, [25, 100], grid_res=16)


class TestTailDefect:
    def test_identity_has_zero_defect(self):
        # a constant couples no window to its complement, so its defect is
        # round-off at every level and a decay check would compare noise
        with pytest.raises(InputError, match="no tail defect"):
            defect(ONE, CIRCLE, 8, 16)

    def test_circle_cos_defect_decreases(self):
        vals = [defect(COS_THETA, CIRCLE, n, 2 * n)
                for n in (8, 16, 32)]
        assert vals[2] < vals[1] < vals[0]

    def test_window_precondition(self):
        with pytest.raises(InputError):
            defect(COS_THETA, CIRCLE, 8, 12)

    @pytest.mark.parametrize("model, field, cutoffs, grid_res", [
        (CIRCLE, scalar_field("exp:cos(theta)", CIRCLE), (8, 16, 32, 64), 48),
        (TORUS, scalar_field("exp:0.3cos(x1)", TORUS), (9, 25, 100, 225), 10),
        # sin terms and offsets off both axes; mu^2 = 9 -> 18 reaches the
        # |k|^2 = 18 ring, whose float level sqrt(18)^2 is below 18
        (TORUS, scalar_field("exp:0.5sin(x2)+0.3cos(x1)", TORUS), (9, 25, 100, 225), 10),
        (SPHERE, scalar_field("exp:0.5cos(phi)+0.3sin(theta)", SPHERE), (2, 4, 6), 8),
    ], ids=["circle", "torus", "torus-mixed", "sphere"])
    def test_streamed_defects_are_the_block_contraction(self, model, field, cutoffs, grid_res):
        # the contraction of each window's block of the assembled top window;
        # the flat lattice sum skips the Fourier coefficients below 1e-14 of
        # the largest that the dense block carries, which moved these defects
        # by at most 4.1e-13 relative (torus-mixed at mu^2 = 225)
        windows = [(basis_for(model, c), basis_for(model, 2 * c)) for c in cutoffs]
        top = windows[-1][1]
        pts, _ = quadrature_grid(model, grid_res)
        grads = eval_basis(top, pts)[1]
        mat = assemble_multiplication(field, top)
        want = []
        for inner, outer in windows:
            d_in, d_out = inner.dim, outer.dim
            tensor = _contract(mat[:d_in, d_in:d_out], grads[:d_in], grads[d_in:d_out])
            sup = float(g0_operator_norms(model, pts, tensor).max())
            want.append(sup / inner.mu_top ** (model.dim + 2))
        np.testing.assert_allclose(tail_defect(field, windows, pts), want, rtol=1e-12, atol=0.0)

    def test_streamed_defect_holds_no_block(self):
        # the acceptance tail_torus top pair: the 1,257 x 2,521 block (25 MB)
        # is never formed, nor are the gradients or a strip of it; what is
        # held is the FFT table and, per chunk of offsets, (offsets, lattice)
        # integer arrays
        inner, outer = basis_for(TORUS, 400), basis_for(TORUS, 800)
        pts, _ = quadrature_grid(TORUS, 10)
        field = scalar_field("exp:0.3cos(x1)", TORUS)
        _, peak = traced_peak(lambda: tail_defect(field, [(inner, outer)], pts))
        assert peak <= 0.1 * 8 * inner.dim * outer.dim


class TestLeadingBlocks:
    """A sweep slices one top-window assembly: its leading blocks are the windows."""

    @pytest.mark.parametrize("model, source, cutoffs", [
        (TORUS, SymbolField("mix", TORUS, _mix), (25, 50, 100, 200)),
        (TORUS, hilb_symbol(metric_field("aniso-diag:0.3,0.3", TORUS)), (25, 50, 100, 200)),
        (TORUS, dhilb_symbol(metric_field("aniso-diag:0.3,0.3", TORUS),
                             perturbation_field("cos-x1-dx1", TORUS)), (25, 50, 200)),
        (TORUS, EXP_MIXED, (9, 25, 100, 200)),
        (CIRCLE, EXP_COS, (8, 16, 32, 64)),
        (SPHERE, scalar_field("1+0.5x3sq", SPHERE), (5, 10, 20, 40)),
    ], ids=["kn-mix", "kn-hilb", "kn-dhilb", "torus-mult", "circle-mult", "sphere-mult"])
    def test_leading_block_is_own_window_assembly(self, model, source, cutoffs):
        big = basis_for(model, cutoffs[-1])
        top = operators.assemble(source, big)
        for cutoff in cutoffs[:-1]:
            basis = basis_for(model, cutoff)
            d = basis.dim
            np.testing.assert_array_equal(big.freqs[:d], basis.freqs)
            own = operators.assemble(source, basis)
            # the FFT grid, angle count or sphere grid of the larger window
            # moves the entries by round-off only
            assert np.abs(top[:d, :d] - own).max() <= 1e-13 * np.abs(own).max(), cutoff


class TestDiagonalOperators:
    """A diagonal operator is a 1-D array: each consumer gives what the dense
    matrix of the same diagonal gives on the general path."""

    G0, COS_X1_DX1 = metric_field("g0", TORUS), perturbation_field("cos-x1-dx1", TORUS)

    @pytest.mark.parametrize("source", [symbol_field("xi1sq", TORUS), hilb_symbol(G0)],
                             ids=["xi1sq", "hilb-g0"])
    def test_positivity_repair(self, source):
        vec = operators.assemble(source, basis_for(TORUS, 100))
        assert vec.ndim == 1
        spd, shift = positivity_repair(vec)
        dense_spd, dense_shift = positivity_repair(np.diag(vec))
        assert shift == dense_shift
        np.testing.assert_array_equal(np.diag(spd), dense_spd)

    def test_symbol_law_check(self):
        source = symbol_field("xi1sq", TORUS)
        vec = operators.assemble(source, basis_for(TORUS, 100))
        pts = quadrature_grid(TORUS, 16)[0]
        law = symbol_law_predict(source, TORUS, pts)
        for cutoff in (25, 100):
            basis = basis_for(TORUS, cutoff)
            assert (symbol_law_check(vec, basis, law, pts)
                    == symbol_law_check(np.diag(vec), basis, law, pts))

    def test_hilb_approximate(self):
        r = hilb.hilb_n(self.G0, basis_for(TORUS, 100))
        pts, _ = quadrature_grid(TORUS, 16)
        for cutoff in (25, 100):
            basis = basis_for(TORUS, cutoff)
            fld, shift = hilb.approximate(r, basis, pts)
            dense_fld, dense_shift = hilb.approximate(np.diag(r), basis, pts)
            assert shift == dense_shift
            np.testing.assert_array_equal(fld, dense_fld)

    def test_induced_norm_trace(self):
        # the dense R is LU-solved where the diagonal divides: equal to round-off
        r, rdot = metspace.trace_operators(self.G0, self.COS_X1_DX1, basis_for(TORUS, 100))
        for cutoff in (25, 100):
            basis = basis_for(TORUS, cutoff)
            assert metspace.induced_norm_trace(r, rdot, basis) == pytest.approx(
                metspace.induced_norm_trace(np.diag(r), rdot, basis), rel=1e-14)

    @pytest.mark.parametrize("names", [["one"], ["xi1sq", "exp:0.3cos(x1)"],
                                       ["xi1sq", "cos(x1)", "cos(x1)"]])
    def test_szego_trace(self, names, monkeypatch):
        fields = [symbol_field(n, TORUS) if "(" not in n else scalar_field(n, TORUS) for n in names]
        top, quad = basis_for(TORUS, 100), cosphere_quadrature(TORUS, 16, 16)
        windows = [basis_for(TORUS, c) for c in (25, 100)]
        trace = metspace.szego_trace(fields, top, quad)
        got = [trace(b) for b in windows]
        assemble = metspace.assemble

        def dense_assemble(source, basis):
            mat = assemble(source, basis)
            return np.diag(mat) if mat.ndim == 1 else mat

        monkeypatch.setattr(metspace, "assemble", dense_assemble)
        dense = metspace.szego_trace(fields, top, quad)
        assert got == [dense(b) for b in windows]

    @pytest.mark.parametrize("mu2", [25, 100, 400])
    def test_kohn_nirenberg_is_the_symmetrized_gather(self, mu2, monkeypatch):
        # symmetrized in place, strip by strip: exactly (G + G^T) / 2 of the
        # gathered matrix G, at dimensions 81, 317 and 1257, none a whole
        # number of strips
        basis = basis_for(TORUS, mu2)
        assert basis.dim % operators._STRIP != 0
        seen, collect = [], operators._collect

        def spy(*args, **kwargs):
            out = collect(*args, **kwargs)
            seen.append(out.copy())
            return out

        monkeypatch.setattr(operators, "_collect", spy)
        got = assemble_kohn_nirenberg(SymbolField("mix", TORUS, _mix), basis)
        [gathered] = seen
        np.testing.assert_array_equal(got, got.T)
        np.testing.assert_array_equal(got, 0.5 * (gathered + gathered.T))
