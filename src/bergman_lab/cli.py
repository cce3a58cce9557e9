"""bergman-lab: named experiments over the spectral models, emitted as CSV.

Every command writes a deterministic CSV table (header row, fixed column
order, 17 significant digits, LF line endings) so reruns are byte-identical
regardless of --threads.  With --check the command also evaluates its
acceptance threshold and exits 2 on failure; input errors and running out
of memory exit 1.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from typing import Optional

import numpy as np

from . import bergman, hilb, metspace, sphereband
from .errors import ChartError, InputError, ResolutionError, UnsupportedModelError
from .fields import MetricField, relative_errors
from .manifolds import (
    _torus_half_lattice,
    basis_for,
    cosphere_quadrature,
    eval_basis,
    model_by_name,
    quadrature_grid,
)
from .operators import assemble, symbol_law_check, symbol_law_predict, tail_defect
from .presets import (
    PRESET_HELP,
    metric_field,
    perturbation_field,
    scalar_field,
    symbol_field,
)

CLIError = (InputError, UnsupportedModelError, ResolutionError, ChartError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are input errors -> exit 1
        raise InputError(message)


def _format_value(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def write_csv(header: list[str], rows: list[tuple], out: Optional[str]) -> None:
    """The table as CSV to ``out`` or stdout; a non-finite cell is an input error, and
    nothing is written."""
    for row in rows:
        for name, v in zip(header, row):
            if not isinstance(v, (int, np.integer)) and not math.isfinite(v):
                raise InputError(f"column {name!r} holds the non-finite value {float(v)}")
    lines = [",".join(header)]
    lines += [",".join(_format_value(v) for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if out:
        try:
            with open(out, "w", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {out!r}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def run_parallel(tasks, threads: int) -> list:
    """Run the thunks in order in the calling thread; ``threads`` changes nothing.

    Every sweep is this serial loop.  The name and signature stay because
    ``perfbench/spans.py`` traces ``cli.run_parallel(tasks, threads)`` by name.
    """
    return [t() for t in tasks]


def trend_ok(errs, factor: float = 1.10) -> bool:
    """Non-increasing over the last three entries, one <=10% uptick allowed."""
    tail = [e for e in errs][-3:]
    upticks = 0
    for prev, cur in zip(tail, tail[1:]):
        if cur > prev * factor:
            return False
        if cur > prev:
            upticks += 1
    return upticks <= 1


def _parse_int_list(text: str) -> list[int]:
    try:
        values = [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise InputError(f"expected a comma-separated integer list, got {text!r}")
    if not values:
        raise InputError("empty sweep list")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise InputError("sweep values must be strictly increasing")
    return values


def _sweep_column(model) -> str:
    return "mu2" if model.kind == "torus2" else "n"


def _default_grid(model) -> int:
    return {"circle": 128, "torus2": 16, "sphere2": 12}[model.kind]


# --- command implementations -------------------------------------------------
#
# Each command takes the resolved argparse namespace and the --model manifold
# and returns (header, rows, check): check is None or (ok, value, detail), where
# value is the number the verdict compares with ns.tol (set by main from COMMANDS).
# Any other flag left unset is None and the command supplies its default with _opt.

def _opt(value, default):
    """The flag's value when it was given, else the command's default."""
    return default if value is None else value


def sweep_values(ns: argparse.Namespace, default=None) -> list:
    """The sweep, increasing; its last value is the top window.

    Level 0 has mu = 0, which the sweeps divide by, so the sweep starts at 1.
    """
    sweep = _opt(ns.sweep, default)
    if not sweep:
        raise InputError(
            "no sweep given: use --n for circle/sphere levels or --mu2 for torus cutoffs"
        )
    if sweep[0] < 1:
        raise InputError("sweep values must be at least 1 (level 0 has mu = 0)")
    return sweep


def map_sweep(ns: argparse.Namespace, point, default=None) -> list:
    """``point(c)`` for every sweep value c, in sweep order."""
    sweep = sweep_values(ns, default)
    return run_parallel([functools.partial(point, c) for c in sweep], ns.threads)


def _top_window(ns, model):
    """Basis of the sweep's top window, which the sweep slices."""
    return basis_for(model, sweep_values(ns)[-1])


def cmd_spectra(ns, model):
    freqs = basis_for(model, _opt(ns.sweep, [10])[-1]).freqs
    # each entry's integer eigenvalue, read from its frequencies: l(l+1) or |k|^2
    l = freqs[:, 0]
    q = l * (l + 1) if model.kind == "sphere2" else (freqs * freqs).sum(axis=1)
    mu_sq, mult = np.unique(q, return_counts=True)
    rows = list(zip(range(len(mu_sq)), mu_sq, mult, np.cumsum(mult)))
    return ["level", "mu_sq", "multiplicity", "dim_cum"], rows, None


def _max_deviation(ns, deviations):
    worst = max(deviations)
    return worst <= ns.tol, worst, f"max deviation {worst:.3e} vs {ns.tol:.0e}"


def cmd_takahashi(ns, model):
    pts, _ = quadrature_grid(model, _opt(ns.grid, 12))
    rows = map_sweep(
        ns, lambda n: (n, *sphereband.takahashi_check(n, points=pts)), default=list(range(1, 11))
    )
    return ["n", "c_n", "deviation"], rows, _max_deviation(ns, [r[2] for r in rows])


def cmd_isometry(ns, model):
    if ns.sweep and len(ns.sweep) < 3:
        raise InputError("isometry fit needs at least 3 sweep values")
    pts, _ = quadrature_grid(model, _opt(ns.grid, _default_grid(model)))
    _, grads = eval_basis(_top_window(ns, model), pts)
    pairs = map_sweep(ns, lambda c: bergman.isometry_measurement(model, c, pts, grads))
    mus, measured = np.array(pairs).T
    n = model.dim
    fitted = bergman.fit_growth(mus, measured, n)
    theory = bergman.isometry_theory_coefficient(model)
    fit_rel = abs(fitted - theory) / theory
    rows = []
    for cutoff, mu, m in zip(ns.sweep, mus, measured):
        coeff = m / mu ** (n + 2)
        rows.append((cutoff, mu, coeff, theory, abs(coeff - theory) / theory))
    header = [_sweep_column(model), "mu", "measured_coeff", "theory_coeff", "rel_err"]
    return header, rows, (fit_rel <= ns.tol, fit_rel,
                          f"fitted {fitted:.6g} vs {theory:.6g} ({fit_rel:.2%})")


def _bergman_source(ns, model):
    if (ns.f is None) == (ns.symbol is None):
        raise InputError("give exactly one of --f (multiplication) or --symbol")
    if ns.f is not None:
        return scalar_field(ns.f, model)
    return symbol_field(ns.symbol, model)


def cmd_bergman(ns, model):
    source = _bergman_source(ns, model)
    if model.dim == 2 and ns.fiber < 16:
        raise InputError("fiber resolution must be at least 16")
    top = _top_window(ns, model)
    pts, _ = quadrature_grid(model, _opt(ns.grid, _default_grid(model)))
    law = symbol_law_predict(source, model, pts, ns.fiber)
    grads, mat = eval_basis(top, pts)[1], assemble(source, top)
    rows = map_sweep(ns, lambda c: (c, *symbol_law_check(mat, basis_for(model, c), law, pts,
                                                          grads)))
    errs = [r[2] for r in rows]
    ok = errs[-1] <= ns.tol and trend_ok(errs)
    header = [_sweep_column(model), "mu", "rel_err", "pd_shift"]
    return header, rows, (ok, errs[-1], f"final err {errs[-1]:.2%} vs {ns.tol:.0%}, trend {errs}")


def cmd_tail_defect(ns, model):
    f = scalar_field(ns.f, model)
    pts, _ = quadrature_grid(model, _opt(ns.grid, _default_grid(model)))
    sweep = sweep_values(ns)
    inners = [basis_for(model, c) for c in sweep]
    defects = tail_defect(f, [(b, basis_for(model, 2 * c)) for c, b in zip(sweep, inners)], pts)
    rows = [(c, b.mu_top, d) for c, b, d in zip(sweep, inners, defects)]
    ratio = rows[-1][2] / rows[0][2]
    detail = f"defect ratio last/first {ratio:.3f} vs {ns.tol}"
    return [_sweep_column(model), "mu", "defect"], rows, (ratio <= ns.tol, ratio, detail)


def cmd_hilb_approx(ns, model):
    g = metric_field(ns.metric, model)
    pts, w = quadrature_grid(model, _opt(ns.grid, _default_grid(model)))
    top = _top_window(ns, model)
    grads, r = eval_basis(top, pts)[1], hilb.hilb_n(g, top)

    def one(c):
        fld, shift = hilb.approximate(r, basis_for(model, c), pts, grads)
        sup, l2 = relative_errors(pts, fld, g, w)
        return (c, sup, l2, shift)

    rows = map_sweep(ns, one)
    sups = [r[1] for r in rows]
    ok = sups[-1] <= ns.tol and trend_ok(sups)
    header = [_sweep_column(model), "sup_rel_err", "l2_rel_err", "pd_shift"]
    return header, rows, (ok, sups[-1], f"final sup err {sups[-1]:.2%} vs {ns.tol:.0%}")


def _cosphere(ns, model):
    return cosphere_quadrature(model, _opt(ns.grid, 256 if model.dim == 1 else 32), ns.fiber)


def cmd_met_norm(ns, model):
    g = metric_field(_opt(ns.metric, "g0"), model)
    gdot = perturbation_field(ns.gdot, model)
    top = _top_window(ns, model)
    closed = metspace.induced_norm_closed(g, gdot, _cosphere(ns, model))
    r, rdot = metspace.trace_operators(g, gdot, top)

    def one(c):
        tr = metspace.induced_norm_trace(r, rdot, basis_for(model, c))
        return (c, tr, closed, tr / closed)

    rows = map_sweep(ns, one)
    gap = abs(rows[-1][1] - closed) / closed
    gaps = [abs(r[1] - closed) for r in rows]
    converging = gap <= 1e-9 or trend_ok(gaps)  # sub-noise gaps count as converged
    ok = gap <= ns.tol and converging
    header = [_sweep_column(model), "trace_norm", "closed_form", "ratio"]
    return header, rows, (ok, gap, f"final |trace-closed|/closed {gap:.2%} vs {ns.tol:.0%}")


def _szego_sources(ns, model):
    """One field per --b entry; a name given twice is the same field object."""
    # no field name contains ';' or ',', so either one separates the fields
    if ";" in ns.b and "," in ns.b:
        raise InputError(f"--b {ns.b!r} mixes ';' and ',': separate the fields with one of them")
    names = ns.b.split(";" if ";" in ns.b else ",")
    if not all(s.strip() for s in names):
        raise InputError(f"--b {ns.b!r} has an empty field entry")
    fields = {}
    for name in names:
        if name not in fields:
            try:
                fields[name] = symbol_field(name, model)
            except InputError:
                fields[name] = scalar_field(name, model)
    return [fields[name] for name in names]


def cmd_szego(ns, model):
    trace = metspace.szego_trace(_szego_sources(ns, model), _top_window(ns, model),
                                 _cosphere(ns, model))
    rows = map_sweep(ns, lambda c: (c, *trace(basis_for(model, c))))
    gap = abs(rows[-1][3] - 1.0)
    header = [_sweep_column(model), "measured", "predicted", "ratio"]
    return header, rows, (gap <= ns.tol, gap, f"final |ratio-1| {gap:.2%} vs {ns.tol:.0%}")


def _sphere_field(ns, model):
    return scalar_field(_opt(ns.a, "one-plus-half-x3sq"), model)


def cmd_sphere_band(ns, model):
    """Band errors; a flow integral at most 1e-12 of its bound (2 pi)^2 max |a| is round-off."""
    a = _sphere_field(ns, model)
    sweep = sweep_values(ns)
    if sweep[0] + ns.k < 1:  # band_dd refuses both too, after the flow integral
        raise InputError("band degrees must be at least 1")
    basis_for(model, sweep[-1] + max(ns.k, 0))  # the lattice bound of the top degree
    pts, _ = quadrature_grid(model, _opt(ns.grid, 10))
    # the flow integral does not depend on the degree: one per command
    integral = sphereband.flow_integral(a, ns.k, pts, ns.fiber, ns.tnodes)
    if np.abs(integral).max() <= 1e-12 * (2 * math.pi) ** 2 * np.abs(a.values(pts)).max():
        raise InputError(f"field {a.name!r} has no band at k = {ns.k}: its integral is round-off")
    rows = map_sweep(ns, lambda n: (n, ns.k, sphereband.sphere_band_check(
        a, n, ns.k, pts, integral)))
    errs = [r[2] for r in rows]
    ok = max(errs) <= ns.tol
    if ns.k == 0 and len(errs) >= 2:
        ok = ok and errs[-1] <= 0.7 * errs[0]
    return ["n", "k", "rel_err"], rows, (ok, max(errs), f"errors {errs} vs {ns.tol}")


def cmd_sphere_cumulative(ns, model):
    a = _sphere_field(ns, model)
    sweep = sweep_values(ns)
    windows = [basis_for(model, n) for n in sweep]
    pts, _ = quadrature_grid(model, _opt(ns.grid, 10))
    law = symbol_law_predict(a, model, pts, ns.fiber)
    # one pass over the top window's strips serves every window: no pool
    errs = sphereband.cumulative_band_sum(a, windows, law, pts)
    rows = list(zip(sweep, errs))
    ratio = max((b / a_ for a_, b in zip(errs, errs[1:])), default=0.0)
    return ["n", "rel_err"], rows, (ratio <= ns.tol, ratio, f"errors {errs}, halving tol {ns.tol}")


def cmd_exact_pullback(ns, model):
    """dd(I) against the closed-form lattice/trigonometric sums, exactly."""
    pts, _ = quadrature_grid(model, _opt(ns.grid, _default_grid(model)))
    _, grads = eval_basis(_top_window(ns, model), pts)

    def closed_form(cutoff: int) -> np.ndarray:
        if model.kind == "circle":
            return np.array([[cutoff * (cutoff + 1) * (2 * cutoff + 1) / (6 * math.pi)]])
        acc = np.zeros((2, 2))
        # lexicographic (k1, k2) order: out/exact_torus.csv holds rel_dev for this sum
        for a, b in sorted(_torus_half_lattice(cutoff).tolist()):
            k = np.array([a, b], dtype=float)
            acc += np.outer(k, k) / (2 * math.pi**2)
        return acc

    def one(cutoff):
        want = closed_form(cutoff)
        fld = bergman.dd_kernel(None, basis_for(model, cutoff), pts, grads)
        dev = np.abs(fld - want).max() / np.abs(want).max()
        return (cutoff, float(dev))

    rows = map_sweep(ns, one)
    header = [_sweep_column(model), "rel_dev"]
    return header, rows, _max_deviation(ns, [r[1] for r in rows])


def cmd_gradient_check(ns, model):
    """Variation symbol against central differences: second-order in eps."""
    torus = model.kind == "torus2"
    g = metric_field(_opt(ns.metric, "aniso-diag:0.3,0.2" if torus
                          else "conformal:u=cos(theta)"), model)
    gdot = perturbation_field(_opt(ns.gdot, "cos-x1-dx1" if torus else "cos-theta"), model)
    sym = metspace.dhilb_symbol(g, gdot, trace_sign=-1)
    if model.dim == 1:
        pts = np.array([[0.7], [2.1], [4.4]])
        xi = np.ones((3, 1))
    else:
        pts = np.array([[0.7, 1.9], [3.1, 0.2], [5.0, 4.4]])
        xi = np.array([[0.8, 0.6]] * 3)
    exact = sym.values(pts, xi)
    rows = []
    for eps in (1e-3, 1e-4):
        gp = MetricField(f"{g.name}+{eps:g}*{gdot.name}", model,
                         lambda p, e=eps: g.matrix_fn(p) + e * gdot.matrix_fn(p))
        gm = MetricField(f"{g.name}-{eps:g}*{gdot.name}", model,
                         lambda p, e=eps: g.matrix_fn(p) - e * gdot.matrix_fn(p))
        fd = (hilb.hilb_symbol(gp).values(pts, xi)
              - hilb.hilb_symbol(gm).values(pts, xi)) / (2 * eps)
        rows.append((eps, float(np.abs(fd - exact).max())))
    scale = float(np.abs(exact).max())
    if rows[0][1] <= 1e-9 * scale:
        # the symbol is linear in g here (circle), so differences are exact
        return ["eps", "max_abs_err"], rows, (True, None, "derivative exact to rounding")
    ratio = rows[0][1] / rows[1][1]
    ok = 50.0 <= ratio <= 200.0  # a fixed band: the command has no --tol
    return ["eps", "max_abs_err"], rows, (ok, ratio, f"error ratio {ratio:.1f} in [50, 200]")


def cmd_list_presets(ns, model):
    sys.stdout.write(PRESET_HELP)
    return None, None, None


# name -> (function, models it runs on, flags it needs, default --tol or None if it has no
# threshold). A command runs on its first model by default; main refuses another model, an
# unset or empty needed flag, or a --tol it has no threshold for, before any work.
_ALL, _FLAT = ("circle", "torus2", "sphere2"), ("circle", "torus2")
COMMANDS = {
    "spectra": (cmd_spectra, _ALL, (), None),
    "exact-pullback": (cmd_exact_pullback, _FLAT, (), 1e-10),
    "takahashi": (cmd_takahashi, ("sphere2",), (), 1e-8),
    "isometry": (cmd_isometry, _ALL, (), 0.05),
    "bergman": (cmd_bergman, _ALL, (), 0.10),
    "tail-defect": (cmd_tail_defect, _ALL, ("f",), 0.20),
    "hilb-approx": (cmd_hilb_approx, _ALL, ("metric",),
                    lambda ns: 0.05 if ns.model == "circle" else 0.10),
    "met-norm": (cmd_met_norm, _FLAT, ("gdot",), 0.10),
    "szego": (cmd_szego, _FLAT, ("b",), 0.05),
    "sphere-band": (cmd_sphere_band, ("sphere2",), (), lambda ns: 0.10 if ns.k == 0 else 0.15),
    "sphere-cumulative": (cmd_sphere_cumulative, ("sphere2",), (), 0.7),
    "gradient-check": (cmd_gradient_check, _FLAT, (), None),
    "list-presets": (cmd_list_presets, _ALL, (), None),
}


def build_parser() -> _Parser:
    """One parser for every command: the command name and one shared flag set.

    A flag may come before or after the command name.
    """
    p = _Parser(prog="bergman-lab", description=__doc__)
    p.add_argument("command", choices=list(COMMANDS))
    p.add_argument("--model", choices=_CHOICES["model"])
    p.add_argument("--n", help="comma-separated level sweep (circle/sphere)")
    p.add_argument("--mu2", help="comma-separated mu^2 cutoffs (torus)")
    p.add_argument("--grid", type=int, help="base grid resolution")
    p.add_argument("--fiber", type=int, help="cosphere fiber nodes")
    p.add_argument("--tnodes", type=int, help="geodesic t nodes")
    p.add_argument("--metric", help="metric preset (see list-presets)")
    p.add_argument("--gdot", help="perturbation preset")
    p.add_argument("--f", help="multiplication field preset/expression")
    p.add_argument("--symbol", help="symbol preset")
    p.add_argument("--b", help="comma-separated fields for szego products")
    p.add_argument("--a", help="sphere test function")
    p.add_argument("--k", type=int, help="band offset")
    p.add_argument("--quantization", choices=_CHOICES["quantization"], help="has no effect")
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.add_argument("--threads", type=int)
    p.add_argument("--check", action="store_true", default=None,
                   help="evaluate the command's acceptance threshold")
    p.add_argument("--tol", type=float, help="override the check threshold")
    p.add_argument("--config", help="key = value config file; flags win")
    return p


def _parse_bool(text: str) -> bool:
    value = text.lower()
    if value in ("1", "true", "yes"):
        return True
    if value in ("0", "false", "no"):
        return False
    raise ValueError(text)


_CONFIG_TYPES = {
    "grid": int, "fiber": int, "tnodes": int, "k": int, "threads": int,
    "tol": float, "check": _parse_bool,
}
# The values of the flags with a fixed set, on the command line and in the config file
_CHOICES = {"model": _ALL, "quantization": ("left", "symmetric")}


# Values of the flags the command line and the config file leave unset
_DEFAULTS = {"fiber": 64, "tnodes": 64, "k": 0, "check": False, "threads": 1}


def _apply_config_file(ns: argparse.Namespace) -> None:
    """Set each flag not given on the command line from its key in the file."""
    if not ns.config:
        return
    if not os.path.exists(ns.config):
        raise InputError(f"config file {ns.config!r} not found")
    try:
        with open(ns.config, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else f"not UTF-8 ({exc.reason})"
        raise InputError(f"cannot read config file {ns.config!r}: {reason}") from None
    seen = set()
    for line_no, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{ns.config}:{line_no}: expected key = value")
        key, value = (s.strip() for s in line.split("=", 1))
        key = key.replace("-", "_")
        if key in ("command", "config") or not hasattr(ns, key):
            raise InputError(f"{ns.config}:{line_no}: unknown key {key!r}")
        if key in seen:
            raise InputError(f"{ns.config}:{line_no}: repeated key {key!r}")
        seen.add(key)
        if getattr(ns, key) is not None:
            continue  # a flag given on the command line wins
        try:
            parsed = _CONFIG_TYPES.get(key, str)(value)
            if key in _CHOICES and parsed not in _CHOICES[key]:
                raise ValueError(value)
        except ValueError:
            raise InputError(
                f"{ns.config}:{line_no}: bad value {value!r} for {key!r}"
            ) from None
        setattr(ns, key, parsed)


def resolve_config(ns: argparse.Namespace):
    """Apply the config file and the defaults, parse the sweep and check the thread count.

    Sets ``ns.sweep`` (None when neither --n nor --mu2 is given); a flag not
    on the command line takes the file's value, else ``_DEFAULTS``, and the
    model the command's first model.
    """
    _apply_config_file(ns)
    ns.model = _opt(ns.model, COMMANDS[ns.command][1][0])
    for key, value in _DEFAULTS.items():
        if getattr(ns, key) is None:
            setattr(ns, key, value)
    ns.sweep = None
    if ns.mu2 and ns.n:
        raise InputError("give --n or --mu2, not both")
    if ns.mu2:
        if ns.model != "torus2":
            raise InputError("--mu2 is the torus sweep flag; use --n")
        ns.sweep = _parse_int_list(ns.mu2)
    elif ns.n:
        if ns.model == "torus2":
            raise InputError("torus sweeps use --mu2")
        ns.sweep = _parse_int_list(ns.n)
    if ns.threads < 1:
        raise InputError("thread count must be at least 1")
    return ns


def main(argv=None) -> int:
    try:
        ns = resolve_config(build_parser().parse_args(argv))
        run, models, needs, tol = COMMANDS[ns.command]
        if ns.model not in models:
            raise UnsupportedModelError(f"{ns.command} runs on {' or '.join(models)}")
        for flag in needs:
            if not getattr(ns, flag):
                raise InputError(f"{ns.command} needs --{flag}")
        if tol is None and ns.tol is not None:
            raise InputError(f"{ns.command} has no threshold for --tol to set")
        ns.tol = _opt(ns.tol, tol(ns) if callable(tol) else tol)
        header, rows, check = run(ns, model_by_name(ns.model))
        if header is not None:
            write_csv(header, rows, ns.out)
        if ns.check and check is not None:
            ok, _, detail = check
            stream = sys.stderr if ns.out is None else sys.stdout
            stream.write(f"check {'PASS' if ok else 'FAIL'}: {detail}\n")
            if not ok:
                return 2
        return 0
    except CLIError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except MemoryError as exc:  # e.g. a --grid far beyond the machine
        sys.stderr.write(f"error: out of memory: {str(exc) or 'allocation failed'}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
