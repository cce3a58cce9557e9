"""bergman-lab: named experiments over the spectral models, emitted as CSV.

Every command writes a deterministic CSV table (header row, fixed column
order, 17 significant digits, LF line endings) so reruns are byte-identical
regardless of thread count.  With --check the command also evaluates its
acceptance threshold and exits 2 on failure; input errors exit 1.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import bergman, hilb, metspace, sphereband
from .errors import (
    ChartError,
    GridMismatchError,
    InputError,
    NotSPDError,
    ResolutionError,
    UnsupportedModelError,
)
from .fields import relative_errors
from .manifolds import (
    _torus_half_lattice,
    basis_for,
    cosphere_quadrature,
    enumerate_levels,
    model_by_name,
    quadrature_grid,
)
from .operators import tail_defect, symbol_law_check
from .presets import (
    PRESET_HELP,
    metric_field,
    perturbation_field,
    scalar_field,
    symbol_field,
)

THREADS_ENV = "BERGMAN_LAB_THREADS"

CLIError = (
    InputError,
    UnsupportedModelError,
    ResolutionError,
    NotSPDError,
    ChartError,
    GridMismatchError,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are input errors -> exit 1
        raise InputError(message)


@dataclass
class ExperimentConfig:
    """Resolved run configuration for one command."""

    command: str
    model_name: str = "circle"
    sweep: list = field(default_factory=list)
    grid: Optional[int] = None
    fiber: int = 64
    tnodes: int = 64
    metric: Optional[str] = None
    gdot: Optional[str] = None
    f: Optional[str] = None
    symbol: Optional[str] = None
    b: Optional[str] = None
    a: Optional[str] = None
    k: int = 0
    quantization: str = "left"
    out: Optional[str] = None
    threads: int = 1
    check: bool = False
    tol: Optional[float] = None


def _format_value(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def write_csv(header: list[str], rows: list[tuple], out: Optional[str]) -> None:
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
    """Evaluate independent thunks, merging results in task order."""
    if threads <= 1 or len(tasks) <= 1:
        return [t() for t in tasks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(t) for t in tasks]
        return [f.result() for f in futures]


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


def _sweep(cfg: ExperimentConfig, model) -> list[int]:
    if not cfg.sweep:
        raise InputError(
            "no sweep given: use --n for circle/sphere levels or --mu2 for torus cutoffs"
        )
    return cfg.sweep


def _sweep_column(model) -> str:
    return "mu2" if model.kind == "torus2" else "n"


def _default_grid(model) -> int:
    return {"circle": 128, "torus2": 16, "sphere2": 12}[model.kind]


# --- command implementations -------------------------------------------------

def cmd_spectra(cfg: ExperimentConfig):
    model = model_by_name(cfg.model_name)
    cutoff = cfg.sweep[-1] if cfg.sweep else 10
    levels = enumerate_levels(model, cutoff)
    rows = []
    dim = 0
    for lv in levels:
        dim += lv.multiplicity
        rows.append((lv.index, lv.mu_sq, lv.multiplicity, dim))
    return ["level", "mu_sq", "multiplicity", "dim_cum"], rows, None


def cmd_takahashi(cfg: ExperimentConfig):
    degrees = cfg.sweep or list(range(1, 11))
    grid = cfg.grid or 12
    tasks = [lambda n=n: (n, *sphereband.takahashi_check(n, grid)) for n in degrees]
    rows = run_parallel(tasks, cfg.threads)
    tol = cfg.tol if cfg.tol is not None else 1e-8
    worst = max(r[2] for r in rows)
    ok = worst <= tol
    return ["n", "c_n", "deviation"], rows, (ok, f"max deviation {worst:.3e} vs {tol:.0e}")


def cmd_isometry(cfg: ExperimentConfig):
    model = model_by_name(cfg.model_name)
    sweep = _sweep(cfg, model)
    if len(sweep) < 3:
        raise InputError("isometry fit needs at least 3 sweep values")
    grid = cfg.grid or _default_grid(model)
    tasks = [
        lambda c=c: bergman.isometry_measurement(model, c, grid) for c in sweep
    ]
    pairs = run_parallel(tasks, cfg.threads)
    mus = np.array([p[0] for p in pairs])
    measured = np.array([p[1] for p in pairs])
    n = model.dim
    fitted = bergman.fit_growth(mus, measured, n)
    theory = bergman.isometry_theory_coefficient(model)
    fit_rel = abs(fitted - theory) / theory
    rows = []
    for cutoff, mu, m in zip(sweep, mus, measured):
        coeff = m / mu ** (n + 2)
        rows.append((cutoff, mu, coeff, theory, abs(coeff - theory) / theory))
    tol = cfg.tol if cfg.tol is not None else 0.05
    ok = fit_rel <= tol
    header = [_sweep_column(model), "mu", "measured_coeff", "theory_coeff", "rel_err"]
    return header, rows, (ok, f"fitted {fitted:.6g} vs {theory:.6g} ({fit_rel:.2%})")


def _bergman_source(cfg: ExperimentConfig, model):
    if (cfg.f is None) == (cfg.symbol is None):
        raise InputError("give exactly one of --f (multiplication) or --symbol")
    if cfg.f is not None:
        return scalar_field(cfg.f, model)
    return symbol_field(cfg.symbol, model)


def cmd_bergman(cfg: ExperimentConfig):
    model = model_by_name(cfg.model_name)
    source = _bergman_source(cfg, model)
    sweep = _sweep(cfg, model)
    grid = cfg.grid or _default_grid(model)
    tasks = [
        lambda c=c: symbol_law_check(source, model, [c], grid, cfg.fiber)[0]
        for c in sweep
    ]
    rows = run_parallel(tasks, cfg.threads)
    errs = [r[2] for r in rows]
    tol = cfg.tol if cfg.tol is not None else 0.10
    ok = errs[-1] <= tol and trend_ok(errs)
    header = [_sweep_column(model), "mu", "rel_err", "pd_shift"]
    return header, rows, (ok, f"final err {errs[-1]:.2%} vs {tol:.0%}, trend {errs}")


def cmd_tail_defect(cfg: ExperimentConfig):
    model = model_by_name(cfg.model_name)
    if cfg.f is None:
        raise InputError("tail-defect needs a multiplication field --f")
    f = scalar_field(cfg.f, model)
    sweep = _sweep(cfg, model)
    grid = cfg.grid or _default_grid(model)

    def one(c):
        mu = math.sqrt(basis_for(model, c).levels[-1].mu_sq)
        return (c, mu, tail_defect(f, model, c, 2 * c, grid))

    rows = run_parallel([lambda c=c: one(c) for c in sweep], cfg.threads)
    tol = cfg.tol if cfg.tol is not None else 0.20
    ratio = rows[-1][2] / rows[0][2]
    ok = ratio <= tol
    header = [_sweep_column(model), "mu", "defect"]
    return header, rows, (ok, f"defect ratio last/first {ratio:.3f} vs {tol}")


def cmd_hilb_approx(cfg: ExperimentConfig):
    model = model_by_name(cfg.model_name)
    if cfg.metric is None:
        raise InputError("hilb-approx needs --metric")
    g = metric_field(cfg.metric, model)
    sweep = _sweep(cfg, model)
    grid = cfg.grid or _default_grid(model)
    pts, w = quadrature_grid(model, grid)

    def one(c):
        basis = basis_for(model, c)
        fld, shift = hilb.approximate(g, basis, pts, quantization=cfg.quantization)
        sup, l2 = relative_errors(fld, g, w)
        return (c, sup, l2, shift)

    rows = run_parallel([lambda c=c: one(c) for c in sweep], cfg.threads)
    sups = [r[1] for r in rows]
    tol = cfg.tol if cfg.tol is not None else (0.05 if model.kind == "circle" else 0.10)
    ok = sups[-1] <= tol and trend_ok(sups)
    header = [_sweep_column(model), "sup_rel_err", "l2_rel_err", "pd_shift"]
    return header, rows, (ok, f"final sup err {sups[-1]:.2%} vs {tol:.0%}")


def cmd_met_norm(cfg: ExperimentConfig):
    model = model_by_name(cfg.model_name)
    if cfg.gdot is None:
        raise InputError("met-norm needs --gdot")
    g = metric_field(cfg.metric or "g0", model)
    gdot = perturbation_field(cfg.gdot, model)
    base_res = cfg.grid or (256 if model.dim == 1 else 32)
    closed = metspace.induced_norm_closed(
        g, gdot, cosphere_quadrature(model, base_res, cfg.fiber)
    )
    sweep = _sweep(cfg, model)

    def one(c):
        basis = basis_for(model, c)
        tr = metspace.induced_norm_trace(g, gdot, basis, quantization=cfg.quantization)
        return (c, tr, closed, tr / closed)

    rows = run_parallel([lambda c=c: one(c) for c in sweep], cfg.threads)
    tol = cfg.tol if cfg.tol is not None else 0.10
    gap = abs(rows[-1][1] - closed) / closed
    gaps = [abs(r[1] - closed) for r in rows]
    converging = gap <= 1e-9 or trend_ok(gaps)  # sub-noise gaps count as converged
    ok = gap <= tol and converging
    header = [_sweep_column(model), "trace_norm", "closed_form", "ratio"]
    return header, rows, (ok, f"final |trace-closed|/closed {gap:.2%} vs {tol:.0%}")


def _szego_sources(cfg: ExperimentConfig, model):
    if not cfg.b:
        raise InputError("szego needs --b with 1 to 3 comma-separated fields")
    names = [s for s in cfg.b.split(";") if s] if ";" in cfg.b else [
        s for s in cfg.b.split(",") if s
    ]
    # expressions may contain commas only inside presets we know are comma-free
    sources = []
    for name in names:
        try:
            sources.append(symbol_field(name, model))
        except InputError:
            sources.append(scalar_field(name, model))
    return sources


def cmd_szego(cfg: ExperimentConfig):
    model = model_by_name(cfg.model_name)
    if model.kind == "sphere2":
        raise UnsupportedModelError("szego runs on circle or torus2")
    sources = _szego_sources(cfg, model)
    sweep = _sweep(cfg, model)
    base_res = cfg.grid or (256 if model.dim == 1 else 32)
    quad = cosphere_quadrature(model, base_res, cfg.fiber)

    def one(c):
        basis = basis_for(model, c)
        measured, predicted, ratio = metspace.szego_trace(
            sources, basis, quad, quantization=cfg.quantization
        )
        return (c, measured, predicted, ratio)

    rows = run_parallel([lambda c=c: one(c) for c in sweep], cfg.threads)
    tol = cfg.tol if cfg.tol is not None else 0.05
    gap = abs(rows[-1][3] - 1.0)
    ok = gap <= tol
    header = [_sweep_column(model), "measured", "predicted", "ratio"]
    return header, rows, (ok, f"final |ratio-1| {gap:.2%} vs {tol:.0%}")


def cmd_sphere_band(cfg: ExperimentConfig):
    model = model_by_name(cfg.model_name)
    if model.kind != "sphere2":
        raise InputError("sphere-band requires --model sphere2")
    a = scalar_field(cfg.a or "one-plus-half-x3sq", model)
    sweep = _sweep(cfg, model)
    grid = cfg.grid or 10
    tasks = [
        lambda n=n: (n, cfg.k, sphereband.sphere_band_check(
            a, n, cfg.k, grid, cfg.fiber, cfg.tnodes))
        for n in sweep
    ]
    rows = run_parallel(tasks, cfg.threads)
    errs = [r[2] for r in rows]
    tol = cfg.tol if cfg.tol is not None else (0.10 if cfg.k == 0 else 0.15)
    ok = errs[-1] <= tol
    if cfg.k == 0 and len(errs) >= 2:
        ok = ok and errs[-1] <= 0.7 * errs[0]
    return ["n", "k", "rel_err"], rows, (ok, f"errors {errs} vs {tol}")


def cmd_sphere_cumulative(cfg: ExperimentConfig):
    model = model_by_name(cfg.model_name)
    if model.kind != "sphere2":
        raise InputError("sphere-cumulative requires --model sphere2")
    a = scalar_field(cfg.a or "one-plus-half-x3sq", model)
    sweep = _sweep(cfg, model)
    grid = cfg.grid or 10
    tasks = [
        lambda n=n: (n, sphereband.cumulative_band_sum(a, n, grid, cfg.fiber))
        for n in sweep
    ]
    rows = run_parallel(tasks, cfg.threads)
    errs = [r[1] for r in rows]
    ratio_tol = cfg.tol if cfg.tol is not None else 0.7
    ok = all(b <= ratio_tol * a_ for a_, b in zip(errs, errs[1:]))
    return ["n", "rel_err"], rows, (ok, f"errors {errs}, halving tol {ratio_tol}")


def cmd_exact_pullback(cfg: ExperimentConfig):
    """dd(I) against the closed-form lattice/trigonometric sums, exactly."""
    model = model_by_name(cfg.model_name)
    sweep = _sweep(cfg, model)
    grid = cfg.grid or _default_grid(model)
    pts, _ = quadrature_grid(model, grid)

    def closed_form(cutoff: int) -> np.ndarray:
        if model.kind == "circle":
            return np.array([[cutoff * (cutoff + 1) * (2 * cutoff + 1) / (6 * math.pi)]])
        if model.kind == "torus2":
            acc = np.zeros((2, 2))
            for a, b in _torus_half_lattice(cutoff):
                k = np.array([a, b], dtype=float)
                acc += np.outer(k, k) / (2 * math.pi**2)
            return acc
        raise InputError("exact-pullback supports circle and torus2")

    def one(cutoff):
        want = closed_form(cutoff)
        fld = bergman.dd_kernel(None, basis_for(model, cutoff), pts)
        dev = np.abs(fld.values - want).max() / np.abs(want).max()
        return (cutoff, float(dev))

    rows = run_parallel([lambda c=c: one(c) for c in sweep], cfg.threads)
    tol = cfg.tol if cfg.tol is not None else 1e-10
    worst = max(r[1] for r in rows)
    ok = worst <= tol
    header = [_sweep_column(model), "rel_dev"]
    return header, rows, (ok, f"max deviation {worst:.3e} vs {tol:.0e}")


def cmd_gradient_check(cfg: ExperimentConfig):
    """Variation symbol against central differences: second-order in eps."""
    from .fields import MetricField
    from .hilb import hilb_symbol as hsym
    from .metspace import dhilb_symbol

    model = model_by_name(cfg.model_name)
    g = metric_field(cfg.metric or ("aniso-diag:0.3,0.2" if model.kind == "torus2"
                                    else "conformal:u=cos(theta)"), model)
    gdot = perturbation_field(
        cfg.gdot or ("cos-x1-dx1" if model.kind == "torus2" else "cos-theta"), model
    )
    sym = dhilb_symbol(g, gdot, trace_sign=-1)
    if model.dim == 1:
        pts = np.array([[0.7], [2.1], [4.4]])
        xi = np.ones((3, 1))
    else:
        pts = np.array([[0.7, 1.9], [3.1, 0.2], [5.0, 4.4]])
        xi = np.array([[0.8, 0.6]] * 3)
    exact = sym.values(pts, xi)
    rows = []
    for eps in (1e-3, 1e-4):
        gp = MetricField("p", model, lambda p, e=eps: g.matrix_fn(p) + e * gdot.matrix_fn(p))
        gm = MetricField("m", model, lambda p, e=eps: g.matrix_fn(p) - e * gdot.matrix_fn(p))
        fd = (hsym(gp).symbol.values(pts, xi) - hsym(gm).symbol.values(pts, xi)) / (2 * eps)
        rows.append((eps, float(np.abs(fd - exact).max())))
    scale = float(np.abs(exact).max())
    if rows[0][1] <= 1e-9 * scale:
        # the symbol is linear in g here (circle), so differences are exact
        return ["eps", "max_abs_err"], rows, (True, "derivative exact to rounding")
    ratio = rows[0][1] / rows[1][1]
    ok = 50.0 <= ratio <= 200.0
    return ["eps", "max_abs_err"], rows, (ok, f"error ratio {ratio:.1f} in [50, 200]")


def cmd_list_presets(cfg: ExperimentConfig):
    sys.stdout.write(PRESET_HELP)
    return None, None, None


COMMANDS = {
    "spectra": cmd_spectra,
    "exact-pullback": cmd_exact_pullback,
    "takahashi": cmd_takahashi,
    "isometry": cmd_isometry,
    "bergman": cmd_bergman,
    "tail-defect": cmd_tail_defect,
    "hilb-approx": cmd_hilb_approx,
    "met-norm": cmd_met_norm,
    "szego": cmd_szego,
    "sphere-band": cmd_sphere_band,
    "sphere-cumulative": cmd_sphere_cumulative,
    "gradient-check": cmd_gradient_check,
    "list-presets": cmd_list_presets,
}


def build_parser() -> _Parser:
    parser = _Parser(prog="bergman-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--model", default="circle",
                       choices=["circle", "torus2", "sphere2"])
        p.add_argument("--n", help="comma-separated level sweep (circle/sphere)")
        p.add_argument("--mu2", help="comma-separated mu^2 cutoffs (torus)")
        p.add_argument("--grid", type=int, help="base grid resolution")
        p.add_argument("--fiber", type=int, default=64, help="cosphere fiber nodes")
        p.add_argument("--tnodes", type=int, default=64, help="geodesic t nodes")
        p.add_argument("--metric", help="metric preset (see list-presets)")
        p.add_argument("--gdot", help="perturbation preset")
        p.add_argument("--f", help="multiplication field preset/expression")
        p.add_argument("--symbol", help="symbol preset")
        p.add_argument("--b", help="comma-separated fields for szego products")
        p.add_argument("--a", help="sphere test function")
        p.add_argument("--k", type=int, default=0, help="band offset")
        p.add_argument("--quantization", default="left",
                       choices=["left", "symmetric"])
        p.add_argument("--out", help="CSV output path (default stdout)")
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--check", action="store_true",
                       help="evaluate the command's acceptance threshold")
        p.add_argument("--tol", type=float, help="override the check threshold")
        p.add_argument("--config", help="key = value config file; flags win")
    return parser


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


def _apply_config_file(ns: argparse.Namespace, parser_defaults: dict) -> None:
    if not ns.config:
        return
    if not os.path.exists(ns.config):
        raise InputError(f"config file {ns.config!r} not found")
    with open(ns.config) as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InputError(f"{ns.config}:{line_no}: expected key = value")
            key, value = (s.strip() for s in line.split("=", 1))
            key = key.replace("-", "_")
            if not hasattr(ns, key):
                raise InputError(f"{ns.config}:{line_no}: unknown key {key!r}")
            current = getattr(ns, key)
            if current != parser_defaults.get(key):
                continue  # explicit flag wins over the file
            try:
                setattr(ns, key, _CONFIG_TYPES.get(key, str)(value))
            except ValueError:
                raise InputError(
                    f"{ns.config}:{line_no}: bad value {value!r} for {key!r}"
                ) from None


def resolve_config(ns: argparse.Namespace) -> ExperimentConfig:
    defaults = {
        "model": "circle", "n": None, "mu2": None, "grid": None, "fiber": 64,
        "tnodes": 64, "metric": None, "gdot": None, "f": None, "symbol": None,
        "b": None, "a": None, "k": 0, "quantization": "left", "out": None,
        "threads": None, "check": False, "tol": None, "config": None,
    }
    _apply_config_file(ns, defaults)
    sweep: list[int] = []
    if ns.mu2 and ns.n:
        raise InputError("give --n or --mu2, not both")
    if ns.mu2:
        if ns.model != "torus2":
            raise InputError("--mu2 is the torus sweep flag; use --n")
        sweep = _parse_int_list(ns.mu2)
    elif ns.n:
        if ns.model == "torus2":
            raise InputError("torus sweeps use --mu2")
        sweep = _parse_int_list(ns.n)
    threads = ns.threads
    if threads is None:
        raw = os.environ.get(THREADS_ENV, "1")
        try:
            threads = int(raw)
        except ValueError:
            raise InputError(
                f"{THREADS_ENV} must be an integer, got {raw!r}"
            ) from None
    if threads < 1:
        raise InputError("thread count must be at least 1")
    return ExperimentConfig(
        command=ns.command, model_name=ns.model, sweep=sweep, grid=ns.grid,
        fiber=ns.fiber, tnodes=ns.tnodes, metric=ns.metric, gdot=ns.gdot,
        f=ns.f, symbol=ns.symbol, b=ns.b, a=ns.a, k=ns.k,
        quantization=ns.quantization, out=ns.out, threads=threads,
        check=ns.check, tol=ns.tol,
    )


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
        cfg = resolve_config(ns)
        header, rows, check = COMMANDS[cfg.command](cfg)
        if header is not None:
            write_csv(header, rows, cfg.out)
        if cfg.check and check is not None:
            ok, detail = check
            stream = sys.stderr if cfg.out is None else sys.stdout
            stream.write(f"check {'PASS' if ok else 'FAIL'}: {detail}\n")
            if not ok:
                return 2
        return 0
    except CLIError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
