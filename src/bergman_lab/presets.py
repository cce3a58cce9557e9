"""Named metrics, perturbations, symbols and test functions for the CLI.

A small expression language covers the scalar fields the experiments need:
sums of terms ``[coef][*]fn(var)`` with fn in {cos, sin}, var in
{x1, x2, theta, phi}, plus constants and the sphere ambient atoms ``x3``
and ``x3sq``.  Examples: ``0.3cos(x1)``, ``cos(theta)``, ``1+0.5x3sq``.
"""

from __future__ import annotations

import re
from typing import Callable

import numpy as np

from .errors import InputError, UnsupportedModelError
from .fields import MetricField, MetricPerturbation, g0_matrices, reference_metric
from .manifolds import ManifoldModel
from .operators import ScalarField, SymbolField

_TRIG_TERM = re.compile(
    r"^([+-]?(?:\d+\.?\d*|\.\d+)?)\*?(cos|sin)\((x1|x2|theta|phi)\)$"
)
_AMBIENT_TERM = re.compile(r"^([+-]?(?:\d+\.?\d*|\.\d+)?)\*?(x3sq|x3)$")
_CONST_TERM = re.compile(r"^([+-]?(?:\d+\.?\d*|\.\d+))$")


def _var_column(var: str, model: ManifoldModel) -> int:
    table = {
        "circle": {"theta": 0},
        "torus2": {"x1": 0, "x2": 1},
        "sphere2": {"theta": 0, "phi": 1},
    }[model.kind]
    if var not in table:
        raise InputError(f"variable {var!r} is not a chart coordinate of {model.kind}")
    return table[var]


def _coef(text: str) -> float:
    if text in ("", "+"):
        return 1.0
    if text == "-":
        return -1.0
    return float(text)


def parse_scalar_expr(expr: str, model: ManifoldModel) -> Callable[[np.ndarray], np.ndarray]:
    """Compile a scalar expression into a vectorized chart-point evaluator."""
    text = expr.replace(" ", "")
    if not text:
        raise InputError("empty scalar expression")
    # split on '+' and on '-' that starts a new term
    text = text.replace("+-", "-").replace("-", "+-")
    terms = [t for t in text.split("+") if t]
    compiled = []
    for term in terms:
        m = _TRIG_TERM.match(term)
        if m:
            coef, fn, var = _coef(m.group(1)), m.group(2), m.group(3)
            col = _var_column(var, model)
            trig = np.cos if fn == "cos" else np.sin
            compiled.append(lambda p, c=coef, t=trig, j=col: c * t(p[:, j]))
            continue
        m = _AMBIENT_TERM.match(term)
        if m:
            if model.kind != "sphere2":
                raise InputError("ambient coordinate x3 is a sphere expression")
            coef, atom = _coef(m.group(1)), m.group(2)
            power = 2 if atom == "x3sq" else 1
            compiled.append(lambda p, c=coef, q=power: c * np.cos(p[:, 0]) ** q)
            continue
        m = _CONST_TERM.match(term)
        if m:
            compiled.append(lambda p, c=float(m.group(1)): np.full(p.shape[0], c))
            continue
        raise InputError(f"cannot parse scalar term {term!r} in {expr!r}")

    def fn(points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        total = np.zeros(pts.shape[0])
        for piece in compiled:
            total = total + piece(pts)
        return total

    return fn


def scalar_field(spec: str, model: ManifoldModel) -> ScalarField:
    """Resolve a named scalar preset or inline expression."""
    name = spec.strip()
    if name == "one":
        return ScalarField("one", lambda p: np.ones(np.atleast_2d(p).shape[0]))
    if name == "exp-cos-theta":
        return scalar_field("exp:cos(theta)", model)
    if name == "one-plus-half-x3sq":
        return scalar_field("1+0.5x3sq", model)
    if name.startswith("exp:"):
        inner = parse_scalar_expr(name[4:], model)
        return ScalarField(name, lambda p: np.exp(inner(p)))
    return ScalarField(name, parse_scalar_expr(name, model))


def symbol_field(spec: str, model: ManifoldModel) -> SymbolField:
    """Resolve a named symbol preset (order-zero, 0-homogeneous)."""
    name = spec.strip()
    if name == "one":
        return SymbolField("one", model, lambda p: lambda xi: np.ones(p.shape[0]),
                           x_independent=True)
    if name == "xi1sq":
        if model.kind != "torus2":
            raise UnsupportedModelError("symbol xi1sq is a torus preset")
        return SymbolField("xi1sq", model, lambda p: lambda xi: xi[:, 0] ** 2, x_independent=True)
    raise InputError(f"unknown symbol preset {spec!r}")


def metric_field(spec: str, model: ManifoldModel) -> MetricField:
    """Resolve a metric preset: g0, conformal:u=<expr>, aniso-diag:<a>,<b>."""
    name = spec.strip()
    if name == "g0":
        return reference_metric(model)
    if name.startswith("conformal:u="):
        u = parse_scalar_expr(name[len("conformal:u="):], model)

        def matrices(p: np.ndarray) -> np.ndarray:
            pts = np.atleast_2d(p)
            return np.exp(u(pts))[:, None, None] * g0_matrices(model, pts)

        return MetricField(name, model, matrices, conformal_u=u)
    if name.startswith("aniso-diag:"):
        if model.kind != "torus2":
            raise UnsupportedModelError("aniso-diag is a torus preset")
        try:
            a, b = (float(s) for s in name[len("aniso-diag:"):].split(","))
        except ValueError:
            raise InputError(f"bad aniso-diag spec {spec!r}; expected aniso-diag:e1,e2")

        def matrices(p: np.ndarray) -> np.ndarray:
            pts = np.atleast_2d(p)
            out = np.zeros((pts.shape[0], 2, 2))
            out[:, 0, 0] = np.exp(a * np.cos(pts[:, 0]))
            out[:, 1, 1] = np.exp(b * np.cos(pts[:, 1]))
            return out

        return MetricField(name, model, matrices)
    raise InputError(f"unknown metric preset {spec!r}")


def perturbation_field(spec: str, model: ManifoldModel) -> MetricPerturbation:
    """Resolve a tangent-vector preset: cos-theta, cos-x1-dx1, conf:<expr>."""
    name = spec.strip()
    if name == "cos-theta":
        if model.dim != 1:
            raise UnsupportedModelError("cos-theta is the circle perturbation preset")
        return MetricPerturbation(
            name, model, lambda p: np.cos(np.atleast_2d(p)[:, 0])[:, None, None]
        )
    if name == "cos-x1-dx1":
        if model.kind != "torus2":
            raise UnsupportedModelError("cos-x1-dx1 is a torus preset")

        def matrices(p: np.ndarray) -> np.ndarray:
            pts = np.atleast_2d(p)
            out = np.zeros((pts.shape[0], 2, 2))
            out[:, 0, 0] = np.cos(pts[:, 0])
            return out

        return MetricPerturbation(name, model, matrices)
    if name.startswith("conf:"):
        u = parse_scalar_expr(name[len("conf:"):], model)

        def matrices(p: np.ndarray) -> np.ndarray:
            pts = np.atleast_2d(p)
            return u(pts)[:, None, None] * g0_matrices(model, pts)

        return MetricPerturbation(name, model, matrices)
    raise InputError(f"unknown perturbation preset {spec!r}")


PRESET_HELP = """\
metrics (--metric)
  g0                      the reference metric of the model
  conformal:u=<expr>      e^u g0, e.g. conformal:u=0.3cos(x1) or conformal:u=cos(theta)
  aniso-diag:e1,e2        torus diag(e^{e1 cos x1}, e^{e2 cos x2}), e.g. aniso-diag:0.3,0.3

perturbations (--gdot)
  cos-theta               circle: cos(theta) dtheta^2
  cos-x1-dx1              torus: cos(x1) dx1 (x) dx1
  conf:<expr>             <expr> * g0

scalar fields (--f, --a, --b entries)
  one                     the constant 1
  exp-cos-theta           e^{cos theta} (circle)
  exp:<expr>              e^{<expr>}, e.g. exp:0.3cos(x1)
  one-plus-half-x3sq      sphere test function 1 + x3^2/2 (x3 = cos theta)
  x3                      sphere ambient coordinate x3
  <expr>                  sums of [coef]cos|sin(x1|x2|theta|phi), constants, x3, x3sq

symbols (--symbol, --b entries)
  one                     b = 1
  xi1sq                   torus Fourier multiplier xi_1^2 / |xi|^2
"""
