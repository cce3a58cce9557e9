"""In-memory span tracer for one bergman-lab command, and its aggregation.

``Tracer.install`` wraps each function in ``LAYERS`` and rebinds the wrapper
in every ``bergman_lab.*`` module namespace that holds the original object:
modules import functions by name (``hilb`` keeps its own reference to
``assemble_kohn_nirenberg``, ``metspace`` to ``assemble``), so patching only
the defining module would miss calls.  Spans stay in memory; the worker
writes them out when the command ends.

``summarize`` turns a list of spans into per-layer metrics.  It imports
nothing from the program, so run.py can use it too.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
import time
from collections import defaultdict

# Layer -> traced public functions.  ``presets`` and ``errors`` are on no hot
# path; the ``numerics`` matrix wrappers count in the self time of their
# callers (mostly ``positivity_repair``).
LAYERS = {
    "manifolds": ("eval_basis", "normalized_legendre", "basis_for", "geodesic_flow_sphere"),
    "operators": (
        "assemble_kohn_nirenberg",
        "assemble_multiplication",
        "positivity_repair",
        "tail_defect",
        "symbol_law_predict",
    ),
    "bergman": ("dd_kernel", "_contract"),
    "hilb": ("hilb_n",),
    "metspace": ("induced_norm_trace", "induced_norm_closed", "szego_trace"),
    "sphereband": ("band_dd", "band_predict", "cumulative_band_sum"),
    "fields": ("g0_operator_norms",),
    "cli": ("run_parallel",),
}

ROOT = "cli.main"
TASK = "cli.run_parallel.task"

# Span layout, as written to JSON: [id, parent id or None, name, t0, t1, attrs]
ID, PARENT, NAME, T0, T1, ATTRS = range(6)


def _primitive(k0: int, k1: int) -> tuple[int, int]:
    g = math.gcd(abs(k0), abs(k1)) or 1
    return (k0 // g, k1 // g)


def _eval_basis_attrs(args, kwargs) -> dict:
    import numpy as np

    basis = args[0] if args else kwargs["basis"]
    points = args[1] if len(args) > 1 else kwargs["points"]
    return {"d": int(basis.dim), "p": int(np.atleast_2d(np.asarray(points)).shape[0])}


def _kn_attrs(args, kwargs) -> dict:
    """FFT tables the per-direction assembly builds, computed from the basis.

    One table per primitive direction of the complex frequencies (+k for cos
    slots, -k for sin slots) plus one for the fiber average at k = 0; none
    for an x-independent symbol, which is assembled on the diagonal.
    """
    symbol = args[0] if args else kwargs["symbol"]
    basis = args[1] if len(args) > 1 else kwargs["basis"]
    if getattr(symbol, "x_independent", False):
        return {"fft_tables": 0}
    keys = set()
    for kind, (k0, k1) in zip(basis.kinds.tolist(), basis.freqs.tolist()):
        if kind == 0:
            keys.add((0, 0))
        else:
            keys.add(_primitive(k0, k1) if kind == 1 else _primitive(-k0, -k1))
    return {"fft_tables": len(keys)}


ATTR_FNS = {
    "manifolds.eval_basis": _eval_basis_attrs,
    "operators.assemble_kohn_nirenberg": _kn_attrs,
}


class Tracer:
    """Records spans of traced calls; each span knows the span that caused it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args=(), kwargs=None, parent=None):
        """Run fn(*args, **kwargs) inside a span called ``name``."""
        kwargs = kwargs or {}
        attr_fn = ATTR_FNS.get(name)
        attrs = attr_fn(args, kwargs) if attr_fn else None
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append([sid, parent, name, t0, t1, attrs])

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced

    def _wrap_run_parallel(self, fn):
        """Give each task its own span whose parent is the pool span.

        Tasks may run on pool threads whose span stacks are empty, so the
        parent is passed explicitly; the concurrency metric needs it.
        """

        @functools.wraps(fn)
        def traced(tasks, threads):
            def run(tasks, threads):
                pool_id = self._stack()[-1]
                wrapped = [
                    functools.partial(self.call, TASK, t, (), None, pool_id) for t in tasks
                ]
                return fn(wrapped, threads)

            return self.call("cli.run_parallel", run, (tasks, threads))

        return traced

    def install(self) -> None:
        """Wrap every traced function and rebind it wherever it is imported."""
        modules = [
            m for n, m in sys.modules.items()
            if m is not None and (n == "bergman_lab" or n.startswith("bergman_lab."))
        ]
        for layer, names in LAYERS.items():
            home = sys.modules[f"bergman_lab.{layer}"]
            for fname in names:
                orig = getattr(home, fname)
                if fname == "run_parallel":
                    wrapper = self._wrap_run_parallel(orig)
                else:
                    wrapper = self._wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


# Per-layer metrics the traced run reports.  ``calls`` is kept only where an
# optimization is expected to change it (sweep reuse, fewer basis builds).
LAYER_METRICS = (
    "manifolds.eval_basis.self_s",
    "manifolds.eval_basis.calls",
    "manifolds.eval_basis.entries",
    "manifolds.normalized_legendre.self_s",
    "manifolds.basis_for.self_s",
    "manifolds.basis_for.calls",
    "manifolds.geodesic_flow_sphere.self_s",
    "manifolds.geodesic_flow_sphere.calls",
    "operators.assemble_kohn_nirenberg.self_s",
    "operators.assemble_kohn_nirenberg.calls",
    "operators.assemble_kohn_nirenberg.fft_tables",
    "operators.assemble_multiplication.self_s",
    "operators.assemble_multiplication.calls",
    "operators.assemble_multiplication.gflop",
    "operators.positivity_repair.self_s",
    "operators.positivity_repair.calls",
    "operators.tail_defect.self_s",
    "operators.symbol_law_predict.self_s",
    "bergman.dd_kernel.self_s",
    "bergman._contract.self_s",
    "hilb.hilb_n.self_s",
    "metspace.induced_norm_trace.self_s",
    "metspace.induced_norm_closed.self_s",
    "metspace.szego_trace.self_s",
    "sphereband.band_dd.self_s",
    "sphereband.band_predict.self_s",
    "sphereband.cumulative_band_sum.self_s",
    "fields.g0_operator_norms.self_s",
    "cli.run_parallel.self_s",
    "cli.run_parallel.concurrency",
)


def _per_function(spans: list[list]) -> dict[str, float]:
    """Self time, call count and computed work of every traced function.

    Self time is a span's duration minus the part of it that its child spans
    cover.  ``assemble_multiplication.gflop`` is 2 d^2 P from the values
    table its child ``eval_basis`` call built.  ``run_parallel.concurrency``
    is task span time over pool span time.
    """
    children = defaultdict(list)
    for s in spans:
        children[s[PARENT]].append(s)
    out: dict[str, float] = defaultdict(float)
    task_s = pool_s = 0.0
    for s in spans:
        name, dur = s[NAME], s[T1] - s[T0]
        if name == ROOT:
            continue
        if name == TASK:
            task_s += dur
            continue
        if name == "cli.run_parallel":
            pool_s += dur
        kids = children.get(s[ID], [])
        out[f"{name}.self_s"] += dur - _covered([(k[T0], k[T1]) for k in kids], s[T0], s[T1])
        out[f"{name}.calls"] += 1
        attrs = s[ATTRS] or {}
        if name == "manifolds.eval_basis":
            out[f"{name}.entries"] += attrs["d"] * attrs["p"]
        elif name == "operators.assemble_kohn_nirenberg":
            out[f"{name}.fft_tables"] += attrs["fft_tables"]
        elif name == "operators.assemble_multiplication":
            for k in kids:
                if k[NAME] == "manifolds.eval_basis":
                    d, p = k[ATTRS]["d"], k[ATTRS]["p"]
                    out[f"{name}.gflop"] += 2.0 * d * d * p / 1e9
    out["cli.run_parallel.concurrency"] = task_s / pool_s if pool_s > 0 else 0.0
    return out


def summarize(spans: list[list]) -> dict[str, float]:
    """The ``LAYER_METRICS`` of the given spans; absent layers read 0.

    Spans of several commands may be passed together if their ids are
    distinct.
    """
    per_fn = _per_function(spans)
    return {name: per_fn.get(name, 0.0) for name in LAYER_METRICS}


def root_time(spans: list[list]) -> float:
    """Duration of the command's root span (the traced ``cli.main`` call)."""
    return sum(s[T1] - s[T0] for s in spans if s[NAME] == ROOT)


def self_time_total(spans: list[list]) -> float:
    """Sum of self times of all traced functions below the root span."""
    return sum(v for k, v in _per_function(spans).items() if k.endswith(".self_s"))
