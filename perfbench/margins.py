"""Check margins taken from the CLI's own ``check PASS:`` / ``check FAIL:`` line.

The headroom of a check is (threshold - value) / threshold: 1 means the
value is far below its threshold, 0 means it sits on it, below 0 means the
check failed.  Value and threshold are parsed from the printed line, so
they carry the line's rounding (for example ``4.58%`` against ``5%``).

Three lines print no threshold of the plain ``value vs threshold`` form:

- ``isometry`` prints ``fitted F vs T (E%)``: the value is E, the fit's
  relative error, and the threshold is ``--tol`` from the argv or, without
  it, the CLI's default of 5% for this command.
- ``sphere-cumulative`` prints the error list and ``halving tol H``: the
  check requires each error to be at most H times the one before, so the
  value is the largest ratio of consecutive errors and the threshold is H.
- ``gradient-check`` prints ``error ratio R in [LO, HI]``: the value is R,
  the threshold is whichever end of the interval is nearer, and the
  headroom is the smaller of (R - LO) / LO and (HI - R) / HI.
"""

from __future__ import annotations

import re

NUM = r"([-+0-9.eE]+%?)"

ISOMETRY_DEFAULT_TOL = 0.05


def _num(text: str) -> float:
    text = text.strip()
    if text.endswith("%"):
        return float(text[:-1]) / 100.0
    return float(text)


def _list(text: str) -> list[float]:
    return [_num(s) for s in text.split(",") if s.strip()]


def _vs(value: float, threshold: float) -> dict:
    return {"value": value, "threshold": threshold, "headroom": (threshold - value) / threshold}


def _isometry(m, argv):
    tol = _num(argv[argv.index("--tol") + 1]) if "--tol" in argv else ISOMETRY_DEFAULT_TOL
    return _vs(_num(m.group(1)), tol)


def _cumulative(m, argv):
    errs, tol = _list(m.group(1)), _num(m.group(2))
    return _vs(max(b / a for a, b in zip(errs, errs[1:])), tol)


def _interval(m, argv):
    r, lo, hi = (_num(g) for g in m.groups())
    near = lo if (r - lo) / lo <= (hi - r) / hi else hi
    return {"value": r, "threshold": near, "headroom": min((r - lo) / lo, (hi - r) / hi)}


# Lines of the plain form "<what> VALUE vs THRESHOLD".
PLAIN = (
    r"max deviation", r"final err", r"defect ratio last/first", r"final sup err",
    r"final \|trace-closed\|/closed", r"final \|ratio-1\|",
)

# (pattern matched at the start of the detail text, extractor)
RULES = [
    (rf"(?:{'|'.join(PLAIN)}) {NUM} vs {NUM}(?:,|$)", lambda m, a: _vs(_num(m[1]), _num(m[2]))),
    (rf"fitted \S+ vs \S+ \({NUM}\)$", _isometry),
    (rf"errors \[(.*)\] vs {NUM}$", lambda m, a: _vs(_list(m[1])[-1], _num(m[2]))),
    (rf"errors \[(.*)\], halving tol {NUM}$", _cumulative),
    (rf"error ratio {NUM} in \[{NUM}, {NUM}\]$", _interval),
]
RULES = [(re.compile(p), fn) for p, fn in RULES]


def parse_check(stdout: str, argv: list[str]) -> dict | None:
    """Verdict and margin of the command's check line, or None if it has none."""
    for line in stdout.splitlines():
        m = re.match(r"check (PASS|FAIL): (.*)$", line)
        if not m:
            continue
        ok, detail = m[1] == "PASS", m[2]
        for pattern, extract in RULES:
            hit = pattern.match(detail)
            if hit:
                return {"ok": ok, "detail": detail, **extract(hit, argv)}
        raise ValueError(f"unrecognised check line: {line!r}")
    return None
