"""Exception types shared across the library."""


class InputError(ValueError):
    """Malformed or out-of-domain input (non-finite entries, bad sizes)."""


class ChartError(ValueError):
    """A point falls outside the coordinate chart (e.g. sphere poles)."""


class UnsupportedModelError(ValueError):
    """The requested (model, operation) combination is not implemented."""


class ResolutionError(RuntimeError):
    """A quadrature grid is too coarse for the requested assembly."""
