"""The numeric input rule, and exception types that carry diagnostic payloads.

Every number a public constructor or formula takes goes through
``check_number`` (a finite real within optional bounds), ``check_integer``
(an integer within optional bounds) or, for arrays, ``check_each``. They
reject bools, non-numbers, NaN and infinity with a ValueError that names
the input, and never convert, so a checked value keeps its type and all
arithmetic on it stays as it was. The config reader turns that error into
a ConfigError naming ``section.key``; the CLI turns either into exit 2,
as it does ``finite_result``'s error for a result past the float range.
"""
from __future__ import annotations

import math
from numbers import Integral, Real

import numpy as np


def _bounds(gt, ge, lt, le) -> str:
    """The bounds as text, e.g. " >= 0 and < 0.5"; empty when unbounded."""
    parts = [f"{op} {bound}" for op, bound in
             ((">", gt), (">=", ge), ("<", lt), ("<=", le)) if bound is not None]
    return " " + " and ".join(parts) if parts else ""


def _within(value, gt, ge, lt, le):
    """Whether ``value`` meets every bound given; element-wise for arrays."""
    return ((gt is None or value > gt) & (ge is None or value >= ge)
            & (lt is None or value < lt) & (le is None or value <= le))


def _is_finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def check_number(name: str, value, *, gt=None, ge=None, lt=None, le=None):
    """``value`` itself when it is a finite real number within the bounds.

    Raises ValueError naming ``name`` for a bool, a non-number, NaN,
    infinity (or an integer too large for a float) and for a value outside
    ``gt < value``, ``ge <= value``, ``value < lt`` or ``value <= le``.
    """
    if (isinstance(value, bool) or not isinstance(value, Real)
            or not _is_finite(value) or not _within(value, gt, ge, lt, le)):
        raise ValueError(f"{name} must be a finite number"
                         f"{_bounds(gt, ge, lt, le)}, got {value!r}")
    return value


def check_integer(name: str, value, *, ge=None, le=None):
    """``value`` itself when it is an integer (not a bool) within the bounds.

    Raises ValueError naming ``name`` otherwise; a float such as 2.0 is
    not an integer.
    """
    if (isinstance(value, bool) or not isinstance(value, Integral)
            or not _within(value, None, ge, None, le)):
        raise ValueError(f"{name} must be an integer"
                         f"{_bounds(None, ge, None, le)}, got {value!r}")
    return value


def finite_result(what: str, formula, **inputs) -> float:
    """``formula()`` if finite, else a ValueError naming ``what`` and the
    ``inputs``: past the float range a float ``**`` raises OverflowError,
    a product gives inf, and a divisor that underflows raises
    ZeroDivisionError."""
    try:
        value = formula()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not _is_finite(value):
        named = ", ".join(f"{key}={arg!r}" for key, arg in inputs.items())
        raise ValueError(f"{what} exceeds the float range at {named}")
    return value


def check_each(name: str, values, *, gt=None, ge=None, lt=None,
               le=None) -> None:
    """``check_number`` on every element, each named like ``name[i, j]``.

    A float array is screened in one vectorized pass of the same rule and
    only the elements it flags are boxed, as Python floats, and checked
    one by one; other input, such as a list that may hold bools or
    strings, is checked element by element.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind == "f":
        flagged = ~(np.isfinite(values) & _within(values, gt, ge, lt, le))
        items = ((index, values[index].item())
                 for index in map(tuple, np.argwhere(flagged)))
    else:
        boxed = np.asarray(values, dtype=object)
        items = ((index, boxed[index]) for index in np.ndindex(boxed.shape))
    for index, value in items:
        check_number(f"{name}[{', '.join(map(str, index))}]", value,
                     gt=gt, ge=ge, lt=lt, le=le)


class DisconnectedGraphError(ValueError):
    """Raised when a graph is too fragmented for a path-length measurement.

    Carries the coverage of the largest component and the sorted component
    sizes so the caller can see how the graph fell apart.
    """

    def __init__(self, coverage: float, component_sizes: list[int]):
        self.coverage = coverage
        self.component_sizes = component_sizes
        head = ", ".join(str(s) for s in component_sizes[:8])
        more = ", ..." if len(component_sizes) > 8 else ""
        super().__init__(
            f"largest component covers {coverage:.1%} of nodes (need >= 90%); "
            f"component sizes: [{head}{more}]"
        )


class EventQueueOverflowError(RuntimeError):
    """Raised when a simulation exceeds its event budget.

    Identifies the parameters that drive the event rate so runaway regimes
    can be diagnosed instead of hanging.
    """

    def __init__(self, max_events: int, coupling_strength: float,
                 refractory_fraction: float):
        self.max_events = max_events
        self.coupling_strength = coupling_strength
        self.refractory_fraction = refractory_fraction
        super().__init__(
            f"event queue exceeded {max_events} events; likely runaway regime "
            f"(coupling_strength={coupling_strength}, "
            f"refractory_fraction={refractory_fraction})"
        )


class ConfigError(ValueError):
    """Raised for malformed or unknown experiment-config content."""
