"""Summary statistics and the parent-versus-change decision rule."""
from __future__ import annotations

import math
import statistics


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_iqr(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else math.inf


def tail(values: list[float]) -> tuple[float, int]:
    """(value, percentile) at the highest whole percentile with at least
    ten samples beyond it, by nearest rank.

    Below twenty samples that percentile would fall under the median, so
    the median is reported instead, with percentile 50.
    """
    n = len(values)
    if n < 20:
        return statistics.median(values), 50
    pct = (100 * (n - 10)) // n
    return sorted(values)[math.ceil(pct * n / 100) - 1], pct


def wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change reads strictly better; ties count for neither."""
    return sum((c < p) if better == "lower" else (c > p)
               for p, c in zip(parent, change))


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> str:
    """Classify one metric on one workload from paired runs.

    ``parent[i]`` and ``change[i]`` come from the same pair. The result
    is one of:

    - ``gain``: the change wins at least nine tenths of the pairs (ties
      count for neither) and its median differs from the parent's by
      more than the parent's own quartile spread;
    - ``regression``: the change's median is worse than the parent's by
      more than ``bound`` times the parent's median;
    - ``unresolved``: neither, and the spread of either side's runs is
      wider than ``bound``, unless every change run beats every parent
      run;
    - ``no_change``: otherwise.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of runs per side")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    q1, p_median, q3 = quartiles(parent)
    c_median = quartiles(change)[1]
    worse_by = (c_median - p_median) if better == "lower" else (p_median - c_median)
    if (wins(parent, change, better) >= 0.9 * len(parent) and worse_by < 0
            and -worse_by > q3 - q1):
        return "gain"
    if worse_by > bound * abs(p_median):
        return "regression"
    spread = max(relative_iqr(parent), relative_iqr(change))
    all_better = (max(change) < min(parent) if better == "lower"
                  else min(change) > max(parent))
    if spread > bound and not all_better:
        return "unresolved"
    return "no_change"
