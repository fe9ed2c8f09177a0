"""Growth-law fitting for the scaling experiments.

The paper's headline claims are *asymptotic* (awake complexity O(log log n)
versus the O(log n) of the baselines), so the experiment reports do not try
to match absolute constants; instead each measured series ``(n, value)`` is
fitted — by least squares over the scale ``a * f(n) + b`` — against the
candidate growth laws the paper distinguishes, and the report states which
law fits best.  That is the "shape" comparison of DESIGN.md §3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Sequence

#: Candidate growth laws, in increasing order of growth.
GROWTH_LAWS: Dict[str, Callable[[float], float]] = {
    "constant": lambda n: 1.0,
    "loglog(n)": lambda n: math.log2(max(2.0, math.log2(max(2.0, n)))),
    "log(n)": lambda n: math.log2(max(2.0, n)),
    "log^2(n)": lambda n: math.log2(max(2.0, n)) ** 2,
    "sqrt(n)": lambda n: math.sqrt(n),
    "n": lambda n: float(n),
}


@dataclass(frozen=True)
class Fit:
    """Least-squares fit of one growth law to a series."""

    law: str
    scale: float
    offset: float
    residual: float
    r_squared: float


def fit_law(ns: Sequence[float], values: Sequence[float],
            law: str) -> Fit:
    """Fit ``value ~ scale * law(n) + offset`` by least squares."""
    if law not in GROWTH_LAWS:
        raise KeyError(f"unknown growth law '{law}'; known: {sorted(GROWTH_LAWS)}")
    if len(ns) != len(values) or len(ns) < 2:
        raise ValueError("need at least two (n, value) points of equal length")
    xs = [GROWTH_LAWS[law](float(n)) for n in ns]
    ys = [float(v) for v in values]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    var_x = sum((x - mean_x) ** 2 for x in xs)
    if var_x == 0:
        scale = 0.0
        offset = mean_y
    else:
        scale = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / var_x
        offset = mean_y - scale * mean_x
    residual = sum((y - (scale * x + offset)) ** 2 for x, y in zip(xs, ys))
    total = sum((y - mean_y) ** 2 for y in ys)
    r_squared = 1.0 if total == 0 else max(0.0, 1.0 - residual / total)
    return Fit(law=law, scale=scale, offset=offset, residual=residual,
               r_squared=r_squared)


def best_fit(ns: Sequence[float], values: Sequence[float],
             laws: Sequence[str] = ("constant", "loglog(n)", "log(n)", "n"),
             ) -> Fit:
    """Return the candidate law with the smallest residual.

    Non-negative ``scale`` is required for a law to be considered (a
    *decreasing* fit against a growing law is meaningless for complexity
    curves); if every candidate has negative scale the flattest law wins.
    """
    fits = [fit_law(ns, values, law) for law in laws]
    valid = [f for f in fits if f.scale >= 0]
    pool = valid if valid else fits
    return min(pool, key=lambda f: f.residual)


def growth_ratio(ns: Sequence[float], values: Sequence[float]) -> float:
    """Return ``value[last] / value[first]`` (1.0 when the first is zero).

    A quick, fit-free indicator of how much a measured quantity grows while
    ``n`` spans the sweep; the comparison tables print it next to the best
    fit.
    """
    if not values:
        return 1.0
    first, last = float(values[0]), float(values[-1])
    if first == 0:
        return 1.0
    return last / first


def fit_report(ns: Sequence[float], values: Sequence[float]) -> Dict[str, object]:
    """Convenience: best fit + growth ratio as a flat dictionary."""
    fit = best_fit(ns, values)
    return {
        "best_law": fit.law,
        "scale": round(fit.scale, 3),
        "offset": round(fit.offset, 3),
        "r_squared": round(fit.r_squared, 4),
        "growth_ratio": round(growth_ratio(ns, values), 3),
    }
