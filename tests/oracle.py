"""Verification oracle for the optimizers: the exact-rate argmax by brute force.

A uniform grid scan of the exact rate (never the series) followed by a
golden-section refinement.  It never uses the stationarity condition
that :mod:`omnidris.optimize` solves, so the tests compare the
optimizers against it.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from omnidris.rate import ReducedParams, rate_total

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


class BruteForceResult(NamedTuple):
    n: float
    f: float
    at_boundary: bool


def _golden_max(fun, lo: float, hi: float, rel_tol: float = 1e-8) -> float:
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc = fun(c)
    fd = fun(d)
    while (hi - lo) > rel_tol * max(1.0, abs(lo), abs(hi)):
        if fc >= fd:  # ties keep the left interval: deterministic, favors small n
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = fun(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = fun(d)
    return 0.5 * (lo + hi)


def brute_force_argmax(
    red: ReducedParams,
    absorbing,
    n_min: float,
    n_max: float,
    grid: int = 100_000,
) -> BruteForceResult:
    """Verification oracle: exact-rate argmax by grid scan + golden section.

    Evaluates the exact rate (never the series) on a uniform grid, then
    refines inside the best bracketing interval to 1e-8 relative.  Grid
    ties resolve to the smallest index.  An argmax on the range edge is
    returned as-is with ``at_boundary`` set.

    All comparisons run on the xi-normalized profile (xi is a common
    factor of the rate), so rate scaling cannot perturb the argmax even at
    the last float bit; the reported value is at full scale.
    """
    if n_min < 1.0:
        raise ValueError(f"n_min must be at least 1, got {n_min}")
    if not n_max > n_min:
        raise ValueError(f"invalid sweep range [{n_min}, {n_max}]")
    if grid < 1000:
        raise ValueError(f"grid must have at least 1000 points, got {grid}")

    profile_params = ReducedParams(red.alpha, red.psi, 1.0)
    xs = np.linspace(n_min, n_max, int(grid))
    profile = rate_total(profile_params, xs, absorbing)
    best = int(np.argmax(profile))
    if best == 0 or best == len(xs) - 1:
        n_best = float(xs[best])
        return BruteForceResult(n_best, rate_total(red, n_best, absorbing), True)

    refined = _golden_max(
        lambda x: rate_total(profile_params, float(x), absorbing),
        float(xs[best - 1]),
        float(xs[best + 1]),
    )
    if profile[best] > rate_total(profile_params, refined, absorbing):
        refined = float(xs[best])  # never return worse than the grid point
    return BruteForceResult(refined, rate_total(red, refined, absorbing), False)
