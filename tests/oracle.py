"""Verification oracles for the optimizers.

:func:`brute_force_argmax` is the exact-rate argmax by brute force: a
uniform grid scan of the exact rate (never the series) followed by a
golden-section refinement.  It never uses the stationarity condition
that :mod:`omnidris.optimize` solves, so the tests compare the
optimizers against it.  :func:`vector_rate` is the rate profile it scans,
over an array of element counts.

One exact reference per quantity, found in ``decimal`` arithmetic from the
float inputs taken exactly, to at least 50 digits: :func:`decimal_rate`, the
rate f(n); :func:`decimal_optimal_load`, x*(c), the load at the exact
fixed-count optimum, and :func:`decimal_t_star`, its value t* at c = 0;
:func:`decimal_argmax`, the exact argmax, the root of the rate's slope; and
:func:`decimal_cubic_root`, the largest root of the paper's stationarity cubic.
:func:`ulps_from` measures a float's distance to such a value in ULP.
:func:`load_law` is the exact stationarity as one float function of the load.

:func:`implied_alpha` inverts a published rate for the alpha that gives it.
"""
from __future__ import annotations

import decimal
import functools
import math
from typing import NamedTuple

import numpy as np

from omnidris.rate import LN2, ReducedParams, rate_total

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

#: The contract of :func:`omnidris.rate.rate_total`: its distance to :func:`decimal_rate`, in ULP.
#: The largest measured is 4.02, over 200,000 draws of the rate tests' strategies (seeds 1 and 2).
RATE_ULPS = 5.0


def vector_rate(red: ReducedParams, ns, absorbing) -> np.ndarray:
    """``xi (n - theta) log2(alpha/(n^2 psi) + 1)`` at each count in ``ns``, 0 if none is active.

    ``absorbing`` is an absorbing mode or a plain count.  One numpy
    expression over :func:`brute_force_argmax`'s grid; it never warns.
    """
    values = np.asarray(ns, dtype=float)
    theta = absorbing.theta_at(values) if hasattr(absorbing, "theta_at") else float(absorbing)
    active = values - theta
    rate = red.xi * active * np.log1p(red.alpha / (red.psi * values * values)) / LN2
    return np.where(active > 0.0, rate, 0.0)


def implied_alpha(psi: float, xi: float, n: float, active: float, rate_bps: float) -> float:
    """The alpha at which ``n`` elements, ``active`` of them active, reach ``rate_bps``.

    Inverts ``R = 2 xi zeta log2(1 + alpha/(psi N^2))``, the reduced rate under
    the W*L*M = 2 xi prefactor that the published peaks match:
    ``alpha = psi N^2 (2^(R/(2 xi zeta)) - 1)``.
    """
    return psi * n * n * (2.0 ** (rate_bps / (2.0 * xi * active)) - 1.0)


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
    profile = vector_rate(profile_params, xs, absorbing)
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


def load_law(c: float, x: float) -> float:
    """``F(x) = (1 + x) ln(1 + x)/(2x) + c sqrt(x)``, the exact fixed-count stationarity in the load.

    With ``x = alpha/(psi n^2)`` and ``c = theta sqrt(psi/alpha)``, the exact
    rate rises exactly where ``F(x) > 1``: the optimum's load solves ``F = 1``.
    """
    return (1.0 + x) * math.log1p(x) / (2.0 * x) + c * math.sqrt(x)


def decimal_rate(red: ReducedParams, n: float, theta: float, digits: int = 50) -> decimal.Decimal:
    """``xi (n - theta) log2(1 + alpha/(psi n^2))`` to ``digits`` digits, or 0 where ``n <= theta``.

    From the float inputs taken exactly; ``theta`` is the absorbing count at
    ``n`` as a float, an absorbing rule's ``theta_at(n)``.  The working precision
    exceeds ``digits`` by 10 plus the leading zeros of a small load, so that
    ``ln(1 + x)`` keeps its relative precision.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits + 10
        alpha, psi, xi, n, theta = map(decimal.Decimal, (red.alpha, red.psi, red.xi, n, theta))
        if n <= theta:
            return decimal.Decimal(0)
        x = alpha / (psi * n * n)
        ctx.prec += max(0, -x.adjusted())
        return xi * (n - theta) * (1 + x).ln() / decimal.Decimal(2).ln()


@functools.lru_cache(maxsize=1024)  # c = 0, t*, comes up again and again
def decimal_optimal_load(c, digits: int = 50) -> decimal.Decimal:
    """x*(c), the root of the load law ``F(x) = (1 + x) ln(1 + x)/(2x) + c sqrt(x) = 1``.

    To ``digits`` significant digits, with ``c`` (a float or a ``Decimal``) taken
    exactly.  Newton's method starts from ``min(4, 1/(4c^2))``, where ``F >= 1``:
    F rises and is concave, so the first step lands left of the root and the
    rest rise onto it.  The working precision exceeds ``digits`` by 10 plus the
    leading zeros of a small load, so that ``ln(1 + x)`` keeps its relative precision.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits + 10
        c = decimal.Decimal(c)
        x = 1 / (4 * c * c) if 16 * c * c > 1 else decimal.Decimal(4)
        ctx.prec += max(0, -x.adjusted())
        for _ in range(200):
            log, root = (1 + x).ln(), x.sqrt()
            step = ((1 + x) * log / (2 * x) + c * root - 1) / (
                (x - log) / (2 * x * x) + c / (2 * root))
            x -= step
            if abs(step) <= x.scaleb(-digits - 5):
                return x
    raise ArithmeticError(f"no convergence for c = {c}")


def decimal_t_star(digits: int = 50) -> decimal.Decimal:
    """t*, the root of ``ln(1 + t) = 2t/(1 + t)``: the load law at ``c = 0``."""
    return decimal_optimal_load(0, digits)


def decimal_argmax(red: ReducedParams, theta: float, digits: int = 50) -> decimal.Decimal:
    """The root of ``g(n) = ln(1 + x) - 2 (1 - theta/n) x/(1 + x)``, with ``x = alpha/(psi n^2)``.

    The root where the fixed-count rate stops rising, to ``digits`` significant
    digits, from the float inputs taken exactly: ``sqrt(alpha/(psi x*))`` with x*
    the :func:`decimal_optimal_load` of ``c = theta sqrt(psi/alpha)``.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits + 10
        alpha, psi, theta = (decimal.Decimal(value) for value in (red.alpha, red.psi, theta))
        return (alpha / (psi * decimal_optimal_load(theta * (psi / alpha).sqrt(), digits))).sqrt()


def decimal_cubic_root(red: ReducedParams, theta: float) -> decimal.Decimal:
    """The largest root of the paper's cubic ``2 psi n^3 - 4 psi theta n^2 - 3 alpha n + 4 alpha theta``.

    To 60 digits, by Newton's method from ``2 theta + sqrt(1.5 alpha/psi)``, at or
    above that root: right of it the cubic rises and is convex, so the iterates
    descend onto it.  The coefficients are formed from the exact parameters in
    decimal, so none of them rounds or overflows.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        alpha, psi, theta = (decimal.Decimal(value) for value in (red.alpha, red.psi, theta))
        c3, c2, c1, c0 = 2 * psi, -4 * psi * theta, -3 * alpha, 4 * alpha * theta
        x = 2 * theta + (3 * alpha / (2 * psi)).sqrt()
        for _ in range(200):
            step = (((c3 * x + c2) * x + c1) * x + c0) / ((3 * c3 * x + 2 * c2) * x + c1)
            x -= step
            if abs(step) <= x.scaleb(-55):
                return x
    raise ArithmeticError(f"no convergence for {red}, theta = {theta}")


def ulps_from(value: float, exact: decimal.Decimal) -> float:
    """``|value - exact|`` in units of the last place of ``exact`` rounded to a float."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        return float(abs(decimal.Decimal(value) - exact) / decimal.Decimal(math.ulp(float(exact))))
