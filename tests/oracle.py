"""Verification oracles for the optimizers.

:func:`brute_force_argmax` is the exact-rate argmax by brute force: a
uniform grid scan of the exact rate (never the series) followed by a
golden-section refinement.  It never uses the stationarity condition
that :mod:`omnidris.optimize` solves, so the tests compare the
optimizers against it.

:func:`bisection_exact_optimum` and :func:`probe_meaningful_root` are the
earlier, slower forms of the optimizer's exact root (plain bisection on the
slope's sign, :func:`rising`) and cubic root choice (rate-ranked candidates
checked by finite-difference probes of the two-term series), kept as
references for the fast ones.  :func:`load_law` is the same stationarity as
one function of the load, the law that the exact root is solved in.

:func:`decimal_argmax` and :func:`decimal_cubic_root` are exact references:
the root of the exact stationarity and the cubic's root, found in ``decimal``
arithmetic from the float inputs taken exactly, to 50 and 60 digits.
:func:`ulps_from` measures a float's distance to such a value in ULP.

:func:`build_cubic` gives the paper's stationarity cubic as a plain tuple of
coefficients, and :func:`solve_cubic` every real root of a cubic by
Cardano's formula or its trigonometric form: the general solver that
:func:`omnidris.optimize.meaningful_root`'s Newton root is checked against.

:func:`vector_rate` is the reduced rate over an array of element counts,
the numpy form that :func:`omnidris.rate.rate_total` is held bit-equal to.

:func:`implied_alpha` inverts a published rate for the alpha that gives it.
"""
from __future__ import annotations

import decimal
import math
from typing import NamedTuple

import numpy as np

from omnidris.rate import LN2, ReducedParams, f_series, rate_total

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def vector_rate(red: ReducedParams, ns, absorbing) -> np.ndarray:
    """``xi (n - theta) log2(alpha/(n^2 psi) + 1)`` at each count in ``ns``, 0 if none is active.

    ``absorbing`` is an absorbing mode or a plain count.  One numpy
    expression, in the operation order of :func:`rate_total`; it never warns.
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


def rising(red: ReducedParams, theta: float, n: float) -> bool:
    """Whether the exact fixed-count rate rises at ``n``.

    The rate's slope has the sign of ``ln(1 + x) - 2 (1 - theta/n) x/(1 + x)``
    with ``x = alpha/(psi n^2)``: positive just above max(theta, 1) and
    negative for large n.
    """
    x = red.alpha / (red.psi * n * n)
    return math.log1p(x) > 2.0 * (1.0 - theta / n) * x / (1.0 + x)


def bisection_exact_optimum(red: ReducedParams, theta: float) -> tuple[float, bool]:
    """Argmax of the exact fixed-count rate on n >= 1, and whether it is n = 1.

    The bracket doubles ``hi`` until :func:`rising` turns false, then
    bisects to a float where the computed slope is positive and at the next
    float is not.  Near the root that sign flickers over a few ULP, so this
    float is one of several within about 1e-15 relative of the argmax, which
    :func:`decimal_argmax` gives exactly.  Only when theta < 1 can the slope be
    non-positive at one element already; n = 1 is then the optimum.
    """
    lo = max(theta, 1.0)
    if not rising(red, theta, lo):
        return lo, True
    hi = 2.0 * lo
    while rising(red, theta, hi):
        lo, hi = hi, 2.0 * hi
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if rising(red, theta, mid):
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return lo, False


def load_law(c: float, x: float) -> float:
    """``F(x) = (1 + x) ln(1 + x)/(2x) + c sqrt(x)``, the exact fixed-count stationarity in the load.

    With ``x = alpha/(psi n^2)`` and ``c = theta sqrt(psi/alpha)``, :func:`rising`
    holds exactly where ``F(x) > 1``: the optimum's load solves ``F = 1``.
    """
    return (1.0 + x) * math.log1p(x) / (2.0 * x) + c * math.sqrt(x)


def decimal_argmax(red: ReducedParams, theta: float, digits: int = 50) -> decimal.Decimal:
    """The root of ``g(n) = ln(1 + x) - 2 (1 - theta/n) x/(1 + x)``, with ``x = alpha/(psi n^2)``.

    The root where the fixed-count rate stops rising, to ``digits`` significant
    digits, from the float inputs taken exactly.  It solves the load law
    ``F(x) = (1 + x) ln(1 + x)/(2x) + c sqrt(x) = 1`` with ``c = theta sqrt(psi/alpha)``
    by Newton's method from ``min(4, 1/(4c^2))``, where ``F >= 1``: F rises and
    is concave, so the first step lands left of the root and the rest rise onto
    it.  The working precision exceeds ``digits`` by 10 plus the leading zeros of
    a small load, so that ``ln(1 + x)`` keeps its relative precision.  The root
    is then ``sqrt(alpha/(psi x))``.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits + 10
        alpha, psi, theta = (decimal.Decimal(value) for value in (red.alpha, red.psi, theta))
        c = theta * (psi / alpha).sqrt()
        x = 1 / (4 * c * c) if 16 * c * c > 1 else decimal.Decimal(4)
        ctx.prec = digits + 10 + max(0, -x.adjusted())
        for _ in range(200):
            log, root = (1 + x).ln(), x.sqrt()
            step = ((1 + x) * log / (2 * x) + c * root - 1) / (
                (x - log) / (2 * x * x) + c / (2 * root))
            x -= step
            if abs(step) <= x.scaleb(-digits - 5):
                return (alpha / (psi * x)).sqrt()
    raise ArithmeticError(f"no convergence for {red}, theta = {theta}")


def decimal_cubic_root(red: ReducedParams, theta: float, start: float) -> decimal.Decimal:
    """The paper's cubic's root near ``start``: Newton's method to 60 digits.

    The coefficients are formed from the exact parameters in decimal, so
    none of them rounds or overflows as :func:`build_cubic`'s may.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        alpha, psi, theta = (decimal.Decimal(value) for value in (red.alpha, red.psi, theta))
        c3, c2, c1, c0 = 2 * psi, -4 * psi * theta, -3 * alpha, 4 * alpha * theta
        x = decimal.Decimal(start)
        for _ in range(20):
            x -= (((c3 * x + c2) * x + c1) * x + c0) / ((3 * c3 * x + 2 * c2) * x + c1)
        return x


def ulps_from(value: float, exact: decimal.Decimal) -> float:
    """``|value - exact|`` in units of the last place of ``exact`` rounded to a float."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        return float(abs(decimal.Decimal(value) - exact) / decimal.Decimal(math.ulp(float(exact))))


def build_cubic(red: ReducedParams, theta: float) -> tuple[float, float, float, float]:
    """The paper's stationarity cubic ``2 psi n^3 - 4 psi theta n^2 - 3 alpha n + 4 alpha theta``.

    Its coefficients ``(c3, c2, c1, c0)``, formed unscaled: ``2 psi`` times the
    monic cubic that :func:`omnidris.optimize.meaningful_root` solves in scaled
    units, so ``4 alpha theta`` may overflow where that root is finite.
    """
    return (2.0 * red.psi, -4.0 * red.psi * theta, -3.0 * red.alpha, 4.0 * red.alpha * theta)


def _real_cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def solve_cubic(cubic: tuple[float, float, float, float]) -> list[float]:
    """All real roots of the cubic ``(c3, c2, c1, c0)``, ascending, with multiplicity.

    Trigonometric form for the three-real-root case (negative
    discriminant, the casus irreducibilis), real Cardano branch for the
    single-real-root case, plus one Newton polish step per root.

    The monic cubic ``x^3 + b x^2 + c x + d`` is solved for ``u = x / unit``,
    with ``unit`` the power of two at or below the largest of ``|b|``,
    ``sqrt|c|`` and ``cbrt|d|``, so every scaled coefficient is O(1) and
    nothing overflows for finite ``b``, ``c``, ``d``; non-finite ones give
    NaN roots.  Scaling by a power of two is exact, so only rounding inside
    ``**`` can tell the roots apart from those of an unscaled solve.  The
    polish runs on the unscaled cubic and is skipped where it overflows.
    The leading coefficient must be positive.
    """
    c3, c2, c1, c0 = cubic
    if c3 <= 0:
        raise ValueError(f"leading coefficient must be positive, got {c3}")
    b, c, d = c2 / c3, c1 / c3, c0 / c3
    if not math.isfinite(b + c + d):
        return [math.nan] * 3
    unit = math.ldexp(0.5, math.frexp(max(abs(b), math.sqrt(abs(c)), abs(d) ** (1.0 / 3.0)))[1])
    b, c, d = b / unit, c / unit / unit, d / unit / unit / unit
    p = c - b * b / 3.0
    q = 2.0 * b**3 / 27.0 - b * c / 3.0 + d
    shift = -b / 3.0

    half_q_sq = (q / 2.0) ** 2
    third_p_cu = (p / 3.0) ** 3
    disc = half_q_sq + third_p_cu
    scale = max(half_q_sq, abs(third_p_cu))

    if scale == 0.0:
        roots = [shift, shift, shift]
    elif disc > 1e-14 * scale:
        s = math.sqrt(disc)
        u = _real_cbrt(-q / 2.0 + s) + _real_cbrt(-q / 2.0 - s)
        roots = [u + shift]
    elif disc < -1e-14 * scale:
        amplitude = 2.0 * math.sqrt(-p / 3.0)
        arg = 3.0 * q / (p * amplitude)
        phase = math.acos(min(1.0, max(-1.0, arg))) / 3.0
        roots = [
            amplitude * math.cos(phase - 2.0 * math.pi * k / 3.0) + shift
            for k in range(3)
        ]
    else:
        # borderline double root: simple root 3q/p, double root -3q/(2p)
        single = 3.0 * q / p + shift
        double = -3.0 * q / (2.0 * p) + shift
        roots = [single, double, double]

    polished = []
    for u in roots:
        x = u * unit
        # one Newton step; skipped where unstable (double roots)
        slope = (3.0 * c3 * x + 2.0 * c2) * x + c1
        if slope != 0.0:
            step = (((c3 * x + c2) * x + c1) * x + c0) / slope
            if math.isfinite(step) and abs(step) <= 1e-2 * (1.0 + abs(x)):
                x -= step
        polished.append(x)
    return sorted(polished)


def probe_meaningful_root(roots: list[float], red: ReducedParams, theta: float) -> float | None:
    """Pick the root that is the usable rate maximum, or None if none is.

    Candidates must exceed the absorbing count and be at least 1; among
    them the one with the largest exact rate wins, provided a central
    finite-difference probe (step 1e-6 * n) of the two-term series shows a
    derivative sign change from + to - across it.  The probe compares the
    two series values rather than dividing their difference by 2h, which
    underflows to 0 for a root as large as 2e200.
    """
    candidates = [root for root in roots if root > theta and root >= 1.0]
    candidates.sort(key=lambda root: rate_total(red, root, theta), reverse=True)
    for root in candidates:
        h = 1e-6 * root

        def rises(x: float) -> bool:
            return f_series(red, x + h, theta, 2) > f_series(red, x - h, theta, 2)

        def falls(x: float) -> bool:
            return f_series(red, x + h, theta, 2) < f_series(red, x - h, theta, 2)

        try:
            if rises(root - h) and falls(root + h):
                return root
        except ValueError:
            continue  # series domain violated near this root; not usable
    return None
