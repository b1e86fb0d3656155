"""Element-count optimization for the reduced aggregate rate.

Two regimes:

* fixed absorbing count -- the stationarity condition of the two-term
  series form of f(n) reduces to the cubic
  ``2 psi n^3 - 4 psi theta n^2 - 3 alpha n + 4 alpha theta = 0``, which
  is ``2 psi`` times the monic ``n^3 - 2 theta n^2 - 1.5 rho n + 2 theta rho``
  with ``rho = alpha / psi``, the form that is solved; only its largest
  root can be a series maximum, and Newton's method descends onto it
  monotonically from a bound above every root.
* proportional absorbing share -- the exact stationarity collapses to the
  parameter-free condition ``ln(1 + t) = 2t / (1 + t)``, whose root t*
  puts the optimum at ``n* = sqrt(alpha / (psi t*))`` regardless of the
  active fraction or the rate scale.

The exact-rate optimum is the root of the exact stationarity: in fixed
mode a safeguarded Newton iteration brackets it and a bisection takes the
bracket to the last float; in proportional mode it is
``sqrt(alpha / (psi t*))`` itself.  Hardware realizations are the
powers of two 1 <= N <= 512; the selection rule compares the exact rate at
the two candidates bracketing the exact optimum.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .rate import AbsorbingMode, Fraction, ReducedParams, f_series, rate_total

__all__ = [
    "OptimumReport",
    "Pow2Selection",
    "meaningful_root",
    "select_power_of_two",
    "optimize",
    "optimize_fixed_theta",
    "optimize_proportional",
    "HARDWARE_POWERS_OF_TWO",
    "T_STAR",
]

#: Realizable element counts: 1 <= N <= 512 with N = 2^k.
HARDWARE_POWERS_OF_TWO = tuple(2**k for k in range(10))
_LARGEST = HARDWARE_POWERS_OF_TWO[-1]
_new = tuple.__new__  # a record from its finished field tuple, skipping the NamedTuple's __new__

#: t*, the root of ln(1 + t) = 2t / (1 + t): the load of every proportional optimum.
T_STAR = 3.9215536345675055


class Pow2Selection(NamedTuple):
    """The seven selection fields of :class:`OptimumReport`, in its order."""

    pow2_lower: int
    pow2_upper: int
    rate_pow2_lower: float
    rate_pow2_upper: float
    selected_n: int
    selected_rate: float
    selected_bits: int


class OptimumReport(NamedTuple):
    """Everything learned about one optimization run, as a named tuple.

    ``n_star_cubic`` is the analytic optimum (cubic root in fixed mode,
    ``sqrt(alpha/(psi t*))`` in proportional mode) and ``n_star_exact``
    the argmax of the exact rate on n >= 1.  In fixed mode
    ``f_at_cubic`` follows the two-term-series convention of the
    published "calculated" column, while ``f_exact_at_cubic`` is the
    exact rate at the same point; in proportional mode the stationarity
    is exact and the two coincide.  ``used_fallback`` is set where the
    cubic's largest root is below one element and ``n_star_exact`` stands
    in for it.  The panel is selected around ``n_star_exact``, clamped to
    512 elements, into the seven :class:`Pow2Selection` fields
    ``pow2_lower`` .. ``selected_bits``; ``at_boundary`` is set when the
    exact optimum lies at one element or beyond 512.
    """

    mode: str
    theta: float | None
    active_fraction: float | None
    n_star_cubic: float
    n_star_exact: float
    f_at_cubic: float
    f_at_exact: float
    f_exact_at_cubic: float
    pow2_lower: int
    pow2_upper: int
    rate_pow2_lower: float
    rate_pow2_upper: float
    selected_n: int
    selected_rate: float
    selected_bits: int
    at_boundary: bool
    used_fallback: bool


def meaningful_root(red: ReducedParams, theta: float) -> float | None:
    """The stationarity cubic's largest root at ``theta`` if it is at least 1, else None.

    The two-term series has slope ``-alpha xi / (2 ln2 psi^2 n^5) * cubic(n)``
    with the paper's cubic ``2 psi n^3 - 4 psi theta n^2 - 3 alpha n + 4 alpha theta``;
    the factor never vanishes for n > 0, and xi drops out entirely, which is
    why rate scaling cannot move the optimum.  A root is a series maximum
    exactly where the cubic rises through zero.  The monic form p (below) has
    ``p(2 theta) = p(sqrt(1.5 rho)) = -theta rho <= 0``, so its largest root
    r is at least ``max(2 theta, sqrt(1.5 rho))``: the cubic rises there,
    and the load ``alpha / (psi r^2)`` is at most 2/3, inside the series'
    convergence domain.  So r is the usable maximum wherever it is at least
    one element; None means it is below one, or beyond the float range.
    It lies right of the inflection point ``2 theta / 3``, where the cubic
    is convex, so Newton's method started above every root descends onto
    it monotonically.

    The paper's cubic is ``2 psi`` times the monic cubic
    ``x^3 - 2 theta x^2 - 1.5 rho x + 2 theta rho`` with ``rho = alpha / psi``,
    which is solved for ``u = x / unit``, with ``unit`` the power of two at
    or below ``max(2 theta, sqrt(1.5 rho))``.  Each coefficient is formed
    already divided by its power of ``unit``, so every one is O(1) and none
    overflows: ``cbrt(2 theta rho)``, the third size, stays below the other
    two by the AM-GM inequality.  Newton starts at Fujiwara's root bound
    ``2 max(|b|, sqrt|c|, cbrt|d/2|)`` of the scaled ``u^3 + b u^2 + c u + d``
    and steps while the iterate falls.
    """
    if not theta >= 0.0:
        raise ValueError(f"absorbing count must be >= 0, got {theta}")
    ratio = red.alpha / red.psi
    triple = 1.5 * ratio  # rooted factor by factor only where it overflows: ratio > ~1.2e308
    sqrt_triple = math.sqrt(triple) if triple < math.inf else math.sqrt(1.5) * math.sqrt(ratio)
    size = max(2.0 * theta, sqrt_triple)
    if not 0.0 < size < math.inf:
        return None
    unit = math.ldexp(0.5, math.frexp(size)[1])
    b = -2.0 * theta / unit
    c = -1.5 * (ratio / unit / unit)
    d = -b * (ratio / unit / unit)
    u = 2.0 * max(abs(b), math.sqrt(abs(c)), abs(d / 2.0) ** (1.0 / 3.0))
    for _ in range(64):  # a simple root takes about 10 steps
        below = u - (((u + b) * u + c) * u + d) / ((3.0 * u + 2.0 * b) * u + c)
        if not below < u:
            break
        u = below
    root = u * unit
    return root if root >= 1.0 else None


def select_power_of_two(n_star: float, red: ReducedParams, absorbing=0.0) -> Pow2Selection:
    """Hardware selection between the powers of two bracketing n_star.

    Evaluates the exact rate at 2^floor(log2 n*) and 2^ceil(log2 n*)
    (absorbing count re-derived per candidate in proportional mode) and
    keeps the better one; ties go to the smaller panel.  An optimum below
    one element degenerates to a single element, both candidates 1.
    """
    if not math.isfinite(n_star) or n_star <= 0:
        raise ValueError(f"n_star must be positive and finite, got {n_star}")
    if n_star < 1.0:
        rate_one = rate_total(red, 1.0, absorbing)
        return _new(Pow2Selection, (1, 1, rate_one, rate_one, 1, rate_one, 0))
    lower = 1 << (int(n_star).bit_length() - 1)
    upper = lower if lower == n_star else 2 * lower
    rate_lower = rate_total(red, float(lower), absorbing)
    rate_upper = rate_lower if upper == lower else rate_total(red, float(upper), absorbing)
    n, rate = (upper, rate_upper) if rate_upper > rate_lower else (lower, rate_lower)
    return _new(Pow2Selection, (lower, upper, rate_lower, rate_upper, n, rate, n.bit_length() - 1))


def _exact_optimum(red: ReducedParams, theta: float) -> tuple[float, bool]:
    """Argmax of the exact fixed-count rate on n >= 1, and whether it is n = 1.

    The rate's slope has the sign of ``g(n) = ln(1 + x) - 2 (1 - theta/n) x/(1 + x)``
    with ``x = alpha/(psi n^2)``: positive just above max(theta, 1) and
    negative for large n.  Only when theta < 1 can the slope be
    non-positive at one element already; n = 1 is then the optimum.

    Otherwise a safeguarded Newton iteration on g starts from the larger of
    the theta = 0 optimum ``sqrt(alpha/(psi t*))`` and ``2 theta``, both at
    or below the root: g grows with theta, and ``g(2 theta) =
    ln(1 + x) - x/(1 + x) > 0``.  Every iterate narrows a bracket of points
    where g is positive (``lo``) and not (``hi``); a step that leaves the
    bracket bisects it instead, or doubles ``lo`` while no ``hi`` is
    known.  Once a step is a few ULPs, probes that far either side of the
    iterate (widened fourfold until they straddle the sign change) close
    the bracket, and it is bisected on the sign of g down to adjacent
    floats; the last float where the rate still rises is returned.
    """

    alpha, psi, log1p, inf = red.alpha, red.psi, math.log1p, math.inf

    def gap(n: float) -> tuple[float, float]:  # the load x at n, and g(n)
        x = alpha / (psi * n * n)
        pull = 2.0 * (1.0 - theta / n) * x  # divided first where it overflows: x > ~9e307
        pull = pull / (1.0 + x) if pull < inf else 2.0 * (1.0 - theta / n) * (x / (1.0 + x))
        return x, log1p(x) - pull

    lo = max(theta, 1.0)
    x, g = gap(lo)
    if not g > 0.0:
        if x == 0.0:
            # the load underflows: as x -> 0 the stationarity ln(1+x) = 2(1 - theta/n) x/(1+x)
            # puts the root at n = 2 theta
            return (2.0 * theta, False) if 2.0 * theta > 1.0 else (1.0, True)
        return lo, True
    hi = inf
    n = max(lo, 2.0 * theta, math.sqrt(alpha / (psi * T_STAR)))
    for _ in range(100):
        x, g = gap(n)
        if g > 0.0:
            lo = n
        else:
            hi = n
        # dg/dn = 2x (1 - x - (theta/n)(3 + x)) / (n (1 + x)^2), negative at the root
        slope = 2.0 * x * (1.0 - x - theta / n * (3.0 + x)) / (n * (1.0 + x) * (1.0 + x))
        step = g / slope if slope < 0.0 else math.nan
        if abs(step) <= 2.0**-50 * n:
            break  # n is within a few ULPs of the root
        n -= step
        if not lo < n < hi:  # also for a NaN step
            n = 2.0 * lo if hi == inf else 0.5 * (lo + hi)
    width = 2.0**-50 * n  # 4 to 8 ULPs
    while not hi - lo <= 2.0 * width:
        for probe in (n - width, n + width):
            if lo < probe < hi:
                if gap(probe)[1] > 0.0:
                    lo = probe
                else:
                    hi = probe
        width *= 4.0
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if gap(mid)[1] > 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return lo, False


def _select_at(red: ReducedParams, absorbing, n_exact: float) -> tuple:
    """The power-of-two selection around ``n_exact`` (clamped to 512) and the rate at it."""
    if not math.isfinite(red.alpha / red.psi):
        raise ValueError(f"alpha/psi overflows ({red.alpha}/{red.psi}): no finite optimum")
    selection = select_power_of_two(min(n_exact, _LARGEST), red, absorbing)
    return selection, rate_total(red, n_exact, absorbing)


def optimize_fixed_theta(red: ReducedParams, theta: float) -> OptimumReport:
    """Optimize the element count with a fixed absorbing count.

    Solves the exact stationarity for ``n_star_exact`` and the cubic for
    the analytic value, its largest root; where that root is below one
    element (or beyond the float range), the exact optimum stands in for
    it (``used_fallback``).
    """
    if not 0.0 <= theta < math.inf:  # rejects NaN as well
        raise ValueError(f"absorbing count theta must be >= 0 and finite, got {theta}")
    n_exact, at_one = _exact_optimum(red, theta)
    selection, f_exact = _select_at(red, theta, n_exact)
    n_cubic = meaningful_root(red, theta)
    used_fallback = n_cubic is None
    if used_fallback:
        n_cubic, f_cubic, f_exact_cubic = n_exact, f_exact, f_exact
    else:
        f_cubic = f_series(red, n_cubic, theta, 2)
        f_exact_cubic = rate_total(red, n_cubic, theta)
    return _new(OptimumReport, (
        "fixed-count", theta, None, n_cubic, n_exact, f_cubic, f_exact, f_exact_cubic, *selection,
        at_one or n_exact > _LARGEST, used_fallback))


def optimize_proportional(red: ReducedParams, active_fraction: float) -> OptimumReport:
    """Optimize the element count with a proportional active share.

    With ``zeta = q n`` the active fraction and the rate scale factor out
    of the stationarity, so the analytic optimum is
    ``n* = sqrt(alpha / (psi t*))`` with the universal constant t*.  This
    is exact (no series truncation), hence ``f_at_cubic`` equals the
    exact rate at n*, and ``n_star_exact`` is n* clipped at one element
    (from one element up, both rates are one evaluation).
    """
    if not 0.0 < active_fraction <= 1.0:
        raise ValueError(f"active fraction must lie in (0, 1], got {active_fraction}")
    return _optimize_share(red, Fraction(1.0 - active_fraction), active_fraction)


def _optimize_share(red: ReducedParams, mode: Fraction, active_fraction: float) -> OptimumReport:
    """:func:`optimize_proportional`, evaluating every rate under ``mode`` itself."""
    n_analytic = math.sqrt(red.alpha / (red.psi * T_STAR))
    below_one = n_analytic < 1.0
    n_exact = 1.0 if below_one else n_analytic
    selection, f_exact = _select_at(red, mode, n_exact)
    if not below_one:
        f_analytic = f_exact
    elif n_analytic > 0.0:
        f_analytic = rate_total(red, n_analytic, mode)
    else:
        f_analytic = 0.0  # alpha / (psi t*) underflows: the rate's limit as n* -> 0
    return _new(OptimumReport, (
        "proportional", None, active_fraction, n_analytic, n_exact, f_analytic, f_exact,
        f_analytic, *selection, below_one or n_exact > _LARGEST, False))


def optimize(red: ReducedParams, absorbing: AbsorbingMode) -> OptimumReport:
    """Optimize the element count under either absorbing rule.

    A :class:`~omnidris.rate.Fraction` runs the proportional optimizer with its
    rates under that very rule, a :class:`~omnidris.rate.FixedCount` the fixed-count one.
    """
    if isinstance(absorbing, Fraction):
        return _optimize_share(red, absorbing, 1.0 - absorbing.q)
    return optimize_fixed_theta(red, float(absorbing.count))
