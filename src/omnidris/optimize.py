"""Element-count optimization for the reduced aggregate rate.

Two regimes:

* fixed absorbing count -- the stationarity condition of the two-term
  series form of f(n) reduces to the cubic
  ``2 psi n^3 - 4 psi theta n^2 - 3 alpha n + 4 alpha theta = 0``; only
  its largest root can be a series maximum, and Newton's method descends
  onto it monotonically from a bound above every root.
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
    "CubicCoefficients",
    "OptimumReport",
    "Pow2Selection",
    "NoInteriorMaximumError",
    "build_cubic",
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

#: t*, the root of ln(1 + t) = 2t / (1 + t): the load of every proportional optimum.
T_STAR = 3.9215536345675055


class NoInteriorMaximumError(ValueError):
    """No cubic root lies above the absorbing count with a series maximum."""


class CubicCoefficients(NamedTuple):
    """Coefficients (c3, c2, c1, c0) of the stationarity cubic."""

    c3: float
    c2: float
    c1: float
    c0: float

    def __call__(self, x: float) -> float:
        return ((self.c3 * x + self.c2) * x + self.c1) * x + self.c0


class Pow2Selection(NamedTuple):
    n: int
    rate: float
    lower: int
    upper: int
    rate_lower: float
    rate_upper: float
    degenerate: bool


class OptimumReport(NamedTuple):
    """Everything learned about one optimization run, as a named tuple.

    ``n_star_cubic`` is the analytic optimum (cubic root in fixed mode,
    ``sqrt(alpha/(psi t*))`` in proportional mode) and ``n_star_exact``
    the argmax of the exact rate on n >= 1.  In fixed mode
    ``f_at_cubic`` follows the two-term-series convention of the
    published "calculated" column, while ``f_exact_at_cubic`` is the
    exact rate at the same point; in proportional mode the stationarity
    is exact and the two coincide.  The panel is selected around
    ``n_star_exact``, clamped to 512 elements; ``at_boundary`` is set when
    the exact optimum lies at one element or beyond 512.
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


def build_cubic(red: ReducedParams, theta: float) -> CubicCoefficients:
    """Stationarity cubic of the two-term series at fixed absorbing count.

    The common factor alpha*xi / (2 ln2 psi^2 n^5) of the derivative never
    vanishes for n > 0 and is discarded; only (2 psi, -4 psi theta,
    -3 alpha, 4 alpha theta) remain.  xi drops out entirely, which is why
    rate scaling cannot move the optimum.
    """
    if theta < 0:
        raise ValueError(f"absorbing count must be >= 0, got {theta}")
    return CubicCoefficients(
        2.0 * red.psi,
        -4.0 * red.psi * theta,
        -3.0 * red.alpha,
        4.0 * red.alpha * theta,
    )


def meaningful_root(cubic: CubicCoefficients, red: ReducedParams, theta: float) -> float:
    """The largest root of ``cubic = build_cubic(red, theta)``, if it is the usable rate maximum.

    The two-term series has slope ``-alpha xi / (2 ln2 psi^2 n^5) * cubic(n)``,
    so a root is a series maximum exactly where the cubic rises through
    zero.  The root must exceed the absorbing count, be at least 1, have
    ``cubic'(root) > 0`` and keep the load ``alpha / (psi root^2)`` within
    the series' convergence domain (<= 1).  Such a root lies right of the
    inflection point ``2 theta / 3`` and rises there, so it is the largest
    root; the cubic is convex on that side, so Newton's method started
    above every root descends onto it monotonically.

    The monic cubic ``x^3 + b x^2 + c x + d`` is solved for ``u = x / unit``,
    with ``unit`` the power of two at or below the largest of ``|b|``,
    ``sqrt|c|`` and ``cbrt|d|``, so every scaled coefficient is O(1) and
    nothing overflows.  Newton starts at Fujiwara's root bound
    ``2 max(|b|, sqrt|c|, cbrt|d/2|)`` and steps while the iterate falls.
    """
    c3, c2, c1, c0 = cubic
    b, c, d = c2 / c3, c1 / c3, c0 / c3
    size = max(abs(b), math.sqrt(abs(c)), abs(d) ** (1.0 / 3.0))
    if not 0.0 < size < math.inf:
        raise NoInteriorMaximumError("no interior maximum: the cubic leaves the float range")
    unit = math.ldexp(0.5, math.frexp(size)[1])
    b, c, d = b / unit, c / unit / unit, d / unit / unit / unit
    u = 2.0 * max(abs(b), math.sqrt(abs(c)), abs(d / 2.0) ** (1.0 / 3.0))
    for _ in range(64):  # a simple root takes about 10 steps, a triple one 34
        below = u - (((u + b) * u + c) * u + d) / ((3.0 * u + 2.0 * b) * u + c)
        if not below < u:
            break
        u = below
    root = u * unit
    ratio = red.alpha / red.psi
    # cubic'(root) / (psi root): the same sign, without overflow
    if (
        root > theta
        and root >= 1.0
        and 6.0 * root - 8.0 * theta - 3.0 * ratio / root > 0.0
        and red.alpha / (red.psi * root * root) <= 1.0
    ):
        return root
    raise NoInteriorMaximumError(
        f"no interior maximum: no root above theta={theta} is a series maximum"
    )


def select_power_of_two(n_star: float, red: ReducedParams, absorbing=0.0) -> Pow2Selection:
    """Hardware selection between the powers of two bracketing n_star.

    Evaluates the exact rate at 2^floor(log2 n*) and 2^ceil(log2 n*)
    (absorbing count re-derived per candidate in proportional mode) and
    keeps the better one; ties go to the smaller panel.  An optimum below
    one element degenerates to a single element.
    """
    if not math.isfinite(n_star) or n_star <= 0:
        raise ValueError(f"n_star must be positive and finite, got {n_star}")
    if n_star < 1.0:
        rate_one = rate_total(red, 1.0, absorbing)
        return Pow2Selection(1, rate_one, 1, 1, rate_one, rate_one, True)

    lower = 1 << (int(n_star).bit_length() - 1)
    upper = lower if lower == n_star else 2 * lower

    rate_lower = rate_total(red, float(lower), absorbing)
    rate_upper = rate_lower if upper == lower else rate_total(red, float(upper), absorbing)
    if rate_upper > rate_lower:
        chosen, chosen_rate = upper, rate_upper
    else:
        chosen, chosen_rate = lower, rate_lower
    return Pow2Selection(chosen, chosen_rate, lower, upper, rate_lower, rate_upper, False)


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
    where ``rising`` holds (``lo``) and fails (``hi``); a step that leaves
    the bracket bisects it instead, or doubles ``lo`` while no ``hi`` is
    known.  Once a step is a few ULPs, probes that far either side of the
    iterate (widened fourfold until they straddle the sign change) close
    the bracket, and it is bisected with ``rising`` down to adjacent
    floats; the last float where the rate still rises is returned.
    """

    def rising(n: float) -> bool:
        x = red.alpha / (red.psi * n * n)
        return math.log1p(x) > 2.0 * (1.0 - theta / n) * x / (1.0 + x)

    lo = max(theta, 1.0)
    if not rising(lo):
        if red.alpha / (red.psi * lo * lo) == 0.0:
            # the load underflows: as x -> 0 the stationarity ln(1+x) = 2(1 - theta/n) x/(1+x)
            # puts the root at n = 2 theta
            return (2.0 * theta, False) if 2.0 * theta > 1.0 else (1.0, True)
        return lo, True
    hi = math.inf
    n = max(lo, 2.0 * theta, math.sqrt(red.alpha / (red.psi * T_STAR)))
    for _ in range(100):
        x = red.alpha / (red.psi * n * n)
        gap = math.log1p(x) - 2.0 * (1.0 - theta / n) * x / (1.0 + x)  # > 0 iff rising(n)
        if gap > 0.0:
            lo = n
        else:
            hi = n
        # dg/dn = 2x (1 - x - (theta/n)(3 + x)) / (n (1 + x)^2), negative at the root
        slope = 2.0 * x * (1.0 - x - theta / n * (3.0 + x)) / (n * (1.0 + x) * (1.0 + x))
        step = gap / slope if slope < 0.0 else math.nan
        if abs(step) <= 2.0**-50 * n:
            break  # n is within a few ULPs of the root
        n -= step
        if not lo < n < hi:  # also for a NaN step
            n = 2.0 * lo if hi == math.inf else 0.5 * (lo + hi)
    width = 2.0**-50 * n  # 4 to 8 ULPs
    while not hi - lo <= 2.0 * width:
        for probe in (n - width, n + width):
            if lo < probe < hi:
                if rising(probe):
                    lo = probe
                else:
                    hi = probe
        width *= 4.0
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if rising(mid):
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return lo, False


def _exact_fields(red: ReducedParams, absorbing, n_exact: float, at_one: bool) -> tuple:
    """The fields ``n_star_exact`` to ``at_boundary`` of an :class:`OptimumReport`, in order."""
    if not math.isfinite(red.alpha / red.psi):
        raise ValueError(f"alpha/psi overflows ({red.alpha}/{red.psi}): no finite optimum")
    largest = HARDWARE_POWERS_OF_TWO[-1]
    n, rate, lower, upper, rate_lower, rate_upper, _ = select_power_of_two(
        min(n_exact, largest), red, absorbing
    )
    return (
        n_exact, rate_total(red, n_exact, absorbing), lower, upper, rate_lower, rate_upper,
        n, rate, n.bit_length() - 1, at_one or n_exact > largest,
    )


def optimize_fixed_theta(red: ReducedParams, theta: float) -> OptimumReport:
    """Optimize the element count with a fixed absorbing count.

    Solves the exact stationarity for ``n_star_exact`` and the cubic for
    the analytic value; if no cubic root qualifies, the exact optimum
    stands in for it (``used_fallback``).
    """
    if not 0.0 <= theta < math.inf:  # rejects NaN as well
        raise ValueError(f"absorbing count theta must be >= 0 and finite, got {theta}")
    exact = _exact_fields(red, theta, *_exact_optimum(red, theta))
    used_fallback = False
    try:
        n_cubic = meaningful_root(build_cubic(red, theta), red, theta)
        f_cubic = f_series(red, n_cubic, theta, 2)
        f_exact_cubic = rate_total(red, n_cubic, theta)
    except NoInteriorMaximumError:
        used_fallback = True
        n_cubic = exact[0]
        f_cubic = f_exact_cubic = exact[1]
    return OptimumReport(
        "fixed-count", theta, None, n_cubic, exact[0], f_cubic, exact[1], f_exact_cubic,
        *exact[2:], used_fallback,
    )


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
    exact = _exact_fields(red, mode, 1.0 if below_one else n_analytic, below_one)
    f_analytic = rate_total(red, n_analytic, mode) if below_one else exact[1]
    return OptimumReport(
        "proportional", None, active_fraction, n_analytic, exact[0], f_analytic, exact[1],
        f_analytic, *exact[2:], False,
    )


def optimize(red: ReducedParams, absorbing: AbsorbingMode) -> OptimumReport:
    """Optimize the element count under either absorbing rule.

    A :class:`~omnidris.rate.Fraction` runs the proportional optimizer with its
    rates under that very rule, a :class:`~omnidris.rate.FixedCount` the fixed-count one.
    """
    if isinstance(absorbing, Fraction):
        return _optimize_share(red, absorbing, 1.0 - absorbing.q)
    return optimize_fixed_theta(red, float(absorbing.count))
