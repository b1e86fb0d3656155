"""Element-count optimization for the reduced aggregate rate.

Two regimes:

* fixed absorbing count -- the stationarity condition of the two-term
  series form of f(n) reduces to the cubic
  ``2 psi n^3 - 4 psi theta n^2 - 3 alpha n + 4 alpha theta = 0``, which
  is ``2 psi`` times the monic ``n^3 - 2 theta n^2 - 1.5 rho n + 2 theta rho``
  with ``rho = alpha / psi``, the form that is solved; only its largest
  root can be a series maximum, and Newton's method descends onto it
  monotonically from a bound on it below ``2 theta + sqrt(1.5 rho)``.
* proportional absorbing share -- the exact stationarity collapses to the
  parameter-free condition ``ln(1 + t) = 2t / (1 + t)``, whose root t*
  puts the optimum at ``n* = sqrt(alpha / (psi t*))`` regardless of the
  active fraction or the rate scale.

The exact-rate optimum is the root of the exact stationarity: in fixed
mode, Newton's method solves it as one law in the load ``x = alpha/(psi n^2)``
and ``c = theta sqrt(psi/alpha)``, stopping once its step falls below 2^-26
relative, and ``sqrt((alpha/psi) / x*)`` lies within 4 ULP of the true
argmax; in proportional mode (c = 0) it is ``sqrt(alpha / (psi t*))`` itself.
Hardware realizations are the powers of two 1 <= N <= 512; the selection rule
compares the exact rate at the two candidates bracketing the exact optimum.

:func:`optimize` is the one optimizer.  Inside, both absorbing rules are one
count ``theta + q n``: a fixed count is ``(theta, 0.0)`` and a fraction
``(0.0, q)``, with the same bits as the rule itself, as ``theta + 0.0 n == theta``
and ``0.0 + q n == q n``; one body solves, selects and records under it.  Every
rate comes from the rate kernel, which gives 0 and rate_total's warning where n
does not exceed that count.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .rate import _INF, AbsorbingMode, Fraction, ReducedParams, _rate, _series

__all__ = [
    "OptimumReport",
    "optimize",
    "HARDWARE_POWERS_OF_TWO",
    "T_STAR",
]

#: Realizable element counts: 1 <= N <= 512 with N = 2^k.
HARDWARE_POWERS_OF_TWO = tuple(2**k for k in range(10))
_LARGEST = HARDWARE_POWERS_OF_TWO[-1]
_new = tuple.__new__  # a record from its finished field tuple, skipping the NamedTuple's __new__

#: t*, the root of ln(1 + t) = 2t / (1 + t): the load of every proportional optimum.
T_STAR = 3.9215536345675055


class OptimumReport(NamedTuple):
    """Everything learned about one optimization run, as a named tuple.

    ``n_star_cubic`` is the analytic optimum (cubic root in fixed mode,
    ``sqrt(alpha/(psi t*))`` in proportional mode) and ``n_star_exact``
    the argmax of the exact rate on n >= 1, within 4 ULP of it.  In fixed mode
    ``f_at_cubic`` follows the two-term-series convention of the
    published "calculated" column, while ``f_exact_at_cubic`` is the
    exact rate at the same point; in proportional mode the stationarity
    is exact and the two coincide.  ``used_fallback`` is set where the
    cubic's largest root is below one element and ``n_star_exact`` stands
    in for it.  The panel is selected around ``n_star_exact``, clamped to
    512 elements, into the seven fields ``pow2_lower`` .. ``selected_bits``;
    ``at_boundary`` is set when the exact optimum lies at one element or
    beyond 512.
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


# Not public; keep the name: bench/tracing.py wraps it as the optimize.cubic span and skips a
# missing name silently.
def meaningful_root(red: ReducedParams, theta: float) -> float | None:
    """The stationarity cubic's largest root at a checked theta >= 0 if it is at least 1, else None.

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
    two by the AM-GM inequality.  With ``A = 2 theta`` and ``B = sqrt(1.5 rho)`` the
    cubic is ``(x - A)(x - B)(x + B) - theta rho``, and ``r + B >= max(A, B) + B`` gives
    ``(r - A)(r - B) <= K = theta rho / (max(A, B) + B)``: r is at most the larger root
    ``u0 = (A + B)/2 + sqrt(((A - B)/2)^2 + K) <= A + B`` of ``(x - A)(x - B) = K``.
    Formed in units, u0 errs by under 2^-48 relative where rho is a normal float;
    Newton starts at u0 raised by 2^-46 and steps while the iterate falls.
    """
    ratio = red.alpha / red.psi
    triple = 1.5 * ratio  # rooted factor by factor only where it overflows: ratio > ~1.2e308
    sqrt_triple = math.sqrt(triple) if triple < math.inf else math.sqrt(1.5) * math.sqrt(ratio)
    size = max(2.0 * theta, sqrt_triple)
    if not 0.0 < size < math.inf:
        return None
    unit = math.ldexp(0.5, math.frexp(size)[1])
    a, s, r = 2.0 * theta / unit, sqrt_triple / unit, ratio / unit / unit  # A, B, rho in units
    c, d = -1.5 * r, a * r
    k = 0.5 * d / (size / unit + s)  # K in units, as max(A, B) = size
    u = (0.5 * (a + s) + math.sqrt(0.25 * (a - s) * (a - s) + k)) * (1.0 + 2.0**-46)  # u0, raised
    for _ in range(64):  # a simple root takes about 4 steps
        below = u - (((u - a) * u + c) * u + d) / ((3.0 * u - 2.0 * a) * u + c)
        if not below < u:
            break
        u = below
    root = u * unit
    return root if root >= 1.0 else None


def _select(red: ReducedParams, theta: float, q: float, n_star: float) -> tuple:
    """The hardware panel for the optimum ``n_star`` under the absorbing count ``theta + q n``.

    The exact rate at the two bracketing powers of two, 2^floor(log2 n*) and
    2^ceil(log2 n*), decides; ties go to the smaller panel.  An optimum below
    one element degenerates to a single element, both candidates 1.  Returns
    the seven fields ``pow2_lower`` .. ``selected_bits`` of :class:`OptimumReport`.
    """
    lower = 1 << max(int(n_star).bit_length() - 1, 0)
    upper = lower if lower >= n_star else 2 * lower
    rate_lower = _rate(red, float(lower), theta + q * lower)
    rate_upper = rate_lower if upper == lower else _rate(red, float(upper), theta + q * upper)
    n, rate = (upper, rate_upper) if rate_upper > rate_lower else (lower, rate_lower)
    return lower, upper, rate_lower, rate_upper, n, rate, n.bit_length() - 1


def _optimal_load(c: float) -> float:
    """x*(c), the load ``alpha/(psi n^2)`` at the exact fixed-count optimum, for ``c <= 2^30``.

    With ``c = theta sqrt(psi/alpha)`` the exact stationarity reads
    ``F(x) = (1 + x) ln(1 + x)/(2x) + c sqrt(x) = 1``.  F rises from
    ``F(0+) = 1/2`` and is concave, so Newton's method started right of the
    root, at ``min(t*, 1/(4c^2))`` where ``F >= 1``, lands left of it in one
    step and then rises onto it.  It applies the first step below 2^-26 relative,
    which leaves an error near the step's square, within rounding, and returns
    at most the start.  The residual is ``(1 - ln(1 + x)/2) - ln(1 + x)/(2x) - c sqrt(x)``:
    near the root each difference of two terms within a factor 2 of each other is exact,
    so mostly the rounding of ``ln(1 + x)`` and ``c sqrt(x)`` is left in x*.
    """
    log1p, sqrt = math.log1p, math.sqrt
    x = start = T_STAR if 4.0 * T_STAR * c * c <= 1.0 else 0.25 / (c * c)
    while True:
        log, root = log1p(x), sqrt(x)
        # F'(x) = (x - ln(1 + x))/(2x^2) + c/(2 sqrt(x)): where the first term cancels (small x),
        # c sqrt(x) is near 1/2 and the second, near 1/(4x), outweighs it by 1/x
        step = (1.0 - 0.5 * log - log / (2.0 * x) - c * root) / (
            (x - log) / (2.0 * x * x) + 0.5 * c / root)
        x += step
        if abs(step) < 2.0**-26 * x:  # the next step, near its square, would be below rounding
            return min(x, start)  # rounding can step right from a start on the root (tiny c)


def _exact_optimum(red: ReducedParams, theta: float) -> tuple[float, bool]:
    """Argmax of the exact fixed-count rate on n >= 1, within 4 ULP, and whether it is n = 1.

    The rate's slope has the sign of ``g(n) = ln(1 + x) - 2 (1 - theta/n) x/(1 + x)``
    with ``x = alpha/(psi n^2)``: positive just above max(theta, 1) and
    negative for large n.  Only when theta < 1 can the slope be
    non-positive at one element already; n = 1 is then the optimum, or 2 theta
    where the load underflows (g's root as x -> 0).

    Otherwise g's root is ``sqrt((alpha/psi) / x*)``, with x* from
    :func:`_optimal_load`, held to at least max(theta, 1): the roundings of x*,
    of the quotients and of the root leave it within 4 ULP of the true root.  Where
    ``c > 2^30``, or c overflows, the load ``1/(4c^2)`` at 2 theta is below 2^-62,
    so ``n* = 2 theta (1 + x*/2 + ...)`` rounds to 2 theta, which is returned.
    """
    if 2.0 * theta == _INF:  # g(2 theta) > 0, so the optimum lies above 2 theta
        raise ValueError(f"absorbing count {theta} puts the exact optimum, near 2 x {theta}, "
                         "beyond the float range")
    ratio = _load_ratio(red)  # the load at one element
    if theta < 1.0:  # g(1), its pull divided first where it overflows: ratio > ~9e307
        pull = 2.0 * (1.0 - theta) * ratio
        pull = pull / (1.0 + ratio) if pull < _INF else 2.0 * (1.0 - theta) * (ratio / (1.0 + ratio))
        if not math.log1p(ratio) > pull:
            return (2.0 * theta, False) if ratio == 0.0 and 2.0 * theta > 1.0 else (1.0, True)
    c = theta * math.sqrt(red.psi / red.alpha)
    if c > 2.0**30:
        return 2.0 * theta, False
    square = ratio / (x := _optimal_load(c))  # n^2, rooted factor by factor where it overflows
    n = math.sqrt(square) if square < _INF else math.sqrt(ratio) / math.sqrt(x)
    return max(n, theta, 1.0), False


def _load_ratio(red: ReducedParams) -> float:
    """``alpha/psi``, the load at one element; ValueError where it overflows."""
    if (ratio := red.alpha / red.psi) < math.inf:
        return ratio
    raise ValueError(f"alpha/psi overflows ({red.alpha}/{red.psi}): no finite optimum")


def _optimize(red: ReducedParams, theta: float, q: float, active_fraction) -> OptimumReport:
    """The report under the count ``theta + q n``: a fixed count where ``active_fraction`` is None."""
    fixed = active_fraction is None
    if fixed:  # the exact optimum in the load, the series optimum from the cubic
        n_exact, at_one = _exact_optimum(red, theta)
        n_cubic = meaningful_root(red, theta)
    else:  # x*(0) = T_STAR: the stationarity is exact, clipped at one element
        _load_ratio(red)
        n_cubic = math.sqrt(red.alpha / (red.psi * T_STAR))
        n_exact, at_one = max(n_cubic, 1.0), n_cubic < 1.0
    selection = _select(red, theta, q, min(n_exact, _LARGEST))
    f_exact = _rate(red, n_exact, theta + q * n_exact)
    used_fallback = fixed and n_cubic is None
    if used_fallback or not (fixed or at_one):  # the analytic optimum is the exact one
        n_cubic, f_cubic, f_exact_cubic = n_exact, f_exact, f_exact
    elif fixed:  # n_cubic >= max(2 theta, 1) > theta
        f_cubic = _series(red, n_cubic, theta, 2)
        f_exact_cubic = _rate(red, n_cubic, theta)
    else:  # below one element; 0 where alpha/(psi t*) underflows, the rate's limit as n* -> 0
        f_cubic = f_exact_cubic = _rate(red, n_cubic, q * n_cubic) if n_cubic > 0.0 else 0.0
    return _new(OptimumReport, (
        "fixed-count" if fixed else "proportional", theta if fixed else None, active_fraction,
        n_cubic, n_exact, f_cubic, f_exact, f_exact_cubic, *selection,
        at_one or n_exact > _LARGEST, used_fallback))


def optimize(red: ReducedParams, absorbing: AbsorbingMode) -> OptimumReport:
    """Optimize the element count under either absorbing rule.

    :class:`~omnidris.rate.FixedCount` (count theta): solves the exact
    stationarity for ``n_star_exact`` and the cubic for the analytic value,
    its largest root; where that root is below one element (or beyond the
    float range), the exact optimum stands in for it (``used_fallback``).

    :class:`~omnidris.rate.Fraction` (absorbing share q): with ``zeta = (1 - q) n``
    the active fraction and the rate scale factor out of the stationarity,
    so the analytic optimum is ``n* = sqrt(alpha / (psi t*))`` with the
    universal constant t*.  This is exact (no series truncation), hence
    ``f_at_cubic`` equals the exact rate at n*, and ``n_star_exact`` is n*
    clipped at one element; the report's ``active_fraction`` is ``1 - q``.
    Every rate is evaluated under the rule itself.
    """
    if isinstance(absorbing, Fraction):
        return _optimize(red, 0.0, absorbing.q, 1.0 - absorbing.q)
    return _optimize(red, float(absorbing.count), 0.0, None)


# Not public: bench/workloads.py calls both by name.  Delete them once it calls optimize.
def optimize_fixed_theta(red: ReducedParams, theta: float) -> OptimumReport:
    """:func:`optimize` with a fixed absorbing count theta, any finite float >= 0."""
    if isinstance(theta, bool):  # float(True) would stand for one element
        raise ValueError(f"absorbing count must be a number >= 0, got {theta}")
    if not 0.0 <= theta < math.inf:  # rejects NaN as well
        raise ValueError(f"absorbing count theta must be >= 0 and finite, got {theta}")
    return _optimize(red, theta, 0.0, None)


def optimize_proportional(red: ReducedParams, active_fraction: float) -> OptimumReport:
    """:func:`optimize` with the absorbing share ``1 - active_fraction``, reported as given."""
    if not 0.0 < active_fraction <= 1.0:
        raise ValueError(f"active fraction must lie in (0, 1], got {active_fraction}")
    if not (q := 1.0 - active_fraction) < 1.0:  # an active fraction of at most 2^-54
        raise ValueError(f"absorbing fraction must lie in [0, 1), got {q}")
    return _optimize(red, 0.0, q, active_fraction)
