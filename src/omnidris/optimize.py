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

The exact-rate optimum is one law under either rule: in the load ``x = alpha/(psi n^2)``, with
``c = theta sqrt(psi/alpha)``, the stationarity is ``(1 + x) ln(1 + x)/(2x) + c sqrt(x) = 1``.
At theta = 0 its root is t* and the optimum ``sqrt(alpha / (psi t*))``, under FixedCount(0) and
every fraction alike; at theta > 0 Newton's method solves it to 2^-26 relative, and
``sqrt((alpha/psi) / x*)``, above 2 theta, lies within 4 ULP of the root.  The slope changes sign
once, there, so the argmax on n >= 1 is one element exactly where the root is below one.
Hardware realizations are the powers of two 1 <= N <= 512; of the two candidates N
and 2N bracketing the exact optimum, 2N is selected where its exact rate is larger: at
theta = 0 exactly where ``alpha > 8 psi N^2``, elsewhere where its float rate is larger.

:func:`optimize` is the one optimizer.  Inside, both absorbing rules are one
count ``theta + q n``: a fixed count is ``(theta, 0.0)`` and a fraction
``(0.0, q)``, with the same bits as the rule itself, as ``theta + 0.0 n == theta``
and ``0.0 + q n == q n``; one body solves, selects and records under it.  Every
rate is the rate kernel's, bit for bit, which gives 0 and rate_total's warning where n
does not exceed that count.

What each report forms once: under either rule, the fields of the reduced triple and
``alpha/psi``, the load at one element, which the exact optimum and the cubic share;
under a fixed count, the load at ``n_star_cubic``, from which both its two-term series
rate (``x - x^2/2``, the series' own sum) and its exact rate follow in their functions'
orders of operations; and the panel rates, one per candidate.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .rate import (
    _INF, _TINY, LN2, AbsorbingMode, Fraction, ReducedParams, _log1p, _number, _rate, _series)

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

#: t*, the root of ln(1 + t) = 2t / (1 + t), correctly rounded: the load of every proportional optimum.
T_STAR = 3.921553634567505


class OptimumReport(NamedTuple):
    """Everything learned about one optimization run, as a named tuple.

    ``n_star_cubic`` is the analytic optimum (cubic root in fixed mode,
    ``sqrt(alpha/(psi t*))`` in proportional mode) and ``n_star_exact``
    the argmax of the exact rate on n >= 1, within 4 ULP of it: FixedCount(0) and
    Fraction(0.0) report it, and every field but the rule's and the analytic optimum's,
    with the same bits.  In fixed mode
    ``f_at_cubic`` follows the two-term-series convention of the
    published "calculated" column, while ``f_exact_at_cubic`` is the
    exact rate at the same point; in proportional mode the stationarity
    is exact and the two coincide.  ``used_fallback`` is set where the
    cubic's largest root is below one element and ``n_star_exact`` stands
    in for it.  The panel is selected around ``n_star_exact``, clamped to
    512 elements, into the seven fields ``pow2_lower`` .. ``selected_bits``;
    ``at_boundary`` is set when the root lies below one element or beyond 512.
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
def meaningful_root(ratio: float, theta: float) -> float | None:
    """The stationarity cubic's largest root at ``rho = alpha/psi`` and a checked theta >= 0 if it
    is at least 1, else None.

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
    ``x^3 - 2 theta x^2 - 1.5 rho x + 2 theta rho``, which depends on alpha and psi
    only through ``ratio = rho``; it is solved for ``u = x / unit``, with ``unit`` the power of
    two at or below ``max(2 theta, sqrt(1.5 rho))``.  Each coefficient is formed
    already divided by its power of ``unit``, so every one is O(1) and none
    overflows: ``cbrt(2 theta rho)``, the third size, stays below the other
    two by the AM-GM inequality.  With ``A = 2 theta`` and ``B = sqrt(1.5 rho)`` the
    cubic is ``(x - A)(x - B)(x + B) - theta rho``, and ``r + B >= max(A, B) + B`` gives
    ``(r - A)(r - B) <= K = theta rho / (max(A, B) + B)``: r is at most the larger root
    ``u0 = (A + B)/2 + sqrt(((A - B)/2)^2 + K) <= A + B`` of ``(x - A)(x - B) = K``.
    Formed in units, u0 errs by under 2^-48 relative where rho is a normal float;
    Newton starts at u0 raised by 2^-46 and steps while the iterate falls.
    """
    triple = 1.5 * ratio  # rooted factor by factor only where it overflows: ratio > ~1.2e308
    sqrt_triple = math.sqrt(triple) if triple < _INF else math.sqrt(1.5) * math.sqrt(ratio)
    twice = 2.0 * theta
    size = sqrt_triple if sqrt_triple > twice else twice  # max(2 theta, sqrt(1.5 rho))
    if not 0.0 < size < _INF:
        return None
    unit = math.ldexp(0.5, math.frexp(size)[1])
    a, s, r = twice / unit, sqrt_triple / unit, ratio / unit / unit  # A, B, rho in units
    c, d, two_a = -1.5 * r, a * r, 2.0 * a
    k = 0.5 * d / (size / unit + s)  # K in units, as max(A, B) = size
    u = (0.5 * (a + s) + math.sqrt(0.25 * (a - s) * (a - s) + k)) * (1.0 + 2.0**-46)  # u0, raised
    for _ in range(64):  # a simple root takes about 4 steps
        below = u - (((u - a) * u + c) * u + d) / ((3.0 * u - two_a) * u + c)
        if not below < u:
            break
        u = below
    root = u * unit
    return root if root >= 1.0 else None


def _select(red: ReducedParams, theta: float, q: float, n_star: float) -> tuple:
    """The hardware panel for an optimum ``n_star >= 1`` under the absorbing count ``theta + q n``.

    The candidates are the powers of two N = 2^floor(log2 n*) and 2N bracketing n*, or N alone
    where n* is N.  Each rate is the rate kernel's, reported as it is.  At theta = 0, under every
    fraction and under FixedCount(0), the exact law decides: 2N wins where ``alpha > 8 psi N^2``,
    since ``2 ln(1 + y/4) = ln(1 + y)`` at the load ``y = 8``.  ``psi N^2`` is exact, N^2 being
    a power of four, and where ``8 psi N^2`` overflows, N rightly wins.  Otherwise the larger rate
    wins, ties going to the smaller panel.  Returns the seven fields ``pow2_lower`` ..
    ``selected_bits`` of :class:`OptimumReport`.
    """
    bits = int(n_star).bit_length() - 1
    lower = 1 << bits
    rate_lower = _rate(red, float(lower), theta + q * lower)
    if lower == n_star:
        return lower, lower, rate_lower, rate_lower, lower, rate_lower, bits
    upper = 2 * lower
    rate_upper = _rate(red, float(upper), theta + q * upper)
    if red.alpha > 8.0 * red.psi * lower * lower if theta == 0.0 else rate_upper > rate_lower:
        return lower, upper, rate_lower, rate_upper, upper, rate_upper, bits + 1
    return lower, upper, rate_lower, rate_upper, lower, rate_lower, bits


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
    half_c = 0.5 * c
    while True:
        log, root, twice = log1p(x), sqrt(x), 2.0 * x
        # F'(x) = (x - ln(1 + x))/(2x^2) + c/(2 sqrt(x)): where the first term cancels (small x),
        # c sqrt(x) is near 1/2 and the second, near 1/(4x), outweighs it by 1/x
        step = (1.0 - 0.5 * log - log / twice - c * root) / (
            (x - log) / (twice * x) + half_c / root)
        x += step
        bound = 2.0**-26 * x  # the next step, near this one's square, would be below rounding
        if -bound < step < bound:
            return start if start < x else x  # rounding can step right from a start on the root


def _exact_root(ratio: float, theta: float, c: float) -> float:
    """The root of the exact fixed-count stationarity at a count theta > 0, within 4 ULP.

    ``ratio = alpha/psi`` is the load at one element, finite, theta a count whose double is
    finite, and ``c = theta sqrt(psi/alpha)``.  The root is ``sqrt((alpha/psi) / x*)``, with x*
    from :func:`_optimal_load`: the roundings of x*, of the quotients and of the root leave it
    within 4 ULP of the true root.  As ``x* < 1/(4c^2)``, the load at 2 theta, it lies above
    2 theta.  Where ``c > 2^30``, or c overflows (as it does where the load underflows to 0),
    the load ``1/(4c^2)`` at 2 theta is below 2^-62, so ``n* = 2 theta (1 + x*/2 + ...)`` rounds
    to 2 theta, which is returned.
    """
    if c > 2.0**30:
        return 2.0 * theta
    square = ratio / (x := _optimal_load(c))  # n^2, rooted factor by factor where it overflows
    return math.sqrt(square) if square < _INF else math.sqrt(ratio) / math.sqrt(x)


def _proportional_root(alpha: float, psi: float) -> float:
    """``sqrt(alpha/(psi t*))`` from mantissas, where ``psi t*`` or the quotient is not a normal float.

    With ``alpha = a 2^i`` and ``psi = p 2^j`` (a, p in [1/2, 1)), ``a/(p t*)`` lies in
    (1/8, 0.52), doubled where ``i - j`` is odd; ``ldexp`` scales its root by
    ``2^floor((i - j)/2)``, rounding once where the optimum, at least ~8.4e-317, is subnormal.
    """
    (alpha, e_alpha), (psi, e_psi) = math.frexp(alpha), math.frexp(psi)
    exponent = e_alpha - e_psi
    return math.ldexp(math.sqrt(math.ldexp(alpha / (psi * T_STAR), exponent & 1)), exponent >> 1)


def _optimize(red: ReducedParams, theta: float, q: float, active_fraction) -> OptimumReport:
    """The report under the count ``theta + q n``: a fixed count where ``active_fraction`` is None."""
    alpha, psi = red.alpha, red.psi
    fixed = active_fraction is None
    if fixed and 2.0 * theta == _INF:  # the exact optimum, the root, lies above 2 theta
        raise ValueError(f"absorbing count {theta} puts the exact optimum, near 2 x {theta}, "
                         "beyond the float range")
    if not (ratio := alpha / psi) < _INF:  # the load at one element
        raise ValueError(f"alpha/psi overflows ({alpha}/{psi}): no finite optimum")
    if theta == 0.0:  # x*(0) = T_STAR under either rule: the closed form
        quotient = alpha / (product := psi * T_STAR)
        root = (math.sqrt(quotient) if product >= _TINY <= quotient
                else _proportional_root(alpha, psi))
    else:  # c only for theta > 0: 0 sqrt(psi/alpha) is NaN where psi/alpha overflows
        root = _exact_root(ratio, theta, theta * math.sqrt(psi / alpha))
    at_one = root < 1.0  # the slope changes sign once, at the root: the argmax on n >= 1
    n_exact = 1.0 if at_one else root
    n_cubic = meaningful_root(ratio, theta) if fixed else root  # the series optimum in fixed mode
    selection = _select(red, theta, q, _LARGEST if _LARGEST < n_exact else n_exact)
    f_exact = _rate(red, n_exact, theta + q * n_exact)
    used_fallback = fixed and n_cubic is None
    if used_fallback or not (fixed or at_one):  # the analytic optimum is the exact one
        n_cubic, f_cubic, f_exact_cubic = n_exact, f_exact, f_exact
    elif fixed:  # n_cubic >= max(2 theta, 1) > theta, at a load of at most 2/3
        # one load x for _series(red, n_cubic, theta, 2) and _rate(red, n_cubic, theta), each rate
        # in its function's order of operations.  x is 0 where _load would take the mantissas;
        # there, where x is below the normal floats and where a rate overflows, they take over
        d = psi * n_cubic * n_cubic
        x = alpha / d if _TINY <= d < _INF and psi >= _TINY else 0.0
        scale = red.xi * (n_cubic - theta)
        f_cubic = scale / LN2 * (x - x * x / 2)  # the series' two terms, x - x^2/2
        f_exact_cubic = scale * float(_log1p(x)) / LN2
        if not (_TINY <= x <= 1.0 and f_cubic < _INF and f_exact_cubic < _INF):
            f_cubic, f_exact_cubic = _series(red, n_cubic, theta, 2), _rate(red, n_cubic, theta)
    else:  # below one element
        f_cubic = f_exact_cubic = _rate(red, n_cubic, q * n_cubic)
    return _new(OptimumReport, (
        "fixed-count" if fixed else "proportional", theta if fixed else None, active_fraction,
        n_cubic, n_exact, f_cubic, f_exact, f_exact_cubic) + selection + (
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


# Not public: bench/workloads.py calls both by name.  Delete them once it calls optimize.  On
# its optimize-grid hot path, each checks with one comparison, as ReducedParams does, and
# calls _number only to name what fails.
def optimize_fixed_theta(red: ReducedParams, theta: float) -> OptimumReport:
    """:func:`optimize` with a fixed absorbing count theta, any finite float >= 0."""
    if not (0.0 <= theta < _INF and theta.__class__ is float):
        _number(theta, "absorbing count", 0, _INF, "[)")
    return _optimize(red, theta, 0.0, None)


def optimize_proportional(red: ReducedParams, active_fraction: float) -> OptimumReport:
    """:func:`optimize` with the absorbing share ``1 - active_fraction``, reported as given."""
    if not (0.0 < active_fraction <= 1.0 and active_fraction.__class__ is float):
        _number(active_fraction, "active fraction", 0, 1, "(]")
    if not (q := 1.0 - active_fraction) < 1.0:  # an active fraction of at most 2^-54
        _number(q, "absorbing fraction", 0, 1, "[)")
    return _optimize(red, 0.0, q, active_fraction)
