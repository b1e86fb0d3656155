"""Per-link SNR and rate, the reduced aggregate rate, and its inversions.

The aggregate rate of the system collapses (equal active links) to a
three-parameter reduced form

    f(n) = xi * (n - theta) * log2(alpha / (n^2 psi) + 1)

with ``alpha`` collecting power, conversion, channel gain and noise,
``psi = (M L)^2`` and ``xi = W L M / 2``.  This module owns that reduced
form, its truncated alternating-series variant, and the inversion that
recovers the number of control-sequence bits from a target rate.
"""
from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "E_OVER_2PI",
    "LN2",
    "SystemParams",
    "FixedCount",
    "Fraction",
    "AbsorbingMode",
    "ReducedParams",
    "DegenerateConfigWarning",
    "snr_single_link",
    "rate_single_link",
    "reduce_params",
    "reduced_with_alpha",
    "rate_total",
    "f_series",
    "bits_per_sequence",
]

#: Capacity lower-bound prefactor e / (2 pi), at full float precision.
E_OVER_2PI = math.e / (2.0 * math.pi)
LN2 = math.log(2.0)
_TINY = sys.float_info.min
_FLOAT_MAX = sys.float_info.max
_INF = math.inf
_log1p = np.log1p


class DegenerateConfigWarning(UserWarning):
    """Raised as a warning when a configuration has no active elements."""


def _number(value, name, low=0.0, high=_INF, ends="()", error=ValueError, whole=False):
    """``value`` if it is a number in the interval from ``low`` to ``high``, else ``error``.

    The one check of every numeric input.  ``ends`` holds the interval's brackets,
    ``(``/``)`` open and ``[``/``]`` closed; ``whole`` asks for an ``int``.  A boolean is
    not a number, NaN and +-inf lie in no interval, and an integer beyond the float
    range is refused without echoing its digits.  The message names ``name`` and
    states the interval: "positive and finite", ">= 0 and finite", "lie in [0, 1)".
    """
    if ((low < value or value == low and ends[0] == "[")  # False for NaN
            and (value < high or value == high and ends[1] == "]")
            and (value.__class__ is float
                 or value.__class__ is not bool and -_FLOAT_MAX <= value <= _FLOAT_MAX)
            and (not whole or isinstance(value, int))):
        return value
    if value.__class__ is bool:
        raise error(f"{name} must be {'an integer' if whole else 'a number'}, got {value}")
    if isinstance(value, int) and not -_FLOAT_MAX <= value <= _FLOAT_MAX:
        raise error(f"{name} is too large to be a float")
    if high < _INF:
        raise error(f"{name} must lie in {ends[0]}{low}, {high}{ends[1]}, got {value}")
    above = ("" if low == -_INF else "positive" if (low, ends[0]) == (0, "(")
             else f"{'>' if ends[0] == '(' else '>='} {low}")
    phrase = (f"an integer {above}".rstrip() if whole
              else f"{above} and finite" if above else "finite")
    raise error(f"{name} must be {phrase}, got {value}")


def _finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{what} overflowed the float range")
    return value


@dataclass(frozen=True)
class SystemParams:
    """Transmitter/receiver-side system parameters.

    ``noise_psd`` is the resultant noise PSD at the user in W/Hz; the noise
    variance entering the SNR and alpha is ``noise_psd / 2`` exactly, with no
    bandwidth multiplication, so a ``noise_psd`` whose half underflows to 0
    (only 5e-324) is rejected.
    """

    bandwidth_hz: float
    transmit_power_w: float
    num_light_sources: int
    num_users: int
    oe_conversion: float
    noise_psd: float

    def __post_init__(self) -> None:
        _number(self.bandwidth_hz, "bandwidth_hz")
        _number(self.transmit_power_w, "transmit_power_w")
        _number(self.num_light_sources, "num_light_sources", 1, _INF, "[)", whole=True)
        _number(self.num_users, "num_users", 1, _INF, "[)", whole=True)
        _number(self.oe_conversion, "oe_conversion", 0, 1, "(]")
        # the noise variance noise_psd / 2, which the SNR and alpha divide by, is not 0
        _number(self.noise_psd, "noise_psd", 5e-324)


@dataclass(frozen=True)
class FixedCount:
    """A fixed number of absorbing elements, independent of the panel size."""

    count: int

    def __post_init__(self) -> None:
        _number(self.count, "absorbing count", 0, _INF, "[)", whole=True)

    def theta_at(self, n):
        return float(self.count)


@dataclass(frozen=True)
class Fraction:
    """A fixed absorbing fraction ``q``; the count tracks the panel size.

    The rate math treats the absorbing share continuously (``theta = q*n``),
    which is what makes the active-fraction rate ratios exact at every n.
    """

    q: float

    def __post_init__(self) -> None:
        _number(self.q, "absorbing fraction", 0, 1, "[)")
        object.__setattr__(self, "q", self.q + 0)  # -0.0 + 0 is 0.0, and an int 0 stays an int

    def theta_at(self, n):
        return self.q * n


AbsorbingMode = Union[FixedCount, Fraction]


@dataclass(frozen=True)
class ReducedParams:
    """The (alpha, psi, xi) triple that fully determines the aggregate rate."""

    alpha: float
    psi: float
    xi: float

    def __post_init__(self) -> None:
        for field in ("alpha", "psi", "xi"):
            _number(getattr(self, field), field)


def snr_single_link(params: SystemParams, gain: float, num_elements: int) -> float:
    """Electrical SNR of one LS -> element -> user link.

    The total transmit power is split evenly across users, elements and
    light sources, so the per-link share is ``P_t * G / (M n L)`` and

        snr = rho^2 * (P_t G / (M n L))^2 / (noise_psd / 2).
    """
    _number(gain, "channel gain", 0, _INF, "[)")
    _number(num_elements, "num_elements", 1, _INF, "[)")  # the power is divided by it
    share = params.transmit_power_w * gain / (
        float(params.num_users) * num_elements * params.num_light_sources
    )
    rho = params.oe_conversion
    return _finite(rho * rho * (share * share) / (params.noise_psd / 2.0), "the SNR")


def rate_single_link(params: SystemParams, snr: float) -> float:
    """Achievable rate of one link: (W/2) * log2(1 + e/(2 pi) * snr)."""
    _number(snr, "snr", 0, _INF, "[)")
    rate = params.bandwidth_hz / 2.0 * math.log1p(E_OVER_2PI * snr) / LN2
    return _finite(rate, "the link rate")


def reduce_params(params: SystemParams, gain: float) -> ReducedParams:
    """(alpha, psi, xi) of system parameters and a gain, alpha from :func:`_physical_alpha`."""
    return reduced_with_alpha(params, _physical_alpha(params, gain))


def _physical_alpha(params: SystemParams, gain: float) -> float:
    """alpha = e/(2 pi) * rho^2 G^2 P_t^2 / (noise_psd / 2), checked as ReducedParams checks it."""
    _number(gain, "channel gain")
    rho, power = params.oe_conversion, params.transmit_power_w
    # products, as x ** 2 raises on overflow: the range check names an alpha of inf or 0
    alpha = E_OVER_2PI * (rho * rho) * (gain * gain) * (power * power) / (params.noise_psd / 2.0)
    return _number(alpha, "alpha")


def reduced_with_alpha(params: SystemParams, alpha: float) -> ReducedParams:
    """The triple for a given alpha: psi = (M L)^2 and xi = W L M / 2 from ``params``."""
    links = float(params.num_users) * params.num_light_sources
    return ReducedParams(alpha, links * links, params.bandwidth_hz * links / 2.0)


def _first_order_rate(red: ReducedParams, n: float, active: float) -> float:
    """xi * active * x / ln 2: the rate when x = alpha/(psi n^2) is not a normal float.

    Where ``alpha/psi/n`` is not a normal float either, from the five mantissas
    and one exponent sum; the rate is then below ``xi 2^-1022 / ln 2 < 6``, so
    ``ldexp`` cannot overflow.
    """
    if (ratio := red.alpha / red.psi / n) < _TINY:
        (alpha, e_alpha), (psi, e_psi), (m, e_n), (xi, e_xi), (active, e_active) = map(
            math.frexp, (red.alpha, red.psi, n, red.xi, active))
        return math.ldexp(xi * active * (alpha / (psi * m * m)) / LN2,
                          e_xi + e_active + e_alpha - e_psi - 2 * e_n)
    rate = red.xi * (active / n) * ratio / LN2
    if math.isfinite(rate):
        return rate
    return red.xi * (active / n) * ((red.alpha / n) / red.psi) / LN2  # alpha/psi may overflow


def _load(red: ReducedParams, n: float) -> float:
    """alpha/(psi n^2), from the three mantissas where psi or psi n^2 is not a normal float."""
    denominator = red.psi * n * n
    if _TINY <= denominator < _INF and red.psi >= _TINY:  # else psi n may have lost bits
        return red.alpha / denominator
    (alpha, e_alpha), (psi, e_psi), (m, e_n) = map(math.frexp, (red.alpha, red.psi, n))
    quotient = alpha / (psi * m * m)  # in (1/2, 8): only the scaling below leaves the normal floats
    exponent = min(e_alpha - e_psi - 2 * e_n, 1030)
    if exponent <= 1020:
        return math.ldexp(quotient, exponent)
    return math.ldexp(quotient, exponent - 10) * 1024.0  # ldexp raises where a product gives inf


def _rate(red: ReducedParams, n: float, theta: float) -> float:
    """:func:`rate_total` at a float n > 0 under a float count theta >= 0, unchecked.

    The load is :func:`_load`'s, inlined where psi and psi n^2 are normal floats.
    """
    if (active := n - theta) <= 0.0:  # the warning points at the caller's caller
        warnings.warn("no active elements (absorbing count >= element count); rate is 0",
                      DegenerateConfigWarning, stacklevel=3)
        return 0.0
    d = (psi := red.psi) * n * n
    load = red.alpha / d if _TINY <= d < _INF and psi >= _TINY else _load(red, n)
    if load < _TINY:
        return _finite(_first_order_rate(red, n, active), f"the rate at n = {n}")
    ln_load = float(_log1p(load))
    rate = red.xi * active * ln_load / LN2
    if rate < _INF:  # the rate is positive or +inf here
        return rate
    if load == _INF:  # alpha / (psi n^2) beyond the floats, where log1p(load) = log(load)
        ln_load = math.log(red.alpha) - math.log(red.psi) - 2.0 * math.log(n)
    return _finite(red.xi * (active * (ln_load / LN2)), f"the rate at n = {n}")


def rate_total(red: ReducedParams, n, absorbing=0.0) -> float:
    """Aggregate rate xi * (n - theta) * log2(alpha / (n^2 psi) + 1) at one count n.

    ``n`` is a positive finite count (a continuum: the integer restriction
    enters only at hardware selection); ``absorbing`` is an
    :data:`AbsorbingMode`, read by its ``theta_at(n)``, or a count ``>= 0``,
    read by ``float()``.  No active element gives 0 and a
    :class:`DegenerateConfigWarning`; the load is formed from the mantissas
    where ``psi`` or ``psi n^2`` is not a normal float; a load below the
    normal floats gives the first-order term, not a silent 0; a rate beyond
    the float range raises ``ValueError``, after a second, overflow-safe
    evaluation order (an infinite load then enters as
    ``log alpha - log psi - 2 log n``).
    numpy's ``log1p`` stays: where numpy dispatches it to AVX-512 its last
    bits differ from ``math.log1p``'s (elsewhere they agree), so outputs are per-CPU.
    """
    n = float(_number(n, "element count"))
    if isinstance(absorbing, (FixedCount, Fraction)):
        return _rate(red, n, absorbing.theta_at(n))
    return _rate(red, n, float(_number(absorbing, "absorbing count", 0, _INF, "[)")))


def f_series(red: ReducedParams, n: float, theta: float, terms: int) -> float:
    """Truncated alternating series for the aggregate rate.

        xi (n - theta) / ln 2 * sum_{j=1..terms} (-1)^(j+1) x^j / j,
        x = alpha / (n^2 psi).

    Valid for 0 < x <= 1; the truncation error is bounded by the first
    omitted term, xi (n - theta) / ln2 * x^(terms+1) / (terms + 1), and
    successive partial sums bracket the exact rate.  Relative to the exact
    rate the bound is x^(terms+1) / ((terms + 1) ln(1 + x)); with 40 terms
    it is below 1e-10 only for x <~ 0.613.  ``terms`` is an integer >= 1 and
    ``theta`` lies in [0, n).  Loads and overflows as in :func:`rate_total`.
    """
    _number(terms, "terms", 1, _INF, "[)", whole=True)
    _number(n, "element count")
    _number(theta, "absorbing count", 0, n, "[)")  # the series counts the n - theta active
    return _series(red, n, theta, terms)


def _series(red: ReducedParams, n: float, theta: float, terms: int) -> float:
    """:func:`f_series` at a float n > theta >= 0 and ``terms >= 1``, checking only the domain."""
    x = _load(red, n)
    if x > 1.0:
        raise ValueError(
            f"series requires alpha/(n^2 psi) <= 1, got {x:.6g}: "
            "outside the convergence domain"
        )
    if x < _TINY:
        return _finite(_first_order_rate(red, n, n - theta), f"the rate at n = {n}")
    total = 0.0
    power = 1.0
    for j in range(1, terms + 1):
        power *= x
        term = power / j
        total += term if j % 2 == 1 else -term
    rate = red.xi * (n - theta) / LN2 * total
    if math.isfinite(rate):
        return rate
    return _finite(red.xi * ((n - theta) / LN2 * total), f"the rate at n = {n}")


def bits_per_sequence(red: ReducedParams, rate: float, active: float) -> float:
    """Control-sequence bit count implied by a target aggregate rate.

    Inverts the reduced rate form for ``k = log2 n``:

        k = 1/2 * log2( alpha / (psi * (e^(ln2 * rate / (xi * active)) - 1)) )

    Round-trip law: for a power-of-two panel with a fixed absorbing count,
    ``bits_per_sequence(rate_total(n), n - theta) == log2 n``.  Only an exponent that
    underflows to 0, leaving no rate to invert, is refused.
    """
    _number(active, "active element count")
    _number(rate, "rate")
    exponent = LN2 * rate / (red.xi * active)
    if exponent == 0.0:
        raise ValueError(f"rate inversion underflowed: ln2 rate / (xi active) is 0 at rate {rate}")
    growth = math.expm1(exponent)
    ratio = red.alpha / denominator if _TINY <= (denominator := red.psi * growth) < _INF else 0.0
    log_ratio = (math.log2(ratio) if _TINY <= ratio < _INF  # else from its factors' logarithms
                 else math.log2(red.alpha) - math.log2(red.psi) - math.log2(growth))
    if log_ratio < math.log2(1.0 - 1e-9):
        raise ValueError(
            "rate exceeds single-element capacity for these parameters "
            f"(implied element count {2.0 ** (0.5 * log_ratio):.6g} < 1)"
        )
    return 0.5 * log_ratio
