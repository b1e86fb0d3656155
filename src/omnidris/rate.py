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
_isfinite = math.isfinite


class DegenerateConfigWarning(UserWarning):
    """Raised as a warning when a configuration has no active elements."""


def require_positive_finite(owner, fields, error=ValueError) -> None:
    """Raise ``error`` unless each named attribute of ``owner`` is finite and > 0."""
    for field in fields:
        value = getattr(owner, field)
        if not 0.0 < value < math.inf:  # False for NaN as well
            raise error(f"{field} must be positive and finite, got {value}")


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
        require_positive_finite(self, ("bandwidth_hz", "transmit_power_w", "noise_psd"))
        if self.noise_psd / 2.0 == 0.0:  # the noise variance: the SNR and alpha divide by it
            raise ValueError(f"noise_psd / 2 underflows to 0: got {self.noise_psd}")
        for field in ("num_light_sources", "num_users"):
            value = getattr(self, field)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"{field} must be a positive integer, got {value!r}")
            if value > _FLOAT_MAX:  # do not echo hundreds of digits
                raise ValueError(f"{field} is too large to be a float")
        if not 0.0 < self.oe_conversion <= 1.0:
            raise ValueError(
                f"oe_conversion must lie in (0, 1], got {self.oe_conversion}"
            )


@dataclass(frozen=True)
class FixedCount:
    """A fixed number of absorbing elements, independent of the panel size."""

    count: int

    def __post_init__(self) -> None:
        if isinstance(self.count, bool) or not isinstance(self.count, int) or self.count < 0:
            raise ValueError(f"absorbing count must be an integer >= 0, got {self.count!r}")
        if self.count > _FLOAT_MAX:  # do not echo hundreds of digits
            raise ValueError("absorbing count is too large to be a float")

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
        if not 0.0 <= self.q < 1.0:
            raise ValueError(f"absorbing fraction must lie in [0, 1), got {self.q}")

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
        if not (0.0 < self.alpha < _INF and 0.0 < self.psi < _INF and 0.0 < self.xi < _INF):
            require_positive_finite(self, ("alpha", "psi", "xi"))  # names the bad field


def snr_single_link(params: SystemParams, gain: float, num_elements: int) -> float:
    """Electrical SNR of one LS -> element -> user link.

    The total transmit power is split evenly across users, elements and
    light sources, so the per-link share is ``P_t * G / (M n L)`` and

        snr = rho^2 * (P_t G / (M n L))^2 / (noise_psd / 2).
    """
    if not 0.0 <= gain < math.inf:  # rejects NaN as well
        raise ValueError(f"channel gain must be >= 0 and finite, got {gain}")
    if not num_elements >= 1:  # rejects NaN as well
        raise ValueError(f"num_elements must be >= 1 (power is divided by it), got {num_elements}")
    if num_elements > _FLOAT_MAX:
        raise ValueError("num_elements is too large to be a float")
    share = params.transmit_power_w * gain / (
        float(params.num_users) * num_elements * params.num_light_sources
    )
    rho = params.oe_conversion
    return _finite(rho * rho * (share * share) / (params.noise_psd / 2.0), "the SNR")


def rate_single_link(params: SystemParams, snr: float) -> float:
    """Achievable rate of one link: (W/2) * log2(1 + e/(2 pi) * snr)."""
    if not 0.0 <= snr < math.inf:  # rejects NaN as well
        raise ValueError(f"snr must be >= 0 and finite, got {snr}")
    rate = params.bandwidth_hz / 2.0 * math.log1p(E_OVER_2PI * snr) / LN2
    return _finite(rate, "the link rate")


def reduce_params(params: SystemParams, gain: float) -> ReducedParams:
    """(alpha, psi, xi) of system parameters and a gain, alpha from :func:`_physical_alpha`."""
    return reduced_with_alpha(params, _physical_alpha(params, gain))


def _physical_alpha(params: SystemParams, gain: float) -> float:
    """alpha = e/(2 pi) * rho^2 G^2 P_t^2 / (noise_psd / 2), checked as ReducedParams checks it."""
    if not gain > 0.0:  # rejects NaN as well; an infinite gain gives an infinite alpha
        raise ValueError("channel gain must be positive to form reduced parameters")
    rho, power = params.oe_conversion, params.transmit_power_w
    # products, as x ** 2 raises on overflow: the range check names an alpha of inf or 0
    alpha = E_OVER_2PI * (rho * rho) * (gain * gain) * (power * power) / (params.noise_psd / 2.0)
    if not 0.0 < alpha < _INF:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    return alpha


def reduced_with_alpha(params: SystemParams, alpha: float) -> ReducedParams:
    """The triple for a given alpha: psi = (M L)^2 and xi = W L M / 2 from ``params``."""
    links = float(params.num_users) * params.num_light_sources
    return ReducedParams(alpha, links * links, params.bandwidth_hz * links / 2.0)


def _first_order_rate(red: ReducedParams, n: float, active: float) -> float:
    """xi * active * x / ln 2: the rate when x = alpha/(psi n^2) is not a normal float."""
    rate = red.xi * (active / n) * (red.alpha / red.psi / n) / LN2
    if math.isfinite(rate):
        return rate
    return red.xi * (active / n) * ((red.alpha / n) / red.psi) / LN2  # alpha/psi may overflow


def rate_total(red: ReducedParams, n, absorbing=0.0) -> float:
    """Aggregate rate xi * (n - theta) * log2(alpha / (n^2 psi) + 1) at one count n.

    ``n`` is a positive finite count (a continuum: the integer restriction
    enters only at hardware selection); ``absorbing`` is an
    :data:`AbsorbingMode` or a plain count, read inline: a :class:`Fraction`
    gives ``q n``, a float ``>= 0`` itself, a :class:`FixedCount` its count
    and any other count its ``float()``.  No active element gives 0 and a
    :class:`DegenerateConfigWarning`; a load below the normal floats gives
    the first-order term, not a silent 0; a rate beyond the float range
    raises ``ValueError``, after a second, overflow-safe evaluation order
    (an infinite load then enters as ``log alpha - log psi - 2 log n``).
    numpy's ``log1p`` stays: where numpy dispatches it to AVX-512 its last
    bits differ from ``math.log1p``'s (elsewhere they agree), so outputs are per-CPU.
    """
    n = float(n)
    if not 0.0 < n < _INF:  # rejects NaN as well
        raise ValueError(f"element count must be positive and finite, got {n}")
    kind = type(absorbing)  # the optimizers' two rules first, without a call
    if kind is Fraction:
        theta = absorbing.q * n
    elif kind is float and absorbing >= 0.0:
        theta = absorbing
    elif isinstance(absorbing, (FixedCount, Fraction)):
        theta = absorbing.theta_at(n)
    elif not (theta := float(absorbing)) >= 0:  # rejects NaN as well
        raise ValueError(f"absorbing count must be >= 0, got {theta}")
    active = n - theta
    if active <= 0.0:
        warnings.warn("no active elements (absorbing count >= element count); rate is 0",
                      DegenerateConfigWarning, stacklevel=2)
        return 0.0
    denominator = red.psi * n * n
    load = red.alpha / denominator if denominator else _INF  # n^2 psi underflowed
    if load < _TINY:
        return _finite(_first_order_rate(red, n, active), f"the rate at n = {n}")
    ln_load = float(_log1p(load))
    rate = red.xi * active * ln_load / LN2
    if _isfinite(rate):
        return rate
    if load == _INF:  # alpha / (psi n^2) beyond the floats, where log1p(load) = log(load)
        ln_load = math.log(red.alpha) - math.log(red.psi) - 2.0 * math.log(n)
    return _finite(red.xi * (active * (ln_load / LN2)), f"the rate at n = {n}")


def f_series(red: ReducedParams, n: float, theta: float, terms: int) -> float:
    """Truncated alternating series for the aggregate rate.

        xi (n - theta) / ln 2 * sum_{j=1..terms} (-1)^(j+1) x^j / j,
        x = alpha / (n^2 psi).

    Valid for 0 < x <= 1; the truncation error is bounded by the first
    omitted term, xi (n - theta) / ln2 * x^(terms+1) / (terms + 1), and
    successive partial sums bracket the exact rate.  Relative to the exact
    rate the bound is x^(terms+1) / ((terms + 1) ln(1 + x)); with 40 terms
    it is below 1e-10 only for x <~ 0.613.  Loads and overflows as in :func:`rate_total`.
    """
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    if not 0.0 < n < math.inf:  # rejects NaN as well
        raise ValueError(f"element count must be positive and finite, got {n}")
    if not 0.0 <= theta < n:  # rejects NaN as well; the series counts the n - theta active
        raise ValueError(f"absorbing count must lie in [0, n = {n}), got {theta}")
    denominator = red.psi * n * n
    x = red.alpha / denominator if denominator else math.inf  # n^2 psi underflowed
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
    ``bits_per_sequence(rate_total(n), n - theta) == log2 n``.
    """
    if not 0.0 < active < math.inf:  # rejects NaN as well
        raise ValueError(f"active element count must be positive and finite, got {active}")
    if not 0.0 < rate < math.inf:
        raise ValueError(f"rate must be positive and finite, got {rate}")
    exponent = LN2 * rate / (red.xi * active)
    denominator = red.psi * math.expm1(exponent)
    if denominator <= 0:
        raise ValueError("rate inversion produced a non-positive denominator")
    ratio = red.alpha / denominator
    if ratio < 1.0 - 1e-9:
        raise ValueError(
            "rate exceeds single-element capacity for these parameters "
            f"(implied element count {math.sqrt(ratio):.6g} < 1)"
        )
    return 0.5 * math.log2(ratio)
