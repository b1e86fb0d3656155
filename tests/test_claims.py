"""The model's answer to the paper's two claims, as laws.

The best panel: 2N beats N exactly where the load ``y = alpha/(psi N^2)``
exceeds 8, since ``2 log(1 + y/4) = log(1 + y)`` at ``y = 8``.  So the
selected panel is the power of two whose load lies in (2, 8], and its bit
count is ``clamp(ceil(log4(alpha/(8 psi))), 0, 9)``, free of q and xi.

The maximal rate: ``(1 - q) xi sqrt(alpha/(psi t*)) log2(1 + t*)``.  As
``xi / sqrt(psi) = W/2``, the numbers of users M and light sources L cancel
from it; they act only through the panel size, ``n* ~ 1/(M L)``.

Under a fixed absorbing count theta the maximum is ``xi sqrt(alpha/psi) phi(c)`` with
``c = theta sqrt(psi/alpha)`` and ``phi(c) = (1 - c sqrt(x*)) log2(1 + x*)/sqrt(x*)``,
x* the optimal load: L and M act on it only through c and the prefactor.  The panel
2N beats N where ``(2 - tau) log(1 + y/4) > (1 - tau) log(1 + y)``, with ``tau = theta/N``,
from the rates ``xi N (1 - tau) log2(1 + y)`` and ``xi N (2 - tau) log2(1 + y/4)``; at
``tau = 0`` this is ``y > 8`` again.
"""
import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omnidris.optimize import T_STAR, _optimal_load, optimize
from omnidris.rate import (
    LN2, FixedCount, Fraction, ReducedParams, SystemParams, reduced_with_alpha)
from omnidris.scenario import preset_scenarios

EPS = 2.0**-52

#: Loads within this relative distance of 2 or 8 are excluded: there float rounding decides
#: between two panels whose rates tie.
TIE_BAND = 1e-9

#: Draws of the panel law in Tier-1; ``panel_law(50_000, seed)`` checks more offline.
PANEL_DRAWS = 5000

#: Exact ties: alpha/psi = 2 4^k and 8 4^k put a hardware panel's load on 2 or 8.
TIES = [edge * 4.0**k for edge in (2.0, 8.0) for k in range(10)]


def closed_form_bits(ratio: float) -> int:
    """``clamp(ceil(log4(alpha/(8 psi))), 0, 9)`` with ``ratio = alpha/psi``."""
    return min(max(math.ceil(math.log(ratio / 8.0, 4.0)), 0), 9)


def near_a_tie(ratio: float) -> bool:
    """Whether a hardware panel's load ``ratio / 4^k`` lies within TIE_BAND of 2 or 8."""
    loads = (ratio / 4.0**k for k in range(10))
    return any(abs(load / edge - 1.0) <= TIE_BAND for load in loads for edge in (2.0, 8.0))


def panel_law(draws: int, seed: int) -> tuple[list, int]:
    """The draws whose selected bits miss the closed form, and how many draws the band excluded.

    alpha/psi is log-uniform on [1e-1, 1e7], q one of 0, 0.25, 0.5, 0.9; the exact ties
    of :data:`TIES` are drawn as well.
    """
    rng = random.Random(seed)
    misses, excluded = [], 0
    for index in range(draws + len(TIES)):
        ratio = TIES[index - draws] if index >= draws else 10.0 ** rng.uniform(-1.0, 7.0)
        psi = rng.choice((1.0, 4.0, 16.0, 64.0, rng.uniform(1.0, 1e3)))
        q = rng.choice((0.0, 0.25, 0.5, 0.9))
        red = ReducedParams(ratio * psi, psi, 10.0 ** rng.uniform(-3.0, 9.0))
        if near_a_tie(red.alpha / red.psi):
            excluded += 1
            continue
        bits = optimize(red, Fraction(q)).selected_bits
        if bits != closed_form_bits(red.alpha / red.psi):
            misses.append((red, q, bits))
    return misses, excluded


def test_the_selected_panel_is_the_power_of_two_with_load_in_2_to_8():
    misses, excluded = panel_law(PANEL_DRAWS, seed=9)
    assert misses == []
    # the band excludes the exact ties and, among the random draws, almost nothing
    assert len(TIES) <= excluded <= len(TIES) + PANEL_DRAWS // 1000


def test_every_calibrated_preset_selects_the_closed_form_panel():
    shares = {name: scenario for name, scenario in preset_scenarios().items()
              if isinstance(scenario.absorbing, Fraction)}
    assert len(shares) == 9
    for name, scenario in shares.items():
        red = scenario.reduced_params()
        assert not near_a_tie(red.alpha / red.psi), name
        bits = optimize(red, scenario.absorbing).selected_bits
        assert bits == closed_form_bits(red.alpha / red.psi), name


@settings(max_examples=200, deadline=None)
@given(
    alpha=st.floats(min_value=6.0, max_value=14.0).map(lambda e: 10.0**e),
    users=st.integers(min_value=1, max_value=16),
    sources=st.integers(min_value=1, max_value=16),
    bandwidth=st.floats(min_value=3.0, max_value=9.0).map(lambda e: 10.0**e),
    q=st.sampled_from((0.0, 0.25, 0.5, 0.9)),
)
def test_users_and_sources_cancel_from_the_proportional_maximum(
        alpha, users, sources, bandwidth, q):
    # alpha is held fixed: reduced_with_alpha takes psi = (M L)^2 and xi = W M L / 2 from params
    params = SystemParams(bandwidth, 1.0, sources, users, 0.5, 2.0)
    report = optimize(reduced_with_alpha(params, alpha), Fraction(q))
    single = dataclasses.replace(params, num_users=1, num_light_sources=1)
    one_link = optimize(reduced_with_alpha(single, alpha), Fraction(q))
    assert report.n_star_cubic >= 1.0  # alpha >= t* (M L)^2: the maximum is interior
    closed = (1.0 - q) * (bandwidth / 2.0) * math.sqrt(alpha / T_STAR) * math.log1p(T_STAR) / LN2
    # a few roundings, plus the active count n - q n, which magnifies the half-ULP of q n
    # by q/(1 - q) (4.5 EPS at q = 0.9; 2.6-5.6 EPS seen over 40,000 draws)
    within = (4.0 + 0.5 * q / (1.0 - q)) * EPS
    assert report.f_at_exact == pytest.approx(closed, rel=within)
    assert report.f_at_exact == pytest.approx(one_link.f_at_exact, rel=2.0 * within)
    assert report.n_star_cubic * (users * sources) == pytest.approx(one_link.n_star_cubic,
                                                                    rel=4 * EPS)


#: Draws of the fixed-count maximum law in Tier-1; ``maximum_law(50_000, seed)`` checks more
#: offline.
MAXIMUM_DRAWS = 3000


def fixed_count_maximum(red: ReducedParams, theta: float) -> float:
    """``xi sqrt(alpha/psi) phi(c)``, ``phi(c) = (1 - c sqrt(x*)) log2(1 + x*)/sqrt(x*)``."""
    c = theta * math.sqrt(red.psi / red.alpha)
    x = _optimal_load(c)
    root = math.sqrt(x)
    phi = (1.0 - c * root) * (math.log1p(x) / LN2) / root
    return red.xi * math.sqrt(red.alpha / red.psi) * phi


def maximum_law(draws: int, seed: int) -> tuple[float, int]:
    """The largest ``|f_at_exact / closed form - 1|`` in units of EPS, and the draws it covers.

    alpha/psi is log-uniform on [1e-1, 1e7] and theta an integer in [0, 50]; a draw
    whose optimum is at one element or beyond 512 (``at_boundary``) is left out.
    """
    rng = random.Random(seed)
    worst, covered = 0.0, 0
    for _ in range(draws):
        ratio = 10.0 ** rng.uniform(-1.0, 7.0)
        psi = rng.choice((1.0, 4.0, 16.0, 64.0, rng.uniform(1.0, 1e3)))
        theta = rng.randint(0, 50)
        red = ReducedParams(ratio * psi, psi, 10.0 ** rng.uniform(-3.0, 9.0))
        report = optimize(red, FixedCount(theta))
        if report.at_boundary:
            continue
        covered += 1
        worst = max(worst, abs(report.f_at_exact / fixed_count_maximum(red, theta) - 1.0) / EPS)
    return worst, covered


def test_the_fixed_count_maximum_is_a_function_of_c():
    # n* = sqrt((alpha/psi)/x*) and n* - theta = n* (1 - c sqrt(x*)); the two forms differ by
    # the roundings of the load and the active count: 4 EPS at most over 50,000 draws each
    # of seeds 1 and 2
    worst, covered = maximum_law(MAXIMUM_DRAWS, seed=9)
    assert worst <= 4.0
    assert covered >= 0.8 * MAXIMUM_DRAWS  # the boundary leaves out about one draw in seven


#: Draws of the fixed-count tie law in Tier-1; ``tie_law(50_000, seed)`` checks more offline.
TIE_DRAWS = 5000


def doubling_wins(red: ReducedParams, theta: float, n: int) -> tuple[bool, bool]:
    """Whether panel 2n beats n under the count theta, and whether the two lie within TIE_BAND.

    ``(2 - tau) log(1 + y/4) > (1 - tau) log(1 + y)`` with ``y = alpha/(psi n^2)``, ``tau = theta/n``.
    """
    y, tau = red.alpha / (red.psi * n * n), theta / n
    doubled, single = (2.0 - tau) * math.log1p(0.25 * y), (1.0 - tau) * math.log1p(y)
    return doubled > single, abs(doubled / single - 1.0) <= TIE_BAND


def tie_law(draws: int, seed: int) -> tuple[list, int, int]:
    """The bracketed draws whose selection misses the law, the draws the band excluded,
    and how many draws were bracketed (``pow2_lower < pow2_upper``).

    alpha/psi is log-uniform on [1e-2, 1e7] and theta an integer in [0, 300].
    """
    rng = random.Random(seed)
    misses, excluded, bracketed = [], 0, 0
    for _ in range(draws):
        ratio = 10.0 ** rng.uniform(-2.0, 7.0)
        psi = rng.choice((1.0, 4.0, 16.0, 64.0, rng.uniform(1.0, 1e3)))
        theta = rng.randint(0, 300)
        red = ReducedParams(ratio * psi, psi, 10.0 ** rng.uniform(-3.0, 9.0))
        report = optimize(red, FixedCount(theta))
        if report.pow2_lower == report.pow2_upper:
            continue
        bracketed += 1
        wins, tied = doubling_wins(red, theta, report.pow2_lower)
        if tied:
            excluded += 1
        elif (report.selected_n == report.pow2_upper) != wins:
            misses.append((red, theta, report.selected_n))
    return misses, excluded, bracketed


def test_the_fixed_count_panel_doubles_where_the_tie_law_says():
    # 50,000 draws each of seeds 1 and 2: 35,110 and 35,166 bracketed, none excluded, no miss
    misses, excluded, bracketed = tie_law(TIE_DRAWS, seed=9)
    assert misses == []
    assert excluded <= TIE_DRAWS // 1000
    assert bracketed >= 0.6 * TIE_DRAWS  # 3,548 here; the rest sit at 1 or 512 elements
