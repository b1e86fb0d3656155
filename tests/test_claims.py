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

The price of the panel: with ``h(y, c) = (1 - c sqrt(y)) ln(1 + y)/sqrt(y)`` and
``theta/N = c sqrt(y)``, panel N reaches the share ``h(y, c)/h(x*(c), c)`` of the maximal
rate, whatever xi.  At c = 0 this is ``s(y) = sqrt(t*/y) ln(1 + y)/ln(1 + t*)``, and the
selected panel's load lies in (2, 8], where ``s(2) = s(8) = 0.96532...``: the power-of-two
constraint costs at most 3.47% of the maximal proportional rate.
"""
import dataclasses
import decimal
import fractions
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omnidris.optimize import T_STAR, _optimal_load, optimize
from omnidris.rate import (
    LN2, FixedCount, Fraction, ReducedParams, SystemParams, reduced_with_alpha)
from omnidris.scenario import preset_scenarios
from helpers import EPS
from oracle import decimal_optimal_load, decimal_t_star

#: Fixed counts theta >= 1 whose two panel rates lie within this relative distance are
#: excluded: there float rounding decides between them.  At theta = 0 the optimizer decides by
#: the exact law, and no draw is excluded.
TIE_BAND = 1e-9

#: Draws of the panel law in Tier-1; ``panel_law(50_000, seed)`` checks more offline.
PANEL_DRAWS = 5000

#: Exact ties: alpha/psi = 2 4^k and 8 4^k put a hardware panel's load on 2 or 8.
TIES = [edge * 4.0**k for edge in (2.0, 8.0) for k in range(10)]


def doubles(alpha: float, psi: float, n: int) -> bool:
    """Whether panel 2n beats n at theta = 0: ``alpha > 8 psi n^2``, in exact rationals."""
    return fractions.Fraction(alpha) > 8 * fractions.Fraction(psi) * n * n


def closed_form_bits(alpha: float, psi: float) -> int:
    """``clamp(ceil(log4(alpha/(8 psi))), 0, 9)``, exactly: the least k < 9 at which panel 2^k
    is not beaten by 2^(k+1), else 9."""
    return next((k for k in range(9) if not doubles(alpha, psi, 2**k)), 9)


def panel_law(draws: int, seed: int) -> list:
    """The draws whose selected bits miss the closed form.

    alpha/psi is log-uniform on [1e-1, 1e7], q one of 0, 0.25, 0.5, 0.9; the ratios of
    :data:`TIES` are drawn as well: exact ties where psi is a power of four, near ties elsewhere.
    """
    rng = random.Random(seed)
    misses = []
    for index in range(draws + len(TIES)):
        ratio = TIES[index - draws] if index >= draws else 10.0 ** rng.uniform(-1.0, 7.0)
        psi = rng.choice((1.0, 4.0, 16.0, 64.0, rng.uniform(1.0, 1e3)))
        q = rng.choice((0.0, 0.25, 0.5, 0.9))
        red = ReducedParams(ratio * psi, psi, 10.0 ** rng.uniform(-3.0, 9.0))
        bits = optimize(red, Fraction(q)).selected_bits
        if bits != closed_form_bits(red.alpha, red.psi):
            misses.append((red, q, bits))
    return misses


def test_the_selected_panel_is_the_power_of_two_with_load_in_2_to_8():
    # no band: an exact tie selects the smaller panel
    assert panel_law(PANEL_DRAWS, seed=9) == []


#: Draws of the near-tie corpus in Tier-1; ``near_tie_misses(n, seed)`` checks more offline.
NEAR_TIE_DRAWS = 400


def near_tie_misses(draws: int, seed: int) -> tuple[list, int]:
    """The reports whose panel misses the exact law at theta = 0 near its ties, and the count.

    Each draw takes psi (a power of four, or uniform on [0.1, 10]), a panel N = 2^k with
    k in 0..8 and xi; alpha runs over the 17 floats from 8 ULP below ``8 psi N^2``, which
    is exact, to 8 ULP above it.  Each alpha is optimized under FixedCount(0) and under a
    fraction q of 0, 0.25, 0.5 or 0.9: the optimum ``N sqrt(8/t*)`` lies between N and 2N,
    and 2N must be selected exactly where ``alpha > 8 psi N^2``.
    """
    rng = random.Random(seed)
    misses, reports = [], 0
    for _ in range(draws):
        psi = rng.choice((1.0, 4.0, 16.0, 64.0, rng.uniform(0.1, 10.0)))
        n, xi = 2 ** rng.randint(0, 8), 10.0 ** rng.uniform(-3.0, 9.0)
        rules = (FixedCount(0), Fraction(rng.choice((0.0, 0.25, 0.5, 0.9))))
        alpha = 8.0 * psi * n * n
        for _ in range(8):
            alpha = math.nextafter(alpha, 0.0)
        for _ in range(17):
            for rule in rules:
                report = optimize(ReducedParams(alpha, psi, xi), rule)
                reports += 1
                expected = 2 * n if doubles(alpha, psi, n) else n
                if (report.pow2_lower, report.selected_n) != (n, expected):
                    misses.append((alpha, psi, n, rule, report.selected_n))
            alpha = math.nextafter(alpha, math.inf)
    return misses, reports


def test_the_selection_at_a_near_tie_follows_the_exact_law():
    misses, reports = near_tie_misses(NEAR_TIE_DRAWS, seed=9)
    assert misses == []
    assert reports == NEAR_TIE_DRAWS * 17 * 2


def test_every_calibrated_preset_selects_the_closed_form_panel():
    shares = {name: scenario for name, scenario in preset_scenarios().items()
              if isinstance(scenario.absorbing, Fraction)}
    assert len(shares) == 9
    for name, scenario in shares.items():
        red = scenario.reduced_params()
        bits = optimize(red, scenario.absorbing).selected_bits
        assert bits == closed_form_bits(red.alpha, red.psi), name


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
    At theta = 0 this is the exact law ``y > 8``, with no band.
    """
    if theta == 0:
        return doubles(red.alpha, red.psi, n), False
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


#: s(2) = s(8), the least share of the maximal proportional rate that the selected panel reaches.
SHARE_AT_THE_EDGES = 0.9653228842800636


def decimal_share(red: ReducedParams, n: int, theta: float) -> decimal.Decimal:
    """``h(y, c)/h(x*(c), c)``, ``h(y, c) = (1 - c sqrt(y)) ln(1 + y)/sqrt(y)``: the share of the
    maximal rate that panel ``n`` reaches, at its load ``y = alpha/(psi n^2)`` and
    ``c = theta sqrt(psi/alpha)`` (theta = 0 under a fraction), from the float inputs taken
    exactly, to about 50 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        alpha, psi = decimal.Decimal(red.alpha), decimal.Decimal(red.psi)
        c = decimal.Decimal(theta) * (psi / alpha).sqrt()

        def h(y: decimal.Decimal) -> decimal.Decimal:
            return (1 - c * y.sqrt()) * (1 + y).ln() / y.sqrt()

        return h(alpha / (psi * n * n)) / h(decimal_optimal_load(c))


def test_the_price_of_a_power_of_two_panel_is_at_most_3_47_percent():
    # s(y) = sqrt(t*/y) ln(1 + y)/ln(1 + t*) is equal at both ends of the loads (2, 8]
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        t_star = decimal_t_star()
        s2, s8 = ((t_star / y).sqrt() * (1 + y).ln() / (1 + t_star).ln()
                  for y in (decimal.Decimal(2), decimal.Decimal(8)))
    assert abs(s2 - s8) < decimal.Decimal("1e-45")
    assert str(s2).startswith("0.96532288428006")
    assert SHARE_AT_THE_EDGES == float(s2) and 1.0 - SHARE_AT_THE_EDGES < 0.0347

#: Draws of the two share laws in Tier-1; ``share_law(20_000, seed, rule)`` checks more offline.
SHARE_DRAWS = {"fraction": 1500, "fixed": 600}


def share_law(draws: int, seed: int, rule: str) -> tuple[float, int, float]:
    """The largest ``|selected_rate/f_at_exact / decimal_share - 1|`` in units of EPS, the draws
    it covers and the least ``selected_rate/f_at_exact`` among them.

    alpha/psi is log-uniform on [1e-1, 1e7]; under ``"fraction"`` q is uniform on [0, 0.9],
    under ``"fixed"`` theta an integer in [0, 50].  A draw whose optimum is at one element
    or beyond 512 (``at_boundary``) is left out.
    """
    rng = random.Random(seed)
    worst, covered, least = 0.0, 0, 1.0
    for _ in range(draws):
        ratio = 10.0 ** rng.uniform(-1.0, 7.0)
        psi = rng.choice((1.0, 4.0, 16.0, 64.0, rng.uniform(1.0, 1e3)))
        red = ReducedParams(ratio * psi, psi, 10.0 ** rng.uniform(-3.0, 9.0))
        theta = rng.randint(0, 50) if rule == "fixed" else 0
        absorbing = FixedCount(theta) if rule == "fixed" else Fraction(rng.uniform(0.0, 0.9))
        report = optimize(red, absorbing)
        if report.at_boundary:
            continue
        covered += 1
        share = report.selected_rate / report.f_at_exact
        exact = decimal_share(red, report.selected_n, theta)
        worst = max(worst, float(abs(decimal.Decimal(share) / exact - 1)) / EPS)
        least = min(least, share)
    return worst, covered, least


def test_the_selected_proportional_panel_reaches_the_share_s_of_its_load():
    # 20,000 draws each of seeds 1, 2, 3 and 4 (13,458, 13,627, 13,511 and 13,604 covered):
    # 4.38, 5.28, 4.44 and 4.76 EPS at most
    worst, covered, least = share_law(SHARE_DRAWS["fraction"], seed=9, rule="fraction")
    assert worst <= 6.0
    assert covered >= 0.6 * SHARE_DRAWS["fraction"]  # the boundary leaves out about a third
    assert least >= SHARE_AT_THE_EDGES * (1.0 - 6.0 * EPS)


def test_the_selected_fixed_count_panel_reaches_the_share_of_its_load_law():
    # 20,000 draws each of seeds 1, 2, 3 and 4 (17,300, 17,251, 17,265 and 17,172 covered):
    # 2.89, 2.88, 2.75 and 2.80 EPS at most
    worst, covered, _ = share_law(SHARE_DRAWS["fixed"], seed=9, rule="fixed")
    assert worst <= 4.0
    assert covered >= 0.8 * SHARE_DRAWS["fixed"]
