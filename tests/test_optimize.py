import decimal
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from omnidris.rate import (
    LN2,
    DegenerateConfigWarning,
    FixedCount,
    Fraction,
    ReducedParams,
    f_series,
    rate_total,
)
from omnidris.optimize import (
    HARDWARE_POWERS_OF_TWO,
    T_STAR,
    meaningful_root,
    optimize,
    optimize_fixed_theta,
    optimize_proportional,
    _exact_optimum,
    _optimal_load,
    _select,
)
from omnidris.scenario import NORMALIZED_COMBOS, alpha_calibration_for
from oracle import (
    bisection_exact_optimum,
    brute_force_argmax,
    build_cubic,
    decimal_argmax,
    decimal_cubic_root,
    load_law,
    probe_meaningful_root,
    solve_cubic,
    ulps_from,
    vector_rate,
)

# Largest cubic roots of the normalized benchmark combinations, frozen from
# a 40-digit polynomial root finder.
PRECISE_ROOTS = {
    "C0": 2.2728038542374058,
    "C1": 10.050247481688969,
    "C2": 20.025031171729371,
    "C3": 2.8405870061846885,
    "C4": 6.0844579645109247,
    "C5": 2.2728038542374058,
    "C6": 2.0865016891176002,
}
# Exact-rate argmax over [1, 50], same precision source.
PRECISE_ARGMAX = {
    "C0": 2.2120408969353,
    "C1": 10.049589870770,
    "C2": 20.024948123974,
    "C3": 2.5190078935458,
    "C4": 6.0814856085395,
    "C5": 2.2120408969353,
    "C6": 2.0782101422752,
}


def reduced(name: str) -> tuple[ReducedParams, float]:
    alpha, theta, xi, psi = NORMALIZED_COMBOS[name]
    return ReducedParams(alpha=alpha, psi=psi, xi=xi), theta


# --- cubic construction -----------------------------------------------------------


def test_build_cubic_unit_parameters():
    assert build_cubic(ReducedParams(1.0, 1.0, 1.0), 1.0) == (2.0, -4.0, -3.0, 4.0)


def test_build_cubic_substitution():
    assert build_cubic(ReducedParams(5.0, 5.0, 1.0), 5.0) == (10.0, -100.0, -15.0, 100.0)


def test_build_cubic_zero_theta_factorable():
    cubic = build_cubic(ReducedParams(1.0, 1.0, 1.0), 0.0)
    assert cubic == (2.0, 0.0, -3.0, 0.0)
    roots = solve_cubic(cubic)
    expected = math.sqrt(1.5)
    assert roots == pytest.approx([-expected, 0.0, expected], abs=1e-12)


def test_build_cubic_ignores_xi():
    low = build_cubic(ReducedParams(2.0, 3.0, 1.0), 4.0)
    high = build_cubic(ReducedParams(2.0, 3.0, 1000.0), 4.0)
    assert low == high


def test_cubic_coefficients_require_positive_leading_term():
    with pytest.raises(ValueError):
        solve_cubic((0.0, 1.0, 1.0, 1.0))


# --- root solving -----------------------------------------------------------------


@pytest.mark.parametrize(
    "name,published",
    [("C0", 2.2728), ("C1", 10.0502), ("C2", 20.0250), ("C3", 2.8406), ("C4", 6.0845), ("C6", 2.0865)],
)
def test_solve_cubic_matches_published_roots(name, published):
    red, theta = reduced(name)
    largest = solve_cubic(build_cubic(red, theta))[-1]
    assert largest == pytest.approx(published, rel=1e-3)
    assert largest == pytest.approx(PRECISE_ROOTS[name], rel=1e-9)


def test_solve_cubic_simple_factorable():
    roots = solve_cubic((1.0, 0.0, -1.0, 0.0))
    assert roots == pytest.approx([-1.0, 0.0, 1.0], abs=1e-12)


def test_solve_cubic_single_real_root():
    # x^3 + x + 1: one real root near -0.6823278
    roots = solve_cubic((1.0, 0.0, 1.0, 1.0))
    assert len(roots) == 1
    assert roots[0] == pytest.approx(-0.6823278038280193, rel=1e-12)


def test_solve_cubic_double_root_multiplicity():
    # (x - 1)^2 (x + 2) = x^3 - 3x + 2
    roots = solve_cubic((1.0, 0.0, -3.0, 2.0))
    assert roots == pytest.approx([-2.0, 1.0, 1.0], abs=1e-7)


def test_solve_cubic_triple_root():
    # (x - 1)^3 = x^3 - 3x^2 + 3x - 1
    roots = solve_cubic((1.0, -3.0, 3.0, -1.0))
    assert roots == pytest.approx([1.0, 1.0, 1.0], abs=1e-5)


def test_solve_cubic_residuals_are_tiny():
    for name in NORMALIZED_COMBOS:
        red, theta = reduced(name)
        c3, c2, c1, c0 = build_cubic(red, theta)
        root = solve_cubic((c3, c2, c1, c0))[-1]
        assert abs(((c3 * root + c2) * root + c1) * root + c0) <= 1e-8 * (c3 * root**3)


@given(
    c3=st.floats(min_value=0.1, max_value=50.0),
    c2=st.floats(min_value=-50.0, max_value=50.0),
    c1=st.floats(min_value=-50.0, max_value=50.0),
    c0=st.floats(min_value=-50.0, max_value=50.0),
)
@settings(derandomize=True, max_examples=300)
def test_solve_cubic_agrees_with_numpy(c3, c2, c1, c0):
    ours = solve_cubic((c3, c2, c1, c0))
    reference = np.roots([c3, c2, c1, c0])
    real_reference = sorted(
        float(r.real) for r in reference if abs(r.imag) <= 1e-7 * max(1.0, abs(r))
    )
    if len(ours) != len(real_reference):
        return  # borderline discriminant classified differently; covered above
    assert ours == pytest.approx(real_reference, rel=1e-6, abs=1e-6)


# --- meaningful root ---------------------------------------------------------------


def test_meaningful_root_c0():
    red, theta = reduced("C0")
    assert meaningful_root(red, theta) == pytest.approx(PRECISE_ROOTS["C0"], rel=1e-9)


def test_meaningful_root_c2():
    red, theta = reduced("C2")
    assert meaningful_root(red, theta) == pytest.approx(20.0250, rel=1e-3)


def test_meaningful_root_zero_theta():
    root = meaningful_root(ReducedParams(1.0, 1.0, 1.0), 0.0)
    assert root == pytest.approx(math.sqrt(1.5), rel=1e-9)


def test_meaningful_root_none_qualifies():
    red = ReducedParams(0.01, 1.0, 1.0)  # stationary point at sqrt(0.015) < 1
    assert meaningful_root(red, 0.0) is None


@pytest.mark.parametrize("call", [optimize_fixed_theta])
@pytest.mark.parametrize("flag", [True, False])
def test_a_boolean_is_not_an_absorbing_count(call, flag):
    # float(True) is 1.0: a boolean would silently stand for one element, as in rate_total
    with pytest.raises(ValueError, match=rf"^absorbing count must be a number >= 0, got {flag}$"):
        call(ReducedParams(5.0, 1.0, 1.0), flag)


@pytest.mark.parametrize("alpha,psi,theta", [(5e-324, 1e10, 0.0)])
def test_meaningful_root_rejects_a_cubic_beyond_the_float_range(alpha, psi, theta):
    # alpha/psi underflows, leaving the monic cubic x^3
    red = ReducedParams(alpha, psi, 1.0)
    assert probe_meaningful_root(solve_cubic(build_cubic(red, theta)), red, theta) is None
    assert meaningful_root(red, theta) is None


@pytest.mark.parametrize("name", sorted(NORMALIZED_COMBOS))
def test_meaningful_root_is_correctly_rounded(name):
    red, theta = reduced(name)
    root = meaningful_root(red, theta)
    error = abs(decimal.Decimal(root) - decimal_cubic_root(red, theta, root))
    assert error <= decimal.Decimal(math.ulp(root)) / 2


def test_the_cubic_root_stands_where_4_alpha_theta_overflows():
    # the paper's coefficient 4 alpha theta = 4e310 leaves the float range; its root does not
    red = ReducedParams(1e300, 1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateConfigWarning)  # every panel <= 512 absorbs
        report = optimize(red, FixedCount(10**10))
    assert not report.used_fallback
    root = report.n_star_cubic
    error = abs(decimal.Decimal(root) - decimal_cubic_root(red, 1e10, root))
    assert error <= 2 * decimal.Decimal(math.ulp(root))


def test_meaningful_root_at_a_huge_absorbing_count():
    # without the power-of-two unit, Newton would start at its bound 4e200 and overflow
    red, theta = ReducedParams(5.0, 1.0, 1.0), 1e200
    root = meaningful_root(red, theta)
    reference = solve_cubic(build_cubic(red, theta))[-1]
    assert math.isfinite(root)
    assert abs(root - reference) <= 2 * math.ulp(reference)


def test_the_cubic_root_stands_where_3_alpha_over_psi_overflows():
    # the derivative check's 3 alpha/psi = 3e308 leaves the float range; 3 (ratio/root) does not
    red = ReducedParams(1e308, 1.0, 1.0)
    expected = math.sqrt(1.5e308)
    assert abs(meaningful_root(red, 0.0) - expected) <= 2 * math.ulp(expected)
    assert not optimize(red, FixedCount(0)).used_fallback


def test_the_cubic_root_stands_where_1_5_alpha_over_psi_overflows():
    # the root's size sqrt(1.5 alpha/psi) is taken factor by factor where 1.5 alpha/psi overflows
    report = optimize(ReducedParams(1.7e308, 1.0, 1.0), FixedCount(0))
    expected = math.sqrt(1.5) * math.sqrt(1.7e308)
    assert not report.used_fallback
    assert abs(report.n_star_cubic - expected) <= 2 * math.ulp(expected)
    assert report.n_star_exact == 6.584084274651699e153  # 0.35 ULP from g's 50-digit root


# The ranges of the draws the derivative-sign rule was checked on.
WIDE_ALPHA = st.floats(min_value=-2.0, max_value=8.0).map(lambda e: 10.0**e)
WIDE_PSI = st.floats(min_value=1.0, max_value=1e3)
HARDWARE_PSI = st.sampled_from([1.0, 4.0, 16.0, 64.0])
WIDE_THETA = st.one_of(
    st.integers(min_value=0, max_value=50).map(float), st.floats(min_value=0.0, max_value=50.0)
)


def _newton_start(red: ReducedParams, theta: float) -> float:
    """meaningful_root's start ``u0 unit``, formed as it forms it (1.5 alpha/psi finite).

    With ``A = 2 theta`` and ``B = sqrt(1.5 rho)`` in units,
    ``u0 = (A + B)/2 + sqrt(((A - B)/2)^2 + K)`` with ``K = theta rho / (max(A, B) + B)``,
    raised by 2^-46 over the rounding of its float evaluation.
    """
    ratio = red.alpha / red.psi
    sqrt_triple = math.sqrt(1.5 * ratio)
    size = max(2.0 * theta, sqrt_triple)
    unit = math.ldexp(0.5, math.frexp(size)[1])
    a, s, r = 2.0 * theta / unit, sqrt_triple / unit, ratio / unit / unit
    k = 0.5 * (a * r) / (size / unit + s)
    return (0.5 * (a + s) + math.sqrt(0.25 * (a - s) * (a - s) + k)) * (1.0 + 2.0**-46) * unit


@settings(max_examples=300, deadline=None)
@given(alpha=WIDE_ALPHA, psi=WIDE_PSI, theta=WIDE_THETA)
@example(alpha=5.0, psi=1.0, theta=1e200)  # the root 2e200, past an underflowing difference quotient
@example(alpha=2.0, psi=3.0, theta=0.0)  # K = 0: the start is sqrt(1.5 rho), raised, on the root
def test_meaningful_root_matches_the_probe_reference(alpha, psi, theta):
    # the reference rounds the paper's coefficients, the monic form takes alpha/psi whole
    red = ReducedParams(alpha, psi, 1.0)
    roots = solve_cubic(build_cubic(red, theta))
    # Newton's start: at the largest root r >= max(A, B), (r - A)(r - B) = theta rho / (r + B)
    # is at most K, so r is at most the larger root u0 of (x - A)(x - B) = K, below A + B
    start, bound = _newton_start(red, theta), 2.0 * theta + math.sqrt(1.5 * (alpha / psi))
    assert start <= bound * (1.0 + 2.0**-45)  # u0 <= A + B, raised by 2^-46
    assert roots[-1] <= start * (1.0 + 2.0**-50)
    # the exact largest root, by Newton from above A + B, lies at or below the start
    assert decimal_cubic_root(red, theta, bound * (1.0 + 2.0**-40)) <= decimal.Decimal(start)
    expected = probe_meaningful_root(roots, red, theta)
    root = meaningful_root(red, theta)
    if expected is None:
        assert root is None
    else:
        assert abs(root - expected) <= 2 * math.ulp(expected)


@settings(max_examples=300, deadline=None)
@given(
    alpha=WIDE_ALPHA,
    psi=HARDWARE_PSI,
    theta=WIDE_THETA,
    scale_exp=st.integers(min_value=0, max_value=250),
)
def test_cubic_roots_follow_the_scaling_law(alpha, psi, theta, scale_exp):
    # n -> s n with alpha/psi -> s^2 alpha/psi and theta -> s theta maps the cubic onto itself;
    # a power of two s scales every step of the root search exactly
    s = 2.0**scale_exp
    root = meaningful_root(ReducedParams(alpha, psi, 1.0), theta)
    if root is None:
        return
    assert meaningful_root(ReducedParams(s * s * alpha, psi, 1.0), s * theta) == s * root


EPS = 2.0**-52


@settings(max_examples=300, deadline=None)
@given(
    alpha=st.floats(min_value=-300.0, max_value=307.0).map(lambda e: 10.0**e),
    psi=st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0**e),
    theta=st.one_of(
        st.just(0.0),
        st.integers(min_value=1, max_value=100).map(float),
        st.floats(min_value=0.0, max_value=200.0).map(lambda e: float(math.floor(10.0**e))),
    ),
)
def test_the_largest_root_rises_inside_the_series_domain(alpha, psi, theta):
    # p(2 theta) = p(sqrt(1.5 rho)) = -theta rho <= 0 puts the largest root r above both, so r
    # exceeds theta, the cubic rises through it and its load is at most 2/3: r >= 1 is all to check
    ratio = alpha / psi
    assume(ratio < math.inf)
    root = meaningful_root(ReducedParams(alpha, psi, 1.0), theta)
    if root is None:
        assert solve_cubic(build_cubic(ReducedParams(alpha, psi, 1.0), theta))[-1] < 1.0
        return
    assert root >= 2.0 * theta
    assert root >= math.sqrt(1.5) * math.sqrt(ratio) * (1.0 - 4.0 * EPS)
    assert alpha / (psi * root * root) <= (2.0 / 3.0) * (1.0 + 4.0 * EPS)
    # the paper's cubic'(root) / (psi root)
    assert 6.0 * root - 8.0 * theta - 3.0 * (ratio / root) > 0.0


# --- brute-force oracle ------------------------------------------------------------


def test_brute_force_c0():
    red, theta = reduced("C0")
    result = brute_force_argmax(red, theta, 1.0, 50.0, 100_000)
    assert not result.at_boundary
    assert result.n == pytest.approx(PRECISE_ARGMAX["C0"], abs=1e-4)
    assert result.f == pytest.approx(0.3252, rel=1e-3)


def test_brute_force_c2():
    red, theta = reduced("C2")
    result = brute_force_argmax(red, theta, 1.0, 50.0, 100_000)
    assert result.n == pytest.approx(20.0, abs=0.05)
    assert result.f == pytest.approx(0.3602, rel=1e-3)


def test_brute_force_monotone_regime_hits_boundary():
    red = ReducedParams(1e9, 1.0, 1.0)
    result = brute_force_argmax(red, 0.0, 1.0, 10.0, 2000)
    assert result.at_boundary
    assert result.n == 10.0


def test_brute_force_validation():
    red = ReducedParams(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        brute_force_argmax(red, 0.0, 0.5, 10.0)
    with pytest.raises(ValueError):
        brute_force_argmax(red, 0.0, 5.0, 5.0)
    with pytest.raises(ValueError):
        brute_force_argmax(red, 0.0, 1.0, 10.0, grid=10)


# --- power-of-two selection ----------------------------------------------------------


def test_select_exact_power_of_two_passes_through():
    red = ReducedParams(100.0, 1.0, 1.0)
    lower, upper, _, _, selected, _, _ = _select(red, 0.0, 0.0, 8.0)
    assert selected == 8
    assert lower == upper == 8


def test_select_noise_rows_match_published_pattern():
    xi = 5e5
    base = alpha_calibration_for(2.0)
    # PSD 5 row: optimum ~113.8, the upper candidate 128 wins
    red5 = ReducedParams(base * 2.0 / 5.0, 1.0, xi)
    n5 = math.sqrt(red5.alpha / T_STAR)
    lower, upper, _, _, selected, _, _ = _select(red5, 0.0, 0.5, n5)
    assert (lower, upper, selected) == (64, 128, 128)
    # PSD 3 row: optimum ~147, the lower candidate 128 wins
    red3 = ReducedParams(base * 2.0 / 3.0, 1.0, xi)
    n3 = math.sqrt(red3.alpha / T_STAR)
    lower, upper, _, _, selected, _, _ = _select(red3, 0.0, 0.5, n3)
    assert (lower, upper, selected) == (128, 256, 128)


def test_select_tie_prefers_smaller_panel():
    # both candidates fully absorbed: rates are exactly 0.0 each
    red = ReducedParams(1.0, 1.0, 1.0)
    with pytest.warns(Warning):
        lower, upper, rate_lower, rate_upper, selected, _, _ = _select(red, 5.0, 0.0, 2.5)
    assert rate_lower == rate_upper == 0.0
    assert selected == lower == 2


def test_select_below_one_degenerates():
    red = ReducedParams(1.0, 1.0, 1.0)
    lower, upper, _, _, selected, _, _ = _select(red, 0.0, 0.0, 0.4)
    assert lower == upper == 1
    assert selected == 1


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.floats(min_value=1.0, max_value=2.0**62),
        st.integers(min_value=0, max_value=62).map(lambda k: float(2**k)),
    )
)
def test_select_brackets_with_powers_of_two(n_star):
    lower, upper = _select(ReducedParams(1.0, 1.0, 1.0), 0.0, 0.0, n_star)[:2]
    assert lower <= n_star < 2 * lower
    assert lower & (lower - 1) == 0 and upper & (upper - 1) == 0
    is_pow2 = n_star.is_integer() and int(n_star) & (int(n_star) - 1) == 0
    assert (upper == lower) == is_pow2
    assert upper in (lower, 2 * lower)


# --- universal constant ----------------------------------------------------------------


def test_stationarity_constant_against_independent_bisection():
    # oracle: plain bisection on ln(1+t)(1+t) - 2t, written out here
    lo, hi = 1.0, 100.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.log1p(mid) * (1.0 + mid) - 2.0 * mid < 0.0:
            lo = mid
        else:
            hi = mid
    independent = 0.5 * (lo + hi)
    assert T_STAR == pytest.approx(independent, abs=1e-9)
    assert T_STAR == pytest.approx(3.92155, abs=1e-5)
    # the sign of g changes within one part in 1e12 either side of T_STAR
    def g(t):
        return math.log1p(t) - 2.0 * t / (1.0 + t)

    assert g(T_STAR * (1.0 - 1e-12)) < 0.0 < g(T_STAR * (1.0 + 1e-12))


# --- full optimization reports ------------------------------------------------------------


def test_optimize_fixed_theta_c1():
    red, theta = reduced("C1")
    report = optimize(red, FixedCount(int(theta)))
    assert report.n_star_cubic == pytest.approx(10.0502, rel=1e-3)
    assert report.f_at_cubic == pytest.approx(0.3589, rel=1e-3)
    assert report.n_star_exact == pytest.approx(10.0, abs=0.05)
    assert report.f_at_exact == pytest.approx(0.3588, rel=1e-3)
    assert not report.used_fallback and not report.at_boundary


def test_optimize_fixed_theta_c3_and_c6():
    red3, theta3 = reduced("C3")
    assert optimize(red3, FixedCount(int(theta3))).n_star_cubic == pytest.approx(2.8406, rel=1e-3)
    red6, theta6 = reduced("C6")
    report6 = optimize(red6, FixedCount(int(theta6)))
    assert report6.n_star_cubic == pytest.approx(2.0865, rel=1e-3)
    assert report6.f_at_cubic == pytest.approx(0.1154, rel=1e-3)


def test_oracle_is_never_beaten():
    # the cubic's two-term truncation costs the most at C3 (load ~0.37),
    # where the measured rate gap is 1.06%; everywhere else it is < 0.1%
    for name in NORMALIZED_COMBOS:
        red, theta = reduced(name)
        report = optimize(red, FixedCount(int(theta)))
        assert report.n_star_exact == pytest.approx(PRECISE_ARGMAX[name], rel=1e-12)
        assert report.f_at_exact >= report.f_exact_at_cubic * (1.0 - 1e-12)
        gap = (report.f_at_exact - report.f_exact_at_cubic) / report.f_at_exact
        assert gap <= 0.02


#: The rate fields of an OptimumReport; every other field is free of xi.
RATE_FIELDS = (
    "f_at_cubic", "f_at_exact", "f_exact_at_cubic", "rate_pow2_lower", "rate_pow2_upper",
    "selected_rate",
)


@settings(max_examples=200, deadline=None)
@given(
    alpha=WIDE_ALPHA,
    psi=HARDWARE_PSI,
    theta=WIDE_THETA,
    active_fraction=st.one_of(st.none(), st.floats(min_value=0.01, max_value=1.0)),
    xi=st.floats(min_value=-3.0, max_value=9.0).map(lambda e: 10.0**e),
    k=st.integers(min_value=-60, max_value=60),
)
def test_xi_scaling_cannot_move_the_optimum(alpha, psi, theta, active_fraction, xi, k):
    # the bandwidth xi scales the rate and nothing else: by 2^k exactly
    def run(scale):
        red = ReducedParams(alpha, psi, scale)
        if active_fraction is None:
            return optimize_fixed_theta(red, theta)
        return optimize_proportional(red, active_fraction)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateConfigWarning)
        unit, base, scaled = run(1.0), run(xi), run(xi * 2.0**k)
    assert (base.n_star_cubic, base.n_star_exact) == (unit.n_star_cubic, unit.n_star_exact)
    expected = {**base._asdict(), **{f: getattr(base, f) * 2.0**k for f in RATE_FIELDS}}
    assert scaled._asdict() == expected


def _fields_or_error(call, red, absorbing):
    """Every field of ``call(red, absorbing)`` in float.hex, or the error it raised."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateConfigWarning)
            report = call(red, absorbing)
    except ValueError as error:
        return repr(error)
    return [value.hex() if type(value) is float else repr(value) for value in report]


ANY_POSITIVE_FLOAT = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(
    alpha=ANY_POSITIVE_FLOAT,
    psi=ANY_POSITIVE_FLOAT,
    xi=ANY_POSITIVE_FLOAT,
    k=st.one_of(st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=2**1023)),
    q=st.one_of(
        st.sampled_from((0.0, 0.1, 0.25, 0.5, 0.9)),
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    ),
)
def test_the_benchmark_s_optimizer_calls_report_what_optimize_reports(alpha, psi, xi, k, q):
    # the benchmark times optimize_fixed_theta and optimize_proportional, the CLI calls optimize
    red = ReducedParams(alpha, psi, xi)
    fixed = _fields_or_error(optimize_fixed_theta, red, float(k))
    assert fixed == _fields_or_error(optimize, red, FixedCount(k))
    if 1.0 - (1.0 - q) == q:  # the share optimize_proportional derives is q itself
        proportional = _fields_or_error(optimize_proportional, red, 1.0 - q)
        assert proportional == _fields_or_error(optimize, red, Fraction(q))


def test_exact_optimum_survives_an_overflowing_slope_term():
    # at one element the load is 1e308, and 2 (1 - theta/n) x overflows unless divided first
    report = optimize(ReducedParams(1e308, 1.0, 1.0), FixedCount(0))
    assert report.n_star_exact == pytest.approx(math.sqrt(1e308 / T_STAR), rel=1e-12)


# Every kind of absorbing rule rate_total takes: the two records and three plain counts
# (a boolean is refused: test_rate.py::test_a_boolean_is_not_a_count).
ANY_RULE = st.one_of(
    st.integers(min_value=0, max_value=20).map(FixedCount),
    st.floats(min_value=0.0, max_value=0.99).map(Fraction),
    st.floats(min_value=0.0, max_value=20.0),
    st.integers(min_value=0, max_value=20),
    st.floats(min_value=0.0, max_value=20.0).map(np.float64),
)


@settings(max_examples=200, deadline=None)
@given(alpha=WIDE_ALPHA, psi=HARDWARE_PSI, rule=ANY_RULE, n=st.floats(min_value=1.0, max_value=1e4))
def test_every_rule_kind_gives_the_rate_and_selection_of_its_count(alpha, psi, rule, n):
    red = ReducedParams(alpha, psi, 1.0)
    record = isinstance(rule, (FixedCount, Fraction))
    theta = rule.theta_at(n) if record else float(rule)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateConfigWarning)
        expected = float(vector_rate(red, [n], rule)[0]).hex()
        assert rate_total(red, n, rule).hex() == expected
        assert rate_total(red, n, theta).hex() == expected
        report = optimize(red, rule) if record else optimize_fixed_theta(red, theta)
        count, q = (0.0, rule.q) if isinstance(rule, Fraction) else (theta, 0.0)
        lower, upper, rate_lower, rate_upper, selected, rate, _ = _select(
            red, count, q, min(report.n_star_exact, 512))
    fields = ("pow2_lower", "pow2_upper", "rate_pow2_lower", "rate_pow2_upper", "selected_n",
              "selected_rate", "selected_bits")
    assert repr(tuple(getattr(report, field) for field in fields)) == repr((
        lower, upper, rate_lower, rate_upper, selected, rate, selected.bit_length() - 1,
    ))


@settings(max_examples=200, deadline=None)
@given(
    alpha=WIDE_ALPHA,
    psi=WIDE_PSI,
    theta=WIDE_THETA,
    rule=st.one_of(
        st.none(),
        st.integers(min_value=0, max_value=50).map(FixedCount),
        st.floats(min_value=0.01, max_value=1.0),
        # a Fraction handed to optimize, where 1 - (1 - q) need not be q
        st.one_of(
            st.sampled_from((0.1, 0.15, 0.2, 0.3, 0.7, 0.9)), st.floats(min_value=0.0, max_value=0.99)
        ).map(Fraction),
    ),
)
def test_report_rates_are_the_rates_at_the_reported_counts(alpha, psi, theta, rule):
    # every rate of a report is, bit for bit, the checked public function at its count
    red = ReducedParams(alpha, psi, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateConfigWarning)
        if rule is None:
            absorbing, report = theta, optimize_fixed_theta(red, theta)
        elif isinstance(rule, (FixedCount, Fraction)):
            absorbing, report = rule, optimize(red, rule)
        else:
            absorbing = Fraction(1.0 - rule)
            report = optimize_proportional(red, rule)

        def rate(n):
            return rate_total(red, n, absorbing).hex()

        assert report.rate_pow2_lower.hex() == rate(float(report.pow2_lower))
        assert report.rate_pow2_upper.hex() == rate(float(report.pow2_upper))
        assert report.selected_rate.hex() == rate(float(report.selected_n))
        assert report.f_at_exact.hex() == rate(report.n_star_exact)
        assert report.f_exact_at_cubic.hex() == rate(report.n_star_cubic)
    assert report.selected_bits == report.selected_n.bit_length() - 1
    assert report.selected_n in (report.pow2_lower, report.pow2_upper)
    if report.mode == "fixed-count" and not report.used_fallback:
        series = f_series(red, report.n_star_cubic, report.theta, 2)
        assert report.f_at_cubic.hex() == series.hex()
    elif report.mode == "proportional" and report.n_star_cubic >= 1.0:
        assert report.f_at_cubic == report.f_exact_at_cubic == report.f_at_exact


#: The contract of ``n_star_exact``: its distance to the root of g, in ULP of that root.
EXACT_ULPS = 4.0


@settings(max_examples=300, deadline=None)
@given(alpha=WIDE_ALPHA, psi=HARDWARE_PSI, theta=WIDE_THETA)
def test_exact_optimum_matches_the_bisection_reference(alpha, psi, theta):
    # the slope's sign flickers over a few ULPs at the root, so the bisection's last float
    # is one of several near it; the contract is the distance to the root itself
    red = ReducedParams(alpha, psi, 1.0)
    n_exact, at_one = _exact_optimum(red, theta)
    reference, reference_at_one = bisection_exact_optimum(red, theta)
    assert at_one == reference_at_one
    assert abs(n_exact - reference) <= 1e-15 * reference
    if not at_one:
        assert ulps_from(n_exact, decimal_argmax(red, theta)) <= EXACT_ULPS


def test_the_load_law_at_c_0_is_t_star():
    # F(x) = 1 at c = 0 is ln(1 + x) = 2x/(1 + x), the proportional optimum's law
    assert _optimal_load(0.0) == T_STAR
    assert load_law(0.0, T_STAR) == 1.0
    assert load_law(0.0, 1e-300) == 0.5  # F(0+) = 1/2


@settings(max_examples=300, deadline=None)
@given(
    c=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=50.0)),
    x=st.floats(min_value=-5.0, max_value=0.6).map(lambda e: 10.0**e),
)
def test_the_load_law_rises_is_concave_and_is_solved(c, x):
    # three points a quarter apart: the gaps dwarf rounding, so the chords show F's shape
    left, mid, right = (load_law(c, x * r) for r in (0.75, 1.0, 1.25))
    assert left < mid < right
    assert left + right < 2.0 * mid
    root = _optimal_load(c)
    # at most the start min(t*, 1/(4c^2)): F(x) = 1 with (1 + x) ln(1 + x)/(2x) > 1/2
    assert 0.0 < root <= T_STAR and c * math.sqrt(root) <= 0.5
    assert abs(load_law(c, root) - 1.0) <= 4.0 * EPS


@settings(max_examples=200, deadline=None)
@given(alpha=WIDE_ALPHA, psi=HARDWARE_PSI)
def test_no_absorbing_count_is_the_proportional_optimum(alpha, psi):
    # FixedCount(0) and Fraction(0) both leave every element active: c = 0 and the load is t*
    fixed = optimize(ReducedParams(alpha, psi, 1.0), FixedCount(0)).n_star_exact
    share = optimize(ReducedParams(alpha, psi, 1.0), Fraction(0.0)).n_star_exact
    assert abs(fixed - share) <= 4 * math.ulp(share)


@pytest.mark.parametrize("alpha,psi,theta,expected", [
    # psi n^2 overflows near the optimum, 2 theta (1 + x*/2) with x* ~ 1e-273
    (1e36, 1e306, 12.0, 24.0),
    # psi is subnormal, so psi n^2 loses bits: theta = 0 puts the optimum at sqrt((alpha/psi)/t*)
    (1e-310, 1e-320, 0.0, math.sqrt(1e-310 / 1e-320 / T_STAR)),
])
def test_exact_optimum_holds_where_psi_n2_is_not_a_normal_float(alpha, psi, theta, expected):
    n_exact, at_one = _exact_optimum(ReducedParams(alpha, psi, 1.0), theta)
    assert not at_one
    assert abs(n_exact - expected) <= 4 * math.ulp(expected)


def test_exact_optimum_scales_to_the_edge_of_the_float_range():
    # c = theta sqrt(psi/alpha) ~ 0.77 puts the optimum at ~2.3e154, where psi n^2 overflows;
    # scaling alpha by 4^-100 and theta by 2^-100 keeps c and scales n* by 2^-100
    edge, at_one = _exact_optimum(ReducedParams(1.7e308, 1.0, 1.0), 1e154)
    inside, _ = _exact_optimum(ReducedParams(1.7e308 * 2.0**-200, 1.0, 1.0), 1e154 * 2.0**-100)
    assert not at_one
    assert abs(edge - inside * 2.0**100) <= 4 * math.ulp(edge)


def test_exact_optimum_survives_an_underflowing_load():
    # alpha/(psi theta^2) underflows to 0: the x -> 0 stationarity puts the root at 2 theta
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateConfigWarning)  # every panel <= 512 absorbs
        report = optimize(ReducedParams(5.0, 1.0, 1.0), FixedCount(10**200))
    assert report.n_star_exact == 2e200 == report.n_star_cubic
    assert report.at_boundary
    # n^2 psi overflows, so each rate is the first-order term, not a silent 0
    first_order = 0.5 * (5.0 / 2e200) / LN2
    assert first_order == 1.8033688011112042e-200
    assert report.f_at_exact == report.f_exact_at_cubic == report.f_at_cubic == first_order


def test_an_optimum_beyond_the_float_range_names_the_absorbing_count():
    # 2 theta overflows, and g(2 theta) > 0 puts the exact optimum above it
    problem = "absorbing count 1e+308 puts the exact optimum, near 2 x 1e+308, beyond the float range"
    with pytest.raises(ValueError) as raised:
        optimize(ReducedParams(5.0, 1.0, 1.0), FixedCount(10**308))
    assert str(raised.value) == problem


@settings(max_examples=100, deadline=None)
@given(
    alpha=WIDE_ALPHA,
    psi=HARDWARE_PSI,
    theta=st.one_of(
        st.integers(min_value=1, max_value=50).map(float), st.floats(min_value=1.0, max_value=50.0)
    ),
    xi=st.floats(min_value=-3.0, max_value=9.0).map(lambda e: 10.0**e),
    k=st.integers(min_value=0, max_value=60),
)
def test_fixed_count_optimum_follows_the_scaling_law(alpha, psi, theta, xi, k):
    # n -> s n, theta -> s theta and alpha -> s^2 alpha leave the load and theta/n
    # unchanged and scale the rate by s; with s = 2^k every step is exact
    s = 2.0**k
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateConfigWarning)
        base = optimize_fixed_theta(ReducedParams(alpha, psi, xi), theta)
        assume(base.n_star_exact != 1.0)
        scaled = optimize_fixed_theta(ReducedParams(s * s * alpha, psi, xi), s * theta)
    for field in ("n_star_exact", "n_star_cubic", "f_at_exact", "f_exact_at_cubic", "f_at_cubic"):
        assert getattr(scaled, field) == s * getattr(base, field), field
    assert scaled.used_fallback == base.used_fallback


def test_optimize_fixed_theta_fallback_to_oracle():
    report = optimize(ReducedParams(0.01, 1.0, 1.0), FixedCount(0))
    assert report.used_fallback
    assert report.at_boundary  # optimum below one element
    assert report.selected_n == 1
    assert report.selected_bits == 0


@settings(max_examples=100, deadline=None)
@given(
    alpha=st.floats(min_value=-2.0, max_value=7.0).map(lambda e: 10.0**e),
    psi=st.floats(min_value=-1.0, max_value=1.0).map(lambda e: 10.0**e),
    theta=st.one_of(
        st.integers(min_value=0, max_value=9), st.floats(min_value=0.0, max_value=20.0)
    ),
)
def test_exact_optimum_agrees_with_the_oracle(alpha, psi, theta):
    red = ReducedParams(alpha, psi, 1.0)
    report = optimize_fixed_theta(red, theta)
    # the optimum lies below ~2 theta + sqrt(alpha/psi); the range leaves headroom
    oracle = brute_force_argmax(red, theta, 1.0, 4.0 * (theta + math.sqrt(alpha / psi)) + 10.0)
    assert oracle.f <= report.f_at_exact * (1.0 + 1e-12)  # rounding only
    if report.n_star_exact > 1.0:
        assert not oracle.at_boundary
        assert abs(oracle.n - report.n_star_exact) <= 1e-7 * report.n_star_exact
    else:
        assert report.at_boundary and oracle.at_boundary and oracle.n == 1.0


@settings(max_examples=50, deadline=None)
@given(
    ratio=st.floats(min_value=-2.0, max_value=8.0).map(lambda e: 10.0**e),
    theta=st.one_of(
        st.integers(min_value=0, max_value=50), st.floats(min_value=0.0, max_value=50.0)
    ),
)
def test_the_exact_slope_changes_sign_at_most_once(ratio, theta):
    # unimodality: why comparing the two powers of two around the optimum suffices
    start = max(theta, 1.0) * (1.0 + 1e-9)
    signs = []
    for k in range(400):  # log-spaced from just above max(theta, 1) up x1e10
        n = start * 10.0 ** (10.0 * k / 399)
        x = ratio / (n * n)  # ratio is alpha/psi
        grow, shrink = math.log1p(x), 2.0 * (1.0 - theta / n) * x / (1.0 + x)
        if abs(grow - shrink) > 1e-12 * max(grow, shrink):
            signs.append(grow > shrink)  # the sign of gap = grow - shrink
    assert signs == sorted(signs, reverse=True)  # rising, then falling


@pytest.mark.parametrize("alpha,selected,at_boundary", [(1000.0, 16, False), (1e7, 512, True)])
def test_fixed_selection_brackets_the_exact_optimum(alpha, selected, at_boundary):
    # at theta = 0 the exact optimum is sqrt(alpha/(psi t*)), and the cubic
    # root sqrt(1.5 alpha/psi) lies sqrt(1.5 t*) ~ 2.425x beyond it
    red = ReducedParams(alpha, 1.0, 1.0)
    report = optimize(red, FixedCount(0))
    t_star = T_STAR
    assert report.n_star_exact == pytest.approx(math.sqrt(alpha / t_star), rel=1e-15)
    ratio = report.n_star_cubic / report.n_star_exact
    assert ratio == pytest.approx(math.sqrt(1.5 * t_star), rel=1e-12)
    assert ratio == pytest.approx(2.42535161406573, rel=1e-12)
    assert report.selected_n == selected
    assert report.at_boundary == at_boundary
    assert report.selected_rate == rate_total(red, float(selected), 0.0)


@settings(max_examples=300, deadline=None)
@given(
    alpha=st.floats(min_value=-2.0, max_value=8.0).map(lambda e: 10.0**e),
    psi=st.floats(min_value=-1.0, max_value=1.0).map(lambda e: 10.0**e),
    absorbing=st.one_of(
        st.integers(min_value=0, max_value=20).map(FixedCount),
        st.floats(min_value=0.0, max_value=0.99).map(Fraction),
    ),
)
def test_no_hardware_panel_beats_the_selected_one(alpha, psi, absorbing):
    red = ReducedParams(alpha, psi, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateConfigWarning)
        report = optimize(red, absorbing)
        best = max(rate_total(red, float(p), absorbing) for p in HARDWARE_POWERS_OF_TWO)
    assert report.selected_n in HARDWARE_POWERS_OF_TWO
    assert report.selected_rate == best


def test_optimize_proportional_oracle_agreement():
    red = ReducedParams(alpha_calibration_for(2.0), 1.0, 5e5)
    report = optimize(red, Fraction(0.0))
    assert report.n_star_cubic == pytest.approx(180.0, rel=1e-12)
    assert report.n_star_exact == pytest.approx(180.0, rel=1e-6)
    assert report.selected_n == 128
    assert report.selected_bits == 7


def test_optimize_proportional_active_fraction_factors_out():
    red = ReducedParams(900.0, 2.0, 7.0)
    full = optimize(red, Fraction(0.0))
    half = optimize(red, Fraction(0.5))
    assert half.n_star_cubic == full.n_star_cubic
    assert full.f_at_cubic == pytest.approx(2.0 * half.f_at_cubic, rel=1e-12)
    # closed form: f(n*) = xi (1 - q) n* log2(1 + t*)
    for report in (full, half):
        closed = red.xi * report.active_fraction * report.n_star_cubic
        closed *= math.log2(1.0 + T_STAR)
        assert report.f_at_cubic == pytest.approx(closed, rel=1e-12)


def test_optimize_proportional_l_doubling_law():
    red = ReducedParams(alpha_calibration_for(2.0), 1.0, 5e5)
    doubled = ReducedParams(red.alpha, 4.0 * red.psi, 2.0 * red.xi)
    base = optimize(red, Fraction(0.0))
    two_sources = optimize(doubled, Fraction(0.0))
    assert two_sources.n_star_cubic == pytest.approx(base.n_star_cubic / 2.0, rel=1e-12)
    assert two_sources.f_at_cubic == pytest.approx(base.f_at_cubic, rel=1e-12)


def test_optimize_proportional_noise_scaling_law():
    base = ReducedParams(5000.0, 1.0, 1.0)
    n_base = optimize(base, Fraction(0.5)).n_star_cubic
    for factor in (1.5, 2.0, 4.0):
        scaled = optimize(
            ReducedParams(base.alpha / factor, 1.0, 1.0), Fraction(0.5)
        ).n_star_cubic
        assert scaled == pytest.approx(n_base / math.sqrt(factor), rel=1e-12)


def test_optimize_proportional_matches_curve_read_trend():
    # published curve-read optima 150 / 120 / 90 for noise PSD 3 / 4 / 8
    for psd, read in ((3.0, 150.0), (4.0, 120.0), (8.0, 90.0)):
        red = ReducedParams(alpha_calibration_for(psd), 1.0, 5e5)
        n_star = optimize(red, Fraction(0.5)).n_star_cubic
        assert abs(n_star - read) / read <= 0.10


def test_optimizers_reject_an_overflowing_load():
    red = ReducedParams(1e300, 1e-10, 1.0)  # alpha/psi = inf: infinite rate at one element
    with pytest.raises(ValueError, match="overflows"):
        optimize(red, FixedCount(0))
    with pytest.raises(ValueError, match="overflows"):
        optimize(red, Fraction(0.5))


def test_the_two_term_rate_survives_an_overflowing_partial_product():
    # xi (n - theta) = 2.3e308 overflows on the way to a two-term value of ~1.17e308
    report = optimize(ReducedParams(5.0, 1.0, 1e308), FixedCount(1))
    unit = f_series(ReducedParams(5.0, 1.0, 1.0), report.n_star_cubic, 1.0, 2)
    assert report.f_at_cubic == 1e308 * unit
    assert 1.17e308 < report.f_at_cubic < 1.18e308


def test_optimize_fixed_theta_rejects_a_non_finite_absorbing_count():
    for theta in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"absorbing count theta .* got {theta}"):
            optimize_fixed_theta(ReducedParams(5.0, 1.0, 1.0), theta)


def test_optimize_proportional_survives_an_underflowing_optimum():
    # alpha/(psi t*) underflows, so n* = 0; the rate there is its limit 0, not an error
    red = ReducedParams(5e-324, 1e308, 1.0)
    report = optimize(red, Fraction(0.5))
    assert report == optimize_proportional(red, 0.5)
    assert (report.n_star_cubic, report.f_at_cubic, report.f_exact_at_cubic) == (0.0, 0.0, 0.0)
    assert (report.n_star_exact, report.selected_n, report.at_boundary) == (1.0, 1, True)
    assert not report.used_fallback


def test_optimize_proportional_validation():
    red = ReducedParams(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        optimize_proportional(red, 0.0)
    with pytest.raises(ValueError):
        optimize_proportional(red, 1.5)
