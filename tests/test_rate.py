import dataclasses
import fractions
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from omnidris.channel import channel_dc_gain, reference_room_geometry
from omnidris.rate import (
    LN2,
    DegenerateConfigWarning,
    FixedCount,
    Fraction,
    ReducedParams,
    SystemParams,
    bits_per_sequence,
    f_series,
    rate_single_link,
    rate_total,
    reduce_params,
    snr_single_link,
)
from oracle import vector_rate

# Frozen from 40-digit evaluations at the reference room parameters.
REFERENCE_GAIN = 1.5409187756393058e-7
REFERENCE_SNR_N128 = 3.6230936784633443e-17
REFERENCE_ALPHA = 2.5681129220781254e-13

NON_FINITE = (math.nan, math.inf, -math.inf)


def system(**overrides) -> SystemParams:
    base = dict(
        bandwidth_hz=1e6,
        transmit_power_w=10.0,
        num_light_sources=1,
        num_users=1,
        oe_conversion=0.5,
        noise_psd=2.0,
    )
    base.update(overrides)
    return SystemParams(**base)


# --- SNR ----------------------------------------------------------------------


def test_snr_all_unity_normalization():
    params = system(bandwidth_hz=1.0, transmit_power_w=1.0, oe_conversion=1.0)
    assert snr_single_link(params, gain=1.0, num_elements=1) == 1.0


def test_snr_quadratic_in_inverse_element_count():
    params = system()
    one = snr_single_link(params, REFERENCE_GAIN, 64)
    two = snr_single_link(params, REFERENCE_GAIN, 128)
    assert one == 4.0 * two


def test_snr_reference_room_value():
    gain = channel_dc_gain(reference_room_geometry())
    assert snr_single_link(system(), gain, 128) == pytest.approx(
        REFERENCE_SNR_N128, rel=1e-12
    )


def test_snr_rejects_zero_elements_and_negative_gain():
    with pytest.raises(ValueError):
        snr_single_link(system(), 1.0, 0)
    with pytest.raises(ValueError):
        snr_single_link(system(), -1e-9, 4)


# --- per-link rate --------------------------------------------------------------


def test_rate_zero_snr_is_exactly_zero():
    assert rate_single_link(system(), 0.0) == 0.0


def test_rate_unit_cases():
    params = system(bandwidth_hz=2.0)
    assert rate_single_link(params, 2.0 * math.pi / math.e) == pytest.approx(1.0, rel=1e-12)
    params = system(bandwidth_hz=1e6)
    assert rate_single_link(params, 2.0 * math.pi * 3.0 / math.e) == pytest.approx(
        1e6, rel=1e-12
    )


def test_rate_strictly_increasing_in_snr():
    params = system()
    values = [rate_single_link(params, snr) for snr in (0.0, 0.5, 1.0, 5.0, 100.0)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_rate_rejects_negative_snr():
    with pytest.raises(ValueError):
        rate_single_link(system(), -1.0)


# --- reduction -------------------------------------------------------------------


def test_reduce_unit_counts():
    red = reduce_params(system(bandwidth_hz=2.0), gain=1.0)
    assert red.psi == 1.0
    assert red.xi == 1.0


def test_reduce_counts_and_bandwidth():
    red = reduce_params(system(bandwidth_hz=1e6, num_users=2, num_light_sources=3), 1.0)
    assert red.psi == 36.0
    assert red.xi == 3e6


def test_reduce_reference_alpha():
    gain = channel_dc_gain(reference_room_geometry())
    red = reduce_params(system(), gain)
    assert red.alpha == pytest.approx(REFERENCE_ALPHA, rel=1e-12)


def test_reduce_rejects_zero_gain():
    with pytest.raises(ValueError):
        reduce_params(system(), 0.0)


def test_reduced_params_must_be_positive():
    bad_cases = [{"alpha": 0.0}, {"psi": -1.0}, {"xi": 0.0}]
    bad_cases += [{field: value} for field in ("alpha", "psi", "xi") for value in NON_FINITE]
    for bad in bad_cases:
        kwargs = dict(alpha=1.0, psi=1.0, xi=1.0)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            ReducedParams(**kwargs)


# --- aggregate rate ---------------------------------------------------------------


def test_rate_total_c0_probe():
    red = ReducedParams(1.0, 1.0, 1.0)
    assert rate_total(red, 2.2, 1.0) == pytest.approx(0.3252, abs=5e-5)


def test_rate_total_c1_probe():
    red = ReducedParams(5.0, 5.0, 5.0)
    assert rate_total(red, 10.0, 5.0) == pytest.approx(0.3588, rel=1e-3)


def test_rate_total_all_absorbing_is_zero_and_flagged():
    red = ReducedParams(1.0, 1.0, 1.0)
    with pytest.warns(DegenerateConfigWarning):
        assert rate_total(red, 8.0, 8.0) == 0.0


@settings(max_examples=150, deadline=None)
@given(
    log_alpha=st.floats(min_value=-3.0, max_value=9.0),
    psi=st.sampled_from([1.0, 4.0, 16.0, 64.0, 3.7]),
    xi=st.floats(min_value=1e-3, max_value=1e6),
    absorbing=st.one_of(
        st.integers(min_value=0, max_value=60).map(float),
        st.integers(min_value=0, max_value=60).map(FixedCount),
        st.floats(min_value=0.0, max_value=0.99).map(Fraction),
    ),
    ns=st.lists(st.floats(min_value=1.0, max_value=1e4), min_size=1, max_size=20),
    count=st.integers(min_value=1, max_value=1000),
)
def test_rate_total_array_path_matches_scalars(log_alpha, psi, xi, absorbing, ns, count):
    # one element count per call, for every scalar input type, gives the array formula's bits
    red = ReducedParams(10.0**log_alpha, psi, xi)
    grid = ns + [count]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the reference never warns
        reference = vector_rate(red, grid, absorbing)
    for n, value in zip(grid, reference):
        for scalar in (float(n), np.float64(n), np.array(n), n):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = rate_total(red, scalar, absorbing)
            assert type(result) is float
            assert result.hex() == float(value).hex()
            degenerate = [w for w in caught if w.category is DegenerateConfigWarning]
            assert len(degenerate) == (1 if value == 0.0 else 0)


def test_rate_total_takes_a_subnormal_load_to_first_order():
    # the load 1e-310 is subnormal; 1e-10/1e150 and its quotient by ln 2 are normal floats
    assert rate_total(ReducedParams(1e-10, 1.0, 1.0), 1e150, 0.0) == 1e-10 / 1e150 / LN2


EPS = 2.0**-52
MANTISSA = st.floats(min_value=1.0, max_value=2.0, exclude_max=True)


@st.composite
def loads_at_the_float_edges(draw):
    """(alpha, psi, n): psi n^2 and the load near or past the ends of the float range."""
    e_psi = draw(st.integers(min_value=-1074, max_value=1023))
    e_n = draw(st.integers(min_value=-1022, max_value=1023))
    e_alpha = draw(st.integers(min_value=-1030, max_value=1030)) + e_psi + 2 * e_n
    e_alpha = min(max(e_alpha, -1074), 1023)
    return tuple(math.ldexp(draw(MANTISSA), e) for e in (e_alpha, e_psi, e_n))


@settings(max_examples=300, deadline=None)
@given(params=loads_at_the_float_edges())
@example(params=(1e308, 1e300, 1e5))  # psi n^2 = 1e310 overflows, the load is 0.01
@example(params=(1e-300, 1e-10, 1e-150))  # psi n^2 = 1e-310 is subnormal, the load is 1e10
@example(params=(1.7e308, 1e-5, 1e3))  # alpha/psi overflows, the load is 1.7e307
@example(params=(1e-300, 1e20, 1.0))  # alpha/psi = 1e-320 is subnormal, and so is the load
@example(params=(1e-300, 1e10, 1e10))  # alpha/psi is normal, alpha/psi/n = 1e-320 is not
def test_the_load_leaves_the_floats_only_where_the_exact_load_does(params):
    alpha, psi, n = params
    load = fractions.Fraction(alpha) / (fractions.Fraction(psi) * fractions.Fraction(n) ** 2)
    if load < sys.float_info.min:  # the first-order term, xi putting the rate near 1/ln 2
        per_element = load * fractions.Fraction(n)
        scale = per_element.numerator.bit_length() - per_element.denominator.bit_length()
        xi = math.ldexp(1.0, min(-scale, 1023))
        expected = fractions.Fraction(xi) * per_element / fractions.Fraction(LN2)
        assume(expected >= sys.float_info.min)  # the exact rate is a normal float
        red = ReducedParams(alpha, psi, xi)
        for rate in (rate_total(red, n, 0.0), f_series(red, n, 0.0, 1)):
            assert abs(fractions.Fraction(rate) / expected - 1) <= 4 * EPS
        return
    xi = math.ldexp(1.0, -math.frexp(n)[1])  # xi n lies in [1/2, 1)
    red = ReducedParams(alpha, psi, xi)
    if load <= sys.float_info.max:
        x = float(load)
        expected, tolerance = xi * n * math.log1p(x) / LN2, 8 * EPS
        if x <= 1.0:  # one term of the series is the load itself
            assert f_series(red, n, 0.0, 1) == pytest.approx(xi * n / LN2 * x, rel=4 * EPS)
    else:  # log1p(load) = log(load) to far below a float's precision
        log_load = math.log(load.numerator) - math.log(load.denominator)
        expected, tolerance = xi * n * log_load / LN2, 64 * EPS
    assert rate_total(red, n, 0.0) == pytest.approx(expected, rel=tolerance)


def test_rate_total_rejects_an_overflowing_rate():
    with pytest.raises(ValueError, match=r"n = 4\.0 overflowed"):  # 3 log2(1 + 100/16) 1e308
        rate_total(ReducedParams(100.0, 1.0, 1e308), 4.0, 1.0)
    # n^2 psi underflows, so the load is infinite, but the rate 1e-200 log2(1 + 1e400) is finite
    assert rate_total(ReducedParams(1.0, 1.0, 1.0), 1e-200, 0.0) == pytest.approx(
        1.3287712379549448e-197, rel=1e-15
    )


def test_rate_total_keeps_a_finite_rate_whose_partial_product_overflows():
    # xi * active = 1e453 overflows, though the log1p / ln 2 factor brings the rate to ~1.44e153
    red, n = ReducedParams(1e-10, 1.0, 1e308), 1e145
    safe = red.xi * (n * (float(np.log1p(red.alpha / (red.psi * n * n))) / LN2))
    assert rate_total(red, n, 0.0) == pytest.approx(safe, rel=1e-15)
    assert 1.4e153 < safe < 1.5e153
    # first order: alpha/psi = 3.4e308 overflows, the rate is 2/ln 2
    red, n = ReducedParams(1.7e308, 0.5, 1.0), 1.7e308
    safe = red.xi * (n / n) * ((red.alpha / n) / red.psi) / LN2
    assert rate_total(red, n, 0.0) == pytest.approx(safe, rel=1e-15)
    assert safe == pytest.approx(2.0 / LN2, rel=1e-15)


def test_rate_total_takes_one_element_count():
    with pytest.raises(TypeError):
        rate_total(ReducedParams(1.0, 1.0, 1.0), [1.0, 2.0], 0.0)


def test_rate_total_rejects_nonpositive_counts():
    red = ReducedParams(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        rate_total(red, 0.0, 0.0)
    with pytest.raises(ValueError):
        rate_total(red, -2.0, 0.0)
    with pytest.raises(ValueError):
        rate_total(red, 4.0, -1.0)
    for value in NON_FINITE:
        with pytest.raises(ValueError, match="positive and finite"):
            rate_total(red, value, 0.0)
    with pytest.raises(ValueError, match="absorbing count"):
        rate_total(red, 4.0, math.nan)


@pytest.mark.parametrize("call, argument", [
    pytest.param(lambda red: rate_total(red, 8.0, True), "absorbing count", id="rate-theta-True"),
    pytest.param(lambda red: rate_total(red, 8.0, False), "absorbing count", id="rate-theta-False"),
    pytest.param(lambda red: rate_total(red, True, 0.0), "element count n", id="rate-n-True"),
    pytest.param(lambda red: rate_total(red, False, FixedCount(1)), "element count n",
                 id="rate-n-False-record"),
    pytest.param(lambda red: FixedCount(True), "absorbing count", id="FixedCount-True"),
])
def test_a_boolean_is_not_a_count(call, argument):
    # float(True) is 1.0: a boolean would silently stand for one element
    with pytest.raises(ValueError, match=rf"^{argument} must be .*, got (True|False)$"):
        call(ReducedParams(1.0, 1.0, 1.0))


def test_rate_total_equals_explicit_triple_sum():
    # independent oracle: sum the per-link rate over sources, users, active elements
    params = system(num_light_sources=2, num_users=3)
    gain = channel_dc_gain(reference_room_geometry())
    n, theta = 12, 3
    per_link = rate_single_link(params, snr_single_link(params, gain, n))
    total = 0.0
    for _ in range(params.num_light_sources):
        for _ in range(params.num_users):
            for _ in range(n - theta):
                total += per_link
    red = reduce_params(params, gain)
    assert rate_total(red, float(n), float(theta)) == pytest.approx(total, rel=1e-12)


def test_active_fraction_linearity():
    red = ReducedParams(2.7, 1.3, 4.4)
    for n in (10.0, 37.3, 128.0, 250.0):
        full = rate_total(red, n, Fraction(0.0))
        three_quarters = rate_total(red, n, Fraction(0.25))
        half = rate_total(red, n, Fraction(0.5))
        assert three_quarters == pytest.approx(0.75 * full, rel=1e-12)
        assert half == pytest.approx(0.5 * full, rel=1e-12)


# alpha, psi and xi over 1e-300 .. 1e300 and n over 1 .. 1e300: the whole float range
LOG_SCALE = st.floats(min_value=-300.0, max_value=300.0)


@settings(max_examples=200, deadline=None)
@given(
    log_alpha=LOG_SCALE,
    log_psi=LOG_SCALE,
    log_xi=LOG_SCALE,
    log_n=st.floats(min_value=0.0, max_value=300.0),
    q=st.sampled_from((0.25, 0.5)),
)
def test_active_share_ratios_hold_over_the_float_range(log_alpha, log_psi, log_xi, log_n, q):
    red = ReducedParams(10.0**log_alpha, 10.0**log_psi, 10.0**log_xi)
    n = 10.0**log_n
    try:
        share, full = rate_total(red, n, Fraction(q)), rate_total(red, n, Fraction(0.0))
    except ValueError:  # the rate is beyond the float range
        reject()
    assume(share >= sys.float_info.min)  # a subnormal rate has fewer than 53 significant bits
    assert abs(share / full - (1.0 - q)) <= 1e-15 * (1.0 - q)


def test_rate_total_monotonicity_in_reduced_params():
    n, theta = 16.0, 2.0
    base = rate_total(ReducedParams(2.0, 3.0, 5.0), n, theta)
    assert rate_total(ReducedParams(4.0, 3.0, 5.0), n, theta) > base
    assert rate_total(ReducedParams(2.0, 3.0, 9.0), n, theta) > base
    assert rate_total(ReducedParams(2.0, 6.0, 5.0), n, theta) < base


# alpha over 1e-6 .. 1e12, the hardware psi values and xi over 1e-3 .. 1e9
LOG_ALPHA = st.floats(min_value=-6.0, max_value=12.0)
LOG_XI = st.floats(min_value=-3.0, max_value=9.0)
HARDWARE_PSI = st.sampled_from([1.0, 4.0, 16.0, 64.0])


@settings(max_examples=100, deadline=None)
@given(
    log_alpha=LOG_ALPHA,
    factor=st.floats(min_value=1.5, max_value=1e3),
    psis=st.lists(HARDWARE_PSI, min_size=2, max_size=2, unique=True).map(sorted),
    log_xi=LOG_XI,
    log_n=st.floats(min_value=0.0, max_value=4.0),
    theta_share=st.floats(min_value=0.0, max_value=0.9),
)
def test_rate_total_rises_with_alpha_and_falls_with_psi(
    log_alpha, factor, psis, log_xi, log_n, theta_share
):
    alpha, xi, n = 10.0**log_alpha, 10.0**log_xi, 10.0**log_n
    theta = theta_share * n
    psi, larger_psi = psis
    base = rate_total(ReducedParams(alpha, psi, xi), n, theta)
    assert rate_total(ReducedParams(alpha * factor, psi, xi), n, theta) > base
    assert rate_total(ReducedParams(alpha, larger_psi, xi), n, theta) < base


@settings(max_examples=100, deadline=None)
@given(
    log_alpha=LOG_ALPHA,
    psi=HARDWARE_PSI,
    log_xi=LOG_XI,
    bits=st.integers(min_value=0, max_value=9),
    theta_share=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
def test_bits_round_trip_over_wide_ranges(log_alpha, psi, log_xi, bits, theta_share):
    # an integer absorbing count below the power-of-two panel
    red = ReducedParams(10.0**log_alpha, psi, 10.0**log_xi)
    n = 2**bits
    theta = math.floor(theta_share * n)
    rate = rate_total(red, float(n), float(theta))
    assert abs(bits_per_sequence(red, rate, n - theta) - bits) <= 1e-12


# --- series form -------------------------------------------------------------------


def test_f_series_single_term():
    red = ReducedParams(1.0, 1.0, 1.0)
    assert f_series(red, 10.0, 0.0, 1) == pytest.approx(0.1 / LN2, rel=1e-14)
    # with one absorbing element: 9 * 0.01 / ln2 = 0.12984...
    assert f_series(red, 10.0, 1.0, 1) == pytest.approx(0.09 / LN2, rel=1e-14)
    assert f_series(red, 10.0, 1.0, 1) == pytest.approx(0.12984, abs=5e-6)


def test_f_series_converges_to_exact_rate():
    red = ReducedParams(1.125, 1.0, 1.0)  # load x = 1.125 / 1.5^2 = 0.5
    exact = rate_total(red, 1.5, 0.0)
    approx = f_series(red, 1.5, 0.0, 40)
    assert abs(approx - exact) <= 1e-12 * abs(exact)


def test_f_series_partial_sums_bracket_exact_rate():
    red = ReducedParams(2.0, 1.0, 3.0)
    n, theta = 2.0, 0.5  # load x = 0.5
    exact = rate_total(red, n, theta)
    for terms in range(1, 9):
        value = f_series(red, n, theta, terms)
        if terms % 2 == 1:
            assert value >= exact
        else:
            assert value <= exact


def test_f_series_error_bound():
    red = ReducedParams(2.0, 1.0, 3.0)
    n, theta = 2.0, 0.5
    x = red.alpha / (red.psi * n * n)
    exact = rate_total(red, n, theta)
    for terms in (1, 2, 3, 5, 10, 20):
        bound = red.xi * (n - theta) / LN2 * x ** (terms + 1) / (terms + 1)
        assert abs(f_series(red, n, theta, terms) - exact) <= bound * (1.0 + 1e-12)


def test_f_series_rejects_out_of_domain_load():
    red = ReducedParams(10.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="convergence"):
        f_series(red, 2.0, 0.0, 5)  # x = 2.5
    with pytest.raises(ValueError):
        f_series(ReducedParams(1.0, 1.0, 1.0), 10.0, 0.0, 0)


def test_f_series_takes_an_infinite_load_as_outside_the_domain():
    # n^2 psi underflows to 0: the load is infinite, not a division by zero
    with pytest.raises(ValueError, match="outside the convergence domain"):
        f_series(ReducedParams(1.0, 1.0, 1.0), 1e-200, 0.0, 2)


def test_f_series_rejects_non_finite_counts():
    for value in NON_FINITE:
        with pytest.raises(ValueError, match="element count must be positive and finite"):
            f_series(ReducedParams(1.0, 1.0, 1.0), value, 0.0, 2)


# --- bit-count inversion -------------------------------------------------------------


def test_bits_round_trip_pow2():
    red = ReducedParams(2.5, 4.0, 3.0)
    rate = rate_total(red, 128.0, 3.0)
    assert bits_per_sequence(red, rate, 125.0) == pytest.approx(7.0, abs=1e-9)


def test_bits_single_element():
    red = ReducedParams(1.7, 0.9, 2.2)
    rate = rate_total(red, 1.0, 0.0)
    assert bits_per_sequence(red, rate, 1.0) == pytest.approx(0.0, abs=1e-9)


def test_bits_c0_operating_point():
    red = ReducedParams(1.0, 1.0, 1.0)
    bits = bits_per_sequence(red, 0.3252, 1.2)
    assert bits == pytest.approx(math.log2(2.2), abs=1e-3)


def test_bits_rejects_infeasible_rate():
    red = ReducedParams(1.0, 1.0, 1.0)
    capacity_at_one = rate_total(red, 1.0, 0.0)
    with pytest.raises(ValueError, match="single-element capacity"):
        bits_per_sequence(red, 2.0 * capacity_at_one, 1.0)
    with pytest.raises(ValueError):
        bits_per_sequence(red, 0.0, 1.0)
    with pytest.raises(ValueError):
        bits_per_sequence(red, 1.0, 0.0)


@given(
    log_alpha=st.floats(min_value=-1.0, max_value=4.0),
    log_psi=st.floats(min_value=-1.0, max_value=1.0),
    log_xi=st.floats(min_value=0.0, max_value=6.0),
    bits=st.integers(min_value=1, max_value=9),
    theta_fraction=st.floats(min_value=0.0, max_value=0.9),
)
@settings(derandomize=True, max_examples=200)
def test_bits_round_trip_property(log_alpha, log_psi, log_xi, bits, theta_fraction):
    red = ReducedParams(10.0**log_alpha, 10.0**log_psi, 10.0**log_xi)
    n = 2**bits
    theta = float(int(theta_fraction * n))
    rate = rate_total(red, float(n), theta)
    recovered = bits_per_sequence(red, rate, n - theta)
    assert abs(recovered - bits) <= 1e-9


# --- configuration type ---------------------------------------------------------------


def test_ris_config_validation():
    with pytest.raises(ValueError):
        FixedCount(-1)
    with pytest.raises(ValueError):
        Fraction(1.0)
    with pytest.raises(ValueError):
        Fraction(math.nan)


@pytest.mark.parametrize(
    "make",
    [
        FixedCount,
        lambda value: system(num_light_sources=value),
        lambda value: system(num_users=value),
    ],
    ids=["FixedCount.count", "SystemParams.num_light_sources", "SystemParams.num_users"],
)
def test_integer_fields_reject_booleans(make):
    for value in (True, False):
        with pytest.raises(ValueError, match="integer"):
            make(value)


def test_system_params_validation():
    with pytest.raises(ValueError):
        system(bandwidth_hz=0.0)
    with pytest.raises(ValueError):
        system(num_users=0)
    with pytest.raises(ValueError):
        system(oe_conversion=1.5)
    with pytest.raises(ValueError):
        system(noise_psd=-2.0)
    # the noise variance noise_psd / 2 divides the SNR and alpha, so its half must not underflow
    with pytest.raises(ValueError, match="noise_psd"):
        system(noise_psd=5e-324)
    smallest = system(noise_psd=1e-323, transmit_power_w=1e-150)
    assert 0.0 < snr_single_link(smallest, 1.0, 1) < math.inf
    for field in ("bandwidth_hz", "transmit_power_w", "oe_conversion", "noise_psd"):
        for value in NON_FINITE:
            with pytest.raises(ValueError, match=field):
                system(**{field: value})


# --- input and float-range boundaries ------------------------------------------------


def test_squares_beyond_the_float_range_raise_value_errors():
    far = dataclasses.replace(reference_room_geometry(), dist_ris_user_m=1e-200)
    with pytest.raises(ValueError, match="alpha must be positive and finite, got inf"):
        reduce_params(system(transmit_power_w=1e200), 1.0)
    with pytest.raises(ValueError, match="num_light_sources is too large to be a float"):
        snr_single_link(system(num_light_sources=10**400), 1.0, 1)
    with pytest.raises(ValueError, match="the channel gain overflowed the float range"):
        channel_dc_gain(far)


_PARAMS = system()
_RED = ReducedParams(5.0, 5.0, 5.0)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: snr_single_link(_PARAMS, math.nan, 4), "channel gain must be >= 0 and finite"),
        (lambda: snr_single_link(_PARAMS, math.inf, 4), "channel gain must be >= 0 and finite"),
        (lambda: snr_single_link(_PARAMS, 1e-7, math.nan), "num_elements must be >= 1"),
        (lambda: snr_single_link(_PARAMS, 1e-7, 10**400), "num_elements is too large"),
        (lambda: rate_single_link(_PARAMS, math.nan), "snr must be >= 0 and finite"),
        (lambda: rate_single_link(_PARAMS, math.inf), "snr must be >= 0 and finite"),
        (lambda: rate_single_link(system(bandwidth_hz=1e308), 1e300), "link rate overflowed"),
        (lambda: bits_per_sequence(_RED, math.nan, 4.0), "rate must be positive and finite"),
        (lambda: bits_per_sequence(_RED, 1.0, math.nan), "active element count must be positive"),
        (lambda: f_series(_RED, 10.0, math.nan, 2), r"absorbing count must lie in \[0, n"),
        (lambda: f_series(_RED, 10.0, -5.0, 2), r"absorbing count must lie in \[0, n"),
        (lambda: f_series(_RED, 10.0, 20.0, 2), r"absorbing count must lie in \[0, n"),
    ],
    ids=[
        "snr-gain-nan", "snr-gain-inf", "snr-elements-nan", "snr-elements-1e400",
        "link-rate-snr-nan", "link-rate-snr-inf", "link-rate-overflow",
        "bits-rate-nan", "bits-active-nan", "series-theta-nan", "series-theta-negative",
        "series-theta-above-n",
    ],
)
def test_non_finite_and_out_of_range_inputs_are_value_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()
