"""Acceptance suite: one test per acceptance criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion (add ``-s`` to see the explicit PASS prints).

Criterion 8b checks the 40-term series against its own remainder bound at
every load alpha/(N^2 psi) <= 0.9: the partial sums S40 <= exact <= S41
bracket the exact rate, the error is at most the first omitted term
x^41 / (41 ln(1 + x)) relative, and it is within 1e-10 relative wherever
that bound is (x <~ 0.613).  A flat 1e-10 cannot hold near load 0.9 for
any correct implementation: there the measured error is 2.69e-4 relative
against a bound of 5.06e-4.
"""
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

from omnidris.channel import channel_dc_gain, reference_room_geometry
from omnidris.optimize import (
    T_STAR,
    _select,
    meaningful_root,
    optimize,
)
from omnidris.rate import (
    LN2,
    FixedCount,
    Fraction,
    ReducedParams,
    bits_per_sequence,
    f_series,
    rate_total,
)
from omnidris.reports import CALIBRATION_NOTE, reproduce_table1, reproduce_table2
from omnidris.scenario import NORMALIZED_COMBOS, alpha_calibration_for
from oracle import brute_force_argmax

README = Path(__file__).resolve().parents[1] / "README.md"

# Published normalized-table targets (criterion order: C0..C6).
CALCULATED_SCENARIOS = ["C0", "C1", "C2", "C3", "C4", "C6"]  # C5 handled by criterion 3
CALCULATED_N = [2.2728, 10.0502, 20.0250, 2.8406, 6.0845, 2.0865]
CALCULATED_F = [0.3211, 0.3589, 0.3602, 0.8037, 0.1186, 0.1154]
MEASURED_SCENARIOS = ["C0", "C1", "C2", "C3", "C4", "C5", "C6"]
MEASURED_N = [2.2, 10.0, 20.0, 2.5, 6.1, 2.2, 2.1]
MEASURED_F = [0.3252, 0.3588, 0.3602, 0.8484, 0.1186, 0.9755, 0.1156]


def reduced(name):
    alpha, theta, xi, psi = NORMALIZED_COMBOS[name]
    return ReducedParams(alpha=alpha, psi=psi, xi=xi), theta


def test_criterion_01_calculated_table_reproduction():
    start = time.perf_counter()
    results = {}
    for name in CALCULATED_SCENARIOS:
        red, theta = reduced(name)
        root = meaningful_root(red, theta)
        results[name] = (root, f_series(red, root, theta, 2))
    elapsed = time.perf_counter() - start

    for name, target_n, target_f in zip(CALCULATED_SCENARIOS, CALCULATED_N, CALCULATED_F):
        root, series_rate = results[name]
        assert abs(root - target_n) <= 1e-3 * target_n, (
            f"{name}: calculated N {root} vs published {target_n}"
        )
        assert abs(series_rate - target_f) <= 1e-3 * target_f, (
            f"{name}: calculated f {series_rate} vs published {target_f}"
        )
    assert elapsed < 1.0, f"calculated-table reproduction took {elapsed:.3f} s"
    print(f"criterion 1: PASS (calculated N and f match for {CALCULATED_SCENARIOS}, {elapsed:.3f} s)")


def test_criterion_02_measured_table_reproduction():
    start = time.perf_counter()
    results = {}
    for name in MEASURED_SCENARIOS:
        red, theta = reduced(name)
        results[name] = brute_force_argmax(red, theta, 1.0, 50.0, 100_000)
    elapsed = time.perf_counter() - start

    for name, target_n, target_f in zip(MEASURED_SCENARIOS, MEASURED_N, MEASURED_F):
        oracle = results[name]
        assert abs(oracle.n - target_n) <= 0.05, (
            f"{name}: measured N {oracle.n} vs published {target_n}"
        )
        assert abs(oracle.f - target_f) <= 1e-3 * target_f, (
            f"{name}: measured f {oracle.f} vs published {target_f}"
        )
    assert elapsed < 5.0, f"measured-table reproduction took {elapsed:.3f} s"
    print(f"criterion 2: PASS (oracle argmax and rate match for C0..C6, {elapsed:.3f} s)")


def test_criterion_03_c5_anomaly_handling():
    alpha, theta, _, psi = NORMALIZED_COMBOS["C5"]
    reports = [
        optimize(ReducedParams(alpha, psi, xi), FixedCount(int(theta))) for xi in (1.0, 3.0, 10.0)
    ]
    base = reports[0]
    for report in reports[1:]:
        assert abs(report.n_star_cubic - base.n_star_cubic) <= 1e-9 * base.n_star_cubic
        assert abs(report.n_star_exact - base.n_star_exact) <= 1e-9 * base.n_star_exact
    # the published C5 measured values must still reproduce (criterion 2 list)
    red, theta5 = reduced("C5")
    oracle = brute_force_argmax(red, theta5, 1.0, 50.0, 100_000)
    assert abs(oracle.n - 2.2) <= 0.05
    assert abs(oracle.f - 0.9755) <= 1e-3 * 0.9755
    print(
        "criterion 3: PASS (optimum invariant under rate scaling; "
        f"C5 measured ({oracle.n:.4f}, {oracle.f:.4f}) reproduces)"
    )


def test_criterion_04_active_fraction_ratios():
    red = ReducedParams(alpha_calibration_for(2.0), 1.0, 5e5)
    for n in (10.0, 37.3, 128.0, 180.0, 256.0, 509.0):
        full = rate_total(red, n, Fraction(0.0))
        three_quarters = rate_total(red, n, Fraction(0.25))
        half = rate_total(red, n, Fraction(0.5))
        assert abs(three_quarters / full - 0.75) <= 1e-12
        assert abs(half / full - 0.5) <= 1e-12
    print("criterion 4: PASS (zeta in {N, 3N/4, N/2} gives exact 1 : 0.75 : 0.5 rates)")


def test_criterion_05_power_of_two_selection_pattern():
    report = reproduce_table1()
    selections = [row.selected_n for row in report.rows]
    assert selections == [128, 128, 128, 128, 128, 64], selections
    assert all(row.pattern_ok for row in report.rows)
    # tie-break: equal rates at both candidates resolve to the smaller panel
    red = ReducedParams(1.0, 1.0, 1.0)
    with pytest.warns(Warning):
        lower, _, rate_lower, rate_upper, selected, _, _ = _select(red, 5.0, 0.0, 2.5)
    assert rate_lower == rate_upper
    assert selected == lower == 2
    print("criterion 5: PASS (selections 128/128/128, 128@psd3, 64@psd8; ties pick smaller N)")


def _independent_tstar() -> float:
    lo, hi = 1.0, 100.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.log1p(mid) * (1.0 + mid) - 2.0 * mid < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_06_proportional_universal_constant():
    independent = _independent_tstar()
    assert abs(T_STAR - independent) <= 1e-6
    t_star = T_STAR

    rng = np.random.default_rng(20260810)
    checked = 0
    while checked < 100:
        alpha = 10.0 ** rng.uniform(1.0, 6.0)
        psi = 10.0 ** rng.uniform(-1.0, 1.0)
        n_star = math.sqrt(alpha / (psi * t_star))
        if not 1.3 <= n_star <= 400.0:
            continue
        red = ReducedParams(alpha, psi, 1.0)
        oracle = brute_force_argmax(red, Fraction(0.5), 1.0, max(50.0, 4.0 * n_star), 20_000)
        assert abs(oracle.n - n_star) <= 1e-6 * n_star, (alpha, psi, oracle.n, n_star)
        checked += 1
    print(f"criterion 6: PASS (t* = {t_star:.6f}; analytic optimum matches oracle on 100 draws)")


def test_criterion_07_source_doubling_law():
    rng = np.random.default_rng(20260811)
    for _ in range(20):
        red = ReducedParams(
            10.0 ** rng.uniform(2.0, 6.0), 10.0 ** rng.uniform(-1.0, 1.0), 10.0 ** rng.uniform(0.0, 6.0)
        )
        doubled = ReducedParams(red.alpha, 4.0 * red.psi, 2.0 * red.xi)
        for q in (0.0, 0.25):
            base = optimize(red, Fraction(q))
            two = optimize(doubled, Fraction(q))
            assert abs(two.n_star_cubic - base.n_star_cubic / 2.0) <= 1e-9 * base.n_star_cubic
            assert abs(two.f_at_cubic - base.f_at_cubic) <= 1e-9 * base.f_at_cubic
    print("criterion 7: PASS (doubling sources halves N*, continuous peak rate unchanged)")


def test_criterion_08a_two_term_series_is_stationary_at_the_cubic_root():
    for name in CALCULATED_SCENARIOS:
        red, theta = reduced(name)
        root = meaningful_root(red, theta)
        h = 1e-6 * root
        derivative = (f_series(red, root + h, theta, 2) - f_series(red, root - h, theta, 2)) / (
            2.0 * h
        )
        log_slope = abs(derivative) * root / f_series(red, root, theta, 2)
        assert log_slope <= 1e-6, f"{name}: relative series slope {log_slope:.3e} at root"
    print("criterion 8a: PASS (two-term series derivative vanishes at every cubic root)")


def test_criterion_08b_forty_term_series_accuracy_up_to_load_0_9():
    # The 40-term series is held to its documented promise at every load:
    # (a) S40 <= exact <= S41, (b) exact - S40 is at most the first omitted
    # term, x^41 / (41 ln(1 + x)) relative, and (c) the error is within
    # 1e-10 relative wherever that bound is itself <= 1e-10 (loads 0.1-0.6
    # here).  `rounding` is the only allowance beyond the bound (measured
    # float summation error <= 3.6e-16 relative).
    rounding = 1e-14
    target = 1e-10
    n, theta = 10.0, 0.0
    report = []
    failed = False
    for load in np.arange(0.1, 0.91, 0.1):
        red = ReducedParams(load * n * n, 1.0, 1.0)
        exact = rate_total(red, n, theta)
        below = (exact - f_series(red, n, theta, 40)) / exact
        above = (f_series(red, n, theta, 41) - exact) / exact
        bound = load**41 / (41.0 * math.log1p(load))
        broken = []
        if below < -rounding or above < -rounding:
            broken.append("S40 <= exact <= S41 bracket broken")
        if below > bound + rounding:
            broken.append("error exceeds the remainder bound")
        if bound <= target and abs(below) > target:
            broken.append(f"error exceeds {target:g} where the bound allows it")
        failed = failed or bool(broken)
        report.append(
            f"load {load:.1f}: rel error {below:.3e} (S41 excess {above:.3e}, "
            f"first omitted term bound {bound:.3e})"
            + "".join(f" -- {b}" for b in broken)
        )
    if failed:
        pytest.fail("40-term series breaks its documented remainder bound:\n" + "\n".join(report))
    print("criterion 8b: PASS (40-term series bracketed and within its remainder bound to load 0.9)")


def test_criterion_09_bit_count_round_trip():
    rng = np.random.default_rng(20260812)
    for _ in range(50):
        psi = 10.0 ** rng.uniform(-1.0, 1.0)
        alpha = psi * 10.0 ** rng.uniform(-1.0, 4.0)
        xi = 10.0 ** rng.uniform(0.0, 7.0)
        red = ReducedParams(alpha, psi, xi)
        for bits in range(1, 10):
            n = 2**bits
            theta = float(rng.integers(0, n))
            rate = rate_total(red, float(n), theta)
            recovered = bits_per_sequence(red, rate, n - theta)
            assert abs(recovered - bits) <= 1e-9, (alpha, psi, xi, n, theta, recovered)
    print("criterion 9: PASS (bit-count inversion recovers log2 N to 1e-9 on 50 draws x 9 sizes)")


def test_criterion_10_absolute_rates_documented_as_non_reproducible():
    # the limitation must be stated in the report note and the README
    report = reproduce_table1()
    assert report.note == CALIBRATION_NOTE
    for fragment in ("not", "deriv", "alpha", "N = 180", "W*L*M"):
        assert fragment in CALIBRATION_NOTE, fragment
    readme = README.read_text(encoding="utf-8")
    assert re.search(r"not\s+derivable", readme, flags=re.IGNORECASE)
    assert "calibrat" in readme.lower()
    # and the geometric alpha really is ~13 orders below the calibrated one
    geometric_alpha = (
        math.e / (2 * math.pi) * 0.25 * channel_dc_gain(reference_room_geometry()) ** 2 * 100.0
    )
    assert geometric_alpha < 1e-12
    assert alpha_calibration_for(2.0) > 1e5
    print("criterion 10: PASS (figure-level absolutes documented as calibrated, not asserted)")
