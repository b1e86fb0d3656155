import math
import textwrap

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import omnidris.scenario

from omnidris.rate import FixedCount, Fraction, ReducedParams, reduced_with_alpha
from omnidris.scenario import (
    _SCHEMA,
    HARDWARE_POWERS_OF_TWO,
    MAX_SWEEP_POINTS,
    NORMALIZED_COMBOS,
    Scenario,
    ScenarioError,
    SweepRow,
    SweepSpec,
    _grid_values,
    alpha_calibration_for,
    get_preset,
    load_scenario,
    preset_scenarios,
    resolve_scenario,
    run_sweep,
    sweep_to_csv,
)

VALID_REDUCED_YAML = """\
schema_version: 1
name: unit-test
description: hand-written reduced scenario
reduced:
  alpha: 2.0
  psi: 1.0
  xi: 3.0
ris:
  mode: fixed
  absorbing_count: 1
sweep:
  n_min: 1.0
  n_max: 20.0
  step: 0.5
"""

VALID_SYSTEM_YAML = """\
schema_version: 1
name: room-test
system:
  bandwidth_hz: 1.0e6
  transmit_power_w: 10.0
  num_light_sources: 1
  num_users: 1
  oe_conversion: 0.5
  noise_psd_w_per_hz: 2.0
geometry:
  lambertian_order: 1.0
  ris_reflectiveness: 0.5
  ris_element_area_m2: 0.04
  photodetector_area_m2: 4.0e-4
  dist_ls_ris_m: 1.52
  dist_ris_user_m: 2.03
  irradiance_angle_ls_ris_deg: 45.0
  irradiance_angle_ris_user_deg: 10.0
  incidence_angle_ris_deg: 17.95
  incidence_angle_user_deg: 29.58
ris:
  mode: fraction
  absorbing_fraction: 0.5
sweep:
  n_min: 1.0
  n_max: 512.0
  step: powers-of-two
"""


def write(tmp_path, text, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# --- loading and validation -----------------------------------------------------


def test_load_reduced_scenario(tmp_path):
    scenario = load_scenario(write(tmp_path, VALID_REDUCED_YAML))
    assert scenario.name == "unit-test"
    assert scenario.reduced == ReducedParams(2.0, 1.0, 3.0)
    assert scenario.absorbing == FixedCount(1)
    assert scenario.sweep == SweepSpec(1.0, 20.0, 0.5)
    assert scenario.reduced_params() == ReducedParams(2.0, 1.0, 3.0)


def test_load_system_scenario(tmp_path):
    scenario = load_scenario(write(tmp_path, VALID_SYSTEM_YAML))
    assert scenario.absorbing == Fraction(0.5)
    assert scenario.sweep.step is None
    red = scenario.reduced_params()
    assert red.alpha == pytest.approx(2.5681129220781254e-13, rel=1e-12)
    assert red.psi == 1.0
    assert red.xi == 5e5


def test_unknown_top_level_key_reports_position(tmp_path):
    bad = VALID_REDUCED_YAML + "swweep:\n  n_min: 1\n"
    with pytest.raises(ScenarioError, match=r"unknown key 'swweep' at line 15"):
        load_scenario(write(tmp_path, bad))


def test_unknown_nested_key_reports_position(tmp_path):
    bad = VALID_REDUCED_YAML.replace("  alpha: 2.0", "  alpha: 2.0\n  gamma: 1.0")
    with pytest.raises(ScenarioError, match=r"unknown key 'gamma'.*under reduced"):
        load_scenario(write(tmp_path, bad))


def test_parse_failure_reports_position(tmp_path):
    with pytest.raises(ScenarioError, match="line"):
        load_scenario(write(tmp_path, "name: [unclosed\nschema_version: 1\n"))


def test_zero_psi_rejected(tmp_path):
    for value in ("0.0", ".nan", ".inf", "-.inf", "1" + "0" * 400):
        bad = VALID_REDUCED_YAML.replace("psi: 1.0", f"psi: {value}")
        with pytest.raises(ScenarioError, match="psi"):
            load_scenario(write(tmp_path, bad))


def test_non_finite_geometry_names_the_field(tmp_path):
    # a finite calibration would otherwise hide the input behind "alpha must be ..."
    calibrated = VALID_SYSTEM_YAML + "alpha_calibration: 127058.34\n"
    cases = {
        "dist_ris_user_m": calibrated.replace("dist_ris_user_m: 2.03", "dist_ris_user_m: .nan"),
        "filter_gain": calibrated.replace("geometry:\n", "geometry:\n  filter_gain: .inf\n"),
    }
    for field, text in cases.items():
        with pytest.raises(ScenarioError, match=f"{field} must be .*finite"):
            load_scenario(write(tmp_path, text))


def test_documented_schema_matches_the_derived_one():
    doc = omnidris.scenario.__doc__
    example = doc[doc.index("::\n") + 3 : doc.index("\nUnknown keys")]
    documented = yaml.safe_load(textwrap.dedent(example))

    def key_tree(mapping):
        return {k: key_tree(v) if isinstance(v, dict) else None for k, v in mapping.items()}

    assert key_tree(documented) == key_tree(_SCHEMA)


def test_schema_version_required_and_checked(tmp_path):
    with pytest.raises(ScenarioError, match="schema_version"):
        load_scenario(write(tmp_path, VALID_REDUCED_YAML.replace("schema_version: 1\n", "")))
    with pytest.raises(ScenarioError, match="schema_version"):
        load_scenario(write(tmp_path, VALID_REDUCED_YAML.replace("schema_version: 1", "schema_version: 2")))


def test_exactly_one_alpha_source(tmp_path):
    both = VALID_REDUCED_YAML.replace(
        "ris:",
        "system:\n"
        "  bandwidth_hz: 1.0e6\n"
        "  transmit_power_w: 10.0\n"
        "  num_light_sources: 1\n"
        "  num_users: 1\n"
        "  oe_conversion: 0.5\n"
        "  noise_psd_w_per_hz: 2.0\n"
        "ris:",
    )
    with pytest.raises(ScenarioError, match="exactly one"):
        load_scenario(write(tmp_path, both))
    neither = "schema_version: 1\nname: x\nris:\n  mode: fixed\n  absorbing_count: 0\nsweep:\n  n_min: 1\n  n_max: 2\n  step: 1\n"
    with pytest.raises(ScenarioError, match="exactly one"):
        load_scenario(write(tmp_path, neither))


def test_system_without_geometry_needs_calibration(tmp_path):
    text = VALID_SYSTEM_YAML
    start = text.index("geometry:")
    end = text.index("ris:")
    without_geometry = text[:start] + text[end:]
    with pytest.raises(ScenarioError, match="alpha_calibration"):
        load_scenario(write(tmp_path, without_geometry))
    for value in (".nan", ".inf", "-.inf", "0.0"):
        with pytest.raises(ScenarioError, match="alpha_calibration"):
            load_scenario(write(tmp_path, without_geometry + f"alpha_calibration: {value}\n"))
    calibrated = without_geometry + "alpha_calibration: 127058.34\n"
    scenario = load_scenario(write(tmp_path, calibrated, "cal.yaml"))
    assert scenario.reduced_params().alpha == 127058.34


def test_a_calibrated_system_builds_the_calibrated_triple(tmp_path):
    # the physical alpha is checked, then dropped: the triple is reduced_with_alpha's
    geometry = load_scenario(write(tmp_path, VALID_SYSTEM_YAML + "alpha_calibration: 127058.34\n"))
    start, end = VALID_SYSTEM_YAML.index("geometry:"), VALID_SYSTEM_YAML.index("ris:")
    system_only = VALID_SYSTEM_YAML[:start] + VALID_SYSTEM_YAML[end:] + "alpha_calibration: 9.5\n"
    for scenario in (geometry, load_scenario(write(tmp_path, system_only, "system.yaml"))):
        expected = reduced_with_alpha(scenario.system, scenario.alpha_calibration)
        assert scenario.reduced_params() == expected
    edits = [  # the same messages as when the physical triple was built first
        ("ris_reflectiveness: 0.5", "ris_reflectiveness: 0",
         "channel gain must be positive to form reduced parameters"),
        ("transmit_power_w: 10.0", "transmit_power_w: 1.0e+200",
         "alpha must be positive and finite, got inf"),
    ]
    for old, new, message in edits:
        text = VALID_SYSTEM_YAML.replace(old, new) + "alpha_calibration: 127058.34\n"
        scenario = load_scenario(write(tmp_path, text))
        with pytest.raises(ValueError) as caught:
            scenario.reduced_params()
        assert str(caught.value) == message, new


def test_ris_mode_field_consistency(tmp_path):
    wrong = VALID_REDUCED_YAML.replace("absorbing_count: 1", "absorbing_fraction: 0.5")
    with pytest.raises(ScenarioError, match="absorbing"):
        load_scenario(write(tmp_path, wrong))
    unknown = VALID_REDUCED_YAML.replace("mode: fixed", "mode: percent")
    with pytest.raises(ScenarioError, match="mode"):
        load_scenario(write(tmp_path, unknown))


BIG_INT = "1" + "0" * 400

#: (base file, text replaced, replacement, the full ScenarioError text), one fault each.
READER_DIAGNOSTICS = [
    (VALID_REDUCED_YAML, "sweep:", "swweep:", "unknown key 'swweep' at line 11, column 1"),
    (VALID_REDUCED_YAML, "  alpha: 2.0", "  alpha: 2.0\n  gamma: 1.0",
     "unknown key 'gamma' at line 6, column 3 (under reduced)"),
    (VALID_REDUCED_YAML, "reduced:\n  alpha: 2.0\n  psi: 1.0\n  xi: 3.0", "reduced: 2.0",
     "expected a mapping at reduced (line 4, column 10)"),
    (VALID_REDUCED_YAML, "ris:\n  mode: fixed\n  absorbing_count: 1", "ris: [fixed, 1]",
     "expected a mapping at ris (line 8, column 6)"),
    (VALID_REDUCED_YAML, "  psi: 1.0\n", "", "missing required key 'psi' in reduced"),
    (VALID_REDUCED_YAML, "  mode: fixed\n", "", "missing required key 'mode' in ris"),
    (VALID_REDUCED_YAML, "  absorbing_count: 1\n", "", "missing required key 'absorbing_count' in ris"),
    (VALID_SYSTEM_YAML, "  absorbing_fraction: 0.5\n", "",
     "missing required key 'absorbing_fraction' in ris"),
    (VALID_REDUCED_YAML, "  n_max: 20.0\n", "", "missing required key 'n_max' in sweep"),
    (VALID_SYSTEM_YAML, "  num_users: 1\n", "", "missing required key 'num_users' in system"),
    (VALID_REDUCED_YAML, "mode: fixed", "mode: percent",
     "ris.mode must be 'fixed' or 'fraction', got 'percent'"),
    (VALID_REDUCED_YAML, "mode: fixed", "mode: [fixed]",
     "ris.mode must be 'fixed' or 'fraction', got ['fixed']"),
    (VALID_REDUCED_YAML, "absorbing_count: 1", "absorbing_fraction: 0.5",
     "ris.absorbing_fraction is not valid in fixed mode"),
    (VALID_REDUCED_YAML, "absorbing_count: 1", "absorbing_count: 1\n  absorbing_fraction: 0.5",
     "ris.absorbing_fraction is not valid in fixed mode"),
    (VALID_SYSTEM_YAML, "absorbing_fraction: 0.5", "absorbing_count: 1",
     "ris.absorbing_count is not valid in fraction mode"),
    (VALID_REDUCED_YAML, "step: 0.5", "step: every-other",
     "sweep.step must be a positive number or 'powers-of-two', got 'every-other'"),
    (VALID_REDUCED_YAML, "alpha: 2.0", "alpha: two", "reduced.alpha must be a number, got 'two'"),
    (VALID_REDUCED_YAML, "alpha: 2.0", "alpha:", "reduced.alpha must be a number, got None"),
    (VALID_REDUCED_YAML, "n_min: 1.0", "n_min: [1.0]", "sweep.n_min must be a number, got [1.0]"),
    (VALID_SYSTEM_YAML, "absorbing_fraction: 0.5", "absorbing_fraction: half",
     "ris.absorbing_fraction must be a number, got 'half'"),
    (VALID_SYSTEM_YAML, "geometry:\n", "geometry:\n  filter_gain:\n",
     "geometry.filter_gain must be a number, got None"),
    (VALID_REDUCED_YAML, "absorbing_count: 1", "absorbing_count: 1.5",
     "ris.absorbing_count must be an integer, got 1.5"),
    (VALID_SYSTEM_YAML, "num_users: 1", "num_users: 1.0",
     "system.num_users must be an integer, got 1.0"),
    (VALID_REDUCED_YAML, "xi: 3.0", "xi: true", "reduced.xi must be a number, got True"),
    (VALID_REDUCED_YAML, "step: 0.5", "step: true", "sweep.step must be a number, got True"),
    (VALID_REDUCED_YAML, "absorbing_count: 1", "absorbing_count: false",
     "ris.absorbing_count must be an integer, got False"),
    (VALID_REDUCED_YAML, "psi: 1.0", f"psi: {BIG_INT}", "reduced.psi is too large to be a float"),
    (VALID_REDUCED_YAML, "step: 0.5", f"step: {BIG_INT}", "sweep.step is too large to be a float"),
    (VALID_REDUCED_YAML, "absorbing_count: 1", f"absorbing_count: {BIG_INT}",
     "invalid scenario 'unit-test': absorbing count is too large to be a float"),
    (VALID_SYSTEM_YAML, "absorbing_fraction: 0.5", "absorbing_fraction: 1.5",
     "invalid scenario 'room-test': absorbing fraction must lie in [0, 1), got 1.5"),
    (VALID_REDUCED_YAML, "schema_version: 1", "schema_version: 2",
     "unsupported schema_version 2 (expected 1)"),
    (VALID_REDUCED_YAML, "schema_version: 1", "schema_version: '1'",
     "unsupported schema_version '1' (expected 1)"),
]


@pytest.mark.parametrize(
    "base, old, new, message", READER_DIAGNOSTICS, ids=[case[-1] for case in READER_DIAGNOSTICS]
)
def test_reader_diagnostics_are_pinned(tmp_path, base, old, new, message):
    assert old in base
    with pytest.raises(ScenarioError) as caught:
        load_scenario(write(tmp_path, base.replace(old, new, 1)))
    assert str(caught.value) == message


def test_missing_block_names_the_file(tmp_path):
    blocks = {
        "ris": VALID_REDUCED_YAML.replace("ris:\n  mode: fixed\n  absorbing_count: 1\n", ""),
        "sweep": VALID_REDUCED_YAML[: VALID_REDUCED_YAML.index("sweep:")],
    }
    for block, text in blocks.items():
        path = write(tmp_path, text)
        with pytest.raises(ScenarioError) as caught:
            load_scenario(path)
        assert str(caught.value) == f"missing required key {block!r} in {path}"


def test_system_values_beyond_the_float_range_are_one_diagnostic(tmp_path):
    edits = [  # a square past the float range is inf or 0, which a range check names
        ("dist_ris_user_m: 2.03", "dist_ris_user_m: 1.0e+200",
         "channel gain must be positive to form reduced parameters"),  # its square overflows
        ("dist_ris_user_m: 2.03", "dist_ris_user_m: 1.0e-200",
         "the channel gain overflowed the float range"),  # its square underflows to 0
        ("transmit_power_w: 10.0", "transmit_power_w: 1.0e+200",
         "alpha must be positive and finite, got inf"),
    ]
    for old, new, message in edits:
        scenario = load_scenario(write(tmp_path, VALID_SYSTEM_YAML.replace(old, new)))
        with pytest.raises(ValueError) as caught:
            scenario.reduced_params()
        assert str(caught.value) == message, new
    huge_count = VALID_SYSTEM_YAML.replace("num_users: 1", f"num_users: {BIG_INT}")
    with pytest.raises(ScenarioError) as caught:
        load_scenario(write(tmp_path, huge_count))  # rejected by SystemParams, at load
    assert str(caught.value) == "invalid scenario 'room-test': num_users is too large to be a float"


def test_a_key_written_twice_in_one_mapping_is_rejected(tmp_path):
    twice = {  # PyYAML alone keeps the last: alpha 400, or fraction mode in place of fixed
        VALID_REDUCED_YAML.replace("  xi: 3.0\n", "  xi: 3.0\n  alpha: 400.0\n"):
            "duplicate key 'alpha' at line 8, column 3 (under reduced)",
        VALID_REDUCED_YAML + "ris:\n  mode: fraction\n  absorbing_fraction: 0.5\n":
            "duplicate key 'ris' at line 15, column 1",
        VALID_REDUCED_YAML.replace("reduced:\n", "reduced:\n  <<: {xi: 1.0, xi: 2.0}\n"):
            "duplicate key 'xi' at line 5, column 17 (under reduced)",  # inside a merged mapping
    }
    for text, message in twice.items():
        with pytest.raises(ScenarioError) as caught:
            load_scenario(write(tmp_path, text))
        assert str(caught.value) == message


def test_a_mapping_may_override_a_merged_key(tmp_path):
    block = "reduced:\n  alpha: 2.0\n  psi: 1.0\n  xi: 3.0\n"
    assert block in VALID_REDUCED_YAML
    for merged in (
        "reduced: {<<: {alpha: 1.0, psi: 1.0, xi: 3.0}, alpha: 2.0}\n",
        "reduced: &r {<<: *r, alpha: 2.0, psi: 1.0, xi: 3.0}\n",  # merged into itself
    ):
        scenario = load_scenario(write(tmp_path, VALID_REDUCED_YAML.replace(block, merged)))
        assert scenario.reduced == ReducedParams(2.0, 1.0, 3.0)


def test_the_stepped_grid_ends_at_n_max():
    assert _grid_values(SweepSpec(49.559, 91.859, 0.1))[-1] == 91.859  # 91.85900000000001 once


@settings(derandomize=True, max_examples=300)
@given(
    n_min=st.floats(min_value=1.0, max_value=1e3),
    span=st.floats(min_value=0.0, max_value=1e3),
    step=st.floats(min_value=0.1, max_value=1e2),
)
def test_the_stepped_grid_lies_in_its_bounds_and_increases(n_min, span, step):
    sweep = SweepSpec(n_min, n_min + span, step)
    values = _grid_values(sweep)
    assert values and all(sweep.n_min <= value <= sweep.n_max for value in values)
    assert all(a < b for a, b in zip(values, values[1:]))


def test_absent_or_null_step_means_powers_of_two(tmp_path):
    for step in ("", "  step:\n", "  step: null\n", "  step: powers-of-two\n"):
        text = VALID_REDUCED_YAML.replace("  step: 0.5\n", step)
        assert load_scenario(write(tmp_path, text)).sweep == SweepSpec(1.0, 20.0, None)


def test_bad_sweep_step_string(tmp_path):
    bad = VALID_REDUCED_YAML.replace("step: 0.5", "step: every-other")
    with pytest.raises(ScenarioError, match="powers-of-two"):
        load_scenario(write(tmp_path, bad))


def test_sweep_bounds_validation():
    with pytest.raises(ScenarioError):
        SweepSpec(0.5, 10.0, 1.0)
    with pytest.raises(ScenarioError):
        SweepSpec(5.0, 4.0, 1.0)
    with pytest.raises(ScenarioError):
        SweepSpec(1.0, 2.0, 0.0)
    SweepSpec(3.0, 3.0, 0.0)  # single point: zero step allowed
    for value in (math.nan, math.inf, -math.inf):
        for bounds in ((value, 10.0, 1.0), (1.0, value, 1.0), (1.0, 10.0, value)):
            with pytest.raises(ScenarioError, match="finite"):
                SweepSpec(*bounds)


# --- presets ----------------------------------------------------------------------


def test_all_presets_are_well_formed():
    presets = preset_scenarios()
    expected = {
        "C0", "C1", "C2", "C3", "C4", "C5", "C6",
        "fig2-top", "fig2-top-zeta-3n4", "fig2-top-zeta-n2",
        "fig2-bottom-text", "fig2-bottom-text-psd4", "fig2-bottom-text-psd8",
        "table1", "table1-psd5", "table1-psd8",
    }
    assert set(presets) == expected
    for name, scenario in presets.items():
        assert scenario.name == name
        assert scenario.reduced_params().alpha > 0


def test_normalized_presets_carry_the_published_combinations():
    for name, (alpha, theta, xi, psi) in NORMALIZED_COMBOS.items():
        scenario = get_preset(name)
        assert scenario.reduced == ReducedParams(alpha, psi, xi)
        assert scenario.absorbing == FixedCount(int(theta))
        assert scenario.sweep.n_min == 1.0 and scenario.sweep.n_max == 50.0


def test_fig2_top_preset_is_calibrated_and_fully_active():
    scenario = get_preset("fig2-top")
    assert scenario.absorbing == Fraction(0.0)
    assert scenario.system.noise_psd == 2.0
    # calibration pins the fully active optimum at 180: alpha = t* 180^2
    assert scenario.alpha_calibration == pytest.approx(3.9215536345675 * 180.0**2, rel=1e-9)
    assert scenario.reduced_params().alpha == scenario.alpha_calibration
    assert "calibrated" in scenario.description


def test_noise_families_ship_both_published_variants():
    text_family = [get_preset(n).system.noise_psd for n in (
        "fig2-bottom-text", "fig2-bottom-text-psd4", "fig2-bottom-text-psd8")]
    table_family = [get_preset(n).system.noise_psd for n in (
        "table1", "table1-psd5", "table1-psd8")]
    assert text_family == [3.0, 4.0, 8.0]
    assert table_family == [3.0, 5.0, 8.0]
    for name in ("fig2-bottom-text", "table1"):
        assert get_preset(name).absorbing == Fraction(0.5)


def test_calibration_scales_inversely_with_noise():
    base = alpha_calibration_for(2.0)
    assert alpha_calibration_for(4.0) == pytest.approx(base / 2.0, rel=1e-12)
    with pytest.raises(ScenarioError):
        alpha_calibration_for(0.0)


@pytest.mark.parametrize("noise_psd", [math.nan, math.inf, -math.inf, 0.0, -2.0, 5e-324, 1e-305])
def test_calibration_rejects_a_noise_psd_without_a_finite_alpha(noise_psd):
    # 2/noise_psd overflows at 5e-324; at 1e-305 the product with t* 180^2 does
    with pytest.raises(ScenarioError, match="noise_psd"):
        alpha_calibration_for(noise_psd)


def test_get_preset_unknown_name():
    with pytest.raises(ScenarioError, match="unknown preset"):
        get_preset("C9")


def test_resolve_scenario(tmp_path):
    assert resolve_scenario("C0").name == "C0"
    path = write(tmp_path, VALID_REDUCED_YAML)
    assert resolve_scenario(str(path)).name == "unit-test"
    with pytest.raises(ScenarioError, match="neither"):
        resolve_scenario("no-such-thing")


# --- sweep execution ---------------------------------------------------------------


def test_run_sweep_c0_peaks_near_the_measured_optimum():
    rows = run_sweep(get_preset("C0"))
    ns = [row.n for row in rows]
    assert ns == sorted(ns)
    best = max(rows, key=lambda row: row.rate_bps)
    # exact-rate argmax is 2.2120; the 0.01 grid must land within one step
    assert abs(best.n - 2.2120408969353) <= 0.011
    selected = [row for row in rows if row.selected]
    assert len(selected) == 1
    assert selected[0].n == 2.0 and selected[0].pow2


def test_run_sweep_marks_exactly_the_in_range_powers_of_two():
    rows = run_sweep(get_preset("C0"))
    flagged = {row.n for row in rows if row.pow2}
    assert flagged == {1.0, 2.0, 4.0, 8.0, 16.0, 32.0}
    assert set(HARDWARE_POWERS_OF_TWO) == {1, 2, 4, 8, 16, 32, 64, 128, 256, 512}


def test_run_sweep_clamps_theta_on_infeasible_rows():
    rows = run_sweep(get_preset("C2"))  # ten absorbing elements, sweep starts at 1
    for row in rows:
        assert row.zeta >= 0.0
        assert row.theta <= row.n
        if row.n <= 10.0:
            assert row.rate_bps == 0.0
            assert row.zeta == pytest.approx(max(0.0, row.n - 10.0))


def test_run_sweep_active_fraction_rows_scale_exactly():
    full = run_sweep(get_preset("fig2-top"))
    three_quarters = run_sweep(get_preset("fig2-top-zeta-3n4"))
    assert [row.n for row in full] == [row.n for row in three_quarters]
    for a, b in zip(full, three_quarters):
        assert b.rate_bps == pytest.approx(0.75 * a.rate_bps, rel=1e-12)
    selected = [row for row in full if row.selected]
    assert selected[0].n == 128.0


def test_run_sweep_single_row_edge():
    scenario = Scenario(
        name="point",
        reduced=ReducedParams(1.0, 1.0, 1.0),
        absorbing=FixedCount(0),
        sweep=SweepSpec(5.0, 5.0, 0.0),
    )
    rows = run_sweep(scenario)
    assert len(rows) == 1
    assert rows[0].n == 5.0


def test_run_sweep_caps_the_grid_before_building_it():
    # 999,999,001 points requested; the cap must fire before any list is built
    scenario = Scenario(
        name="huge",
        reduced=ReducedParams(1.0, 1.0, 1.0),
        absorbing=FixedCount(0),
        sweep=SweepSpec(1.0, 1e6, 1e-3),
    )
    with pytest.raises(ScenarioError, match=f"more than {MAX_SWEEP_POINTS} points"):
        run_sweep(scenario)


def test_run_sweep_powers_of_two_grid():
    scenario = Scenario(
        name="pow2",
        reduced=ReducedParams(900.0, 1.0, 1.0),
        absorbing=FixedCount(0),
        sweep=SweepSpec(1.0, 512.0, None),
    )
    rows = run_sweep(scenario)
    assert [row.n for row in rows] == [float(p) for p in HARDWARE_POWERS_OF_TWO]
    assert all(row.pow2 for row in rows)


def test_sweep_rows_match_independent_recomputation():
    scenario = get_preset("C0")
    red = scenario.reduced_params()
    rows = run_sweep(scenario)
    for row in rows[::100]:  # spot-check 1% of rows
        expected = red.xi * (row.n - row.theta) * math.log2(1.0 + red.alpha / (red.psi * row.n**2))
        assert row.rate_bps == pytest.approx(expected, rel=1e-12)


def test_sweep_csv_format_and_determinism():
    scenario = get_preset("C6")
    first = sweep_to_csv(run_sweep(scenario))
    second = sweep_to_csv(run_sweep(scenario))
    assert first == second
    lines = first.strip().split("\n")
    assert lines[0] == ",".join(SweepRow._fields)
    sample = lines[1].split(",")
    assert len(sample) == 6
    assert sample[4] in {"0", "1"} and sample[5] in {"0", "1"}
    # 17 significant digits survive a float round-trip
    for line in lines[1:]:
        n_text = line.split(",")[0]
        assert float(n_text) == float(f"{float(n_text):.17g}")
