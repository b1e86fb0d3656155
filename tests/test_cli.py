import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omnidris import cli
from omnidris.cli import main
from omnidris.optimize import OptimumReport
from omnidris.scenario import (
    SweepRow,
    SweepSpec,
    preset_scenarios,
    resolve_scenario,
    run_sweep,
    sweep_to_csv,
)

SCENARIO_YAML = """\
schema_version: 1
name: file-based
reduced:
  alpha: 5.0
  psi: 5.0
  xi: 5.0
ris:
  mode: fixed
  absorbing_count: 5
sweep:
  n_min: 1.0
  n_max: 50.0
  step: 0.1
"""

#: The bundled scenario files: a fraction-mode ``system`` block, a fixed-count ``reduced`` block.
DEMO_TEXTS = tuple(
    (Path(__file__).resolve().parents[1] / "demos" / name).read_text(encoding="utf-8")
    for name in ("sample_scenario.yaml", "fixed_count_scenario.yaml")
)


def _env() -> dict:
    """This process's environment with the checkout's ``src`` first on ``PYTHONPATH``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_optimize_c1_json(capsys):
    code, out, _ = run(capsys, "optimize", "--scenario", "C1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["scenario"] == "C1"
    assert payload["n_star_cubic"] == pytest.approx(10.0502, rel=1e-3)
    assert payload["selected_n"] == 8
    assert payload["selected_bits"] == 3


def test_optimize_from_scenario_file(capsys, tmp_path):
    path = tmp_path / "c1-like.yaml"
    path.write_text(SCENARIO_YAML, encoding="utf-8")
    code, out, _ = run(capsys, "optimize", "--scenario", str(path))
    assert code == 0
    assert json.loads(out)["n_star_cubic"] == pytest.approx(10.0502, rel=1e-3)


def test_sweep_csv_to_file(capsys, tmp_path):
    out_path = tmp_path / "c0.csv"
    code, out, _ = run(capsys, "sweep", "--scenario", "C0", "--out", str(out_path))
    assert code == 0
    assert out == ""
    rows = list(csv.DictReader(out_path.open()))
    best = max(rows, key=lambda row: float(row["rate_bps"]))
    assert float(best["n"]) == pytest.approx(2.2, abs=0.05)
    assert sum(row["selected"] == "1" for row in rows) == 1


def test_sweep_output_is_deterministic(capsys, tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert run(capsys, "sweep", "--scenario", "C3", "--out", str(first))[0] == 0
    assert run(capsys, "sweep", "--scenario", "C3", "--out", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()


def test_sweep_json_format(capsys):
    code, out, _ = run(capsys, "sweep", "--scenario", "C0", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows[0].keys() == {"n", "theta", "zeta", "rate_bps", "pow2", "selected"}


def test_sweep_csv_fast_path_is_the_csv_writer():
    # every SweepRow field reaches the CSV, formatted as every other table is
    sample = Path(__file__).resolve().parents[1] / "demos" / "sample_scenario.yaml"
    for ref in [*sorted(preset_scenarios()), str(sample)]:
        rows = run_sweep(resolve_scenario(ref))
        # lines, not one string: pytest's diff of two long strings takes minutes
        assert sweep_to_csv(rows).split("\n") == cli._csv(SweepRow._fields, rows).split("\n"), ref


def _assert_sweep_json_is_json_dumps(rows, label):
    # lines, not one string: pytest's diff of two long strings takes minutes
    expected = cli._json([row._asdict() for row in rows])
    assert cli._sweep_json(rows).split("\n") == expected.split("\n"), label


def test_sweep_json_is_json_dumps_of_the_rows():
    # the row-by-row writer gives json.dumps' bytes for every runtime type a SweepRow holds
    demos = Path(__file__).resolve().parents[1] / "demos"
    for ref in [*sorted(preset_scenarios()), *map(str, sorted(demos.glob("*.yaml")))]:
        _assert_sweep_json_is_json_dumps(run_sweep(resolve_scenario(ref)), ref)
    c0 = resolve_scenario("C0")
    pow2 = run_sweep(dataclasses.replace(c0, sweep=SweepSpec(1.0, 100.0)))
    assert all(row.pow2 for row in pow2)
    _assert_sweep_json_is_json_dumps(pow2, "powers of two")
    ints = run_sweep(dataclasses.replace(c0, sweep=SweepSpec(1, 8, 1)))
    assert type(ints[2].n) is int
    _assert_sweep_json_is_json_dumps(ints, "int bounds")
    # a numpy scalar is a float whose own repr is not float.__repr__
    scalar = ints[2]._replace(rate_bps=np.float64(1.0) / 3.0)
    assert repr(scalar.rate_bps) != float.__repr__(scalar.rate_bps)
    _assert_sweep_json_is_json_dumps([scalar], "numpy.float64")
    _assert_sweep_json_is_json_dumps([], "no rows")


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_sweep_json_rejects_a_non_finite_value(value):
    row = SweepRow(4.0, 1.0, 3.0, value, True, False)
    for write in (cli._sweep_json, lambda rows: cli._json([r._asdict() for r in rows])):
        with pytest.raises(ValueError, match="not JSON compliant"):
            write([row])


def test_rate_takes_one_absorbing_override(capsys):
    argv = ("rate", "--scenario", "C0", "--n", "4", "--theta", "1", "--absorbing-fraction", "0.5")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "not allowed with argument" in err


def test_rate_degenerate_flag(capsys):
    code, out, _ = run(capsys, "rate", "--scenario", "C0", "--n", "4", "--theta", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["rate_bps"] == 0.0
    assert payload["degenerate"] is True


def test_rate_normal_evaluation(capsys):
    code, out, _ = run(capsys, "rate", "--scenario", "C0", "--n", "2.2")
    assert code == 0
    payload = json.loads(out)
    assert payload["rate_bps"] == pytest.approx(0.3252, abs=5e-5)
    assert payload["degenerate"] is False


def test_rate_rejects_non_finite_n(capsys):
    for value in ("nan", "inf", "-inf"):
        code, out, err = run(capsys, "rate", "--scenario", "C0", f"--n={value}")
        assert code == 1
        assert out == ""
        assert err == f"error: element count must be positive and finite, got {value}\n"


def test_rate_rejects_an_absorbing_count_beyond_float(capsys):
    huge = "1" + "0" * 400
    code, out, err = run(capsys, "rate", "--scenario", "C0", "--n", "5", "--theta", huge)
    assert code == 1
    assert out == ""
    assert err == "error: absorbing count is too large to be a float\n"


def test_rate_rejects_a_negative_theta_as_the_record_does(capsys):
    code, out, err = run(capsys, "rate", "--scenario", "C0", "--n", "4", "--theta", "-1")
    assert (code, out) == (1, "")
    assert err == "error: absorbing count must be an integer >= 0, got -1\n"


def test_tables_reports_all_pass(capsys):
    code, out, _ = run(capsys, "tables", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["normalized"]["all_ok"] is True
    assert payload["selection"]["all_ok"] is True
    assert payload["selection"]["note"]
    selections = [row["selected_n"] for row in payload["selection"]["rows"]]
    assert selections == [128, 128, 128, 128, 128, 64]


def test_tables_csv_default(capsys):
    code, out, _ = run(capsys, "tables", "--which", "selection")
    assert code == 0
    assert out.splitlines()[0].startswith("row,active_fraction,noise_psd")


def test_presets_listing(capsys):
    code, out, _ = run(capsys, "presets")
    assert code == 0
    names = [line.split(",")[0] for line in out.splitlines()[1:]]
    assert "C0" in names and "fig2-top" in names and "table1" in names
    code, out, _ = run(capsys, "presets", "--format", "json")
    assert {entry["name"] for entry in json.loads(out)} >= {"C0", "fig2-top"}


def test_unknown_preset_is_a_clean_error(capsys):
    code, _, err = run(capsys, "optimize", "--scenario", "C9")
    assert code == 1
    assert "error:" in err


def test_unreadable_character_is_a_one_line_error(capsys, tmp_path):
    path = tmp_path / "bell.yaml"
    path.write_text("schema_version: 1\nname: a\x07b\n", encoding="utf-8")
    code, out, err = run(capsys, "optimize", "--scenario", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot parse scenario file")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize(
    "key,value,problem",
    [
        pytest.param(
            "description", "[" * 1000 + "]" * 1000, "it is nested too deeply",
            id="nested-1000-deep",
        ),
        ("alpha", "!!int abc", "invalid literal for int() with base 10: 'abc'"),
        ("name", "2001-13-45", "month must be in 1..12"),
        pytest.param(
            "schema_version",
            "9" * 5000,
            "Exceeds the limit (4300 digits) for integer string conversion: "
            "value has 5000 digits; use sys.set_int_max_str_digits() to increase the limit",
            id="5000-digit-integer",
        ),
        ("alpha", "!!bool abc", "malformed tagged value"),
        ("alpha", "!!timestamp abc", "malformed tagged value"),
    ],
)
def test_a_file_pyyaml_cannot_build_is_one_error_line(capsys, tmp_path, key, value, problem):
    text, edits = re.subn(
        rf"(?m)^( *){key}: .*$", lambda m: f"{m[1]}{key}: {value}", DEMO_TEXTS[1], count=1
    )
    assert edits == 1
    path = tmp_path / "unbuildable.yaml"
    path.write_text(text, encoding="utf-8")
    assert run(capsys, "optimize", "--scenario", str(path)) == (
        1, "", f"error: cannot parse scenario file: {problem}\n"
    )


@pytest.mark.parametrize(
    "text,problem",
    [
        (
            DEMO_TEXTS[1].replace("  xi: 1.0\n", "  xi: 1.0\n  alpha: 400.0\n"),
            "duplicate key 'alpha' at line 13, column 3 (under reduced)",
        ),
        (
            DEMO_TEXTS[1] + "ris:\n  mode: fraction\n  absorbing_fraction: 0.5\n",
            "duplicate key 'ris' at line 20, column 1",
        ),
    ],
    ids=["alpha-twice", "ris-twice"],
)
def test_a_key_written_twice_is_one_error_line(capsys, tmp_path, text, problem):
    path = tmp_path / "twice.yaml"
    path.write_text(text, encoding="utf-8")
    for command in (["optimize"], ["sweep"], ["rate", "--n", "8"]):
        assert run(capsys, *command, "--scenario", str(path)) == (1, "", f"error: {problem}\n")


@pytest.mark.parametrize("command", ["optimize", "sweep"])
@pytest.mark.parametrize(
    "count_digits,alpha", [(201, "5.0"), (151, "1.0e+290"), (401, "5.0")]
)
def test_huge_absorbing_count_is_a_finite_report_or_one_error_line(
    capsys, tmp_path, command, count_digits, alpha
):
    # the cubic's coefficients overflow unless it is solved in scaled units
    path = tmp_path / "huge.yaml"
    count = "1" + "0" * (count_digits - 1)
    text = SCENARIO_YAML.replace("absorbing_count: 5", f"absorbing_count: {count}")
    path.write_text(text.replace("alpha: 5.0", f"alpha: {alpha}"), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # every panel is fully absorbing
        code, out, err = run(capsys, command, "--scenario", str(path), "--format", "json")
    if code == 0:
        payload = json.loads(out)
        for record in payload if isinstance(payload, list) else [payload]:
            numbers = [v for v in record.values() if isinstance(v, float)]
            assert numbers and all(math.isfinite(v) for v in numbers)
    else:
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["optimize", "sweep"])
def test_an_optimum_beyond_the_float_range_is_one_error_line(capsys, tmp_path, command):
    # a 309-digit count is the float 1e308, and the optimum lies above 2e308
    path = tmp_path / "huge.yaml"
    path.write_text(
        SCENARIO_YAML.replace("absorbing_count: 5", f"absorbing_count: {10**308}"), encoding="utf-8"
    )
    assert run(capsys, command, "--scenario", str(path)) == (
        1, "", "error: absorbing count 1e+308 puts the exact optimum, near 2 x 1e+308, "
        "beyond the float range\n"
    )


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ("rate", "--scenario", "{path}", "--n", "4"),  # 3 log2(1 + 100/16) 1e308 ~ 8.6e308
        ("optimize", "--scenario", "{path}"),  # ~9e308 near the optimum
        ("sweep", "--scenario", "{path}"),
    ],
)
def test_an_overflowing_rate_is_one_error_line(capsys, tmp_path, argv, fmt):
    path = tmp_path / "huge-xi.yaml"
    text = SCENARIO_YAML.replace("alpha: 5.0", "alpha: 100.0").replace("psi: 5.0", "psi: 1.0")
    text = text.replace("xi: 5.0", "xi: 1.0e+308")
    path.write_text(text.replace("absorbing_count: 5", "absorbing_count: 1"), encoding="utf-8")
    code, out, err = run(capsys, *(arg.format(path=path) for arg in argv), "--format", fmt)
    assert (code, out) == (1, "")
    assert err.startswith("error: the rate at n = ") and "overflowed" in err
    assert err.count("\n") == 1


def test_a_finite_rate_past_an_overflowing_product_is_reported(capsys, tmp_path):
    # xi * n = 1e453 overflows on the way to a rate of ~1.44e153
    path = tmp_path / "huge-xi.yaml"
    text = SCENARIO_YAML.replace("alpha: 5.0", "alpha: 1.0e-10").replace("psi: 5.0", "psi: 1.0")
    text = text.replace("xi: 5.0", "xi: 1.0e+308").replace("absorbing_count: 5", "absorbing_count: 0")
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "rate", "--scenario", str(path), "--n", "1e145")
    assert (code, err) == (0, "")
    assert json.loads(out)["rate_bps"] == pytest.approx(1.4427e153, rel=1e-4)


@pytest.mark.parametrize(
    "mode", ["mode: fixed\n  absorbing_count: 0", "mode: fraction\n  absorbing_fraction: 0.5"]
)
def test_an_underflowing_optimum_is_a_report_at_one_element(capsys, tmp_path, mode):
    # alpha/psi underflows to 0: in fraction mode n* = sqrt(alpha/(psi t*)) is 0
    path = tmp_path / "underflow.yaml"
    text = SCENARIO_YAML.replace("alpha: 5.0", "alpha: 5.0e-324").replace("psi: 5.0", "psi: 1.0e+308")
    text = text.replace("mode: fixed\n  absorbing_count: 5", mode)
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "optimize", "--scenario", str(path), "--format", "json")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert (report["selected_n"], report["selected_rate"], report["at_boundary"]) == (1, 0.0, True)
    code, out, err = run(capsys, "sweep", "--scenario", str(path), "--format", "json")
    assert (code, err) == (0, "")
    assert {row["rate_bps"] for row in json.loads(out)} == {0.0}


def test_a_noise_psd_whose_half_underflows_is_one_error_line(capsys, tmp_path):
    path = tmp_path / "tiny-noise.yaml"
    text = DEMO_TEXTS[0].replace("noise_psd_w_per_hz: 2.0", "noise_psd_w_per_hz: 5.0e-324")
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "optimize", "--scenario", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "noise_psd" in err and err.count("\n") == 1


@pytest.mark.parametrize("preset", ["C1", "table1"])
def test_optimize_json_keys_are_the_report_fields_in_order(capsys, preset):
    code, out, _ = run(capsys, "optimize", "--scenario", preset, "--format", "json")
    assert code == 0
    assert list(json.loads(out)) == ["scenario", *OptimumReport._fields]


def test_a_fully_absorbing_panel_prints_no_warning_text(tmp_path):
    # selection evaluates panels of <= 512 elements, all of them absorbing here
    path = tmp_path / "absorbing.yaml"
    path.write_text(SCENARIO_YAML.replace("absorbing_count: 5", "absorbing_count: 600"))
    script = (
        "import contextlib, io\n"
        "from omnidris.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['optimize', '--scenario', {str(path)!r}]) == 0\n"
        f"    assert main(['sweep', '--scenario', {str(path)!r}]) == 0\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_env(), timeout=60
    )
    assert (done.returncode, done.stderr) == (0, "")


# every positive float, subnormals and the largest finite ones included
POSITIVE_FLOATS = st.floats(min_value=5e-324, max_value=1.7976931348623157e308)
NON_FINITE_TOKEN = re.compile(r"(?i)\b(?:inf|infinity|nan)\b")


def _block(name: str, values: dict) -> str:
    return f"{name}:\n" + "".join(f"  {key}: {value!r}\n" for key, value in values.items())


@st.composite
def fuzzed_scenarios(draw) -> str:
    """A scenario file over the whole positive float range, <= 64 sweep points.

    The rate parameters come from a ``reduced`` block or from a ``system``
    block, with or without ``geometry`` and ``alpha_calibration``.
    """
    if draw(st.booleans()):
        source = _block("reduced", {key: draw(POSITIVE_FLOATS) for key in ("alpha", "psi", "xi")})
    else:
        source = _block("system", {
            "bandwidth_hz": draw(POSITIVE_FLOATS),
            "transmit_power_w": draw(POSITIVE_FLOATS),
            "num_light_sources": draw(st.integers(1, 10**300)),
            "num_users": draw(st.integers(1, 10**300)),
            "oe_conversion": draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True)),
            "noise_psd_w_per_hz": draw(POSITIVE_FLOATS),
        })
        if draw(st.booleans()):
            angles = st.floats(min_value=0.0, max_value=90.0)
            gains = st.floats(min_value=0.0, max_value=1.7976931348623157e308)
            source += _block("geometry", {
                "lambertian_order": draw(gains),
                "ris_reflectiveness": draw(st.floats(min_value=0.0, max_value=1.0)),
                "ris_element_area_m2": draw(POSITIVE_FLOATS),
                "photodetector_area_m2": draw(POSITIVE_FLOATS),
                "dist_ls_ris_m": draw(POSITIVE_FLOATS),
                "dist_ris_user_m": draw(POSITIVE_FLOATS),
                "irradiance_angle_ls_ris_deg": draw(angles),
                "irradiance_angle_ris_user_deg": draw(angles),
                "incidence_angle_ris_deg": draw(angles),
                "incidence_angle_user_deg": draw(angles),
                **({"filter_gain": draw(gains)} if draw(st.booleans()) else {}),
            })
        if draw(st.booleans()):
            source += f"alpha_calibration: {draw(POSITIVE_FLOATS)!r}\n"
    if draw(st.booleans()):
        ris = f"mode: fixed\n  absorbing_count: {draw(st.integers(0, 10**300))}"
    else:
        fraction = draw(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
        ris = f"mode: fraction\n  absorbing_fraction: {fraction!r}"
    n_min = draw(st.floats(min_value=1.0, max_value=1e300))
    n_max = draw(st.floats(min_value=n_min, max_value=1e300))
    points = draw(st.integers(min_value=1, max_value=64))
    step = draw(st.sampled_from((
        "", "  step:\n", "  step: powers-of-two\n",
        f"  step: {(n_max - n_min) / max(points - 1, 1)!r}\n",
    )))
    return (
        f"schema_version: 1\nname: fuzzed\n{source}"
        f"ris:\n  {ris}\n"
        f"sweep:\n  n_min: {n_min!r}\n  n_max: {n_max!r}\n{step}"
    )


@settings(max_examples=50, deadline=None)  # six CLI calls, ~20 ms, per example
@given(text=fuzzed_scenarios(), n=POSITIVE_FLOATS)
def test_fuzzed_scenarios_give_finite_output_or_one_error_line(text, n):
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "fuzzed.yaml"
        path.write_text(text, encoding="utf-8")
        for argv in (["rate", "--n", repr(n)], ["optimize"], ["sweep"]):
            for fmt in ("csv", "json"):
                out, err = io.StringIO(), io.StringIO()
                with warnings.catch_warnings(record=True) as caught, \
                        contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    warnings.simplefilter("always")  # what a fresh process would print
                    code = main([*argv, "--scenario", str(path), "--format", fmt])
                assert [str(w.message) for w in caught] == [], argv
                if code == 0:
                    assert err.getvalue() == "", argv
                    assert not NON_FINITE_TOKEN.search(out.getvalue()), argv
                else:
                    assert (code, out.getvalue()) == (1, ""), argv
                    assert err.getvalue().startswith("error: "), argv
                    assert err.getvalue().count("\n") == 1, argv


#: Text that means something to YAML, inserted by :func:`mutated_scenarios`.
YAML_SIGNIFICANT = (
    ":", "[", "{", "&a", "*a", "!!int", "<<:", "\t", "---", ".nan", "1e999", "9" * 400,
    "2001-13-45", "\x07",
)


@st.composite
def mutated_scenarios(draw) -> str:
    """A bundled scenario file after 1-6 edits: a line duplicated or dropped, or text
    inserted, deleted or replaced at a random offset."""
    text = draw(st.sampled_from(DEMO_TEXTS))
    for _ in range(draw(st.integers(1, 6))):
        edit = draw(st.sampled_from(("duplicate", "drop", "insert", "delete", "replace")))
        if edit in ("duplicate", "drop"):
            lines = text.splitlines(keepends=True)
            if lines:
                at = draw(st.integers(0, len(lines) - 1))
                lines[at:at + 1] = lines[at:at + 1] * (2 if edit == "duplicate" else 0)
                text = "".join(lines)
        else:
            at = draw(st.integers(0, len(text)))
            end = at if edit == "insert" else draw(st.integers(at, min(len(text), at + 20)))
            new = "" if edit == "delete" else draw(st.sampled_from(YAML_SIGNIFICANT))
            text = text[:at] + new + text[end:]
    return text


def _reject_constant(name: str):
    raise AssertionError(f"non-finite JSON constant {name}")


def _numeric_fields(out: str, fmt: str) -> list:
    """Every numeric field of a report; the scenario name and mode are text, not numbers."""
    if fmt == "json":
        return [v for v in json.loads(out, parse_constant=_reject_constant).values()
                if isinstance(v, (int, float))]
    return [float(cell) for row in csv.DictReader(io.StringIO(out))
            for key, cell in row.items() if key not in ("scenario", "mode") and cell != ""]


@settings(max_examples=50, deadline=None)  # four CLI calls per example
@given(text=mutated_scenarios())
def test_malformed_scenario_files_give_finite_output_or_one_error_line(text):
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "mutated.yaml"
        path.write_text(text, encoding="utf-8")
        for argv in (["optimize"], ["rate", "--n", "8"]):
            for fmt in ("csv", "json"):
                out, err = io.StringIO(), io.StringIO()
                with warnings.catch_warnings(record=True) as caught, \
                        contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    warnings.simplefilter("always")  # what a fresh process would print
                    code = main([*argv, "--scenario", str(path), "--format", fmt])
                assert [str(w.message) for w in caught] == [], argv
                if code == 0:
                    assert err.getvalue() == "", argv
                    assert all(math.isfinite(v) for v in _numeric_fields(out.getvalue(), fmt)), argv
                else:
                    assert (code, out.getvalue()) == (1, ""), argv
                    assert err.getvalue().startswith("error: "), argv
                    assert err.getvalue().count("\n") == 1, argv


def test_preset_commands_do_not_import_yaml(tmp_path):
    path = tmp_path / "file.yaml"
    path.write_text(SCENARIO_YAML, encoding="utf-8")
    script = (
        "import contextlib, io, sys\n"
        "from omnidris.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['optimize', '--scenario', 'C1']) == 0\n"
        "assert 'yaml' not in sys.modules, 'a preset command imported PyYAML'\n"
        "from omnidris.scenario import load_scenario\n"
        f"assert load_scenario({str(path)!r}).name == 'file-based'\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_env(), timeout=60
    )
    assert done.returncode == 0, done.stderr


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "optimize")[0] == 2  # missing --scenario
    assert run(capsys, "sweep", "--scenario", "C0", "--format", "xml")[0] == 2


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "sweep", "--help")[0] == 0
