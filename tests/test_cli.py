import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from omnidris.cli import main

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
        assert "--n must be a finite element count" in err


def test_rate_rejects_an_absorbing_count_beyond_float(capsys):
    huge = "1" + "0" * 400
    code, out, err = run(capsys, "rate", "--scenario", "C0", "--n", "5", "--theta", huge)
    assert code == 1
    assert out == ""
    assert err == "error: absorbing count is too large to be a float\n"


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
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "optimize")[0] == 2  # missing --scenario
    assert run(capsys, "sweep", "--scenario", "C0", "--format", "xml")[0] == 2


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "sweep", "--help")[0] == 0
