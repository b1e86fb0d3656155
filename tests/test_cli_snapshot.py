"""``tools/cli_snapshot.py`` records every preset and scenario-file command and every demo once,
in-process; one command in a fresh interpreter prints what the recording holds."""
import subprocess
import sys

from helpers import checkout_env, load_tool


def test_cli_snapshot_records_every_preset_command(tmp_path):
    assert load_tool("cli_snapshot").main([str(tmp_path / "snap")]) == 0
    files = sorted((tmp_path / "snap").iterdir())
    assert len(files) == 130
    for path in files:
        assert "\n# exit: 0\n" in path.read_text(encoding="utf-8"), path.name

    sample = (tmp_path / "snap" / "optimize-sample-scenario-json.txt").read_text(encoding="utf-8")
    assert sample.startswith(
        "# argv: optimize --scenario demos/sample_scenario.yaml --format json\n"
    )

    demo = (tmp_path / "snap" / "demo-normalized_scenarios.txt").read_text(encoding="utf-8")
    assert demo.startswith("# argv: python3 demos/normalized_scenarios.py\n")

    recorded = (tmp_path / "snap" / "tables-both-json.txt").read_text(encoding="utf-8")
    fresh = subprocess.run(
        [sys.executable, "-m", "omnidris.cli", "tables", "--format", "json"],
        capture_output=True, text=True, env=checkout_env(), timeout=60,
    )
    assert fresh.returncode == 0, fresh.stderr
    assert recorded.partition("# stdout:\n")[2] == fresh.stdout
