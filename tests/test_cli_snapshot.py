"""``tools/cli_snapshot.py`` records every preset and scenario-file command once, in-process."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_cli_snapshot_records_every_preset_command(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "cli_snapshot.py"), str(tmp_path / "snap")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    files = sorted((tmp_path / "snap").iterdir())
    assert len(files) == 126
    for path in files:
        assert "\n# exit: 0\n" in path.read_text(encoding="utf-8"), path.name

    sample = (tmp_path / "snap" / "optimize-sample-scenario-json.txt").read_text(encoding="utf-8")
    assert sample.startswith(
        "# argv: optimize --scenario demos/sample_scenario.yaml --format json\n"
    )

    recorded = (tmp_path / "snap" / "tables-both-json.txt").read_text(encoding="utf-8")
    fresh = subprocess.run(
        [sys.executable, "-m", "omnidris.cli", "tables", "--format", "json"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert fresh.returncode == 0, fresh.stderr
    assert recorded.partition("# stdout:\n")[2] == fresh.stdout
