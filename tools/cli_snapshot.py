"""Record the CLI output of every preset command, one file per command.

    PYTHONPATH=src python3 tools/cli_snapshot.py OUT_DIR

Runs, in CSV and in JSON, ``rate --n 8``, ``optimize`` and ``sweep`` for
every bundled preset and for the scenario files ``demos/sample_scenario.yaml``
(``system`` block, fraction mode), ``demos/uncalibrated_room.yaml`` (the same
without ``alpha_calibration``, so alpha comes from the channel gain) and
``demos/fixed_count_scenario.yaml`` (``reduced`` block, fixed mode,
powers-of-two sweep); ``rate --n 8`` with ``--theta 2`` on ``C1`` and with
``--absorbing-fraction 0.25`` on ``fig2-top``;
``tables --which both|selection|normalized`` and ``presets``.  Each command
goes through ``omnidris.cli.main`` in this process, with the warning filters
reset so that it warns as a fresh process would.  Its exit code, stderr and
stdout go to ``OUT_DIR/<command>.txt``; the ``# argv:`` line gives the
scenario file relative to the checkout.  Then each ``demos/*.py`` script runs
in this process too, as ``__main__`` through ``runpy``, into
``OUT_DIR/demo-<stem>.txt``.

omnidris is imported from ``PYTHONPATH``, so the same script snapshots any
checkout; ``diff -r`` between the snapshots of two commits shows every byte
of output that a change moved.  Exit status: 0 once every file is written,
2 for a usage error.
"""
from __future__ import annotations

import contextlib
import io
import os
import runpy
import sys
import warnings
from pathlib import Path

import omnidris
from omnidris import cli
from omnidris.scenario import preset_scenarios

FORMATS = ("csv", "json")
ROOT = Path(__file__).resolve().parent.parent


def commands() -> dict[str, list[str]]:
    """File stem -> CLI arguments, for every command in both formats."""
    scenarios = {name: name for name in sorted(preset_scenarios())}
    scenarios["sample-scenario"] = str(ROOT / "demos" / "sample_scenario.yaml")
    scenarios["uncalibrated-room"] = str(ROOT / "demos" / "uncalibrated_room.yaml")
    scenarios["fixed-count-scenario"] = str(ROOT / "demos" / "fixed_count_scenario.yaml")
    base = {}
    for stem, ref in scenarios.items():
        base[f"rate-{stem}"] = ["rate", "--scenario", ref, "--n", "8"]
        base[f"optimize-{stem}"] = ["optimize", "--scenario", ref]
        base[f"sweep-{stem}"] = ["sweep", "--scenario", ref]
    base["rate-C1-theta-2"] = ["rate", "--scenario", "C1", "--n", "8", "--theta", "2"]
    base["rate-fig2-top-fraction-0.25"] = [
        "rate", "--scenario", "fig2-top", "--n", "8", "--absorbing-fraction", "0.25"
    ]
    for which in ("both", "selection", "normalized"):
        base[f"tables-{which}"] = ["tables", "--which", which]
    base["presets"] = ["presets"]
    return {
        f"{stem}-{fmt}": argv + ["--format", fmt] for stem, argv in base.items() for fmt in FORMATS
    }


def run(argv: list[str]) -> str:
    """One command's exit code, stderr and stdout as the text of its snapshot file."""
    return _recorded(argv, lambda: cli.main(argv))


def run_demo(path: Path) -> str:
    """One demo script's exit code, stderr and stdout, run as ``python3 demos/<name>.py`` would."""

    def script() -> int:
        runpy.run_path(str(path), run_name="__main__")
        return 0

    return _recorded(["python3", str(path)], script)


def _recorded(argv: list[str], call) -> str:
    """The exit code ``call()`` returns, and its stderr and stdout, under an ``# argv:`` line."""
    out, err = io.StringIO(), io.StringIO()
    # entering catch_warnings clears the shown-once records of every module
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = call()
    shown = " ".join(argv).replace(f"{ROOT}{os.sep}", "")
    return (
        f"# argv: {shown}\n# exit: {code}\n"
        f"# stderr:\n{err.getvalue()}# stdout:\n{out.getvalue()}"
    )


def main(args: list[str]) -> int:
    if len(args) != 1:
        print("usage: python3 tools/cli_snapshot.py OUT_DIR", file=sys.stderr)
        return 2
    out_dir = Path(args[0])
    out_dir.mkdir(parents=True, exist_ok=True)
    snapshot = commands()
    for stem, argv in snapshot.items():
        (out_dir / f"{stem}.txt").write_text(run(argv), encoding="utf-8")
    demos = sorted((ROOT / "demos").glob("*.py"))
    for path in demos:
        (out_dir / f"demo-{path.stem}.txt").write_text(run_demo(path), encoding="utf-8")
    print(
        f"{len(snapshot)} commands and {len(demos)} demos from {Path(omnidris.__file__).parent}"
        f" -> {out_dir}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
