"""Smoke test of the benchmark itself.

    python3 bench/selfcheck.py

Runs every workload briefly in both modes and checks that the result line
has the contract's keys, that every declared metric prints with its unit
and sample count, and that every correctness check of the workload ran.
It then repeats runs with the same seed, for another number of seconds,
and asserts that the counts below come out identical, and that the
benchmark refuses to run without the omnidris source tree.  Exits 1 on the first problem.
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 3
LINE = re.compile(r"^\s+(\S+)\s+(-?[0-9.]+(?:e[-+]?[0-9]+)?)\s+(\S+)\s+n=(\d+)")

EXPECTED_CHECKS = {
    "cli-cold": [
        "cli.exit_zero",
        "cli.output_parses",
        "tables.all_ok",
        "sweep.row_count_matches_grid",
        "sweep.at_most_one_selected",
        "sweep.rate_matches_reference",
    ],
    "optimize-grid": [
        "optimize.selection_is_bracketing_power_of_two",
        "optimize.selection_in_hardware_range",
        "optimize.selected_rate_matches_reference",
        "optimize.selection_beats_other_candidate",
        "optimize.proportional_optimum_matches_t_star",
    ],
}
# (trace mode, metric) pairs that must repeat exactly for one seed
REPEATED = [
    (0, "attempted"),
    (0, "failed"),
    (1, "attempted"),
    (1, "failed"),
    (0, "failed_pct"),
    (0, "selection_miss_pct"),
    (0, "selection_regret_pct"),
    (1, "rate.vector_points_per_op"),
    (1, "optimize.fallback_pct"),
    (1, "optimize.boundary_pct"),
]


def run(workload: str, trace: int, seconds: int = 1) -> tuple[dict, dict]:
    """One short benchmark run: (result line, full report written beside it)."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {done.returncode}: {done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, f"{workload}: incorrect output"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]

    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}, workload
    printed = {m.group(1): m for m in map(LINE.match, lines) if m}
    for metric in declared:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"], metric
        assert isinstance(value["value"], (int, float)), metric
        line = printed.get(metric["name"])
        assert line is not None, f"{workload}: {metric['name']} not printed"
        assert line.group(3) == metric["unit"], f"{metric['name']}: printed unit {line.group(3)}"
        if metric in SPEC["end_to_end"]:
            assert int(line.group(4)) >= 1, f"{metric['name']}: no samples"

    report_path = ROOT / ".bench_out" / f"result-{workload}-seed{SEED}-trace{trace}.json"
    report = json.loads(report_path.read_text(encoding="utf-8"))
    for check in EXPECTED_CHECKS[workload]:
        assert report["checks"].get(check, {}).get("ran", 0) >= 1, f"{workload}: {check} never ran"
    return result, report


def value(report: dict, name: str):
    if name in ("attempted", "failed"):
        return report[name]
    if name in report["metrics"]:
        return report["metrics"][name]["value"]
    return report["extra"][name]["value"]


def main() -> int:
    first = {}
    for workload in EXPECTED_CHECKS:
        for trace in (0, 1):
            first[workload, trace] = run(workload, trace)[1]
            print(f"ok: {workload} trace={trace}")

    for workload in EXPECTED_CHECKS:
        for trace in (0, 1):
            again = run(workload, trace, seconds=5)[1]  # more passes than the first run
            for mode, name in REPEATED:
                if mode == trace:
                    a, b = value(first[workload, trace], name), value(again, name)
                    assert a == b, f"{workload}: {name} differs between runs: {a} vs {b}"
        print(f"ok: {workload} counts repeat exactly")

    bare = Path(tempfile.mkdtemp(dir=ROOT / ".bench_out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [*SPEC["command"], "--workload", "optimize-grid", "--seed", "1", "--seconds", "1",
             "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=180)
        assert done.returncode != 0 and not done.stdout.strip(), "ran without a source tree"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok: refuses to run without the omnidris source tree")
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except AssertionError as exc:
        print(f"selfcheck failed: {exc}", file=sys.stderr)
        raise SystemExit(1)
