import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_compare_reads_the_committed_trajectory():
    latest = max(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1]))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_compare.py"), str(latest)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    workloads = {w["name"] for w in spec["workloads"]}
    assert set(json.loads(latest.read_text(encoding="utf-8"))["workloads"]) == workloads
    lines = done.stdout.splitlines()
    for workload in workloads:
        for metric in spec["end_to_end"]:
            assert sum(line.split()[:2] == [workload, metric["name"]] for line in lines) == 1
