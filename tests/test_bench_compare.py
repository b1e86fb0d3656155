import json

from helpers import ROOT, load_tool


def test_bench_compare_reads_the_committed_trajectory(capsys):
    latest = max(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1]))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    code = load_tool("bench_compare").main([str(latest)])
    out, err = capsys.readouterr()
    assert code == 0, err
    workloads = {w["name"] for w in spec["workloads"]}
    assert set(json.loads(latest.read_text(encoding="utf-8"))["workloads"]) == workloads
    lines = out.splitlines()
    for workload in workloads:
        for metric in spec["end_to_end"]:
            assert sum(line.split()[:2] == [workload, metric["name"]] for line in lines) == 1
