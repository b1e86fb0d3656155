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


def canned_trajectory(parent: float, change: float) -> dict:
    """A trajectory file whose every metric of both workloads reads ``parent`` and ``change``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sides = {side: {metric["name"]: {"median": value, "q1": value, "q3": value, "runs": [value]}
                    for metric in spec["end_to_end"]}
             for side, value in (("parent", parent), ("change", change))}
    return {"workloads": {workload["name"]: sides for workload in spec["workloads"]}}


def test_bench_compare_measures_each_change_against_its_own_parent(tmp_path, capsys):
    # the earlier file's change ran faster; the later one's parent, on a slower day, sets its base
    tool = load_tool("bench_compare")
    for number, (parent, change) in ((1, (0.150, 0.158)), (2, (0.193, 0.204))):
        path = tmp_path / f"BENCH_{number}.json"
        path.write_text(json.dumps(canned_trajectory(parent, change)), encoding="utf-8")
        assert tool.main([str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == f"BENCH_{number}.json: the change against its own parent runs"
        setup = next(line for line in out if line.split()[:2] == ["cli-cold", "setup_s"])
        assert f"parent {parent:.6g} -> {change:.6g}" in setup and setup.endswith(": ok")
        assert out[-1] == f"0 of {len(out) - 2} metric(s) flagged"
