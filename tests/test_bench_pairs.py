import json

from helpers import ROOT, load_tool

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [metric["name"] for metric in SPEC["end_to_end"]]


def canned_run(calls):
    """A stand-in for one benchmark run: every metric reads the seed, plus 0.5 on the change."""
    def run(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload, seed, seconds))
        value = seed + (0.5 if checkout.name == "change" else 0.0)
        result = {"correct": True, "attempted": 600, "failed": 0,
                  "metrics": {name: {"value": value, "unit": "u"} for name in NAMES}}
        return f"omnidris benchmark: workload={workload}\n  table line\n{json.dumps(result)}\n"
    return run


def test_bench_pairs_alternates_the_sides_and_writes_what_bench_compare_reads(tmp_path):
    calls, out = [], tmp_path / "BENCH_99.json"
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--seeds", "1", "2", "3", "--workload", "optimize-grid", "--workload", "cli-cold",
            "--seconds", "50", "--out", str(out)]
    assert load_tool("bench_pairs").main(argv, run=canned_run(calls)) == 0
    # odd seeds run the parent first, even seeds the change; one workload after the other
    assert [call[:3] for call in calls[:6]] == [
        ("parent", "optimize-grid", 1), ("change", "optimize-grid", 1),
        ("change", "optimize-grid", 2), ("parent", "optimize-grid", 2),
        ("parent", "optimize-grid", 3), ("change", "optimize-grid", 3)]
    assert len(calls) == 12 and {call[3] for call in calls} == {50.0}
    written = json.loads(out.read_text(encoding="utf-8"))
    assert written["seeds"] == [1, 2, 3] and written["seconds"] == 50.0
    for workload in ("optimize-grid", "cli-cold"):
        for side, offset in (("parent", 0.0), ("change", 0.5)):
            metrics = written["workloads"][workload][side]
            assert set(metrics) == set(NAMES)
            runs = [seed + offset for seed in (1, 2, 3)]
            assert metrics["ops_per_s"] == {"median": 2 + offset, "q1": 1.5 + offset,
                                            "q3": 2.5 + offset, "runs": runs}
    lines = load_tool("bench_compare").compare(written, SPEC)
    assert len(lines) == 2 * len(NAMES)
    ops = next(line for line in lines if line.split()[:2] == ["optimize-grid", "ops_per_s"])
    assert "change better on 3, worse on 0 of 3 seeds" in ops


def test_bench_pairs_refuses_a_run_without_a_result_line(tmp_path):
    out = tmp_path / "BENCH_99.json"
    argv = ["--parent", str(tmp_path), "--change", str(tmp_path), "--seeds", "1", "2",
            "--workload", "optimize-grid", "--out", str(out)]
    assert load_tool("bench_pairs").main(argv, run=lambda *args: "") == 1
    assert not out.exists()
