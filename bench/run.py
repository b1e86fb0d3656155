"""omnidris benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {cli-cold,optimize-grid}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; omnidris is imported from its
``src/`` directory.  With ``--trace 0`` the run measures the end-to-end
metrics of BENCHMARK.json, untraced.  With ``--trace 1`` it alternates
untraced and traced passes and reports the per-layer metrics.  The last
line of standard output is the JSON result; the lines above it are a
readable table, and the full result is written to
``.bench_out/result-<workload>-seed<N>-trace<T>.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


if not (ROOT / "src" / "omnidris" / "__init__.py").is_file():
    fail(f"no omnidris source tree under {ROOT / 'src'}; run from a source checkout")
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def percentile(values, pct):
    ordered = sorted(values)
    if len(ordered) < 2:
        return ordered[0]
    return statistics.quantiles(ordered, n=100, method="inclusive")[pct - 1]


def child_env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run_child(args, **kwargs):
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, timeout=120, check=True, **kwargs)


SETUP_CODE = "import omnidris\nfrom omnidris.scenario import preset_scenarios\npreset_scenarios()"


def setup_sample():
    """Wall time of a fresh interpreter importing omnidris and building the presets."""
    start = time.perf_counter()
    run_child(["-c", SETUP_CODE])
    return time.perf_counter() - start


def import_times(count=3):
    """Cumulative ``-X importtime`` of omnidris, numpy and yaml in fresh interpreters (ms)."""
    found = {"omnidris": [], "numpy": [], "yaml": []}
    for _ in range(count):
        seen = {}
        for line in run_child(["-X", "importtime", "-c", "import omnidris"]).stderr.decode().splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in found:
                seen.setdefault(parts[2].strip(), int(parts[1]) / 1e3)
        for name, values in found.items():
            values.append(seen.get(name, 0.0))
    return {name: (statistics.median(values), count) for name, values in found.items()}


def run_op(workload, item, tracer=None):
    start = time.perf_counter()
    try:
        return workload.run(item, tracer)
    except Exception:  # a raising operation counts as failed; the run goes on
        workload.checks("operation.completes_without_exception", False)
        return workloads.Sample(time.perf_counter() - start, False, 0)


def warm(workload):
    """One untimed operation: bytecode caches, lru caches and lazy set-up."""
    run_op(workload, workload.items()[0])
    workload.checks = workloads.Checks()


def measure(workload, seconds, min_setups=7):
    """Whole passes until ``seconds`` are up, one set-up sample after each pass.

    Returns the operation samples (one list per pass) and the set-up times.
    """
    warm(workload)
    setup_sample()  # untimed: warms bytecode caches
    passes, setups = [], []
    deadline = time.perf_counter() + seconds
    while True:
        passes.append([run_op(workload, item) for item in workload.items()])
        setups.append(setup_sample())
        if time.perf_counter() >= deadline:
            break
    while len(setups) < min_setups:
        setups.append(setup_sample())
    return passes, setups


def peak_rss_mb(workload):
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def tail_latency(passes, pct):
    """The ``pct``-th percentile latency in ms.

    When one pass holds at least ten samples beyond the percentile, this is
    the median over passes of each pass's percentile, so a spell of load
    from other tenants moves only the passes it covers.  Otherwise it is
    taken over all samples of the run.
    """
    if len(passes[0]) * (100 - pct) >= 1000:
        return statistics.median(percentile([s.seconds * 1e3 for s in p], pct) for p in passes)
    return percentile([s.seconds * 1e3 for p in passes for s in p], pct)


def distinct_outcomes(passes):
    """(operations, failed): each operation of a pass counted once, failed if any run failed.

    Every pass runs the same seeded operations, so these counts depend on
    the seed only, not on how many passes fit into the run.
    """
    return len(passes[0]), sum(not all(s.ok for s in runs) for runs in zip(*passes))


def end_to_end(workload, seconds):
    passes, setups = measure(workload, seconds)
    rss = peak_rss_mb(workload)
    grid = workload if isinstance(workload, workloads.OptimizeGrid) else workloads.OptimizeGrid(
        workload.seed, workload.workdir, ROOT)
    quality = workloads.selection_quality(grid.pool, grid.call)
    samples = [s for one_pass in passes for s in one_pass]
    n = len(samples)
    operations, failed = distinct_outcomes(passes)
    latencies = [s.seconds * 1e3 for s in samples]
    tail = tail_latency(passes, workload.tail)
    # Each operation of a pass runs once per pass; its latency is its best
    # time over the run, which strips the other tenants of a shared machine.
    best = [min(runs, key=lambda s: s.seconds) for runs in zip(*passes)]
    best_busy = sum(s.seconds for s in best)
    metrics = {
        "setup_s": (statistics.median(setups), len(setups)),
        "latency_p50_ms": (statistics.median(s.seconds * 1e3 for s in best), n),
        "latency_tail_ms": (tail, n),
        "ops_per_s": (sum(s.ok for s in best) / best_busy, n),
        "rows_per_s": (sum(s.rows for s in best if s.ok) / best_busy, n),
        "ok_pct": (100.0 * (operations - failed) / operations, operations),
        "selection_hit_pct": (100.0 - quality["selection_miss_pct"], quality["in_range"]),
        "selection_rate_share_pct": (100.0 - quality["selection_regret_pct"], quality["in_range"]),
        "peak_rss_mb": (rss, 1),
    }
    busy = sum(s.seconds for s in samples)
    extra = {  # name: (value, samples, unit)
        "failed_pct": (100.0 * failed / operations, operations, "%"),
        f"latency_p{workload.tail}_ms": (tail, n, "ms"),
        "latency_p50_all_samples_ms": (statistics.median(latencies), n, "ms"),
        "ops_per_s_all_samples": (sum(s.ok for s in samples) / busy, n, "1/s"),
        "selection_miss_pct": (quality["selection_miss_pct"], quality["in_range"], "%"),
        "selection_regret_pct": (quality["selection_regret_pct"], quality["in_range"], "%"),
    }
    detail = {"samples_beyond_tail": sum(v > tail for v in latencies), "passes": len(passes),
              "quality": quality}
    return passes, metrics, extra, detail


def census_argvs(workload):
    """A fixed set of CLI calls that reaches every layer; used for layers a workload skips."""
    path = inputs.write_scenarios(workload.seed, "census", workload.workdir, 4_001,
                                  (("geometry", True),))[0].path
    out = str(workload.workdir / "census.out")
    return [
        ["presets", "--out", out],
        ["rate", "--scenario", path, "--n", "7", "--out", out],
        ["optimize", "--scenario", "C1", "--out", out],
        ["sweep", "--scenario", "C0", "--out", out],
        ["sweep", "--scenario", path, "--format", "json", "--out", out],
        ["tables", "--format", "json", "--out", out],
    ]


def traced_census(workload, argvs):
    for argv in argvs:  # untimed warm-up
        workload.cli.main(argv)
    tracer, sizes = tracing.Tracer(), []
    tracer.install()
    try:
        for argv in argvs:
            tracer.op += 1
            workload.cli.main(argv)
            sizes.append(os.path.getsize(argv[argv.index("--out") + 1]))
    finally:
        tracer.uninstall()
    layers = tracing.per_layer(tracer.spans, len(argvs))
    layers["cli.bytes_out"] = (statistics.fmean(sizes), len(sizes))
    return layers


def sweep_peak_alloc_kb(workload, argvs):
    peaks = []
    for argv in argvs:
        tracemalloc.start()
        try:
            workload.cli.main(argv)
            peaks.append(tracemalloc.get_traced_memory()[1] / 1024.0)
        finally:
            tracemalloc.stop()
    return max(peaks), len(peaks)


def per_layer(workload, seconds):
    """Untraced and traced passes in turn until ``seconds`` are up; spans from the traced ones."""
    warm(workload)
    tracer = tracing.Tracer()
    pairs = []
    deadline = time.perf_counter() + seconds
    while True:
        plain = [run_op(workload, item) for item in workload.items()]
        if workload.in_process:
            tracer.install()
        try:
            traced = []
            for item in workload.items():
                tracer.op += 1
                traced.append(run_op(workload, item, tracer))
        finally:
            tracer.uninstall()
        pairs.append((plain, traced))
        if time.perf_counter() >= deadline:
            break
    spans_file = ROOT / ".bench_out" / f"spans-{workload.name}.jsonl"
    with open(spans_file, "w", encoding="utf-8") as handle:
        handle.write("".join(json.dumps(span) + "\n" for span in tracer.spans))

    traced = [s for _, t in pairs for s in t]
    layers = tracing.per_layer(tracer.spans, len(traced))
    sizes = [s.nbytes for s in traced if s.nbytes]
    layers["cli.bytes_out"] = (statistics.fmean(sizes), len(sizes)) if sizes else (0.0, 0)
    census = census_argvs(workload)
    sources = {}
    if any(samples == 0 for _, samples in layers.values()):
        census_layers = traced_census(workload, census)
        for name, (_, samples) in list(layers.items()):
            if samples == 0:
                layers[name] = census_layers[name]
                sources[name] = "census"
    sweeps = workload.sweep_argvs() or [a for a in census if a[0] == "sweep"]
    layers["scenario.sweep_peak_alloc_kb"] = sweep_peak_alloc_kb(workload, sweeps)
    if not workload.sweep_argvs():
        sources["scenario.sweep_peak_alloc_kb"] = "census"
    imports = import_times()
    layers["import.total_ms"] = imports["omnidris"]
    layers["import.numpy_ms"] = imports["numpy"]
    layers["import.yaml_ms"] = imports["yaml"]
    busy = lambda samples: sum(s.seconds for s in samples)  # noqa: E731
    overhead = statistics.median(busy(t) / busy(p) for p, t in pairs)
    layers["trace.overhead_pct"] = (100.0 * (overhead - 1.0), len(pairs))
    passes = [one_pass for pair in pairs for one_pass in pair]
    return passes, layers, {"span_file": str(spans_file), "layer_sources": sources}


def environment():
    import numpy
    import omnidris
    import yaml

    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True)
        commit = done.stdout.decode().strip() or commit
    origin = Path(omnidris.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        fail(f"omnidris was imported from {origin}, not from this checkout's src/")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "omnidris_source": f"imported from {origin.parent} (the checkout's src/; not pip-installed)",
        "warm_up": "bytecode caches and lazy set-up warmed by one untimed operation before timing",
        "load": "closed loop, one client, one thread; cli-cold runs one child process at a time",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        env = environment()
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, ROOT)
        if args.trace:
            passes, metrics, detail = per_layer(workload, args.seconds)
            extra = {}
        else:
            passes, metrics, extra, detail = end_to_end(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = {name: count for name, count in workload.checks.failed.items() if count}
    correct = not set(failures) - workloads.KNOWN_DEFECT_CHECKS
    operations, failed = distinct_outcomes(passes)
    result = {
        "correct": correct,
        "attempted": operations,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in declared},
    }
    report = {**result, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "runs": sum(map(len, passes)), "environment": env,
              "samples": {name: value[1] for name, value in metrics.items()},
              "extra": {name: {"value": v, "samples": n, "unit": u}
                        for name, (v, n, u) in extra.items()},
              "checks": {name: {"ran": workload.checks.ran[name],
                                "failed": workload.checks.failed[name]}
                         for name in sorted(workload.checks.ran)},
              **detail}
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print(f"omnidris benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for key, value in env.items():
        print(f"  {key}: {value}")
    units = {m["name"]: m["unit"] for m in declared}
    sources = detail.get("layer_sources", {})
    rows = [(name, v, units[name], n) for name, (v, n) in metrics.items()]
    rows += [(name, v, u, n) for name, (v, n, u) in extra.items()]
    for name, value, unit, count in rows:
        source = f"  ({sources[name]})" if name in sources else ""
        print(f"  {name:34s} {value:16.6f} {unit:6s} n={count}{source}")
    for name, counts in report["checks"].items():
        print(f"  check {name}: ran={counts['ran']} failed={counts['failed']}")
    if failures.keys() & workloads.KNOWN_DEFECT_CHECKS:
        print("  note: selections outside 1..512 are counted as failed operations "
              "(known defect); they do not make the run incorrect")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
