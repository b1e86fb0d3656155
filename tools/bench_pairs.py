"""Run the benchmark on a parent and a change checkout in alternated pairs; write the trajectory.

    python3 tools/bench_pairs.py --parent DIR --change DIR --seeds S [S ...] \
        --workload W [--workload W ...] [--seconds 50] --out BENCH_<n>.json [--description TEXT]

For each workload and seed it runs ``python3 bench/run.py --workload W --seed S
--seconds T --trace 0`` once in each checkout, one run at a time, and reads the
JSON result on the run's last line of standard output.  On odd seeds the parent
runs first, on even seeds the change, so neither side always meets a machine
warmed or loaded by the other.  The file it writes has the layout that
``tools/bench_compare.py`` reads::

    {"description": ..., "command": ..., "seconds": T, "seeds": [...], "order": ...,
     "environment": {...},
     "workloads": {"<workload>": {"parent": {"<metric>": {"runs": [...], "median": m,
                                                          "q1": a, "q3": b}},
                                  "change": {...}}}}

``runs`` follow the order of ``--seeds``; the quartiles are the inclusive ones
of :func:`statistics.quantiles`.  Each checkout is run from its own directory, so
each side builds omnidris from its own ``src/``.  Exit status: 0 once the file is
written, 1 when a run gives no result line, 2 for a usage error.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> str:
    """The standard output of one untraced benchmark run in ``checkout``."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", f"{seconds:g}", "--trace", "0"]
    return subprocess.run(command, cwd=checkout, check=True, capture_output=True,
                          text=True).stdout


def result_metrics(stdout: str) -> dict[str, float]:
    """The end-to-end metrics of a run's last line: ``{"metrics": {name: {"value": v}}}``."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the run printed no result line")
    return {name: entry["value"] for name, entry in json.loads(lines[-1])["metrics"].items()}


def summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def pairs(checkouts: dict[str, Path], workloads: list[str], seeds: list[int], seconds: float,
          run=run_bench) -> dict:
    """Per workload and side, each metric's runs over ``seeds``, alternated pair by pair; each
    run's metrics are printed to standard error as it ends."""
    found = {}
    for workload in workloads:
        runs = {side: {} for side in SIDES}
        for seed in seeds:
            for side in SIDES if seed % 2 else SIDES[::-1]:
                metrics = result_metrics(run(checkouts[side], workload, seed, seconds))
                for name, value in metrics.items():
                    runs[side].setdefault(name, []).append(value)
                print(f"{workload} seed {seed} {side}: " + " ".join(
                    f"{name}={value:.6g}" for name, value in metrics.items()), file=sys.stderr)
        found[workload] = {side: {name: summary(values) for name, values in runs[side].items()}
                           for side in SIDES}
    return found


def main(argv: list[str] | None = None, run=run_bench) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--description", default="")
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")
    checkouts = {"parent": args.parent, "change": args.change}
    try:
        workloads = pairs(checkouts, args.workload, args.seeds, args.seconds, run=run)
    except (subprocess.CalledProcessError, ValueError, KeyError) as error:
        print(f"bench_pairs: {error!r}", file=sys.stderr)
        return 1
    trajectory = {
        "description": args.description,
        "command": f"python3 bench/run.py --workload W --seed S --seconds {args.seconds:g} "
                   "--trace 0",
        "seconds": args.seconds,
        "seeds": args.seeds,
        "order": "parent and change alternate which runs first, pair by pair "
                 "(odd seeds parent first)",
        "environment": {"machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
                        "os": platform.platform(), "python": platform.python_version()},
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(trajectory, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
