"""The three workloads: what one operation is, how it is timed and how it is checked.

Each workload builds one *pass* of operations from the seed; a run repeats
whole passes until its time is up, so every count below is a multiple of
one pass and repeats exactly for a given seed.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import time
import warnings
from collections import Counter
from dataclasses import dataclass

import inputs
import reference as ref

#: Checks whose failures are counted but do not make the run incorrect: the
#: program answers consistently, yet outside its documented hardware range.
KNOWN_DEFECT_CHECKS = frozenset({"optimize.selection_in_hardware_range"})


class Checks:
    """Counts how often each named correctness check ran and failed."""

    def __init__(self):
        self.ran = Counter()
        self.failed = Counter()

    def __call__(self, name: str, ok: bool) -> bool:
        self.ran[name] += 1
        if not ok:
            self.failed[name] += 1
        return bool(ok)


@dataclass
class Sample:
    seconds: float
    ok: bool
    rows: int
    nbytes: int = 0


def _spot_rows(rng: random.Random, count: int) -> list[int]:
    return sorted({0, count - 1, *(rng.randrange(count) for _ in range(3))})


class Workload:
    name = ""
    in_process = True
    tail = 98  # the highest percentile with at least ten samples beyond it in one pass

    def __init__(self, seed: int, workdir, root):
        self.seed = seed
        self.workdir = workdir
        self.root = root
        self.checks = Checks()
        import omnidris.cli

        self.cli = omnidris.cli

    def items(self) -> list:
        raise NotImplementedError

    def run(self, item, tracer=None) -> Sample:
        raise NotImplementedError

    def sweep_argvs(self) -> list[list[str]]:
        """Sweep command lines of one pass, for the allocation measurement."""
        return []


# --- optimize-grid -------------------------------------------------------------


@dataclass
class Draw:
    params: inputs.Params
    scenario: object


def build_scenario(params: inputs.Params, name: str):
    """An in-memory omnidris Scenario that states ``params`` in their form."""
    from omnidris.channel import LinkGeometry
    from omnidris.rate import FixedCount, Fraction, ReducedParams, SystemParams
    from omnidris.scenario import Scenario, SweepSpec

    absorbing = (FixedCount(params.theta) if params.fraction is None
                 else Fraction(params.fraction))
    common = dict(name=name, absorbing=absorbing, sweep=SweepSpec(1.0, 50.0, 1.0))
    if params.form == "reduced":
        return Scenario(reduced=ReducedParams(params.alpha, params.psi, params.xi), **common)
    links = math.isqrt(int(params.psi))
    system = SystemParams(bandwidth_hz=2.0 * params.xi / links, transmit_power_w=10.0,
                          num_light_sources=links, num_users=1, oe_conversion=0.5,
                          noise_psd=2.0)
    geometry = LinkGeometry(**inputs.ROOM) if params.form == "geometry" else None
    return Scenario(system=system, geometry=geometry, alpha_calibration=params.alpha, **common)


class OptimizeGrid(Workload):
    """One ``optimize_fixed_theta``/``optimize_proportional`` call per operation."""

    name = "optimize-grid"
    POOL = 600

    def __init__(self, seed, workdir, root):
        super().__init__(seed, workdir, root)
        import omnidris.optimize
        from omnidris.rate import DegenerateConfigWarning, Fraction

        self.optimize = omnidris.optimize
        self.fraction_type = Fraction
        warnings.simplefilter("ignore", DegenerateConfigWarning)
        self.pool = [Draw(p, build_scenario(p, f"draw-{i}"))
                     for i, p in enumerate(inputs.optimize_draws(seed, self.POOL))]

    def items(self):
        return self.pool

    def call(self, draw: Draw):
        # the dispatch of omnidris.cli.cmd_optimize
        scenario = draw.scenario
        red = scenario.reduced_params()
        if isinstance(scenario.absorbing, self.fraction_type):
            return self.optimize.optimize_proportional(red, 1.0 - scenario.absorbing.q)
        return self.optimize.optimize_fixed_theta(red, float(scenario.absorbing.count))

    def run(self, draw, tracer=None):
        start = time.perf_counter()
        report = self.call(draw)
        seconds = time.perf_counter() - start
        return Sample(seconds, self.check(draw.params, report), 1)

    def check(self, p: inputs.Params, report) -> bool:
        n = report.selected_n
        lo, hi = report.pow2_lower, report.pow2_upper
        other = hi if n == lo else lo
        rate_at = lambda m: ref.rate(p.alpha, p.psi, p.xi, float(m),  # noqa: E731
                                     ref.theta_at(m, p.theta, p.fraction))
        checks = [
            self.checks("optimize.selection_is_bracketing_power_of_two",
                        n in (lo, hi) and n >= 1 and n & (n - 1) == 0),
            self.checks("optimize.selection_in_hardware_range", 1 <= n <= 512),
            self.checks("optimize.selected_rate_matches_reference",
                        ref.rel_close(report.selected_rate, rate_at(n))),
            self.checks("optimize.selection_beats_other_candidate", rate_at(n) >= rate_at(other)),
        ]
        if p.fraction is not None:
            analytic = math.sqrt(p.alpha / (p.psi * ref.T_STAR))
            checks.append(self.checks("optimize.proportional_optimum_matches_t_star",
                                      ref.rel_close(report.n_star_cubic, analytic)))
        return all(checks)


def selection_quality(draws: list[Draw], call) -> dict:
    """Miss share and mean regret of in-range selections against the best hardware panel.

    The yardstick is :mod:`reference`, never omnidris's own rate.
    """
    misses = in_range = 0
    regret = 0.0
    for draw in draws:
        p = draw.params
        n = call(draw).selected_n
        if not 1 <= n <= 512:
            continue
        in_range += 1
        _, best = ref.best_panel(p.alpha, p.psi, p.xi, p.theta, p.fraction)
        got = ref.rate(p.alpha, p.psi, p.xi, float(n), ref.theta_at(n, p.theta, p.fraction))
        if got < best:
            misses += 1
            regret += (best - got) / best
    return {
        "draws": len(draws),
        "in_range": in_range,
        "selection_miss_pct": 100.0 * misses / in_range,
        "selection_regret_pct": 100.0 * regret / in_range,
    }


def read_sweep(text: str, fmt: str) -> list[tuple[float, float, int]]:
    """(n, rate, selected) per row of a sweep output."""
    if fmt == "json":
        return [(r["n"], r["rate_bps"], int(r["selected"])) for r in json.loads(text)]
    reader = csv.DictReader(io.StringIO(text))
    return [(float(r["n"]), float(r["rate_bps"]), int(r["selected"])) for r in reader]


def check_sweep(checks: Checks, rows, params, grid, rng) -> bool:
    results = [
        checks("sweep.row_count_matches_grid", len(rows) == grid.size()),
        checks("sweep.at_most_one_selected", sum(r[2] for r in rows) <= 1),
    ]
    spots = [i for i, r in enumerate(rows) if r[2]] + (_spot_rows(rng, len(rows)) if rows else [])
    for i in spots:
        n, rate, _ = rows[i]
        theta = min(ref.theta_at(n, params.theta, params.fraction), n)
        expected = ref.rate(params.alpha, params.psi, params.xi, n, theta)
        results.append(checks("sweep.rate_matches_reference", ref.rel_close(rate, expected)))
    return all(results)


# --- cli-cold ------------------------------------------------------------------


class CliCold(Workload):
    """One fresh ``python -m omnidris.cli ...`` process per operation, spawn to exit."""

    name = "cli-cold"
    in_process = False
    tail = 90  # the highest with at least ten samples beyond it in a run

    def __init__(self, seed, workdir, root):
        super().__init__(seed, workdir, root)
        self.calls = inputs.cli_mix(seed, workdir)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def items(self):
        return list(range(len(self.calls)))

    def sweep_argvs(self):
        return [argv + ["--out", str(self.workdir / "alloc.out")]
                for argv, _ in self.calls if argv[0] == "sweep"]

    def run(self, index, tracer=None):
        argv, expected_sweep = self.calls[index]
        if tracer is None:
            command = [sys.executable, "-m", "omnidris.cli", *argv]
        else:
            spans_path = self.workdir / "child-spans.json"
            command = [sys.executable, str(self.root / "bench" / "trace_child.py"),
                       str(spans_path), *argv]
        start = time.perf_counter()
        done = subprocess.run(command, cwd=self.root, env=self.env, capture_output=True,
                              timeout=120)
        seconds = time.perf_counter() - start
        if tracer is not None and done.returncode == 0:
            merge_child_spans(tracer, json.loads(spans_path.read_text(encoding="utf-8")))
        ok_exit = self.checks("cli.exit_zero", done.returncode == 0)
        text = done.stdout.decode("utf-8", "replace")
        rows = parse_cli_output(argv, text)
        ok = self.checks("cli.output_parses", rows is not None) and ok_exit
        if argv[0] == "tables":
            payload = json.loads(text) if rows is not None else {}
            ok = self.checks("tables.all_ok", all(
                payload.get(key, {}).get("all_ok") is True
                for key in ("normalized", "selection"))) and ok
        if expected_sweep is not None and rows is not None:
            rng = random.Random(f"sweep-spot:{self.seed}:{index}")
            sweep_rows = read_sweep(text, argv[argv.index("--format") + 1])
            ok = check_sweep(self.checks, sweep_rows, *expected_sweep, rng) and ok
        return Sample(seconds, ok, rows or 0, len(done.stdout))


def parse_cli_output(argv, text: str) -> int | None:
    """Data rows in a CLI output, or None when it does not parse."""
    try:
        if argv[argv.index("--format") + 1] == "json":
            payload = json.loads(text)
            if argv[0] == "tables":
                return sum(len(payload[k]["rows"]) for k in payload)
            return len(payload) if isinstance(payload, list) else 1
        rows = list(csv.reader(io.StringIO(text)))
    except (ValueError, KeyError, TypeError, csv.Error):
        return None
    if len(rows) < 2 or any(len(r) != len(rows[0]) for r in rows):
        return None
    return len(rows) - 1


def merge_child_spans(tracer, spans):
    """Append a child's spans, re-basing parent indices and the operation id."""
    base = len(tracer.spans)
    for name, start, end, parent, _, info in spans:
        tracer.spans.append([name, start, end, parent + base if parent >= 0 else -1,
                             tracer.op, info])


WORKLOADS = {w.name: w for w in (CliCold, OptimizeGrid)}
