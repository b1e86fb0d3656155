"""Spans around omnidris's public functions, installed from outside the package.

Each wrapper replaces a function where its caller looks it up (for example
``omnidris.cli.run_sweep`` or ``omnidris.optimize.rate_total``) and records
a span: name, start, end, parent span, operation id and a small ``info``
value (points evaluated, rows handled, fallback/boundary flags).  Spans
stay in memory; :func:`per_layer` turns them into the per-layer metrics.
"""
from __future__ import annotations

import importlib
import statistics
import time

POINTS, ROWS, ARG_ROWS, REPORT, LOAD = "points", "rows", "arg_rows", "report", "load"

# (module, attribute path, span name, info kind)
TARGETS = [
    ("omnidris.cli", "main", "cli.main", None),
    ("omnidris.cli", "resolve_scenario", "scenario.resolve_scenario", None),
    ("omnidris.cli", "preset_scenarios", "scenario.preset_scenarios", None),
    ("omnidris.cli", "run_sweep", "scenario.run_sweep", ROWS),
    ("omnidris.cli", "sweep_to_csv", "scenario.sweep_to_csv", ARG_ROWS),
    ("omnidris.cli", "reproduce_table1", "reports.reproduce_table1", None),
    ("omnidris.cli", "reproduce_table2", "reports.reproduce_table2", None),
    ("omnidris.scenario", "load_scenario", "scenario.load_scenario", LOAD),
    ("omnidris.scenario", "Scenario.reduced_params", "scenario.reduced_params", None),
    ("omnidris.reports", "build_cubic", "optimize.cubic", None),
    ("omnidris.reports", "solve_cubic", "optimize.cubic", None),
    ("omnidris.reports", "meaningful_root", "optimize.cubic", None),
    ("omnidris.optimize", "brute_force_argmax", "optimize.oracle", None),
    ("omnidris.optimize", "build_cubic", "optimize.cubic", None),
    ("omnidris.optimize", "solve_cubic", "optimize.cubic", None),
    ("omnidris.optimize", "meaningful_root", "optimize.cubic", None),
    ("omnidris.optimize", "select_power_of_two", "optimize.select", None),
]
for _module in ("omnidris.cli", "omnidris.scenario", "omnidris.reports", "omnidris.optimize"):
    TARGETS += [
        (_module, "optimize_fixed_theta", "optimize.optimize", REPORT),
        (_module, "optimize_proportional", "optimize.optimize", REPORT),
        (_module, "rate_total", "rate.rate_total", POINTS),
    ]

# Every PyYAML loader instance is one parse pass over a document.
YAML_LOADERS = [
    ("yaml", f"{name}.__init__", "scenario.yaml_parse", None)
    for name in ("BaseLoader", "FullLoader", "SafeLoader", "Loader", "UnsafeLoader",
                 "CBaseLoader", "CFullLoader", "CSafeLoader", "CLoader", "CUnsafeLoader")
]


def _info(kind, args, result):
    if kind == POINTS:
        return getattr(result, "size", 0)  # a Python float is a scalar call: 0
    if kind == ROWS:
        return len(result)
    if kind == ARG_ROWS:
        return len(args[0])
    if kind == REPORT:
        return int(result.used_fallback) + 2 * int(result.at_boundary)
    return None


class Tracer:
    """Records spans for every call through the installed wrappers."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index, op id, info]
        self.op = 0
        self._stack = []
        self._saved = []
        self._yaml = False

    def _wrap(self, fn, name, kind):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if kind == LOAD and not self._yaml:
                self._yaml = True  # PyYAML is imported by now or inside this call
                self.install(YAML_LOADERS)
            span = [name, 0, 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if kind is not None and kind != LOAD:
                span[5] = _info(kind, args, result)
            return result

        wrapper.bench_original = fn
        return wrapper

    def install(self, targets=TARGETS):
        """Wrap every target that exists; a missing one records no spans."""
        for module_name, path, name, kind in targets:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                continue
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent, None)
            original = getattr(owner, "__dict__", {}).get(attr)
            if original is None or hasattr(original, "bench_original"):
                continue
            setattr(owner, attr, self._wrap(original, name, kind))
            self._saved.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self._yaml = False


def _median(values):
    return statistics.median(values) if values else 0.0


def per_layer(spans, ops: int) -> dict[str, tuple[float, int]]:
    """Per-layer metrics from the spans of ``ops`` operations: name -> (value, samples).

    Times are inclusive durations unless the name says self; shares divide
    summed durations.  A layer with no spans reads 0 with 0 samples.
    """
    children = [[] for _ in spans]
    by_name = {}
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
        by_name.setdefault(span[0], []).append(index)

    def named(name):
        return by_name.get(name, [])

    def dur(index):
        return spans[index][2] - spans[index][1]

    def under(index, name):
        parent = spans[index][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    def median_of(indices, scale):
        return _median([dur(i) for i in indices]) / scale, len(indices)

    def ratio(num, den):
        return num / den if den else 0.0

    loads = named("scenario.load_scenario")
    file_resolves = {spans[i][3] for i in loads}
    resolves = [i for i in named("scenario.resolve_scenario") if i not in file_resolves]
    parses = [i for i in named("scenario.yaml_parse") if under(i, "scenario.load_scenario")]
    scalar = [i for i in named("rate.rate_total") if spans[i][5] == 0]
    vector = [i for i in named("rate.rate_total") if spans[i][5]]
    points = sum(spans[i][5] for i in vector)
    optimizes = [i for i in named("optimize.optimize") if not under(i, "optimize.optimize")]
    oracles = named("optimize.oracle")
    cubic = {}
    for index in named("optimize.cubic"):
        cubic[spans[index][3]] = cubic.get(spans[index][3], 0) + dur(index)
    sweeps = named("scenario.run_sweep")
    sweep_rows = sum(spans[i][5] for i in sweeps)
    sweep_ns = sum(dur(i) for i in sweeps)
    sweep_opt_ns = sum(dur(c) for i in sweeps for c in children[i]
                       if spans[c][0] == "optimize.optimize")
    csvs = named("scenario.sweep_to_csv")
    mains = named("cli.main")
    flags = [spans[i][5] for i in optimizes]

    return {
        "scenario.resolve_preset_us": median_of(resolves, 1e3),
        "scenario.load_yaml_ms": median_of(loads, 1e6),
        "scenario.yaml_calls": (ratio(len(parses), len(loads)), len(loads)),
        "scenario.reduced_params_us": median_of(named("scenario.reduced_params"), 1e3),
        "rate.scalar_calls_per_op": (ratio(len(scalar), ops), ops),
        "rate.scalar_us": median_of(scalar, 1e3),
        "rate.vector_points_per_op": (ratio(points, ops), ops),
        "rate.vector_ns_per_point": (ratio(sum(dur(i) for i in vector), points), len(vector)),
        "optimize.oracle_ms": median_of(oracles, 1e6),
        "optimize.oracle_share": (
            ratio(sum(dur(i) for i in oracles), sum(dur(i) for i in optimizes)), len(optimizes)),
        "optimize.cubic_us": (_median(list(cubic.values())) / 1e3, len(cubic)),
        "optimize.select_us": median_of(named("optimize.select"), 1e3),
        "optimize.fallback_pct": (
            ratio(100.0 * sum(f & 1 for f in flags), len(flags)), len(flags)),
        "optimize.boundary_pct": (
            ratio(100.0 * sum(f >> 1 for f in flags), len(flags)), len(flags)),
        "scenario.run_sweep_ns_per_row": (ratio(sweep_ns - sweep_opt_ns, sweep_rows), len(sweeps)),
        "scenario.sweep_to_csv_ns_per_row": (
            ratio(sum(dur(i) for i in csvs), sum(spans[i][5] for i in csvs)), len(csvs)),
        "scenario.sweep_optimize_share": (ratio(sweep_opt_ns, sweep_ns), len(sweeps)),
        "cli.self_ms": (
            _median([dur(i) - sum(dur(c) for c in children[i]) for i in mains]) / 1e6,
            len(mains)),
        "reports.table2_ms": median_of(named("reports.reproduce_table2"), 1e6),
        "reports.table1_ms": median_of(named("reports.reproduce_table1"), 1e6),
    }
