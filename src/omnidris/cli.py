"""Command-line front end.

Subcommands: ``rate`` (one-shot evaluation), ``optimize`` (optimum report),
``sweep`` (CSV/JSON curve), ``tables`` (reference-table reproduction) and
``presets`` (bundled scenario list).  Exit codes: 0 success, 1 rejected
input with a diagnostic on stderr, 2 usage errors.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import warnings

from .optimize import optimize
from .rate import DegenerateConfigWarning, FixedCount, Fraction, rate_total
from .reports import (
    _NORMALIZED_CSV_HEADER,
    _SELECTION_CSV_HEADER,
    reproduce_table1,
    reproduce_table2,
)
from .scenario import (
    SweepRow,
    _csv,
    preset_scenarios,
    resolve_scenario,
    run_sweep,
    sweep_to_csv,
)

__all__ = ["main"]

#: Per table: its CSV header, over as many leading fields of its row record.
_TABLE_CSV = {"normalized": _NORMALIZED_CSV_HEADER, "selection": _SELECTION_CSV_HEADER}


def _json(payload) -> str:
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


#: One sweep row as :func:`_json` indents it in the row list: a ``%s`` per :class:`SweepRow` field.
_SWEEP_ROW_JSON = (
    "  {\n" + ",\n".join(f"    {json.dumps(name)}: %s" for name in SweepRow._fields) + "\n  }"
)


def _json_value(value) -> str:
    """A bool, int or float as ``json`` writes its runtime type; a non-finite one raises."""
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if not math.isfinite(value):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return float.__repr__(value)


def _sweep_json(rows) -> str:
    """``_json([row._asdict() for row in rows])``, written row by row without the dicts."""
    body = ",\n".join([_SWEEP_ROW_JSON % tuple(map(_json_value, row)) for row in rows])
    return f"[\n{body}\n]\n" if rows else "[]\n"


def _flat_record(payload: dict, fmt: str) -> str:
    """One flat record as JSON or as a one-row CSV table."""
    return _json(payload) if fmt == "json" else _csv(payload, [payload.values()])


def cmd_rate(args) -> str:
    scenario = resolve_scenario(args.scenario)
    red = scenario.reduced_params()
    absorbing = (
        FixedCount(args.theta) if args.theta is not None
        else Fraction(args.absorbing_fraction) if args.absorbing_fraction is not None
        else scenario.absorbing
    )
    n = float(args.n)
    theta = min(absorbing.theta_at(n), n)
    zeta = n - theta
    rate = rate_total(red, n, absorbing)
    payload = {
        "scenario": scenario.name,
        "n": n,
        "theta": theta,
        "zeta": zeta,
        "rate_bps": rate,
        "degenerate": zeta <= 0.0,
        "alpha": red.alpha,
        "psi": red.psi,
        "xi": red.xi,
    }
    return _flat_record(payload, args.format)


def cmd_optimize(args) -> str:
    scenario = resolve_scenario(args.scenario)
    report = optimize(scenario.reduced_params(), scenario.absorbing)
    return _flat_record({"scenario": scenario.name, **report._asdict()}, args.format)


def cmd_sweep(args) -> str:
    rows = run_sweep(resolve_scenario(args.scenario))
    return _sweep_json(rows) if args.format == "json" else sweep_to_csv(rows)


def cmd_tables(args) -> str:
    tables = {}
    if args.which in ("both", "normalized"):
        tables["normalized"] = reproduce_table2()
    if args.which in ("both", "selection"):
        tables["selection"] = reproduce_table1()
    if args.format == "json":
        return _json({
            name: {**table._asdict(), "rows": [row._asdict() for row in table.rows]}
            for name, table in tables.items()
        })
    chunks = []
    for name, table in tables.items():
        header = _TABLE_CSV[name]
        chunks.append(_csv(header, (row[: len(header)] for row in table.rows)))
    return "\n".join(chunks)


def cmd_presets(args) -> str:
    presets = preset_scenarios()
    rows = [{"name": name, "description": presets[name].description} for name in sorted(presets)]
    return _json(rows) if args.format == "json" else _csv(rows[0], map(dict.values, rows))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omnidris",
        description="Achievable-rate evaluation and element-count optimization "
        "for panel-assisted indoor optical wireless links.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, fmt, summary, *own, scenario=True, exclusive=()):
        """Subcommand ``name``: ``--scenario``, ``own`` and ``exclusive`` ``(flag, settings)``,
        ``--format`` (default ``fmt``) and ``--out``, in help order; ``func`` runs it."""
        p = sub.add_parser(name, help=summary)
        if scenario:
            p.add_argument("--scenario", required=True, help="preset name or scenario file path")
        for flag, settings in own:
            p.add_argument(flag, **settings)
        if exclusive:
            group = p.add_mutually_exclusive_group()
            for flag, settings in exclusive:
                group.add_argument(flag, **settings)
        p.add_argument("--format", choices=("csv", "json"), default=fmt, help="output format")
        p.add_argument("--out", metavar="PATH", default=None, help="write output to a file")
        p.set_defaults(func=func)

    command(
        "rate", cmd_rate, "json", "evaluate the aggregate rate at one element count",
        ("--n", dict(type=float, required=True, help="element count (may be fractional)")),
        exclusive=[
            ("--theta", dict(type=int, help="override: fixed absorbing count")),
            ("--absorbing-fraction", dict(type=float, help="override: absorbing fraction")),
        ],
    )
    command("optimize", cmd_optimize, "json", "find the rate-maximizing element count")
    command("sweep", cmd_sweep, "csv", "rate over the scenario's element-count grid")
    command(
        "tables", cmd_tables, "csv", "reproduce the published reference tables",
        ("--which", dict(choices=("both", "selection", "normalized"), default="both")),
        scenario=False,
    )
    command("presets", cmd_presets, "csv", "list bundled scenario presets", scenario=False)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        with warnings.catch_warnings():
            # reports state a degenerate panel in their fields; the warning would repeat it
            warnings.simplefilter("ignore", DegenerateConfigWarning)
            text = args.func(args)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
