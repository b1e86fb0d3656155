"""Command-line front end.

Subcommands: ``rate`` (one-shot evaluation), ``optimize`` (optimum report),
``sweep`` (CSV/JSON curve), ``tables`` (reference-table reproduction) and
``presets`` (bundled scenario list).  Exit codes: 0 success, 1 rejected
input with a diagnostic on stderr, 2 usage errors.
"""
from __future__ import annotations

import argparse
import json
import sys
import warnings
from operator import attrgetter

from .optimize import optimize
from .rate import DegenerateConfigWarning, FixedCount, Fraction, rate_total
from .reports import NormalizedRow, reproduce_table1, reproduce_table2
from .scenario import (
    ScenarioError,
    _csv,
    preset_scenarios,
    resolve_scenario,
    run_sweep,
    sweep_to_csv,
)

__all__ = ["main"]

#: Normalized-table CSV columns: every :class:`NormalizedRow` field but the note.
_NORMALIZED_COLUMNS = tuple(name for name in NormalizedRow._fields if name != "note")
#: Selection-table CSV columns, as :class:`SelectionRow` fields; ``label`` is headed "row".
_SELECTION_COLUMNS = (
    "label",
    "active_fraction",
    "noise_psd",
    "n_star",
    "pow2_lower",
    "rate_lower_bps",
    "pow2_upper",
    "rate_upper_bps",
    "selected_n",
    "selected_rate_bps",
    "published_selected_n",
    "pattern_ok",
)
#: Per table: its CSV header and the getter of its CSV columns from a row.
_TABLE_CSV = {
    "normalized": (_NORMALIZED_COLUMNS, attrgetter(*_NORMALIZED_COLUMNS)),
    "selection": (("row",) + _SELECTION_COLUMNS[1:], attrgetter(*_SELECTION_COLUMNS)),
}


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _json_dump(payload) -> str:
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _emit_record(payload: dict, args) -> None:
    """Write one flat record as JSON or as a one-row CSV table."""
    text = _json_dump(payload) if args.format == "json" else _csv(payload, [payload.values()])
    _emit(text, args.out)


def _absorbing_override(args, scenario):
    if args.theta is not None:
        return FixedCount(args.theta)
    if args.absorbing_fraction is not None:
        return Fraction(args.absorbing_fraction)
    return scenario.absorbing


def cmd_rate(args) -> int:
    scenario = resolve_scenario(args.scenario)
    red = scenario.reduced_params()
    absorbing = _absorbing_override(args, scenario)
    n = float(args.n)
    theta = min(absorbing.theta_at(n), n)
    zeta = n - theta
    rate = rate_total(red, n, absorbing)
    payload = {
        "scenario": scenario.name,
        "n": n,
        "theta": float(theta),
        "zeta": float(zeta),
        "rate_bps": rate,
        "degenerate": zeta <= 0.0,
        "alpha": red.alpha,
        "psi": red.psi,
        "xi": red.xi,
    }
    _emit_record(payload, args)
    return 0


def cmd_optimize(args) -> int:
    scenario = resolve_scenario(args.scenario)
    report = optimize(scenario.reduced_params(), scenario.absorbing)
    _emit_record({"scenario": scenario.name, **report._asdict()}, args)
    return 0


def cmd_sweep(args) -> int:
    scenario = resolve_scenario(args.scenario)
    rows = run_sweep(scenario)
    if args.format == "json":
        _emit(_json_dump([row._asdict() for row in rows]), args.out)
    else:
        _emit(sweep_to_csv(rows), args.out)
    return 0


def cmd_tables(args) -> int:
    tables = {}
    if args.which in ("both", "normalized"):
        tables["normalized"] = reproduce_table2()
    if args.which in ("both", "selection"):
        tables["selection"] = reproduce_table1()
    if args.format == "json":
        payload = {
            name: {**table._asdict(), "rows": [row._asdict() for row in table.rows]}
            for name, table in tables.items()
        }
        _emit(_json_dump(payload), args.out)
    else:
        chunks = []
        for name, table in tables.items():
            header, columns = _TABLE_CSV[name]
            chunks.append(_csv(header, map(columns, table.rows)))
        _emit("\n".join(chunks), args.out)
    return 0


def cmd_presets(args) -> int:
    presets = preset_scenarios()
    header = ("name", "description")
    rows = [(name, presets[name].description) for name in sorted(presets)]
    if args.format == "json":
        _emit(_json_dump([dict(zip(header, row)) for row in rows]), args.out)
    else:
        _emit(_csv(header, rows), args.out)
    return 0


def _add_common(parser: argparse.ArgumentParser, default_format: str) -> None:
    parser.add_argument(
        "--format", choices=("csv", "json"), default=default_format, help="output format"
    )
    parser.add_argument("--out", metavar="PATH", default=None, help="write output to a file")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omnidris",
        description="Achievable-rate evaluation and element-count optimization "
        "for panel-assisted indoor optical wireless links.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rate = sub.add_parser("rate", help="evaluate the aggregate rate at one element count")
    p_rate.add_argument("--scenario", required=True, help="preset name or scenario file path")
    p_rate.add_argument("--n", type=float, required=True, help="element count (may be fractional)")
    override = p_rate.add_mutually_exclusive_group()
    override.add_argument("--theta", type=int, default=None, help="override: fixed absorbing count")
    override.add_argument(
        "--absorbing-fraction", type=float, default=None, help="override: absorbing fraction"
    )
    _add_common(p_rate, "json")
    p_rate.set_defaults(func=cmd_rate)

    p_opt = sub.add_parser("optimize", help="find the rate-maximizing element count")
    p_opt.add_argument("--scenario", required=True, help="preset name or scenario file path")
    _add_common(p_opt, "json")
    p_opt.set_defaults(func=cmd_optimize)

    p_sweep = sub.add_parser("sweep", help="rate over the scenario's element-count grid")
    p_sweep.add_argument("--scenario", required=True, help="preset name or scenario file path")
    _add_common(p_sweep, "csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_tables = sub.add_parser("tables", help="reproduce the published reference tables")
    p_tables.add_argument(
        "--which", choices=("both", "selection", "normalized"), default="both"
    )
    _add_common(p_tables, "csv")
    p_tables.set_defaults(func=cmd_tables)

    p_presets = sub.add_parser("presets", help="list bundled scenario presets")
    _add_common(p_presets, "csv")
    p_presets.set_defaults(func=cmd_presets)

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
            return args.func(args)
    except (ScenarioError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
