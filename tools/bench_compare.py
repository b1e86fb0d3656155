"""Compare a committed benchmark trajectory file with its baseline.

    python3 tools/bench_compare.py [BENCH_N.json]

Without an argument the highest-numbered ``BENCH_*.json`` at the repository
root is read.  Each file holds, per workload, the end-to-end metrics of
``bench/run.py --trace 0`` for a parent commit and a change measured on the
same seeds::

    {"environment": {...}, "seconds": 50, "seeds": [...],
     "workloads": {"<workload>": {"parent": {"<metric>": {"runs": [...],
                                                          "median": m,
                                                          "q1": a, "q3": b}},
                                  "change": {...}}}}

The baseline of a metric is the ``change`` median of the previous
``BENCH_*.json`` for the same workload, or the file's own ``parent``
median when there is no previous file.  A metric whose median is worse
than its baseline by more than its ``BENCHMARK.json`` bound is flagged,
not failed: on a shared machine some metrics (``cli-cold`` latency) spread
by nearly as much as their bound between runs of one commit, so a flag
asks for a second look rather than proving a regression.  Where both
sides list per-seed runs, the line also counts the seeds on which the
change beat the parent.  Exit status: 0 after printing, 2 for an
unreadable or malformed file.
"""
from __future__ import annotations

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _number(path: Path) -> int:
    match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
    if match is None:
        raise ValueError(f"{path.name} is not named BENCH_<n>.json")
    return int(match.group(1))


def trajectory_files() -> list[Path]:
    """The repository's ``BENCH_<n>.json`` files in ascending ``n``."""
    found = [p for p in ROOT.glob("BENCH_*.json") if re.fullmatch(r"BENCH_\d+\.json", p.name)]
    return sorted(found, key=_number)


def _worse_by(value: float, baseline: float, better: str) -> float:
    """Relative change of ``value`` against ``baseline`` in the worse direction."""
    if baseline == 0.0:
        return 0.0 if value == baseline else float("inf")
    change = (value - baseline) / abs(baseline)
    return -change if better == "higher" else change


def _wins(parent: dict, change: dict, better: str) -> str:
    ours, theirs = change.get("runs"), parent.get("runs")
    if not ours or not theirs or len(ours) != len(theirs):
        return ""
    sign = 1.0 if better == "higher" else -1.0
    won = sum(sign * (c - p) > 0 for p, c in zip(theirs, ours))
    lost = sum(sign * (c - p) < 0 for p, c in zip(theirs, ours))
    return f"; change better on {won}, worse on {lost} of {len(ours)} seeds"


def compare(current: dict, previous: dict | None, spec: dict) -> list[str]:
    """One line per workload and end-to-end metric, flagged where worse beyond its bound."""
    lines = []
    for workload, sides in current["workloads"].items():
        base_sides = (previous or {}).get("workloads", {}).get(workload)
        source = "previous change" if base_sides else "parent"
        for metric in spec["end_to_end"]:
            name, better, bound = metric["name"], metric["better"], metric["bound"]
            ours = sides["change"][name]
            base = (base_sides["change"] if base_sides else sides["parent"])[name]
            worse = _worse_by(ours["median"], base["median"], better)
            verdict = f"FLAG: worse by more than the {bound:.0%} bound" if worse > bound else "ok"
            direction = f"{worse:.1%} worse" if worse > 0 else f"{-worse:.1%} better"
            lines.append(
                f"{workload:14s} {name:26s} {source} {base['median']:.6g} -> "
                f"{ours['median']:.6g} ({direction}{_wins(sides['parent'][name], ours, better)})"
                f": {verdict}"
            )
    return lines


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    files = trajectory_files()
    try:
        path = Path(argv[0]) if argv else files[-1]
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        current = json.loads(path.read_text(encoding="utf-8"))
        earlier = [p for p in files if _number(p) < _number(path)]
        previous = json.loads(earlier[-1].read_text(encoding="utf-8")) if earlier else None
        lines = compare(current, previous, spec)
    except (IndexError, OSError, ValueError, KeyError, TypeError) as error:
        print(f"bench_compare: cannot compare: {error!r}", file=sys.stderr)
        return 2
    print(f"{path.name} against {earlier[-1].name if earlier else 'its own parent runs'}")
    print("\n".join(lines))
    flagged = sum(": FLAG" in line for line in lines)
    print(f"{flagged} of {len(lines)} metric(s) flagged")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
