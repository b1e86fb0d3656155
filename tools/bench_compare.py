"""Compare the change with the parent in a committed benchmark trajectory file.

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

The baseline of a metric is the file's own ``parent`` median, measured
alternated with the change on the same seeds; another file's runs, taken on
another day, would read the machine's drift as a change.  A metric whose
``change`` median is worse than its baseline by more than its ``BENCHMARK.json`` bound is flagged,
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


def compare(current: dict, spec: dict) -> list[str]:
    """One line per workload and end-to-end metric: the change's median against the parent's,
    flagged where worse beyond its bound."""
    lines = []
    for workload, sides in current["workloads"].items():
        for metric in spec["end_to_end"]:
            name, better, bound = metric["name"], metric["better"], metric["bound"]
            base, ours = sides["parent"][name], sides["change"][name]
            worse = _worse_by(ours["median"], base["median"], better)
            verdict = f"FLAG: worse by more than the {bound:.0%} bound" if worse > bound else "ok"
            direction = f"{worse:.1%} worse" if worse > 0 else f"{-worse:.1%} better"
            lines.append(
                f"{workload:14s} {name:26s} parent {base['median']:.6g} -> "
                f"{ours['median']:.6g} ({direction}{_wins(base, ours, better)}): {verdict}"
            )
    return lines


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        path = Path(argv[0]) if argv else trajectory_files()[-1]
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        lines = compare(json.loads(path.read_text(encoding="utf-8")), spec)
    except (IndexError, OSError, ValueError, KeyError, TypeError) as error:
        print(f"bench_compare: cannot compare: {error!r}", file=sys.stderr)
        return 2
    print(f"{path.name}: the change against its own parent runs")
    print("\n".join(lines))
    flagged = sum(": FLAG" in line for line in lines)
    print(f"{flagged} of {len(lines)} metric(s) flagged")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
