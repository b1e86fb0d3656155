"""Summarize what moved between two report digests.

    python3 tools/digest_diff.py OLD NEW

OLD and NEW are outputs of ``tools/report_digest.py`` written with the same
``--draws`` and ``--seed``, typically by two checkouts.  For each kind of
draw and each field (the report's fields and the warning count) it prints
how many lines moved and, for float fields, how many moved by at most 1, by 2,
3, 4 and by more than 4 units in the last place, and the largest such distance,
counted between the ``float.hex`` values; then every line whose error changed,
appeared or went away.  Exit status: 0 once the summary is printed, 2 for a
usage error or digests of different draws.
"""
from __future__ import annotations

import argparse
import struct
import sys
from collections import defaultdict


#: The columns of ULP moves: at most 1, then 2, 3 and 4, then more than 4.
BINS = ("1", "2", "3", "4", ">4")


def _ordinal(value: float) -> int:
    """The float's position on the line of all floats: adjacent floats differ by one."""
    bits = struct.unpack("<q", struct.pack("<d", value))[0]
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)


def ulp_distance(old: str, new: str) -> float | None:
    """How many floats apart two ``float.hex`` texts are; None where either is not one."""
    if not all("0x" in text or text.lstrip("-") in ("inf", "nan") for text in (old, new)):
        return None  # an integer field, written by repr, would parse as hexadecimal
    try:
        a, b = float.fromhex(old), float.fromhex(new)
    except ValueError:
        return None
    if a != a or b != b:  # NaN
        return 0.0 if old == new else float("inf")
    return float(abs(_ordinal(a) - _ordinal(b)))


def parse(line: str) -> tuple[str, str, dict[str, str] | None, str]:
    """``(head, body, fields or None for an error, warnings)`` of one digest line."""
    head, body = line.rstrip("\n").split(" -> ", 1)
    body, warnings = body.rsplit(" ", 1)
    fields = None if "Error: " in body else dict(token.split("=", 1) for token in body.split())
    return head, body, fields, warnings


def compare(old_lines: list[str], new_lines: list[str]) -> list[str]:
    """The summary's lines; ValueError where the digests are not of the same draws."""
    if len(old_lines) != len(new_lines):
        raise ValueError(f"the digests hold {len(old_lines)} and {len(new_lines)} lines")
    moved: dict[tuple[str, str], list] = defaultdict(lambda: [0, None, [0] * len(BINS)])
    errors, lines_moved = [], 0
    for old_line, new_line in zip(old_lines, new_lines):
        if old_line == new_line:
            continue
        lines_moved += 1
        old_head, old_body, old_fields, old_warnings = parse(old_line)
        new_head, new_body, new_fields, new_warnings = parse(new_line)
        if old_head != new_head:
            raise ValueError(f"different draws: {old_head!r} and {new_head!r}")
        index, kind = old_head.split()[:2]
        if old_warnings != new_warnings:
            moved[kind, "warnings"][0] += 1
        if old_fields is None or new_fields is None:
            if old_body != new_body:
                errors.append(f"  {index} {kind}: {old_body} -> {new_body}")
            continue
        for name, value in old_fields.items():
            if new_fields[name] != value:
                entry = moved[kind, name]
                entry[0] += 1
                distance = ulp_distance(value, new_fields[name])
                if distance is not None:
                    entry[1] = max(entry[1] or 0.0, distance)
                    entry[2][int(min(max(distance, 1.0), len(BINS))) - 1] += 1
    out = [f"{'kind':<14} {'field':<18} {'moved':>6} "
           + " ".join(f"{name:>6}" for name in BINS) + f" {'max_ulp':>10}"]
    for (kind, name), (count, distance, bins) in sorted(moved.items()):
        if distance is None:
            shown = " ".join(f"{'-':>6}" for _ in BINS) + f" {'-':>10}"
        else:
            shown = " ".join(f"{number:>6}" for number in bins) + f" {distance:>10.0f}"
        out.append(f"{kind:<14} {name:<18} {count:>6} {shown}")
    out.append(f"changed errors: {len(errors)}")
    out.extend(errors)
    out.append(f"{lines_moved} of {len(old_lines)} lines moved")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    try:
        with open(args.old, encoding="utf-8") as old, open(args.new, encoding="utf-8") as new:
            summary = compare(old.readlines(), new.readlines())
    except (OSError, ValueError) as error:
        print(f"digest_diff: {error}", file=sys.stderr)
        return 2
    print("\n".join(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
