"""Write every field of the optimizer's answer to seeded draws, one line per draw.

    PYTHONPATH=src python3 tools/report_digest.py OUT [--draws N] [--seed S]

Each draw picks one of six kinds in turn: ``optimize`` with a
``FixedCount`` or a ``Fraction``, ``optimize_fixed_theta`` with a float
absorbing count, ``optimize_proportional``, any of these four at the edges
of the float range (``alpha``, ``psi``, ``xi`` and the count anywhere from
the subnormals to the float maximum), and ``select_power_of_two`` with any
absorbing argument, negative and NaN counts included.  A line holds the
draw's index, kind and inputs, then every field of the returned record, or
the error it raised, and the number of warnings the call issued.  Floats
are written with ``float.hex``, so a line changes exactly where a bit does.

omnidris is imported from ``PYTHONPATH``, so the same script digests any
checkout; ``diff`` between the digests of two commits lists every moved
report.  Exit status: 0 once OUT is written, 2 for a usage error.
"""
from __future__ import annotations

import argparse
import math
import random
import sys
import warnings

from omnidris.optimize import (
    optimize, optimize_fixed_theta, optimize_proportional, select_power_of_two)
from omnidris.rate import FixedCount, Fraction, ReducedParams

KINDS = ("fixed-count", "fraction", "float-theta", "proportional", "float-edge", "select")
_CALLS = KINDS[:4]


def _text(value) -> str:
    return value.hex() if type(value) is float else repr(value)


def _anywhere(rng: random.Random) -> float:
    """A positive float from the subnormals to the float maximum, log-uniform in its exponent."""
    return max(math.ldexp(1.0 + rng.random(), rng.randint(-1075, 1022)), 5e-324)


def _params(rng: random.Random, edge: bool) -> tuple[float, float, float]:
    if edge:
        return _anywhere(rng), _anywhere(rng), _anywhere(rng)
    psi = rng.choice((1.0, 4.0, 16.0, 64.0)) if rng.random() < 0.5 else rng.uniform(1.0, 1e3)
    return 10.0 ** rng.uniform(-2.0, 8.0), psi, 10.0 ** rng.uniform(-3.0, 9.0)


def _argument(rng: random.Random, kind: str, edge: bool):
    """The absorbing rule, count or active fraction that ``kind`` passes."""
    if kind == "fixed-count":
        return FixedCount(int(_anywhere(rng)) if edge else rng.randint(0, 50))
    if kind == "fraction":
        return Fraction(rng.choice((0.0, 0.1, 0.25, 0.5, 0.9, rng.uniform(0.0, 0.99))))
    if kind == "float-theta":
        if edge:
            return _anywhere(rng)
        return rng.choice((float(rng.randint(0, 50)), rng.uniform(0.0, 50.0)))
    return rng.choice((1.0, 0.5, rng.uniform(0.01, 1.0), 1e-17 if edge else 0.75))


def _call(kind: str, red: ReducedParams, argument, n_star: float):
    if kind == "fixed-count" or kind == "fraction":
        return optimize(red, argument)
    if kind == "float-theta":
        return optimize_fixed_theta(red, argument)
    if kind == "proportional":
        return optimize_proportional(red, argument)
    return select_power_of_two(n_star, red, argument)


def digest_line(index: int, rng: random.Random) -> str:
    """The line of draw ``index``, its inputs drawn from ``rng``."""
    kind = KINDS[index % len(KINDS)]
    edge = kind == "float-edge"
    call = rng.choice(_CALLS) if edge else kind
    alpha, psi, xi = _params(rng, edge)
    n_star = 0.0
    if kind == "select":
        n_star = rng.choice(
            (10.0 ** rng.uniform(-3.0, 3.0), float(2 ** rng.randint(0, 12)), _anywhere(rng)))
        argument = rng.choice((
            _argument(rng, "fixed-count", False), _argument(rng, "fraction", False),
            rng.uniform(0.0, 600.0), -1.0, math.nan))
    else:
        argument = _argument(rng, call, edge)
    inputs = " ".join(map(_text, (alpha, psi, xi, n_star)))
    head = f"{index} {kind} {call} {inputs} {argument!r}"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            record = _call(call, ReducedParams(alpha, psi, xi), argument, n_star)
            body = " ".join(f"{name}={_text(value)}" for name, value in zip(record._fields, record))
        except (ValueError, OverflowError) as error:
            body = f"{type(error).__name__}: {error}"
    return f"{head} -> {body} warnings={len(caught)}\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out")
    parser.add_argument("--draws", type=int, default=6000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.draws < 0:
        parser.error("--draws must be >= 0")
    rng = random.Random(args.seed)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.writelines(digest_line(index, rng) for index in range(args.draws))
    return 0


if __name__ == "__main__":
    sys.exit(main())
