"""Traced omnidris CLI process for the cli-cold workload.

    python bench/trace_child.py SPANS.json ARGS...

Imports omnidris, installs the benchmark's span wrappers, runs
``omnidris.cli.main(ARGS)`` and writes the spans to SPANS.json.  The exit
code is the CLI's.
"""
import json
import sys

import omnidris.cli
from tracing import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = omnidris.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
