"""Run ``repro-sim serve`` with the benchmark's layer spans installed.

Usage: ``python3 serve_traced.py SPANS_OUT serve --data-dir DIR ...``.
The daemon is the program's own ``repro.cli.main``; this file only adds
the benchmark-side instrumentation of :mod:`layers` (import time
included) and writes the spans to ``SPANS_OUT`` once the daemon has
drained and returned.
"""

from __future__ import annotations

import sys

from tracing import Tracer


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    try:
        with tracer.span("import"):
            import repro.cli
        from layers import instrument

        instrument(tracer)
        return repro.cli.main(argv)
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main())
