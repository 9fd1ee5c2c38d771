"""Run one divlab CLI invocation with the layer tracer installed.

    python -X importtime bench/cli_shim.py TRACE_STEM OP_ID <divlab arguments>

This is ``python -m divlab.cli <divlab arguments>`` plus tracing: the exit
code is the CLI's, and the trace is written to ``TRACE_STEM.json`` and
``TRACE_STEM.npz`` when the invocation ends.
"""

from __future__ import annotations

import sys
from pathlib import Path

import spans


def main() -> int:
    stem, op_id, argv = Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3:]
    import divlab.cli

    tracer = spans.Tracer()
    spans.install(tracer)
    tracer.op_id = op_id
    try:
        return divlab.cli.main(argv)
    finally:
        tracer.write(stem)


if __name__ == "__main__":
    sys.exit(main())
