"""Worker interpreter for the in-process workloads.

    python bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --out FILE
    python bench/worker.py --workload NAME --seed N --setup-only

The worker imports divlab, builds the workload's inputs from the seed and
prints ``ready`` with the CPU time it has used; the parent times set-up up
to that line.  It then runs the operations in closed loop, whole cycles at
a time, while another cycle as long as the last still fits in ``--seconds``
(at least one cycle), and writes one JSON record per operation, with its
wall and CPU time, to ``--out``.  With ``--trace 1`` it runs one cycle
untraced and the same cycle again with the layer tracer installed, and
writes the trace next to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path


def run_cycle(ops, tracer=None) -> list:
    """Run every operation once, in order; one record per operation."""
    records = []
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = index
        units = 0

        def add(n: int) -> None:
            nonlocal units
            units += n

        error = None
        ok = False
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            ok = bool(op.run(add))
        except Exception as exc:  # a failed operation is recorded, not fatal
            error = f"{type(exc).__name__}: {exc}"
        elapsed, cpu = time.perf_counter() - t0, time.process_time() - c0
        records.append({
            "name": op.name,
            "s": elapsed,
            "cpu": cpu,
            "units": units,
            "failed": error is not None or not ok,
            "incorrect": error is None and not ok,
            "error": error,
        })
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import divlab.cli  # noqa: F401  (importing the program is part of set-up)
    import spans
    import workloads

    ops = workloads.IN_PROCESS[args.workload](args.seed)
    sys.stdout.write(f"ready {time.process_time()!r}\n")
    sys.stdout.flush()
    if args.setup_only:
        return 0

    result = {"workload": args.workload, "seed": args.seed}
    if args.trace:
        t0 = time.perf_counter()
        untraced = run_cycle(ops)
        untraced_s = time.perf_counter() - t0
        tracer = spans.Tracer()
        spans.install(tracer)
        t0 = time.perf_counter()
        traced = run_cycle(ops, tracer)
        traced_s = time.perf_counter() - t0
        tracer.write(args.out.with_name(args.out.stem + "-trace"))
        result.update(records=untraced + traced, untraced_s=untraced_s, traced_s=traced_s,
                      trace=args.out.stem + "-trace.json")
    else:
        records = []
        t0 = time.perf_counter()
        while True:
            c0 = time.perf_counter()
            records += run_cycle(ops)
            now = time.perf_counter()
            # start another cycle only if one as long as the last still fits
            if now - t0 + (now - c0) > args.seconds:
                break
        result.update(records=records, cycles=len(records) // len(ops))
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
