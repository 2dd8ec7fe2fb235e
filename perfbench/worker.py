"""One benchmark process: set up, warm up, run the closed loop, report.

Started by run.py with the BLAS thread count already pinned in its
environment. Prints one JSON line on stdout for run.py to read, including
the moment the inputs were ready, from which run.py times set-up.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

sys.path.insert(0, str(ROOT / "src"))
import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracing import Tracer  # noqa: E402
# Importing workloads imports gradflux: set-up time starts here.
from workloads import POOL, WORKLOADS, Reference, Run  # noqa: E402


def load_reference(name, seed):
    values = json.loads(REFERENCE.read_text(encoding="utf-8")).get(name, {})
    if name == "telegraph":
        values = values[str(seed % POOL)]
    return Reference(values)


def make(name, seed, reference=None):
    return WORKLOADS[name](seed, WORK / name,
                           reference or load_reference(name, seed))


def environment():
    blas = [m.show_config(mode="dicts")["Build Dependencies"]["blas"]
            ["version"] for m in (np, scipy)]
    return {"blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "openblas_numpy": blas[0], "openblas_scipy": blas[1]}


def op_seconds(op, workload):
    return sum(op.get(s, 0.0) for s in workload.STAGES)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    seed = args.seed % 2 ** 32

    workload = make(args.workload, seed)
    setup_done = time.monotonic()

    workload.warmup()
    run = Run()
    plain, traced = Tracer(detail=False), Tracer(detail=True)
    untraced_ops, traced_ops = [], []
    deadline = time.monotonic() + args.seconds
    # Closed loop, one caller. A traced run alternates traced and untraced
    # operations, so both see the same machine state. Another operation
    # starts only if one as long as the last would end before the deadline,
    # so a run measures about --seconds however long an operation is.
    while True:
        detail = bool(args.trace) and len(run.ops) % 2 == 0
        tracer = traced if detail else plain
        run.begin()
        started = time.monotonic()
        with traced.wrapping(workload.patches()) if detail else nullcontext():
            workload.op(run, tracer)
        (traced_ops if detail else untraced_ops).append(
            op_seconds(run.ops[-1], workload))
        now = time.monotonic()
        if 2 * now - started > deadline and (
                not args.trace or (traced_ops and untraced_ops)):
            break

    result = {"setup_done": setup_done, "op_s": untraced_ops,
              "stages": run.ops,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
              "env": environment()}
    if args.trace:
        # One traced operation of every other workload, so that a traced
        # run reports every layer.
        others = [make(name, seed) for name in WORKLOADS
                  if name != args.workload]
        for other in others:
            other.warmup()
            run.begin()
            with traced.wrapping(other.patches()):
                other.op(run, traced)
        layers = {}
        for w in [workload] + others:
            layers.update(w.layer_metrics(traced))
            for stage in w.STAGES:
                layers[stage] = traced.median(traced.select(stage))
        layers["failed_ratio"] = run.failed / run.attempted
        layers["trace.overhead_s"] = (statistics.median(traced_ops)
                                      - statistics.median(untraced_ops))
        result["layers"] = layers
        path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        WORK.mkdir(exist_ok=True)
        traced.dump(path, {"workload": args.workload, "seed": args.seed,
                           "env": result["env"]})
        result["trace_file"] = str(path.relative_to(ROOT))
    result.update(attempted=run.attempted, failed=run.failed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
