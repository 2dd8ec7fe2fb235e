"""gradflux benchmark: one workload, one caller at a time, one JSON line.

    python3 perfbench/run.py --workload twomode --seed 0 --seconds 35 --trace 0

Run from the root of a gradflux checkout. With --trace 0 the last stdout
line carries the end-to-end metrics (set-up time, time per operation, peak
memory); with --trace 1 it carries every per-layer metric, and the spans
are written under .perfbench_work/. Everything else goes to stderr.
Workloads, metrics and the held-out seed are described in README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("twomode", "spectro-fit", "telegraph")

#: BLAS threads for every run, whatever the machine; 2 is this benchmark's
#: reference machine's nproc. Changing it moves ladder-heavy timings.
BLAS_THREADS = "2"
BLAS_ENV = {k: BLAS_THREADS for k in ("OPENBLAS_NUM_THREADS",
                                      "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

#: Fresh worker interpreters per untraced run, one after another. Each is
#: timed for setup_s and then measures an equal share of --seconds. A
#: process tends to keep one CPU, and on a shared host the CPUs can run at
#: different speeds for tens of seconds, so operations from several
#: processes give a steadier median than the same number from one.
WORKERS = 5
#: A run has 180 s; this leaves room to start up and report.
BUDGET_S = 170.0

IMPORTS = {"cli.import_s": "gradflux",
           "cli.import_s.scipy_stats": "scipy.stats",
           "cli.import_s.scipy_optimize": "scipy.optimize"}


def declared(trace):
    """(name, unit) of every metric BENCHMARK.json lists for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def child_env():
    return {**os.environ, **BLAS_ENV}


def worker(args, seconds, deadline):
    """Start worker.py, wait for it, and return (start time, its report)."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), text=True,
                          stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - start))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def import_times(deadline):
    """Cumulative import times [s] from `python -X importtime`, medians."""
    samples = {name: [] for name in IMPORTS}
    for _ in range(WORKERS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import gradflux"],
            cwd=ROOT, env={**child_env(), "PYTHONPATH": str(ROOT / "src")},
            text=True, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=max(1.0, deadline - time.monotonic()), check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[1].isdigit():
                cumulative[parts[2]] = int(parts[1]) * 1e-6
        for name, module in IMPORTS.items():
            samples[name].append(cumulative[module])
    return {name: statistics.median(v) for name, v in samples.items()}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    if not (ROOT / "src" / "gradflux" / "__init__.py").is_file():
        print(f"perfbench: no gradflux source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S

    # A traced run needs one process, whose spans cover every operation.
    reports = []
    for _ in range(1 if args.trace else WORKERS):
        start, report = worker(
            args, args.seconds / (1 if args.trace else WORKERS), deadline)
        report["setup_s"] = report["setup_done"] - start
        reports.append(report)

    print("perfbench env: " + json.dumps(report["env"], sort_keys=True),
          file=sys.stderr)
    for op in (op for r in reports for op in r["stages"]):
        print("perfbench op: " + ", ".join(f"{k} = {v:.4f} s"
                                           for k, v in op.items()),
              file=sys.stderr)
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    if args.trace:
        values = {**report["layers"], **import_times(deadline)}
        print(f"perfbench spans: {report['trace_file']}", file=sys.stderr)
    else:
        values = {"setup_s": statistics.median(r["setup_s"]
                                               for r in reports),
                  "op_s": statistics.median(s for r in reports
                                            for s in r["op_s"]),
                  "peak_rss_mb": max(r["peak_rss_mb"] for r in reports)}
    metrics = {name: {"value": values.pop(name), "unit": unit}
               for name, unit in declared(args.trace)}
    if values:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: "
                           f"{sorted(values)}")
    for k, m in metrics.items():
        print(f"perfbench {args.workload}: {k} = {m['value']:.6g} "
              f"{m['unit']}", file=sys.stderr)
    print(f"perfbench {args.workload}: failed {failed} of {attempted} "
          f"stages", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
