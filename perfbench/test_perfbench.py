"""Self-tests of the benchmark: python3 -m pytest perfbench -q

The first test runs the benchmark for real (about two minutes); the others
take a second.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from gradflux.spectrum import ConvergenceRow  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import Run  # noqa: E402
import worker  # noqa: E402

#: Workloads BENCHMARK.json times; telegraph runs only by hand and traced.
TIMED = ["twomode", "spectro-fit"]
END_TO_END = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB"}
STAGES = ["sweep_s", "ladder_s", "fit_s", "simulate_s", "analyze_s",
          "coincidence_s"]
PER_LAYER = {
    **{name: "s" for name in STAGES},
    "failed_ratio": "ratio", "trace.overhead_s": "s",
    **{f"spectrum.{k}_s.d{d}": "s" for k in ("build", "solve", "label")
       for d in (375, 1000, 2000, 3500)},
    "spectrum.sweep_point_s.p50": "s", "spectrum.sweep_point_s.p90": "s",
    "spectrum.eigensolves": "count", "spectrum.matrix_mb.d3500": "MB",
    "spectrum.min_overlap": "ratio", "spectrum.chi_valid_ratio": "ratio",
    "estimation.forward_s.p50": "s", "estimation.nfev": "count",
    "estimation.eval_s": "s", "estimation.forward_share": "ratio",
    "fluxon.simulate_s": "s", "fluxon.detect_s.quiet": "s",
    "fluxon.detect_s.busy": "s", "fluxon.events.quiet": "count",
    "fluxon.events.busy": "count", "fluxon.recall.busy": "ratio",
    "io.trace_write_s": "s", "io.trace_write_mb_per_s": "MB/s",
    "io.trace_read_s.quiet": "s", "io.trace_read_s.busy": "s",
    "io.trace_read_mb_per_s": "MB/s", "io.dwell_json_s": "s",
    "io.trace_mb": "MB",
    "cli.import_s": "s", "cli.import_s.scipy_stats": "s",
    "cli.import_s.scipy_optimize": "s",
}


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, text=True, capture_output=True, timeout=180)


def test_every_name_emitted_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == TIMED
    for trace, expected in ((0, END_TO_END), (1, PER_LAYER)):
        proc = bench("spectro-fit", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        emitted = {k: m["unit"] for k, m in result["metrics"].items()}
        assert emitted == expected


def test_wrong_result_counts_as_failed():
    twomode = worker.make("twomode", 0)
    chi = twomode.ref.values["chi_mhz"]

    def ladder(chi_top):
        return lambda: [ConvergenceRow(m, n, m * n, 0.0, chi_top, 0.0, 1e-3)
                        for m, n in twomode.LADDER]

    run = Run()
    run.begin()
    tracer = Tracer(detail=False)
    run.stage(tracer, "ladder_s", ladder(chi), twomode.check_ladder)
    assert (run.attempted, run.failed) == (1, 0)
    run.stage(tracer, "ladder_s", ladder(chi + 1e-5), twomode.check_ladder)
    assert (run.attempted, run.failed) == (2, 1)
    run.stage(tracer, "ladder_s", ladder(None), twomode.check_ladder)
    assert (run.attempted, run.failed) == (3, 2)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("twomode", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
