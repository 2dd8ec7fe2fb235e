"""Record the outputs the benchmark checks against, into reference.json.

    python3 perfbench/record_reference.py

Run once from the root of a checkout whose outputs are known good; the
benchmark then counts any operation whose outputs differ as failed. The
twomode values do not depend on the seed; the telegraph ones are kept for
each of the POOL input sets. spectro-fit needs no record: its reference is
the true parameters and the chi-square they score.
"""

import json
import os
import sys

from run import BLAS_ENV

os.environ.update(BLAS_ENV)

import worker  # noqa: E402  (imports numpy, so after the BLAS pin)
from tracing import Tracer  # noqa: E402
from workloads import POOL, Reference, Run  # noqa: E402


def record(name, seed):
    reference = Reference({}, recording=True)
    run = Run()
    run.begin()
    worker.make(name, seed, reference).op(run, Tracer(detail=False))
    if run.failed:
        raise RuntimeError(f"{name} seed {seed} failed while recording")
    print(f"recorded {name} seed {seed}: {run.ops[-1]}", file=sys.stderr)
    return reference.values


def main():
    values = {"twomode": record("twomode", 0),
              "telegraph": {str(k): record("telegraph", k)
                            for k in range(POOL)}}
    worker.REFERENCE.write_text(json.dumps(values, indent=1, sort_keys=True,
                                           allow_nan=False)
                                + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
