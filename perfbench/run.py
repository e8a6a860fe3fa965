#!/usr/bin/env python3
"""Benchmark of the urelunet identification pipeline.

Usage, from the repository root:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 2 --trace 0

Runs one workload (desk, wide or long) in this process and prints, as the
last line of stdout, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-module metrics with ``--trace 1``. See perfbench/README.md.
"""

import hostspeed  # standard library only, so that it can time the imports below

_IMPORTS = hostspeed.Sampler(hostspeed.PYTHON)
_IMPORTS.start()

import os  # noqa: E402

# One BLAS thread: with two, FROLS and LM times vary widely between runs on a 2-CPU host.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "urelunet" / "__init__.py").is_file():
    sys.exit(f"perfbench: no urelunet package under {SRC}; run from a checkout of the repository")
sys.path[:0] = [str(SRC), str(HERE)]

import bench  # noqa: E402
import tracing  # noqa: E402

# imports of numpy, scipy and urelunet, at the reference host speed
_, IMPORT_S = _IMPORTS.stop()
OUT = HERE / "out"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=bench.WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="time spent on free-run and region passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as work:
        config = bench.workload_config(args.workload, Path(work))
        res = bench.run(config, args.seed, args.seconds, tracer, IMPORT_S)
    tally = res["tally"]
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)

    figures = res["metrics"] if tracer is None else tracing.per_layer_metrics(tracer, res["passes"])
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in figures.items()}
    broken = sorted(k for k, v in metrics.items() if not math.isfinite(v["value"]))
    if broken:
        sys.exit(f"perfbench: non-finite metrics {broken}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    env = bench.environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": env, "passes": res["passes"], "times": res["times"], "at_reference": res["at_reference"], "problems": tally.problems, "result": result}
    if tracer is not None:
        record["spans"] = [
            {"phase": phase, "name": name, **row} for (phase, name), row in sorted(tracer.aggregate().items())
        ]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(" ".join(f"{k}={v}" for k, v in env.items()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
