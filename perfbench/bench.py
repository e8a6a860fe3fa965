"""One benchmark run: set up, fit, free-run and export one workload, check the outputs.

The records, the fit and the region export run through the program's command
line (``urelunet.cli.main``: ``datagen``, ``fit``, ``regions``) with the
workload's config; the free run calls ``simulate_free_run`` as ``eval`` and
``simulate`` do. The records and the fit are fixed by the workload's config;
the benchmark's seed picks the points at which the checks probe the outputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import time
from pathlib import Path

import numpy as np

from urelunet import cli, dataset, hessian, polyfit
from urelunet.network import UReluNet

import checks
import hostspeed
import tracing

HERE = Path(__file__).resolve().parent
WORKLOADS = HERE / "workloads"
WORKLOAD_NAMES = ("desk", "wide", "long")
SETUP_REPEATS = 2
MIN_ROUNDS = 5
HESSIAN_CHECK_POINTS = 3


class Tally:
    """Operations attempted and failed; an operation fails when a check on it fails."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, op: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{op}: {p}" for p in problems]


_CAL_A = np.arange(24.0).reshape(8, 3)
_CAL_B = np.ones(3)
_LAPACK_M = np.random.default_rng(1).standard_normal((300, 25))


def numpy_calls_kernel() -> float:
    """Time of one run of a fixed loop of small numpy calls that does not touch urelunet.

    The free-run and region passes are such loops. One run, taken just after
    a pass, tracked them better than the fastest of two runs did.
    """
    t0 = time.perf_counter()
    x = 0.0
    for i in range(600):
        x += float((_CAL_A @ _CAL_B).sum()) + (i % 7)
    return time.perf_counter() - t0


def _lapack_body() -> None:
    np.linalg.pinv(_LAPACK_M)
    np.linalg.pinv(_LAPACK_M)


def lapack_kernel() -> float:
    """Time of a fixed LAPACK-bound kernel (two SVD pseudo-inverses) that does not touch urelunet.

    Its second run is still about 3% slower than its third, so it runs three times.
    """
    return hostspeed.fastest(_lapack_body, 3)


# the passes and the fit are timed against these kernels; see hostspeed for the form of a kernel
NUMPY_CALLS = (numpy_calls_kernel, 1.25e-3)
LAPACK = (lapack_kernel, 0.7e-3)


def workload_config(name: str, workdir: Path, overrides: dict | None = None) -> Path:
    """Write the workload's full config, with its paths in ``workdir``, and return its path.

    The config's ``seed`` fixes both records (``datagen`` excites the
    validation record with ``seed + 1``) and every random choice of the fit.
    """
    cfg = json.loads((WORKLOADS / f"{name}.json").read_text())
    for section, values in (overrides or {}).items():
        cfg[section].update(values)
    cfg["paths"] = {
        key: str(workdir / f"{key}.{ext}")
        for key, ext in (("train", "csv"), ("validation", "csv"), ("model", "json"), ("report", "json"))
    }
    cfg["datagen"]["params_file"] = str(WORKLOADS / cfg["datagen"]["params_file"])
    path = workdir / "config.json"
    path.write_text(json.dumps(cfg, indent=2))
    return path


def urelunet(config: Path, *argv: str) -> None:
    """Run one urelunet subcommand; its key=value output is kept off stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["--config", str(config), *argv])
    if rc != 0:
        raise RuntimeError(f"urelunet {argv[0]} exited {rc}: {err.getvalue().strip()}")


def run(config: Path, seed: int, seconds: float, tracer: tracing.Tracer | None, import_s: float) -> dict:
    """Run the workload described by ``config``; return metrics, tally and passes.

    ``import_s`` is the import time at the reference host speed; ``seed``
    picks the points at which the checks probe the outputs.
    """
    cfg = json.loads(config.read_text())
    paths, dg = cfg["paths"], cfg["datagen"]
    tally = Tally()
    captured: dict = {}

    def phase(name):
        if tracer is not None:
            tracer.phase = name

    def timed(fn, kernel):
        if tracer is None:
            return hostspeed.timed_at_reference(fn, kernel)
        # a traced run keeps kernel samples out of its spans and reports plain wall times
        t0 = time.perf_counter()
        fn()
        wall = time.perf_counter() - t0
        return wall, wall

    # FROLS keeps its model inside `fit`; capture it for the checks
    frols = polyfit.frols_select

    def capture_frols(*args, **kwargs):
        captured["poly"] = result = frols(*args, **kwargs)
        captured["fit_ds"] = args[0]
        return result

    polyfit.frols_select = capture_frols
    if tracer is not None:
        tracing.install(tracer)
    try:
        phase("setup")
        setup_times, record_bytes = [], []
        for _ in range(SETUP_REPEATS):
            setup_times.append(timed(lambda: urelunet(config, "datagen"), hostspeed.PYTHON))
            record_bytes.append(Path(paths["train"]).read_bytes() + Path(paths["validation"]).read_bytes())

        phase("fit")
        fit_wall, fit_s = timed(lambda: urelunet(config, "fit"), LAPACK)

        net = UReluNet.from_json(Path(paths["model"]).read_text())
        val = dataset.load_csv(paths["validation"])
        spec = net.regressor_spec
        seed_len = max(spec.n_u, spec.n_y)
        regions_path = Path(paths["model"]).with_suffix(".regions.jsonl")
        free_runs, region_files = [], []
        clock = hostspeed.PassClock(NUMPY_CALLS)
        start = time.perf_counter()
        while len(free_runs) < MIN_ROUNDS or time.perf_counter() - start < seconds:
            phase("freerun")
            y_sim = clock.time("freerun", lambda: dataset.simulate_free_run(net, val.u, val.y[:seed_len], spec))
            phase("regions")
            clock.time("regions", lambda: urelunet(config, "regions", "--output", str(regions_path)))
            # keep the first outputs, and whether each later pass repeated them
            text = regions_path.read_bytes()
            free_runs.append(y_sim if not free_runs else np.array_equal(y_sim, free_runs[0]))
            region_files.append(text if not region_files else text == region_files[0])
        phase("done")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    finally:
        if tracer is not None:
            tracer.uninstall()
        polyfit.frols_select = frols

    # -- checks, outside every timed region --------------------------
    u_tr, y_tr = checks.read_record(paths["train"])
    u_val, y_val = checks.read_record(paths["validation"])
    record_problems = checks.check_record(u_tr, y_tr, dg["train_samples"]) + checks.check_record(
        u_val, y_val, dg["validation_samples"]
    )
    for copy in record_bytes:
        tally.record("datagen", record_problems + ([] if copy == record_bytes[0] else ["records differ between repeats"]))

    model = checks.read_model(paths["model"])
    report = json.loads(Path(paths["report"]).read_text())
    U, y = checks.lagged(u_tr, y_tr, model["n_u"], model["n_y"])
    train_rmse = checks.rms(y - checks.net_output(model, U))
    poly, fit_ds = captured["poly"], captured["fit_ds"]
    exponents = [t.exponents for t in poly.terms]
    rng = np.random.default_rng(seed)
    points = U[rng.choice(len(U), HESSIAN_CHECK_POINTS, replace=False)]
    fit_problems = (
        checks.check_weights(model, U, y)
        + checks.check_report(report, train_rmse)
        + ([] if np.array_equal(fit_ds.U, U) else ["fit regressors differ from the rebuilt ones"])
        + checks.check_frols(exponents, poly.coeffs, U, y)
        + checks.check_hessian(exponents, poly.coeffs, points, hessian.stack_hessians(poly, points).data)
    )
    tally.record("fit", fit_problems)

    y_sim = free_runs[0]
    freerun_problems = checks.check_free_run(model, u_val, y_val, y_sim)
    free_rmse = checks.rms(y_val[seed_len:] - y_sim[seed_len:])
    if cfg.get("beat_affine_baseline"):
        base = checks.affine_free_run_rmse(u_tr, y_tr, u_val, y_val, model["n_u"], model["n_y"])
        if not free_rmse < base:
            freerun_problems.append(f"free-run RMSE {free_rmse:.3e} does not beat the affine baseline {base:.3e}")
    region_problems = checks.check_regions(region_files[0].decode().splitlines(), model, rng)
    for repeated in [True] + free_runs[1:]:
        tally.record("freerun", freerun_problems + ([] if repeated else ["free run differs from the first pass"]))
    for repeated in [True] + region_files[1:]:
        tally.record("regions", region_problems + ([] if repeated else ["region file differs from the first pass"]))

    cells = model["q"] ** model["V"].shape[1]
    metrics = {
        "setup_s": (import_s + statistics.median(t for _, t in setup_times), "s"),
        "fit_s": (fit_s, "s"),
        "freerun_steps_per_s": (clock.rate("freerun", len(val) - seed_len), "steps/s"),
        "regions_per_s": (clock.rate("regions", cells), "cells/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "train_rmse_neg_db": (checks.neg_db(train_rmse), "dB"),
        "freerun_rmse_neg_db": (checks.neg_db(free_rmse), "dB"),
    }
    passes = {"setup": SETUP_REPEATS, "fit": 1, "freerun": len(free_runs), "regions": len(region_files)}
    times = {"setup": [wall for wall, _ in setup_times], "fit": [fit_wall], **clock.raw}
    at_reference = {"import": import_s, "setup": [t for _, t in setup_times], "fit": fit_s}
    return {"metrics": metrics, "tally": tally, "passes": passes, "times": times, "at_reference": at_reference}


def environment() -> dict:
    """BLAS threads in effect, CPU count and library versions, for the record."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": _openblas_threads(),
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _openblas_threads() -> int | None:
    import ctypes
    import glob

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                return int(fn())
    return None
