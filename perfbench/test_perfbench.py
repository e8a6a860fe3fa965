"""Tests of the benchmark harness: a quick run on a tiny record, and for each
output check a corrupted output it must reject.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import math
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench  # noqa: E402
import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
from urelunet import dataset, hessian, polyfit  # noqa: E402
from urelunet.network import UReluNet  # noqa: E402

TINY = {
    "datagen": {"train_samples": 1000, "validation_samples": 300},
    "poly": {"max_terms": 15},
    "init": {"max_points": 100, "cpd_max_iter": 30, "cpd_restarts": 1},
    "train": {"max_iter": 20},
}


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    work = tmp_path_factory.mktemp("tiny")
    config = bench.workload_config("desk", work, TINY)
    tracer = tracing.Tracer()
    res = bench.run(config, 3, 0.0, tracer, 0.0)
    cfg = json.loads(config.read_text())
    paths = cfg["paths"]
    model = checks.read_model(paths["model"])
    u_tr, y_tr = checks.read_record(paths["train"])
    u_val, y_val = checks.read_record(paths["validation"])
    U, y = checks.lagged(u_tr, y_tr, model["n_u"], model["n_y"])
    net = UReluNet.from_json(Path(paths["model"]).read_text())
    seed_len = max(model["n_u"], model["n_y"])
    ds = dataset.build_regressors(dataset.load_csv(paths["train"]), net.regressor_spec)
    poly = polyfit.frols_select(ds, polyfit.enumerate_terms(ds.m, 3), max_terms=TINY["poly"]["max_terms"])
    return {
        "res": res,
        "tracer": tracer,
        "paths": paths,
        "model": model,
        "U": U,
        "y": y,
        "u_val": u_val,
        "y_val": y_val,
        "y_sim": dataset.simulate_free_run(net, u_val, y_val[:seed_len], net.regressor_spec),
        "poly": poly,
        "report": json.loads(Path(paths["report"]).read_text()),
        "regions": Path(paths["model"]).with_suffix(".regions.jsonl").read_text().splitlines(),
    }


def test_tiny_run_passes_its_checks(tiny):
    res = tiny["res"]
    assert res["tally"].problems == []
    assert res["tally"].attempted == bench.SETUP_REPEATS + 1 + 2 * bench.MIN_ROUNDS
    for name, (value, unit) in res["metrics"].items():
        assert math.isfinite(value) and value > 0, name


def test_tiny_run_traces_every_module(tiny):
    per_layer = {k: v for k, (v, unit) in tracing.per_layer_metrics(tiny["tracer"], tiny["res"]["passes"]).items()}
    for name in ("polyfit.frols_select_s", "cpd.cpd_als_s", "varpro.jacobian_s", "network.forward_s", "pwl.to_json_s"):
        assert per_layer[name] > 0, name
    assert per_layer["pwl.cells"] == 8**3
    assert per_layer["varpro.residual_evals"] == 1 + per_layer["varpro.accepted"] + per_layer["varpro.rejected"]
    assert per_layer["network.forward_calls"] == per_layer["dataset.free_run_steps"]
    # the module spans inside fit leave little of it unaccounted
    assert per_layer["cli.fit_self_s"] < 0.2 * per_layer["trace.fit_s"]


def test_tracer_restores_the_modules(tiny):
    assert polyfit.frols_select.__module__ == "urelunet.polyfit"
    assert not hasattr(polyfit.frols_select, "__wrapped__")
    assert not hasattr(dataset.simulate_free_run, "__wrapped__")


def test_timed_at_reference_leaves_out_its_samples():
    handler = signal.getsignal(signal.SIGALRM)
    wall, at_reference = hostspeed.timed_at_reference(lambda: time.sleep(0.3), bench.LAPACK)
    assert 0.2 < wall < 0.35
    assert at_reference > 0
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_weights_check_rejects_a_perturbed_weight(tiny):
    model, U, y = tiny["model"], tiny["U"], tiny["y"]
    assert checks.check_weights(model, U, y) == []
    bad = dict(model, w=model["w"].copy())
    bad["w"][2] += 1e-3 * np.abs(model["w"]).max()
    assert checks.check_weights(bad, U, y)


def test_report_check_rejects_a_wrong_db_and_a_rising_history(tiny):
    model, U, y, report = tiny["model"], tiny["U"], tiny["y"], tiny["report"]
    train_rmse = checks.rms(y - checks.net_output(model, U))
    assert checks.check_report(report, train_rmse) == []
    assert checks.check_report(dict(report, final_rmse_db=report["final_rmse_db"] + 1e-3), train_rmse)
    hist = list(report["residual_history"])
    hist[-1] = hist[-2]
    assert checks.check_report(dict(report, residual_history=hist), train_rmse)


def test_frols_check_rejects_a_perturbed_coefficient(tiny):
    poly, U, y = tiny["poly"], tiny["U"], tiny["y"]
    exponents = [t.exponents for t in poly.terms]
    assert checks.check_frols(exponents, poly.coeffs, U, y) == []
    coeffs = poly.coeffs.copy()
    coeffs[0] *= 1.001
    assert checks.check_frols(exponents, coeffs, U, y)


def test_hessian_check_rejects_a_perturbed_entry(tiny):
    poly, U = tiny["poly"], tiny["U"]
    exponents = [t.exponents for t in poly.terms]
    points = U[[0, len(U) // 2]]
    H = hessian.stack_hessians(poly, points).data
    assert checks.check_hessian(exponents, poly.coeffs, points, H) == []
    i, j = np.unravel_index(np.argmax(np.abs(H[:, :, 1])), H.shape[:2])
    H[i, j, 1] *= 1.001
    assert checks.check_hessian(exponents, poly.coeffs, points, H)


def test_free_run_check_rejects_a_shifted_sample(tiny):
    model, u, y, y_sim = tiny["model"], tiny["u_val"], tiny["y_val"], tiny["y_sim"]
    assert checks.check_free_run(model, u, y, y_sim) == []
    bad = y_sim.copy()
    bad[len(bad) // 2] += 1e-6 * checks.rms(y)
    assert checks.check_free_run(model, u, y, bad)
    assert checks.check_free_run(model, u, y, np.full_like(y, 10.0 * np.abs(y).max()))


def test_region_check_rejects_an_edited_line_and_a_broken_header(tiny):
    lines, model = tiny["regions"], tiny["model"]
    assert checks.check_regions(lines, model) == []
    assert checks.check_regions(lines, model, np.random.default_rng(5)) == []
    doc = json.loads(lines[7])
    doc["affine_x"]["b"] *= 1.0001
    assert checks.check_regions(lines[:7] + [json.dumps(doc)] + lines[8:], model)
    # the header overwriting the first region leaves one unparseable line
    assert checks.check_regions([lines[0].rstrip() + lines[1]] + lines[2:], model)
    assert checks.check_regions(lines[:-1], model)


def test_record_check_rejects_a_short_record(tiny):
    u, y = tiny["u_val"], tiny["y_val"]
    assert checks.check_record(u, y, len(u)) == []
    assert checks.check_record(u[:-1], y[:-1], len(u))
