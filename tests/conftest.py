import contextlib
import io
import os
import subprocess
from pathlib import Path

import numpy as np
import pytest

from urelunet import cli, varpro
from urelunet.network import bias_grid, transform

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"


def parse_kv(stdout: str) -> dict:
    """Parse the CLI's key=value output lines."""
    out = {}
    for line in stdout.splitlines():
        if "=" in line:
            k, _, v = line.partition("=")
            out[k] = v
    return out


def basis_derivative(V, ds, q, s, t, umin_sign=1.0):
    """Dense N x (n*q) derivative of the basis B(U V) with respect to v_st, built from
    `varpro._basis_derivative` and `_knot_sensitivities`, the helpers of `vp_jacobian`.

    Only block t is nonzero: where x_t - beta_tj > 0, column (t, j) is
    u_s - dbeta[s, t, j]. Each knot sensitivity holds +u(k_min), where k_min is the
    sample at dimension t's minimum of X = U V; `umin_sign=-1.0` gives the wrong-sign
    control, which holds -u(k_min) instead, so finite differences of the basis must
    reject it.
    """
    X = transform(ds.U, V)
    mask, Umin, dU = varpro._basis_derivative(ds.U, X, bias_grid(X, q))
    dbeta = varpro._knot_sensitivities(umin_sign * Umin, dU, q)
    D = np.zeros((ds.n_samples, X.shape[1] * q))
    D[:, t * q : (t + 1) * q] = mask[:, t, :] * (ds.U[:, s][:, None] - dbeta[s, t, :])
    return D


@pytest.fixture(scope="session")
def desk_pipeline(tmp_path_factory):
    """Run the pinned desk-scale pipeline (datagen + fit) once per session.

    Returns a dict with the working paths, a `run` helper for further
    subcommands against the same artifacts, and the parsed fit output.
    """
    work = tmp_path_factory.mktemp("desk")
    base = [
        "--config",
        str(CONFIGS / "desk_pipeline.json"),
        "--set",
        f"paths.train={work / 'train.csv'}",
        "--set",
        f"paths.validation={work / 'validation.csv'}",
        "--set",
        f"paths.model={work / 'model.json'}",
        "--set",
        f"paths.report={work / 'report.json'}",
        "--set",
        f"datagen.params_file={CONFIGS / 'desk_boucwen.json'}",
    ]

    def run(command, *extra):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(base + [command] + list(extra))
        return rc, buf.getvalue()

    rc, datagen_out = run("datagen")
    assert rc == 0, datagen_out
    rc, fit_out = run("fit")
    assert rc == 0, fit_out
    return {
        "work": work,
        "run": run,
        "datagen": parse_kv(datagen_out),
        "fit": parse_kv(fit_out),
        "model": work / "model.json",
        "report": work / "report.json",
        "train_csv": work / "train.csv",
        "validation_csv": work / "validation.csv",
    }


@pytest.fixture
def workers(monkeypatch):
    """The processes started while the test runs (by `boucwen.SimulationWorker`), in order."""
    started = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    return started


def assert_reaped(processes):
    """Each process has exited and been waited for: it is no longer a child of this one."""
    for proc in processes:
        assert proc.returncode is not None
        with pytest.raises(ChildProcessError):
            os.waitpid(proc.pid, os.WNOHANG)
