import contextlib
import dataclasses
import io
from pathlib import Path

import numpy as np
import pytest

from urelunet import cli

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


def wrong_sign_derivative(d, V):
    """The basis derivative `d` at V with its min-sample knot term negated.

    Each knot sensitivity holds +u(k_min), where k_min is the sample at the
    dimension's minimum of X = U V; the control holds -u(k_min) instead, so
    finite differences of the basis must reject it.
    """
    Umin = d.U[np.argmin(d.U @ V, axis=0)].T
    return dataclasses.replace(d, dbeta=d.dbeta - 2 * Umin[:, :, None])


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
