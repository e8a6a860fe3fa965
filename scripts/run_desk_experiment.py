#!/usr/bin/env python3
"""Run the desk-scale experiment end to end.

Generates a synthetic hysteretic-oscillator dataset, fits the full pipeline
(polynomial selection -> Hessian/CPD initialization -> variable-projection
training), evaluates the free-run prediction against an affine baseline on the
same regressors, and exports the piecewise-linear regions.

Usage:
    python scripts/run_desk_experiment.py [--outdir OUT]
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from urelunet import cli  # noqa: E402
from urelunet.dataset import (  # noqa: E402
    build_regressors,
    load_csv,
    rmse,
    rmse_db,
    simulate_free_run,
)
from urelunet.network import UReluNet  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default=str(REPO / "out"), help="artifact directory")
    args = ap.parse_args()
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    base = [
        "--config",
        str(REPO / "configs" / "desk_pipeline.json"),
        "--set",
        f"paths.train={outdir / 'desk_train.csv'}",
        "--set",
        f"paths.validation={outdir / 'desk_validation.csv'}",
        "--set",
        f"paths.model={outdir / 'desk_model.json'}",
        "--set",
        f"paths.report={outdir / 'desk_report.json'}",
        "--set",
        f"datagen.params_file={REPO / 'configs' / 'desk_boucwen.json'}",
    ]

    for command in ("datagen", "fit", "eval"):
        print(f"== {command} ==")
        rc = cli.main(base + [command])
        if rc != 0:
            return rc
    rc = cli.main(base + ["regions", "--output", str(outdir / "desk_regions.jsonl")])
    if rc != 0:
        return rc

    # affine baseline on the same regressors, free-run on the validation record
    net = UReluNet.from_json((outdir / "desk_model.json").read_text())
    spec = net.regressor_spec
    train_data = load_csv(outdir / "desk_train.csv")
    val_data = load_csv(outdir / "desk_validation.csv")
    ds = build_regressors(train_data, spec)
    A = np.column_stack([np.ones(ds.n_samples), ds.U])
    coef, *_ = np.linalg.lstsq(A, ds.y, rcond=None)
    seed_len = spec.max_lag

    def free_run_db(model):
        y_s = simulate_free_run(model, val_data.u, val_data.y[:seed_len], spec)
        return rmse_db(rmse(val_data.y[seed_len:], y_s[seed_len:]))

    lin_db = free_run_db(lambda phi: coef[0] + coef[1:] @ phi)
    net_db = free_run_db(net)
    summary = {
        "linear_baseline_free_run_db": lin_db,
        "network_free_run_db": net_db,
        "margin_db": lin_db - net_db,
    }
    (outdir / "desk_summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    print("== summary ==")
    print(f"linear_baseline_free_run_db={lin_db:.2f}")
    print(f"network_free_run_db={net_db:.2f}")
    print(f"margin_db={lin_db - net_db:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
