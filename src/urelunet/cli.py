"""Command-line pipeline: data generation, fitting, evaluation, simulation, region export."""

from __future__ import annotations

import argparse
import copy
import json
import sys
from pathlib import Path

import numpy as np

from . import boucwen, cpd, polyfit, pwl
from .dataset import (
    RegressorSpec,
    SimulationDiverged,
    build_regressors,
    load_csv,
    rmse,
    rmse_db,
    save_csv,
    simulate_free_run,
    TimeSeriesData,
)
from .network import UReluNet, param_count, transform
from .varpro import TrainConfig, train

DEFAULT_CONFIG = {
    "seed": 0,
    "paths": {
        "train": "train.csv",
        "validation": "validation.csv",
        "model": "model.json",
        "report": "report.json",
    },
    "regressors": {"n_u": 5, "n_y": 4},
    "poly": {"max_degree": 3, "max_terms": 50, "esr_tol": 1e-6},
    "init": {"n": 3, "max_points": 2000, "cpd_max_iter": 500, "cpd_tol": 1e-8, "cpd_restarts": 3},
    "net": {"q": 8},
    "train": {
        "max_iter": 100,
        "lm_lambda0": 1e-3,
        "lm_up": 10.0,
        "lm_down": 10.0,
        "grad_tol": 1e-10,
        "step_tol": 1e-12,
        "jacobian_mode": "kaufman",
        "holdout_fraction": 0.0,
    },
    "datagen": {
        "params_file": "boucwen_params.json",
        "fs": 15000.0,
        "decimation": 20,
        "settle_samples": 128,
        "train_samples": 4096,
        "validation_samples": 1024,
        "excitation": {"type": "multisine", "f_min": 5.0, "f_max": 150.0, "amplitude_rms": 50.0},
        "validation_excitation": None,
    },
}


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out


def load_config(path: str | None, overrides: list[str], seed: int | None) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = _merge(cfg, json.load(fh))
    for item in overrides:
        key, _, raw = item.partition("=")
        if not _:
            raise ValueError(f"override must look like section.key=value: {item!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        parts = key.split(".")
        for p in parts[:-1]:
            node = node.setdefault(p, {})
        node[parts[-1]] = value
    if seed is not None:
        cfg["seed"] = seed
    return cfg


def _spec(cfg: dict) -> RegressorSpec:
    return RegressorSpec(n_u=int(cfg["regressors"]["n_u"]), n_y=int(cfg["regressors"]["n_y"]))


def _excite(exc: dict, n: int, fs: float, seed: int) -> np.ndarray:
    kind = exc.get("type", "multisine")
    if kind == "multisine":
        return boucwen.multisine(
            n, fs, float(exc["f_min"]), float(exc["f_max"]), float(exc["amplitude_rms"]), seed=seed
        )
    if kind == "swept_sine":
        return boucwen.swept_sine(
            n, fs, float(exc["f_start"]), float(exc["f_end"]), float(exc["amplitude"])
        )
    if kind == "zero":
        return np.zeros(n)
    raise ValueError(f"unknown excitation type {kind!r}")


def _generate_record(params, init, exc, n_out, dg, seed):
    fs = float(dg["fs"])
    factor = int(dg["decimation"])
    settle = int(dg["settle_samples"])
    n_sim = (n_out + settle) * factor
    u_sim = _excite(exc, n_sim, fs, seed)
    sim = boucwen.simulate(params, u_sim, fs, **init)
    fs_out = fs / factor
    u_dec = boucwen.decimate(u_sim, factor, fs)
    y_dec = boucwen.decimate(sim.y, factor, fs)
    return TimeSeriesData(u=u_dec[settle:], y=y_dec[settle:], sample_rate=fs_out)


def cmd_datagen(cfg: dict) -> int:
    dg = cfg["datagen"]
    params, init = boucwen.load_params(dg["params_file"])
    seed = int(cfg["seed"])
    exc_t = dg["excitation"]
    exc_v = dg.get("validation_excitation") or exc_t
    train_rec = _generate_record(params, init, exc_t, int(dg["train_samples"]), dg, seed)
    val_rec = _generate_record(params, init, exc_v, int(dg["validation_samples"]), dg, seed + 1)
    paths = cfg["paths"]
    save_csv(paths["train"], train_rec)
    save_csv(paths["validation"], val_rec)
    meta = {
        "seed": seed,
        "fs_simulation": dg["fs"],
        "fs_output": float(dg["fs"]) / int(dg["decimation"]),
        "decimation": dg["decimation"],
        "settle_samples": dg["settle_samples"],
        "filter": "butterworth order 4 forward-backward, cutoff 0.8x target Nyquist",
        "params_file": str(dg["params_file"]),
        "excitation": exc_t,
        "validation_excitation": exc_v,
    }
    meta_path = str(paths["train"]) + ".meta.json"
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
    print(f"train={paths['train']} rows={len(train_rec)}")
    print(f"validation={paths['validation']} rows={len(val_rec)}")
    print(f"metadata={meta_path}")
    return 0


def cmd_fit(cfg: dict) -> int:
    paths = cfg["paths"]
    stage = "load"
    try:
        data = load_csv(paths["train"])
        stage = "regressors"
        spec = _spec(cfg)
        ds = build_regressors(data, spec)
        stage = "polynomial"
        pc = cfg["poly"]
        candidates = polyfit.enumerate_terms(ds.m, int(pc["max_degree"]))
        poly = polyfit.frols_select(
            ds, candidates, max_terms=int(pc["max_terms"]), esr_tol=float(pc["esr_tol"])
        )
        stage = "initialization"
        ic = cfg["init"]
        V0 = cpd.init_transform(
            ds,
            poly,
            n=int(ic["n"]),
            max_points=ic.get("max_points"),
            max_iter=int(ic["cpd_max_iter"]),
            tol=float(ic["cpd_tol"]),
            seed=int(cfg["seed"]),
            n_restarts=int(ic["cpd_restarts"]),
        )
        stage = "training"
        tc = cfg["train"]
        config = TrainConfig(
            max_iter=int(tc["max_iter"]),
            lm_lambda0=float(tc["lm_lambda0"]),
            lm_up=float(tc["lm_up"]),
            lm_down=float(tc["lm_down"]),
            grad_tol=float(tc["grad_tol"]),
            step_tol=float(tc["step_tol"]),
            jacobian_mode=str(tc["jacobian_mode"]),
            holdout_fraction=float(tc.get("holdout_fraction", 0.0)),
        )
        net, report = train(V0, ds, q=int(cfg["net"]["q"]), config=config)
        stage = "persist"
        Path(paths["model"]).write_text(net.to_json() + "\n", encoding="utf-8")
        Path(paths["report"]).write_text(report.to_json() + "\n", encoding="utf-8")
        Path(str(paths["report"]) + ".history.csv").write_text(
            report.history_csv(), encoding="utf-8"
        )
    except FileNotFoundError as exc:
        print(f"error=stage:{stage} missing_file={exc.filename}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"error=stage:{stage} detail={exc}", file=sys.stderr)
        return 1
    print(f"model={paths['model']}")
    print(f"selected_terms={len(poly.terms)}")
    print(f"parameters={param_count(net)}")
    print(f"iterations={report.iterations}")
    print(f"accepted_steps={report.accepted}")
    print(f"train_rmse_db={report.final_rmse_db:.4f}")
    print(f"status={report.status}")
    return 0


def _load_model(path: str) -> UReluNet:
    with open(path, "r", encoding="utf-8") as fh:
        return UReluNet.from_json(fh.read())


def cmd_eval(cfg: dict) -> int:
    paths = cfg["paths"]
    net = _load_model(paths["model"])
    data = load_csv(paths["validation"])
    spec = net.regressor_spec or _spec(cfg)
    seed_len = max(spec.n_u, spec.n_y)
    diverged = False
    div_index = -1
    try:
        y_s = simulate_free_run(net, data.u, data.y[:seed_len], spec)
    except SimulationDiverged as exc:
        diverged = True
        div_index = exc.index
    ds = build_regressors(data, spec)
    cond_u, cond_x = pwl.cond_diagnostics(ds.U, transform(ds.U, net.V))
    if diverged:
        print("diverged=true")
        print(f"divergence_index={div_index}")
    else:
        n_s = len(data) - seed_len
        value = rmse(data.y[seed_len:], y_s[seed_len:])
        print("diverged=false")
        print(f"n_s={n_s}")
        print(f"rmse={value:.6e}")
        print(f"rmse_db={rmse_db(value):.4f}" if value > 0 else "rmse_db=-inf")
    print(f"cond_u={cond_u:.6e}")
    print(f"cond_x={cond_x:.6e}")
    return 0


def cmd_simulate(cfg: dict, output: str | None) -> int:
    paths = cfg["paths"]
    net = _load_model(paths["model"])
    data = load_csv(paths["validation"])
    spec = net.regressor_spec or _spec(cfg)
    seed_len = max(spec.n_u, spec.n_y)
    y_s = simulate_free_run(net, data.u, data.y[:seed_len], spec)
    out = output or "simulated.csv"
    save_csv(out, TimeSeriesData(u=data.u, y=y_s, sample_rate=data.sample_rate))
    print(f"output={out} rows={len(y_s)}")
    return 0


def cmd_regions(cfg: dict, limit: int, output: str | None) -> int:
    paths = cfg["paths"]
    net = _load_model(paths["model"])
    total = pwl.region_count(net)
    # enumerate_regions yields exactly this many cells
    emitted = max(0, min(limit, total))
    out = output or "regions.jsonl"
    with open(out, "w", encoding="utf-8") as fh:
        header = {"total_cells": total, "emitted": emitted, "truncated": emitted < total}
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for region in pwl.enumerate_regions(net, limit=limit):
            fh.write(region.to_json() + "\n")
    print(f"output={out}")
    print(f"total_cells={total}")
    print(f"emitted={emitted}")
    print(f"truncated={str(emitted < total).lower()}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="urelunet", description="UReLU network system-identification pipeline"
    )
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--seed", type=int, help="override the top-level seed")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        dest="overrides",
        help="override a config entry, e.g. --set net.q=10",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("datagen", help="generate benchmark CSV datasets")
    sub.add_parser("fit", help="run the full identification pipeline")
    sub.add_parser("eval", help="free-run evaluation on the validation record")
    p_sim = sub.add_parser("simulate", help="write the free-run output as CSV")
    p_sim.add_argument("--output", help="output CSV path")
    p_reg = sub.add_parser("regions", help="export the affine regions as JSON lines")
    p_reg.add_argument("--limit", type=int, default=1_000_000)
    p_reg.add_argument("--output", help="output JSON-lines path")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, args.overrides, args.seed)
        if args.command == "datagen":
            return cmd_datagen(cfg)
        if args.command == "fit":
            return cmd_fit(cfg)
        if args.command == "eval":
            return cmd_eval(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.output)
        if args.command == "regions":
            return cmd_regions(cfg, args.limit, args.output)
    except FileNotFoundError as exc:
        print(f"error=missing_file path={exc.filename}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"error={exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
