"""Command-line pipeline: data generation, fitting, evaluation, simulation, region export."""

from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import json
import resource
import sys
import time
import warnings
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
from .varpro import solve_weights, train

# Total degree of the candidate monomials that FROLS selects from.
POLY_MAX_DEGREE = 3
# Every record follows the hysteretic benchmark's recipe: a random-phase multisine over
# F_MIN_HZ to F_MAX_HZ drives the oscillator, which is simulated at SIM_RATE_HZ, the input
# and output are decimated by DECIMATION (to 750 Hz), and the first SETTLE_SAMPLES
# decimated samples are dropped as the start-up transient.
F_MIN_HZ = 5.0
F_MAX_HZ = 150.0
SIM_RATE_HZ = 15000.0
DECIMATION = 20
SETTLE_SAMPLES = 128

DEFAULT_CONFIG = {
    "seed": 0,
    "paths": {
        "train": "train.csv",
        "validation": "validation.csv",
        "model": "model.json",
        "report": "report.json",
    },
    "regressors": {"n_u": 5, "n_y": 4},
    "poly": {"max_terms": 50},
    "init": {"n": 3, "max_points": 2000, "cpd_max_iter": 500, "cpd_restarts": 3},
    "net": {"q": 8},
    "train": {"max_iter": 100},
    "datagen": {
        "params_file": "boucwen_params.json",
        "train_samples": 4096,
        "validation_samples": 1024,
        "excitation": {"amplitude_rms": 50.0},
    },
}


# Config keys that also take null; for init.max_points it means CPD on every point.
NULLABLE_KEYS = {"init.max_points"}
_TYPE_NAMES = {float: "a number", int: "an integer", str: "a string"}


def _apply(cfg: dict, doc: dict, ref: dict, strict: bool, prefix: str = "") -> None:
    """Set each value of `doc` in `cfg`, checked against its default in `ref`.

    Keys starting with "_" are comments. A key that `ref` lacks raises ValueError when
    `strict`, and is otherwise warned about and dropped, so `cfg` keeps the key tree of
    `ref`. An object where `ref` holds a plain value, or the reverse, raises; so does a
    value without its default's type: a float default also takes an int, an int default
    does not take a bool, and the NULLABLE_KEYS also take null."""
    for key, value in doc.items():
        path = prefix + key
        if key.startswith("_"):
            continue
        if key not in ref:
            if strict:
                raise ValueError(f"unknown config key {path!r}")
            warnings.warn(f"unknown config key {path}")
            continue
        default = ref[key]
        if isinstance(value, dict) != isinstance(default, dict):
            held = "an object" if isinstance(default, dict) else "a plain value, not an object"
            raise ValueError(f"config key {path!r} takes {held}")
        if isinstance(value, dict):
            _apply(cfg[key], value, default, strict, path + ".")
            continue
        nullable = path in NULLABLE_KEYS
        allowed = (int, float) if isinstance(default, float) else type(default)
        typed = isinstance(value, allowed) and not isinstance(value, bool)
        if not typed and not (value is None and nullable):
            takes = _TYPE_NAMES[type(default)] + (" or null" if nullable else "")
            raise ValueError(f"config key {path!r} takes {takes}, not {json.dumps(value)}")
        cfg[key] = value


def load_config(path: str | None, overrides: list[str]) -> dict:
    """The defaults merged with the config file at `path`, then with each `--set a.b=v`.

    Both sources go through one walk over the defaults (`_apply`): `--set a.b=v` is the
    object {"a": {"b": v}}. A file key that the defaults lack is warned about and dropped;
    an unknown `--set` key raises. The result has exactly the key tree of the defaults."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    sources = []
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"config file {path} must hold a JSON object")
        sources.append((f"config file {path}", doc, False))
    for item in overrides:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ValueError(f"override must look like section.key=value: {item!r}")
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError:
            doc = raw
        for part in reversed(key.split(".")):
            doc = {part: doc}
        sources.append((f"--set {key!r}", doc, True))
    for where, doc, strict in sources:
        try:
            _apply(cfg, doc, DEFAULT_CONFIG, strict)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    return cfg


def _spec(cfg: dict) -> RegressorSpec:
    return RegressorSpec(n_u=cfg["regressors"]["n_u"], n_y=cfg["regressors"]["n_y"])


class StageClock:
    """The wall seconds, the peak RSS and the warnings of each stage of a command.

    `with clock("name"):` times its body as that stage; a stage that runs again adds to
    its seconds. Every warning raised in a stage is recorded, not shown, in `warnings`
    as {"stage", "message"}. `clock.stage` names the stage running now, or the last one
    to start."""

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self.peak_rss_mb: dict[str, float] = {}
        self.warnings: list[dict[str, str]] = []
        self.stage: str | None = None

    @contextlib.contextmanager
    def __call__(self, stage: str):
        self.stage, started = stage, time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                yield
            finally:
                self.seconds[stage] = self.seconds.get(stage, 0.0) + time.perf_counter() - started
                # the process's high-water mark so far; Linux reports ru_maxrss in KiB
                self.peak_rss_mb[stage] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
                self.warnings += [{"stage": stage, "message": str(w.message)} for w in caught]


def _sim_samples(n_out: int) -> int:
    """Samples simulated at SIM_RATE_HZ for a record of `n_out` decimated samples."""
    return (n_out + SETTLE_SAMPLES) * DECIMATION


def _generate_record(
    params, init, exc: dict, n_out: int, seed: int, stages: StageClock
) -> TimeSeriesData:
    """`n_out` decimated samples of the oscillator driven by the multisine `exc` at `seed`.

    Times its excitation, simulation and decimation on `stages`."""
    with stages("excitation"):
        u_sim = boucwen.multisine(
            _sim_samples(n_out), SIM_RATE_HZ, F_MIN_HZ, F_MAX_HZ, exc["amplitude_rms"], seed=seed
        )
    with stages("simulation"):
        sim = boucwen.simulate(params, u_sim, SIM_RATE_HZ, **init)
    with stages("decimation"):
        u_dec = boucwen.decimate(u_sim, DECIMATION)
        y_dec = boucwen.decimate(sim.y, DECIMATION)
    return TimeSeriesData(u=u_dec[SETTLE_SAMPLES:], y=y_dec[SETTLE_SAMPLES:])


def cmd_datagen(cfg: dict, stages: StageClock) -> int:
    dg = cfg["datagen"]
    for key in ("train_samples", "validation_samples"):
        if dg[key] < 1:
            raise ValueError(f"datagen.{key} must be >= 1, not {dg[key]}")
    params, init = boucwen.load_params(dg["params_file"])
    seed = cfg["seed"]
    exc = dg["excitation"]
    n_train, n_val = dg["train_samples"], dg["validation_samples"]
    paths = cfg["paths"]
    meta = {
        "seed": seed,
        "validation_seed": seed + 1,
        "fs_simulation": SIM_RATE_HZ,
        "fs_output": SIM_RATE_HZ / DECIMATION,
        "decimation": DECIMATION,
        "settle_samples": SETTLE_SAMPLES,
        "filter": "butterworth order 4 forward-backward, cutoff 0.8x target Nyquist",
        "params_file": str(dg["params_file"]),
        "excitation": {"signal": "random-phase multisine", "f_min": F_MIN_HZ, "f_max": F_MAX_HZ, **exc},
    }
    meta_path = str(paths["train"]) + ".meta.json"
    train_rec = _generate_record(params, init, exc, n_train, seed, stages)
    val_rec = _generate_record(params, init, exc, n_val, seed + 1, stages)
    with stages("persist"):
        save_csv(paths["train"], train_rec)
        save_csv(paths["validation"], val_rec)
        with open(meta_path, "w", encoding="utf-8") as fh:
            json.dump(meta, fh, sort_keys=True, indent=2)
    print(f"train={paths['train']} rows={len(train_rec)}")
    print(f"validation={paths['validation']} rows={len(val_rec)}")
    print(f"metadata={meta_path}")
    print(f"simulation_steps={_sim_samples(n_train) + _sim_samples(n_val)}")
    for name, seconds in stages.seconds.items():
        print(f"stage_{name}_s={seconds:.6f}")
    return 0


def _frols_esr(err_values) -> str:
    """1 - sum(ERR), or "undefined" when FROLS saw a zero target and the ERR is 0/0."""
    return repr(1.0 - sum(err_values)) if len(err_values) else "undefined"


def identify(data: TimeSeriesData, cfg: dict, stages: StageClock):
    """The identification chain on `data` with the settings of `cfg`: NARX regressors,
    FROLS polynomial, CPD start for the transform V, then VarPro training of the network.

    Times each as a stage on `stages`; returns (ds, poly, factors, net, report)."""
    with stages("regressors"):
        ds = build_regressors(data, _spec(cfg))
    with stages("polynomial"):
        candidates = polyfit.enumerate_terms(ds.m, POLY_MAX_DEGREE)
        poly = polyfit.frols_select(ds, candidates, max_terms=cfg["poly"]["max_terms"])
    with stages("initialization"):
        ic = cfg["init"]
        V0, factors = cpd.init_transform(
            ds,
            poly,
            n=ic["n"],
            max_points=ic["max_points"],
            max_iter=ic["cpd_max_iter"],
            seed=cfg["seed"],
            n_restarts=ic["cpd_restarts"],
        )
    with stages("training"):
        net, report = train(V0, ds, cfg["net"]["q"], max_iter=cfg["train"]["max_iter"])
    return ds, poly, factors, net, report


def cmd_fit(cfg: dict, stages: StageClock) -> int:
    paths = cfg["paths"]
    with stages("load"):
        data = load_csv(paths["train"])
    ds, poly, factors, net, report = identify(data, cfg, stages)
    with stages("persist"):
        # computed before any file is written, so a record they fail on leaves no model
        cond_u, cond_x = pwl.cond_diagnostics(ds.U, transform(ds.U, net.V))
        Path(paths["model"]).write_text(net.to_json() + "\n", encoding="utf-8")
        cpd_report = {
            "status": "converged" if factors.converged else "max_iter",
            "iterations": factors.iterations,
            "rel_error": factors.rel_error,
            "restart_errors": list(factors.restart_errors),
        }
        # the report is written inside the persist stage, so it holds the five before it
        # and their warnings
        doc = {
            **dataclasses.asdict(report),
            "cond_u": cond_u,
            "cond_x": cond_x,
            "cpd": cpd_report,
            "frols_err": list(poly.err_values),
            "stage_s": stages.seconds,
            "stage_peak_rss_mb": stages.peak_rss_mb,
            "warnings": stages.warnings,
        }
        Path(paths["report"]).write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
        Path(str(paths["report"]) + ".history.csv").write_text(report.history_csv(), encoding="utf-8")
    print(f"model={paths['model']}")
    print(f"selected_terms={len(poly.terms)}")
    print(f"frols_esr={_frols_esr(poly.err_values)}")
    print(f"cpd_status={cpd_report['status']}")
    print(f"cpd_iterations={cpd_report['iterations']}")
    print(f"cpd_rel_error={cpd_report['rel_error']!r}")
    print(f"cpd_restart_errors={json.dumps(cpd_report['restart_errors'], separators=(',', ':'))}")
    print(f"parameters={param_count(net)}")
    print(f"iterations={report.iterations}")
    print(f"accepted_steps={report.accepted}")
    print(f"train_rmse_db={report.final_rmse_db:.4f}")
    print(f"status={report.status}")
    print(f"basis_rank={report.basis_rank}")
    print(f"basis_cond={report.basis_cond:.6e}")
    print(f"cond_u={cond_u:.6e}")
    print(f"cond_x={cond_x:.6e}")
    for name, seconds in stages.seconds.items():
        print(f"stage_{name}_s={seconds:.6f}")
        print(f"stage_{name}_peak_rss_mb={stages.peak_rss_mb[name]:.1f}")
    return 0


def _load_model(path: str) -> UReluNet:
    with open(path, "r", encoding="utf-8") as fh:
        return UReluNet.from_json(fh.read())


def _free_run_inputs(cfg: dict):
    """The model, the validation record, the regressor spec (the model's, else the
    config's) and the seed length of a free run, as `eval` and `simulate` use them."""
    net = _load_model(cfg["paths"]["model"])
    data = load_csv(cfg["paths"]["validation"])
    spec = net.regressor_spec or _spec(cfg)
    return net, data, spec, spec.max_lag


def _score_free_run(model, data: TimeSeriesData, spec: RegressorSpec, seed_len: int):
    """(rmse, None) of `model`'s free run on `data`, or (None, index) when the run diverges:
    a non-finite prediction, or a finite run too large to square or sum."""
    try:
        y_s = simulate_free_run(model, data.u, data.y[:seed_len], spec)
    except SimulationDiverged as exc:
        return None, exc.index
    with np.errstate(over="ignore"):
        value = rmse(data.y[seed_len:], y_s[seed_len:])
        if np.isfinite(value):
            return value, None
        sq_err = (data.y[seed_len:] - y_s[seed_len:]) ** 2
        bad = ~np.isfinite(sq_err)
        if not bad.any():  # every square is finite, only their sum overflows
            bad = ~np.isfinite(np.cumsum(sq_err))
    return None, seed_len + int(np.argmax(bad))


def cmd_eval(cfg: dict) -> int:
    net, data, spec, seed_len = _free_run_inputs(cfg)
    # the affine baseline [1, U] w, least squares on the training record's regressors
    train_ds = build_regressors(load_csv(cfg["paths"]["train"]), spec)
    w, _ = solve_weights(train_ds.U, train_ds.y)
    value, div_index = _score_free_run(net, data, spec, seed_len)
    ds = build_regressors(data, spec)
    cond_u, cond_x = pwl.cond_diagnostics(ds.U, transform(ds.U, net.V))
    if value is None:
        print("diverged=true")
        print(f"divergence_index={div_index}")
    else:
        n_s = len(data) - seed_len
        print("diverged=false")
        print(f"n_s={n_s}")
        print(f"rmse={value:.6e}")
        print(f"rmse_db={rmse_db(value):.4f}" if value > 0 else "rmse_db=-inf")
    print(f"cond_u={cond_u:.6e}")
    print(f"cond_x={cond_x:.6e}")
    affine, aff_index = _score_free_run(lambda phi: w[0] + w[1:] @ phi, data, spec, seed_len)
    print(f"affine_diverged={str(affine is None).lower()}")
    if affine is None:
        print(f"affine_divergence_index={aff_index}")
    else:
        print(f"affine_rmse_db={rmse_db(affine):.6f}" if affine > 0 else "affine_rmse_db=-inf")
    if value and affine:  # both free runs finite and nonzero
        print(f"margin_db={rmse_db(affine) - rmse_db(value):.6f}")
    return 0


def cmd_simulate(cfg: dict, output: str | None) -> int:
    net, data, spec, seed_len = _free_run_inputs(cfg)
    y_s = simulate_free_run(net, data.u, data.y[:seed_len], spec)
    out = output or "simulated.csv"
    save_csv(out, TimeSeriesData(u=data.u, y=y_s))
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

    stages, config_warnings = StageClock(), []
    try:
        try:
            with warnings.catch_warnings(record=True) as config_warnings:
                warnings.simplefilter("always")
                cfg = load_config(args.config, args.overrides)
            if args.command == "datagen":
                return cmd_datagen(cfg, stages)
            if args.command == "fit":
                return cmd_fit(cfg, stages)
            if args.command == "eval":
                return cmd_eval(cfg)
            if args.command == "simulate":
                return cmd_simulate(cfg, args.output)
            if args.command == "regions":
                return cmd_regions(cfg, args.limit, args.output)
        finally:
            # the warnings come before any error line
            for w in config_warnings:
                print(f"warning={w.message}", file=sys.stderr)
            for w in stages.warnings:
                print(f"warning=stage:{w['stage']} detail={w['message']}", file=sys.stderr)
    except FileNotFoundError as exc:
        where = f"stage:{stages.stage} missing_file=" if stages.stage else "missing_file path="
        print(f"error={where}{exc.filename}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, RuntimeError, np.linalg.LinAlgError) as exc:
        where = f"stage:{stages.stage} detail=" if stages.stage else ""
        print(f"error={where}{exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
