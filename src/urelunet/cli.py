"""Command-line pipeline: data generation, fitting, evaluation, simulation, region export."""

from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import functools
import json
import os
import resource
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import boucwen, cpd, polyfit, pwl
from .dataset import (
    RegressorSpec,
    build_regressors,
    is_finite_number,
    load_csv,
    open_output,
    parse_json_object,
    remove_output,
    rmse_db,
    save_csv,
    score_free_run,
    simulate_free_run,
    TimeSeriesData,
)
from .network import UReluNet, param_count, transform
from .varpro import affine_baseline, train

# Total degree of the candidate monomials that FROLS selects from.
POLY_MAX_DEGREE = 3

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
# A rejected value is shown as JSON, cut to this many characters.
SHOWN_VALUE_CHARS = 40


def _apply(cfg: dict, doc: dict, ref: dict, strict: bool, prefix: str = "") -> None:
    """Set each value of `doc` in `cfg`, checked against its default in `ref`.

    Keys starting with "_" are comments. A key that `ref` lacks raises ValueError when
    `strict`, and is otherwise warned about and dropped, so `cfg` keeps the key tree of
    `ref`. An object where `ref` holds a plain value, or the reverse, raises; so does a
    value without its default's type: a float default also takes an int, an int default
    does not take a bool, a number must be finite as a double (`is_finite_number`), and
    the NULLABLE_KEYS also take null. The error shows the value cut to SHOWN_VALUE_CHARS."""
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
        if isinstance(default, str):
            typed = isinstance(value, str)
        else:
            typed = is_finite_number(value, integer=isinstance(default, int))
        if not typed and not (value is None and nullable):
            takes = _TYPE_NAMES[type(default)] + (" or null" if nullable else "")
            shown = json.dumps(value)
            if len(shown) > SHOWN_VALUE_CHARS:
                shown = f"{shown[:SHOWN_VALUE_CHARS]}... ({len(shown)} characters)"
            raise ValueError(f"config key {path!r} takes {takes}, not {shown}")
        cfg[key] = value


def load_config(path: str | None, overrides: list[str]) -> dict:
    """The defaults merged with the config file at `path`, then with each `--set a.b=v`.

    Both sources go through one walk over the defaults (`_apply`): `--set a.b=v` is the
    object {"a": {"b": v}}. A file key that the defaults lack is warned about and dropped;
    an unknown `--set` key raises. The result has exactly the key tree of the defaults."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    sources = []
    if path is not None:
        where = f"config file {path}"
        sources.append((where, parse_json_object(Path(path).read_bytes(), where), False))
    for item in overrides:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ValueError(f"override must look like section.key=value: {item!r}")
        try:
            doc = json.loads(raw)
        except (ValueError, RecursionError):  # what parse_json_object rejects is a string
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


def _check_outputs(inputs: dict[str, str], outputs: dict[str, str]) -> None:
    """Raise ValueError if an output names one of `inputs` or an earlier output; each maps
    a name, such as "paths.train", to a path. Where both paths exist they match if they are
    the same file (`os.path.samefile`), otherwise if they resolve to the same path. An
    existing output that is not a regular file, such as /dev/null or a pipe behind
    /dev/stdout, replaces no file and matches nothing."""
    seen = list(inputs.items())
    for name, path in outputs.items():
        if os.path.exists(path) and not os.path.isfile(path):
            continue
        for other, known in seen:
            if os.path.exists(path) and os.path.exists(known):
                same = os.path.samefile(path, known)
            else:
                same = Path(path).resolve() == Path(known).resolve()
            if same:
                raise ValueError(f"{name} {path} is the same file as {other} {known}")
        seen.append((name, path))


def _meta_path(train: str) -> str:
    return str(train) + ".meta.json"


def _files(cfg: dict, args: argparse.Namespace) -> tuple[dict[str, str], dict[str, str]]:
    """The (inputs, outputs) of the command that `args` runs, each a map from the name that
    its errors give a file to the file's path; --config is an input of every command."""
    reads, writes = {
        "datagen": (["datagen.params_file"], ["paths.train", "paths.validation", "metadata"]),
        "fit": (["paths.train"], ["paths.model", "paths.report"]),
        "eval": (["paths.model", "paths.validation", "paths.train"], []),
        "simulate": (["paths.model", "paths.validation"], ["--output"]),
        "regions": (["paths.model"], ["--output"]),
    }[args.command]
    named = {f"paths.{key}": path for key, path in cfg["paths"].items()}
    named["datagen.params_file"] = cfg["datagen"]["params_file"]
    named["metadata"] = _meta_path(cfg["paths"]["train"])
    named["--config"], named["--output"] = args.config, getattr(args, "output", None)
    inputs = {name: named[name] for name in ["--config", *reads] if named[name] is not None}
    return inputs, {name: named[name] for name in writes}


def cmd_datagen(cfg: dict, stages: StageClock) -> int:
    """Write the training record (at the config's seed), the validation record (seed + 1)
    and the metadata sidecar; the records are `boucwen.record`'s, bit for bit.

    The training record's Newmark loop runs in a `boucwen.SimulationWorker` while this
    process makes the whole validation record and decimates the training input, so the
    stage times are this process's: `simulation` includes the wait for the worker. When
    both records fail, the training record's error is the one raised; no worker outlives
    the call."""
    dg = cfg["datagen"]
    for key in ("train_samples", "validation_samples"):
        if dg[key] < 1:
            raise ValueError(f"datagen.{key} must be >= 1, not {dg[key]}")
    paths = cfg["paths"]
    meta_path = _meta_path(paths["train"])
    params = boucwen.load_params(dg["params_file"])
    seed = cfg["seed"]
    exc = dg["excitation"]
    n_train, n_val = dg["train_samples"], dg["validation_samples"]
    meta = {
        "seed": seed,
        "validation_seed": seed + 1,
        "fs_simulation": boucwen.SIM_RATE_HZ,
        "fs_output": boucwen.SIM_RATE_HZ / boucwen.DECIMATION,
        "decimation": boucwen.DECIMATION,
        "settle_samples": boucwen.SETTLE_SAMPLES,
        "filter": "butterworth order 4 forward-backward, cutoff 0.8x target Nyquist",
        "params_file": str(dg["params_file"]),
        "excitation": {
            "signal": "random-phase multisine", "f_min": boucwen.F_MIN_HZ, "f_max": boucwen.F_MAX_HZ, **exc
        },
    }
    # the training record's simulation runs in a worker process while this one makes
    # the validation record and decimates the training input; starting the worker and
    # waiting for it are simulation time
    with stages("excitation"):
        u_train = boucwen.excitation(exc["amplitude_rms"], n_train, seed)
    with stages("simulation"):
        worker = boucwen.SimulationWorker(params, u_train, boucwen.SIM_RATE_HZ)
    with worker:
        try:
            val_rec = boucwen.record(params, exc["amplitude_rms"], n_val, seed + 1, stages)
            with stages("decimation"):
                u_settled = boucwen.settled(u_train)
        except Exception:
            # as when the records were made one after the other, the training record's
            # error is the one reported; the validation error keeps its own stage
            failed = stages.stage
            with stages("simulation"):
                worker.result()
            stages.stage = failed
            raise
        with stages("simulation"):
            y_train = worker.result()
    with stages("decimation"):
        train_rec = TimeSeriesData(u=u_settled, y=boucwen.settled(y_train))
    with stages("persist"):
        written = []
        try:
            for path, rec in ((paths["train"], train_rec), (paths["validation"], val_rec)):
                save_csv(path, rec)
                written.append(path)
            with open_output(meta_path) as fh:
                json.dump(meta, fh, sort_keys=True, indent=2)
        except BaseException:
            # a partial record set would pass for a whole one; the write that failed
            # removed its own file
            for path in written:
                remove_output(path)
            raise
    print(f"train={paths['train']} rows={len(train_rec)}")
    print(f"validation={paths['validation']} rows={len(val_rec)}")
    print(f"metadata={meta_path}")
    print(f"simulation_steps={boucwen.sim_samples(n_train) + boucwen.sim_samples(n_val)}")
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
        if not np.any(ds.U):
            raise ValueError("regressor matrix is all zero")
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


def numeric_environment() -> dict:
    """The BLAS that numpy was built with, and the thread count the environment requests
    of it through OPENBLAS_NUM_THREADS and OMP_NUM_THREADS (null when neither is set): a
    fit's bits depend on both. Where numpy's show_config takes no `mode` (numpy 1.24),
    the name and version are null."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    requested = {name: os.environ[name] for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if name in os.environ}
    return {
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads_requested_by_environment": requested or None,
    }


def cmd_fit(cfg: dict, stages: StageClock) -> int:
    paths = cfg["paths"]
    with stages("load"):
        data = load_csv(paths["train"])
    ds, poly, factors, net, report = identify(data, cfg, stages)
    with stages("persist"):
        # computed before any file is written, so a record they fail on leaves no model
        cond_u, cond_x = pwl.cond_diagnostics(ds.U, transform(ds.U, net.V))
        cpd_report = {
            "status": factors.status,
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
            "numeric_environment": numeric_environment(),
            "stage_s": stages.seconds,
            "stage_peak_rss_mb": stages.peak_rss_mb,
            "warnings": stages.warnings,
        }
        # a failed write leaves no partial file and names its path (`open_output`); a model
        # without its report would pass for a whole fit, so a failed report removes it too
        with open_output(paths["model"]) as model_fh:
            model_fh.write(net.to_json() + "\n")
            model_fh.flush()  # a model that cannot be written fails before the report opens
            with open_output(paths["report"]) as fh:
                fh.write(json.dumps(doc, sort_keys=True) + "\n")
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
    raw = Path(path).read_bytes()
    try:
        return UReluNet.from_json(raw)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"model file {path}: {exc}") from None


def _free_run_inputs(cfg: dict):
    """The model, the validation record and the record's regressors (on the model's spec,
    else the config's) of a free run, as `eval` and `simulate` use them. `build_regressors`
    checks that the record reaches past its seed window, as it does for `fit`."""
    net = _load_model(cfg["paths"]["model"])
    data = load_csv(cfg["paths"]["validation"])
    try:
        ds = build_regressors(data, net.regressor_spec or _spec(cfg))
    except ValueError as exc:
        raise ValueError(f"validation record {cfg['paths']['validation']}: {exc}") from None
    return net, data, ds


def cmd_eval(cfg: dict) -> int:
    net, data, ds = _free_run_inputs(cfg)
    baseline = affine_baseline(build_regressors(load_csv(cfg["paths"]["train"]), ds.spec))
    value, div_index = score_free_run(net, data, ds.spec)
    cond_u, cond_x = pwl.cond_diagnostics(ds.U, transform(ds.U, net.V))
    if value is None:
        print("diverged=true")
        print(f"divergence_index={div_index}")
    else:
        print("diverged=false")
        print(f"n_s={ds.n_samples}")
        print(f"rmse={value:.6e}")
        print(f"rmse_db={rmse_db(value):.4f}")
    print(f"cond_u={cond_u:.6e}")
    print(f"cond_x={cond_x:.6e}")
    affine, aff_index = score_free_run(baseline, data, ds.spec)
    print(f"affine_diverged={str(affine is None).lower()}")
    if affine is None:
        print(f"affine_divergence_index={aff_index}")
    else:
        print(f"affine_rmse_db={rmse_db(affine):.6f}")
    if value and affine:  # both free runs finite and nonzero
        print(f"margin_db={rmse_db(affine) - rmse_db(value):.6f}")
    return 0


def cmd_simulate(cfg: dict, output: str) -> int:
    net, data, ds = _free_run_inputs(cfg)
    y_s = simulate_free_run(net, data.u, data.y[: ds.spec.max_lag], ds.spec)
    save_csv(output, TimeSeriesData(u=data.u, y=y_s))
    print(f"output={output} rows={len(y_s)}")
    return 0


def cmd_regions(cfg: dict, limit: int, output: str) -> int:
    if limit < 0:
        raise ValueError(f"--limit must be >= 0, not {limit}")
    net = _load_model(cfg["paths"]["model"])
    total = pwl.region_count(net)
    # enumerate_regions yields exactly this many cells
    emitted = min(limit, total)
    # a header that counts more cells than the file holds would pass for a whole export,
    # so a failed write leaves no file
    with open_output(output) as fh:
        header = {"total_cells": total, "emitted": emitted, "truncated": emitted < total}
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for region in pwl.enumerate_regions(net, limit=limit):
            fh.write(region.to_json() + "\n")
    print(f"output={output}")
    print(f"total_cells={total}")
    print(f"emitted={emitted}")
    print(f"truncated={str(emitted < total).lower()}")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: parse_args leaves it as it was."""
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
    p_sim.add_argument("--output", default="simulated.csv", help="output CSV path")
    p_reg = sub.add_parser("regions", help="export the affine regions as JSON lines")
    p_reg.add_argument("--limit", type=int, default=pwl.DEFAULT_LIMIT)
    p_reg.add_argument("--output", default="regions.jsonl", help="output JSON-lines path")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code: 0, or after an error= line on stderr 2
    for an OSError and 1 for a ValueError, TypeError, RuntimeError or LinAlgError; a
    usage error exits through argparse.

    The calls in one process share one parser (`_parser`), built by the first; each
    call parses its own argv and reads its config afresh, so no call's options or
    --set reach another."""
    args = _parser().parse_args(argv)

    stages, caught = StageClock(), []
    try:
        try:
            # a warning raised inside a stage is the stage's; any other, from the config
            # or from a command's work outside the stages, is caught here
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                cfg = load_config(args.config, args.overrides)
                _check_outputs(*_files(cfg, args))  # before the command's own checks
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
            for w in caught:
                print(f"warning={w.message}", file=sys.stderr)
            for w in stages.warnings:
                print(f"warning=stage:{w['stage']} detail={w['message']}", file=sys.stderr)
    except OSError as exc:  # a missing file, a directory, a denied permission, ...
        missing = isinstance(exc, FileNotFoundError)
        kind = "missing_file" if missing else "os_error"
        where = f"stage:{stages.stage} {kind}=" if stages.stage else f"{kind} path="
        reason = "" if missing else f" reason={exc.strerror or exc}"
        print(f"error={where}{exc.filename}{reason}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, RuntimeError, np.linalg.LinAlgError) as exc:
        where = f"stage:{stages.stage} detail=" if stages.stage else ""
        print(f"error={where}{exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
