import contextlib
import copy
import dataclasses
import errno
import io
import itertools
import json
import math
import os
import resource
import stat
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from urelunet import boucwen, cli, dataset, polyfit, pwl
from urelunet.dataset import (
    RegressorSpec,
    SimulationDiverged,
    TimeSeriesData,
    build_regressors,
    load_csv,
    rmse,
    rmse_db,
    save_csv,
    simulate_free_run,
)
from urelunet.network import UReluNet, bias_grid, build_B, make_net, param_count, transform
from urelunet.pwl import PwlRegion, cond_diagnostics
from urelunet.varpro import TrainReport

from conftest import assert_reaped, make_restart_singular, parse_kv


def run_main(argv):
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, buf.getvalue(), err.getvalue()


def full_disk_on_write(monkeypatch, path, n):
    """Make the n-th write to the file `path` that `dataset.open_output` opens raise ENOSPC."""
    def opener(file, *args, **kwargs):
        fh = open(file, *args, **kwargs)
        if Path(file) == Path(path):
            write, calls = fh.write, itertools.count(1)

            def full_disk(text):
                if next(calls) == n:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return write(text)

            fh.write = full_disk
        return fh

    # shadows the builtin for the dataset module alone
    monkeypatch.setattr(dataset, "open", opener, raising=False)


# the start of from_json's message for a regressor_spec it rejects, and one of its reasons
SPEC_RULE = "model field 'regressor_spec' takes null or lags, not "
NOT_INTEGERS = "n_u and n_y must be integers"


def corrupt_model(path, key, index, value):
    """The model JSON at `path` with entry `index` of field `key` (the whole field when
    `index` is None) set to `value`."""
    doc = json.loads(path.read_text())
    if index is None:
        doc[key] = value
    else:
        doc[key][index] = value
    return json.dumps(doc)


class TestConfig:
    def test_file_then_set_overrides(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"net": {"q": 12}}))
        cfg = cli.load_config(str(p), ["net.q=7", "poly.max_terms=11"])
        assert cfg["net"]["q"] == 7
        assert cfg["poly"]["max_terms"] == 11
        # untouched defaults survive
        assert cfg["regressors"]["n_u"] == 5

    def test_set_values_json_parsed(self):
        cfg = cli.load_config(None, ["paths.model=out.json", "net.q=9"])
        assert cfg["paths"]["model"] == "out.json"
        assert cfg["net"]["q"] == 9

    def test_seed_flag_wins(self, tmp_path):
        # `--set seed=` is the one way to override the file's seed
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"seed": 5}))
        assert cli.load_config(str(p), ["seed=99"])["seed"] == 99

    def test_defaults_not_mutated(self):
        before = copy.deepcopy(cli.DEFAULT_CONFIG)
        cfg = cli.load_config(None, ["net.q=12", "init.max_points=7", "seed=7"])
        assert cfg["net"]["q"] == 12 and cfg["init"]["max_points"] == 7 and cfg["seed"] == 7
        assert cli.DEFAULT_CONFIG == before

    @pytest.mark.parametrize(
        "key",
        [
            "train.max_iters",
            "train.lm_lambda0",
            "train.jacobian_mode",
            "nosuch.q",
            "net.q.x",
            "seed.x",
            "datagen.fs",
            "datagen.excitation.type",
            "datagen.excitation.f_min",
            "datagen.validation_excitation.type",
        ],
    )
    def test_set_unknown_or_nested_key_rejected(self, key):
        rc, _, err = run_main(["--set", f"{key}=5", "fit"])
        assert rc == 1
        assert err.startswith("error=") and repr(key) in err

    @pytest.mark.parametrize("command", ["datagen", "fit"])
    def test_negative_seed_rejected_before_any_stage(self, tmp_path, workers, command):
        # numpy's generators take no negative seed: the config is refused before datagen
        # starts a worker or fit builds its regressors
        args = small_datagen_args(tmp_path) if command == "datagen" else small_fit_args(tmp_path)
        before = sorted(tmp_path.iterdir())
        rc, out, err = run_main(args + ["--set", "seed=-1", command])
        assert rc == 1
        assert err == "error=--set 'seed': config key 'seed' takes a non-negative integer, not -1\n"
        assert out == ""
        assert sorted(tmp_path.iterdir()) == before
        assert workers == []

    def test_negative_seed_in_config_file_rejected(self, tmp_path):
        # each source is checked as it is read, the file first: a later --set of a good
        # seed does not repair the file's value
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"seed": -3}))
        for overrides in ([], ["seed=0"]):
            with pytest.raises(ValueError) as refused:
                cli.load_config(str(p), overrides)
            assert str(refused.value) == f"config file {p}: config key 'seed' takes a non-negative integer, not -3"

    def test_set_key_from_config_file(self, tmp_path):
        # a file key the defaults lack is dropped, so --set cannot reach it either
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"net": {"extra": {"depth": 1}}}))
        rc, _, err = run_main(["--config", str(p), "--set", "net.extra.depth=2", "fit"])
        assert rc == 1
        assert "error=" in err and repr("net.extra") in err

    def test_set_object_merges(self):
        cfg = cli.load_config(None, ['init={"n": 4}'])
        default = cli.DEFAULT_CONFIG["init"]
        assert cfg["init"] == {**default, "n": 4}

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"regressors": {"n_u": {"a": 1}}}, "regressors.n_u"),
            ({"datagen": {"excitation": 5}}, "datagen.excitation"),
        ],
    )
    def test_file_object_value_mismatch_rejected(self, tmp_path, doc, key):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        rc, _, err = run_main(["--config", str(p), "fit"])
        assert rc == 1
        assert err.startswith("error=") and repr(key) in err
        assert "Traceback" not in err

    def test_shipped_config_keys_exist_in_defaults(self, capsys):
        def paths(doc, prefix=()):
            for key, value in doc.items():
                if isinstance(value, dict):
                    yield from paths(value, prefix + (key,))
                else:
                    yield prefix + (key,)

        shipped = sorted(configs_dir().glob("*_pipeline.json"))
        assert shipped
        for config in shipped:
            doc = json.loads(config.read_text())
            doc.pop("_comment", None)
            for path in paths(doc):
                node = cli.DEFAULT_CONFIG
                for key in path:
                    assert isinstance(node, dict) and key in node, (config.name, ".".join(path))
                    node = node[key]
            cli.load_config(str(config), [])
            assert capsys.readouterr().err == "", config.name

    @pytest.mark.parametrize(
        "doc, unknown",
        [
            (
                {"train": {"max_iters": 5, "jacobian_mode": "kaufman"}},
                ["train.max_iters", "train.jacobian_mode"],
            ),
            ({"nosuch": {"a": 1}, "net": {"q": 8, "extra": 1}}, ["nosuch", "net.extra"]),
            # comments are not checked; the excitation's keys are
            (
                {
                    "_comment": "x",
                    "net": {"_note": "y"},
                    "datagen": {
                        "excitation": {"type": "swept_sine", "f_min": 1.0},
                        "validation_excitation": {"type": "zero"},
                    },
                },
                [
                    "datagen.excitation.type",
                    "datagen.excitation.f_min",
                    "datagen.validation_excitation",
                ],
            ),
        ],
    )
    def test_unknown_file_keys_warn(self, tmp_path, doc, unknown):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        with pytest.warns(UserWarning) as caught:
            cfg = cli.load_config(str(p), [])
        assert [str(w.message) for w in caught] == [f"unknown config key {key}" for key in unknown]
        assert cfg["train"]["max_iter"] == cli.DEFAULT_CONFIG["train"]["max_iter"]
        # main prints each as a warning= line, before the command's error line
        absent = tmp_path / "absent.json"
        rc, out, err = run_main(["--config", str(p), "--set", f"paths.model={absent}", "regions"])
        assert rc == 2 and out == ""
        assert err.splitlines() == [f"warning=unknown config key {key}" for key in unknown] + [
            f"error=missing_file path={absent}"
        ]

    def test_unknown_file_keys_dropped(self, tmp_path):
        def tree(doc):
            return {k: tree(v) for k, v in doc.items()} if isinstance(doc, dict) else None

        p = tmp_path / "c.json"
        doc = {"_comment": "x", "nosuch": {"a": 1}, "net": {"q": 9, "extra": {"depth": 1}}}
        p.write_text(json.dumps(doc))
        with pytest.warns(UserWarning, match="unknown config key"):
            cfg = cli.load_config(str(p), [])
        assert tree(cfg) == tree(cli.DEFAULT_CONFIG)
        assert cfg["net"]["q"] == 9

    @pytest.mark.parametrize("doc", [[1, 2], 3, "fit", None])
    def test_config_file_not_an_object_rejected(self, tmp_path, doc):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        rc, _, err = run_main(["--config", str(p), "fit"])
        assert rc == 1
        assert err.startswith("error=") and "JSON object" in err

    @pytest.mark.parametrize(
        "setting, value",
        [
            ("datagen.excitation.amplitude_rms=90", 90),
            ("datagen.excitation.amplitude_rms=90.5", 90.5),
            ("net.q=9", 9),
            ("paths.model=out.json", "out.json"),
            ("init.max_points=null", None),
        ],
    )
    def test_set_value_of_default_type_accepted(self, setting, value):
        *sections, name = setting.partition("=")[0].split(".")
        node = cli.load_config(None, [setting])
        for part in sections:
            node = node[part]
        assert node[name] == value

    @pytest.mark.parametrize(
        "setting, takes",
        [
            ("net.q=[8]", "an integer"),
            ("net.q=8.0", "an integer"),
            ("net.q=true", "an integer"),
            ("seed=null", "an integer"),
            ("datagen.excitation.amplitude_rms=false", "a number"),
            ("datagen.excitation.amplitude_rms=loud", "a number"),
            ("paths.model=5", "a string"),
            ("init.max_points=2.5", "an integer or null"),
            ("datagen.excitation.amplitude_rms=NaN", "a number"),
            ("datagen.excitation.amplitude_rms=Infinity", "a number"),
            # a JSON integer beyond the double range
            pytest.param(
                f"datagen.excitation.amplitude_rms={10**400}", "a number", id="amplitude_rms=401-digits"
            ),
            pytest.param(f"datagen.train_samples={10**400}", "an integer", id="train_samples=401-digits"),
        ],
    )
    def test_set_value_of_wrong_type_rejected(self, setting, takes):
        key = setting.partition("=")[0]
        with pytest.raises(ValueError, match=f"--set '{key}': config key '{key}' takes {takes}"):
            cli.load_config(None, [setting])

    def test_file_value_of_wrong_type_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"train": {"max_iter": "100"}}))
        with pytest.raises(ValueError, match=f"config file {p}: config key 'train.max_iter'"):
            cli.load_config(str(p), [])
        # a number in the file stays a number when --set gives a float for it
        p.write_text(json.dumps({"datagen": {"excitation": {"amplitude_rms": 90}}}))
        cfg = cli.load_config(str(p), ["datagen.excitation.amplitude_rms=90.5"])
        assert cfg["datagen"]["excitation"]["amplitude_rms"] == 90.5

    def test_long_rejected_value_cut(self):
        # a Python with the digit limit reads the value as a string, one without as an int
        rc, out, err = run_main(["--set", "datagen.train_samples=" + "9" * 5001, "datagen"])
        assert rc == 1 and out == ""
        assert len(err.splitlines()) == 1 and len(err) < 200
        assert err.startswith("error=--set 'datagen.train_samples': config key 'datagen.train_samples'")
        assert err.rstrip().endswith("characters)")

    def test_malformed_override_rejected(self):
        with pytest.raises(ValueError):
            cli.load_config(None, ["no_equals_sign"])

    def test_missing_config_file_exit_code(self):
        rc, _, err = run_main(["--config", "/nonexistent/cfg.json", "fit"])
        assert rc == 2
        assert "missing_file" in err

    def test_config_directory_exit_code(self, tmp_path):
        rc, out, err = run_main(["--config", str(tmp_path), "fit"])
        assert rc == 2 and out == ""
        assert err == f"error=os_error path={tmp_path} reason=Is a directory\n"


# (config, params or model file bytes, --set value) for a cut-off document, an integer
# over Python's 4,300-digit limit on int(str), which json.loads enforces, arrays nested
# too deep for the parser's recursion, and a byte that is not UTF-8 (which reaches a
# --set value as a lone surrogate)
DEEP = "[" * 100_000 + "]" * 100_000
UNREADABLE = {
    "truncated": (b'{"seed": 2,\n', "[4096"),
    "5001-digit-integer": (b'{"seed": ' + b"9" * 5001 + b"}", "9" * 5001),
    "deeply-nested": (('{"seed": ' + DEEP + "}").encode(), DEEP),
    "not-utf-8": (b'{"seed": \xff}', "\udcff"),
}


@pytest.mark.parametrize("defect", list(UNREADABLE))
@pytest.mark.parametrize("source", ["config", "set", "params", "model-eval", "model-regions"])
def test_unreadable_input_names_its_source(tmp_path, source, defect):
    text, value = UNREADABLE[defect]
    path = tmp_path / "input.json"
    path.write_bytes(text)
    argv = ["--set", f"paths.train={tmp_path / 'train.csv'}",
            "--set", f"paths.validation={tmp_path / 'validation.csv'}"]
    # a Python built without the digit limit parses the integer, and the number rule
    # rejects it, so only the naming of the file or key is checked
    argv, named = {
        "config": (["--config", str(path)] + argv + ["datagen"], f"config file {path}"),
        "set": (argv + ["--set", f"datagen.train_samples={value}", "datagen"],
                "--set 'datagen.train_samples': "),
        "params": (argv + ["--set", f"datagen.params_file={path}", "datagen"], f"params file {path}"),
        "model-eval": (argv + ["--set", f"paths.model={path}", "eval"], f"model file {path}: "),
        "model-regions": (argv + ["--set", f"paths.model={path}", "regions",
                                  "--output", str(tmp_path / "regions.jsonl")], f"model file {path}: "),
    }[source]
    rc, out, err = run_main(argv)
    assert rc == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error={named}")
    # nothing was written
    assert list(tmp_path.iterdir()) == [path]


class TestStageClock:
    def test_a_stage_that_ends_gives_back_the_one_it_interrupted(self):
        clock = cli.StageClock()
        with clock("outer"):
            with clock("inner"):
                assert clock.stage == "inner"
            assert clock.stage == "outer"
        assert clock.stage is None

    def test_an_error_leaves_the_stage_it_escaped_from(self):
        clock = cli.StageClock()
        with pytest.raises(ValueError, match="inner failed"):
            with clock("outer"):
                with clock("inner"):
                    raise ValueError("inner failed")
        assert clock.stage == "inner"
        # a stage run while the error is handled gives the failed stage back
        with pytest.raises(ValueError, match="excitation failed"):
            try:
                with clock("excitation"):
                    raise ValueError("excitation failed")
            except ValueError:
                with clock("simulation"):
                    pass
                raise
        assert clock.stage == "excitation"

    def test_seconds_add_up_and_warnings_stay_with_their_stage(self, monkeypatch):
        ticks = iter([0.0, 1.0, 10.0, 10.25, 20.0, 22.5])
        monkeypatch.setattr(time, "perf_counter", lambda: next(ticks))
        clock = cli.StageClock()
        with clock("a"):
            warnings.warn("one")
        with clock("b"):
            warnings.warn("two")
        with clock("a"):
            warnings.warn("three")
        assert clock.seconds == {"a": 3.5, "b": 0.25}
        assert set(clock.peak_rss_mb) == {"a", "b"}
        assert clock.warnings == [
            {"stage": "a", "message": "one"},
            {"stage": "b", "message": "two"},
            {"stage": "a", "message": "three"},
        ]


class TestDatagen:
    def test_outputs(self, desk_pipeline):
        kv = desk_pipeline["datagen"]
        assert "train.csv" in kv["train"]
        assert kv["train"].endswith("rows=4096")
        train = load_csv(desk_pipeline["train_csv"])
        val = load_csv(desk_pipeline["validation_csv"])
        assert len(train) == 4096
        assert len(val) == 1024
        assert np.all(np.isfinite(train.u)) and np.all(np.isfinite(train.y))

    def test_stage_times_reported(self, desk_pipeline):
        kv = desk_pipeline["datagen"]
        # both records, each with its settling samples, at SIM_RATE_HZ
        n_out = 4096 + 1024 + 2 * boucwen.SETTLE_SAMPLES
        assert int(kv["simulation_steps"]) == n_out * boucwen.DECIMATION
        for name in ["excitation", "simulation", "decimation", "persist"]:
            assert float(kv[f"stage_{name}_s"]) >= 0.0

    def test_metadata_sidecar(self, desk_pipeline):
        meta = json.loads(
            (desk_pipeline["work"] / "train.csv.meta.json").read_text()
        )
        assert meta["seed"] == 2 and meta["validation_seed"] == 3
        assert meta["fs_simulation"] == boucwen.SIM_RATE_HZ == 15000.0
        assert meta["fs_output"] == 750.0
        assert meta["decimation"] == boucwen.DECIMATION
        assert meta["settle_samples"] == boucwen.SETTLE_SAMPLES
        assert meta["excitation"] == {
            "signal": "random-phase multisine",
            "f_min": 5.0,
            "f_max": 150.0,
            "amplitude_rms": 120.0,
        }

    def test_metadata_sidecar_states_the_recipe(self, desk_pipeline):
        # the sidecar is the seeds, the params file and boucwen's one statement of the recipe
        meta = json.loads((desk_pipeline["work"] / "train.csv.meta.json").read_text())
        assert meta == {
            "seed": 2,
            "validation_seed": 3,
            "params_file": str(configs_dir() / "desk_boucwen.json"),
            **boucwen.recipe(120.0),
        }

    def test_writes_the_library_records(self, desk_pipeline, tmp_path):
        # datagen's records are those of one-record `boucwen.records` calls: train at
        # the config's seed, validation at seed + 1, written bit for bit
        params = boucwen.load_params(configs_dir() / "desk_boucwen.json")
        for n_samples, seed, written in ((4096, 2, "train_csv"), (1024, 3, "validation_csv")):
            save_csv(tmp_path / "record.csv", boucwen.records(params, 120.0, (n_samples,), seed)[0])
            assert (tmp_path / "record.csv").read_bytes() == desk_pipeline[written].read_bytes()

    def test_deterministic_rerun(self, desk_pipeline, tmp_path):
        rc, out = desk_pipeline["run"]("datagen")
        assert rc == 0
        # rerun overwrote the same paths with identical bytes, so the model
        # inputs used by fit are reproducible
        paths = [desk_pipeline["train_csv"], desk_pipeline["validation_csv"], desk_pipeline["work"] / "train.csv.meta.json"]
        first = [path.read_bytes() for path in paths]
        rc, _ = desk_pipeline["run"]("datagen")
        assert rc == 0
        assert [path.read_bytes() for path in paths] == first

    def test_unknown_excitation_type_exit_code(self, tmp_path):
        rc, _, err = run_main(
            [
                "--config",
                str(cli_config_path()),
                "--set",
                f"datagen.params_file={configs_dir() / 'desk_boucwen.json'}",
                "--set",
                f"paths.train={tmp_path / 't.csv'}",
                "--set",
                f"paths.validation={tmp_path / 'v.csv'}",
                "--set",
                "datagen.excitation.type=square",
                "datagen",
            ]
        )
        assert rc == 1
        assert err.startswith("error=") and "'datagen.excitation.type'" in err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("train_samples", -128),
            ("train_samples", 0),
            ("validation_samples", -128),
            ("validation_samples", -200),
        ],
    )
    def test_non_positive_sample_count_exit_code(self, tmp_path, key, value):
        # rejected before any simulation; -128 samples would simulate none
        rc, out, err = run_main(
            [
                "--set",
                f"datagen.params_file={configs_dir() / 'desk_boucwen.json'}",
                "--set",
                f"paths.train={tmp_path / 't.csv'}",
                "--set",
                f"paths.validation={tmp_path / 'v.csv'}",
                "--set",
                f"datagen.{key}={value}",
                "datagen",
            ]
        )
        assert rc == 1
        assert err == f"error=datagen.{key} must be >= 1, not {value}\n"
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value, shown", [("0", "0"), ("-120", "-120")])
    def test_non_positive_amplitude_exit_code(self, tmp_path, value, shown):
        rc, out, err = run_main(
            small_datagen_args(tmp_path)
            + ["--set", f"datagen.excitation.amplitude_rms={value}", "datagen"]
        )
        assert rc == 1
        assert err == f"error=stage:excitation detail=amplitude_rms must be > 0, not {shown}\n"
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_missing_output_directory_names_its_stage(self, tmp_path):
        train = tmp_path / "nodir" / "t.csv"
        rc, out, err = run_main(
            small_datagen_args(tmp_path) + ["--set", f"paths.train={train}", "datagen"]
        )
        assert rc == 2
        assert err == f"error=stage:persist missing_file={train}\n"
        assert out == ""

    def test_missing_validation_directory_leaves_no_record(self, tmp_path):
        val = tmp_path / "nodir" / "v.csv"
        rc, out, err = run_main(
            small_datagen_args(tmp_path) + ["--set", f"paths.validation={val}", "datagen"]
        )
        assert rc == 2
        assert err == f"error=stage:persist missing_file={val}\n"
        assert out == ""
        # neither the training record nor its meta sidecar is left behind
        assert list(tmp_path.iterdir()) == []

    def test_validation_record_on_the_training_record_rejected(self, tmp_path):
        train = tmp_path / "t.csv"
        train.write_text("kept\n")
        rc, out, err = run_main(
            small_datagen_args(tmp_path) + ["--set", f"paths.validation={train}", "datagen"]
        )
        assert rc == 1
        assert err == f"error=paths.validation {train} is the same file as paths.train {train}\n"
        assert out == ""
        assert train.read_text() == "kept\n"
        assert list(tmp_path.iterdir()) == [train]

    def test_failed_write_keeps_a_fifo_record(self, tmp_path):
        # the training record went to a pipe: the failed validation write does not remove it
        train, val = tmp_path / "t.fifo", tmp_path / "nodir" / "v.csv"
        os.mkfifo(train)
        reader = os.open(train, os.O_RDONLY | os.O_NONBLOCK)
        try:
            rc, _, err = run_main(
                small_datagen_args(tmp_path)
                + ["--set", f"paths.train={train}", "--set", f"paths.validation={val}", "datagen"]
            )
        finally:
            os.close(reader)
        assert rc == 2
        assert err == f"error=stage:persist missing_file={val}\n"
        assert stat.S_ISFIFO(os.stat(train).st_mode)

    def test_failed_write_keeps_a_symlinked_record(self, tmp_path):
        # the training record went through a symlink: the failed validation write
        # leaves the link, and the file it points to, in place
        target, train, val = tmp_path / "target.csv", tmp_path / "t.csv", tmp_path / "nodir" / "v.csv"
        target.touch()
        train.symlink_to(target)
        rc, _, err = run_main(
            small_datagen_args(tmp_path)
            + ["--set", f"paths.train={train}", "--set", f"paths.validation={val}", "datagen"]
        )
        assert rc == 2
        assert err == f"error=stage:persist missing_file={val}\n"
        assert train.is_symlink() and target.is_file()

    @pytest.mark.parametrize("name", ["t.csv", "v.csv", "t.csv.meta.json"])
    def test_full_disk_leaves_no_record(self, tmp_path, monkeypatch, name):
        # the 10th write of a record or of the meta sidecar fails: the partial file goes,
        # and so do the files written before it
        failing = tmp_path / name
        full_disk_on_write(monkeypatch, failing, 10)
        rc, out, err = run_main(small_datagen_args(tmp_path) + ["datagen"])
        assert rc == 2
        assert err == f"error=stage:persist os_error={failing} reason={os.strerror(errno.ENOSPC)}\n"
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_failing_simulation_leaves_no_record_and_no_worker(self, tmp_path, workers):
        # both records fail; the training record's error is the one reported, as when
        # datagen made it first
        params = boucwen.load_params(configs_dir() / "desk_boucwen.json")
        with pytest.raises(boucwen.IntegrationError, match="did not converge at step 2$"):
            boucwen.records(params, 1e6, (1024,), 3)
        rc, out, err = run_main(
            desk_datagen_args(tmp_path) + ["--set", "datagen.excitation.amplitude_rms=1e6", "datagen"]
        )
        assert rc == 1
        assert err == "error=stage:simulation detail=Newton iteration did not converge at step 97\n"
        assert out == ""
        assert list(tmp_path.iterdir()) == []
        assert len(workers) == 1
        assert_reaped(workers)

    def test_failing_validation_record_reaps_the_worker(self, tmp_path, monkeypatch, workers):
        # only the in-process simulation, the validation record's, fails
        def diverge(*args):
            raise boucwen.IntegrationError("simulation diverged at step 5")

        monkeypatch.setattr(boucwen, "simulate", diverge)
        rc, out, err = run_main(small_datagen_args(tmp_path) + ["datagen"])
        assert rc == 1
        assert err == "error=stage:simulation detail=simulation diverged at step 5\n"
        assert out == ""
        assert list(tmp_path.iterdir()) == []
        # the training record's simulation ran to its end and was waited for
        assert [proc.returncode for proc in workers] == [0]
        assert_reaped(workers)

    @pytest.mark.parametrize(
        "amplitude, shown",
        [
            ("120", "error=stage:excitation detail=no excitation at seed 3"),
            ("1e6", "error=stage:simulation detail=Newton iteration did not converge at step 97"),
        ],
    )
    def test_validation_excitation_error_keeps_its_stage(self, tmp_path, monkeypatch, workers, amplitude, shown):
        # the validation record (seed 3) fails in its excitation while the worker runs:
        # its own stage is named, unless the training record failed too
        multisine = boucwen.multisine

        def no_validation_excitation(*args, seed):
            if seed == 3:
                raise ValueError(f"no excitation at seed {seed}")
            return multisine(*args, seed=seed)

        monkeypatch.setattr(boucwen, "multisine", no_validation_excitation)
        rc, out, err = run_main(
            desk_datagen_args(tmp_path) + ["--set", f"datagen.excitation.amplitude_rms={amplitude}", "datagen"]
        )
        assert rc == 1
        assert err == shown + "\n"
        assert out == ""
        assert list(tmp_path.iterdir()) == []
        assert_reaped(workers)

    def test_failed_worker_folds_its_stderr_into_the_error(self, tmp_path, monkeypatch, workers, capfd):
        script = "import sys; print('one', file=sys.stderr); sys.exit('MemoryError: two')"
        monkeypatch.setattr(boucwen, "WORKER", (sys.executable, "-c", script))
        rc, out, err = run_main(small_datagen_args(tmp_path) + ["datagen"])
        assert rc == 1
        assert err == "error=stage:simulation detail=simulation worker exited with status 1: MemoryError: two\n"
        assert out == ""
        assert capfd.readouterr().err == ""
        assert list(tmp_path.iterdir()) == []
        assert_reaped(workers)

    def test_interrupt_kills_and_reaps_the_worker(self, tmp_path, monkeypatch, workers):
        def interrupt(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(boucwen, "simulate", interrupt)
        with pytest.raises(KeyboardInterrupt):
            run_main(desk_datagen_args(tmp_path) + ["datagen"])
        assert list(tmp_path.iterdir()) == []
        assert len(workers) == 1
        assert_reaped(workers)

    def test_wrong_type_value_exit_code(self, tmp_path):
        rc, _, err = run_main(
            [
                "--set",
                f"datagen.params_file={configs_dir() / 'desk_boucwen.json'}",
                "--set",
                f"paths.train={tmp_path / 't.csv'}",
                "--set",
                "datagen.train_samples=[1]",
                "datagen",
            ]
        )
        assert rc == 1
        assert err.startswith("error=") and "Traceback" not in err
        assert not (tmp_path / "t.csv").exists()

    def test_params_file_missing_keys_exit_code(self, tmp_path):
        doc = json.loads((configs_dir() / "desk_boucwen.json").read_text())
        del doc["gamma"], doc["nu"]
        params = tmp_path / "params.json"
        params.write_text(json.dumps(doc))
        rc, _, err = run_main(
            [
                "--set",
                f"datagen.params_file={params}",
                "--set",
                f"paths.train={tmp_path / 't.csv'}",
                "--set",
                f"paths.validation={tmp_path / 'v.csv'}",
                "datagen",
            ]
        )
        assert rc == 1
        assert err.startswith("error=") and "gamma, nu" in err
        assert not (tmp_path / "t.csv").exists()


def small_fit_args(tmp_path, zero_target=False):
    """Arguments of a fast `fit` on a 300-sample record of a small NARX system."""
    u = np.random.default_rng(11).normal(size=300)
    y = np.zeros(300)
    if not zero_target:
        for t in range(2, 300):
            y[t] = 0.5 * y[t - 1] + u[t] - 0.3 * u[t - 1] ** 2 + 0.1 * u[t - 2] ** 3
    save_csv(tmp_path / "train.csv", TimeSeriesData(u=u, y=y))
    settings = {
        "paths.train": tmp_path / "train.csv",
        "paths.model": tmp_path / "model.json",
        "paths.report": tmp_path / "report.json",
        "regressors.n_u": 2,
        "regressors.n_y": 1,
        "init.n": 2,
        "net.q": 3,
        "train.max_iter": 5,
    }
    args = []
    for key, value in settings.items():
        args += ["--set", f"{key}={value}"]
    return args


def small_datagen_args(tmp_path):
    """Arguments of a fast `datagen` of two 64-sample records into `tmp_path`."""
    settings = {
        "datagen.params_file": configs_dir() / "desk_boucwen.json",
        "datagen.train_samples": 64,
        "datagen.validation_samples": 64,
        "paths.train": tmp_path / "t.csv",
        "paths.validation": tmp_path / "v.csv",
    }
    return [arg for key, value in settings.items() for arg in ("--set", f"{key}={value}")]


def desk_datagen_args(tmp_path):
    """Arguments of `datagen` on the desk config, writing its records into `tmp_path`."""
    settings = {
        "datagen.params_file": configs_dir() / "desk_boucwen.json",
        "paths.train": tmp_path / "t.csv",
        "paths.validation": tmp_path / "v.csv",
    }
    args = [arg for key, value in settings.items() for arg in ("--set", f"{key}={value}")]
    return ["--config", str(cli_config_path())] + args


def configs_dir():
    from conftest import CONFIGS

    return CONFIGS


def cli_config_path():
    return configs_dir() / "desk_pipeline.json"


class TestFit:
    def test_reports_parameter_count(self, desk_pipeline):
        kv = desk_pipeline["fit"]
        net = UReluNet.from_json(desk_pipeline["model"].read_text())
        # m = n_u + n_y + 1 = 10, n = 3, q = 8
        assert int(kv["parameters"]) == param_count(net) == 10 * 3 + 3 * 8 + 1

    def test_report_files_written(self, desk_pipeline):
        report = json.loads(desk_pipeline["report"].read_text())
        assert report["accepted"] >= 1
        # the LM record is the start plus one entry per accepted step, in report.json only
        assert len(report["residual_history"]) == report["accepted"] + 1
        assert list(desk_pipeline["work"].glob("*.history.csv")) == []

    def test_report_holds_every_train_report_field(self, desk_pipeline):
        kv = desk_pipeline["fit"]
        report = json.loads(desk_pipeline["report"].read_text())
        assert {f.name for f in dataclasses.fields(TrainReport)} <= set(report)
        assert report["iterations"] == int(kv["iterations"])
        assert report["status"] == kv["status"]
        assert report["accepted"] == int(kv["accepted_steps"])
        assert report["basis_rank"] == int(kv["basis_rank"])
        assert report["warnings"] == []

    def test_training_reduced_residual(self, desk_pipeline):
        report = json.loads(desk_pipeline["report"].read_text())
        hist = report["residual_history"]
        assert hist[-1] < hist[0]
        assert all(b < a for a, b in zip(hist, hist[1:]))

    def test_frols_err_trail_reported(self, desk_pipeline):
        kv = desk_pipeline["fit"]
        report = json.loads(desk_pipeline["report"].read_text())
        assert len(report["frols_err"]) == int(kv["selected_terms"])
        assert sum(report["frols_err"]) == pytest.approx(
            1.0 - float(kv["frols_esr"]), abs=1e-9
        )
        assert {"iterations", "residual_history", "final_rmse_db", "accepted"} <= set(report)

    def test_cpd_status_reported(self, desk_pipeline):
        kv = desk_pipeline["fit"]
        cpd = json.loads(desk_pipeline["report"].read_text())["cpd"]
        assert kv["cpd_status"] == cpd["status"]
        assert int(kv["cpd_iterations"]) == cpd["iterations"]
        assert float(kv["cpd_rel_error"]) == cpd["rel_error"]
        # the desk restarts reach the cap of 500 before the error change drops below tol
        assert cpd == {
            "status": "max_iter",
            "iterations": 500,
            "rel_error": cpd["rel_error"],
            "restart_errors": cpd["restart_errors"],
        }
        assert 0.0 < cpd["rel_error"] < 1.0

    def test_report_is_strict_json(self, desk_pipeline):
        # no NaN or Infinity anywhere; each CPD restart error is a finite number, or
        # null for a failed restart, and the kept error is finite
        def refuse(name):
            raise ValueError(f"{name} in the report")

        cpd = json.loads(desk_pipeline["report"].read_text(), parse_constant=refuse)["cpd"]
        finite = lambda e: isinstance(e, (int, float)) and not isinstance(e, bool) and math.isfinite(e)
        assert cpd["restart_errors"] and all(e is None or finite(e) for e in cpd["restart_errors"])
        assert finite(cpd["rel_error"])

    def test_model_holds_the_training_output_range(self, desk_pipeline):
        net = UReluNet.from_json(desk_pipeline["model"].read_text())
        ds = build_regressors(load_csv(desk_pipeline["train_csv"]), net.regressor_spec)
        assert net.y_range == (ds.y.min(), ds.y.max())
        assert json.loads(desk_pipeline["model"].read_text())["y_range"] == list(net.y_range)

    def test_basis_and_conditioning_reported(self, desk_pipeline):
        kv = desk_pipeline["fit"]
        report = json.loads(desk_pipeline["report"].read_text())
        net = UReluNet.from_json(desk_pipeline["model"].read_text())
        # [1, B] at the final V, from its singular values
        ds = build_regressors(load_csv(desk_pipeline["train_csv"]), net.regressor_spec)
        X = transform(ds.U, net.V)
        Btil = np.column_stack([np.ones(ds.n_samples), build_B(X, bias_grid(X, net.q))])
        sv = np.linalg.svd(Btil, compute_uv=False)
        assert int(kv["basis_rank"]) == report["basis_rank"] == np.count_nonzero(sv > 1e-10 * sv[0])
        assert report["basis_cond"] == pytest.approx(sv[0] / sv[-1], rel=1e-6)
        assert float(kv["basis_cond"]) == pytest.approx(report["basis_cond"], rel=1e-6)
        # the same condition numbers as eval's, on the training record
        cond_u, cond_x = cond_diagnostics(ds.U, X)
        assert report["cond_u"] == cond_u and report["cond_x"] == cond_x
        assert float(kv["cond_u"]) == pytest.approx(cond_u, rel=1e-6)
        assert float(kv["cond_x"]) == pytest.approx(cond_x, rel=1e-6)

    def test_every_cpd_restart_reported(self, tmp_path):
        # the record's Hessians span two directions, so no rank-1 restart reaches tol
        extra = ["--set", "init.n=1", "--set", "init.cpd_restarts=3"]
        rc, out, err = run_main(small_fit_args(tmp_path) + extra + ["fit"])
        assert rc == 0, err
        kv = parse_kv(out)
        errors = json.loads((tmp_path / "report.json").read_text())["cpd"]["restart_errors"]
        assert json.loads(kv["cpd_restart_errors"]) == errors
        assert len(errors) == 3 and all(e is not None for e in errors)
        assert float(kv["cpd_rel_error"]) == min(errors)

    def test_failed_cpd_restart_reported_as_null(self, tmp_path, monkeypatch):
        # restart 0 draws its start from default_rng(seed) with the config's seed 0; an
        # all-NaN start fails it, and the fit goes on from the best of the other two
        args = small_fit_args(tmp_path) + ["--set", "init.n=1", "--set", "init.cpd_restarts=3"]
        make_restart_singular(monkeypatch, 0)
        rc, out, err = run_main(args + ["fit"])
        assert rc == 0, err
        kv = parse_kv(out)
        assert kv["cpd_restart_errors"].startswith("[null,")
        errors = json.loads((tmp_path / "report.json").read_text())["cpd"]["restart_errors"]
        assert json.loads(kv["cpd_restart_errors"]) == errors
        assert len(errors) == 3 and errors[0] is None
        assert all(math.isfinite(e) for e in errors[1:])
        assert float(kv["cpd_rel_error"]) == min(errors[1:])

    @pytest.mark.parametrize("value", [-5, 0])
    def test_non_positive_max_points_exit_code(self, tmp_path, value):
        rc, out, err = run_main(small_fit_args(tmp_path) + ["--set", f"init.max_points={value}", "fit"])
        assert rc == 1
        assert err == f"error=stage:initialization detail=init.max_points must be >= 1 or null, not {value}\n"
        assert "model=" not in out
        assert not (tmp_path / "model.json").exists()

    def test_numeric_environment_reported(self, tmp_path, monkeypatch):
        # a fit's bits depend on the BLAS and on its thread count, so the report names both
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        rc, out, err = run_main(small_fit_args(tmp_path) + ["fit"])
        assert rc == 0, err
        env = json.loads((tmp_path / "report.json").read_text())["numeric_environment"]
        assert env == cli.numeric_environment()
        assert env["threads_requested_by_environment"] == {"OPENBLAS_NUM_THREADS": "1"}
        assert set(env["blas"]) == {"name", "version"}
        if np.lib.NumpyVersion(np.__version__) >= "2.0.0":
            assert isinstance(env["blas"]["name"], str) and isinstance(env["blas"]["version"], str)
        # report.json only: fit prints no line for it
        assert not any(key.startswith(("numeric", "blas")) for key in parse_kv(out))
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        assert cli.numeric_environment()["threads_requested_by_environment"] is None
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        assert cli.numeric_environment()["threads_requested_by_environment"] == {"OMP_NUM_THREADS": "2"}

    def test_stage_times_reported(self, tmp_path):
        start = time.perf_counter()
        rc, out, err = run_main(small_fit_args(tmp_path) + ["fit"])
        wall = time.perf_counter() - start
        assert rc == 0, err
        kv = parse_kv(out)
        stages = ["load", "regressors", "polynomial", "initialization", "training"]
        report = json.loads((tmp_path / "report.json").read_text())
        stage_s, peak_mb = report["stage_s"], report["stage_peak_rss_mb"]
        assert sorted(stage_s) == sorted(stages)
        for name in stages:
            assert stage_s[name] >= 0.0
            assert float(kv[f"stage_{name}_s"]) == pytest.approx(stage_s[name], abs=1e-6)
        assert sum(stage_s.values()) <= wall
        # each stage's figure is the process high-water mark when it ended
        assert sorted(peak_mb) == sorted(stages)
        marks = [peak_mb[name] for name in stages]
        assert 0 < marks[0] and all(a <= b for a, b in zip(marks, marks[1:]))
        assert marks[-1] <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        for name in stages:
            assert float(kv[f"stage_{name}_peak_rss_mb"]) == pytest.approx(peak_mb[name], abs=0.05)
        # persist writes the report, so only stdout carries its figures
        assert sum(stage_s.values()) + float(kv["stage_persist_s"]) <= wall
        peak_now = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        # printed to 0.1 MB
        assert marks[-1] - 0.05 <= float(kv["stage_persist_peak_rss_mb"]) <= peak_now + 0.05

    def test_library_warning_reported(self, tmp_path, monkeypatch):
        message = "2 candidate columns numerically zero after orthogonalization; skipped"
        frols_select = polyfit.frols_select

        def warning_frols(*args, **kwargs):
            warnings.warn(message)
            return frols_select(*args, **kwargs)

        monkeypatch.setattr(polyfit, "frols_select", warning_frols)
        rc, out, err = run_main(small_fit_args(tmp_path) + ["fit"])
        assert rc == 0, err
        assert err == f"warning=stage:polynomial detail={message}\n"
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["warnings"] == [{"stage": "polynomial", "message": message}]

    def test_zero_target_esr_undefined(self, tmp_path):
        # FROLS's error reduction ratios are 0/0 when y is identically zero
        rc, out, err = run_main(small_fit_args(tmp_path, zero_target=True) + ["fit"])
        assert rc == 0, err
        assert parse_kv(out)["frols_esr"] == "undefined"
        assert json.loads((tmp_path / "report.json").read_text())["frols_err"] == []

    def test_wrong_type_value_exit_code(self, tmp_path):
        # the type check at load time stops the run before FROLS
        rc, out, err = run_main(small_fit_args(tmp_path) + ["--set", "net.q=[8]", "fit"])
        assert rc == 1
        assert err.startswith("error=--set 'net.q'") and "Traceback" not in err
        assert "model=" not in out
        assert not (tmp_path / "model.json").exists()
        assert not (tmp_path / "report.json").exists()

    def test_no_cpd_restarts_exit_code(self, tmp_path):
        rc, out, err = run_main(small_fit_args(tmp_path) + ["--set", "init.cpd_restarts=0", "fit"])
        assert rc == 1
        assert err.startswith("error=stage:initialization detail=n_restarts must be >= 1")
        assert "model=" not in out
        assert not (tmp_path / "model.json").exists()

    def test_all_zero_record_leaves_no_model(self, tmp_path):
        # an all-zero record is rejected with its regressors, before any training
        args = small_fit_args(tmp_path)
        save_csv(tmp_path / "train.csv", TimeSeriesData(u=np.zeros(300), y=np.zeros(300)))
        rc, out, err = run_main(args + ["fit"])
        assert rc == 1
        assert err.startswith("error=stage:regressors detail=") and err.count("\n") == 1
        assert out == ""
        assert not (tmp_path / "model.json").exists()
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("name", ["model.json", "report.json"])
    def test_full_disk_leaves_no_model_or_report(self, tmp_path, monkeypatch, name):
        # the write of the model or of the report fails: the partial file goes, and a
        # failed report takes the model written before it along
        args = small_fit_args(tmp_path)
        failing = tmp_path / name
        full_disk_on_write(monkeypatch, failing, 1)
        rc, out, err = run_main(args + ["fit"])
        assert rc == 2
        assert err == f"error=stage:persist os_error={failing} reason={os.strerror(errno.ENOSPC)}\n"
        assert out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["train.csv"]

    def test_model_failing_at_its_flush_leaves_no_report(self, tmp_path, monkeypatch):
        # a full disk that shows only when the model's buffer is flushed: the report,
        # which is written inside the model's write, is never opened
        model = tmp_path / "model.json"

        def opener(file, *args, **kwargs):
            fh = open(file, *args, **kwargs)
            if Path(file) == model:
                def full_disk():
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

                fh.flush = full_disk
            return fh

        monkeypatch.setattr(dataset, "open", opener, raising=False)
        rc, out, err = run_main(small_fit_args(tmp_path) + ["fit"])
        assert rc == 2
        assert err == f"error=stage:persist os_error={model} reason={os.strerror(errno.ENOSPC)}\n"
        assert out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["train.csv"]

    def test_unwritable_report_leaves_no_model(self, tmp_path):
        rc, out, err = run_main(small_fit_args(tmp_path) + ["--set", f"paths.report={tmp_path}", "fit"])
        assert rc == 2 and out == ""
        assert err == f"error=stage:persist os_error={tmp_path} reason=Is a directory\n"
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("key", ["model", "report"])
    def test_output_on_the_training_record_rejected(self, tmp_path, key):
        train = tmp_path / "train.csv"
        args = small_fit_args(tmp_path) + ["--set", f"paths.{key}={train}", "fit"]
        kept = train.read_bytes()
        rc, out, err = run_main(args)
        assert rc == 1
        assert err == f"error=paths.{key} {train} is the same file as paths.train {train}\n"
        assert out == ""
        assert train.read_bytes() == kept
        assert list(tmp_path.iterdir()) == [train]

    def test_report_on_the_model_rejected(self, tmp_path):
        model = tmp_path / "model.json"
        rc, _, err = run_main(small_fit_args(tmp_path) + ["--set", f"paths.report={model}", "fit"])
        assert rc == 1
        assert err == f"error=paths.report {model} is the same file as paths.model {model}\n"
        assert not model.exists()

    def test_outputs_to_dev_null_accepted(self, tmp_path):
        settings = [f"paths.model={os.devnull}", f"paths.report={os.devnull}"]
        rc, out, _ = run_main(small_fit_args(tmp_path) + [a for s in settings for a in ("--set", s)] + ["fit"])
        assert rc == 0
        assert parse_kv(out)["model"] == os.devnull

    def test_missing_train_file_exit_code(self, tmp_path):
        rc, _, err = run_main(
            ["--set", f"paths.train={tmp_path / 'absent.csv'}", "fit"]
        )
        assert rc == 2
        assert "stage:load" in err

    def test_train_directory_exit_code(self, tmp_path):
        rc, out, err = run_main(["--set", f"paths.train={tmp_path}", "fit"])
        assert rc == 2 and out == ""
        assert err == f"error=stage:load os_error={tmp_path} reason=Is a directory\n"

    @pytest.mark.parametrize(
        "setting, rc_expected, line",
        [
            ("regressors.n_y=0", 1, "error=stage:regressors detail="),
            ("poly.max_terms=0", 1, "error=stage:polynomial detail="),
            ("net.q=1", 1, "error=stage:training detail="),
            ("paths.model={tmp}/nodir/m.json", 2, "error=stage:persist missing_file="),
            ("paths.model={tmp}", 2, "error=stage:persist os_error={tmp} reason=Is a directory"),
        ],
    )
    def test_error_names_its_stage(self, tmp_path, setting, rc_expected, line):
        setting, line = setting.format(tmp=tmp_path), line.format(tmp=tmp_path)
        rc, out, err = run_main(small_fit_args(tmp_path) + ["--set", setting, "fit"])
        assert rc == rc_expected
        assert err.startswith(line) and err.count("\n") == 1
        assert out == ""


class TestEval:
    def test_reports_free_run_quality(self, desk_pipeline):
        rc, out = desk_pipeline["run"]("eval")
        assert rc == 0
        kv = parse_kv(out)
        assert kv["diverged"] == "false"
        assert float(kv["rmse_db"]) < 0.0
        assert float(kv["cond_u"]) > 1.0
        assert float(kv["cond_x"]) > 1.0

    def test_affine_baseline_matches_lstsq(self, desk_pipeline):
        rc, out = desk_pipeline["run"]("eval")
        assert rc == 0
        kv = parse_kv(out)
        net = UReluNet.from_json(desk_pipeline["model"].read_text())
        spec = net.regressor_spec
        ds = build_regressors(load_csv(desk_pipeline["train_csv"]), spec)
        coef, *_ = np.linalg.lstsq(np.column_stack([np.ones(ds.n_samples), ds.U]), ds.y, rcond=None)
        val = load_csv(desk_pipeline["validation_csv"])
        seed_len = spec.max_lag
        y_s = simulate_free_run(lambda phi: coef[0] + coef[1:] @ phi, val.u, val.y[:seed_len], spec)
        expected = rmse_db(rmse(val.y[seed_len:], y_s[seed_len:]))
        assert kv["affine_diverged"] == "false"
        assert "affine_divergence_index" not in kv
        assert float(kv["affine_rmse_db"]) == pytest.approx(expected, abs=1e-6)
        # rmse_db is printed to 4 decimals, the affine dB and the margin to 6
        margin = float(kv["affine_rmse_db"]) - float(kv["rmse_db"])
        assert float(kv["margin_db"]) == pytest.approx(margin, abs=1e-4)

    def test_missing_train_file_exit_code(self, desk_pipeline, tmp_path):
        absent = tmp_path / "absent.csv"
        rc, out, err = run_main(
            ["--set", f"paths.model={desk_pipeline['model']}",
             "--set", f"paths.validation={desk_pipeline['validation_csv']}",
             "--set", f"paths.train={absent}", "eval"]
        )
        assert rc == 2
        assert err == f"error=missing_file path={absent}\n"
        assert out == ""

    def test_overflowing_free_run_reported_as_divergence(self, tmp_path):
        # y(t) = 1.5 y(t-1) stays finite for 1024 samples (about 1e180), but
        # its squared error overflows
        X = np.array([[-1.0], [1.0]])
        net = make_net(np.array([[0.0], [1.0]]), 2, np.array([-1.5, 1.5, 0.0]), X, RegressorSpec(0, 1))
        model = tmp_path / "model.json"
        model.write_text(net.to_json())
        y = np.zeros(1024)
        y[0] = 1.0
        validation = tmp_path / "validation.csv"
        save_csv(validation, TimeSeriesData(u=np.zeros(1024), y=y))
        # eval also fits the affine baseline on a training record; this one
        # follows the same y(t) = 1.5 y(t-1), so the baseline overflows too
        train = tmp_path / "train.csv"
        save_csv(train, TimeSeriesData(u=np.zeros(200), y=1.5 ** np.arange(200)))
        y_s = simulate_free_run(net, np.zeros(1024), y[:1], RegressorSpec(0, 1))
        assert np.isfinite(y_s).all()
        with np.errstate(over="ignore"):
            expected = int(np.flatnonzero(~np.isfinite((y - y_s) ** 2))[0])
        rc, out, _ = run_main(
            ["--set", f"paths.model={model}", "--set", f"paths.validation={validation}",
             "--set", f"paths.train={train}", "eval"]
        )
        assert rc == 0
        kv = parse_kv(out)
        assert kv["diverged"] == "true"
        assert int(kv["divergence_index"]) == expected
        assert "rmse" not in kv
        assert kv["affine_diverged"] == "true"
        assert int(kv["affine_divergence_index"]) > 0
        assert "affine_rmse_db" not in kv and "margin_db" not in kv

    @staticmethod
    def one_lag_eval_args(tmp_path, w, y_range=None):
        """`eval` arguments for the one-lag network with weights `w` on the knots
        [-1, 0], w0 + w1 (y(t-1) + 1) + w2 max(0, y(t-1)), and training output range
        `y_range`, freely run from y = 1 with no input for 64 samples; its affine
        baseline fits a stable first-order record."""
        X = np.array([[-1.0], [1.0]])
        net = make_net(np.array([[0.0], [1.0]]), 2, np.array(w), X, RegressorSpec(0, 1), y_range)
        model = tmp_path / "model.json"
        model.write_text(net.to_json())
        y = np.zeros(64)
        y[0] = 1.0
        validation = tmp_path / "validation.csv"
        save_csv(validation, TimeSeriesData(u=np.zeros(64), y=y))
        u = np.random.default_rng(5).normal(size=200)
        y_tr = np.zeros(200)
        for t in range(1, 200):
            y_tr[t] = 0.5 * y_tr[t - 1] + u[t]
        train = tmp_path / "train.csv"
        save_csv(train, TimeSeriesData(u=u, y=y_tr))
        return ["--set", f"paths.model={model}", "--set", f"paths.validation={validation}",
                "--set", f"paths.train={train}", "eval"]

    def test_diverging_free_run_reported_with_its_index(self, tmp_path):
        # y(t) = 1e10 max(0, y(t-1)) passes the double range at step 31: a non-finite
        # prediction, which the free run raises on
        args = self.one_lag_eval_args(tmp_path, [0.0, 0.0, 1e10])
        net = UReluNet.from_json((tmp_path / "model.json").read_text())
        with np.errstate(over="ignore"), pytest.raises(SimulationDiverged) as diverged:
            simulate_free_run(net, np.zeros(64), np.ones(1), RegressorSpec(0, 1))
        rc, out, _ = run_main(args)
        assert rc == 0
        kv = parse_kv(out)
        assert kv["diverged"] == "true"
        assert int(kv["divergence_index"]) == diverged.value.index == 31
        assert "rmse" not in kv and "margin_db" not in kv
        assert kv["affine_diverged"] == "false"

    def test_finite_run_outside_the_training_range_reported_as_divergence(self, tmp_path):
        # y(t) = 1.5 y(t-1) grows to about 1e11 and stays finite: without a training
        # output range the run is scored; with [-1, 1] it leaves [-3, 3], the range
        # widened by dataset.DIVERGENCE_WIDTHS = 1 width on each side, at 1.5**3
        rc, out, _ = run_main(self.one_lag_eval_args(tmp_path, [-1.5, 1.5, 0.0]))
        assert rc == 0
        kv = parse_kv(out)
        assert kv["diverged"] == "false" and float(kv["rmse"]) > 1e10
        rc, out, _ = run_main(self.one_lag_eval_args(tmp_path, [-1.5, 1.5, 0.0], (-1.0, 1.0)))
        assert rc == 0
        kv = parse_kv(out)
        assert (kv["diverged"], kv["divergence_index"]) == ("true", "3")
        assert "rmse" not in kv and "margin_db" not in kv
        assert kv["affine_diverged"] == "false"

    def test_short_fit_reported_as_divergence(self, desk_pipeline, tmp_path):
        # the desk config's fit cut to 5 LM iterations, at one BLAS thread: its free run
        # stays finite but grows far past the measured output (an rmse near 1e49),
        # which only the training output range flags
        paths = ["--config", str(cli_config_path()),
                 "--set", f"paths.train={desk_pipeline['train_csv']}",
                 "--set", f"paths.validation={desk_pipeline['validation_csv']}",
                 "--set", f"paths.model={tmp_path / 'model.json'}",
                 "--set", f"paths.report={tmp_path / 'report.json'}"]
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"}
        for command in (["--set", "train.max_iter=5", "fit"], ["eval"]):
            proc = subprocess.run(
                [sys.executable, "-m", "urelunet.cli", *paths, *command],
                capture_output=True, text=True, env=env, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
        kv = parse_kv(proc.stdout)
        assert kv["diverged"] == "true"
        assert int(kv["divergence_index"]) >= 5
        assert "rmse" not in kv and "margin_db" not in kv

    def test_warning_outside_a_stage_printed_as_a_warning_line(self, tmp_path):
        # numpy warns of the overflow in the free run's dot; as a process, so that the
        # warning meets Python's own display rather than the test runner's capture
        args = self.one_lag_eval_args(tmp_path, [0.0, 0.0, 1e10])
        proc = subprocess.run(
            [sys.executable, "-m", "urelunet.cli", *args], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}, timeout=120,
        )
        assert proc.returncode == 0
        assert "diverged=true" in proc.stdout.splitlines()
        assert all(line.startswith("warning=") for line in proc.stderr.splitlines()), proc.stderr

    def test_summed_overflow_reported_as_divergence(self, tmp_path):
        # a constant 1e154 squares to a finite 1e308, but two of them sum past the double
        # range: the run diverges at the second sample after its one-sample seed
        rc, out, _ = run_main(self.one_lag_eval_args(tmp_path, [1e154, 0.0, 0.0]))
        assert rc == 0
        kv = parse_kv(out)
        assert kv["diverged"] == "true"
        assert kv["divergence_index"] == "2"

    def test_model_directory_exit_code(self, tmp_path):
        rc, out, err = run_main(["--set", f"paths.model={tmp_path}", "eval"])
        assert rc == 2 and out == ""
        assert err == f"error=os_error path={tmp_path} reason=Is a directory\n"

    def test_non_finite_validation_value_exit_code(self, desk_pipeline, tmp_path):
        # a nan in the validation record is a bad input, not a diverged free run
        lines = desk_pipeline["validation_csv"].read_text().splitlines()
        lines[99] = lines[99].split(",")[0] + ",nan"
        validation = tmp_path / "validation.csv"
        validation.write_text("\n".join(lines) + "\n")
        rc, out, err = run_main(
            ["--set", f"paths.model={desk_pipeline['model']}",
             "--set", f"paths.validation={validation}",
             "--set", f"paths.train={desk_pipeline['train_csv']}", "eval"]
        )
        assert rc == 1
        assert out == ""
        assert err.startswith(f"error={validation}:100: non-finite value in row ")

    def test_missing_model_exit_code(self, tmp_path):
        rc, _, err = run_main(
            ["--set", f"paths.model={tmp_path / 'absent.json'}", "eval"]
        )
        assert rc == 2

    @pytest.mark.parametrize("command", ["eval", "simulate", "regions"])
    def test_model_without_a_field_exit_code(self, tmp_path, command):
        model = tmp_path / "model.json"
        model.write_text('{"m": 2}')
        rc, _, err = run_main(["--set", f"paths.model={model}", command])
        assert rc == 1
        assert err.startswith(f"error=model file {model}: model JSON has no field n,")

    @pytest.mark.parametrize(
        "key, index, value, detail",
        [
            ("w", 5, math.nan, "model field 'w' takes finite numbers, not nan"),
            ("beta", 0, math.inf, "model field 'beta' takes finite numbers, not inf"),
            ("V", 0, "0.5", "model field 'V' takes finite numbers, not '0.5'"),
            ("q", None, 8.7, "model field 'q' takes an integer >= 2, not 8.7"),
            ("m", None, -1, "model field 'm' takes an integer >= 1, not -1"),
            ("m", None, 0, "model field 'm' takes an integer >= 1, not 0"),
            ("n", None, -1, "model field 'n' takes an integer >= 1, not -1"),
            ("n", None, 0, "model field 'n' takes an integer >= 1, not 0"),
            ("q", None, 0, "model field 'q' takes an integer >= 2, not 0"),
            ("beta", 1, -1e300, "model knot row 0 of [beta, x_max] decreases"),
            ("x_max", 0, -1e300, "model knot row 0 of [beta, x_max] decreases"),
            ("w", 0, 10**400, f"model field 'w' takes finite numbers, not {10**400}"),
            ("regressor_spec", "n_u", 4.5, SPEC_RULE + '{"n_u": 4.5, "n_y": 4}: ' + NOT_INTEGERS),
            ("regressor_spec", None, {"n_y": 4}, SPEC_RULE + '{"n_y": 4}: ' + NOT_INTEGERS),
            ("regressor_spec", "n_u", True, SPEC_RULE + '{"n_u": true, "n_y": 4}: ' + NOT_INTEGERS),
            ("regressor_spec", "n_u", 6, SPEC_RULE + '{"n_u": 6, "n_y": 4}: n_u + n_y + 1 must equal m = 10'),
            ("V", None, [0.5] * 5, "model field 'V' takes a list of m*n = 30 numbers, not a list of 5"),
            ("V", None, 3, "model field 'V' takes a list of m*n = 30 numbers, not 3"),
            ("beta", None, [0.0] * 25, "model field 'beta' takes a list of n*q = 24 numbers, not a list of 25"),
            ("w", None, "0.5", "model field 'w' takes a list of n*q + 1 = 25 numbers, not '0.5'"),
            ("x_max", None, {"0": 1.0}, "model field 'x_max' takes a list of n = 3 numbers, not {'0': 1.0}"),
            ("y_range", None, [1.0, 0.0], "model field 'y_range' takes two finite numbers low <= high, not [1.0, 0.0]"),
        ],
        ids=[
            "nan-weight", "infinite-knot", "string-entry", "fractional-q",
            "negative-m", "zero-m", "negative-n", "zero-n", "zero-q", "knot-falls", "x_max-falls",
            "401-digit-weight", "fractional-n_u", "no-n_u", "bool-n_u", "spec-not-m",
            "short-V", "scalar-V", "long-beta", "string-w", "object-x_max", "y_range-falls",
        ],
    )
    def test_corrupt_model_rejected(self, desk_pipeline, tmp_path, key, index, value, detail):
        # a corrupt model file is a bad input, not a diverged free run
        model = tmp_path / "model.json"
        model.write_text(corrupt_model(desk_pipeline["model"], key, index, value))
        rc, out, err = run_main(
            ["--set", f"paths.model={model}",
             "--set", f"paths.validation={desk_pipeline['validation_csv']}",
             "--set", f"paths.train={desk_pipeline['train_csv']}", "eval"]
        )
        assert rc == 1
        assert out == ""
        assert err == f"error=model file {model}: {detail}\n"

    def test_exact_free_run_is_minus_inf_db(self, desk_pipeline, tmp_path):
        # the network's own free run as the validation record: eval reproduces it exactly
        sim = tmp_path / "sim.csv"
        paths = ["--set", f"paths.model={desk_pipeline['model']}",
                 "--set", f"paths.validation={desk_pipeline['validation_csv']}",
                 "--set", f"paths.train={desk_pipeline['train_csv']}"]
        assert run_main(paths + ["simulate", "--output", str(sim)])[0] == 0
        rc, out, err = run_main(paths + ["--set", f"paths.validation={sim}", "eval"])
        assert rc == 0 and err == ""
        kv = parse_kv(out)
        assert kv["diverged"] == "false"
        assert kv["rmse"] == "0.000000e+00"
        assert kv["rmse_db"] == "-inf"
        assert math.isfinite(float(kv["affine_rmse_db"]))
        assert "margin_db" not in kv

    @pytest.mark.parametrize("seed", [100, 102])
    def test_free_run_finite_below_training_range(self, desk_pipeline, seed):
        # validation multisines at the training level that take some
        # regressor below its training minimum; both diverge when the first
        # neuron of each dimension is a ramp instead of linear
        dg = cli.load_config(str(cli_config_path()), [])["datagen"]
        params = boucwen.load_params(configs_dir() / "desk_boucwen.json")
        rec = boucwen.records(params, dg["excitation"]["amplitude_rms"], (dg["validation_samples"],), seed)[0]
        net = UReluNet.from_json(desk_pipeline["model"].read_text())
        spec = net.regressor_spec
        X = build_regressors(rec, spec).U @ net.V
        assert np.any(X < net.beta[:, 0])
        seed_len = max(spec.n_u, spec.n_y)
        y_s = simulate_free_run(net, rec.u, rec.y[:seed_len], spec)
        assert np.all(np.isfinite(y_s))
        assert rmse_db(rmse(rec.y[seed_len:], y_s[seed_len:])) < -70.0


class TestSimulate:
    def test_writes_free_run_series(self, desk_pipeline, tmp_path):
        out_csv = tmp_path / "sim.csv"
        rc, out = desk_pipeline["run"]("simulate", "--output", str(out_csv))
        assert rc == 0
        sim = load_csv(out_csv)
        val = load_csv(desk_pipeline["validation_csv"])
        assert len(sim) == len(val)
        np.testing.assert_array_equal(sim.u, val.u)
        # free-run output differs from the measurement but tracks it
        assert not np.array_equal(sim.y, val.y)
        assert np.corrcoef(sim.y, val.y)[0, 1] > 0.9

    @staticmethod
    def simulate_to(desk_pipeline, out):
        """`simulate --output out` of the desk model; returns (exit code, stdout, stderr)."""
        return run_main(
            ["--config", str(cli_config_path()), "--set", f"paths.model={desk_pipeline['model']}",
             "--set", f"paths.validation={desk_pipeline['validation_csv']}", "simulate", "--output", str(out)]
        )

    def test_full_disk_leaves_no_file(self, desk_pipeline, tmp_path, monkeypatch):
        # the 100th row fails: the 99 rows before it would pass for a short free run
        out = tmp_path / "sim.csv"
        full_disk_on_write(monkeypatch, out, 100)
        rc, stdout, err = self.simulate_to(desk_pipeline, out)
        assert rc == 2
        assert stdout == ""
        assert err == f"error=os_error path={out} reason={os.strerror(errno.ENOSPC)}\n"
        assert not out.exists()

    def test_full_disk_keeps_a_symlinked_output(self, desk_pipeline, tmp_path, monkeypatch):
        # --output names a link (as /dev/stdout is one): the link is not the command's to remove
        target, out = tmp_path / "sim.csv", tmp_path / "link.csv"
        target.touch()
        out.symlink_to(target)
        full_disk_on_write(monkeypatch, out, 100)
        rc, _, err = self.simulate_to(desk_pipeline, out)
        assert rc == 2
        assert err == f"error=os_error path={out} reason={os.strerror(errno.ENOSPC)}\n"
        assert out.is_symlink() and target.is_file()

    def test_output_on_a_hard_link_to_the_validation_record_rejected(self, desk_pipeline, tmp_path):
        # a second name of the same file, which only os.path.samefile matches
        val, link = tmp_path / "validation.csv", tmp_path / "link.csv"
        val.write_bytes(desk_pipeline["validation_csv"].read_bytes())
        os.link(val, link)
        kept = val.read_bytes()
        rc, out, err = run_main(
            ["--config", str(cli_config_path()), "--set", f"paths.model={desk_pipeline['model']}",
             "--set", f"paths.validation={val}", "simulate", "--output", str(link)]
        )
        assert rc == 1
        assert err == f"error=--output {link} is the same file as paths.validation {val}\n"
        assert out == ""
        assert val.read_bytes() == kept

    def test_output_defaults_to_simulated_csv(self, desk_pipeline, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc, stdout, _ = run_main(
            ["--config", str(cli_config_path()), "--set", f"paths.model={desk_pipeline['model']}",
             "--set", f"paths.validation={desk_pipeline['validation_csv']}", "simulate"]
        )
        assert rc == 0
        assert stdout == "output=simulated.csv rows=1024\n"
        assert [p.name for p in tmp_path.iterdir()] == ["simulated.csv"]
        assert len(load_csv(tmp_path / "simulated.csv")) == 1024

    def test_full_disk_keeps_a_fifo_output(self, desk_pipeline, tmp_path, monkeypatch):
        # a pipe named by --output is not the command's to remove
        out = tmp_path / "sim.fifo"
        os.mkfifo(out)
        full_disk_on_write(monkeypatch, out, 100)
        reader = os.open(out, os.O_RDONLY | os.O_NONBLOCK)
        try:
            rc, _, err = self.simulate_to(desk_pipeline, out)
        finally:
            os.close(reader)
        assert rc == 2
        assert err == f"error=os_error path={out} reason={os.strerror(errno.ENOSPC)}\n"
        assert stat.S_ISFIFO(os.stat(out).st_mode)


@pytest.mark.parametrize("rows", [3, 5])
@pytest.mark.parametrize("command", ["eval", "simulate"])
def test_validation_record_too_short_rejected(desk_pipeline, tmp_path, command, rows):
    # the desk model's seed window is max(n_u, n_y) = 5 samples: a record of 5 rows has
    # no sample to run freely, and 3 rows do not fill the window
    validation = tmp_path / "validation.csv"
    lines = desk_pipeline["validation_csv"].read_text().splitlines()
    validation.write_text("\n".join(lines[:rows]) + "\n")
    output = ["--output", str(tmp_path / "sim.csv")] if command == "simulate" else []
    rc, stdout, err = run_main(
        ["--set", f"paths.model={desk_pipeline['model']}",
         "--set", f"paths.validation={validation}",
         "--set", f"paths.train={desk_pipeline['train_csv']}", command, *output]
    )
    assert rc == 1
    assert stdout == ""
    assert err == (
        f"error=validation record {validation}: series too short: {rows} samples, "
        "need at least 6 for n_u=5, n_y=4\n"
    )
    assert [p.name for p in tmp_path.iterdir()] == ["validation.csv"]


class TestRegions:
    def test_export_complete(self, desk_pipeline, tmp_path):
        out = tmp_path / "regions.jsonl"
        rc, text = desk_pipeline["run"]("regions", "--output", str(out))
        assert rc == 0
        kv = parse_kv(text)
        lines = out.read_text().splitlines()
        header = json.loads(lines[0])
        # the exact key set: the benchmark's region check compares the whole header
        assert set(header) == {"total_cells", "emitted", "truncated"}
        assert header["total_cells"] == 8**3 == int(kv["total_cells"])
        assert header["emitted"] == len(lines) - 1 == 8**3
        assert header["truncated"] is False
        cells = [tuple(json.loads(line)["cell"]) for line in lines[1:]]
        assert cells == list(itertools.product(range(1, 9), repeat=3))

    def test_limit_truncates(self, desk_pipeline, tmp_path):
        out = tmp_path / "regions_small.jsonl"
        rc, text = desk_pipeline["run"]("regions", "--limit", "10", "--output", str(out))
        assert rc == 0
        lines = out.read_text().splitlines()
        header = json.loads(lines[0])
        assert header == {"total_cells": 8**3, "emitted": 10, "truncated": True}
        cells = [tuple(json.loads(line)["cell"]) for line in lines[1:]]
        assert cells == list(itertools.product(range(1, 9), repeat=3))[:10]
        # a limit that ends inside a block of pwl.BLOCK cells: the full export's first
        # cells, byte for byte
        assert 300 % pwl.BLOCK
        full, cut = tmp_path / "regions.jsonl", tmp_path / "regions_300.jsonl"
        assert desk_pipeline["run"]("regions", "--output", str(full))[0] == 0
        assert desk_pipeline["run"]("regions", "--limit", "300", "--output", str(cut))[0] == 0
        lines = cut.read_text().splitlines()
        assert json.loads(lines[0]) == {"total_cells": 8**3, "emitted": 300, "truncated": True}
        assert lines[1:] == full.read_text().splitlines()[1:301]

    def test_corrupt_model_leaves_no_file(self, desk_pipeline, tmp_path):
        model = tmp_path / "model.json"
        model.write_text(corrupt_model(desk_pipeline["model"], "w", 5, math.nan))
        out = tmp_path / "regions.jsonl"
        rc, _, err = run_main(["--set", f"paths.model={model}", "regions", "--output", str(out)])
        assert rc == 1
        assert err == f"error=model file {model}: model field 'w' takes finite numbers, not nan\n"
        assert not out.exists()

    @staticmethod
    def full_disk_on_third_cell(monkeypatch):
        """Make the third cell's to_json raise ENOSPC; returns the cells it was called on."""
        to_json, calls = PwlRegion.to_json, []

        def full_disk(region):
            calls.append(region.cell)
            if len(calls) == 3:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return to_json(region)

        monkeypatch.setattr(PwlRegion, "to_json", full_disk)
        return calls

    def test_failed_write_leaves_no_file(self, desk_pipeline, tmp_path, monkeypatch):
        # a full disk on the third cell: the header already counts all 512
        calls = self.full_disk_on_third_cell(monkeypatch)
        out = tmp_path / "regions.jsonl"
        rc, stdout, err = run_main(
            ["--set", f"paths.model={desk_pipeline['model']}", "regions", "--output", str(out)]
        )
        assert rc == 2
        assert stdout == ""
        assert len(err.splitlines()) == 1 and err.startswith("error=")
        assert len(calls) == 3
        assert not out.exists()

    def test_failed_write_keeps_a_fifo_output(self, desk_pipeline, tmp_path, monkeypatch):
        # a pipe or a device named by --output is not the command's to remove
        self.full_disk_on_third_cell(monkeypatch)
        out = tmp_path / "regions.fifo"
        os.mkfifo(out)
        reader = os.open(out, os.O_RDONLY | os.O_NONBLOCK)
        try:
            rc, _, err = run_main(
                ["--set", f"paths.model={desk_pipeline['model']}", "regions", "--output", str(out)]
            )
        finally:
            os.close(reader)
        assert rc == 2
        assert err == f"error=os_error path={out} reason={os.strerror(errno.ENOSPC)}\n"
        assert stat.S_ISFIFO(os.stat(out).st_mode)

    def test_failed_removal_keeps_the_write_error(self, desk_pipeline, tmp_path, monkeypatch):
        # the error line names the write that failed, not the removal after it
        self.full_disk_on_third_cell(monkeypatch)

        def denied(path, missing_ok=False):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))

        monkeypatch.setattr(Path, "unlink", denied)
        out = tmp_path / "regions.jsonl"
        rc, _, err = run_main(
            ["--set", f"paths.model={desk_pipeline['model']}", "regions", "--output", str(out)]
        )
        assert rc == 2
        assert err == f"error=os_error path={out} reason={os.strerror(errno.ENOSPC)}\n"

    def test_negative_limit_rejected(self, desk_pipeline, tmp_path):
        out = tmp_path / "regions.jsonl"
        rc, stdout, err = run_main(
            ["--set", f"paths.model={desk_pipeline['model']}",
             "regions", "--limit", "-3", "--output", str(out)]
        )
        assert rc == 1
        assert stdout == ""
        assert err == "error=--limit must be >= 0, not -3\n"
        assert not out.exists()

    def test_output_on_the_model_rejected(self, desk_pipeline, tmp_path):
        model = tmp_path / "model.json"
        model.write_bytes(desk_pipeline["model"].read_bytes())
        kept = model.read_bytes()
        rc, stdout, err = run_main(["--set", f"paths.model={model}", "regions", "--output", str(model)])
        assert rc == 1
        assert stdout == ""
        assert err == f"error=--output {model} is the same file as paths.model {model}\n"
        assert model.read_bytes() == kept

    def test_output_defaults_to_regions_jsonl(self, desk_pipeline, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc, stdout, _ = run_main(["--set", f"paths.model={desk_pipeline['model']}", "regions"])
        assert rc == 0
        assert parse_kv(stdout)["output"] == "regions.jsonl"
        assert [p.name for p in tmp_path.iterdir()] == ["regions.jsonl"]
        assert len((tmp_path / "regions.jsonl").read_text().splitlines()) == 1 + 8**3

    def test_default_output_on_the_model_rejected(self, desk_pipeline, tmp_path, monkeypatch):
        # the default --output is checked like a given one
        monkeypatch.chdir(tmp_path)
        model = tmp_path / "regions.jsonl"
        model.write_bytes(desk_pipeline["model"].read_bytes())
        kept = model.read_bytes()
        rc, stdout, err = run_main(["--set", "paths.model=regions.jsonl", "regions"])
        assert rc == 1
        assert stdout == ""
        assert err == "error=--output regions.jsonl is the same file as paths.model regions.jsonl\n"
        assert model.read_bytes() == kept

    def test_long_header_kept_on_its_own_line(self, tmp_path):
        # total_cells = 10**30 makes the header longer than 80 characters
        rng = np.random.default_rng(22)
        n, q = 30, 10
        net = make_net(rng.normal(size=(n, n)), q, rng.normal(size=n * q + 1), rng.normal(size=(50, n)))
        model = tmp_path / "model.json"
        model.write_text(net.to_json())
        out = tmp_path / "regions.jsonl"
        rc, _, _ = run_main(
            ["--set", f"paths.model={model}", "regions", "--limit", "2", "--output", str(out)]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert json.loads(lines[0]) == {"total_cells": q**n, "emitted": 2, "truncated": True}
        assert len(json.loads(lines[1])["cell"]) == n
        assert len(lines) == 3

    @pytest.mark.parametrize("limit", [0, 1, 6, 7, 8, None])
    def test_one_region_and_one_to_json_per_cell(self, tmp_path, monkeypatch, limit):
        # the benchmark's tracer wraps pwl.enumerate_regions in the module and
        # PwlRegion.to_json on the class, and counts the regions and their lines
        monkeypatch.setattr(pwl, "BLOCK", 7)
        rng = np.random.default_rng(31)
        n, q = 2, 4
        net = make_net(rng.normal(size=(3, n)), q, rng.normal(size=n * q + 1), rng.normal(size=(50, n)))
        model = tmp_path / "model.json"
        model.write_text(net.to_json())
        enumerate_regions, to_json = pwl.enumerate_regions, PwlRegion.to_json
        passes, rendered = [], []

        def counting_enumerate(*args, **kwargs):
            passes.append(kwargs)
            return enumerate_regions(*args, **kwargs)

        def counting_to_json(region):
            rendered.append(region)
            return to_json(region)

        monkeypatch.setattr(pwl, "enumerate_regions", counting_enumerate)
        monkeypatch.setattr(PwlRegion, "to_json", counting_to_json)
        out = tmp_path / "regions.jsonl"
        extra = [] if limit is None else ["--limit", str(limit)]
        rc, _, err = run_main(["--set", f"paths.model={model}", "regions", *extra, "--output", str(out)])
        assert (rc, err) == (0, "")
        emitted = q**n if limit is None else limit
        assert passes == [{"limit": pwl.DEFAULT_LIMIT if limit is None else limit}]
        assert [r.cell for r in rendered] == list(itertools.product(range(1, q + 1), repeat=n))[:emitted]
        assert all(type(r) is PwlRegion for r in rendered)
        assert out.read_text().splitlines()[1:] == [to_json(r) for r in rendered]
        for region in rendered:
            moved = dataclasses.replace(region, b=region.b + 1.0)
            assert to_json(moved) == json.dumps(
                {
                    "cell": list(moved.cell),
                    "x_bounds": [list(bd) for bd in moved.x_bounds],
                    "affine_x": {"a": moved.a.tolist(), "b": moved.b},
                    "affine_u": {"c": moved.c.tolist(), "b": moved.b},
                },
                sort_keys=True,
            )

    def test_calls_in_one_process_stay_apart(self, desk_pipeline, tmp_path):
        # a --limit given to one call does not reach the next
        base = ["--set", f"paths.model={desk_pipeline['model']}", "regions", "--output"]
        first, truncated, second = (tmp_path / f"{name}.jsonl" for name in ("first", "truncated", "second"))
        assert run_main([*base, str(first)])[0] == 0
        assert run_main([*base, str(truncated), "--limit", "7"])[0] == 0
        rc, stdout, _ = run_main([*base, str(second)])
        assert rc == 0
        assert parse_kv(stdout)["emitted"] == "512"
        assert len(second.read_text().splitlines()) == 1 + 8**3
        assert second.read_bytes() == first.read_bytes()

    def test_set_reaches_only_its_own_call(self, desk_pipeline, tmp_path, monkeypatch):
        # the default paths.model, model.json in the working directory, holds another model
        monkeypatch.chdir(tmp_path)
        rng = np.random.default_rng(32)
        small = make_net(rng.normal(size=(3, 2)), 3, rng.normal(size=7), rng.normal(size=(20, 2)))
        Path("model.json").write_text(small.to_json())
        rc, stdout, _ = run_main(["--set", f"paths.model={desk_pipeline['model']}", "regions", "--output", "a.jsonl"])
        assert (rc, parse_kv(stdout)["total_cells"]) == (0, "512")
        rc, stdout, _ = run_main(["regions", "--output", "b.jsonl"])
        assert (rc, parse_kv(stdout)["total_cells"]) == (0, "9")


@pytest.mark.parametrize(
    "command, key, hard_link",
    [
        ("datagen", "paths.train", False),
        ("datagen", "paths.validation", False),
        ("fit", "paths.model", False),
        ("fit", "paths.report", False),
        ("simulate", "--output", False),
        ("regions", "--output", False),
        # a second name of the config, which only os.path.samefile matches
        ("regions", "--output", True),
    ],
)
def test_output_on_the_config_file_rejected(desk_pipeline, tmp_path, command, key, hard_link):
    # the --config file is an input of every command: an output named onto it exits 1,
    # leaves the config as it was and writes no file
    config = tmp_path / "c.json"
    config.write_bytes(cli_config_path().read_bytes())
    out = config
    if hard_link:
        out = tmp_path / "link.json"
        os.link(config, out)
    args = {
        "datagen": small_datagen_args(tmp_path),
        "fit": small_fit_args(tmp_path),
        "simulate": ["--set", f"paths.model={desk_pipeline['model']}",
                     "--set", f"paths.validation={desk_pipeline['validation_csv']}"],
        "regions": ["--set", f"paths.model={desk_pipeline['model']}"],
    }[command]
    if key == "--output":
        args += [command, "--output", str(out)]
    else:
        args += ["--set", f"{key}={out}", command]
    kept, files = config.read_bytes(), sorted(tmp_path.iterdir())
    rc, stdout, err = run_main(["--config", str(config)] + args)
    assert rc == 1
    assert stdout == ""
    assert err == f"error={key} {out} is the same file as --config {config}\n"
    assert config.read_bytes() == kept
    assert sorted(tmp_path.iterdir()) == files


def test_cli_import_leaves_out_scipy_signal(tmp_path):
    # no command loads any part of scipy: `boucwen.decimate` is a filter of its own and
    # `varpro` factors with numpy's own LAPACK
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    loaded = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"
    code = f"import sys, urelunet.cli; print({loaded})"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    # nor do datagen, fit, eval and regions, run in one process on small records
    settings = {
        "paths.model": tmp_path / "m.json",
        "paths.report": tmp_path / "r.json",
        "regressors.n_u": 2,
        "regressors.n_y": 1,
        "init.n": 2,
        "net.q": 3,
        "train.max_iter": 5,
    }
    args = small_datagen_args(tmp_path) + [a for k, v in settings.items() for a in ("--set", f"{k}={v}")]
    commands = [["datagen"], ["fit"], ["eval"], ["regions", "--output", str(tmp_path / "regions.jsonl")]]
    code = (
        "import sys, urelunet.cli; "
        f"rcs = [urelunet.cli.main(sys.argv[1:] + c) for c in {commands!r}]; "
        f"print(rcs, {loaded})"
    )
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0] []"
    assert (tmp_path / "v.csv").exists() and (tmp_path / "regions.jsonl").exists()
