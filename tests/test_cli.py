import contextlib
import copy
import io
import json

import numpy as np
import pytest

from urelunet import cli
from urelunet.dataset import load_csv
from urelunet.network import UReluNet, make_net, param_count
from urelunet.pwl import PwlRegion

from conftest import parse_kv


def run_main(argv):
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, buf.getvalue(), err.getvalue()


class TestConfig:
    def test_merge_is_recursive(self):
        base = {"a": {"x": 1, "y": 2}, "b": 3}
        out = cli._merge(base, {"a": {"y": 9}, "c": 4})
        assert out == {"a": {"x": 1, "y": 9}, "b": 3, "c": 4}
        assert base["a"]["y"] == 2  # untouched

    def test_file_then_set_overrides(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"net": {"q": 12}}))
        cfg = cli.load_config(str(p), ["net.q=7", "poly.max_terms=11"], seed=None)
        assert cfg["net"]["q"] == 7
        assert cfg["poly"]["max_terms"] == 11
        # untouched defaults survive
        assert cfg["regressors"]["n_u"] == 5

    def test_set_values_json_parsed(self):
        cfg = cli.load_config(None, ["train.jacobian_mode=full", "net.q=9"], None)
        assert cfg["train"]["jacobian_mode"] == "full"
        assert cfg["net"]["q"] == 9

    def test_seed_flag_wins(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"seed": 5}))
        assert cli.load_config(str(p), [], seed=99)["seed"] == 99

    def test_defaults_not_mutated(self):
        before = copy.deepcopy(cli.DEFAULT_CONFIG)
        cfg = cli.load_config(None, ["net.q=12", "init.new_key=1"], seed=7)
        assert cfg["net"]["q"] == 12 and cfg["seed"] == 7
        assert cli.DEFAULT_CONFIG == before

    def test_malformed_override_rejected(self):
        with pytest.raises(ValueError):
            cli.load_config(None, ["no_equals_sign"], None)

    def test_missing_config_file_exit_code(self):
        rc, _, err = run_main(["--config", "/nonexistent/cfg.json", "fit"])
        assert rc == 2
        assert "missing_file" in err


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

    def test_metadata_sidecar(self, desk_pipeline):
        meta = json.loads(
            (desk_pipeline["work"] / "train.csv.meta.json").read_text()
        )
        assert meta["seed"] == 2
        assert meta["fs_output"] == 750.0
        assert meta["excitation"]["type"] == "multisine"

    def test_deterministic_rerun(self, desk_pipeline, tmp_path):
        rc, out = desk_pipeline["run"]("datagen")
        assert rc == 0
        # rerun overwrote the same paths with identical bytes, so the model
        # inputs used by fit are reproducible
        first = desk_pipeline["train_csv"].read_bytes()
        rc, _ = desk_pipeline["run"]("datagen")
        assert rc == 0
        assert desk_pipeline["train_csv"].read_bytes() == first

    def test_unknown_excitation_type_exit_code(self, tmp_path, desk_pipeline):
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
        assert "square" in err


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
        hist = (desk_pipeline["work"] / "report.json.history.csv").read_text()
        assert hist.startswith("iteration,squared_residual")

    def test_training_reduced_residual(self, desk_pipeline):
        report = json.loads(desk_pipeline["report"].read_text())
        hist = report["residual_history"]
        assert hist[-1] < hist[0]
        assert all(b < a for a, b in zip(hist, hist[1:]))

    def test_missing_train_file_exit_code(self, tmp_path):
        rc, _, err = run_main(
            ["--set", f"paths.train={tmp_path / 'absent.csv'}", "fit"]
        )
        assert rc == 2
        assert "stage:load" in err


class TestEval:
    def test_reports_free_run_quality(self, desk_pipeline):
        rc, out = desk_pipeline["run"]("eval")
        assert rc == 0
        kv = parse_kv(out)
        assert kv["diverged"] == "false"
        assert float(kv["rmse_db"]) < 0.0
        assert float(kv["cond_u"]) > 1.0
        assert float(kv["cond_x"]) > 1.0

    def test_missing_model_exit_code(self, tmp_path):
        rc, _, err = run_main(
            ["--set", f"paths.model={tmp_path / 'absent.json'}", "eval"]
        )
        assert rc == 2


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


class TestRegions:
    def test_export_complete(self, desk_pipeline, tmp_path):
        out = tmp_path / "regions.jsonl"
        rc, text = desk_pipeline["run"]("regions", "--output", str(out))
        assert rc == 0
        kv = parse_kv(text)
        lines = out.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["total_cells"] == 8**3 == int(kv["total_cells"])
        assert header["emitted"] == len(lines) - 1 == 8**3
        assert header["truncated"] is False
        region = PwlRegion.from_json(lines[1])
        assert len(region.cell) == 3

    def test_limit_truncates(self, desk_pipeline, tmp_path):
        out = tmp_path / "regions_small.jsonl"
        rc, text = desk_pipeline["run"]("regions", "--limit", "10", "--output", str(out))
        assert rc == 0
        lines = out.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["emitted"] == 10
        assert header["truncated"] is True

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
        assert len(PwlRegion.from_json(lines[1]).cell) == n
        assert len(lines) == 3
