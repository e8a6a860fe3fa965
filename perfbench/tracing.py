"""Spans and counts around calls into the urelunet modules.

The tracer wraps module attributes from outside the package: a public
function is replaced, in every loaded ``urelunet`` module that binds it, by a
wrapper that records one span per call (name, phase, parent, start, end).
Nothing under ``src/`` is edited. Spans stay in memory; ``aggregate`` sums
them per (phase, name) with each span's self time (its duration minus that
of its direct children).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    """Records spans while installed; ``phase`` groups the spans of one operation."""

    def __init__(self):
        # each span is [name, phase, parent_index, start, end]
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.phase = "none"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.phase, parent, _clock(), None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][4] = _clock()
        self._stack.pop()

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[(self.phase, name)] += value

    # -- wrapping ------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, on_call=None) -> None:
        """Wrap ``owner.attr`` and every urelunet module binding of the same object.

        ``on_call(tracer, args, result)`` records counts after each call.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(idx)
            if on_call is not None:
                on_call(self, args, result)
            return result

        self._rebind(owner, attr, original, wrapper)

    def wrap_generator(self, owner, attr: str, name: str, item_count: str) -> None:
        """Wrap a generator function: one span per item drawn, counted as ``item_count``."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            inner = original(*args, **kwargs)
            while True:
                idx = self._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                self.count(item_count)
                yield item

        self._rebind(owner, attr, original, wrapper)

    def _rebind(self, owner, attr, original, wrapper) -> None:
        targets = [owner] + [
            mod
            for key, mod in list(sys.modules.items())
            if (key == "urelunet" or key.startswith("urelunet.")) and mod is not owner
        ]
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    setattr(target, key, wrapper)
                    self._patches.append((target, key, original))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    # -- reading -------------------------------------------------------
    def aggregate(self) -> dict[tuple[str, str], dict[str, float]]:
        """Per (phase, name): calls, total seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, phase, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[tuple[str, str], dict[str, float]] = {}
        for i, (name, phase, parent, start, end) in enumerate(self.spans):
            row = out.setdefault((phase, name), {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return out


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every urelunet module the pipeline calls."""
    from urelunet import boucwen, cli, cpd, dataset, hessian, network, polyfit, pwl, varpro

    def steps(t, args, result):
        t.count("boucwen.steps", len(result.y))

    def candidates(t, args, result):
        t.count("polyfit.candidates", len(result))

    def frols(t, args, result):
        ds, cands = args[0], args[1]
        t.count("polyfit.selected_terms", len(result.terms))
        t.count("polyfit.candidate_matrix_mb", ds.n_samples * len(cands) * 8 / 1e6)

    def points(t, args, result):
        t.count("hessian.points", result.n_points)

    def cpd_result(t, args, result):
        t.count("cpd.iterations", result.iterations)
        t.count("cpd.rel_error", result.rel_error)

    def train_result(t, args, result):
        report = result[1]
        t.count("varpro.iterations", report.iterations)
        t.count("varpro.accepted", report.accepted)
        t.count("varpro.rejected", report.rejected)

    def free_run(t, args, result):
        spec = args[3]
        t.count("dataset.free_run_steps", len(result) - max(spec.n_u, len(args[2])))

    tracer.wrap(boucwen, "multisine", "boucwen.multisine")
    tracer.wrap(boucwen, "simulate", "boucwen.simulate", steps)
    tracer.wrap(boucwen, "decimate", "boucwen.decimate")
    tracer.wrap(dataset, "save_csv", "dataset.save_csv")
    tracer.wrap(dataset, "load_csv", "dataset.load_csv")
    tracer.wrap(dataset, "build_regressors", "dataset.build_regressors")
    tracer.wrap(dataset, "simulate_free_run", "dataset.simulate_free_run", free_run)
    tracer.wrap(polyfit, "enumerate_terms", "polyfit.enumerate_terms", candidates)
    tracer.wrap(polyfit, "frols_select", "polyfit.frols_select", frols)
    tracer.wrap(hessian, "stack_hessians", "hessian.stack_hessians", points)
    tracer.wrap(cpd, "cpd_als", "cpd.cpd_als", cpd_result)
    tracer.wrap(cpd, "init_transform", "cpd.init_transform")
    tracer.wrap(varpro, "train", "varpro.train", train_result)
    tracer.wrap(varpro, "vp_residual", "varpro.vp_residual")
    tracer.wrap(varpro, "vp_jacobian", "varpro.vp_jacobian")
    tracer.wrap(network, "forward", "network.forward")
    tracer.wrap_generator(pwl, "enumerate_regions", "pwl.enumerate_regions", "pwl.cells")
    tracer.wrap(pwl.PwlRegion, "to_json", "pwl.to_json")
    tracer.wrap(cli, "cmd_fit", "cli.fit")
    tracer.wrap(cli, "cmd_regions", "cli.regions")


def per_layer_metrics(tracer: Tracer, passes: dict[str, int]) -> dict[str, tuple[float, str]]:
    """Per-module figures from the spans and counts of one traced workload run.

    ``passes`` gives how often each phase ran; repeated phases (setup,
    freerun, regions) are reported per pass, the fit phase as it ran once.
    """
    agg = tracer.aggregate()

    def span(phase, name, key="total_s"):
        row = agg.get((phase, name))
        return (row[key] if row else 0.0) / passes[phase]

    def calls(phase, name):
        row = agg.get((phase, name))
        return (row["calls"] if row else 0) / passes[phase]

    def count(phase, name):
        return tracer.counts.get((phase, name), 0.0) / passes[phase]

    accepted = count("fit", "varpro.accepted")
    rejected = count("fit", "varpro.rejected")
    figures = {
        "boucwen.multisine_s": span("setup", "boucwen.multisine"),
        "boucwen.simulate_s": span("setup", "boucwen.simulate"),
        "boucwen.steps": count("setup", "boucwen.steps"),
        "boucwen.decimate_s": span("setup", "boucwen.decimate"),
        "dataset.save_csv_s": span("setup", "dataset.save_csv"),
        "dataset.load_csv_s": span("fit", "dataset.load_csv"),
        "dataset.build_regressors_s": span("fit", "dataset.build_regressors"),
        "polyfit.enumerate_terms_s": span("fit", "polyfit.enumerate_terms"),
        "polyfit.candidates": count("fit", "polyfit.candidates"),
        "polyfit.frols_select_s": span("fit", "polyfit.frols_select"),
        "polyfit.selected_terms": count("fit", "polyfit.selected_terms"),
        "polyfit.candidate_matrix_mb": count("fit", "polyfit.candidate_matrix_mb"),
        "hessian.stack_hessians_s": span("fit", "hessian.stack_hessians"),
        "hessian.points": count("fit", "hessian.points"),
        "cpd.init_transform_self_s": span("fit", "cpd.init_transform", "self_s"),
        "cpd.cpd_als_s": span("fit", "cpd.cpd_als"),
        "cpd.iterations": count("fit", "cpd.iterations"),
        "cpd.rel_error": count("fit", "cpd.rel_error"),
        "varpro.train_s": span("fit", "varpro.train"),
        "varpro.step_s": span("fit", "varpro.train", "self_s"),
        "varpro.iterations": count("fit", "varpro.iterations"),
        "varpro.residual_evals": calls("fit", "varpro.vp_residual"),
        "varpro.residual_s": span("fit", "varpro.vp_residual"),
        "varpro.jacobian_evals": calls("fit", "varpro.vp_jacobian"),
        "varpro.jacobian_s": span("fit", "varpro.vp_jacobian"),
        "varpro.accepted": accepted,
        "varpro.rejected": rejected,
        "varpro.accept_ratio": accepted / max(accepted + rejected, 1.0),
        "dataset.simulate_free_run_s": span("freerun", "dataset.simulate_free_run"),
        "dataset.free_run_steps": count("freerun", "dataset.free_run_steps"),
        "network.forward_calls": calls("freerun", "network.forward"),
        "network.forward_s": span("freerun", "network.forward"),
        "pwl.cells": count("regions", "pwl.cells"),
        "pwl.enumerate_regions_s": span("regions", "pwl.enumerate_regions"),
        "pwl.to_json_s": span("regions", "pwl.to_json"),
        "cli.fit_self_s": span("fit", "cli.fit", "self_s"),
        "cli.regions_self_s": span("regions", "cli.regions", "self_s"),
        "trace.fit_s": span("fit", "cli.fit"),
    }
    units = {"polyfit.candidate_matrix_mb": "MB", "cpd.rel_error": "ratio", "varpro.accept_ratio": "ratio"}
    return {
        name: (value, units.get(name, "s" if name.endswith("_s") else "count"))
        for name, value in figures.items()
    }
