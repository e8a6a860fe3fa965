import dataclasses
import errno
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from urelunet import network
from urelunet.dataset import (
    DIVERGENCE_WIDTHS,
    RegressorSpec,
    SimulationDiverged,
    TimeSeriesData,
    build_regressors,
    load_csv,
    open_output,
    rmse,
    rmse_db,
    save_csv,
    score_free_run,
    simulate_free_run,
)
from urelunet.network import build_B, make_net, transform
from urelunet.varpro import solve_weights, train


class TestBuildRegressors:
    def test_basic_lags(self):
        data = TimeSeriesData(u=[1, 2, 3], y=[10, 20, 30])
        ds = build_regressors(data, RegressorSpec(n_u=1, n_y=1))
        np.testing.assert_array_equal(ds.U, [[2, 1, 10], [3, 2, 20]])
        np.testing.assert_array_equal(ds.y, [20, 30])

    def test_minimal_case(self):
        ds = build_regressors(TimeSeriesData(u=[5, 5], y=[1, 2]), RegressorSpec(0, 1))
        np.testing.assert_array_equal(ds.U, [[5, 1]])
        np.testing.assert_array_equal(ds.y, [2])

    def test_large_record_shape(self):
        rng = np.random.default_rng(0)
        L = 40_960
        data = TimeSeriesData(u=rng.normal(size=L), y=rng.normal(size=L))
        spec = RegressorSpec(n_u=15, n_y=14)
        assert spec.m == 30
        ds = build_regressors(data, spec)
        assert ds.U.shape == (L - 15, 30)

    def test_too_short_names_minimum(self):
        with pytest.raises(ValueError, match="at least 4"):
            build_regressors(TimeSeriesData(u=[1, 2], y=[1, 2]), RegressorSpec(3, 2))

    @given(
        n_u=st.integers(0, 4),
        n_y=st.integers(1, 4),
        extra=st.integers(1, 20),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=50, deadline=None)
    def test_lag_alignment_matches_shift_construction(self, n_u, n_y, extra, seed):
        rng = np.random.default_rng(seed)
        L = max(n_u, n_y) + extra
        u = rng.normal(size=L)
        y = rng.normal(size=L)
        ds = build_regressors(TimeSeriesData(u=u, y=y), RegressorSpec(n_u, n_y))
        t0 = max(n_u, n_y)
        for row, t in enumerate(range(t0, L)):
            expected = [u[t - j] for j in range(n_u + 1)] + [
                y[t - j] for j in range(1, n_y + 1)
            ]
            np.testing.assert_array_equal(ds.U[row], expected)
            assert ds.y[row] == y[t]


class TestFreeRun:
    def test_identity_on_lag1(self):
        spec = RegressorSpec(0, 1)
        y_s = simulate_free_run(lambda phi: phi[-1], np.zeros(10), [7.0], spec)
        np.testing.assert_array_equal(y_s, np.full(10, 7.0))

    def test_geometric_decay(self):
        spec = RegressorSpec(0, 1)
        y_s = simulate_free_run(
            lambda phi: 0.5 * phi[1] + phi[0], np.zeros(5), [8.0], spec
        )
        np.testing.assert_allclose(y_s, [8, 4, 2, 1, 0.5])

    def test_matches_independent_recursion(self):
        # oracle: hand-rolled recursion for an arbitrary nonlinear predictor
        spec = RegressorSpec(2, 2)
        rng = np.random.default_rng(3)
        u = rng.normal(size=60)

        def g(phi):
            return 0.3 * phi[3] - 0.1 * phi[4] + 0.2 * phi[0] * phi[3] + 0.05 * phi[1]

        y_s = simulate_free_run(g, u, [0.5, -0.2], spec)
        ref = np.empty(60)
        ref[0], ref[1] = 0.5, -0.2
        for t in range(2, 60):
            phi = np.array([u[t], u[t - 1], u[t - 2], ref[t - 1], ref[t - 2]])
            ref[t] = g(phi)
        np.testing.assert_array_equal(y_s, ref)

    def test_measured_outputs_unused_after_seed(self):
        spec = RegressorSpec(1, 2)
        rng = np.random.default_rng(5)
        u = rng.normal(size=40)
        y_meas = rng.normal(size=40)
        g = lambda phi: 0.4 * phi[2] - 0.3 * phi[3] + phi[0]
        a = simulate_free_run(g, u, y_meas[:2], spec)
        y_meas[2:] += 100.0  # perturb everything after the seed window
        b = simulate_free_run(g, u, y_meas[:2], spec)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_reports_index(self):
        spec = RegressorSpec(0, 1)
        with pytest.raises(SimulationDiverged) as exc:
            simulate_free_run(lambda phi: phi[1] * 1e200, np.zeros(10), [1.0], spec)
        assert exc.value.index == 2

    def test_short_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            simulate_free_run(lambda phi: 0.0, np.zeros(10), [1.0], RegressorSpec(0, 2))


def reference_free_run(predict, u, y_init, spec):
    """The free run as a plain loop: reversed slices into one regressor buffer,
    then `predict` on it."""
    y_s = np.empty(len(u))
    y_s[: len(y_init)] = y_init
    phi = np.empty(spec.m)
    for t in range(max(spec.n_u, len(y_init)), len(u)):
        phi[: spec.n_u + 1] = u[t - spec.n_u : t + 1][::-1]
        phi[spec.n_u + 1 :] = y_s[t - spec.n_y : t][::-1]
        val = float(predict(phi))
        if not np.isfinite(val):
            raise SimulationDiverged(t, y_s[:t].copy())
        y_s[t] = val
    return y_s


def composed(net):
    """The network as `transform` and `build_B` on a 1 x m row."""
    return lambda phi: (net.w[0] + build_B(transform(phi[None], net.V), net.beta) @ net.w[1:])[0]


def record(u):
    y = np.zeros(len(u))
    for t in range(2, len(u)):
        y[t] = 0.6 * y[t - 1] - 0.2 * y[t - 2] + np.tanh(u[t]) + 0.3 * u[t - 1] ** 2
    return y


def trained_net(spec):
    """A network trained for 10 iterations on 300 samples of `record`, its training
    regressors, and a 400-sample validation input, wider than the training one, with
    its record."""
    rng = np.random.default_rng(19)
    u_tr = rng.uniform(-1.0, 1.0, size=300)
    ds = build_regressors(TimeSeriesData(u=u_tr, y=record(u_tr)), spec)
    net, _ = train(rng.normal(size=(spec.m, 2)), ds, 4, max_iter=10)
    u_val = rng.uniform(-1.6, 1.6, size=400)
    return net, ds, u_val, record(u_val)


class TestFreeRunReference:
    """`simulate_free_run` gives the reference loop's bits."""

    def test_trained_network_bitwise(self):
        spec = RegressorSpec(2, 2)
        net, _, u_val, y_val = trained_net(spec)
        y_s = simulate_free_run(net, u_val, y_val[:2], spec)
        ref = reference_free_run(composed(net), u_val, y_val[:2], spec)
        assert y_s.tobytes() == ref.tobytes()
        # some coordinate falls below its first knot, where the linear neuron acts
        X = build_regressors(TimeSeriesData(u=u_val, y=y_s), spec).U @ net.V
        assert np.any(X < net.beta[:, 0])

    @pytest.mark.parametrize(
        "n_u, n_y, seed_len",
        [(0, 3, 3), (2, 2, 7), (2, 2, 400)],
        ids=["no_input_lag", "seed_past_max_lag", "seed_is_the_record"],
    )
    def test_lags_and_seed_lengths_bitwise(self, n_u, n_y, seed_len):
        # seed_len 400 is the whole validation record, so no step runs
        spec = RegressorSpec(n_u, n_y)
        net, _, u_val, y_val = trained_net(spec)
        y_s = simulate_free_run(net, u_val, y_val[:seed_len], spec)
        ref = reference_free_run(composed(net), u_val, y_val[:seed_len], spec)
        assert y_s.tobytes() == ref.tobytes()

    def test_affine_baseline_bitwise(self):
        # eval's affine model, a plain callable, runs as it is
        spec = RegressorSpec(2, 2)
        _, ds, u_val, y_val = trained_net(spec)
        w, _ = solve_weights(ds.U, ds.y)
        affine = lambda phi: w[0] + w[1:] @ phi
        y_s = simulate_free_run(affine, u_val, y_val[:2], spec)
        assert y_s.tobytes() == reference_free_run(affine, u_val, y_val[:2], spec).tobytes()

    def test_one_forward_call_per_step(self, monkeypatch):
        # the bench's tracer counts network.forward calls as the free run's steps
        spec = RegressorSpec(2, 2)
        net, _, u_val, y_val = trained_net(spec)
        calls, original = [], network.forward
        monkeypatch.setattr(network, "forward", lambda *args: calls.append(args[0]) or original(*args))
        y_s = simulate_free_run(net, u_val, y_val[:2], spec)
        assert len(calls) == 400 - 2 and all(c is net for c in calls)
        assert y_s.tobytes() == reference_free_run(composed(net), u_val, y_val[:2], spec).tobytes()

    def test_two_steps_of_one_net_keep_their_own_scratch(self, monkeypatch):
        spec = RegressorSpec(2, 2)
        net, ds, _, _ = trained_net(spec)
        works, original = [], network.forward

        def recording(net, u, work):
            works.append(work)
            return original(net, u, work)

        monkeypatch.setattr(network, "forward", recording)
        steps = [net.free_run_step(), net.free_run_step()]
        ref = composed(net)
        for k, row in enumerate(ds.U[:20]):
            assert steps[k % 2](row).tobytes() == ref(row).tobytes()
        first, second = works[0], works[1]
        assert all(w is first for w in works[::2]) and all(w is second for w in works[1::2])
        # x, its column, D and its flat view are written by every call
        assert not any(np.shares_memory(a, b) for a in first[:4] for b in second[:4])

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_index_matches(self):
        # y(t) = 1.5 y(t-1) overflows, and the zero-weight ramp turns inf into nan
        spec = RegressorSpec(0, 1)
        net = make_net(np.array([[0.0], [1.0]]), 2, np.array([-1.5, 1.5, 0.0]), np.array([[-1.0], [1.0]]), spec)
        u, y_init = np.zeros(2000), [1.0]
        with pytest.raises(SimulationDiverged) as ref:
            reference_free_run(composed(net), u, y_init, spec)
        with pytest.raises(SimulationDiverged) as run:
            simulate_free_run(net, u, y_init, spec)
        assert 1 < run.value.index < 2000
        assert run.value.index == ref.value.index
        assert run.value.outputs.tobytes() == ref.value.outputs.tobytes()

    @pytest.mark.parametrize(
        "where, index, value", [("u_raw", 300, math.nan), ("y_init", 3, math.inf), ("y_init", 0, -math.inf)]
    )
    def test_non_finite_input_is_rejected_by_name_and_index(self, where, index, value):
        # not a divergence of the model: a ValueError before any step, and no
        # warning (the test configuration fails on one)
        spec = RegressorSpec(2, 2)
        net, _, u_val, y_val = trained_net(spec)
        u, seed = u_val.copy(), y_val[:5].copy()
        (u if where == "u_raw" else seed)[index] = value
        with pytest.raises(ValueError, match=rf"^{where} has a non-finite value {value!r} at index {index}$"):
            simulate_free_run(net, u, seed, spec)


def one_lag_net(w0, w1, y_range):
    """The one-lag network w0 + w1 (y(t-1) + 1) on the knots [-1, 0], with `y_range`."""
    X = np.array([[-1.0], [1.0]])
    return make_net(np.array([[0.0], [1.0]]), 2, np.array([w0, w1, 0.0]), X, RegressorSpec(0, 1), y_range)


class TestScoreFreeRun:
    """A model with a training output range diverges at its first output outside that
    range widened by DIVERGENCE_WIDTHS widths on each side; any other model, at a
    non-finite output or one too large to square or sum."""

    spec = RegressorSpec(0, 1)

    def score(self, net, n=64):
        y = np.zeros(n)
        y[0] = 1.0
        return score_free_run(net, TimeSeriesData(u=np.zeros(n), y=y), self.spec)

    def test_finite_geometric_growth_diverges_where_it_leaves_the_range(self):
        # y(t) = 1.5 y(t-1) from y(0) = 1 reaches 1.5**63, about 1e11: finite, and so
        # not diverged by the non-finite rule alone
        net = one_lag_net(-1.5, 1.5, (-1.0, 1.0))
        without = dataclasses.replace(net, y_range=None)
        value, index = self.score(without)
        assert index is None and math.isfinite(value) and value > 1e10
        # the range [-1, 1] widened by DIVERGENCE_WIDTHS = 1 width is [-3, 3], and
        # 1.5**3 = 3.375 is the first output past it
        assert DIVERGENCE_WIDTHS == 1.0
        assert self.score(net) == (None, 3)

    def test_an_output_on_the_widened_edge_stays_in(self):
        # y(t) = w0 for t >= 1: the edge of [0, 1] widened by one width on each side
        # is 2, the next double above it is out
        assert self.score(one_lag_net(2.0, 0.0, (0.0, 1.0))) == (rmse(np.zeros(63), np.full(63, 2.0)), None)
        assert self.score(one_lag_net(-1.0, 0.0, (0.0, 1.0)))[1] is None
        assert self.score(one_lag_net(np.nextafter(2.0, 3.0), 0.0, (0.0, 1.0))) == (None, 1)
        assert self.score(one_lag_net(np.nextafter(-1.0, -2.0), 0.0, (0.0, 1.0))) == (None, 1)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_a_run_that_overflows_diverges_where_it_leaves_the_range(self):
        # y(t) = 2e10 y(t-1) (w1 (y + 1) minus w1 from w0) leaves [-1, 1] widened at
        # t = 1 and overflows later, at the index the non-finite rule gives
        net = one_lag_net(-2e10, 2e10, (-1.0, 1.0))
        with pytest.raises(SimulationDiverged) as exc:
            simulate_free_run(net, np.zeros(64), [1.0], self.spec)
        assert exc.value.index > 1
        assert self.score(dataclasses.replace(net, y_range=None)) == (None, exc.value.index)
        assert self.score(net) == (None, 1)


class TestMetrics:
    def test_zero_for_identical(self):
        assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_constant_residual(self):
        y = np.arange(17.0)
        assert rmse(y, y + 0.1) == pytest.approx(0.1)

    def test_hand_computed(self):
        assert rmse([1, 2], [0, 0]) == pytest.approx(np.sqrt(5 / 2))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rmse([1, 2], [1])

    def test_db_values(self):
        assert rmse_db(1.0) == 0.0
        assert rmse_db(0.01) == pytest.approx(-40.0)
        # an exact fit
        assert rmse_db(0.0) == -math.inf

    @pytest.mark.parametrize("value", [-1.0, math.nan])
    def test_db_rejects_negative_and_nan(self, value):
        with pytest.raises(ValueError):
            rmse_db(value)

    @given(st.floats(1e-12, 1e6), st.floats(1e-12, 1e6))
    @example(1e-12, 1.0000000000000002e-12)
    def test_db_strictly_increasing(self, a, b):
        # adjacent floats can round to the same dB value, e.g. at 1e-12, so
        # strict increase is required only beyond one part in 1e9
        a, b = min(a, b), max(a, b)
        assert rmse_db(a) <= rmse_db(b)
        if b > a * (1.0 + 1e-9):
            assert rmse_db(a) < rmse_db(b)


class TestCsv:
    def test_parse_three_rows(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2\n3,4\n5,6\n")
        data = load_csv(p)
        np.testing.assert_array_equal(data.u, [1, 3, 5])
        np.testing.assert_array_equal(data.y, [2, 4, 6])

    def test_header_skipped(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("u,y\n1,2\n")
        data = load_csv(p)
        np.testing.assert_array_equal(data.u, [1])

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("u,y\n\n1,2\n  \n3,4\n\n")
        data = load_csv(p)
        np.testing.assert_array_equal(data.u, [1, 3])
        np.testing.assert_array_equal(data.y, [2, 4])

    def test_leading_bom_is_not_a_header(self, tmp_path):
        # a byte-order mark before a numeric first row keeps that row; a header still goes
        p = tmp_path / "d.csv"
        p.write_bytes(b"\xef\xbb\xbf1,2\n3,4\n5,6\n")
        np.testing.assert_array_equal(load_csv(p).u, [1, 3, 5])
        p.write_bytes(b"\xef\xbb\xbfu,y\n1,2\n")
        np.testing.assert_array_equal(load_csv(p).u, [1])

    def test_empty_file_errors(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(ValueError):
            load_csv(p)

    def test_malformed_row_reports_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2\nx,4\n")
        with pytest.raises(ValueError, match=":2:"):
            load_csv(p)

    @pytest.mark.parametrize("row", ["nan,4", "3,inf", "-inf,4", "3,NaN"])
    def test_non_finite_value_reports_line(self, tmp_path, row):
        p = tmp_path / "d.csv"
        p.write_text(f"u,y\n1,2\n{row}\n5,6\n")
        with pytest.raises(ValueError, match=f"d.csv:3: non-finite value in row '{row}'"):
            load_csv(p)

    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(11)
        data = TimeSeriesData(u=rng.normal(size=1000), y=rng.normal(size=1000))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_csv(p1, data)
        save_csv(p2, load_csv(p1))
        assert p1.read_bytes() == p2.read_bytes()
        reloaded = load_csv(p1)
        np.testing.assert_array_equal(reloaded.u, data.u)
        np.testing.assert_array_equal(reloaded.y, data.y)


def test_failed_output_replaced_after_open_is_kept(tmp_path):
    # the path names another file by the time the write fails: that file is not the
    # writer's, so it stays
    out, other = tmp_path / "out.csv", tmp_path / "other.csv"
    other.write_text("kept\n")
    with pytest.raises(RuntimeError):
        with open_output(out) as fh:
            fh.write("partial\n")
            other.replace(out)
            raise RuntimeError
    assert out.read_text() == "kept\n"


def test_failed_output_is_removed(tmp_path):
    out = tmp_path / "out.csv"
    with pytest.raises(OSError) as info:
        with open_output(out) as fh:
            fh.write("partial\n")
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    assert info.value.filename == str(out)
    assert not out.exists()
