import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from urelunet.network import build_B, make_net, transform
from urelunet.varpro import train


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


def reference_free_run(net, u, y_init, spec):
    """The free run as a plain loop: reversed slices for the regressor, and
    the network composed from transform and build_B on a 1 x m row."""
    y_s = np.empty(len(u))
    y_s[: len(y_init)] = y_init
    phi = np.empty(spec.m)
    for t in range(max(spec.n_u, len(y_init)), len(u)):
        phi[: spec.n_u + 1] = u[t - spec.n_u : t + 1][::-1]
        phi[spec.n_u + 1 :] = y_s[t - spec.n_y : t][::-1]
        val = float((net.w[0] + build_B(transform(phi[None], net.V), net.beta) @ net.w[1:])[0])
        if not np.isfinite(val):
            raise SimulationDiverged(t)
        y_s[t] = val
    return y_s


class TestFreeRunReference:
    """`simulate_free_run` on a network gives the reference loop's bits."""

    def test_trained_network_bitwise(self):
        spec = RegressorSpec(2, 2)
        rng = np.random.default_rng(19)

        def record(u):
            y = np.zeros(len(u))
            for t in range(2, len(u)):
                y[t] = 0.6 * y[t - 1] - 0.2 * y[t - 2] + np.tanh(u[t]) + 0.3 * u[t - 1] ** 2
            return y

        u_tr = rng.uniform(-1.0, 1.0, size=300)
        ds = build_regressors(TimeSeriesData(u=u_tr, y=record(u_tr)), spec)
        net, _ = train(rng.normal(size=(spec.m, 2)), ds, 4, max_iter=10)
        # a validation input wider than the training one takes some
        # coordinate below its first knot, where the linear neuron acts
        u_val = rng.uniform(-1.6, 1.6, size=400)
        y_val = record(u_val)
        y_s = simulate_free_run(net, u_val, y_val[:2], spec)
        ref = reference_free_run(net, u_val, y_val[:2], spec)
        assert y_s.tobytes() == ref.tobytes()
        X = build_regressors(TimeSeriesData(u=u_val, y=y_s), spec).U @ net.V
        assert np.any(X < net.beta[:, 0])

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_index_matches(self):
        # y(t) = 1.5 y(t-1) overflows, and the zero-weight ramp turns inf into nan
        spec = RegressorSpec(0, 1)
        net = make_net(np.array([[0.0], [1.0]]), 2, np.array([-1.5, 1.5, 0.0]), np.array([[-1.0], [1.0]]), spec)
        u, y_init = np.zeros(2000), [1.0]
        with pytest.raises(SimulationDiverged) as ref:
            reference_free_run(net, u, y_init, spec)
        with pytest.raises(SimulationDiverged) as run:
            simulate_free_run(net, u, y_init, spec)
        assert 1 < run.value.index < 2000
        assert run.value.index == ref.value.index


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

    def test_db_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            rmse_db(0.0)
        with pytest.raises(ValueError):
            rmse_db(-1.0)

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
