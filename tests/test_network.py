import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from urelunet.dataset import RegressorSpec
from urelunet.network import (
    UReluNet,
    bias_grid,
    build_B,
    forward,
    make_net,
    param_count,
    transform,
)
from urelunet.varpro import solve_weights


def toy_net(V, q, w, X):
    return make_net(np.asarray(V, float), q, np.asarray(w, float), np.asarray(X, float))


class TestTransform:
    def test_identity(self):
        U = np.random.default_rng(0).normal(size=(5, 3))
        np.testing.assert_array_equal(transform(U, np.eye(3)), U)

    def test_column_sum(self):
        np.testing.assert_array_equal(
            transform(np.ones((2, 2)), np.array([[1.0], [1.0]])), [[2.0], [2.0]]
        )

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(1)
        U = rng.normal(size=(100, 30))
        V = rng.normal(size=(30, 5))
        X = transform(U, V)
        ref = np.zeros((100, 5))
        for i in range(100):
            for j in range(5):
                for k in range(30):
                    ref[i, j] += U[i, k] * V[k, j]
        np.testing.assert_allclose(X, ref, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            transform(np.ones((2, 3)), np.ones((4, 1)))


class TestBiasGrid:
    def test_unit_span(self):
        X = np.array([[0.0], [10.0], [5.0]])
        np.testing.assert_allclose(bias_grid(X, 5), [[0, 2, 4, 6, 8]])

    def test_constant_column(self):
        np.testing.assert_array_equal(bias_grid(np.full((4, 1), 3.0), 3), [[3, 3, 3]])

    def test_signed_range(self):
        X = np.array([[-1.0], [1.0]])
        np.testing.assert_allclose(bias_grid(X, 4), [[-1, -0.5, 0, 0.5]])

    def test_first_knot_is_minimum(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(50, 3))
        beta = bias_grid(X, 7)
        np.testing.assert_array_equal(beta[:, 0], X.min(axis=0))


class TestBuildB:
    def test_small_example(self):
        B = build_B(np.array([[0.5]]), np.array([[0.0, 0.4, 0.8]]))
        np.testing.assert_allclose(B, [[0.5, 0.1, 0.0]])

    def test_minimum_maps_to_zero_first_column(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(20, 2))
        beta = bias_grid(X, 4)
        B = build_B(X, beta)
        imin = np.argmin(X[:, 0])
        assert B[imin, 0] == 0.0

    @given(
        X=hnp.arrays(np.float64, (7, 2), elements=st.floats(-50, 50)),
        beta=hnp.arrays(np.float64, (2, 3), elements=st.floats(-50, 50)),
    )
    @settings(max_examples=50, deadline=None)
    def test_elementwise_oracle(self, X, beta):
        # the first neuron of each dimension is linear, the others are ramps,
        # whether B is allocated, written into a Fortran-ordered buffer, built
        # one row at a time or read off a free-run step with V = I and a unit
        # weight on one neuron
        by_row = np.array([build_B(x[None], beta)[0] for x in X])
        units = [UReluNet(V=np.eye(2), q=3, beta=beta, w=np.eye(7)[1 + k], x_max=beta[:, -1]) for k in range(6)]
        by_forward = np.array([[net.free_run_step()(x) for net in units] for x in X])
        for B in (build_B(X, beta), build_B(X, beta, out=np.empty((7, 8), order="F")[:, 1:7]), by_row, by_forward):
            for k in range(7):
                for i in range(2):
                    for j in range(3):
                        d = X[k, i] - beta[i, j]
                        assert B[k, i * 3 + j] == (d if j == 0 else max(0.0, d))

    def test_out_must_be_fortran_ordered(self):
        X = np.ones((4, 2))
        beta = np.zeros((2, 3))
        with pytest.raises(ValueError):
            build_B(X, beta, out=np.empty((4, 6)))
        with pytest.raises(ValueError):
            build_B(X, beta, out=np.empty((4, 5), order="F"))

    def test_monotone_in_x(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(10, 2))
        beta = bias_grid(X, 5)
        B1 = build_B(X, beta)
        X2 = X.copy()
        X2[:, 0] += 0.3
        B2 = build_B(X2, beta)
        assert np.all(B2[:, :5] >= B1[:, :5])


class TestForward:
    def test_constant_weight_only(self):
        rng = np.random.default_rng(5)
        U = rng.normal(size=(30, 2))
        V = rng.normal(size=(2, 2))
        w = np.zeros(2 * 3 + 1)
        w[0] = 4.25
        net = toy_net(V, 3, w, transform(U, V))
        np.testing.assert_array_equal(forward(net, U), np.full(30, 4.25))

    def test_single_ramp(self):
        U = np.linspace(0, 1, 11)[:, None]
        net = make_net(np.array([[1.0]]), 2, np.array([0.0, 1.0, 0.0]), U)
        # knots at 0 and 0.5; only the first ramp active
        np.testing.assert_allclose(forward(net, np.array([[0.3]])), [0.3])
        np.testing.assert_allclose(forward(net, np.array([[0.7]])), [0.7])

    # the bench shapes (m = 10 and 30 with n, q = 3, 8) and the paper's (n, q = 5, 10)
    @pytest.mark.parametrize("m, n, q", [(10, 3, 8), (10, 5, 10), (30, 3, 8), (30, 5, 10)])
    def test_one_vector_gives_the_bits_of_a_one_row_block(self, m, n, q):
        # a single m-vector (the free-run step) against the same row as a
        # 1 x m block, including rows below the knot grid; a taller block
        # takes other BLAS kernels and agrees to rounding
        rng = np.random.default_rng(7)
        V = rng.normal(size=(m, n))
        U = rng.normal(size=(60, m))
        net = toy_net(V, q, rng.normal(size=n * q + 1), transform(U[:30], V))
        assert np.any(transform(U, V) < net.beta[:, 0])
        step = net.free_run_step()
        one = np.array([step(u) for u in U])
        for k in range(60):
            assert one[k].tobytes() == forward(net, U[k : k + 1])[0].tobytes()
        np.testing.assert_allclose(one, forward(net, U), rtol=1e-12, atol=1e-12)

    def test_one_vector_follows_the_fields_on_every_construction_route(self):
        # the free-run step reads the neuron weights and the activation floor
        # into its scratch; each route must give them from its own fields, so
        # a term left over from another net would change the bits
        rng = np.random.default_rng(12)
        V = rng.normal(size=(4, 3))
        U = rng.normal(size=(40, 4))
        made = toy_net(V, 5, rng.normal(size=3 * 5 + 1), transform(U, V))
        nets = [
            made,
            UReluNet.from_json(made.to_json()),
            dataclasses.replace(made, w=-made.w),
            dataclasses.replace(made, q=4, beta=made.beta[:, :4], w=made.w[: 3 * 4 + 1]),
        ]
        for net in nets:
            for u in U[:10]:
                ref = (net.w[0] + build_B(transform(u[None], net.V), net.beta) @ net.w[1:])[0]
                assert net.free_run_step()(u).tobytes() == ref.tobytes()

    def test_exact_pwl_interpolation(self):
        # a 1-D piecewise-linear target with kinks on the knot grid is
        # reproduced exactly after a least-squares fit of the weights
        q = 6
        u = np.linspace(0.0, 1.0, 241)[:, None]
        beta = bias_grid(u, q)[0]
        rng = np.random.default_rng(6)
        slopes = rng.normal(size=q)
        target = np.zeros(len(u))
        for j in range(q):
            target += slopes[j] * np.maximum(0.0, u[:, 0] - beta[j])
        target += 0.7
        B = build_B(u, beta[None, :])
        w, _ = solve_weights(B, target)
        net = make_net(np.array([[1.0]]), q, w, u)
        err = forward(net, u) - target
        assert np.sqrt(np.mean(err**2)) <= 1e-10

    def test_decomposition_identity(self):
        rng = np.random.default_rng(7)
        U = rng.normal(size=(40, 3))
        V = rng.normal(size=(3, 2))
        w = rng.normal(size=2 * 4 + 1)
        net = toy_net(V, 4, w, transform(U, V))
        composed = w[0] + build_B(transform(U, V), net.beta) @ w[1:]
        np.testing.assert_array_equal(forward(net, U), composed)

    def test_continuity_at_knots(self):
        rng = np.random.default_rng(8)
        U = rng.normal(size=(60, 2))
        V = rng.normal(size=(2, 2))
        w = rng.normal(size=2 * 5 + 1)
        net = toy_net(V, 5, w, transform(U, V))
        Vp = np.linalg.pinv(net.V.T)
        slope_scale = np.abs(w).sum() * max(np.abs(Vp).max(), 1.0)
        for i in range(net.n):
            for j in range(net.q):
                # straddle the knot along coordinate i of x-space
                x = net.beta[:, 0] + 0.1
                x[i] = net.beta[i, j]
                for eps in (-1e-9, 1e-9):
                    xa = x.copy()
                    xa[i] += eps
                u_lo = Vp @ (x + np.array([-1e-9 if d == i else 0 for d in range(net.n)]))
                u_hi = Vp @ (x + np.array([1e-9 if d == i else 0 for d in range(net.n)]))
                lo = forward(net, u_lo[None, :])[0]
                hi = forward(net, u_hi[None, :])[0]
                assert abs(hi - lo) <= 1e-6 * max(slope_scale, 1.0)


class TestParamCount:
    def test_benchmark_size(self):
        rng = np.random.default_rng(9)
        U = rng.normal(size=(50, 30))
        V = rng.normal(size=(30, 5))
        net = toy_net(V, 10, np.zeros(51), transform(U, V))
        assert param_count(net) == 201

    def test_minimal(self):
        U = np.array([[0.0], [1.0]])
        net = make_net(np.array([[1.0]]), 2, np.zeros(3), U)
        assert param_count(net) == 4

    def test_small(self):
        rng = np.random.default_rng(10)
        U = rng.normal(size=(10, 2))
        V = rng.normal(size=(2, 2))
        net = toy_net(V, 3, np.zeros(7), transform(U, V))
        assert param_count(net) == 11


def test_json_round_trip():
    rng = np.random.default_rng(11)
    U = rng.normal(size=(20, 4))
    V = rng.normal(size=(4, 2))
    w = rng.normal(size=2 * 3 + 1)
    net = make_net(V, 3, w, transform(U, V), regressor_spec=RegressorSpec(2, 1))
    clone = UReluNet.from_json(net.to_json())
    np.testing.assert_array_equal(clone.V, net.V)
    np.testing.assert_array_equal(clone.beta, net.beta)
    np.testing.assert_array_equal(clone.w, net.w)
    np.testing.assert_array_equal(clone.x_max, net.x_max)
    assert clone.regressor_spec == net.regressor_spec
    # determinism of the serialized form
    assert clone.to_json() == net.to_json()
    # a file that still holds x_min, the bottom of each knot row, loads to the same network
    doc = json.loads(net.to_json())
    doc["x_min"] = [float(v) for v in net.beta[:, 0]]
    assert UReluNet.from_json(json.dumps(doc)).to_json() == net.to_json()


def test_from_json_names_a_missing_field():
    with pytest.raises(ValueError, match="no field n, q, V, beta, w, x_max"):
        UReluNet.from_json('{"m": 2}')


@pytest.mark.parametrize("doc", [[1, 2], 3, "fit", None])
def test_from_json_rejects_a_non_object(doc):
    with pytest.raises(ValueError, match="model JSON must hold a JSON object"):
        UReluNet.from_json(json.dumps(doc))


@pytest.mark.parametrize("y_range", [None, (-0.5, 2.0), (1.5, 1.5)])
def test_json_round_trip_keeps_the_training_output_range(y_range):
    rng = np.random.default_rng(11)
    U = rng.normal(size=(20, 2))
    net = make_net(np.eye(2), 3, rng.normal(size=7), U, y_range=y_range)
    doc = json.loads(net.to_json())
    # a net without the range writes no field for it, so its file is as before
    assert ("y_range" in doc) == (y_range is not None)
    clone = UReluNet.from_json(net.to_json())
    assert clone.y_range == net.y_range == y_range
    assert clone.to_json() == net.to_json()


@pytest.mark.parametrize(
    "value, shown",
    [(None, "null"), ([1.0], "[1.0]"), ([1.0, 0.5], "[1.0, 0.5]"), ([0.0, float("inf")], "[0.0, Infinity]"),
     ([True, 1.0], "[true, 1.0]"), ("0,1", '"0,1"')],
    ids=["null", "one-number", "falls", "infinite", "bool", "string"],
)
def test_from_json_rejects_a_bad_y_range(value, shown):
    rng = np.random.default_rng(13)
    U = rng.normal(size=(20, 2))
    doc = json.loads(make_net(np.eye(2), 3, rng.normal(size=7), U).to_json())
    doc["y_range"] = value
    with pytest.raises(ValueError) as exc:
        UReluNet.from_json(json.dumps(doc))
    assert str(exc.value) == f"model field 'y_range' takes two finite numbers low <= high, not {shown}"
