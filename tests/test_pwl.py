import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urelunet import pwl
from urelunet.network import UReluNet, make_net, forward, transform
from urelunet.pwl import (
    PwlRegion,
    affine_in_region,
    cond_diagnostics,
    enumerate_regions,
    region_count,
    region_of,
)


def random_net(m, n, q, seed, N=200):
    rng = np.random.default_rng(seed)
    U = rng.normal(size=(N, m))
    V = rng.normal(size=(m, n))
    w = rng.normal(size=n * q + 1)
    return make_net(V, q, w, transform(U, V)), U


def summed_map(net, cell):
    """Reference map of one cell: the active weights summed with numpy.

    Returns a, b and the sums of the absolute terms behind each, which bound
    their rounding error."""
    q = net.q
    a, a_scale = np.zeros(net.n), np.zeros(net.n)
    b, b_scale = float(net.w[0]), abs(float(net.w[0]))
    for i, k in enumerate(cell):
        wi = net.w[1 + i * q : 1 + (i + 1) * q][: max(k, 1)]
        terms = wi * net.beta[i, : max(k, 1)]
        a[i], a_scale[i] = np.sum(wi), np.sum(np.abs(wi))
        b -= float(np.sum(terms))
        b_scale += float(np.sum(np.abs(terms)))
    return a, b, a_scale, b_scale


class TestRegionOf:
    def test_one_dimensional_bins(self):
        u = np.linspace(0.0, 1.0, 101)[:, None]
        net = make_net(np.array([[1.0]]), 4, np.zeros(5), u)
        # knots at 0, 0.25, 0.5, 0.75
        assert region_of(net, np.array([-0.1])) == (0,)
        assert region_of(net, np.array([0.1])) == (1,)
        assert region_of(net, np.array([0.25])) == (2,)  # left-closed
        assert region_of(net, np.array([0.9])) == (4,)

    def test_every_training_point_in_bounded_cell(self):
        net, U = random_net(3, 2, 5, seed=0)
        X = transform(U, net.V)
        for x in X:
            cell = region_of(net, x)
            assert all(1 <= k <= net.q for k in cell)

    def test_wrong_length_rejected(self):
        net, _ = random_net(3, 2, 4, seed=1)
        with pytest.raises(ValueError):
            region_of(net, np.zeros(3))


class TestAffineInRegion:
    def test_forward_equals_affine_at_interior_points(self):
        net, U = random_net(4, 2, 5, seed=2)
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(1000, 4))
        X = transform(pts, net.V)
        yhat = forward(net, pts)
        scale = max(np.abs(yhat).max(), 1.0)
        for k in range(1000):
            reg = affine_in_region(net, region_of(net, X[k]))
            assert abs(reg.evaluate_x(X[k]) - yhat[k]) <= 1e-9 * scale
            assert abs(reg.evaluate_u(pts[k]) - yhat[k]) <= 1e-9 * scale

    def test_neighbor_cells_agree_on_shared_facet(self):
        net, _ = random_net(3, 2, 4, seed=4)
        q = net.q
        for i in range(net.n):
            for k in range(1, q):
                lo_cell = [1] * net.n
                hi_cell = [1] * net.n
                lo_cell[i], hi_cell[i] = k, k + 1
                lo = affine_in_region(net, lo_cell)
                hi = affine_in_region(net, hi_cell)
                # point on the facet x_i = beta_{i,k}
                x = np.array([net.beta[d, 0] + 1e-3 for d in range(net.n)])
                x[i] = net.beta[i, k]
                assert abs(lo.evaluate_x(x) - hi.evaluate_x(x)) <= 1e-9

    def test_below_grid_cell_extends_first_cell(self):
        # the first neuron is linear, so cell 0 keeps the map of cell 1
        net, _ = random_net(2, 2, 3, seed=5)
        for below, first in (((0, 0), (1, 1)), ((0, 2), (1, 2)), ((3, 0), (3, 1))):
            lo, hi = affine_in_region(net, below), affine_in_region(net, first)
            np.testing.assert_array_equal(lo.a, hi.a)
            assert lo.b == hi.b

    def test_forward_below_grid_matches_cell_zero_map(self):
        # x_0 = u_0 + u_1 and x_1 = u_0 - u_1 on knots 0, 1, 2 per dimension
        V = np.array([[1.0, 1.0], [1.0, -1.0]])
        w = np.array([0.5, 2.0, -1.0, 0.25, -3.0, 0.5, 4.0])
        beta = np.array([[0.0, 1.0, 2.0], [0.0, 1.0, 2.0]])
        net = UReluNet(V=V, q=3, beta=beta, w=w, x_min=[0.0, 0.0], x_max=[3.0, 3.0])
        U = np.array([[-1.0, -0.5], [-2.0, 0.5], [0.25, -1.0]])
        X = transform(U, V)
        assert np.all(X.min(axis=1) < net.x_min.min())  # each row leaves the grid
        y = forward(net, U)
        for u, x, yk in zip(U, X, y):
            reg = affine_in_region(net, region_of(net, x))
            assert yk == pytest.approx(reg.evaluate_x(x), abs=1e-12)
            assert yk == pytest.approx(reg.evaluate_u(u), abs=1e-12)
        # by hand: row 0 has x = (-1.5, -0.5), below the first knot in both
        # dimensions, where only the linear neurons act
        assert y[0] == pytest.approx(0.5 + 2.0 * -1.5 + -3.0 * -0.5, abs=1e-12)

    def test_u_slope_is_transform_of_x_slope(self):
        net, _ = random_net(4, 2, 4, seed=6)
        reg = affine_in_region(net, (2, 3))
        np.testing.assert_allclose(reg.c, net.V @ reg.a, atol=1e-14)

    def test_bad_cell_rejected(self):
        net, _ = random_net(3, 2, 4, seed=7)
        with pytest.raises(ValueError):
            affine_in_region(net, (1,))
        with pytest.raises(ValueError):
            affine_in_region(net, (1, 5))
        with pytest.raises(ValueError):
            affine_in_region(net, (-1, 1))


class TestEnumeration:
    def test_count_matches_formula(self):
        net, _ = random_net(3, 2, 4, seed=8)
        regions = list(enumerate_regions(net))
        assert len(regions) == region_count(net) == 16
        assert len({r.cell for r in regions}) == 16

    def test_limit_truncates(self):
        net, _ = random_net(3, 2, 4, seed=9)
        assert len(list(enumerate_regions(net, limit=5))) == 5

    def test_benchmark_scale_count(self):
        net, _ = random_net(30, 5, 10, seed=10, N=100)
        assert region_count(net) == 100_000

    @given(
        m=st.integers(1, 4),
        n=st.integers(1, 3),
        q=st.integers(2, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_maps_from_tables(self, m, n, q, seed):
        net, _ = random_net(m, n, q, seed, N=20)
        for reg in enumerate_regions(net):
            assert reg.to_json() == affine_in_region(net, reg.cell).to_json()
            a, b, a_scale, b_scale = summed_map(net, reg.cell)
            assert np.all(np.abs(reg.a - a) <= 1e-12 * a_scale)
            assert abs(reg.b - b) <= 1e-12 * b_scale
            # the linear first neuron makes cell 0 extend cell 1 in every dimension
            for i in range(n):
                if reg.cell[i] == 1:
                    below = affine_in_region(net, reg.cell[:i] + (0,) + reg.cell[i + 1 :])
                    assert below.a.tolist() == reg.a.tolist() and below.b == reg.b
                    assert below.c.tolist() == reg.c.tolist()

    def test_limit_stops_before_later_cells(self, monkeypatch):
        net, _ = random_net(8, 6, 10, seed=14, N=50)
        built = []
        cell_map = pwl._cell_map
        monkeypatch.setattr(pwl, "_cell_map", lambda t, cell: built.append(cell) or cell_map(t, cell))
        regions = list(enumerate_regions(net, limit=3))
        assert [r.cell for r in regions] == [(1,) * 5 + (k,) for k in (1, 2, 3)]
        assert built == [r.cell for r in regions]

    def test_bounds_partition_per_dimension(self):
        net, _ = random_net(2, 2, 3, seed=11)
        for reg in enumerate_regions(net):
            for i, (lo, hi) in enumerate(reg.x_bounds):
                assert lo < hi
                k = reg.cell[i]
                assert lo == float(net.beta[i, k - 1])


def test_region_json_round_trip():
    net, _ = random_net(3, 2, 4, seed=12)
    reg = affine_in_region(net, (2, 3))
    clone = PwlRegion.from_json(reg.to_json())
    assert clone.cell == reg.cell
    np.testing.assert_array_equal(clone.a, reg.a)
    np.testing.assert_array_equal(clone.c, reg.c)
    assert clone.b == reg.b
    assert clone.to_json() == reg.to_json()


def test_region_json_bytes_pinned():
    # the bytes of json.dumps(..., sort_keys=True) on the region's lists
    reg = PwlRegion(
        cell=(0, 3),
        x_bounds=((-math.inf, -1.25), (0.1, 0.1 + 0.2)),
        a=np.array([2.5, -1 / 3]),
        b=-(0.1 + 0.2),
        c=np.array([1 / 3, -2.0, 1e300]),
    )
    assert reg.to_json() == (
        '{"affine_u": {"b": -0.30000000000000004, "c": [0.3333333333333333, -2.0, 1e+300]}, '
        '"affine_x": {"a": [2.5, -0.3333333333333333], "b": -0.30000000000000004}, '
        '"cell": [0, 3], "x_bounds": [[-Infinity, -1.25], [0.1, 0.30000000000000004]]}'
    )


class TestCondDiagnostics:
    def test_orthogonal_matrix_unit_condition(self):
        Q = np.linalg.qr(np.random.default_rng(13).normal(size=(20, 4)))[0]
        cu, cx = cond_diagnostics(Q, Q)
        assert cu == pytest.approx(1.0)
        assert cx == pytest.approx(1.0)

    def test_known_diagonal_scaling(self):
        A = np.diag([10.0, 1.0]) @ np.eye(2)
        cu, _ = cond_diagnostics(A, np.eye(2))
        assert cu == pytest.approx(10.0)

    def test_rank_deficient_reports_infinity(self):
        A = np.outer(np.arange(1.0, 6.0), [1.0, 2.0])
        cu, _ = cond_diagnostics(A, np.eye(2))
        assert cu == np.inf

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            cond_diagnostics(np.zeros((3, 2)), np.eye(2))
