import dataclasses
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urelunet import pwl
from urelunet.network import UReluNet, make_net, forward, transform
from urelunet.pwl import PwlRegion, cond_diagnostics, enumerate_regions, region_count


def random_net(m, n, q, seed, N=200):
    rng = np.random.default_rng(seed)
    U = rng.normal(size=(N, m))
    V = rng.normal(size=(m, n))
    w = rng.normal(size=n * q + 1)
    return make_net(V, q, w, transform(U, V)), U


def region_maps(net):
    """Every exported region, keyed by its cell."""
    return {r.cell: r for r in enumerate_regions(net)}


def cell_of(net, x):
    """The cell of x: left-closed, 1..q per dimension. Below the first knot cell 1's
    map holds, because the first neuron is linear."""
    return tuple(
        max(int(np.searchsorted(net.beta[i], x[i], side="right")), 1) for i in range(net.n)
    )


def summed_map(net, cell):
    """Reference map of one cell: the active weights summed with numpy.

    Returns a, b and the sums of the absolute terms behind each, which bound
    their rounding error."""
    q = net.q
    a, a_scale = np.zeros(net.n), np.zeros(net.n)
    b, b_scale = float(net.w[0]), abs(float(net.w[0]))
    for i, k in enumerate(cell):
        wi = net.w[1 + i * q : 1 + (i + 1) * q][:k]
        terms = wi * net.beta[i, :k]
        a[i], a_scale[i] = np.sum(wi), np.sum(np.abs(wi))
        b -= float(np.sum(terms))
        b_scale += float(np.sum(np.abs(terms)))
    return a, b, a_scale, b_scale


def json_dumps_of_fields(reg):
    """The reference text of a region's line: json.dumps of its public fields."""
    return json.dumps(
        {
            "cell": list(reg.cell),
            "x_bounds": [list(bd) for bd in reg.x_bounds],
            "affine_x": {"a": reg.a.tolist(), "b": reg.b},
            "affine_u": {"c": reg.c.tolist(), "b": reg.b},
        },
        sort_keys=True,
    )


class TestAffineInRegion:
    def test_forward_equals_affine_at_interior_points(self):
        net, U = random_net(4, 2, 5, seed=2)
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(1000, 4))
        X = transform(pts, net.V)
        yhat = forward(net, pts)
        scale = max(np.abs(yhat).max(), 1.0)
        maps = region_maps(net)
        for k in range(1000):
            reg = maps[cell_of(net, X[k])]
            assert abs(reg.a @ X[k] + reg.b - yhat[k]) <= 1e-9 * scale
            assert abs(reg.c @ pts[k] + reg.b - yhat[k]) <= 1e-9 * scale

    def test_neighbor_cells_agree_on_shared_facet(self):
        net, _ = random_net(3, 2, 4, seed=4)
        q = net.q
        maps = region_maps(net)
        for i in range(net.n):
            for k in range(1, q):
                lo_cell = [1] * net.n
                hi_cell = [1] * net.n
                lo_cell[i], hi_cell[i] = k, k + 1
                lo, hi = maps[tuple(lo_cell)], maps[tuple(hi_cell)]
                # point on the facet x_i = beta_{i,k}
                x = np.array([net.beta[d, 0] + 1e-3 for d in range(net.n)])
                x[i] = net.beta[i, k]
                assert abs((lo.a @ x + lo.b) - (hi.a @ x + hi.b)) <= 1e-9

    def test_forward_below_grid_matches_cell_zero_map(self):
        # x_0 = u_0 + u_1 and x_1 = u_0 - u_1 on knots 0, 1, 2 per dimension
        V = np.array([[1.0, 1.0], [1.0, -1.0]])
        w = np.array([0.5, 2.0, -1.0, 0.25, -3.0, 0.5, 4.0])
        beta = np.array([[0.0, 1.0, 2.0], [0.0, 1.0, 2.0]])
        net = UReluNet(V=V, q=3, beta=beta, w=w, x_max=[3.0, 3.0])
        U = np.array([[-1.0, -0.5], [-2.0, 0.5], [0.25, -1.0]])
        X = transform(U, V)
        assert np.all(X.min(axis=1) < net.beta[:, 0].min())  # each row leaves the grid
        y = forward(net, U)
        maps = region_maps(net)
        for u, x, yk in zip(U, X, y):
            reg = maps[cell_of(net, x)]
            assert yk == pytest.approx(reg.a @ x + reg.b, abs=1e-12)
            assert yk == pytest.approx(reg.c @ u + reg.b, abs=1e-12)
        # by hand: row 0 has x = (-1.5, -0.5), below the first knot in both
        # dimensions, where only the linear neurons act
        assert y[0] == pytest.approx(0.5 + 2.0 * -1.5 + -3.0 * -0.5, abs=1e-12)

    def test_u_slope_is_transform_of_x_slope(self):
        net, _ = random_net(4, 2, 4, seed=6)
        reg = region_maps(net)[(2, 3)]
        np.testing.assert_allclose(reg.c, net.V @ reg.a, atol=1e-14)


class TestEnumeration:
    def test_count_matches_formula(self):
        net, _ = random_net(3, 2, 4, seed=8)
        regions = list(enumerate_regions(net))
        assert len(regions) == region_count(net) == 16
        assert len({r.cell for r in regions}) == 16

    def test_limit_truncates(self):
        net, _ = random_net(3, 2, 4, seed=9)
        assert len(list(enumerate_regions(net, limit=5))) == 5

    @pytest.mark.parametrize("limit", [2.5, True, -0.5, np.float64(3.0)])
    def test_limit_not_a_count_rejected(self, limit):
        net, _ = random_net(3, 2, 4, seed=9)
        with pytest.raises(ValueError, match=f"^limit must be an integer >= 0, not {limit}$"):
            next(enumerate_regions(net, limit=limit))

    def test_numpy_integer_limit(self):
        net, _ = random_net(3, 2, 4, seed=9)
        assert [r.cell for r in enumerate_regions(net, limit=np.int64(3))] == [(1, 1), (1, 2), (1, 3)]

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
            a, b, a_scale, b_scale = summed_map(net, reg.cell)
            assert np.all(np.abs(reg.a - a) <= 1e-12 * a_scale)
            assert abs(reg.b - b) <= 1e-12 * b_scale

    @given(
        m=st.integers(1, 4),
        n=st.integers(1, 3),
        q=st.integers(2, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_json_lines_equal_json_dumps(self, m, n, q, seed):
        net, _ = random_net(m, n, q, seed, N=20)
        for reg in enumerate_regions(net):
            assert reg.to_json() == json_dumps_of_fields(reg)

    def test_limit_stops_before_later_cells(self, monkeypatch):
        net, _ = random_net(8, 6, 10, seed=14, N=50)
        built = []
        maps = pwl._CellTables.maps

        def recorded(tables, start, stop):
            built.append(maps(tables, start, stop))
            return built[-1]

        monkeypatch.setattr(pwl._CellTables, "maps", recorded)
        regions = list(enumerate_regions(net, limit=3))
        assert [r.cell for r in regions] == [(1,) * 5 + (k,) for k in (1, 2, 3)]
        # one block of exactly the three cells yielded: no map of a later cell is computed
        [(A, b, C)] = built
        assert np.array_equal(A, [r.a for r in regions])
        assert b == [r.b for r in regions]
        assert np.array_equal(C, [r.c for r in regions])

    def test_bounds_partition_per_dimension(self):
        net, _ = random_net(2, 2, 3, seed=11)
        for reg in enumerate_regions(net):
            for i, (lo, hi) in enumerate(reg.x_bounds):
                assert lo < hi
                k = reg.cell[i]
                assert lo == float(net.beta[i, k - 1])
                assert hi == float(net.beta[i, k] if k < net.q else net.x_max[i])


def per_cell_map(net, cell):
    """One cell's map by per-cell arithmetic: each dimension's slope and offset as
    Python-float running sums of its active weights, a the array of the slopes, b
    w0 plus the offsets in dimension order, c = V @ a."""
    q, w = net.q, net.w.tolist()
    slopes, b, bounds = [], w[0], []
    for i, k in enumerate(cell):
        beta = net.beta[i].tolist()
        slope = offset = 0.0
        for wij, bij in zip(w[1 + i * q : 1 + i * q + k], beta):
            slope += wij
            offset -= wij * bij
        slopes.append(slope)
        b += offset
        bounds.append((beta[k - 1], (beta + [float(net.x_max[i])])[k]))
    a = np.array(slopes)
    return PwlRegion(cell=cell, x_bounds=tuple(bounds), a=a, b=b, c=net.V @ a)


class TestBlocks:
    """enumerate_regions builds the maps of BLOCK cells at a time; each map keeps the
    bits of the per-cell arithmetic, at any limit around the blocks' edges."""

    @pytest.mark.parametrize("m, n, q", [(10, 3, 8), (30, 5, 6), (4, 2, 5)])
    def test_blocks_equal_the_per_cell_maps(self, monkeypatch, m, n, q):
        monkeypatch.setattr(pwl, "BLOCK", 7)
        net, _ = random_net(m, n, q, seed=m + n + q, N=60)
        cells = list(itertools.product(range(1, q + 1), repeat=n))
        oracle = [per_cell_map(net, cell) for cell in cells]
        for limit in (0, 1, 6, 7, 8, 23, q**n):
            regions = list(enumerate_regions(net, limit=limit))
            assert [r.cell for r in regions] == cells[:limit]
            for reg, ref in zip(regions, oracle):
                assert reg.x_bounds == ref.x_bounds
                assert np.array_equal(reg.a, ref.a)
                assert type(reg.b) is float and reg.b == ref.b
                assert np.array_equal(reg.c, ref.c)
                # ref was built by hand, so its text is json.dumps of its fields
                assert reg.to_json() == ref.to_json()

    def test_memory_is_one_block_whatever_the_count(self):
        # the paper's shape: 100,000 cells, m = 30
        net, _ = random_net(30, 5, 10, seed=10, N=100)

        def peak(cells):
            tracemalloc.start()
            try:
                for _ in enumerate_regions(net, limit=cells):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(pwl.BLOCK)  # the first pass's one-off allocations
        two, eight = peak(2 * pwl.BLOCK), peak(8 * pwl.BLOCK)
        assert eight <= 1.05 * two


def test_region_json_bytes_pinned():
    # Overflow: dimension 0's slopes are 1e308 and inf, so c = V a is +-inf; its
    # first offset -1e308 * -10 is inf, and dimension 1's second offset -1e308 * 10
    # is -inf, so b is inf on cells (k, 1) and nan on cells (k, 2).
    big = UReluNet(
        V=np.array([[2.0, 0.0], [-2.0, 0.0]]),
        q=2,
        beta=np.array([[-10.0, 0.0], [0.0, 10.0]]),
        w=np.array([1e308, 1e308, 1e308, 0.0, 1e308]),
        x_max=np.array([1.0, 20.0]),
    )
    with np.errstate(over="ignore"):
        regions = list(enumerate_regions(big))
    lines = [r.to_json() for r in regions]
    assert lines == [json_dumps_of_fields(r) for r in regions]
    assert lines[0].startswith('{"affine_u": {"b": Infinity, "c": [Infinity, -Infinity]}')
    assert lines[1].startswith('{"affine_u": {"b": NaN, "c": [Infinity, -Infinity]}')
    assert '"affine_x": {"a": [Infinity, 0.0], "b": Infinity}' in lines[2]
    # Signed zero: a slope is summed from 0.0, so a -0.0 weight gives the slope
    # 0.0; the -0.0 knot keeps its sign in x_bounds.
    zero = UReluNet(
        V=np.array([[-1.0], [0.5]]),
        q=3,
        beta=np.array([[-1.0, -0.0, 1.0]]),
        w=np.array([-0.0, -0.0, 2.0, -0.0]),
        x_max=np.array([2.0]),
    )
    regions = list(enumerate_regions(zero))
    lines = [r.to_json() for r in regions]
    assert lines == [json_dumps_of_fields(r) for r in regions]
    assert '"a": [0.0]' in lines[0]
    assert lines[0].endswith('"cell": [1], "x_bounds": [[-1.0, -0.0]]}')
    assert lines[1].endswith('"cell": [2], "x_bounds": [[-0.0, 1.0]]}')


def test_hand_built_and_replaced_regions_render_their_fields():
    # only enumerate_regions attaches table text; any other region renders its own fields
    reg = PwlRegion(
        cell=(0, 3),
        x_bounds=((-math.inf, -1.25), (0.1, 0.1 + 0.2)),
        a=np.array([2.5, -1 / 3]),
        b=-(0.1 + 0.2),
        c=np.array([1 / 3, -2.0, 1e300]),
    )
    assert reg.to_json() == json_dumps_of_fields(reg)
    net, _ = random_net(2, 2, 3, seed=5, N=20)
    first = next(enumerate_regions(net))
    moved = dataclasses.replace(first, a=-first.a, x_bounds=((0.0, 1.0), (2.0, 3.0)))
    assert moved.to_json() == json_dumps_of_fields(moved)
    assert moved.to_json() != first.to_json()


def test_enumerated_region_is_a_plain_dataclass_instance():
    # an enumerated region compares, prints and copies like one built by hand
    net, _ = random_net(2, 2, 3, seed=6, N=20)
    first = next(enumerate_regions(net))
    by_hand = PwlRegion(cell=first.cell, x_bounds=first.x_bounds, a=first.a, b=first.b, c=first.c)
    assert first == by_hand
    assert repr(first) == repr(by_hand)
    assert dataclasses.replace(first) == first
    assert dataclasses.fields(first) == dataclasses.fields(by_hand)
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.b = 0.0


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
