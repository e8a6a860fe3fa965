"""Interpretability: the trained network is affine on axis-aligned cells of the knot
grid; this module enumerates those cells."""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .network import UReluNet


# the most cells one pass yields unless the caller sets its own limit
DEFAULT_LIMIT = 1_000_000
# the cells whose maps enumerate_regions builds together: at the paper's shape
# (m = 30, n = 5) a pass holds about 0.1 MB, and larger blocks are no faster
BLOCK = 128


@dataclass(frozen=True)
class PwlRegion:
    """One grid cell with its exact affine map in x-space and u-space.

    On the cell, yhat = a . x + b; through the linear transform the same map
    reads yhat = c . u + b with c = V a.
    """

    cell: tuple[int, ...]
    x_bounds: tuple[tuple[float, float], ...]
    a: np.ndarray
    b: float
    c: np.ndarray
    # the JSON text of the list items of cell, a and x_bounds, each joined once per cell
    # from the network's tables; only enumerate_regions sets it, when it fills a region's
    # __dict__ without running __init__. It is not an init field, so a region built by
    # hand or by dataclasses.replace has None here and to_json renders its fields.
    _fixed_json: tuple[str, str, str] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def to_json(self) -> str:
        """The text json.dumps(..., sort_keys=True) gives for the region's fields.

        For a region from enumerate_regions only b and c are rendered here: b
        once, for both maps, and c entry by entry. A finite float's repr is
        json's text; a repr holding an "n" (inf, nan) takes json's spelling.
        """
        if self._fixed_json is None:
            return json.dumps(
                {
                    "cell": list(self.cell),
                    "x_bounds": [list(bd) for bd in self.x_bounds],
                    "affine_x": {"a": self.a.tolist(), "b": self.b},
                    "affine_u": {"c": self.c.tolist(), "b": self.b},
                },
                sort_keys=True,
            )
        cell, a, bounds = self._fixed_json
        b = repr(self.b)
        c = ", ".join(map(repr, self.c.tolist()))
        if "n" in b:
            b = json.dumps(self.b)
        if "n" in c:
            c = json.dumps(self.c.tolist())[1:-1]
        return (
            f'{{"affine_u": {{"b": {b}, "c": [{c}]}}, "affine_x": {{"a": [{a}], "b": {b}}}, '
            f'"cell": [{cell}], "x_bounds": [{bounds}]}}'
        )


def enumerate_regions(net: UReluNet, limit: int = DEFAULT_LIMIT) -> Iterator[PwlRegion]:
    """Yield every bounded cell (indices 1..q per dimension) in lexicographic order.

    Stops after `limit` cells, an integer (numpy's too, but not a bool) >= 0; use
    region_count to know the full total. The maps are built BLOCK cells at a time,
    and no block reaches past `limit`.
    """
    if isinstance(limit, bool) or not isinstance(limit, (int, np.integer)) or limit < 0:
        raise ValueError(f"limit must be an integer >= 0, not {limit}")
    tables = _CellTables(net)
    stop = min(limit, region_count(net))
    # per cell: its index tuple, x_bounds and the JSON text of its cell, a and x_bounds
    grid = zip(
        itertools.product(*tables.cells),
        itertools.product(*tables.bounds),
        zip(*(
            map(", ".join, itertools.product(*table))
            for table in (tables.cell_json, tables.slope_json, tables.bounds_json)
        )),
    )
    new = object.__new__
    for start in range(0, stop, BLOCK):
        A, b, C = tables.maps(start, min(start + BLOCK, stop))
        # A runs out first, so zip takes no cell of the next block from grid
        for a, b_cell, c, (cell, bounds, fixed_json) in zip(A, b, C, grid):
            # the fields PwlRegion's __init__ would set, and _fixed_json, in one update
            region = new(PwlRegion)
            region.__dict__.update(cell=cell, x_bounds=bounds, a=a, b=b_cell, c=c, _fixed_json=fixed_json)
            yield region


class _CellTables:
    """The network as n univariate pieces, tabulated per cell index k = 1..q.

    yhat = w0 + sum_i g_i(x_i), and on cell k of dimension i the piece g_i is
    slope[i, k] * x_i + offset[i, k] with the neurons j < k active:
    slope = sum_j w_ij and offset = -sum_j w_ij beta_ij, summed as Python
    floats. Column 0 of both arrays is unused, so a cell index reads its entry
    directly. The cell indices, slopes and bounds of cells 1..q are kept as
    JSON text too, so a region's export renders only its b and c.
    """

    def __init__(self, net: UReluNet):
        n, q = net.n, net.q
        w = net.w.tolist()
        self.w0 = w[0]
        self.V = net.V
        self.dims = np.arange(n)
        self.slope, self.offset = np.zeros((n, q + 1)), np.zeros((n, q + 1))
        self.bounds = []
        for i, (beta, x_max) in enumerate(zip(net.beta.tolist(), net.x_max.tolist())):
            a, b = 0.0, 0.0
            for k, (wij, bij) in enumerate(zip(w[1 + i * q : 1 + (i + 1) * q], beta), start=1):
                a += wij
                b -= wij * bij
                self.slope[i, k], self.offset[i, k] = a, b
            self.bounds.append(list(zip(beta, beta[1:] + [x_max])))
        self.q = q
        self.cells = [range(1, q + 1)] * n
        self.cell_json = [[str(k) for k in range(1, q + 1)]] * n
        self.slope_json = [[json.dumps(s) for s in slope] for slope in self.slope[:, 1:].tolist()]
        self.bounds_json = [[json.dumps(bd) for bd in bounds] for bounds in self.bounds]

    def maps(self, start: int, stop: int) -> tuple[np.ndarray, list[float], np.ndarray]:
        """The maps of the cells start..stop-1 in lexicographic order.

        Returns A (cells x n), b and C (cells x m). b adds w0 and each offset in
        dimension order, and np.matmul computes each row of C by the same
        matrix-vector product as one cell's V @ a (A @ V.T would be a matrix
        product, whose sums may run in another order), so every map keeps its
        bits whatever the block.
        """
        flat = np.arange(start, stop)
        K = np.empty((stop - start, len(self.dims)), dtype=np.intp)
        for i in reversed(self.dims):
            flat, K[:, i] = np.divmod(flat, self.q)
        K += 1
        A = self.slope[self.dims, K]
        # a Python-float sum never warns; inf + -inf is nan and a finite sum may overflow
        with np.errstate(invalid="ignore", over="ignore"):
            b = np.full(len(K), self.w0)
            for offset in self.offset[self.dims, K].T:
                b += offset
        return A, b.tolist(), np.matmul(self.V, A[:, :, None])[:, :, 0]


def region_count(net: UReluNet) -> int:
    """Number of bounded cells: q per dimension."""
    return net.q**net.n


def cond_diagnostics(U: np.ndarray, X: np.ndarray) -> tuple[float, float]:
    """2-norm condition numbers of the raw and transformed data matrices."""
    return _cond(np.asarray(U, dtype=float)), _cond(np.asarray(X, dtype=float))


def _cond(A: np.ndarray) -> float:
    if A.size == 0 or not np.any(A):
        raise ValueError("condition number of an empty or zero matrix is undefined")
    sv = np.linalg.svd(A, compute_uv=False)
    smax = float(sv[0])
    smin = float(sv[min(A.shape) - 1])
    if smin <= smax * np.finfo(float).eps * max(A.shape):
        return float("inf")
    return smax / smin
