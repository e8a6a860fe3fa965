"""Interpretability: the trained network is affine on axis-aligned cells of the knot
grid; this module enumerates those cells."""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from operator import getitem
from typing import Iterator

import numpy as np

from .network import UReluNet


# the most cells one pass yields unless the caller sets its own limit
DEFAULT_LIMIT = 1_000_000


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
    # the JSON text of the list items of cell, a and x_bounds; only _cell_map sets
    # it, from the network's tables. It is not an init field, so a region built by
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

    Stops after `limit` cells; use region_count to know the full total.
    """
    tables = _CellTables(net)
    cells = itertools.product(range(1, net.q + 1), repeat=net.n)
    for cell in itertools.islice(cells, limit):
        yield _cell_map(tables, cell)


class _CellTables:
    """The network as n univariate pieces, tabulated per cell index k = 1..q.

    yhat = w0 + sum_i g_i(x_i), and on cell k of dimension i the piece g_i is
    slope[i][k] * x_i + offset[i][k] with the neurons j < k active:
    slope = sum_j w_ij and offset = -sum_j w_ij beta_ij. Entry 0 of each table
    is unused, so a cell index reads its entry directly. The entries are Python
    floats, so a cell's map is a handful of list reads. The slopes and bounds
    are kept as JSON text too, so a region's export renders only its b and c.
    """

    def __init__(self, net: UReluNet):
        q = net.q
        w = net.w.tolist()
        self.w0 = w[0]
        self.V = net.V
        self.slope, self.offset, self.bounds = [], [], []
        for i, (beta, x_max) in enumerate(zip(net.beta.tolist(), net.x_max.tolist())):
            slope, offset, a, b = [None], [None], 0.0, 0.0
            for wij, bij in zip(w[1 + i * q : 1 + (i + 1) * q], beta):
                a += wij
                b -= wij * bij
                slope.append(a)
                offset.append(b)
            self.slope.append(slope)
            self.offset.append(offset)
            self.bounds.append([None] + list(zip(beta, beta[1:] + [x_max])))
        self.slope_json = [[None] + [json.dumps(s) for s in slope[1:]] for slope in self.slope]
        self.bounds_json = [[None] + [json.dumps(bd) for bd in bounds[1:]] for bounds in self.bounds]


def _cell_map(tables: _CellTables, cell: tuple[int, ...]) -> PwlRegion:
    """The region of `cell`, summed from the per-dimension tables."""
    a = np.array(list(map(getitem, tables.slope, cell)))
    b = tables.w0
    for offset in map(getitem, tables.offset, cell):
        b += offset
    bounds = tuple(map(getitem, tables.bounds, cell))
    region = PwlRegion(cell=cell, x_bounds=bounds, a=a, b=b, c=tables.V @ a)
    object.__setattr__(region, "_fixed_json", (
        ", ".join(map(str, cell)),
        ", ".join(map(getitem, tables.slope_json, cell)),
        ", ".join(map(getitem, tables.bounds_json, cell)),
    ))
    return region


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
