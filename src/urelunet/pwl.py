"""Interpretability: the trained network is affine on axis-aligned cells of the knot
grid; this module locates, evaluates, and enumerates those cells."""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from operator import getitem
from typing import Iterator

import numpy as np

from .network import UReluNet


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

    def evaluate_x(self, x: np.ndarray) -> float:
        return float(self.a @ np.asarray(x, dtype=float) + self.b)

    def evaluate_u(self, u: np.ndarray) -> float:
        return float(self.c @ np.asarray(u, dtype=float) + self.b)

    def to_json(self) -> str:
        return json.dumps(
            {
                "cell": list(self.cell),
                "x_bounds": [list(bd) for bd in self.x_bounds],
                "affine_x": {"a": self.a.tolist(), "b": self.b},
                "affine_u": {"c": self.c.tolist(), "b": self.b},
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "PwlRegion":
        doc = json.loads(text)
        return cls(
            cell=tuple(doc["cell"]),
            x_bounds=tuple((bd[0], bd[1]) for bd in doc["x_bounds"]),
            a=np.array(doc["affine_x"]["a"], dtype=float),
            b=float(doc["affine_x"]["b"]),
            c=np.array(doc["affine_u"]["c"], dtype=float),
        )


def region_of(net: UReluNet, x: np.ndarray) -> tuple[int, ...]:
    """Cell index of a point in x-space.

    Per dimension, index j means beta_ij <= x_i < beta_i,j+1 (left-closed),
    index q covers everything at or above the last knot, and index 0 is the
    extrapolation cell below the first knot.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (net.n,):
        raise ValueError(f"expected point of length {net.n}, got shape {x.shape}")
    return tuple(
        int(np.searchsorted(net.beta[i], x[i], side="right")) for i in range(net.n)
    )


def affine_in_region(net: UReluNet, cell) -> PwlRegion:
    """The exact affine map on one cell, a sum of one piece per dimension.

    The first neuron of each dimension is linear, so it is active in every
    cell; cell 0 therefore has the same map as cell 1 in that dimension.
    """
    cell = tuple(int(k) for k in cell)
    if len(cell) != net.n:
        raise ValueError(f"cell must have {net.n} indices")
    for i, k in enumerate(cell):
        if not 0 <= k <= net.q:
            raise ValueError(f"cell index {k} out of range 0..{net.q} in dimension {i}")
    return _cell_map(_CellTables(net), cell)


def enumerate_regions(net: UReluNet, limit: int = 1_000_000) -> Iterator[PwlRegion]:
    """Yield every bounded cell (indices 1..q per dimension) in lexicographic order.

    Stops after `limit` cells; use region_count to know the full total.
    """
    tables = _CellTables(net)
    cells = itertools.product(range(1, net.q + 1), repeat=net.n)
    for cell in itertools.islice(cells, max(limit, 0)):
        yield _cell_map(tables, cell)


class _CellTables:
    """The network as n univariate pieces, tabulated per cell index k = 0..q.

    yhat = w0 + sum_i g_i(x_i), and on cell k of dimension i the piece g_i is
    slope[i][k] * x_i + offset[i][k] with the neurons j < max(k, 1) active:
    slope = sum_j w_ij and offset = -sum_j w_ij beta_ij. The entries are
    Python floats, so a cell's map is a handful of list reads.
    """

    def __init__(self, net: UReluNet):
        q = net.q
        w = net.w.tolist()
        self.w0 = w[0]
        self.V = net.V
        self.slope, self.offset, self.bounds = [], [], []
        for i, (beta, x_max) in enumerate(zip(net.beta.tolist(), net.x_max.tolist())):
            slope, offset, a, b = [], [], 0.0, 0.0
            for wij, bij in zip(w[1 + i * q : 1 + (i + 1) * q], beta):
                a += wij
                b -= wij * bij
                slope.append(a)
                offset.append(b)
            # cell 0 lies below the first knot, where only the linear neuron acts
            self.slope.append(slope[:1] + slope)
            self.offset.append(offset[:1] + offset)
            self.bounds.append(list(zip([-math.inf] + beta, beta + [x_max])))


def _cell_map(tables: _CellTables, cell: tuple[int, ...]) -> PwlRegion:
    """The region of `cell`, summed from the per-dimension tables."""
    a = np.array(list(map(getitem, tables.slope, cell)))
    b = tables.w0
    for offset in map(getitem, tables.offset, cell):
        b += offset
    bounds = tuple(map(getitem, tables.bounds, cell))
    return PwlRegion(cell=cell, x_bounds=bounds, a=a, b=b, c=tables.V @ a)


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
