"""Interpretability: the trained network is affine on axis-aligned cells of the knot
grid; this module locates, evaluates, and enumerates those cells."""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
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
                "affine_x": {"a": [float(v) for v in self.a], "b": self.b},
                "affine_u": {"c": [float(v) for v in self.c], "b": self.b},
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
    """The exact affine map on one cell: active neuron weights summed per dimension.

    The first neuron of each dimension is linear, so it is active in every
    cell; cell 0 therefore has the same map as cell 1 in that dimension.
    """
    cell = tuple(int(k) for k in cell)
    if len(cell) != net.n:
        raise ValueError(f"cell must have {net.n} indices")
    q = net.q
    a = np.zeros(net.n)
    b = float(net.w[0])
    bounds = []
    for i, k in enumerate(cell):
        if not 0 <= k <= q:
            raise ValueError(f"cell index {k} out of range 0..{q} in dimension {i}")
        wi = net.w[1 + i * q : 1 + (i + 1) * q]
        active = max(k, 1)
        a[i] = float(np.sum(wi[:active]))
        b -= float(np.sum(wi[:active] * net.beta[i, :active]))
        lo = -np.inf if k == 0 else float(net.beta[i, k - 1])
        hi = float(net.beta[i, k]) if k < q else float(net.x_max[i])
        bounds.append((lo, hi))
    return PwlRegion(cell=cell, x_bounds=tuple(bounds), a=a, b=b, c=net.V @ a)


def enumerate_regions(net: UReluNet, limit: int = 1_000_000) -> Iterator[PwlRegion]:
    """Yield every bounded cell (indices 1..q per dimension) in lexicographic order.

    Stops after `limit` cells; use region_count to know the full total.
    """
    for count, cell in enumerate(
        itertools.product(range(1, net.q + 1), repeat=net.n)
    ):
        if count >= limit:
            return
        yield affine_in_region(net, cell)


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
