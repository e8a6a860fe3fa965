"""NARX data handling: lagged regressor matrices, free-run simulation, error metrics, CSV I/O."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


class SimulationDiverged(RuntimeError):
    """Free-run simulation produced a non-finite prediction."""

    def __init__(self, index: int):
        super().__init__(f"free-run simulation diverged at index {index}")
        self.index = index


@dataclass(frozen=True)
class TimeSeriesData:
    """A single-input single-output record sampled at a fixed rate."""

    u: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if u.ndim != 1 or y.ndim != 1:
            raise ValueError("u and y must be one-dimensional")
        if len(u) != len(y):
            raise ValueError(f"u and y lengths differ: {len(u)} vs {len(y)}")
        if len(u) < 1:
            raise ValueError("series must contain at least one sample")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return len(self.u)


@dataclass(frozen=True)
class RegressorSpec:
    """Lag structure of the regression vector.

    The regressor is [u(t), u(t-1), ..., u(t-n_u), y(t-1), ..., y(t-n_y)],
    so its dimension is m = n_u + n_y + 1.
    """

    n_u: int
    n_y: int

    def __post_init__(self):
        if self.n_u < 0:
            raise ValueError("n_u must be >= 0")
        if self.n_y < 1:
            raise ValueError("n_y must be >= 1")

    @property
    def m(self) -> int:
        return self.n_u + self.n_y + 1

    @property
    def max_lag(self) -> int:
        return max(self.n_u, self.n_y)


@dataclass(frozen=True)
class RegressionDataset:
    """Regressor matrix U (one row per usable time index) and target vector y."""

    U: np.ndarray
    y: np.ndarray
    spec: RegressorSpec

    def __post_init__(self):
        U = np.asarray(self.U, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if U.ndim != 2 or y.ndim != 1 or U.shape[0] != len(y):
            raise ValueError("U must be N x m with matching target length")
        if U.shape[1] != self.spec.m:
            raise ValueError(f"U has {U.shape[1]} columns, spec requires {self.spec.m}")
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "y", y)

    @property
    def n_samples(self) -> int:
        return len(self.y)

    @property
    def m(self) -> int:
        return self.U.shape[1]


def build_regressors(data: TimeSeriesData, spec: RegressorSpec) -> RegressionDataset:
    """Build the lagged regressor matrix and aligned target vector.

    Row t holds [u(t), u(t-1), ..., u(t-n_u), y(t-1), ..., y(t-n_y)] and the
    target is y(t), for t = max(n_u, n_y) .. len-1.
    """
    L = len(data)
    t0 = spec.max_lag
    if L <= t0:
        raise ValueError(
            f"series too short: {L} samples, need at least {t0 + 1} for "
            f"n_u={spec.n_u}, n_y={spec.n_y}"
        )
    N = L - t0
    cols = []
    for j in range(spec.n_u + 1):
        cols.append(data.u[t0 - j : L - j])
    for j in range(1, spec.n_y + 1):
        cols.append(data.y[t0 - j : L - j])
    U = np.column_stack(cols)
    y = data.y[t0:L].copy()
    if not np.all(np.isfinite(U)) or not np.all(np.isfinite(y)):
        raise ValueError("regressor matrix contains non-finite values")
    return RegressionDataset(U=U, y=y, spec=spec)


def simulate_free_run(
    model: Callable[[np.ndarray], float],
    u_raw: Sequence[float],
    y_init: Sequence[float],
    spec: RegressorSpec,
) -> np.ndarray:
    """Run the model recursively on its own past outputs.

    `model` maps an m-vector regressor to a scalar prediction. Only the
    measured input and the seed values are used; beyond the seed window every
    output lag comes from the simulation itself.
    """
    u = np.asarray(u_raw, dtype=float)
    seed = np.asarray(y_init, dtype=float)
    need = spec.max_lag
    if len(seed) < need:
        raise ValueError(
            f"y_init must provide at least max(n_u, n_y) = {need} seed values, got {len(seed)}"
        )
    L = len(u)
    if len(seed) > L:
        raise ValueError("y_init longer than the input series")
    y_s = np.empty(L)
    y_s[: len(seed)] = seed
    t0 = max(spec.n_u, len(seed))
    phi = np.empty(spec.m)
    phi_u = phi[: spec.n_u + 1]
    phi_y = phi[spec.n_u + 1 :]
    # reversed views: with r = L - 1 - t, u(t), ..., u(t - n_u) is u_rev[r : r + n_u + 1]
    # and y(t - 1), ..., y(t - n_y) is y_rev[r + 1 : r + 1 + n_y]
    u_rev = u[::-1]
    y_rev = y_s[::-1]
    n_u1, n_y1 = spec.n_u + 1, spec.n_y + 1
    for r in range(L - 1 - t0, -1, -1):
        phi_u[...] = u_rev[r : r + n_u1]
        phi_y[...] = y_rev[r + 1 : r + n_y1]
        val = float(model(phi))
        if not math.isfinite(val):
            raise SimulationDiverged(L - 1 - r)
        y_rev[r] = val
    return y_s


def rmse(y: Sequence[float], y_s: Sequence[float]) -> float:
    """Root mean square error between two equal-length sequences."""
    a = np.asarray(y, dtype=float)
    b = np.asarray(y_s, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    if len(a) < 1:
        raise ValueError("need at least one sample")
    return float(np.sqrt(np.mean((a - b) ** 2)))


def rmse_db(value: float) -> float:
    """Express an RMSE as 20*log10(RMSE) decibels."""
    if value <= 0:
        raise ValueError("rmse must be positive for a dB conversion")
    return float(20.0 * np.log10(value))


def load_csv(path) -> TimeSeriesData:
    """Load a two-column (u, y) CSV; a single non-numeric header line is allowed.

    Every value must be finite: a nan or inf is rejected with its line, rather
    than read in and later mistaken for a diverged free run.
    """
    rows: list[tuple[float, float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 2 columns, got {len(parts)}")
            try:
                row = (float(parts[0]), float(parts[1]))
            except ValueError:
                if lineno == 1 and not rows:
                    continue  # header line
                raise ValueError(f"{path}:{lineno}: malformed row {line!r}") from None
            if not (math.isfinite(row[0]) and math.isfinite(row[1])):
                raise ValueError(f"{path}:{lineno}: non-finite value in row {line!r}")
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    u = np.array([r[0] for r in rows])
    y = np.array([r[1] for r in rows])
    return TimeSeriesData(u=u, y=y)


def save_csv(path, data: TimeSeriesData) -> None:
    """Write a (u, y) series as headerless CSV with full float precision."""
    with open(path, "w", encoding="utf-8") as fh:
        for ui, yi in zip(data.u, data.y):
            fh.write(f"{float(ui)!r},{float(yi)!r}\n")
