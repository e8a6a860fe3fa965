"""NARX data handling: lagged regressor matrices, free-run simulation, error metrics, CSV I/O."""

from __future__ import annotations

import contextlib
import json
import math
import os
import stat
from dataclasses import dataclass
from pathlib import Path
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

    `model` maps an m-vector regressor to a scalar prediction; a model with a
    `free_run_step` method (`network.UReluNet`) is run through the step it
    hands out, any other callable as it is. Only the measured input and the
    seed values are used; beyond the seed window every output lag comes from
    the simulation itself. A non-finite value in `u_raw` or `y_init` raises
    ValueError naming the array and the index; a non-finite prediction raises
    `SimulationDiverged`.

    Step t reads row t of one (L + n_y) x m regressor matrix, whose input lags
    are filled before the loop; its output is written once into the n_y
    output-lag slots of rows t + 1 .. t + n_y. The row is a view into that
    matrix, valid for the one call: the model must not keep it.
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
    for name, values in (("u_raw", u), ("y_init", seed)):
        bad = ~np.isfinite(values)
        if bad.any():
            index = int(np.argmax(bad))
            raise ValueError(f"{name} has a non-finite value {float(values[index])!r} at index {index}")
    t0 = len(seed)  # >= max_lag, so every lag of the first step is in the record
    n_u1, n_y = spec.n_u + 1, spec.n_y
    # row t is [u(t), ..., u(t - n_u), y(t - 1), ..., y(t - n_y)]; rows before t0
    # are never read, and the n_y rows past the record take the last outputs' writes
    P = np.zeros((L + n_y, spec.m))
    for j in range(n_u1):
        P[j:L, j] = u[: L - j]
    # slots[t] is y(t)'s place in rows t + 1 .. t + n_y: P[t + 1 + k, n_u + 1 + k]
    row_stride, col_stride = P.strides
    slots = np.lib.stride_tricks.as_strided(
        P[1:, n_u1:], shape=(L, n_y), strides=(row_stride, row_stride + col_stride)
    )
    slots[:t0] = seed[:, None]
    step = model.free_run_step() if hasattr(model, "free_run_step") else model
    for t, row, out in zip(range(t0, L), P[t0:L], slots[t0:L]):
        val = float(step(row))
        if not math.isfinite(val):
            raise SimulationDiverged(t)
        out.fill(val)
    # y(t) sits in row t + 1's first output lag
    return P[1 : L + 1, n_u1].copy()


def score_free_run(model, data: TimeSeriesData, spec: RegressorSpec):
    """(rmse, None) of `model`'s free run on `data` from its first `spec.max_lag` outputs,
    or (None, index) when it diverges: a non-finite prediction, or a run too large to square or sum."""
    seed_len = spec.max_lag
    try:
        y_s = simulate_free_run(model, data.u, data.y[:seed_len], spec)
    except SimulationDiverged as exc:
        return None, exc.index
    with np.errstate(over="ignore"):
        value = rmse(data.y[seed_len:], y_s[seed_len:])
        if np.isfinite(value):
            return value, None
        sq_err = (data.y[seed_len:] - y_s[seed_len:]) ** 2
        bad = ~np.isfinite(sq_err)
        if not bad.any():  # every square is finite, only their sum overflows
            bad = ~np.isfinite(np.cumsum(sq_err))
    return None, seed_len + int(np.argmax(bad))


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
    """Express an RMSE as 20*log10(RMSE) decibels; an exact fit, RMSE 0, is -inf dB."""
    if not value >= 0:  # NaN fails too
        raise ValueError(f"rmse must be >= 0 for a dB conversion, not {value}")
    return 20.0 * math.log10(value) if value > 0 else -math.inf


def is_finite_number(value, integer: bool = False) -> bool:
    """Whether a value read from JSON is a number that is finite as a double, and with
    `integer` also an integer: a bool, NaN, an infinity and an integer beyond the double
    range are not. The JSON readers of the config, parameter and model files all use it."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a double
        return False


def parse_json_object(text: str | bytes, where: str) -> dict:
    """The JSON object in `text` (or in the bytes of a file, decoded as UTF-8), as the
    config, parameter and model readers parse it: an error of the decode or of the parse
    (bad syntax, an integer over Python's digit limit, nesting too deep to recurse) or a
    document that is not an object raises one ValueError that starts with `where`."""
    try:
        doc = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise ValueError(f"{where}: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must hold a JSON object")
    return doc


def load_csv(path) -> TimeSeriesData:
    """Load a two-column (u, y) CSV; a single non-numeric header line and a leading
    UTF-8 byte-order mark are allowed.

    Every value must be finite: a nan or inf is rejected with its line, rather
    than read in and later mistaken for a diverged free run.
    """
    rows: list[tuple[float, float]] = []
    with open(path, "r", encoding="utf-8-sig") as fh:
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


def remove_output(path, opened: os.stat_result | None = None) -> None:
    """Remove what a failed write left at `path` if `path` itself is a regular file and,
    given `opened` (the `os.fstat` of the descriptor the writer opened), still that file:
    a partial file would pass for a whole one, but a symlink, a pipe or a device is not
    the writer's to remove. An OSError is suppressed, so that the write's error stands."""
    with contextlib.suppress(OSError):
        st = os.lstat(path)
        if not stat.S_ISREG(st.st_mode):
            return
        if opened is not None and (st.st_dev, st.st_ino) != (opened.st_dev, opened.st_ino):
            return
        Path(path).unlink()


@contextlib.contextmanager
def open_output(path):
    """`path` opened for writing UTF-8 text, for the body of a `with`. If the body or the
    close fails, `remove_output` is given the file that was opened, and an OSError that
    names no file (a full disk) is given `path`."""
    fh = open(path, "w", encoding="utf-8")
    opened = None
    try:
        with fh:
            opened = os.fstat(fh.fileno())
            yield fh
    except BaseException as exc:
        remove_output(path, opened)
        if isinstance(exc, OSError) and exc.filename is None:
            exc.filename = str(path)
        raise


def save_csv(path, data: TimeSeriesData) -> None:
    """Write a (u, y) series as headerless CSV with full float precision; a failed
    write leaves no file (`open_output`)."""
    with open_output(path) as fh:
        for ui, yi in zip(data.u, data.y):
            fh.write(f"{float(ui)!r},{float(yi)!r}\n")
