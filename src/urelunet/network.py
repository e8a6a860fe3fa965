"""Single-hidden-layer network on a data-derived knot grid: per dimension, one linear
neuron and univariate ReLU ramps."""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .dataset import RegressorSpec, is_finite_number, parse_json_object


def transform(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Project the N x m input matrix through the m x n linear transform: X = U V."""
    U = np.atleast_2d(np.asarray(U, dtype=float))
    V = np.asarray(V, dtype=float)
    if U.shape[1] != V.shape[0]:
        raise ValueError(f"inner dimensions disagree: U has {U.shape[1]} columns, V has {V.shape[0]} rows")
    return U @ V


def knot_fractions(q: int) -> np.ndarray:
    """The fixed grid [0, 1/q, ..., (q-1)/q]."""
    if q < 2:
        raise ValueError("q must be >= 2")
    return np.arange(q) / q


def bias_grid(X: np.ndarray, q: int) -> np.ndarray:
    """Per-dimension knot positions spanning the observed range of each column of X.

    Row i is min(x_i) + (max(x_i) - min(x_i)) * [0, 1/q, ..., (q-1)/q]. A
    constant column yields a constant row.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] < 1:
        raise ValueError("X must have at least one row")
    s = knot_fractions(q)
    # reductions along contiguous rows; numpy's column-wise min of a tall,
    # narrow array is over ten times slower than the copy
    Xt = np.ascontiguousarray(X.T)
    lo = Xt.min(axis=1)
    hi = Xt.max(axis=1)
    return lo[:, None] + (hi - lo)[:, None] * s[None, :]


@functools.lru_cache(maxsize=16)
def _activation_floor(n: int, q: int) -> np.ndarray:
    """Read-only n x q floor, -inf for knot 0 and 0 elsewhere.

    The max with it keeps the first neuron linear and ramps the rest. It
    matches one row's n x q differences exactly, and with a trailing axis a
    block's n x q x N differences.
    """
    floor = np.zeros((n, q))
    floor[:, 0] = -np.inf
    floor.flags.writeable = False
    return floor


def build_B(X: np.ndarray, beta: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Neuron activations on the n x q knot grid beta, columns dimension-major, knot-minor.

    The first neuron of each dimension is linear, x_i - beta_i0; the others are
    ramps max(0, x_i - beta_ij). On the training data x_i >= beta_i0, so the
    two forms agree there; below the grid the linear neuron keeps the
    coordinate's linear term.

    X is an N x n block; `forward` evaluates a single row on its own. The result
    is a Fortran-ordered N x (n*q) array, allocated here, or `out` if given (for
    example columns of a Fortran-ordered matrix handed to LAPACK).
    """
    X = np.asarray(X, dtype=float)
    beta = np.asarray(beta, dtype=float)
    n, q = beta.shape
    if X.ndim != 2 or X.shape[1] != n:
        raise ValueError(f"beta has {n} rows, X has shape {X.shape}")
    N = X.shape[0]
    if out is None:
        out = np.empty((N, n * q), order="F")
    elif out.shape != (N, n * q) or not out.flags.f_contiguous:
        raise ValueError(f"out must be a Fortran-ordered {N} x {n * q} array")
    # out^T is C-ordered, so each neuron's column is one contiguous run
    D = out.T.reshape(n, q, N)
    np.subtract(np.ascontiguousarray(X.T)[:, None, :], beta[:, :, None], out=D)
    np.maximum(D, _activation_floor(n, q)[:, :, None], out=D)
    return out


@dataclass(frozen=True)
class UReluNet:
    """Trained network: linear transform V, frozen knot grid beta, output weights w.

    The knot grid is derived from the training data and stored with the model;
    it is never recomputed at inference time. Its first column beta[:, 0] is the
    bottom of each dimension's training range, x_max the top.

    Calling the net evaluates one m-vector with its shape checked;
    `free_run_step` hands a free run an unchecked step with scratch of its own.
    """

    V: np.ndarray
    q: int
    beta: np.ndarray
    w: np.ndarray
    x_max: np.ndarray
    regressor_spec: RegressorSpec | None = field(default=None, compare=False)

    def __post_init__(self):
        V = np.asarray(self.V, dtype=float)
        beta = np.atleast_2d(np.asarray(self.beta, dtype=float))
        w = np.asarray(self.w, dtype=float)
        x_max = np.asarray(self.x_max, dtype=float)
        if self.q < 2:
            raise ValueError("q must be >= 2")
        n = V.shape[1]
        if beta.shape != (n, self.q):
            raise ValueError(f"beta must be {n} x {self.q}, got {beta.shape}")
        if w.shape != (n * self.q + 1,):
            raise ValueError(f"w must have length n*q + 1 = {n * self.q + 1}, got {w.shape}")
        if x_max.shape != (n,):
            raise ValueError("x_max must be a length-n vector")
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "x_max", x_max)

    @property
    def m(self) -> int:
        return self.V.shape[0]

    @property
    def n(self) -> int:
        return self.V.shape[1]

    def __call__(self, u: np.ndarray) -> float:
        """Evaluate the network at a single m-vector, on scratch of its own."""
        u = np.asarray(u, dtype=float)
        if u.shape != (self.V.shape[0],):
            raise ValueError(f"expected vector of length {self.V.shape[0]}, got shape {u.shape}")
        return float(forward(self, u))

    def free_run_step(self) -> Callable[[np.ndarray], np.float64]:
        """The network as one free run's step: a function of a float m-vector.

        The step owns its scratch (`step_scratch`), so two steps of one net may
        be used side by side, but one step serves one free run at a time. It
        checks nothing; `__call__` is the checked entry. Each call goes through
        the module's `forward`.
        """
        work = step_scratch(self)
        return lambda u: forward(self, u, work)

    def to_json(self) -> str:
        doc = {
            "m": self.m,
            "n": self.n,
            "q": self.q,
            "V": [float(v) for v in self.V.ravel(order="C")],
            "beta": [float(b) for b in self.beta.ravel(order="C")],
            "w": [float(wi) for wi in self.w],
            "regressor_spec": (
                {"n_u": self.regressor_spec.n_u, "n_y": self.regressor_spec.n_y}
                if self.regressor_spec is not None
                else None
            ),
            "x_max": [float(v) for v in self.x_max],
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str | bytes) -> "UReluNet":
        """Read a model that `to_json` wrote; keys it does not write are ignored.

        Text that `dataset.parse_json_object` rejects, a missing field, an m or n that is
        not an integer >= 1 or a q that is not an integer >= 2, a V, beta, w or x_max that
        is not a list of m*n, n*q, n*q + 1 or n entries, an entry of them that is not a
        number finite as a double (`dataset.is_finite_number`), a
        regressor_spec other than null or integer lags that `RegressorSpec` accepts with
        n_u + n_y + 1 = m, and a knot row [beta_i, x_max_i] that decreases raise
        ValueError naming the field."""
        doc = parse_json_object(text, "model JSON")
        missing = [k for k in ("m", "n", "q", "V", "beta", "w", "x_max") if k not in doc]
        if missing:
            raise ValueError(f"model JSON has no field {', '.join(missing)}")
        for key, low in (("m", 1), ("n", 1), ("q", 2)):  # before a reshape infers a -1
            if not is_finite_number(doc[key], integer=True) or doc[key] < low:
                raise ValueError(f"model field {key!r} takes an integer >= {low}, not {doc[key]!r}")
        m, n, q = doc["m"], doc["n"], doc["q"]
        sizes = (("V", "m*n", m * n), ("beta", "n*q", n * q), ("w", "n*q + 1", n * q + 1), ("x_max", "n", n))
        for key, rule, size in sizes:
            value = doc[key]
            if not isinstance(value, list) or len(value) != size:
                got = f"a list of {len(value)}" if isinstance(value, list) else repr(value)
                raise ValueError(f"model field {key!r} takes a list of {rule} = {size} numbers, not {got}")
            for v in value:
                if not is_finite_number(v):
                    raise ValueError(f"model field {key!r} takes finite numbers, not {v!r}")
        raw, spec = doc.get("regressor_spec"), None
        if raw is not None:
            lags = (raw.get("n_u"), raw.get("n_y")) if isinstance(raw, dict) else (None, None)
            try:
                if not all(is_finite_number(v, integer=True) for v in lags):
                    raise ValueError("n_u and n_y must be integers")
                spec = RegressorSpec(*lags)
                if spec.m != m:
                    raise ValueError(f"n_u + n_y + 1 must equal m = {m}")
            except ValueError as exc:
                shown = json.dumps(raw)
                raise ValueError(f"model field 'regressor_spec' takes null or lags, not {shown}: {exc}") from None
        net = cls(
            V=np.array(doc["V"], dtype=float).reshape(m, n),
            q=q,
            beta=np.array(doc["beta"], dtype=float).reshape(n, q),
            w=np.array(doc["w"], dtype=float),
            x_max=np.array(doc["x_max"], dtype=float),
            regressor_spec=spec,
        )
        falls = (np.diff(np.column_stack([net.beta, net.x_max]), axis=1) < 0).any(axis=1)
        if falls.any():
            raise ValueError(f"model knot row {int(np.argmax(falls))} of [beta, x_max] decreases")
        return net


def make_net(
    V: np.ndarray,
    q: int,
    w: np.ndarray,
    X: np.ndarray,
    regressor_spec: RegressorSpec | None = None,
) -> UReluNet:
    """Construct a network with the knot grid frozen from the given intermediate data X."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return UReluNet(
        V=V,
        q=q,
        beta=bias_grid(X, q),
        w=w,
        x_max=X.max(axis=0),
        regressor_spec=regressor_spec,
    )


def step_scratch(net: UReluNet) -> tuple:
    """Buffers and operands of the one-vector `forward`, read from the net's fields.

    The tuple is (x, x as an n x 1 column, D, D flattened, V, beta, the
    activation floor, w[1:], float(w[0])); x and D are fresh n- and n x q
    buffers that each call overwrites.
    """
    n, q = net.beta.shape
    x = np.empty(n)
    D = np.empty((n, q))
    return (x, x[:, None], D, D.reshape(-1), net.V, net.beta, _activation_floor(n, q), net.w[1:], float(net.w[0]))


def forward(net: UReluNet, U: np.ndarray, work: tuple | None = None) -> np.ndarray:
    """Evaluate the network on the rows of U: constant weight plus neuron combination.

    U is N x m, or one m-vector, for which the result is a scalar. The
    network's own arrays were checked when it was built and are used as they
    are. One m-vector (a free-run step) takes a gemv for u V, a subtract of
    beta, a max with the activation floor and a ddot with the neuron weights,
    the first three written with `out=` into `work` (`step_scratch`, fresh
    when not given); these are the operations of build_B on a 1 x n row, so
    the bits are those of a one-row block. With `work` given, U must be a float
    m-vector and is not converted or checked: `UReluNet.free_run_step` passes
    its own.
    """
    if work is None:
        U = np.asarray(U, dtype=float)
        if U.ndim != 1:
            return net.w[0] + build_B(U @ net.V, net.beta) @ net.w[1:]
        work = step_scratch(net)
    x, x_col, D, D_flat, V, beta, floor, neuron_w, w0 = work
    np.dot(U, V, out=x)
    np.subtract(x_col, beta, out=D)
    np.maximum(D, floor, out=D)
    return w0 + np.dot(D_flat, neuron_w)


def param_count(net: UReluNet) -> int:
    """Trainable parameters: V entries, neuron weights, and the constant weight.

    The knot grid (beta, s) is derived from data and not counted.
    """
    return net.m * net.n + net.n * net.q + 1
