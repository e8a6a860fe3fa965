"""Single-hidden-layer network on a data-derived knot grid: per dimension, one linear
neuron and univariate ReLU ramps."""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

import numpy as np

from .dataset import RegressorSpec


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
    matches one row's n x q differences exactly and broadcasts over a block
    of rows.
    """
    floor = np.zeros((n, q))
    floor[:, 0] = -np.inf
    floor.flags.writeable = False
    return floor


def build_B(X: np.ndarray, beta: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Neuron activations, columns ordered dimension-major, knot-minor.

    The first neuron of each dimension is linear, x_i - beta_i0; the others are
    ramps max(0, x_i - beta_ij). On the training data x_i >= beta_i0, so the
    two forms agree there; below the grid the linear neuron keeps the
    coordinate's linear term.

    X is N x n, or one row of length n, for which the activations come back
    as one vector of length n*q from a 2-D subtract and max; a free-run step
    takes that path.

    `out`, if given, is a Fortran-ordered N x (n*q) array (for example columns
    of a Fortran-ordered matrix handed to LAPACK) that receives the same values
    and is returned.
    """
    X = np.asarray(X, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if beta.ndim != 2:
        beta = np.atleast_2d(beta)
    n, q = beta.shape
    if X.ndim not in (1, 2) or X.shape[-1] != n:
        raise ValueError(f"beta has {n} rows, X has shape {X.shape}")
    floor = _activation_floor(n, q)
    if X.ndim == 1 and out is None:
        D = X[:, None] - beta
        return np.maximum(D, floor, out=D).reshape(n * q)
    X = np.atleast_2d(X)
    N = X.shape[0]
    if out is None:
        D = X[:, :, None] - beta
        return np.maximum(D, floor, out=D).reshape(N, n * q)
    if out.shape != (N, n * q) or not out.flags.f_contiguous:
        raise ValueError(f"out must be a Fortran-ordered {N} x {n * q} array")
    # out^T is C-ordered, so each neuron's column is one contiguous run
    D = out.T.reshape(n, q, N)
    np.subtract(np.ascontiguousarray(X.T)[:, None, :], beta[:, :, None], out=D)
    np.maximum(D, floor[:, :, None], out=D)
    return out


@dataclass(frozen=True)
class UReluNet:
    """Trained network: linear transform V, frozen knot grid beta, output weights w.

    The knot grid is derived from the training data and stored with the model;
    it is never recomputed at inference time.
    """

    V: np.ndarray
    q: int
    beta: np.ndarray
    w: np.ndarray
    x_min: np.ndarray
    x_max: np.ndarray
    regressor_spec: RegressorSpec | None = field(default=None, compare=False)

    def __post_init__(self):
        V = np.asarray(self.V, dtype=float)
        beta = np.atleast_2d(np.asarray(self.beta, dtype=float))
        w = np.asarray(self.w, dtype=float)
        x_min = np.asarray(self.x_min, dtype=float)
        x_max = np.asarray(self.x_max, dtype=float)
        if self.q < 2:
            raise ValueError("q must be >= 2")
        n = V.shape[1]
        if beta.shape != (n, self.q):
            raise ValueError(f"beta must be {n} x {self.q}, got {beta.shape}")
        if w.shape != (n * self.q + 1,):
            raise ValueError(f"w must have length n*q + 1 = {n * self.q + 1}, got {w.shape}")
        if x_min.shape != (n,) or x_max.shape != (n,):
            raise ValueError("x_min and x_max must be length-n vectors")
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "x_min", x_min)
        object.__setattr__(self, "x_max", x_max)

    @property
    def m(self) -> int:
        return self.V.shape[0]

    @property
    def n(self) -> int:
        return self.V.shape[1]

    def __call__(self, u: np.ndarray) -> float:
        """Evaluate the network at a single m-vector."""
        u = np.asarray(u, dtype=float)
        if u.shape != (self.V.shape[0],):
            raise ValueError(f"expected vector of length {self.V.shape[0]}, got shape {u.shape}")
        return float(forward(self, u))

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
            "x_min": [float(v) for v in self.x_min],
            "x_max": [float(v) for v in self.x_max],
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "UReluNet":
        doc = json.loads(text)
        missing = [k for k in ("m", "n", "q", "V", "beta", "w", "x_min", "x_max") if k not in doc]
        if missing:
            raise ValueError(f"model JSON has no field {', '.join(missing)}")
        m, n, q = int(doc["m"]), int(doc["n"]), int(doc["q"])
        spec = doc.get("regressor_spec")
        return cls(
            V=np.array(doc["V"], dtype=float).reshape(m, n),
            q=q,
            beta=np.array(doc["beta"], dtype=float).reshape(n, q),
            w=np.array(doc["w"], dtype=float),
            x_min=np.array(doc["x_min"], dtype=float),
            x_max=np.array(doc["x_max"], dtype=float),
            regressor_spec=(
                RegressorSpec(n_u=int(spec["n_u"]), n_y=int(spec["n_y"]))
                if spec is not None
                else None
            ),
        )


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
        x_min=X.min(axis=0),
        x_max=X.max(axis=0),
        regressor_spec=regressor_spec,
    )


def forward(net: UReluNet, U: np.ndarray) -> np.ndarray:
    """Evaluate the network on the rows of U: constant weight plus neuron combination.

    U is N x m, or one m-vector, for which the result is a scalar. The
    network's own arrays were checked when it was built and are used as they
    are: one m-vector takes a gemv for U V, build_B's one-row path and a ddot
    with the neuron weights.
    """
    B = build_B(np.asarray(U, dtype=float) @ net.V, net.beta)
    return net.w[0] + B @ net.w[1:]


def param_count(net: UReluNet) -> int:
    """Trainable parameters: V entries, neuron weights, and the constant weight.

    The knot grid (beta, s) is derived from data and not counted.
    """
    return net.m * net.n + net.n * net.q + 1
