"""Variable-projection training: closed-form weights, analytic basis derivatives,
the exact Golub-Pereyra Jacobian, and a Levenberg-Marquardt loop over the transform."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .dataset import RegressionDataset
from .network import UReluNet, bias_grid, build_B, knot_fractions, make_net, transform

PINV_RCOND = 1e-10

# Levenberg-Marquardt: the starting damping, the factor that multiplies it on a
# rejected trial and divides it on an accepted one, and the stops on the
# gradient's largest entry and on the step norm.
LM_LAMBDA0 = 1e-3
LM_FACTOR = 10.0
GRAD_TOL = 1e-10
STEP_TOL = 1e-12


@dataclass
class TrainReport:
    iterations: int
    residual_history: list[float]
    final_rmse_db: float
    accepted: int
    rejected: int
    status: str

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    def history_csv(self) -> str:
        lines = ["iteration,squared_residual"]
        lines += [f"{i},{v!r}" for i, v in enumerate(self.residual_history)]
        return "\n".join(lines) + "\n"


def _augmented_pinv(B: np.ndarray):
    """The augmented basis [1, B], its pseudo-inverse and its rank.

    Singular values at or below PINV_RCOND times the largest are dropped, so a
    rank-deficient basis gets the minimum-norm solution.
    """
    Btil = np.column_stack([np.ones(B.shape[0]), B])
    u, sv, vt = np.linalg.svd(Btil, full_matrices=False)
    keep = sv > PINV_RCOND * sv.max()
    inv = np.zeros_like(sv)
    inv[keep] = 1.0 / sv[keep]
    return Btil, vt.T @ (inv[:, None] * u.T), int(keep.sum())


def solve_weights(B: np.ndarray, y: np.ndarray):
    """Minimum-norm least-squares weights for the augmented basis [1, B].

    Returns (w, rank); w[0] is the constant weight. Training solves for its
    weights with the same pseudo-inverse.
    """
    B = np.atleast_2d(np.asarray(B, dtype=float))
    y = np.asarray(y, dtype=float)
    if B.shape[0] != len(y):
        raise ValueError("row count of B must match length of y")
    _, pinv, rank = _augmented_pinv(B)
    return pinv @ y, rank


@dataclass(frozen=True)
class BasisDerivative:
    """Sparse structure of d[B]/d[V] for the uniform knot grid.

    The derivative of column (i, j) of B with respect to v_st is zero unless
    t == i; for active samples it equals u_s(k) - dbeta[s, i, j] where
    dbeta[s, i, j] = s_j * (u_s(k_max,i) - u_s(k_min,i)) + u_s(k_min,i).
    """

    mask: np.ndarray  # (N, n, q) activation pattern x_i(k) - beta_ij > 0
    dbeta: np.ndarray  # (m, n, q) knot sensitivities
    U: np.ndarray

    def column(self, s: int, t: int) -> np.ndarray:
        """Dense N x (n*q) derivative of B with respect to v_st."""
        N, n, q = self.mask.shape
        D = np.zeros((N, n * q))
        block = self.mask[:, t, :] * (self.U[:, s][:, None] - self.dbeta[s, t, :][None, :])
        D[:, t * q : (t + 1) * q] = block
        return D


def _basis_derivative(U: np.ndarray, X: np.ndarray, beta: np.ndarray):
    """Activation mask (N, n, q) and knot sensitivities dbeta (m, n, q) at X = U V.

    Knot j of dimension i sits at x_i(k_min) + s_j (x_i(k_max) - x_i(k_min)),
    where k_min and k_max are the samples holding that dimension's extremes
    (the lowest index on ties), so it moves with V through those two samples.

    The mask also covers column (i, 0), although that neuron is linear. On the
    data that define the grid this is exact: x_i >= beta_i0 everywhere, and at
    k_min, where the mask is off, the derivative u(k_min) - dbeta[:, i, 0] is
    exactly 0. Unmasking the column would change the rounding of the Jacobian.
    """
    mask = (X[:, :, None] - beta[None, :, :]) > 0.0
    Umin = U[np.argmin(X, axis=0), :].T  # (m, n)
    Umax = U[np.argmax(X, axis=0), :].T
    s = knot_fractions(beta.shape[1])
    dbeta = s[None, None, :] * (Umax - Umin)[:, :, None] + Umin[:, :, None]
    return mask, dbeta


def dB_dV(V: np.ndarray, dataset: RegressionDataset, q: int) -> BasisDerivative:
    """Analytic derivative structure of the basis with respect to V, with q knots.

    The knot grid is treated as a function of V (recomputed from X = U V), so
    each knot moves with the per-dimension min and max samples. `vp_jacobian`
    builds its Jacobian from this same derivative.
    """
    X = transform(dataset.U, V)
    mask, dbeta = _basis_derivative(dataset.U, X, bias_grid(X, q))
    return BasisDerivative(mask=mask, dbeta=dbeta, U=dataset.U)


class _VpState:
    """Everything the residual and Jacobian share at a fixed V."""

    def __init__(self, V: np.ndarray, dataset: RegressionDataset, q: int):
        self.V = np.array(V, dtype=float)
        self.dataset = dataset
        self.q = q
        self.U = dataset.U
        self.X = transform(self.U, V)
        self.beta = bias_grid(self.X, q)
        self.Btil, self.pinv, _ = _augmented_pinv(build_B(self.X, self.beta))
        self.w = self.pinv @ dataset.y
        self.r = dataset.y - self.Btil @ self.w


def _state(V: np.ndarray, dataset: RegressionDataset, q: int, cache: dict | None) -> _VpState:
    """The state at V, taken from the one-entry `cache` when it was built at exactly this V.

    Without a cache every call builds its own state. With one, a miss drops the
    held state before building the new one, which the cache then holds.
    """
    if cache is None:
        return _VpState(V, dataset, q)
    st = cache.get("state")
    if st is not None and st.dataset is dataset and st.q == q and np.array_equal(st.V, V):
        return st
    cache.clear()
    st = cache["state"] = _VpState(V, dataset, q)
    return st


def _sum_knots(A: np.ndarray, D: np.ndarray) -> np.ndarray:
    """out[k, t, s] = sum_j A[k, t, j] * D[s, t, j]: one matmul per dimension t."""
    return (A.transpose(1, 0, 2) @ D.transpose(1, 2, 0)).transpose(1, 0, 2)


def vp_residual(
    V: np.ndarray, dataset: RegressionDataset, q: int, *, cache: dict | None = None
) -> np.ndarray:
    """Projected residual y - [1, B(V)] [1, B(V)]^+ y at the given transform.

    `cache` is an optional one-entry dict that keeps the factorization for a
    later `vp_jacobian` call at the same V.
    """
    return _state(V, dataset, q, cache).r


def vp_jacobian(
    V: np.ndarray, dataset: RegressionDataset, q: int, *, cache: dict | None = None
) -> np.ndarray:
    """Jacobian of the projected residual with respect to vec(V) (column-major).

    Column t*m + s is built from the basis derivative dB/dv_st of `dB_dV`.
    With P the projector onto the complement of [1, B], it is the exact
    two-term Golub-Pereyra form
    -P (dB/dv_st) w - ([1, B]^+)^T (dB/dv_st)^T r. With a `cache` that holds
    the state built at exactly this V (by `vp_residual`), the factorization
    is reused rather than rebuilt.
    """
    st = _state(V, dataset, q, cache)
    U = st.U
    N, m = U.shape
    n = st.X.shape[1]
    mask, dbeta = _basis_derivative(U, st.X, st.beta)

    # (dB/dv_st) w for every variable at once: shape (N, n, m), index t*m + s
    Mw = mask * st.w[1:].reshape(n, q)
    G = (U[:, None, :] * Mw.sum(axis=2)[:, :, None] - _sum_knots(Mw, dbeta)).reshape(N, n * m)
    J = -(G - st.Btil @ (st.pinv @ G))

    # (dB/dv_st)^T r for every variable: shape (m, n, q)
    Mr = mask * st.r[:, None, None]
    C = (U.T @ Mr.reshape(N, n * q)).reshape(m, n, q) - dbeta * Mr.sum(axis=0)[None, :, :]
    blocks = st.pinv.T[:, 1:].reshape(N, n, q)
    return J - _sum_knots(blocks, C).reshape(N, n * m)


def train(
    V0: np.ndarray,
    dataset: RegressionDataset,
    q: int,
    max_iter: int = 100,
) -> tuple[UReluNet, TrainReport]:
    """Levenberg-Marquardt over vec(V) with weights eliminated by projection,
    for at most `max_iter` Jacobians.

    A step solves (J^T J + lambda diag(J^T J)) d = -J^T r and is accepted only
    if the squared residual decreases. Each trial point is factorized once: the
    Jacobian at an accepted point and the returned network reuse the SVD of
    [1, B] that the trial built. The returned network has its knot grid frozen
    from the training data at the final accepted V.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    V = np.array(V0, dtype=float)
    if V.ndim != 2 or V.shape[0] != dataset.m:
        raise ValueError(f"V0 must be {dataset.m} x n")
    m, n = V.shape

    cache: dict = {}
    r = vp_residual(V, dataset, q, cache=cache)
    if not np.all(np.isfinite(r)):
        raise ValueError("non-finite residual at the initial transform")
    cost = float(r @ r)
    history = [cost]
    lam = LM_LAMBDA0
    accepted = 0
    rejected = 0
    status = "max_iter"

    for iterations in range(1, max_iter + 1):
        J = vp_jacobian(V, dataset, q, cache=cache)
        g = J.T @ r
        if np.max(np.abs(g)) < GRAD_TOL:
            status = "grad_tol"
            iterations -= 1
            break
        JtJ = J.T @ J
        d = np.diag(JtJ)
        d = np.maximum(d, 1e-12 * max(float(d.max()), 1.0))
        while True:
            try:
                delta = np.linalg.solve(JtJ + lam * np.diag(d), -g)
            except np.linalg.LinAlgError:
                cost_new = math.inf
            else:
                if float(np.linalg.norm(delta)) < STEP_TOL:
                    status = "step_tol"
                    break
                V_new = V + delta.reshape(n, m).T
                r_new = vp_residual(V_new, dataset, q, cache=cache)
                cost_new = float(r_new @ r_new)
            # an infinite or NaN trial cost compares false, so it is rejected
            if cost_new < cost:
                V, r, cost = V_new, r_new, cost_new
                history.append(cost)
                accepted += 1
                lam = max(lam / LM_FACTOR, 1e-15)
                break
            rejected += 1
            lam *= LM_FACTOR
            if lam > 1e12:
                status = "stalled"
                break
        if status != "max_iter":
            break

    st = _state(V, dataset, q, cache)
    net = make_net(V, q, st.w, st.X, regressor_spec=dataset.spec)
    final_rmse = math.sqrt(cost / dataset.n_samples)
    report = TrainReport(
        iterations=iterations,
        residual_history=history,
        final_rmse_db=20.0 * math.log10(final_rmse) if final_rmse > 0 else -math.inf,
        accepted=accepted,
        rejected=rejected,
        status=status,
    )
    return net, report

