"""Variable-projection training: closed-form weights, analytic basis derivatives,
Golub-Pereyra / Kaufman Jacobian, and a Levenberg-Marquardt loop over the transform."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .dataset import RegressionDataset
from .network import UReluNet, bias_grid, build_B, knot_fractions, make_net, transform

PINV_RCOND = 1e-10


@dataclass(frozen=True)
class TrainConfig:
    max_iter: int = 100
    lm_lambda0: float = 1e-3
    lm_up: float = 10.0
    lm_down: float = 10.0
    grad_tol: float = 1e-10
    step_tol: float = 1e-12
    jacobian_mode: str = "kaufman"
    holdout_fraction: float = 0.0

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.lm_up <= 1 or self.lm_down <= 1:
            raise ValueError("damping multipliers must be > 1")
        if self.jacobian_mode not in ("full", "kaufman"):
            raise ValueError("jacobian_mode must be 'full' or 'kaufman'")
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise ValueError("holdout_fraction must be in [0, 1)")


@dataclass
class TrainReport:
    iterations: int
    residual_history: list[float]
    final_rmse_db: float
    accepted: int
    rejected: int
    status: str
    holdout_rmse_db: float | None = None

    def to_json(self) -> str:
        return json.dumps(
            {
                "iterations": self.iterations,
                "residual_history": self.residual_history,
                "final_rmse_db": self.final_rmse_db,
                "accepted": self.accepted,
                "rejected": self.rejected,
                "status": self.status,
                "holdout_rmse_db": self.holdout_rmse_db,
            },
            sort_keys=True,
        )

    def history_csv(self) -> str:
        lines = ["iteration,squared_residual"]
        lines += [f"{i},{v!r}" for i, v in enumerate(self.residual_history)]
        return "\n".join(lines) + "\n"


def solve_weights(B: np.ndarray, y: np.ndarray, rcond: float = PINV_RCOND):
    """Minimum-norm least-squares weights for the augmented basis [1, B].

    Returns (w, rank); w[0] is the constant weight.
    """
    B = np.atleast_2d(np.asarray(B, dtype=float))
    y = np.asarray(y, dtype=float)
    if B.shape[0] != len(y):
        raise ValueError("row count of B must match length of y")
    Btil = np.column_stack([np.ones(B.shape[0]), B])
    w, _, rank, _ = np.linalg.lstsq(Btil, y, rcond=rcond)
    return w, int(rank)


@dataclass(frozen=True)
class BasisDerivative:
    """Sparse structure of d[B]/d[V] for the uniform knot grid.

    The derivative of column (i, j) of B with respect to v_st is zero unless
    t == i; for active samples it equals u_s(k) - dbeta[s, i, j] where
    dbeta[s, i, j] = s_j * (u_s(k_max,i) - u_s(k_min,i)) + u_s(k_min,i).
    """

    mask: np.ndarray  # (N, n, q) activation pattern x_i(k) - beta_ij > 0
    dbeta: np.ndarray  # (m, n, q) knot sensitivities
    k_min: np.ndarray  # (n,) argmin sample per dimension (lowest index on ties)
    k_max: np.ndarray  # (n,) argmax sample per dimension
    U: np.ndarray

    def column(self, s: int, t: int) -> np.ndarray:
        """Dense N x (n*q) derivative of B with respect to v_st."""
        N, n, q = self.mask.shape
        D = np.zeros((N, n * q))
        block = self.mask[:, t, :] * (self.U[:, s][:, None] - self.dbeta[s, t, :][None, :])
        D[:, t * q : (t + 1) * q] = block
        return D


def dB_dV(
    net: UReluNet, dataset: RegressionDataset, sign_mode: str = "plus"
) -> BasisDerivative:
    """Analytic derivative structure of the ramp basis with respect to V.

    The knot grid is treated as a function of V (recomputed from X = U V), so
    each knot moves with the per-dimension min and max samples. `sign_mode`
    selects the sign of the min-sample contribution: "plus" is the form that
    follows from differentiating the grid definition and is the default;
    "minus" is retained only for regression-testing the incorrect variant.
    """
    if sign_mode not in ("plus", "minus"):
        raise ValueError("sign_mode must be 'plus' or 'minus'")
    U = dataset.U
    X = transform(U, net.V)
    q = net.q
    beta = bias_grid(X, q)
    mask = (X[:, :, None] - beta[None, :, :]) > 0.0
    k_min = np.argmin(X, axis=0)
    k_max = np.argmax(X, axis=0)
    s = knot_fractions(q)
    Umin = U[k_min, :].T  # (m, n)
    Umax = U[k_max, :].T
    min_sign = 1.0 if sign_mode == "plus" else -1.0
    dbeta = s[None, None, :] * (Umax - Umin)[:, :, None] + min_sign * Umin[:, :, None]
    return BasisDerivative(mask=mask, dbeta=dbeta, k_min=k_min, k_max=k_max, U=U)


class _VpState:
    """Everything the residual and Jacobian share at a fixed V."""

    def __init__(self, V: np.ndarray, dataset: RegressionDataset, q: int):
        self.V = np.asarray(V, dtype=float)
        self.U = dataset.U
        self.y = dataset.y
        self.q = q
        self.X = transform(self.U, self.V)
        self.beta = bias_grid(self.X, q)
        self.B = build_B(self.X, self.beta)
        self.Btil = np.column_stack([np.ones(self.B.shape[0]), self.B])
        self.pinv = np.linalg.pinv(self.Btil, rcond=PINV_RCOND)
        self.w = self.pinv @ self.y
        self.r = self.y - self.Btil @ self.w


def vp_residual(V: np.ndarray, dataset: RegressionDataset, q: int) -> np.ndarray:
    """Projected residual y - [1, B(V)] [1, B(V)]^+ y at the given transform."""
    return _VpState(V, dataset, q).r


def vp_jacobian(
    V: np.ndarray, dataset: RegressionDataset, q: int, mode: str = "full"
) -> np.ndarray:
    """Jacobian of the projected residual with respect to vec(V) (column-major).

    "full" is the exact two-term form; "kaufman" drops the transposed term,
    giving the usual cheaper approximation with the same first-order behavior
    near the optimum.
    """
    if mode not in ("full", "kaufman"):
        raise ValueError("mode must be 'full' or 'kaufman'")
    st = _VpState(V, dataset, q)
    U, y, q_ = st.U, st.y, st.q
    N, m = U.shape
    n = st.V.shape[1]
    s = knot_fractions(q_)
    mask = (st.X[:, :, None] - st.beta[None, :, :]) > 0.0
    k_min = np.argmin(st.X, axis=0)
    k_max = np.argmax(st.X, axis=0)
    Umin = U[k_min, :].T  # (m, n)
    Delta = (U[k_max, :] - U[k_min, :]).T  # (m, n)
    wmat = st.w[1:].reshape(n, q_)

    # d(B w)/dv_st, all variables at once: shape (N, n, m), var index t*m + s
    Mw = np.einsum("ktj,tj->kt", mask, wmat)
    Msw = np.einsum("ktj,j,tj->kt", mask, s, wmat)
    G = (
        U[:, None, :] * Mw[:, :, None]
        - Delta.T[None, :, :] * Msw[:, :, None]
        - Umin.T[None, :, :] * Mw[:, :, None]
    ).reshape(N, n * m)
    J = -(G - st.Btil @ (st.pinv @ G))

    if mode == "full":
        dbeta = s[None, None, :] * Delta[:, :, None] + Umin[:, :, None]  # (m, n, q)
        Rm = np.einsum("ktj,k->tj", mask, st.r)
        P1 = np.einsum("ks,ktj->stj", U, mask * st.r[:, None, None])
        Cmat = P1 - dbeta * Rm[None, :, :]  # (m, n, q)
        blocks = st.pinv.T[:, 1:].reshape(N, n, q_)
        term2 = np.einsum("ktj,stj->kts", blocks, Cmat).reshape(N, n * m)
        J = J - term2
    return J


def train(
    V0: np.ndarray,
    dataset: RegressionDataset,
    q: int,
    config: TrainConfig = TrainConfig(),
) -> tuple[UReluNet, TrainReport]:
    """Levenberg-Marquardt over vec(V) with weights eliminated by projection.

    A step solves (J^T J + lambda diag(J^T J)) d = -J^T r and is accepted only
    if the squared residual decreases. The returned network has its knot grid
    frozen from the training data at the final accepted V.
    """
    V = np.array(V0, dtype=float)
    if V.ndim != 2 or V.shape[0] != dataset.m:
        raise ValueError(f"V0 must be {dataset.m} x n")
    m, n = V.shape
    fit_ds, holdout = _split_holdout(dataset, config.holdout_fraction)

    r = vp_residual(V, fit_ds, q)
    if not np.all(np.isfinite(r)):
        raise ValueError("non-finite residual at the initial transform")
    cost = float(r @ r)
    history = [cost]
    lam = config.lm_lambda0
    accepted = 0
    rejected = 0
    status = "max_iter"
    iterations = 0

    for iterations in range(1, config.max_iter + 1):
        J = vp_jacobian(V, fit_ds, q, mode=config.jacobian_mode)
        g = J.T @ r
        if np.max(np.abs(g)) < config.grad_tol:
            status = "grad_tol"
            iterations -= 1
            break
        JtJ = J.T @ J
        d = np.diag(JtJ).copy()
        d = np.maximum(d, 1e-12 * max(float(d.max()), 1.0))
        moved = False
        while True:
            try:
                delta = np.linalg.solve(JtJ + lam * np.diag(d), -g)
            except np.linalg.LinAlgError:
                delta = None
            if delta is not None and float(np.linalg.norm(delta)) < config.step_tol:
                status = "step_tol"
                break
            V_new = V + delta.reshape(n, m).T if delta is not None else None
            if V_new is not None:
                r_new = vp_residual(V_new, fit_ds, q)
                cost_new = float(r_new @ r_new)
            else:
                cost_new = np.inf
            if np.isfinite(cost_new) and cost_new < cost:
                V, r, cost = V_new, r_new, cost_new
                history.append(cost)
                accepted += 1
                lam = max(lam / config.lm_down, 1e-15)
                moved = True
                break
            rejected += 1
            lam *= config.lm_up
            if lam > 1e12:
                status = "stalled"
                break
        if not moved:
            break

    st = _VpState(V, fit_ds, q)
    net = make_net(V, q, st.w, st.X, regressor_spec=dataset.spec)
    final_rmse = math.sqrt(cost / fit_ds.n_samples)
    report = TrainReport(
        iterations=iterations,
        residual_history=history,
        final_rmse_db=20.0 * math.log10(final_rmse) if final_rmse > 0 else -math.inf,
        accepted=accepted,
        rejected=rejected,
        status=status,
        holdout_rmse_db=_holdout_rmse_db(net, holdout),
    )
    return net, report


def _split_holdout(dataset: RegressionDataset, fraction: float):
    if fraction <= 0.0:
        return dataset, None
    N = dataset.n_samples
    n_fit = max(int(round(N * (1.0 - fraction))), 2)
    fit = RegressionDataset(U=dataset.U[:n_fit], y=dataset.y[:n_fit], spec=dataset.spec)
    hold = RegressionDataset(U=dataset.U[n_fit:], y=dataset.y[n_fit:], spec=dataset.spec)
    return fit, (hold if hold.n_samples else None)


def _holdout_rmse_db(net: UReluNet, holdout) -> float | None:
    if holdout is None:
        return None
    from .network import forward

    resid = holdout.y - forward(net, holdout.U)
    value = float(np.sqrt(np.mean(resid**2)))
    return 20.0 * math.log10(value) if value > 0 else -math.inf
