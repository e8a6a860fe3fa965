"""Variable-projection training: closed-form weights, analytic basis derivatives,
the exact Golub-Pereyra Jacobian, and a Levenberg-Marquardt loop over the transform."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag, lapack

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
    basis_rank: int  # numerical rank of [1, B] at the final V, as PINV_RCOND cuts it
    basis_cond: float  # its 2-norm condition number, inf when singular

    def history_csv(self) -> str:
        lines = ["iteration,squared_residual"]
        lines += [f"{i},{v!r}" for i, v in enumerate(self.residual_history)]
        return "\n".join(lines) + "\n"


def _lapack(routine: str, *args, **kwargs):
    """Call scipy.linalg.lapack.<routine>; raise on a nonzero info, its last output."""
    *out, info = getattr(lapack, routine)(*args, **kwargs)
    if info != 0:
        raise np.linalg.LinAlgError(f"{routine} failed with info={info}")
    return out


def _qr_buffer(y: np.ndarray, width: int) -> np.ndarray:
    """Fortran-ordered N x (width + 2) matrix [1, B, y], with the `width` columns of B
    left for the caller to fill."""
    A = np.empty((len(y), width + 2), order="F")
    A[:, 0] = 1.0
    A[:, -1] = y
    return A


class _Projection:
    """[1, B] and y factored by one Householder QR, with the minimum-norm weights.

    LAPACK's dgeqrf factors the N x (k+1) matrix A = [1, B, y] = Q R in place.
    Let R11 = R[:k, :k], c = R[:k, k] and rho = R[k, k]; then [1, B] = Q1 R11
    with the same singular values. The SVD R11 = Ut S Vt^T keeps the values
    above PINV_RCOND times the largest (the set K), as a pseudo-inverse of
    [1, B] would. Then w = Vt_K S_K^-1 Ut_K^T c, and the residual y - [1, B] w
    is Q [c - Ut_K Ut_K^T c; rho; 0], applied by dormqr without forming Q. This
    is the minimum-norm solution on every path, rank-deficient or not. Q1 is
    formed on first use only; Q1 Ut_K is an orthonormal basis of the range of
    [1, B], so [1, B] [1, B]^+ = Q1 Ut_K Ut_K^T Q1^T and
    [1, B]^+ = Vt_K S_K^-1 Ut_K^T Q1^T.
    """

    def __init__(self, A: np.ndarray):
        N, k = A.shape[0], A.shape[1] - 1
        self.qr, self.tau, _ = _lapack("dgeqrf", A, overwrite_a=True)
        p = min(N, k)
        c = self.qr[:p, k]
        ut, sv, vt = np.linalg.svd(np.triu(self.qr[:p, :k]), full_matrices=False)
        self.rank = int(np.count_nonzero(sv > PINV_RCOND * sv[0]))
        # [1, B] has k singular values; with N < k the last k - N are 0
        self.cond = float(sv[0] / sv[-1]) if p == k and sv[-1] > 0 else math.inf
        self.ut = ut[:, : self.rank]
        self.vs = vt[: self.rank].T / sv[: self.rank]  # Vt_K S_K^-1, k x K
        coef = self.ut.T @ c
        self.w = self.vs @ coef
        z = np.zeros((N, 1), order="F")
        z[:p, 0] = c - self.ut @ coef
        if N > k:
            z[k, 0] = self.qr[k, k]
        # one right-hand side needs only the minimal workspace, passed positionally
        qz, _ = _lapack("dormqr", "L", "N", self.qr[:, : len(self.tau)], self.tau, z, 1, overwrite_c=True)
        self.r = qz[:, 0]

    @functools.cached_property
    def Q1(self) -> np.ndarray:
        """The first min(N, k) columns of Q, N x min(N, k)."""
        p = self.ut.shape[0]
        q1, _ = _lapack("dorgqr", self.qr[:, :p], self.tau[:p])
        return q1


def solve_weights(B: np.ndarray, y: np.ndarray):
    """Minimum-norm least-squares weights for the augmented basis [1, B].

    Returns (w, rank); w[0] is the constant weight. Singular values of [1, B]
    at or below PINV_RCOND times the largest are dropped, as a pseudo-inverse
    with that cutoff would. Training solves for its weights with the same
    factorization: one Householder QR of [1, B, y] and an SVD of its k x k
    triangle.
    """
    B = np.atleast_2d(np.asarray(B, dtype=float))
    y = np.asarray(y, dtype=float)
    if B.shape[0] != len(y):
        raise ValueError("row count of B must match length of y")
    A = _qr_buffer(y, B.shape[1])
    A[:, 1:-1] = B
    proj = _Projection(A)
    return proj.w, proj.rank


def _basis_derivative(U: np.ndarray, X: np.ndarray, beta: np.ndarray):
    """Activation mask (N, n, q) and knot ends Umin and dU (m, n) at X = U V.

    Knot j of dimension i sits at x_i(k_min) + s_j (x_i(k_max) - x_i(k_min)),
    where k_min and k_max are the samples holding that dimension's extremes
    (the lowest index on ties), so it moves with V through those two samples:
    its sensitivity is dbeta[:, i, j] = s_j dU[:, i] + Umin[:, i], with
    Umin = u(k_min) and dU = u(k_max) - u(k_min).

    The mask also covers column (i, 0), although that neuron is linear. On the
    data that define the grid this is exact: x_i >= beta_i0 everywhere, and at
    k_min, where the mask is off, the derivative u(k_min) - dbeta[:, i, 0] is
    exactly 0. Unmasking the column would change the rounding of the Jacobian.
    """
    mask = X[:, :, None] > beta[None, :, :]  # the same test as x - beta > 0
    Umin = U[np.argmin(X, axis=0), :].T
    dU = U[np.argmax(X, axis=0), :].T - Umin
    return mask, Umin, dU


def _knot_sensitivities(Umin: np.ndarray, dU: np.ndarray, q: int) -> np.ndarray:
    """dbeta[s, i, j] = s_j dU[s, i] + Umin[s, i], shape (m, n, q)."""
    return knot_fractions(q)[None, None, :] * dU[:, :, None] + Umin[:, :, None]


class _VpState:
    """Everything the residual and Jacobian share at a fixed V."""

    def __init__(self, V: np.ndarray, dataset: RegressionDataset, q: int):
        self.V = np.array(V, dtype=float)
        self.dataset = dataset
        self.q = q
        self.U = dataset.U
        self.X = transform(self.U, V)
        self.beta = bias_grid(self.X, q)
        A = _qr_buffer(dataset.y, self.beta.size)
        build_B(self.X, self.beta, out=A[:, 1:-1])
        self.proj = _Projection(A)


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


def vp_residual(
    V: np.ndarray, dataset: RegressionDataset, q: int, *, cache: dict | None = None
) -> np.ndarray:
    """Projected residual y - [1, B(V)] [1, B(V)]^+ y at the given transform.

    It costs one Householder QR of [1, B, y] and an SVD of its k x k
    triangle; no N x N or k x N matrix is formed. `cache` is an optional
    one-entry dict that keeps the factorization for a later `vp_jacobian`
    call at the same V.
    """
    return _state(V, dataset, q, cache).proj.r


def vp_jacobian(
    V: np.ndarray, dataset: RegressionDataset, q: int, *, cache: dict | None = None
) -> np.ndarray:
    """Jacobian of the projected residual with respect to vec(V) (column-major).

    Column t*m + s is the derivative with respect to v_st. It is built from the
    mask and knot sensitivities of `_basis_derivative` and `_knot_sensitivities`.
    With P the projector onto the complement of [1, B], it is the exact
    two-term Golub-Pereyra form
    -P (dB/dv_st) w - ([1, B]^+)^T (dB/dv_st)^T r.

    The knot sensitivities are affine in the knot fraction s_j, so the sum over
    knots collapses: with a_t = sum_j mask w_tj and b_t = sum_j mask w_tj s_j,
    the N x m block G_t of (dB/dv_.t) w is a_t * U - a_t Umin_t^T - b_t dU_t^T.
    With W = Q1 Ut_K the orthonormal basis of the range of [1, B] (see
    `_Projection`), P G = G - W W^T G and ([1, B]^+)^T = W S_K^-1 Vt_K^T, so
    both terms share one product with W. Q1 is formed here, the first time it
    is needed at this V, and never for a residual alone. With a
    `cache` that holds the state built at exactly this V (by `vp_residual`),
    the factorization is reused rather than rebuilt.
    """
    st = _state(V, dataset, q, cache)
    proj = st.proj
    U = st.U
    N, m = U.shape
    n = st.X.shape[1]
    mask, Umin, dU = _basis_derivative(U, st.X, st.beta)
    mask = mask.reshape(N, n * q).astype(float)

    # [a_t, b_t] for every dimension from one GEMM, then G = (dB/dv) w, shape N x (n*m)
    w = proj.w[1:].reshape(n, q)
    ab = mask @ block_diag(*np.stack([w, w * knot_fractions(q)], axis=2))
    G = np.einsum("kt,ks->kts", ab[:, 0::2], U).reshape(N, n * m)
    G -= ab @ block_diag(*np.stack([Umin.T, dU.T], axis=1))

    # C[s, t, j] = (dB/dv_st)^T r in column (t, j), block-diagonal as (n*q) x (n*m)
    r = proj.r
    C = ((U * r[:, None]).T @ mask).reshape(m, n, q)
    C -= _knot_sensitivities(Umin, dU, q) * (r @ mask).reshape(n, q)
    C_blk = block_diag(*C.transpose(1, 2, 0))

    # with W = Q1 Ut_K: J = W (W^T G - S_K^-1 Vt_K^T[:, 1:] C_blk) - G
    Q1, ut = proj.Q1, proj.ut
    return Q1 @ (ut @ (ut.T @ (Q1.T @ G) - proj.vs.T[:, 1:] @ C_blk)) - G


def train(
    V0: np.ndarray,
    dataset: RegressionDataset,
    q: int,
    max_iter: int = 100,
) -> tuple[UReluNet, TrainReport]:
    """Levenberg-Marquardt over vec(V) with weights eliminated by projection,
    for at most `max_iter` Jacobians.

    A step solves (J^T J + lambda diag(J^T J)) d = -J^T r and is accepted only
    if the squared residual decreases. Each trial point is factorized once, by
    one Householder QR of [1, B, y]: the Jacobian at an accepted point and the
    returned network reuse that trial's factorization, and Q is formed only at
    the start and at accepted points, never on a rejected trial. The returned
    network has its knot grid frozen from the training data at the final
    accepted V; the report gives the rank and condition number of [1, B] there.
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
    net = make_net(V, q, st.proj.w, st.X, regressor_spec=dataset.spec)
    final_rmse = math.sqrt(cost / dataset.n_samples)
    report = TrainReport(
        iterations=iterations,
        residual_history=history,
        final_rmse_db=20.0 * math.log10(final_rmse) if final_rmse > 0 else -math.inf,
        accepted=accepted,
        rejected=rejected,
        status=status,
        basis_rank=st.proj.rank,
        basis_cond=st.proj.cond,
    )
    return net, report

