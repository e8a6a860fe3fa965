"""Variable-projection training: closed-form weights, analytic basis derivatives,
the exact Golub-Pereyra Jacobian, and a Levenberg-Marquardt loop over the transform."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.linalg import lapack_lite

from .dataset import RegressionDataset, rmse_db
from .network import UReluNet, bias_grid, build_B, knot_fractions, make_net, transform

PINV_RCOND = 1e-10

# Levenberg-Marquardt: the starting damping, the factor that multiplies it on a
# rejected trial and divides it on an accepted one, and the stops on the
# gradient's largest entry and on the step norm.
LM_LAMBDA0 = 1e-3
LM_FACTOR = 10.0
GRAD_TOL = 1e-10
STEP_TOL = 1e-12
# A trial is rejected from its QR alone when rho^2 (1 - FLOOR_MARGIN) >= the current
# cost (`vp_residual`'s ceiling). In exact arithmetic r.r >= rho^2, as r = Q z with
# z[k] = rho. The computed r is Q applied by k+1 backward-stable reflectors (Higham,
# "Accuracy and Stability of Numerical Algorithms", 2002, Lemma 19.3) and r.r a dot
# product of N terms, so fl(r.r) >= fl(rho^2) (1 - (2k+3) c N u) for a small constant
# c and u = 2^-53: the margin holds for (2k+3) c N up to 9e9, which is k = 1000 at
# N = 4e6 with c = 1. So a trial rejected this way would also fail `train`'s
# decrease test on its full cost.
FLOOR_MARGIN = 1e-6
# Rows per block when `vp_jacobian` forms J in G's buffer: its row scratch is
# ROW_BLOCK x (n*m), whatever the record length.
ROW_BLOCK = 512


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


def _lapack(routine: str, a: np.ndarray, tau: np.ndarray) -> None:
    """Run numpy's own LAPACK `routine`, dgeqrf or dorgqr, in place on the
    Fortran-ordered matrix `a` and its reflector factors `tau`.

    The routine's leading arguments come from the arrays it is given, never
    from the caller, since LAPACK trusts them: (m, n) = a.shape for dgeqrf,
    and k = len(tau) too for dorgqr. numpy.linalg.lapack_lite takes
    C-contiguous arrays only, so `a` goes as its transpose a.T, the same
    memory, with lda = m.
    """
    dims = a.shape if routine == "dgeqrf" else (*a.shape, len(tau))
    lwork = _lwork(routine, *dims)
    _checked(routine, *dims, a.T, a.shape[0], tau, np.empty(lwork), lwork)


@functools.cache
def _lwork(routine: str, *dims: int) -> int:
    """The optimal workspace length of `routine` at `dims`, from LAPACK's lwork=-1 query,
    which reads no matrix: one-element stand-ins pass for the arrays."""
    work = np.empty(1)
    _checked(routine, *dims, work, max(1, dims[0]), work, work, -1)
    return max(1, int(work[0]))


def _checked(routine: str, *args) -> None:
    """numpy.linalg.lapack_lite.<routine>(*args, info); raise on a nonzero info."""
    info = getattr(lapack_lite, routine)(*args, 0)["info"]
    if info != 0:
        raise np.linalg.LinAlgError(f"{routine} failed with info={info}")


def _buffer(cache: dict, name: str, shape: tuple[int, ...], order: str = "C") -> np.ndarray:
    """An uninitialized float array of `shape`: the workspace buffer the cache keeps under
    `name`. A buffer is allocated on first use, or when its shape changes, and every later
    call with the cache reuses it, so one fit does not hand the same pages back to the
    allocator and fault them in again.
    """
    work = cache.setdefault("work", {})
    buf = work.get(name)
    if buf is None or buf.shape != shape:
        buf = work[name] = np.empty(shape, order=order)
    return buf


def _qr_buffer(y: np.ndarray, width: int, cache: dict) -> np.ndarray:
    """Fortran-ordered N x (width + 2) matrix [1, B, y], the workspace's own, with the
    `width` columns of B left for the caller to fill."""
    A = _buffer(cache, "qr", (len(y), width + 2), order="F")
    A[:, 0] = 1.0
    A[:, -1] = y
    return A


class _Projection:
    """[1, B] and y factored by one Householder QR, with the minimum-norm weights.

    LAPACK's dgeqrf factors the N x (k+1) matrix A = [1, B, y] = Q R in place,
    and that is all the constructor does. Let R11 = R[:k, :k], c = R[:k, k]
    and rho = R[k, k]; then [1, B] = Q1 R11 with the same singular values, and
    rho^2 (`rho2`, 0 when N <= k) bounds the squared residual from below. The
    rest is computed on first use of any of `rank`, `cond`, `ut`, `vs`, `w` or
    `r` (`_solve`). The SVD R11 = Ut S Vt^T keeps the values above PINV_RCOND
    times the largest (the set K), as a pseudo-inverse of [1, B] would. Then
    w = Vt_K S_K^-1 Ut_K^T c, and the residual y - [1, B] w is
    Q [c - Ut_K Ut_K^T c; rho; 0], which `_apply_q` computes from the
    reflectors without forming Q. This is the minimum-norm solution on every
    path, rank-deficient or not. Q1 is formed by dorgqr on first use only,
    after `_solve`, in place over the reflectors of the first min(N, k)
    columns of `qr`, which the weights and the residual no longer need; from
    then on those columns hold Q1, and `_apply_q` no longer applies Q. Q1 Ut_K
    is an orthonormal basis of the range of [1, B], so
    [1, B] [1, B]^+ = Q1 Ut_K Ut_K^T Q1^T and [1, B]^+ = Vt_K S_K^-1 Ut_K^T Q1^T.
    """

    def __init__(self, A: np.ndarray):
        N, k = A.shape[0], A.shape[1] - 1
        self.qr, self.tau = A, np.empty(min(N, k + 1))
        _lapack("dgeqrf", A, self.tau)
        rho = float(A[k, k]) if N > k else 0.0
        self.rho2 = rho * rho

    def __getattr__(self, name: str):
        # rank, cond, ut, vs, w and r: made together by `_solve` on the first read of any
        if name not in ("rank", "cond", "ut", "vs", "w", "r"):
            raise AttributeError(name)
        self._solve()
        return self.__dict__[name]

    def _solve(self) -> None:
        """The SVD of R11, the rank and condition number, the weights and the residual."""
        N, k = self.qr.shape[0], self.qr.shape[1] - 1
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
        z = np.zeros(N)
        z[:p] = c - self.ut @ coef
        if N > k:
            z[k] = self.qr[k, k]
        self.r = self._apply_q(z)

    def _apply_q(self, z: np.ndarray) -> np.ndarray:
        """Q z, in place: the reflectors H_i = I - tau_i v_i v_i^T, with
        v_i = [0, ..., 0, 1, qr[i+1:, i]], applied from the last to the first."""
        for i in reversed(range(len(self.tau))):
            v = self.qr[i + 1 :, i]
            s = self.tau[i] * (z[i] + v @ z[i + 1 :])
            z[i] -= s
            z[i + 1 :] -= s * v
        return z

    @functools.cached_property
    def Q1(self) -> np.ndarray:
        """The first min(N, k) columns of Q, N x min(N, k): a view of `qr`."""
        p = self.ut.shape[0]  # so `_solve` has run: dorgqr overwrites the reflectors it reads
        q1 = self.qr[:, :p]
        _lapack("dorgqr", q1, self.tau[:p])
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
    A = _qr_buffer(y, B.shape[1], {})
    A[:, 1:-1] = B
    proj = _Projection(A)
    return proj.w, proj.rank


def affine_baseline(ds: RegressionDataset) -> Callable[[np.ndarray], float]:
    """The affine model phi -> [1, phi] w, with w the `solve_weights` least squares on the
    regressors of `ds`: the baseline that `eval` runs free beside the network."""
    w, _ = solve_weights(ds.U, ds.y)
    return lambda phi: w[0] + w[1:] @ phi


def _block_diag(blocks: np.ndarray) -> np.ndarray:
    """The block-diagonal matrix of the n equal blocks[t], each a x b: (n*a) x (n*b)."""
    n, a, b = blocks.shape
    out = np.zeros((n, a, n, b))
    out[np.arange(n), :, np.arange(n), :] = blocks
    return out.reshape(n * a, n * b)


def _row_blocks(N: int) -> list[slice]:
    """Slices of at most ROW_BLOCK rows covering range(N), none of one row unless N == 1.

    numpy multiplies a one-row matrix as a vector (gemv), whose sums run in another
    order than the matrix product's (gemm), while a block of two or more rows gets the
    bits of the whole product's rows. So a last block of one row takes a second one
    from the block before it.
    """
    bounds = [*range(0, N, ROW_BLOCK), N]
    if N > 1 and bounds[-1] - bounds[-2] == 1:
        bounds[-2] -= 1
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _basis_derivative(U: np.ndarray, X: np.ndarray, beta: np.ndarray, out: np.ndarray | None = None):
    """Activation mask (N, n, q) and knot ends Umin and dU (m, n) at X = U V.

    The mask is boolean, or 1.0 and 0.0 in the float array `out` if given.

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
    mask = np.greater(X[:, :, None], beta[None, :, :], out=out)  # the same test as x - beta > 0
    Umin = U[np.argmin(X, axis=0), :].T
    dU = U[np.argmax(X, axis=0), :].T - Umin
    return mask, Umin, dU


def _knot_sensitivities(Umin: np.ndarray, dU: np.ndarray, q: int) -> np.ndarray:
    """dbeta[s, i, j] = s_j dU[s, i] + Umin[s, i], shape (m, n, q)."""
    return knot_fractions(q)[None, None, :] * dU[:, :, None] + Umin[:, :, None]


class _VpState:
    """Everything the residual and Jacobian share at a fixed V."""

    def __init__(self, V: np.ndarray, dataset: RegressionDataset, q: int, cache: dict):
        self.V = np.array(V, dtype=float)
        self.dataset = dataset
        self.q = q
        self.U = dataset.U
        self.X = transform(self.U, V)
        self.beta = bias_grid(self.X, q)
        A = _qr_buffer(dataset.y, self.beta.size, cache)
        build_B(self.X, self.beta, out=A[:, 1:-1])
        self.proj = _Projection(A)


def _state(V: np.ndarray, dataset: RegressionDataset, q: int, cache: dict) -> _VpState:
    """The state at V, taken from the one-entry `cache` when it was built at exactly this V.

    A miss drops the held state before building the new one, which the cache then
    holds: its QR overwrites the workspace's [1, B, y] buffer, which held the old
    state's factors. The cache keeps its workspace buffers across states.
    """
    st = cache.get("state")
    if st is not None and st.dataset is dataset and st.q == q and np.array_equal(st.V, V):
        return st
    cache.pop("state", None)
    st = cache["state"] = _VpState(V, dataset, q, cache)
    return st


def vp_residual(
    V: np.ndarray,
    dataset: RegressionDataset,
    q: int,
    *,
    cache: dict | None = None,
    ceiling: float | None = None,
) -> np.ndarray | None:
    """Projected residual y - [1, B(V)] [1, B(V)]^+ y at the given transform.

    It costs one Householder QR of [1, B, y] and an SVD of its k x k
    triangle; no N x N or k x N matrix is formed. With a `ceiling`, it returns
    None, after the QR alone, when rho^2 (1 - FLOOR_MARGIN) >= ceiling, where
    rho is the QR's last pivot: then the squared residual is at least
    `ceiling` too (see FLOOR_MARGIN). `cache` is an optional
    one-entry dict that keeps the factorization for a later `vp_jacobian`
    call at the same V; without one, the call runs on a fresh dict. The
    returned array is the cached state's own, which that call reads, so the
    caller must not write to it; unlike the Jacobian it is a new array at each
    new V, and a later call leaves it as is.
    """
    proj = _state(V, dataset, q, {} if cache is None else cache).proj
    if ceiling is not None and proj.rho2 * (1.0 - FLOOR_MARGIN) >= ceiling:
        return None
    return proj.r


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

    The returned array belongs to the cache's workspace, and the next
    `vp_jacobian` call with that cache overwrites it. The workspace also holds
    the float mask and one row scratch, and J is formed in G's own buffer, one
    block of `_row_blocks` at a time: the second term of G first, then Q1 times
    the inner factor minus G. Without a cache the call runs on a fresh dict, so
    every buffer is a new array.
    """
    cache = {} if cache is None else cache
    st = _state(V, dataset, q, cache)
    proj = st.proj
    U = st.U
    N, m = U.shape
    n = st.X.shape[1]
    mask, Umin, dU = _basis_derivative(U, st.X, st.beta, out=_buffer(cache, "mask", (N, n, q)))
    mask = mask.reshape(N, n * q)

    # C[s, t, j] = (dB/dv_st)^T r in column (t, j), block-diagonal as (n*q) x (n*m)
    r = proj.r
    C = ((U * r[:, None]).T @ mask).reshape(m, n, q)
    C -= _knot_sensitivities(Umin, dU, q) * (r @ mask).reshape(n, q)
    C_blk = _block_diag(C.transpose(1, 2, 0))

    # [a_t, b_t] for every dimension from one GEMM, then G = (dB/dv) w, shape N x (n*m)
    G = _buffer(cache, "G", (N, n * m))
    blocks = _row_blocks(N)
    scratch = _buffer(cache, "rows", (min(N, ROW_BLOCK), n * m))
    w = proj.w[1:].reshape(n, q)
    ab = mask @ _block_diag(np.stack([w, w * knot_fractions(q)], axis=2))
    np.einsum("kt,ks->kts", ab[:, 0::2], U, out=G.reshape(N, n, m))
    knot_ends = _block_diag(np.stack([Umin.T, dU.T], axis=1))
    for rows in blocks:
        G[rows] -= np.matmul(ab[rows], knot_ends, out=scratch[: rows.stop - rows.start])

    # with W = Q1 Ut_K: J = W (W^T G - S_K^-1 Vt_K^T[:, 1:] C_blk) - G, in G's buffer
    Q1, ut = proj.Q1, proj.ut
    inner = ut @ (ut.T @ (Q1.T @ G) - proj.vs.T[:, 1:] @ C_blk)
    for rows in blocks:
        part = np.matmul(Q1[rows], inner, out=scratch[: rows.stop - rows.start])
        np.subtract(part, G[rows], out=G[rows])
    return G


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
    the start and at accepted points, never on a rejected trial. A trial whose
    QR's last pivot alone bounds its cost above the current one is rejected
    without its SVD or residual (`vp_residual`'s ceiling). All of them
    run on the one workspace that train's cache keeps (see `vp_jacobian`).
    The returned network has its knot grid frozen from the training data at the final
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
    history = [float(r @ r)]  # the cost at the start and after each accepted step
    lam = LM_LAMBDA0
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
        del J  # the next Jacobian overwrites it
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
                r_new = vp_residual(V_new, dataset, q, cache=cache, ceiling=history[-1])
                cost_new = math.inf if r_new is None else float(r_new @ r_new)
            # an infinite or NaN trial cost compares false, so it is rejected
            if cost_new < history[-1]:
                V, r = V_new, r_new
                history.append(cost_new)
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
    report = TrainReport(
        iterations=iterations,
        residual_history=history,
        final_rmse_db=rmse_db(math.sqrt(history[-1] / dataset.n_samples)),
        accepted=len(history) - 1,
        rejected=rejected,
        status=status,
        basis_rank=st.proj.rank,
        basis_cond=st.proj.cond,
    )
    return net, report

