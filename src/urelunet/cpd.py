"""Canonical polyadic decomposition of the stacked Hessian tensor by alternating least squares."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import RegressionDataset
from .hessian import HessianTensor, hessian_core
from .polyfit import PolyNarxModel


@dataclass(frozen=True)
class CpdFactors:
    """Three-factor decomposition T[i,j,k] = sum_l A[i,l] B[j,l] C[k,l] of rank r = A.shape[1].

    `error_history` holds the relative error after each ALS sweep, so its length is the
    sweep count (`iterations`); it is empty for a zero tensor, which needs no sweep."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    rel_error: float = field(default=np.nan, compare=False)
    error_history: tuple[float, ...] = field(default=(), compare=False)
    # "converged" when the `tol` test on the error or its change stopped ALS, else "max_iter"
    status: str = field(default="max_iter", compare=False)
    # the final error of each restart `cpd_als` attempted, None where it failed (an error
    # that was not finite)
    restart_errors: tuple[float | None, ...] = field(default=(), compare=False)

    @property
    def r(self) -> int:
        return self.A.shape[1]

    @property
    def iterations(self) -> int:
        return len(self.error_history)


def cpd_als(
    tensor: HessianTensor,
    r: int,
    max_iter: int = 500,
    tol: float = 1e-8,
    seed: int = 0,
    n_restarts: int = 3,
    basis: np.ndarray | None = None,
) -> CpdFactors:
    """Three-way ALS decomposition of an m x m x N tensor T.

    Factors are initialized from a seeded standard normal; the best of
    `n_restarts` runs (by relative reconstruction error) is returned, with
    the error of every restart attempted in `restart_errors`. A restart fails,
    and is recorded as None, when its relative error after a sweep is not
    finite (a NaN or infinite start, or an overflow); LinAlgError is raised when
    every restart fails. Restarts are attempted in order until one brings the
    best error to `tol`.
    Iteration stops when the relative error, or its relative change, drops to `tol`.
    The restarts run in lockstep, as one stack (`_als_lockstep`), with the
    results that running them one after another gives.

    ALS runs on an exact compression of mode 3: for a core G and an N x p
    basis Q with orthonormal columns such that T = G x_3 Q, ALS on G with
    C = Q C' gives the same iterates and errors as ALS on T at a cost
    independent of N (CANDELINC; Carroll, Pruzansky & Kruskal, 1980; Bro &
    Andersson, 1998). Without `basis`, G and Q come from the thin QR of the
    N x m^2 mode-3 unfolding of `tensor`, so G has min(N, m^2) slices. With
    `basis`, `tensor` is the m x m x p core itself, such as
    `hessian.hessian_core` builds. The returned C is lifted back to N x r.
    """
    data = tensor.data
    m, _, p = data.shape
    if basis is None:
        N = p
    else:
        basis = np.asarray(basis, dtype=float)
        if basis.ndim != 2 or basis.shape[1] != p:
            raise ValueError(f"basis must be N x {p} for an {m}x{m}x{p} core")
        N = basis.shape[0]
    if not 1 <= r <= min(m * m, N):
        raise ValueError(f"rank {r} out of range for a {m}x{m}x{N} tensor")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if n_restarts < 1:
        raise ValueError("n_restarts must be >= 1")
    # ||T||^2; a core's norm is its tensor's, ||G x_3 Q|| = ||G||, as Q's columns are orthonormal
    normT2 = float(np.sum(data * data))
    if normT2 == 0.0:
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((m, r))
        A /= np.linalg.norm(A, axis=0)
        C = np.zeros((N, r))
        return CpdFactors(A=A, B=A.copy(), C=C, rel_error=0.0, status="converged", restart_errors=(0.0,))

    G, Q = _compress_mode3(data) if basis is None else (data, basis)
    best: CpdFactors | None = None
    errors: list[float | None] = []
    # restart by restart, as if each ran after the one before
    for fac in _als_lockstep(G, Q, r, max_iter, tol, seed, n_restarts, normT2):
        if fac is None:
            errors.append(None)
            continue
        errors.append(fac.rel_error)
        if best is None or fac.rel_error < best.rel_error:
            best = fac
        if best.rel_error <= tol:
            break
    if best is None:
        raise np.linalg.LinAlgError("ALS relative error not finite in every restart")
    # lifted back to N x r for the chosen restart only
    return replace(best, C=Q @ best.C, restart_errors=tuple(errors))


def _compress_mode3(T):
    """Core G and orthonormal Q with T[:, :, k] = sum_p G[:, :, p] Q[k, p]."""
    m, _, N = T.shape
    Q, R = np.linalg.qr(T.reshape(m * m, N).T)
    return R.T.reshape(m, m, -1), Q


def _khatri_rao(X, Y):
    """Column-wise Kronecker product of each pair in two stacks of matrices: row
    i * Y.shape[1] + j of member s holds X[s, i] * Y[s, j]."""
    return (X[:, :, None, :] * Y[:, None, :, :]).reshape(len(X), -1, X.shape[2])


def _gram(X):
    """X_s^T X_s for each member s of a stack."""
    return X.transpose(0, 2, 1) @ X


def _als_lockstep(G, Q, r, max_iter, tol, seed, n_restarts, normT2) -> list[CpdFactors | None]:
    """ALS on the core G from the start of each restart (a standard normal A, B and
    N x r C0 from seed + restart), all restarts advanced together as one stack.

    Each matmul and solve of a sweep runs over the stack, one BLAS or LAPACK call per
    member, so every member takes the iterates, errors and stop it would take alone. A
    member leaves the stack when it stops, and so does every later restart once a member
    reaches `tol`, as cpd_als would never run it, and so does a member whose error is
    not finite, which has failed. Returns one CpdFactors per restart, with C still on the
    core (p x r); None where the restart failed, and also past a member that reached `tol`.
    """
    m, _, p = G.shape
    # fixed unfoldings, so each MTTKRP and the residual is one GEMM per member:
    # mode 1 over (j, k), mode 2 over (i, k), mode 3 over (i, j)
    G1 = G.reshape(m, m * p)
    G2 = G.transpose(1, 0, 2).reshape(m, m * p)
    G3 = G.reshape(m * m, p)
    starts = []
    for restart in range(n_restarts):
        rng = np.random.default_rng(seed + restart)
        A = rng.standard_normal((m, r))
        B = rng.standard_normal((m, r))
        C0 = rng.standard_normal((Q.shape[0], r))
        # the first A and B updates use the Gram of the full start C0, as ALS on T
        # does; from the first C update on, C^T C equals the Gram of the lift Q C
        starts.append((A, B, Q.T @ C0, C0.T @ C0))
    A, B, C, CtC = (np.stack(x) for x in zip(*starts))
    live = list(range(n_restarts))  # the restart of each stack member
    histories: list[list[float]] = [[] for _ in live]
    runs: list[CpdFactors | None] = [None] * n_restarts
    eye = np.eye(r)  # for the solves' ridge
    BtB = _gram(B)  # each Gram once per sweep: B's is carried into the next A update

    for _ in range(max_iter):
        A = _solve_mode(G1 @ _khatri_rao(B, C), BtB * CtC, eye)
        AtA = _gram(A)
        B = _solve_mode(G2 @ _khatri_rao(A, C), AtA * CtC, eye)
        BtB = _gram(B)
        AB = _khatri_rao(A, B)
        C = _solve_mode(G3.T @ AB, AtA * BtB, eye)
        CtC = _gram(C)
        # direct residual norm, on the core since ||T - [[A,B,QC]]|| = ||G - [[A,B,C]]||;
        # the Gram-matrix shortcut cancels catastrophically once the fit is tight. The
        # residual and its square overwrite the model product
        resid = AB @ C.transpose(0, 2, 1)
        np.subtract(G3, resid, out=resid)
        np.square(resid, out=resid)
        err = np.sqrt(np.sum(resid, axis=(1, 2)) / normT2)
        going = []
        for s, restart in enumerate(live):
            if not np.isfinite(err[s]):
                continue  # the restart failed: its run stays None
            history = histories[restart]
            history.append(float(err[s]))
            # err is already relative to ||T||; the change test alone never fires once
            # the error wobbles at rounding level
            if err[s] <= tol or len(history) > 1 and abs(history[-2] - err[s]) <= tol * max(err[s], 1e-300):
                runs[restart] = _factors(A[s], B[s], C[s], history, "converged")
                if err[s] <= tol:
                    break  # no later restart runs
            else:
                going.append(s)
        if len(going) < len(live):
            # indexing keeps each member's memory layout, that of the solve output it would be alone
            live = [live[s] for s in going]
            A, B, C, CtC, BtB = (x[going] for x in (A, B, C, CtC, BtB))
        if not live:
            break
    for s, restart in enumerate(live):
        runs[restart] = _factors(A[s], B[s], C[s], histories[restart], "max_iter")
    return runs


def _factors(A, B, C, history, status) -> CpdFactors:
    return CpdFactors(A=A, B=B, C=C, rel_error=history[-1], error_history=tuple(history), status=status)


def _solve_mode(M, gram, eye):
    """X_s = M_s gram_s^-1 for each member s of a stack; `eye` is the r x r identity."""
    # tiny ridge keeps near-singular normal equations solvable; a solve that raised
    # anyway would end cpd_als with its LinAlgError
    ridge = 1e-14 * np.maximum(np.trace(gram, axis1=1, axis2=2), 1e-300)
    gram = gram + eye * ridge[:, None, None]
    return np.linalg.solve(gram, M.transpose(0, 2, 1)).transpose(0, 2, 1)


def symmetrize_to_V(factors: CpdFactors) -> np.ndarray:
    """Merge the two symmetric-mode factors into one unit-column matrix.

    For a tensor symmetric in modes 1-2 the A and B columns estimate the same
    direction up to sign and scale; each pair is sign-aligned, averaged, and
    normalized to unit Euclidean norm.
    """
    A, B = factors.A, factors.B
    V = np.empty_like(A)
    for l in range(factors.r):
        a, b = A[:, l], B[:, l]
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        if na == 0 or nb == 0:
            raise ValueError(f"factor column {l} is zero")
        cos = float(a @ b) / (na * nb)
        if abs(cos) < 0.5:
            warnings.warn(
                f"factor columns {l} nearly orthogonal (|cos|={abs(cos):.3f}); "
                "mode-1/2 symmetry assumption likely violated"
            )
        v = a / na + np.copysign(1.0, cos) * b / nb  # ||v||^2 = 2 + 2|cos| >= 2, never 0
        V[:, l] = v / np.linalg.norm(v)
    return V


def init_transform(
    dataset: RegressionDataset,
    poly: PolyNarxModel,
    n: int,
    max_points: int | None = None,
    max_iter: int = 500,
    seed: int = 0,
    n_restarts: int = 3,
) -> tuple[np.ndarray, CpdFactors]:
    """Initialization pipeline for the linear transform: Hessian core -> CPD -> merge.

    Returns the merged transform V0 and the CPD factors it came from.

    The CPD is that of the Hessian stack over the operating points, which
    default to every regressor row; `max_points` (>= 1, or None for every
    row) subsamples them uniformly.
    ALS never sees the stack: `hessian_core` gives it exactly as an
    m x m x (m+1) core from the polynomial's coefficients and an N x (m+1)
    basis from one QR of [1, points], so `max_points` bounds only that QR.
    The polynomial must have degree <= 3 (ValueError otherwise).
    """
    if n > dataset.m:
        raise ValueError("n must not exceed the regressor dimension m")
    if max_points is not None and max_points < 1:
        raise ValueError(f"init.max_points must be >= 1 or null, not {max_points}")
    points = dataset.U
    if max_points is not None and points.shape[0] > max_points:
        idx = np.linspace(0, points.shape[0] - 1, max_points).astype(int)
        points = points[idx]
    core, basis = hessian_core(poly, points)
    factors = cpd_als(core, r=n, max_iter=max_iter, seed=seed, n_restarts=n_restarts, basis=basis)
    return symmetrize_to_V(factors), factors
