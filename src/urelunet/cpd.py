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
    # the final error of each restart `cpd_als` attempted, None where it was singular
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
    the error of every restart attempted in `restart_errors` (None for a
    restart whose normal equations were singular).
    Iteration stops when the relative error, or its relative change, drops to `tol`.

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
    for restart in range(n_restarts):
        rng = np.random.default_rng(seed + restart)
        try:
            fac = _als_run(G, Q, r, max_iter, tol, rng, normT2)
        except np.linalg.LinAlgError:
            errors.append(None)
            continue
        errors.append(fac.rel_error)
        if best is None or fac.rel_error < best.rel_error:
            best = fac
        if best.rel_error <= tol:
            break
    if best is None:
        raise np.linalg.LinAlgError("ALS normal equations singular in every restart")
    return replace(best, restart_errors=tuple(errors))


def _compress_mode3(T):
    """Core G and orthonormal Q with T[:, :, k] = sum_p G[:, :, p] Q[k, p]."""
    m, _, N = T.shape
    Q, R = np.linalg.qr(T.reshape(m * m, N).T)
    return R.T.reshape(m, m, -1), Q


def _khatri_rao(X, Y):
    """Column-wise Kronecker product: row i * len(Y) + j holds X[i] * Y[j]."""
    return (X[:, None, :] * Y[None, :, :]).reshape(-1, X.shape[1])


def _als_run(G, Q, r, max_iter, tol, rng, normT2) -> CpdFactors:
    m, _, p = G.shape
    # fixed unfoldings, so each MTTKRP and the residual is one GEMM:
    # mode 1 over (j, k), mode 2 over (i, k), mode 3 over (i, j)
    G1 = G.reshape(m, m * p)
    G2 = G.transpose(1, 0, 2).reshape(m, m * p)
    G3 = G.reshape(m * m, p)
    A = rng.standard_normal((m, r))
    B = rng.standard_normal((m, r))
    C0 = rng.standard_normal((Q.shape[0], r))
    C = Q.T @ C0
    # the first A and B updates use the Gram of the full start C0, as ALS on T
    # does; from the first C update on, C^T C equals the Gram of the lift Q C
    CtC = C0.T @ C0
    history = []
    status = "max_iter"
    for _ in range(max_iter):
        A = _solve_mode(G1 @ _khatri_rao(B, C), (B.T @ B) * CtC)
        B = _solve_mode(G2 @ _khatri_rao(A, C), (A.T @ A) * CtC)
        AB = _khatri_rao(A, B)
        C = _solve_mode(G3.T @ AB, (A.T @ A) * (B.T @ B))
        CtC = C.T @ C
        # direct residual norm, on the core since ||T - [[A,B,QC]]|| = ||G - [[A,B,C]]||;
        # the Gram-matrix shortcut cancels catastrophically once the fit is tight
        resid = G3 - AB @ C.T
        err = np.sqrt(np.sum(resid * resid) / normT2)
        history.append(float(err))
        # err is already relative to ||T||; the change test alone never fires once
        # the error wobbles at rounding level
        if err <= tol or len(history) > 1 and abs(history[-2] - err) <= tol * max(err, 1e-300):
            status = "converged"
            break
    return CpdFactors(A=A, B=B, C=Q @ C, rel_error=history[-1], error_history=tuple(history), status=status)


def _solve_mode(M, gram):
    # tiny ridge keeps near-singular normal equations solvable; genuine
    # singularity still raises and triggers a restart
    gram = gram + np.eye(gram.shape[0]) * (1e-14 * max(np.trace(gram), 1e-300))
    return np.linalg.solve(gram, M.T).T


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
    default to every regressor row; `max_points` subsamples them uniformly.
    ALS never sees the stack: `hessian_core` gives it exactly as an
    m x m x (m+1) core from the polynomial's coefficients and an N x (m+1)
    basis from one QR of [1, points], so `max_points` bounds only that QR.
    The polynomial must have degree <= 3 (ValueError otherwise).
    """
    if n > dataset.m:
        raise ValueError("n must not exceed the regressor dimension m")
    points = dataset.U
    if max_points is not None and points.shape[0] > max_points:
        idx = np.linspace(0, points.shape[0] - 1, max_points).astype(int)
        points = points[idx]
    core, basis = hessian_core(poly, points)
    factors = cpd_als(core, r=n, max_iter=max_iter, seed=seed, n_restarts=n_restarts, basis=basis)
    return symmetrize_to_V(factors), factors
