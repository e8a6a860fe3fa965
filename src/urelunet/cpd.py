"""Canonical polyadic decomposition of the stacked Hessian tensor by alternating least squares."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .dataset import RegressionDataset
from .hessian import HessianTensor, stack_hessians
from .polyfit import PolyNarxModel


@dataclass(frozen=True)
class CpdFactors:
    """Three-factor decomposition T[i,j,k] = sum_l A[i,l] B[j,l] C[k,l]."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    r: int
    rel_error: float = field(default=np.nan, compare=False)
    iterations: int = field(default=0, compare=False)
    error_history: tuple[float, ...] = field(default=(), compare=False)

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        B = np.asarray(self.B, dtype=float)
        C = np.asarray(self.C, dtype=float)
        if A.shape[1] != self.r or B.shape[1] != self.r or C.shape[1] != self.r:
            raise ValueError("factor column counts must equal r")
        if A.shape[0] != B.shape[0]:
            raise ValueError("modes 1 and 2 must have equal dimension")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)

    def reconstruct(self) -> np.ndarray:
        return np.einsum("il,jl,kl->ijk", self.A, self.B, self.C)


def cpd_als(
    tensor: HessianTensor,
    r: int,
    max_iter: int = 500,
    tol: float = 1e-8,
    seed: int = 0,
    n_restarts: int = 3,
) -> CpdFactors:
    """Three-way ALS decomposition of an m x m x N tensor.

    Factors are initialized from a seeded standard normal; the best of
    `n_restarts` runs (by relative reconstruction error) is returned.
    Iteration stops when the relative error change drops below `tol`.

    ALS runs on an exact compression of mode 3: with the thin QR `Q R` of
    the N x m^2 mode-3 unfolding, T = G x_3 Q for the m x m x min(N, m^2)
    core G, and ALS on G with C = Q C' gives the same iterates and errors as
    ALS on T at a cost independent of N (CANDELINC; Bro & Andersson, 1998).
    The returned C is lifted back to N x r.
    """
    T = tensor.data
    m, _, N = T.shape
    if not 1 <= r <= min(m * m, N):
        raise ValueError(f"rank {r} out of range for a {m}x{m}x{N} tensor")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    normT2 = float(np.sum(T * T))
    if normT2 == 0.0:
        rng = np.random.default_rng(seed)
        A = _unit_columns(rng.standard_normal((m, r)))
        return CpdFactors(A=A, B=A.copy(), C=np.zeros((N, r)), r=r, rel_error=0.0)

    G, Q = _compress_mode3(T)
    best: CpdFactors | None = None
    for restart in range(n_restarts):
        rng = np.random.default_rng(seed + restart)
        try:
            fac = _als_run(G, Q, N, r, max_iter, tol, rng, normT2)
        except np.linalg.LinAlgError:
            continue
        if best is None or fac.rel_error < best.rel_error:
            best = fac
        if best.rel_error <= tol:
            break
    if best is None:
        raise np.linalg.LinAlgError("ALS normal equations singular in every restart")
    return best


def _compress_mode3(T):
    """Core G and orthonormal Q with T[:, :, k] = sum_p G[:, :, p] Q[k, p]."""
    m, _, N = T.shape
    Q, R = np.linalg.qr(T.reshape(m * m, N).T)
    return R.T.reshape(m, m, -1), Q


def _als_run(G, Q, N, r, max_iter, tol, rng, normT2) -> CpdFactors:
    m = G.shape[0]
    A = rng.standard_normal((m, r))
    B = rng.standard_normal((m, r))
    C0 = rng.standard_normal((N, r))
    C = Q.T @ C0
    # the first A and B updates use the Gram of the full start C0, as ALS on T
    # does; from the first C update on, C^T C equals the Gram of the lift Q C
    CtC = C0.T @ C0
    prev = np.inf
    err = np.inf
    it = 0
    history = []
    for it in range(1, max_iter + 1):
        A = _solve_mode(np.einsum("ijk,jl,kl->il", G, B, C), (B.T @ B) * CtC)
        B = _solve_mode(np.einsum("ijk,il,kl->jl", G, A, C), (A.T @ A) * CtC)
        C = _solve_mode(np.einsum("ijk,il,jl->kl", G, A, B), (A.T @ A) * (B.T @ B))
        CtC = C.T @ C
        # direct residual norm, on the core since ||T - [[A,B,QC]]|| = ||G - [[A,B,C]]||;
        # the Gram-matrix shortcut cancels catastrophically once the fit is tight
        resid = G - np.einsum("il,jl,kl->ijk", A, B, C)
        err = np.sqrt(np.sum(resid * resid) / normT2)
        history.append(float(err))
        if np.isfinite(prev) and abs(prev - err) <= tol * max(err, 1e-300):
            break
        prev = err
    return CpdFactors(
        A=A,
        B=B,
        C=Q @ C,
        r=r,
        rel_error=float(err),
        iterations=it,
        error_history=tuple(history),
    )


def _solve_mode(M, gram):
    # tiny ridge keeps near-singular normal equations solvable; genuine
    # singularity still raises and triggers a restart
    gram = gram + np.eye(gram.shape[0]) * (1e-14 * max(np.trace(gram), 1e-300))
    return np.linalg.solve(gram, M.T).T


def _unit_columns(V: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(V, axis=0)
    norms[norms == 0] = 1.0
    return V / norms


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
        v = a / na + np.copysign(1.0, cos) * b / nb
        nv = np.linalg.norm(v)
        if nv == 0:
            raise ValueError(f"factor column {l} cancelled during averaging")
        V[:, l] = v / nv
    return V


def init_transform(
    dataset: RegressionDataset,
    poly: PolyNarxModel,
    n: int,
    max_points: int | None = None,
    max_iter: int = 500,
    tol: float = 1e-8,
    seed: int = 0,
    n_restarts: int = 3,
) -> np.ndarray:
    """Initialization pipeline for the linear transform: Hessian stack -> CPD -> merge.

    Operating points default to every regressor row; `max_points` subsamples
    them uniformly to bound the size and cost of the Hessian stack; ALS runs
    on a core of at most m^2 slices however many points are used.
    """
    if n > dataset.m:
        raise ValueError("n must not exceed the regressor dimension m")
    points = dataset.U
    if max_points is not None and points.shape[0] > max_points:
        idx = np.linspace(0, points.shape[0] - 1, max_points).astype(int)
        points = points[idx]
    tensor = stack_hessians(poly, points)
    factors = cpd_als(
        tensor, r=n, max_iter=max_iter, tol=tol, seed=seed, n_restarts=n_restarts
    )
    return symmetrize_to_V(factors)
