"""Analytic second derivatives of the polynomial model, stacked over operating points."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .polyfit import PolyNarxModel, cubic_exponents, monomials


@dataclass(frozen=True)
class HessianTensor:
    """m x m x N stack of polynomial Hessians evaluated at N operating points."""

    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 3 or data.shape[0] != data.shape[1]:
            raise ValueError("data must be m x m x N")
        object.__setattr__(self, "data", data)

    @property
    def n_points(self) -> int:
        return self.data.shape[2]


def stack_hessians(model: PolyNarxModel, points: np.ndarray) -> HessianTensor:
    """Evaluate the analytic Hessian at every row of `points` and stack along mode 3."""
    P = np.atleast_2d(np.asarray(points, dtype=float))
    if P.shape[1] != model.m:
        raise ValueError(f"points must have {model.m} columns, got {P.shape[1]}")
    N, m = P.shape
    H = np.zeros((m, m, N))
    for term, c in zip(model.terms, model.coeffs):
        exps = np.array(term.exponents)
        vars_present = np.nonzero(exps)[0]
        for ia, a in enumerate(vars_present):
            # diagonal entry: d^2/du_a^2
            if exps[a] >= 2:
                red = exps.copy()
                red[a] -= 2
                H[a, a, :] += c * exps[a] * (exps[a] - 1) * monomials(red, P)[:, 0]
            # off-diagonal entries: d^2/du_a du_b, b > a
            for b in vars_present[ia + 1 :]:
                red = exps.copy()
                red[a] -= 1
                red[b] -= 1
                val = c * exps[a] * exps[b] * monomials(red, P)[:, 0]
                H[a, b, :] += val
                H[b, a, :] += val
    return HessianTensor(data=H)


def hessian_core(model: PolyNarxModel, points: np.ndarray) -> tuple[HessianTensor, np.ndarray]:
    """Exact compression of `stack_hessians(model, points)` into a core and its basis.

    The Hessian of a polynomial of degree <= 3 is affine in u:
    H(u) = H(0) + sum_j u_j (H(e_j) - H(0)). So the N-point stack is
    Hhat x_3 Phi, with Hhat the m x m x (m+1) stack of H(0) and the
    H(e_j) - H(0), and Phi = [1, points] (N x (m+1)). With the thin QR
    Phi = Q R, the stack is G x_3 Q for the core G = Hhat x_3 R. Returns G
    (m x m x min(N, m+1)) and the N x min(N, m+1) basis Q, whose columns are
    orthonormal; the cost is one Hessian stack on m+1 points and one QR of Phi.
    A term above degree 3 raises the ValueError of `polyfit.cubic_exponents`.
    """
    P = np.atleast_2d(np.asarray(points, dtype=float))
    if P.shape[1] != model.m:
        raise ValueError(f"points must have {model.m} columns, got {P.shape[1]}")
    cubic_exponents([term.exponents for term in model.terms], model.m)
    N, m = P.shape
    H = stack_hessians(model, np.vstack([np.zeros(m), np.eye(m)])).data
    Hhat = np.concatenate([H[:, :, :1], H[:, :, 1:] - H[:, :, :1]], axis=2)
    Q, R = np.linalg.qr(np.hstack([np.ones((N, 1)), P]))
    return HessianTensor(data=Hhat @ R.T), Q
