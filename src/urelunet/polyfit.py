"""Polynomial NARX model: term enumeration, FROLS selection, evaluation."""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dataset import RegressionDataset

# Hard cap on enumerated candidate terms. FROLS forms no candidate matrix, so
# this bounds the term list and the K-length vectors FROLS keeps per candidate
# (norms, correlations, ERR).
MAX_CANDIDATES = 200_000
# Rows per block when `monomial_dot` accumulates moments of U: its buffers are
# m x MOMENT_BLOCK and m(m+1)/2 x MOMENT_BLOCK, whatever the record length.
MOMENT_BLOCK = 1024


@dataclass(frozen=True, slots=True)
class PolyTerm:
    """One monomial, stored as a tuple of per-variable exponents."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        exps = tuple(int(e) for e in self.exponents)
        if any(e < 0 for e in exps):
            raise ValueError("exponents must be non-negative")
        object.__setattr__(self, "exponents", exps)


@dataclass(frozen=True)
class PolyNarxModel:
    """Sparse polynomial model: a list of monomials with matching coefficients."""

    terms: tuple[PolyTerm, ...]
    coeffs: np.ndarray
    m: int
    err_values: tuple[float, ...] = field(default=(), compare=False)

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        terms = tuple(self.terms)
        if not terms:
            raise ValueError("a model needs at least one term")
        if len(terms) != len(coeffs):
            raise ValueError("terms and coeffs length mismatch")
        if len(set(t.exponents for t in terms)) != len(terms):
            raise ValueError("duplicate terms")
        for t in terms:
            if len(t.exponents) != self.m:
                raise ValueError("term dimension does not match m")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "coeffs", coeffs)


def _exponent_matrix(exponents, m: int) -> np.ndarray:
    """`exponents` (one length-m exponent vector or K of them) as a K x m int array;
    raises ValueError for another variable count or a negative exponent."""
    E = np.atleast_2d(np.asarray(exponents, dtype=int))
    if E.ndim != 2 or E.shape[1] != m:
        raise ValueError(f"U has {m} columns, the terms have {E.shape[-1]} variables")
    if E.min(initial=0) < 0:
        raise ValueError("exponents must be non-negative")
    return E


def cubic_exponents(exponents, m: int) -> np.ndarray:
    """`_exponent_matrix(exponents, m)`, checked to hold no term above degree 3: the one
    check of the rule that FROLS (`moment_index`) and `hessian.hessian_core` both keep."""
    E = _exponent_matrix(exponents, m)
    degree = E.sum(axis=1)
    above = np.flatnonzero(degree > 3)
    if above.size:
        t = int(above[0])
        raise ValueError(
            f"term {t} {tuple(E[t].tolist())} has degree {degree[t]}; "
            "the moment gathers and the Hessian core cover degree <= 3 only"
        )
    return E


def monomials(exponents, U: np.ndarray) -> np.ndarray:
    """Evaluate monomials on the rows of U (or a single vector); returns N x K.

    `exponents` is one length-m exponent vector or K of them. Column k starts
    from ones and is multiplied, in variable order, by U[:, j] ** e over the
    nonzero exponents e of term k.
    """
    U = np.atleast_2d(np.asarray(U, dtype=float))
    E = _exponent_matrix(exponents, U.shape[1])
    out = np.ones((U.shape[0], E.shape[0]))
    for k, exps in enumerate(E.tolist()):
        for j, e in enumerate(exps):
            if e:
                out[:, k] *= U[:, j] ** e
    return out


def enumerate_terms(m: int, max_degree: int) -> list[PolyTerm]:
    """All monomials in m variables of total degree <= max_degree.

    Order is graded lexicographic: degree ascending, then lexicographic in the
    chosen variable indices, which makes the output deterministic.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    total = math.comb(m + max_degree, max_degree)
    if total > MAX_CANDIDATES:
        raise ValueError(
            f"candidate count {total} exceeds cap {MAX_CANDIDATES}; lower max_degree"
        )
    terms = []
    for d in range(max_degree + 1):
        for combo in itertools.combinations_with_replacement(range(m), d):
            exps = [0] * m
            for v in combo:
                exps[v] += 1
            terms.append(PolyTerm(tuple(exps)))
    return terms


def moment_index(exponents, m: int) -> np.ndarray:
    """Position of each monomial's weighted sum in the moment vector of `monomial_dot`.

    `exponents` is one length-m exponent vector or K of them, each of total
    degree <= 3 (`cubic_exponents`). A term's variables, sorted with
    repetition as i <= j <= k, pick its moment: degree 0 the weight sum,
    degree 1 entry i of U^T v, degree 2 entry (i, j) of (v*U)^T U and degree
    3 entry (i, (j, k)) of (v*U)^T (U (.) U), where (.) is the row-wise
    Khatri-Rao product over the variable pairs j <= k.
    """
    E = cubic_exponents(exponents, m)
    degree = E.sum(axis=1)
    # i, j, k: the first variable at which the running degree reaches 1, 2, 3
    reached = E.cumsum(axis=1)
    i, j, k = ((reached < d).sum(axis=1) for d in (1, 2, 3))
    pairs = m * (m + 1) // 2
    pair = j * m - j * (j - 1) // 2 + k - j  # (j, k) in np.triu_indices(m) order
    return np.select(
        [degree == 0, degree == 1, degree == 2],
        [0, 1 + i, 1 + m + i * m + j],
        1 + m + m * m + i * pairs + pair,
    )


def monomial_dot(index: np.ndarray, U: np.ndarray, v: np.ndarray) -> np.ndarray:
    """`monomials(E, U).T @ v` without the N x K matrix; `index` is `moment_index(E, m)`.

    Accumulates the v-weighted moments of U over blocks of MOMENT_BLOCK rows
    (the cubic ones only if a term needs them), then gathers one per term.
    Each block of U^T and its Khatri-Rao product are formed once, in buffers
    reused by every block.
    """
    N, m = U.shape
    cubic = index.max(initial=0) > m + m * m
    pairs = m * (m + 1) // 2 if cubic else 0
    first = np.cumsum([0, *range(m, 1, -1)]).tolist()  # Khatri-Rao row of pair (a, a)
    moments = np.zeros(1 + m + m * m + m * pairs)
    s1 = moments[1 : 1 + m]
    s2 = moments[1 + m : 1 + m + m * m].reshape(m, m)
    s3 = moments[1 + m + m * m :].reshape(m, pairs)
    rows = min(N, MOMENT_BLOCK)
    Ut_buf, vU_buf, kr_buf = np.empty((m, rows)), np.empty((m, rows)), np.empty((pairs, rows))
    for start in range(0, N, MOMENT_BLOCK):
        vb = v[start : start + MOMENT_BLOCK]
        Ub = Ut_buf[:, : len(vb)]
        Ub[...] = U[start : start + MOMENT_BLOCK].T
        vU = np.multiply(Ub, vb, out=vU_buf[:, : len(vb)])
        moments[0] += vb.sum()
        s1 += vU.sum(axis=1)
        s2 += vU @ Ub.T
        if cubic:
            kr = kr_buf[:, : len(vb)]
            for a, row in enumerate(first):
                np.multiply(Ub[a:], Ub[a], out=kr[row : row + m - a])
            s3 += vU @ kr.T
    return moments[index]


def frols_select(
    dataset: RegressionDataset,
    candidates: list[PolyTerm],
    max_terms: int = 50,
    esr_tol: float = 1e-6,
) -> PolyNarxModel:
    """Greedy forward selection of polynomial terms by error reduction ratio.

    Forward regression orthogonal least squares (Billings, Chen & Korenberg,
    1989) in its fast form (Zhu & Billings, 1996; Li, Peng & Irwin, 2005):
    each candidate's squared norm and correlation with y, orthogonal to the
    selected basis, are kept for its unit-scaled column and downdated after
    every selection by c = W^T q, for the new basis vector q. The candidate
    matrix W is never formed. Every candidate has degree <= 3, so its column
    norm, W^T y and each W^T q are gathered from weighted moments of U
    (`monomial_dot`); the norms from the moments of U**2, since a squared
    monomial is the same monomial in u**2. Only the chosen column is
    evaluated and orthogonalized against the selected basis (classical
    Gram-Schmidt, applied twice). Each step picks the candidate explaining
    the largest fraction of the remaining output energy. Selection stops when
    the cumulative error reduction ratio reaches 1 - esr_tol or max_terms
    terms are selected. The final coefficients are re-estimated by ordinary
    least squares on the raw selected columns.
    """
    if max_terms < 1:
        raise ValueError("max_terms must be >= 1")
    if not candidates:
        raise ValueError("candidate list is empty")
    U, y = dataset.U, dataset.y
    N = len(y)
    if N <= max_terms:
        raise ValueError(f"need more samples ({N}) than max_terms ({max_terms})")
    K = len(candidates)
    index = moment_index([t.exponents for t in candidates], dataset.m)
    yty = float(y @ y)
    if yty == 0:
        # Zero target: the first candidate with a zero coefficient.
        return PolyNarxModel(terms=(candidates[0],), coeffs=np.zeros(1), m=dataset.m)
    # Unit-norm scaling stabilizes the orthogonalization arithmetic; ERR
    # itself is scale-invariant and the final OLS refit is done on raw
    # columns. A zero-norm column is all zeros already.
    norms = np.sqrt(monomial_dot(index, U * U, np.ones(N)))
    alive = norms > 0
    scale = np.where(alive, norms, 1.0)

    # Squared norms and correlations with y of the unit-scaled columns'
    # components orthogonal to the selected basis Q.
    wn2 = alive.astype(float)
    wy = monomial_dot(index, U, y) / scale
    selected: list[int] = []
    err_values: list[float] = []
    Q = np.empty((N, max_terms))
    esr = 1.0
    drop_tol = 1e-10
    for k in range(max_terms):
        degenerate = alive & (wn2 <= drop_tol)
        if degenerate.any():
            warnings.warn(
                f"{int(degenerate.sum())} candidate columns numerically zero after "
                "orthogonalization; skipped"
            )
            alive[degenerate] = False
        if not alive.any():
            if not selected:
                raise ValueError("all candidate columns are degenerate")
            break
        err = np.zeros(K)
        err[alive] = wy[alive] ** 2 / (wn2[alive] * yty)
        best = int(np.argmax(err))
        alive[best] = False  # a selected term is never a candidate again
        selected.append(best)
        err_values.append(float(err[best]))
        esr -= err[best]
        if esr <= esr_tol or len(selected) == max_terms:
            break
        q = monomials(candidates[best].exponents, U)[:, 0] / scale[best]
        for _ in range(2):
            q -= Q[:, :k] @ (Q[:, :k].T @ q)
        q /= np.linalg.norm(q)
        Q[:, k] = q
        # q is orthogonal to the earlier basis, so q @ w_j equals q @ (the
        # component of w_j orthogonal to it): one moment pass downdates
        # every candidate.
        c = monomial_dot(index, U, q) / scale
        wn2 -= c * c
        wy -= c * (q @ y)

    del Q  # the refit's N x len(selected) columns take its place
    cols = monomials([candidates[i].exponents for i in selected], U)
    coeffs, *_ = np.linalg.lstsq(cols, y, rcond=None)
    return PolyNarxModel(
        terms=tuple(candidates[i] for i in selected),
        coeffs=coeffs,
        m=dataset.m,
        err_values=tuple(err_values),
    )
