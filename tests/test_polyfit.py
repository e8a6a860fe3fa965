import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from urelunet.cpd import init_transform
from urelunet.dataset import RegressionDataset, RegressorSpec
from urelunet.polyfit import (
    MOMENT_BLOCK,
    PolyNarxModel,
    PolyTerm,
    enumerate_terms,
    frols_select,
    moment_index,
    monomial_dot,
    monomials,
)


def design_matrix(model, U):
    """Every term of `model` evaluated on the rows of U, N x n_terms."""
    return monomials([t.exponents for t in model.terms], U)


def make_ds(U, y):
    n_y = U.shape[1] - 1
    return RegressionDataset(U=U, y=y, spec=RegressorSpec(n_u=0, n_y=n_y))


def reference_frols(U, y, candidates, max_terms, esr_tol, drop_tol=1e-10):
    """FROLS that orthogonalizes every candidate column at every step.

    Each step subtracts the new direction from all columns and projects them
    once more against the whole selected basis, then recomputes every norm
    and correlation. Returns (selected indices, err values, refit coeffs).
    """
    # independent oracle for the candidate columns: one broadcast power and
    # product over the variables
    E = np.array([t.exponents for t in candidates])
    raw = np.prod(U[:, None, :] ** E[None, :, :], axis=2)
    W = raw.copy()
    norms = np.linalg.norm(W, axis=0)
    alive = norms > 0
    W[:, alive] /= norms[alive]
    yty = float(y @ y)
    selected, err_values = [], []
    Q = np.empty((len(y), 0))
    esr = 1.0
    for _ in range(max_terms):
        wn2 = np.einsum("ij,ij->j", W, W)
        ok = alive.copy()
        ok[selected] = False
        alive &= ~(ok & (wn2 <= drop_tol))
        ok &= alive
        if not ok.any():
            break
        wy = W.T @ y
        err = np.zeros(W.shape[1])
        err[ok] = wy[ok] ** 2 / (wn2[ok] * yty)
        best = int(np.argmax(err))
        selected.append(best)
        err_values.append(float(err[best]))
        esr -= err[best]
        if esr <= esr_tol:
            break
        q = W[:, best] / np.sqrt(wn2[best])
        Q = np.column_stack([Q, q])
        W -= np.outer(q, q @ W)
        W -= Q @ (Q.T @ W)
    coeffs, *_ = np.linalg.lstsq(raw[:, selected], y, rcond=None)
    return selected, err_values, coeffs


def reference_monomials(exponents, U):
    """Per-term reference: start from ones and multiply in U[:, j] ** e in variable order."""
    cols = []
    for exps in exponents:
        col = np.ones(U.shape[0])
        for j, e in enumerate(exps):
            if e:
                col *= U[:, j] ** e
        cols.append(col)
    return np.column_stack(cols)


def full_copy_monomial_dot(index, U, v):
    """`monomial_dot` with one m x N copy of U^T, of which each block is a column slice:
    the moments and gathers of `monomial_dot`, on another buffer layout."""
    Ut = np.ascontiguousarray(U.T, dtype=float)
    m, N = Ut.shape
    cubic = index.max(initial=0) > m + m * m
    pairs = m * (m + 1) // 2 if cubic else 0
    first = np.cumsum([0, *range(m, 1, -1)]).tolist()
    moments = np.zeros(1 + m + m * m + m * pairs)
    s1 = moments[1 : 1 + m]
    s2 = moments[1 + m : 1 + m + m * m].reshape(m, m)
    s3 = moments[1 + m + m * m :].reshape(m, pairs)
    rows = min(N, MOMENT_BLOCK)
    vU_buf, kr_buf = np.empty((m, rows)), np.empty((pairs, rows))
    for start in range(0, N, MOMENT_BLOCK):
        Ub = Ut[:, start : start + MOMENT_BLOCK]
        vb = v[start : start + MOMENT_BLOCK]
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


@st.composite
def terms_and_points(draw):
    m = draw(st.integers(1, 30))
    degree = draw(st.integers(0, 3))
    combos = draw(
        st.lists(st.lists(st.integers(0, m - 1), max_size=degree), min_size=1, max_size=40)
    )
    exponents = [tuple(c.count(j) for j in range(m)) for c in combos]
    N = draw(st.integers(1, 12))
    U = draw(hnp.arrays(np.float64, (N, m), elements=st.floats(-1e3, 1e3)))
    return exponents, U


class TestMonomials:
    @given(terms_and_points())
    @settings(max_examples=100, deadline=None)
    def test_matches_per_term_reference(self, case):
        exponents, U = case
        np.testing.assert_array_equal(monomials(exponents, U), reference_monomials(exponents, U))

    def test_single_term_and_single_point(self):
        U = np.array([[2.0, -3.0, 0.5]])
        np.testing.assert_array_equal(monomials((1, 2, 0), U), [[18.0]])
        np.testing.assert_array_equal(monomials([(0, 0, 0), (0, 0, 3)], U[0]), [[1.0, 0.125]])

    @pytest.mark.parametrize("columns", [1, 3])
    def test_column_count_must_match_terms(self, columns):
        with pytest.raises(ValueError, match="columns"):
            monomials([(1, 0), (0, 1)], np.ones((5, columns)))

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            monomials([(1, -1)], np.ones((5, 2)))

    def test_no_terms(self):
        assert monomials(np.empty((0, 3), dtype=int), np.ones((5, 3))).shape == (5, 0)


class TestMonomialDot:
    @given(terms_and_points(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_monomials_contraction(self, case, data):
        exponents, U = case
        v = data.draw(hnp.arrays(np.float64, U.shape[0], elements=st.floats(-1e3, 1e3)))
        cols = monomials(exponents, U)
        got = monomial_dot(moment_index(exponents, U.shape[1]), U, v)
        # products are formed in another order; 1e-290 covers what underflows
        # in one order and not the other
        tol = 1e-14 * (np.abs(cols).T @ np.abs(v)) + 1e-290
        assert np.all(np.abs(got - cols.T @ v) <= tol)

    def test_blocks_accumulate(self):
        rng = np.random.default_rng(11)
        U = rng.normal(size=(2 * MOMENT_BLOCK + 5, 4))
        v = rng.normal(size=len(U))
        E = [t.exponents for t in enumerate_terms(4, 3)]
        np.testing.assert_allclose(
            monomial_dot(moment_index(E, 4), U, v), monomials(E, U).T @ v, rtol=1e-12, atol=1e-12
        )

    @pytest.mark.parametrize("m", [6, 9])
    def test_bit_identical_to_one_full_copy(self, m):
        # each block of U^T goes through one reused buffer; the bits stay those of
        # column slices of a whole m x N copy, in the last, short block too
        rng = np.random.default_rng(m)
        U = rng.normal(size=(2 * MOMENT_BLOCK + 5, m))
        index = moment_index([t.exponents for t in enumerate_terms(m, 3)], m)
        for v in (rng.normal(size=len(U)), np.ones(len(U))):
            for W in (U, U * U):
                np.testing.assert_array_equal(
                    monomial_dot(index, W, v), full_copy_monomial_dot(index, W, v)
                )


class TestEnumerateTerms:
    def test_two_vars_degree_two(self):
        terms = enumerate_terms(2, 2)
        assert [t.exponents for t in terms] == [
            (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
        ]

    def test_single_var_cubic(self):
        assert [t.exponents for t in enumerate_terms(1, 3)] == [(0,), (1,), (2,), (3,)]

    def test_count_matches_binomial(self):
        # oracle: C(m + d, d)
        for m, d in [(30, 3), (5, 4), (12, 2)]:
            assert len(enumerate_terms(m, d)) == math.comb(m + d, d)
        assert len(enumerate_terms(30, 3)) == 5456

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="lower max_degree"):
            enumerate_terms(100, 5)


class TestFrols:
    def test_exact_recovery(self):
        rng = np.random.default_rng(1)
        U = rng.normal(size=(300, 3))
        y = 2.0 * U[:, 0] + 3.0 * U[:, 0] * U[:, 1]
        model = frols_select(
            make_ds(U, y), enumerate_terms(3, 2), max_terms=10, esr_tol=1e-12
        )
        support = {t.exponents: c for t, c in zip(model.terms, model.coeffs)}
        assert set(support) == {(1, 0, 0), (1, 1, 0)}
        assert support[(1, 0, 0)] == pytest.approx(2.0, abs=1e-10)
        assert support[(1, 1, 0)] == pytest.approx(3.0, abs=1e-10)
        assert sum(model.err_values) == pytest.approx(1.0, abs=1e-10)

    def test_constant_target(self):
        rng = np.random.default_rng(2)
        U = rng.normal(size=(100, 2))
        model = frols_select(make_ds(U, np.full(100, 5.0)), enumerate_terms(2, 2))
        assert [t.exponents for t in model.terms] == [(0, 0)]
        assert model.coeffs[0] == pytest.approx(5.0)

    def test_white_noise_budget_and_variance(self):
        rng = np.random.default_rng(3)
        U = rng.normal(size=(400, 2))
        y = rng.normal(size=400)
        model = frols_select(make_ds(U, y), enumerate_terms(2, 3), max_terms=3)
        assert len(model.terms) == 3
        resid = y - design_matrix(model, U) @ model.coeffs
        assert np.var(resid) <= np.var(y)

    def test_err_values_bounded(self):
        rng = np.random.default_rng(4)
        U = rng.normal(size=(200, 3))
        y = U[:, 0] ** 2 - U[:, 1] + 0.1 * rng.normal(size=200)
        model = frols_select(make_ds(U, y), enumerate_terms(3, 2), max_terms=8)
        err = np.array(model.err_values)
        assert np.all(err >= 0) and np.all(err <= 1)
        running = np.cumsum(err)
        assert np.all(np.diff(running) >= 0)
        assert running[-1] <= 1 + 1e-10

    def test_refit_residual_orthogonal_to_selected(self):
        rng = np.random.default_rng(5)
        U = rng.normal(size=(250, 3))
        y = 1.5 + U[:, 0] - 2.0 * U[:, 2] ** 2 + 0.05 * rng.normal(size=250)
        model = frols_select(make_ds(U, y), enumerate_terms(3, 2), max_terms=6)
        cols = design_matrix(model, U)
        resid = y - cols @ model.coeffs
        for col in cols.T:
            assert abs(resid @ col) <= 1e-8 * np.linalg.norm(col) * np.linalg.norm(y)

    @pytest.mark.parametrize("collinear", [False, True])
    def test_matches_full_orthogonalization(self, collinear):
        # The downdated norms must select what explicit re-orthogonalization
        # of every column selects. With `collinear`, regressor 1 is regressor
        # 0 plus 1e-6 noise, so several columns fall below the drop tolerance.
        rng = np.random.default_rng(8)
        U = rng.normal(size=(400, 10))
        if collinear:
            U[:, 1] = U[:, 0] + 1e-6 * rng.normal(size=400)
        y = (
            U[:, 0]
            - 0.5 * U[:, 2] * U[:, 3]
            + 0.2 * U[:, 4] ** 3
            + 0.3 * U[:, 1] * U[:, 5]
            + 0.05 * rng.normal(size=400)
        )
        candidates = enumerate_terms(10, 3)
        assert len(candidates) == 286
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            model = frols_select(make_ds(U, y), candidates, max_terms=30, esr_tol=1e-12)
            ref_idx, ref_err, ref_coeffs = reference_frols(
                U, y, candidates, max_terms=30, esr_tol=1e-12
            )
        assert len(ref_idx) == 30
        assert model.terms == tuple(candidates[i] for i in ref_idx)
        np.testing.assert_allclose(model.err_values, ref_err, rtol=0, atol=1e-12)
        np.testing.assert_allclose(model.coeffs, ref_coeffs, rtol=1e-10)

    def test_degenerate_columns_warned_and_skipped(self):
        # U1 = 2 U0 makes e.g. (0, 1, 0) a multiple of (1, 0, 0) and (0, 2, 0)
        # of (2, 0, 0): once one is selected, the other is numerically zero.
        rng = np.random.default_rng(9)
        U = rng.normal(size=(200, 3))
        U[:, 1] = 2.0 * U[:, 0]
        y = U[:, 0] + U[:, 0] ** 2 - U[:, 2] + 0.5 * U[:, 0] * U[:, 2]
        y += 0.01 * rng.normal(size=200)
        with pytest.warns(UserWarning, match="numerically zero"):
            model = frols_select(
                make_ds(U, y), enumerate_terms(3, 2), max_terms=8, esr_tol=1e-12
            )
        cols = design_matrix(model, U)
        assert np.linalg.matrix_rank(cols) == len(model.terms)

    def test_degenerate_candidates_error(self):
        U = np.zeros((50, 2))
        y = np.ones(50)
        bad = [PolyTerm((1, 0)), PolyTerm((0, 1))]
        with pytest.raises(ValueError, match="degenerate"):
            frols_select(make_ds(U, y), bad, max_terms=2)

    def test_candidate_above_degree_three_rejected(self):
        rng = np.random.default_rng(12)
        U = rng.normal(size=(50, 2))
        candidates = enumerate_terms(2, 3) + [PolyTerm((2, 2)), PolyTerm((5, 0))]
        with pytest.raises(ValueError, match=r"term 10 \(2, 2\) has degree 4"):
            frols_select(make_ds(U, U[:, 0]), candidates, max_terms=4)

    def test_quartic_term_gives_one_message_as_candidate_and_in_the_model(self):
        # FROLS's moments and the Hessian core of init_transform cover the same
        # terms, so both raise the one message of `cubic_exponents`
        rng = np.random.default_rng(19)
        U = rng.normal(size=(40, 3))
        ds = make_ds(U, U[:, 0])
        terms = (PolyTerm((1, 0, 0)), PolyTerm((0, 2, 0)), PolyTerm((3, 1, 0)))
        model = PolyNarxModel(terms=terms, coeffs=np.ones(3), m=3)
        with pytest.raises(ValueError) as as_candidate:
            frols_select(ds, list(terms), max_terms=2)
        with pytest.raises(ValueError) as in_model:
            init_transform(ds, model, n=2)
        assert str(as_candidate.value).startswith("term 2 (3, 1, 0) has degree 4; ")
        assert str(in_model.value) == str(as_candidate.value)

    def test_no_candidate_matrix_allocated(self):
        # All N x K candidate columns at once would take N * K * 8 bytes; the
        # moment gathers need a small fraction of that.
        rng = np.random.default_rng(13)
        N = 4096
        U = rng.normal(size=(N, 30))
        ds = make_ds(U, U[:, 0] - U[:, 1] * U[:, 2] + rng.normal(size=N))
        candidates = enumerate_terms(30, 3)
        tracemalloc.start()
        try:
            frols_select(ds, candidates, max_terms=10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < N * len(candidates) * 8 / 4

    def test_candidate_dimension_mismatch(self):
        rng = np.random.default_rng(10)
        U = rng.normal(size=(50, 2))
        with pytest.raises(ValueError, match="columns"):
            frols_select(make_ds(U, U[:, 0]), enumerate_terms(3, 2), max_terms=4)


class TestPolyEval:
    def test_zero_terms_rejected(self):
        with pytest.raises(ValueError, match="at least one term"):
            PolyNarxModel(terms=(), coeffs=[], m=2)
