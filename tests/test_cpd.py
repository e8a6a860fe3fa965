from dataclasses import replace

import numpy as np
import pytest

from urelunet import cpd
from urelunet.cpd import CpdFactors, cpd_als, init_transform, symmetrize_to_V
from urelunet.dataset import RegressionDataset, RegressorSpec
from urelunet.hessian import HessianTensor, hessian_core, stack_hessians
from urelunet.polyfit import PolyNarxModel, PolyTerm, enumerate_terms


def symmetric_tensor(m, N, r, seed, cond_guard=True):
    """Ground-truth [[V, V, W]] tensor with well-conditioned factors."""
    rng = np.random.default_rng(seed)
    while True:
        V = rng.normal(size=(m, r))
        W = rng.normal(size=(N, r))
        if not cond_guard:
            break
        if np.linalg.cond(V) < 10 and np.linalg.cond(W) < 10:
            break
    T = np.einsum("il,jl,kl->ijk", V, V, W)
    return HessianTensor(data=T), V, W


def reference_als(T, r, max_iter, tol, seed):
    """Uncompressed ALS on the full tensor, one run from `seed`; returns (A, B, C, errors)."""
    rng = np.random.default_rng(seed)
    m, _, N = T.shape
    normT2 = float(np.sum(T * T))
    A = rng.standard_normal((m, r))
    B = rng.standard_normal((m, r))
    C = rng.standard_normal((N, r))

    def solve(M, F1, F2):
        G = (F1.T @ F1) * (F2.T @ F2)
        G = G + np.eye(r) * (1e-14 * max(np.trace(G), 1e-300))
        return np.linalg.solve(G, M.T).T

    prev = np.inf
    history = []
    for _ in range(max_iter):
        A = solve(np.einsum("ijk,jl,kl->il", T, B, C), B, C)
        B = solve(np.einsum("ijk,il,kl->jl", T, A, C), A, C)
        C = solve(np.einsum("ijk,il,jl->kl", T, A, B), A, B)
        resid = T - np.einsum("il,jl,kl->ijk", A, B, C)
        err = np.sqrt(np.sum(resid * resid) / normT2)
        history.append(err)
        if err <= tol or np.isfinite(prev) and abs(prev - err) <= tol * max(err, 1e-300):
            break
        prev = err
    return A, B, C, np.array(history)


def assert_matches_reference_als(tensor, r, seed):
    """50 iterations of `cpd_als`, one restart, agree with `reference_als` to rounding."""
    fac = cpd_als(tensor, r=r, max_iter=50, tol=1e-8, seed=seed, n_restarts=1)
    A, B, C, history = reference_als(tensor.data, r, max_iter=50, tol=1e-8, seed=seed)
    assert fac.iterations == len(history)
    np.testing.assert_allclose(fac.error_history, history, rtol=1e-10)
    for got, want in ((fac.A, A), (fac.B, B), (fac.C, C)):
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
    assert fac.C.shape == (tensor.n_points, r)
    model = np.einsum("il,jl,kl->ijk", fac.A, fac.B, fac.C)
    direct = np.linalg.norm(tensor.data - model) / np.linalg.norm(tensor.data)
    assert fac.rel_error == pytest.approx(direct, rel=1e-10)


def sequential_cpd_als(tensor, r, max_iter, tol, seed, n_restarts):
    """`cpd_als` as it ran before its restarts went into lockstep, kept as the oracle: on
    the same mode-3 compression, one ALS run per restart from default_rng(seed + restart),
    each to its own stop, one after another until the best error reaches `tol`. Returns
    the chosen factors and the run of every restart attempted, None where singular."""
    data = tensor.data
    normT2 = float(np.sum(data * data))
    G, Q = cpd._compress_mode3(data)
    best, errors, runs = None, [], []
    for restart in range(n_restarts):
        rng = np.random.default_rng(seed + restart)
        try:
            fac = sequential_als_run(G, Q, r, max_iter, tol, rng, normT2)
        except np.linalg.LinAlgError:
            errors.append(None)
            runs.append(None)
            continue
        errors.append(fac.rel_error)
        runs.append(fac)
        if best is None or fac.rel_error < best.rel_error:
            best = fac
        if best.rel_error <= tol:
            break
    if best is None:
        raise np.linalg.LinAlgError("ALS normal equations singular in every restart")
    return replace(best, restart_errors=tuple(errors)), runs


def sequential_als_run(G, Q, r, max_iter, tol, rng, normT2):
    """One ALS run on the core G, on 2-D arrays: the loop that `cpd_als` ran per restart."""

    def khatri_rao(X, Y):
        return (X[:, None, :] * Y[None, :, :]).reshape(-1, X.shape[1])

    def solve_mode(M, gram):
        gram = gram + np.eye(gram.shape[0]) * (1e-14 * max(np.trace(gram), 1e-300))
        return np.linalg.solve(gram, M.T).T

    m, _, p = G.shape
    G1 = G.reshape(m, m * p)
    G2 = G.transpose(1, 0, 2).reshape(m, m * p)
    G3 = G.reshape(m * m, p)
    A = rng.standard_normal((m, r))
    B = rng.standard_normal((m, r))
    C0 = rng.standard_normal((Q.shape[0], r))
    C = Q.T @ C0
    CtC = C0.T @ C0
    history = []
    status = "max_iter"
    for _ in range(max_iter):
        A = solve_mode(G1 @ khatri_rao(B, C), (B.T @ B) * CtC)
        B = solve_mode(G2 @ khatri_rao(A, C), (A.T @ A) * CtC)
        AB = khatri_rao(A, B)
        C = solve_mode(G3.T @ AB, (A.T @ A) * (B.T @ B))
        CtC = C.T @ C
        resid = G3 - AB @ C.T
        err = np.sqrt(np.sum(resid * resid) / normT2)
        history.append(float(err))
        if err <= tol or len(history) > 1 and abs(history[-2] - err) <= tol * max(err, 1e-300):
            status = "converged"
            break
    return CpdFactors(A=A, B=B, C=Q @ C, rel_error=history[-1], error_history=tuple(history), status=status)


def make_restart_singular(monkeypatch, *seeds):
    """Make each restart that draws its start from default_rng(seed), for a seed in
    `seeds`, singular: its start is all NaN, and np.linalg.solve raises LinAlgError, as
    LAPACK does on a zero pivot, on normal equations that hold a NaN, alone or in a stack."""

    class NanStart:
        def standard_normal(self, shape):
            return np.full(shape, np.nan)

    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda s=None: NanStart() if s in seeds else default_rng(s))
    solve = np.linalg.solve

    def singular_on_nan(a, b):
        if np.isnan(a).any():
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", singular_on_nan)


def assert_same_factors(got, want):
    for x, y in ((got.A, want.A), (got.B, want.B), (got.C, want.C)):
        np.testing.assert_array_equal(x, y)
    assert got.error_history == want.error_history
    assert got.status == want.status
    assert got.rel_error == want.rel_error


def congruence(A, B):
    """Best-match column cosines after unit normalization."""
    An = A / np.linalg.norm(A, axis=0)
    Bn = B / np.linalg.norm(B, axis=0)
    M = np.abs(An.T @ Bn)
    return M.max(axis=1)


class TestCpdAls:
    def test_recovers_known_rank2(self):
        tensor, V, _ = symmetric_tensor(8, 40, 2, seed=0)
        fac = cpd_als(tensor, r=2, seed=0)
        assert fac.rel_error <= 1e-8
        # the error reaches rounding level and wobbles there, where only the
        # test on the error itself, not on its change, stops ALS
        assert fac.status == "converged" and fac.iterations <= 30
        assert np.all(congruence(V, fac.A) >= 0.999)
        assert np.all(congruence(V, fac.B) >= 0.999)

    def test_status_tells_tol_from_the_iteration_cap(self):
        # a noisy rank-3 tensor, so the error settles above rounding
        tensor, _, _ = symmetric_tensor(6, 30, 3, seed=1)
        noise = 1e-3 * np.random.default_rng(1).normal(size=tensor.data.shape)
        tensor = HessianTensor(data=tensor.data + noise)
        fac = cpd_als(tensor, r=3, seed=1, n_restarts=1)
        assert fac.status == "converged" and fac.iterations < 500
        capped = cpd_als(tensor, r=3, max_iter=2, seed=1, n_restarts=1)
        assert capped.status == "max_iter" and capped.iterations == 2
        for run in (fac, capped):
            assert run.iterations == len(run.error_history)
            assert run.rel_error == run.error_history[-1]

    def test_zero_tensor(self):
        tensor = HessianTensor(data=np.zeros((4, 4, 6)))
        fac = cpd_als(tensor, r=1, seed=0)
        assert fac.rel_error == 0.0 and fac.status == "converged"
        assert fac.iterations == 0 and fac.r == 1
        assert np.all(fac.C == 0)

    def test_rank1_symmetric(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=5)
        w = rng.normal(size=12)
        T = np.einsum("i,j,k->ijk", v, v, w)
        fac = cpd_als(HessianTensor(data=T), r=1, seed=1)
        vn = v / np.linalg.norm(v)
        for F in (fac.A, fac.B):
            cos = abs(vn @ (F[:, 0] / np.linalg.norm(F[:, 0])))
            assert cos >= 0.999

    def test_objective_nonincreasing(self):
        tensor, _, _ = symmetric_tensor(6, 30, 3, seed=2)
        fac = cpd_als(tensor, r=3, seed=2)
        hist = np.array(fac.error_history)
        assert np.all(np.diff(hist) <= 1e-12 + 1e-10 * hist[:-1])

    def test_slice_permutation_equivariance(self):
        tensor, _, _ = symmetric_tensor(6, 20, 2, seed=3)
        fac = cpd_als(tensor, r=2, seed=3)
        perm = np.random.default_rng(4).permutation(20)
        permuted = HessianTensor(data=tensor.data[:, :, perm])
        fac_p = cpd_als(permuted, r=2, seed=3)
        assert fac_p.rel_error <= 1e-8
        assert np.all(congruence(fac.A, fac_p.A) >= 0.999)

    # N = 200 > m^2 = 36 runs ALS on a 6 x 6 x 36 core; with N = 20, Q is square
    @pytest.mark.parametrize("N", [200, 20])
    def test_compressed_matches_full_tensor_als(self, N):
        m, r = 6, 3
        rng = np.random.default_rng(20)
        terms = enumerate_terms(m, 3)
        model = PolyNarxModel(terms=tuple(terms), coeffs=rng.normal(size=len(terms)), m=m)
        tensor = stack_hessians(model, rng.normal(size=(N, m)))
        assert_matches_reference_als(tensor, r, seed=21)

    def test_unsymmetric_tensor_matches_full_tensor_als(self):
        # modes 1 and 2 differ, so each mode's unfolding is checked on its own
        tensor = HessianTensor(data=np.random.default_rng(22).normal(size=(5, 5, 40)))
        assert_matches_reference_als(tensor, 2, seed=23)

    def test_singular_restart_recorded(self, monkeypatch):
        tensor, _, _ = symmetric_tensor(6, 30, 3, seed=2)
        make_restart_singular(monkeypatch, 2)
        fac = cpd_als(tensor, r=3, max_iter=5, seed=2, n_restarts=3)
        assert len(fac.restart_errors) == 3 and fac.restart_errors[0] is None
        assert fac.rel_error == min(fac.restart_errors[1:])

    def test_bad_rank_rejected(self):
        tensor, _, _ = symmetric_tensor(4, 10, 1, seed=5)
        with pytest.raises(ValueError):
            cpd_als(tensor, r=0)
        with pytest.raises(ValueError):
            cpd_als(tensor, r=100)
        with pytest.raises(ValueError, match="n_restarts"):
            cpd_als(tensor, r=1, n_restarts=0)


class TestLockstep:
    """`cpd_als` runs its restarts as one stack; the restarts run one after another are
    the oracle, and every restart must keep its bits, its stop and its error trail."""

    @staticmethod
    def _check(tensor, r, max_iter, seed, n_restarts, tol=1e-8):
        fac = cpd_als(tensor, r=r, max_iter=max_iter, tol=tol, seed=seed, n_restarts=n_restarts)
        want, runs = sequential_cpd_als(tensor, r, max_iter, tol, seed, n_restarts)
        assert_same_factors(fac, want)
        assert fac.restart_errors == want.restart_errors
        # every restart the oracle ran, not just the chosen one, is a member of the stack
        G, Q = cpd._compress_mode3(tensor.data)
        stacked = cpd._als_lockstep(G, Q, r, max_iter, tol, seed, n_restarts, float(np.sum(tensor.data**2)))
        for got, run in zip(stacked, runs):
            assert (got is None) == (run is None)
            if run is not None:
                assert_same_factors(replace(got, C=Q @ got.C), run)
        # a restart past the one that reached tol left the stack then, unless it had
        # stopped before
        assert all(got is None or got.iterations < runs[-1].iterations for got in stacked[len(runs) :])
        return fac, runs, stacked

    @pytest.mark.parametrize("n_restarts", [1, 2, 3, 5])
    def test_noisy_tensor(self, n_restarts):
        # the restarts stop on the change test at different sweeps, or at the cap
        tensor, _, _ = symmetric_tensor(6, 30, 3, seed=1)
        noise = 1e-3 * np.random.default_rng(1).normal(size=tensor.data.shape)
        tensor = HessianTensor(data=tensor.data + noise)
        fac, runs, _ = self._check(tensor, 3, 60, seed=1, n_restarts=n_restarts)
        assert len(fac.restart_errors) == n_restarts
        if n_restarts == 5:
            assert len({run.iterations for run in runs}) > 1

    def test_exact_tensor_first_restart_reaches_tol(self):
        tensor, _, _ = symmetric_tensor(8, 40, 2, seed=0)
        fac, _, _ = self._check(tensor, 2, 500, seed=0, n_restarts=3)
        assert fac.restart_errors == (fac.rel_error,) and fac.rel_error <= 1e-8

    def test_a_later_restart_reaching_tol_truncates_the_errors(self):
        # restarts 0 and 1 stop on the change test early, 2 at the cap, and 3 reaches
        # tol, so restart 4 never counts
        tensor, _, _ = symmetric_tensor(6, 30, 3, seed=3, cond_guard=False)
        fac, runs, _ = self._check(tensor, 3, 60, seed=3, n_restarts=5)
        assert len(fac.restart_errors) == 4 and fac.restart_errors[3] <= 1e-8
        assert [run.status for run in runs] == ["converged", "converged", "max_iter", "converged"]
        assert runs[0].iterations < 60 and runs[1].iterations < 60

    def test_tol_reached_out_of_restart_order(self):
        # restart 4 reaches tol at sweep 21, before restart 1 does at sweep 24; restart 1
        # then ends the walk, so restart 4's run is never compared
        tensor, _, _ = symmetric_tensor(5, 20, 3, seed=7, cond_guard=False)
        fac, runs, stacked = self._check(tensor, 3, 30, seed=7, n_restarts=5)
        assert len(fac.restart_errors) == 2 and fac.rel_error <= 1e-8
        assert runs[1].iterations == 24
        assert stacked[2] is None and stacked[3] is None
        assert stacked[4].iterations == 21 and stacked[4].rel_error <= 1e-8

    @pytest.mark.parametrize("singular", [0, 1])
    def test_singular_member(self, monkeypatch, singular):
        tensor, _, _ = symmetric_tensor(6, 30, 3, seed=2)
        make_restart_singular(monkeypatch, 2 + singular)
        fac, _, _ = self._check(tensor, 3, 40, seed=2, n_restarts=3)
        assert fac.restart_errors[singular] is None
        assert sum(e is None for e in fac.restart_errors) == 1

    @pytest.mark.parametrize("n_restarts", [1, 3])
    def test_every_member_singular(self, monkeypatch, n_restarts):
        tensor, _, _ = symmetric_tensor(6, 30, 3, seed=2)
        make_restart_singular(monkeypatch, *range(2, 2 + n_restarts))
        for run in (cpd_als, sequential_cpd_als):
            with pytest.raises(np.linalg.LinAlgError, match="singular in every restart"):
                run(tensor, 3, 40, 1e-8, 2, n_restarts)


class TestSymmetrize:
    def test_identity_when_equal(self):
        rng = np.random.default_rng(6)
        A = rng.normal(size=(5, 2))
        fac = CpdFactors(A=A, B=A.copy(), C=rng.normal(size=(7, 2)))
        V0 = symmetrize_to_V(fac)
        expected = A / np.linalg.norm(A, axis=0)
        np.testing.assert_allclose(np.abs(V0), np.abs(expected), atol=1e-12)

    def test_sign_flip_aligned(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(5, 2))
        fac = CpdFactors(A=A, B=-A, C=rng.normal(size=(7, 2)))
        V0 = symmetrize_to_V(fac)
        expected = A / np.linalg.norm(A, axis=0)
        np.testing.assert_allclose(np.abs(V0), np.abs(expected), atol=1e-12)

    def test_idempotent_up_to_normalization(self):
        rng = np.random.default_rng(8)
        A = rng.normal(size=(6, 3))
        once = symmetrize_to_V(CpdFactors(A=A, B=A, C=np.ones((4, 3))))
        twice = symmetrize_to_V(CpdFactors(A=once, B=once, C=np.ones((4, 3))))
        np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_recovers_column_space(self):
        tensor, V, _ = symmetric_tensor(8, 30, 3, seed=9)
        fac = cpd_als(tensor, r=3, seed=9)
        V0 = symmetrize_to_V(fac)
        # principal angles between span(V0) and span(V)
        Qa = np.linalg.qr(V0)[0]
        Qb = np.linalg.qr(V)[0]
        angles = np.arccos(np.clip(np.linalg.svd(Qa.T @ Qb, compute_uv=False), 0, 1))
        assert angles.max() <= 1e-3

    def test_orthogonal_pair_warns(self):
        A = np.array([[1.0], [0.0]])
        B = np.array([[0.0], [1.0]])
        fac = CpdFactors(A=A, B=B, C=np.ones((3, 1)))
        with pytest.warns(UserWarning, match="symmetry"):
            symmetrize_to_V(fac)


class TestInitTransform:
    def _quadratic_dataset(self, m, N, seed):
        rng = np.random.default_rng(seed)
        U = rng.normal(size=(N, m))
        return RegressionDataset(U=U, y=rng.normal(size=N), spec=RegressorSpec(0, m - 1))

    def test_constant_hessian_matches_eigenvectors(self):
        # quadratic model: every slice equals the same symmetric matrix, so the
        # best rank-n factors span its leading eigenvectors
        m, n = 6, 2
        rng = np.random.default_rng(10)
        terms = enumerate_terms(m, 2)
        coeffs = rng.normal(size=len(terms))
        model = PolyNarxModel(terms=tuple(terms), coeffs=coeffs, m=m)
        ds = self._quadratic_dataset(m, 50, seed=11)
        H = stack_hessians(model, ds.U[:1]).data[:, :, 0]
        evals, evecs = np.linalg.eigh(H)
        order = np.argsort(-np.abs(evals))
        top = evecs[:, order[:n]]
        V0, _ = init_transform(ds, model, n=n, seed=12)
        Qa = np.linalg.qr(V0)[0]
        Qb = np.linalg.qr(top)[0]
        angles = np.arccos(np.clip(np.linalg.svd(Qa.T @ Qb, compute_uv=False), 0, 1))
        assert angles.max() <= 1e-2

    def test_benchmark_shape(self):
        rng = np.random.default_rng(13)
        m = 30
        U = rng.normal(size=(300, m))
        ds = RegressionDataset(U=U, y=rng.normal(size=300), spec=RegressorSpec(15, 14))
        terms = enumerate_terms(m, 3)
        model = PolyNarxModel(terms=tuple(terms), coeffs=rng.normal(size=len(terms)), m=m)
        V0, _ = init_transform(ds, model, n=5, max_points=50, seed=14)
        assert V0.shape == (30, 5)
        np.testing.assert_allclose(np.linalg.norm(V0, axis=0), 1.0, atol=1e-12)

    def test_full_rank_n_equals_m(self):
        rng = np.random.default_rng(15)
        m = 4
        U = rng.normal(size=(60, m))
        ds = RegressionDataset(U=U, y=rng.normal(size=60), spec=RegressorSpec(0, m - 1))
        terms = enumerate_terms(m, 3)
        model = PolyNarxModel(terms=tuple(terms), coeffs=rng.normal(size=len(terms)), m=m)
        V0, _ = init_transform(ds, model, n=m, seed=16)
        assert V0.shape == (m, m)

    # the m = 30 cubic of test_benchmark_shape on 50 points, and fewer points than m + 1
    @pytest.mark.parametrize("m, N, max_points, n", [(30, 300, 50, 5), (4, 3, None, 2)])
    def test_coefficient_core_is_exact(self, m, N, max_points, n):
        rng = np.random.default_rng(13)
        U = rng.normal(size=(N, m))
        spec = RegressorSpec(m // 2, m - m // 2 - 1)
        ds = RegressionDataset(U=U, y=rng.normal(size=N), spec=spec)
        terms = enumerate_terms(m, 3)
        model = PolyNarxModel(terms=tuple(terms), coeffs=rng.normal(size=len(terms)), m=m)
        # the points init_transform keeps
        points = U if max_points is None else U[np.linspace(0, N - 1, max_points).astype(int)]
        stack = stack_hessians(model, points)
        core, basis = hessian_core(model, points)
        assert core.data.shape == (m, m, min(len(points), m + 1))
        np.testing.assert_allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-12)
        lifted = core.data @ basis.T
        assert np.linalg.norm(lifted - stack.data) <= 1e-12 * np.linalg.norm(stack.data)
        V0, fac = init_transform(ds, model, n=n, max_points=max_points, seed=14)
        full = cpd_als(stack, r=n, seed=14)
        np.testing.assert_allclose(V0, symmetrize_to_V(full), atol=1e-6)
        assert fac.C.shape == (len(points), n)

    def test_quartic_term_rejected(self):
        ds = self._quadratic_dataset(3, 20, seed=18)
        exponents = [(1, 0, 0), (0, 2, 0), (3, 1, 0), (0, 0, 5)]
        model = PolyNarxModel(terms=tuple(PolyTerm(e) for e in exponents), coeffs=np.ones(4), m=3)
        with pytest.raises(ValueError, match=r"term 2 \(3, 1, 0\) has degree 4"):
            init_transform(ds, model, n=2)

    def test_n_exceeding_m_rejected(self):
        ds = self._quadratic_dataset(3, 20, seed=17)
        terms = enumerate_terms(3, 2)
        model = PolyNarxModel(terms=tuple(terms), coeffs=np.ones(len(terms)), m=3)
        with pytest.raises(ValueError):
            init_transform(ds, model, n=4)
