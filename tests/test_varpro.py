import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urelunet import varpro
from urelunet.dataset import RegressionDataset, RegressorSpec
from urelunet.network import bias_grid, build_B, forward, knot_fractions, make_net, transform
from urelunet.varpro import (
    ROW_BLOCK,
    solve_weights,
    train,
    vp_jacobian,
    vp_residual,
)

from conftest import basis_derivative


def random_dataset(N, m, seed, n_u=None):
    rng = np.random.default_rng(seed)
    U = rng.normal(size=(N, m))
    y = rng.normal(size=N)
    n_u = m - 2 if n_u is None else n_u
    return RegressionDataset(U=U, y=y, spec=RegressorSpec(n_u, m - 1 - n_u))


def safe_instance(N, m, n, q, seed, margin=1e-4, max_tries=200):
    """Random (V, dataset) whose projected samples stay `margin` away from
    every knot and whose per-dimension min/max are unique, so the residual is
    differentiable on a finite-difference neighborhood."""
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        ds = random_dataset(N, m, rng.integers(2**31))
        V = rng.normal(size=(m, n))
        X = transform(ds.U, V)
        beta = bias_grid(X, q)
        dist = np.abs(X[:, :, None] - beta[None, :, :])
        # the per-dimension minimum sits exactly on the first knot by
        # construction and stays there under perturbation; ignore it
        for i in range(n):
            dist[np.argmin(X[:, i]), i, 0] = np.inf
        gap = dist.min()
        srt = np.sort(X, axis=0)
        edge = min((srt[1] - srt[0]).min(), (srt[-1] - srt[-2]).min())
        if gap >= margin and edge >= margin:
            return V, ds
    raise RuntimeError("no well-separated instance found")


def fd_jacobian(V, ds, q, step=1e-7):
    m, n = V.shape
    N = ds.n_samples
    J = np.zeros((N, n * m))
    for t in range(n):
        for s in range(m):
            Vp, Vm = V.copy(), V.copy()
            Vp[s, t] += step
            Vm[s, t] -= step
            J[:, t * m + s] = (vp_residual(Vp, ds, q) - vp_residual(Vm, ds, q)) / (
                2 * step
            )
    return J


class TestSolveWeights:
    def test_exact_square_system(self):
        B = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        target = 2.0 + 3.0 * B[:, 0] - 1.0 * B[:, 1]
        w, rank = solve_weights(B, target)
        np.testing.assert_allclose(w, [2.0, 3.0, -1.0], atol=1e-12)
        assert rank == 3

    def test_residual_orthogonal_to_columns(self):
        rng = np.random.default_rng(0)
        B = rng.normal(size=(50, 7))
        y = rng.normal(size=50)
        w, _ = solve_weights(B, y)
        Btil = np.column_stack([np.ones(50), B])
        r = y - Btil @ w
        scale = np.linalg.norm(y) * np.abs(Btil).max()
        assert np.abs(Btil.T @ r).max() <= 1e-10 * max(scale, 1.0)

    def test_rank_deficient_min_norm(self):
        B = np.column_stack([np.ones(10), np.ones(10)])  # duplicate columns
        y = np.full(10, 6.0)
        w, rank = solve_weights(B, y)
        assert rank < 3
        # minimum-norm solution splits weight evenly across identical columns
        np.testing.assert_allclose(w, [2.0, 2.0, 2.0], atol=1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            solve_weights(np.ones((4, 2)), np.ones(5))


def scipy_projection(A):
    """The factors, Q1 and residual of `varpro._Projection(A)` through scipy.linalg.lapack's
    dgeqrf, dorgqr and dormqr, as `_Projection` computed them before it used numpy's LAPACK."""
    from scipy.linalg import lapack

    N, k = A.shape[0], A.shape[1] - 1
    qr, tau, _, info = lapack.dgeqrf(A)
    assert info == 0
    p = min(N, k)
    q1, _, info = lapack.dorgqr(qr[:, :p], tau[:p])
    assert info == 0
    ut, sv, _ = np.linalg.svd(np.triu(qr[:p, :k]), full_matrices=False)
    ut = ut[:, : int(np.count_nonzero(sv > varpro.PINV_RCOND * sv[0]))]
    z = np.zeros((N, 1), order="F")
    z[:p, 0] = qr[:p, k] - ut @ (ut.T @ qr[:p, k])
    if N > k:
        z[k, 0] = qr[k, k]
    qz, _, info = lapack.dormqr("L", "N", qr[:, : len(tau)], tau, z, 1)
    assert info == 0
    return qr, tau, q1, qz[:, 0]


class TestScipyLapackOracle:
    """`_Projection` runs numpy's own dgeqrf and dorgqr and applies Q to the residual
    itself; scipy's LAPACK wrappers are the oracle. numpy and scipy may bundle different
    OpenBLAS builds, so the match is to rounding, not to the bit. The rank-deficient case
    has a zero column, whose reflector is the identity in any build; a duplicated column
    would leave a reflector that rounding alone determines."""

    @pytest.mark.parametrize(
        "N, k, zero_column",
        [
            (200, 9, False),  # full rank
            (200, 9, True),  # rank-deficient
            (300, 140, False),  # wider than dgeqrf's unblocked crossover of 128 columns
            (10, 9, False),  # N = k + 1: rho is the last diagonal entry
            (9, 9, False),  # N <= k: [1, B] spans every residual
            (5, 9, False),
        ],
    )
    def test_factors_q1_and_residual(self, N, k, zero_column):
        rng = np.random.default_rng(N + k)
        A = np.asfortranarray(rng.normal(size=(N, k + 1)))
        A[:, 0] = 1.0
        if zero_column:
            A[:, 3] = 0.0
        qr, tau, q1, r = scipy_projection(A)
        proj = varpro._Projection(A.copy(order="F"))
        if zero_column:
            assert tau[3] == 0.0 and proj.rank == k - 1

        def close(actual, desired):
            np.testing.assert_allclose(actual, desired, rtol=0, atol=1e-12 * max(np.abs(desired).max(), 1.0))

        close(proj.qr, qr)
        close(proj.tau, tau)
        close(proj.Q1, q1)
        close(proj.r, r)
        # the residual also stays orthogonal to the columns of A it was projected off
        assert np.abs(A[:, :k].T @ proj.r).max() <= 1e-10 * np.abs(A).max() * max(np.abs(A[:, k]).max(), 1.0)

    def test_q_applied_to_a_vector_is_dormqr(self):
        from scipy.linalg import lapack

        rng = np.random.default_rng(3)
        A = np.asfortranarray(rng.normal(size=(150, 12)))
        proj = varpro._Projection(A.copy(order="F"))
        z = rng.normal(size=150)
        expected, _, info = lapack.dormqr("L", "N", proj.qr, proj.tau, np.asfortranarray(z[:, None]), 1)
        assert info == 0
        np.testing.assert_allclose(proj._apply_q(z.copy()), expected[:, 0], rtol=0, atol=1e-13 * np.abs(z).max())

    def test_block_diag_is_scipy_block_diag(self):
        from scipy.linalg import block_diag

        blocks = np.random.default_rng(4).normal(size=(3, 4, 2))
        np.testing.assert_array_equal(varpro._block_diag(blocks), block_diag(*blocks))


class TestBasisDerivative:
    def _fd_column(self, V, ds, q, s, t, step=1e-7):
        Vp, Vm = V.copy(), V.copy()
        Vp[s, t] += step
        Vm[s, t] -= step

        def basis(Vv):
            X = transform(ds.U, Vv)
            return build_B(X, bias_grid(X, q))

        return (basis(Vp) - basis(Vm)) / (2 * step)

    def test_plus_sign_matches_finite_differences(self):
        V, ds = safe_instance(N=80, m=5, n=3, q=4, seed=1)
        worst = 0.0
        for s in range(5):
            for t in range(3):
                fd = self._fd_column(V, ds, 4, s, t)
                an = basis_derivative(V, ds, 4, s, t)
                worst = max(worst, np.abs(an - fd).max() / max(np.abs(fd).max(), 1.0))
        assert worst <= 1e-5

    def test_minus_sign_fails_finite_differences(self):
        V, ds = safe_instance(N=80, m=5, n=3, q=4, seed=2)
        worst = 0.0
        for s in range(5):
            for t in range(3):
                fd = self._fd_column(V, ds, 4, s, t)
                an = basis_derivative(V, ds, 4, s, t, umin_sign=-1.0)
                worst = max(worst, np.abs(an - fd).max() / max(np.abs(fd).max(), 1.0))
        assert worst > 1e-2

    def test_cross_dimension_blocks_zero(self):
        V, ds = safe_instance(N=40, m=4, n=2, q=3, seed=3)
        col = basis_derivative(V, ds, 3, 1, 0)  # variable in dimension 0
        assert np.all(col[:, 3:] == 0)  # dimension-1 block untouched


class TestResidual:
    def test_matches_explicit_projection(self):
        V, ds = safe_instance(N=60, m=4, n=2, q=5, seed=5)
        r = vp_residual(V, ds, 5)
        X = transform(ds.U, V)
        Btil = np.column_stack([np.ones(60), build_B(X, bias_grid(X, 5))])
        w = np.linalg.pinv(Btil, rcond=1e-10) @ ds.y
        np.testing.assert_allclose(r, ds.y - Btil @ w, atol=1e-12)

    def test_zero_when_target_in_span(self):
        V, ds0 = safe_instance(N=60, m=4, n=2, q=5, seed=6)
        X = transform(ds0.U, V)
        Btil = np.column_stack([np.ones(60), build_B(X, bias_grid(X, 5))])
        y = Btil @ np.random.default_rng(7).normal(size=Btil.shape[1])
        ds = RegressionDataset(U=ds0.U, y=y, spec=ds0.spec)
        r = vp_residual(V, ds, 5)
        assert np.abs(r).max() <= 1e-9 * max(np.abs(y).max(), 1.0)

    def test_invariant_to_column_scaling(self):
        # scaling a column of V rescales X and the knot grid together, leaving
        # the projector unchanged
        V, ds = safe_instance(N=50, m=4, n=2, q=4, seed=8)
        r1 = vp_residual(V, ds, 4)
        V2 = V.copy()
        V2[:, 0] *= 3.0
        r2 = vp_residual(V2, ds, 4)
        np.testing.assert_allclose(r1, r2, atol=1e-9)


class TestJacobian:
    def test_full_matches_finite_differences(self):
        worst = 0.0
        for seed in range(5):
            V, ds = safe_instance(N=100, m=5, n=3, q=4, seed=10 + seed)
            J = vp_jacobian(V, ds, 4)
            Jfd = fd_jacobian(V, ds, 4)
            worst = max(
                worst, np.abs(J - Jfd).max() / max(np.abs(Jfd).max(), 1e-12)
            )
        assert worst <= 1e-4

    def test_columns_are_the_two_term_form(self):
        # column t*m + s is -P (dB/dv_st) w - ([1, B]^+)^T (dB/dv_st)^T r, with
        # the derivative criterion 3 checks
        m, n, q = 5, 3, 4
        V, ds = safe_instance(N=90, m=m, n=n, q=q, seed=23)
        X = transform(ds.U, V)
        B = build_B(X, bias_grid(X, q))
        w, _ = solve_weights(B, ds.y)
        Btil = np.column_stack([np.ones(ds.n_samples), B])
        pinv = np.linalg.pinv(Btil, rcond=1e-10)
        r = ds.y - Btil @ w
        J = vp_jacobian(V, ds, q)
        for t in range(n):
            for s in range(m):
                D = basis_derivative(V, ds, q, s, t)
                g = D @ w[1:]
                expected = -(g - Btil @ (pinv @ g)) - pinv[1:].T @ (D.T @ r)
                col = J[:, t * m + s]
                assert np.abs(col - expected).max() <= 1e-10 * np.abs(expected).max()


class TestRankDeficientBasis:
    """Transformed coordinate x_0 takes three distinct values, so the q + 1
    columns of dimension 0 in [1, B] span a space of dimension 3 and
    rank [1, B] < 1 + n*q: the minimum-norm path against an rcond=1e-10 pinv.
    x_1 takes many values, so the residual still moves with V."""

    m, n, q = 4, 2, 4

    def instance(self):
        rng = np.random.default_rng(60)
        N = 80
        U = rng.normal(size=(N, self.m))
        U[:, :2] = rng.normal(size=(3, 2))[rng.integers(3, size=N)]
        ds = RegressionDataset(U=U, y=rng.normal(size=N), spec=RegressorSpec(2, 1))
        V = rng.normal(size=(self.m, self.n))
        V[2:, 0] = 0.0
        X = transform(U, V)
        Btil = np.column_stack([np.ones(N), build_B(X, bias_grid(X, self.q))])
        return V, ds, Btil, np.linalg.pinv(Btil, rcond=1e-10)

    def test_weights_and_residual_are_the_pinv_ones(self):
        V, ds, Btil, pinv = self.instance()
        w, rank = solve_weights(Btil[:, 1:], ds.y)
        assert rank == np.linalg.matrix_rank(Btil) < Btil.shape[1]
        w_ref = pinv @ ds.y
        np.testing.assert_allclose(w, w_ref, rtol=0, atol=1e-10 * np.abs(w_ref).max())
        r_ref = ds.y - Btil @ w_ref
        r = vp_residual(V, ds, self.q)
        np.testing.assert_allclose(r, r_ref, rtol=0, atol=1e-10 * np.abs(ds.y).max())

    def test_jacobian_columns_are_the_two_term_form(self):
        m, n, q = self.m, self.n, self.q
        V, ds, Btil, pinv = self.instance()
        w = pinv @ ds.y
        r = ds.y - Btil @ w
        J = vp_jacobian(V, ds, q)
        scale = np.abs(J).max()
        assert scale > 0
        for t in range(n):
            for s in range(m):
                D = basis_derivative(V, ds, q, s, t)
                g = D @ w[1:]
                expected = -(g - Btil @ (pinv @ g)) - pinv[1:].T @ (D.T @ r)
                assert np.abs(J[:, t * m + s] - expected).max() <= 1e-10 * scale


class TestTrain:
    def test_cost_monotone_over_accepted_steps(self):
        V, ds = safe_instance(N=200, m=5, n=2, q=4, seed=30)
        _, report = train(V, ds, 4, max_iter=25)
        hist = np.array(report.residual_history)
        assert np.all(np.diff(hist) < 0)
        assert report.accepted == len(hist) - 1

    def test_improves_over_initial(self):
        V, ds = safe_instance(N=200, m=5, n=2, q=4, seed=31)
        r0 = vp_residual(V, ds, 4)
        _, report = train(V, ds, 4, max_iter=25)
        assert report.residual_history[-1] < float(r0 @ r0)

    def test_recovers_planted_network(self):
        # target generated by a UReLU network of the same architecture; training
        # from a perturbed transform should drive the residual near zero
        rng = np.random.default_rng(32)
        m, n, q, N = 4, 2, 5, 400
        U = rng.normal(size=(N, m))
        V_true = rng.normal(size=(m, n))
        w_true = rng.normal(size=n * q + 1)
        net_true = make_net(V_true, q, w_true, transform(U, V_true))
        y = forward(net_true, U)
        ds = RegressionDataset(U=U, y=y, spec=RegressorSpec(1, 2))
        V0 = V_true + 0.05 * rng.normal(size=(m, n))
        net, report = train(V0, ds, q, max_iter=60)
        rms = np.sqrt(report.residual_history[-1] / N)
        assert rms <= 1e-6 * max(np.abs(y).max(), 1.0)

    def test_final_net_consistent_with_history(self):
        V, ds = safe_instance(N=150, m=4, n=2, q=4, seed=33)
        net, report = train(V, ds, 4, max_iter=15)
        resid = ds.y - forward(net, ds.U)
        np.testing.assert_allclose(
            float(resid @ resid), report.residual_history[-1], rtol=1e-8
        )

    def test_bad_shapes_and_config(self):
        V, ds = safe_instance(N=50, m=4, n=2, q=4, seed=37)
        with pytest.raises(ValueError):
            train(V[:3], ds, 4)
        with pytest.raises(ValueError):
            train(V, ds, 4, max_iter=0)


class TestTrainExits:
    """Each way out of the Levenberg-Marquardt loop, and a failed step solve."""

    @staticmethod
    def _failing_solve(monkeypatch, failures):
        """Make np.linalg.solve raise LinAlgError on its first `failures` calls,
        or on every call when `failures` is None; returns the list of calls."""
        calls = []
        original = np.linalg.solve

        def solve(*args, **kwargs):
            calls.append(args)
            if failures is None or len(calls) <= failures:
                raise np.linalg.LinAlgError("singular matrix")
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", solve)
        return calls

    def test_grad_tol_when_target_in_span(self):
        V, ds0 = safe_instance(N=60, m=4, n=2, q=5, seed=50)
        X = transform(ds0.U, V)
        Btil = np.column_stack([np.ones(60), build_B(X, bias_grid(X, 5))])
        y = Btil @ np.random.default_rng(51).normal(size=Btil.shape[1])
        ds = RegressionDataset(U=ds0.U, y=y, spec=ds0.spec)
        net, report = train(V, ds, 5, max_iter=10)
        assert report.status == "grad_tol"
        assert report.iterations == 0
        assert report.accepted == report.rejected == 0
        np.testing.assert_array_equal(net.V, V)

    def test_step_tol(self, monkeypatch):
        monkeypatch.setattr(varpro, "STEP_TOL", 1e6)
        V, ds = safe_instance(N=100, m=4, n=2, q=4, seed=52)
        net, report = train(V, ds, 4, max_iter=10)
        assert report.status == "step_tol"
        assert report.iterations == 1
        assert report.accepted == report.rejected == 0
        np.testing.assert_array_equal(net.V, V)

    def test_stalled_when_every_solve_fails(self, monkeypatch):
        V, ds = safe_instance(N=100, m=4, n=2, q=4, seed=53)
        r0 = vp_residual(V, ds, 4)
        calls = self._failing_solve(monkeypatch, None)
        net, report = train(V, ds, 4, max_iter=10)
        assert report.status == "stalled"
        assert report.iterations == 1
        assert report.accepted == 0
        assert report.rejected == len(calls) == 16
        assert report.residual_history == [float(r0 @ r0)]
        np.testing.assert_array_equal(net.V, V)

    def test_one_failed_solve_is_one_rejection(self, monkeypatch):
        # a failed first solve is rejected and raises lambda; from there the run
        # is the one that starts at the raised lambda
        V, ds = safe_instance(N=150, m=4, n=2, q=4, seed=54)
        monkeypatch.setattr(varpro, "LM_LAMBDA0", varpro.LM_LAMBDA0 * varpro.LM_FACTOR)
        net_ref, report_ref = train(V, ds, 4, max_iter=15)
        monkeypatch.undo()
        self._failing_solve(monkeypatch, 1)
        net, report = train(V, ds, 4, max_iter=15)
        assert report.accepted == report_ref.accepted > 0
        assert report.rejected == report_ref.rejected + 1
        assert report.residual_history == report_ref.residual_history
        assert report.status == report_ref.status
        np.testing.assert_array_equal(net.V, net_ref.V)


class TestRhoFloor:
    """A trial's cost is at least rho^2, the square of its [1, B, y] QR's last pivot, so
    `vp_residual` may return None on rho^2 alone and `train` reject the trial there."""

    @given(
        N=st.integers(2, 40),
        k=st.integers(1, 16),
        deficient=st.integers(0, 3),
        in_span=st.sampled_from([None, 0.0, 1e-12, 1e-6]),
        scale=st.floats(1e-3, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_cost_is_at_least_rho_squared(self, N, k, deficient, in_span, scale, seed):
        # [1, B] has k columns; N <= k + 1 and duplicated or zero columns are included
        rng = np.random.default_rng(seed)
        B = scale * rng.normal(size=(N, k - 1))
        for j in range(min(deficient, k - 1)):
            B[:, j] = 0.0 if j % 2 else B[:, -1]
        if in_span is None:
            y = rng.normal(size=N)
        else:
            y = np.column_stack([np.ones(N), B]) @ rng.normal(size=k) + in_span * rng.normal(size=N)
        A = varpro._qr_buffer(y, k - 1, {})
        A[:, 1:-1] = B
        proj = varpro._Projection(A)
        r = proj.r
        assert float(r @ r) >= proj.rho2 * (1.0 - varpro.FLOOR_MARGIN)
        if N <= k:
            assert proj.rho2 == 0.0

    def test_rejection_on_the_floor_runs_no_svd(self, monkeypatch):
        V, ds = safe_instance(N=80, m=4, n=2, q=4, seed=60)
        cache = {}
        r = vp_residual(V, ds, 4, cache=cache)
        rho2 = cache["state"].proj.rho2
        assert 0.0 < rho2 <= float(r @ r)
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a) or svd(*a, **k))
        V2 = V + 1e-3
        assert vp_residual(V2, ds, 4, cache=cache, ceiling=0.0) is None
        assert calls == []
        # the same state gives its residual later, and its Q1 after that
        r2 = vp_residual(V2, ds, 4, cache=cache)
        assert len(calls) == 1
        np.testing.assert_array_equal(r2, vp_residual(V2, ds, 4))
        Q1 = cache["state"].proj.Q1
        np.testing.assert_allclose(Q1.T @ Q1, np.eye(Q1.shape[1]), atol=1e-12)

    def test_q1_first_keeps_the_residual(self):
        # Q1 overwrites the reflectors that the residual needs, so it computes that first
        A = np.asfortranarray(np.random.default_rng(61).normal(size=(50, 8)))
        first_q1 = varpro._Projection(A.copy(order="F"))
        Q1 = first_q1.Q1.copy()
        plain = varpro._Projection(A.copy(order="F"))
        np.testing.assert_array_equal(first_q1.r, plain.r)
        np.testing.assert_array_equal(first_q1.w, plain.w)
        np.testing.assert_array_equal(Q1, plain.Q1)

    def test_train_keeps_its_bits_without_the_floor(self, monkeypatch):
        V, ds = safe_instance(N=150, m=4, n=2, q=4, seed=41)
        original = varpro.vp_residual
        returned = []

        def recorded(*args, **kwargs):
            returned.append(original(*args, **kwargs))
            return returned[-1]

        monkeypatch.setattr(varpro, "vp_residual", recorded)
        net, report = train(V, ds, 4, max_iter=15)
        floored = sum(r is None for r in returned)
        assert 0 < floored <= report.rejected
        # a margin of inf never lets rho^2 decide, so every trial gets its full cost
        monkeypatch.setattr(varpro, "FLOOR_MARGIN", math.inf)
        returned.clear()
        net_ref, report_ref = train(V, ds, 4, max_iter=15)
        assert not any(r is None for r in returned)
        np.testing.assert_array_equal(net.V, net_ref.V)
        np.testing.assert_array_equal(net.w, net_ref.w)
        np.testing.assert_array_equal(net.beta, net_ref.beta)
        assert report.residual_history == report_ref.residual_history
        assert (report.iterations, report.accepted, report.rejected, report.status) == (
            report_ref.iterations,
            report_ref.accepted,
            report_ref.rejected,
            report_ref.status,
        )


class TestTrialStateReuse:
    """`train` factorizes each trial point once and reuses it for the Jacobian."""

    @staticmethod
    def _count_factorizations(monkeypatch):
        calls = []
        original = varpro._Projection

        def counted(A):
            calls.append(A.shape)
            return original(A)

        monkeypatch.setattr(varpro, "_Projection", counted)
        return calls

    @staticmethod
    def _trace(monkeypatch, name):
        """Record the V of every call to the module-level `varpro.<name>`."""
        seen = []
        original = getattr(varpro, name)

        def traced(V, *args, **kwargs):
            seen.append(V)
            return original(V, *args, **kwargs)

        monkeypatch.setattr(varpro, name, traced)
        return seen

    def test_one_factorization_per_trial(self, monkeypatch):
        V, ds = safe_instance(N=120, m=4, n=2, q=4, seed=40)
        trials = self._trace(monkeypatch, "vp_residual")
        calls = self._count_factorizations(monkeypatch)
        net, report = train(V, ds, 4, max_iter=12)
        assert report.accepted >= 3 and report.rejected >= 1
        assert len(trials) == 1 + report.accepted + report.rejected
        # the network is built from the last trial's state unless it was rejected
        last_rejected = not np.array_equal(trials[-1], net.V)
        assert len(calls) == len(trials) + int(last_rejected)

    def test_no_q_formed_on_a_rejected_trial(self, monkeypatch):
        V, ds = safe_instance(N=120, m=4, n=2, q=4, seed=40)
        jacobians = self._trace(monkeypatch, "vp_jacobian")
        formed = []
        original = varpro._lapack

        def counted(routine, a, *args):
            if routine == "dorgqr":
                formed.append(a.shape)
            return original(routine, a, *args)

        monkeypatch.setattr(varpro, "_lapack", counted)
        _, report = train(V, ds, 4, max_iter=12)
        assert report.rejected >= 1
        # Q is formed once per Jacobian, at the start or at an accepted point
        assert len(formed) == len(jacobians) <= 1 + report.accepted

    def test_bit_identical_to_rebuilding_every_jacobian(self, monkeypatch):
        V, ds = safe_instance(N=150, m=4, n=2, q=4, seed=41)
        net, report = train(V, ds, 4, max_iter=15)
        original = varpro.vp_jacobian
        monkeypatch.setattr(
            varpro,
            "vp_jacobian",
            lambda *args, cache=None, **kwargs: original(*args, **kwargs),
        )
        net_ref, report_ref = train(V, ds, 4, max_iter=15)
        np.testing.assert_array_equal(net.V, net_ref.V)
        np.testing.assert_array_equal(net.w, net_ref.w)
        np.testing.assert_array_equal(net.beta, net_ref.beta)
        assert report.residual_history == report_ref.residual_history

    def test_jacobian_rebuilds_state_for_another_V(self, monkeypatch):
        V, ds = safe_instance(N=80, m=4, n=2, q=4, seed=42)
        cache = {}
        vp_residual(V, ds, 4, cache=cache)
        V2 = V.copy()
        V2[0, 0] = np.nextafter(V2[0, 0], np.inf)  # differs in the last bit only
        calls = self._count_factorizations(monkeypatch)
        J = vp_jacobian(V2, ds, 4, cache=cache)
        np.testing.assert_array_equal(J, vp_jacobian(V2, ds, 4))
        # one build for the cached call at the new V, one for the uncached call
        assert len(calls) == 2
        assert np.array_equal(cache["state"].V, V2)


class TestWorkspace:
    """With a cache, `train` runs on one workspace: the [1, B, y] QR matrix, the float
    mask, one N x (n*m) block that holds G and then J, and a row scratch of at most
    ROW_BLOCK rows, allocated once and reused by every trial and Jacobian. Without one,
    every call allocates its own."""

    @staticmethod
    def _record(monkeypatch, name, drop_cache=False):
        """Record every result of `varpro.<name>`, called without its cache if `drop_cache`."""
        results = []
        original = getattr(varpro, name)

        def recorded(*args, cache=None, **kwargs):
            results.append(original(*args, cache=None if drop_cache else cache, **kwargs))
            return results[-1]

        monkeypatch.setattr(varpro, name, recorded)
        return results

    def test_bit_identical_to_fresh_buffers(self, monkeypatch):
        V, ds = safe_instance(N=150, m=4, n=2, q=4, seed=43)
        jacobians = self._record(monkeypatch, "vp_jacobian")
        net, report = train(V, ds, 4, max_iter=15)
        monkeypatch.undo()
        self._record(monkeypatch, "vp_residual", drop_cache=True)
        fresh = self._record(monkeypatch, "vp_jacobian", drop_cache=True)
        net_ref, report_ref = train(V, ds, 4, max_iter=15)
        assert report.accepted >= 3 and report.rejected >= 1
        np.testing.assert_array_equal(net.V, net_ref.V)
        np.testing.assert_array_equal(net.w, net_ref.w)
        np.testing.assert_array_equal(net.beta, net_ref.beta)
        assert report.residual_history == report_ref.residual_history
        # every Jacobian of the workspace run is one buffer; the reference's are all new
        assert len(jacobians) == len(fresh) == report.iterations
        assert all(J is jacobians[0] for J in jacobians)
        assert not any(np.shares_memory(a, b) for i, a in enumerate(fresh) for b in fresh[i + 1 :])

    def test_cached_calls_leave_uncached_results(self):
        V, ds = safe_instance(N=80, m=4, n=2, q=4, seed=44)
        V2 = V + 1e-3
        J_ref = vp_jacobian(V, ds, 4)
        kept = J_ref.copy()
        cache = {}
        J = vp_jacobian(V, ds, 4, cache=cache)
        np.testing.assert_array_equal(J, kept)
        work = dict(cache["work"])
        # a new V drops the state but keeps the buffers: the next Jacobian overwrites J
        vp_residual(V2, ds, 4, cache=cache)
        J2 = vp_jacobian(V2, ds, 4, cache=cache)
        assert J2 is J and all(cache["work"][k] is b for k, b in work.items())
        np.testing.assert_array_equal(J2, vp_jacobian(V2, ds, 4))
        np.testing.assert_array_equal(J_ref, kept)
        # another record length gets buffers of its own shape
        V3, ds3 = safe_instance(N=60, m=4, n=2, q=4, seed=45)
        np.testing.assert_array_equal(vp_jacobian(V3, ds3, 4, cache=cache), vp_jacobian(V3, ds3, 4))

    def test_peak_memory_of_a_wide_shaped_fit(self):
        # the shape of the `wide` benchmark: m=30 regressors, n=3, q=8, about 4k rows.
        # A J-sized block is N*n*m*8 bytes. The workspace holds one, in which G becomes
        # J, a row scratch of ROW_BLOCK rows, and the QR matrix and the mask (26 and 24
        # of the block's 90 columns); the Jacobian's (U * r) is 30 more. Measured peak:
        # 2.12 blocks. The bound dates from a workspace of two blocks, G and J, which
        # peaked at 3.05.
        N, m, n, q = 4000, 30, 3, 8
        ds = random_dataset(N, m, seed=46, n_u=15)
        V = np.random.default_rng(47).normal(size=(m, n))
        tracemalloc.start()
        try:
            _, report = train(V, ds, q, max_iter=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.iterations == 4
        assert peak / (N * n * m * 8) < 3.3


def two_block_jacobian(V, ds, q):
    """`vp_jacobian` by its two-block formula: G = (dB/dv) w and J = Q1 inner - G as two
    N x (n*m) arrays, each product over all N rows at once, on a fresh factorization."""
    st = varpro._VpState(V, ds, q, {})
    proj, U = st.proj, ds.U
    N, m = U.shape
    n = st.X.shape[1]
    mask, Umin, dU = varpro._basis_derivative(U, st.X, st.beta, out=np.empty((N, n, q)))
    mask = mask.reshape(N, n * q)
    w = proj.w[1:].reshape(n, q)
    ab = mask @ varpro._block_diag(np.stack([w, w * knot_fractions(q)], axis=2))
    G = np.empty((N, n * m))
    np.einsum("kt,ks->kts", ab[:, 0::2], U, out=G.reshape(N, n, m))
    G -= ab @ varpro._block_diag(np.stack([Umin.T, dU.T], axis=1))
    r = proj.r
    C = ((U * r[:, None]).T @ mask).reshape(m, n, q)
    C -= varpro._knot_sensitivities(Umin, dU, q) * (r @ mask).reshape(n, q)
    C_blk = varpro._block_diag(C.transpose(1, 2, 0))
    Q1, ut = proj.Q1, proj.ut
    J = Q1 @ (ut @ (ut.T @ (Q1.T @ G) - proj.vs.T[:, 1:] @ C_blk))
    J -= G
    return J


class TestRowBlocks:
    """`vp_jacobian` forms J in G's buffer by blocks of ROW_BLOCK rows; a row block does
    not change a product's sums, so J keeps the bits of the two-block formula."""

    @pytest.mark.parametrize("N", [ROW_BLOCK - 1, ROW_BLOCK, 2 * ROW_BLOCK + 1])
    def test_bit_identical_to_two_blocks(self, N):
        m, n, q = 6, 2, 4
        ds = random_dataset(N, m, seed=N)
        rng = np.random.default_rng(N + 1)
        V, V2 = rng.normal(size=(m, n)), rng.normal(size=(m, n))
        np.testing.assert_array_equal(vp_jacobian(V, ds, q), two_block_jacobian(V, ds, q))
        # one cache across two V: the second Jacobian overwrites the first's buffers
        cache = {}
        for Vi in (V, V2):
            J = vp_jacobian(Vi, ds, q, cache=cache)
            np.testing.assert_array_equal(J, two_block_jacobian(Vi, ds, q))
            # J is the one N x (n*m) buffer; the row scratch has at most ROW_BLOCK rows
            work = cache["work"]
            blocks = [b for name, b in work.items() if name != "rows" and b.shape == (N, n * m)]
            assert len(blocks) == 1 and blocks[0] is J
            assert work["rows"].shape == (min(N, ROW_BLOCK), n * m)

    def test_cold_call_allocates_less_than_one_more_block(self):
        # kept: the [1, B, y] QR matrix, the mask, the returned block and the row scratch.
        # Everything else the call allocates, at its peak, is under one N x (n*m) block.
        N, m, n, q = 3000, 10, 3, 8
        ds = random_dataset(N, m, seed=48)
        V = np.random.default_rng(49).normal(size=(m, n))
        cache = {}
        tracemalloc.start()
        try:
            J = vp_jacobian(V, ds, q, cache=cache)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        work = cache["work"]
        kept = sum(a.nbytes for a in (work["qr"], work["mask"], J, work["rows"]))
        assert peak - kept < N * n * m * 8
