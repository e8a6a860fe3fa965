import numpy as np
import pytest

from urelunet import varpro
from urelunet.dataset import RegressionDataset, RegressorSpec
from urelunet.network import bias_grid, build_B, forward, make_net, transform
from urelunet.varpro import (
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

    def test_history_csv(self):
        V, ds = safe_instance(N=100, m=4, n=2, q=4, seed=36)
        _, report = train(V, ds, 4, max_iter=5)
        csv = report.history_csv()
        assert csv.startswith("iteration,squared_residual\n")
        assert len(csv.strip().splitlines()) == len(report.residual_history) + 1

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
        original = varpro.lapack.dorgqr

        def counted(*args, **kwargs):
            formed.append(args[0].shape)
            return original(*args, **kwargs)

        monkeypatch.setattr(varpro.lapack, "dorgqr", counted)
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
