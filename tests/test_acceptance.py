"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
PASS/FAIL line (visible with `pytest -s` or on failure). Criterion 11 needs
externally supplied full-size benchmark records and is skipped unless the
BENCHMARK_TRAIN_CSV / BENCHMARK_VALIDATION_CSV environment variables point at
them.
"""

import contextlib
import io
import json
import os

import numpy as np
import pytest

from urelunet import boucwen, cli, cpd, polyfit, pwl
from urelunet.dataset import RegressionDataset, RegressorSpec
from urelunet.hessian import HessianTensor
from urelunet.network import (
    bias_grid,
    build_B,
    forward,
    make_net,
    param_count,
    transform,
)
from urelunet.varpro import (
    solve_weights,
    vp_jacobian,
    vp_residual,
)

from conftest import CONFIGS, basis_derivative, parse_kv


def report(num, name, ok, detail=""):
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def well_separated_instance(N, m, n, q, seed, margin=1e-4, max_tries=500):
    """Random transform/data pair whose projected samples keep `margin`
    distance from every knot and whose per-dimension extremes are unique,
    so central differences probe a smooth neighborhood."""
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        U = rng.normal(size=(N, m))
        y = rng.normal(size=N)
        V = rng.normal(size=(m, n))
        X = transform(U, V)
        beta = bias_grid(X, q)
        dist = np.abs(X[:, :, None] - beta[None, :, :])
        for i in range(n):
            dist[np.argmin(X[:, i]), i, 0] = np.inf  # pinned to the first knot
        srt = np.sort(X, axis=0)
        edge = min((srt[1] - srt[0]).min(), (srt[-1] - srt[-2]).min())
        if dist.min() >= margin and edge >= margin:
            ds = RegressionDataset(U=U, y=y, spec=RegressorSpec(m - 2, 1))
            return V, ds
    raise RuntimeError("could not sample a well-separated instance")


def test_criterion_01_parameter_count():
    rng = np.random.default_rng(0)
    U = rng.normal(size=(60, 30))
    V = rng.normal(size=(30, 5))
    net = make_net(V, 10, np.zeros(5 * 10 + 1), transform(U, V))
    count = param_count(net)
    report(1, "parameter-count", count == 201, f"count={count}")


def test_criterion_02_jacobian_vs_finite_differences():
    worst = 0.0
    step = 1e-7
    for k in range(20):
        V, ds = well_separated_instance(N=500, m=8, n=3, q=5, seed=100 + k)
        J = vp_jacobian(V, ds, 5)
        m, n = V.shape
        Jfd = np.zeros_like(J)
        for t in range(n):
            for s in range(m):
                Vp, Vm = V.copy(), V.copy()
                Vp[s, t] += step
                Vm[s, t] -= step
                Jfd[:, t * m + s] = (
                    vp_residual(Vp, ds, 5) - vp_residual(Vm, ds, 5)
                ) / (2 * step)
        rel = np.abs(J - Jfd).max() / max(np.abs(Jfd).max(), 1e-12)
        worst = max(worst, rel)
    report(2, "projected-jacobian-fd", worst <= 1e-4, f"worst_rel={worst:.3e}")


def test_criterion_03_knot_sensitivity_sign():
    step = 1e-7
    V, ds = well_separated_instance(N=200, m=6, n=3, q=4, seed=200)

    def basis(Vv):
        X = transform(ds.U, Vv)
        return build_B(X, bias_grid(X, 4))

    errs = {}
    for mode, umin_sign in (("plus", 1.0), ("minus", -1.0)):
        worst = 0.0
        for s in range(6):
            for t in range(3):
                Vp, Vm = V.copy(), V.copy()
                Vp[s, t] += step
                Vm[s, t] -= step
                fd = (basis(Vp) - basis(Vm)) / (2 * step)
                an = basis_derivative(V, ds, 4, s, t, umin_sign)
                worst = max(
                    worst, np.abs(an - fd).max() / max(np.abs(fd).max(), 1.0)
                )
        errs[mode] = worst
    ok = errs["plus"] <= 1e-5 and errs["minus"] > 1e-2
    report(
        3,
        "knot-sensitivity-sign",
        ok,
        f"plus={errs['plus']:.3e} minus={errs['minus']:.3e}",
    )


def test_criterion_04_weight_solve_orthogonality():
    rng = np.random.default_rng(300)
    worst = 0.0
    for _ in range(100):
        N = int(rng.integers(20, 200))
        k = int(rng.integers(2, 15))
        B = rng.normal(size=(N, k)) * 10.0 ** rng.integers(-2, 3)
        y = rng.normal(size=N)
        w, _ = solve_weights(B, y)
        Btil = np.column_stack([np.ones(N), B])
        r = y - Btil @ w
        scale = max(np.linalg.norm(y) * np.abs(Btil).max(), 1.0)
        worst = max(worst, np.abs(Btil.T @ r).max() / scale)
    report(4, "weight-orthogonality", worst <= 1e-8, f"worst={worst:.3e}")


def test_criterion_05_cpd_recovery():
    def congruence(A, B):
        An = A / np.linalg.norm(A, axis=0)
        Bn = B / np.linalg.norm(B, axis=0)
        return np.abs(An.T @ Bn).max(axis=1).min()

    results = []
    for r in (2, 3):
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(1000 * r + seed)
            while True:
                Vt = rng.normal(size=(10, r))
                W = rng.normal(size=(50, r))
                if np.linalg.cond(Vt) < 10 and np.linalg.cond(W) < 10:
                    break
            T = np.einsum("il,jl,kl->ijk", Vt, Vt, W)
            tensor = HessianTensor(data=T)
            fac = cpd.cpd_als(tensor, r=r, seed=seed, tol=1e-12)
            ok = fac.rel_error <= 1e-6 and congruence(Vt, fac.A) >= 0.999
            hits += int(ok)
        results.append(hits)
    ok = all(h >= 9 for h in results)
    report(5, "cpd-factor-recovery", ok, f"hits r=2:{results[0]}/10 r=3:{results[1]}/10")


def test_criterion_06_sparse_polynomial_recovery():
    hits = 0
    details = []
    for seed in range(10):
        rng = np.random.default_rng(400 + seed)
        m = 6
        terms = polyfit.enumerate_terms(m, 3)
        idx = rng.choice(len(terms), size=5, replace=False)
        coeffs_true = rng.uniform(0.5, 2.0, size=5) * rng.choice([-1.0, 1.0], size=5)
        U = rng.normal(size=(400, m))
        y = np.zeros(400)
        for j, c in zip(idx, coeffs_true):
            y += c * np.prod(U ** np.array(terms[j].exponents), axis=1)
        ds = RegressionDataset(U=U, y=y, spec=RegressorSpec(m - 2, 1))
        model = polyfit.frols_select(ds, terms, max_terms=5, esr_tol=0.0)
        got = {t: c for t, c in zip(model.terms, model.coeffs)}
        want = {terms[j]: c for j, c in zip(idx, coeffs_true)}
        ok = set(got) == set(want) and all(
            abs(got[t] - want[t]) <= 1e-8 for t in want
        )
        hits += int(ok)
        details.append(ok)
    report(6, "sparse-term-recovery", hits == 10, f"hits={hits}/10")


def test_criterion_07_region_affine_consistency():
    rng = np.random.default_rng(500)
    U = rng.normal(size=(300, 5))
    V = rng.normal(size=(5, 3))
    w = rng.normal(size=3 * 6 + 1)
    net = make_net(V, 6, w, transform(U, V))
    pts = rng.normal(size=(1000, 5))
    X = transform(pts, net.V)
    yhat = forward(net, pts)
    scale = max(np.abs(yhat).max(), 1.0)
    worst = 0.0
    for k in range(1000):
        reg = pwl.affine_in_region(net, pwl.region_of(net, X[k]))
        worst = max(worst, abs(reg.evaluate_x(X[k]) - yhat[k]) / scale)
        worst = max(worst, abs(reg.evaluate_u(pts[k]) - yhat[k]) / scale)
    facet_worst = 0.0
    for i in range(net.n):
        for kk in range(1, net.q):
            lo_cell = [1] * net.n
            hi_cell = [1] * net.n
            lo_cell[i], hi_cell[i] = kk, kk + 1
            lo = pwl.affine_in_region(net, lo_cell)
            hi = pwl.affine_in_region(net, hi_cell)
            x = np.array([net.beta[d, 0] + 1e-3 for d in range(net.n)])
            x[i] = net.beta[i, kk]
            facet_worst = max(facet_worst, abs(lo.evaluate_x(x) - hi.evaluate_x(x)))
    ok = worst <= 1e-9 and facet_worst <= 1e-9
    report(
        7,
        "region-affine-consistency",
        ok,
        f"point={worst:.3e} facet={facet_worst:.3e}",
    )


def test_criterion_08_exact_1d_pwl_fit():
    q = 8
    u = np.linspace(-1.0, 2.0, 601)[:, None]
    beta = bias_grid(u, q)[0]
    rng = np.random.default_rng(600)
    slopes = rng.normal(size=q)
    target = 1.5 + sum(
        s * np.maximum(0.0, u[:, 0] - b) for s, b in zip(slopes, beta)
    )
    B = build_B(u, beta[None, :])
    w, _ = solve_weights(B, target)
    net = make_net(np.array([[1.0]]), q, w, u)
    err = forward(net, u) - target
    value = float(np.sqrt(np.mean(err**2)))
    report(8, "exact-1d-pwl-fit", value <= 1e-10, f"rmse={value:.3e}")


def test_criterion_09_oscillator_integration():
    # (a) linear limit against the closed-form driven-oscillator response
    p_lin = boucwen.BoucWenParams(
        m_L=2.0, k_L=5e4, c_L=200.0, alpha=0.0, beta_bw=1e3,
        gamma=0.8, delta=-1.1, nu=1.0,
    )
    fs = 30000.0
    f0 = 40.0
    n = int(fs)
    t = np.arange(n) / fs
    u = 100.0 * np.sin(2 * np.pi * f0 * t)
    out = boucwen.simulate(p_lin, u, fs)
    wn = 2 * np.pi * f0
    H = 1.0 / (p_lin.k_L - p_lin.m_L * wn**2 + 1j * p_lin.c_L * wn)
    ref = np.abs(H) * 100.0 * np.sin(2 * np.pi * f0 * t + np.angle(H))
    tail = slice(n // 2, None)
    lin_rel = np.sqrt(np.mean((out.y[tail] - ref[tail]) ** 2)) / np.sqrt(
        np.mean(ref[tail] ** 2)
    )

    # (b) step refinement: the same continuous forcing sampled at 15/30 kHz,
    # both records decimated to 750 Hz
    p = boucwen.BoucWenParams(
        m_L=2.0, k_L=5e4, c_L=40.0, alpha=5e4, beta_bw=1e3,
        gamma=0.8, delta=-1.1, nu=1.0,
    )

    def run(fs_i, factor):
        dur = 1.0
        tt = np.arange(int(dur * fs_i)) / fs_i
        uu = 120.0 * np.sin(2 * np.pi * 35.0 * tt)
        sim = boucwen.simulate(p, uu, fs_i)
        return boucwen.decimate(sim.y, factor)

    y_a = run(15000.0, 20)
    y_b = run(30000.0, 40)
    interior = slice(20, -20)
    step_rel = np.sqrt(np.mean((y_a[interior] - y_b[interior]) ** 2)) / np.sqrt(
        np.mean(y_b[interior] ** 2)
    )

    # (c) hysteresis loop with positive enclosed area
    fs_c = 15000.0
    tc = np.arange(int(fs_c)) / fs_c
    sim = boucwen.simulate(p, 120.0 * np.sin(2 * np.pi * 25.0 * tc), fs_c)
    per = int(fs_c / 25.0)
    y, z = sim.y[-per:], sim.z[-per:]
    area = 0.5 * abs(np.sum(y * np.roll(z, -1) - z * np.roll(y, -1)))

    ok = lin_rel <= 1e-4 and step_rel <= 1e-3 and area > 0.0
    report(
        9,
        "oscillator-integration",
        ok,
        f"linear={lin_rel:.3e} refine={step_rel:.3e} loop_area={area:.3e}",
    )


def test_criterion_10_desk_experiment(desk_pipeline):
    report_doc = json.loads(desk_pipeline["report"].read_text())
    hist = report_doc["residual_history"]
    monotone = all(b < a for a, b in zip(hist, hist[1:]))

    # eval scores the network and the affine least-squares baseline on the same regressors
    rc, out = desk_pipeline["run"]("eval")
    kv = parse_kv(out)
    margin = float(kv.get("margin_db", "nan"))
    ok = rc == 0 and monotone and margin >= 6.0
    report(
        10,
        "desk-experiment",
        ok,
        f"linear={kv.get('affine_rmse_db')}dB net={kv.get('rmse_db')}dB margin={margin:.2f}dB "
        f"monotone={monotone}",
    )


def test_criterion_11_full_benchmark(tmp_path):
    train_path = os.environ.get("BENCHMARK_TRAIN_CSV")
    val_path = os.environ.get("BENCHMARK_VALIDATION_CSV")
    if not (train_path and val_path):
        pytest.skip(
            "set BENCHMARK_TRAIN_CSV and BENCHMARK_VALIDATION_CSV to run the "
            "full-size benchmark criterion"
        )
    paths = {
        "train": train_path,
        "validation": val_path,
        "model": tmp_path / "model.json",
        "report": tmp_path / "report.json",
    }
    argv = ["--config", str(CONFIGS / "benchmark_pipeline.json")]
    for key, value in paths.items():
        argv += ["--set", f"paths.{key}={value}"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv + ["fit"])
        assert rc == 0, "fit failed"
        rc = cli.main(argv + ["eval"])
    kv = parse_kv(out.getvalue())
    ok = rc == 0 and kv.get("diverged") == "false" and float(kv["rmse_db"]) < -60.0
    report(11, "full-benchmark", ok, f"free_run={kv.get('rmse_db', 'diverged')}dB")
