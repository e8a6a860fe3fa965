"""Output checks computed apart from the program.

Each check rebuilds what it compares against with its own numpy code (lagged
regressors, ramp basis, monomials, forward pass, finite differences) or
tests a property the method must have. Every check returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math

import numpy as np


# -- independent building blocks ---------------------------------------
def lagged(u: np.ndarray, y: np.ndarray, n_u: int, n_y: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows [u(t), ..., u(t-n_u), y(t-1), ..., y(t-n_y)] and targets y(t)."""
    t0 = max(n_u, n_y)
    t = np.arange(t0, len(u))
    cols = [u[t - j] for j in range(n_u + 1)] + [y[t - j] for j in range(1, n_y + 1)]
    return np.stack(cols, axis=1), y[t0:]


def ramp_basis(U: np.ndarray, V: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """[1, max(0, x_i - beta_ij)] with x = U V, columns dimension-major."""
    X = U @ V
    ramps = np.maximum(X[:, :, None] - beta[None, :, :], 0.0).reshape(len(U), -1)
    return np.hstack([np.ones((len(U), 1)), ramps])


def net_output(model: dict, U: np.ndarray) -> np.ndarray:
    return ramp_basis(U, model["V"], model["beta"]) @ model["w"]


def read_model(path) -> dict:
    """The saved network as plain arrays, read straight from its JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    m, n, q = doc["m"], doc["n"], doc["q"]
    return {
        "V": np.array(doc["V"], dtype=float).reshape(m, n),
        "beta": np.array(doc["beta"], dtype=float).reshape(n, q),
        "w": np.array(doc["w"], dtype=float),
        "x_max": np.array(doc["x_max"], dtype=float),
        "q": q,
        "n_u": doc["regressor_spec"]["n_u"],
        "n_y": doc["regressor_spec"]["n_y"],
    }


def read_record(path) -> tuple[np.ndarray, np.ndarray]:
    data = np.loadtxt(path, delimiter=",", ndmin=2)
    return data[:, 0], data[:, 1]


def monomials(U: np.ndarray, exponents) -> np.ndarray:
    cols = []
    for exps in exponents:
        col = np.ones(len(U))
        for j, e in enumerate(exps):
            for _ in range(e):
                col = col * U[:, j]
        cols.append(col)
    return np.stack(cols, axis=1)


def rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(x))))


def neg_db(value: float) -> float:
    return -20.0 * math.log10(value)


# -- checks ------------------------------------------------------------
def check_record(u: np.ndarray, y: np.ndarray, rows: int) -> list[str]:
    problems = []
    if len(u) != rows:
        problems.append(f"record has {len(u)} rows, expected {rows}")
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(y))):
        problems.append("record holds non-finite values")
    elif rms(y) == 0.0:
        problems.append("output record is identically zero")
    return problems


def check_weights(model: dict, U: np.ndarray, y: np.ndarray, tol: float = 1e-7) -> list[str]:
    """The knots span the training range and w solves least squares on [1, B(V)]."""
    problems = []
    X = U @ model["V"]
    q = model["q"]
    lo, hi = X.min(axis=0), X.max(axis=0)
    grid = lo[:, None] + (hi - lo)[:, None] * (np.arange(q) / q)[None, :]
    if not np.allclose(model["beta"], grid, rtol=1e-12, atol=1e-12 * float(np.max(np.abs(X)))):
        problems.append("knot grid differs from the range of the training data")
    basis = ramp_basis(U, model["V"], model["beta"])
    resid = y - basis @ model["w"]
    # least squares leaves a residual orthogonal to every basis column
    ortho = np.abs(basis.T @ resid) / (np.linalg.norm(basis, axis=0) * np.linalg.norm(resid))
    if not float(np.max(ortho)) < tol:
        problems.append(f"residual not orthogonal to the ramp basis (max cosine {np.max(ortho):.3e})")
    w_ref, *_ = np.linalg.lstsq(basis, y, rcond=None)
    r_ref = y - basis @ w_ref
    excess = (resid @ resid - r_ref @ r_ref) / (r_ref @ r_ref)
    if not excess < tol:
        problems.append(f"weights cost {excess:.3e} more than least squares")
    return problems


def check_report(report: dict, train_rmse: float, tol_db: float = 1e-6) -> list[str]:
    problems = []
    if not abs(report["final_rmse_db"] - 20.0 * math.log10(train_rmse)) < tol_db:
        problems.append(
            f"reported train dB {report['final_rmse_db']!r} differs from the forward pass "
            f"{20.0 * math.log10(train_rmse)!r}"
        )
    hist = report["residual_history"]
    if not all(b < a for a, b in zip(hist, hist[1:])):
        problems.append("residual_history is not strictly decreasing")
    if len(hist) != report["accepted"] + 1:
        problems.append(f"{len(hist)} history entries for {report['accepted']} accepted steps")
    return problems


def check_frols(exponents, coeffs: np.ndarray, U: np.ndarray, y: np.ndarray, tol: float = 1e-6) -> list[str]:
    """Coefficients are the least-squares refit on the selected monomials."""
    problems = []
    if len({tuple(e) for e in exponents}) != len(exponents):
        problems.append("selected terms repeat")
    A = monomials(U, exponents)
    c_ref, *_ = np.linalg.lstsq(A, y, rcond=None)
    gap = np.linalg.norm(A @ (coeffs - c_ref)) / np.linalg.norm(y)
    if not gap < tol:
        problems.append(f"FROLS fit differs from the least-squares refit by {gap:.3e}")
    return problems


def check_hessian(exponents, coeffs: np.ndarray, points: np.ndarray, H: np.ndarray, tol: float = 1e-5) -> list[str]:
    """H[:, :, k] matches central differences of the polynomial at points[k]."""
    problems = []
    m = points.shape[1]
    poly = lambda P: monomials(P, exponents) @ coeffs  # noqa: E731
    for k, x in enumerate(points):
        h = 1e-3 * np.maximum(np.abs(x), 1e-3 * float(np.max(np.abs(points))))
        fd = np.empty((m, m))
        for a in range(m):
            for b in range(m):
                ea, eb = np.eye(m)[a] * h[a], np.eye(m)[b] * h[b]
                P = np.stack([x + ea + eb, x + ea - eb, x - ea + eb, x - ea - eb])
                f = poly(P)
                fd[a, b] = (f[0] - f[1] - f[2] + f[3]) / (4.0 * h[a] * h[b])
        scale = np.abs(fd).max() + np.abs(H[:, :, k]).max()
        err = np.abs(H[:, :, k] - fd).max() / scale
        if not err < tol:
            problems.append(f"Hessian at point {k} differs from finite differences by {err:.3e}")
    return problems


def check_free_run(model: dict, u: np.ndarray, y: np.ndarray, y_sim: np.ndarray) -> list[str]:
    """The free run feeds back its own outputs and stays below the output RMS."""
    problems = []
    seed_len = max(model["n_u"], model["n_y"])
    if len(y_sim) != len(y) or not np.array_equal(y_sim[:seed_len], y[:seed_len]):
        return ["free run does not start from the measured seed window"]
    if not np.all(np.isfinite(y_sim)):
        return ["free run holds non-finite values"]
    U, target = lagged(u, y_sim, model["n_u"], model["n_y"])
    gap = np.max(np.abs(net_output(model, U) - target)) / max(rms(y), 1e-300)
    if not gap < 1e-9:
        problems.append(f"free-run output differs from the network on its own regressors by {gap:.3e}")
    err = rms(y[seed_len:] - y_sim[seed_len:])
    if not err < rms(y[seed_len:]):
        problems.append(f"free-run RMSE {err:.3e} is not below the output RMS {rms(y[seed_len:]):.3e}")
    return problems


def affine_free_run_rmse(u_tr, y_tr, u_val, y_val, n_u: int, n_y: int) -> float:
    """Free-run RMSE of the affine least-squares model on the same regressors."""
    U, target = lagged(u_tr, y_tr, n_u, n_y)
    coef, *_ = np.linalg.lstsq(np.hstack([np.ones((len(U), 1)), U]), target, rcond=None)
    seed_len = max(n_u, n_y)
    y_sim = np.array(y_val, dtype=float)
    for t in range(seed_len, len(u_val)):
        phi = np.concatenate([u_val[t - n_u : t + 1][::-1], y_sim[t - n_y : t][::-1]])
        y_sim[t] = coef[0] + coef[1:] @ phi
    return rms(y_val[seed_len:] - y_sim[seed_len:])


def check_regions(lines: list[str], model: dict, rng: np.random.Generator | None = None) -> list[str]:
    """Header counts the q^n bounded cells; each region's maps equal the network inside it.

    Each cell is probed at one point, drawn from ``rng`` if given, else at its
    fixed fractions ``linspace(0.3, 0.7, n)`` of the cell's sides.
    """
    try:
        header = json.loads(lines[0])
        regions = [json.loads(line) for line in lines[1:]]
    except (IndexError, json.JSONDecodeError) as exc:
        return [f"region file does not parse: {exc}"]
    n, q = model["V"].shape[1], model["q"]
    expected = {"total_cells": q**n, "emitted": q**n, "truncated": False}
    if header != expected:
        return [f"region header {header} differs from {expected}"]
    if len(regions) != q**n or len({tuple(r["cell"]) for r in regions}) != q**n:
        return [f"{len(regions)} region lines for {q**n} distinct cells"]
    problems = []
    beta, x_max, V = model["beta"], model["x_max"], model["V"]
    idx = np.arange(n)
    for r in regions:
        cell = np.array(r["cell"])
        if np.any(cell < 1) or np.any(cell > q):
            problems.append(f"cell {r['cell']} is not a bounded cell")
            continue
        lo = beta[idx, cell - 1]
        hi = np.where(cell < q, beta[idx, np.minimum(cell, q - 1)], x_max)
        # a u of least norm that maps to a point inside the cell, and that point
        frac = rng.uniform(0.2, 0.8, n) if rng is not None else np.linspace(0.3, 0.7, n)
        u = V @ np.linalg.solve(V.T @ V, lo + (hi - lo) * frac)
        x = u @ V
        y_net = net_output(model, u[None, :])[0]
        y_x = np.dot(r["affine_x"]["a"], x) + r["affine_x"]["b"]
        y_u = np.dot(r["affine_u"]["c"], u) + r["affine_u"]["b"]
        # size of the terms the network sums, which bounds its rounding error
        scale = abs(model["w"][0]) + float(np.abs(model["w"][1:]) @ (np.abs(x)[:, None] + np.abs(beta)).ravel())
        if not (abs(y_x - y_net) < 1e-9 * scale and abs(y_u - y_net) < 1e-9 * scale):
            problems.append(f"region {r['cell']} map differs from the network inside the cell")
    return problems
