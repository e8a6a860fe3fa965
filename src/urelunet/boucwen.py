"""Hysteretic oscillator benchmark data: Newmark-beta integration, multisine
excitation, zero-phase decimation."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy import signal as sps

BLOWUP_BOUND = 1e3  # meters; far beyond any sane desk-scale displacement
NEWTON_TOL = 1e-10  # relative size of the last Newton update that ends a step
NEWTON_MAX_ITER = 50


class IntegrationError(RuntimeError):
    pass


@dataclass(frozen=True)
class BoucWenParams:
    """Oscillator and hysteresis coefficients.

    m_L y'' + c_L y' + k_L y + z = u with the hysteretic state
    z' = alpha y' - beta_bw (gamma |y'| |z|^(nu-1) z + delta y' |z|^nu).
    """

    m_L: float
    k_L: float
    c_L: float
    alpha: float
    beta_bw: float
    gamma: float
    delta: float
    nu: float = 1.0

    def __post_init__(self):
        vals = [self.m_L, self.k_L, self.c_L, self.alpha, self.beta_bw, self.gamma, self.delta, self.nu]
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("all parameters must be finite")
        if self.m_L <= 0:
            raise ValueError("mass must be positive")
        if self.nu < 1:
            raise ValueError("nu must be >= 1")

    @classmethod
    def from_dict(cls, doc: dict) -> "BoucWenParams":
        keys = ["m_L", "k_L", "c_L", "alpha", "beta_bw", "gamma", "delta", "nu"]
        missing = [k for k in keys if k not in doc]
        if missing:
            raise ValueError(f"Bouc-Wen parameters lack {', '.join(missing)}")
        return cls(**{k: float(doc[k]) for k in keys})


@dataclass(frozen=True)
class SimOutput:
    y: np.ndarray
    ydot: np.ndarray
    z: np.ndarray
    fs: float

    def __post_init__(self):
        if not (len(self.y) == len(self.ydot) == len(self.z)):
            raise ValueError("output series must have equal length")


def _zdot(p: BoucWenParams, v: float, z: float) -> float:
    az = abs(z)
    return p.alpha * v - p.beta_bw * (
        p.gamma * abs(v) * az ** (p.nu - 1.0) * z + p.delta * v * az**p.nu
    )


def simulate(
    params: BoucWenParams,
    u: np.ndarray,
    fs: float,
    y0: float = 0.0,
    v0: float = 0.0,
    z0: float = 0.0,
) -> SimOutput:
    """Integrate the oscillator with average-acceleration Newmark stepping.

    Each step solves the coupled (acceleration, hysteretic force) update with a
    Newton iteration on the implicit equations; the hysteretic state is
    advanced by the trapezoidal rule, consistent with gamma_N = 1/2.
    """
    u = np.asarray(u, dtype=float)
    if not fs > 0:
        raise ValueError("fs must be positive")
    if not np.all(np.isfinite(u)):
        raise ValueError("input force contains non-finite values")
    h = 1.0 / fs
    gn, bn = 0.5, 0.25  # Newmark gamma, beta
    p = params
    L = len(u)
    Y = np.empty(L)
    V = np.empty(L)
    Z = np.empty(L)
    y, v, z = float(y0), float(v0), float(z0)
    a = (u[0] - p.c_L * v - p.k_L * y - z) / p.m_L
    Y[0], V[0], Z[0] = y, v, z
    for t in range(1, L):
        zd0 = _zdot(p, v, z)
        a1, z1 = a, z
        converged = False
        for _ in range(NEWTON_MAX_ITER):
            y1 = y + h * v + h * h * ((0.5 - bn) * a + bn * a1)
            v1 = v + h * ((1.0 - gn) * a + gn * a1)
            zd1 = _zdot(p, v1, z1)
            R1 = p.m_L * a1 + p.c_L * v1 + p.k_L * y1 + z1 - u[t]
            R2 = z1 - z - 0.5 * h * (zd0 + zd1)
            az = abs(z1)
            dzd_dv = p.alpha - p.beta_bw * (
                p.gamma * np.sign(v1) * az ** (p.nu - 1.0) * z1 + p.delta * az**p.nu
            )
            dzd_dz = -p.beta_bw * p.nu * az ** (p.nu - 1.0) * (
                p.gamma * abs(v1) + p.delta * v1 * np.sign(z1)
            )
            J11 = p.m_L + p.c_L * gn * h + p.k_L * bn * h * h
            J12 = 1.0
            J21 = -0.5 * h * dzd_dv * gn * h
            J22 = 1.0 - 0.5 * h * dzd_dz
            det = J11 * J22 - J12 * J21
            if det == 0.0 or not np.isfinite(det):
                raise IntegrationError(f"singular Newton system at step {t}")
            da = (-R1 * J22 + R2 * J12) / det
            dz = (-J11 * R2 + J21 * R1) / det
            a1 += da
            z1 += dz
            if abs(da) + abs(dz) <= NEWTON_TOL * (1.0 + abs(a1) + abs(z1)):
                converged = True
                break
        if not converged:
            raise IntegrationError(f"Newton iteration did not converge at step {t}")
        y = y + h * v + h * h * ((0.5 - bn) * a + bn * a1)
        v = v + h * ((1.0 - gn) * a + gn * a1)
        a, z = a1, z1
        if not np.isfinite(y) or abs(y) > BLOWUP_BOUND:
            raise IntegrationError(f"simulation diverged at step {t}")
        Y[t], V[t], Z[t] = y, v, z
    return SimOutput(y=Y, ydot=V, z=Z, fs=fs)


def multisine(
    n_samples: int,
    fs: float,
    f_min: float,
    f_max: float,
    amplitude_rms: float,
    seed: int = 0,
) -> np.ndarray:
    """Random-phase multisine: equal-amplitude cosines on every DFT bin in the band,
    scaled to the requested RMS. The signal is periodic over n_samples."""
    if not 0 <= f_min < f_max < fs / 2:
        raise ValueError("need 0 <= f_min < f_max < fs/2")
    df = fs / n_samples
    k_lo = max(int(np.ceil(f_min / df)), 1)
    k_hi = int(np.floor(f_max / df))
    if k_hi < k_lo:
        raise ValueError("excitation band contains no DFT bins")
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=k_hi - k_lo + 1)
    t = np.arange(n_samples)
    x = np.zeros(n_samples)
    for k, ph in zip(range(k_lo, k_hi + 1), phases):
        x += np.cos(2.0 * np.pi * k * t / n_samples + ph)
    rms = np.sqrt(np.mean(x**2))
    if rms == 0:
        raise ValueError("degenerate multisine (zero RMS)")
    return x * (amplitude_rms / rms)


def decimate(x: np.ndarray, factor: int) -> np.ndarray:
    """Zero-phase low-pass (4th-order Butterworth, applied forward-backward)
    with cutoff at 0.8 of the post-decimation Nyquist, then keep every
    factor-th sample."""
    x = np.asarray(x, dtype=float)
    if factor < 1 or int(factor) != factor:
        raise ValueError("factor must be a positive integer")
    sos = sps.butter(4, 0.8 / factor, output="sos")
    padlen = 3 * (2 * sos.shape[0] + 1)
    if len(x) <= padlen:
        raise ValueError(f"series too short for filter warm-up (need > {padlen} samples)")
    filtered = sps.sosfiltfilt(sos, x)
    return filtered[::factor].copy()


def load_params(path) -> tuple[BoucWenParams, dict]:
    """Read a parameter JSON file; returns (params, initial_conditions)."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    params = BoucWenParams.from_dict(doc)
    init = {
        "y0": float(doc.get("y0", 0.0)),
        "v0": float(doc.get("v0", 0.0)),
        "z0": float(doc.get("z0", 0.0)),
    }
    return params, init
