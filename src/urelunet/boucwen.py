"""Hysteretic oscillator benchmark data: Newmark-beta integration, multisine
excitation, zero-phase decimation."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy import signal as sps

BLOWUP_BOUND = 1e3  # meters; far beyond any sane desk-scale displacement
NEWTON_TOL = 1e-10  # relative size of the last Newton update that ends a step
NEWTON_MAX_ITER = 50
PARAM_KEYS = ("m_L", "k_L", "c_L", "alpha", "beta_bw", "gamma", "delta", "nu")
INIT_KEYS = ("y0", "v0", "z0")


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
        missing = [k for k in PARAM_KEYS if k not in doc]
        if missing:
            raise ValueError(f"Bouc-Wen parameters lack {', '.join(missing)}")
        return cls(**{k: float(doc[k]) for k in PARAM_KEYS})


@dataclass(frozen=True)
class SimOutput:
    y: np.ndarray
    ydot: np.ndarray
    z: np.ndarray
    fs: float

    def __post_init__(self):
        if not (len(self.y) == len(self.ydot) == len(self.z)):
            raise ValueError("output series must have equal length")


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

    The loop runs on Python floats, one IEEE double operation at a time, so the
    result is fixed by the order of the operations below: any rewrite must give
    `np.array_equal` y, ydot and z (`tests/test_boucwen.py` keeps a numpy-scalar
    reference loop to check this). A power that overflows, a non-finite or
    singular Newton system, a Newton iteration that does not converge and a
    displacement beyond BLOWUP_BOUND all raise IntegrationError.
    """
    u = np.asarray(u, dtype=float)
    if not fs > 0:
        raise ValueError("fs must be positive")
    if not np.all(np.isfinite(u)):
        raise ValueError("input force contains non-finite values")
    h = 1.0 / fs
    gn, bn = 0.5, 0.25  # Newmark gamma, beta
    m_L, k_L, c_L = params.m_L, params.k_L, params.c_L
    alpha, beta_bw, gamma, delta, nu = (
        params.alpha, params.beta_bw, params.gamma, params.delta, params.nu
    )
    nu1 = nu - 1.0
    neg_beta_nu = -beta_bw * nu
    half_h = 0.5 * h
    J11 = m_L + c_L * gn * h + k_L * bn * h * h
    # J12 = 1, so the products with it are left out of det, da and dz

    def zdot(v, z):  # the hysteresis law of BoucWenParams
        az = abs(z)
        return alpha * v - beta_bw * (gamma * abs(v) * az**nu1 * z + delta * v * az**nu)

    L = len(u)
    Y = np.empty(L)
    V = np.empty(L)
    Z = np.empty(L)
    y, v, z = float(y0), float(v0), float(z0)
    a = (u.item(0) - c_L * v - k_L * y - z) / m_L
    Y[0], V[0], Z[0] = y, v, z
    for t in range(1, L):
        ut = u.item(t)
        y_pred = y + h * v
        a_y = (0.5 - bn) * a
        a_v = (1.0 - gn) * a
        a1, z1 = a, z
        try:
            zd0 = zdot(v, z)
            for _ in range(NEWTON_MAX_ITER):
                y1 = y_pred + h * h * (a_y + bn * a1)
                v1 = v + h * (a_v + gn * a1)
                zd1 = zdot(v1, z1)
                R1 = m_L * a1 + c_L * v1 + k_L * y1 + z1 - ut
                R2 = z1 - z - half_h * (zd0 + zd1)
                az = abs(z1)
                sign_v = (v1 > 0) - (v1 < 0)
                sign_z = (z1 > 0) - (z1 < 0)
                dzd_dv = alpha - beta_bw * (gamma * sign_v * az**nu1 * z1 + delta * az**nu)
                dzd_dz = neg_beta_nu * az**nu1 * (gamma * abs(v1) + delta * v1 * sign_z)
                J21 = -half_h * dzd_dv * gn * h
                J22 = 1.0 - half_h * dzd_dz
                det = J11 * J22 - J21
                if det == 0.0 or not math.isfinite(det):
                    raise IntegrationError(f"singular Newton system at step {t}")
                da = (-R1 * J22 + R2) / det
                dz = (-J11 * R2 + J21 * R1) / det
                a1 += da
                z1 += dz
                if abs(da) + abs(dz) <= NEWTON_TOL * (1.0 + abs(a1) + abs(z1)):
                    break
            else:
                raise IntegrationError(f"Newton iteration did not converge at step {t}")
        except OverflowError:
            # a float power that overflows raises instead of returning inf
            raise IntegrationError(f"power overflowed at step {t}") from None
        y = y_pred + h * h * (a_y + bn * a1)
        v = v + h * (a_v + gn * a1)
        a, z = a1, z1
        if not math.isfinite(y) or abs(y) > BLOWUP_BOUND:
            raise IntegrationError(f"simulation diverged at step {t}")
        Y[t] = y
        V[t] = v
        Z[t] = z
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
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, not {n_samples}")
    if not 0 <= f_min < f_max < fs / 2:
        raise ValueError("need 0 <= f_min < f_max < fs/2")
    if not amplitude_rms > 0:  # NaN fails too
        raise ValueError(f"amplitude_rms must be > 0, not {amplitude_rms}")
    df = fs / n_samples
    k_lo = max(int(np.ceil(f_min / df)), 1)
    k_hi = int(np.floor(f_max / df))
    if k_hi < k_lo:
        raise ValueError("excitation band contains no DFT bins")
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=k_hi - k_lo + 1)
    t = np.arange(n_samples, dtype=float)
    x = np.zeros(n_samples)
    # each bin is cos(2 pi k t / n_samples + phase), evaluated in that order in one buffer
    buf = np.empty(n_samples)
    for k, ph in zip(range(k_lo, k_hi + 1), phases):
        np.multiply(t, 2.0 * np.pi * k, out=buf)
        np.divide(buf, n_samples, out=buf)
        np.add(buf, ph, out=buf)
        np.cos(buf, out=buf)
        x += buf
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
    """Read a parameter JSON file; returns (params, initial_conditions).

    The file must hold a JSON object, and each of PARAM_KEYS and INIT_KEYS present a
    finite JSON number: a bool, a string, null, NaN or an infinity raises ValueError
    naming the file and the key."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"params file {path} must hold a JSON object")
    for key in PARAM_KEYS + INIT_KEYS:
        value = doc.get(key, 0.0)
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"params file {path}: {key!r} takes a finite number, not {json.dumps(value)}")
    params = BoucWenParams.from_dict(doc)
    init = {k: float(doc.get(k, 0.0)) for k in INIT_KEYS}
    return params, init
