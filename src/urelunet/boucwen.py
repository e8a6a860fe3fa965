"""Hysteretic oscillator benchmark data: Newmark-beta integration, multisine
excitation, zero-phase decimation, and the benchmark's record recipe."""

from __future__ import annotations

import contextlib
import numbers
import subprocess
import sys
import tempfile
from array import array
from dataclasses import astuple, dataclass

import numpy as np

from . import _newmark
from ._newmark import BLOWUP_BOUND, NEWTON_MAX_ITER, NEWTON_TOL, IntegrationError
from .dataset import TimeSeriesData, is_finite_number, parse_json_object

PARAM_KEYS = ("m_L", "k_L", "c_L", "alpha", "beta_bw", "gamma", "delta", "nu")
INIT_KEYS = ("y0", "v0", "z0")
# Every record follows the hysteretic benchmark's recipe (`records`; `recipe` states it): a
# random-phase multisine over F_MIN_HZ to F_MAX_HZ drives the oscillator, simulated at SIM_RATE_HZ;
# input and output are low-passed at CUTOFF of the decimated Nyquist and decimated by DECIMATION
# (to 750 Hz), and the first SETTLE_SAMPLES decimated samples are dropped as the start-up transient.
F_MIN_HZ = 5.0
F_MAX_HZ = 150.0
SIM_RATE_HZ = 15000.0
DECIMATION = 20
CUTOFF = 0.8
SETTLE_SAMPLES = 128

# `_newmark.py` as a worker process: this Python, isolated from the environment and the
# user's files, without site-packages and without writing bytecode
WORKER = (sys.executable, "-I", "-S", "-B", _newmark.__file__)


@dataclass(frozen=True)
class BoucWenParams:
    """Oscillator and hysteresis coefficients, and the initial state (y0, v0, z0).

    m_L y'' + c_L y' + k_L y + z = u with the hysteretic state
    z' = alpha y' - beta_bw (gamma |y'| |z|^(nu-1) z + delta y' |z|^nu),
    starting from y = y0, y' = v0, z = z0.
    """

    m_L: float
    k_L: float
    c_L: float
    alpha: float
    beta_bw: float
    gamma: float
    delta: float
    nu: float = 1.0
    y0: float = 0.0
    v0: float = 0.0
    z0: float = 0.0

    def __post_init__(self):
        if not all(np.isfinite(v) for v in astuple(self)):
            raise ValueError("all parameters must be finite")
        if self.m_L <= 0:
            raise ValueError("mass must be positive")
        if self.nu < 1:
            raise ValueError("nu must be >= 1")


@dataclass(frozen=True)
class SimOutput:
    y: np.ndarray
    ydot: np.ndarray
    z: np.ndarray


def _force(u, fs: float) -> np.ndarray:
    """`u` as a contiguous float array, checked as `simulate` checks its inputs."""
    u = np.asarray(u, dtype=float)
    if not fs > 0:
        raise ValueError("fs must be positive")
    if u.ndim != 1 or len(u) == 0:
        raise ValueError(f"input force must be a non-empty 1-D series, not shape {u.shape}")
    if not np.all(np.isfinite(u)):
        raise ValueError("input force contains non-finite values")
    return np.ascontiguousarray(u)


def simulate(params: BoucWenParams, u: np.ndarray, fs: float) -> SimOutput:
    """Integrate the oscillator with average-acceleration Newmark stepping from the
    initial state of `params`.

    Each step solves the coupled (acceleration, hysteretic force) update with a
    Newton iteration on the implicit equations; the hysteretic state is
    advanced by the trapezoidal rule, consistent with gamma_N = 1/2. Each Newton
    iteration evaluates |z1|, |z1|**(nu-1), |z1|**nu and |v1| once and shares them
    between the hysteresis law and its two partial derivatives.

    The loop is `_newmark.integrate`, which `SimulationWorker` also runs in a worker
    process. It runs on Python floats, one IEEE double operation at a time, so the
    result is fixed by the order of its operations: any rewrite must give
    `np.array_equal` y, ydot and z (`tests/test_boucwen.py` keeps a numpy-scalar
    reference loop to check this). A power that overflows, a non-finite or
    singular Newton system, a Newton iteration that does not converge and a
    displacement beyond BLOWUP_BOUND all raise IntegrationError; an empty or
    non-finite `u` and a non-positive `fs` raise ValueError.
    """
    u = _force(u, fs)
    y, ydot, z = _newmark.integrate(astuple(params), memoryview(u), fs)
    return SimOutput(y=np.frombuffer(y), ydot=np.frombuffer(ydot), z=np.frombuffer(z))


class SimulationWorker:
    """`simulate(params, u, fs).y`, computed by a worker process while this one runs on.

    The worker is the command WORKER, which imports nothing outside the standard
    library. `u` is checked here, as `simulate`
    checks it, before the worker starts; `result()` waits for the worker and returns y,
    or raises simulate's IntegrationError. A worker that fails otherwise raises
    RuntimeError with the last line of its stderr, which is never printed. Leaving the
    `with` block, by any path, kills a worker that still runs and reaps it.
    """

    def __init__(self, params: BoucWenParams, u: np.ndarray, fs: float):
        u = _force(u, fs)
        self._n = len(u)
        # the request goes through an unlinked file, so that starting the worker does
        # not wait for it to read a pipe
        with tempfile.TemporaryFile() as fh:
            fh.write(_newmark.request(astuple(params), fs))
            fh.write(u.data)
            fh.seek(0)
            self._proc = subprocess.Popen(WORKER, stdin=fh, stdout=subprocess.PIPE, stderr=subprocess.PIPE)

    def result(self) -> np.ndarray:
        out, err = self._proc.communicate()
        code = self._proc.returncode
        if code == _newmark.EXIT_INTEGRATION_ERROR:
            raise IntegrationError(out.decode())
        if code != 0 or len(out) != 8 * self._n:
            last = err.decode(errors="replace").strip().splitlines()[-1:] or ["no message"]
            raise RuntimeError(f"simulation worker exited with status {code}: {last[0]}")
        return np.frombuffer(out)

    def __enter__(self) -> SimulationWorker:
        return self

    def __exit__(self, *exc_info) -> None:
        if self._proc.returncode is None:
            self._proc.kill()
            self._proc.communicate()


def multisine(
    n_samples: int,
    fs: float,
    f_min: float,
    f_max: float,
    amplitude_rms: float,
    seed: int = 0,
) -> np.ndarray:
    """Random-phase multisine: equal-amplitude cosines on every DFT bin in the band,
    scaled to the requested RMS. The signal is periodic over n_samples.

    The sum over bins k of cos(2 pi k t / n_samples + phase_k) is one inverse real FFT
    with X[k] = (n_samples / 2) exp(i phase_k); a bin at Nyquist (k = n_samples / 2,
    which rounding can let into the band) is real, so it holds n_samples cos(phase_k)."""
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
    X = np.zeros(n_samples // 2 + 1, dtype=complex)
    X[k_lo : k_hi + 1] = (n_samples / 2) * np.exp(1j * phases)
    if 2 * k_hi == n_samples:
        X[k_hi] = n_samples * np.cos(phases[-1])
    x = np.fft.irfft(X, n_samples)
    rms = np.sqrt(np.mean(x**2))
    if rms == 0:
        raise ValueError("degenerate multisine (zero RMS)")
    return x * (amplitude_rms / rms)


def _butter4_sos(wn: float) -> np.ndarray:
    """Second-order sections of the 4th-order digital Butterworth low-pass with cutoff
    `wn` (a fraction of Nyquist): `scipy.signal.butter(4, wn, output="sos")` bit for bit.

    The analog prototype's poles are prewarped, mapped by the bilinear transform with
    fs = 2, and paired with their conjugates; section 1 takes the pair nearest the unit
    circle, and section 0 the gain. Each step is the numpy operation scipy runs."""
    p = -np.exp(1j * np.pi * np.arange(-3, 4, 2) / 8)
    warped = 4.0 * np.tan(np.pi * wn / 2.0)
    p = warped * p
    k = float(warped) ** 4 * np.real(1 / np.prod(4.0 - p))
    p = (4.0 + p) / (4.0 - p)
    p = p[p.imag > 0]
    near = np.argmin(np.abs(1 - np.abs(p)))
    sos = np.empty((2, 6))
    for section, pole in ((0, p[1 - near]), (1, p[near])):
        sos[section, :3] = (1.0, 2.0, 1.0)  # the double zero at z = -1
        sos[section, 3:] = np.real(np.poly([pole, pole.conj()]))
    sos[0, :3] *= k
    return sos


def _sosfilt_zi(sos: np.ndarray) -> np.ndarray:
    """The state of each section at the steady state of a unit step:
    `scipy.signal.sosfilt_zi(sos)` bit for bit for sections with a[0] = 1."""
    zi = np.empty((len(sos), 2))
    scale = 1.0
    for section, (b, a) in enumerate(zip(sos[:, :3], sos[:, 3:])):
        # (I - companion(a).T) zi = b[1:] - a[1:] b[0]
        zi[section] = scale * np.linalg.solve([[1.0 + a[1], -1.0], [a[2], 1.0]], b[1:] - a[1:] * b[0])
        scale *= np.sum(b) / np.sum(a)
    return zi


def _sosfilt(sos: np.ndarray, zi: np.ndarray, x) -> array:
    """Both sections of `sos` run over the floats `x` from the state `zi` (transposed
    direct form II), with the operations of scipy's sosfilt in its order, on Python
    floats; the output is a packed array of doubles, 8 bytes a sample."""
    (b00, b01, b02, _, a01, a02), (b10, b11, b12, _, a11, a12) = sos.tolist()
    (z00, z01), (z10, z11) = zi.tolist()
    out = array("d")
    append = out.append
    for v in x:
        w = b00 * v + z00
        z00 = b01 * v - a01 * w + z01
        z01 = b02 * v - a02 * w
        y = b10 * w + z10
        z10 = b11 * w - a11 * y + z11
        z11 = b12 * w - a12 * y
        append(y)
    return out


def decimate(x: np.ndarray, factor: int) -> np.ndarray:
    """Zero-phase low-pass (4th-order Butterworth, applied forward-backward)
    with cutoff at CUTOFF of the post-decimation Nyquist, then keep every
    factor-th sample.

    The bits of `scipy.signal.sosfiltfilt(butter(4, CUTOFF / factor, output="sos"),
    x)[::factor]`, which `tests/test_boucwen.py` keeps as its oracle: every record
    depends on them."""
    x = np.asarray(x, dtype=float)
    if not isinstance(factor, numbers.Integral) or factor < 1:
        raise ValueError(f"factor must be a positive integer, not {factor!r}")
    sos = _butter4_sos(CUTOFF / factor)
    n = 3 * (2 * len(sos) + 1)  # samples of odd extension at each end, as scipy's padlen
    if len(x) <= n:
        raise ValueError(f"series too short for filter warm-up (need > {n} samples)")
    zi = _sosfilt_zi(sos)
    # odd extension: the signal rotated by 180 degrees about each end sample
    ext = np.concatenate((2 * x[0] - x[n:0:-1], x, 2 * x[-1] - x[-2 : -(n + 2) : -1]))
    y = _sosfilt(sos, zi * ext[0], array("d", ext.tobytes()))
    y.reverse()
    y = _sosfilt(sos, zi * y[0], y)
    y.reverse()
    return np.frombuffer(y, dtype=float)[n : len(y) - n : factor].copy()


def sim_samples(n_samples: int) -> int:
    """Samples simulated at SIM_RATE_HZ for a record of `n_samples` decimated samples."""
    return (n_samples + SETTLE_SAMPLES) * DECIMATION


def excitation(amplitude_rms: float, n_samples: int, seed: int) -> np.ndarray:
    """The multisine of `amplitude_rms` at `seed`, at SIM_RATE_HZ, that drives the record
    of `n_samples` decimated samples."""
    return multisine(sim_samples(n_samples), SIM_RATE_HZ, F_MIN_HZ, F_MAX_HZ, amplitude_rms, seed=seed)


def settled(x_sim: np.ndarray) -> np.ndarray:
    """One simulated signal as a record holds it: decimated by DECIMATION, less the first
    SETTLE_SAMPLES decimated samples."""
    return decimate(x_sim, DECIMATION)[SETTLE_SAMPLES:]


def recipe(amplitude_rms: float) -> dict:
    """The recipe of the records `records` makes at `amplitude_rms`, as `datagen`'s sidecar states it."""
    return {
        "fs_simulation": SIM_RATE_HZ, "fs_output": SIM_RATE_HZ / DECIMATION,
        "decimation": DECIMATION, "settle_samples": SETTLE_SAMPLES,
        "filter": f"butterworth order 4 forward-backward, cutoff {CUTOFF}x target Nyquist",
        "excitation": {
            "signal": "random-phase multisine", "f_min": F_MIN_HZ, "f_max": F_MAX_HZ, "amplitude_rms": amplitude_rms
        },
    }


def records(params: BoucWenParams, amplitude_rms: float, lengths, seed: int, stages=None) -> list[TimeSeriesData]:
    """Records by the recipe of the constants above (`excitation`, `simulate`, then
    `settled` on input and output): record i holds `lengths[i]` decimated samples of the
    oscillator driven by the multisine of `amplitude_rms` at `seed + i`.

    Each record but the last is simulated, with the same bits, by a `SimulationWorker`
    started as soon as its excitation exists, while this process makes the last record;
    the earliest failing record's error is raised, and no worker outlives the call.
    `stages` (`cli.StageClock`), if given, times the excitation, simulation and decimation."""
    stages = contextlib.nullcontext if stages is None else stages  # nullcontext(name) times nothing
    with contextlib.ExitStack() as running:
        started = []  # (input, worker) of each record but the last
        try:
            for i, n_samples in enumerate(lengths[:-1]):
                with stages("excitation"):
                    u_sim = excitation(amplitude_rms, n_samples, seed + i)
                with stages("simulation"):
                    started.append((u_sim, running.enter_context(SimulationWorker(params, u_sim, SIM_RATE_HZ))))
            with stages("excitation"):
                u_sim = excitation(amplitude_rms, lengths[-1], seed + len(started))
            with stages("simulation"):
                y_sim = simulate(params, u_sim, SIM_RATE_HZ).y
            with stages("decimation"):
                last = TimeSeriesData(u=settled(u_sim), y=settled(y_sim))
                del u_sim, y_sim  # freed before the earlier records are decimated
                inputs = [settled(u) for u, _ in started]
        except Exception:
            # an earlier record's error wins; when no worker fails, the error keeps its stage
            for _, worker in started:
                with stages("simulation"):
                    worker.result()
            raise
        made = []
        for u, (_, worker) in zip(inputs, started):
            with stages("simulation"):
                y_sim = worker.result()
            with stages("decimation"):
                made.append(TimeSeriesData(u=u, y=settled(y_sim)))
    return made + [last]


def load_params(path) -> BoucWenParams:
    """Read a parameter JSON file: the coefficients and, where present, the initial state.

    The file must hold a JSON object (`dataset.parse_json_object`) with every PARAM_KEYS
    key, and each of PARAM_KEYS and INIT_KEYS present a number finite as a double
    (`dataset.is_finite_number`); anything else raises ValueError naming the file."""
    where = f"params file {path}"
    with open(path, "rb") as fh:
        doc = parse_json_object(fh.read(), where)
    for key in PARAM_KEYS + INIT_KEYS:
        value = doc.get(key, 0.0)
        if not is_finite_number(value):
            raise ValueError(f"{where}: {key!r} takes a finite number, not {value!r}")
    missing = [k for k in PARAM_KEYS if k not in doc]
    if missing:
        raise ValueError(f"{where} lacks {', '.join(missing)}")
    return BoucWenParams(**{k: float(doc[k]) for k in PARAM_KEYS + INIT_KEYS if k in doc})
