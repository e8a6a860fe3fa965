import re

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from urelunet import boucwen
from urelunet.boucwen import (
    BLOWUP_BOUND,
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    BoucWenParams,
    IntegrationError,
    decimate,
    load_params,
    multisine,
    simulate,
)

DESK = dict(
    m_L=2.0, k_L=50000.0, c_L=40.0, alpha=50000.0,
    beta_bw=1000.0, gamma=0.8, delta=-1.1, nu=1.0,
)


def desk_params(**over):
    return BoucWenParams(**{**DESK, **over})


def reference_simulate(p, u, fs):
    """Newmark loop on numpy scalars from the initial state of `p`: `simulate` as it was
    before it moved to Python floats. `simulate` must reproduce its y, ydot and z bit for
    bit."""
    h = 1.0 / fs
    gn, bn = 0.5, 0.25

    def zdot(v, z):
        az = abs(z)
        return p.alpha * v - p.beta_bw * (
            p.gamma * abs(v) * az ** (p.nu - 1.0) * z + p.delta * v * az**p.nu
        )

    L = len(u)
    Y, V, Z = np.empty(L), np.empty(L), np.empty(L)
    y, v, z = p.y0, p.v0, p.z0
    a = (u[0] - p.c_L * v - p.k_L * y - z) / p.m_L
    Y[0], V[0], Z[0] = y, v, z
    for t in range(1, L):
        zd0 = zdot(v, z)
        a1, z1 = a, z
        for _ in range(NEWTON_MAX_ITER):
            y1 = y + h * v + h * h * ((0.5 - bn) * a + bn * a1)
            v1 = v + h * ((1.0 - gn) * a + gn * a1)
            zd1 = zdot(v1, z1)
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
            da = (-R1 * J22 + R2 * J12) / det
            dz = (-J11 * R2 + J21 * R1) / det
            a1 += da
            z1 += dz
            if abs(da) + abs(dz) <= NEWTON_TOL * (1.0 + abs(a1) + abs(z1)):
                break
        y = y + h * v + h * h * ((0.5 - bn) * a + bn * a1)
        v = v + h * ((1.0 - gn) * a + gn * a1)
        a, z = a1, z1
        Y[t], V[t], Z[t] = y, v, z
    return Y, V, Z


def reference_multisine(n_samples, fs, f_min, f_max, amplitude_rms, seed):
    """The sum that `multisine` takes by an inverse FFT, as a loop of one cosine per bin."""
    df = fs / n_samples
    k_lo = max(int(np.ceil(f_min / df)), 1)
    k_hi = int(np.floor(f_max / df))
    phases = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, size=k_hi - k_lo + 1)
    t = np.arange(n_samples)
    x = np.zeros(n_samples)
    for k, ph in zip(range(k_lo, k_hi + 1), phases):
        x += np.cos(2.0 * np.pi * k * t / n_samples + ph)
    return x * (amplitude_rms / np.sqrt(np.mean(x**2)))


class TestParams:
    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            desk_params(m_L=0.0)
        with pytest.raises(ValueError):
            desk_params(nu=0.5)
        with pytest.raises(ValueError):
            desk_params(k_L=np.nan)

    def test_load_params_file(self, tmp_path):
        import json

        path = tmp_path / "p.json"
        path.write_text(json.dumps({**DESK, "y0": 1e-4, "v0": 0.0, "z0": 2.0}))
        assert load_params(path) == desk_params(y0=1e-4, v0=0.0, z0=2.0)

    @pytest.mark.parametrize("key", ["nu", "k_L", "z0"])
    @pytest.mark.parametrize(
        "value", [True, "5e4", None, float("nan"), pytest.param(10**400, id="401-digits")]
    )
    def test_load_params_non_number_rejected(self, tmp_path, key, value):
        import json

        path = tmp_path / "p.json"
        path.write_text(json.dumps({**DESK, key: value}))
        with pytest.raises(ValueError, match=re.escape(f"{path}: '{key}' takes a finite number")):
            load_params(path)

    def test_load_params_missing_key_names_the_file(self, tmp_path):
        import json

        path = tmp_path / "p.json"
        path.write_text(json.dumps({k: v for k, v in DESK.items() if k != "k_L"}))
        with pytest.raises(ValueError, match=re.escape(f"params file {path} lacks k_L")):
            load_params(path)

    def test_load_params_non_object_rejected(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match=re.escape(f"params file {path} must hold a JSON object")):
            load_params(path)


class TestSimulate:
    def test_rest_stays_at_rest(self):
        out = simulate(desk_params(), np.zeros(500), fs=15000.0)
        assert np.all(out.y == 0.0)
        assert np.all(out.z == 0.0)

    def test_linear_limit_matches_closed_form(self):
        # alpha=0 with z0=0 keeps z identically zero: a driven linear
        # oscillator with known steady-state amplitude and phase
        p = desk_params(alpha=0.0, c_L=200.0)
        fs = 30000.0
        f0 = 40.0
        n = int(fs)  # one second
        t = np.arange(n) / fs
        u = 100.0 * np.sin(2 * np.pi * f0 * t)
        out = simulate(p, u, fs)
        wn = 2 * np.pi * f0
        H = 1.0 / (p.k_L - p.m_L * wn**2 + 1j * p.c_L * wn)
        ref = np.abs(H) * 100.0 * np.sin(2 * np.pi * f0 * t + np.angle(H))
        tail = slice(n // 2, None)  # transient decays at c/(2m) = 50 /s
        err = out.y[tail] - ref[tail]
        rel = np.sqrt(np.mean(err**2)) / np.sqrt(np.mean(ref[tail] ** 2))
        assert rel <= 1e-4

    def test_matches_generic_ode_solver(self):
        p = desk_params()
        fs = 15000.0
        n = 1500
        t = np.arange(n) / fs
        u = 50.0 * np.sin(2 * np.pi * 30.0 * t)

        def rhs(tt, s):
            y, v, z = s
            ui = np.interp(tt, t, u)
            az = abs(z)
            zdot = p.alpha * v - p.beta_bw * (
                p.gamma * abs(v) * az ** (p.nu - 1) * z + p.delta * v * az**p.nu
            )
            return [v, (ui - p.c_L * v - p.k_L * y - z) / p.m_L, zdot]

        sol = solve_ivp(rhs, (0, t[-1]), [0, 0, 0], t_eval=t, rtol=1e-10, atol=1e-14)
        out = simulate(p, u, fs)
        rel = np.sqrt(np.mean((out.y - sol.y[0]) ** 2)) / np.sqrt(
            np.mean(sol.y[0] ** 2)
        )
        assert rel <= 1e-3

    def test_step_refinement_converges(self):
        p = desk_params()
        fs1, fs2 = 15000.0, 30000.0
        dur = 0.2
        f0 = 35.0

        def run(fs):
            t = np.arange(int(dur * fs)) / fs
            u = 80.0 * np.sin(2 * np.pi * f0 * t)
            return simulate(p, u, fs).y

        y1 = run(fs1)
        y2 = run(fs2)[::2]
        rel = np.sqrt(np.mean((y1 - y2) ** 2)) / np.sqrt(np.mean(y2**2))
        assert rel <= 1e-3

    def test_hysteresis_loop_has_area(self):
        p = desk_params()
        fs = 15000.0
        t = np.arange(int(fs)) / fs
        u = 120.0 * np.sin(2 * np.pi * 25.0 * t)
        out = simulate(p, u, fs)
        # signed area of the (y, z) loop over the final forcing period
        per = int(fs / 25.0)
        y, z = out.y[-per:], out.z[-per:]
        area = 0.5 * abs(np.sum(y * np.roll(z, -1) - z * np.roll(y, -1)))
        assert area > 0.0
        # and z is genuinely nonlinear in y: correlation well below 1
        assert abs(np.corrcoef(y, z)[0, 1]) < 0.99999

    def test_nu_two_stable_signs(self):
        p = desk_params(gamma=0.5, delta=0.3, nu=2.0, beta_bw=10.0)
        t = np.arange(3000) / 15000.0
        u = 100.0 * np.sin(2 * np.pi * 40.0 * t)
        out = simulate(p, u, 15000.0)
        assert np.all(np.isfinite(out.y))

    def test_divergence_raises(self):
        with pytest.raises(IntegrationError):
            simulate(desk_params(), np.full(20000, 1e12), fs=15000.0)

    def test_blowup_bound_raises(self):
        # no stiffness and no hysteresis: a constant force drives the mass-damper off
        # towards its terminal speed, and y passes BLOWUP_BOUND at step 450
        p = desk_params(k_L=0.0, alpha=0.0)
        u = np.full(1000, 1e5)
        assert abs(simulate(p, u[:450], fs=1000.0).y[-1]) <= BLOWUP_BOUND
        with pytest.raises(IntegrationError, match="simulation diverged at step 450"):
            simulate(p, u, fs=1000.0)

    def test_power_overflow_raises_integration_error(self):
        # |z|**nu overflows a double on the first step; that must not escape as OverflowError
        p = desk_params(gamma=0.5, delta=0.3, nu=2.0, beta_bw=10.0)
        with pytest.raises(IntegrationError, match="step 1"):
            simulate(p, np.full(100, 1e160), fs=15000.0)

    def test_non_finite_newton_system_raises(self):
        # beta_bw |v| overflows to inf, so the Jacobian's determinant is not finite
        with pytest.raises(IntegrationError, match="singular Newton system at step 1"):
            simulate(desk_params(beta_bw=1e10), np.full(10, 1e300), fs=1.0)

    def test_singular_newton_system_raises(self):
        # at rest with h = 1: det = m_L + alpha / 4, which is exactly zero here
        p = desk_params(m_L=2.0, k_L=0.0, c_L=0.0, alpha=-8.0)
        with pytest.raises(IntegrationError, match="singular Newton system at step 1"):
            simulate(p, np.zeros(10), fs=1.0)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            simulate(desk_params(), np.zeros(10), fs=0.0)
        with pytest.raises(ValueError):
            simulate(desk_params(), np.array([1.0, np.nan]), fs=100.0)

    @pytest.mark.parametrize("u", [np.array([]), np.zeros((4, 2)), np.float64(1.0)], ids=["empty", "2-D", "scalar"])
    def test_input_that_is_no_series_rejected(self, u):
        with pytest.raises(ValueError, match="non-empty 1-D"):
            simulate(desk_params(), u, fs=100.0)


class TestExactArithmetic:
    """`simulate` must give the numbers of its reference loop bit for bit: the benchmark
    records, and so every fitted model, depend on them. `multisine` sums its cosines by an
    inverse FFT, so it matches its per-bin reference loop to rounding, not bit for bit."""

    @staticmethod
    def assert_matches_reference(p, u, fs=15000.0):
        out = simulate(p, u, fs)
        ref_y, ref_v, ref_z = reference_simulate(p, u, fs)
        assert np.array_equal(out.y, ref_y)
        assert np.array_equal(out.ydot, ref_v)
        assert np.array_equal(out.z, ref_z)

    def test_desk_multisine_record(self):
        u = multisine(2000, 15000.0, 5.0, 150.0, amplitude_rms=120.0, seed=2)
        self.assert_matches_reference(desk_params(), u)

    def test_start_at_rest(self):
        # zeros first, so v1 and z1 are exactly 0 and the sign-of-zero branch runs
        t = np.arange(1500) / 15000.0
        u = np.concatenate([np.zeros(200), 80.0 * np.sin(2 * np.pi * 30.0 * t)])
        self.assert_matches_reference(desk_params(), u)

    def test_start_from_the_initial_state(self):
        u = 80.0 * np.sin(2 * np.pi * 30.0 * np.arange(1500) / 15000.0)
        p = desk_params(y0=1e-4, v0=-0.02, z0=3.0)
        out = simulate(p, u, 15000.0)
        assert (out.y[0], out.ydot[0], out.z[0]) == (1e-4, -0.02, 3.0)
        self.assert_matches_reference(p, u)

    def test_nu_two(self):
        p = desk_params(gamma=0.5, delta=0.3, nu=2.0, beta_bw=10.0)
        t = np.arange(3000) / 15000.0
        self.assert_matches_reference(p, 100.0 * np.sin(2 * np.pi * 40.0 * t))

    def test_fractional_nu(self):
        # |z|**0.5 and |z|**1.5: both powers are non-trivial, unlike at nu = 1 and nu = 2.
        # The desk coefficients make the hysteresis strong enough that a power rounded
        # differently (|z| * |z|**0.5 for |z|**1.5) changes most samples; with test_nu_two's
        # weaker hysteresis the converged Newton steps absorb it and no sample changes
        p = desk_params(nu=1.5)
        t = np.arange(3000) / 15000.0
        self.assert_matches_reference(p, 100.0 * np.sin(2 * np.pi * 40.0 * t))

    @pytest.mark.parametrize("seed", [2, 3])
    @pytest.mark.parametrize("n", [1024, 6000, 1001])
    def test_multisine_matches_reference(self, n, seed):
        # the FFT and the loop differ by at most 1e-13 of the RMS at these lengths; a
        # wrong phase sign or scale differs by the order of the RMS
        x = multisine(n, 15000.0, 5.0, 150.0, amplitude_rms=120.0, seed=seed)
        ref = reference_multisine(n, 15000.0, 5.0, 150.0, 120.0, seed)
        assert np.abs(x - ref).max() <= 1e-9 * 120.0

    def test_multisine_nyquist_bin_matches_reference(self):
        # f_max just below fs/2 still rounds up to the Nyquist bin k = n/2 = 7, which an
        # inverse real FFT counts once and by its real part only
        n, fs, f_max = 14, 15000.0, np.nextafter(7500.0, 0.0)
        assert int(np.floor(f_max / (fs / n))) == n // 2
        x = multisine(n, fs, 5000.0, f_max, amplitude_rms=1.0, seed=1)
        ref = reference_multisine(n, fs, 5000.0, f_max, 1.0, seed=1)
        assert np.abs(x - ref).max() <= 1e-9


class TestMultisine:
    def test_rms_exact(self):
        x = multisine(4096, 750.0, 5.0, 150.0, amplitude_rms=50.0, seed=0)
        assert np.sqrt(np.mean(x**2)) == pytest.approx(50.0, rel=1e-12)

    def test_band_limited_spectrum(self):
        n, fs = 4096, 750.0
        x = multisine(n, fs, 5.0, 150.0, amplitude_rms=1.0, seed=1)
        X = np.abs(np.fft.rfft(x))
        freqs = np.fft.rfftfreq(n, 1.0 / fs)
        in_band = (freqs >= 5.0) & (freqs <= 150.0)
        assert X[~in_band].max() <= 1e-8 * X[in_band].max()

    def test_periodic(self):
        x = multisine(1024, 750.0, 5.0, 150.0, amplitude_rms=1.0, seed=2)
        two = np.concatenate([x, x])
        # continuing the sum formula one period ahead reproduces the signal
        assert abs(two[1024] - x[0]) == 0.0

    def test_seed_reproducible_and_distinct(self):
        a = multisine(512, 750.0, 5.0, 150.0, 1.0, seed=3)
        b = multisine(512, 750.0, 5.0, 150.0, 1.0, seed=3)
        c = multisine(512, 750.0, 5.0, 150.0, 1.0, seed=4)
        np.testing.assert_array_equal(a, b)
        assert np.abs(a - c).max() > 1e-3

    def test_bad_band(self):
        with pytest.raises(ValueError):
            multisine(512, 750.0, 150.0, 5.0, 1.0)
        with pytest.raises(ValueError):
            multisine(512, 750.0, 5.0, 400.0, 1.0)

    @pytest.mark.parametrize("n_samples", [0, -1, -200])
    def test_no_samples_rejected(self, n_samples):
        with pytest.raises(ValueError, match=f"n_samples must be >= 1, not {n_samples}"):
            multisine(n_samples, 750.0, 5.0, 150.0, 1.0)

    @pytest.mark.parametrize("amplitude_rms", [0.0, -120.0, float("nan")])
    def test_non_positive_amplitude_rejected(self, amplitude_rms):
        # 0 would give an all-zero record and -120 a sign-flipped one
        with pytest.raises(ValueError, match=f"amplitude_rms must be > 0, not {amplitude_rms}"):
            multisine(512, 750.0, 5.0, 150.0, amplitude_rms)


class TestDecimate:
    def test_low_frequency_preserved(self):
        fs, factor = 15000.0, 20
        t = np.arange(30000) / fs
        x = np.sin(2 * np.pi * 20.0 * t)
        y = decimate(x, factor)
        ref = np.sin(2 * np.pi * 20.0 * t[::factor])
        interior = slice(50, -50)
        assert np.abs(y[interior] - ref[interior]).max() <= 1e-3

    def test_high_frequency_attenuated(self):
        fs, factor = 15000.0, 20
        t = np.arange(30000) / fs
        x = np.sin(2 * np.pi * 2000.0 * t)  # way above the 375 Hz output Nyquist
        y = decimate(x, factor)
        assert np.abs(y[50:-50]).max() <= 1e-3

    def test_zero_phase_no_delay(self):
        fs, factor = 15000.0, 10
        t = np.arange(30000) / fs
        x = np.sin(2 * np.pi * 15.0 * t)
        y = decimate(x, factor)
        ref = np.sin(2 * np.pi * 15.0 * t[::factor])
        # cross-correlation peaks at zero lag
        lags = range(-3, 4)
        scores = [np.dot(np.roll(y, L)[100:-100], ref[100:-100]) for L in lags]
        assert list(lags)[int(np.argmax(scores))] == 0

    def test_length(self):
        y = decimate(np.random.default_rng(0).normal(size=1000), 4)
        assert len(y) == 250

    def test_bad_factor_and_short_series(self):
        with pytest.raises(ValueError):
            decimate(np.zeros(100), 0)
        with pytest.raises(ValueError):
            decimate(np.zeros(10), 2)

    @pytest.mark.parametrize(
        "factor", [2.0, 2.5, np.float64(2.0), "2"], ids=["float", "fraction", "numpy-float", "str"]
    )
    def test_non_integer_factor_rejected(self, factor):
        with pytest.raises(ValueError, match="factor must be a positive integer"):
            decimate(np.zeros(100), factor)

    def test_numpy_integer_factor_accepted(self):
        x = np.random.default_rng(0).normal(size=1000)
        assert np.array_equal(decimate(x, np.int64(4)), decimate(x, 4))


class TestDecimateOracle:
    """`decimate` must give the bits of scipy's Butterworth filter-filter, which made the
    records before it: every record, and so every fitted model, depends on them. No
    command imports scipy.signal; these tests keep it as the oracle."""

    @pytest.mark.parametrize("n", [16, 1000, 23040, 84480])
    def test_matches_scipy_filtfilt(self, n):
        # 16 is the shortest series (padlen + 1); 23,040 and 84,480 are the lengths of
        # the desk validation and training records before decimation
        from scipy import signal

        x = np.random.default_rng(n).normal(scale=100.0, size=n)
        for factor in range(2, 41):
            sos = signal.butter(4, 0.8 / factor, output="sos")
            expected = signal.sosfiltfilt(sos, x)[::factor]
            assert np.array_equal(decimate(x, factor), expected), factor

    def test_design_matches_scipy(self):
        from scipy import signal

        for factor in range(2, 201):
            sos = boucwen._butter4_sos(0.8 / factor)
            assert np.array_equal(sos, signal.butter(4, 0.8 / factor, output="sos")), factor
            assert np.array_equal(boucwen._sosfilt_zi(sos), signal.sosfilt_zi(sos)), factor

    def test_record_matches_scipy_pipeline(self, monkeypatch):
        from scipy import signal

        def scipy_decimate(x, factor):
            return signal.sosfiltfilt(signal.butter(4, 0.8 / factor, output="sos"), x)[::factor]

        record = boucwen.record(desk_params(), 120.0, 256, 2)
        monkeypatch.setattr(boucwen, "decimate", scipy_decimate)
        expected = boucwen.record(desk_params(), 120.0, 256, 2)
        assert np.array_equal(record.u, expected.u)
        assert np.array_equal(record.y, expected.y)
