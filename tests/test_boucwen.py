import numpy as np
import pytest
from scipy.integrate import solve_ivp

from urelunet.boucwen import (
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


class TestParams:
    def test_from_dict_round_trip(self):
        p = BoucWenParams.from_dict(DESK)
        assert p == desk_params()

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
        p, init = load_params(path)
        assert p == desk_params()
        assert init == {"y0": 1e-4, "v0": 0.0, "z0": 2.0}


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

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            simulate(desk_params(), np.zeros(10), fs=0.0)
        with pytest.raises(ValueError):
            simulate(desk_params(), np.array([1.0, np.nan]), fs=100.0)


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
