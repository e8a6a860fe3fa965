"""The Newmark loop of `boucwen.simulate`, on the standard library alone.

`integrate` is the one loop: `boucwen.simulate` runs it in-process, and this file,
run as a script by a Python started with `-I -S -B`, runs it in a worker process.
The worker imports nothing outside the standard library, so it starts in tens of
milliseconds. It reads one request from stdin: the doubles of `request(params, fs)`
followed by the excitation u, all in native byte order. It writes back y, as doubles,
and exits 0; or writes the `IntegrationError` message and exits
EXIT_INTEGRATION_ERROR. Any other failure is Python's: a traceback on stderr and a
nonzero exit.
"""

from __future__ import annotations

import math
import sys
from array import array

BLOWUP_BOUND = 1e3  # meters; far beyond any sane desk-scale displacement
NEWTON_TOL = 1e-10  # relative size of the last Newton update that ends a step
NEWTON_MAX_ITER = 50
# the coefficients and the initial state: the fields of `boucwen.BoucWenParams`, in order
N_PARAMS = 11
EXIT_INTEGRATION_ERROR = 3


class IntegrationError(RuntimeError):
    pass


def integrate(params, u, fs: float) -> tuple[array, array, array]:
    """y, ydot and z of the oscillator driven by the floats `u`, sampled at `fs`.

    `params` holds the N_PARAMS floats m_L, k_L, c_L, alpha, beta_bw, gamma, delta,
    nu, y0, v0, z0; `u` is any non-empty sequence of floats, such as a memoryview of a
    float64 array. `boucwen.simulate` documents the method, checks the inputs and
    names the IntegrationError cases."""
    m_L, k_L, c_L, alpha, beta_bw, gamma, delta, nu, y0, v0, z0 = params
    h = 1.0 / fs
    gn, bn = 0.5, 0.25  # Newmark gamma, beta
    nu1 = nu - 1.0
    neg_beta_nu = -beta_bw * nu
    half_h = 0.5 * h
    neg_half_h = -half_h
    hh = h * h
    c_y, c_v = 0.5 - bn, 1.0 - gn
    J11 = m_L + c_L * gn * h + k_L * bn * h * h
    # J12 = 1, so the products with it are left out of det, da and dz
    tol = NEWTON_TOL
    iterations = range(NEWTON_MAX_ITER)
    isfinite = math.isfinite

    L = len(u)
    Y = array("d", bytes(8 * L))
    V = array("d", Y)
    Z = array("d", Y)
    y, v, z = float(y0), float(v0), float(z0)
    a = (u[0] - c_L * v - k_L * y - z) / m_L
    Y[0], V[0], Z[0] = y, v, z
    for t in range(1, L):
        ut = u[t]
        y_pred = y + h * v
        a_y = c_y * a
        a_v = c_v * a
        a1, z1 = a, z
        try:
            # the hysteresis law of BoucWenParams at the start of the step
            az = abs(z)
            zd0 = alpha * v - beta_bw * (gamma * abs(v) * az**nu1 * z + delta * v * az**nu)
            for _ in iterations:
                y1 = y_pred + hh * (a_y + bn * a1)
                v1 = v + h * (a_v + gn * a1)
                az = abs(z1)
                p1 = az**nu1
                pn = az**nu
                av1 = abs(v1)
                zd1 = alpha * v1 - beta_bw * (gamma * av1 * p1 * z1 + delta * v1 * pn)
                R1 = m_L * a1 + c_L * v1 + k_L * y1 + z1 - ut
                R2 = z1 - z - half_h * (zd0 + zd1)
                sign_v = 1.0 if v1 > 0 else -1.0 if v1 < 0 else 0.0
                sign_z = 1.0 if z1 > 0 else -1.0 if z1 < 0 else 0.0
                dzd_dv = alpha - beta_bw * (gamma * sign_v * p1 * z1 + delta * pn)
                dzd_dz = neg_beta_nu * p1 * (gamma * av1 + delta * v1 * sign_z)
                J21 = neg_half_h * dzd_dv * gn * h
                J22 = 1.0 - half_h * dzd_dz
                det = J11 * J22 - J21
                if det == 0.0 or not isfinite(det):
                    raise IntegrationError(f"singular Newton system at step {t}")
                da = (-R1 * J22 + R2) / det
                dz = (-J11 * R2 + J21 * R1) / det
                a1 += da
                z1 += dz
                if abs(da) + abs(dz) <= tol * (1.0 + abs(a1) + abs(z1)):
                    break
            else:
                raise IntegrationError(f"Newton iteration did not converge at step {t}")
        except OverflowError:
            # a float power that overflows raises instead of returning inf
            raise IntegrationError(f"power overflowed at step {t}") from None
        y = y_pred + hh * (a_y + bn * a1)
        v = v + h * (a_v + gn * a1)
        a, z = a1, z1
        if not isfinite(y) or abs(y) > BLOWUP_BOUND:
            raise IntegrationError(f"simulation diverged at step {t}")
        Y[t] = y
        V[t] = v
        Z[t] = z
    return Y, V, Z


def request(params, fs: float) -> array:
    """The head of a worker's stdin: the N_PARAMS floats of `params`, then `fs`."""
    head = array("d", params)
    head.append(fs)
    return head


def main() -> int:
    data = array("d")
    data.frombytes(sys.stdin.buffer.read())
    try:
        y, _, _ = integrate(data[:N_PARAMS], memoryview(data)[N_PARAMS + 1 :], data[N_PARAMS])
    except IntegrationError as exc:
        sys.stdout.write(str(exc))
        return EXIT_INTEGRATION_ERROR
    sys.stdout.buffer.write(y)
    return 0


if __name__ == "__main__":
    sys.exit(main())
