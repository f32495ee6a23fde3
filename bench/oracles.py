"""Independent references for the box and column outputs.

The box and column inputs change with the benchmark seed, so their outputs
cannot be pinned in a file.  They are checked against these re-derivations,
which share no code with granupore: the four flagship dilatancy laws
written out from their closed forms (linear equilibrium law), the same
classical RK4 with forcing re-read at every stage time, and the exact decay
of a cosine mode under the finite-volume column scheme.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np


def flagship_dilatancy(kind: str, mat):
    """f(phi, I) of a flagship model under the linear equilibrium law."""
    mu1, mu2, i0 = mat.mu1, mat.mu2, mat.I0
    sin_d, cos_d = math.sin(mat.delta), math.cos(mat.delta)
    beta = 2.0 * (1.0 - cos_d) / (2.0 + cos_d)

    def i_eq(phi):
        if phi > mat.phi_max:
            raise ValueError(f"phi={phi} above phi_max")
        return (mat.phi_max - phi) / mat.delta_phi

    def shear_factor(i):
        x = i / i0
        return mu2 + 0.5 * (mu2 - mu1) * (1.0 / (1.0 + x) - 3.0 * math.log1p(x) / x)

    def angle_primitive(i):
        x = i / i0
        return (2.0 * mu1 / 3.0) * math.log(x) + (mu2 - mu1) / 3.0 * (
            1.0 / (1.0 + x) + 2.0 * math.log1p(x)
        )

    def dp(phi, i):
        return sin_d * (1.0 - i_eq(phi) / i)

    def mui(phi, i):
        ieq = i_eq(phi)
        f = shear_factor(i)
        return f - ieq / i * shear_factor(ieq) if ieq > 0.0 else f

    def dp_psi(phi, i):
        return sin_d / (1.0 - cos_d) * (1.0 - (i_eq(phi) / i) ** beta)

    def mui_psi(phi, i):
        return angle_primitive(i) - angle_primitive(i_eq(phi))

    return {"dp": dp, "mui": mui, "dp-psi": dp_psi, "mui-psi": mui_psi}[kind]


def box_trajectory(kind, mat, edges, shears, ps, phi0, t_end, dt, record_every,
                   pf0=None, p_atm=None):
    """phi and p_f of the box every ``record_every`` steps (and at the end)
    under piecewise-constant forcing."""
    f = flagship_dilatancy(kind, mat)
    last = len(shears) - 1

    def rates(t, phi, pf):
        k = min(max(bisect_right(edges, t) - 1, 0), last)
        shear, p = shears[k], ps[k]
        divu = 0.0
        if shear != 0.0:
            divu = 2.0 * shear * f(phi, mat.d * shear / math.sqrt(p / mat.rho_s))
        dpf = 0.0 if pf is None else -(p_atm + pf) * divu / (1.0 - phi)
        return -phi * divu, dpf

    def shifted(pf, k, h):
        return None if pf is None else pf + h * k

    n_steps = int(round(t_end / dt))
    t, phi, pf = 0.0, phi0, pf0
    phis, pfs = [phi], [pf]
    for step in range(1, n_steps + 1):
        k1 = rates(t, phi, pf)
        k2 = rates(t + 0.5 * dt, phi + 0.5 * dt * k1[0], shifted(pf, k1[1], 0.5 * dt))
        k3 = rates(t + 0.5 * dt, phi + 0.5 * dt * k2[0], shifted(pf, k2[1], 0.5 * dt))
        k4 = rates(t + dt, phi + dt * k3[0], shifted(pf, k3[1], dt))
        phi = phi + dt / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        if pf is not None:
            pf = pf + dt / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        t = t + dt
        if step % record_every == 0 or step == n_steps:
            phis.append(phi)
            pfs.append(pf)
    return phis, pfs


def column_final(n_cells, length, phi, mean, amplitude, mat, gas, dt, n_steps, mode):
    """Exact discrete solution for p_f = mean + amplitude cos(pi z / L).

    On a uniform column the cosine is an eigenvector of the zero-flux
    finite-volume Laplacian with eigenvalue -4 sin^2(pi/(2n)) / dz^2, so
    each explicit step multiplies its amplitude by 1 - r lam and each
    backward-Euler step by 1 / (1 + r lam); the mean is conserved.
    """
    dz = length / n_cells
    z = (np.arange(n_cells) + 0.5) * dz
    kappa = mat.d * mat.d * (1.0 - phi) ** 3 / (150.0 * gas.eta_f * phi * phi)
    r_lam = dt * gas.p_atm * kappa / ((1.0 - phi) * dz * dz) * 4.0 * math.sin(
        math.pi / (2.0 * n_cells)
    ) ** 2
    gain = 1.0 - r_lam if mode == "explicit" else 1.0 / (1.0 + r_lam)
    return mean + amplitude * gain**n_steps * np.cos(np.pi * z / length)
