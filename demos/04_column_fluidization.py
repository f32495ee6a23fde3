"""Pore-pressure diffusion in a static column.

A 1D bed of grains at rest with a cosine pore-pressure disturbance: the
finite-volume stepper conserves the discrete gas content exactly, the
disturbance decays at the analytic rate c (pi/L)^2, and the gas energy
E1 = sum (1-phi) (p_atm + p_f)[ln(1 + p_f/p_atm) - 1] dz decreases
monotonically with the dissipation sum kappa |dp_f/dz|^2 closing the
budget to first order in dt.
"""

import math

import numpy as np

from granupore import (
    GasParams,
    column_cfl_dt,
    energy_ledger,
    gas_content,
    glass_beads,
    pore_diffusivity,
    run_column,
    uniform_column,
)

mat = glass_beads()
gas = GasParams()
L, n_cells, phi = 0.1, 200, 0.6

c = pore_diffusivity(phi, gas, mat.d)
lam = c * (math.pi / L) ** 2
print(f"column: L = {L} m, {n_cells} cells, phi = {phi}, d = {mat.d * 1e6:.0f} um")
print(f"pore diffusivity c = {c:.5f} m^2/s -> first-mode rate c(pi/L)^2 = {lam:.2f} 1/s")
print()

state = uniform_column(
    n_cells, L, phi, lambda z: 200.0 + 100.0 * np.cos(np.pi * z / L)
)
dt = column_cfl_dt(state, gas, mat)
steps = int(round(1.0 / (lam * dt)))
print(f"explicit step bound dt = {dt:.3e} s; running {steps} steps (one e-fold)")
res = run_column(state, gas, mat, dt, steps, record_every=steps // 4)

def amplitude(s):
    centred = s.pf_profile - np.mean(s.pf_profile)
    return float(np.sum(centred * np.cos(np.pi * s.z / L)) * s.dz)

print()
print(f"{'t [ms]':>8} {'mode amplitude [Pa]':>20} {'gas content':>14} {'E1 [J/m^2]':>14}")
for s in res.history:
    print(
        f"{s.t * 1e3:>8.3f} {amplitude(s):>20.4f} {gas_content(s):>14.8f} "
        f"{res.energy[np.searchsorted(res.t, s.t)]:>14.6f}"
    )

rate = math.log(amplitude(res.history[0]) / amplitude(res.history[-1])) / res.history[-1].t
print()
print(f"measured decay rate: {rate:.3f} 1/s  (analytic {lam:.3f}, "
      f"off by {abs(rate - lam) / lam:.2%})")
print(f"gas content drift per step: {res.max_step_content_drift:.2e} (relative)")
print(f"energy monotone non-increasing: {res.non_increasing}")

ledger = energy_ledger(res.history, gas, mat)
print(f"budget residual |dE1/dt + D| across recordings: {ledger.max_residual:.3e}")
print()
print("halving dt halves the budget residual (first order in time):")
state0 = uniform_column(50, L, phi, lambda z: 100.0 * np.cos(np.pi * z / L))
dt0 = column_cfl_dt(state0, gas, mat)
led1 = run_column(state0, gas, mat, dt0, 400)  # each run carries its per-step ledger
led2 = run_column(state0, gas, mat, dt0 / 2, 800)
print(f"  residual(dt)   = {led1.residuals[200]:.4e}")
print(f"  residual(dt/2) = {led2.residuals[400]:.4e}")
print(f"  ratio          = {led1.residuals[200] / led2.residuals[400]:.3f}")
