"""Gas state laws, drag and permeability closures, and the energy function H.

The interstitial gas enters the mixture model through three pieces:

* a drag coefficient ``beta(phi) = 150 eta_f phi^2 / (d^2 (1 - phi))`` and
  the matching Carman-Kozeny permeability ``kappa(phi) = (1-phi)^2 / beta``,
* a Darcy closure expressing the gas velocity from the solid velocity and
  the pore-pressure gradient,
* a state law ``p_f = Q(rho_f)`` whose associated energy density H solves
  ``x H'(x) - H(x) = Q(x)``; H is what makes the pore-pressure equation
  dissipative, via  d/dt int (1-phi) H + int kappa |grad p_f|^2 <= 0.

For an ideal gas, ``rho_f = rho_f0 (1 + p_f / p_atm)`` and H has the closed
form ``(p_atm + p_f) [ln(1 + p_f/p_atm) - 1]``.  For a general differentiable
Q the solution is

    H(x) = x * int_{c1}^{x} Q(z) / z^2 dz,

computed here by adaptive quadrature.  The lower limit c1 is a pure gauge:
moving it adds a multiple of rho_f to H, which the mass budget annihilates,
so it has no effect on the energy balance.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .materials import GasParams

if TYPE_CHECKING:
    from scipy.interpolate import CubicSpline

__all__ = [
    "IdealGasLaw",
    "CustomStateLaw",
    "EnthalpyH",
    "drag_beta",
    "permeability_kappa",
    "darcy_fluid_velocity",
    "pf_from_rho",
    "rho_from_pf",
    "enthalpy_ideal",
    "enthalpy_from_statelaw",
    "state_law_from_csv",
]


@dataclass(frozen=True)
class IdealGasLaw:
    """Affine state law Q(rho) = p_atm (rho / rho_f0 - 1)."""

    gas: GasParams = GasParams()

    def Q(self, rho: float) -> float:
        return self.gas.p_atm * (rho / self.gas.rho_f0 - 1.0)

    def Q_prime(self, rho: float) -> float:
        return self.gas.p_atm / self.gas.rho_f0


@dataclass(frozen=True)
class CustomStateLaw:
    """User-supplied differentiable state law p_f = Q(rho_f).

    Args:
        Q: State law, callable on [rho_min, rho_max].
        Q_prime: Its derivative.  When omitted, a central difference with
            relative step 1e-6 is used.
        rho_min: Lower end of the admissible density range.
        rho_max: Upper end of the admissible density range.
    """

    Q: Callable[[float], float]
    Q_prime: Callable[[float], float] | None = None
    rho_min: float = 1.0e-6
    rho_max: float = 1.0e6

    def q_prime(self, rho: float) -> float:
        if self.Q_prime is not None:
            return self.Q_prime(rho)
        h = 1.0e-6 * max(abs(rho), 1.0e-6)
        return (self.Q(rho + h) - self.Q(rho - h)) / (2.0 * h)


StateLaw = IdealGasLaw | CustomStateLaw


@dataclass(frozen=True)
class EnthalpyH:
    """Sampled energy density H(rho_f) with its integration gauge c1.

    The samples come from quadrature of Q(z)/z^2 (see
    :func:`enthalpy_from_statelaw`); between samples a cubic spline
    interpolates, so derivative checks with steps down to ~1e-5 x stay
    accurate on a reasonably dense grid.
    """

    x_grid: np.ndarray
    values: np.ndarray
    c1: float
    _spline: CubicSpline = field(repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        from scipy.interpolate import CubicSpline

        object.__setattr__(self, "_spline", CubicSpline(self.x_grid, self.values))

    def __call__(self, x):
        return self._spline(x)


def _first_bad(values, ok) -> str:
    """``values`` if it is a scalar, else its first element where ``ok`` is
    False and that element's index."""
    if np.ndim(values) == 0:
        return f"{values}"
    k = int(np.argmin(ok))
    return f"{np.ravel(values)[k]} at index {k}"


def drag_beta(gas: GasParams, d: float, phi: float) -> float:
    """Interphase drag coefficient beta(phi) = 150 eta_f phi^2 / (d^2 (1-phi)).

    Raises:
        ValueError: If phi is outside [0, 1) (beta diverges at close packing
            of the pore space, phi -> 1).
    """
    if not 0.0 <= phi < 1.0:
        raise ValueError(f"drag coefficient requires 0 <= phi < 1, got {phi}")
    return 150.0 * gas.eta_f * phi * phi / (d * d * (1.0 - phi))


def permeability_kappa(gas: GasParams, d: float, phi):
    """Carman-Kozeny mobility kappa(phi) = d^2 (1-phi)^3 / (150 eta_f phi^2).

    Satisfies kappa * beta = (1 - phi)^2 identically, for float or array phi.

    Raises:
        ValueError: If any phi <= 0 (kappa unbounded), >= 1 or NaN.
    """
    ok = (0.0 < phi) & (phi < 1.0)
    if not np.all(ok):
        raise ValueError(f"permeability requires 0 < phi < 1, got {_first_bad(phi, ok)}")
    one_m = 1.0 - phi
    return d * d * one_m**3 / (150.0 * gas.eta_f * phi * phi)


def darcy_fluid_velocity(u, grad_pf, phi: float, gas: GasParams, d: float):
    """Gas velocity from the Darcy closure, u_f = u - (1-phi) grad(p_f) / beta.

    Args:
        u: Solid velocity, scalar or array-like (m/s).
        grad_pf: Pore-pressure gradient, same shape as u (Pa/m).
        phi: Solid volume fraction in (0, 1).
        gas: Gas parameters.
        d: Grain diameter (m).

    Returns:
        Gas velocity with the shape of ``u``.
    """
    if not 0.0 < phi < 1.0:
        raise ValueError(f"Darcy closure requires 0 < phi < 1, got {phi}")
    beta = drag_beta(gas, d, phi)
    return np.asarray(u, dtype=float) - (1.0 - phi) * np.asarray(grad_pf, dtype=float) / beta


def pf_from_rho(law: StateLaw, rho_f: float) -> float:
    """Pore pressure from density through the state law."""
    if rho_f <= 0:
        raise ValueError(f"gas density must be positive, got {rho_f}")
    if isinstance(law, CustomStateLaw) and not law.rho_min <= rho_f <= law.rho_max:
        raise ValueError(
            f"rho_f={rho_f} outside the tabulated range [{law.rho_min}, {law.rho_max}]"
        )
    return law.Q(rho_f)


def rho_from_pf(law: StateLaw, p_f: float) -> float:
    """Density from pore pressure, the inverse of :func:`pf_from_rho`.

    The ideal-gas law inverts in closed form; custom laws are inverted by
    root bracketing over their admissible density range (Q is assumed
    monotone there).
    """
    if isinstance(law, IdealGasLaw):
        if p_f <= -law.gas.p_atm:
            raise ValueError(f"p_f must exceed -p_atm = {-law.gas.p_atm}, got {p_f}")
        return law.gas.rho_f0 * (1.0 + p_f / law.gas.p_atm)
    from scipy.optimize import brentq

    g = lambda rho: law.Q(rho) - p_f
    lo, hi = law.rho_min, law.rho_max
    g_lo, g_hi = g(lo), g(hi)
    if g_lo * g_hi > 0.0:
        raise ValueError(
            f"p_f={p_f} not bracketed by Q on [{lo}, {hi}]; cannot invert state law"
        )
    return float(brentq(g, lo, hi, xtol=1e-15, rtol=8.9e-16))


def enthalpy_ideal(gas: GasParams, p_f):
    """Closed-form energy density for an ideal gas,
    H = (p_atm + p_f) [ln(1 + p_f / p_atm) - 1].

    H(0) = -p_atm exactly and H is convex in p_f, a float or an array.

    Raises:
        ValueError: If any p_f <= -p_atm (log branch point) or NaN.
    """
    ok = p_f > -gas.p_atm
    if not np.all(ok):
        raise ValueError(f"p_f must exceed -p_atm = {-gas.p_atm}, got {_first_bad(p_f, ok)}")
    return (gas.p_atm + p_f) * (np.log1p(p_f / gas.p_atm) - 1.0)


def enthalpy_from_statelaw(
    law: StateLaw,
    x_grid: Sequence[float],
    c1: float | None = None,
) -> EnthalpyH:
    """Build H from a state law by quadrature of H(x) = x int_{c1}^x Q/z^2 dz.

    The integral is accumulated piecewise between consecutive sample points
    with adaptive Gauss-Kronrod quadrature (relative tolerance 1e-10); the
    integrand is smooth away from z = 0 and the grid must stay positive.
    c1 defaults to the reference density (ideal gas) or the lower end of
    the grid: it is a gauge without energy effect, but fixing it keeps
    outputs reproducible.

    Raises:
        ValueError: On a non-positive grid or c1.
        RuntimeError: If the quadrature fails to converge on a panel.
    """
    xs = np.asarray(sorted(x_grid), dtype=float)
    if xs.size < 2:
        raise ValueError("need at least two density samples")
    if xs[0] <= 0.0:
        raise ValueError(f"density samples must be positive, got min {xs[0]}")
    if c1 is None:
        c1 = law.gas.rho_f0 if isinstance(law, IdealGasLaw) else float(xs[0])
    if c1 <= 0.0:
        raise ValueError(f"c1 must be positive, got {c1}")

    from scipy.integrate import quad

    integrand = lambda z: law.Q(z) / (z * z)
    nodes = np.unique(np.concatenate([xs, [c1]]))
    panel = np.zeros(nodes.size)  # panel[k] = integral from nodes[k-1] to nodes[k]
    for k in range(1, nodes.size):
        val, err = quad(
            integrand, nodes[k - 1], nodes[k], epsabs=0.0, epsrel=1e-10, limit=200
        )
        if err > 1e-8 * max(abs(val), 1.0):
            raise RuntimeError(
                f"quadrature did not converge on [{nodes[k-1]}, {nodes[k]}]: "
                f"value {val}, error estimate {err}"
            )
        panel[k] = val
    cumulative = np.cumsum(panel)  # integral from nodes[0] to nodes[k]
    at_c1 = cumulative[np.searchsorted(nodes, c1)]
    lookup = {x: cumulative[k] - at_c1 for k, x in enumerate(nodes)}
    values = np.array([x * lookup[x] for x in xs])
    return EnthalpyH(x_grid=xs, values=values, c1=float(c1))


def state_law_from_csv(path) -> CustomStateLaw:
    """Load a tabulated state law from a two-column CSV with header ``rho,Q``.

    The table is interpolated with a monotone cubic (PCHIP), which cannot
    overshoot between samples; the admissible density range is the table's.
    """
    rhos: list[float] = []
    qs: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:2]] != ["rho", "q"]:
            raise ValueError(f"{path}: expected header 'rho,Q', got {header}")
        for row in reader:
            if not row or not row[0].strip():
                continue
            rhos.append(float(row[0]))
            qs.append(float(row[1]))
    if len(rhos) < 4:
        raise ValueError(f"{path}: need at least 4 samples for cubic interpolation")
    order = np.argsort(rhos)
    r = np.asarray(rhos)[order]
    q = np.asarray(qs)[order]
    if r[0] <= 0:
        raise ValueError(f"{path}: densities must be positive")
    from scipy.interpolate import PchipInterpolator

    pchip = PchipInterpolator(r, q)
    dpchip = pchip.derivative()
    return CustomStateLaw(
        Q=lambda rho: float(pchip(rho)),
        Q_prime=lambda rho: float(dpchip(rho)),
        rho_min=float(r[0]),
        rho_max=float(r[-1]),
    )
