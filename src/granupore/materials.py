"""Material parameters, equilibrium packing laws and dimensionless numbers.

Everything downstream (constitutive laws, condition checks, simulators)
builds on the quantities defined here:

* the inertial number ``I = d|S| / sqrt(p / rho_s)`` characterising the
  flow regime of a dry granular medium,
* the viscous number ``J = eta_f |S| / p`` used for fluid-immersed flows
  at low Stokes number,
* empirical equilibrium laws ``phi_eq(I)`` relating packing fraction and
  inertial number at steady isochoric shearing, together with their
  inverses ``i_eq(phi)``,
* the geometry linking a dilatancy angle ``psi`` to the velocity-field
  divergence, ``div u = 2 |S| sin(psi)`` in planar shear.

All quantities are SI; angles are radians internally (configuration files
may use an explicit ``deg`` suffix, see :mod:`granupore.config`).
"""

from __future__ import annotations

import functools
import math
import operator
import types
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "MaterialParams",
    "GasParams",
    "EquilibriumLaw",
    "FlowState",
    "glass_beads",
    "air",
    "inertial_number",
    "viscous_number",
    "phi_eq",
    "phi_eq_prime",
    "i_eq",
    "div_u_from_angle",
    "angle_from_div_u",
]

#: Upper bracket for the numeric inversion of non-linear equilibrium laws.
I_CAP = 1.0e3

#: Residual tolerance for the numeric inversion (|phi_eq(I) - phi|).
I_EQ_TOL = 1.0e-12


def _check_count(name: str, value, least: int) -> None:
    """Reject a count that is not an integer (numpy integers pass) or is
    below ``least``; the package's only ``operator.index``."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


def _check_all(rule: str, values, ok=None) -> None:
    """Reject ``values`` unless ``ok`` (default: finite, NaN failing) holds at
    each element, as ``{rule}, got {value}``, plus `` at index {i}`` for an
    array's first bad element (``i`` a tuple for a stack); in the modules that
    check inputs, the only finiteness test that NaN fails."""
    ok = np.isfinite(values) if ok is None else ok
    if np.all(ok):
        return
    if np.ndim(values) == 0:
        raise ValueError(f"{rule}, got {values}")
    k = int(np.argmin(ok))
    index = tuple(int(i) for i in np.unravel_index(k, np.shape(values)))
    where = index[0] if len(index) == 1 else index
    raise ValueError(f"{rule}, got {np.ravel(values)[k]} at index {where}")


def _check_amounts(name: str, values: np.ndarray, zero_ok: bool = False) -> None:
    """:func:`_check_amount` for an array: every element's sign (NaN failing),
    then every element's finiteness, naming the first bad element."""
    sign = "non-negative" if zero_ok else "positive"
    _check_all(f"{name} must be {sign}", values, values >= 0 if zero_ok else values > 0)
    _check_all(f"{name} must be finite", values)


def _check_finite(name: str, value: float) -> None:
    """Reject an infinite scalar; the package's only ``math.isinf``.

    NaN passes: every caller checks a range that NaN fails, before this
    call or after it.  Where none follows (the power-law and Roux-Radjai
    constants, forcing jumps), :func:`_check_all` rejects NaN as well.
    """
    if math.isinf(value):
        raise ValueError(f"{name} must be finite, got {value}")


def _check_amount(name: str, value: float, zero_ok: bool = False) -> None:
    """Reject a scalar that is not positive (non-negative with ``zero_ok``),
    NaN included, or that is infinite."""
    if not (value >= 0 if zero_ok else value > 0):
        sign = "non-negative" if zero_ok else "positive"
        raise ValueError(f"{name} must be {sign}, got {value}")
    _check_finite(name, value)


def _reject_infinite(params, names: tuple[str, ...]) -> None:
    """Name the first infinite field of ``params``; NaN is left to the
    range checks that follow."""
    for name in names:
        _check_finite(name, getattr(params, name))


@dataclass(frozen=True)
class MaterialParams:
    """Physical parameters of the solid (granular) phase.

    Args:
        rho_s: Solid density (kg/m3).
        d: Grain diameter (m).
        phi_max: Maximum packing fraction.
        delta_phi: Slope of the linear equilibrium law phi_eq(I).
        delta: Internal friction angle (rad), sine convention.
        mu1: Low-I friction bound of the mu(I) law.
        mu2: High-I friction bound of the mu(I) law.
        I0: Inertial scale of the mu(I) law.  Kept constant here; some
            measurements suggest a phi dependence, which would slot in as
            a callable replacing this scalar.
    """

    rho_s: float = 2500.0
    d: float = 1.0e-4
    phi_max: float = 0.6
    delta_phi: float = 0.2
    delta: float = math.radians(30.0)
    mu1: float = math.tan(math.radians(21.0))
    mu2: float = math.tan(math.radians(33.0))
    I0: float = 0.3

    def __post_init__(self) -> None:
        _reject_infinite(self, ("rho_s", "d", "delta_phi", "mu1", "mu2", "I0"))
        _check_amount("rho_s", self.rho_s)
        _check_amount("d", self.d)
        _check_all("phi_max must lie in (0, 1)", self.phi_max, 0.0 < self.phi_max < 1.0)
        _check_amount("delta_phi", self.delta_phi)
        _check_all("delta must lie in (0, pi/2)", self.delta, 0.0 < self.delta < math.pi / 2)
        if not 0.0 < self.mu1 < self.mu2:
            raise ValueError(f"need 0 < mu1 < mu2, got mu1={self.mu1}, mu2={self.mu2}")
        _check_amount("I0", self.I0)


@dataclass(frozen=True)
class GasParams:
    """Physical parameters of the interstitial gas.

    Args:
        eta_f: Gas dynamic viscosity (Pa s).
        p_atm: Atmospheric pressure (Pa).
        rho_f0: Gas density at atmospheric pressure (kg/m3).
    """

    eta_f: float = 1.8e-5
    p_atm: float = 1.013e5
    rho_f0: float = 1.0

    def __post_init__(self) -> None:
        _reject_infinite(self, ("eta_f", "p_atm", "rho_f0"))
        for name in ("eta_f", "p_atm", "rho_f0"):
            _check_amount(name, getattr(self, name))


@dataclass(frozen=True)
class EquilibriumLaw:
    """Empirical law phi_eq(I) for the isochoric steady state.

    Variants:
        ``linear``: phi_max - delta_phi * I (may go negative at large I;
            the mass-conservation dynamics keeps phi bounded regardless,
            so no clamping is applied inside the law).
        ``schaeffer``: phi_max - delta_phi / (1 + 1/I).
        ``robinson``: phi_max - A * I**a.
        ``breard``: phi_max / (1 + I).

    The packing constants ``phi_max`` and ``delta_phi`` come from the
    :class:`MaterialParams` passed to :func:`phi_eq` / :func:`i_eq`; only
    the Robinson exponent pair lives here.
    """

    variant: str = "linear"
    A: float = 0.1305
    a: float = 0.8156

    _VARIANTS = ("linear", "schaeffer", "robinson", "breard")

    def __post_init__(self) -> None:
        if self.variant not in self._VARIANTS:
            raise ValueError(
                f"unknown equilibrium law {self.variant!r}; expected one of {self._VARIANTS}"
            )
        if self.variant == "robinson":
            _reject_infinite(self, ("A", "a"))
            if not (self.A > 0 and self.a > 0):
                raise ValueError("robinson law needs positive A and a")


@dataclass(frozen=True)
class FlowState:
    """Local flow state at which laws and conditions are evaluated.

    Args:
        phi: Solid volume fraction.
        p: Solid (granular) pressure (Pa).
        shear: Second-invariant norm |S| of the deviatoric strain rate (1/s).

    Raises:
        ValueError: If phi lies outside [0, 1], or p or the shear is
            negative, NaN or infinite.
    """

    phi: float
    p: float
    shear: float

    def __post_init__(self) -> None:
        _check_all("phi must lie in [0, 1]", self.phi, 0.0 <= self.phi <= 1.0)
        _check_amount("p", self.p, zero_ok=True)
        _check_amount("shear", self.shear, zero_ok=True)


def glass_beads(**overrides) -> MaterialParams:
    """Default mono-dispersed glass-bead parameters.

    mu1 = tan 21deg, mu2 = tan 33deg, I0 = 0.3, phi_max = 0.6,
    delta_phi = 0.2, delta = 30deg, rho_s = 2500 kg/m3, d = 100 um.
    """
    return MaterialParams(**overrides)


def air(**overrides) -> GasParams:
    """Default air parameters (eta_f = 1.8e-5 Pa s, p_atm = 1.013e5 Pa)."""
    return GasParams(**overrides)


def inertial_number(mat: MaterialParams, shear: float, p: float) -> float:
    """Inertial number I = d * shear / sqrt(p / rho_s).

    Args:
        mat: Material parameters (grain diameter and solid density).
        shear: Strain-rate norm |S| (1/s), non-negative.
        p: Solid pressure (Pa), strictly positive.

    Raises:
        ValueError: If p <= 0 (I is singular at vanishing pressure; callers
            that need a regularisation must apply their own pressure floor),
            p is infinite, or the shear is negative or infinite, or either
            is NaN; p is checked first.
    """
    if not p > 0:
        raise ValueError(f"inertial number undefined for p <= 0, got p={p}")
    _check_finite("p", p)
    _check_amount("shear", shear, zero_ok=True)
    return mat.d * shear / math.sqrt(p / mat.rho_s)


def viscous_number(gas: GasParams, shear: float, p: float) -> float:
    """Viscous number J = eta_f * shear / p for low-Stokes suspensions.

    Raises:
        ValueError: As :func:`inertial_number`.
    """
    if not p > 0:
        raise ValueError(f"viscous number undefined for p <= 0, got p={p}")
    _check_finite("p", p)
    _check_amount("shear", shear, zero_ok=True)
    return gas.eta_f * shear / p


def phi_eq(law: EquilibriumLaw, mat: MaterialParams, I: float) -> float:
    """Equilibrium packing fraction phi_eq(I) for the chosen law variant.

    Raises:
        ValueError: If I < 0 or is NaN.
    """
    if not I >= 0:
        raise ValueError(f"equilibrium law undefined for I < 0, got {I}")
    if law.variant == "linear":
        return mat.phi_max - mat.delta_phi * I
    if law.variant == "schaeffer":
        # I/(1+I) form avoids the 1/I singularity at I=0 and gives the
        # correct limit phi_max.
        return mat.phi_max - mat.delta_phi * I / (1.0 + I)
    if law.variant == "robinson":
        return mat.phi_max - law.A * I**law.a
    return mat.phi_max / (1.0 + I)  # breard


def phi_eq_prime(law: EquilibriumLaw, mat: MaterialParams, I: float) -> float:
    """Slope d(phi_eq)/dI of the equilibrium law, in closed form.

    Raises:
        ValueError: If I < 0 or is NaN.
    """
    if not I >= 0:
        raise ValueError(f"equilibrium law undefined for I < 0, got {I}")
    if law.variant == "linear":
        return -mat.delta_phi
    if law.variant == "schaeffer":
        return -mat.delta_phi / (1.0 + I) ** 2
    if law.variant == "robinson":
        return -law.A * law.a * I ** (law.a - 1.0)
    return -mat.phi_max / (1.0 + I) ** 2  # breard


def i_eq(law: EquilibriumLaw, mat: MaterialParams, phi: float) -> float:
    """Equilibrium inertial number, the inverse of :func:`phi_eq`.

    The linear law inverts in closed form, i_eq = (phi_max - phi)/delta_phi.
    Non-linear variants are inverted by bisection on [0, I_CAP]; bisection
    is slower than Newton but cannot diverge on these monotone laws.  Its
    results are memoised per ``(law, mat, phi)``, so a sweep that holds phi
    fixed bisects once per phi; errors are raised before the memo and are
    never cached.  :func:`_i_eq_at` binds the same inverse to one law and
    material.

    Raises:
        ValueError: If phi > phi_max (no non-negative equilibrium I exists)
            or is NaN, or phi lies below the law's range.
    """
    if law.variant == "linear":
        return _linear_i_eq(phi, mat.phi_max, mat.delta_phi)
    return _bisected_i_eq(phi, law, mat)


def _i_eq_at(law: EquilibriumLaw, mat: MaterialParams) -> Callable[[float], float]:
    """phi -> i_eq(law, mat, phi), with the variant read and the law and
    material bound once, so that each phi costs one Python call under the
    linear law (off it, the range check and the bisection's memo add theirs)."""
    if law.variant == "linear":
        return _bound(_linear_i_eq, mat.phi_max, mat.delta_phi)
    return _bound(_bisected_i_eq, law, mat)


def _bound(fn: Callable, *values) -> Callable[[float], float]:
    """``fn`` with every parameter after its first fixed to ``values``.

    The copy shares ``fn``'s code and takes ``values`` as its defaults, so
    that a call from Python code is one frame, which the interpreter runs
    inline; a ``functools.partial`` is entered through C, which it cannot.
    """
    return types.FunctionType(fn.__code__, fn.__globals__, fn.__name__, values, fn.__closure__)


def _linear_i_eq(phi: float, phi_max: float, delta_phi: float) -> float:
    if not phi <= phi_max:
        raise _above_phi_max(phi, phi_max)
    return (phi_max - phi) / delta_phi


def _bisected_i_eq(phi: float, law: EquilibriumLaw, mat: MaterialParams) -> float:
    if not phi <= mat.phi_max:
        raise _above_phi_max(phi, mat.phi_max)
    # phi_eq(0) = phi_max >= phi, so only the upper end can miss the root.
    if phi_eq(law, mat, I_CAP) - phi > 0.0:
        raise ValueError(
            f"phi={phi} below the range of the {law.variant} law on [0, {I_CAP}]"
        )
    return _bisect_i_eq(law, mat, float(phi))  # float keys a 0-d array too


def _above_phi_max(phi: float, phi_max: float) -> ValueError:
    return ValueError(f"no equilibrium inertial number for phi={phi} > phi_max={phi_max}")


@functools.lru_cache
def _bisect_i_eq(law: EquilibriumLaw, mat: MaterialParams, phi: float) -> float:
    """Root of phi_eq(I) = phi on [0, I_CAP], which :func:`i_eq` has bracketed."""
    lo, hi = 0.0, I_CAP
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = phi_eq(law, mat, mid) - phi
        if abs(f_mid) < I_EQ_TOL:
            return mid
        if f_mid > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 4.0 * math.ulp(hi):
            break
    return 0.5 * (lo + hi)


def div_u_from_angle(shear: float, psi: float, mode: str = "planar2D") -> float:
    """Velocity divergence produced by a geometric dilatancy angle.

    Modes:
        ``planar2D``: div u = 2 |S| sin(psi), exact in planar shear.
        ``exact3D``: div u = 2 |S| sin(psi) / sqrt(1 + sin(psi)^2 / 3),
            the unidirectional-3D generalisation; the leading factor 2
            survives in three dimensions.
        ``small_angle``: div u = 2 |S| psi.

    Raises:
        ValueError: If the shear is negative, NaN or infinite, psi is NaN or
            |psi| >= pi/2, or the mode is unknown.
    """
    _check_amount("shear", shear, zero_ok=True)
    if not abs(psi) < math.pi / 2:
        raise ValueError(f"dilatancy angle must satisfy |psi| < pi/2, got {psi}")
    if mode == "planar2D":
        return 2.0 * shear * math.sin(psi)
    if mode == "exact3D":
        s = math.sin(psi)
        return 2.0 * shear * s / math.sqrt(1.0 + s * s / 3.0)
    if mode == "small_angle":
        return 2.0 * shear * psi
    raise ValueError(f"unknown mode {mode!r}")


def angle_from_div_u(shear: float, divu: float, mode: str = "planar2D") -> float:
    """Dilatancy angle recovering a given divergence, inverse of
    :func:`div_u_from_angle` in the matching mode.

    Raises:
        ValueError: If the shear is negative, NaN or infinite, shear = 0
            with divu != 0, the arcsine argument falls outside [-1, 1], a
            small angle reaches |psi| >= pi/2, or the mode is unknown.
    """
    _check_amount("shear", shear, zero_ok=True)
    if shear == 0.0:
        if divu != 0.0:
            raise ValueError("cannot infer an angle from divu != 0 at zero shear")
        return 0.0
    if mode == "small_angle":
        psi = divu / (2.0 * shear)
        if not abs(psi) < math.pi / 2:
            raise ValueError(f"small angle {psi} outside |psi| < pi/2")
        return psi
    if mode == "planar2D":
        arg = divu / (2.0 * shear)
    elif mode == "exact3D":
        denom_sq = 4.0 * shear * shear - divu * divu / 3.0
        if denom_sq <= 0.0:
            raise ValueError("divergence too large for the 3D angle relation")
        arg = divu / math.sqrt(denom_sq)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if not -1.0 <= arg <= 1.0:
        raise ValueError(f"arcsine argument {arg} outside [-1, 1]")
    return math.asin(arg)
