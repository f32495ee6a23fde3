"""Yield and dilatancy function catalogue for non-isochoric granular flow.

A model is a pair of dimensionless functions

* ``Z(phi, I)``, the yield coefficient of the threshold rheology
  ``tau = Z p S / |S|``, and
* ``f(phi, p, I)``, the dilatancy coefficient of the divergence law
  ``div u = 2 |S| f``,

tied together by the consistency equation Z - (I/2) dZ/dI = f + I df/dI
(first stability condition) and anchored at the isochoric equilibrium,
f(phi, p, i_eq(phi)) = 0, so that shearing expands the material above the
equilibrium packing and compacts it below (critical-state behaviour in the
sense of Roux and Radjai).

Built-in variants
-----------------
``DruckerPrager``            Z = sin(delta), f = sin(delta) (1 - I_eq/I)
``MuI``                      Z = mu(I), f = F(I) - (I_eq/I) F(I_eq)
``PowerLaw``                 Z = c I^n, f = c (2-n)/(2(n+1)) (I^n - I_eq^{n+1}/I)
``DruckerPragerDilatant``    Z = sin(delta) + cos(delta) psi, f = psi,
                             psi = sin(delta)/(1-cos(delta)) (1 - (I_eq/I)^beta)
``MuIDilatant``              Z = mu(I) + psi, f = psi, psi = G(I) - G(I_eq)
``RouxRadjai``               f = a (phi - phi_eq(I)), Z = small-angle closure
                             (deliberately not consistency-compliant)
``LinearCombination``        phi-weighted sums of compliant pairs
``DerivedNumeric``           f obtained from an arbitrary Z by quadrature

The quadrature route, :func:`derive_f_numeric`, is the independent check on
every closed form: f = W(phi, I) - I_eq W(phi, I_eq) / I with
W = (3/(2I)) int_{I1}^{I} Z dJ - Z/2, invariant under the anchor I1.

Every model above except ``DerivedNumeric`` has its slopes dZ/dI, df/dI and
df/dp in closed form; ``DerivedNumeric`` takes the central difference of its
Z for dZ/dI, df/dI = (Z - f)/I - dZ/dI / 2 from consistency, and df/dp = 0.
No f here takes p, which the protocol states once (``_f_takes_p``), so a
condition sweep reads each (phi, I) once.  The closed forms and their linear
combinations also read a whole row of I at one phi (``_row``), which a sweep
prefers: their terms in I alone are taken once per sweep and passed, as
arrays, to the formulas the scalar reads pass numbers to.  The first
five write f and df/dI once each, as ``_f`` and ``_f_dI`` of I_eq and their
factors in I alone, behind one check, so df/dI raises where f raises.
``_dilatancy_at`` binds ``_f`` to those factors, I and the law's inverse with
its constants, so a box RK4 stage costs two Python calls, f and the inverse,
and a third for F or G (mu(I)) or I_eq^(n+1).  Models enter the checks and
the box by :func:`_admit`, and a forcing becomes a rate by :func:`_forced` alone.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .materials import (
    EquilibriumLaw,
    FlowState,
    MaterialParams,
    _bound,
    _check_all,
    _i_eq_at,
    i_eq as law_i_eq,
    inertial_number,
    phi_eq as law_phi_eq,
    phi_eq_prime,
)
from .quadrature import integral

__all__ = [
    "friction_mu",
    "friction_mu_prime",
    "mui_shear_factor",
    "mui_angle_primitive",
    "beta_exponent",
    "dilatancy_angle_dp",
    "dilatancy_angle_mui",
    "derive_f_numeric",
    "div_u",
    "DruckerPrager",
    "MuI",
    "PowerLaw",
    "LinearCombination",
    "DruckerPragerDilatant",
    "MuIDilatant",
    "RouxRadjai",
    "DerivedNumeric",
    "Isochoric",
    "MODEL_IDS",
    "build_model",
]


# ----------------------------------------------------------------------
# Scalar ingredients
# ----------------------------------------------------------------------

def _needs_positive_I(what: str, I: float) -> ValueError:
    """The error of ``what`` at I <= 0; functions and their slopes share it."""
    return ValueError(f"{what} requires I > 0, got {I}")


def _needs_positive_i_eq(i_eq_value: float) -> ValueError:
    """The error of the mu(I) dilatancy angle at I_eq <= 0."""
    return ValueError(
        f"mu(I) dilatancy angle requires I_eq > 0 (phi < phi_max), got {i_eq_value}"
    )


def friction_mu(mu1: float, mu2: float, I0: float, I: float) -> float:
    """mu(I) = mu1 + (mu2 - mu1) / (1 + I0/I); mu(0) = mu1 by continuity."""
    if I < 0:
        raise ValueError(f"mu(I) undefined for I < 0, got {I}")
    if I == 0.0:
        return mu1
    return mu1 + (mu2 - mu1) / (1.0 + I0 / I)


def friction_mu_prime(mu1: float, mu2: float, I0: float, I: float) -> float:
    """Derivative mu'(I) = (mu2 - mu1) I0 / (I + I0)^2."""
    if I < 0:
        raise ValueError(f"mu(I) undefined for I < 0, got {I}")
    return (mu2 - mu1) * I0 / (I + I0) ** 2


def mui_shear_factor(mu1: float, mu2: float, I0: float, I: float) -> float:
    """Shear coefficient F(I) of the mu(I) dilatancy law.

    F(I) = (3/(2I)) M(I) - mu(I)/2 with M the primitive of mu vanishing at
    I = 0; explicitly F = mu2 + (mu2-mu1)/2 * [1/(1+x) - 3 ln(1+x)/x] at
    x = I/I0.  F -> mu1 as I -> 0 and mu(I) - F(I) > 0 for I > 0, which is
    what keeps the shear part of the dissipation positive.

    Raises:
        ValueError: If I <= 0 (use the mu1 limit explicitly if needed).
    """
    if I <= 0:
        raise ValueError(f"F(I) requires I > 0, got {I}")
    x = I / I0
    h = 1.0 / (1.0 + x) - 3.0 * math.log1p(x) / x
    return mu2 + 0.5 * (mu2 - mu1) * h


def mui_angle_primitive(mu1: float, mu2: float, I0: float, I: float) -> float:
    """Primitive G(I) of the mu(I) dilatancy-angle equation.

    G(I) = (2 mu1/3) ln(I/I0) + ((mu2-mu1)/3) [1/(1+I/I0) + 2 ln(1+I/I0)],
    so that G'(I) = 2 mu(I)/(3I) - mu'(I)/3 > 0.  Log-singular at I = 0.
    """
    if I <= 0:
        raise _needs_positive_I("G(I)", I)
    x = I / I0
    return (2.0 * mu1 / 3.0) * math.log(x) + (mu2 - mu1) / 3.0 * (
        1.0 / (1.0 + x) + 2.0 * math.log1p(x)
    )


def beta_exponent(delta: float) -> float:
    """Power beta = 2 (1 - cos delta) / (2 + cos delta) of the Drucker-Prager
    dilatancy angle; about 0.1 for delta near 30 degrees.
    """
    if not 0.0 < delta < math.pi / 2:
        raise ValueError(f"delta must lie in (0, pi/2), got {delta}")
    c = math.cos(delta)
    return 2.0 * (1.0 - c) / (2.0 + c)


def dilatancy_angle_dp(delta: float, i_eq_value: float, I: float) -> float:
    """Dilatancy angle of the consistency-compliant Drucker-Prager model.

    psi = sin(delta)/(1 - cos(delta)) * (1 - (I_eq/I)^beta).  Solves
    (2 + cos d) I psi' + 2 (1 - cos d) psi = 2 sin d with psi(I_eq) = 0;
    positive (dilation) for I > I_eq, negative (compaction) below.
    """
    if I <= 0:
        raise ValueError(f"dilatancy angle requires I > 0, got {I}")
    if i_eq_value < 0:
        raise ValueError(f"equilibrium inertial number must be >= 0, got {i_eq_value}")
    return _dp_angle(i_eq_value, _dp_angle_factors(delta), _itself, I)


def _itself(i_eq_value: float) -> float:
    """The I_eq map under which a factored model's ``_f`` of phi takes I_eq
    itself, as the angle functions do."""
    return i_eq_value


def _dp_angle_factors(delta: float) -> tuple[float, float]:
    """K = sin(delta)/(1 - cos(delta)) and beta of :func:`dilatancy_angle_dp`."""
    c = math.cos(delta)
    if 1.0 - c == 0.0:
        raise ValueError(f"delta = {delta} makes the dilatancy angle singular")
    return math.sin(delta) / (1.0 - c), beta_exponent(delta)


def _dp_angle(phi: float, factors: tuple[float, float], i_eq: Callable[[float], float],
              I: float) -> float:
    """psi = K (1 - (I_eq/I)^beta) at I_eq = i_eq(phi), from ``factors`` = (K, beta)."""
    K, b = factors
    return K * (1.0 - (i_eq(phi) / I) ** b)


def dilatancy_angle_mui(
    mu1: float, mu2: float, I0: float, i_eq_value: float, I: float
) -> float:
    """Dilatancy angle psi = G(I) - G(I_eq) of the mu(I) model with dilation.

    Raises:
        ValueError: If I <= 0 or I_eq <= 0 (G is log-singular, so the state
            phi = phi_max is not admissible for this model).
    """
    if i_eq_value <= 0:  # before G(I), which raises at I <= 0
        raise _needs_positive_i_eq(i_eq_value)
    consts = (mu1, mu2, I0)
    return _mui_angle(i_eq_value, (consts, mui_angle_primitive(*consts, I)), _itself, I)


def _mui_angle(phi: float, factors: tuple[tuple[float, float, float], float],
               i_eq: Callable[[float], float], I: float) -> float:
    """psi = G(I) - G(I_eq) at I_eq = i_eq(phi), from ``factors`` =
    ((mu1, mu2, I0), G(I))."""
    (mu1, mu2, I0), g = factors
    ieq = i_eq(phi)
    if ieq <= 0:
        raise _needs_positive_i_eq(ieq)
    return g - mui_angle_primitive(mu1, mu2, I0, ieq)


def _dp_angle_slope(factors: tuple[float, float], psi, I):
    """dpsi/dI = K beta (I_eq/I)^beta / I = beta (K - psi) / I of :func:`_dp_angle`."""
    K, b = factors
    return b * (K - psi) / I


def _small_angle(delta: float, f):
    """Z = sin(delta) + cos(delta) f, the small-angle closure of an angle f."""
    return math.sin(delta) + math.cos(delta) * f


def _small_angle_slope(delta: float, df_dI):
    """dZ/dI = cos(delta) df/dI of :func:`_small_angle`."""
    return math.cos(delta) * df_dI


def _mu_and_slope(mat: MaterialParams, I: float) -> tuple[float, float]:
    """mu(I) and mu'(I) with mat's mu1, mu2 and I0."""
    return friction_mu(mat.mu1, mat.mu2, mat.I0, I), friction_mu_prime(mat.mu1, mat.mu2, mat.I0, I)


def _each(fun: Callable[[float], float | tuple], I: list[float]) -> np.ndarray:
    """``fun`` at each I of a list, one Python call each, as an array, or as
    one row per term where ``fun`` gives a tuple of them.  So a row read's
    terms have the scalar reads' bits (numpy's power and log1p need not give
    them)."""
    return np.array([fun(J) for J in I]).T


def _sum(values):
    """0.0 + v1 + v2 + ..., left to right, for numbers and arrays alike (the
    builtin sum compensates a float sum from Python 3.12 on)."""
    return functools.reduce(operator.add, values, 0.0)


# ----------------------------------------------------------------------
# Central differences; f from Z by quadrature
# ----------------------------------------------------------------------

#: Relative step of the central differences that stand in for the slopes a
#: model does not define.
REL_STEP = 1.0e-6


def _central(fun: Callable[[float], float], x: float, rel: float) -> float:
    """Central difference of ``fun`` at x > 0 with the relative step h = rel * x."""
    if x <= 0:
        raise ValueError(f"cannot take a central difference at {x}: it needs x > 0")
    h = rel * x
    try:
        return (fun(x + h) - fun(x - h)) / (2.0 * h)
    except ValueError as error:
        raise ValueError(f"cannot take a central difference at {x} (step {h}): {error}") from error


def derive_f_numeric(
    Z: Callable[[float, float], float],
    law: EquilibriumLaw,
    mat: MaterialParams,
    phi: float,
    p: float,
    I: float,
    I1: float | None = None,
) -> float:
    """Dilatancy function derived from an arbitrary yield function.

    Integrates the consistency condition: with
    W(phi, I) = (3/(2I)) int_{I1}^{I} Z(phi, J) dJ - Z(phi, I)/2, the unique
    solution anchored at the equilibrium is

        f(phi, p, I) = W(phi, I) - I_eq(phi) W(phi, I_eq(phi)) / I.

    The anchor I1 is a pure gauge (it shifts W by a const/I term that
    cancels); it defaults to I0/100 so that integrands singular at the
    origin, such as Z ~ I^(-1/2), are never sampled at 0.  ``p`` is accepted
    for signature uniformity with the closed forms; W does not depend on it.

    Raises:
        ValueError: If I <= 0, or i_eq is undefined at phi.
        RuntimeError: If Z is not finite at a node or the quadrature does
            not converge (see :func:`granupore.quadrature.integral`); the
            message names the interval.
    """
    Z_of = functools.partial(Z, phi)
    I1 = _default_I1(mat) if I1 is None else I1
    return _derived_f(
        Z_of, I1, I, lambda: _equilibrium_term(Z_of, law_i_eq(law, mat, phi), I1)
    )


def _default_I1(mat: MaterialParams) -> float:
    return mat.I0 / 100.0


def _equilibrium_term(Z_of: Callable[[float], float], ieq: float, I1: float) -> float:
    """I_eq W(I_eq), written so the I_eq -> 0 limit is finite for any Z
    integrable at the origin."""
    g_eq = 1.5 * integral(Z_of, I1, ieq, "Z")
    if ieq > 0.0:
        g_eq -= 0.5 * ieq * Z_of(ieq)
    return g_eq


def _derived_f(
    Z_of: Callable[[float], float], I1: float, I: float, equilibrium: Callable[[], float]
) -> float:
    """f = W(I) - I_eq W(I_eq) / I, with I_eq W(I_eq) from ``equilibrium()``."""
    if I <= 0:
        raise ValueError(f"f derivation requires I > 0, got {I}")
    g_eq = equilibrium()
    w_at_I = 1.5 * integral(Z_of, I1, I, "Z") / I - 0.5 * Z_of(I)
    return w_at_I - g_eq / I


# ----------------------------------------------------------------------
# Model catalogue
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _ModelBase:
    """The one model protocol: mat, the law of the f anchor, the slopes
    (by default central differences of Z and f in I > 0, and df/dp = 0), f
    at a fixed (p, I) and the near-equilibrium gain.  A slope raises the
    ValueError of Z (for dZ/dI) or f (for df/dI, df/dp)."""

    mat: MaterialParams = MaterialParams()
    law: EquilibriumLaw = EquilibriumLaw()
    #: Whether f and its slopes read p.  No catalogue f does, so a sweep
    #: shares each (phi, I)'s reads across p; a subclass whose f reads p
    #: sets it True.
    _f_takes_p = False
    #: The row read, or None: ``_row(phi, I, terms)`` is dZ/dI, df/dI, Z and
    #: f at one phi over the array ``I``, each an array or a number, where
    #: ``terms = _row_terms(I)`` (I a list) are the model's terms in I alone,
    #: taken once per sweep one element at a time by the scalar functions.
    #: It reads i_eq(phi) once and passes the arrays to the formulas the
    #: scalar reads pass numbers to, so at each I where all four are finite
    #: they are the scalar reads' values, bit for bit, and no scalar read
    #: raises there.  A model with one takes no p.  A subclass inherits none,
    #: so a subclass's own scalar reads are what a sweep reads.
    _row = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "_row" not in vars(cls):
            cls._row = None

    def i_eq(self, phi: float) -> float:
        return law_i_eq(self.law, self.mat, phi)

    def phi_eq(self, I: float) -> float:
        return law_phi_eq(self.law, self.mat, I)

    def _dilatancy_at(self, p: float, I: float) -> Callable[[float], float]:
        """phi -> f(phi, p, I) at a fixed (p, I), as on one box forcing segment."""
        return lambda phi: self.dilatancy(phi, p, I)

    def dZ_dI(self, phi: float, I: float) -> float:
        return _central(lambda J: self.yield_function(phi, J), I, REL_STEP)

    def df_dI(self, phi: float, p: float, I: float) -> float:
        return _central(lambda J: self.dilatancy(phi, p, J), I, REL_STEP)

    def df_dp(self, phi: float, p: float, I: float) -> float:
        """df/dp = 0: no catalogue f depends on p."""
        self.dilatancy(phi, p, I)  # raises where f raises
        return 0.0

    def _gain_lhs(self, I: float) -> float:
        """Z - (I/2) dZ/dI at the equilibrium packing phi_eq(I)."""
        phi_star = self.phi_eq(I)
        return self.yield_function(phi_star, I) - 0.5 * I * self.dZ_dI(phi_star, I)

    def near_equilibrium_gain(self, I: float) -> float:
        """Slope df/dphi at the equilibrium packing phi_eq(I), at I > 0."""
        if not I > 0:
            raise _needs_positive_I("gain", I)
        return self._gain(I)

    def _gain(self, I: float) -> float:
        """The gain of a compliant pair, (Z - (I/2) dZ/dI) (-1/phi_eq'(I)) / I."""
        return self._gain_lhs(I) * (-1.0 / phi_eq_prime(self.law, self.mat, I)) / I


@dataclass(frozen=True)
class _Factored(_ModelBase):
    """A model whose f(phi, p, I) is ``_f(phi, _factors(I), i_eq, I)``, with
    ``i_eq`` the model's inverse of its law, and whose df/dI is
    ``_f_dI(_factors(I), i_eq(phi), I, *_slope_terms(I))``, made after the
    same check, so df/dI raises where f raises: dp, mui, power:n, dp-psi and
    mui-psi.  ``_f_dI``, and ``_f`` but for the Drucker-Prager angle's power,
    take numbers or a row read's arrays of the factors and terms in I alone.
    On one forcing segment of the box, ``_dilatancy_at`` binds ``_f`` to the
    segment's factors (of I and the material alone), I and the law's inverse
    bound to the material (:func:`_i_eq_at`): a stage then costs two Python
    calls, and a third for mu(I)'s F or G or the power law's I_eq^(n+1)."""

    def dilatancy(self, phi: float, p: float, I: float) -> float:
        if I <= 0:
            raise _needs_positive_I("dilatancy", I)
        return self._f(phi, self._factors(I), self.i_eq, I)

    def df_dI(self, phi: float, p: float, I: float) -> float:
        if I <= 0:
            raise _needs_positive_I("dilatancy", I)
        return self._f_dI(self._factors(I), self.i_eq(phi), I, *self._slope_terms(I))

    def _slope_terms(self, I: float) -> tuple:
        """df/dI's terms in I alone besides f's factors: none by default."""
        return ()

    def _dilatancy_at(self, p: float, I: float) -> Callable[[float], float]:
        if not I > 0:  # dilatancy raises here, in its own order, or gives NaN
            return super()._dilatancy_at(p, I)
        return _bound(self._f, self._factors(I), _i_eq_at(self.law, self.mat), I)


@dataclass(frozen=True)
class DruckerPrager(_Factored):
    """Constant yield coefficient Z = sin(delta) with the matching
    consistency-compliant dilatancy f = sin(delta) (1 - I_eq/I)."""

    def yield_function(self, phi: float, I: float) -> float:
        return math.sin(self.mat.delta)

    def _factors(self, I: float) -> float:
        return math.sin(self.mat.delta)

    @staticmethod
    def _f(phi: float, sin_delta: float, i_eq: Callable[[float], float], I: float) -> float:
        return sin_delta * (1.0 - i_eq(phi) / I)

    @staticmethod
    def _slope_terms(I: float) -> tuple[float]:
        return (I**2,)

    @staticmethod
    def _f_dI(sin_delta: float, ieq: float, I: float, I2: float) -> float:
        return sin_delta * ieq / I2

    def dZ_dI(self, phi: float, I: float) -> float:
        return 0.0

    def _row_terms(self, I: list[float]) -> np.ndarray:
        return _each(self._slope_terms, I)

    def _row(self, phi: float, I: np.ndarray, terms: np.ndarray) -> tuple:
        sin_delta, ieq = self._factors(I), self.i_eq(phi)
        return (self.dZ_dI(phi, I), self._f_dI(sin_delta, ieq, I, *terms),
                self.yield_function(phi, I), self._f(ieq, sin_delta, _itself, I))


@dataclass(frozen=True)
class MuI(_Factored):
    """mu(I) rheology with the dilatancy law integrated from consistency:
    f = F(I) - (I_eq/I) F(I_eq)."""

    def yield_function(self, phi: float, I: float) -> float:
        return friction_mu(self.mat.mu1, self.mat.mu2, self.mat.I0, I)

    def _factors(self, I: float) -> tuple[tuple[float, float, float], float]:
        mu1, mu2, I0 = consts = self.mat.mu1, self.mat.mu2, self.mat.I0
        return consts, mui_shear_factor(mu1, mu2, I0, I)

    @staticmethod
    def _f(phi: float, factors: tuple[tuple[float, float, float], float],
           i_eq: Callable[[float], float], I: float) -> float:
        (mu1, mu2, I0), f = factors
        ieq = i_eq(phi)
        if ieq > 0.0:  # not -=, which would write into a row's F(I)
            f = f - ieq / I * mui_shear_factor(mu1, mu2, I0, ieq)
        return f

    def _slope_terms(self, I: float) -> tuple[float, float, float]:
        return (*_mu_and_slope(self.mat, I), I**2)

    @staticmethod
    def _f_dI(factors: tuple[tuple[float, float, float], float], ieq: float, I: float,
              mu: float, mu_prime: float, I2: float) -> float:
        """df/dI = F'(I) + (I_eq/I^2) F(I_eq), with F'(I) = (mu - F)/I - mu'/2."""
        (mu1, mu2, I0), f = factors
        slope = (mu - f) / I - 0.5 * mu_prime
        if ieq > 0.0:
            slope = slope + ieq / I2 * mui_shear_factor(mu1, mu2, I0, ieq)
        return slope

    def dZ_dI(self, phi: float, I: float) -> float:
        return friction_mu_prime(self.mat.mu1, self.mat.mu2, self.mat.I0, I)

    def _row_terms(self, I: list[float]) -> np.ndarray:
        """f's factor in I alone, then df/dI's terms."""
        return _each(lambda J: (self._factors(J)[1], *self._slope_terms(J)), I)

    def _row(self, phi: float, I: np.ndarray, terms: np.ndarray) -> tuple:
        F, mu, mu_prime, I2 = terms
        factors, ieq = ((self.mat.mu1, self.mat.mu2, self.mat.I0), F), self.i_eq(phi)
        return (mu_prime, self._f_dI(factors, ieq, I, mu, mu_prime, I2), mu,
                self._f(ieq, factors, _itself, I))


def _power_anchor(ieq: float, n: float) -> float:
    """I_eq^(n+1); raises where I^n is not integrable down to I_eq = 0."""
    if ieq == 0.0 and n < -1.0:
        raise ValueError(f"I^{n} is not integrable down to the equilibrium I_eq = 0")
    return ieq ** (n + 1.0)


@dataclass(frozen=True)
class PowerLaw(_Factored):
    """Monomial yield function Z = c I^n.

    The matching dilatancy is c (2-n)/(2(n+1)) (I^n - I_eq^{n+1}/I); n = 2
    gives f = 0 exactly (a purely viscous stress), and n = -1 is excluded
    because the consistency integral degenerates.
    """

    n: float = field(kw_only=True)
    coefficient: float = field(default=1.0, kw_only=True)

    def __post_init__(self) -> None:
        for name, value in (("n", self.n), ("coefficient", self.coefficient)):
            _check_all(f"power-law {name} must be finite", float(value))  # one number
        if self.n == -1.0:
            raise ValueError("power-law exponent n = -1 is excluded")

    def yield_function(self, phi: float, I: float) -> float:
        if I < 0 or (I == 0.0 and self.n < 0):
            raise ValueError(f"Z = I^n undefined at I={I} for n={self.n}")
        return self._z(I**self.n)

    def dZ_dI(self, phi: float, I: float) -> float:
        z = self.yield_function(phi, I)
        if I == 0.0:
            raise ValueError(f"dZ/dI of Z = I^n is not taken at I=0 (n={self.n})")
        return self._dz(z, I)

    def _z(self, I_n: float) -> float:
        return self.coefficient * I_n

    def _dz(self, z: float, I: float) -> float:
        return self.n * z / I

    def _factors(self, I: float) -> tuple[float, float, float]:
        return self.coefficient * (2.0 - self.n) / (2.0 * (self.n + 1.0)), self.n, I**self.n

    @staticmethod
    def _f(phi: float, factors: tuple, i_eq: Callable[[float], float], I: float) -> float:
        c, n, I_n = factors
        return c * (I_n - _power_anchor(i_eq(phi), n) / I)

    def _slope_terms(self, I: float) -> tuple[float, float]:
        return I ** (self.n - 1.0), I**2

    @staticmethod
    def _f_dI(factors: tuple, ieq: float, I: float, I_n1: float, I2: float) -> float:
        c, n, _ = factors
        return c * (n * I_n1 + _power_anchor(ieq, n) / I2)

    def _row_terms(self, I: list[float]) -> np.ndarray:
        """f's factor I^n, then df/dI's terms."""
        return _each(lambda J: (self._factors(J)[2], *self._slope_terms(J)), I)

    def _row(self, phi: float, I: np.ndarray, terms: np.ndarray) -> tuple:
        (I_n, I_n1, I2), (c, n, _) = terms, self._factors(1.0)  # the row holds I^n
        factors, ieq, z = (c, n, I_n), self.i_eq(phi), self._z(I_n)
        return (self._dz(z, I), self._f_dI(factors, ieq, I, I_n1, I2), z,
                self._f(ieq, factors, _itself, I))


@dataclass(frozen=True)
class DruckerPragerDilatant(_Factored):
    """Drucker-Prager with a dilatation angle in the small-angle closure:
    Z = sin(delta) + cos(delta) psi, f = psi, psi per
    :func:`dilatancy_angle_dp`.  The dissipation gap is
    Z - f = sin(delta) (I_eq/I)^beta > 0."""

    _f = staticmethod(_dp_angle)

    def _factors(self, I: float) -> tuple[float, float]:
        return _dp_angle_factors(self.mat.delta)

    @staticmethod
    def _f_dI(factors: tuple[float, float], ieq: float, I: float) -> float:
        return _dp_angle_slope(factors, _dp_angle(ieq, factors, _itself, I), I)

    def yield_function(self, phi: float, I: float) -> float:
        return _small_angle(self.mat.delta, self.dilatancy(phi, 0.0, I))

    def dZ_dI(self, phi: float, I: float) -> float:
        return _small_angle_slope(self.mat.delta, self.df_dI(phi, 0.0, I))

    def _gain_lhs(self, I: float) -> float:  # exact, no i_eq(phi_eq(I)) round trip
        return 2.0 * math.sin(self.mat.delta) / (2.0 + math.cos(self.mat.delta))

    def _row_terms(self, I: list[float]) -> list[float]:
        return I  # psi's (I_eq/I)^beta takes phi: it is read per row

    def _row(self, phi: float, I: np.ndarray, I_list: list[float]) -> tuple:
        factors, ieq, delta = self._factors(I), self.i_eq(phi), self.mat.delta
        psi = _each(functools.partial(self._f, ieq, factors, _itself), I_list)
        slope = _dp_angle_slope(factors, psi, I)
        return _small_angle_slope(delta, slope), slope, _small_angle(delta, psi), psi


@dataclass(frozen=True)
class MuIDilatant(_Factored):
    """mu(I) rheology with a dilatation angle: Z = mu(I) + psi, f = psi,
    psi = G(I) - G(I_eq) per :func:`dilatancy_angle_mui`.  The dissipation
    gap is Z - f = mu(I) > 0.  Not defined at phi = phi_max (log-singular
    G at I_eq = 0)."""

    _f = staticmethod(_mui_angle)

    def _factors(self, I: float) -> tuple[tuple[float, float, float], float]:
        mu1, mu2, I0 = consts = self.mat.mu1, self.mat.mu2, self.mat.I0
        return consts, mui_angle_primitive(mu1, mu2, I0, I)

    def _slope_terms(self, I: float) -> tuple[float, float]:
        return _mu_and_slope(self.mat, I)

    @staticmethod
    def _f_dI(factors: tuple[tuple[float, float, float], float], ieq: float, I: float,
              mu: float, mu_prime: float) -> float:
        """dpsi/dI = G'(I) = 2 mu(I)/(3I) - mu'(I)/3; raises where psi raises."""
        if ieq <= 0:
            raise _needs_positive_i_eq(ieq)
        return 2.0 * mu / (3.0 * I) - mu_prime / 3.0

    def yield_function(self, phi: float, I: float) -> float:
        return (friction_mu(self.mat.mu1, self.mat.mu2, self.mat.I0, I)
                + self.dilatancy(phi, 0.0, I))

    def dZ_dI(self, phi: float, I: float) -> float:
        return (friction_mu_prime(self.mat.mu1, self.mat.mu2, self.mat.I0, I)
                + self.df_dI(phi, 0.0, I))

    def _gain_lhs(self, I: float) -> float:  # exact, no i_eq(phi_eq(I)) round trip
        mu = friction_mu(self.mat.mu1, self.mat.mu2, self.mat.I0, I)
        mup = friction_mu_prime(self.mat.mu1, self.mat.mu2, self.mat.I0, I)
        return (2.0 * mu - I * mup) / 3.0

    _row_terms = MuI._row_terms  # G(I) for F(I), then mu(I) and mu'(I)

    def _row(self, phi: float, I: np.ndarray, terms: np.ndarray) -> tuple:
        G, mu, mu_prime = terms
        factors, ieq = ((self.mat.mu1, self.mat.mu2, self.mat.I0), G), self.i_eq(phi)
        psi = self._f(ieq, factors, _itself, I)  # raises at I_eq <= 0
        slope = self._f_dI(factors, ieq, I, mu, mu_prime)
        return mu_prime + slope, slope, mu + psi, psi


@dataclass(frozen=True)
class RouxRadjai(_ModelBase):
    """Critical-state closure f = a (phi - phi_eq(I)).

    The sign structure is built in (expansion above the equilibrium packing,
    compaction below), but the pair does not satisfy the consistency
    equation: this is the canonical negative control for the condition
    checker.  ``z_mode`` selects the yield coefficient:

    * ``"small-angle"``: Z = sin(delta) + cos(delta) f,
    * ``"dp"``: plain Z = sin(delta).

    It is no :class:`_Factored`, whose df/dI reads i_eq(phi): this f is
    anchored at phi_eq(I), and its df/dI is defined where i_eq raises.
    """

    gain: float = field(kw_only=True)
    z_mode: str = field(default="small-angle", kw_only=True)

    def __post_init__(self) -> None:
        if self.z_mode not in ("small-angle", "dp"):
            raise ValueError(f"unknown z_mode {self.z_mode!r}")
        _check_all("Roux-Radjai gain must be finite", float(self.gain))  # one number

    def yield_function(self, phi: float, I: float) -> float:
        if self.z_mode == "dp":
            return math.sin(self.mat.delta)
        return _small_angle(self.mat.delta, self.dilatancy(phi, 0.0, I))

    def dilatancy(self, phi: float, p: float, I: float) -> float:
        if I <= 0:
            raise _needs_positive_I("dilatancy", I)
        return self._f(phi, self.phi_eq(I))

    def dZ_dI(self, phi: float, I: float) -> float:
        if self.z_mode == "dp":
            return 0.0
        return _small_angle_slope(self.mat.delta, self.df_dI(phi, 0.0, I))

    def df_dI(self, phi: float, p: float, I: float) -> float:
        """df/dI = -a phi_eq'(I)."""
        if I <= 0:
            raise _needs_positive_I("dilatancy", I)
        return self._f_dI(phi_eq_prime(self.law, self.mat, I))

    def _f(self, phi: float, phi_eq_I: float) -> float:
        return self.gain * (phi - phi_eq_I)

    def _f_dI(self, phi_eq_slope: float) -> float:
        return -self.gain * phi_eq_slope

    def _gain(self, I: float) -> float:
        return self.gain

    def _row_terms(self, I: list[float]) -> np.ndarray:
        return _each(lambda J: (self.phi_eq(J), phi_eq_prime(self.law, self.mat, J)), I)

    def _row(self, phi: float, I: np.ndarray, terms: np.ndarray) -> tuple:
        phi_eq_I, phi_eq_slope = terms
        f, slope = self._f(phi, phi_eq_I), self._f_dI(phi_eq_slope)
        if self.z_mode == "dp":
            return self.dZ_dI(phi, I), slope, self.yield_function(phi, I), f
        delta = self.mat.delta
        return _small_angle_slope(delta, slope), slope, _small_angle(delta, f), f


@dataclass(frozen=True)
class LinearCombination(_ModelBase):
    """phi-weighted linear combination of compliant (Z, f) pairs.

    The consistency equation is linear in (Z, f) and involves no phi
    derivative, so weights may depend on phi; each term's f vanishes at the
    shared equilibrium, hence so does the sum.  The weights depend on phi
    only, so each slope in I or p is the weighted sum of the terms' slopes.
    Each admitted term has the combination's mat and law, or none.
    """

    terms: tuple = field(kw_only=True)  # of (weight, model); weight float or callable

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple((w, _admit(m)) for w, m in self.terms))
        object.__setattr__(self, "_f_takes_p", any(m._f_takes_p for _, m in self.terms))
        if not self.terms or any(m._row is None for _, m in self.terms):
            object.__setattr__(self, "_row", None)  # no terms: the scalar reads' 0
        for k, (_, m) in enumerate(self.terms):
            for name, own, theirs in (("mat", self.mat, m.mat), ("law", self.law, m.law)):
                if theirs not in (None, own):
                    raise ValueError(f"term {k} has another {name}: {theirs}")

    @staticmethod
    def _w(weight, phi: float) -> float:
        return weight(phi) if callable(weight) else float(weight)

    def yield_function(self, phi: float, I: float) -> float:
        return _sum(self._w(w, phi) * m.yield_function(phi, I) for w, m in self.terms)

    def dilatancy(self, phi: float, p: float, I: float) -> float:
        return _sum(self._w(w, phi) * m.dilatancy(phi, p, I) for w, m in self.terms)

    def dZ_dI(self, phi: float, I: float) -> float:
        return _sum(self._w(w, phi) * m.dZ_dI(phi, I) for w, m in self.terms)

    def df_dI(self, phi: float, p: float, I: float) -> float:
        return _sum(self._w(w, phi) * m.df_dI(phi, p, I) for w, m in self.terms)

    def df_dp(self, phi: float, p: float, I: float) -> float:
        return _sum(self._w(w, phi) * m.df_dp(phi, p, I) for w, m in self.terms)

    def _gain(self, I: float) -> float:
        phi_star = self.phi_eq(I)
        return _sum(
            self._w(w, phi_star) * m.near_equilibrium_gain(I) for w, m in self.terms
        )

    def _row_terms(self, I: list[float]) -> tuple:
        return tuple(m._row_terms(I) for _, m in self.terms)

    def _row(self, phi: float, I: np.ndarray, terms: tuple) -> tuple:
        rows = [(self._w(w, phi), m._row(phi, I, t)) for (w, m), t in zip(self.terms, terms)]
        return tuple(_sum(w * row[k] for w, row in rows) for k in range(4))


#: Entries kept by each of a :class:`DerivedNumeric`'s memos.  A sweep reuses
#: only recent keys, so it misses no more often than with an unbounded memo;
#: a box run meets a new phi at every stage and would grow one without bound.
DERIVED_MEMO_SIZE = 64


@dataclass(frozen=True)
class DerivedNumeric(_ModelBase):
    """Model whose dilatancy is derived from a caller-supplied Z by
    quadrature (:func:`derive_f_numeric`).

    Quadratures are memoised: f per (phi, I), as f does not depend on p, and
    the equilibrium term I_eq W(I_eq) per phi, so evaluation behaves as a
    pure function from the outside.  Each memo keeps the last
    ``DERIVED_MEMO_SIZE`` keys used.  df/dI is the one the consistency
    condition gives, (Z - f)/I - dZ/dI / 2, so it costs no quadrature beyond
    f's; dZ/dI is the central difference of Z.
    """

    Z: Callable[[float, float], float] = field(kw_only=True)

    def __post_init__(self) -> None:
        # lru_cache is thread-safe and never caches an exception.
        memo = functools.lru_cache(maxsize=DERIVED_MEMO_SIZE)
        object.__setattr__(self, "_memo", memo(self._derive))
        object.__setattr__(self, "_equilibrium", memo(self._anchor))

    def _anchor(self, phi: float) -> float:
        return _equilibrium_term(
            functools.partial(self.Z, phi), self.i_eq(phi), _default_I1(self.mat)
        )

    def _derive(self, phi: float, I: float) -> float:
        return _derived_f(
            functools.partial(self.Z, phi), _default_I1(self.mat), I,
            lambda: self._equilibrium(phi),
        )

    def yield_function(self, phi: float, I: float) -> float:
        return self.Z(phi, I)

    def dilatancy(self, phi: float, p: float, I: float) -> float:
        return self._memo(phi, I)

    def df_dI(self, phi: float, p: float, I: float) -> float:
        """The exact slope of the derived f, as f solves Z - (I/2) dZ/dI = f + I df/dI."""
        f = self._memo(phi, I)  # raises where f raises
        return (self.Z(phi, I) - f) / I - 0.5 * self.dZ_dI(phi, I)


@dataclass(frozen=True, init=False)
class _Pair(_ModelBase):
    """The adapter of :func:`_admit` around a duck-typed pair ``base``: its mat
    and law or None (takes any), each ``_TAKEN`` name it has or else the
    protocol's (df/dp central in p, and f takes p), and always its own Z, f,
    i_eq and gain."""

    base: object
    _TAKEN = ("phi_eq", "dZ_dI", "df_dI", "df_dp", "_dilatancy_at", "_f_takes_p")
    _f_takes_p = True

    def __init__(self, base) -> None:
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "mat", getattr(base, "mat", None))
        object.__setattr__(self, "law", getattr(base, "law", None))
        for name in self._TAKEN:
            if (own := getattr(base, name, None)) is not None:
                object.__setattr__(self, name, own)

    def yield_function(self, phi: float, I: float) -> float:
        return self.base.yield_function(phi, I)

    def dilatancy(self, phi: float, p: float, I: float) -> float:
        return self.base.dilatancy(phi, p, I)

    def i_eq(self, phi: float) -> float:
        return self.base.i_eq(phi)

    def phi_eq(self, I: float) -> float:  # the pair has none: its law's, or its own error
        return self.base.phi_eq(I) if self.law is None else super().phi_eq(I)

    def df_dp(self, phi: float, p: float, I: float) -> float:
        return _central(lambda q: self.dilatancy(phi, q, I), p, REL_STEP)

    def _gain(self, I: float) -> float:
        return self.base.near_equilibrium_gain(I)


@dataclass(frozen=True, init=False)
class Isochoric(_Pair):
    """Wrap a model with f, its slopes and the gain forced to zero (div u = 0),
    the incompressible limit that consistency rules out: a negative control
    in the stability checks.  Z, dZ/dI, mat, law, i_eq and phi_eq are the base's."""

    _TAKEN = ("phi_eq", "dZ_dI")
    _f_takes_p = False  # f = 0

    def dilatancy(self, phi: float, p: float, I: float) -> float:
        if I <= 0:  # where the base's f raises; NaN gives 0
            raise _needs_positive_I("dilatancy", I)
        return 0.0

    df_dI = df_dp = dilatancy

    def _gain(self, I: float) -> float:
        return 0.0


# ----------------------------------------------------------------------
# The door, the divergence law and the model catalogue
# ----------------------------------------------------------------------

def _admit(model, mat: MaterialParams | None = None) -> _ModelBase:
    """``model`` as a :class:`_ModelBase`, a duck-typed pair wrapped once in
    :class:`_Pair`; rejects a ``mat`` other than the model's, if it has one."""
    model = model if isinstance(model, _ModelBase) else _Pair(model)
    if mat is not None and model.mat not in (None, mat):
        raise ValueError(f"mat {mat} is not the model's material {model.mat}")
    return model


def _forced(model: _ModelBase, mat: MaterialParams, shear: float, p: float) -> tuple:
    """The one door from a forcing (|S|, p) to a rate: (2 |S|, I, phi -> f).

    Unsheared is taken as at rest, (0, 0, f = 0), reading neither the model
    nor p: a choice, as 2 |S| f has a finite |S| -> 0 limit for dp and mu(I).
    """
    if shear == 0.0:
        return 0.0, 0.0, (lambda phi: 0.0)
    I = inertial_number(mat, shear, p)
    return 2.0 * shear, I, model._dilatancy_at(p, I)


def div_u(model, state: FlowState, mat: MaterialParams) -> float:
    """Velocity divergence div u = 2 |S| f(phi, p, I) at a flow state, 0 at
    rest (:func:`_forced`).  ``mat`` must be the model's own."""
    two_shear, _, f = _forced(_admit(model, mat), mat, state.shear, state.p)
    return two_shear * f(state.phi)


#: The catalogue models that take only the material and the law.
_CATALOGUE = {"dp": DruckerPrager, "mui": MuI, "dp-psi": DruckerPragerDilatant,
              "mui-psi": MuIDilatant}
MODEL_IDS = (*_CATALOGUE, "power:<n>", "roux-radjai")


def build_model(
    model_id: str,
    mat: MaterialParams | None = None,
    law: EquilibriumLaw | None = None,
    rr_gain: float | None = None,
    z_override: str | None = None,
):
    """Instantiate a catalogue model from its string id.

    Ids: ``dp``, ``mui``, ``dp-psi``, ``mui-psi``, ``power:<n>`` (for example
    ``power:2`` or ``power:-0.5``) and ``roux-radjai``.  ``z_override`` is the
    Roux-Radjai ``z_mode``: ``"dp"`` forces the plain sin(delta) yield
    coefficient, and an unknown mode raises.  ``rr_gain`` is ignored by the
    other ids.
    """
    mat = mat if mat is not None else MaterialParams()
    law = law if law is not None else EquilibriumLaw()
    if z_override is not None and model_id != "roux-radjai":
        raise ValueError("z_override only applies to the roux-radjai model")
    if model_id in _CATALOGUE:
        return _CATALOGUE[model_id](mat, law)
    if model_id.startswith("power:"):
        try:
            n = float(model_id.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"model id {model_id!r} needs a number after 'power:'") from None
        return PowerLaw(mat, law, n=n)
    if model_id == "roux-radjai":
        if rr_gain is None:
            raise ValueError("roux-radjai needs a gain: pass rr_gain (--rr-gain)")
        z_mode = "small-angle" if z_override is None else z_override
        return RouxRadjai(mat, law, gain=rr_gain, z_mode=z_mode)
    raise ValueError(f"unknown model id {model_id!r}; known: {', '.join(MODEL_IDS)}")
