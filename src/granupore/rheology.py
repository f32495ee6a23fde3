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

Every model above except ``DerivedNumeric`` also has its slopes dZ/dI, df/dI
and df/dp in closed form (methods ``dZ_dI``, ``df_dI`` and ``df_dp``);
``DerivedNumeric`` has only df/dp, the shared base's 0.  :func:`_slopes`
takes those, or central differences for a slope a model lacks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

from .materials import (
    EquilibriumLaw,
    FlowState,
    MaterialParams,
    i_eq as law_i_eq,
    inertial_number,
    phi_eq as law_phi_eq,
    phi_eq_prime,
)

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
    c = math.cos(delta)
    if 1.0 - c == 0.0:
        raise ValueError("delta = 0 makes the dilatancy angle singular")
    b = beta_exponent(delta)
    return math.sin(delta) / (1.0 - c) * (1.0 - (i_eq_value / I) ** b)


def dilatancy_angle_mui(
    mu1: float, mu2: float, I0: float, i_eq_value: float, I: float
) -> float:
    """Dilatancy angle psi = G(I) - G(I_eq) of the mu(I) model with dilation.

    Raises:
        ValueError: If I <= 0 or I_eq <= 0 (G is log-singular, so the state
            phi = phi_max is not admissible for this model).
    """
    if i_eq_value <= 0:
        raise _needs_positive_i_eq(i_eq_value)
    return mui_angle_primitive(mu1, mu2, I0, I) - mui_angle_primitive(
        mu1, mu2, I0, i_eq_value
    )


# ----------------------------------------------------------------------
# Slopes: the model's own or central differences; f from Z by quadrature
# ----------------------------------------------------------------------

#: Relative step of the central differences that stand in for the slopes a
#: model does not define.
REL_STEP = 1.0e-6


def _central(fun: Callable[[float], float], x: float, rel: float) -> float:
    """Central difference with step h = rel * max(x, 1e-3) and one
    domain-shrink retry.

    Evaluation at x +/- h can leave the model's domain near a boundary
    (for example I_eq terms at phi -> phi_max); in that case the step is
    halved once before giving up, and the error names the last failure.
    """
    h = rel * max(x, 1.0e-3)
    for step in (h, 0.5 * h):
        try:
            return (fun(x + step) - fun(x - step)) / (2.0 * step)
        except ValueError as exc:
            error = exc
    raise ValueError(f"cannot take a central difference at {x} (step {h}): {error}") from error


def _slopes(model) -> tuple[Callable, Callable, Callable]:
    """The functions dZ/dI(phi, I), df/dI(phi, p, I) and df/dp(phi, p, I) of
    ``model``.

    This is the one fallback rule and the one caller of :func:`_central`:
    each is the model's own slope (its ``dZ_dI``, ``df_dI`` or ``df_dp``
    method) where it defines one, and otherwise a central difference of its
    Z or f with relative step :data:`REL_STEP`.
    """
    return (
        getattr(model, "dZ_dI", None)
        or (lambda phi, I: _central(lambda J: model.yield_function(phi, J), I, REL_STEP)),
        getattr(model, "df_dI", None)
        or (lambda phi, p, I: _central(lambda J: model.dilatancy(phi, p, J), I, REL_STEP)),
        getattr(model, "df_dp", None)
        or (lambda phi, p, I: _central(lambda q: model.dilatancy(phi, q, I), p, REL_STEP)),
    )


_QUAD_OPTS = dict(epsabs=1e-12, epsrel=1e-12, limit=200)


def _integral(Z_of_I: Callable[[float], float], a: float, b: float) -> float:
    if a == b:
        return 0.0
    from scipy.integrate import quad

    val, err = quad(Z_of_I, a, b, **_QUAD_OPTS)
    if err > 1e-7 * max(abs(val), 1.0):
        raise RuntimeError(
            f"quadrature of Z did not converge on [{a}, {b}]: value {val}, error {err}"
        )
    return val


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
        RuntimeError: On quadrature failure.
    """
    if I <= 0:
        raise ValueError(f"f derivation requires I > 0, got {I}")
    if I1 is None:
        I1 = mat.I0 / 100.0
    Z_of = lambda J: Z(phi, J)
    ieq = law_i_eq(law, mat, phi)
    w_at_I = 1.5 * _integral(Z_of, I1, I) / I - 0.5 * Z_of(I)
    # I_eq * W(I_eq), written so the I_eq -> 0 limit is finite for any Z
    # integrable at the origin.
    g_eq = 1.5 * _integral(Z_of, I1, ieq)
    if ieq > 0.0:
        g_eq -= 0.5 * ieq * Z_of(ieq)
    return w_at_I - g_eq / I


# ----------------------------------------------------------------------
# Model catalogue
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _ModelBase:
    """The protocol every catalogue model shares: material constants, the
    equilibrium law of the f anchor, df/dp and the near-equilibrium gain.
    A slope raises the ValueError of Z (for dZ/dI) or f (for df/dI, df/dp)."""

    mat: MaterialParams = MaterialParams()
    law: EquilibriumLaw = EquilibriumLaw()

    def i_eq(self, phi: float) -> float:
        return law_i_eq(self.law, self.mat, phi)

    def phi_eq(self, I: float) -> float:
        return law_phi_eq(self.law, self.mat, I)

    def _consts(self) -> tuple[float, float, float]:
        return self.mat.mu1, self.mat.mu2, self.mat.I0

    def df_dp(self, phi: float, p: float, I: float) -> float:
        """df/dp = 0: no catalogue f depends on p."""
        self.dilatancy(phi, p, I)  # raises where f raises
        return 0.0

    def _gain_lhs(self, I: float) -> float:
        """Z - (I/2) dZ/dI at the equilibrium packing phi_eq(I)."""
        phi_star = self.phi_eq(I)
        return self.yield_function(phi_star, I) - 0.5 * I * _slopes(self)[0](phi_star, I)

    def near_equilibrium_gain(self, I: float) -> float:
        """Slope df/dphi at the equilibrium packing phi_eq(I) of a compliant
        pair, (Z - (I/2) dZ/dI) (-1/phi_eq'(I)) / I."""
        if I <= 0:
            raise ValueError(f"gain requires I > 0, got {I}")
        return self._gain_lhs(I) * (-1.0 / phi_eq_prime(self.law, self.mat, I)) / I


@dataclass(frozen=True)
class DruckerPrager(_ModelBase):
    """Constant yield coefficient Z = sin(delta) with the matching
    consistency-compliant dilatancy f = sin(delta) (1 - I_eq/I)."""

    def yield_function(self, phi: float, I: float) -> float:
        return math.sin(self.mat.delta)

    def dilatancy(self, phi: float, p: float, I: float) -> float:
        if I <= 0:
            raise _needs_positive_I("dilatancy", I)
        return math.sin(self.mat.delta) * (1.0 - self.i_eq(phi) / I)

    def dZ_dI(self, phi: float, I: float) -> float:
        return 0.0

    def df_dI(self, phi: float, p: float, I: float) -> float:
        if I <= 0:
            raise _needs_positive_I("dilatancy", I)
        return math.sin(self.mat.delta) * self.i_eq(phi) / I**2


@dataclass(frozen=True)
class MuI(_ModelBase):
    """mu(I) rheology with the dilatancy law integrated from consistency:
    f = F(I) - (I_eq/I) F(I_eq)."""

    def yield_function(self, phi: float, I: float) -> float:
        return friction_mu(*self._consts(), I)

    def dilatancy(self, phi: float, p: float, I: float) -> float:
        if I <= 0:
            raise _needs_positive_I("dilatancy", I)
        ieq = self.i_eq(phi)
        f = mui_shear_factor(*self._consts(), I)
        if ieq > 0.0:
            f -= ieq / I * mui_shear_factor(*self._consts(), ieq)
        return f

    def dZ_dI(self, phi: float, I: float) -> float:
        return friction_mu_prime(*self._consts(), I)

    def df_dI(self, phi: float, p: float, I: float) -> float:
        """df/dI = F'(I) + (I_eq/I^2) F(I_eq), with F'(I) = (mu - F)/I - mu'/2."""
        if I <= 0:
            raise _needs_positive_I("dilatancy", I)
        ieq = self.i_eq(phi)
        consts = self._consts()
        slope = (friction_mu(*consts, I) - mui_shear_factor(*consts, I)) / I
        slope -= 0.5 * friction_mu_prime(*consts, I)
        if ieq > 0.0:
            slope += ieq / I**2 * mui_shear_factor(*consts, ieq)
        return slope


@dataclass(frozen=True)
class PowerLaw(_ModelBase):
    """Monomial yield function Z = c I^n.

    The matching dilatancy is c (2-n)/(2(n+1)) (I^n - I_eq^{n+1}/I); n = 2
    gives f = 0 exactly (a purely viscous stress), and n = -1 is excluded
    because the consistency integral degenerates.
    """

    n: float = field(kw_only=True)
    coefficient: float = field(default=1.0, kw_only=True)

    def __post_init__(self) -> None:
        for name, value in (("n", self.n), ("coefficient", self.coefficient)):
            if not math.isfinite(value):
                raise ValueError(f"power-law {name} must be finite, got {value}")
        if self.n == -1.0:
            raise ValueError("power-law exponent n = -1 is excluded")

    def yield_function(self, phi: float, I: float) -> float:
        if I < 0 or (I == 0.0 and self.n < 0):
            raise ValueError(f"Z = I^n undefined at I={I} for n={self.n}")
        return self.coefficient * I**self.n

    def dZ_dI(self, phi: float, I: float) -> float:
        z = self.yield_function(phi, I)
        if I == 0.0:
            raise ValueError(f"dZ/dI of Z = I^n is not taken at I=0 (n={self.n})")
        return self.n * z / I

    def _f_terms(self, phi: float, I: float) -> tuple[float, float]:
        """The factor c (2-n)/(2(n+1)) and I_eq(phi), after f's checks."""
        if I <= 0:
            raise _needs_positive_I("dilatancy", I)
        ieq = self.i_eq(phi)
        if ieq == 0.0 and self.n < -1.0:
            raise ValueError(
                f"I^{self.n} is not integrable down to the equilibrium I_eq = 0"
            )
        return self.coefficient * (2.0 - self.n) / (2.0 * (self.n + 1.0)), ieq

    def dilatancy(self, phi: float, p: float, I: float) -> float:
        c, ieq = self._f_terms(phi, I)
        return c * (I**self.n - ieq ** (self.n + 1.0) / I)

    def df_dI(self, phi: float, p: float, I: float) -> float:
        c, ieq = self._f_terms(phi, I)
        return c * (self.n * I ** (self.n - 1.0) + ieq ** (self.n + 1.0) / I**2)


@dataclass(frozen=True)
class DruckerPragerDilatant(_ModelBase):
    """Drucker-Prager with a dilatation angle in the small-angle closure:
    Z = sin(delta) + cos(delta) psi, f = psi, psi per
    :func:`dilatancy_angle_dp`.  The dissipation gap is
    Z - f = sin(delta) (I_eq/I)^beta > 0."""

    def _psi(self, phi: float, I: float) -> float:
        return dilatancy_angle_dp(self.mat.delta, self.i_eq(phi), I)

    def _psi_slope(self, phi: float, I: float) -> float:
        """dpsi/dI = K beta (I_eq/I)^beta / I = beta (K - psi) / I, with
        K = sin(delta)/(1 - cos(delta)); raises where psi raises."""
        psi, delta = self._psi(phi, I), self.mat.delta
        return beta_exponent(delta) * (math.sin(delta) / (1.0 - math.cos(delta)) - psi) / I

    def yield_function(self, phi: float, I: float) -> float:
        return math.sin(self.mat.delta) + math.cos(self.mat.delta) * self._psi(phi, I)

    def dilatancy(self, phi: float, p: float, I: float) -> float:
        return self._psi(phi, I)

    def dZ_dI(self, phi: float, I: float) -> float:
        return math.cos(self.mat.delta) * self._psi_slope(phi, I)

    def df_dI(self, phi: float, p: float, I: float) -> float:
        return self._psi_slope(phi, I)

    def _gain_lhs(self, I: float) -> float:  # exact, no i_eq(phi_eq(I)) round trip
        return 2.0 * math.sin(self.mat.delta) / (2.0 + math.cos(self.mat.delta))


@dataclass(frozen=True)
class MuIDilatant(_ModelBase):
    """mu(I) rheology with a dilatation angle: Z = mu(I) + psi, f = psi,
    psi = G(I) - G(I_eq) per :func:`dilatancy_angle_mui`.  The dissipation
    gap is Z - f = mu(I) > 0.  Not defined at phi = phi_max (log-singular
    G at I_eq = 0)."""

    def _psi(self, phi: float, I: float) -> float:
        return dilatancy_angle_mui(*self._consts(), self.i_eq(phi), I)

    def _psi_slope(self, phi: float, I: float) -> float:
        """dpsi/dI = G'(I) = 2 mu(I)/(3I) - mu'(I)/3; raises where psi raises."""
        ieq = self.i_eq(phi)
        if ieq <= 0:
            raise _needs_positive_i_eq(ieq)
        if I <= 0:
            raise _needs_positive_I("G(I)", I)
        consts = self._consts()
        return 2.0 * friction_mu(*consts, I) / (3.0 * I) - friction_mu_prime(*consts, I) / 3.0

    def yield_function(self, phi: float, I: float) -> float:
        return friction_mu(*self._consts(), I) + self._psi(phi, I)

    def dilatancy(self, phi: float, p: float, I: float) -> float:
        return self._psi(phi, I)

    def dZ_dI(self, phi: float, I: float) -> float:
        return friction_mu_prime(*self._consts(), I) + self._psi_slope(phi, I)

    def df_dI(self, phi: float, p: float, I: float) -> float:
        return self._psi_slope(phi, I)

    def _gain_lhs(self, I: float) -> float:  # exact, no i_eq(phi_eq(I)) round trip
        mu, mup = friction_mu(*self._consts(), I), friction_mu_prime(*self._consts(), I)
        return (2.0 * mu - I * mup) / 3.0


@dataclass(frozen=True)
class RouxRadjai(_ModelBase):
    """Critical-state closure f = a (phi - phi_eq(I)).

    The sign structure is built in (expansion above the equilibrium packing,
    compaction below), but the pair does not satisfy the consistency
    equation: this is the canonical negative control for the condition
    checker.  ``z_mode`` selects the yield coefficient:

    * ``"small-angle"``: Z = sin(delta) + cos(delta) f,
    * ``"dp"``: plain Z = sin(delta).
    """

    gain: float = field(kw_only=True)
    z_mode: str = field(default="small-angle", kw_only=True)

    def __post_init__(self) -> None:
        if self.z_mode not in ("small-angle", "dp"):
            raise ValueError(f"unknown z_mode {self.z_mode!r}")
        if not math.isfinite(self.gain):
            raise ValueError(f"Roux-Radjai gain must be finite, got {self.gain}")

    def yield_function(self, phi: float, I: float) -> float:
        z = math.sin(self.mat.delta)
        if self.z_mode == "small-angle":
            z += math.cos(self.mat.delta) * self.dilatancy(phi, 0.0, I)
        return z

    def dilatancy(self, phi: float, p: float, I: float) -> float:
        if I <= 0:
            raise _needs_positive_I("dilatancy", I)
        return self.gain * (phi - self.phi_eq(I))

    def dZ_dI(self, phi: float, I: float) -> float:
        if self.z_mode == "dp":
            return 0.0
        return math.cos(self.mat.delta) * self.df_dI(phi, 0.0, I)

    def df_dI(self, phi: float, p: float, I: float) -> float:
        """df/dI = -a phi_eq'(I)."""
        if I <= 0:
            raise _needs_positive_I("dilatancy", I)
        return -self.gain * phi_eq_prime(self.law, self.mat, I)

    def near_equilibrium_gain(self, I: float) -> float:
        return self.gain


@dataclass(frozen=True)
class LinearCombination(_ModelBase):
    """phi-weighted linear combination of compliant (Z, f) pairs.

    The consistency equation is linear in (Z, f) and involves no phi
    derivative, so weights may depend on phi; each term's f vanishes at the
    shared equilibrium, hence so does the sum.  The weights depend on phi
    only, so each slope in I or p is the weighted sum of the terms' slopes
    (per :func:`_slopes`).
    """

    terms: tuple = field(kw_only=True)  # of (weight, model); weight float or callable

    @staticmethod
    def _w(weight, phi: float) -> float:
        return weight(phi) if callable(weight) else float(weight)

    def yield_function(self, phi: float, I: float) -> float:
        return sum(
            self._w(w, phi) * m.yield_function(phi, I) for w, m in self.terms
        )

    def dilatancy(self, phi: float, p: float, I: float) -> float:
        return sum(self._w(w, phi) * m.dilatancy(phi, p, I) for w, m in self.terms)

    def _weighted_slope(self, k: int, phi: float, *args: float) -> float:
        return sum(self._w(w, phi) * _slopes(m)[k](phi, *args) for w, m in self.terms)

    def dZ_dI(self, phi: float, I: float) -> float:
        return self._weighted_slope(0, phi, I)

    def df_dI(self, phi: float, p: float, I: float) -> float:
        return self._weighted_slope(1, phi, p, I)

    def df_dp(self, phi: float, p: float, I: float) -> float:
        return self._weighted_slope(2, phi, p, I)

    def near_equilibrium_gain(self, I: float) -> float:
        phi_star = self.phi_eq(I)
        return sum(
            self._w(w, phi_star) * m.near_equilibrium_gain(I) for w, m in self.terms
        )


@dataclass(frozen=True)
class DerivedNumeric(_ModelBase):
    """Model whose dilatancy is derived from a caller-supplied Z by
    quadrature (:func:`derive_f_numeric`).

    Quadratures are memoised per (phi, I), as f does not depend on p, so
    evaluation behaves as a pure function from the outside.
    """

    Z: Callable[[float, float], float] = field(kw_only=True)

    def __post_init__(self) -> None:
        # lru_cache is thread-safe and never caches an exception.
        object.__setattr__(self, "_memo", functools.lru_cache(maxsize=None)(self._derive))

    def _derive(self, phi: float, I: float) -> float:
        return derive_f_numeric(self.Z, self.law, self.mat, phi, 0.0, I)

    def yield_function(self, phi: float, I: float) -> float:
        return self.Z(phi, I)

    def dilatancy(self, phi: float, p: float, I: float) -> float:
        return self._memo(phi, I)


@dataclass(frozen=True)
class Isochoric:
    """Wrap a model with its dilatancy forced to zero (div u = 0).

    This is the incompressible limit that the consistency condition rules
    out; used as a negative control in the stability checks.  f and its
    slopes are 0; every other attribute (Z, dZ/dI, mat, law, i_eq) is the
    base's.
    """

    base: object

    def __getattr__(self, name: str):
        # Reached only for names the wrapper lacks.  copy and pickle look up
        # dunders on an instance whose ``base`` is not yet set.
        if name == "base" or name.startswith("__"):
            raise AttributeError(name)
        return getattr(self.base, name)

    def dilatancy(self, phi: float, p: float, I: float) -> float:
        return 0.0

    df_dI = df_dp = dilatancy

    def near_equilibrium_gain(self, I: float) -> float:
        return 0.0


# ----------------------------------------------------------------------
# Divergence law and model catalogue
# ----------------------------------------------------------------------

def div_u(model, state: FlowState, mat: MaterialParams) -> float:
    """Velocity divergence div u = 2 |S| f(phi, p, I) at a flow state.

    Returns 0 when the state is unsheared (the product vanishes regardless
    of f).  The inertial number is computed from ``mat``, which also is
    where the i_eq anchor inside f gets its packing constants.
    """
    if state.shear == 0.0:
        return 0.0
    I = inertial_number(mat, state.shear, state.p)
    return 2.0 * state.shear * model.dilatancy(state.phi, state.p, I)


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
    ``power:2`` or ``power:-0.5``) and ``roux-radjai``.  ``z_override="dp"``
    forces the plain sin(delta) yield coefficient on the Roux-Radjai model.
    """
    mat = mat if mat is not None else MaterialParams()
    law = law if law is not None else EquilibriumLaw()
    if z_override is not None and model_id != "roux-radjai":
        raise ValueError("z_override only applies to the roux-radjai model")
    if model_id in _CATALOGUE:
        return _CATALOGUE[model_id](mat, law)
    if model_id.startswith("power:"):
        return PowerLaw(mat, law, n=float(model_id.split(":", 1)[1]))
    if model_id == "roux-radjai":
        if rr_gain is None:
            raise ValueError("roux-radjai needs a gain: pass rr_gain (--rr-gain)")
        mode = "dp" if z_override == "dp" else "small-angle"
        return RouxRadjai(mat, law, gain=rr_gain, z_mode=mode)
    raise ValueError(f"unknown model id {model_id!r}; known: {', '.join(MODEL_IDS)}")
