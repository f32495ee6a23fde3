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
        raise ValueError(f"mu'(I) undefined for I < 0, got {I}")
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
        raise ValueError(f"G(I) requires I > 0, got {I}")
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
        raise ValueError(
            f"mu(I) dilatancy angle requires I_eq > 0 (phi < phi_max), got {i_eq_value}"
        )
    return mui_angle_primitive(mu1, mu2, I0, I) - mui_angle_primitive(
        mu1, mu2, I0, i_eq_value
    )


# ----------------------------------------------------------------------
# f from Z by quadrature
# ----------------------------------------------------------------------

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
    """Shared state of every constitutive model: material constants and the
    equilibrium law used for the f anchor."""

    mat: MaterialParams = MaterialParams()
    law: EquilibriumLaw = EquilibriumLaw()

    def i_eq(self, phi: float) -> float:
        return law_i_eq(self.law, self.mat, phi)

    def phi_eq(self, I: float) -> float:
        return law_phi_eq(self.law, self.mat, I)

    def _consts(self) -> tuple[float, float, float]:
        return self.mat.mu1, self.mat.mu2, self.mat.I0

    def near_equilibrium_gain(self, I: float) -> float:
        """Slope df/dphi at the equilibrium packing phi_eq(I) of a compliant
        pair, (Z - (I/2) dZ/dI) (-1/phi_eq'(I)) / I, where ``_gain_lhs``
        gives the model's Z - (I/2) dZ/dI at phi_eq(I)."""
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
            raise ValueError(f"dilatancy requires I > 0, got {I}")
        return math.sin(self.mat.delta) * (1.0 - self.i_eq(phi) / I)

    def _gain_lhs(self, I: float) -> float:
        return math.sin(self.mat.delta)


@dataclass(frozen=True)
class MuI(_ModelBase):
    """mu(I) rheology with the dilatancy law integrated from consistency:
    f = F(I) - (I_eq/I) F(I_eq)."""

    def yield_function(self, phi: float, I: float) -> float:
        return friction_mu(*self._consts(), I)

    def dilatancy(self, phi: float, p: float, I: float) -> float:
        if I <= 0:
            raise ValueError(f"dilatancy requires I > 0, got {I}")
        ieq = self.i_eq(phi)
        f = mui_shear_factor(*self._consts(), I)
        if ieq > 0.0:
            f -= ieq / I * mui_shear_factor(*self._consts(), ieq)
        return f

    def _gain_lhs(self, I: float) -> float:
        mu, mup = friction_mu(*self._consts(), I), friction_mu_prime(*self._consts(), I)
        return mu - 0.5 * I * mup


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
        if self.n == -1.0:
            raise ValueError("power-law exponent n = -1 is excluded")

    def yield_function(self, phi: float, I: float) -> float:
        if I < 0 or (I == 0.0 and self.n < 0):
            raise ValueError(f"Z = I^n undefined at I={I} for n={self.n}")
        return self.coefficient * I**self.n

    def dilatancy(self, phi: float, p: float, I: float) -> float:
        if I <= 0:
            raise ValueError(f"dilatancy requires I > 0, got {I}")
        ieq = self.i_eq(phi)
        if ieq == 0.0 and self.n < -1.0:
            raise ValueError(
                f"I^{self.n} is not integrable down to the equilibrium I_eq = 0"
            )
        c = self.coefficient * (2.0 - self.n) / (2.0 * (self.n + 1.0))
        return c * (I**self.n - ieq ** (self.n + 1.0) / I)

    def _gain_lhs(self, I: float) -> float:
        return self.coefficient * I**self.n * (2.0 - self.n) / 2.0


@dataclass(frozen=True)
class DruckerPragerDilatant(_ModelBase):
    """Drucker-Prager with a dilatation angle in the small-angle closure:
    Z = sin(delta) + cos(delta) psi, f = psi, psi per
    :func:`dilatancy_angle_dp`.  The dissipation gap is
    Z - f = sin(delta) (I_eq/I)^beta > 0."""

    def _psi(self, phi: float, I: float) -> float:
        return dilatancy_angle_dp(self.mat.delta, self.i_eq(phi), I)

    def yield_function(self, phi: float, I: float) -> float:
        return math.sin(self.mat.delta) + math.cos(self.mat.delta) * self._psi(phi, I)

    def dilatancy(self, phi: float, p: float, I: float) -> float:
        return self._psi(phi, I)

    def _gain_lhs(self, I: float) -> float:
        return 2.0 * math.sin(self.mat.delta) / (2.0 + math.cos(self.mat.delta))


@dataclass(frozen=True)
class MuIDilatant(_ModelBase):
    """mu(I) rheology with a dilatation angle: Z = mu(I) + psi, f = psi,
    psi = G(I) - G(I_eq) per :func:`dilatancy_angle_mui`.  The dissipation
    gap is Z - f = mu(I) > 0.  Not defined at phi = phi_max (log-singular
    G at I_eq = 0)."""

    def _psi(self, phi: float, I: float) -> float:
        return dilatancy_angle_mui(*self._consts(), self.i_eq(phi), I)

    def yield_function(self, phi: float, I: float) -> float:
        return friction_mu(*self._consts(), I) + self._psi(phi, I)

    def dilatancy(self, phi: float, p: float, I: float) -> float:
        return self._psi(phi, I)

    def _gain_lhs(self, I: float) -> float:
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

    gain: float | None = field(default=None, kw_only=True)
    z_mode: str = field(default="small-angle", kw_only=True)

    def __post_init__(self) -> None:
        if self.z_mode not in ("small-angle", "dp"):
            raise ValueError(f"unknown z_mode {self.z_mode!r}")
        if self.gain is not None and not math.isfinite(self.gain):
            raise ValueError(f"Roux-Radjai gain must be finite, got {self.gain}")

    def _a(self) -> float:
        a = self.gain if self.gain is not None else self.mat.a_rr
        if a is None:
            raise ValueError(
                "Roux-Radjai gain not configured: set model gain or material a_rr"
            )
        return a

    def yield_function(self, phi: float, I: float) -> float:
        z = math.sin(self.mat.delta)
        if self.z_mode == "small-angle":
            z += math.cos(self.mat.delta) * self.dilatancy(phi, 0.0, I)
        return z

    def dilatancy(self, phi: float, p: float, I: float) -> float:
        if I <= 0:
            raise ValueError(f"dilatancy requires I > 0, got {I}")
        return self._a() * (phi - self.phi_eq(I))

    def near_equilibrium_gain(self, I: float) -> float:
        return self._a()


@dataclass(frozen=True)
class LinearCombination(_ModelBase):
    """phi-weighted linear combination of compliant (Z, f) pairs.

    The consistency equation is linear in (Z, f) and involves no phi
    derivative, so weights may depend on phi; each term's f vanishes at the
    shared equilibrium, hence so does the sum.
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
    I1: float | None = field(default=None, kw_only=True)

    def __post_init__(self) -> None:
        # lru_cache is thread-safe and never caches an exception.
        object.__setattr__(self, "_memo", functools.lru_cache(maxsize=None)(self._derive))

    def _derive(self, phi: float, I: float) -> float:
        return derive_f_numeric(self.Z, self.law, self.mat, phi, 0.0, I, self.I1)

    def yield_function(self, phi: float, I: float) -> float:
        return self.Z(phi, I)

    def dilatancy(self, phi: float, p: float, I: float) -> float:
        return self._memo(phi, I)

    def _gain_lhs(self, I: float) -> float:
        phi_star = self.phi_eq(I)
        h = 1e-6 * max(I, 1e-3)
        dz = (self.Z(phi_star, I + h) - self.Z(phi_star, I - h)) / (2.0 * h)
        return self.Z(phi_star, I) - 0.5 * I * dz


@dataclass(frozen=True)
class Isochoric:
    """Wrap a model with its dilatancy forced to zero (div u = 0).

    This is the incompressible limit that the consistency condition rules
    out; used as a negative control in the stability checks.
    """

    base: object

    @property
    def mat(self) -> MaterialParams:
        return self.base.mat

    @property
    def law(self) -> EquilibriumLaw:
        return self.base.law

    def i_eq(self, phi: float) -> float:
        return self.base.i_eq(phi)

    def phi_eq(self, I: float) -> float:
        return self.base.phi_eq(I)

    def yield_function(self, phi: float, I: float) -> float:
        return self.base.yield_function(phi, I)

    def dilatancy(self, phi: float, p: float, I: float) -> float:
        return 0.0

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


MODEL_IDS = ("dp", "mui", "dp-psi", "mui-psi", "power:<n>", "roux-radjai")


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
    if model_id == "dp":
        return DruckerPrager(mat, law)
    if model_id == "mui":
        return MuI(mat, law)
    if model_id == "dp-psi":
        return DruckerPragerDilatant(mat, law)
    if model_id == "mui-psi":
        return MuIDilatant(mat, law)
    if model_id.startswith("power:"):
        return PowerLaw(mat, law, n=float(model_id.split(":", 1)[1]))
    if model_id == "roux-radjai":
        gain = rr_gain if rr_gain is not None else mat.a_rr
        if gain is None:
            raise ValueError(
                "roux-radjai needs a gain: pass rr_gain or set the material a_rr"
            )
        mode = "dp" if z_override == "dp" else "small-angle"
        return RouxRadjai(mat, law, gain=gain, z_mode=mode)
    raise ValueError(f"unknown model id {model_id!r}; known: {', '.join(MODEL_IDS)}")
