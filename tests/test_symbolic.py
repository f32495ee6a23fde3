"""Symbolic certificates of the closed-form models' slopes.

Each of dp, mui, dp-psi, mui-psi and power:n is written here in sympy as a
pair (Z, f) of I, I_eq and the material constants, from the paper's
definitions: mu(I)'s F from the primitive M of mu, which sympy integrates,
and power:n with its exponent n and coefficient c as symbols.  sympy proves
that each pair satisfies the consistency equation
Z - (I/2) dZ/dI = f + I df/dI and the anchor f(I_eq) = 0 identically, and
that the dilatant pairs' exact gain terms hold.  It takes df/dI and dZ/dI,
which mpmath evaluates at 50 digits at the model's own ``i_eq(phi)`` to
check the hand-written ``df_dI`` and ``dZ_dI``, for power:n at four n.

Roux-Radjai, f = a (phi - phi_eq(I)) under each law and both ``z_mode``s,
is the negative control: sympy proves its C1 residual is
sin(delta) - (1 - cos(delta)) f - (1 + cos(delta)/2) I df/dI
(``small-angle``) or sin(delta) - f - I df/dI (``dp``), which at the
equilibrium packing tends to sin(delta) > 0 as I -> 0 at every gain a.
mpmath checks ``df_dI``, ``dZ_dI`` and ``residual_c1`` against sympy's at
hypothesis-drawn (phi, I, a).

Signs: for dp and dp-psi, sympy proves df/dp = 0 and df/dI > 0 at every
I > 0, I_eq > 0 (phi < phi_max) and delta in (0, pi/2), so their C3 value
df/dp - (I/(2p)) df/dI is negative at every point.  The C3 signs of mui and
mui-psi are only sampled, by the condition sweeps.

Combinations and the isochoric control: for dp and mui weighted by any
functions of phi (sympy ``Function``s), sympy reduces the C1 residual and
f(I_eq) of the combination to 0.  ``Isochoric`` keeps its base's Z and sets
f = 0, so its residual is Z - (I/2) dZ/dI: sin(delta) for dp, the residual
criterion 3's negative control fails on, and at least mu1 for mui.

A derived f: for a generic Z (a sympy ``Function``), f = W(I) - G/I with
W = (3/(2I)) int_{I1}^{I} Z dJ - Z/2 and any constant G, sympy proves
df/dI = (Z - f)/I - (1/2) dZ/dI identically: the slope
``DerivedNumeric.df_dI`` takes from f in place of a difference of f.

The ideal gas: sympy proves that H = (p_atm + p_f)[ln(1 + p_f/p_atm) - 1]
at p_f = Q(x) satisfies x H'(x) - H(x) = Q(x) + p_atm, the identity up to
the constant that acceptance criterion 9 allows, and mpmath checks
``enthalpy_ideal`` and ``IdealGasLaw.Q`` against it at 50 digits.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from granupore.conditions import residual_c1
from granupore.gas import IdealGasLaw, enthalpy_ideal
from granupore.materials import EquilibriumLaw, GasParams, glass_beads
from granupore.rheology import Isochoric, build_model

sp = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")

MAT = glass_beads()
LAWS = ("linear", "schaeffer", "robinson", "breard")

I, I_EQ, J = sp.symbols("I I_eq J", positive=True)
MU1, MU2, I0, DELTA = sp.symbols("mu1 mu2 I0 delta", positive=True)
CONSTANTS = (MU1, MU2, I0, DELTA)


def _mu(x):
    return MU1 + (MU2 - MU1) * x / (x + I0)  # finite at x = 0


def _I_times_F(x):
    """I F(I) = (3/2) M(I) - I mu(I)/2, with M the primitive of mu from 0;
    finite at I = 0, so f = F(I) - (I_eq/I) F(I_eq) needs no case at I_eq = 0."""
    return sp.Rational(3, 2) * sp.integrate(_mu(J), (J, 0, x)) - x * _mu(x) / 2


def _G(x):
    """The mu(I) dilatancy angle's primitive, whose slope the consistency
    identity below fixes to 2 mu/(3I) - mu'/3."""
    y = x / I0
    return 2 * MU1 / 3 * sp.log(y) + (MU2 - MU1) / 3 * (1 / (1 + y) + 2 * sp.log(1 + y))


_BETA = 2 * (1 - sp.cos(DELTA)) / (2 + sp.cos(DELTA))
_PSI_DP = sp.sin(DELTA) / (1 - sp.cos(DELTA)) * (1 - (I_EQ / I) ** _BETA)

#: Model id -> (Z, f) in sympy.
PAIRS = {
    "dp": (sp.sin(DELTA), sp.sin(DELTA) * (1 - I_EQ / I)),
    "mui": (_mu(I), (_I_times_F(I) - _I_times_F(I_EQ)) / I),
    "dp-psi": (sp.sin(DELTA) + sp.cos(DELTA) * _PSI_DP, _PSI_DP),
    "mui-psi": (_mu(I) + _G(I) - _G(I_EQ), _G(I) - _G(I_EQ)),
}

N, C = sp.symbols("n c", real=True)
#: power:n, Z = c I^n, for any n but -1, where f's factor has its pole.
POWER = (C * I**N, C * (2 - N) / (2 * (N + 1)) * (I**N - I_EQ ** (N + 1) / I))
#: The power:n models checked in floats; ``build_model`` takes c = 1.
POWER_NS = {"power:-0.5": sp.Rational(-1, 2), "power:0.5": sp.Rational(1, 2),
            "power:2": 2, "power:3": 3}


def _lambdify(expr):
    return sp.lambdify((I, I_EQ, *CONSTANTS), expr, "mpmath")


#: (model id, law) of the float checks: power:n under the linear law only,
#: since its Z and f read the law through I_eq alone.
SLOPE_CASES = [(name, law) for name in PAIRS for law in LAWS] + [(n, "linear") for n in POWER_NS]
#: Model id -> (Z, f) with every symbol but I, I_eq and the constants fixed.
FIXED = {**PAIRS, **{name: tuple(e.subs({N: n, C: 1}) for e in POWER)
                     for name, n in POWER_NS.items()}}
#: Model id -> (f, df/dI) as mpmath functions of (I, I_eq, mu1, mu2, I0, delta).
EXACT = {name: (_lambdify(f), _lambdify(sp.diff(f, I))) for name, (_, f) in FIXED.items()}
#: Model id -> (Z, dZ/dI), likewise.
EXACT_Z = {name: (_lambdify(Z), _lambdify(sp.diff(Z, I))) for name, (Z, _) in FIXED.items()}

#: The exact Z - (I/2) dZ/dI at I_eq = I of the dilatant pairs, which their
#: ``_gain_lhs`` returns in place of the base's rule at phi_eq(I).
GAIN_LHS = {
    "dp-psi": 2 * sp.sin(DELTA) / (2 + sp.cos(DELTA)),
    "mui-psi": (2 * _mu(I) - I * sp.diff(_mu(I), I)) / 3,
}


@pytest.mark.parametrize("name", [*PAIRS, "power:n"])
def test_pair_is_consistent_and_anchored(name):
    Z, f = POWER if name == "power:n" else PAIRS[name]
    residual = Z - I / 2 * sp.diff(Z, I) - f - I * sp.diff(f, I)
    assert sp.simplify(residual) == 0
    assert sp.simplify(f.subs(I, I_EQ)) == 0


def _assert_slope_matches(name, law, phi, log_I, slope, exact):
    """``slope(model, phi, I)`` equals sympy's d/dI of the function F that
    ``exact[name]`` pairs with it, at the model's own float I_eq(phi), to
    1e-14 of max(|dF/dI|, |F|/I)."""
    model, I_value = build_model(name, MAT, EquilibriumLaw(law)), math.exp(log_I)
    try:
        got, ieq = slope(model, phi, I_value), model.i_eq(phi)
    except ValueError:  # outside the law's range, or mui-psi at phi_max
        assume(False)
    F, dF_dI = exact[name]
    with mpmath.workdps(50):
        args = (I_value, ieq, MAT.mu1, MAT.mu2, MAT.I0, MAT.delta)
        args = [mpmath.mpf(a) for a in args]
        want = dF_dI(*args)
        assert abs(got - want) <= 1e-14 * max(abs(want), abs(F(*args)) / args[0])


@pytest.mark.parametrize("name, law", SLOPE_CASES)
@given(phi=st.floats(0.40, MAT.phi_max), log_I=st.floats(math.log(1e-6), math.log(1e3)))
@settings(max_examples=100, deadline=None)
def test_df_dI_matches_symbolic(name, law, phi, log_I):
    """The closed-form df/dI equals sympy's d/dI of f."""
    _assert_slope_matches(name, law, phi, log_I, lambda m, phi, I: m.df_dI(phi, 100.0, I), EXACT)


@pytest.mark.parametrize("name, law", SLOPE_CASES)
@given(phi=st.floats(0.40, MAT.phi_max), log_I=st.floats(math.log(1e-6), math.log(1e3)))
@settings(max_examples=100, deadline=None)
def test_dZ_dI_matches_symbolic(name, law, phi, log_I):
    """The closed-form dZ/dI equals sympy's d/dI of Z."""
    _assert_slope_matches(name, law, phi, log_I, lambda m, phi, I: m.dZ_dI(phi, I), EXACT_Z)


@pytest.mark.parametrize("name", list(GAIN_LHS))
def test_exact_gain_lhs(name):
    """Z - (I/2) dZ/dI at I_eq = I is identically the dilatant model's
    ``_gain_lhs``, which equals it to 1e-15 at 50 digits."""
    Z, _ = PAIRS[name]
    lhs = (Z - I / 2 * sp.diff(Z, I)).subs(I_EQ, I)
    assert sp.simplify(lhs - GAIN_LHS[name]) == 0
    model, exact = build_model(name, MAT), _lambdify(GAIN_LHS[name])
    for I_value in (1e-6, 1e-3, 0.3, 1.0, 1e3):
        with mpmath.workdps(50):
            args = [mpmath.mpf(a) for a in (I_value, I_value, MAT.mu1, MAT.mu2, MAT.I0, MAT.delta)]
            value = exact(*args)
            assert abs(model._gain_lhs(I_value) - value) <= 1e-15 * abs(value)


PHI, GAIN = sp.symbols("phi a", real=True)
PHI_MAX, DELTA_PHI, ROB_A, ROB_ALPHA = sp.symbols("phi_max delta_phi A alpha", positive=True)
#: Law -> phi_eq(I), as ``materials.phi_eq`` writes it.
PHI_EQ = {
    "linear": PHI_MAX - DELTA_PHI * I,
    "schaeffer": PHI_MAX - DELTA_PHI * I / (1 + I),
    "robinson": PHI_MAX - ROB_A * I**ROB_ALPHA,
    "breard": PHI_MAX / (1 + I),
}


def _roux_radjai(law, z_mode):
    """Roux-Radjai's (Z, f): f = a (phi - phi_eq(I)), and Z = sin(delta) +
    cos(delta) f (``small-angle``) or sin(delta) (``dp``)."""
    f = GAIN * (PHI - PHI_EQ[law])
    return (sp.sin(DELTA) + sp.cos(DELTA) * f if z_mode == "small-angle" else sp.sin(DELTA)), f


def _rr_c1_residual(law, z_mode):
    """The stated C1 residual: sin(delta) - (1 - cos(delta)) f - (1 + cos(delta)/2) I df/dI
    for ``small-angle``, sin(delta) - f - I df/dI for ``dp``, with df/dI = -a phi_eq'(I)."""
    _, f = _roux_radjai(law, z_mode)
    I_df = -GAIN * I * sp.diff(PHI_EQ[law], I)
    if z_mode == "dp":
        return sp.sin(DELTA) - f - I_df
    return sp.sin(DELTA) - (1 - sp.cos(DELTA)) * f - (1 + sp.cos(DELTA) / 2) * I_df


RR_CASES = [(law, z_mode) for law in LAWS for z_mode in ("small-angle", "dp")]
#: The arguments of the Roux-Radjai expressions, in lambdify's order.
RR_ARGS = (I, PHI, GAIN, PHI_MAX, DELTA_PHI, ROB_A, ROB_ALPHA, DELTA)


@pytest.mark.parametrize("law, z_mode", RR_CASES)
def test_roux_radjai_c1_residual(law, z_mode):
    """Roux-Radjai's C1 residual is the stated one, and at the equilibrium
    packing it tends to sin(delta) > 0 as I -> 0 for every gain: criterion
    3's negative control fails C1 at small I."""
    Z, f = _roux_radjai(law, z_mode)
    residual = Z - I / 2 * sp.diff(Z, I) - f - I * sp.diff(f, I)
    stated = _rr_c1_residual(law, z_mode)
    assert sp.simplify(residual - stated) == 0
    at_equilibrium = stated.subs(PHI, PHI_EQ[law])
    assert sp.limit(at_equilibrium, I, 0, "+") == sp.sin(DELTA)


#: (law, z_mode) -> (f, df/dI, Z, dZ/dI, C1 residual) as mpmath functions of RR_ARGS.
RR_EXACT = {
    case: tuple(sp.lambdify(RR_ARGS, e, "mpmath") for e in (
        f, sp.diff(f, I), Z, sp.diff(Z, I), _rr_c1_residual(*case)))
    for case in RR_CASES for Z, f in [_roux_radjai(*case)]
}


@pytest.mark.parametrize("law, z_mode", RR_CASES)
@given(phi=st.floats(0.40, MAT.phi_max), log_I=st.floats(math.log(1e-6), math.log(1e3)),
       gain=st.floats(-10.0, 10.0).filter(lambda a: a == 0.0 or abs(a) >= 1e-3))
@settings(max_examples=100, deadline=None)
def test_roux_radjai_slopes_match_symbolic(law, z_mode, phi, log_I, gain):
    """Roux-Radjai's df/dI and dZ/dI equal sympy's d/dI of f and Z, and
    ``residual_c1`` the stated residual, at 50 digits."""
    equilibrium = EquilibriumLaw(law)
    model = build_model("roux-radjai", MAT, equilibrium, rr_gain=gain, z_override=z_mode)
    I_value = math.exp(log_I)
    f, df_dI, Z, dZ_dI, c1 = RR_EXACT[law, z_mode]
    with mpmath.workdps(50):
        args = [mpmath.mpf(a) for a in (I_value, phi, gain, MAT.phi_max, MAT.delta_phi,
                                        equilibrium.A, equilibrium.a, MAT.delta)]
        for got, F, dF_dI in ((model.df_dI(phi, 100.0, I_value), f, df_dI),
                              (model.dZ_dI(phi, I_value), Z, dZ_dI)):
            want = dF_dI(*args)
            assert abs(got - want) <= 1e-14 * max(abs(want), abs(F(*args)) / args[0])
        terms = (Z(*args), args[0] * dZ_dI(*args), f(*args), args[0] * df_dI(*args))
        assert abs(residual_c1(model, phi, 100.0, I_value) - c1(*args)) <= 1e-14 * max(
            1.0, *(abs(t) for t in terms))


P = sp.symbols("p", positive=True)
#: sin(delta) and cos(delta) through u = tan(delta/2) = 1/(1 + t) with t > 0,
#: which covers delta in (0, pi/2), the range ``beta_exponent`` admits.
T = sp.symbols("t", positive=True)
_U = 1 / (1 + T)
HALF_ANGLE = {sp.sin(DELTA): 2 * _U / (1 + _U**2), sp.cos(DELTA): (1 - _U**2) / (1 + _U**2)}


def test_half_angle_substitution():
    for trig, value in HALF_ANGLE.items():
        assert sp.simplify(trig.subs(DELTA, 2 * sp.atan(_U)) - value) == 0


@pytest.mark.parametrize("name", ["dp", "dp-psi"])
def test_c3_holds_everywhere(name):
    """df/dp = 0 and df/dI > 0 (dp: sin(delta) I_eq/I^2; dp-psi:
    K beta (I_eq/I)^beta / I), so the C3 value is negative at every p > 0."""
    _, f = PAIRS[name]
    slope = sp.simplify(sp.diff(f, I).subs(HALF_ANGLE))
    assert sp.diff(f, P) == 0 and slope.is_positive
    assert (sp.diff(f, P) - I / (2 * P) * slope).is_negative


def test_derived_slope_identity():
    """The slope of f = W - G/I that solves C1 is (Z - f)/I - Z'/2, for any
    Z, anchor I1 and equilibrium term G = I_eq W(I_eq)."""
    Z, I1, G = sp.Function("Z"), *sp.symbols("I1 G", positive=True)
    f = sp.Rational(3, 2) / I * sp.Integral(Z(J), (J, I1, I)) - Z(I) / 2 - G / I
    slope = (Z(I) - f) / I - sp.diff(Z(I), I) / 2
    assert sp.simplify(sp.diff(f, I) - slope) == 0


def test_linear_combination_is_consistent_and_anchored():
    """dp and mui weighted by any functions w1 and w2 of phi, with I_eq any
    function of phi too: C1 takes no phi derivative, so the combination's
    residual is identically 0, and so is its f at I = I_eq."""
    w1, w2, i_eq = (sp.Function(name)(PHI) for name in ("w1", "w2", "i_eq"))
    (Z1, f1), (Z2, f2) = PAIRS["dp"], PAIRS["mui"]
    Z, f = ((w1 * a + w2 * b).subs(I_EQ, i_eq) for a, b in ((Z1, Z2), (f1, f2)))
    assert sp.simplify(Z - I / 2 * sp.diff(Z, I) - f - I * sp.diff(f, I)) == 0
    assert sp.simplify(f.subs(I, i_eq)) == 0


#: Isochoric's C1 residual, its base's Z - (I/2) dZ/dI as f = 0, in a form
#: whose sign is plain: sin(delta) > 0 for dp, and for mui at least mu1 > 0.
ISOCHORIC_RESIDUAL = {
    "dp": sp.sin(DELTA),
    "mui": MU1 + (MU2 - MU1) * I * (2 * I + I0) / (2 * (I + I0) ** 2),
}


@pytest.mark.parametrize("name", list(ISOCHORIC_RESIDUAL))
def test_isochoric_residual(name):
    """The residual criterion 3's isochoric negative control fails on is not
    zero, and ``residual_c1`` gives it to 1e-15 at 50 digits."""
    Z, f = PAIRS[name][0], sp.S.Zero
    residual = Z - I / 2 * sp.diff(Z, I) - f - I * sp.diff(f, I)
    assert sp.simplify(residual - ISOCHORIC_RESIDUAL[name]) == 0
    assert (I * (2 * I + I0) / (2 * (I + I0) ** 2)).is_nonnegative
    model, exact = Isochoric(build_model(name, MAT)), _lambdify(ISOCHORIC_RESIDUAL[name])
    for phi, I_value in ((0.45, 1e-6), (0.55, 0.3), (0.59, 1e3)):
        with mpmath.workdps(50):
            value = exact(*(mpmath.mpf(a) for a in (I_value, 0, MAT.mu1, MAT.mu2, MAT.I0,
                                                    MAT.delta)))
            assert abs(residual_c1(model, phi, 100.0, I_value) - value) <= 1e-15 * abs(value)


P_ATM, RHO_F0, X = sp.symbols("p_atm rho_f0 x", positive=True)
P_F = sp.symbols("p_f", real=True)
#: The ideal gas's state law Q(x) = p_atm (x/rho_f0 - 1) and the closed-form H of p_f.
Q_IDEAL = P_ATM * (X / RHO_F0 - 1)
H_IDEAL = (P_ATM + P_F) * (sp.log(1 + P_F / P_ATM) - 1)


def test_ideal_gas_energy_identity():
    """x H' - H - Q is the constant p_atm, and the code's H and Q equal the
    sympy ones at 50 digits."""
    H = H_IDEAL.subs(P_F, Q_IDEAL)
    assert sp.simplify(X * sp.diff(H, X) - H - Q_IDEAL) == P_ATM
    gas = GasParams()
    H_of = sp.lambdify((P_F, P_ATM), H_IDEAL, "mpmath")
    Q_of = sp.lambdify((X, P_ATM, RHO_F0), Q_IDEAL, "mpmath")
    for ratio in (-0.99, -0.5, -1e-3, 0.0, 1e-3, math.e - 1.0, 5.0):
        p_f = ratio * gas.p_atm
        with mpmath.workdps(50):
            want = H_of(mpmath.mpf(p_f), mpmath.mpf(gas.p_atm))
            scale = (gas.p_atm + abs(p_f)) * (abs(math.log1p(ratio)) + 1.0)
            assert abs(enthalpy_ideal(gas, p_f) - want) <= 1e-14 * scale
            rho = gas.rho_f0 * (1.0 + ratio)
            want = Q_of(*(mpmath.mpf(v) for v in (rho, gas.p_atm, gas.rho_f0)))
            assert abs(IdealGasLaw(gas).Q(rho) - want) <= 1e-14 * (gas.p_atm + abs(p_f))
