"""Symbolic certificates of the factored models' df/dI.

Each of dp, mui, dp-psi and mui-psi is written here in sympy as a pair
(Z, f) of I, I_eq and the material constants, from the paper's
definitions: mu(I)'s F from the primitive M of mu, which sympy integrates.
sympy proves that each pair satisfies the consistency equation
Z - (I/2) dZ/dI = f + I df/dI and the anchor f(I_eq) = 0 identically, and
takes df/dI, which mpmath evaluates at 50 digits at the model's own
``i_eq(phi)`` to check the hand-written ``df_dI``.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from granupore.materials import EquilibriumLaw, glass_beads
from granupore.rheology import build_model

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


def _lambdify(expr):
    return sp.lambdify((I, I_EQ, *CONSTANTS), expr, "mpmath")


#: Model id -> (f, df/dI) as mpmath functions of (I, I_eq, mu1, mu2, I0, delta).
EXACT = {name: (_lambdify(f), _lambdify(sp.diff(f, I))) for name, (_, f) in PAIRS.items()}


@pytest.mark.parametrize("name", list(PAIRS))
def test_pair_is_consistent_and_anchored(name):
    Z, f = PAIRS[name]
    residual = Z - I / 2 * sp.diff(Z, I) - f - I * sp.diff(f, I)
    assert sp.simplify(residual) == 0
    assert sp.simplify(f.subs(I, I_EQ)) == 0


@pytest.mark.parametrize("law", LAWS)
@pytest.mark.parametrize("name", list(PAIRS))
@given(phi=st.floats(0.40, MAT.phi_max), log_I=st.floats(math.log(1e-6), math.log(1e3)))
@settings(max_examples=100, deadline=None)
def test_df_dI_matches_symbolic(name, law, phi, log_I):
    """The closed-form df/dI equals sympy's d/dI of f, at the model's own
    float I_eq(phi), to 1e-14 of max(|df/dI|, |f|/I)."""
    model, I_value = build_model(name, MAT, EquilibriumLaw(law)), math.exp(log_I)
    try:
        got = model.df_dI(phi, 100.0, I_value)
    except ValueError:  # outside the law's range, or mui-psi at phi_max
        assume(False)
    f, df_dI = EXACT[name]
    with mpmath.workdps(50):
        args = (I_value, model.i_eq(phi), MAT.mu1, MAT.mu2, MAT.I0, MAT.delta)
        args = [mpmath.mpf(a) for a in args]
        exact = df_dI(*args)
        assert abs(got - exact) <= 1e-14 * max(abs(exact), abs(f(*args)) / args[0])
