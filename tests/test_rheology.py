"""Yield/dilatancy catalogue: closed forms, quadrature oracle, gains."""

import copy
import math
import pickle
import sys
import threading

import numpy as np
import pytest

from granupore.materials import EquilibriumLaw, FlowState, glass_beads, i_eq, phi_eq_prime
from granupore.rheology import (
    MODEL_IDS,
    DerivedNumeric,
    DruckerPrager,
    DruckerPragerDilatant,
    Isochoric,
    LinearCombination,
    MuI,
    MuIDilatant,
    PowerLaw,
    RouxRadjai,
    _central,
    _slopes,
    beta_exponent,
    build_model,
    derive_f_numeric,
    dilatancy_angle_dp,
    dilatancy_angle_mui,
    div_u,
    friction_mu,
    friction_mu_prime,
    mui_angle_primitive,
    mui_shear_factor,
)

MAT = glass_beads()
LAW = EquilibriumLaw()
SIN_D = math.sin(MAT.delta)
COS_D = math.cos(MAT.delta)

DP = DruckerPrager(MAT, LAW)
MUI = MuI(MAT, LAW)
DP_PSI = DruckerPragerDilatant(MAT, LAW)
MUI_PSI = MuIDilatant(MAT, LAW)
BUILTINS = (DP, MUI, DP_PSI, MUI_PSI)


class TestFrictionLaw:
    def test_low_I_limit(self):
        assert friction_mu(MAT.mu1, MAT.mu2, MAT.I0, 1e-12) == pytest.approx(
            MAT.mu1, abs=1e-9
        )

    def test_value_at_I0(self):
        # mu(I0) = mu1 + (mu2 - mu1)/2, oracle arithmetic with tan 21/33 deg
        assert friction_mu(MAT.mu1, MAT.mu2, MAT.I0, 0.3) == pytest.approx(
            0.5166358141164632, rel=1e-12
        )

    def test_derivative(self):
        I = 0.3
        h = 1e-7
        fd = (
            friction_mu(MAT.mu1, MAT.mu2, MAT.I0, I + h)
            - friction_mu(MAT.mu1, MAT.mu2, MAT.I0, I - h)
        ) / (2 * h)
        assert friction_mu_prime(MAT.mu1, MAT.mu2, MAT.I0, I) == pytest.approx(
            fd, rel=1e-7
        )


class TestShearFactorF:
    def test_low_I_limit(self):
        assert mui_shear_factor(MAT.mu1, MAT.mu2, MAT.I0, 1e-12) == pytest.approx(
            MAT.mu1, abs=1e-8
        )

    def test_value_at_I0(self):
        # H(1) = 1/2 - 3 ln 2; quadrature oracle F = 3M/(2I) - mu/2 agrees
        assert mui_shear_factor(MAT.mu1, MAT.mu2, MAT.I0, 0.3) == pytest.approx(
            0.4397023297541665, rel=1e-11
        )

    def test_quadrature_oracle(self):
        from scipy.integrate import quad

        for I in (0.05, 0.3, 2.0):
            m, _ = quad(
                lambda J: friction_mu(MAT.mu1, MAT.mu2, MAT.I0, J),
                0.0,
                I,
                epsabs=1e-13,
                epsrel=1e-13,
            )
            oracle = 1.5 * m / I - 0.5 * friction_mu(MAT.mu1, MAT.mu2, MAT.I0, I)
            assert mui_shear_factor(MAT.mu1, MAT.mu2, MAT.I0, I) == pytest.approx(
                oracle, rel=1e-10
            )

    @pytest.mark.parametrize("I", [0.01, 0.3, 3.0, 30.0])
    def test_mu_minus_F_positive(self, I):
        gap = friction_mu(MAT.mu1, MAT.mu2, MAT.I0, I) - mui_shear_factor(
            MAT.mu1, MAT.mu2, MAT.I0, I
        )
        assert gap > 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            mui_shear_factor(MAT.mu1, MAT.mu2, MAT.I0, 0.0)


class TestDilatancyAngles:
    def test_beta_exponent(self):
        # 2 (1 - cos 30) / (2 + cos 30), 40-digit oracle 0.0934915622441133
        assert beta_exponent(math.radians(30)) == pytest.approx(
            0.0934915622441133, abs=1e-12
        )

    def test_dp_angle_zero_at_equilibrium(self):
        assert dilatancy_angle_dp(MAT.delta, 0.7, 0.7) == 0.0

    def test_dp_angle_value(self):
        # frozen from integrating (2+cos d) I psi' + 2(1-cos d) psi = 2 sin d
        # from I_eq=0.5 to I=1 (solve_ivp, rtol 1e-13): 0.23417985496889
        assert dilatancy_angle_dp(MAT.delta, 0.5, 1.0) == pytest.approx(
            0.2341798549688897, rel=1e-10
        )

    def test_dp_angle_sign(self):
        assert dilatancy_angle_dp(MAT.delta, 0.5, 1.0) > 0
        assert dilatancy_angle_dp(MAT.delta, 0.5, 0.25) < 0

    def test_dp_angle_ode_residual(self):
        # the closed form must satisfy the consistency ODE pointwise
        c, s = COS_D, SIN_D
        for I in (0.3, 0.8, 2.0):
            h = 1e-6 * I
            dpsi = (
                dilatancy_angle_dp(MAT.delta, 0.5, I + h)
                - dilatancy_angle_dp(MAT.delta, 0.5, I - h)
            ) / (2 * h)
            psi = dilatancy_angle_dp(MAT.delta, 0.5, I)
            resid = (2.0 + c) * I * dpsi + 2.0 * (1.0 - c) * psi - 2.0 * s
            assert abs(resid) < 1e-7

    def test_mui_angle_primitive_value(self):
        # G(0.3) oracle: (mu2-mu1)/3 (1/2 + 2 ln 2), cross-checked by
        # quadrature of G' = 2 mu/(3I) - mu'/3
        assert mui_angle_primitive(MAT.mu1, MAT.mu2, MAT.I0, 0.3) == pytest.approx(
            0.16696443879762374, rel=1e-12
        )

    def test_mui_angle_zero_at_equilibrium(self):
        assert dilatancy_angle_mui(MAT.mu1, MAT.mu2, MAT.I0, 0.4, 0.4) == 0.0

    def test_mui_angle_value_and_sign(self):
        psi = dilatancy_angle_mui(MAT.mu1, MAT.mu2, MAT.I0, 0.1, 0.3)
        assert psi == pytest.approx(0.3307956325433281, rel=1e-12)
        assert psi > 0.0

    def test_mui_angle_increasing(self):
        Is = np.linspace(0.05, 5.0, 50)
        psis = [dilatancy_angle_mui(MAT.mu1, MAT.mu2, MAT.I0, 0.5, I) for I in Is]
        assert all(a < b for a, b in zip(psis, psis[1:]))

    def test_domains(self):
        with pytest.raises(ValueError):
            dilatancy_angle_mui(MAT.mu1, MAT.mu2, MAT.I0, 0.0, 1.0)
        with pytest.raises(ValueError):
            dilatancy_angle_dp(MAT.delta, 0.5, 0.0)
        with pytest.raises(ValueError):
            beta_exponent(0.0)


class TestYieldFunctions:
    def test_dp_constant(self):
        for phi, I in ((0.4, 0.1), (0.55, 2.0)):
            assert DP.yield_function(phi, I) == pytest.approx(0.5)

    def test_mui_low_I(self):
        assert MUI.yield_function(0.5, 1e-12) == pytest.approx(MAT.mu1, abs=1e-9)

    def test_mui_at_I0(self):
        assert MUI.yield_function(0.5, 0.3) == pytest.approx(
            0.5166358141164632, rel=1e-12
        )

    def test_power_law_n0_is_one(self):
        model = PowerLaw(MAT, LAW, n=0.0)
        assert model.yield_function(0.5, 0.0) == 1.0

    def test_power_law_excludes_minus_one(self):
        with pytest.raises(ValueError):
            PowerLaw(MAT, LAW, n=-1.0)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            (dict(n=math.nan), "n"),
            (dict(n=math.inf), "n"),
            (dict(n=1.0, coefficient=math.nan), "coefficient"),
        ],
        ids=["n-nan", "n-inf", "coefficient-nan"],
    )
    def test_power_law_rejects_non_finite(self, kwargs, name):
        with pytest.raises(ValueError, match=f"^power-law {name} must be finite"):
            PowerLaw(MAT, LAW, **kwargs)


class TestDilatancyFunctions:
    PHIS = np.arange(0.40, 0.60, 0.05).tolist() + [0.595]

    @pytest.mark.parametrize(
        "model",
        [DP, MUI, DP_PSI, MUI_PSI, PowerLaw(MAT, LAW, n=3.0),
         RouxRadjai(MAT, LAW, gain=1.0)],
        ids=["dp", "mui", "dp-psi", "mui-psi", "power3", "roux-radjai"],
    )
    def test_equilibrium_anchor(self, model):
        for phi in self.PHIS:
            ieq = i_eq(LAW, MAT, phi)
            assert abs(model.dilatancy(phi, 1000.0, ieq)) < 1e-12

    def test_dp_value(self):
        assert DP.dilatancy(0.5, 1000.0, 1.0) == pytest.approx(0.25, abs=1e-15)

    def test_power2_identically_zero(self):
        model = PowerLaw(MAT, LAW, n=2.0)
        for phi in (0.42, 0.5, 0.58):
            for I in (0.1, 1.0, 5.0):
                assert model.dilatancy(phi, 50.0, I) == 0.0

    @pytest.mark.parametrize("model", BUILTINS, ids=["dp", "mui", "dp-psi", "mui-psi"])
    def test_sign_property(self, model):
        # f > 0 above the equilibrium inertial number, f < 0 below
        for phi in np.linspace(0.40, 0.595, 20):
            ieq = i_eq(LAW, MAT, phi)
            for factor in np.linspace(1.1, 4.0, 10):
                assert model.dilatancy(phi, 500.0, factor * ieq) > 0
                assert model.dilatancy(phi, 500.0, ieq / factor) < 0

    def test_mui_at_phi_max(self):
        # I_eq = 0: the (I_eq/I) F(I_eq) term vanishes, leaving F(I) > 0
        val = MUI.dilatancy(MAT.phi_max, 100.0, 0.7)
        assert val == pytest.approx(
            mui_shear_factor(MAT.mu1, MAT.mu2, MAT.I0, 0.7), rel=1e-12
        )
        assert val > 0

    def test_dp_psi_at_phi_max(self):
        assert DP_PSI.dilatancy(MAT.phi_max, 100.0, 1.0) == pytest.approx(
            SIN_D / (1.0 - COS_D), rel=1e-12
        )

    def test_mui_psi_rejects_phi_max(self):
        with pytest.raises(ValueError):
            MUI_PSI.dilatancy(MAT.phi_max, 100.0, 1.0)

    def test_roux_radjai_needs_gain(self):
        with pytest.raises(TypeError, match="gain"):
            RouxRadjai(MAT, LAW)
        with pytest.raises(ValueError, match="roux-radjai needs a gain"):
            build_model("roux-radjai", MAT, LAW)

    @pytest.mark.parametrize("gain", [math.nan, -math.inf])
    def test_roux_radjai_rejects_non_finite_gain(self, gain):
        with pytest.raises(ValueError, match=f"^Roux-Radjai gain must be finite, got {gain}$"):
            RouxRadjai(MAT, LAW, gain=gain)

    def test_domain(self):
        with pytest.raises(ValueError):
            DP.dilatancy(0.5, 100.0, 0.0)


class TestDissipationGapClosedForms:
    def test_dp_psi_gap(self):
        b = beta_exponent(MAT.delta)
        for phi in (0.42, 0.5, 0.58):
            ieq = i_eq(LAW, MAT, phi)
            for I in (0.2, 1.0, 5.0):
                gap = DP_PSI.yield_function(phi, I) - DP_PSI.dilatancy(phi, 0.0, I)
                assert gap == pytest.approx(SIN_D * (ieq / I) ** b, abs=1e-12)

    def test_mui_psi_gap(self):
        for phi in (0.42, 0.5, 0.58):
            for I in (0.2, 1.0, 5.0):
                gap = MUI_PSI.yield_function(phi, I) - MUI_PSI.dilatancy(phi, 0.0, I)
                assert gap == pytest.approx(
                    friction_mu(MAT.mu1, MAT.mu2, MAT.I0, I), abs=1e-12
                )


class TestCentral:
    def test_fd_convergence_order(self):
        # halving the step shrinks the error by ~4 on a smooth function
        mu = lambda I: friction_mu(MAT.mu1, MAT.mu2, MAT.I0, I)
        exact = friction_mu_prime(MAT.mu1, MAT.mu2, MAT.I0, 0.5)
        e_h = _central(mu, 0.5, 1e-2) - exact
        e_h2 = _central(mu, 0.5, 5e-3) - exact
        assert e_h / e_h2 == pytest.approx(4.0, rel=0.25)


class TestDeriveFNumeric:
    def test_reproduces_dp(self):
        val = derive_f_numeric(DP.yield_function, LAW, MAT, 0.5, 1000.0, 1.0)
        assert val == pytest.approx(0.25, abs=1e-9)

    def test_reproduces_table_row_n1(self):
        val = derive_f_numeric(lambda phi, I: I, LAW, MAT, 0.5, 1000.0, 1.0)
        assert val == pytest.approx(0.1875, abs=1e-9)

    def test_reproduces_mui(self):
        val = derive_f_numeric(MUI.yield_function, LAW, MAT, 0.52, 1000.0, 0.7)
        assert val == pytest.approx(MUI.dilatancy(0.52, 1000.0, 0.7), abs=1e-8)
        assert val == pytest.approx(0.22474677854005548, abs=1e-8)

    @pytest.mark.parametrize("n", [0.0, 1.0, 2.0, 3.0, -0.5])
    def test_reproduces_power_rows(self, n):
        model = PowerLaw(MAT, LAW, n=n)
        for phi in (0.42, 0.5, 0.57):
            for I in (0.05, 0.7, 4.0):
                closed = model.dilatancy(phi, 100.0, I)
                derived = derive_f_numeric(
                    model.yield_function, LAW, MAT, phi, 100.0, I
                )
                assert derived == pytest.approx(closed, abs=1e-8)

    def test_anchor_gauge_invariance(self):
        a = derive_f_numeric(MUI.yield_function, LAW, MAT, 0.5, 100.0, 0.8, I1=0.01)
        b = derive_f_numeric(MUI.yield_function, LAW, MAT, 0.5, 100.0, 0.8, I1=1.0)
        assert a == pytest.approx(b, abs=1e-9)

    def test_linearity_with_phi_weights(self):
        w1 = lambda phi: phi
        w2 = lambda phi: 1.0 - 0.5 * phi
        combined_Z = lambda phi, I: (
            w1(phi) * DP.yield_function(phi, I) + w2(phi) * MUI.yield_function(phi, I)
        )
        for phi in (0.45, 0.55):
            for I in (0.3, 1.5):
                derived = derive_f_numeric(combined_Z, LAW, MAT, phi, 100.0, I)
                expected = w1(phi) * DP.dilatancy(phi, 100.0, I) + w2(
                    phi
                ) * MUI.dilatancy(phi, 100.0, I)
                assert derived == pytest.approx(expected, abs=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            derive_f_numeric(DP.yield_function, LAW, MAT, 0.5, 100.0, 0.0)


class TestLinearCombinationModel:
    MODEL = LinearCombination(
        MAT, LAW, terms=((lambda phi: phi, DP), (lambda phi: 1.0 - 0.5 * phi, MUI))
    )

    def test_matches_term_sum(self):
        for phi in (0.45, 0.55):
            for I in (0.3, 1.5):
                expected = phi * DP.dilatancy(phi, 10.0, I) + (
                    1.0 - 0.5 * phi
                ) * MUI.dilatancy(phi, 10.0, I)
                assert self.MODEL.dilatancy(phi, 10.0, I) == pytest.approx(expected)

    def test_anchor(self):
        ieq = i_eq(LAW, MAT, 0.5)
        assert abs(self.MODEL.dilatancy(0.5, 10.0, ieq)) < 1e-12

    def test_constant_weights(self):
        model = LinearCombination(MAT, LAW, terms=((0.25, DP), (0.75, MUI)))
        assert model.yield_function(0.5, 0.3) == pytest.approx(
            0.25 * 0.5 + 0.75 * 0.5166358141164632, rel=1e-12
        )


class TestDerivedNumericModel:
    def test_matches_builtin(self):
        model = DerivedNumeric(MAT, LAW, Z=MUI.yield_function)
        assert model.dilatancy(0.52, 100.0, 0.7) == pytest.approx(
            MUI.dilatancy(0.52, 100.0, 0.7), abs=1e-8
        )

    def test_cache_is_transparent(self):
        calls = []

        def Z(phi, I):
            calls.append((phi, I))
            return SIN_D

        model = DerivedNumeric(MAT, LAW, Z=Z)
        first = model.dilatancy(0.5, 100.0, 1.0)
        n_calls = len(calls)
        second = model.dilatancy(0.5, 100.0, 1.0)
        assert first == second
        assert len(calls) == n_calls  # memoised

    def test_memo_ignores_p(self):
        calls = []

        def Z(phi, I):
            calls.append((phi, I))
            return MUI.yield_function(phi, I)

        model = DerivedNumeric(MAT, LAW, Z=Z)
        first = model.dilatancy(0.5, 100.0, 1.0)
        n_calls = len(calls)
        assert model.dilatancy(0.5, 5000.0, 1.0) == first
        assert len(calls) == n_calls

    def test_df_dp_is_the_base_zero(self):
        model = DerivedNumeric(MAT, LAW, Z=MUI.yield_function)
        assert _slopes(model)[2] == model.df_dp
        assert model.df_dp(0.5, 100.0, 0.7) == 0.0
        with pytest.raises(ValueError, match="no equilibrium inertial number"):
            model.df_dp(0.61, 100.0, 0.7)

    def test_memo_shared_by_threads(self):
        keys = [(phi, I) for phi in (0.45, 0.5, 0.55) for I in (0.3, 1.0, 3.0)]
        reference = DerivedNumeric(MAT, LAW, Z=MUI.yield_function)
        want = {key: reference.dilatancy(key[0], 100.0, key[1]) for key in keys}
        model = DerivedNumeric(MAT, LAW, Z=MUI.yield_function)
        got, errors = [], []

        def work():
            try:
                got.extend((key, model.dilatancy(key[0], 100.0, key[1])) for key in keys)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(got) == 4 * len(keys)
        assert all(value == want[key] for key, value in got)

    def test_singular_Z_uses_safe_anchor(self):
        model = DerivedNumeric(MAT, LAW, Z=lambda phi, I: I**-0.5)
        ref = PowerLaw(MAT, LAW, n=-0.5)
        assert model.dilatancy(0.5, 100.0, 1.0) == pytest.approx(
            ref.dilatancy(0.5, 100.0, 1.0), abs=1e-8
        )


class TestNearEquilibriumGain:
    def test_dp_value(self):
        assert DP.near_equilibrium_gain(1.0) == pytest.approx(2.5, rel=1e-12)

    def test_dp_psi_value(self):
        # 2 sin d / ((2 + cos d) dphi I), oracle arithmetic
        assert DP_PSI.near_equilibrium_gain(1.0) == pytest.approx(
            1.7445763018700942, rel=1e-12
        )

    def test_mui_psi_value(self):
        # G'(1)/dphi with G' = 2 mu/(3I) - mu'/3
        assert MUI_PSI.near_equilibrium_gain(1.0) == pytest.approx(
            1.8818645189275376, rel=1e-12
        )

    @pytest.mark.parametrize("model", BUILTINS, ids=["dp", "mui", "dp-psi", "mui-psi"])
    @pytest.mark.parametrize("I", [0.5, 1.0, 2.0])
    def test_matches_fd_slope(self, model, I):
        # a must equal the slope of f in phi at the equilibrium packing
        phi_star = model.phi_eq(I)
        h = 1e-6
        slope = (
            model.dilatancy(phi_star + h, 200.0, I)
            - model.dilatancy(phi_star - h, 200.0, I)
        ) / (2.0 * h)
        assert model.near_equilibrium_gain(I) == pytest.approx(slope, rel=1e-4)

    @pytest.mark.parametrize("variant", ["schaeffer", "robinson", "breard"])
    @pytest.mark.parametrize("model", BUILTINS, ids=["dp", "mui", "dp-psi", "mui-psi"])
    @pytest.mark.parametrize("I", [0.05, 0.5, 2.0])
    def test_nonlinear_law_closed_form(self, model, variant, I):
        # The gain factors into a model part, which the linear law scales by
        # 1/delta_phi, and the slope -1/phi_eq'(I) of the law.
        law = EquilibriumLaw(variant)
        slope = {
            "schaeffer": (1.0 + I) ** 2 / MAT.delta_phi,
            "robinson": 1.0 / (law.A * law.a * I ** (law.a - 1.0)),
            "breard": (1.0 + I) ** 2 / MAT.phi_max,
        }[variant]
        expected = model.near_equilibrium_gain(I) * MAT.delta_phi * slope
        got = type(model)(MAT, law).near_equilibrium_gain(I)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_roux_radjai_gain_is_a(self):
        model = RouxRadjai(MAT, LAW, gain=1.7)
        assert model.near_equilibrium_gain(1.0) == 1.7

    @pytest.mark.parametrize("variant", ["linear", "schaeffer", "robinson", "breard"])
    @pytest.mark.parametrize("n", [0.5, -0.5, 3.0])
    @pytest.mark.parametrize("I", [0.05, 0.5, 2.0])
    def test_power_law_closed_form(self, n, variant, I):
        # Z - (I/2) Z' = c I^n (2 - n)/2 at the equilibrium packing
        law = EquilibriumLaw(variant)
        model = PowerLaw(MAT, law, n=n, coefficient=0.7)
        expected = 0.7 * I**n * (2.0 - n) / 2.0 * (-1.0 / phi_eq_prime(law, MAT, I)) / I
        assert model.near_equilibrium_gain(I) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("variant", ["linear", "schaeffer", "robinson", "breard"])
    @pytest.mark.parametrize("I", [0.05, 0.5, 2.0])
    def test_derived_numeric_matches_mui(self, variant, I):
        law = EquilibriumLaw(variant)
        mu = lambda phi, J: friction_mu(MAT.mu1, MAT.mu2, MAT.I0, J)
        got = DerivedNumeric(MAT, law, Z=mu).near_equilibrium_gain(I)
        assert got == pytest.approx(MuI(MAT, law).near_equilibrium_gain(I), rel=1e-6)

    @pytest.mark.parametrize("I", [0.05, 0.5, 2.0])
    def test_linear_combination_is_weighted_sum(self, I):
        model = TestLinearCombinationModel.MODEL
        phi_star = model.phi_eq(I)
        expected = phi_star * DP.near_equilibrium_gain(I) + (
            1.0 - 0.5 * phi_star
        ) * MUI.near_equilibrium_gain(I)
        assert model.near_equilibrium_gain(I) == pytest.approx(expected, rel=1e-15)

    # Pinned bitwise (float.hex): the base's gain rule over a central dZ/dI.
    @pytest.mark.parametrize(
        "variant,I,expected",
        [
            ("linear", 0.05, "0x1.426ec259ecbefp+5"),
            ("linear", 2.0, "0x1.9942e11ffa178p+0"),
            ("schaeffer", 0.5, "0x1.791e66664ac6cp+3"),
            ("robinson", 2.0, "0x1.a94db742923b3p+1"),
            ("breard", 0.05, "0x1.dc28f5c2a747dp+3"),
        ],
    )
    def test_derived_numeric_pinned(self, variant, I, expected):
        Z = lambda phi, J: 0.38 + 0.27 * J / (J + 0.3) + 0.1 * (0.6 - phi)
        model = DerivedNumeric(MAT, EquilibriumLaw(variant), Z=Z)
        assert model.near_equilibrium_gain(I).hex() == expected

    def test_isochoric_gain_is_zero(self):
        assert Isochoric(MUI).near_equilibrium_gain(1.0) == 0.0

    @pytest.mark.parametrize(
        "model",
        BUILTINS + (PowerLaw(MAT, LAW, n=0.5), DerivedNumeric(MAT, LAW, Z=lambda phi, I: 0.4)),
        ids=["dp", "mui", "dp-psi", "mui-psi", "power", "derived"],
    )
    @pytest.mark.parametrize("I", [0.0, -1.0])
    def test_needs_positive_I(self, model, I):
        with pytest.raises(ValueError, match="gain requires I > 0"):
            model.near_equilibrium_gain(I)


class TestDivU:
    def test_zero_at_equilibrium(self):
        phi = 0.5
        ieq = i_eq(LAW, MAT, phi)
        p = 1000.0
        shear = ieq * math.sqrt(p / MAT.rho_s) / MAT.d
        state = FlowState(phi=phi, p=p, shear=shear)
        assert abs(div_u(DP, state, MAT)) < 1e-12

    def test_zero_shear_short_circuits(self):
        state = FlowState(phi=0.5, p=1000.0, shear=0.0)
        assert div_u(DP, state, MAT) == 0.0

    def test_dp_two_forms_agree(self):
        mat = glass_beads(d=1e-3)
        model = DruckerPrager(mat, LAW)
        phi, p = 0.5, 1000.0
        shear = 1.0 * math.sqrt(p / mat.rho_s) / mat.d  # I = 1
        state = FlowState(phi=phi, p=p, shear=shear)
        generic = div_u(model, state, mat)
        lam = 1.0 / (mat.delta_phi * mat.d * math.sqrt(mat.rho_s))
        closed = 2.0 * SIN_D * shear - 2.0 * lam * SIN_D * (
            mat.phi_max - phi
        ) * math.sqrt(p)
        assert generic == pytest.approx(316.22776601683796, rel=1e-12)
        assert generic == pytest.approx(closed, rel=1e-9)

    def test_mui_two_forms_agree(self):
        mat = glass_beads(d=1e-3)
        model = MuI(mat, LAW)
        phi, p = 0.5, 1000.0
        for I in (0.3, 1.0, 2.5):
            shear = I * math.sqrt(p / mat.rho_s) / mat.d
            state = FlowState(phi=phi, p=p, shear=shear)
            generic = div_u(model, state, mat)
            ieq = i_eq(LAW, mat, phi)
            f_tilde = (
                ieq
                * mui_shear_factor(mat.mu1, mat.mu2, mat.I0, ieq)
                / (mat.d * math.sqrt(mat.rho_s))
            )
            closed = (
                2.0 * mui_shear_factor(mat.mu1, mat.mu2, mat.I0, I) * shear
                - 2.0 * f_tilde * math.sqrt(p)
            )
            assert generic == pytest.approx(closed, rel=1e-9)

    @pytest.mark.parametrize("model", BUILTINS, ids=["dp", "mui", "dp-psi", "mui-psi"])
    def test_sign_of_div_u(self, model):
        phi, p = 0.5, 500.0
        ieq = i_eq(LAW, MAT, phi)
        for I, positive in ((2.0 * ieq, True), (0.5 * ieq, False)):
            shear = I * math.sqrt(p / MAT.rho_s) / MAT.d
            state = FlowState(phi=phi, p=p, shear=shear)
            value = div_u(model, state, MAT)
            assert (value > 0) == positive


class TestIsochoricWrapper:
    def test_zero_dilatancy(self):
        model = Isochoric(DP)
        assert model.dilatancy(0.5, 100.0, 1.0) == 0.0
        assert model.yield_function(0.5, 1.0) == pytest.approx(SIN_D)

    def test_delegates_to_base(self):
        base = MuI(MAT, EquilibriumLaw(variant="schaeffer"))
        model = Isochoric(base)
        assert model.mat is base.mat
        assert model.law is base.law
        for I in (0.05, 0.5, 2.0):
            assert model.phi_eq(I) == base.phi_eq(I)
        assert model.i_eq(0.5) == base.i_eq(0.5)

    def test_exposes_base_z_and_slope(self):
        base = MuIDilatant(MAT, EquilibriumLaw(variant="robinson"))
        model = Isochoric(base)
        for I in (0.05, 0.5, 2.0):
            assert model.yield_function(0.5, I) == base.yield_function(0.5, I)
            assert model.dZ_dI(0.5, I) == base.dZ_dI(0.5, I)
            assert model.df_dI(0.5, 100.0, I) == model.df_dp(0.5, 100.0, I) == 0.0

    def test_central_slope_of_derived_base(self):
        base = DerivedNumeric(MAT, LAW, Z=lambda phi, I: 0.4 + 0.2 * I / (I + 0.3) - phi)
        iso_dz, base_dz = _slopes(Isochoric(base))[0], _slopes(base)[0]
        for phi, I in ((0.45, 0.05), (0.5, 0.7), (0.58, 3.0)):
            assert iso_dz(phi, I).hex() == base_dz(phi, I).hex()

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda m: pickle.loads(pickle.dumps(m))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_round_trip(self, clone):
        model = Isochoric(MuI(MAT, EquilibriumLaw(variant="breard")))
        twin = clone(model)
        assert twin == model
        assert twin.law == model.law and twin.i_eq(0.5) == model.i_eq(0.5)
        assert twin.yield_function(0.5, 1.0) == model.yield_function(0.5, 1.0)
        assert twin.dilatancy(0.5, 100.0, 1.0) == 0.0

    def test_missing_attribute_raises(self):
        with pytest.raises(AttributeError):
            Isochoric(DP).no_such_attribute


class TestCatalogue:
    @pytest.mark.parametrize(
        "model_id,cls",
        [
            ("dp", DruckerPrager),
            ("mui", MuI),
            ("dp-psi", DruckerPragerDilatant),
            ("mui-psi", MuIDilatant),
            ("roux-radjai", RouxRadjai),
        ],
    )
    def test_ids(self, model_id, cls):
        assert isinstance(build_model(model_id, MAT, rr_gain=1.0), cls)

    def test_power_id(self):
        model = build_model("power:-0.5", MAT)
        assert isinstance(model, PowerLaw) and model.n == -0.5

    def test_z_override(self):
        model = build_model("roux-radjai", MAT, rr_gain=1.0, z_override="dp")
        assert model.yield_function(0.5, 1.0) == pytest.approx(SIN_D)

    def test_roux_radjai_id_needs_gain(self):
        with pytest.raises(ValueError, match="gain"):
            build_model("roux-radjai", MAT)

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            build_model("herschel-bulkley", MAT)

    @pytest.mark.parametrize("model_id", MODEL_IDS)
    def test_every_listed_id_builds(self, model_id):
        model = build_model(model_id.replace("<n>", "1.5"), MAT, rr_gain=2.0)
        assert model.yield_function(0.5, 1.0) > 0.0

    def test_unknown_id_lists_ids_in_order(self):
        message = (
            "unknown model id 'herschel-bulkley'; known: "
            "dp, mui, dp-psi, mui-psi, power:<n>, roux-radjai"
        )
        with pytest.raises(ValueError) as err:
            build_model("herschel-bulkley", MAT)
        assert str(err.value) == message
