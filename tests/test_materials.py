"""Material parameters, equilibrium laws and dimensionless numbers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from granupore.materials import (
    EquilibriumLaw,
    FlowState,
    GasParams,
    MaterialParams,
    _bisect_i_eq,
    angle_from_div_u,
    div_u_from_angle,
    glass_beads,
    i_eq,
    inertial_number,
    phi_eq,
    phi_eq_prime,
    viscous_number,
)

MAT = glass_beads()
LINEAR = EquilibriumLaw()
NONLINEAR = [EquilibriumLaw(v) for v in ("schaeffer", "robinson", "breard")]


class TestParams:
    def test_glass_bead_defaults(self):
        assert MAT.mu1 == pytest.approx(math.tan(math.radians(21)))
        assert MAT.mu2 == pytest.approx(math.tan(math.radians(33)))
        assert MAT.I0 == 0.3
        assert MAT.phi_max == 0.6
        assert MAT.delta_phi == 0.2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rho_s": 0.0},
            {"d": -1e-4},
            {"phi_max": 1.2},
            {"delta_phi": 0.0},
            {"delta": 0.0},
            {"delta": math.pi},
            {"mu1": 0.7},  # violates mu1 < mu2
            {"I0": -0.3},
        ],
    )
    def test_invalid_material(self, kwargs):
        with pytest.raises(ValueError):
            MaterialParams(**kwargs)

    @pytest.mark.parametrize("name", ["rho_s", "d", "delta_phi", "I0"])
    def test_nan_material_rejected(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be positive, got nan$"):
            MaterialParams(**{name: math.nan})

    @pytest.mark.parametrize("name", ["eta_f", "p_atm", "rho_f0"])
    def test_nan_gas_rejected(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be positive, got nan$"):
            GasParams(**{name: math.nan})

    @pytest.mark.parametrize("name", ["rho_s", "d", "delta_phi", "mu1", "mu2", "I0"])
    def test_infinite_material_rejected(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got inf$"):
            MaterialParams(**{name: math.inf})

    @pytest.mark.parametrize("name", ["eta_f", "p_atm", "rho_f0"])
    def test_infinite_gas_rejected(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got inf$"):
            GasParams(**{name: math.inf})

    @pytest.mark.parametrize("name", ["A", "a"])
    def test_infinite_robinson_constant_rejected(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got inf$"):
            EquilibriumLaw("robinson", **{name: math.inf})

    @pytest.mark.parametrize("name", ["A", "a"])
    def test_nan_robinson_constant_rejected(self, name):
        with pytest.raises(ValueError, match="robinson law needs positive A and a"):
            EquilibriumLaw("robinson", **{name: math.nan})

    @pytest.mark.parametrize("name", ["p", "shear"])
    def test_flow_state_rejects_nan(self, name):
        kwargs = {"phi": 0.5, "p": 10.0, "shear": 1.0, name: math.nan}
        with pytest.raises(ValueError, match=f"^{name} must be non-negative, got nan$"):
            FlowState(**kwargs)

    def test_flow_state_invariants(self):
        with pytest.raises(ValueError):
            FlowState(phi=1.2, p=10.0, shear=1.0)
        with pytest.raises(ValueError):
            FlowState(phi=0.5, p=-1.0, shear=1.0)
        with pytest.raises(ValueError):
            FlowState(phi=0.5, p=10.0, shear=-1.0)


class TestInertialNumber:
    def test_zero_shear(self):
        assert inertial_number(MAT, 0.0, 123.0) == 0.0

    def test_direct_arithmetic(self):
        # cross-checked by inverting p = rho_s (d shear / I)^2
        mat = MaterialParams(d=1e-3, rho_s=2500.0)
        I = inertial_number(mat, 10.0, 1000.0)
        assert I == pytest.approx(0.015811388300841896, rel=1e-12)
        assert 2500.0 * (1e-3 * 10.0 / I) ** 2 == pytest.approx(1000.0, rel=1e-12)

    def test_small_grain(self):
        mat = MaterialParams(d=1e-4, rho_s=2500.0)
        assert inertial_number(mat, 1.0, 100.0) == pytest.approx(5.0e-4, rel=1e-12)

    def test_singular_pressure(self):
        with pytest.raises(ValueError):
            inertial_number(MAT, 1.0, 0.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="undefined for p <= 0, got p=nan"):
            inertial_number(MAT, 1.0, math.nan)
        with pytest.raises(ValueError, match="shear must be non-negative, got nan"):
            inertial_number(MAT, math.nan, 100.0)

    @given(s=st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=30)
    def test_homogeneity(self, s):
        # scaling shear by s and p by s^2 leaves I unchanged
        base = inertial_number(MAT, 7.0, 300.0)
        scaled = inertial_number(MAT, 7.0 * s, 300.0 * s * s)
        assert scaled == pytest.approx(base, rel=1e-10)


class TestViscousNumber:
    def test_zero_shear(self):
        assert viscous_number(GasParams(), 0.0, 5.0) == 0.0

    def test_values(self):
        gas = GasParams()
        assert viscous_number(gas, 10.0, 100.0) == pytest.approx(1.8e-6, rel=1e-12)
        assert viscous_number(gas, 100.0, 1.8e-3) == pytest.approx(1.0, rel=1e-12)

    def test_bad_pressure(self):
        with pytest.raises(ValueError):
            viscous_number(GasParams(), 1.0, 0.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="undefined for p <= 0, got p=nan"):
            viscous_number(GasParams(), 1.0, math.nan)
        with pytest.raises(ValueError, match="shear must be non-negative, got nan"):
            viscous_number(GasParams(), math.nan, 100.0)


class TestEquilibriumLaws:
    def test_linear_at_zero(self):
        assert phi_eq(LINEAR, MAT, 0.0) == pytest.approx(0.6)

    def test_linear_value(self):
        assert phi_eq(LINEAR, MAT, 1.0) == pytest.approx(0.4)

    def test_breard_at_zero(self):
        assert phi_eq(EquilibriumLaw("breard"), MAT, 0.0) == MAT.phi_max

    def test_negative_I(self):
        with pytest.raises(ValueError):
            phi_eq(LINEAR, MAT, -0.1)

    def test_linear_inverse_trivial(self):
        assert i_eq(LINEAR, MAT, MAT.phi_max) == 0.0
        assert i_eq(LINEAR, MAT, 0.5) == pytest.approx(0.5, abs=1e-15)
        assert i_eq(LINEAR, MAT, 0.4) == pytest.approx(1.0, abs=1e-15)

    def test_linear_roundtrip_exact(self):
        for I in np.linspace(0.0, 10.0, 23):
            assert i_eq(LINEAR, MAT, phi_eq(LINEAR, MAT, I)) == pytest.approx(
                I, abs=1e-12
            )

    @pytest.mark.parametrize(
        "law",
        [
            EquilibriumLaw("schaeffer"),
            EquilibriumLaw("robinson"),
            EquilibriumLaw("breard"),
        ],
    )
    def test_numeric_roundtrip(self, law):
        for I in (0.05, 0.3, 1.0, 4.0):
            phi = phi_eq(law, MAT, I)
            back = phi_eq(law, MAT, i_eq(law, MAT, phi))
            assert back == pytest.approx(phi, abs=1e-12)

    def test_phi_above_max_rejected(self):
        with pytest.raises(ValueError):
            i_eq(LINEAR, MAT, 0.61)

    @pytest.mark.parametrize("variant", ["linear", "schaeffer", "robinson", "breard"])
    def test_nan_phi_rejected(self, variant):
        with pytest.raises(ValueError, match="phi=nan"):
            i_eq(EquilibriumLaw(variant), MAT, math.nan)

    @pytest.mark.parametrize("variant", ["linear", "schaeffer", "robinson", "breard"])
    def test_phi_max_tops_every_law(self, variant):
        # i_eq's bisection brackets the root from I = 0 on this identity
        assert phi_eq(EquilibriumLaw(variant), MAT, 0.0) == MAT.phi_max

    def test_schaeffer_unreachable_phi(self):
        # range of the schaeffer law is (phi_max - delta_phi, phi_max]
        with pytest.raises(ValueError):
            i_eq(EquilibriumLaw("schaeffer"), MAT, 0.35)

    @pytest.mark.parametrize(
        "law",
        [
            LINEAR,
            EquilibriumLaw("schaeffer"),
            EquilibriumLaw("robinson"),
            EquilibriumLaw("breard"),
        ],
    )
    def test_strictly_decreasing(self, law):
        Is = np.linspace(1e-3, 10.0, 200)
        values = [phi_eq(law, MAT, I) for I in Is]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("variant", ["linear", "schaeffer", "robinson", "breard"])
    def test_slope_matches_central_difference(self, variant):
        law = EquilibriumLaw(variant)
        h = 1e-6
        for I in (0.05, 0.3, 1.0, 4.0):
            fd = (phi_eq(law, MAT, I + h) - phi_eq(law, MAT, I - h)) / (2.0 * h)
            assert phi_eq_prime(law, MAT, I) == pytest.approx(fd, rel=1e-7)

    def test_slope_negative_I(self):
        with pytest.raises(ValueError):
            phi_eq_prime(LINEAR, MAT, -0.1)

    @pytest.mark.parametrize("variant", ["linear", "schaeffer", "robinson", "breard"])
    def test_nan_I_rejected(self, variant):
        law = EquilibriumLaw(variant)
        for fun in (phi_eq, phi_eq_prime):
            with pytest.raises(ValueError, match="undefined for I < 0, got nan"):
                fun(law, MAT, math.nan)

    def test_robinson_defaults(self):
        law = EquilibriumLaw("robinson")
        assert law.A == 0.1305 and law.a == 0.8156

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            EquilibriumLaw("quadratic")


class TestIEqMemo:
    """i_eq memoises the bisection of the non-linear laws per (law, mat, phi)."""

    PHIS = [0.41, 0.45, 0.5, 0.5234567, 0.55, 0.59, 0.599999, MAT.phi_max]

    @pytest.mark.parametrize("law", NONLINEAR, ids=lambda law: law.variant)
    def test_hit_equals_bisection_bitwise(self, law):
        _bisect_i_eq.cache_clear()
        first = [i_eq(law, MAT, phi) for phi in self.PHIS]
        hits = [i_eq(law, MAT, phi) for phi in self.PHIS]
        info = _bisect_i_eq.cache_info()
        assert (info.misses, info.hits) == (len(self.PHIS), len(self.PHIS))
        direct = [_bisect_i_eq.__wrapped__(law, MAT, phi) for phi in self.PHIS]
        assert [x.hex() for x in first] == [x.hex() for x in direct]
        assert [x.hex() for x in hits] == [x.hex() for x in direct]

    @pytest.mark.parametrize("law", NONLINEAR, ids=lambda law: law.variant)
    @pytest.mark.parametrize("phi", [np.float64(0.5), np.array(0.5)], ids=["float64", "0-d"])
    def test_numpy_phi_returns_float(self, law, phi):
        _bisect_i_eq.cache_clear()
        for _ in range(2):  # a miss, then a hit
            value = i_eq(law, MAT, phi)
            assert type(value) is float
            assert value == _bisect_i_eq.__wrapped__(law, MAT, 0.5)

    def test_below_range_error_never_cached(self):
        law = EquilibriumLaw("schaeffer")
        before = _bisect_i_eq.cache_info()
        for _ in range(3):
            with pytest.raises(ValueError) as exc:
                i_eq(law, MAT, 0.35)
            assert str(exc.value) == "phi=0.35 below the range of the schaeffer law on [0, 1000.0]"
        assert _bisect_i_eq.cache_info() == before


class TestDilatancyAngleGeometry:
    def test_zero_angle_all_modes(self):
        for mode in ("planar2D", "exact3D", "small_angle"):
            assert div_u_from_angle(1.0, 0.0, mode) == 0.0

    def test_planar_30_degrees(self):
        assert div_u_from_angle(1.0, math.pi / 6, "planar2D") == pytest.approx(
            1.0, rel=1e-12
        )

    def test_exact3d_30_degrees(self):
        assert div_u_from_angle(1.0, math.pi / 6, "exact3D") == pytest.approx(
            0.9607689228305227, rel=1e-12
        )

    def test_inverse_planar(self):
        assert angle_from_div_u(1.0, 0.0) == 0.0
        assert angle_from_div_u(1.0, 1.0, "planar2D") == pytest.approx(
            math.pi / 6, rel=1e-12
        )

    @given(psi=st.floats(min_value=-1.3, max_value=1.3))
    @settings(max_examples=40)
    def test_roundtrip_both_modes(self, psi):
        for mode in ("planar2D", "exact3D", "small_angle"):
            divu = div_u_from_angle(2.5, psi, mode)
            assert angle_from_div_u(2.5, divu, mode) == pytest.approx(psi, abs=1e-12)

    def test_small_angle_agreement(self):
        # exact3D vs small-angle differ by O(psi^3): relative gap < psi^2 / 2
        for psi in np.linspace(1e-3, 0.3, 25):
            exact = div_u_from_angle(1.0, psi, "exact3D")
            small = div_u_from_angle(1.0, psi, "small_angle")
            assert abs(exact - small) / abs(small) < psi * psi / 2.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            div_u_from_angle(1.0, math.pi / 2, "planar2D")
        with pytest.raises(ValueError):
            angle_from_div_u(0.0, 1.0)
        with pytest.raises(ValueError):
            angle_from_div_u(1.0, 3.0, "planar2D")
        with pytest.raises(ValueError, match="outside"):
            angle_from_div_u(1.0, math.pi, "small_angle")
