"""Material parameters, equilibrium laws and dimensionless numbers."""

import math
import re

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
    _check_all,
    _check_amounts,
    _check_count,
    air,
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

    def test_air_defaults_and_overrides(self):
        assert air() == GasParams()
        assert air(p_atm=9e4) == GasParams(p_atm=9e4)

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

    @pytest.mark.parametrize("name", ["p", "shear"])
    def test_flow_state_rejects_infinite(self, name):
        kwargs = {"phi": 0.5, "p": 10.0, "shear": 1.0, name: math.inf}
        with pytest.raises(ValueError, match=f"^{name} must be finite, got inf$"):
            FlowState(**kwargs)

    def test_flow_state_checks_in_order(self):
        """phi, then p, then the shear: each error names the first bad field."""
        for kwargs, message in (
            ({"phi": 1.2, "p": math.inf, "shear": math.inf}, "phi must lie in [0, 1], got 1.2"),
            ({"phi": 0.5, "p": -math.inf, "shear": math.inf}, "p must be non-negative, got -inf"),
            ({"phi": 0.5, "p": math.inf, "shear": -1.0}, "p must be finite, got inf"),
            ({"phi": 0.5, "p": 10.0, "shear": -math.inf}, "shear must be non-negative, got -inf"),
        ):
            with pytest.raises(ValueError) as exc:
                FlowState(**kwargs)
            assert str(exc.value) == message

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

    def test_infinite_rejected(self):
        with pytest.raises(ValueError, match="^shear must be finite, got inf$"):
            inertial_number(MAT, math.inf, 1.0)
        with pytest.raises(ValueError, match="^p must be finite, got inf$"):
            inertial_number(MAT, 1.0, math.inf)

    @pytest.mark.parametrize("shear, p, message", [
        (math.inf, 0.0, "inertial number undefined for p <= 0, got p=0.0"),
        (-1.0, math.inf, "p must be finite, got inf"),
        (math.inf, -math.inf, "inertial number undefined for p <= 0, got p=-inf"),
    ])
    def test_pressure_checked_first(self, shear, p, message):
        with pytest.raises(ValueError) as exc:
            inertial_number(MAT, shear, p)
        assert str(exc.value) == message

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

    def test_infinite_rejected(self):
        with pytest.raises(ValueError, match="^shear must be finite, got inf$"):
            viscous_number(GasParams(), math.inf, 1.0)
        with pytest.raises(ValueError, match="^p must be finite, got inf$"):
            viscous_number(GasParams(), 1.0, math.inf)
        with pytest.raises(ValueError, match="^viscous number undefined for p <= 0, got p=0.0$"):
            viscous_number(GasParams(), math.inf, 0.0)


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

    @pytest.mark.parametrize("mode", ["planar2D", "exact3D", "small_angle"])
    def test_inverse_unsheared(self, mode):
        assert angle_from_div_u(0.0, 0.0, mode) == 0.0

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

    @pytest.mark.parametrize(
        "shear, message",
        [
            (-1.0, "shear must be non-negative, got -1.0"),
            (math.nan, "shear must be non-negative, got nan"),
            (math.inf, "shear must be finite, got inf"),
        ],
        ids=["negative", "nan", "infinite"],
    )
    def test_bad_shear_rejected(self, shear, message):
        with pytest.raises(ValueError) as exc:
            div_u_from_angle(shear, 0.3)
        assert str(exc.value) == message
        with pytest.raises(ValueError) as exc:
            angle_from_div_u(shear, 0.0)
        assert str(exc.value) == message

    def test_nan_angle_rejected(self):
        with pytest.raises(ValueError) as exc:
            div_u_from_angle(1.0, math.nan)
        assert str(exc.value) == "dilatancy angle must satisfy |psi| < pi/2, got nan"

    def test_exact3d_divergence_too_large(self):
        with pytest.raises(ValueError, match="^divergence too large for the 3D angle relation$"):
            angle_from_div_u(1.0, 4.0, "exact3D")

    @pytest.mark.parametrize("convert", [div_u_from_angle, angle_from_div_u])
    def test_unknown_mode(self, convert):
        with pytest.raises(ValueError, match="^unknown mode 'planar'$"):
            convert(1.0, 0.1, "planar")


#: Values planted in an otherwise valid array of positive amounts.
PLANTS = [math.nan, math.inf, -math.inf, -1.0, 0.0, -5e-324]


class TestInputDoors:
    @pytest.mark.parametrize(
        "value, least, message",
        [
            (2.5, 1, "n must be an integer, got 2.5"),
            (0, 1, "n must be at least 1, got 0"),
            (np.int64(-1), 0, "n must be at least 0, got -1"),
        ],
        ids=["float", "below", "numpy-below"],
    )
    def test_count_texts(self, value, least, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _check_count("n", value, least)

    def test_counts_pass(self):
        for value in (1, np.int64(3), 2**64):
            _check_count("n", value, 1)

    @given(
        shape=st.sampled_from([(), (1,), (5,), (2, 3), (4, 1)]),
        values=st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=12, max_size=12),
        plant=st.none() | st.tuples(st.sampled_from(PLANTS), st.integers(0, 11)),
        zero_ok=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_array_door_names_the_planted_value(self, shape, values, plant, zero_ok):
        """One bad value planted among good ones is the one the error names,
        with its index; with none planted, nothing raises."""
        arr = np.array(values[: math.prod(shape)]).reshape(shape)
        if plant is None:
            _check_amounts("x", arr, zero_ok)
            _check_all("x must be finite", arr)
            return
        bad, k = plant
        k %= arr.size
        arr.flat[k] = bad
        index = tuple(int(i) for i in np.unravel_index(k, shape))
        where = "" if not shape else f" at index {index[0] if len(shape) == 1 else index}"
        if bad == 0.0 and zero_ok:
            _check_amounts("x", arr, zero_ok)
            return
        rule = "finite" if bad == math.inf else ("non-negative" if zero_ok else "positive")
        with pytest.raises(ValueError) as exc:
            _check_amounts("x", arr, zero_ok)
        assert str(exc.value) == f"x must be {rule}, got {bad}{where}"
        if not math.isfinite(bad):
            with pytest.raises(ValueError) as exc:
                _check_all("x must be finite", arr)
            assert str(exc.value) == f"x must be finite, got {bad}{where}"
