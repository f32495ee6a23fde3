"""Gas state laws, drag/permeability closures and the energy function H."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from granupore.gas import (
    CustomStateLaw,
    IdealGasLaw,
    darcy_fluid_velocity,
    drag_beta,
    enthalpy_from_statelaw,
    enthalpy_ideal,
    permeability_kappa,
    pf_from_rho,
    rho_from_pf,
    state_law_from_csv,
)
from granupore.materials import GasParams

GAS = GasParams()
D = 1.0e-4


class TestDragAndPermeability:
    def test_beta_vanishes_at_zero_phi(self):
        assert drag_beta(GAS, D, 0.0) == 0.0

    def test_beta_value(self):
        assert drag_beta(GAS, D, 0.5) == pytest.approx(1.35e5, rel=1e-12)

    def test_beta_monotone_towards_packing(self):
        assert drag_beta(GAS, D, 0.99) > drag_beta(GAS, D, 0.9) > drag_beta(GAS, D, 0.5)

    def test_beta_domain(self):
        with pytest.raises(ValueError):
            drag_beta(GAS, D, 1.0)

    def test_kappa_value(self):
        assert permeability_kappa(GAS, D, 0.6) == pytest.approx(
            6.584362139917697e-07, rel=1e-12
        )

    def test_kappa_decreasing(self):
        assert permeability_kappa(GAS, D, 0.6) < permeability_kappa(GAS, D, 0.5)

    def test_kappa_domain(self):
        with pytest.raises(ValueError):
            permeability_kappa(GAS, D, 0.0)

    def test_kappa_array_matches_scalar(self):
        phis = np.linspace(0.05, 0.95, 19)
        kappas = permeability_kappa(GAS, D, phis)
        assert kappas.shape == phis.shape
        for phi, kappa in zip(phis, kappas):
            assert kappa == pytest.approx(permeability_kappa(GAS, D, float(phi)), rel=1e-15)

    @pytest.mark.parametrize("bad", [0.0, 1.0, np.nan])
    def test_kappa_array_domain(self, bad):
        phis = np.array([0.3, bad, 0.6])
        with pytest.raises(ValueError, match="permeability requires 0 < phi < 1"):
            permeability_kappa(GAS, D, phis)

    def test_kappa_errors_name_first_bad_element(self):
        with pytest.raises(ValueError) as exc:
            permeability_kappa(GAS, D, np.array([0.3, 0.4, 1.2, -1.0]))
        assert str(exc.value) == "permeability requires 0 < phi < 1, got 1.2 at index 2"
        with pytest.raises(ValueError) as exc:
            permeability_kappa(GAS, D, 0.0)
        assert str(exc.value) == "permeability requires 0 < phi < 1, got 0.0"

    def test_kappa_overflow_named(self):
        """A phi whose kappa overflows is named, with no numpy warning or
        ZeroDivisionError first; a tiny phi whose kappa is finite passes."""
        with pytest.raises(ValueError) as exc:
            permeability_kappa(GAS, D, 1e-308)
        assert str(exc.value) == "permeability overflows at phi, got 1e-308"
        with pytest.raises(ValueError) as exc:
            permeability_kappa(GAS, D, np.array([0.3, 1e-160, 1e-308]))
        assert str(exc.value) == "permeability overflows at phi, got 1e-160 at index 1"
        assert math.isfinite(permeability_kappa(GAS, D, 1e-150))

    @given(phi=st.floats(min_value=1e-3, max_value=0.999))
    @settings(max_examples=50)
    def test_kappa_beta_identity(self, phi):
        product = permeability_kappa(GAS, D, phi) * drag_beta(GAS, D, phi)
        assert product == pytest.approx((1.0 - phi) ** 2, rel=1e-14)


class TestDarcy:
    def test_no_gradient_no_slip(self):
        u = np.array([0.3, -0.1])
        np.testing.assert_allclose(
            darcy_fluid_velocity(u, [0.0, 0.0], 0.5, GAS, D), u
        )

    def test_value(self):
        u_f = darcy_fluid_velocity([0.0, 0.0], [1.0e3, 0.0], 0.5, GAS, D)
        np.testing.assert_allclose(
            u_f, [-0.003703703703703704, 0.0], rtol=1e-12
        )

    def test_antiparallel_to_gradient(self):
        grad = np.array([2.0, -1.0])
        u_f = darcy_fluid_velocity([0.0, 0.0], grad, 0.4, GAS, D)
        # u_f - u is a negative multiple of grad p_f
        ratio = u_f / grad
        assert ratio[0] == pytest.approx(ratio[1], rel=1e-12)
        assert ratio[0] < 0

    def test_domain(self):
        with pytest.raises(ValueError):
            darcy_fluid_velocity([0.0], [1.0], 0.0, GAS, D)


class TestStateLaw:
    def test_reference_state(self):
        law = IdealGasLaw(GAS)
        assert pf_from_rho(law, GAS.rho_f0) == 0.0

    def test_atmospheric_doubles_density(self):
        law = IdealGasLaw(GAS)
        assert rho_from_pf(law, GAS.p_atm) == pytest.approx(2.0 * GAS.rho_f0, rel=1e-12)

    def test_roundtrip(self):
        law = IdealGasLaw(GAS)
        assert pf_from_rho(law, rho_from_pf(law, 500.0)) == pytest.approx(
            500.0, abs=1e-9
        )

    def test_domains(self):
        law = IdealGasLaw(GAS)
        with pytest.raises(ValueError):
            pf_from_rho(law, 0.0)
        with pytest.raises(ValueError):
            rho_from_pf(law, -GAS.p_atm)

    def test_custom_roundtrip(self):
        law = CustomStateLaw(
            Q=lambda rho: GAS.p_atm * ((rho / GAS.rho_f0) ** 1.4 - 1.0) / 1.4,
            rho_min=0.1,
            rho_max=10.0,
        )
        rho = rho_from_pf(law, 750.0)
        assert pf_from_rho(law, rho) == pytest.approx(750.0, rel=1e-12)

    def test_custom_root_at_bracket_end(self):
        law = CustomStateLaw(Q=lambda rho: 3.0 * (rho - 1.0), rho_min=1.0, rho_max=5.0)
        assert rho_from_pf(law, 0.0) == 1.0
        assert rho_from_pf(law, 12.0) == 5.0

    def test_csv_law(self, tmp_path):
        rho = np.linspace(0.5, 2.0, 40)
        q = GAS.p_atm * (rho - 1.0)
        path = tmp_path / "law.csv"
        path.write_text(
            "rho,Q\n" + "\n".join(f"{r},{v}" for r, v in zip(rho, q))
        )
        law = state_law_from_csv(path)
        assert law.Q(1.25) == pytest.approx(GAS.p_atm * 0.25, rel=1e-9)
        assert law.Q_prime(1.25) == pytest.approx(GAS.p_atm, rel=1e-6)

    def test_csv_law_skips_blank_rows(self, tmp_path):
        rows = ["0.5,1", "1.0,2", "1.5,4", "2.0,8"]
        plain, gapped = tmp_path / "plain.csv", tmp_path / "gapped.csv"
        plain.write_text("rho,Q\n" + "\n".join(rows) + "\n")
        gapped.write_text("rho,Q\n" + "\n".join(rows[:2] + ["", " ,", *rows[2:]]) + "\n")
        law, gapped_law = state_law_from_csv(plain), state_law_from_csv(gapped)
        assert (gapped_law.rho_min, gapped_law.rho_max) == (0.5, 2.0)
        assert gapped_law.Q(1.25) == law.Q(1.25)

    def test_custom_outside_table_named(self):
        law = CustomStateLaw(Q=lambda rho: 3.0 * (rho - 1.0), rho_min=1.0, rho_max=5.0)
        with pytest.raises(ValueError, match=r"^rho_f=6\.0 outside the tabulated range \[1\.0, 5\.0\]$"):
            pf_from_rho(law, 6.0)

    def test_custom_not_bracketed_named(self):
        law = CustomStateLaw(Q=lambda rho: 3.0 * (rho - 1.0), rho_min=1.0, rho_max=5.0)
        with pytest.raises(
            ValueError,
            match=r"^p_f=20\.0 not bracketed by Q on \[1\.0, 5\.0\]; cannot invert state law$",
        ):
            rho_from_pf(law, 20.0)

    @pytest.mark.parametrize(
        "rows,problem",
        [
            ("1,0\n2,1\n3,2\n", "need at least 4 samples for cubic interpolation"),
            ("0,0\n1,1\n2,2\n3,3\n", "densities must be positive"),
        ],
        ids=["three-samples", "zero-density"],
    )
    def test_csv_law_rejected(self, tmp_path, rows, problem):
        path = tmp_path / "law.csv"
        path.write_text("rho,Q\n" + rows)
        with pytest.raises(ValueError) as exc:
            state_law_from_csv(path)
        assert str(exc.value) == f"{path}: {problem}"

    def test_csv_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("density,pressure\n1,2\n")
        with pytest.raises(ValueError):
            state_law_from_csv(path)


class TestEnthalpyIdeal:
    def test_at_zero(self):
        assert enthalpy_ideal(GAS, 0.0) == -GAS.p_atm

    def test_at_atmospheric(self):
        assert enthalpy_ideal(GAS, GAS.p_atm) == pytest.approx(
            -62168.381218555085, rel=1e-12
        )

    def test_convexity(self):
        h = 1.0e3
        for pf in np.linspace(-GAS.p_atm / 2 + h, GAS.p_atm - h, 5):
            second = (
                enthalpy_ideal(GAS, pf + h)
                - 2.0 * enthalpy_ideal(GAS, pf)
                + enthalpy_ideal(GAS, pf - h)
            )
            assert second > 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            enthalpy_ideal(GAS, -GAS.p_atm)

    def test_errors_name_first_bad_element(self):
        with pytest.raises(ValueError) as exc:
            enthalpy_ideal(GAS, np.array([0.0, np.nan, -2.0e5]))
        assert str(exc.value) == "p_f must exceed -p_atm = -101300.0, got nan at index 1"
        with pytest.raises(ValueError) as exc:
            enthalpy_ideal(GAS, -2.0e5)
        assert str(exc.value) == "p_f must exceed -p_atm = -101300.0, got -200000.0"

    def test_array_matches_scalar(self):
        pfs = np.linspace(-0.9 * GAS.p_atm, 2.0 * GAS.p_atm, 21)
        hs = enthalpy_ideal(GAS, pfs)
        assert hs.shape == pfs.shape
        for pf, h in zip(pfs, hs):
            assert h == pytest.approx(enthalpy_ideal(GAS, float(pf)), rel=1e-15)

    @pytest.mark.parametrize("bad", [-GAS.p_atm, -2.0 * GAS.p_atm, np.nan])
    def test_array_domain(self, bad):
        pfs = np.array([0.0, bad, 100.0])
        with pytest.raises(ValueError, match="p_f must exceed -p_atm"):
            enthalpy_ideal(GAS, pfs)

    P_F = st.floats(-0.99 * GAS.p_atm, 5.0 * GAS.p_atm, exclude_min=True, exclude_max=True)

    @settings(max_examples=100, deadline=None)
    @given(p=P_F, kind=st.sampled_from(["float", "int", "numpy", "0-d"]),
           ps=st.lists(P_F, max_size=40), rows=st.integers(1, 4))
    def test_closed_form_bits_and_types(self, p, kind, ps, rows):
        """Each value has the bits of (p_atm + p) (log1p(p / p_atm) - 1) on
        the same input; a number or a 0-d array gives a numpy float, an
        array an array of its shape."""
        p_atm = GAS.p_atm
        value = {"float": p, "int": int(p), "numpy": np.float64(p), "0-d": np.array(p)}[kind]
        got, want = enthalpy_ideal(GAS, value), (p_atm + value) * (np.log1p(value / p_atm) - 1.0)
        assert type(got) is np.float64
        assert got.tobytes() == np.float64(want).tobytes()
        arr = np.array(ps[:len(ps) // rows * rows]).reshape(rows, -1)
        got = enthalpy_ideal(GAS, arr)
        assert type(got) is np.ndarray and got.shape == arr.shape
        assert got.tobytes() == ((p_atm + arr) * (np.log1p(arr / p_atm) - 1.0)).tobytes()

    @settings(max_examples=50, deadline=None)
    @given(bad=st.one_of(st.floats(max_value=-GAS.p_atm, allow_infinity=True), st.just(math.nan)),
           at=st.integers(0, 3))
    def test_domain_messages(self, bad, at):
        """A p_f at or below -p_atm or NaN is named as ``_check_all`` names it:
        the value, and for an array its first bad index."""
        rule = f"p_f must exceed -p_atm = {-GAS.p_atm}, got {bad}"
        with pytest.raises(ValueError) as exc:
            enthalpy_ideal(GAS, bad)
        assert str(exc.value) == rule
        pfs = np.zeros(4)
        pfs[at:] = bad
        with pytest.raises(ValueError) as exc:
            enthalpy_ideal(GAS, pfs)
        assert str(exc.value) == f"{rule} at index {at}"


def _fit_affine(x, y):
    coeffs = np.polyfit(x, y, 1)
    return y - np.polyval(coeffs, x)


class TestEnthalpyFromStateLaw:
    GRID = np.linspace(0.5, 2.0, 201)

    def test_matches_ideal_up_to_affine(self):
        table = enthalpy_from_statelaw(IdealGasLaw(GAS), self.GRID)
        closed = GAS.p_atm * (self.GRID / GAS.rho_f0) * (
            np.log(self.GRID / GAS.rho_f0) - 1.0
        )
        residual = _fit_affine(self.GRID, table.values - closed)
        assert np.max(np.abs(residual)) < 1e-8 * GAS.p_atm

    def test_zero_state_law_gives_affine_H(self):
        law = CustomStateLaw(Q=lambda rho: 0.0, Q_prime=lambda rho: 0.0)
        table = enthalpy_from_statelaw(law, self.GRID, c1=1.0)
        np.testing.assert_allclose(table.values, 0.0, atol=1e-12)
        # x H' - H must vanish identically for Q = 0
        h = 1e-5
        for x in (0.7, 1.0, 1.6):
            hp = (table(x + h) - table(x - h)) / (2 * h)
            assert abs(x * hp - table(x)) < 1e-9

    def test_c1_gauge_is_affine(self):
        t_a = enthalpy_from_statelaw(IdealGasLaw(GAS), self.GRID, c1=0.5)
        t_b = enthalpy_from_statelaw(IdealGasLaw(GAS), self.GRID, c1=2.0)
        residual = _fit_affine(self.GRID, t_a.values - t_b.values)
        assert np.max(np.abs(residual)) < 1e-10 * GAS.p_atm

    @pytest.mark.parametrize(
        "law",
        [
            IdealGasLaw(GAS),
            CustomStateLaw(
                Q=lambda rho: GAS.p_atm * (rho**1.4 - 1.0) / 1.4,
                rho_min=0.1,
                rho_max=10.0,
            ),
        ],
        ids=["ideal", "custom"],
    )
    def test_defining_identity(self, law):
        # x H'(x) - H(x) = Q(x) + const on the grid (central differences)
        table = enthalpy_from_statelaw(law, self.GRID)
        xs = self.GRID[2:-2]
        resid = []
        for x in xs:
            h = 1e-5 * x
            hp = (table(x + h) - table(x - h)) / (2.0 * h)
            resid.append(x * hp - table(x) - law.Q(x))
        resid = np.asarray(resid)
        q_max = max(abs(law.Q(x)) for x in xs)
        assert np.max(np.abs(resid - resid.mean())) < 1e-7 * q_max

    def test_second_derivative_identity(self):
        # x H''(x) = Q'(x) to 1e-5 relative; the second derivative leans on
        # the spline between samples, so use a denser table here
        law = IdealGasLaw(GAS)
        table = enthalpy_from_statelaw(law, np.linspace(0.5, 2.0, 801))
        for x in (0.8, 1.0, 1.5):
            h = 1e-4 * x
            hpp = (table(x + h) - 2.0 * table(x) + table(x - h)) / (h * h)
            assert x * hpp == pytest.approx(law.Q_prime(x), rel=1e-5)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            enthalpy_from_statelaw(IdealGasLaw(GAS), [0.0, 1.0])
        with pytest.raises(ValueError):
            enthalpy_from_statelaw(IdealGasLaw(GAS), [1.0])
        with pytest.raises(ValueError):
            enthalpy_from_statelaw(IdealGasLaw(GAS), self.GRID, c1=-1.0)
