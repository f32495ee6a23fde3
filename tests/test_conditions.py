"""Structural condition checks: dissipation, C1/C2/C3, equilibrium signs."""

import hashlib
import io
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from granupore import conditions, rheology
from granupore.conditions import (
    GridSpec,
    check_c2,
    check_c3,
    check_dissipation,
    check_equilibrium_signs,
    dissipation_density,
    residual_c1,
    standard_grid,
    sweep,
    write_report_csv,
)
from granupore.gas import permeability_kappa
from granupore.materials import (
    EquilibriumLaw,
    FlowState,
    GasParams,
    _bisect_i_eq,
    glass_beads,
    i_eq,
)
from granupore.rheology import (
    DruckerPrager,
    DruckerPragerDilatant,
    Isochoric,
    LinearCombination,
    MuI,
    MuIDilatant,
    PowerLaw,
    RouxRadjai,
    build_model,
    friction_mu,
    mui_shear_factor,
)

MAT = glass_beads()
LAW = EquilibriumLaw()
GAS = GasParams()
SIN_D = math.sin(MAT.delta)

DP = DruckerPrager(MAT, LAW)
MUI = MuI(MAT, LAW)
DP_PSI = DruckerPragerDilatant(MAT, LAW)
MUI_PSI = MuIDilatant(MAT, LAW)


class _ConstantF:
    """Stub with f independent of p and I (fails the strict C3)."""

    def yield_function(self, phi, I):
        return 0.5

    def dilatancy(self, phi, p, I):
        return 0.3


class _NoDilatancy(_ConstantF):
    """Stub whose f is undefined everywhere."""

    def dilatancy(self, phi, p, I):
        raise ValueError("f undefined")


class _Counting:
    """Forwards the three model methods a sweep calls and counts each call.

    It has no slope methods, so the sweep takes central differences of the
    counted Z and f.
    """

    def __init__(self, model):
        self._model = model
        self.calls = {"yield_function": 0, "dilatancy": 0, "i_eq": 0}

    def _count(self, name, *args):
        self.calls[name] += 1
        return getattr(self._model, name)(*args)

    def yield_function(self, phi, I):
        return self._count("yield_function", phi, I)

    def dilatancy(self, phi, p, I):
        return self._count("dilatancy", phi, p, I)

    def i_eq(self, phi):
        return self._count("i_eq", phi)


class TestC1:
    @pytest.mark.parametrize(
        "model", [DP, MUI, DP_PSI, MUI_PSI], ids=["dp", "mui", "dp-psi", "mui-psi"]
    )
    def test_compliant_pairs(self, model):
        for phi, p, I in ((0.5, 1000.0, 1.0), (0.45, 50.0, 0.3), (0.58, 5e3, 3.0)):
            assert abs(residual_c1(model, phi, p, I)) < 1e-6

    def test_powerlaw_n2_exact_cancellation(self):
        model = PowerLaw(MAT, LAW, n=2.0)
        # Z = I^2, f = 0: Z - (I/2) dZ = I^2 - I^2 = 0 analytically; only
        # round-off of the closed-form slope survives
        assert residual_c1(model, 0.5, 100.0, 1.0) == pytest.approx(0.0, abs=1e-9)

    def test_roux_radjai_with_dp_yield_fails(self):
        model = RouxRadjai(MAT, LAW, gain=1.0, z_mode="dp")
        r = residual_c1(model, 0.5, 1000.0, 1.0)
        # analytic residual sin d - a (phi - phi_max) - 2 a dphi I = 0.2
        assert r == pytest.approx(0.2, abs=1e-6)
        assert abs(r) > 1e-3

    def test_small_angle_closure_fails(self):
        model = RouxRadjai(MAT, LAW, gain=1.0)
        # at the equilibrium point the residual reduces to
        # sin d - a dphi I (1 + cos d / 2)
        I = 1.0
        phi = 0.4  # = phi_eq(1)
        expected = SIN_D - 1.0 * MAT.delta_phi * I * (1.0 + math.cos(MAT.delta) / 2.0)
        assert residual_c1(model, phi, 100.0, I) == pytest.approx(expected, abs=1e-6)
        assert abs(expected) > 1e-3

    def test_isochoric_surrogate_fails(self):
        model = Isochoric(DP)
        assert residual_c1(model, 0.5, 100.0, 1.0) == pytest.approx(SIN_D, abs=1e-9)

    def test_central_path_names_the_error(self):
        with pytest.raises(ValueError) as info:
            residual_c1(_NoDilatancy(), 0.5, 100.0, 1.0)
        assert str(info.value) == "cannot take a central difference at 1.0 (step 1e-06): f undefined"
        assert str(info.value.__cause__) == "f undefined"


class TestC2:
    def test_dp(self):
        value, ok = check_c2(DP, 0.5, 1.0)
        assert ok and value == pytest.approx(SIN_D, abs=1e-9)

    def test_mui_value(self):
        # mu(0.3) + 0.3 mu'(0.3), oracle arithmetic
        value, ok = check_c2(MUI, 0.5, 0.3)
        assert ok and value == pytest.approx(0.5830217036569869, rel=1e-8)

    def test_powerlaw_n1(self):
        value, ok = check_c2(PowerLaw(MAT, LAW, n=1.0), 0.5, 0.7)
        assert ok and value == pytest.approx(1.4, rel=1e-9)

    def test_never_reads_f(self):
        assert check_c2(_NoDilatancy(), 0.5, 1.0) == (0.5, True)

    def test_dilatant_models_low_I_violation(self):
        # psi -> -inf as I -> 0 below the equilibrium packing, so the
        # growth bound genuinely fails in the deep-compaction corner
        value, ok = check_c2(DP_PSI, 0.40, 1e-2)
        assert not ok and value == pytest.approx(-0.7743846415844402, rel=1e-6)
        value, ok = check_c2(MUI_PSI, 0.40, 1e-2)
        assert not ok and value == pytest.approx(-0.7074765181321276, rel=1e-6)


class TestC3:
    def test_dp_value(self):
        value, ok = check_c3(DP, 0.5, 1000.0, 1.0)
        assert ok and value == pytest.approx(-1.25e-4, rel=1e-6)

    def test_mui_equivalent_positivity(self):
        phi, p, I = 0.52, 1000.0, 0.7
        value, ok = check_c3(MUI, phi, p, I)
        assert ok and value < 0
        # equivalent form: F'(I) + (I_eq/I^2) F(I_eq) > 0
        ieq = i_eq(LAW, MAT, phi)
        h = 1e-7
        f_prime = (
            mui_shear_factor(MAT.mu1, MAT.mu2, MAT.I0, I + h)
            - mui_shear_factor(MAT.mu1, MAT.mu2, MAT.I0, I - h)
        ) / (2 * h)
        equivalent = f_prime + ieq / I**2 * mui_shear_factor(
            MAT.mu1, MAT.mu2, MAT.I0, ieq
        )
        assert equivalent > 0
        assert value == pytest.approx(-0.5 * I / p * equivalent, rel=1e-5)

    def test_constant_f_fails_strictness(self):
        value, ok = check_c3(_ConstantF(), 0.5, 1000.0, 1.0)
        assert value == pytest.approx(0.0, abs=1e-12) and not ok


class TestDissipation:
    def test_dp_gap(self):
        phi, I = 0.5, 1.0
        gap, ok = check_dissipation(DP, phi, 100.0, I)
        assert ok and gap == pytest.approx(SIN_D * i_eq(LAW, MAT, phi) / I, rel=1e-12)

    def test_mui_gap_positive(self):
        for phi in (0.42, 0.5, 0.58):
            for I in (0.05, 0.7, 5.0):
                gap, ok = check_dissipation(MUI, phi, 100.0, I)
                assert ok and gap > 0

    def test_powerlaw_n3_fails_in_compaction(self):
        model = PowerLaw(MAT, LAW, n=3.0)
        gap, ok = check_dissipation(model, 0.4, 100.0, 0.1)
        assert gap < 0 and not ok
        # but is fine at the pure-shear end (I_eq = 0)
        gap, ok = check_dissipation(model, MAT.phi_max, 100.0, 10.0)
        assert ok and gap == pytest.approx(1.125e3, rel=1e-9)


#: Why the roux-radjai anchor fails under the non-linear laws: the bisection
#: leaves |phi_eq(i_eq(phi)) - phi| up to 1e-12, and with gain 2 the anchor
#: |f| = 2 |phi - phi_eq(i_eq(phi))| exceeds EQ_ANCHOR_TOL = 1e-12.  A
#: closed-form i_eq removes the residual, and with it these failures.
BISECTION_RESIDUAL = "bisection residual of i_eq times gain 2 exceeds EQ_ANCHOR_TOL"


def _has_i_eq(law, phi):
    try:
        i_eq(law, MAT, phi)
    except ValueError:
        return False
    return True


class TestEquilibriumSigns:
    @pytest.mark.parametrize(
        "model", [DP, MUI, DP_PSI, MUI_PSI], ids=["dp", "mui", "dp-psi", "mui-psi"]
    )
    @pytest.mark.parametrize("phi", [0.45, 0.5, 0.55])
    def test_builtins_pass(self, model, phi):
        assert check_equilibrium_signs(model, phi, 500.0)

    def test_dp_at_phi_max_one_sided(self):
        assert check_equilibrium_signs(DP, MAT.phi_max, 500.0)

    @pytest.mark.parametrize(
        "variant",
        ["linear"]
        + [
            pytest.param(v, marks=pytest.mark.xfail(strict=True, reason=BISECTION_RESIDUAL))
            for v in ("schaeffer", "robinson", "breard")
        ],
    )
    def test_roux_radjai_matching_law_passes(self, variant):
        law = EquilibriumLaw(variant)
        model = RouxRadjai(MAT, law, gain=2.0)
        phis = [phi for phi in standard_grid().phi_values() if _has_i_eq(law, phi)]
        failing = [phi for phi in phis if not check_equilibrium_signs(model, phi, 500.0)]
        assert failing == []

    def test_isochoric_fails(self):
        assert not check_equilibrium_signs(Isochoric(DP), 0.5, 500.0)


class TestDissipationDensity:
    def test_zero_at_rest(self):
        state = FlowState(phi=0.5, p=1000.0, shear=0.0)
        assert dissipation_density(DP, state, MAT, GAS, 0.0) == 0.0

    def test_dp_two_forms(self):
        mat = glass_beads(d=1e-3)
        model = DruckerPrager(mat, LAW)
        phi, p = 0.5, 1000.0
        shear = math.sqrt(p / mat.rho_s) / mat.d  # I = 1
        state = FlowState(phi=phi, p=p, shear=shear)
        generic = dissipation_density(model, state, mat, GAS, 0.0)
        lam = 1.0 / (mat.delta_phi * mat.d * math.sqrt(mat.rho_s))
        closed = 2.0 * lam * SIN_D * (mat.phi_max - phi) * p * math.sqrt(p)
        assert generic == pytest.approx(316227.7660168379, rel=1e-9)
        assert generic == pytest.approx(closed, rel=1e-9)

    def test_mui_psi_closed_form(self):
        mat = glass_beads(d=1e-3)
        model = MuIDilatant(mat, LAW)
        phi, p, I = 0.5, 1000.0, 0.8
        shear = I * math.sqrt(p / mat.rho_s) / mat.d
        state = FlowState(phi=phi, p=p, shear=shear)
        generic = dissipation_density(model, state, mat, GAS, 0.0)
        closed = 2.0 * friction_mu(mat.mu1, mat.mu2, mat.I0, I) * p * shear
        assert generic == pytest.approx(closed, rel=1e-9)

    def test_gradient_term(self):
        state = FlowState(phi=0.5, p=1000.0, shear=0.0)
        grad = np.array([300.0, -400.0])  # |grad|^2 = 2.5e5
        value = dissipation_density(DP, state, MAT, GAS, grad)
        kappa = permeability_kappa(GAS, MAT.d, 0.5)
        assert value == pytest.approx(kappa * 2.5e5, rel=1e-12)

    @pytest.mark.parametrize("n", [0.0, 1.0, 3.0])
    def test_power_rows_contribution_identity(self, n):
        # 2 (Z-f) p |S| decomposes into the shear part 3n/(2(n+1)) I^n and
        # the pressure part (2-n)/(2(n+1)) I_eq^{n+1}/I, with
        # p |S| / I = p sqrt(p) / (d sqrt(rho_s))
        model = PowerLaw(MAT, LAW, n=n)
        phi, p, I = 0.45, 800.0, 1.3
        shear = I * math.sqrt(p / MAT.rho_s) / MAT.d
        state = FlowState(phi=phi, p=p, shear=shear)
        generic = dissipation_density(model, state, MAT, GAS, 0.0)
        ieq = i_eq(LAW, MAT, phi)
        shear_part = 3.0 * n / (2.0 * (n + 1.0)) * I**n * 2.0 * p * shear
        press_part = (
            (2.0 - n)
            / (2.0 * (n + 1.0))
            * ieq ** (n + 1.0)
            * 2.0
            * p
            * math.sqrt(p)
            / (MAT.d * math.sqrt(MAT.rho_s))
        )
        assert generic == pytest.approx(shear_part + press_part, rel=1e-9)

    def test_power_coefficient_signs(self):
        shear_coeff = lambda n: 3.0 * n / (2.0 * (n + 1.0))
        press_coeff = lambda n: (2.0 - n) / (2.0 * (n + 1.0))
        assert shear_coeff(-0.5) < 0 and shear_coeff(1.0) > 0
        assert press_coeff(3.0) < 0 and press_coeff(1.0) > 0


class TestSweep:
    def test_dp_standard_grid_all_pass(self):
        report = sweep(DP, standard_grid())
        assert report.all_pass
        assert not report.skipped

    def test_mui_standard_grid_all_pass(self):
        report = sweep(MUI, standard_grid())
        assert report.all_pass

    @pytest.mark.parametrize("model", [DP_PSI, MUI_PSI], ids=["dp-psi", "mui-psi"])
    def test_dilatant_models_small_angle_grid(self, model):
        # within the small-angle regime all five conditions hold
        grid = GridSpec(I_range=(0.2, 10.0, 12))
        report = sweep(model, grid)
        assert report.all_pass, report.summary_text()

    @pytest.mark.parametrize("model", [DP_PSI, MUI_PSI], ids=["dp-psi", "mui-psi"])
    def test_dilatant_models_fail_C2_in_corner(self, model):
        # on the full grid the deep-compaction corner violates C2 only
        report = sweep(model, standard_grid())
        assert report.failing_conditions() == ("C2",)
        summary = report.summaries["C2"]
        assert summary.worst_value < 0
        phi, I, _ = summary.worst_point
        assert I < 0.15 * i_eq(LAW, MAT, phi)

    def test_negative_control_worst_point(self):
        model = RouxRadjai(MAT, LAW, gain=1.0, z_mode="dp")
        report = sweep(model, standard_grid())
        assert "C1" in report.failing_conditions()
        s = report.summaries["C1"]
        assert s.worst_point is not None and abs(s.worst_value) > 1e-3

    def test_skipped_points_recorded(self):
        grid = GridSpec(phi_range=(0.55, MAT.phi_max, 3), I_range=(0.2, 2.0, 3))
        report = sweep(MUI_PSI, grid)  # phi = phi_max is inadmissible
        assert report.skipped
        assert all(point[0] == MAT.phi_max for point, _ in report.skipped)
        assert len(report.records) == 2 * 3 * 4

    def test_csv_skipped_rows(self):
        # phi = 0.40 lies below the range of the schaeffer law, so i_eq, and
        # with it df/dI, raises on that whole row
        report = sweep(MuI(MAT, EquilibriumLaw("schaeffer")), standard_grid())
        buf = io.StringIO()
        write_report_csv(report, buf)
        skipped = [l for l in buf.getvalue().splitlines() if l.startswith("# skipped")]
        assert len(skipped) == len(report.skipped) == 48
        assert skipped[0] == (
            "# skipped phi=0.4,I=0.01,p=10.0: "
            "phi=0.4 below the range of the schaeffer law on [0, 1000.0]"
        )

    def test_csv_shape(self):
        report = sweep(DP, GridSpec((0.4, 0.5, 2), (0.1, 1.0, 2), (10.0, 100.0, 2)))
        buf = io.StringIO()
        write_report_csv(report, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0].startswith("phi,I,p,")
        assert len(lines) == 1 + 8

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridSpec(phi_range=(0.5, 0.4, 3))
        with pytest.raises(ValueError):
            GridSpec(I_range=(0.0, 1.0, 3))
        with pytest.raises(ValueError):
            GridSpec(p_range=(10.0, 100.0, 1))

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            (dict(I_range=(0.01, math.inf, 3)), "I_range"),
            (dict(p_range=(-math.inf, 100.0, 3)), "p_range"),
            (dict(phi_range=(0.4, math.inf, 3)), "phi_range"),
        ],
        ids=["I-inf", "p-neg-inf", "phi-inf"],
    )
    def test_grid_rejects_non_finite_ends(self, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name}: ends must be finite"):
            GridSpec(**kwargs)


class TestSweepWork:
    def test_one_evaluation_per_point(self):
        # Z: dZ/dI and Z; f: df/dI, df/dp and f, plus the three equilibrium
        # signs once per (phi, p); i_eq once per (phi, p)
        grid = standard_grid()
        n_I = len(grid.I_values())
        model = _Counting(MUI)
        report = sweep(model, grid)
        points = len(report.records)
        assert not report.skipped and points == 12 * 12 * 4
        assert model.calls == {
            "yield_function": 3 * points,
            "dilatancy": 5 * points + 3 * points // n_I,
            "i_eq": points // n_I,
        }

    def test_equilibrium_error_kept_per_phi_p(self):
        class _NoEquilibrium(_ConstantF):
            def i_eq(self, phi):
                raise ValueError("no equilibrium")

        grid = GridSpec((0.4, 0.5, 2), (0.1, 1.0, 3), (10.0, 100.0, 2))
        model = _Counting(_NoEquilibrium())
        report = sweep(model, grid)
        assert not report.records and len(report.skipped) == 2 * 3 * 2
        assert {reason for _, reason in report.skipped} == {"no equilibrium"}
        assert model.calls["i_eq"] == 2 * 2


def _closed_form(name, law):
    """The catalogue models with closed-form slopes, and the combinations
    of them that take the terms' slopes."""
    if name == "lincomb-const":
        return LinearCombination(MAT, law, terms=((0.25, DruckerPrager(MAT, law)), (0.75, MuI(MAT, law))))
    if name == "lincomb-callable":
        return LinearCombination(MAT, law, terms=(
            (lambda phi: (phi - 0.3) / 0.3, DruckerPrager(MAT, law)),
            (lambda phi: (0.6 - phi) / 0.3, MuI(MAT, law)),
        ))
    if name == "isochoric":
        return Isochoric(MuI(MAT, law))
    if name.startswith("roux-radjai"):
        z_override = "dp" if name.endswith("-dp") else None
        return build_model("roux-radjai", MAT, law, rr_gain=2.0, z_override=z_override)
    return build_model(name, MAT, law)


COMPLIANT = ("dp", "mui", "dp-psi", "mui-psi", "power:0.5", "power:-0.5", "power:2",
             "lincomb-const", "lincomb-callable")
CLOSED_FORM = COMPLIANT + ("roux-radjai", "roux-radjai-dp", "isochoric")
LAWS = ("linear", "schaeffer", "robinson", "breard")


def _error(fun, *args):
    try:
        fun(*args)
    except ValueError as exc:
        return str(exc)
    return None


class TestClosedFormSlopes:
    @given(
        name=st.sampled_from(CLOSED_FORM),
        law=st.sampled_from(LAWS),
        phi=st.floats(0.40, 0.595),
        log_I=st.floats(math.log(1e-2), math.log(10.0)),
        p=st.floats(10.0, 1e4),
    )
    @settings(max_examples=300, deadline=None)
    def test_slopes_match_central_differences(self, name, law, phi, log_I, p):
        model, I = _closed_form(name, EquilibriumLaw(law)), math.exp(log_I)
        assume(_error(model.dilatancy, phi, p, I) is None)  # see the next test
        for slope, fun, x in (
            (model.dZ_dI(phi, I), lambda J: model.yield_function(phi, J), I),
            (model.df_dI(phi, p, I), lambda J: model.dilatancy(phi, p, J), I),
            (model.df_dp(phi, p, I), lambda q: model.dilatancy(phi, q, I), p),
        ):
            # the difference's round-off is about eps |F| / h, with h = 1e-6 x;
            # the largest deviation measured was 1.1e-9 of this scale
            scale = max(abs(slope), abs(fun(x)) / x)
            assert abs(slope - rheology._central(fun, x, rheology.REL_STEP)) <= 1e-8 * scale

    @pytest.mark.parametrize("name", CLOSED_FORM)
    @pytest.mark.parametrize(
        "law, phi, I",
        [("linear", 0.61, 1.0), ("schaeffer", 0.40, 0.01), ("linear", MAT.phi_max, 1.0),
         ("linear", 0.5, 0.0), ("linear", 0.5, -0.1)],
        ids=["above-phi-max", "below-law-range", "at-phi-max", "I-zero", "I-negative"],
    )
    def test_slopes_raise_like_the_model(self, name, law, phi, I):
        model = _closed_form(name, EquilibriumLaw(law))
        assert _error(model.df_dI, phi, 100.0, I) == _error(model.dilatancy, phi, 100.0, I)
        assert _error(model.df_dp, phi, 100.0, I) == _error(model.dilatancy, phi, 100.0, I)
        if name.startswith("power") and I == 0.0 and model.n >= 0:
            # Z = I^n is defined at 0, its slope is not taken there
            assert _error(model.yield_function, phi, I) is None
            assert _error(model.dZ_dI, phi, I).startswith("dZ/dI of Z = I^n is not taken at I=0")
        else:
            assert _error(model.dZ_dI, phi, I) == _error(model.yield_function, phi, I)

    @pytest.mark.parametrize("law", ["linear", "schaeffer"])
    @pytest.mark.parametrize("name", CLOSED_FORM)
    def test_sweep_takes_no_central_difference(self, name, law, monkeypatch):
        def central(*args):
            raise AssertionError("central difference taken")

        monkeypatch.setattr(rheology, "_central", central)
        monkeypatch.setattr(conditions, "_central", central, raising=False)
        report = sweep(_closed_form(name, EquilibriumLaw(law)), standard_grid())
        assert len(report.records) + len(report.skipped) == 12 * 12 * 4

    @pytest.mark.parametrize("law", LAWS)
    @pytest.mark.parametrize("name", COMPLIANT)
    def test_c1_at_round_off(self, name, law):
        report = sweep(_closed_form(name, EquilibriumLaw(law)), standard_grid())
        assert report.records
        assert max(abs(r.c1_residual) for r in report.records) <= 1e-12


def _csv_digest(model, grid) -> str:
    buf = io.StringIO()
    write_report_csv(sweep(model, grid), buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


class TestLinearSweeps:
    """Sweeps under the linear equilibrium law, whose i_eq is closed-form."""

    #: sha256 of write_report_csv, recorded with the models' closed-form
    #: slopes; same platform as TestNonlinearSweeps.  The mui-psi grid up to
    #: phi_max ends in a row of skipped points.
    GOLDEN = {
        ("dp", 0.595): "20f57f577b95a6c1a1c6f1fe691a7e5d147711db7d5b47ec2ef2bb6761101092",
        ("mui", 0.595): "80d4ee5d43549ae5b25f89432f1e354caa73d9cd2e8829b60cd9127ddce045de",
        ("dp-psi", 0.595): "d4ffa803531c53faaa4af18af0ad62db4263d64cafa1812a54f25ec50f013a0e",
        ("mui-psi", 0.595): "a8d8ccf2ab281609639db8b4c5d5a964c865cf9591b5d896802dc0f21714e01d",
        ("power:0.5", 0.595): "a11ac0c56b340b7f9e9247826f1db01e3c6c82cfdbf392b8a267b92bdf6b56d3",
        ("power:-0.5", 0.595): "43c669daa890114bbf1016c9a3511cb0fd35b9c24cb6efcd86384976a6edc60d",
        ("roux-radjai", 0.595): "9bc5b801df77e9f908475ec22e6d7004578c34fdee588e3998957b4f7041f814",
        ("mui-psi", MAT.phi_max): "33849943e26c717f899f67abc06b0e6fd52711a25520b8d5fa883f023090ac15",
    }

    @pytest.mark.parametrize("model_id, phi_hi", list(GOLDEN))
    def test_golden_csv(self, model_id, phi_hi):
        if model_id == "roux-radjai":
            model = build_model(model_id, MAT, LAW, rr_gain=1.0, z_override="dp")
        else:
            model = build_model(model_id, MAT, LAW)
        grid = GridSpec(phi_range=(0.40, phi_hi, 12))
        assert _csv_digest(model, grid) == self.GOLDEN[model_id, phi_hi]


class TestNonlinearSweeps:
    """Standard-grid sweeps under the non-linear equilibrium laws, whose
    i_eq is a memoised bisection."""

    #: sha256 of write_report_csv, recorded with the models' closed-form
    #: slopes; roux-radjai's C1 and anchor failures are pinned with them.
    #: Tied to the libm and numpy they were recorded with (x86-64 Linux,
    #: Python 3.11.7, numpy 2.4.6).
    GOLDEN = {
        ("schaeffer", "mui"): "713abc4b28a8515b28ab6c45173e7bd0d8970682b009514a7b24addc547ec561",
        ("schaeffer", "dp-psi"): "b74197830c4674b34ed6e290c4fb43cdccfdfb2655652c839d49678c1b9f69bf",
        ("schaeffer", "roux-radjai"): "47449aa915b57e75a22d6459a3cbb5256cd89330806136069a69a629158b6038",
        ("robinson", "mui"): "39e18b293f4c3a9e7f122356094281739df6a2c3237f51f52080614c3124de4f",
        ("robinson", "dp-psi"): "1526185cafddb53bf1086e73276a5b1c222e9d23dd81ed669a5a594ea9d0260e",
        ("robinson", "roux-radjai"): "7529d79b4a13332dcc3d2ff1cb497a140e99b888e99049b8a86e544c00af40b0",
        ("breard", "mui"): "3e69d17f1765e5e2e4cacb0b6184e8f8745c37d31f1a32bbdec9de57c74dbd7c",
        ("breard", "dp-psi"): "3c1e2bc89dd16efc4f11ea6ea113e003da1a34d95901bc7e9fa2a64c0ccb862c",
        ("breard", "roux-radjai"): "cea885d6a5e0f79b56e52ddfd73972d6eeeda24a74759a4625c984cd17cff44a",
    }
    MODELS = {
        "mui": MuI,
        "dp-psi": DruckerPragerDilatant,
        "roux-radjai": lambda mat, law: RouxRadjai(mat, law, gain=2.0),
    }

    @pytest.mark.parametrize("variant, name", list(GOLDEN), ids=["/".join(key) for key in GOLDEN])
    def test_golden_csv(self, variant, name):
        model = self.MODELS[name](MAT, EquilibriumLaw(variant))
        assert _csv_digest(model, standard_grid()) == self.GOLDEN[variant, name]

    @pytest.mark.parametrize(
        "variant, bisections", [("schaeffer", 11), ("robinson", 12), ("breard", 12)]
    )
    def test_one_bisection_per_phi(self, variant, bisections):
        # schaeffer's phi = 0.40 row lies below its range: i_eq raises before
        # the memo, and the row keeps its skip reasons
        grid = standard_grid()
        _bisect_i_eq.cache_clear()
        report = sweep(MuI(MAT, EquilibriumLaw(variant)), grid)
        assert _bisect_i_eq.cache_info().misses == bisections
        below_range = len(grid.phi_values()) - bisections
        assert len(report.skipped) == below_range * len(grid.I_values()) * len(grid.p_values())

    def test_linear_sweep_leaves_memo_untouched(self):
        before = _bisect_i_eq.cache_info()
        sweep(MUI, standard_grid())
        assert _bisect_i_eq.cache_info() == before
