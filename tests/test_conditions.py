"""Structural condition checks: dissipation, C1/C2/C3, equilibrium signs."""

import hashlib
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
    DerivedNumeric,
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
from granupore.stability import classify

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


class _CountingShared(_Counting):
    """Also forwards and counts the three slopes, and states that its f takes
    no p, so a sweep shares each (phi, I)'s reads across p."""

    _f_takes_p = False

    def __init__(self, model):
        super().__init__(model)
        self.calls.update(dZ_dI=0, df_dI=0, df_dp=0)

    def dZ_dI(self, phi, I):
        return self._count("dZ_dI", phi, I)

    def df_dI(self, phi, p, I):
        return self._count("df_dI", phi, p, I)

    def df_dp(self, phi, p, I):
        return self._count("df_dp", phi, p, I)


class _Forwarding:
    """A duck pair that forwards every attribute, as a tracing proxy does."""

    def __init__(self, model):
        self._model = model

    def __getattr__(self, name):
        return getattr(self._model, name)


class _PressureDependent:
    """A duck pair whose f reads p: dp's f times p/(p + 100), plus
    1e-15 (p - 1000), so that its equilibrium anchor fails above p = 2000;
    with dp's i_eq and the protocol's central slopes."""

    def __init__(self, law):
        self._dp = DruckerPrager(MAT, law)

    def yield_function(self, phi, I):
        return self._dp.yield_function(phi, I)

    def dilatancy(self, phi, p, I):
        return self._dp.dilatancy(phi, p, I) * p / (p + 100.0) + 1e-15 * (p - 1000.0)

    def i_eq(self, phi):
        return self._dp.i_eq(phi)


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

    @pytest.mark.parametrize("model", [MUI, DerivedNumeric(MAT, LAW, Z=MUI.yield_function)],
                             ids=["mui", "derived"])
    def test_derived_f_passes_where_its_closed_form_does(self, model):
        # f derived from mu(I)'s own Z, with the df/dI C1 gives, down to
        # I = 1e-9; a central df/dI failed 14 points of the second grid and
        # 52 of the third
        for I_range in ((1e-5, 1e-2, 7), (1e-6, 1e-5, 4), (1e-9, 1e-2, 8)):
            report = sweep(model, GridSpec((0.40, 0.595, 8), I_range, (10.0, 1e4, 2)))
            assert len(report.records) == 8 * I_range[2] * 2 and not report.skipped
            assert report.summaries["C1"].all_pass, I_range

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

    def test_other_material_rejected(self):
        other = glass_beads(d=2e-4, phi_max=0.62)
        state = FlowState(phi=0.5, p=1000.0, shear=100.0)
        with pytest.raises(ValueError) as exc:
            dissipation_density(DP, state, other, GAS, 0.0)
        assert str(exc.value) == f"mat {other} is not the model's material {MAT}"

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

    def test_every_point_skipped(self):
        grid = GridSpec((0.4, 0.5, 2), (0.1, 1.0, 2), (10.0, 100.0, 3))
        report = sweep(_NoDilatancy(), grid)
        assert report.records == [] and len(report.skipped) == 2 * 2 * 3
        assert all(s == conditions.ConditionSummary(True, None, None, 0)
                   for s in report.summaries.values())
        assert list(report.summaries) == list(conditions.CONDITIONS)
        assert not report.all_pass  # skipped points leave a report unproven
        buf = io.StringIO()
        write_report_csv(report, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == ",".join(conditions.PointRecord._fields)
        assert lines[1:] == [
            f"# skipped phi={phi},I={I},p={p}: cannot take a central difference at {I} "
            f"(step {I * rheology.REL_STEP}): f undefined"
            for phi in (0.4, 0.5) for I in (0.1, 1.0) for p in (10.0, 55.0, 100.0)
        ]

    @pytest.mark.parametrize("name", ["dp", "derived", "pair-of-p", "nan", "empty-lincomb"])
    def test_record_fields_are_python_scalars(self, name):
        # no numpy scalar leaks into a row: numpy 2 prints np.float64(...)
        model = {"dp": DP, "derived": DerivedNumeric(MAT, LAW, Z=MUI.yield_function),
                 "pair-of-p": _PressureDependent(LAW), "nan": _NaNAfterFailure(),
                 "empty-lincomb": LinearCombination(MAT, LAW, terms=())}[name]
        report = sweep(model, GridSpec((0.4, 0.5, 2), (0.5, 2.0, 2), (10.0, 100.0, 2)))
        assert len(report.records) == 8
        for row in report.records:
            assert [type(v) for v in row] == [float] * 7 + [bool]

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
        with pytest.raises(ValueError, match=r"^phi_range: count must be an integer, got 2\.5$"):
            GridSpec(phi_range=(0.4, 0.6, 2.5))
        with pytest.raises(ValueError, match=r"^I_range: count must be an integer, got 3\.0$"):
            GridSpec(I_range=(0.1, 1.0, 3.0))
        with pytest.raises(ValueError, match=r"^p grid must be strictly positive$"):
            GridSpec(p_range=(0.0, 100.0, 3))

    def test_grid_takes_numpy_int_counts(self):
        grid = GridSpec(p_range=(10.0, 100.0, np.int64(3)))
        assert grid.p_values().tolist() == [10.0, 55.0, 100.0]

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

    @pytest.mark.parametrize("counts", [(10**12, 12, 4), (12, 10**12, 4), (12, 12, np.int64(10**12)),
                                        (2**20, 2**20, 2**20)], ids=["phi", "I", "p", "all"])
    def test_grid_ceiling_named_before_any_array(self, counts):
        """A grid whose points, at ``_POINT_BYTES`` each, would pass the 1 GiB
        ceiling is refused by name before an array of its size is made."""
        n_phi, n_I, n_p = counts
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as exc:
                GridSpec((0.4, 0.595, n_phi), (1e-2, 10.0, n_I), (10.0, 1e4, n_p))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == (
            f"phi, I and p counts {n_phi}, {n_I} and {n_p} would keep {n_phi * n_I * n_p} points"
            f" of {conditions._POINT_BYTES} bytes, over the 2**30-byte (1 GiB) ceiling")
        assert peak < 64 * 1024

    def test_grid_ceiling_admits_what_fits(self):
        """The largest grid of two I and two p values within the ceiling is
        made and one more phi is refused; the standard grid and a 48x48x8
        grid are far inside."""
        most = conditions.RECORD_MAX_BYTES // conditions._POINT_BYTES // 4
        assert GridSpec((0.4, 0.595, most), (1e-2, 10.0, 2), (10.0, 1e4, 2)).phi_range[2] == most
        with pytest.raises(ValueError, match=r" over the 2\*\*30-byte \(1 GiB\) ceiling$"):
            GridSpec((0.4, 0.595, most + 1), (1e-2, 10.0, 2), (10.0, 1e4, 2))
        standard_grid()
        GridSpec((0.40, 0.595, 48), (1.0e-2, 10.0, 48), (10.0, 1.0e4, 8))

    @pytest.mark.parametrize("phis", [(0.40, 0.595), (0.62, 0.9)], ids=["kept", "skipped"])
    @pytest.mark.parametrize("f_takes_p", [True, False], ids=["f-takes-p", "f-takes-no-p"])
    def test_point_bytes_cover_a_sweep(self, f_takes_p, phis):
        """A sweep and its records, traced, hold at most ``_POINT_BYTES`` a
        point, whether f takes p (a forwarding duck pair, each point read
        alone) or not (mu(I), reads shared over p), with every point kept or
        every point skipped past phi_max."""
        model = _Counting(MUI) if f_takes_p else MUI
        sweep(model, GridSpec((0.4, 0.5, 2), (0.1, 1.0, 2), (10.0, 100.0, 2))).records
        grid = GridSpec((*phis, 24), (1e-2, 10.0, 24), (10.0, 1e4, 8))
        tracemalloc.start()
        try:
            report = sweep(model, grid)
            assert len(report.records) + len(report.skipped) == 24 * 24 * 8
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= conditions._POINT_BYTES * 24 * 24 * 8


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

    def test_shared_reads_once_per_phi_I(self):
        # f takes no p: Z, f and the two I slopes once per (phi, I), df/dp
        # never, and the equilibrium signs (i_eq and three f) once per phi
        grid = standard_grid()
        n_phi, n_I = len(grid.phi_values()), len(grid.I_values())
        model = _CountingShared(MUI)
        report = sweep(model, grid)
        assert not report.skipped and len(report.records) == n_phi * n_I * len(grid.p_values())
        reads = n_phi * n_I
        assert model.calls == {
            "yield_function": reads, "dZ_dI": reads, "df_dI": reads, "df_dp": 0,
            "dilatancy": reads + 3 * n_phi, "i_eq": n_phi,
        }

    def test_derived_one_quadrature_per_read(self, monkeypatch):
        # one per (phi, I) read, as df/dI takes f's; one anchor and three
        # equilibrium-sign reads per phi
        calls = []
        integral = rheology.integral
        monkeypatch.setattr(
            rheology, "integral", lambda *args: calls.append(args[1:3]) or integral(*args))
        grid = standard_grid()
        report = sweep(DerivedNumeric(MAT, LAW, Z=MUI.yield_function), grid)
        assert len(report.records) == 12 * 12 * 4 and not report.skipped
        assert len(calls) == 12 * 12 + 12 + 3 * 12 == 192

    def test_df_dp_read_only_where_f_takes_p(self):
        # A catalogue f takes no p, so C3 takes df/dp = 0 unread; a pair
        # whose f takes p keeps one df/dp read per point, and equal records
        grid = GridSpec((0.4, 0.5, 2), (0.1, 1.0, 3), (10.0, 100.0, 2))
        points = 2 * 3 * 2
        calls = []

        class CountingMuI(MuI):
            def df_dp(self, phi, p, I):
                calls.append((phi, p, I))
                return super().df_dp(phi, p, I)

        catalogue = sweep(CountingMuI(MAT, LAW), grid)
        assert calls == [] and len(catalogue.records) == points

        class CountingTakesP(_CountingShared):
            _f_takes_p = True

        model = CountingTakesP(MUI)
        taking_p = sweep(model, grid)
        assert model.calls["df_dp"] == points and model.calls["df_dI"] == points
        assert taking_p.records == catalogue.records

    @pytest.mark.parametrize("model, takes_p", [
        (DP, False), (MUI_PSI, False), (PowerLaw(MAT, LAW, n=0.5), False),
        (RouxRadjai(MAT, LAW, gain=2.0), False), (DerivedNumeric(MAT, LAW, Z=MUI.yield_function), False),
        (Isochoric(MUI), False), (Isochoric(_PressureDependent(LAW)), False),
        (_PressureDependent(LAW), True), (_ConstantF(), True), (_CountingShared(MUI), False),
        (_Forwarding(MUI), False), (_Forwarding(_PressureDependent(LAW)), True),
        (LinearCombination(MAT, LAW, terms=((0.5, DP), (0.5, MUI))), False),
        (LinearCombination(MAT, LAW, terms=((0.5, DP), (0.5, _PressureDependent(LAW)))), True),
    ], ids=["dp", "mui-psi", "power", "roux-radjai", "derived", "isochoric", "isochoric-of-p",
            "pair-of-p", "pair", "pair-stating", "forwarding", "forwarding-of-p", "lincomb",
            "lincomb-of-p"])
    def test_whose_f_takes_p(self, model, takes_p):
        # a pair that does not say takes p; a forwarding pair says what its model says
        assert rheology._admit(model)._f_takes_p is takes_p


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


def _reference_sweep(model, grid):
    """The sweep read point by point: every read at every (phi, I, p), and the
    equilibrium signs once per (phi, p).  Its summaries come from a scan of
    the records in which the first NaN, else the first largest severity, is
    the worst."""
    report = conditions.ConditionReport()
    model = rheology._admit(model)
    for phi in grid.phi_values().tolist():
        eq_signs = {}
        for I in grid.I_values().tolist():
            for p in grid.p_values().tolist():
                where = (phi, I, p)
                try:
                    dz, df = model.dZ_dI(phi, I), model.df_dI(phi, p, I)
                    z, fv = model.yield_function(phi, I), model.dilatancy(phi, p, I)
                    values = (conditions._c1(I, dz, df, z, fv), conditions._c2(I, dz, z),
                              conditions._c3(I, p, model.df_dp(phi, p, I), df),
                              conditions._gap(z, fv))
                except (ValueError, ArithmeticError) as exc:
                    report.skipped.append((where, conditions._skip_reason(exc)))
                    continue
                if p not in eq_signs:
                    try:
                        eq_signs[p] = check_equilibrium_signs(model, phi, p)
                    except (ValueError, ArithmeticError) as exc:
                        eq_signs[p] = conditions._skip_reason(exc)
                if isinstance(eq_signs[p], str):
                    report.skipped.append((where, eq_signs[p]))
                else:
                    report.records.append(conditions.PointRecord(*where, *values, eq_signs[p]))
    for cond, (name, passes, severity) in conditions._RULES.items():
        failed = [r for r in report.records if not passes(getattr(r, name))]
        summary = conditions.ConditionSummary(True, None, None, 0)
        if failed:
            worst = [severity(float(getattr(r, name))) for r in failed]
            nan = [k for k, v in enumerate(worst) if math.isnan(v)]
            k = nan[0] if nan else max(range(len(worst)), key=worst.__getitem__)
            summary = conditions.ConditionSummary(
                False, failed[k][:3], float(getattr(failed[k], name)), len(failed))
        report.summaries[cond] = summary
    return report


def _bits(report):
    """A report with every float as ``float.hex``, so NaN equals NaN."""
    def hexed(values):
        return tuple(v.hex() if type(v) is float else v for v in values)

    summaries = {c: (s.all_pass, s.worst_point and hexed(s.worst_point),
                     None if s.worst_value is None else s.worst_value.hex(), s.n_failures)
                 for c, s in report.summaries.items()}
    return [hexed(r) for r in report.records], report.skipped, summaries


@st.composite
def _small_grids(draw):
    """2-4 values per axis: phi from 0.35 to past phi_max, where models and
    laws raise; I log-spaced or not in [1e-3, 20]; p in [1, 1e4]."""
    def axis(lo, hi, width):
        a = draw(st.floats(lo, hi))
        return a, a + draw(st.floats(width / 100.0, width)), draw(st.integers(2, 4))

    return GridSpec(axis(0.35, 0.6, 0.1), axis(1e-3, 10.0, 10.0), axis(1.0, 5e3, 5e3),
                    draw(st.booleans()))


EQUIVALENCE_MODELS = ("dp", "mui", "dp-psi", "mui-psi", "power:0.5", "power:-0.5", "power:2",
                      "roux-radjai", "roux-radjai-dp", "derived", "isochoric", "pair-of-p",
                      "lincomb-of-p")


def _equivalence_model(name, law):
    if name == "derived":
        return DerivedNumeric(MAT, law, Z=lambda phi, I: 0.38 + 0.27 * I / (I + 0.3) + 0.1 * (0.6 - phi))
    if name == "pair-of-p":
        return _PressureDependent(law)
    if name == "lincomb-of-p":
        return LinearCombination(MAT, law, terms=(
            (lambda phi: (phi - 0.3) / 0.3, MuI(MAT, law)), (0.5, _PressureDependent(law))))
    return _closed_form(name, law)


class TestSweepMatchesPointwise:
    """The shared reads change no bit of a report: records, skipped points
    with their reasons, and summaries equal a point-by-point sweep's."""

    @pytest.mark.parametrize("law", LAWS)
    @pytest.mark.parametrize("name", EQUIVALENCE_MODELS)
    @given(grid=_small_grids())
    @settings(max_examples=8, deadline=None)
    def test_bitwise(self, name, law, grid):
        law = EquilibriumLaw(law)
        report = sweep(_equivalence_model(name, law), grid)
        assert _bits(report) == _bits(_reference_sweep(_equivalence_model(name, law), grid))


#: The closed-form models with a row read, and combinations of them.
ROW_MODELS = ("dp", "mui", "dp-psi", "mui-psi", "power:0.5", "power:-0.5", "power:2",
              "roux-radjai", "roux-radjai-dp", "lincomb-const", "lincomb-callable")


@st.composite
def _edge_grids(draw):
    """Grids that reach where row reads stop: phi from 0.30, below the
    schaeffer law's range (which starts near 0.4002), to past phi_max = 0.6,
    and I from 1e-170, where Python's I**2 underflows to 0 and a scalar read
    divides by it, up to 20."""
    phi_lo = draw(st.floats(0.30, 0.62))
    I_lo = 10.0 ** draw(st.one_of(st.floats(-170.0, -150.0), st.floats(-4.0, 1.0)))
    return GridSpec(
        (phi_lo, phi_lo + draw(st.floats(1e-3, 0.1)), draw(st.integers(2, 4))),
        (I_lo, min(20.0, I_lo * 10.0 ** draw(st.floats(0.5, 175.0))), draw(st.integers(2, 5))),
        (10.0, 10.0 + draw(st.floats(1.0, 1e4)), draw(st.integers(2, 3))),
        draw(st.booleans()),
    )


class TestRowReads:
    """A closed-form model's row read over every I of a phi changes no bit
    of a report, and costs one i_eq read per phi and one call of each term in
    I alone per sweep."""

    #: Reaches every edge at once: phi below the schaeffer law's range and past
    #: phi_max, and I where I**2 underflows.
    EDGES = GridSpec((0.35, 0.62, 4), (1e-170, 10.0, 6), (10.0, 1e4, 2))

    @pytest.mark.parametrize("law", LAWS)
    @pytest.mark.parametrize("name", ROW_MODELS)
    @given(grid=_edge_grids())
    @example(grid=EDGES)
    @settings(max_examples=10, deadline=None)
    def test_bitwise_at_the_edges(self, name, law, grid):
        model = _closed_form(name, EquilibriumLaw(law))
        assert rheology._admit(model)._row is not None
        assert _bits(sweep(model, grid)) == _bits(_reference_sweep(model, grid))

    def test_edges_reach_every_fallback(self):
        # the edge grid holds points skipped by i_eq above phi_max and below
        # the schaeffer law's range, by the ZeroDivisionError of I**2 = 0, and
        # rows read by the row read
        report = sweep(MuI(MAT, EquilibriumLaw("schaeffer")), self.EDGES)
        reasons = {reason.split(" ")[0] for _, reason in report.skipped}
        assert reasons == {"phi=0.35", "no", "ZeroDivisionError:"}
        assert report.records

    def test_empty_combination_takes_the_scalar_reads(self):
        # no term has a row read, so the scalar reads give every value: 0
        model = LinearCombination(MAT, LAW, terms=())
        assert model._row is None
        report = sweep(model, self.EDGES)
        assert _bits(report) == _bits(_reference_sweep(model, self.EDGES))
        assert report.records
        assert {r.c1_residual for r in report.records} == {0}

    def test_subclass_sweeps_its_override(self):
        class Doubled(MuI):
            def dilatancy(self, phi, p, I):
                return 2.0 * super().dilatancy(phi, p, I)

        model, grid = Doubled(MAT, LAW), GridSpec((0.45, 0.55, 3), (0.1, 1.0, 4), (10.0, 100.0, 2))
        assert MuI._row is not None and Doubled._row is None
        report = sweep(model, grid)
        assert _bits(report) == _bits(_reference_sweep(model, grid))
        assert report.records != sweep(MUI, grid).records

    def test_a_row_is_read_one_way(self, monkeypatch):
        # the schaeffer mu(I) rows at phi = 0.44 and 0.53 are finite but at
        # I = 1e-170, where df/dI divides by I**2 = 0, and every point of
        # them takes the scalar reads, as do the rows at 0.35 and 0.62, whose
        # row read raises; the Roux-Radjai rows there are finite at every I,
        # and their equilibrium check raises: all their points are skipped
        # with its reason, and none is read again
        reads = {}

        def shared(model, phi, p, I, shared=conditions._shared_reads):
            reads[phi] = reads.get(phi, 0) + 1
            return shared(model, phi, p, I)

        monkeypatch.setattr(conditions, "_shared_reads", shared)
        law, phis = EquilibriumLaw("schaeffer"), self.EDGES.phi_values().tolist()
        sweep(MuI(MAT, law), self.EDGES)
        assert reads == dict.fromkeys(phis, 6)
        reads.clear()
        report = sweep(RouxRadjai(MAT, law, gain=2.0), self.EDGES)
        assert not reads
        points = [(I, p) for I in self.EDGES.I_values().tolist()
                  for p in self.EDGES.p_values().tolist()]
        for phi, what in ((phis[0], "below the range"), (phis[-1], "> phi_max")):
            skipped = [(point[1:], reason) for point, reason in report.skipped if point[0] == phi]
            assert [point for point, _ in skipped] == points
            assert len({reason for _, reason in skipped}) == 1 and what in skipped[0][1]
        assert len(report.skipped) == 2 * len(points)

    #: Per model: i_eq calls per phi (one by the row read, one and three f
    #: reads by the equilibrium signs; none by Roux-Radjai's f); the scalar
    #: term calls the row path makes per I (one per term function, a tuple
    #: each) and per (phi, I) (the Drucker-Prager angle's power, which takes
    #: phi); and of the former the calls per I of F, G, mu, mu', phi_eq and
    #: phi_eq'.
    WORK = {
        "dp": (5, 1, 0, 0), "mui": (5, 1, 0, 3), "dp-psi": (5, 0, 1, 0), "mui-psi": (5, 1, 0, 3),
        "power:0.5": (5, 1, 0, 0), "roux-radjai": (1, 1, 0, 2), "roux-radjai-dp": (1, 1, 0, 2),
        "lincomb-const": (9, 2, 0, 3),
    }
    SCALAR = ("friction_mu", "friction_mu_prime", "mui_shear_factor", "mui_angle_primitive",
              "law_phi_eq", "phi_eq_prime")

    @pytest.mark.parametrize("name", list(WORK))
    def test_work_per_phi_and_per_sweep(self, name, monkeypatch):
        # I in [0.01, 0.09] meets none of the equilibrium signs' I_eq, 2 I_eq
        # and I_eq / 2 (I_eq in [0.25, 0.75] on these phi), so every term
        # call at a grid I is the row read's
        calls = {"i_eq": 0, "each": 0, "scalar": 0, "shared": 0}
        grid_I = set()

        def counted(fun, key, at_grid_I=False):
            def call(*args):
                calls[key] += not at_grid_I or args[-1] in grid_I
                return fun(*args)
            return call

        def each(fun, I, each=rheology._each):  # one scalar call per element
            calls["each"] += len(I)
            return each(fun, I)

        monkeypatch.setattr(rheology, "_each", each)
        monkeypatch.setattr(rheology, "law_i_eq", counted(rheology.law_i_eq, "i_eq"))
        monkeypatch.setattr(conditions, "_shared_reads", counted(conditions._shared_reads,
                                                                 "shared"))
        for fun in self.SCALAR:
            monkeypatch.setattr(rheology, fun, counted(getattr(rheology, fun), "scalar", True))
        for n_phi, n_I, n_p in ((3, 5, 2), (4, 7, 6)):
            grid = GridSpec((0.45, 0.55, n_phi), (0.01, 0.09, n_I), (10.0, 100.0, n_p))
            grid_I.clear()
            grid_I.update(grid.I_values().tolist())
            calls.update(dict.fromkeys(calls, 0))
            report = sweep(_closed_form(name, LAW), grid)
            assert len(report.records) == n_phi * n_I * n_p and not report.skipped
            per_phi, per_I, per_phi_I, scalar_per_I = self.WORK[name]
            assert calls == {"i_eq": per_phi * n_phi, "each": (per_I + per_phi_I * n_phi) * n_I,
                             "scalar": scalar_per_I * n_I, "shared": 0}


def _error(fun, *args):
    try:
        fun(*args)
    except ValueError as exc:
        return str(exc)
    return None


def _size_of_terms(model, phi, p, I):
    """The size of the terms f sums: |f|, but for Roux-Radjai's
    f = a (phi - phi_eq(I)) the two terms, which cancel near equilibrium."""
    if isinstance(model, RouxRadjai):
        return abs(model.gain) * (abs(phi) + abs(model.phi_eq(I)))
    return abs(model.dilatancy(phi, p, I))


def _assert_slopes_match(model, phi, p, I):
    """The closed-form slopes agree with central differences of Z and f."""
    for slope, fun, size, x in (
        (model.dZ_dI(phi, I), lambda J: model.yield_function(phi, J),
         lambda J: abs(model.yield_function(phi, J)), I),
        (model.df_dI(phi, p, I), lambda J: model.dilatancy(phi, p, J),
         lambda J: _size_of_terms(model, phi, p, J), I),
        (model.df_dp(phi, p, I), lambda q: model.dilatancy(phi, q, I),
         lambda q: _size_of_terms(model, phi, q, I), p),
    ):
        # the difference's round-off is about eps |F's terms| / h, with
        # h = 1e-6 x; the largest deviation measured was 1.1e-9 of this scale
        scale = max(abs(slope), size(x) / x)
        assert abs(slope - rheology._central(fun, x, rheology.REL_STEP)) <= 1e-8 * scale


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
        _assert_slopes_match(model, phi, p, I)

    @pytest.mark.parametrize("phi", [0.595, 0.59375])
    def test_slopes_match_where_f_cancels(self, phi):
        # f = a (phi - phi_eq(I)) near zero; at phi = 0.595 the central df/dI
        # is 0.39999999306 against the exact 0.4, 6.9e-9 off, above the bound
        # 1e-8 max(|slope|, |f|/I) = 5.6e-9 that left out the size of f's terms
        model = _closed_form("roux-radjai", EquilibriumLaw("linear"))
        _assert_slopes_match(model, phi, 100.0, math.exp(-4.5625))

    @pytest.mark.parametrize("name", CLOSED_FORM)
    @pytest.mark.parametrize(
        "law, phi, I",
        [("linear", 0.61, 1.0), ("schaeffer", 0.40, 0.01), ("linear", MAT.phi_max, 1.0),
         ("linear", 0.5, 0.0), ("linear", 0.5, -0.1), ("linear", 0.5, math.nan),
         ("linear", math.nan, 1.0)],
        ids=["above-phi-max", "below-law-range", "at-phi-max", "I-zero", "I-negative", "I-nan",
             "phi-nan"],
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


class _NaNAfterFailure:
    """Stub whose C2 value Z + I dZ/dI is -1 for I < 1 and NaN from I = 1 on."""

    def yield_function(self, phi, I):
        return -1.0 if I < 1.0 else math.nan

    def dilatancy(self, phi, p, I):
        return I - 0.5

    def i_eq(self, phi):
        return 0.5


class TestReportSummaries:
    """Summaries of the failing sweeps on the standard grid: sha256 of
    ``summary_text()`` and ``float.hex`` of each worst value, recorded with
    the per-condition record scans the summary table replaced."""

    PINNED = {
        ("dp-psi", "linear"): (
            "d284e398f86950b3f6b6e4e028b29ee7f54fe9b32d8c709c284cba8a791c30d8",
            {"C2": "-0x1.8c7c24ce10110p-1"},
        ),
        ("dp-psi", "schaeffer"): (
            "2b87e313d48885f06ef6736d960511450993d2abb4700e48f0bbc4b76d5484ff",
            {"C2": "-0x1.df12cf57ee29dp+0"},
        ),
        ("dp-psi", "robinson"): (
            "133086d483175ce7b13742543d5ff05b5140a8e3b095c7e1fd7313bdd80f2b11",
            {"C2": "-0x1.001b4eaae89e4p+0"},
        ),
        ("dp-psi", "breard"): (
            "f49b856b52fa85d7ef978345271d170d2bcd05bc3cefe062dd8bbe5a6171bfe3",
            {"C2": "-0x1.f769852416ed0p-2"},
        ),
        ("mui-psi", "linear"): (
            "65f2c466482905be6f3d3e601ada12c8241d90e759a3565d8ec711c85f4aff71",
            {"C2": "-0x1.6a3a5cb7a04d9p-1"},
        ),
        ("mui-psi", "schaeffer"): (
            "e41510f19756f45fb9dcd0ead47a4acb50e5b7ca5641f7eb605428609f76f527",
            {"C2": "-0x1.a8394a610ce96p+0"},
        ),
        ("mui-psi", "robinson"): (
            "b8e281e49949ed53d205f16d7007bd578c9c2f345a44141f8f286d20b3384851",
            {"C2": "-0x1.d1b124ee1a3cdp-1"},
        ),
        ("mui-psi", "breard"): (
            "ee0191e6dc19f311b80f8cb46087d2797452df26dd08dc2bce551c3127841028",
            {"C2": "-0x1.d3e087de3c8b6p-2"},
        ),
        ("roux-radjai", "linear"): (
            "beddf4e2a674e8c4952c1e81dcc73e6372a8c11a87634a160be0e37da11eaed2",
            {"C1": "-0x1.7110211158e36p+2", "dissipation": "-0x1.1b1ab7fbd8540p-5"},
        ),
        ("roux-radjai", "schaeffer"): (
            "d289aaa04d0120d025f60cd8054a0f3927d1020a33aa0240b64b0f113a559bfd",
            {"C1": "0x1.15db7b17c05cep-1", "equilibrium": "0x0.0p+0"},
        ),
        ("roux-radjai", "robinson"): (
            "940803f4739cabaf6b8c2e8cafb5cecf03f5d917be95c7b4ac2247a15ede946e",
            {"C1": "-0x1.b8f3fa0dcc396p+0", "equilibrium": "0x0.0p+0"},
        ),
        ("roux-radjai", "breard"): (
            "4054689b501367f845f66cd81c2d9008a4268925879d12ecd2a196c3de2c189b",
            {"C1": "0x1.11fdf79929884p-1", "equilibrium": "0x0.0p+0"},
        ),
        ("roux-radjai-dp", "linear"): (
            "4dad61cd8d128f80fee08950ec51a234e2d71d68a2e2d81f66b5003e3845b765",
            {"C1": "-0x1.df5c28f5c28f6p+2", "dissipation": "-0x1.beb851eb851ebp+1"},
        ),
        ("roux-radjai-dp", "schaeffer"): (
            "ee5ee7f135b0d25a4d58f26069fbc3ec2037b9a51df55e03bc7097b6cbcd4849",
            {"C1": "0x1.b69ca5b7a30ecp-1", "equilibrium": "0x0.0p+0"},
        ),
        ("roux-radjai-dp", "robinson"): (
            "1871597157ea59a279408203b39c6a8e2073ce1aeb1d267ae62fd6b451bc837b",
            {
                "C1": "-0x1.4b6d7f005b631p+1",
                "dissipation": "-0x1.3270643fa91d1p+0",
                "equilibrium": "0x0.0p+0",
            },
        ),
        ("roux-radjai-dp", "breard"): (
            "86eff757d6fc9ba681ef81c18450237c7e8d0a966c52ab9a096da7aae75a32ce",
            {
                "C1": "0x1.c0b1a2f4a4491p-1",
                "dissipation": "-0x1.296cea96cea96p-1",
                "equilibrium": "0x0.0p+0",
            },
        ),
        ("isochoric", "linear"): (
            "ecdd36718368326f4026eca00763de69713749b5e89d40396e67cbcbdd685a01",
            {"C1": "0x1.469d4b5b2da38p-1", "C3": "0x0.0p+0", "equilibrium": "0x0.0p+0"},
        ),
        ("isochoric", "schaeffer"): (
            "cbd09b050b60be5fbd3ca3c310796eae763f1aaa5cf7f4d8e232cf2ab1b3aded",
            {"C1": "0x1.469d4b5b2da38p-1", "C3": "0x0.0p+0", "equilibrium": "0x0.0p+0"},
        ),
        ("isochoric", "robinson"): (
            "ecdd36718368326f4026eca00763de69713749b5e89d40396e67cbcbdd685a01",
            {"C1": "0x1.469d4b5b2da38p-1", "C3": "0x0.0p+0", "equilibrium": "0x0.0p+0"},
        ),
        ("isochoric", "breard"): (
            "ecdd36718368326f4026eca00763de69713749b5e89d40396e67cbcbdd685a01",
            {"C1": "0x1.469d4b5b2da38p-1", "C3": "0x0.0p+0", "equilibrium": "0x0.0p+0"},
        ),
        ("power:3", "linear"): (
            "bd3a75f17baf1ccbcd961b9c3e646ad1a0040beafd246b76ce3daca9efdc50f1",
            {
                "C3": "0x1.2c028f5c28f5cp+4",
                "dissipation": "-0x1.8ffffda4052d1p+3",
                "equilibrium": "0x0.0p+0",
            },
        ),
        ("power:3", "schaeffer"): (
            "319a04b3e0fd8e61ab5853c2b4a91e54e6e3b59b3053cf99bc595cfcade6bde6",
            {
                "C3": "0x1.b498684672f83p+12",
                "dissipation": "-0x1.10df412bfb45ep+17",
                "equilibrium": "0x0.0p+0",
            },
        ),
        ("power:3", "robinson"): (
            "f9c620a9edae95742fc395f794abe14acda47e1f2d6accb03f4fa68dd3da5d5a",
            {
                "C3": "0x1.2c14c72e3c7c1p+4",
                "dissipation": "-0x1.95d23ec1d79eap+6",
                "equilibrium": "0x0.0p+0",
            },
        ),
        ("power:3", "breard"): (
            "2c3f3fda45147fafc0d3dad8e856dd0b7e8a57de7d3c4d70d4876102c2d356ff",
            {
                "C3": "0x1.2c0028f5c28f6p+4",
                "dissipation": "-0x1.8fffda4073a66p-1",
                "equilibrium": "0x0.0p+0",
            },
        ),
    }

    @pytest.mark.parametrize("name, law", list(PINNED), ids=[f"{n}-{l}" for n, l in PINNED])
    def test_pinned_summary(self, name, law):
        report = sweep(_closed_form(name, EquilibriumLaw(law)), standard_grid())
        digest, worst = self.PINNED[name, law]
        assert hashlib.sha256(report.summary_text().encode()).hexdigest() == digest
        assert {c: s.worst_value.hex() for c, s in report.summaries.items()
                if s.worst_value is not None} == worst

    def test_nan_is_the_worst_point(self):
        # C2 fails with -1 at I = 0.5 before the NaN points at I = 2
        report = sweep(_NaNAfterFailure(), GridSpec((0.4, 0.5, 2), (0.5, 2.0, 2), (10.0, 100.0, 2)))
        s = report.summaries["C2"]
        assert s.worst_point == (0.4, 2.0, 10.0) and math.isnan(s.worst_value)
        assert s.n_failures == len(report.records) == 8
        assert "C2           FAIL (8 points); worst at phi=0.4, I=2, p=10 with value nan" in (
            report.summary_text())

    def test_rows_are_plain_tuples(self):
        report = sweep(DP, GridSpec((0.4, 0.5, 2), (0.1, 1.0, 2), (10.0, 100.0, 2)))
        row = report.records[0]
        assert isinstance(row, tuple) and row[:3] == (row.phi, row.I, row.p) == (0.4, 0.1, 10.0)
        assert type(row.eq_sign_ok) is bool
        with pytest.raises(AttributeError):
            row.phi = 0.5


class TestRecordsOnFirstRead:
    """A report keeps its sweep's reads; its rows are made on the first read
    of ``records`` and then kept, and the summaries read none of them."""

    GRID = GridSpec((0.4, 0.5, 2), (0.1, 1.0, 3), (10.0, 100.0, 4))
    MODELS = {"dp": DP, "derived": DerivedNumeric(MAT, LAW, Z=MUI.yield_function),
              "pair-of-p": _PressureDependent(LAW), "nan": _NaNAfterFailure(),
              "roux-radjai": RouxRadjai(MAT, LAW, gain=1.0, z_mode="dp")}

    @pytest.mark.parametrize("name", list(MODELS))
    def test_no_record_made_unread(self, name):
        model = self.MODELS[name]
        reports = sweep(model, self.GRID), classify(model, self.GRID).report
        for report in reports:
            report.summary_text(), report.all_pass, report.failing_conditions()
            assert "records" not in vars(report)
        report = reports[0]
        assert report.records is report.records
        assert len(report.records) == 2 * 3 * 4 - len(report.skipped)

    @pytest.mark.parametrize("name", ["dp", "derived"])
    def test_rows_share_each_reads_objects(self, name):
        # f takes no p, so the 4 rows of each (phi, I) come from one read
        rows = sweep(self.MODELS[name], self.GRID).records
        assert len(rows) == 2 * 3 * 4
        shared = ("phi", "I", "c1_residual", "c2_value", "dissipation_gap")
        for k in range(0, len(rows), 4):  # the rows of one (phi, I)
            first, *rest = rows[k:k + 4]
            assert [r.p for r in (first, *rest)] == self.GRID.p_values().tolist()
            for row in rest:
                assert all(getattr(row, f) is getattr(first, f) for f in shared)


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
