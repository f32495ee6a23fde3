"""Extended spectral symbol and the stability classification gate."""

import numpy as np
import pytest

from granupore.conditions import GridSpec, standard_grid
from granupore.materials import EquilibriumLaw, GasParams, glass_beads
from granupore.rheology import (
    DruckerPrager,
    Isochoric,
    MuI,
    MuIDilatant,
    RouxRadjai,
)
from granupore.stability import (
    assemble_extended_symbol,
    classify,
    extended_spectrum_property,
    pore_diffusivity,
    spectral_union_matches,
)

MAT = glass_beads()
LAW = EquilibriumLaw()
GAS = GasParams()


class TestPoreDiffusivity:
    def test_value(self):
        assert pore_diffusivity(0.6, GAS, 1e-4) == pytest.approx(
            0.16674897119341567, rel=1e-12
        )

    def test_scales_as_d_squared(self):
        assert pore_diffusivity(0.6, GAS, 2e-4) / pore_diffusivity(
            0.6, GAS, 1e-4
        ) == pytest.approx(4.0, rel=1e-12)

    def test_positive_everywhere(self):
        for phi in np.linspace(0.01, 0.99, 25):
            assert pore_diffusivity(phi, GAS, 1e-4) > 0

    def test_domain(self):
        with pytest.raises(ValueError):
            pore_diffusivity(0.0, GAS, 1e-4)
        with pytest.raises(ValueError):
            pore_diffusivity(1.0, GAS, 1e-4)


class TestExtendedSymbol:
    def test_minimal_example(self):
        sym = assemble_extended_symbol([[2.0]], [3.0, 0.0], [0], 1.0)
        np.testing.assert_allclose(sym.M, [[2.0, 3.0j], [0.0, 9.0]])
        assert sym.added_eigenvalue == pytest.approx(9.0)

    def test_sparsity_pattern(self):
        rng = np.random.default_rng(7)
        N = rng.standard_normal((4, 4))
        xi = np.array([1.5, -2.0])
        sym = assemble_extended_symbol(N, xi, [1, 2], 0.3)
        # last row zero except the corner
        np.testing.assert_allclose(sym.M[4, :4], 0.0)
        assert sym.M[4, 4] == pytest.approx(0.3 * (1.5**2 + 4.0))
        # last column carries i*xi in momentum rows only
        np.testing.assert_allclose(sym.M[[0, 3], 4], 0.0)
        assert sym.M[1, 4] == 1.5j
        assert sym.M[2, 4] == -2.0j

    def test_spectral_union_random(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            k = int(rng.integers(1, 7))
            N = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            dim = int(rng.integers(1, min(k, 3) + 1))
            xi = rng.standard_normal(dim) * 3.0
            rows = rng.choice(k, size=dim, replace=False)
            c = float(rng.uniform(0.0, 2.0))
            sym = assemble_extended_symbol(N, xi, rows, c)
            assert spectral_union_matches(sym, tol=1e-8)

    def test_zero_diffusivity_adds_zero_eigenvalue(self):
        sym = assemble_extended_symbol([[2.0, 1.0], [0.0, 3.0]], [1.0], [0], 0.0)
        eigs = np.sort_complex(np.linalg.eigvals(sym.M))
        assert abs(eigs[0]) < 1e-14

    def test_added_eigenvalue_quadratic_in_xi(self):
        N = np.diag([1.0, 2.0])
        a = assemble_extended_symbol(N, [1.3, 0.4], [0, 1], 0.7)
        b = assemble_extended_symbol(N, [2.6, 0.8], [0, 1], 0.7)
        assert b.added_eigenvalue == pytest.approx(
            4.0 * a.added_eigenvalue, rel=1e-12
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            assemble_extended_symbol([[1.0, 2.0]], [1.0], [0], 1.0)  # not square
        with pytest.raises(ValueError):
            assemble_extended_symbol([[1.0]], [1.0], [0, 0], 1.0)  # dup rows
        with pytest.raises(ValueError):
            assemble_extended_symbol([[1.0]], [1.0], [1], 1.0)  # out of range
        with pytest.raises(ValueError):
            assemble_extended_symbol([[1.0]], [1.0, 2.0], [0, 0], 1.0)
        with pytest.raises(ValueError, match=r"^2 momentum rows exceed min\(k=2, dim=1\)$"):
            assemble_extended_symbol(np.eye(2), [1.0], [0, 1], 1.0)


class TestSpectrumProperty:
    def test_spectra_sorted_and_decomposed_once(self, monkeypatch):
        eigvals, shapes = np.linalg.eigvals, []
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: shapes.append(a.shape) or eigvals(a))
        N = np.array([[3.0, 1.0, 0.0], [0.0, -1.0, 2.0], [0.0, 0.0, 1.0]])
        sym = assemble_extended_symbol(N, [1.0, 2.0], [0, 1], 0.5)
        assert spectral_union_matches(sym) and extended_spectrum_property(sym)
        np.testing.assert_allclose(sym.spectrum_N, [-1.0, 1.0, 3.0], atol=1e-12)
        np.testing.assert_allclose(sym.spectrum_M, [-1.0, 1.0, 2.5, 3.0], atol=1e-12)
        assert sym.spectrum_M is sym.spectrum_M
        assert sorted(shapes) == [(3, 3), (4, 4)]

    def test_positive_block(self):
        sym = assemble_extended_symbol(np.diag([1.0, 2.0]), [1.0, 2.0], [0, 1], 1.0)
        assert extended_spectrum_property(sym)

    def test_negative_block_not_degraded(self):
        # a negative granular eigenvalue stays the spectral floor: the gas
        # coupling never pushes the spectrum further down
        sym = assemble_extended_symbol(np.diag([-1.0, 2.0]), [1.0], [0], 1.0)
        assert extended_spectrum_property(sym)
        eigs = np.linalg.eigvals(sym.M)
        assert np.min(eigs.real) == pytest.approx(-1.0, abs=1e-12)

    def test_hermitian_plus_shift_trials(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            k = int(rng.integers(2, 6))
            A = rng.standard_normal((k, k))
            N = (A + A.T) / 2 + np.eye(k) * rng.uniform(-1.0, 3.0)
            xi = rng.standard_normal(2)
            sym = assemble_extended_symbol(N, xi, rng.choice(k, 2, replace=False), 0.5)
            assert extended_spectrum_property(sym)


class TestClassify:
    def test_dp_certified(self):
        verdict = classify(DruckerPrager(MAT, LAW), standard_grid(), model_id="dp")
        assert verdict.verdict == "certified-stable"
        assert verdict.failing == ()

    def test_mui_certified(self):
        verdict = classify(MuI(MAT, LAW), standard_grid())
        assert verdict.verdict == "certified-stable"

    def test_isochoric_surrogate_violated(self):
        verdict = classify(Isochoric(DruckerPrager(MAT, LAW)), standard_grid())
        assert verdict.verdict == "conditions-violated"
        assert "C1" in verdict.failing

    def test_naive_roux_radjai_violated(self):
        verdict = classify(RouxRadjai(MAT, LAW, gain=1.0), standard_grid())
        assert verdict.verdict == "conditions-violated"
        assert "C1" in verdict.failing

    def test_mui_dilatant_small_angle_certified(self):
        grid = GridSpec(I_range=(0.2, 10.0, 10))
        verdict = classify(MuIDilatant(MAT, LAW), grid)
        assert verdict.verdict == "certified-stable"

    def test_mui_dilatant_at_phi_max_indeterminate(self):
        # phi = 0.6 = phi_max is outside mu(I)-with-dilation's domain: the
        # sweep skips it and the remaining points all pass.
        grid = GridSpec(phi_range=(0.5, 0.6, 3), I_range=(1.0, 10.0, 3), p_range=(10.0, 100.0, 2))
        v = classify(MuIDilatant(MAT, LAW), grid)
        assert v.verdict == "indeterminate"
        assert len(v.report.records) == 12
        assert len(v.report.skipped) == 6
        assert v.failing == ()

    def test_mui_dilatant_full_grid_fails_C2_only(self):
        verdict = classify(MuIDilatant(MAT, LAW), standard_grid())
        assert verdict.verdict == "conditions-violated"
        assert verdict.failing == ("C2",)
