"""Box and column integrators: bounds, attraction, conservation, energy."""

import hashlib
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from granupore.materials import EquilibriumLaw, GasParams, glass_beads
from granupore.rheology import (
    DruckerPrager,
    DruckerPragerDilatant,
    MuI,
    MuIDilatant,
    RouxRadjai,
)
from granupore.simulate import (
    column_cfl_dt,
    constant_forcing,
    energy_ledger,
    gas_content,
    piecewise_constant_forcing,
    random_forcing,
    run_box,
    run_column,
    step_box,
    step_column,
    uniform_column,
)
from granupore.stability import pore_diffusivity

GAS = GasParams()
LAW = EquilibriumLaw()
MAT = glass_beads()

MODELS = {
    "dp": DruckerPrager(MAT, LAW),
    "mui": MuI(MAT, LAW),
    "dp-psi": DruckerPragerDilatant(MAT, LAW),
    "mui-psi": MuIDilatant(MAT, LAW),
}


def _shear_for(mat, I, p):
    return I * math.sqrt(p / mat.rho_s) / mat.d


class TestForcing:
    def test_piecewise_lookup(self):
        f = piecewise_constant_forcing([0.0, 1.0, 2.0], [5.0, 7.0], [10.0, 20.0])
        assert f.shear(0.5) == 5.0 and f.shear(1.5) == 7.0
        assert f.p(-1.0) == 10.0 and f.p(5.0) == 20.0  # clamped to end segments

    def test_validation(self):
        nan = float("nan")
        for edges, shears, ps in [
            ([0.0, 1.0], [1.0, 2.0], [1.0, 2.0]),
            ([0.0], [], []),
            ([1.0, 0.0, 2.0], [1.0, 2.0], [1.0, 2.0]),  # unsorted
            ([0.0, nan, 2.0], [1.0, 2.0], [1.0, 2.0]),
            ([0.0, 1.0, 2.0], [1.0, -2.0], [1.0, 2.0]),
            ([0.0, 1.0, 2.0], [nan, 2.0], [1.0, 2.0]),
            ([0.0, 1.0, 2.0], [1.0, 2.0], [1.0, nan]),
        ]:
            with pytest.raises(ValueError):
                piecewise_constant_forcing(edges, shears, ps)
        for shear, p in [(1.0, 0.0), (1.0, nan), (-1.0, 1.0), (nan, 1.0)]:
            with pytest.raises(ValueError):
                constant_forcing(shear, p)
        for t_end in (-1e-3, nan):
            with pytest.raises(ValueError, match="t_end must be non-negative"):
                random_forcing(np.random.default_rng(0), t_end)
        with pytest.raises(ValueError, match="t_end must be finite, got inf"):
            random_forcing(np.random.default_rng(0), math.inf)
        # equal edges make an empty segment, which is legal
        f = piecewise_constant_forcing([0.0, 1.0, 1.0, 2.0], [5.0, 6.0, 7.0], [1.0] * 3)
        assert f.shear(0.5) == 5.0 and f.shear(1.0) == 7.0

    def test_infinite_values_named(self):
        inf = math.inf
        for shear, p, name in [(inf, 1.0, "shear"), (1.0, inf, "pressure")]:
            with pytest.raises(ValueError, match=f"^forcing {name} must be finite, got inf$"):
                constant_forcing(shear, p)
        for shears, ps, name in [([1.0, inf], [1.0, 2.0], "shears"),
                                 ([1.0, 2.0], [inf, 2.0], "pressures")]:
            with pytest.raises(ValueError, match=f"^forcing {name} must be finite$"):
                piecewise_constant_forcing([0.0, 1.0, 2.0], shears, ps)

    def test_random_forcing_deterministic(self):
        a = random_forcing(np.random.default_rng(3), 1.0)
        b = random_forcing(np.random.default_rng(3), 1.0)
        for t in (0.1, 0.4, 0.9):
            assert a.shear(t) == b.shear(t) and a.p(t) == b.p(t)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_forcing_ranges(self, seed):
        f = random_forcing(np.random.default_rng(seed), 1.0)
        mids = (np.arange(8) + 0.5) / 8  # one time inside each segment
        shears, ps = [f.shear(t) for t in mids], [f.p(t) for t in mids]
        assert len(set(shears)) == len(set(ps)) == 8
        assert all(50.0 <= s <= 1500.0 for s in shears)
        assert all(10.0 <= p <= 1.0e4 for p in ps)


class TestStepBox:
    def test_bad_dt(self):
        from granupore.simulate import BoxState

        with pytest.raises(ValueError):
            step_box(BoxState(0.0, 0.5), MODELS["dp"], MAT, constant_forcing(1.0, 10.0), 0.0)

    def test_pf_requires_gas(self):
        from granupore.simulate import BoxState

        with pytest.raises(ValueError):
            step_box(
                BoxState(0.0, 0.5, 10.0),
                MODELS["dp"],
                MAT,
                constant_forcing(1.0, 10.0),
                1e-6,
            )


class TestRunSettings:
    @pytest.mark.parametrize(
        "kwargs",
        [dict(dt=0.0), dict(dt=-1e-6), dict(t_end=-1e-3), dict(record_every=0),
         dict(t_end=math.inf)],
    )
    def test_run_box_rejects(self, kwargs):
        settings = dict(phi0=0.5, t_end=1e-5, dt=1e-6) | kwargs
        with pytest.raises(ValueError):
            run_box(MODELS["dp"], MAT, constant_forcing(1.0, 10.0), **settings)

    def test_run_box_rejects_zero_steps(self):
        box = (MODELS["dp"], MAT, constant_forcing(1.0, 10.0))
        with pytest.raises(ValueError, match="t_end = 1e-06 rounds to zero steps of dt = 1e-05"):
            run_box(*box, phi0=0.5, t_end=1e-6, dt=1e-5)
        assert run_box(*box, phi0=0.5, t_end=0.0, dt=1e-5).t.tolist() == [0.0]

    @pytest.mark.parametrize(
        "kwargs,name",
        [
            (dict(phi0=math.nan), "phi0"),
            (dict(phi0=0.0), "phi0"),
            (dict(phi0=1.0), "phi0"),
            (dict(pf0=math.nan, gas=GAS), "pf0"),
            (dict(pf0=-2.0e5, gas=GAS), "pf0"),
            (dict(pf0=-GAS.p_atm, gas=GAS), "pf0"),
            (dict(pf0=math.inf, gas=GAS), "pf0 must be finite"),
            (dict(pf0=0.0), "gas parameters"),
        ],
        ids=["phi0-nan", "phi0-zero", "phi0-one", "pf0-nan", "pf0-low", "pf0-p_atm", "pf0-inf",
             "no-gas"],
    )
    def test_run_box_rejects_initial_state(self, kwargs, name):
        settings = dict(phi0=0.5, t_end=1e-5, dt=1e-6) | kwargs
        with pytest.raises(ValueError, match=name):
            run_box(MODELS["dp"], MAT, constant_forcing(1.0, 10.0), **settings)

    @pytest.mark.parametrize(
        "args,name",
        [
            ((10, 0.0, 0.6), "length"),
            ((10, -1.0, 0.6), "length"),
            ((10, math.nan, 0.6), "length"),
            ((10, math.inf, 0.6), "length must be finite"),
            ((10, 0.1, math.nan), "phi"),
            ((10, 0.1, 0.6, math.nan), "p_f"),
            ((10, 0.1, 0.6, math.inf), "p_f"),
            ((10, 0.1, 0.6, lambda z: np.where(z > 0.05, math.nan, 0.0)), "p_f"),
            ((1, 0.1, 0.6), "at least 2 cells, got 1"),
        ],
        ids=["length-zero", "length-neg", "length-nan", "length-inf", "phi-nan", "pf-nan", "pf-inf",
             "pf-callable", "one-cell"],
    )
    def test_uniform_column_rejects(self, args, name):
        with pytest.raises(ValueError, match=name):
            uniform_column(*args)

    @pytest.mark.parametrize(
        "kwargs", [dict(dt=0.0), dict(dt=-1e-6), dict(n_steps=-1), dict(record_every=0)]
    )
    def test_run_column_rejects(self, kwargs):
        state = uniform_column(10, 0.1, 0.6, 100.0)
        settings = dict(dt=1e-9, n_steps=0) | kwargs
        with pytest.raises(ValueError):
            run_column(state, GAS, MAT, **settings)

    @pytest.mark.parametrize(
        "mode,factor,message",
        [("bogus", 1.0, "unknown mode 'bogus'"), ("explicit", 2.0, "stability bound")],
        ids=["mode", "cfl"],
    )
    def test_run_column_checks_settings_before_stepping(self, mode, factor, message):
        state = uniform_column(10, 0.1, 0.6, 100.0)
        dt = factor * column_cfl_dt(state, GAS, MAT)
        with pytest.raises(ValueError, match=message):
            run_column(state, GAS, MAT, dt, 0, mode=mode)


class TestBoxRelaxation:
    MAT3 = glass_beads(d=1e-3)

    def test_stationary_at_equilibrium(self):
        model = DruckerPrager(self.MAT3, LAW)
        p = 1000.0
        shear = _shear_for(self.MAT3, 1.0, p)  # phi_eq = 0.4
        res = run_box(
            model, self.MAT3, constant_forcing(shear, p),
            phi0=0.4, t_end=1e-6 * 1000, dt=1e-6,
        )
        assert np.max(np.abs(res.phi - 0.4)) < 1e-10

    def test_dp_matches_reference_integration(self):
        # 5 e-folds of relaxation from 0.55 towards phi_eq(1) = 0.4
        model = DruckerPrager(self.MAT3, LAW)
        p = 1000.0
        shear = _shear_for(self.MAT3, 1.0, p)
        rate = 2.0 * 0.4 * shear * model.near_equilibrium_gain(1.0)
        t_end = 5.0 / rate
        dt = t_end / 4000
        res = run_box(
            model, self.MAT3, constant_forcing(shear, p),
            phi0=0.55, t_end=t_end, dt=dt, record_every=100,
        )
        ref = solve_ivp(
            lambda t, y: [-2.0 * y[0] * shear * model.dilatancy(y[0], p, 1.0)],
            (0.0, res.t[-1]),
            [0.55],
            t_eval=res.t,
            rtol=1e-12,
            atol=1e-14,
        )
        assert np.max(np.abs(res.phi - ref.y[0])) < 1e-6
        assert np.all(np.diff(res.phi) < 0.0)  # monotone approach from above
        assert res.sign_agreement and not res.violations

    @pytest.mark.parametrize("name", ["dp", "mui"])
    @pytest.mark.parametrize("I", [0.5, 1.0, 2.0])
    def test_attraction_to_equilibrium(self, name, I):
        model = MODELS[name]
        p = 1000.0
        shear = _shear_for(MAT, I, p)
        phi_eq = MAT.phi_max - MAT.delta_phi * I
        t_end = 14.0 / (2.0 * phi_eq * shear * model.near_equilibrium_gain(I))
        dt = t_end / 3000
        for phi0 in (phi_eq + 0.05, max(phi_eq - 0.05, 1e-3)):
            res = run_box(
                model, MAT, constant_forcing(shear, p),
                phi0=phi0, t_end=t_end, dt=dt, record_every=3000,
            )
            assert abs(res.phi[-1] - phi_eq) < 1e-4
            assert not res.violations

    def test_spec_time_constant_bound(self):
        # with T = 10/(2 shear a), a small start deviation has contracted
        # by the linearised factor exp(-10 phi_eq)
        model = MODELS["dp"]
        I, p = 1.0, 1000.0
        shear = _shear_for(MAT, I, p)
        a = model.near_equilibrium_gain(I)
        t_end = 10.0 / (2.0 * shear * a)
        dev0 = 1e-3
        res = run_box(
            model, MAT, constant_forcing(shear, p),
            phi0=0.4 + dev0, t_end=t_end, dt=t_end / 2000, record_every=2000,
        )
        assert abs(res.phi[-1] - 0.4) < 1.2 * dev0 * math.exp(-10.0 * 0.4)

    def test_zero_shear_segment_is_still(self):
        forcing = piecewise_constant_forcing([0.0, 0.004, 0.008], [0.0, 300.0], [1000.0, 1000.0])
        res = run_box(
            MODELS["mui"], MAT, forcing,
            phi0=0.5, t_end=0.008, dt=2e-6, record_every=500,
        )
        # The step count puts the record near t = 0.004 just before the edge.
        still = np.array([forcing.shear(t) == 0.0 for t in res.t])
        assert np.count_nonzero(still) == 5 and still[:5].all()
        assert np.all(res.phi[still] == 0.5)
        assert np.all(res.div_u[still] == 0.0)
        assert np.all(res.inertial[still] == 0.0)
        assert np.all(res.inertial[~still] > 0.0)
        assert res.sign_agreement


class TestBoxBounds:
    @pytest.mark.parametrize("name", list(MODELS))
    def test_start_at_phi_max_stays_bounded(self, name):
        model = MODELS[name]
        # the mu(I)+psi dilatancy is log-singular exactly at phi_max, so it
        # starts at the largest admissible packing below it
        phi0 = MAT.phi_max if name != "mui-psi" else np.nextafter(MAT.phi_max, 0.0)
        shear = _shear_for(MAT, 1.0, 1000.0)
        res = run_box(
            model, MAT, constant_forcing(shear, 1000.0),
            phi0=phi0, t_end=2e-3, dt=1e-7, record_every=200,
        )
        assert res.phi_max_seen <= MAT.phi_max + 1e-9
        assert res.phi_min >= -1e-9
        assert not res.violations

    @pytest.mark.parametrize("name", list(MODELS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_forcing_bounds(self, name, seed):
        model = MODELS[name]
        rng = np.random.default_rng(seed)
        forcing = random_forcing(rng, 0.016)
        res = run_box(
            model, MAT, forcing, phi0=0.5, t_end=0.016, dt=2e-6, record_every=50,
        )
        assert -1e-9 <= res.phi_min and res.phi_max_seen <= MAT.phi_max + 1e-9
        assert not res.violations
        assert res.sign_agreement

    # A negative Roux-Radjai gain drives phi away from equilibrium: the
    # wrong-signed closure that the safety paths below must expose.
    WRONG_SIGN = RouxRadjai(MAT, LAW, gain=-5.0)

    def test_bound_violations_flagged_not_clamped(self):
        res = run_box(
            self.WRONG_SIGN, MAT, constant_forcing(100.0, 1000.0),
            phi0=0.599, t_end=1e-3, dt=1e-6, record_every=100,
        )
        assert len(res.violations) == 366
        assert all(phi > MAT.phi_max + 1e-9 for _, _, phi in res.violations)
        assert res.phi[-1] == res.phi_max_seen == pytest.approx(0.600777, abs=5e-7)
        step, t, phi = res.violations[-1]
        assert (step, phi) == (1000, res.phi[-1]) and t == res.t[-1]

    def test_sign_disagreement_reported(self):
        res = run_box(
            self.WRONG_SIGN, MAT, constant_forcing(100.0, 1000.0),
            phi0=0.55, t_end=5e-3, dt=1e-6, record_every=100,
        )
        assert not res.violations
        assert not res.sign_agreement

    def test_step_failure_names_step_and_time(self):
        with pytest.raises(RuntimeError) as exc:
            run_box(MODELS["mui"], MAT, constant_forcing(100.0, 1000.0),
                    phi0=0.65, t_end=1e-4, dt=1e-6)
        assert str(exc.value) == (
            "box step 1 (t=0) failed: no equilibrium inertial number for phi=0.65 > phi_max=0.6"
        )
        assert isinstance(exc.value.__cause__, ValueError)


class TestBoxPorePressure:
    def test_matches_reference_and_sign(self):
        model = MODELS["dp"]
        p, I = 1000.0, 1.0
        shear = _shear_for(MAT, I, p)
        res = run_box(
            model, MAT, constant_forcing(shear, p),
            phi0=0.55, t_end=5e-4, dt=1e-7, pf0=50.0, gas=GAS, record_every=500,
        )
        rhs = lambda t, y: [
            -2.0 * y[0] * shear * model.dilatancy(y[0], p, I),
            -(GAS.p_atm + y[1])
            * (2.0 * shear * model.dilatancy(y[0], p, I))
            / (1.0 - y[0]),
        ]
        ref = solve_ivp(
            rhs, (0.0, res.t[-1]), [0.55, 50.0], t_eval=res.t, rtol=1e-12, atol=1e-12
        )
        assert np.max(np.abs(res.phi - ref.y[0])) < 1e-9
        assert np.max(np.abs(res.p_f - ref.y[1])) < 1e-6
        # compaction (div u < 0 above equilibrium? no: phi > phi_eq means
        # expansion) -> div u > 0 squeezes gas pressure down
        assert res.div_u[0] > 0 and res.p_f[-1] < res.p_f[0]


class TestBoxEquivalence:
    """The box integrator keeps its arithmetic: per-step series are pinned,
    and a run equals its steps taken one by one."""

    # case: (model, forcing, run settings), stepped at record_every = 1
    CASES = {
        "random": ("mui", lambda: random_forcing(np.random.default_rng(4), 0.016),
                   dict(phi0=0.5, t_end=0.016, dt=1e-5)),
        "constant": ("dp-psi", lambda: constant_forcing(_shear_for(MAT, 1.0, 1000.0), 1000.0),
                     dict(phi0=0.55, t_end=2e-3, dt=1e-6)),
        "pf": ("mui", lambda: random_forcing(np.random.default_rng(5), 2e-3),
               dict(phi0=0.55, t_end=2e-3, dt=1e-6, pf0=50.0, gas=GAS)),
    }
    GOLDEN_SERIES = {
        "random": "f6ff7f9800226f710816c0b6672212d9d44a00245d86be6a09f52dafb510fe99",
        "constant": "25f8137981183c840504fc8d1249ecc78a24521dcb1213648f8fce55cb7e427a",
        "pf": "1f7d00b6eb0c44f6d60d714e395fcefe259a671be0f67730495feb073dbb72c8",
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_golden_per_step_series(self, case):
        """Every step's t, phi, p_f, div u, I and i_eq are bitwise unchanged.

        The hashes are tied to the libm and numpy they were recorded with
        (x86-64 Linux, Python 3.11.7, numpy 2.4.6, scipy 1.17.1).
        """
        name, forcing, settings = self.CASES[case]
        res = run_box(MODELS[name], MAT, forcing(), **settings)
        digest = hashlib.sha256()
        for series in (res.t, res.phi, res.p_f, res.div_u, res.inertial, res.i_eq):
            digest.update(b"untracked" if series is None else series.tobytes())
        assert digest.hexdigest() == self.GOLDEN_SERIES[case]

    @pytest.mark.parametrize("case", list(CASES))
    def test_run_matches_repeated_steps(self, case):
        from granupore.simulate import BoxState

        name, forcing, settings = self.CASES[case]
        res = run_box(MODELS[name], MAT, forcing(), **settings)
        gas = settings.get("gas")
        state = BoxState(0.0, settings["phi0"], settings.get("pf0"))
        for k in range(1, res.t.size):
            state = step_box(state, MODELS[name], MAT, forcing(), settings["dt"], gas=gas)
            assert (state.t, state.phi) == (res.t[k], res.phi[k])
            assert gas is None or state.p_f == res.p_f[k]


class TestColumn:
    L = 0.1

    def _cosine_column(self, n, mean=200.0, amp=100.0, phi=0.6):
        return uniform_column(
            n, self.L, phi,
            lambda z: mean + amp * np.cos(np.pi * z / self.L),
        )

    def _mode_amplitude(self, state):
        centred = state.pf_profile - np.mean(state.pf_profile)
        return float(np.sum(centred * np.cos(np.pi * state.z / self.L)) * state.dz)

    def test_uniform_profile_stationary(self):
        state = uniform_column(50, self.L, 0.6, 123.0)
        stepped = step_column(state, GAS, MAT, column_cfl_dt(state, GAS, MAT))
        np.testing.assert_array_equal(stepped.pf_profile, state.pf_profile)

    def test_decay_rate_matches_diffusivity(self):
        c = pore_diffusivity(0.6, GAS, MAT.d)
        lam = c * (np.pi / self.L) ** 2
        state = self._cosine_column(200)
        dt = column_cfl_dt(state, GAS, MAT)
        steps = int(round(1.0 / (lam * dt)))  # one e-fold
        res = run_column(state, GAS, MAT, dt, steps, record_every=steps)
        a0 = self._mode_amplitude(res.history[0])
        a1 = self._mode_amplitude(res.history[-1])
        rate = math.log(a0 / a1) / (res.history[-1].t - res.history[0].t)
        assert rate == pytest.approx(lam, rel=0.02)

    def test_conservation_per_step(self):
        state = self._cosine_column(100)
        dt = column_cfl_dt(state, GAS, MAT)
        res = run_column(state, GAS, MAT, dt, 2000)
        assert res.max_step_content_drift < 1e-12
        assert gas_content(res.history[-1]) == pytest.approx(
            gas_content(state), rel=1e-12
        )

    def test_energy_strictly_decreasing(self):
        state = self._cosine_column(100)
        dt = column_cfl_dt(state, GAS, MAT)
        res = run_column(state, GAS, MAT, dt, 2000)
        assert np.all(np.diff(res.energy) < 0.0)

    def test_ledger_residual_halves_with_dt(self):
        # zero-mean profile kills the first-order model error, leaving the
        # O(dt) budget residual
        state = self._cosine_column(50, mean=0.0)
        dt0 = column_cfl_dt(state, GAS, MAT)
        res1 = run_column(state, GAS, MAT, dt0, 400)
        res2 = run_column(state, GAS, MAT, 0.5 * dt0, 800)
        led1 = energy_ledger(res1.history, GAS, MAT)
        led2 = energy_ledger(res2.history, GAS, MAT)
        k = 200
        assert led1.t[k] == pytest.approx(led2.t[2 * k], rel=1e-12)
        ratio = led1.residuals[k] / led2.residuals[2 * k]
        assert ratio == pytest.approx(2.0, rel=0.15)
        assert led1.non_increasing and led2.non_increasing

    def test_uniform_profile_zero_dissipation_constant_energy(self):
        state = uniform_column(40, self.L, 0.6, 77.0)
        res = run_column(state, GAS, MAT, column_cfl_dt(state, GAS, MAT), 50)
        np.testing.assert_allclose(res.dissipation, 0.0, atol=1e-20)
        np.testing.assert_allclose(res.energy, res.energy[0], rtol=1e-14)

    def test_decay_rate_second_order_in_dz(self):
        c = pore_diffusivity(0.6, GAS, MAT.d)
        lam = c * (np.pi / self.L) ** 2

        def rate_for(n):
            state = self._cosine_column(n)
            dt = column_cfl_dt(state, GAS, MAT)
            steps = int(round(1.0 / (lam * dt)))
            res = run_column(state, GAS, MAT, dt, steps, record_every=steps)
            a0 = self._mode_amplitude(res.history[0])
            a1 = self._mode_amplitude(res.history[-1])
            return math.log(a0 / a1) / (res.history[-1].t - res.history[0].t)

        err25 = rate_for(25) - lam
        err50 = rate_for(50) - lam
        assert err25 / err50 == pytest.approx(4.0, rel=0.25)

    def test_explicit_cfl_guard(self):
        state = self._cosine_column(50)
        dt = column_cfl_dt(state, GAS, MAT)
        with pytest.raises(ValueError, match="stability bound"):
            step_column(state, GAS, MAT, 2.0 * dt, mode="explicit")
        with pytest.raises(ValueError, match="stability bound"):
            run_column(state, GAS, MAT, 2.0 * dt, 5, mode="explicit")

    @pytest.mark.parametrize("mode,factor", [("explicit", 1.0), ("implicit", 20.0)])
    def test_run_matches_repeated_steps(self, mode, factor):
        n = 60
        phi = np.linspace(0.45, 0.58, n)
        state = uniform_column(n, self.L, phi, lambda z: 100.0 * np.exp(-z / 0.02))
        dt = factor * column_cfl_dt(state, GAS, MAT)
        res = run_column(state, GAS, MAT, dt, 40, mode=mode)
        assert len(res.history) == 41
        for recorded in res.history[1:]:
            state = step_column(state, GAS, MAT, dt, mode=mode)
            np.testing.assert_array_equal(recorded.pf_profile, state.pf_profile)
            assert recorded.t == state.t

    @pytest.mark.parametrize(
        "phi", [0.6, np.linspace(0.45, 0.58, 50)], ids=["uniform", "graded"]
    )
    def test_run_dissipation_matches_ledger(self, phi):
        state = self._cosine_column(50, phi=phi)
        res = run_column(state, GAS, MAT, column_cfl_dt(state, GAS, MAT), 30, record_every=1)
        ledger = energy_ledger(res.history, GAS, MAT)
        np.testing.assert_array_equal(res.dissipation, ledger.dissipation)
        np.testing.assert_array_equal(res.energy, ledger.energy)

    @pytest.mark.parametrize("mode", ["explicit", "implicit"])
    def test_zero_steps(self, mode):
        state = self._cosine_column(20)
        res = run_column(state, GAS, MAT, column_cfl_dt(state, GAS, MAT), 0, mode=mode)
        for series in (res.t, res.content, res.energy, res.dissipation):
            assert series.shape == (1,)
        assert res.content[0] == gas_content(state)
        assert res.max_step_content_drift == 0.0
        assert res.history == [state]

    def test_implicit_mode_unconditional(self):
        state = self._cosine_column(50)
        dt = 20.0 * column_cfl_dt(state, GAS, MAT)
        res = run_column(state, GAS, MAT, dt, 100, mode="implicit")
        assert res.max_step_content_drift < 1e-12
        assert np.all(np.diff(res.energy) < 0.0)

    def test_nonuniform_phi_profile_conserves(self):
        n = 60
        phi = np.linspace(0.45, 0.62, n)
        state = uniform_column(n, self.L, phi, lambda z: 100.0 * np.exp(-z / 0.02))
        dt = column_cfl_dt(state, GAS, MAT)
        res = run_column(state, GAS, MAT, dt, 500)
        assert res.max_step_content_drift < 1e-12

    def test_ledger_validation(self):
        state = self._cosine_column(10)
        with pytest.raises(ValueError):
            energy_ledger([state], GAS, MAT)
        later = step_column(state, GAS, MAT, 1e-9)
        with pytest.raises(ValueError, match="strictly increasing"):
            energy_ledger([later, state], GAS, MAT)

    def test_ledger_rejects_mixed_phi_profiles(self):
        state = self._cosine_column(10)
        later = step_column(self._cosine_column(10, phi=0.5), GAS, MAT, 1e-9)
        with pytest.raises(ValueError, match="phi profile"):
            energy_ledger([state, later], GAS, MAT)

    GOLDEN_SERIES = {
        "explicit200": "a9826466c91f67b636bb12d0c2502ef6525479f0f500e2a2b0d07dfd7e71fec4",
        "implicit200": "b033546b2cabd70274d4bed9e08d9c73cc992112c3e4d3dafa67cd3836fc6522",
        "graded60": "65422814f1f2bcfdeec3b140821a71203bd038aadd1348beca510e3b1153a730",
    }

    @pytest.mark.parametrize(
        "case,n,phi,mode,factor",
        [
            ("explicit200", 200, 0.6, "explicit", 1.0),
            ("implicit200", 200, 0.6, "implicit", 10.0),
            ("graded60", 60, np.linspace(0.45, 0.58, 60), "explicit", 1.0),
        ],
        ids=["explicit200", "implicit200", "graded60"],
    )
    def test_golden_per_step_series(self, case, n, phi, mode, factor):
        """Every step's t, content, energy and dissipation, and the final
        p_f, are bitwise unchanged.

        The hashes are tied to the libm and numpy they were recorded with
        (x86-64 Linux, Python 3.11.7, numpy 2.4.6, scipy 1.17.1).
        """
        state = self._cosine_column(n, phi=phi)
        dt = factor * column_cfl_dt(state, GAS, MAT)
        res = run_column(state, GAS, MAT, dt, 300, mode=mode, record_every=100)
        digest = hashlib.sha256()
        final = res.history[-1].pf_profile
        for series in (res.t, res.content, res.energy, res.dissipation, final):
            digest.update(series.tobytes())
        assert digest.hexdigest() == self.GOLDEN_SERIES[case]
