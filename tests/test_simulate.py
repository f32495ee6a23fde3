"""Box and column integrators: bounds, attraction, conservation, energy."""

import hashlib
import math
import re
import sys
import tracemalloc
from bisect import bisect_right
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import solve_banded

from granupore import simulate
from granupore.gas import enthalpy_ideal, permeability_kappa
from granupore.materials import (
    EquilibriumLaw, GasParams, _check_count, glass_beads, inertial_number
)
from granupore.quadrature import integral
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
    _admit,
)
from granupore.simulate import (
    _LEDGER_BLOCK_VALUES,
    EnergyLedger,
    Forcing,
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


class _Bare:
    """A duck-typed model with no mat of its own: dilatancy and i_eq only."""

    dilatancy = staticmethod(MODELS["dp"].dilatancy)
    i_eq = staticmethod(MODELS["dp"].i_eq)


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
        for shears, ps, name, k in [([1.0, inf], [1.0, 2.0], "shear", 1),
                                    ([1.0, 2.0], [inf, 2.0], "pressure", 0)]:
            message = f"^forcing {name} must be finite, got inf at index {k}$"
            with pytest.raises(ValueError, match=message):
                piecewise_constant_forcing([0.0, 1.0, 2.0], shears, ps)

    @pytest.mark.parametrize("shear, p, message", [
        (1.0, 0.0, "forcing pressure must be positive, got 0.0"),
        (1.0, math.nan, "forcing pressure must be positive, got nan"),
        (-1.0, 1.0, "forcing shear must be non-negative, got -1.0"),
        (math.nan, 1.0, "forcing shear must be non-negative, got nan"),
        (-1.0, math.inf, "forcing pressure must be finite, got inf"),
    ], ids=["p-zero", "p-nan", "shear-neg", "shear-nan", "p-inf-first"])
    def test_constant_forcing_texts(self, shear, p, message):
        """The pressure is checked in full, range then finiteness, before the shear."""
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            constant_forcing(shear, p)

    def test_constructors_declare_jumps(self):
        assert constant_forcing(5.0, 10.0).jumps == ()
        f = piecewise_constant_forcing([0.0, 1.0, 1.0, 2.0], [5.0, 6.0, 7.0], [1.0] * 3)
        assert f.jumps == (1.0, 1.0)
        f = random_forcing(np.random.default_rng(3), 0.016)
        assert f.jumps == tuple(np.linspace(0.0, 0.016, 9)[1:-1].tolist())
        assert Forcing(shear=f.shear, p=f.p).jumps is None
        assert Forcing(shear=f.shear, p=f.p, jumps=[1, 2.5]).jumps == (1.0, 2.5)

    @pytest.mark.parametrize("jumps, message", [
        ((1.0, 0.5), "non-decreasing"),
        ((0.5, math.nan), "finite"),
        ((math.nan,), "finite"),
        ((0.5, math.inf), "finite"),
        ((-math.inf, 0.5), "finite"),
    ], ids=["unsorted", "nan", "nan-alone", "inf", "minus-inf"])
    def test_jumps_rejected(self, jumps, message):
        with pytest.raises(ValueError, match=f"^forcing jumps must be {message}, got"):
            Forcing(shear=lambda t: 1.0, p=lambda t: 1.0, jumps=jumps)

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

    @pytest.mark.parametrize(
        "phi,p_f,message",
        [
            (-0.1, None, "state.phi must lie in (0, 1), got -0.1"),
            (1.0, None, "state.phi must lie in (0, 1), got 1.0"),
            (math.nan, None, "state.phi must lie in (0, 1), got nan"),
            (0.5, -2.0e5, "state.p_f must exceed -p_atm = -101300.0, got -200000.0"),
            (0.5, -GAS.p_atm, "state.p_f must exceed -p_atm = -101300.0, got -101300.0"),
            (0.5, math.nan, "state.p_f must exceed -p_atm = -101300.0, got nan"),
            (0.5, math.inf, "state.p_f must be finite, got inf"),
        ],
        ids=["phi-negative", "phi-one", "phi-nan", "pf-low", "pf-p_atm", "pf-nan", "pf-inf"],
    )
    def test_rejects_what_run_box_rejects(self, phi, p_f, message):
        from granupore.simulate import BoxState

        box = (MODELS["dp"], MAT, constant_forcing(1.0, 10.0))
        with pytest.raises(ValueError) as exc:
            step_box(BoxState(0.0, phi, p_f), *box, 1e-6, gas=GAS)
        assert str(exc.value) == message
        with pytest.raises(ValueError) as exc:
            run_box(*box, phi0=phi, t_end=1e-5, dt=1e-6, pf0=p_f, gas=GAS)
        assert str(exc.value) == message.replace("state.phi", "phi0").replace("state.p_f", "pf0")


    def test_other_material_rejected(self):
        # The model is built on MAT; stepping it with a material of another d
        # and phi_max would read I from one material and i_eq from the other.
        from granupore.simulate import BoxState

        other = glass_beads(d=2e-4, phi_max=0.62)
        message = f"mat {other} is not the model's material {MAT}"
        forcing = constant_forcing(100.0, 1000.0)
        with pytest.raises(ValueError) as exc:
            step_box(BoxState(0.0, 0.55), MODELS["mui"], other, forcing, 1e-6)
        assert str(exc.value) == message
        with pytest.raises(ValueError) as exc:
            run_box(MODELS["mui"], other, forcing, phi0=0.55, t_end=1e-5, dt=1e-6)
        assert str(exc.value) == message

    def test_model_without_mat_takes_any(self):
        from granupore.simulate import BoxState

        other, forcing = glass_beads(d=2e-4), constant_forcing(100.0, 1000.0)
        run = run_box(_Bare(), other, forcing, phi0=0.55, t_end=2e-6, dt=1e-6)
        step = step_box(BoxState(0.0, 0.55), _Bare(), other, forcing, 1e-6)
        assert run.phi[1] == step.phi


class TestRunSettings:
    @pytest.mark.parametrize(
        "kwargs",
        [dict(dt=0.0), dict(dt=-1e-6), dict(t_end=-1e-3), dict(record_every=0),
         dict(t_end=math.inf), dict(record_every=2.5)],
    )
    def test_run_box_rejects(self, kwargs):
        settings = dict(phi0=0.5, t_end=1e-5, dt=1e-6) | kwargs
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            run_box(MODELS["dp"], MAT, constant_forcing(1.0, 10.0), **settings)

    def test_run_box_rejects_zero_steps(self):
        box = (MODELS["dp"], MAT, constant_forcing(1.0, 10.0))
        with pytest.raises(ValueError, match="t_end = 1e-06 rounds to zero steps of dt = 1e-05"):
            run_box(*box, phi0=0.5, t_end=1e-6, dt=1e-5)
        assert run_box(*box, phi0=0.5, t_end=0.0, dt=1e-5).t.tolist() == [0.0]

    def test_run_box_rejects_an_overflowing_step_count(self):
        box = (MODELS["dp"], MAT, constant_forcing(1.0, 10.0))
        with pytest.raises(ValueError) as exc:
            run_box(*box, phi0=0.5, t_end=1e308, dt=1e-6)
        assert str(exc.value) == (
            "the step count t_end / dt = 1e+308 / 1e-06 must be finite, got inf"
        )

    def test_step_count_ceiling(self):
        """At most 2**53 steps, past which floats no longer resolve one step."""
        with pytest.raises(ValueError) as exc:
            simulate._step_count(1e300, 1e-6)
        assert str(exc.value) == (
            "the step count t_end / dt = 1e+300 / 1e-06 must be at most 2**53, got 1e+306"
        )
        assert simulate._step_count(2.0**53, 1.0) == 2**53
        with pytest.raises(ValueError, match=r"must be at most 2\*\*53, got 9\.0072e\+15$"):
            simulate._step_count(math.nextafter(2.0**53, math.inf), 1.0)

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
            ((1, 0.1, 0.6), "^n_cells must be at least 2, got 1$"),
            ((2.5, 0.1, 0.6), "^n_cells must be an integer, got 2.5$"),
            # a column no run could hold is named before anything is allocated (numpy's
            # 'array is too big' named nothing); the largest count admitted reaches the length
            ((2**62, 0.1, 0.6), r"^n_cells = 4611686018427387904 would keep 1 state of"
                                r" 36893488147419103744 bytes and a 32-byte ledger, with"
                                r" 590295810358705668112 bytes of work arrays, over the"
                                r" 2\*\*30-byte \(1 GiB\) ceiling$"),
            ((7895036, -1.0, 0.6), "^n_cells = 7895036 would keep 1 state of 63160800 bytes"
                                   " and a 32-byte ledger, with 1010581008 bytes"),
            ((7895035, -1.0, 0.6), "^column length must be positive"),
            ((10, 0.1, 0.6, lambda z: z[:5]),
             r"^pf_init has shape \(5,\), which does not broadcast to 10 cells$"),
            ((10, 0.1, [0.5, 0.6]),
             r"^phi has shape \(2,\), which does not broadcast to 10 cells$"),
            ((10, 0.1, 0.6, [1.0, 2.0]),
             r"^pf_init has shape \(2,\), which does not broadcast to 10 cells$"),
        ],
        ids=["length-zero", "length-neg", "length-nan", "length-inf", "phi-nan", "pf-nan", "pf-inf",
             "pf-callable", "one-cell", "cells-float", "cells-huge", "cells-over", "cells-largest",
             "pf-callable-shape", "phi-shape", "pf-shape"],
    )
    def test_uniform_column_rejects(self, args, name):
        with pytest.raises(ValueError, match=name):
            uniform_column(*args)

    @pytest.mark.parametrize("length, message", [
        (-1, "column length must be positive, got -1"),
        (math.nan, "column length must be positive, got nan"),
        (math.inf, "column length must be finite, got inf"),
    ], ids=["neg", "nan", "inf"])
    def test_uniform_column_length_texts(self, length, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            uniform_column(10, length, 0.6)

    def test_uniform_column_broadcasts_callable_result(self):
        state = uniform_column(4, 0.1, 0.6, lambda z: 5.0)
        np.testing.assert_array_equal(state.pf_profile, np.full(4, 5.0), strict=True)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(dt=0.0), dict(dt=-1e-6), dict(n_steps=-1), dict(record_every=0),
         dict(record_every=2.5), dict(n_steps=2.5)],
    )
    def test_run_column_rejects(self, kwargs):
        state = uniform_column(10, 0.1, 0.6, 100.0)
        settings = dict(dt=1e-9, n_steps=0) | kwargs
        with pytest.raises(ValueError, match=next(iter(kwargs))):
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

    @pytest.mark.parametrize("call", ["step_box", "run_box", "step_column", "run_column-explicit",
                                      "run_column-implicit-0", "run_column-implicit-1"])
    def test_infinite_dt_rejected(self, call):
        from granupore.simulate import BoxState

        box, state = (MODELS["dp"], MAT, constant_forcing(1.0, 10.0)), uniform_column(10, 0.1, 0.6)
        run = {
            "step_box": lambda: step_box(BoxState(0.0, 0.5), *box, math.inf),
            "run_box": lambda: run_box(*box, phi0=0.5, t_end=1e-5, dt=math.inf),
            "step_column": lambda: step_column(state, GAS, MAT, math.inf, mode="implicit"),
            "run_column-explicit": lambda: run_column(state, GAS, MAT, math.inf, 1),
            "run_column-implicit-0": lambda: run_column(state, GAS, MAT, math.inf, 0,
                                                        mode="implicit"),
            "run_column-implicit-1": lambda: run_column(state, GAS, MAT, math.inf, 1,
                                                        mode="implicit"),
        }[call]
        with pytest.raises(ValueError) as exc:
            run()
        assert str(exc.value) == "dt must be finite, got inf"

    @pytest.mark.parametrize("mode", ["explicit", "implicit"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf])
    def test_run_column_rejects_infinite_initial_pf(self, mode, bad):
        # uniform_column rejects it; a hand-built state must fail before any step
        state = uniform_column(10, 0.1, 0.6, 100.0)
        pf = state.pf_profile.copy()
        pf[3] = bad
        with pytest.raises(ValueError) as exc:
            run_column(replace(state, pf_profile=pf), GAS, MAT, 1e-9, 5, mode=mode)
        assert str(exc.value) == f"initial p_f must be finite, got {bad} at index 3"

    def test_implicit_matrix_overflow_rejected(self):
        state = uniform_column(200, 0.1, 0.6, 100.0)
        with pytest.raises(ValueError) as exc:
            run_column(state, GAS, MAT, 1e300, 0, mode="implicit")
        assert str(exc.value) == (
            "implicit step dt=1e+300 overflows the column matrix, got inf at index 0"
        )

    def test_implicit_singular_matrix_raises(self):
        # 1-phi is lost beside dt p_atm kappa / dz^2, leaving the singular
        # zero-flux Laplacian: the solve raises as solve_banded did, and
        # names how far dt is above the explicit bound
        state = uniform_column(200, 0.1, 0.6, 100.0)
        bound = column_cfl_dt(state, GAS, MAT)
        message = (f"singular matrix: implicit step dt=1e+100 is {1e100 / bound:.3g} times "
                   f"column_cfl_dt's bound {bound:g}, so 1-phi rounds off the diagonal")
        with pytest.raises(np.linalg.LinAlgError, match=f"^{re.escape(message)}$"):
            run_column(state, GAS, MAT, 1e100, 1, mode="implicit")

    def test_ledger_ceiling(self):
        """A run whose ledger would pass the ceiling fails before allocating
        it; 1e15 steps asked numpy for 28 PiB, past the address space, and
        raised MemoryError.  A ledger of 1 GiB alone fills the ceiling, so
        the two states kept beside it put the run over."""
        state = uniform_column(4, 0.1, 0.6, 100.0)
        dt = column_cfl_dt(state, GAS, MAT)
        with pytest.raises(ValueError) as exc:  # first: never grantable
            run_column(state, GAS, MAT, dt, 10**15)
        assert str(exc.value) == (
            "n_steps = 1000000000000000, record_every = 1 and 4 cells would keep"
            " 1000000000000001 states of 544 bytes and a 32000000000000032-byte ledger, with"
            " 770392 bytes of work arrays, over the 2**30-byte (1 GiB) ceiling")
        with pytest.raises(ValueError, match=r"^n_steps = 33554431, .* 2 states of 544 bytes"
                                             r" and a 1073741824-byte ledger, with 770392 bytes"
                                             r" of work arrays, over"):
            run_column(state, GAS, MAT, dt, 2**25 - 1, record_every=2**25)

    def test_box_rows_ceiling(self):
        """A box run whose rows would pass 1 GiB fails before it reads its
        forcing; without the ceiling it reads it for row 0, which raises here
        (and a readable forcing would start 1e9 steps of rows)."""
        def unread(t):
            raise AssertionError("the forcing was read")

        forcing = Forcing(shear=unread, p=unread, jumps=())
        with pytest.raises(ValueError) as exc:
            run_box(MODELS["dp"], MAT, forcing, phi0=0.5, t_end=1e3, dt=1e-6, record_every=1)
        assert str(exc.value) == (
            "n_steps = 1000000000 and record_every = 1 would keep 1000000001 rows of 320 bytes,"
            " over the 2**30-byte (1 GiB) ceiling")
        # the largest run within the ceiling reads its forcing
        rows = simulate.RECORD_MAX_BYTES // 320
        with pytest.raises(AssertionError, match="the forcing was read"):
            run_box(MODELS["dp"], MAT, forcing, phi0=0.5, t_end=(rows - 1) * 1e-3, dt=1e-3)

    def test_column_states_ceiling(self):
        """A column run whose kept states and ledger would pass 1 GiB fails
        before its first step; without the ceiling the NaN initial p_f is
        named first."""
        state = uniform_column(200, 0.1, 0.6, 100.0)
        state = replace(state, pf_profile=np.full(200, math.nan))
        dt = column_cfl_dt(state, GAS, MAT)
        with pytest.raises(ValueError) as exc:
            run_column(state, GAS, MAT, dt, 2**25)
        assert str(exc.value) == (
            "n_steps = 33554432, record_every = 1 and 200 cells would keep 33554433 states of"
            " 2112 bytes and a 1073741856-byte ledger, with 683920 bytes of work arrays, over the"
            " 2**30-byte (1 GiB) ceiling")
        # a state every 83 steps keeps 404,272 of them, 0.85 GB beside the
        # ledger's 1.07 GB; half the steps, a state every 5,000, keep 7.1 MB
        # beside a 537 MB ledger
        with pytest.raises(ValueError, match=" 404272 states of 2112 bytes and a 1073741856-byte"):
            run_column(state, GAS, MAT, dt, 2**25, record_every=83)
        with pytest.raises(ValueError, match="^initial p_f must be finite"):
            run_column(state, GAS, MAT, dt, 2**24, record_every=5000)

    @pytest.mark.parametrize("n_cells", [2, 200, 2000])
    @pytest.mark.parametrize("record_every", [1, 83, 10**9])
    def test_largest_column_run_within_ceiling(self, n_cells, record_every):
        """The largest column run the ceiling admits is the last whose count,
        its states, 32-byte-a-step ledger and work arrays, is at most
        RECORD_MAX_BYTES: the door is found by bisection on a NaN initial
        p_f, named only once it passes."""
        state = uniform_column(n_cells, 0.1, 0.6, 100.0)
        state = replace(state, pf_profile=np.full(n_cells, math.nan))
        dt = column_cfl_dt(state, GAS, MAT)

        def admitted(n_steps):
            try:
                run_column(state, GAS, MAT, dt, n_steps, record_every=record_every)
            except ValueError as exc:
                return str(exc).startswith("initial p_f must be finite")

        lo, hi = 0, 2**30  # admitted, refused
        assert admitted(lo) and not admitted(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if admitted(mid) else (lo, mid)
        def counted(n_steps):
            states = 1 + -(-n_steps // record_every)
            return (states * (8 * n_cells + simulate._STATE_BYTES) + 32 * (n_steps + 1)
                    + simulate._column_work_bytes(n_steps, n_cells))

        assert counted(lo) <= simulate.RECORD_MAX_BYTES < counted(lo + 1)
        assert lo < 2**25  # the ledger alone is 1 GiB at 2**25 steps

    @pytest.mark.parametrize("n_cells", [2, 200, 2000])
    def test_column_count_covers_a_state(self, n_cells):
        """Each state a column run keeps, with its step of ledger, holds no
        more than the ceiling counts for it, 8 bytes a cell, _STATE_BYTES and
        32 bytes: the traced peak of 1,000 steps, each kept, less that of
        500, over 500 (measured 0.34, 1.9 and 16.3 KB against 0.56, 2.1 and
        16.5 KB counted at 2, 200 and 2,000 cells)."""
        state = uniform_column(n_cells, 0.1, 0.6, 100.0)
        dt = column_cfl_dt(state, GAS, MAT)
        run_column(state, GAS, MAT, dt, 10)  # warm up the stepper's imports and caches
        peaks = []
        for n_steps in (500, 1000):
            tracemalloc.start()
            try:
                run_column(state, GAS, MAT, dt, n_steps)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / 500 <= 8 * n_cells + simulate._STATE_BYTES + 32

    @pytest.mark.parametrize("mode", ["explicit", "implicit"])
    @pytest.mark.parametrize("n_cells", [2, 200, 20_000, 200_000])
    def test_column_count_covers_the_run(self, monkeypatch, n_cells, mode):
        """Building a column and running it holds no more than the ceiling
        counts for the run: under a ceiling one byte below the traced peak,
        the door refuses the same run.  Each run takes two blocks of steps
        and three more, at most 169 steps, and keeps a state every step, every
        83 steps or only the last."""
        # import what the stepper imports (scipy's LAPACK) before tracing
        run_column(uniform_column(10, 0.1, 0.6, 100.0), GAS, MAT, 1e-9, 2, mode=mode)
        n_steps = min(2 * max(1, _LEDGER_BLOCK_VALUES // n_cells) + 3, 169)
        for record_every in (1, 83, 10**9):
            tracemalloc.start()
            try:
                state = uniform_column(n_cells, 0.1, 0.6,
                                       lambda z: 200.0 + 100.0 * np.cos(np.pi * z / 0.1))
                dt = (1.0 if mode == "explicit" else 10.0) * column_cfl_dt(state, GAS, MAT)
                run_column(state, GAS, MAT, dt, n_steps, mode=mode, record_every=record_every)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            with monkeypatch.context() as patch:
                patch.setattr(simulate, "RECORD_MAX_BYTES", peak - 1)
                with pytest.raises(ValueError, match=r" over the 2\*\*30-byte \(1 GiB\) ceiling$"):
                    run_column(state, GAS, MAT, dt, n_steps, mode=mode, record_every=record_every)

    @pytest.mark.parametrize("phi,mode,message", [
        (2e-157, "bound", "p_atm kappa overflows at phi, got 2e-157 at index 0"),
        (1e-100, "implicit", "the face permeability 2 kappa kappa' overflows at phi,"
                             " got 1e-100 at index 0"),
        ([0.6, 1e-155, 0.6, 0.6], "explicit", "p_atm kappa overflows at phi, got 1e-155 at"
                                              " index 1"),
    ], ids=["bound", "face", "bound-one-cell"])
    def test_huge_finite_kappa_named(self, phi, mode, message):
        """A phi whose kappa is finite but whose p_atm kappa or face product
        overflows is named, and no numpy warning escapes (the test
        configuration makes a RuntimeWarning an error).  In a uniform column
        the face product overflows first; one cell's p_atm kappa can
        overflow while every face product stays finite."""
        state = uniform_column(4, 0.1, phi, 100.0)
        run = (lambda: column_cfl_dt(state, GAS, MAT)) if mode == "bound" else (
            lambda: run_column(state, GAS, MAT, 1e-3, 1, mode=mode))
        with pytest.raises(ValueError) as exc:
            run()
        assert str(exc.value) == message

    def test_counts_take_numpy_integers(self):
        box = run_box(MODELS["dp"], MAT, constant_forcing(1.0, 10.0), phi0=0.5, t_end=1e-5,
                      dt=1e-6, record_every=np.int64(5))
        assert len(box.t) == 3
        state = uniform_column(np.int64(10), 0.1, 0.6, 100.0)
        column = run_column(state, GAS, MAT, 1e-9, np.int64(4), record_every=np.int64(2))
        assert len(column.history) == 3


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

    def test_record_error_keeps_type_and_message(self):
        # mu(I)+psi is log-singular at phi_max: the first row's f raises the
        # model's own error, before any step.
        with pytest.raises(ValueError) as exc:
            run_box(MODELS["mui-psi"], MAT, constant_forcing(100.0, 1000.0),
                    phi0=MAT.phi_max, t_end=1e-5, dt=1e-6)
        assert str(exc.value) == (
            "mu(I) dilatancy angle requires I_eq > 0 (phi < phi_max), got 0.0"
        )

    def test_step_failure_names_step_and_time(self):
        with pytest.raises(RuntimeError) as exc:
            run_box(MODELS["mui"], MAT, constant_forcing(100.0, 1000.0),
                    phi0=0.65, t_end=1e-4, dt=1e-6)
        assert str(exc.value) == (
            "box step 1 (t=0) failed: no equilibrium inertial number for phi=0.65 > phi_max=0.6"
        )
        assert isinstance(exc.value.__cause__, ValueError)

    @staticmethod
    def _negative_shear_from(t0):
        # Built by hand, so no constructor check rejects the negative shear.
        return Forcing(shear=lambda t: -1.0 if t >= t0 else 100.0, p=lambda t: 1000.0)

    def test_bad_forcing_at_start_raises_from_first_row(self):
        # Row 0 makes the read at t = 0 that step 1 then reuses, so a bad
        # forcing there raises inertial_number's own error from the row.
        with pytest.raises(ValueError) as exc:
            run_box(MODELS["mui"], MAT, self._negative_shear_from(0.0),
                    phi0=0.5, t_end=1e-5, dt=1e-6)
        assert str(exc.value) == "shear must be non-negative, got -1.0"

    def test_bad_forcing_later_names_step(self):
        # Step 5's mid-stage time is the first at or after 4.2e-6.
        with pytest.raises(RuntimeError) as exc:
            run_box(MODELS["mui"], MAT, self._negative_shear_from(4.2e-6),
                    phi0=0.5, t_end=1e-5, dt=1e-6)
        assert str(exc.value) == "box step 5 (t=4e-06) failed: shear must be non-negative, got -1.0"


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

    # case: (model, forcing, run settings), stepped at record_every = 1.  The
    # wrong-sign run leaves [0, phi_max], so 366 of its rows record I = 0,
    # div u = 0 and i_eq NaN; the zero-shear run's first 2,001 rows have no f.
    CASES = {
        "random": (MODELS["mui"], lambda: random_forcing(np.random.default_rng(4), 0.016),
                   dict(phi0=0.5, t_end=0.016, dt=1e-5)),
        "constant": (MODELS["dp-psi"],
                     lambda: constant_forcing(_shear_for(MAT, 1.0, 1000.0), 1000.0),
                     dict(phi0=0.55, t_end=2e-3, dt=1e-6)),
        "pf": (MODELS["mui"], lambda: random_forcing(np.random.default_rng(5), 2e-3),
               dict(phi0=0.55, t_end=2e-3, dt=1e-6, pf0=50.0, gas=GAS)),
        "dp": (MODELS["dp"], lambda: random_forcing(np.random.default_rng(6), 0.016),
               dict(phi0=0.5, t_end=0.016, dt=1e-5)),
        "mui-psi": (MODELS["mui-psi"], lambda: random_forcing(np.random.default_rng(7), 0.016),
                    dict(phi0=0.5, t_end=0.016, dt=1e-5)),
        "wrong-sign": (TestBoxBounds.WRONG_SIGN, lambda: constant_forcing(100.0, 1000.0),
                       dict(phi0=0.599, t_end=1e-3, dt=1e-6)),
        "zero-shear": (MODELS["mui"], lambda: piecewise_constant_forcing(
                           [0.0, 0.004, 0.008], [0.0, 300.0], [1000.0, 1000.0]),
                       dict(phi0=0.5, t_end=0.008, dt=2e-6)),
    }
    GOLDEN_SERIES = {
        "random": "f6ff7f9800226f710816c0b6672212d9d44a00245d86be6a09f52dafb510fe99",
        "constant": "25f8137981183c840504fc8d1249ecc78a24521dcb1213648f8fce55cb7e427a",
        "pf": "1f7d00b6eb0c44f6d60d714e395fcefe259a671be0f67730495feb073dbb72c8",
        "dp": "e6f0d5c87adde859228b18f77922ea81245e0c54a00f9161ae88b5ab12374711",
        "mui-psi": "226475c60039b29d59aab11f93c949c10b718d9c7607c71e6c67b137bceb2952",
        "wrong-sign": "dc9d988803a3a3618f38dca0ea22af3d2fc13b5f0046922d30954dcae89e1370",
        "zero-shear": "8aed2109cdb4150b0224dada78bd50e0bb51ede26f2f2c6485fafa6fc6cd4653",
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_golden_per_step_series(self, case):
        """Every step's t, phi, p_f, div u, I and i_eq are bitwise unchanged.

        The hashes are tied to the libm and numpy they were recorded with
        (x86-64 Linux, Python 3.11.7, numpy 2.4.6, scipy 1.17.1).
        """
        model, forcing, settings = self.CASES[case]
        res = run_box(model, MAT, forcing(), **settings)
        digest = hashlib.sha256()
        for series in (res.t, res.phi, res.p_f, res.div_u, res.inertial, res.i_eq):
            digest.update(b"untracked" if series is None else series.tobytes())
        assert digest.hexdigest() == self.GOLDEN_SERIES[case]

    #: The CASES and runs whose edges test the declared jumps: every edge
    #: inside a step, steps that end exactly on each edge (binary fractions,
    #: so t adds up exactly), an empty segment, edges from t > 0, a tracked p_f.
    JUMP_CASES = CASES | {
        "steps-on-edges": (MODELS["mui"], lambda: piecewise_constant_forcing(
                               [0.0, 2.0**-12, 2.0**-11, 2.0**-10], [300.0, 1000.0, 60.0],
                               [1000.0, 40.0, 2000.0]),
                           dict(phi0=0.5, t_end=2.0**-10, dt=2.0**-15)),
        "edges-in-steps": (MODELS["mui"], lambda: random_forcing(np.random.default_rng(11), 1e-3),
                           dict(phi0=0.5, t_end=1e-3, dt=3e-5, record_every=4)),
        "empty-segment": (MODELS["dp"], lambda: piecewise_constant_forcing(
                              [0.0, 2.5e-4, 2.5e-4, 6e-4, 1e-3], [300.0, 900.0, 80.0, 0.0],
                              [1000.0, 50.0, 4000.0, 200.0]),
                          dict(phi0=0.5, t_end=1e-3, dt=3e-5)),
        "late-edges": (MODELS["mui-psi"], lambda: piecewise_constant_forcing(
                           [3e-4, 5e-4, 7e-4], [200.0, 1200.0], [300.0, 30.0]),
                       dict(phi0=0.5, t_end=1e-3, dt=3e-5)),
        "pf-edges-in-steps": (MODELS["dp-psi"],
                              lambda: random_forcing(np.random.default_rng(12), 1e-3),
                              dict(phi0=0.55, t_end=1e-3, dt=3e-5, pf0=-300.0, gas=GAS)),
    }

    @pytest.mark.parametrize("case", list(JUMP_CASES))
    def test_declared_jumps_change_no_bit(self, case):
        """The forcing as built and its signals with no jumps give the same
        recorded series, bit for bit."""
        model, forcing, settings = self.JUMP_CASES[case]
        built = forcing()
        assert built.jumps is not None
        undeclared = Forcing(shear=built.shear, p=built.p)
        runs = [run_box(model, MAT, f, **settings) for f in (built, undeclared)]
        for name in ("t", "phi", "p_f", "div_u", "inertial", "i_eq"):
            a, b = (getattr(res, name) for res in runs)
            assert (a is None and b is None) or a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("case", list(CASES))
    def test_run_matches_repeated_steps(self, case):
        from granupore.simulate import BoxState

        model, forcing, settings = self.CASES[case]
        res = run_box(model, MAT, forcing(), **settings)
        gas = settings.get("gas")
        state = BoxState(0.0, settings["phi0"], settings.get("pf0"))
        for k in range(1, res.t.size):
            state = step_box(state, model, MAT, forcing(), settings["dt"], gas=gas)
            assert (state.t, state.phi) == (res.t[k], res.phi[k])
            assert gas is None or state.p_f == res.p_f[k]


def _reference_stepper(model, mat, forcing, dt, gas):
    """The box stepper as one call per step: ``advance`` takes a step whose
    stages call ``held``, the rates of the segment read last, when the step
    lies inside its span, and else ``rates``, which first reads the stage
    time; ``segment`` is the memoised forcing reader."""
    half, sixth = 0.5 * dt, dt / 6.0
    jumps = forcing.jumps
    since, until = math.inf, -math.inf
    last_read = two_shear = I = f = None

    def segment(t):
        nonlocal since, until, last_read, two_shear, I, f
        if not since <= t < until:
            shear, p = forcing.shear(t), forcing.p(t)
            if (shear, p) != last_read:
                I = 0.0 if shear == 0.0 else inertial_number(mat, shear, p)
                f = None if shear == 0.0 else model._dilatancy_at(p, I)
                two_shear, last_read = 2.0 * shear, (shear, p)
            if jumps is None:
                since, until = t, math.nextafter(t, math.inf)
            else:
                k = bisect_right(jumps, t)
                since = jumps[k - 1] if k else -math.inf
                until = jumps[k] if k < len(jumps) else math.inf
        return two_shear, I, f

    def held(t, phi, p_f):
        divu = 0.0 if f is None else two_shear * f(phi)
        dpf = 0.0 if gas is None else -(gas.p_atm + p_f) * divu / (1.0 - phi)
        return -phi * divu, dpf

    def rates(t, phi, p_f):
        segment(t)
        return held(t, phi, p_f)

    def advance(t, phi, p_f):
        t4 = t + dt
        rate = held if since <= t and t4 < until else rates
        a1, b1 = rate(t, phi, p_f)
        a2, b2 = rate(t + half, phi + half * a1, p_f + half * b1)
        a3, b3 = rate(t + half, phi + half * a2, p_f + half * b2)
        a4, b4 = rate(t4, phi + dt * a3, p_f + dt * b3)
        return (t4, phi + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4),
                p_f + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4))

    return advance, segment


def _reference_run_box(model, mat, forcing, phi0, t_end, dt, pf0=None, gas=None,
                       record_every=1):
    """:func:`run_box` on :func:`_reference_stepper`, one call per step;
    returns the result, or the error as :func:`_error_of` gives it."""
    try:
        n_steps = simulate._step_count(t_end, dt)
        _check_count("record_every", record_every, 1)
        model = _admit(model, mat)
        simulate._check_box_start(phi0, pf0, gas, "phi0", "pf0")
    except ValueError as exc:
        return _error_of(exc)
    advance, segment = _reference_stepper(model, mat, forcing, dt, None if pf0 is None else gas)
    rows, violations, sign_ok = [], [], True

    def record(t, phi, p_f):
        nonlocal sign_ok
        if not 0.0 <= phi <= mat.phi_max:
            rows.append((t, phi, p_f, 0.0, 0.0, math.nan))
            return
        two_shear, I, f = segment(t)
        f_val = 0.0 if f is None else f(phi)
        divu, ieq = two_shear * f_val, model.i_eq(phi)
        rows.append((t, phi, p_f, divu, I, ieq))
        if abs(f_val) >= simulate.EQ_ANCHOR_TOL and not math.isnan(ieq):
            sign_ok &= math.copysign(1.0, divu) == math.copysign(1.0, I - ieq)

    t, phi, p_f = 0.0, phi0, 0.0 if pf0 is None else pf0
    try:
        record(t, phi, p_f)
        for step in range(1, n_steps + 1):
            try:
                t, phi, p_f = advance(t, phi, p_f)
            except ValueError as exc:
                raise RuntimeError(f"box step {step} (t={t:g}) failed: {exc}") from exc
            if not -simulate.BOUND_EPS <= phi <= mat.phi_max + simulate.BOUND_EPS:
                violations.append((step, t, phi))
            if step % record_every == 0 or step == n_steps:
                record(t, phi, p_f)
    except (ValueError, RuntimeError) as exc:
        return _error_of(exc)
    t, phi, p_f, div_u, inertial, i_eq = np.array(rows).T
    p_f = None if pf0 is None else p_f
    return simulate.BoxResult(t, phi, p_f, div_u, inertial, i_eq, violations, sign_ok)


def _error_of(exc):
    """An error as strings: its type, text, and its cause's type and text."""
    cause = exc.__cause__
    return (type(exc).__name__, str(exc), type(cause).__name__, str(cause))


def _box_bits(outcome):
    """A run_box result with every float as ``float.hex``, or an error."""
    if isinstance(outcome, tuple):
        return outcome
    series = tuple(None if a is None else tuple(map(float.hex, a.tolist()))
                   for a in (outcome.t, outcome.phi, outcome.p_f, outcome.div_u,
                             outcome.inertial, outcome.i_eq))
    violations = tuple((step, t.hex(), phi.hex()) for step, t, phi in outcome.violations)
    return series, violations, outcome.sign_agreement


def _step_bits(step):
    """One box step's (t, phi, p_f) as ``float.hex``, or its error's type and
    text."""
    try:
        values = step()
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return tuple(None if v is None else v.hex() for v in values)


@st.composite
def _box_runs(draw):
    """A short box run on a piecewise-constant forcing: binary-fraction steps
    (so t adds up exactly) or decimal ones, edges on step ends and inside
    steps, empty and unsheared segments, with the jumps declared or not."""
    dt = draw(st.sampled_from([2.0**-12, 2.0**-14, 3e-5, 1e-5]))
    n_steps = draw(st.integers(1, 30))
    t_end = n_steps * dt
    n = draw(st.integers(1, 4))
    point = st.one_of(st.integers(0, n_steps).map(lambda k: k * dt), st.floats(0.0, t_end))
    edges = sorted(draw(st.lists(point, min_size=n + 1, max_size=n + 1)))
    shears = draw(st.lists(st.one_of(st.just(0.0), st.floats(50.0, 1500.0)),
                           min_size=n, max_size=n))
    ps = draw(st.lists(st.floats(10.0, 1.0e4), min_size=n, max_size=n))
    forcing = piecewise_constant_forcing(edges, shears, ps)
    if not draw(st.booleans()):
        forcing = Forcing(shear=forcing.shear, p=forcing.p)
    settings = dict(phi0=draw(st.floats(0.45, 0.62)), t_end=t_end, dt=dt,
                    record_every=draw(st.integers(1, 7)))
    if draw(st.booleans()):
        settings |= dict(pf0=draw(st.floats(-1000.0, 1000.0)), gas=GAS)
    return forcing, settings


class TestBoxLoopMatchesSteps:
    """One loop per record block changes no bit of a run: every series, the
    violations, the sign agreement and any error equal those of
    :func:`_reference_run_box`, and :func:`step_box` equals one reference
    step, its error included."""

    LOOP_MODELS = MODELS | {"isochoric": Isochoric(MODELS["mui"]),
                            "wrong-sign": TestBoxBounds.WRONG_SIGN}

    @pytest.mark.parametrize("name", list(LOOP_MODELS))
    @given(run=_box_runs())
    @settings(max_examples=60, deadline=None)
    def test_bitwise(self, name, run):
        from granupore.simulate import BoxState

        forcing, settings = run
        model = self.LOOP_MODELS[name]
        try:
            res = run_box(model, MAT, forcing, **settings)
        except (ValueError, RuntimeError) as exc:
            res = _error_of(exc)
        assert _box_bits(res) == _box_bits(_reference_run_box(model, MAT, forcing, **settings))

        phi0, pf0, gas, dt = (settings.get(k) for k in ("phi0", "pf0", "gas", "dt"))
        reference = _reference_stepper(_admit(model, MAT), MAT, forcing, dt, gas)[0]

        def one_step():
            state = step_box(BoxState(0.0, phi0, pf0), model, MAT, forcing, dt, gas=gas)
            return state.t, state.phi, state.p_f

        def one_reference_step():
            t, phi, p_f = reference(0.0, phi0, 0.0 if pf0 is None else pf0)
            return t, phi, None if pf0 is None else p_f

        assert _step_bits(one_step) == _step_bits(one_reference_step)


class TestBoxSegments:
    """Each forcing signal is read once per segment where the forcing
    declares its jumps, else once per stage time, and a model builds its
    phi -> f once per forcing segment."""

    # 8 segments of 1.25e-4 s under steps of 3e-5 s: every interior edge
    # falls inside a step, whose stages then read two segments.
    T_END, DT = 1e-3, 3e-5

    def test_one_read_per_stage_time(self):
        forcing = random_forcing(np.random.default_rng(11), self.T_END)
        reads = {"shear": 0, "p": 0}

        def counted(name, signal):
            def read(t):
                reads[name] += 1
                return signal(t)
            return read

        counting = Forcing(shear=counted("shear", forcing.shear), p=counted("p", forcing.p))
        res = run_box(MODELS["mui"], MAT, counting, phi0=0.5, t_end=self.T_END, dt=self.DT,
                      record_every=4)
        n_steps = round(self.T_END / self.DT)
        # per step: t + dt/2 and t + dt; t = 0 once, by row 0, which step 1
        # reuses; every later row's t is a stage time already read
        assert reads["shear"] == reads["p"] == 2 * n_steps + 1
        plain = run_box(MODELS["mui"], MAT, forcing, phi0=0.5, t_end=self.T_END, dt=self.DT,
                        record_every=4)
        assert res.phi.tobytes() == plain.phi.tobytes()

    def test_one_read_per_segment(self):
        forcing = random_forcing(np.random.default_rng(11), self.T_END)
        reads = {"shear": [], "p": []}

        def counted(name, signal):
            def read(t):
                reads[name].append(t)
                return signal(t)
            return read

        counting = Forcing(shear=counted("shear", forcing.shear), p=counted("p", forcing.p),
                           jumps=forcing.jumps)
        res = run_box(MODELS["mui"], MAT, counting, phi0=0.5, t_end=self.T_END, dt=self.DT,
                      record_every=4)
        # row 0 reads t = 0; a step that reaches an edge reads its first
        # stage time past it; every other stage time and row lies in the
        # segment read last
        edges = (0.0, *forcing.jumps)
        assert reads["shear"] == reads["p"] and len(reads["p"]) == len(edges)
        for edge, t in zip(edges, reads["p"]):
            assert edge <= t < edge + self.DT
        plain = run_box(MODELS["mui"], MAT, forcing, phi0=0.5, t_end=self.T_END, dt=self.DT,
                        record_every=4)
        assert res.phi.tobytes() == plain.phi.tobytes()

    def test_one_rate_per_segment(self):
        forcing = random_forcing(np.random.default_rng(11), self.T_END)
        builds = []

        class Counting(MuI):
            def _dilatancy_at(self, p, I):
                builds.append((p, I))
                return super()._dilatancy_at(p, I)

        res = run_box(Counting(MAT, LAW), MAT, forcing, phi0=0.5, t_end=self.T_END, dt=self.DT)
        mids = (np.arange(8) + 0.5) * self.T_END / 8
        assert builds == [(forcing.p(t), inertial_number(MAT, forcing.shear(t), forcing.p(t)))
                          for t in mids]
        plain = run_box(MODELS["mui"], MAT, forcing, phi0=0.5, t_end=self.T_END, dt=self.DT)
        assert res.phi.tobytes() == plain.phi.tobytes()

    def test_rows_call_no_dilatancy(self):
        calls = []

        class Counting(MuI):
            def dilatancy(self, phi, p, I):
                calls.append(phi)
                return super().dilatancy(phi, p, I)

        forcing = random_forcing(np.random.default_rng(11), self.T_END)
        run_box(Counting(MAT, LAW), MAT, forcing, phi0=0.5, t_end=self.T_END, dt=self.DT)
        assert calls == []

    @pytest.mark.parametrize("pf0", [None, 300.0])
    def test_isochoric_box_stays_put(self, pf0):
        forcing = random_forcing(np.random.default_rng(12), self.T_END)
        res = run_box(Isochoric(MODELS["mui"]), MAT, forcing, phi0=0.55, t_end=self.T_END,
                      dt=self.DT, pf0=pf0, gas=GAS)
        assert np.all(res.phi == 0.55) and np.all(res.div_u == 0.0)
        assert pf0 is None or np.all(res.p_f == pf0)


class TestBoxWork:
    """The Python calls a box step costs, counted with ``sys.setprofile``:
    each of its 4 stages calls the segment's f and the law's inverse, and for
    mu(I) F or G and for power:n I_eq^(n+1), so a step costs 8 calls for dp
    and dp-psi and 12 for mui, mui-psi and power:n.  Rows and segment reads
    add under 0.15 per step at one row per 100 steps; a stage that gains one
    call adds 4."""

    STEPS = 2000
    BUDGET = {"dp": 8.1, "dp-psi": 8.1, "mui": 12.1, "mui-psi": 12.1,
              "power:0.5": 12.1, "power:-0.5": 12.1}
    MODELS = MODELS | {f"power:{n:g}": PowerLaw(MAT, LAW, n=n) for n in (0.5, -0.5, 2.0)}
    #: sha256 of each power-law run's series at one row a step, with the
    #: forcing and phi0 of the call count, recorded before PowerLaw shared
    #: the factored models' f (x86-64 Linux, Python 3.11.7, numpy 2.4.6).
    POWER_SERIES = {
        "power:0.5": "a418842674799e49eafb5be5e175c7818d6ba26b02d10665a771696b6a8986df",
        "power:-0.5": "e34e40d8fb6d88945754aad6b2b95a856c3d8aea1b481dcf6bbb6e3321d04eef",
        "power:2": "c622aef39a83587542dc7e337c0d7065b5dd7da917f4ec49ea811deb558cb63b",
    }

    @staticmethod
    def _forcing():
        return piecewise_constant_forcing([0.0, 1e-3, 2e-3], [400.0, 900.0], [1e3, 300.0])

    @pytest.mark.parametrize("name", list(POWER_SERIES))
    def test_power_law_series(self, name):
        res = run_box(self.MODELS[name], MAT, self._forcing(), phi0=0.55, t_end=2e-3, dt=1e-6)
        digest = hashlib.sha256()
        for series in (res.t, res.phi, res.p_f, res.div_u, res.inertial, res.i_eq):
            digest.update(b"untracked" if series is None else series.tobytes())
        assert digest.hexdigest() == self.POWER_SERIES[name]

    @pytest.mark.parametrize("name", list(BUDGET))
    def test_python_calls_per_step(self, name):
        forcing = self._forcing()
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event == "call"

        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            run_box(self.MODELS[name], MAT, forcing, phi0=0.55, t_end=2e-3, dt=2e-3 / self.STEPS,
                    record_every=100)
        finally:
            sys.setprofile(previous)
        assert round(calls / self.STEPS, 1) <= self.BUDGET[name], f"{calls} calls"


class TestBoxRows:
    """A recorded row holds the model's own f and I at its (t, phi), and the
    recorded times are those of the box law integrated by quadrature."""

    ROW_MODELS = MODELS | {
        "power:0.5": PowerLaw(MAT, LAW, n=0.5),
        "power:-0.5": PowerLaw(MAT, LAW, n=-0.5),
        "roux-radjai": RouxRadjai(MAT, LAW, gain=1.0),
        "lincomb": LinearCombination(MAT, LAW,
                                     terms=((0.25, MODELS["dp"]), (0.75, MODELS["mui"]))),
        "derived": DerivedNumeric(MAT, LAW, Z=MODELS["mui"].yield_function),
        "isochoric": Isochoric(MODELS["mui"]),
        "bare": _Bare(),
    }

    @pytest.mark.parametrize("name", list(ROW_MODELS))
    def test_rows_equal_dilatancy(self, name):
        model, t_end = self.ROW_MODELS[name], 4e-4
        forcing = random_forcing(np.random.default_rng(13), t_end)
        res = run_box(model, MAT, forcing, phi0=0.5, t_end=t_end, dt=1e-6)
        assert np.all((0.0 <= res.phi) & (res.phi <= MAT.phi_max))
        for t, phi, div_u, inertial in zip(*(a.tolist() for a in (res.t, res.phi, res.div_u,
                                                                  res.inertial))):
            shear, p = forcing.shear(t), forcing.p(t)
            I = inertial_number(MAT, shear, p)
            assert inertial == I
            assert div_u == 2.0 * shear * model.dilatancy(phi, p, I)

    @pytest.mark.parametrize("law", ["linear", "schaeffer", "robinson", "breard"])
    @pytest.mark.parametrize("name", list(MODELS))
    def test_times_match_quadrature(self, name, law):
        """t(phi) = int_phi0^phi dphi' / g(phi'), g = -2 |S| phi f(phi, p, I),
        while |g| is at least 1e-3 of its start value."""
        model = type(MODELS[name])(MAT, EquilibriumLaw(law))
        p, phi0 = 1000.0, 0.5
        shear = _shear_for(MAT, 0.158, p)
        I = inertial_number(MAT, shear, p)

        def g(phi):
            return -2.0 * shear * phi * model.dilatancy(phi, p, I)

        g0 = g(phi0)
        t_end = 6.0 * abs(model.phi_eq(I) - phi0) / abs(g0)
        res = run_box(model, MAT, constant_forcing(shear, p), phi0=phi0, t_end=t_end,
                      dt=t_end / 400, record_every=10)
        t_ref, compared = 0.0, 0
        for t, start, phi in zip(res.t.tolist()[1:], res.phi.tolist(), res.phi.tolist()[1:]):
            if abs(g(phi)) < 1e-3 * abs(g0):
                break
            t_ref += integral(lambda x: 1.0 / g(x), start, phi, "1/g")
            assert t == pytest.approx(t_ref, rel=1e-8, abs=0.0)
            compared += 1
        assert compared >= 20


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
        np.testing.assert_array_equal(res.t, ledger.t)
        np.testing.assert_array_equal(res.residuals, ledger.residuals)
        assert res.non_increasing == ledger.non_increasing

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

    @pytest.mark.parametrize("dt", [1e-3, 0.1, 1.0, 10.0])
    @pytest.mark.parametrize("phi", [0.6, np.linspace(0.45, 0.58, 200)], ids=["uniform", "graded"])
    def test_implicit_content_drift_at_rounding_level(self, dt, phi):
        state = self._cosine_column(200, phi=phi)
        res = run_column(state, GAS, MAT, dt, 50, mode="implicit")
        assert res.max_step_content_drift <= 1e-15

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

    def test_ledger_rejects_mixed_grids(self):
        state = self._cosine_column(10)
        longer = replace(uniform_column(10, 2.0 * self.L, 0.6, state.pf_profile), t=1.0)
        with pytest.raises(ValueError, match="grid"):
            energy_ledger([state, longer], GAS, MAT)

    def test_ledger_error_names_the_cell(self):
        state = self._cosine_column(10)
        later = replace(state, pf_profile=state.pf_profile.copy(), t=1.0)
        later.pf_profile[3] = -2.0 * GAS.p_atm
        with pytest.raises(ValueError, match=r"got -202600\.0 at index \(1, 3\)$"):
            energy_ledger([state, later], GAS, MAT)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 400), rows=st.integers(1, 50), seed=st.integers(0, 2**32 - 1))
    def test_ledger_sums_keep_their_bits(self, n, rows, seed):
        """The ledger's sums, written into its buffers, equal bitwise the
        expressions they replace: (1-phi) p_f, (1-phi) enthalpy_ideal(p_f)
        and kappa_f (dp_f/dz)^2 summed over each profile."""
        rng = np.random.default_rng(seed)
        state = uniform_column(n, 0.1, rng.uniform(0.45, 0.62, n), 0.0)
        one_m, kf, dz = 1.0 - state.phi_profile, simulate._face_kappa(state, GAS, MAT), state.dz
        work = np.empty((2, rows + 1, n))
        for shape in ((rows, n), n):  # a block and one profile
            p = rng.uniform(-0.99, 5.0, shape) * GAS.p_atm
            diff = p[..., 1:] - p[..., :-1]
            sums = simulate._ledger_sums(p, diff, dz, GAS, one_m, kf, work)
            grad = diff / dz
            expected = ((one_m * p).sum(-1) * dz, (one_m * enthalpy_ideal(GAS, p)).sum(-1) * dz,
                        (kf * grad * grad).sum(-1) * dz)
            for got, want in zip(sums, expected):
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_ledger_peak_is_one_block(self):
        """energy_ledger sums the history a block at a time: over a 2,001-state
        history of 200 cells (3.2 MB of profiles, made before tracing) its
        traced peak is within one block's arrays, as run_column's door counts
        them, and its three per-state series (0.70 MB measured)."""
        state = self._cosine_column(200)
        history = run_column(state, GAS, MAT, column_cfl_dt(state, GAS, MAT), 2000).history
        energy_ledger(history[:2], GAS, MAT)  # warm up
        tracemalloc.start()
        try:
            energy_ledger(history, GAS, MAT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = (2 + simulate._SUM_FLOATS_A_VALUE) * _LEDGER_BLOCK_VALUES  # and differences
        assert peak <= 8 * (block + 3 * len(history)) + simulate._RUN_BYTES

    def test_ledger_checks_times_before_profiles(self):
        state = self._cosine_column(10)
        later = replace(state, pf_profile=np.full(10, -2.0 * GAS.p_atm))
        with pytest.raises(ValueError, match="strictly increasing"):
            energy_ledger([state, later], GAS, MAT)

    def test_ledger_error_names_the_state_across_blocks(self):
        """A bad p_f in a later block of the ledger is named by its index in
        the history, not in its block."""
        n = 2000
        rows = _LEDGER_BLOCK_VALUES // n
        state = self._cosine_column(n)
        history = [replace(state, t=float(k)) for k in range(2 * rows + 3)]
        bad = history[rows + 1].pf_profile.copy()
        bad[7] = -2.0 * GAS.p_atm
        history[rows + 1] = replace(history[rows + 1], pf_profile=bad)
        with pytest.raises(ValueError, match=rf"got -202600\.0 at index \({rows + 1}, 7\)$"):
            energy_ledger(history, GAS, MAT)

    @pytest.mark.parametrize("rise,expected", [(1e-9, False), (0.0, True)], ids=["rise", "flat"])
    def test_energy_rule(self, rise, expected):
        energy = np.full(5, -4052.0)
        energy[3] *= 1.0 - rise  # E1 < 0, so this raises it by `rise` relative
        ledger = EnergyLedger(np.arange(5.0), energy, np.zeros(5))
        assert ledger.non_increasing is expected

    def test_max_residual(self):
        # |dE1/dt + D| per step: |-3/1 + 2| = 1 and |-5/2 + 2| = 0.5
        ledger = EnergyLedger(np.array([0.0, 1.0, 3.0]), np.array([10.0, 7.0, 2.0]),
                              np.array([2.0, 2.0, 0.0]))
        assert ledger.max_residual == 1.0
        assert EnergyLedger(np.zeros(1), np.ones(1), np.zeros(1)).max_residual == 0.0

    def test_ledger_rejects_mixed_phi_profiles(self):
        state = self._cosine_column(10)
        later = step_column(self._cosine_column(10, phi=0.5), GAS, MAT, 1e-9)
        with pytest.raises(ValueError, match="phi profile"):
            energy_ledger([state, later], GAS, MAT)

    GOLDEN_SERIES = {
        "explicit200": "cec3c80d35719a891ff3a57375a6abb816125d3ef2b6b4eac9cc857c6dd4c413",
        "implicit200": "93d0546df337fe8396387a84412f872302df66b0339b635b9b92dde7fb6c0c8a",
        "graded60": "b12e72ec15e1338cc6d19c817e13f4d226654b09266d51243785a0cbdac9faf6",
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

    @pytest.mark.parametrize("mode", ["explicit", "implicit"])
    @pytest.mark.parametrize("n", [2, 200, _LEDGER_BLOCK_VALUES + 1], ids=["2", "200", "row-per-block"])
    @pytest.mark.parametrize("steps", ["0", "1", "rows-1", "rows", "rows+1", "2rows+3"])
    def test_block_ledger_matches_per_state_sums(self, mode, n, steps):
        """run_column sums its ledger in blocks of rows steps; across every
        block edge it equals the ledger and content of the recorded states."""
        rows = max(1, _LEDGER_BLOCK_VALUES // n)
        n_steps = {"0": 0, "1": 1, "rows-1": rows - 1, "rows": rows, "rows+1": rows + 1,
                   "2rows+3": 2 * rows + 3}[steps]
        state = self._cosine_column(n)
        dt = (1.0 if mode == "explicit" else 10.0) * column_cfl_dt(state, GAS, MAT)
        res = run_column(state, GAS, MAT, dt, n_steps, mode=mode, record_every=1)
        assert len(res.history) == n_steps + 1
        # energy_ledger needs two states: a copy one second after the last
        # adds an entry that is dropped.
        last = res.history[-1]
        ledger = energy_ledger([*res.history, replace(last, t=last.t + 1.0)], GAS, MAT)
        np.testing.assert_array_equal(res.t, ledger.t[:-1])
        np.testing.assert_array_equal(res.energy, ledger.energy[:-1])
        np.testing.assert_array_equal(res.dissipation, ledger.dissipation[:-1])
        np.testing.assert_array_equal(res.content, [gas_content(s) for s in res.history])

    @pytest.mark.parametrize("mode", ["explicit", "implicit"])
    @pytest.mark.parametrize("steps", ["0", "1", "rows", "rows+1", "2rows+3"])
    @pytest.mark.parametrize("every", ["1", "rows-1", "rows+1", "1e9"])
    def test_kept_states_match_stepping(self, mode, steps, every):
        """A run's ledger and kept states equal those of step_column taken
        step by step and energy_ledger over every state, bitwise, across block
        edges.  The first kept state is the initial one; each later one is a
        row of one array of kept profiles, not a view of the block the steps
        are taken in, and has its step's time in the ledger."""
        n = 1000
        rows = _LEDGER_BLOCK_VALUES // n
        n_steps = {"0": 0, "1": 1, "rows": rows, "rows+1": rows + 1, "2rows+3": 2 * rows + 3}[steps]
        record_every = {"1": 1, "rows-1": rows - 1, "rows+1": rows + 1, "1e9": 10**9}[every]
        state0 = self._cosine_column(n)
        dt = (1.0 if mode == "explicit" else 10.0) * column_cfl_dt(state0, GAS, MAT)
        res = run_column(state0, GAS, MAT, dt, n_steps, mode=mode, record_every=record_every)
        states = [state0]
        for _ in range(n_steps):
            states.append(step_column(states[-1], GAS, MAT, dt, mode=mode))
        # energy_ledger needs two states: a copy one second after the last
        # adds an entry that is dropped.
        ledger = energy_ledger([*states, replace(states[-1], t=states[-1].t + 1.0)], GAS, MAT)
        np.testing.assert_array_equal(res.t, ledger.t[:-1])
        np.testing.assert_array_equal(res.energy, ledger.energy[:-1])
        np.testing.assert_array_equal(res.dissipation, ledger.dissipation[:-1])
        np.testing.assert_array_equal(res.content, [gas_content(s) for s in states])
        kept_at = sorted({*range(0, n_steps + 1, record_every), n_steps})
        assert len(res.history) == len(kept_at)
        assert res.history[0] is state0
        later = res.history[1:]
        kept = later[0].pf_profile.base if later else None
        for i, (step, state) in enumerate(zip(kept_at[1:], later)):
            assert type(state.t) is float and state.t == res.t[step] == states[step].t
            np.testing.assert_array_equal(state.pf_profile, states[step].pf_profile, strict=True)
            assert state.pf_profile.base is kept and kept.shape == (len(later), n)
            assert state.pf_profile.ctypes.data == kept[i].ctypes.data

    @pytest.mark.parametrize("mode", ["explicit", "implicit"])
    def test_bad_initial_pf_raises_before_any_step(self, mode):
        # A one-profile index: a block of steps would name (row, cell).
        pf = np.full(10, 100.0)
        pf[3] = -2.0 * GAS.p_atm
        state = uniform_column(10, self.L, 0.6, pf)
        with pytest.raises(ValueError, match=r"got -202600\.0 at index 3$"):
            run_column(state, GAS, MAT, column_cfl_dt(state, GAS, MAT), 500, mode=mode)

    @pytest.mark.parametrize("mode,factor", [("explicit", 1.0), ("implicit", 20.0)])
    def test_history_profiles_survive_later_blocks(self, mode, factor):
        n = 60
        state = uniform_column(n, self.L, np.linspace(0.45, 0.58, n),
                               lambda z: 100.0 * np.exp(-z / 0.02))
        dt = factor * column_cfl_dt(state, GAS, MAT)
        n_steps = 2 * (_LEDGER_BLOCK_VALUES // n) + 3
        res = run_column(state, GAS, MAT, dt, n_steps, mode=mode, record_every=1)
        for recorded in res.history[1:]:
            state = step_column(state, GAS, MAT, dt, mode=mode)
            np.testing.assert_array_equal(recorded.pf_profile, state.pf_profile)


def _modes(state):
    """The column operator's eigen-decomposition: M^(1/2) = sqrt(1-phi), and
    lam, U with S = M^(-1/2) K M^(-1/2) = U diag(lam) U^T.

    With M = diag(1-phi) and K the zero-flux tridiagonal form with face
    weights p_atm kappa_f / dz^2 (kappa_f the harmonic mean of the cells'
    kappa), the column is M dp/dt = -K p, so p(t) = M^(-1/2) U g(lam) U^T
    M^(1/2) p0 with g = e^(-lam t) for the exact flow.
    """
    kappa = permeability_kappa(GAS, MAT.d, state.phi_profile)
    w = GAS.p_atm * 2.0 * kappa[:-1] * kappa[1:] / (kappa[:-1] + kappa[1:]) / state.dz**2
    K = np.diag(np.append(w, 0.0) + np.append(0.0, w)) - np.diag(w, 1) - np.diag(w, -1)
    root = np.sqrt(1.0 - state.phi_profile)
    lam, U = np.linalg.eigh(K / np.outer(root, root))
    return root, lam, U


def _modal_final_pf(state, dt, n_steps, mode):
    """p_f after n_steps of a column scheme, from the eigenpairs of its
    operator (:func:`_modes`).  Explicit steps multiply each mode by
    1 - dt lam, implicit steps by 1/(1 + dt lam), so after n steps
    p = M^(-1/2) U g(lam) U^T M^(1/2) p0.
    """
    root, lam, U = _modes(state)
    g = (1.0 - dt * lam) ** n_steps if mode == "explicit" else (1.0 + dt * lam) ** -n_steps
    return U @ (g * (U.T @ (root * state.pf_profile))) / root


class TestColumnModalReference:
    """Each column scheme against its own solution in the operator's modes,
    on random graded columns."""

    #: Worst error allowed, as a fraction of the initial deviation from the
    #: content-weighted mean; on such columns rounding leaves at most 7e-14
    #: (explicit) and 2.3e-13 (implicit).
    BOUND = 1.0e-12

    @pytest.mark.parametrize("mode,factor,n_steps", [("explicit", 1.0, 400),
                                                     ("implicit", 10.0, 200)])
    @settings(max_examples=6, deadline=None)
    @given(n=st.integers(20, 200), seed=st.integers(0, 2**32 - 1), graded=st.booleans())
    def test_final_pf_matches_modes(self, mode, factor, n_steps, n, seed, graded):
        rng = np.random.default_rng(seed)
        phi = rng.uniform(0.55, 0.62, n)  # shuffled, or sorted into a graded column
        phi = np.sort(phi) if graded else phi
        state = uniform_column(n, 0.1, phi, rng.uniform(-5.0e4, 5.0e5, n))
        dt = factor * column_cfl_dt(state, GAS, MAT)
        res = run_column(state, GAS, MAT, dt, n_steps, mode=mode, record_every=n_steps)
        p0 = state.pf_profile
        scale = np.max(np.abs(p0 - np.sum((1.0 - phi) * p0) / np.sum(1.0 - phi)))
        reference = _modal_final_pf(state, dt, n_steps, mode)
        assert np.max(np.abs(res.history[-1].pf_profile - reference)) <= self.BOUND * scale


class TestColumnImplicitSolve:
    """The implicit step's direct tridiagonal solve is bitwise the banded
    solve of the backward-Euler matrix, plus the uniform content shift."""

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 400), seed=st.integers(0, 2**32 - 1), graded=st.booleans(),
           decades=st.floats(0.0, 5.0))
    def test_matches_solve_banded(self, n, seed, graded, decades):
        rng = np.random.default_rng(seed)
        phi = rng.uniform(0.45, 0.62, n)
        phi = np.sort(phi) if graded else phi
        state = uniform_column(n, 0.1, phi, rng.uniform(-5.0e4, 5.0e5, n))
        dt = 10.0**decades * column_cfl_dt(state, GAS, MAT)
        one_m, dz = 1.0 - phi, state.dz
        off = -dt * GAS.p_atm / (dz * dz) * simulate._face_kappa(state, GAS, MAT)
        ab = np.vstack([np.append(0.0, off), one_m, np.append(off, 0.0)])
        ab[1, :-1] -= off
        ab[1, 1:] -= off
        p = state.pf_profile
        for _ in range(3):
            content = one_m * p
            p = solve_banded((1, 1), ab, content)
            p += (content.sum() - (one_m * p).sum()) / one_m.sum()
            state = step_column(state, GAS, MAT, dt, mode="implicit")
            assert state.pf_profile.tobytes() == p.tobytes()


def _reference_explicit_step(p, one_m, kf, dz, dt, p_atm):
    """The explicit column step as it was taken before both modes shared the
    face conductance: transfers T = dt p_atm / dz (kf (p[1:] - p[:-1]) / dz)
    and (one_m p + T[i] - T[i-1]) / one_m, with T = 0 past both ends."""
    transfer = dt * p_atm / dz * (kf * (p[1:] - p[:-1]) / dz)
    out = one_m * p
    out[:-1] += transfer
    out[1:] -= transfer
    return out / one_m


class TestColumnExplicitStep:
    """The explicit step p + (F[1:] - F[:-1]) / (1-phi) against the step it
    replaced, on columns with uniform or graded phi and p_f from just above
    -p_atm to 5 p_atm, at the stability bound."""

    #: Steps a run takes: a 2-cell column loses at least 80 % of its
    #: difference a step, and after 6 its E1 still falls by at least 1.2e-13
    #: relative a step (3,000 draws), far above rounding.
    STEPS = 6
    #: Worst distance from the reference trajectory, as a fraction of the
    #: largest |p_f| at the start; 300 draws of 50 steps stayed within 3.1 ulp.
    TOL = 1.0e-14

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 400), seed=st.integers(0, 2**32 - 1), graded=st.booleans())
    def test_run_follows_reference_step(self, n, seed, graded):
        rng = np.random.default_rng(seed)
        phi = np.sort(rng.uniform(0.45, 0.62, n)) if graded else rng.uniform(0.45, 0.62)
        state = uniform_column(n, 0.1, phi, rng.uniform(-0.99, 5.0, n) * GAS.p_atm)
        dt = column_cfl_dt(state, GAS, MAT)
        res = run_column(state, GAS, MAT, dt, self.STEPS)
        one_m, kf, dz = 1.0 - state.phi_profile, simulate._face_kappa(state, GAS, MAT), state.dz
        # each face takes at most CFL_SAFETY of either cell's weight
        cond = dt * GAS.p_atm / (dz * dz) * kf
        bound = simulate.CFL_SAFETY * (1.0 + 1.0e-12)
        assert np.all(cond / one_m[:-1] <= bound) and np.all(cond / one_m[1:] <= bound)
        p0 = state.pf_profile
        scale, eps = np.max(np.abs(p0)), np.finfo(float).eps
        reference = p0
        for before, after in zip(res.history, res.history[1:]):
            reference = _reference_explicit_step(reference, one_m, kf, dz, dt, GAS.p_atm)
            assert np.max(np.abs(after.pf_profile - reference)) <= self.TOL * scale
            # a convex combination: no new maximum or minimum, up to rounding
            p, q = before.pf_profile, after.pf_profile
            assert q.max() <= p.max() + 4.0 * eps * scale and q.min() >= p.min() - 4.0 * eps * scale
        # content drifts by rounding only: 2.6 ulp of its absolute sum at most
        # over 600 draws
        drift = np.max(np.abs(np.diff(res.content)))
        assert drift <= 8.0 * eps * np.sum(np.abs(one_m * p0)) * dz
        assert res.non_increasing


class TestColumnConvergence:
    """Each scheme converges at first order in dt to the exact flow
    p(t) = M^(-1/2) U e^(-lam t) U^T M^(1/2) p0 (:func:`_modes`)."""

    @pytest.mark.parametrize("mode,factor", [("explicit", 1.0), ("implicit", 20.0)])
    @settings(max_examples=2, deadline=None)
    @given(n=st.integers(20, 40), seed=st.integers(0, 2**32 - 1))
    def test_first_order_in_dt(self, mode, factor, n, seed):
        rng = np.random.default_rng(seed)
        phi = np.sort(rng.uniform(0.55, 0.62, n))  # a graded column
        state = uniform_column(n, 0.1, phi, rng.uniform(-5.0e4, 5.0e5, n))
        root, lam, U = _modes(state)
        t_end = 2.0 / lam[1]  # the slowest decaying mode falls by e^2
        exact = U @ (np.exp(-lam * t_end) * (U.T @ (root * state.pf_profile))) / root
        steps = math.ceil(t_end / (factor * column_cfl_dt(state, GAS, MAT)))
        errors = []
        for k in (1, 2, 4):  # dt, dt/2 and dt/4, each ending at t_end
            res = run_column(state, GAS, MAT, t_end / (k * steps), k * steps, mode=mode,
                             record_every=k * steps)
            errors.append(np.max(np.abs(res.history[-1].pf_profile - exact)))
        # measured: 1.95 to 2.13 per halving over 50 such columns
        assert 1.8 <= errors[0] / errors[1] <= 2.2 and 1.8 <= errors[1] / errors[2] <= 2.2
