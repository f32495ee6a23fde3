"""Desk-scale time integrators exercising the constitutive framework.

Two reduced settings isolate the provable behaviour of the full model
without a momentum solver:

* a homogeneous 0D *box* under prescribed shear |S|(t) and pressure p(t),
  evolving d(phi)/dt = -2 phi |S| f(phi, p, I) (and optionally the pore
  pressure through the non-conservative gas equation without diffusion).
  This carries the packing-bound and equilibrium-attraction content: phi
  stays in [0, phi_max] for compliant models and relaxes to phi_eq(I)
  under constant forcing.

* a 1D *column* of solid at rest, where the pore pressure obeys
  d/dt[(1-phi) p_f] = p_atm d/dz[kappa(phi) dp_f/dz] with zero flux at both
  ends.  The finite-volume discretisation conserves the discrete gas
  content exactly and dissipates the gas energy
  E1 = sum (1-phi) H(p_f) dz monotonically.

Bound violations in the box are *flagged, never clamped*: a clamp would
mask an integrator or model defect that the theory says cannot occur for
compliant models.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .gas import enthalpy_ideal, permeability_kappa
from .materials import GasParams, MaterialParams, inertial_number

__all__ = [
    "Forcing",
    "constant_forcing",
    "piecewise_constant_forcing",
    "random_forcing",
    "BoxState",
    "step_box",
    "BoxResult",
    "run_box",
    "ColumnState",
    "uniform_column",
    "column_cfl_dt",
    "step_column",
    "ColumnResult",
    "run_column",
    "EnergyLedger",
    "energy_ledger",
    "gas_content",
]

#: Bound-violation slack (numerical, not physical).
BOUND_EPS = 1.0e-9

#: Fraction of the explicit column stability limit that a step may take.
CFL_SAFETY = 0.4


# ----------------------------------------------------------------------
# Forcing signals
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Forcing:
    """Prescribed shear-rate and pressure signals for the box."""

    shear: Callable[[float], float]
    p: Callable[[float], float]


def constant_forcing(shear: float, p: float) -> Forcing:
    if not p > 0:
        raise ValueError(f"forcing pressure must be positive, got {p}")
    if not shear >= 0:
        raise ValueError(f"forcing shear must be non-negative, got {shear}")
    for name, value in (("pressure", p), ("shear", shear)):
        if math.isinf(value):
            raise ValueError(f"forcing {name} must be finite, got {value}")
    return Forcing(shear=lambda t: shear, p=lambda t: p)


def piecewise_constant_forcing(
    edges: Sequence[float], shears: Sequence[float], ps: Sequence[float]
) -> Forcing:
    """Right-open piecewise-constant signals on [edges[k], edges[k+1]).

    ``edges`` is non-decreasing and has one more entry than the value lists;
    times outside the range take the first/last segment values.
    """
    edges_arr = np.asarray(edges, dtype=float)
    shear_arr = np.asarray(shears, dtype=float)
    p_arr = np.asarray(ps, dtype=float)
    n = shear_arr.size
    if n == 0 or edges_arr.size != n + 1 or p_arr.size != n:
        raise ValueError("need len(edges) = len(shears) + 1 = len(ps) + 1 >= 2")
    # Written so that NaN fails each check.
    if not np.all(np.diff(edges_arr) >= 0):
        raise ValueError("forcing edges must be non-decreasing numbers")
    if not np.all(shear_arr >= 0):
        raise ValueError("forcing shears must be non-negative")
    if not np.all(p_arr > 0):
        raise ValueError("forcing pressures must be positive")
    for name, values in (("shears", shear_arr), ("pressures", p_arr)):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"forcing {name} must be finite")
    # Python lists and bisect: numpy calls on one float cost more than the
    # lookup, which runs at every RK4 stage.
    edge_list, shear_list, p_list = edges_arr.tolist(), shear_arr.tolist(), p_arr.tolist()

    def segment(t: float) -> int:
        return min(max(bisect_right(edge_list, t) - 1, 0), n - 1)

    return Forcing(
        shear=lambda t: shear_list[segment(t)],
        p=lambda t: p_list[segment(t)],
    )


def random_forcing(rng: np.random.Generator, t_end: float) -> Forcing:
    """Seeded forcing on 8 equal segments of [0, t_end], log-uniform in shear
    on [50, 1500] 1/s and in pressure on [10, 1e4] Pa."""
    _check_t_end(t_end)
    edges = np.linspace(0.0, t_end, 9)
    shears = np.exp(rng.uniform(math.log(50.0), math.log(1500.0), 8))
    ps = np.exp(rng.uniform(math.log(10.0), math.log(1.0e4), 8))
    return piecewise_constant_forcing(edges, shears, ps)


# ----------------------------------------------------------------------
# 0D box
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BoxState:
    """Homogeneous state: time, packing fraction and optional pore pressure."""

    t: float
    phi: float
    p_f: float | None = None


def _box_stepper(
    model, mat: MaterialParams, forcing: Forcing, dt: float, gas: GasParams | None
) -> Callable[[float, float, float], tuple[float, float]]:
    """Return ``advance(t, phi, p_f) -> (phi, p_f)`` for a checked dt > 0.

    Each call is one classical 4-stage Runge-Kutta step of length dt, with
    the forcing (and hence the inertial number) re-read at every stage
    time.  With ``gas`` given, the non-conservative, diffusion-free gas
    equation (1-phi) dp_f/dt = -(p_atm + p_f) div u is advanced alongside
    phi; with ``gas`` None, p_f is not tracked and keeps a zero rate.
    """
    half, sixth = 0.5 * dt, dt / 6.0

    def rates(t: float, phi: float, p_f: float) -> tuple[float, float]:
        shear, p = forcing.shear(t), forcing.p(t)
        divu = 0.0
        if shear != 0.0:
            divu = 2.0 * shear * model.dilatancy(phi, p, inertial_number(mat, shear, p))
        dpf = 0.0 if gas is None else -(gas.p_atm + p_f) * divu / (1.0 - phi)
        return -phi * divu, dpf

    def advance(t: float, phi: float, p_f: float) -> tuple[float, float]:
        a1, b1 = rates(t, phi, p_f)
        a2, b2 = rates(t + half, phi + half * a1, p_f + half * b1)
        a3, b3 = rates(t + half, phi + half * a2, p_f + half * b2)
        a4, b4 = rates(t + dt, phi + dt * a3, p_f + dt * b3)
        return (phi + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4),
                p_f + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4))

    return advance


def step_box(
    state: BoxState, model, mat: MaterialParams, forcing: Forcing, dt: float,
    gas: GasParams | None = None,
) -> BoxState:
    """One classical 4-stage Runge-Kutta step of the box dynamics.

    This is one call of a :func:`_box_stepper` built for the step, so dt
    and gas are checked on every call, where :func:`run_box` checks them
    once.  A state that carries a pore pressure advances it with ``gas``.

    Raises:
        ValueError: If dt <= 0, or p_f is tracked without gas parameters;
            model domain errors at stage states propagate.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    tracked = state.p_f is not None
    if tracked and gas is None:
        raise ValueError("tracking p_f requires gas parameters")
    advance = _box_stepper(model, mat, forcing, dt, gas if tracked else None)
    phi, p_f = advance(state.t, state.phi, state.p_f if tracked else 0.0)
    return BoxState(t=state.t + dt, phi=phi, p_f=p_f if tracked else None)


@dataclass
class BoxResult:
    """Recorded box trajectory with bound and sign diagnostics."""

    t: np.ndarray
    phi: np.ndarray
    p_f: np.ndarray | None
    div_u: np.ndarray
    inertial: np.ndarray
    i_eq: np.ndarray
    violations: list[tuple[int, float, float]]  # (step, time, phi)
    sign_agreement: bool

    @property
    def phi_min(self) -> float:
        return float(np.min(self.phi))

    @property
    def phi_max_seen(self) -> float:
        return float(np.max(self.phi))


def _check_record_every(record_every: int) -> None:
    """Reject a recording stride that would divide by zero or never record."""
    if record_every < 1:
        raise ValueError(f"record_every must be at least 1, got {record_every}")


def _check_t_end(t_end: float) -> None:
    """Reject a run length that is negative, NaN or infinite."""
    if not t_end >= 0:  # written so that NaN fails
        raise ValueError(f"t_end must be non-negative, got {t_end}")
    if t_end == math.inf:
        raise ValueError(f"t_end must be finite, got {t_end}")


def _step_count(t_end: float, dt: float) -> int:
    """The whole number of steps of dt nearest to t_end, after checking that
    dt is positive and t_end finite and non-negative; a positive t_end must
    round to at least one step."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    _check_t_end(t_end)
    n_steps = int(round(t_end / dt))
    if n_steps == 0 and t_end > 0:
        raise ValueError(f"t_end = {t_end} rounds to zero steps of dt = {dt}")
    return n_steps


def run_box(
    model, mat: MaterialParams, forcing: Forcing, phi0: float, t_end: float, dt: float,
    pf0: float | None = None, gas: GasParams | None = None, record_every: int = 1,
) -> BoxResult:
    """Integrate the box and collect diagnostics.

    The run checks dt and gas once, builds one :func:`_box_stepper` and
    steps on floats, advancing time by ``t += dt``.  ``gas`` is used only
    when ``pf0`` is given.  Each recorded step stores div u, I and
    i_eq(phi) and checks the critical-state sign agreement
    sign(div u) = sign(I - i_eq(phi)) outside a |f| < 1e-12 dead band.
    Steps leaving [-1e-9, phi_max + 1e-9] are flagged as model-violation
    events and never clamped.

    Raises:
        ValueError: If dt <= 0, t_end is negative or not finite, t_end > 0
            rounds to zero steps, record_every < 1, phi0 is outside (0, 1),
            or pf0 is given without gas, at or below -p_atm, or infinite.
    """
    n_steps = _step_count(t_end, dt)
    _check_record_every(record_every)
    # Written so that NaN fails each check.
    if not 0.0 < phi0 < 1.0:
        raise ValueError(f"phi0 must lie in (0, 1), got {phi0}")
    if pf0 is not None:
        if gas is None:
            raise ValueError("tracking p_f requires gas parameters")
        if not pf0 > -gas.p_atm:
            raise ValueError(f"pf0 must exceed -p_atm = {-gas.p_atm}, got {pf0}")
        if pf0 == math.inf:
            raise ValueError(f"pf0 must be finite, got {pf0}")
    advance = _box_stepper(model, mat, forcing, dt, None if pf0 is None else gas)
    rows: list[tuple[float, ...]] = []  # (t, phi, p_f, div u, I, i_eq)
    violations: list[tuple[int, float, float]] = []
    sign_ok = True

    def record(t: float, phi: float, p_f: float) -> None:
        nonlocal sign_ok
        shear, p = forcing.shear(t), forcing.p(t)
        in_domain = 0.0 <= phi <= mat.phi_max
        if shear > 0.0 and in_domain:
            I = inertial_number(mat, shear, p)
            f_val = model.dilatancy(phi, p, I)
            divu = 2.0 * shear * f_val
        else:
            I, f_val, divu = 0.0, 0.0, 0.0
        ieq = model.i_eq(phi) if in_domain else float("nan")
        rows.append((t, phi, p_f, divu, I, ieq))
        if shear > 0.0 and abs(f_val) >= 1.0e-12 and not math.isnan(ieq):
            if math.copysign(1.0, divu) != math.copysign(1.0, I - ieq):
                sign_ok = False

    t, phi, p_f = 0.0, phi0, 0.0 if pf0 is None else pf0
    record(t, phi, p_f)
    for step in range(1, n_steps + 1):
        try:
            phi, p_f = advance(t, phi, p_f)
        except ValueError as exc:
            raise RuntimeError(f"box step {step} (t={t:g}) failed: {exc}") from exc
        t += dt
        if not -BOUND_EPS <= phi <= mat.phi_max + BOUND_EPS:
            violations.append((step, t, phi))
        if step % record_every == 0 or step == n_steps:
            record(t, phi, p_f)

    t, phi, p_f, div_u, inertial, i_eq = np.array(rows).T
    p_f = None if pf0 is None else p_f
    return BoxResult(t, phi, p_f, div_u, inertial, i_eq, violations, sign_ok)


# ----------------------------------------------------------------------
# 1D column
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ColumnState:
    """Cell-centred column state; the solid profile is static."""

    z: np.ndarray
    phi_profile: np.ndarray
    pf_profile: np.ndarray
    t: float

    @property
    def dz(self) -> float:
        return float(self.z[1] - self.z[0])


def uniform_column(
    n_cells: int,
    length: float,
    phi: float | Sequence[float],
    pf_init: float | Sequence[float] | Callable[[np.ndarray], np.ndarray] = 0.0,
) -> ColumnState:
    """Build a column state on a uniform grid of cell centres.

    Raises:
        ValueError: If n_cells < 2, length is not positive and finite, or
            a phi is outside (0, 1) or a p_f is not finite (NaN included).
    """
    if n_cells < 2:
        raise ValueError(f"need at least 2 cells, got {n_cells}")
    if not length > 0:
        raise ValueError(f"column length must be positive, got {length}")
    if length == math.inf:
        raise ValueError(f"column length must be finite, got {length}")
    dz = length / n_cells
    z = (np.arange(n_cells) + 0.5) * dz
    phi_arr = np.broadcast_to(np.asarray(phi, dtype=float), (n_cells,)).copy()
    if not np.all((0.0 < phi_arr) & (phi_arr < 1.0)):
        raise ValueError("column phi profile must lie in (0, 1)")
    if callable(pf_init):
        pf = np.asarray(pf_init(z), dtype=float)
    else:
        pf = np.broadcast_to(np.asarray(pf_init, dtype=float), (n_cells,)).copy()
    if not np.all(np.isfinite(pf)):
        raise ValueError("column initial p_f must be finite")
    return ColumnState(z=z, phi_profile=phi_arr, pf_profile=pf, t=0.0)


def _face_kappa(state: ColumnState, gas: GasParams, mat: MaterialParams) -> np.ndarray:
    """Face permeabilities: the harmonic mean of the neighbouring cells'
    kappa, which preserves flux continuity across jumps in kappa."""
    kappa = permeability_kappa(gas, mat.d, state.phi_profile)
    return 2.0 * kappa[:-1] * kappa[1:] / (kappa[:-1] + kappa[1:])


def column_cfl_dt(state: ColumnState, gas: GasParams, mat: MaterialParams) -> float:
    """Largest explicit step: CFL_SAFETY * min(dz^2 (1-phi) / (p_atm kappa))."""
    one_m, kappa = 1.0 - state.phi_profile, permeability_kappa(gas, mat.d, state.phi_profile)
    return CFL_SAFETY * float(np.min(state.dz * state.dz * one_m / (gas.p_atm * kappa)))


def _column_stepper(
    state: ColumnState, gas: GasParams, mat: MaterialParams, dt: float, mode: str
) -> tuple[np.ndarray, np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """Check a run's step once and build what all its steps share.

    Returns the static 1-phi, the face kappa and ``advance(p_f) -> p_f``,
    one step of length dt on the grid and phi profile of ``state``.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if mode not in ("explicit", "implicit"):
        raise ValueError(f"unknown mode {mode!r}")
    one_m, kf, dz = 1.0 - state.phi_profile, _face_kappa(state, gas, mat), state.dz
    if mode == "explicit":
        limit = column_cfl_dt(state, gas, mat)
        if dt > limit * (1.0 + 1.0e-12):
            raise ValueError(
                f"explicit step dt={dt:g} above the stability bound {limit:g}; "
                "reduce dt or use implicit mode"
            )
        rate = dt * gas.p_atm / dz

        def advance(p: np.ndarray) -> np.ndarray:
            transfer = rate * (kf * (p[1:] - p[:-1]) / dz)  # zero flux at both ends
            content = one_m * p
            content[:-1] += transfer
            content[1:] -= transfer
            return content / one_m

        return one_m, kf, advance

    from scipy.linalg import solve_banded

    off = -dt * gas.p_atm / (dz * dz) * kf  # off-diagonals of the backward-Euler matrix
    ab = np.vstack([np.append(0.0, off), one_m, np.append(off, 0.0)])
    ab[1, :-1] -= off
    ab[1, 1:] -= off
    return one_m, kf, lambda p: solve_banded((1, 1), ab, one_m * p)


def step_column(
    state: ColumnState,
    gas: GasParams,
    mat: MaterialParams,
    dt: float,
    mode: str = "explicit",
) -> ColumnState:
    """One finite-volume step of the pore-pressure diffusion equation.

    Zero-flux ends; harmonic-mean face permeabilities.  Explicit mode
    enforces the stability bound of :func:`column_cfl_dt` up front; the
    implicit mode is a backward-Euler tridiagonal solve without a step
    restriction.  Both modes conserve sum (1-phi) p_f dz exactly (the flux
    sum telescopes).

    Raises:
        ValueError: On dt <= 0, unknown mode, or an explicit step above the
            stability bound.
    """
    advance = _column_stepper(state, gas, mat, dt, mode)[2]
    return replace(state, pf_profile=advance(state.pf_profile), t=state.t + dt)


def gas_content(state: ColumnState) -> float:
    """Discrete gas content sum (1-phi) p_f dz, conserved by the stepper."""
    return float(np.sum((1.0 - state.phi_profile) * state.pf_profile) * state.dz)


@dataclass
class ColumnResult:
    """Per-step column diagnostics plus downsampled state history."""

    history: list[ColumnState]
    t: np.ndarray
    content: np.ndarray
    energy: np.ndarray
    dissipation: np.ndarray
    max_step_content_drift: float


def run_column(
    state0: ColumnState,
    gas: GasParams,
    mat: MaterialParams,
    dt: float,
    n_steps: int,
    mode: str = "explicit",
    record_every: int = 1,
) -> ColumnResult:
    """Advance the column, tracking conservation and the energy ledger.

    ``content``, ``energy`` and ``dissipation`` are recorded at *every*
    step; states are kept each ``record_every`` steps (plus the initial and
    final ones).

    Raises:
        ValueError: First on the errors of :func:`step_column`, even when
            n_steps is 0: dt <= 0, an unknown mode, or an explicit dt above
            the stability bound; then if record_every < 1 or n_steps < 0.
    """
    one_m, kf, advance = _column_stepper(state0, gas, mat, dt, mode)
    _check_record_every(record_every)
    if n_steps < 0:
        raise ValueError(f"n_steps must be non-negative, got {n_steps}")
    t, p, dz = state0.t, state0.pf_profile, state0.dz
    history = [state0]
    rows = [(t, *_ledger_sums(p, dz, gas, one_m, kf))]
    for step in range(1, n_steps + 1):
        p = advance(p)
        t += dt
        rows.append((t, *_ledger_sums(p, dz, gas, one_m, kf)))
        if step % record_every == 0 or step == n_steps:
            history.append(replace(state0, pf_profile=p, t=t))
    t, content, energy, dissipation = np.array(rows).T
    drift = np.max(np.abs(np.diff(content)), initial=0.0) / max(abs(content[0]), 1.0)
    return ColumnResult(history, t, content, energy, dissipation, float(drift))


def _ledger_sums(
    p: np.ndarray, dz: float, gas: GasParams, one_m: np.ndarray, kf: np.ndarray
) -> tuple[float, float, float]:
    """The gas content sum (1-phi) p_f dz, E1 = sum (1-phi) H(p_f) dz with the
    ideal-gas H, and D = sum over faces of kappa (dp_f/dz)^2 dz, from the
    static 1-phi and face kappa."""
    grad = (p[1:] - p[:-1]) / dz
    e1 = float(np.sum(one_m * enthalpy_ideal(gas, p)) * dz)
    return float(np.sum(one_m * p) * dz), e1, float(np.sum(kf * grad * grad) * dz)


def _non_increasing(energy: np.ndarray) -> bool:
    """Whether an energy series never rises from one entry to the next."""
    return bool(np.all(np.diff(energy) <= 0.0))


@dataclass
class EnergyLedger:
    """Energy budget of a column history.

    ``residuals[k] = |(E1[k+1] - E1[k]) / dt_k + D[k]|`` measures how well
    the discrete trajectory honours dE1/dt = -D; it shrinks linearly with
    the time step.
    """

    t: np.ndarray
    energy: np.ndarray
    dissipation: np.ndarray
    residuals: np.ndarray

    @property
    def non_increasing(self) -> bool:
        return _non_increasing(self.energy)

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals)) if self.residuals.size else 0.0


def energy_ledger(
    history: Sequence[ColumnState], gas: GasParams, mat: MaterialParams
) -> EnergyLedger:
    """Build the E1 / dissipation ledger from a sequence of column states.

    Raises:
        ValueError: If there are fewer than two states, the states do not
            all share the phi profile of the first, or the times do not
            strictly increase.
    """
    if len(history) < 2:
        raise ValueError("need at least two states for a ledger")
    phi = history[0].phi_profile
    if not all(np.array_equal(s.phi_profile, phi) for s in history[1:]):
        raise ValueError("history states must share the phi profile of the first")
    one_m, kf = 1.0 - phi, _face_kappa(history[0], gas, mat)
    rows = [(s.t, *_ledger_sums(s.pf_profile, s.dz, gas, one_m, kf)) for s in history]
    t, _, e1, diss = np.array(rows).T
    dts = np.diff(t)
    if np.any(dts <= 0):
        raise ValueError("history times must be strictly increasing")
    residuals = np.abs(np.diff(e1) / dts + diss[:-1])
    return EnergyLedger(t=t, energy=e1, dissipation=diss, residuals=residuals)
