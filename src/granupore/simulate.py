"""Desk-scale time integrators exercising the constitutive framework.

Two reduced settings isolate the provable behaviour of the full model
without a momentum solver:

* a homogeneous 0D *box* under prescribed shear |S|(t) and pressure p(t),
  evolving d(phi)/dt = -2 phi |S| f(phi, p, I) (and optionally the pore
  pressure through the non-conservative gas equation without diffusion).
  This carries the packing-bound and equilibrium-attraction content: phi
  stays in [0, phi_max] for compliant models and relaxes to phi_eq(I)
  under constant forcing.  One RK4 stepper owns the box's clock: one loop
  takes each block of steps between recorded rows, its stages calling the
  segment's f directly.  It reads a forcing that declares its jumps once per
  segment, and one that does not once per distinct stage time, and takes
  2 |S|, I and f from ``rheology._forced`` once per forcing segment, which a
  recorded row reuses.  Only a step that leaves the span read last reads
  the forcing, at each of its stages.

* a 1D *column* of solid at rest, where the pore pressure obeys
  d/dt[(1-phi) p_f] = p_atm d/dz[kappa(phi) dp_f/dz] with zero flux at both
  ends.  In exact arithmetic the finite-volume discretisation conserves
  the discrete gas content and dissipates the gas energy
  E1 = sum (1-phi) H(p_f) dz monotonically.  Both modes take the face
  conductance dt p_atm kappa_f / dz^2 once a run, the explicit step's only
  coefficient and, negated, the implicit matrix's off-diagonal.
  ``run_column`` is the one stepping loop, for both modes, and
  ``step_column`` a run of one step.  It allocates its arrays once and steps
  in place into a block of steps, each step followed by the differences the
  next explicit step reads: an explicit step is five numpy calls with them.
  It records content and E1 at every step, summed over each block in one
  call into buffers allocated with the run, bitwise equal to a per-step sum;
  ``energy_ledger`` sums a history in the same blocks, and both take H from
  ``gas``.  In
  floats the implicit solve's round-off grows with dt; a uniform shift
  after each solve holds the content drift at rounding level (at most
  4.4e-16 per step over dt = 1e-3 to 10 s at the CLI defaults).  Near
  equilibrium E1 moves by +-1-2 ulp, which the exact energy rule of
  :class:`EnergyLedger` reports as a rise
  (ROADMAP.md, item 3).

Bound violations in the box are *flagged, never clamped*: a clamp would
mask an integrator or model defect that the theory says cannot occur for
compliant models.

What a run keeps has one ceiling, :data:`RECORD_MAX_BYTES` (1 GiB), and one
door, ``_check_records``: a box whose rows, or a column run whose kept
states, per-step ledger and work arrays together, would pass it is rejected
before its first step, and a column that no run could hold within it is
rejected before it is built.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .conditions import EQ_ANCHOR_TOL
from .gas import _enthalpy_into, permeability_kappa
from .materials import (
    RECORD_MAX_BYTES, GasParams, MaterialParams, _check_all, _check_amount, _check_amounts,
    _check_count, _check_finite,
)
from .rheology import _admit, _forced

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

#: p_f values per block of column states whose ledger ``run_column`` and
#: ``energy_ledger`` sum in one call (128 KB, and as much again for their
#: differences): a block this size stays in cache, while a 4 MB block made
#: 2,000 cells slower than one call per step (2,000 steps in 121 ms against
#: 94 ms, and 57 ms at this size).
_LEDGER_BLOCK_VALUES = 16_384

# What a run keeps is counted against materials.RECORD_MAX_BYTES (1 GiB).  A
# box row is taken as 320 bytes (a tuple of six floats while recording, then
# six array floats; 297 measured at peak).  A column run is taken as what it
# allocates before its first step: each state as 8 bytes a cell and
# ``_STATE_BYTES`` besides, each step as the 32 bytes of its 4-float ledger,
# and the work arrays that ``_column_work_bytes`` counts.  At about 4.0 us an
# explicit step of 200 cells in a run (best of 7 runs of 10,005 steps, 2-vCPU
# x86-64 host), the 2**25 steps of a 1 GiB ledger run for about 2 minutes.


# ----------------------------------------------------------------------
# Forcing signals
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Forcing:
    """Prescribed shear-rate and pressure signals for the box.

    ``jumps`` lists, non-decreasing, the times at which the signals may
    change: both are constant on each right-open span between consecutive
    jumps, before the first and from the last on.  ``()`` declares constant
    signals; None, the default for hand-built callables, lets them change at
    any time, so the box reads them at every stage time.

    Raises:
        ValueError: If ``jumps`` is not finite or not non-decreasing.
    """

    shear: Callable[[float], float]
    p: Callable[[float], float]
    jumps: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.jumps is None:
            return
        jumps = tuple(map(float, self.jumps))
        _check_all("forcing jumps must be finite", jumps)
        _check_all("forcing jumps must be non-decreasing", jumps,
                   np.append(True, np.less_equal(jumps[:-1], jumps[1:])))
        object.__setattr__(self, "jumps", jumps)


def constant_forcing(shear: float, p: float) -> Forcing:
    _check_amount("forcing pressure", p)
    _check_amount("forcing shear", shear, zero_ok=True)
    return Forcing(shear=lambda t: shear, p=lambda t: p, jumps=())


def piecewise_constant_forcing(
    edges: Sequence[float], shears: Sequence[float], ps: Sequence[float]
) -> Forcing:
    """Right-open piecewise-constant signals on [edges[k], edges[k+1]).

    ``edges`` is non-decreasing and has one more entry than the value lists;
    times outside the range take the first/last segment values, so the
    forcing's jumps are the interior edges.  The first edge whose step up from
    the one before it is negative or NaN raises a ValueError naming it and its
    index, then a pressure and then a shear that :func:`constant_forcing`
    would reject.
    """
    edges_arr = np.asarray(edges, dtype=float)
    shear_arr = np.asarray(shears, dtype=float)
    p_arr = np.asarray(ps, dtype=float)
    n = shear_arr.size
    if n == 0 or edges_arr.size != n + 1 or p_arr.size != n:
        raise ValueError("need len(edges) = len(shears) + 1 = len(ps) + 1 >= 2")
    _check_all("forcing edges must be non-decreasing numbers", edges_arr,
               np.append(True, np.diff(edges_arr) >= 0))
    _check_amounts("forcing pressure", p_arr)
    _check_amounts("forcing shear", shear_arr, zero_ok=True)
    # Python lists and bisect: numpy calls on one float cost more than the
    # lookup, which runs once per segment a box enters.
    edge_list, shear_list, p_list = edges_arr.tolist(), shear_arr.tolist(), p_arr.tolist()

    def segment(t: float) -> int:
        return min(max(bisect_right(edge_list, t) - 1, 0), n - 1)

    return Forcing(
        shear=lambda t: shear_list[segment(t)],
        p=lambda t: p_list[segment(t)],
        jumps=tuple(edge_list[1:-1]),
    )


def random_forcing(rng: np.random.Generator, t_end: float) -> Forcing:
    """Seeded forcing on 8 equal segments of [0, t_end], log-uniform in shear
    on [50, 1500] 1/s and in pressure on [10, 1e4] Pa."""
    _check_amount("t_end", t_end, zero_ok=True)
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


class _StepFailed(Exception):
    """A model error at a box step: the text names the step and its start
    time, the cause is the model's error.  :func:`run_box` raises the text
    as a RuntimeError, :func:`step_box` the cause as it is."""


def _box_stepper(
    model, mat: MaterialParams, forcing: Forcing, dt: float, gas: GasParams | None
) -> tuple[Callable, Callable[[float], tuple]]:
    """Return ``advance`` and ``segment``, the box's one clock and forcing reader.

    ``advance(t, phi, p_f, first, last, violations) -> (t, phi, p_f)`` takes
    steps ``first`` to ``last`` of a checked dt > 0 in one loop: classical
    4-stage Runge-Kutta steps, each ending at its stage-4 time, whose stages
    take d = 2 |S| f(x) from the segment held, dphi/dt = -x d and, with
    ``gas``, the diffusion-free gas equation (1-phi) dp_f/dt = -(p_atm + p_f) d
    (else p_f's rate is 0).  It appends ``(step, t, phi)`` to ``violations``
    for each step that leaves [-1e-9, phi_max + 1e-9], and raises
    :class:`_StepFailed` on a model error at a stage.

    A read of the forcing at t holds on the span of t between the forcing's
    jumps (on t alone under ``jumps=None``), and only a (shear, p) that
    differs from the last read asks :func:`rheology._forced` anew for the
    2 |S|, I and f that ``segment(t)`` returns.  A step inside the span read
    last reads nothing; any other reads each of its stage times that lies
    outside the span.
    """
    half, sixth, jumps = 0.5 * dt, dt / 6.0, forcing.jumps
    p_atm, phi_hi = None if gas is None else gas.p_atm, mat.phi_max + BOUND_EPS
    # The memo: the span [since, until) of the last read (empty before the
    # first), its (shear, p) and that segment's 2 |S|, I, f.
    since, until = math.inf, -math.inf
    last_read = two_shear = I = f = None

    def segment(t: float) -> tuple:
        nonlocal since, until, last_read, two_shear, I, f
        if not since <= t < until:
            shear, p = forcing.shear(t), forcing.p(t)
            if (shear, p) != last_read:
                two_shear, I, f = _forced(model, mat, shear, p)
                last_read = shear, p
            if jumps is None:
                since, until = t, math.nextafter(t, math.inf)
            else:
                k = bisect_right(jumps, t)
                since = jumps[k - 1] if k else -math.inf
                until = jumps[k] if k < len(jumps) else math.inf
        return two_shear, I, f

    def advance(t: float, phi: float, p_f: float, first: int, last: int,
                violations: list) -> tuple[float, float, float]:
        try:
            for step in range(first, last + 1):
                tm, t4 = t + half, t + dt
                # Stage 2 reads tm, so stage 3, at tm too, never reads.
                read = not (since <= t and t4 < until)
                if read:
                    segment(t)
                d = two_shear * f(phi)
                a1, b1 = -phi * d, 0.0 if p_atm is None else -(p_atm + p_f) * d / (1.0 - phi)
                x, q = phi + half * a1, p_f + half * b1
                if read:
                    segment(tm)
                d = two_shear * f(x)
                a2, b2 = -x * d, 0.0 if p_atm is None else -(p_atm + q) * d / (1.0 - x)
                x, q = phi + half * a2, p_f + half * b2
                d = two_shear * f(x)
                a3, b3 = -x * d, 0.0 if p_atm is None else -(p_atm + q) * d / (1.0 - x)
                x, q = phi + dt * a3, p_f + dt * b3
                if read:
                    segment(t4)
                d = two_shear * f(x)
                a4, b4 = -x * d, 0.0 if p_atm is None else -(p_atm + q) * d / (1.0 - x)
                t, phi = t4, phi + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
                p_f += sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                if not -BOUND_EPS <= phi <= phi_hi:
                    violations.append((step, t, phi))
        except ValueError as exc:
            raise _StepFailed(f"box step {step} (t={t:g}) failed: {exc}") from exc
        return t, phi, p_f

    return advance, segment


def _check_box_start(
    phi: float, p_f: float | None, gas: GasParams | None, phi_name: str, pf_name: str
) -> None:
    """Reject a box state to step from, naming its phi and p_f as given:
    phi outside (0, 1), or a tracked p_f without gas, at or below -p_atm,
    or infinite.  Written so that NaN fails each check."""
    _check_all(f"{phi_name} must lie in (0, 1)", phi, 0.0 < phi < 1.0)
    if p_f is not None:
        if gas is None:
            raise ValueError("tracking p_f requires gas parameters")
        _check_all(f"{pf_name} must exceed -p_atm = {-gas.p_atm}", p_f, p_f > -gas.p_atm)
        _check_finite(pf_name, p_f)


def step_box(
    state: BoxState, model, mat: MaterialParams, forcing: Forcing, dt: float,
    gas: GasParams | None = None,
) -> BoxState:
    """One classical 4-stage Runge-Kutta step of the box dynamics.

    This is a one-step run of a fresh :func:`_box_stepper`'s loop, which
    gives the new time and, as a first step, reads the forcing at its stage
    times (once per span they touch); dt and gas are checked on every call,
    where :func:`run_box` checks them once.  A state that carries a pore
    pressure advances it with ``gas``.

    Raises:
        ValueError: If dt is not positive and finite, or on a ``mat`` or
            state :func:`run_box` would not start from: phi outside (0, 1),
            or p_f tracked without gas parameters, at or below -p_atm, or
            infinite.  Model domain errors at stage states propagate as the
            model raises them.
    """
    _check_amount("dt", dt)
    model = _admit(model, mat)
    _check_box_start(state.phi, state.p_f, gas, "state.phi", "state.p_f")
    tracked = state.p_f is not None
    advance = _box_stepper(model, mat, forcing, dt, gas if tracked else None)[0]
    try:
        t, phi, p_f = advance(state.t, state.phi, state.p_f if tracked else 0.0, 1, 1, [])
    except _StepFailed as exc:
        raise exc.__cause__ from None
    return BoxState(t=t, phi=phi, p_f=p_f if tracked else None)


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


def _step_count(t_end: float, dt: float, dt_from: str = "") -> int:
    """The whole number of steps of dt nearest to t_end, after checking that
    dt and t_end are finite, dt positive and t_end non-negative; t_end / dt
    must be finite and at most 2**53, past which floats are 2 or more apart
    and no longer name a whole number of steps, and a positive t_end must
    round to at least one step.  ``dt_from`` follows dt in the step-count
    errors, to say where a dt the caller did not give came from."""
    _check_amount("dt", dt)
    _check_amount("t_end", t_end, zero_ok=True)
    steps, name = t_end / dt, f"the step count t_end / dt = {t_end} / {dt}{dt_from}"
    _check_finite(name, steps)
    if steps > 2**53:
        raise ValueError(f"{name} must be at most 2**53, got {steps:g}")
    n_steps = int(round(steps))
    if n_steps == 0 and t_end > 0:
        raise ValueError(f"t_end = {t_end} rounds to zero steps of dt = {dt}{dt_from}")
    return n_steps


def run_box(
    model, mat: MaterialParams, forcing: Forcing, phi0: float, t_end: float, dt: float,
    pf0: float | None = None, gas: GasParams | None = None, record_every: int = 1,
) -> BoxResult:
    """Integrate the box and collect diagnostics.

    The run checks dt and gas once and builds one :func:`_box_stepper`,
    which alone reads the forcing, evaluates f and advances time: one call
    of its loop takes each block of ``record_every`` steps, and a row is
    recorded after each block.  A row takes I and div u = 2 |S| f(phi) from
    the segment at its own t (row 0's read is the one step 1 reuses) and
    i_eq(phi) from the model, or stores I = div u = 0 and i_eq NaN outside
    [0, phi_max].  It checks the sign agreement sign(div u) = sign(I - i_eq)
    where |f| >= EQ_ANCHOR_TOL.  ``gas`` is used only when ``pf0`` is given.
    Steps leaving [-1e-9, phi_max + 1e-9] are flagged as violations, never
    clamped.

    Raises:
        ValueError: If dt is not positive and finite, t_end is negative or
            not finite, t_end / dt overflows or exceeds 2**53, t_end > 0 rounds
            to zero steps, record_every is not an integer or < 1, the rows
            would pass :data:`RECORD_MAX_BYTES`, ``mat`` is not the model's
            material, phi0 is outside (0, 1), or pf0 is given
            without gas, at or below -p_atm, or infinite; a row's model error
            as the model raises it.
        RuntimeError: On a model error at a step's stage, naming the step
            and its start time.
    """
    n_steps = _step_count(t_end, dt)
    _check_records(f"n_steps = {n_steps} and record_every = {record_every}", n_steps, record_every)
    model = _admit(model, mat)
    _check_box_start(phi0, pf0, gas, "phi0", "pf0")
    t, phi, p_f = 0.0, phi0, 0.0 if pf0 is None else pf0
    advance, segment = _box_stepper(model, mat, forcing, dt, None if pf0 is None else gas)
    rows: list[tuple[float, ...]] = []  # (t, phi, p_f, div u, I, i_eq)
    violations: list[tuple[int, float, float]] = []
    sign_ok = True

    def record(t: float, phi: float, p_f: float) -> None:
        nonlocal sign_ok
        if not 0.0 <= phi <= mat.phi_max:
            rows.append((t, phi, p_f, 0.0, 0.0, math.nan))
            return
        two_shear, I, f = segment(t)
        f_val = f(phi)
        divu, ieq = two_shear * f_val, model.i_eq(phi)
        rows.append((t, phi, p_f, divu, I, ieq))
        if abs(f_val) >= EQ_ANCHOR_TOL and not math.isnan(ieq):
            sign_ok &= math.copysign(1.0, divu) == math.copysign(1.0, I - ieq)

    record(t, phi, p_f)
    for first in range(1, n_steps + 1, record_every):
        last = min(first + record_every - 1, n_steps)
        try:
            t, phi, p_f = advance(t, phi, p_f, first, last, violations)
        except _StepFailed as exc:
            raise RuntimeError(*exc.args) from exc.__cause__
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


def _per_cell(name: str, values, n_cells: int) -> np.ndarray:
    """A new float array of ``values`` broadcast to one value per cell."""
    arr = np.asarray(values, dtype=float)
    try:
        return np.broadcast_to(arr, (n_cells,)).copy()
    except ValueError:
        raise ValueError(
            f"{name} has shape {arr.shape}, which does not broadcast to {n_cells} cells"
        ) from None


def uniform_column(
    n_cells: int,
    length: float,
    phi: float | Sequence[float],
    pf_init: float | Sequence[float] | Callable[[np.ndarray], np.ndarray] = 0.0,
) -> ColumnState:
    """Build a column state on a uniform grid of cell centres.

    ``phi`` and ``pf_init`` (or what ``pf_init`` returns for the cell
    centres) are one value or one value per cell.

    Raises:
        ValueError: If n_cells is not an integer, is < 2 or makes a
            column that no run could hold within :data:`RECORD_MAX_BYTES`
            (a run of no steps would pass it), length is not positive and
            finite, phi or pf_init does not broadcast to one value per cell,
            or a phi is outside (0, 1) or a p_f is not finite (NaN
            included).
    """
    _check_count("n_cells", n_cells, 2)
    _check_records(f"n_cells = {n_cells}", 0, 1, n_cells)
    _check_amount("column length", length)
    dz = length / n_cells
    z = (np.arange(n_cells) + 0.5) * dz
    phi_arr = _per_cell("phi", phi, n_cells)
    _check_all("column phi profile must lie in (0, 1)", phi_arr, (0.0 < phi_arr) & (phi_arr < 1.0))
    pf = _per_cell("pf_init", pf_init(z) if callable(pf_init) else pf_init, n_cells)
    _check_all("column initial p_f must be finite", pf)
    return ColumnState(z=z, phi_profile=phi_arr, pf_profile=pf, t=0.0)


def _face_kappa(state: ColumnState, gas: GasParams, mat: MaterialParams) -> np.ndarray:
    """Face permeabilities: the harmonic mean of the neighbouring cells'
    kappa, which preserves flux continuity across jumps in kappa.  Raises
    where 2 kappa kappa' overflows, at phi below about 2e-80 for glass beads."""
    kappa = permeability_kappa(gas, mat.d, state.phi_profile)
    with np.errstate(over="ignore"):  # named below
        product = 2.0 * kappa[:-1] * kappa[1:]
    _check_all("the face permeability 2 kappa kappa' overflows at phi", state.phi_profile[:-1],
               np.isfinite(product))
    return product / (kappa[:-1] + kappa[1:])


def column_cfl_dt(state: ColumnState, gas: GasParams, mat: MaterialParams) -> float:
    """Largest explicit step: CFL_SAFETY * min(dz^2 (1-phi) / (p_atm kappa)).

    Raises:
        ValueError: Where phi is outside (0, 1), or so small that kappa or
            p_atm kappa overflows.
    """
    one_m, kappa = 1.0 - state.phi_profile, permeability_kappa(gas, mat.d, state.phi_profile)
    with np.errstate(over="ignore"):  # named below
        rate = gas.p_atm * kappa
    _check_all("p_atm kappa overflows at phi", state.phi_profile, np.isfinite(rate))
    return CFL_SAFETY * float(np.min(state.dz * state.dz * one_m / rate))


def _column_stepper(
    state: ColumnState, gas: GasParams, mat: MaterialParams, dt: float, mode: str
) -> tuple[np.ndarray, np.ndarray, Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]]:
    """Check a run's step once and build what all its steps share.

    Returns the static 1-phi, the face kappa and ``advance(p, diff, out) ->
    out``, one step of length dt on the grid and phi profile of ``state``
    from p_f profile ``p``, written into ``out`` (which may be ``p``) with
    work arrays of the stepper's; ``diff`` is ``p[1:] - p[:-1]``, which the
    explicit step reads and the implicit step ignores.

    Both modes share the face conductance cond = dt p_atm kappa_f / dz^2.
    An explicit step is q = p + (F[1:] - F[:-1]) / (1-phi), with the face
    fluxes F = cond diff between cells and F = 0 at both ends, so cell i
    takes weight w = cond_f / (1-phi_i) from the neighbour j across each
    face f and the rest from p_i.  Under the bound of :func:`column_cfl_dt`,
    dt p_atm kappa / dz^2 <= CFL_SAFETY (1-phi) in every cell, so w <=
    CFL_SAFETY: toward a less permeable j the harmonic mean kappa_f is at
    most kappa_i, and toward a more permeable j, by j's own bound, w <=
    CFL_SAFETY 2 s / (1 + s^3) <= CFL_SAFETY with s = (1-phi_j) / (1-phi_i)
    >= 1, as Carman-Kozeny's kappa_j / kappa_i is then at least s^3.  So
    p_i keeps a weight of at least 1 - 2 CFL_SAFETY = 0.2: the step is a
    convex combination of p, and its max does not rise nor its min fall.

    An implicit step solves (M + dt K) q = M p with M = diag(1-phi) and K
    the zero-flux face Laplacian, so the matrix's off-diagonals are -cond,
    by LAPACK's ``dgtsv`` in ``out``.  The matrix has a positive diagonal,
    non-positive off-diagonals and row sums 1-phi > 0,
    so at the cell i where q is largest (1-phi_i) q_i <= (1-phi_i) q_i +
    dt sum_j w_ij (q_i - q_j) = (1-phi_i) p_i: max q <= max p, and likewise
    min q >= min p (the discrete maximum principle).  A finite profile thus
    stays finite, so once dt and the matrix are checked finite here, the
    solve needs no per-step check; a pivot that rounds to zero (dt decades
    above the explicit bound) raises LinAlgError, a ValueError that names
    dt's ratio to that bound.
    """
    _check_amount("dt", dt)
    if mode not in ("explicit", "implicit"):
        raise ValueError(f"unknown mode {mode!r}")
    one_m, kf, dz = 1.0 - state.phi_profile, _face_kappa(state, gas, mat), state.dz
    cond = dt * gas.p_atm / (dz * dz) * kf
    work = np.empty_like(one_m)
    if mode == "explicit":
        limit = column_cfl_dt(state, gas, mat)
        if dt > limit * (1.0 + 1.0e-12):
            raise ValueError(
                f"explicit step dt={dt:g} above the stability bound {limit:g}; "
                "reduce dt or use implicit mode"
            )
        flux = np.zeros(one_m.size + 1)  # zero flux at both ends
        inner, upper, lower = flux[1:-1], flux[1:], flux[:-1]

        def advance(p: np.ndarray, diff: np.ndarray, out: np.ndarray) -> np.ndarray:
            np.multiply(cond, diff, inner)
            np.subtract(upper, lower, work)
            np.divide(work, one_m, work)
            return np.add(p, work, out)

        return one_m, kf, advance

    from scipy.linalg.lapack import dgtsv

    off = -cond  # off-diagonals of the backward-Euler matrix
    diag = one_m - np.append(off, 0.0) - np.append(0.0, off)
    _check_all(f"implicit step dt={dt:g} overflows the column matrix", diag)
    weight = one_m.sum()

    def solve(p: np.ndarray, diff: np.ndarray, out: np.ndarray) -> np.ndarray:
        # The solve's round-off grows with dt; a uniform shift puts the
        # content sum (1-phi) p_f back at its value before the step.
        content = np.multiply(one_m, p, out).sum()
        if dgtsv(off, diag, off, out, overwrite_b=True)[4]:
            bound = column_cfl_dt(state, gas, mat)
            raise np.linalg.LinAlgError(
                f"singular matrix: implicit step dt={dt:g} is {dt / bound:.3g} times "
                f"column_cfl_dt's bound {bound:g}, so 1-phi rounds off the diagonal"
            )
        out += (content - np.multiply(one_m, out, work).sum()) / weight
        return out

    return one_m, kf, solve


def step_column(
    state: ColumnState,
    gas: GasParams,
    mat: MaterialParams,
    dt: float,
    mode: str = "explicit",
) -> ColumnState:
    """One finite-volume step of the pore-pressure diffusion equation: the
    last state of a one-step :func:`run_column`.

    Zero-flux ends; harmonic-mean face permeabilities.  Explicit mode
    enforces the stability bound of :func:`column_cfl_dt` up front; the
    implicit mode is a backward-Euler tridiagonal solve without a step
    restriction.  Both modes conserve sum (1-phi) p_f dz in exact
    arithmetic (the flux sum telescopes); in floats the implicit step
    shifts the solve's result uniformly to put the content back, so it
    drifts only by rounding (see the module docstring).

    Raises:
        ValueError: What :func:`run_column` raises for one step: on dt not
            positive and finite, unknown mode, an explicit step above the
            stability bound, an implicit dt that overflows the matrix or
            leaves it singular (a LinAlgError), a column whose one-step run
            would pass :data:`RECORD_MAX_BYTES`, or a p_f not finite or at
            or below -p_atm.
    """
    return run_column(state, gas, mat, dt, 1, mode).history[-1]


def gas_content(state: ColumnState) -> float:
    """Discrete gas content sum (1-phi) p_f dz, conserved by the stepper."""
    return float(np.sum((1.0 - state.phi_profile) * state.pf_profile) * state.dz)


def _ledger_sums(p: np.ndarray, diff: np.ndarray, dz: float, gas: GasParams,
                 one_m: np.ndarray, kf: np.ndarray, work: np.ndarray, first: int = 0):
    """The gas content sum (1-phi) p_f dz, E1 = sum (1-phi) H(p_f) dz with the
    ideal-gas H that ``gas._enthalpy_into`` writes, the one behind
    :func:`gas.enthalpy_ideal`, and D = sum over faces of kappa
    (dp_f/dz)^2 dz, from the static 1-phi and face kappa and ``diff =
    p[..., 1:] - p[..., :-1]``.  Each sums over the last axis, so one profile
    gives three numbers and a stack of profiles gives one per row.

    ``work`` is a (2, rows, n) array with at least p's rows, which the sums
    write into in place of temporaries, in the order of operations of the
    expressions they replace, so each sum keeps its bits.  A p_f at or below
    -p_atm (NaN included) raises as ``enthalpy_ideal`` does, its index offset
    by ``first``, the first row's index in the stack that p is a block of."""
    x, y = (w.ravel()[:p.size].reshape(p.shape) for w in work)
    p_atm = gas.p_atm
    if not p.min() > -p_atm:
        _check_all(f"p_f must exceed -p_atm = {-p_atm}", p, p > -p_atm, first)
    content = np.multiply(one_m, p, y).sum(-1) * dz
    e1 = np.multiply(one_m, _enthalpy_into(p, p_atm, x, y), y).sum(-1) * dz
    grad, d = (w.ravel()[:diff.size].reshape(diff.shape) for w in work)
    np.divide(diff, dz, grad)
    np.multiply(kf, grad, d)
    return content, e1, np.multiply(d, grad, d).sum(-1) * dz


@dataclass
class EnergyLedger:
    """Energy budget of a column: times, E1 and the dissipation D.

    ``residuals[k] = |(E1[k+1] - E1[k]) / dt_k + D[k]|`` measures how well
    the discrete trajectory honours dE1/dt = -D; it shrinks linearly with
    the time step.  ``non_increasing`` is the energy rule: E1 never rises
    from one entry to the next.
    """

    t: np.ndarray
    energy: np.ndarray
    dissipation: np.ndarray

    @property
    def residuals(self) -> np.ndarray:
        return np.abs(np.diff(self.energy) / np.diff(self.t) + self.dissipation[:-1])

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals, initial=0.0))

    @property
    def non_increasing(self) -> bool:
        return bool(np.all(np.diff(self.energy) <= 0.0))


@dataclass
class ColumnResult(EnergyLedger):
    """Per-step ledger and gas content of a run, plus downsampled history."""

    history: list[ColumnState]
    content: np.ndarray

    @property
    def max_step_content_drift(self) -> float:
        content = self.content
        return float(np.max(np.abs(np.diff(content)), initial=0.0) / max(abs(content[0]), 1.0))


def _block_rows(n_steps: int, n_cells: int) -> int:
    """Rows of a column run's block: the steps of about
    :data:`_LEDGER_BLOCK_VALUES` p_f values, at least 1 and at most n_steps
    (1 at n_steps = 0)."""
    return max(1, min(n_steps, _LEDGER_BLOCK_VALUES // n_cells))


#: What ``_check_records`` counts for a column run besides its states' p_f
#: and its 4-float ledger a step, all allocated before the first step.  Floats
#: a cell, the larger mode's: the initial state's z and phi, the stepper's
#: 1-phi, face kappa and work array, and implicit mode's two diagonals (the
#: off-diagonal is -cond) and the three that ``dgtsv`` copies them into on
#: each solve; explicit mode holds 7, cond and its flux buffer in their place.
_COLUMN_FLOATS_A_CELL = 10
#: Floats a block value counted beside the block and its differences: the two
#: buffers ``_ledger_sums`` writes into, and about one for the buffers numpy
#: fills while it broadcasts 1-phi or the face kappa over a block's rows
#: (8,192 floats each, ``np.getbufsize()``, and at most one a value).  And
#: floats a block row (its three sums and one being taken).
_SUM_FLOATS_A_VALUE, _SUM_FLOATS_A_ROW = 3, 4
#: Bytes of a kept state besides its p_f: its ColumnState, the view of its row
#: and its time (330 measured); and of a run's Python objects and small
#: arrays (3.5 KB measured).
_STATE_BYTES, _RUN_BYTES = 512, 16_384


def _column_work_bytes(n_steps: int, n_cells: int) -> int:
    """Bytes a column run of ``n_cells`` holds besides its states and its
    ledger: the constants above, and its block of p_f rows and the block of
    their differences, one row more."""
    rows = _block_rows(n_steps, n_cells)
    floats = (_COLUMN_FLOATS_A_CELL * n_cells + (1 + _SUM_FLOATS_A_VALUE) * rows * n_cells
              + (rows + 1) * (n_cells - 1) + _SUM_FLOATS_A_ROW * rows)
    return 8 * floats + _RUN_BYTES


def _check_records(names: str, n_steps: int, record_every: int,
                   n_cells: int | None = None) -> None:
    """The one run-size check: reject record_every below 1 or n_steps below
    0, then a run whose 1 + ceil(n_steps / record_every) box rows, or column
    states of ``n_cells`` with the column's 4-float ledger of n_steps + 1
    entries and the bytes of :func:`_column_work_bytes`, would pass
    :data:`RECORD_MAX_BYTES`, before its first step; ``names`` names the
    settings."""
    _check_count("record_every", record_every, 1)
    _check_count("n_steps", n_steps, 0)
    records = 1 - (-n_steps // record_every)
    if n_cells is None:
        kept, what = 320 * records, f"{records} rows of 320 bytes"
    else:
        each, ledger = 8 * n_cells + _STATE_BYTES, 32 * (n_steps + 1)
        work = _column_work_bytes(n_steps, n_cells)
        kept = each * records + ledger + work
        what = (f"{records} {'states' if records > 1 else 'state'} of {each} bytes and a"
                f" {ledger}-byte ledger, with {work} bytes of work arrays")
    if kept > RECORD_MAX_BYTES:
        raise ValueError(f"{names} would keep {what}, over the 2**30-byte (1 GiB) ceiling")


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
    step, so the result is the run's per-step :class:`EnergyLedger`; states
    are kept each ``record_every`` steps (plus the initial and final ones).
    The ledger, a block of about 16K p_f values, a block of their
    differences, the two buffers the ledger's sums write into and the kept
    profiles, one array with a row for each state after the initial one, are
    allocated before the first step.  The initial profile's sums are taken
    alone, before any step.  One loop serves both modes: each later step
    writes its profile into the block and then takes its differences, which
    the next explicit step reads and the block's ledger sums.  Each block is
    summed at once, bitwise equal to summing each step's profile alone,
    before its kept rows are copied out.  The times are the additions of
    t += dt, in one ``np.add.accumulate``.

    Raises:
        ValueError: First, even when n_steps is 0, if dt is not positive
            and finite, the mode is unknown, an explicit dt is above the
            stability bound, or an implicit dt overflows the matrix; then if
            record_every is not an integer or < 1, n_steps is not an integer
            or < 0, or the states kept, the ledger and the work arrays would
            pass :data:`RECORD_MAX_BYTES`; then, before any step, if an
            initial p_f is not finite (NaN included), or at or below -p_atm
            (each message gives the cell index).  An implicit dt that leaves
            the matrix singular raises a LinAlgError at the first step.
    """
    one_m, kf, advance = _column_stepper(state0, gas, mat, dt, mode)
    p, dz, n = state0.pf_profile, state0.dz, state0.pf_profile.size
    _check_records(f"n_steps = {n_steps}, record_every = {record_every} and {n} cells",
                   n_steps, record_every, n)
    _check_all("initial p_f must be finite", p)
    ledger = np.empty((4, n_steps + 1))
    times, content, energy, dissipation = ledger
    times[0], times[1:] = state0.t, dt
    np.add.accumulate(times, out=times)  # the additions of t += dt, one by one
    rows = _block_rows(n_steps, n)
    block, diffs, work = np.empty((rows, n)), np.empty((rows + 1, n - 1)), np.empty((2, rows, n))
    kept = np.empty((-(-n_steps // record_every), n))
    history, tails, heads = [state0], block[:, 1:], block[:, :-1]

    def record(step: int, profile: np.ndarray) -> None:
        row = kept[len(history) - 1]
        row[...] = profile
        history.append(replace(state0, pf_profile=row, t=float(times[step])))

    np.subtract(p[1:], p[:-1], diffs[0])
    content[0], energy[0], dissipation[0] = _ledger_sums(p, diffs[0], dz, gas, one_m, kf, work)
    for first in range(1, n_steps + 1, rows):
        k = min(rows, n_steps + 1 - first)
        for out, diff, following, tail, head in zip(block[:k], diffs, diffs[1:], tails, heads):
            p = advance(p, diff, out)  # the implicit step ignores diff
            np.subtract(tail, head, following)
        diffs[0] = diffs[k]
        sums = _ledger_sums(block[:k], diffs[1:k + 1], dz, gas, one_m, kf, work)
        content[first:first + k], energy[first:first + k], dissipation[first:first + k] = sums
        for r in range(-first % record_every, k, record_every):
            record(first + r, block[r])
        if first + k > n_steps and n_steps % record_every:
            record(n_steps, p)
    return ColumnResult(times, energy, dissipation, history, content)


def energy_ledger(
    history: Sequence[ColumnState], gas: GasParams, mat: MaterialParams
) -> EnergyLedger:
    """Build the E1 / dissipation ledger from a sequence of column states.

    The profiles are summed in blocks of about :data:`_LEDGER_BLOCK_VALUES`
    p_f values, as ``run_column`` sums its steps, so the ledger holds one
    block and its buffers besides the history, whatever its length.

    Raises:
        ValueError: If there are fewer than two states, the states do not
            all share the grid and phi profile of the first, the times do not
            strictly increase, or a p_f is at or below -p_atm (the message
            gives its (state, cell) index); all before any sum but the last.
    """
    if len(history) < 2:
        raise ValueError("need at least two states for a ledger")
    first = history[0]
    if not all(s.dz == first.dz and np.array_equal(s.phi_profile, first.phi_profile)
               for s in history[1:]):
        raise ValueError("history states must share the grid and phi profile of the first")
    t = np.array([s.t for s in history])
    if np.any(np.diff(t) <= 0):
        raise ValueError("history times must be strictly increasing")
    one_m, kf, n = 1.0 - first.phi_profile, _face_kappa(first, gas, mat), first.pf_profile.size
    rows = _block_rows(len(history), n)
    block, diffs, work = np.empty((rows, n)), np.empty((rows, n - 1)), np.empty((2, rows, n))
    energy, dissipation = np.empty((2, len(history)))
    for start in range(0, len(history), rows):
        states = history[start:start + rows]
        k = len(states)
        p = np.stack([s.pf_profile for s in states], out=block[:k])
        np.subtract(p[:, 1:], p[:, :-1], diffs[:k])
        _, energy[start:start + k], dissipation[start:start + k] = _ledger_sums(
            p, diffs[:k], first.dz, gas, one_m, kf, work, start)
    return EnergyLedger(t, energy, dissipation)
