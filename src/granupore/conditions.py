"""Numerical verification of the structural conditions on (Z, f) pairs.

For a model to be dissipative, consistent with critical-state physics and
linearly stable, its yield function Z and dilatancy function f must satisfy

* dissipation:      Z - f >= 0,
* consistency (C1): Z - (I/2) dZ/dI = f + I df/dI,
* growth bound (C2): Z + I dZ/dI >= 0,
* pressure slope (C3): df/dp - (I/(2p)) df/dI < 0 (strict),
* equilibrium signs: f(phi, p, i_eq(phi)) = 0 with f > 0 above and f < 0
  below the equilibrium inertial number.

These are sufficient conditions; a failure pinpoints where a model leaves
the certified regime, it does not by itself prove ill-posedness.
The derivatives are the model's closed-form slopes where it has them, with
central differences as the fallback (``rheology._admit``), so the checker
works equally for closed-form, quadrature-derived and tabulated models.

At one (phi, p, I) a sweep evaluates Z, f, dZ/dI, df/dI and df/dp once
each and the checks share them.  Where the model's f takes no p, as every
catalogue f does (``rheology._ModelBase``), df/dp is 0 and not read, the
other reads and C1, C2 and the gap are made once per (phi, I) and shared by
its p values, and the equilibrium signs once per phi.  Either way each
kept read covers a run of p values (all of them, or its own), and C3,
which divides by p, is computed for every point at once as one array
expression in the scalar formula's operation order.  Where the model
raises a domain or arithmetic error, a sweep skips the point with the first
error's message, so the first reads keep one order: C1 dZ/dI, df/dI, Z, f;
C2 dZ/dI, Z; C3 df/dp where f takes p, then df/dI; the gap Z, f; the
equilibrium signs last, once per (phi, p), or per phi where f takes no p.
``_attempt`` is the one door that turns such an error into a skip.

A model with a row read (``rheology._ModelBase._row``: the closed forms and
their linear combinations) is read a phi row at a time.  Its terms in I
alone are taken once per sweep, one element at a time by the scalar
functions; then, per phi, the row read takes i_eq(phi) once and gives dZ/dI,
df/dI, Z and f over every I, and C1, C2 and the gap are array expressions in
the formulas' operation order.  A row is read one way: whole, where the four
are finite at every I, else point by point by the scalar reads above, as is
every row whose row read or terms in I alone raised and every row of a
model without a row read (a duck pair through ``_Pair``, ``DerivedNumeric``,
``Isochoric``, or a subclass, which inherits none).  Where all four are
finite they are the scalar reads' values, bit for bit, and no scalar read
raises there, so values and skip reasons are as point by point.  A whole
row checks its equilibrium signs once, and is skipped whole where that raises.

A report holds the kept reads' columns and C3 at each point.  ``sweep``
works out each point's read and p index once, and C3's p, the summaries'
values and the worst point take them.  The summaries are array reductions (a
failing flag reads 0.0): a pass mask, a count and the first argmax of the
severity, NaN worst of all.  The report's :class:`PointRecord` rows are made
on first read and kept, each read's float objects repeated over its p values.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from typing import NamedTuple, TextIO

import numpy as np

from .gas import permeability_kappa
from .materials import FlowState, GasParams, MaterialParams, _check_all, _check_count
from .rheology import _admit, _forced

__all__ = [
    "C1_TOL",
    "C2_TOL",
    "C3_STRICT",
    "DISSIPATION_TOL",
    "EQ_ANCHOR_TOL",
    "GridSpec",
    "PointRecord",
    "ConditionSummary",
    "ConditionReport",
    "residual_c1",
    "check_c2",
    "check_c3",
    "check_dissipation",
    "check_equilibrium_signs",
    "dissipation_density",
    "sweep",
    "standard_grid",
    "write_report_csv",
]

#: |C1 residual| below which the consistency equation counts as satisfied.
C1_TOL = 1.0e-5
#: Floating-point slack on the non-strict C2 inequality.
C2_TOL = -1.0e-10
#: C3 is strict: the value must be below this threshold.
C3_STRICT = -1.0e-14
#: Floating-point slack on the non-strict dissipation inequality.
DISSIPATION_TOL = -1.0e-12
#: |f| at the equilibrium anchor.
EQ_ANCHOR_TOL = 1.0e-12

_Rule = namedtuple("_Rule", "field passes severity")
#: Each condition's PointRecord field, pass test and severity (larger is worse).
_RULES = {
    "C1": _Rule("c1_residual", lambda v: abs(v) < C1_TOL, abs),
    "C2": _Rule("c2_value", lambda v: v >= C2_TOL, operator.neg),
    "C3": _Rule("c3_value", lambda v: v < C3_STRICT, operator.pos),
    "dissipation": _Rule("dissipation_gap", lambda v: v >= DISSIPATION_TOL, operator.neg),
    "equilibrium": _Rule("eq_sign_ok", lambda v: v != 0.0, operator.neg),
}
CONDITIONS = tuple(_RULES)
_ROW = ",".join(["%.10e"] * 7 + ["%d"]) + "\n"


# The condition formulas, each written once, with arguments in first-read order.

def _c1(I: float, dz: float, df: float, z: float, f: float) -> float:
    return (z - 0.5 * I * dz) - (f + I * df)


def _c2(I: float, dz: float, z: float) -> float:
    return z + I * dz


def _c3(I: float, p: float, dfp: float, df: float) -> float:
    return dfp - 0.5 * I / p * df


def _gap(z: float, f: float) -> float:
    return z - f


def residual_c1(model, phi: float, p: float, I: float) -> float:
    """Residual of the consistency equation,
    r = (Z - (I/2) dZ/dI) - (f + I df/dI); zero for compliant pairs."""
    model = _admit(model)
    return _c1(I, model.dZ_dI(phi, I), model.df_dI(phi, p, I),
               model.yield_function(phi, I), model.dilatancy(phi, p, I))


def check_c2(model, phi: float, I: float) -> tuple[float, bool]:
    """Value and pass flag of the growth bound Z + I dZ/dI >= 0."""
    model = _admit(model)
    value = _c2(I, model.dZ_dI(phi, I), model.yield_function(phi, I))
    return value, _RULES["C2"].passes(value)


def check_c3(model, phi: float, p: float, I: float) -> tuple[float, bool]:
    """Value and pass flag of the strict pressure-slope condition
    df/dp - (I/(2p)) df/dI < 0."""
    model = _admit(model)
    value = _c3(I, p, model.df_dp(phi, p, I), model.df_dI(phi, p, I))
    return value, _RULES["C3"].passes(value)


def check_dissipation(model, phi: float, p: float, I: float) -> tuple[float, bool]:
    """Gap Z - f and its non-negativity flag."""
    gap = _gap(model.yield_function(phi, I), model.dilatancy(phi, p, I))
    return gap, _RULES["dissipation"].passes(gap)


def check_equilibrium_signs(model, phi: float, p: float) -> bool:
    """Critical-state sign structure of f around the equilibrium.

    Checks f = 0 at I = i_eq(phi), f > 0 at 2 i_eq and f < 0 at i_eq/2.
    At phi = phi_max (i_eq = 0) only one-sided positivity is checkable.
    """
    ieq = model.i_eq(phi)
    if ieq <= 0.0:
        return all(model.dilatancy(phi, p, I) > 0.0 for I in (0.1, 1.0))
    anchored = abs(model.dilatancy(phi, p, ieq)) < EQ_ANCHOR_TOL
    above = model.dilatancy(phi, p, 2.0 * ieq) > 0.0
    below = model.dilatancy(phi, p, 0.5 * ieq) < 0.0
    return anchored and above and below


def dissipation_density(
    model,
    state: FlowState,
    mat: MaterialParams,
    gas: GasParams,
    grad_pf=0.0,
) -> float:
    """Local dissipation rate kappa |grad p_f|^2 + 2 (Z - f) p |S| (W/m3).

    ``grad_pf`` may be a scalar or a gradient vector; ``mat`` is the model's.
    """
    model = _admit(model, mat)
    g = np.atleast_1d(np.asarray(grad_pf, dtype=float))
    density = permeability_kappa(gas, mat.d, state.phi) * float(g @ g)
    two_shear, I, f = _forced(model, mat, state.shear, state.p)
    if two_shear:  # no shear term at rest
        gap = _gap(model.yield_function(state.phi, I), f(state.phi))
        density += 2.0 * gap * state.p * state.shear
    return density


# ----------------------------------------------------------------------
# Grid sweeps
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Cartesian evaluation grid over (phi, I, p).

    Ranges are (lo, hi, count); the inertial-number axis may be log-spaced.
    """

    phi_range: tuple[float, float, int] = (0.40, 0.595, 12)
    I_range: tuple[float, float, int] = (1.0e-2, 10.0, 12)
    p_range: tuple[float, float, int] = (10.0, 1.0e4, 4)
    log_I: bool = True

    def __post_init__(self) -> None:
        for name, (lo, hi, count) in (
            ("phi_range", self.phi_range),
            ("I_range", self.I_range),
            ("p_range", self.p_range),
        ):
            if not lo < hi:
                raise ValueError(f"{name}: need lo < hi, got {lo} >= {hi}")
            _check_all(f"{name}: ends must be finite", (lo, hi))
            _check_count(f"{name}: count", count, 2)
        if self.I_range[0] <= 0:
            raise ValueError("I grid must be strictly positive")
        if self.p_range[0] <= 0:
            raise ValueError("p grid must be strictly positive")

    def phi_values(self) -> np.ndarray:
        lo, hi, n = self.phi_range
        return np.linspace(lo, hi, n)

    def I_values(self) -> np.ndarray:
        lo, hi, n = self.I_range
        return np.geomspace(lo, hi, n) if self.log_I else np.linspace(lo, hi, n)

    def p_values(self) -> np.ndarray:
        lo, hi, n = self.p_range
        return np.linspace(lo, hi, n)


def standard_grid() -> GridSpec:
    """The default certification grid: phi in [0.40, 0.595], I in [1e-2, 10]
    log-spaced, p in [10, 1e4]."""
    return GridSpec()


class PointRecord(NamedTuple):
    phi: float
    I: float
    p: float
    c1_residual: float
    c2_value: float
    c3_value: float
    dissipation_gap: float
    eq_sign_ok: bool


@dataclass(frozen=True)
class ConditionSummary:
    all_pass: bool
    worst_point: tuple[float, float, float] | None
    worst_value: float | None
    n_failures: int


#: A sweep's kept reads, C3 at each point, the p values and each read's width.
_Kept = namedtuple("_Kept", "phi I j c1 c2 gap signs c3 p_values width")


@dataclass
class ConditionReport:
    """Skipped points, summaries and kept reads; ``records`` is made on first read."""

    skipped: list[tuple[tuple[float, float, float], str]] = field(default_factory=list)
    summaries: dict[str, ConditionSummary] = field(default_factory=dict)
    _kept: _Kept = field(default=_Kept(*[()] * 7, np.empty(0), (), 1), repr=False, compare=False)

    @cached_property
    def records(self) -> list[PointRecord]:
        """A PointRecord per point in sweep order, made on first read and then kept."""
        phi, I, j, c1, c2, gap, signs, c3, p_values, width = self._kept
        # each read's objects, repeated over the p values it covers
        phi, I, c1, c2, gap, signs = (chain.from_iterable(map(repeat, c, repeat(width)))
                                      for c in (phi, I, c1, c2, gap, signs))
        p = chain.from_iterable(p_values[i:i + width] for i in j)
        return list(map(tuple.__new__, repeat(PointRecord),
                        zip(phi, I, p, c1, c2, c3.tolist(), gap, signs)))

    @property
    def all_pass(self) -> bool:
        return bool(self.summaries) and all(
            s.all_pass for s in self.summaries.values()
        ) and not self.skipped

    def failing_conditions(self) -> tuple[str, ...]:
        return tuple(c for c in CONDITIONS if not self.summaries[c].all_pass)

    def summary_text(self) -> str:
        lines = [f"points evaluated: {self._kept.c3.size}, skipped: {len(self.skipped)}"]
        for cond in CONDITIONS:
            s = self.summaries[cond]
            status = "pass" if s.all_pass else f"FAIL ({s.n_failures} points)"
            line = f"  {cond:<12} {status}"
            if not s.all_pass and s.worst_point is not None:
                phi, I, p = s.worst_point
                line += (
                    f"; worst at phi={phi:.6g}, I={I:.6g}, p={p:.6g}"
                    f" with value {s.worst_value:.6e}"
                )
            lines.append(line)
        return "\n".join(lines)


def _skip_reason(exc: Exception) -> str:
    """A ValueError's message; an arithmetic error's also names its type."""
    return str(exc) if isinstance(exc, ValueError) else f"{type(exc).__name__}: {exc}"


def _attempt(read, *args):
    """``read(*args)``, or the skip reason of the domain or arithmetic error
    it raises: the one place a model error becomes a skipped point."""
    try:
        return read(*args)
    except (ValueError, ArithmeticError) as exc:
        return _skip_reason(exc)


def _shared_reads(model, phi: float, p: float, I: float) -> tuple[float, ...]:
    """C1, C2, df/dp, df/dI and the gap at one point, read in the module
    docstring's order.  Where f takes no p, df/dp is 0 unread: f, read just
    before, raises wherever it would."""
    dz, df = model.dZ_dI(phi, I), model.df_dI(phi, p, I)
    z, fv = model.yield_function(phi, I), model.dilatancy(phi, p, I)
    c1, c2 = _c1(I, dz, df, z, fv), _c2(I, dz, z)
    dfp = model.df_dp(phi, p, I) if model._f_takes_p else 0.0
    return c1, c2, dfp, df, _gap(z, fv)


def _row_reads(model, phi: float, I: np.ndarray, terms) -> list[list] | None:
    """The row read's C1, C2, df/dI and gap at each I, as lists, in the
    condition formulas' operation order; None where the row read raises or
    one of dZ/dI, df/dI, Z and f is not finite at some I."""
    with np.errstate(all="ignore"):  # such a row is read again, point by point
        row = _attempt(model._row, phi, I, terms)
        if isinstance(row, str) or not all(np.isfinite(v).all() for v in row):
            return None
        dz, df, z, f = row  # df and f take I, so each of these is an array
        reads = _c1(I, dz, df, z, f), _c2(I, dz, z), df, _gap(z, f)
    return [v.tolist() for v in reads]


def _kept_reads(model, phi: float, I_values: list[float], p_values: list[float], width: int,
                row: list[list] | None, skipped: list) -> tuple:
    """One phi's kept reads as the columns phi, I, j, C1, C2, df/dp, df/dI,
    gap and equilibrium signs, with its skipped points appended to
    ``skipped`` in (I, p) order.  A row read is kept whole after one
    equilibrium check, or skipped whole with that check's reason; without
    one, every point takes the scalar reads."""
    if row is not None:
        signs = _attempt(check_equilibrium_signs, model, phi, p_values[0])
        if isinstance(signs, str):
            skipped.extend(((phi, I, p), signs) for I in I_values for p in p_values)
            return ()
        (c1, c2, df, gap), n = row, len(I_values)
        return (repeat(phi, n), I_values, repeat(0, n), c1, c2, repeat(0.0, n), df, gap,
                repeat(signs, n))
    eq_signs: dict[int, bool | str] = {}
    kept = []
    for I in I_values:
        for j in range(0, len(p_values), width):
            point = _attempt(_shared_reads, model, phi, p_values[j], I)
            if not isinstance(point, str):
                if j not in eq_signs:
                    eq_signs[j] = _attempt(check_equilibrium_signs, model, phi, p_values[j])
                if not isinstance(signs := eq_signs[j], str):
                    kept.append((phi, I, j, *point, signs))
                    continue
                point = signs
            skipped.extend(((phi, I, p), point) for p in p_values[j:j + width])
    return tuple(zip(*kept))


def sweep(model, grid: GridSpec) -> ConditionReport:
    """Evaluate all five checks at every grid point.

    Points where the model raises a domain or arithmetic error are recorded
    as skipped with the reason rather than aborting: the admissible-region
    boundary (phi -> phi_max with log terms, for instance) is expected to be
    singular.  Ordering is deterministic (phi outer, then I, then p).  Where
    the model's f takes no p, each (phi, I) is read once and each phi's
    equilibrium signs are checked once, whatever the number of p values.
    """
    model = _admit(model)
    I_array = grid.I_values()
    I_values, p_values = I_array.tolist(), grid.p_values().tolist()
    # The read at p_values[j] covers p_values[j:j + width]: every p where f
    # takes no p, else its own.  So the equilibrium signs, one flag or error
    # message per j, are checked once per phi where f takes no p.
    width = 1 if model._f_takes_p else len(p_values)
    # Terms in I alone that raise leave every point to the scalar reads.
    terms = "no row read" if model._row is None else _attempt(model._row_terms, I_values)
    kept, skipped = [[] for _ in range(9)], []  # phi, I, j, C1, C2, df/dp, df/dI, gap, signs
    for phi in grid.phi_values().tolist():
        row = None if isinstance(terms, str) else _row_reads(model, phi, I_array, terms)
        for column, values in zip(kept, _kept_reads(
                model, phi, I_values, p_values, width, row, skipped)):
            column.extend(values)

    read = np.repeat(np.arange(len(kept[2])), width)  # each point's read and p index
    k = np.array(kept[2], dtype=int)[read] + np.tile(np.arange(width), len(kept[2]))
    I, c1, c2, dfp, df, gap, signs = (np.array(c, dtype=float) for c in kept[1:2] + kept[3:])
    with np.errstate(all="ignore"):  # inf and NaN as float arithmetic gives them
        c3 = _c3(I[read], np.array(p_values)[k], dfp[read], df[read])
    per_read = dict(c1_residual=c1, c2_value=c2, dissipation_gap=gap, eq_sign_ok=signs)
    report = ConditionReport(skipped, {}, _Kept(*kept[:5], *kept[7:], c3, p_values, width))
    for cond, (name, passes, severity) in _RULES.items():
        values = c3 if name == "c3_value" else per_read[name][read]  # one per point
        failed = np.flatnonzero(~passes(values))
        summary = ConditionSummary(True, None, None, 0)
        if failed.size:  # argmax takes the first of equally bad points
            i = failed[np.argmax(severity(values[failed]))]
            where = kept[0][read[i]], kept[1][read[i]], p_values[k[i]]
            summary = ConditionSummary(False, where, float(values[i]), failed.size)
        report.summaries[cond] = summary
    return report


def write_report_csv(report: ConditionReport, out: TextIO) -> None:
    """One row per grid point, stable float formatting."""
    out.write(",".join(PointRecord._fields) + "\n")
    out.writelines(_ROW % r for r in report.records)
    for point, reason in report.skipped:
        out.write(f"# skipped phi={point[0]},I={point[1]},p={point[2]}: {reason}\n")
