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
central differences as the fallback (``rheology._slopes``), so the checker
works equally for closed-form, quadrature-derived and tabulated models.

At one (phi, p, I) a sweep evaluates Z, f, dZ/dI, df/dI and df/dp once
each and the checks share them.  Where the model raises, a sweep skips the
point with the first error's message, so the first reads keep one order: C1
dZ/dI, df/dI, Z, f; C2 dZ/dI, Z; C3 df/dp, df/dI; the gap Z, f; the
equilibrium signs last, once per (phi, p).
"""

from __future__ import annotations

import operator
from collections import namedtuple
from dataclasses import dataclass, field
from typing import TextIO

import numpy as np

from .gas import permeability_kappa
from .materials import FlowState, GasParams, MaterialParams, inertial_number
from .rheology import _slopes

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
    "C2": _Rule("c2_value", lambda v: v >= C2_TOL, lambda v: -v),
    "C3": _Rule("c3_value", lambda v: v < C3_STRICT, lambda v: v),
    "dissipation": _Rule("dissipation_gap", lambda v: v >= DISSIPATION_TOL, lambda v: -v),
    "equilibrium": _Rule("eq_sign_ok", bool, lambda ok: float(not ok)),
}
CONDITIONS = tuple(_RULES)


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
    dZ_dI, df_dI, _ = _slopes(model)
    return _c1(I, dZ_dI(phi, I), df_dI(phi, p, I),
               model.yield_function(phi, I), model.dilatancy(phi, p, I))


def check_c2(model, phi: float, I: float) -> tuple[float, bool]:
    """Value and pass flag of the growth bound Z + I dZ/dI >= 0."""
    value = _c2(I, _slopes(model)[0](phi, I), model.yield_function(phi, I))
    return value, _RULES["C2"].passes(value)


def check_c3(model, phi: float, p: float, I: float) -> tuple[float, bool]:
    """Value and pass flag of the strict pressure-slope condition
    df/dp - (I/(2p)) df/dI < 0."""
    _, df_dI, df_dp = _slopes(model)
    value = _c3(I, p, df_dp(phi, p, I), df_dI(phi, p, I))
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

    ``grad_pf`` may be a scalar or a gradient vector.
    """
    g = np.atleast_1d(np.asarray(grad_pf, dtype=float))
    density = permeability_kappa(gas, mat.d, state.phi) * float(g @ g)
    if state.shear > 0.0:
        I = inertial_number(mat, state.shear, state.p)
        gap, _ = check_dissipation(model, state.phi, state.p, I)
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
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ValueError(f"{name}: ends must be finite, got {lo} and {hi}")
            try:
                operator.index(count)
            except TypeError:
                raise ValueError(f"{name}: count must be an integer, got {count!r}") from None
            if count < 2:
                raise ValueError(f"{name}: need at least 2 points, got {count}")
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


@dataclass(frozen=True)
class PointRecord:
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


@dataclass
class ConditionReport:
    records: list[PointRecord] = field(default_factory=list)
    skipped: list[tuple[tuple[float, float, float], str]] = field(default_factory=list)
    summaries: dict[str, ConditionSummary] = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return bool(self.summaries) and all(
            s.all_pass for s in self.summaries.values()
        ) and not self.skipped

    def failing_conditions(self) -> tuple[str, ...]:
        return tuple(c for c in CONDITIONS if not self.summaries[c].all_pass)

    def summary_text(self) -> str:
        lines = [f"points evaluated: {len(self.records)}, skipped: {len(self.skipped)}"]
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


def sweep(model, grid: GridSpec) -> ConditionReport:
    """Evaluate all five checks at every grid point.

    Points where the model raises a domain error are recorded as skipped
    with the reason rather than aborting: the admissible-region boundary
    (phi -> phi_max with log terms, for instance) is expected to be
    singular.  Ordering is deterministic (phi outer, then I, then p).
    """
    report = ConditionReport()
    Z, f = model.yield_function, model.dilatancy
    dZ_dI, df_dI, df_dp = _slopes(model)
    I_values, p_values = grid.I_values().tolist(), grid.p_values().tolist()
    for phi in grid.phi_values().tolist():
        # The equilibrium signs do not depend on I: one flag or error message per p.
        eq_signs: dict[float, bool | str] = {}
        for I in I_values:
            for p in p_values:
                where = (phi, I, p)
                try:  # first reads in the module docstring's order
                    dz, df = dZ_dI(phi, I), df_dI(phi, p, I)
                    z, fv = Z(phi, I), f(phi, p, I)
                    values = (_c1(I, dz, df, z, fv), _c2(I, dz, z),
                              _c3(I, p, df_dp(phi, p, I), df), _gap(z, fv))
                except ValueError as exc:
                    report.skipped.append((where, str(exc)))
                    continue
                if p not in eq_signs:
                    try:
                        eq_signs[p] = check_equilibrium_signs(model, phi, p)
                    except ValueError as exc:
                        eq_signs[p] = str(exc)
                if isinstance(eq_signs[p], str):
                    report.skipped.append((where, eq_signs[p]))
                else:
                    report.records.append(PointRecord(*where, *values, eq_signs[p]))

    for cond, (name, passes, severity) in _RULES.items():
        failures = [r for r in report.records if not passes(getattr(r, name))]
        if failures:
            worst = max(failures, key=lambda r: severity(getattr(r, name)))
            report.summaries[cond] = ConditionSummary(
                all_pass=False,
                worst_point=(worst.phi, worst.I, worst.p),
                # the equilibrium record holds a flag, not a value
                worst_value=0.0 if cond == "equilibrium" else getattr(worst, name),
                n_failures=len(failures),
            )
        else:
            report.summaries[cond] = ConditionSummary(True, None, None, 0)
    return report


def write_report_csv(report: ConditionReport, out: TextIO) -> None:
    """One row per grid point, stable float formatting."""
    out.write("phi,I,p,c1_residual,c2_value,c3_value,dissipation_gap,eq_sign_ok\n")
    for r in report.records:
        out.write(
            f"{r.phi:.10e},{r.I:.10e},{r.p:.10e},{r.c1_residual:.10e},"
            f"{r.c2_value:.10e},{r.c3_value:.10e},{r.dissipation_gap:.10e},"
            f"{int(r.eq_sign_ok)}\n"
        )
    for point, reason in report.skipped:
        out.write(f"# skipped phi={point[0]},I={point[1]},p={point[2]}: {reason}\n")
