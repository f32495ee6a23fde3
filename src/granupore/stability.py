"""Frozen-coefficient stability machinery for the fluidized model.

Linearising the pore-pressure equation about a uniform state phi0 gives a
heat kernel with diffusivity ``c = p_atm kappa(phi0) / (1 - phi0)``.  In
the frozen-coefficient eigenvalue problem the pore pressure appends one row
and one column to the granular symbol N:

        M = [ N | i xi (momentum rows) ]
            [ 0 |      c |xi|^2        ]

M is block upper-triangular, so spectrum(M) = spectrum(N) + {c |xi|^2}:
the gas coupling adds a single non-negative real eigenvalue and cannot
degrade the granular spectrum.  Combined with the condition checks of
:mod:`granupore.conditions` (which certify the sign structure of N's
spectrum), this yields the certification logic of :func:`classify`.

N itself belongs to the gas-free granular model and is treated as
caller-supplied data; the shipped default is a diagnostic diagonal matrix,
enough to exercise the spectral-union property.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .conditions import ConditionReport, GridSpec, standard_grid, sweep
from .gas import permeability_kappa
from .materials import GasParams, _check_all

__all__ = [
    "pore_diffusivity",
    "ExtendedSymbol",
    "assemble_extended_symbol",
    "extended_spectrum_property",
    "spectral_union_matches",
    "WellPosednessVerdict",
    "classify",
]

#: Conditions gating the certified-stable verdict.
GATE_CONDITIONS = ("C1", "C2", "C3")


def pore_diffusivity(phi0: float, gas: GasParams, d: float) -> float:
    """Pore-pressure diffusivity c = p_atm kappa(phi0) / (1 - phi0) (m2/s).

    Scales as d^2 through the permeability; strictly positive on (0, 1).
    """
    _check_all("pore diffusivity requires 0 < phi0 < 1", phi0, 0.0 < phi0 < 1.0)
    return gas.p_atm * permeability_kappa(gas, d, phi0) / (1.0 - phi0)


@dataclass(frozen=True)
class ExtendedSymbol:
    """Assembled (k+1) x (k+1) symbol with the pore-pressure block and its sorted spectra."""

    N: np.ndarray
    xi: np.ndarray
    c: float
    momentum_rows: tuple[int, ...]
    M: np.ndarray

    @property
    def added_eigenvalue(self) -> float:
        return self.c * float(self.xi @ self.xi)

    @cached_property
    def spectrum_N(self) -> np.ndarray:
        return np.sort_complex(np.linalg.eigvals(self.N))

    @cached_property
    def spectrum_M(self) -> np.ndarray:
        return np.sort_complex(np.linalg.eigvals(self.M))


def assemble_extended_symbol(
    N, xi, momentum_rows, c: float
) -> ExtendedSymbol:
    """Append the pore-pressure row/column to a granular symbol N.

    The final column carries i*xi_j in the j-th listed momentum row and
    zeros elsewhere; the final row is (0, ..., 0, c |xi|^2).  The result is
    block upper-triangular by construction.

    Args:
        N: k x k granular block (real or complex).
        xi: Wavevector (1/m).
        momentum_rows: Row indices of N holding the momentum equations, in
            component order; at most min(k, len(xi)) of them.
        c: Pore diffusivity (m2/s).

    Raises:
        ValueError: On a non-square N or inconsistent momentum rows.
    """
    N = np.asarray(N, dtype=complex)
    xi = np.asarray(xi, dtype=float).ravel()
    rows = tuple(int(r) for r in momentum_rows)
    if N.ndim != 2 or N.shape[0] != N.shape[1]:
        raise ValueError(f"N must be square, got shape {N.shape}")
    k = N.shape[0]
    if len(set(rows)) != len(rows):
        raise ValueError("momentum rows must be distinct")
    if len(rows) > min(k, xi.size):
        raise ValueError(
            f"{len(rows)} momentum rows exceed min(k={k}, dim={xi.size})"
        )
    if any(not 0 <= r < k for r in rows):
        raise ValueError(f"momentum rows {rows} out of range for k={k}")
    M = np.zeros((k + 1, k + 1), dtype=complex)
    M[:k, :k] = N
    for j, r in enumerate(rows):
        M[r, k] = 1j * xi[j]
    M[k, k] = c * float(xi @ xi)
    return ExtendedSymbol(N=N, xi=xi, c=c, momentum_rows=rows, M=M)


def extended_spectrum_property(sym: ExtendedSymbol, tol: float = 1.0e-8) -> bool:
    """Check that the gas coupling never drags the spectrum down.

    Verifies min Re spectrum(M) >= min(min Re spectrum(N), 0) - tol and that
    the appended eigenvalue c |xi|^2 is real and non-negative.
    """
    floor = min(float(np.min(sym.spectrum_N.real)), 0.0)
    return bool(np.min(sym.spectrum_M.real) >= floor - tol) and sym.added_eigenvalue >= 0.0


def spectral_union_matches(sym: ExtendedSymbol, tol: float = 1.0e-8) -> bool:
    """Check spectrum(M) = spectrum(N) union {c |xi|^2} as multisets."""
    expected = np.sort_complex(np.append(sym.spectrum_N, sym.added_eigenvalue + 0.0j))
    return bool(np.max(np.abs(sym.spectrum_M - expected)) <= tol)


@dataclass(frozen=True)
class WellPosednessVerdict:
    """Outcome of a grid certification.

    ``certified-stable`` requires every gated condition (C1, C2, C3) to pass
    at every grid point.  ``conditions-violated`` lists the failing ones.
    ``indeterminate`` marks grids with skipped (inadmissible) points and no
    observed violation.  A violated condition never claims instability:
    the conditions are sufficient, not necessary.
    """

    model_id: str
    report: ConditionReport
    verdict: str
    failing: tuple[str, ...] = ()


def classify(model, grid: GridSpec | None = None, model_id: str = "") -> WellPosednessVerdict:
    """Sweep the grid and certify the model's stability conditions."""
    grid = grid if grid is not None else standard_grid()
    report = sweep(model, grid)
    failing = tuple(c for c in GATE_CONDITIONS if not report.summaries[c].all_pass)
    if failing:
        verdict = "conditions-violated"
    elif report.skipped:
        verdict = "indeterminate"
    else:
        verdict = "certified-stable"
    return WellPosednessVerdict(
        model_id=model_id or type(model).__name__,
        report=report,
        verdict=verdict,
        failing=failing,
    )
