"""Command-line interface.

Subcommands
-----------
``table1``          closed-form vs quadrature-derived dilatancy for power-law
                    yield functions, with dissipation contributions
``check``           run the five structural checks for a model over a grid
``classify``        certify C1/C2/C3 and print the stability verdict
``derive``          compare closed-form f against the quadrature derivation
``simulate-box``    homogeneous box under prescribed or random forcing
``simulate-column`` pore-pressure diffusion in a static column
``symbol``          assemble the extended spectral symbol from a config file

Exit codes: 0 all checks pass, 2 a checked condition fails, 1 on errors
(bad flags, malformed config, I/O).  Outputs are plain CSV with a ``#``
provenance header embedding the resolved configuration; runs are
deterministic for a fixed config and seed.  Each subcommand hands its
provenance and its rows to ``_write_csv``, the one place that writes
``--out``; a run with nowhere to write formats no row.  Only implicit
``simulate-column`` loads scipy, and it loads it on first use; ``table1`` and
``derive`` integrate with numpy alone.  No subcommand reads a gas law (in the
library, ``state_law_from_csv`` and ``enthalpy_from_statelaw`` load scipy for
their splines).

``simulate-box`` and ``simulate-column`` also take their run settings from a
``--scenario`` key = value file.  Keys are the option names with underscores;
argparse checks each value as it checks the flag, and flags given on the
command line win.  A key that is not a run setting is reported with its line.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import nullcontext
from itertools import chain
from typing import Callable, Iterable, Sequence, TextIO

import numpy as np

from . import __version__
from .conditions import GridSpec, dissipation_density, standard_grid, sweep, write_report_csv
from .config import (
    ConfigError, load_parameters, parameters_text, read_kv_file, read_symbol_config
)
from .gas import permeability_kappa
from .materials import (
    EquilibriumLaw, FlowState, GasParams, MaterialParams, _check_all, _check_amount, _check_finite,
)
from .rheology import MODEL_IDS, DerivedNumeric, PowerLaw, build_model, derive_f_numeric
from .simulate import (
    _check_records,
    _face_kappa,
    _step_count,
    column_cfl_dt,
    constant_forcing,
    random_forcing,
    run_box,
    run_column,
    uniform_column,
)
from .stability import (
    assemble_extended_symbol,
    classify,
    extended_spectrum_property,
    spectral_union_matches,
)

TABLE1_EXPONENTS = (0.0, 1.0, 2.0, 3.0, -0.5)
DERIVE_TOL = 1.0e-8
#: simulate-box constant forcing when --shear (and --I) or --p is not given.
BOX_SHEAR = 100.0
BOX_P = 1000.0


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1 (2 means a failed
    physical check here)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _grid(args) -> GridSpec:
    """``--grid phi=lo:hi:n,I=lo:hi:n[:log],p=lo:hi:n`` over the standard grid."""
    base = standard_grid()
    if not args.grid:
        return base
    ranges: dict[str, tuple] = {}
    log_I = True
    for chunk in args.grid.split(","):
        if "=" not in chunk:
            raise ConfigError(f"grid chunk {chunk!r} is not name=lo:hi:n")
        name, rest = chunk.split("=", 1)
        parts = rest.split(":")
        name = name.strip()
        if name not in ("phi", "I", "p"):
            raise ConfigError(f"unknown grid axis {name!r}")
        if name in ranges:
            raise ConfigError(f"grid axis {name!r} given twice")
        if name == "I" and len(parts) == 4:
            if parts[3] not in ("log", "lin"):
                raise ConfigError(f"bad I-axis spacing {parts[3]!r}")
            log_I = parts[3] == "log"
            parts = parts[:3]
        if len(parts) != 3:
            raise ConfigError(f"grid axis {name!r} needs lo:hi:n")
        try:
            lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ConfigError(f"cannot parse grid axis {chunk!r}") from None
        ranges[name] = (lo, hi, n)
    return GridSpec(
        phi_range=ranges.get("phi", base.phi_range),
        I_range=ranges.get("I", base.I_range),
        p_range=ranges.get("p", base.p_range),
        log_I=log_I,
    )


def _setup(args) -> tuple[MaterialParams, GasParams, object]:
    """The material, the gas and the model (None without ``--model``)."""
    mat, gas = load_parameters(args.config) if args.config else (MaterialParams(), GasParams())
    if "model" not in args:
        return mat, gas, None
    model = build_model(
        args.model, mat, EquilibriumLaw(), rr_gain=args.rr_gain, z_override=args.z_override
    )
    if args.rr_gain is not None and args.model != "roux-radjai":
        raise ConfigError(f"--rr-gain only applies to --model roux-radjai, not {args.model!r}")
    return mat, gas, model


def _provenance(args, mat: MaterialParams, gas: GasParams) -> str:
    """The resolved parameters and run settings as ``#`` lines."""
    lines = parameters_text(mat, gas).splitlines() + [
        f"{name} = {value}" for name in ("model", "grid", "seed", "mode")
        if (value := vars(args).get(name)) is not None
    ]
    return "".join(f"# {line}\n" for line in lines)


def _write_csv(args, provenance: str, rows: Iterable[str] | Callable[[TextIO], None],
               stdout: bool = False) -> None:
    """Write the title line, ``provenance`` and ``rows`` to ``--out``; without
    ``--out``, to stdout if ``stdout`` is set, and otherwise nothing.

    The only writer of ``--out``.  ``rows`` is an iterable of CSV lines,
    written as it yields them (a generator formats each as it is written and
    never holds them all), or a function that writes them to the open file;
    a run with nowhere to write formats none.  Formatting a row cannot fail;
    an I/O error midway (a full disk, say) leaves the lines written before it.
    """
    if not args.out and not stdout:
        return
    with open(args.out, "w") if args.out else nullcontext(sys.stdout) as out:
        out.write(f"# granupore {__version__} :: {args.command}\n{provenance}")
        if callable(rows):
            rows(out)
        else:
            out.writelines(rows)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_table1(args) -> int:
    mat, gas, _ = _setup(args)
    law = EquilibriumLaw()
    phi, p, I = 0.5, 1000.0, 1.0  # sample state with i_eq(phi) = 0.5
    shear = I * math.sqrt(p / mat.rho_s) / mat.d
    rows, worst = ["n,Z_form,phi,I,i_eq,f_closed,f_numeric,abs_diff,dissipation\n"], 0.0
    for n in TABLE1_EXPONENTS:
        model = PowerLaw(mat, law, n=n)
        f_closed = model.dilatancy(phi, p, I)
        f_numeric = derive_f_numeric(model.yield_function, law, mat, phi, p, I)
        diff = abs(f_closed - f_numeric)
        worst = max(worst, diff)
        dissipation = dissipation_density(model, FlowState(phi, p, shear), mat, gas)
        rows.append(
            f"{n:g},I^{n:g},{phi:.10e},{I:.10e},{model.i_eq(phi):.10e},"
            f"{f_closed:.10e},{f_numeric:.10e},{diff:.3e},{dissipation:.10e}\n"
        )
    _write_csv(args, _provenance(args, mat, gas), rows, stdout=True)
    if worst > DERIVE_TOL:
        print(f"closed-form vs derived mismatch {worst:.3e}", file=sys.stderr)
        return 2
    return 0


def cmd_check(args) -> int:
    mat, gas, model = _setup(args)
    report = sweep(model, _grid(args))
    _write_csv(args, _provenance(args, mat, gas), lambda out: write_report_csv(report, out))
    print(f"model: {args.model}")
    print(report.summary_text())
    return 0 if report.all_pass else 2


def cmd_classify(args) -> int:
    mat, gas, model = _setup(args)
    verdict = classify(model, _grid(args), model_id=args.model)
    _write_csv(args, _provenance(args, mat, gas), lambda out: write_report_csv(verdict.report, out))
    print(f"model: {verdict.model_id}")
    print(f"verdict: {verdict.verdict}")
    if verdict.failing:
        print(f"failing conditions: {', '.join(verdict.failing)}")
    print(verdict.report.summary_text())
    return 0 if verdict.verdict == "certified-stable" else 2


def cmd_derive(args) -> int:
    mat, gas, model = _setup(args)
    grid = _grid(args)
    p = grid.p_values()[0]
    derived = DerivedNumeric(model.mat, model.law, Z=model.yield_function)
    rows, worst = ["phi,I,p,f_closed,f_numeric,abs_diff\n"], 0.0
    for phi in grid.phi_values():
        for I in grid.I_values():
            try:
                f_closed, f_numeric = model.dilatancy(phi, p, I), derived.dilatancy(phi, p, I)
            except (ValueError, RuntimeError) as exc:
                raise type(exc)(f"phi={phi}, I={I}: {exc}") from exc
            diff = abs(f_closed - f_numeric)
            worst = max(worst, diff)
            rows.append(
                f"{phi:.10e},{I:.10e},{p:.10e},"
                f"{f_closed:.10e},{f_numeric:.10e},{diff:.3e}\n"
            )
    _write_csv(args, _provenance(args, mat, gas), rows, stdout=True)
    print(f"max |closed - derived| = {worst:.3e} (tolerance {DERIVE_TOL:g})")
    return 0 if worst <= DERIVE_TOL else 2


def cmd_simulate_box(args) -> int:
    mat, gas, model = _setup(args)
    if args.forcing == "random":
        for flag in ("I", "shear", "p"):
            if getattr(args, flag) is not None:
                raise ConfigError(f"--{flag} sets constant forcing; --forcing random draws its own")
        rng = np.random.default_rng(args.seed)
        forcing = random_forcing(rng, args.t_end)
    else:
        p = BOX_P if args.p is None else args.p
        if args.I is not None:  # a p <= 0, NaN or inf is named by constant_forcing
            _check_amount("--I", args.I, zero_ok=True)
            shear = args.I * math.sqrt(p / mat.rho_s) / mat.d if 0 < p < math.inf else 0.0
            _check_finite(f"the shear from --I={args.I} and --p={p}", shear)
        else:
            shear = BOX_SHEAR if args.shear is None else args.shear
        forcing = constant_forcing(shear, p)
    n_steps = _step_count(args.t_end, args.dt)
    _check_records(f"--t-end / --dt = {args.t_end} / {args.dt} = {n_steps} steps and"
                   f" --record-every={args.record_every}", n_steps, args.record_every)
    result = run_box(
        model,
        mat,
        forcing,
        phi0=args.phi0,
        t_end=args.t_end,
        dt=args.dt,
        pf0=args.pf0,
        gas=gas,
        record_every=args.record_every,
    )
    pf = result.p_f if result.p_f is not None else np.full_like(result.t, np.nan)
    _write_csv(args, _provenance(args, mat, gas), chain(["t,phi,pf,div_u,I,i_eq\n"], (
        f"{result.t[k]:.10e},{result.phi[k]:.10e},{pf[k]:.10e},"
        f"{result.div_u[k]:.10e},{result.inertial[k]:.10e},{result.i_eq[k]:.10e}\n"
        for k in range(result.t.size)
    )))
    print(f"final phi = {result.phi[-1]:.6f}")
    print(f"phi range seen: [{result.phi_min:.6f}, {result.phi_max_seen:.6f}]")
    print(f"bound violations: {len(result.violations)}")
    print(f"divergence sign agreement: {'yes' if result.sign_agreement else 'NO'}")
    return 0 if not result.violations and result.sign_agreement else 2


def cmd_simulate_column(args) -> int:
    mat, gas, _ = _setup(args)

    def pf_init(z: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite p_f is named below
            pf = args.pf_mean + args.pf_amplitude * np.cos(np.pi * z / args.length)
        _check_all(f"the initial p_f from --pf-mean={args.pf_mean}, --pf-amplitude="
                   f"{args.pf_amplitude} and --length={args.length} must be finite", pf)
        return pf

    _check_records(f"--cells={args.cells}", 0, 1, args.cells)
    state0 = uniform_column(args.cells, args.length, args.phi, pf_init)
    try:  # the permeability's errors name its phi, not the flag
        permeability_kappa(gas, mat.d, args.phi)
        _face_kappa(state0, gas, mat)
    except ValueError as exc:
        raise ValueError(f"--phi={args.phi}: {exc}") from None
    lowest = float(np.min(state0.pf_profile))
    if not lowest > -gas.p_atm:
        raise ValueError(
            f"--pf-mean {args.pf_mean} and --pf-amplitude {args.pf_amplitude} give an initial"
            f" p_f as low as {lowest}; it must exceed -p_atm = {-gas.p_atm}"
        )
    dt, dt_from = args.dt, ""
    if dt is None:
        dt = column_cfl_dt(state0, gas, mat)
        dt_from = (f" derived from --length={args.length}, --cells={args.cells} and"
                   f" --phi={args.phi} (no --dt given)")
        _check_amount(f"the step{dt_from}", dt)
    n_steps = _step_count(args.t_end, dt, dt_from)
    _check_records(f"--t-end / {'dt' if dt_from else '--dt'} = {args.t_end} / {dt}{dt_from} ="
                   f" {n_steps} steps, --record-every={args.record_every} and"
                   f" --cells={args.cells}", n_steps, args.record_every, args.cells)
    result = run_column(
        state0, gas, mat, dt, n_steps, mode=args.mode, record_every=args.record_every
    )
    _write_csv(args, _provenance(args, mat, gas), chain(["t,z,pf\n"], (
        f"{state.t:.10e},{z:.10e},{pf:.10e}\n"
        for state in result.history
        for z, pf in zip(state.z, state.pf_profile)
    )))
    energy_ok = result.non_increasing
    print(f"steps: {n_steps}, dt = {dt:.6e} s ({args.mode})")
    print(f"gas-content drift per step: {result.max_step_content_drift:.3e}")
    print(f"energy non-increasing: {'yes' if energy_ok else 'NO'}")
    print(f"final energy: {result.energy[-1]:.6f} J/m2")
    ok = energy_ok and result.max_step_content_drift < 1.0e-12
    return 0 if ok else 2


def cmd_symbol(args) -> int:
    data = read_symbol_config(args.config)
    sym = assemble_extended_symbol(data["N"], data["xi"], data["momentum_rows"], data["c"])
    union_ok = spectral_union_matches(sym)
    floor_ok = extended_spectrum_property(sym)
    print(f"spectrum(N): {sym.spectrum_N}")
    print(f"spectrum(M): {sym.spectrum_M}")
    print(f"added eigenvalue c|xi|^2 = {sym.added_eigenvalue:.10e}")
    print(f"spectral union holds: {'yes' if union_ok else 'NO'}")
    print(f"no spectral degradation: {'yes' if floor_ok else 'NO'}")
    provenance = (
        f"# xi = {list(map(float, data['xi']))}\n"
        f"# momentum_rows = {list(data['momentum_rows'])}\n"
        f"# c = {data['c']!r}\n"
    )
    _write_csv(args, provenance, chain(["matrix,re,im\n"], (
        f"{name},{ev.real:.10e},{ev.imag:.10e}\n"
        for name, eigs in (("N", sym.spectrum_N), ("M", sym.spectrum_M))
        for ev in eigs
    )))
    return 0 if union_ok and floor_ok else 2


# ----------------------------------------------------------------------
# Parser wiring
# ----------------------------------------------------------------------

def _add_common(sub, model: bool = True, grid: bool = True) -> None:
    sub.add_argument("--config", help="material/gas key = value file")
    sub.add_argument("--out", help="output CSV path (default: stdout or none)")
    if model:
        sub.add_argument(
            "--model", required=True, help=f"model id, one of {', '.join(MODEL_IDS)}"
        )
        sub.add_argument(
            "--z-override",
            choices=["dp"],
            dest="z_override",
            help="force plain sin(delta) yield on roux-radjai",
        )
        sub.add_argument(
            "--rr-gain", type=float, dest="rr_gain", help="Roux-Radjai gain a"
        )
    if grid:
        sub.add_argument(
            "--grid",
            help="phi=lo:hi:n,I=lo:hi:n[:log|:lin],p=lo:hi:n (defaults to the standard grid)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="granupore", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"granupore {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    table1 = subs.add_parser("table1", help="power-law yield/dilatancy table")
    _add_common(table1, model=False, grid=False)

    check = subs.add_parser("check", help="run the five structural checks")
    _add_common(check)

    cls = subs.add_parser("classify", help="certify C1/C2/C3 and print verdict")
    _add_common(cls)

    derive = subs.add_parser("derive", help="closed-form vs derived dilatancy")
    _add_common(derive)

    box = subs.add_parser("simulate-box", help="homogeneous box run")
    _add_common(box, grid=False)
    box.add_argument("--scenario", help="run settings as a key = value file")
    box.add_argument("--phi0", type=float, default=0.55)
    shear = box.add_mutually_exclusive_group()
    shear.add_argument("--I", type=float, default=None, help="constant inertial number")
    shear.add_argument("--shear", type=float, help=f"constant |S| (1/s), default {BOX_SHEAR:g}")
    box.add_argument("--p", type=float, help=f"constant pressure (Pa), default {BOX_P:g}")
    box.add_argument("--pf0", type=float, default=None, help="track p_f from this value")
    box.add_argument("--t-end", type=float, dest="t_end", default=0.05)
    box.add_argument("--dt", type=float, default=1.0e-6)
    box.add_argument("--forcing", choices=["constant", "random"], default="constant")
    box.add_argument("--seed", type=int, default=0)
    box.add_argument("--record-every", type=int, dest="record_every", default=100)

    col = subs.add_parser("simulate-column", help="static-column diffusion run")
    _add_common(col, model=False, grid=False)
    col.add_argument("--scenario", help="run settings as a key = value file")
    col.add_argument("--cells", type=int, default=200)
    col.add_argument("--length", type=float, default=0.1, help="column height (m)")
    col.add_argument("--phi", type=float, default=0.6)
    col.add_argument("--pf-mean", type=float, dest="pf_mean", default=200.0)
    col.add_argument("--pf-amplitude", type=float, dest="pf_amplitude", default=100.0)
    col.add_argument("--t-end", type=float, dest="t_end", default=6.0e-3)
    col.add_argument("--dt", type=float, default=None, help="default: stability bound")
    col.add_argument("--mode", choices=["explicit", "implicit"], default="explicit")
    col.add_argument("--record-every", type=int, dest="record_every", default=2000)

    sym = subs.add_parser("symbol", help="extended spectral symbol from config")
    sym.add_argument("--config", required=True, help="n_matrix/xi/momentum_rows/c file")
    sym.add_argument("--out", help="eigenvalue CSV path")

    return parser


_COMMANDS = {
    "table1": cmd_table1,
    "check": cmd_check,
    "classify": cmd_classify,
    "derive": cmd_derive,
    "simulate-box": cmd_simulate_box,
    "simulate-column": cmd_simulate_column,
    "symbol": cmd_symbol,
}


#: Parsed keys of simulate-box and simulate-column that are not run settings.
_NOT_SCENARIO = {"command", "config", "out", "model", "z_override", "rr_gain", "scenario"}


def _scenario_flags(args) -> list[str]:
    """The scenario file's ``key = value`` lines as ``--key=value`` flags."""
    settings = vars(args).keys() - _NOT_SCENARIO
    flags = []
    for key, (raw, lineno) in read_kv_file(args.scenario).items():
        if key not in settings:
            raise ConfigError(f"{args.scenario}:{lineno}: unknown scenario key {key!r}")
        flags.append(f"--{key.replace('_', '-')}={raw}")
    return flags


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "scenario", None):
            # File settings go right after the subcommand, so that argparse
            # checks them like flags and the command line's own flags win.
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + _scenario_flags(args) + argv[at:])
        return _COMMANDS[args.command](args)
    except (ConfigError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
