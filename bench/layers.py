"""Per-layer metrics for traced runs.

Single-layer timings call one public function of a module in a loop and
report the median per-call time over repeated batches.  The ratios that need
a whole workload (shares of time, calls per point or per step, skipped
points) come from the spans of a traced pass, see :func:`certify_ratios`
and :func:`box_ratios`.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from granupore import (
    BoxState,
    EquilibriumLaw,
    assemble_extended_symbol,
    check_c2,
    check_c3,
    check_dissipation,
    check_equilibrium_signs,
    column_cfl_dt,
    constant_forcing,
    derive_f_numeric,
    energy_ledger,
    enthalpy_ideal,
    extended_spectrum_property,
    gas_content,
    i_eq,
    inertial_number,
    permeability_kappa,
    piecewise_constant_forcing,
    residual_c1,
    run_column,
    spectral_union_matches,
    step_box,
    step_column,
    sweep,
    uniform_column,
)
from granupore.conditions import GridSpec, standard_grid, write_report_csv
from granupore.config import load_parameters, read_symbol_config

from workloads import (
    CERTIFY_MODELS,
    CLI_CALLS,
    COLUMN_CASES,
    COLUMN_LENGTH,
    COLUMN_PHI,
    FINE_GRID,
    GAS,
    LAWS,
    MAT,
    certify_model,
    check_cli,
    child_env,
    cli_argv,
    csv_summary,
)

_clock = time.perf_counter

#: Metric name -> unit, in report order.  Every traced run reports all of
#: them unless a proxy no longer fits (then they are listed as not measured).
UNITS: dict[str, str] = {}


def _unit(unit: str, *names: str) -> None:
    for name in names:
        UNITS[name] = unit


_unit("us", *(f"materials.i_eq_us.{law}" for law in LAWS), "materials.inertial_number_us")
_unit("us", *(f"rheology.yield_function_us.{m}" for m in CERTIFY_MODELS))
_unit("us", *(f"rheology.dilatancy_us.{m}" for m in CERTIFY_MODELS))
_unit("us", *(f"rheology.dilatancy_us.mui.{law}" for law in LAWS[1:]), "rheology.derive_f_numeric_us")
_unit("count", "rheology.calls_per_point")
_unit("ratio", "rheology.share.certify", "rheology.share.box")
_unit("us", *(f"conditions.point_us.{k}" for k in (*LAWS, "fine")))
_unit("us", *(f"conditions.{k}_us" for k in (
    "residual_c1", "check_c2", "check_c3", "check_dissipation", "check_equilibrium_signs")))
_unit("ratio", "conditions.self_share", "conditions.skipped_ratio")
_unit("us", "conditions.write_report_csv_us_per_row", "stability.symbol_us")
_unit("us", *(f"simulate.step_box_us.{k}" for k in ("random", "constant", "pf")))
_unit("count", "simulate.forcing_calls_per_step")
_unit("us", "simulate.forcing_lookup_us")
_unit("us", *(f"simulate.step_column_us.{case[0]}" for case in COLUMN_CASES))
_unit("us", "simulate.column_cfl_dt_us", "simulate.gas_content_us", "simulate.energy_ledger_us_per_state")
_unit("ratio", "simulate.run_column_overhead_share")
_unit("us", "gas.permeability_kappa_us", "gas.enthalpy_ideal_us")
_unit("us", "config.load_parameters_us", "config.read_symbol_config_us")
_unit("s", *(f"cli.{sub}_s" for sub in dict.fromkeys(argv[0] for _, argv in CLI_CALLS)))
_unit("bytes", "cli.csv_bytes")
_unit("s", "setup.import_numpy_s", "setup.import_granupore_s", "trace.overhead_s")

#: Fixed evaluation points: phi, p, I.
POINTS = [(phi, p, inertial) for phi in (0.45, 0.52, 0.58) for inertial in (0.02, 0.3, 4.0) for p in (50.0, 5000.0)]
PHIS = np.linspace(0.41, 0.59, 16).tolist()
SMALL_GRID = GridSpec(phi_range=(0.40, 0.595, 6), I_range=(1.0e-2, 10.0, 6), p_range=(10.0, 1.0e4, 2))

_IMPORT_PROBE = (
    "import json, time\n"
    "t0 = time.perf_counter()\nimport numpy\nt1 = time.perf_counter()\n"
    "import granupore\nt2 = time.perf_counter()\n"
    "print(json.dumps([t1 - t0, t2 - t1]))\n"
)


def per_call_us(batch, calls: int, budget: float) -> float:
    """Median per-call time (us) of ``batch``, which makes ``calls`` calls,
    over at least three batches and ``budget`` seconds."""
    times = []
    deadline = _clock() + budget
    while len(times) < 3 or _clock() < deadline:
        t0 = _clock()
        batch()
        times.append((_clock() - t0) / calls)
    return statistics.median(times) * 1.0e6


def import_times(root: Path, repeats: int = 3) -> dict:
    """Import time of numpy, then of granupore, in fresh interpreters."""
    samples = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=root, env=child_env(root),
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return {
        "setup.import_numpy_s": statistics.median(s[0] for s in samples),
        "setup.import_granupore_s": statistics.median(s[1] for s in samples),
    }


def single_layer(root: Path, budget: float) -> dict:
    """Every per-call timing of a single public function."""
    out = {}
    laws = {law: EquilibriumLaw(law) for law in LAWS}
    linear = laws["linear"]

    for law, eq in laws.items():
        out[f"materials.i_eq_us.{law}"] = per_call_us(
            lambda eq=eq: [i_eq(eq, MAT, phi) for phi in PHIS], len(PHIS), budget)
    pairs = [(s, p) for s in (60.0, 300.0, 1200.0) for p in (20.0, 900.0, 8000.0)]
    out["materials.inertial_number_us"] = per_call_us(
        lambda: [inertial_number(MAT, s, p) for s, p in pairs], len(pairs), budget)

    for name in CERTIFY_MODELS:
        model = certify_model(name, linear)
        out[f"rheology.yield_function_us.{name}"] = per_call_us(
            lambda m=model: [m.yield_function(phi, i) for phi, _, i in POINTS], len(POINTS), budget)
        # a fresh model per batch, so DerivedNumeric's memo never answers
        out[f"rheology.dilatancy_us.{name}"] = per_call_us(
            lambda name=name: _dilatancy_batch(certify_model(name, linear)), len(POINTS), budget)
    for law in LAWS[1:]:
        out[f"rheology.dilatancy_us.mui.{law}"] = per_call_us(
            lambda law=law: _dilatancy_batch(certify_model("mui", laws[law])), len(POINTS), budget)
    mui = certify_model("mui", linear)
    out["rheology.derive_f_numeric_us"] = per_call_us(
        lambda: [derive_f_numeric(mui.yield_function, linear, MAT, phi, p, i) for phi, p, i in POINTS],
        len(POINTS), budget)

    n_small = SMALL_GRID.phi_range[2] * SMALL_GRID.I_range[2] * SMALL_GRID.p_range[2]
    for law, eq in laws.items():
        out[f"conditions.point_us.{law}"] = per_call_us(
            lambda eq=eq: sweep(certify_model("mui", eq), SMALL_GRID), n_small, budget)
    n_fine = FINE_GRID.phi_range[2] * FINE_GRID.I_range[2] * FINE_GRID.p_range[2]
    out["conditions.point_us.fine"] = per_call_us(
        lambda: [sweep(certify_model(m, linear), FINE_GRID) for m in ("dp", "mui")], 2 * n_fine, budget)
    checks = {
        "residual_c1": lambda phi, p, i: residual_c1(mui, phi, p, i),
        "check_c2": lambda phi, p, i: check_c2(mui, phi, i),
        "check_c3": lambda phi, p, i: check_c3(mui, phi, p, i),
        "check_dissipation": lambda phi, p, i: check_dissipation(mui, phi, p, i),
        "check_equilibrium_signs": lambda phi, p, i: check_equilibrium_signs(mui, phi, p),
    }
    for name, fn in checks.items():
        out[f"conditions.{name}_us"] = per_call_us(
            lambda fn=fn: [fn(*pt) for pt in POINTS], len(POINTS), budget)
    report = sweep(mui, standard_grid())
    out["conditions.write_report_csv_us_per_row"] = per_call_us(
        lambda: write_report_csv(report, io.StringIO()), len(report.records), budget)

    def symbol():
        sym = assemble_extended_symbol([[2.0, 0.0], [0.0, 3.0]], [3.0, 0.0], (0,), 1.0)
        extended_spectrum_property(sym)
        spectral_union_matches(sym)

    out["stability.symbol_us"] = per_call_us(symbol, 1, budget)

    out.update(_box_steps(budget))
    out.update(_column_layers(budget))

    out["gas.permeability_kappa_us"] = per_call_us(
        lambda: [permeability_kappa(GAS, MAT.d, phi) for phi in PHIS], len(PHIS), budget)
    pfs = np.linspace(-500.0, 500.0, 16).tolist()
    out["gas.enthalpy_ideal_us"] = per_call_us(
        lambda: [enthalpy_ideal(GAS, pf) for pf in pfs], len(pfs), budget)

    cfg = root / "demos" / "configs"
    out["config.load_parameters_us"] = per_call_us(
        lambda: load_parameters(cfg / "glass_beads.cfg"), 1, budget)
    out["config.read_symbol_config_us"] = per_call_us(
        lambda: read_symbol_config(cfg / "symbol.cfg"), 1, budget)
    return out


def _dilatancy_batch(model) -> None:
    for phi, p, i in POINTS:
        model.dilatancy(phi, p, i)


def _box_steps(budget: float) -> dict:
    mui = certify_model("mui", EquilibriumLaw())
    t_end, dt = 0.016, 2.0e-6
    rng = np.random.default_rng(0)
    forcings = {
        "random": piecewise_constant_forcing(
            np.linspace(0.0, t_end, 9), np.exp(rng.uniform(np.log(50.0), np.log(1500.0), 8)),
            np.exp(rng.uniform(np.log(10.0), np.log(1.0e4), 8))),
        "constant": constant_forcing(300.0, 1000.0),
    }
    forcings["pf"] = forcings["random"]
    times = np.linspace(0.0, t_end, 16, endpoint=False).tolist()
    out = {}
    for case, forcing in forcings.items():
        pf, gas = (0.0, GAS) if case == "pf" else (None, None)
        states = [BoxState(t=t, phi=0.5, p_f=pf) for t in times]
        out[f"simulate.step_box_us.{case}"] = per_call_us(
            lambda f=forcing, states=states, gas=gas: [step_box(s, mui, MAT, f, dt, gas=gas) for s in states],
            len(states), budget)
    return out


def _column_layers(budget: float) -> dict:
    out = {}
    states = {}
    for name, cells, mode, factor, _ in COLUMN_CASES:
        state = uniform_column(cells, COLUMN_LENGTH, COLUMN_PHI,
                               lambda z: 200.0 + 100.0 * np.cos(np.pi * z / COLUMN_LENGTH))
        dt = factor * column_cfl_dt(state, GAS, MAT)
        states[name] = (state, dt)
        out[f"simulate.step_column_us.{name}"] = per_call_us(
            lambda s=state, dt=dt, mode=mode: step_column(s, GAS, MAT, dt, mode=mode), 1, budget)
    state, dt = states["explicit200"]
    out["simulate.column_cfl_dt_us"] = per_call_us(lambda: column_cfl_dt(state, GAS, MAT), 1, budget)
    out["simulate.gas_content_us"] = per_call_us(lambda: gas_content(state), 1, budget)
    history = run_column(state, GAS, MAT, dt, 19, record_every=1).history
    out["simulate.energy_ledger_us_per_state"] = per_call_us(
        lambda: energy_ledger(history, GAS, MAT), len(history), budget)
    steps = 1000
    run_us = per_call_us(lambda: run_column(state, GAS, MAT, dt, steps), 1, budget)
    out["simulate.run_column_overhead_share"] = 1.0 - steps * out["simulate.step_column_us.explicit200"] / run_us
    return out


def cli_in_process(root: Path, scratch: Path, refs: dict, ledger) -> dict:
    """Each CLI call through ``cli.main`` after the import, with its output
    checked like the ``cli`` workload's."""
    from granupore import cli

    out, total_bytes = {}, 0
    for name, argv in CLI_CALLS:
        csv_path = scratch / f"inprocess-{name}.csv"
        sink = io.StringIO()
        t0 = _clock()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(cli_argv(argv, csv_path))
        except Exception as exc:  # one failed call must not end the run
            ledger.record(f"cli-inprocess/{name}", [f"raised {exc!r}"])
            continue
        seconds = _clock() - t0
        summary = csv_summary(csv_path) if csv_path.exists() else None
        ledger.record(f"cli-inprocess/{name}", check_cli(refs[name], (code, summary))
                      if name in refs else ["no recorded reference"])
        total_bytes += summary["bytes"] if summary else 0
        if name != "simulate-box-scenario":
            out[f"cli.{argv[0]}_s"] = seconds
    out["cli.csv_bytes"] = total_bytes
    return out


def certify_ratios(tracer, ops, skipped_counts) -> dict:
    """Ratios from a traced pass of ``certify`` operations, given the
    skipped-point count each operation kept."""
    out = {}
    points = sum(op.work for op in ops)
    skipped = sum(n for n in skipped_counts if n is not None)
    out["conditions.skipped_ratio"] = skipped / points
    if tracer.untraceable:
        return out
    wall, children = tracer.totals("stability.classify")
    calls = sum(c for name, (c, _) in children.items() if name.startswith("rheology."))
    secs = sum(s for name, (_, s) in children.items() if name.startswith("rheology."))
    out["rheology.calls_per_point"] = calls / points
    out["rheology.share.certify"] = secs / wall
    out["conditions.self_share"] = 1.0 - secs / wall
    return out


def box_ratios(tracer, ops) -> dict:
    """Ratios from a traced pass of ``box`` operations."""
    if tracer.untraceable:
        return {}
    wall, children = tracer.totals("simulate.run_box")
    steps = sum(op.work for op in ops)
    calls = sum(c for name, (c, _) in children.items() if name.startswith("simulate.forcing"))
    random_ops = {op.name for op in ops if op.kind != "constant"}
    _, rand = tracer.totals("simulate.run_box", lambda op: op in random_ops)
    lookups = sum(c for name, (c, _) in rand.items() if name.startswith("simulate.forcing"))
    lookup_s = sum(s for name, (_, s) in rand.items() if name.startswith("simulate.forcing"))
    return {
        "rheology.share.box": sum(s for name, (_, s) in children.items() if name.startswith("rheology.")) / wall,
        "simulate.forcing_calls_per_step": calls / steps,
        "simulate.forcing_lookup_us": lookup_s / lookups * 1.0e6,
    }
