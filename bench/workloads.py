"""The four workload mixes: their operations, seeded inputs and output checks.

Each operation is one call into granupore's public API (or one CLI process)
plus a check of its output.  ``build_ops`` makes the same operations, in the
same order, from the same seed; it is also what a fresh interpreter runs to
measure set-up time.

Why each workload is there:

* ``certify``: ``classify`` sweeps, nine models under four equilibrium laws
  on the standard grid plus two linear-law sweeps on a finer grid.  The
  non-linear laws spend their time in the ``i_eq`` bisection; the linear and
  fine-grid sweeps are bound by per-point overhead in conditions and
  rheology.  Callable-defined models keep the path no analytic derivative
  can take; Schaeffer's skipped phi = 0.40 row keeps the skip path timed.
* ``box``: ``run_box`` on the four flagship models.  Random forcing spends
  most of its time in the forcing lookup; constant forcing bypasses it; one
  run also tracks p_f.  The linear law keeps ``i_eq`` closed-form.
* ``column``: ``run_column`` explicit on 200 cells (per-step overhead
  dominates), implicit at ten times the explicit step (the only
  ``solve_banded`` user) and explicit on 2,000 cells (array arithmetic
  dominates).  No rheology runs, so it is the bypass for model changes.
* ``cli``: every subcommand as a fresh process, which is what a CLI user
  pays per call, including the import; the only workload timing config
  parsing and CSV formatting.
"""

from __future__ import annotations

import csv
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from granupore import (
    DerivedNumeric,
    DruckerPrager,
    EquilibriumLaw,
    GasParams,
    LinearCombination,
    MaterialParams,
    MuI,
    build_model,
    column_cfl_dt,
    constant_forcing,
    piecewise_constant_forcing,
    run_box,
    run_column,
    uniform_column,
)
from granupore.conditions import GridSpec, standard_grid
from granupore.stability import classify

import oracles
from tracing import TracedModel, Tracer, traced_forcing

WORKLOADS = ("certify", "box", "column", "cli")

MAT = MaterialParams()
GAS = GasParams()

#: Relative tolerance on floating outputs: admits a closed-form ``i_eq`` in
#: place of the bisection (about 4e-9 relative) and analytic derivatives in
#: place of central differences, but not a different model.
REL_TOL = 1.0e-6
#: Relative tolerance between the box/column outputs and the oracles, which
#: repeat the same arithmetic in another order.
ORACLE_TOL = 1.0e-9

LAWS = ("linear", "schaeffer", "robinson", "breard")
CERTIFY_MODELS = (
    "dp", "mui", "dp-psi", "mui-psi", "power0.5", "power-0.5",
    "roux-radjai", "lincomb", "derived",
)
FLAGSHIP = ("dp", "mui", "dp-psi", "mui-psi")
RR_GAIN = 2.0
FINE_GRID = GridSpec(phi_range=(0.40, 0.595, 48), I_range=(1.0e-2, 10.0, 48), p_range=(10.0, 1.0e4, 8))

# Acceptance criterion 6's box run: 8,000 RK4 steps.
BOX_T_END, BOX_DT, BOX_PHI0, BOX_RECORD_EVERY = 0.016, 2.0e-6, 0.5, 100

# The CLI's simulate-column defaults.
COLUMN_LENGTH, COLUMN_PHI, COLUMN_T_END = 0.1, 0.6, 6.0e-3
COLUMN_CASES = (  # name, cells, mode, dt factor over the CFL dt, fixed steps
    ("explicit200", 200, "explicit", 1.0, None),
    ("implicit200", 200, "implicit", 10.0, None),
    ("explicit2000", 2000, "explicit", 1.0, 2000),
)

_CFG = "demos/configs/glass_beads.cfg"
CLI_CALLS = (  # name, argv before --out
    ("table1", ["table1", "--config", _CFG]),
    ("check", ["check", "--model", "mui", "--config", _CFG]),
    ("classify", ["classify", "--model", "dp-psi", "--config", _CFG]),
    ("derive", ["derive", "--model", "dp", "--config", _CFG]),
    ("simulate-box", ["simulate-box", "--model", "mui", "--config", _CFG]),
    ("simulate-box-scenario", ["simulate-box", "--model", "dp", "--config", _CFG,
                               "--scenario", "demos/configs/box_scenario.cfg"]),
    ("simulate-column", ["simulate-column", "--config", _CFG]),
    ("symbol", ["symbol", "--config", "demos/configs/symbol.cfg"]),
)
#: Columns holding numerical noise (central-difference C1 residuals,
#: quadrature differences): compared with an absolute floor per row.
NOISE_COLUMNS = {"c1_residual": 1.0e-7, "abs_diff": 1.0e-9}

#: Operations kept in the reduced mixes that traced runs of the other
#: workloads use.
PROBE = {
    "certify": {"linear/mui", "schaeffer/mui", "robinson/mui", "breard/mui",
                "linear/lincomb", "linear/derived"},
    "box": {"random/mui", "constant/mui"},
}

@dataclass
class Op:
    """One operation: a call into the package and the check of its output."""

    name: str
    kind: str
    run: Callable[[Tracer | None], object]
    check: Callable[[object], list[str]]
    work: int
    inputs: dict = field(default_factory=dict)
    #: What of the output to keep once it is checked (None: nothing).
    keep: Callable[[object], object] | None = None


def child_env(root: Path) -> dict:
    """This process's environment (thread settings included) with the
    checkout's ``src`` as the only extra import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def derived_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def close(got, want, rel=REL_TOL, floor=1.0e-12) -> bool:
    return abs(got - want) <= rel * max(abs(got), abs(want)) + floor


# ----------------------------------------------------------------------
# certify
# ----------------------------------------------------------------------

def certify_model(name: str, law: EquilibriumLaw):
    if name == "lincomb":
        return LinearCombination(MAT, law, terms=(
            (lambda phi: (phi - 0.3) / 0.3, DruckerPrager(MAT, law)),
            (lambda phi: (0.6 - phi) / 0.3, MuI(MAT, law)),
        ))
    if name == "derived":
        return DerivedNumeric(MAT, law, Z=lambda phi, I: 0.38 + 0.27 * I / (I + 0.3) + 0.1 * (0.6 - phi))
    if name == "roux-radjai":
        return build_model(name, MAT, law, rr_gain=RR_GAIN)
    return build_model(name.replace("power", "power:"), MAT, law)


def certify_summary(verdict) -> dict:
    """The parts of a verdict the references pin."""
    report = verdict.report
    sums = {}
    for column in ("c2_value", "c3_value", "dissipation_gap"):
        values = [getattr(r, column) for r in report.records]
        sums[column] = [math.fsum(values), math.fsum(abs(v) for v in values)]
    return {
        "verdict": verdict.verdict,
        "failing": list(report.failing_conditions()),
        "records": len(report.records),
        "skipped": len(report.skipped),
        "failures": {c: s.n_failures for c, s in report.summaries.items()},
        "worst": {c: s.worst_value for c, s in report.summaries.items() if s.worst_value is not None},
        "sums": sums,
    }


def _check_certify(ref: dict, verdict) -> list[str]:
    got = certify_summary(verdict)
    problems = [
        f"{key} {got[key]!r} != {ref[key]!r}"
        for key in ("verdict", "failing", "records", "skipped", "failures")
        if got[key] != ref[key]
    ]
    if set(got["worst"]) != set(ref["worst"]):
        problems.append(f"worst-value conditions {sorted(got['worst'])} != {sorted(ref['worst'])}")
    for cond, want in ref["worst"].items():
        if cond in got["worst"] and not close(got["worst"][cond], want):
            problems.append(f"worst {cond} {got['worst'][cond]!r} != {want!r}")
    for column, (want, scale) in ref["sums"].items():
        if not close(got["sums"][column][0], want, floor=REL_TOL * scale + 1e-12 * ref["records"]):
            problems.append(f"sum of {column} {got['sums'][column][0]!r} != {want!r}")
    return problems


def _certify_ops(refs: dict) -> list[Op]:
    jobs = [(law, name, standard_grid()) for law in LAWS for name in CERTIFY_MODELS]
    jobs += [("fine", name, FINE_GRID) for name in ("dp", "mui")]
    ops = []
    for label, name, grid in jobs:
        law = EquilibriumLaw("linear" if label == "fine" else label)
        certify_model(name, law)  # built once here so set-up pays for it

        def run(tracer, name=name, law=law, grid=grid):
            model = certify_model(name, law)  # fresh: DerivedNumeric memoises
            if tracer is not None:
                model = TracedModel(model, tracer)
            return classify(model, grid, model_id=name)

        key = f"{label}/{name}"
        points = grid.phi_range[2] * grid.I_range[2] * grid.p_range[2]
        ops.append(Op(key, label, run, lambda v, ref=refs.get(key): _ref_check(ref, _check_certify, v),
                      points, {"law": law.variant, "model": name, "points": points},
                      keep=lambda v: len(v.report.skipped)))
    return ops


def _ref_check(ref, checker, output) -> list[str]:
    if ref is None:
        return ["no recorded reference"]
    return checker(ref, output)


# ----------------------------------------------------------------------
# box
# ----------------------------------------------------------------------

def _box_op(name, kind, model_id, edges, shears, ps, pf0, inputs) -> Op:
    model = build_model(model_id, MAT)
    forcing = piecewise_constant_forcing(edges, shears, ps) if kind != "constant" \
        else constant_forcing(shears[0], ps[0])
    gas = GAS if pf0 is not None else None
    expected = {}

    def run(tracer):
        m, f = model, forcing
        if tracer is not None:
            m, f = TracedModel(model, tracer), traced_forcing(forcing, tracer)
        return run_box(m, MAT, f, phi0=BOX_PHI0, t_end=BOX_T_END, dt=BOX_DT,
                       pf0=pf0, gas=gas, record_every=BOX_RECORD_EVERY)

    def check(result) -> list[str]:
        if not expected:
            expected["phi"], expected["pf"] = oracles.box_trajectory(
                model_id, MAT, list(edges), list(shears), list(ps), BOX_PHI0,
                BOX_T_END, BOX_DT, BOX_RECORD_EVERY, pf0, GAS.p_atm)
        problems = []
        if result.violations:
            problems.append(f"{len(result.violations)} bound violations, first {result.violations[0]}")
        if not result.sign_agreement:
            problems.append("divergence sign disagrees with I - i_eq")
        if len(result.phi) != len(expected["phi"]):
            return problems + [f"{len(result.phi)} recorded states, expected {len(expected['phi'])}"]
        tracks = [("phi", result.phi)] + ([("p_f", result.p_f)] if pf0 is not None else [])
        for label, got in tracks:
            want = np.asarray(expected["phi" if label == "phi" else "pf"])
            err = float(np.max(np.abs(np.asarray(got) - want)))
            if not err <= ORACLE_TOL * float(np.max(np.abs(want))):
                problems.append(f"{label} trajectory off the oracle by {err:.3e}")
        return problems

    return Op(name, kind, run, check, int(round(BOX_T_END / BOX_DT)), inputs)


def _box_ops(seed: int) -> list[Op]:
    ops = []
    jobs = [(kind, m) for m in FLAGSHIP for kind in ("random", "constant")] + [("pf", "mui")]
    for index, (kind, model_id) in enumerate(jobs):
        fseed = derived_seed(seed, index)
        rng = np.random.default_rng(fseed)
        if kind == "constant":
            inertial = rng.uniform(0.5, 2.0)
            p = math.exp(rng.uniform(math.log(10.0), math.log(1.0e4)))
            edges = [0.0, BOX_T_END]
            shears, ps = [inertial * math.sqrt(p / MAT.rho_s) / MAT.d], [p]
        else:  # log-uniform like simulate.random_forcing, generated here
            edges = np.linspace(0.0, BOX_T_END, 9).tolist()
            shears = np.exp(rng.uniform(math.log(50.0), math.log(1500.0), 8)).tolist()
            ps = np.exp(rng.uniform(math.log(10.0), math.log(1.0e4), 8)).tolist()
        pf0 = 0.0 if kind == "pf" else None
        inputs = {"model": model_id, "forcing_seed": fseed, "shears": shears, "ps": ps}
        ops.append(_box_op(f"{kind}/{model_id}", kind, model_id, edges, shears, ps, pf0, inputs))
    return ops


# ----------------------------------------------------------------------
# column
# ----------------------------------------------------------------------

def _column_ops(seed: int) -> list[Op]:
    ops = []
    for index, (name, cells, mode, factor, fixed_steps) in enumerate(COLUMN_CASES):
        fseed = derived_seed(seed, 100 + index)
        rng = np.random.default_rng(fseed)
        mean, amplitude = rng.uniform(100.0, 300.0), rng.uniform(50.0, 150.0)
        state0 = uniform_column(
            cells, COLUMN_LENGTH, COLUMN_PHI,
            lambda z, m=mean, a=amplitude: m + a * np.cos(np.pi * z / COLUMN_LENGTH),
        )
        dt = factor * column_cfl_dt(state0, GAS, MAT)
        n_steps = fixed_steps or int(round(COLUMN_T_END / dt))

        def run(tracer, state0=state0, dt=dt, n_steps=n_steps, mode=mode):
            return run_column(state0, GAS, MAT, dt, n_steps, mode=mode, record_every=2000)

        def check(result, cells=cells, mode=mode, dt=dt, n_steps=n_steps, mean=mean, amplitude=amplitude):
            problems = []
            if len(result.content) != n_steps + 1:
                problems.append(f"{len(result.content)} content samples for {n_steps} steps")
            if not result.max_step_content_drift < 1.0e-12:
                problems.append(f"content drift {result.max_step_content_drift:.3e} per step")
            if not np.all(np.diff(result.energy) <= 0.0):
                problems.append("gas energy increased")
            final = result.history[-1]
            if not close(final.t, n_steps * dt, ORACLE_TOL):
                problems.append(f"final time {final.t!r} != {n_steps * dt!r}")
            want = oracles.column_final(cells, COLUMN_LENGTH, COLUMN_PHI, mean, amplitude,
                                        MAT, GAS, dt, n_steps, mode)
            err = float(np.max(np.abs(final.pf_profile - want)))
            if not err <= ORACLE_TOL * float(np.max(np.abs(want))):
                problems.append(f"final p_f off the exact mode decay by {err:.3e}")
            return problems

        inputs = {"cells": cells, "mode": mode, "dt": dt, "steps": n_steps,
                  "pf_seed": fseed, "pf_mean": mean, "pf_amplitude": amplitude}
        ops.append(Op(name, name, run, check, n_steps * cells, inputs))
    return ops


# ----------------------------------------------------------------------
# cli
# ----------------------------------------------------------------------

def csv_summary(path) -> dict:
    """Row count and per-column sums (numeric) or joined text of a CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    header, body = rows[0], rows[1:]
    columns = {}
    for j, name in enumerate(header):
        cells = [row[j] for row in body]
        try:
            values = [float(c) for c in cells]
        except ValueError:
            columns[name] = {"text": "|".join(cells)}
            continue
        finite = [v for v in values if not math.isnan(v)]
        columns[name] = {
            "sum": math.fsum(finite),
            "abs": math.fsum(abs(v) for v in finite),
            "nan": len(values) - len(finite),
        }
    return {"rows": len(body), "bytes": os.path.getsize(path), "columns": columns}


def check_cli(ref: dict, output) -> list[str]:
    code, summary = output
    problems = []
    if code != ref["exit"]:
        problems.append(f"exit code {code} != {ref['exit']}")
    if summary is None:
        return problems + ["no CSV written"]
    if summary["rows"] != ref["csv"]["rows"]:
        problems.append(f"{summary['rows']} CSV rows != {ref['csv']['rows']}")
    if set(summary["columns"]) != set(ref["csv"]["columns"]):
        return problems + [f"CSV columns {sorted(summary['columns'])}"]
    rows = ref["csv"]["rows"]
    for name, want in ref["csv"]["columns"].items():
        got = summary["columns"][name]
        if "text" in want:
            if got.get("text") != want["text"]:
                problems.append(f"column {name} text differs")
        elif got.get("nan") != want["nan"] or not close(
            got["sum"], want["sum"],
            floor=REL_TOL * want["abs"] + NOISE_COLUMNS.get(name, 1.0e-12) * rows,
        ):
            problems.append(f"column {name} sum {got.get('sum')!r} != {want['sum']!r}")
    return problems


def cli_argv(argv: list[str], out: Path) -> list[str]:
    return [*argv, "--out", str(out)]


def _cli_ops(refs: dict, root: Path, scratch: Path | None) -> list[Op]:
    from granupore import cli  # noqa: F401  (set-up imports the CLI too)

    ops = []
    for name, argv in CLI_CALLS:
        def run(tracer, name=name, argv=argv):
            out = scratch / f"{name}.csv"
            if out.exists():
                out.unlink()
            proc = subprocess.run(
                [sys.executable, "-m", "granupore.cli", *cli_argv(argv, out)],
                cwd=root, env=child_env(root), capture_output=True, timeout=150,
            )
            return proc.returncode, csv_summary(out) if out.exists() else None

        ops.append(Op(name, argv[0], run, lambda o, ref=refs.get(name): _ref_check(ref, check_cli, o),
                      1, {"argv": argv}))
    return ops


# ----------------------------------------------------------------------

def build_ops(workload: str, seed: int, root: Path, scratch: Path | None = None,
              refs: dict | None = None) -> list[Op]:
    """The workload's operations in their seeded order."""
    refs = refs or {}
    if workload == "certify":
        ops = _certify_ops(refs.get("certify", {}))
    elif workload == "box":
        ops = _box_ops(seed)
    elif workload == "column":
        ops = _column_ops(seed)
    elif workload == "cli":
        ops = _cli_ops(refs.get("cli", {}), root, scratch)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(ops)
    return ops


def probe_ops(workload: str, ops: list[Op]) -> list[Op]:
    keep = PROBE.get(workload)
    return ops if keep is None else [op for op in ops if op.name in keep]
