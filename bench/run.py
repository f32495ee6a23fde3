"""granupore benchmark: one command, four workloads, checked outputs.

Usage (from the repository root):

    python3 bench/run.py --workload {certify,box,column,cli} --seed N \
        --seconds S --trace {0,1}

Every load is a closed loop with a single client: operations run one after
the other in this process (the ``cli`` workload starts one CLI process at a
time).  With ``--trace 0`` the workload's fixed mix of operations (a pass)
is repeated while another pass still fits in ``--seconds``, and the
end-to-end metrics are printed:

* ``wall_s``: median time of a pass, excluding set-up;
* ``setup_s``: median time of a fresh interpreter that imports granupore
  (and ``granupore.cli`` for ``cli``), builds the workload's inputs and
  exits, over three interpreters started one after the other;
* ``raw_wall_s`` and ``raw_setup_s``: the clock readings behind them.
  ``wall_s`` and ``setup_s`` scale each operation's (each interpreter's)
  time by a reference time over the time of a fixed speed probe run just
  before and after it: an in-process kernel for in-process operations, a
  fresh interpreter importing numpy for child processes (CLI calls and
  set-up).  On a shared host the raw times of identical code drift by up to
  half between runs; the probe slows with them, so the ratio stays steady.
  The probes never call granupore;
* ``peak_rss_mb``: peak resident memory of this process (of the largest
  child process for ``cli``);
* the workload's throughput (points, RK4 steps, cell-steps or CLI calls per
  second of ``raw_wall_s``) and ``failed_ratio``.

With ``--trace 1`` the per-layer metrics are measured instead (single-layer
timings, traced passes of the workloads and the tracing overhead of the
model and forcing proxies).  The last line of standard output is the result
as one JSON object with the metrics BENCHMARK.json names; the line before it
carries every metric with quartiles and sample counts, plus the provenance.
Full run records and spans go to ``bench/out/``.

The package is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 3

# Before numpy loads: one thread for this process and every child.
THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _name in THREADS:
    os.environ[_name] = "1"

#: The end-to-end metrics BENCHMARK.json gates on, with their units.
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
#: The workload's own throughput: name, unit, what one unit of work is.
THROUGHPUT = {
    "certify": ("points_per_s", "points/s"),
    "box": ("steps_per_s", "steps/s"),
    "column": ("cell_steps_per_s", "cell*steps/s"),
    "cli": ("calls_per_s", "calls/s"),
}
SPAN_NAMES = {
    "certify": "stability.classify",
    "box": "simulate.run_box",
    "column": "simulate.run_column",
}
_clock = time.perf_counter


class Ledger:
    """Operations attempted and failed, with the first problems seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{name}: {'; '.join(problems)}")


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    src = ROOT / "src"
    if not (src / "granupore" / "__init__.py").is_file():
        fail(f"no granupore package under {src}")
    sys.path.insert(0, str(src))
    import granupore

    if Path(granupore.__file__).resolve().parent != (src / "granupore").resolve():
        fail(f"granupore imported from {granupore.__file__}, not {src}")


def summary(values: list[float]) -> dict:
    values = sorted(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def run_op(op, tracer, ledger, span_name):
    """Run and check one operation; returns (seconds, ``op.keep(output)``).

    The output itself is dropped once checked, so memory held between
    operations does not grow with the number of passes."""
    span = tracer.begin(span_name or f"cli.{op.kind}", op.name) if tracer is not None else None
    output, error = None, None
    t0 = _clock()
    try:
        output = op.run(tracer)
    except Exception:  # the benchmark keeps going and counts the failure
        error = traceback.format_exc(limit=3)
    seconds = _clock() - t0
    if span is not None:
        tracer.end(span)
        if error is not None:  # a proxy that no longer fits: rerun untraced
            tracer.untraceable = True
            return run_op(op, None, ledger, span_name)
    if error is not None:
        ledger.record(op.name, [error.strip().splitlines()[-1]])
        return seconds, None
    try:
        problems = op.check(output)
    except Exception:
        problems = ["check raised " + traceback.format_exc(limit=2).strip().splitlines()[-1]]
    ledger.record(op.name, problems)
    return seconds, op.keep(output) if op.keep is not None else None


def _speed_kernel(edges, array) -> float:
    import numpy as np

    acc = 0.0
    for i in range(300):
        x = 0.3 + i * 1.0e-3
        acc += math.sqrt(x) * math.log1p(x) / (1.0 + x)
        acc += int(np.clip(np.searchsorted(edges, x, side="right") - 1, 0, 7))
        acc += float(np.sum(array * x))
    return acc


def speed_probe() -> float:
    """Median time of a fixed scalar-Python-plus-small-numpy kernel, the
    probe for operations that run in this process."""
    import numpy as np

    edges, array = np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 200)
    times = []
    for _ in range(3):
        t0 = _clock()
        _speed_kernel(edges, array)
        times.append(_clock() - t0)
    return statistics.median(times)


def process_probe() -> float:
    """Time of a fresh interpreter that imports numpy and exits, the probe
    for child processes: their time is mostly start-up and imports, which
    an in-process kernel does not follow."""
    from workloads import child_env

    t0 = _clock()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=ROOT, env=child_env(ROOT),
                   capture_output=True, timeout=60, check=True)
    return _clock() - t0


#: Each probe with the time its readings are scaled to: about the probe's
#: median on an Intel Xeon (2 vCPUs, Python 3.11, numpy 2.4).
IN_PROCESS = (speed_probe, 6.0e-3)
CHILD_PROCESS = (process_probe, 0.18)


def probe_for(workload: str):
    return CHILD_PROCESS if workload == "cli" else IN_PROCESS


def run_pass(ops, tracer, ledger, span_name, probe=IN_PROCESS):
    """All operations once, with a speed probe between them; returns
    (seconds, kept output, probe scale) per op, where seconds times the
    scale is the probe-normalised time."""
    measure, reference = probe
    gc.collect()
    probes = [measure()]
    out = []
    for op in ops:
        seconds, kept = run_op(op, tracer, ledger, span_name)
        probes.append(measure())
        out.append((seconds, kept, reference / (0.5 * (probes[-2] + probes[-1]))))
    return out


def scaled_wall(results) -> float:
    """A pass's time with each operation scaled by its speed probe."""
    return sum(s * scale for s, _, scale in results)


def setup_times(workload: str, seed: int, ledger) -> list[tuple[float, float]]:
    """Fresh interpreters that import the package and build the inputs;
    (seconds, probe scale) for each."""
    from workloads import child_env

    measure, reference = CHILD_PROCESS
    times = []
    probes = [measure()]
    for _ in range(SETUP_REPEATS):
        t0 = _clock()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--setup-child",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, env=child_env(ROOT), capture_output=True, text=True, timeout=150,
        )
        seconds = _clock() - t0
        probes.append(measure())
        times.append((seconds, reference / (0.5 * (probes[-2] + probes[-1]))))
        ledger.record("setup", [] if proc.returncode == 0 else [proc.stderr.strip()[-300:]])
    return times


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workload: str, seed: int, counts: dict) -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {name: os.environ[name] for name in THREADS},
        "git_commit": git_commit(),
        "counts": counts,
    }


def counts_of(workload: str, ops, passes: int) -> dict:
    per_pass = {"operations": len(ops)}
    key = {"certify": "grid_points", "box": "rk4_steps", "column": "cell_steps", "cli": "cli_calls"}[workload]
    per_pass[key] = sum(op.work for op in ops)
    if workload == "column":
        per_pass["column_steps"] = sum(op.inputs["steps"] for op in ops)
    if workload == "certify":
        per_pass["sweeps"] = len(ops)
    return {"passes": passes, "per_pass": per_pass}


def end_to_end(workload, seed, seconds, ops, ledger):
    setup = setup_times(workload, seed, ledger)
    span_name = SPAN_NAMES.get(workload)
    passes = []
    start = _clock()
    while True:  # stop before a pass that would end past the deadline
        passes.append(run_pass(ops, None, ledger, span_name, probe_for(workload)))
        elapsed = _clock() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    walls = [sum(s for s, _, _ in p) for p in passes]
    work = sum(op.work for op in ops)
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    detail = {
        "wall_s": summary([scaled_wall(p) for p in passes]),
        "setup_s": summary([s * scale for s, scale in setup]),
        "raw_wall_s": summary(walls),
        "raw_setup_s": summary([s for s, _ in setup]),
        "peak_rss_mb": summary([resource.getrusage(who).ru_maxrss / 1024.0]),
        THROUGHPUT[workload][0]: summary([work / w for w in walls]),
        "failed_ratio": summary([ledger.failed / ledger.attempted]),
    }
    units = dict(E2E_UNITS, raw_wall_s="s", raw_setup_s="s", failed_ratio="failed/attempted")
    units[THROUGHPUT[workload][0]] = THROUGHPUT[workload][1]
    for name, entry in detail.items():
        entry["unit"] = units[name]
    per_op = {op.name: statistics.median(p[i][0] for p in passes) for i, op in enumerate(ops)}
    return detail, {name: detail[name] for name in E2E_UNITS}, counts_of(workload, ops, len(passes)), per_op


def per_layer(workload, seed, seconds, ops, ledger, scratch, refs):
    import layers
    import workloads
    from tracing import Tracer

    metrics = layers.import_times(ROOT)
    metrics.update(layers.single_layer(ROOT, budget=min(0.5, max(0.03, seconds / 100.0))))
    metrics.update(layers.cli_in_process(ROOT, scratch, refs.get("cli", {}), ledger))

    # The proxies run only in certify and box passes: the full mix for those
    # workloads, the reduced mix otherwise.  The tracing overhead is their
    # traced minus untraced probe-scaled time; column and cli passes only
    # open one span per operation.
    spans, overhead = {}, 0.0
    for name in ("certify", "box"):
        mix = ops if name == workload else workloads.probe_ops(
            name, workloads.build_ops(name, seed, ROOT, scratch, refs))
        tracer = Tracer()
        results = run_pass(mix, tracer, ledger, SPAN_NAMES[name])
        spans[name] = tracer
        overhead += scaled_wall(results) - scaled_wall(run_pass(mix, None, ledger, SPAN_NAMES[name]))
        if name == "certify":
            metrics.update(layers.certify_ratios(tracer, mix, [k for _, k, _ in results]))
        else:
            metrics.update(layers.box_ratios(tracer, mix))
    metrics["trace.overhead_s"] = overhead

    if workload not in spans:
        spans[workload] = Tracer()
        run_pass(ops, spans[workload], ledger, SPAN_NAMES.get(workload), probe_for(workload))
    (OUT / f"spans-{workload}-seed{seed}.json").write_text(
        json.dumps({name: tracer.dump() for name, tracer in spans.items()}))

    missing = [name for name in layers.UNITS if name not in metrics]
    detail = {name: {"value": metrics[name], "unit": layers.UNITS[name]} for name in layers.UNITS
              if name in metrics}
    return detail, detail, {"not_measured": missing}, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(THROUGHPUT))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_package()
    if not (ROOT / "demos" / "configs").is_dir():
        fail(f"no demos/configs under {ROOT}")
    import workloads

    if args.setup_child:
        workloads.build_ops(args.workload, args.seed, ROOT)
        return 0

    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir()
    try:
        refs = json.loads((BENCH / "references.json").read_text())
        ledger = Ledger()
        ops = workloads.build_ops(args.workload, args.seed, ROOT, scratch, refs)
        if args.trace:
            detail, metrics, extra, per_op = per_layer(
                args.workload, args.seed, args.seconds, ops, ledger, scratch, refs)
            counts = counts_of(args.workload, ops, passes=2)
        else:
            detail, metrics, counts, per_op = end_to_end(
                args.workload, args.seed, args.seconds, ops, ledger)
            extra = {}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    record = {
        "metrics": detail,
        **extra,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "problems": ledger.problems,
        "operations": {op.name: {"inputs": op.inputs, "median_s": per_op.get(op.name)} for op in ops},
        "provenance": provenance(args.workload, args.seed, counts),
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({k: record[k] for k in ("metrics", "problems", "provenance")} | extra))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
