"""Fresh-interpreter checks: what importing and running the CLI loads, that
the benchmark's modules import and that the demo scripts run.

Each case starts a new Python process, because the test process has
already imported scipy itself.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CFG = str(ROOT / "demos" / "configs" / "glass_beads.cfg")
GRID = "phi=0.42:0.58:4,I=0.05:5:5:log,p=100:1000:2"

#: Prints the exit code of ``main(argv)``, the scipy modules then loaded and
#: whether the quadrature's Gauss-Legendre nodes (numpy.polynomial) were built.
RUN_MAIN = """
import json, sys
from granupore.cli import main
code = main(json.loads(sys.argv[1]))
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"code": code, "scipy": loaded, "nodes": "numpy.polynomial" in sys.modules}))
"""


def _python(args, cwd=ROOT, timeout=120):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["MPLBACKEND"] = "Agg"
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True,
        timeout=timeout,
    )


def _run_main(argv, tmp_path):
    proc = _python(["-c", RUN_MAIN, json.dumps(argv + ["--out", str(tmp_path / "out.csv")])])
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", ["granupore", "granupore.cli"])
def test_import_loads_no_scipy(module):
    """Neither scipy nor the quadrature's numpy.polynomial loads on import."""
    proc = _python(
        ["-c", f"import sys, {module}; print([m for m in sys.modules "
         "if m.split('.')[0] == 'scipy' or m.startswith('numpy.polynomial')])"]
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_benchmark_modules_import():
    """The benchmark's modules import against the package's public names."""
    proc = _python(["-c", "import run, workloads, layers"], cwd=ROOT / "bench")
    assert proc.returncode == 0, proc.stderr


LIGHT = {
    "table1": ["table1", "--config", CFG],
    "derive": ["derive", "--model", "dp", "--grid", GRID],
    "check": ["check", "--model", "mui", "--grid", GRID],
    "classify": ["classify", "--model", "dp", "--grid", GRID],
    "symbol": ["symbol", "--config", str(ROOT / "demos" / "configs" / "symbol.cfg")],
    "simulate-box constant": ["simulate-box", "--model", "mui", "--config", CFG, "--t-end", "1e-3"],
    "simulate-box random": [
        "simulate-box", "--model", "dp", "--forcing", "random", "--seed", "5", "--t-end", "1e-3",
    ],
    "simulate-column explicit": ["simulate-column", "--config", CFG, "--t-end", "1e-3"],
}


#: The subcommands that integrate Z, and so build the Gauss-Legendre nodes.
QUADRATURE = {"table1", "derive"}


@pytest.mark.parametrize("name", LIGHT)
def test_subcommand_loads_no_scipy(name, tmp_path):
    result = _run_main(LIGHT[name], tmp_path)
    assert result == {"code": 0, "scipy": [], "nodes": name in QUADRATURE}


#: Subcommands that need scipy, with a module each must load; this also
#: shows that the check above sees scipy when it is loaded.
HEAVY = {
    "simulate-column implicit": (
        ["simulate-column", "--config", CFG, "--t-end", "1e-3", "--mode", "implicit"],
        "scipy.linalg",
    ),
}


@pytest.mark.parametrize("name", HEAVY)
def test_scipy_subcommands_still_run(name, tmp_path):
    argv, module = HEAVY[name]
    result = _run_main(argv, tmp_path)
    assert result["code"] == 0
    assert module in result["scipy"]


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    proc = _python([str(demo)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_python_runs(tmp_path):
    """The README's Python blocks, run in order as one script, keep up with the API."""
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert len(blocks) == 2
    proc = _python(["-c", "".join(blocks)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
