"""The benchmark's certify operations against its recorded references.

Each operation classifies one model on one grid and checks the verdict,
failure counts, worst values and column sums against
``bench/references.json``, with the benchmark's own tolerances.  Running
them here makes a change that moves sweep outputs past those tolerances
fail the tests, not only the benchmark.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def test_certify_operations_match_references():
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    refs = json.loads((BENCH / "references.json").read_text())
    ops = workloads.build_ops("certify", 81, ROOT, refs=refs)
    assert len(ops) == len(refs["certify"])
    problems = {op.name: op.check(op.run(None)) for op in ops}
    assert {name: found for name, found in problems.items() if found} == {}
