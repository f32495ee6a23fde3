"""Record the reference outputs that ``run.py`` checks against.

    python3 bench/record_references.py

Writes ``bench/references.json``: the certify verdict summaries and the CLI
exit codes and CSV summaries of the code in this checkout.  The box and
column outputs depend on the seed and are checked against ``oracles.py``
instead.  References pin behaviour: re-record them only in a change that
means to alter it, and say so.
"""

from __future__ import annotations

import json
import shutil

import run


def main() -> None:
    run.import_package()
    import workloads

    refs = {"certify": {}, "cli": {}}
    for op in workloads.build_ops("certify", 0, run.ROOT):
        refs["certify"][op.name] = workloads.certify_summary(op.run(None))
    scratch = run.OUT / "tmp-references"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        for op in workloads.build_ops("cli", 0, run.ROOT, scratch):
            code, csv = op.run(None)
            refs["cli"][op.name] = {"exit": code, "csv": csv}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for section in refs.values():
        for key in sorted(section):
            section[key] = section.pop(key)
    path = run.BENCH / "references.json"
    path.write_text(json.dumps(refs, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
