"""Rewrite reference.json: the default seed's outputs at the current commit.

Run from the checkout root:

    python3 -m perfbench.record_reference

Every run at the default seed compares its outputs with this file, so only
rewrite it in a change that means to alter the program's outputs, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

from perfbench.catalog import DEFAULT_SEED  # noqa: E402
from perfbench.workloads import WORKLOAD_CLASSES  # noqa: E402

REFERENCE = Path(__file__).with_name("reference.json")


def record(name: str) -> dict:
    workdir = ROOT / ".perfbench_run" / f"reference-{name}"
    try:
        workload = WORKLOAD_CLASSES[name](DEFAULT_SEED, workdir, None)
        values = {}
        for r in range(workload.distinct_rounds):
            for op in workload.round(r):
                result = op.run()
                problems = op.check(result)
                if problems:
                    raise SystemExit(f"{name}: {problems}")
                values[op.key] = op.record(result)
        return values
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    reference = {name: record(name) for name in WORKLOAD_CLASSES}
    # one op per line keeps the file small and its diffs readable
    blocks = []
    for name, values in reference.items():
        lines = [f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in values.items()]
        blocks.append(f" {json.dumps(name)}: {{\n" + ",\n".join(lines) + "\n }")
    REFERENCE.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
