"""Rewrite reference.json: the sha256 of every op's verdict-level output.

Run from the root of the repository, ``python3 perfbench/make_reference.py``.
It runs every op any seed can draw, once: the rank-sweep systems, the
verify-wide systems and every probe-replay job, and fails if any op fails
its checks.  Rewrite the reference only for a documented change of output.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    reference = {}
    failures = []
    for name, wl in workloads.WORKLOADS.items():
        inputs = wl.all_inputs(0)
        outputs = []
        for inp in inputs:
            try:
                outputs.append(wl.run(inp))
            except workloads.OpFailure as e:
                failures.append(f"{name} {wl.key(inp)}: {e}")
                outputs.append(None)
        for i, why in wl.cross_check(inputs, outputs).items():
            failures.append(f"{name} {wl.key(inputs[i])}: {why}")
        reference[name] = {
            wl.key(inp): workloads.digest(out) for inp, out in zip(inputs, outputs) if out is not None
        }
        print(f"{name}: {len(reference[name])} ops", file=sys.stderr)
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
