"""Run the benchmark on one workload for several seeds and summarise each metric.

    python3 perfbench/repeat.py --workload rank-sweep --seeds 1-10 --seconds 30

For each metric it prints the median and quartiles over the runs
(``statistics.quantiles(values, n=4)``) and the spread: the distance between
the quartiles as a share of the median.  The last line of stdout is the
summary as JSON.  Every run must report correct outputs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="a range such as 1-10")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=200)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: outputs not correct\n{proc.stdout}", file=sys.stderr)
            return 1
        runs.append(result)
        print(f"seed {seed}: " + " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()))

    summary = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3, "spread": spread}
        print(f"{name:40s} median {median:12.6g} {first['unit']:6s} q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:.3f}")
    print(json.dumps({"workload": args.workload, "seeds": args.seeds, "runs": len(runs), "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
