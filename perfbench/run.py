"""The shiftrank benchmark: one workload, measured end to end or layer by layer.

    python3 perfbench/run.py --workload rank-sweep --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports shiftrank from ``src/``.
Each round runs in a fresh interpreter (``round.py``) and passes over every
input of the workload once.  Rounds repeat until ``--seconds`` have passed
and at least MIN_ROUNDS rounds are done.

``--trace 0`` prints the end-to-end metrics: medians over rounds, and
per-op latency over the ops of all rounds.  Timings are in ``ref``, the
time of the reference kernel that ``round.py`` runs between ops, so that
the drift of a shared host's CPU speed cancels; the details line gives
them in seconds too.  ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics: counts from
the traced rounds, which must agree exactly, and median timings.  Spans go
to ``.perfbench/spans/``.  The last line of stdout is the result as JSON;
the line before it gives the details behind it.  The exit code is 0 only
when a result is printed.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DEADLINE_S = 150  # the last round must end by then: a run has 180 s
MIN_ROUNDS = 3  # medians over rounds need at least three
TAIL_SAMPLES = 10  # the tail percentile keeps at least this many samples beyond it
PERCENTILES = (50, 75, 90, 95, 99, 99.9)

sys.path.insert(0, str(ROOT / "src"))


class RunError(Exception):
    """The run cannot produce a result."""


def run_round(workload: str, seed: int, spans: Path | None, deadline: float) -> dict:
    started = time.monotonic()
    cmd = [sys.executable, str(HERE / "round.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--started", repr(started)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(1.0, deadline - started)
        )
    except subprocess.TimeoutExpired:
        raise RunError(f"a {workload} round did not finish within the run's time limit") from None
    if proc.returncode != 0:
        raise RunError(f"a {workload} round exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(ops_per_round: int) -> float:
    """The highest percentile with TAIL_SAMPLES distinct ops beyond it, and at least the median.

    Rounds repeat the same ops, so only the ops of one round count: pooling
    rounds adds samples of the same ops, not of more of them.
    """
    fits = [p for p in PERCENTILES if ops_per_round * (100 - p) / 100 >= TAIL_SAMPLES]
    return fits[-1] if fits else PERCENTILES[0]


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(wl, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        if trace:
            enough = len(traced) >= 2 and len(plain) >= 1
        else:
            enough = len(plain) >= MIN_ROUNDS
        if enough and time.monotonic() - started >= seconds:
            break
        if trace and len(traced) < len(plain):
            spans = ROOT / ".perfbench" / "spans" / f"{wl.name}-round{len(traced)}.json"
            traced.append(run_round(wl.name, seed, spans, deadline))
        else:
            plain.append(run_round(wl.name, seed, None, deadline))

    rounds = plain + traced
    digests = {r["digest"] for r in rounds}
    errors = [why for r in rounds for why in r["errors"].values()]
    attempted = sum(len(r["latencies"]) for r in rounds)
    ops = len(plain[0]["latencies"])
    details = {
        "workload": wl.name,
        "seed": seed,
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "ops_per_round": ops,
        "attempted": attempted,
        "failed": len(errors),
        "failed_ratio": len(errors) / attempted,
        "failed_ratio_base": f"{attempted} ops attempted over {len(rounds)} rounds",
        "output_digest": sorted(digests),
        "errors": errors[:5],
    }
    correct = not errors and len(digests) == 1

    if not trace:
        latencies = [t for r in plain for t in r["latencies"]]
        in_ref = [t / k for r in plain for t, k in zip(r["latencies"], r["op_ref_s"])]
        tail = tail_percentile(ops)
        wall_s = statistics.median(r["wall_s"] for r in plain)
        metrics = {
            "setup_s": metric(statistics.median(r["setup_s"] for r in plain), "s"),
            "wall_ref": metric(statistics.median(r["wall_s"] / r["ref_s"] for r in plain), "ref"),
            "op_p50_ref": metric(percentile(in_ref, 50), "ref"),
            "op_tail_ref": metric(percentile(in_ref, tail), "ref"),
            "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
        }
        details.update(
            tail_percentile=tail,
            latency_samples=len(latencies),
            seconds={
                "wall_s": wall_s,
                "cpu_s": statistics.median(r["cpu_s"] for r in plain),
                "ops_per_s": ops / wall_s,
                "op_p50_ms": 1000 * percentile(latencies, 50),
                "op_tail_ms": 1000 * percentile(latencies, tail),
                "ref_ms": 1000 * statistics.median(r["ref_s"] for r in plain),
            },
            round_wall_s=[r["wall_s"] for r in plain],
            round_ref_ms=[1000 * r["ref_s"] for r in plain],
        )
    else:
        counts = traced[0]["layer_counts"]
        repeatable = all(r["layer_counts"] == counts for r in traced)
        correct = correct and repeatable
        metrics = {
            name: metric(statistics.median(r["layer_times"][name] for r in traced), "s")
            for name in traced[0]["layer_times"]
        }
        for name, value in counts.items():
            metrics[name] = metric(value, "ratio" if isinstance(value, float) else "count")
        overhead = statistics.median(r["wall_s"] for r in traced) / statistics.median(
            r["wall_s"] for r in plain
        )
        metrics["trace.overhead_ratio"] = metric(overhead, "ratio")
        details.update(counts_repeat=repeatable, missing_targets=traced[0]["missing"])
    return {"correct": correct, "attempted": attempted, "failed": len(errors), "metrics": metrics}, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "shiftrank" / "__init__.py").is_file():
        print(f"no shiftrank sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        result, details = measure(wl, args.seed, args.seconds, bool(args.trace))
    except RunError as e:
        print(e, file=sys.stderr)
        return 1
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
