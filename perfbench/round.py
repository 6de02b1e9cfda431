"""One benchmark round in a fresh interpreter.

A round sets the workload up, runs each of its ops once, checks every
output and prints one JSON line of measurements.  A fresh interpreter pays
the process-lifetime caches of shiftrank again, as every command-line call
does.  ``perfbench/run.py`` starts the rounds; it passes the
``time.monotonic()`` reading taken just before the start, so ``setup_s``
covers interpreter start, imports, catalog parse and seeded sampling.

Between ops the round times a fixed reference kernel, before the first op
and then whenever another KERNEL_EVERY_S of op time has passed.  A sample
repeats the kernel until it has run for KERNEL_SHARE of that op time, so
a long op gets as precise a speed reading as many short ones.  The mean
sample, ``ref_s``, is the unit of the round's normalised timings: on a
shared host the CPU speed drifts by tens of percent within a minute, and
the kernel, run in the same process at the same moments, drifts with it.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

KERNEL_EVERY_S = 0.1
KERNEL_SHARE = 0.02
KERNEL_RULES = ("01", "10")


def reference_kernel() -> float:
    """Seconds for one fixed pass of string building and slicing, the collector off."""
    gc.disable()
    try:
        started = time.perf_counter()
        word = "0"
        for _ in range(14):
            word = "".join(KERNEL_RULES[int(c)] for c in word)
        {word[i : i + 17] for i in range(0, len(word) - 17, 4)}
        return time.perf_counter() - started
    finally:
        gc.enable()


def kernel_sample(op_time: float) -> list[float]:
    """Kernel times of at least one run and of KERNEL_SHARE of ``op_time``."""
    times = [reference_kernel()]
    while sum(times) < KERNEL_SHARE * op_time:
        times.append(reference_kernel())
    return times


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--spans", help="trace the round and write its spans to this file")
    args = parser.parse_args()

    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.inputs(args.seed)
    setup_s = time.monotonic() - args.started

    if tracer:
        tracer.phase = "timed"
    outputs: list = []
    latencies: list[float] = []
    errors: dict[int, str] = {}
    kernel: list[float] = []  # mean time of each kernel sample
    kernel_s = 0.0

    def sample_kernel(op_time: float) -> None:
        nonlocal kernel_s
        times = kernel_sample(op_time)
        kernel.append(sum(times) / len(times))
        kernel_s += sum(times)

    sample_kernel(0.0)
    since_kernel = 0.0
    brackets: list[int] = []  # index of the kernel time taken just before each op
    for i, inp in enumerate(inputs):
        brackets.append(len(kernel) - 1)
        if tracer:
            tracer.op = i
        t = time.perf_counter()
        try:
            outputs.append(wl.run(inp))
        except Exception as e:  # a failing op is counted and reported; the round goes on
            outputs.append(None)
            errors[i] = f"{type(e).__name__}: {e}"
        latencies.append(time.perf_counter() - t)
        since_kernel += latencies[-1]
        if since_kernel >= KERNEL_EVERY_S or i == len(inputs) - 1:
            sample_kernel(since_kernel)
            since_kernel = 0.0
    usage = resource.getrusage(resource.RUSAGE_SELF)

    reference = json.loads((HERE / "reference.json").read_text())[wl.name]
    for i, why in wl.cross_check(inputs, outputs).items():
        errors.setdefault(i, why)
    digests = {}
    for i, (inp, out) in enumerate(zip(inputs, outputs)):
        if out is None:
            continue
        key = wl.key(inp)
        digests[key] = workloads.digest(out)
        if reference.get(key) != digests[key]:
            errors.setdefault(i, f"output digest of {key} differs from reference.json")

    result = {
        "setup_s": setup_s,
        "wall_s": sum(latencies),
        "ref_s": sum(kernel) / len(kernel),
        "cpu_s": usage.ru_utime + usage.ru_stime - kernel_s,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "latencies": latencies,
        # per op, the mean of the kernel times taken just before and just after it
        "op_ref_s": [(kernel[j] + kernel[j + 1]) / 2 for j in brackets],
        "errors": {str(i): why for i, why in sorted(errors.items())},
        "digest": workloads.digest(sorted(digests.items())),
    }
    if tracer:
        times, counts = tracer.layer_metrics(wl.reports_per_op * len(inputs))
        result.update(layer_times=times, layer_counts=counts, missing=tracer.missing)
        tracer.write_spans(Path(args.spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
