"""Outside-in tracer: wraps shiftrank entry points where their callers look them up.

A function imported by name into another module is a separate attribute
there, so each layer lists every module attribute through which it is
called (``ranks.lift_state`` as well as ``odometer.lift_state``).  Each
wrapped call records a span: layer, parent span, op, start, end and self
time, the duration minus the time its child spans cover.  Spans stay in
memory until the round writes them out.

``words.shift_window`` and ``scale_of_difference`` are never wrapped: they
run once per window pair, and timing them would measure the tracer.
"""

from __future__ import annotations

import importlib
import json
import time

# layer -> the "module:attribute" or "module:Class.attribute" sites it is looked up at
LAYERS: dict[str, tuple[str, ...]] = {
    "substitution.letter_images": (
        "shiftrank.substitution:letter_images",
        "shiftrank.odometer:letter_images",
    ),
    "substitution.seed_window": ("shiftrank.substitution:seed_window",),
    "substitution.language": ("shiftrank.substitution:language",),
    "substitution.aperiodicity_check": (
        "shiftrank.substitution:aperiodicity_check",
        "shiftrank.ranks:aperiodicity_check",
        "shiftrank.catalog:aperiodicity_check",
    ),
    "odometer.lift_state": ("shiftrank.odometer:lift_state", "shiftrank.ranks:lift_state"),
    "odometer.base_windows": ("shiftrank.odometer:base_windows", "shiftrank.ranks:base_windows"),
    "odometer.column_number": ("shiftrank.odometer:column_number", "shiftrank.ranks:column_number"),
    "ranks.coincidence_rank": ("shiftrank.ranks:coincidence_rank",),
    "ranks.minimal_rank": ("shiftrank.ranks:minimal_rank",),
    "ranks.maximal_rank": ("shiftrank.ranks:maximal_rank",),
    "ranks.rank_report": ("shiftrank.ranks:rank_report", "shiftrank.verify:rank_report"),
    "oracles.extensions": ("shiftrank.oracles:extensions",),
    "oracles.sensitivity_scan": (
        "shiftrank.oracles:sensitivity_scan",
        "shiftrank.verify:sensitivity_scan",
    ),
    "oracles.block_sensitivity_scan": (
        "shiftrank.oracles:block_sensitivity_scan",
        "shiftrank.verify:block_sensitivity_scan",
    ),
    "oracles.point_test": ("shiftrank.oracles:m_equicontinuity_point_test",),
    "oracles.cover_test": ("shiftrank.oracles:cover_m_equicontinuity_test",),
    "toeplitz.language": ("shiftrank.toeplitz:ToeplitzSystem.language",),
    "toeplitz.rank_report": ("shiftrank.toeplitz:ToeplitzSystem.rank_report",),
    "verify.verify_system": ("shiftrank.verify:verify_system",),
    "certificates.certificate_json": ("shiftrank.certificates:certificate_json",),
    "certificates.load_certificate": ("shiftrank.certificates:load_certificate",),
    "certificates.replay": ("shiftrank.certificates:replay",),
    "catalog.random_exact_substitutions": ("shiftrank.catalog:random_exact_substitutions",),
}


class Tracer:
    """Spans and per-layer totals for one round, split into set-up and timed phases."""

    def __init__(self) -> None:
        self.phase = "setup"
        self.op = -1
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self.totals: dict[tuple[str, str], list[float]] = {}  # (phase, layer) -> [calls, total, self]
        self.counts: dict[tuple[str, str], int] = {}  # (phase, count name) -> value
        self._stack: list[list] = []  # [span id, child time] of each open span
        self._next_id = 0
        self._images_seen: set = set()
        self._language_seen: set = set()

    def install(self) -> None:
        for layer, sites in LAYERS.items():
            for site in sites:
                if not self._wrap(layer, site):
                    self.missing.append(site)

    def _wrap(self, layer: str, site: str) -> bool:
        module_name, _, path = site.partition(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return False
        *outer, attr = path.split(".")
        for name in outer:
            owner = getattr(owner, name, None)
        fn = getattr(owner, attr, None)
        if not callable(fn):
            return False
        setattr(owner, attr, self._wrapper(layer, fn))
        return True

    def _wrapper(self, layer: str, fn):
        count = COUNTERS.get(layer)

        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else -1
            frame = [self._next_id, 0.0]
            self._next_id += 1
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                self_time = duration - frame[1]
                self.spans.append((frame[0], layer, parent, self.op, start, end, self_time))
                totals = self.totals.setdefault((self.phase, layer), [0, 0.0, 0.0])
                totals[0] += 1
                totals[1] += duration
                totals[2] += self_time
            if count is not None:
                for name, value in count(self, args, result).items():
                    key = (self.phase, name)
                    self.counts[key] = self.counts.get(key, 0) + value
            return result

        return traced

    def calls(self, layer: str, phase: str = "timed") -> int:
        return int(self.totals.get((phase, layer), (0, 0.0, 0.0))[0])

    def total_s(self, layer: str, phase: str = "timed") -> float:
        return self.totals.get((phase, layer), (0, 0.0, 0.0))[1]

    def self_s(self, layer: str, phase: str = "timed") -> float:
        return self.totals.get((phase, layer), (0, 0.0, 0.0))[2]

    def count(self, name: str, phase: str = "timed") -> int:
        return self.counts.get((phase, name), 0)

    def layer_metrics(self, rank_reports: int) -> tuple[dict[str, float], dict[str, int]]:
        """Per-layer timings, and the deterministic counts and ratios, of the timed phase."""
        language_calls = self.calls("substitution.language")
        times = {
            "substitution.letter_images.self_s": self.self_s("substitution.letter_images"),
            "substitution.seed_window.self_s": self.self_s("substitution.seed_window"),
            "substitution.language.self_s": self.self_s("substitution.language"),
            "odometer.lift_state.self_s": self.self_s("odometer.lift_state"),
            "odometer.base_windows.self_s": self.self_s("odometer.base_windows"),
            "odometer.column_number.self_s": self.self_s("odometer.column_number"),
            "ranks.coincidence_rank.s": self.total_s("ranks.coincidence_rank"),
            "ranks.minimal_rank.s": self.total_s("ranks.minimal_rank"),
            "ranks.maximal_rank.s": self.total_s("ranks.maximal_rank"),
            "ranks.rank_report.s": self.total_s("ranks.rank_report"),
            "oracles.extensions.self_s": self.self_s("oracles.extensions"),
            "oracles.sensitivity_scan.self_s": self.self_s("oracles.sensitivity_scan"),
            "oracles.block_sensitivity_scan.self_s": self.self_s("oracles.block_sensitivity_scan"),
            "oracles.point_test.self_s": self.self_s("oracles.point_test"),
            "oracles.cover_test.self_s": self.self_s("oracles.cover_test"),
            "toeplitz.language.self_s": self.self_s("toeplitz.language"),
            "toeplitz.rank_report.self_s": self.self_s("toeplitz.rank_report"),
            "verify.verify_system.self_s": self.self_s("verify.verify_system"),
            "certificates.certificate_json.self_s": self.self_s("certificates.certificate_json"),
            "certificates.load_certificate.self_s": self.self_s("certificates.load_certificate"),
            "certificates.replay.self_s": self.self_s("certificates.replay"),
            "catalog.random_exact_substitutions.s": self.total_s(
                "catalog.random_exact_substitutions", phase="setup"
            ),
        }
        counts = {
            "substitution.letter_images.chars_built": self.count("letter_images.chars_built"),
            "substitution.language.calls": language_calls,
            "substitution.aperiodicity_check.calls": self.calls("substitution.aperiodicity_check"),
            "odometer.lift_state.calls": self.calls("odometer.lift_state"),
            "odometer.lift_state.survivors": self.count("lift_state.survivors"),
            "odometer.base_windows.calls": self.calls("odometer.base_windows"),
            "oracles.extensions.calls": self.calls("oracles.extensions"),
            "oracles.extensions.windows": self.count("extensions.windows"),
            "oracles.cylinders_scanned": self.count("cylinders_scanned"),
            "certificates.replay.checks": self.count("replay.checks"),
            "certificates.replay.count": self.calls("certificates.replay"),
        }
        counts |= {
            "substitution.language.hit_ratio": (
                self.count("language.repeats") / language_calls if language_calls else 0.0
            ),
            "ranks.regime_checks_per_report": (
                counts["substitution.aperiodicity_check.calls"] / rank_reports if rank_reports else 0.0
            ),
        }
        return times, counts

    def write_spans(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            json.dump({"missing": self.missing, "fields": SPAN_FIELDS, "spans": self.spans}, f)


SPAN_FIELDS = ("id", "layer", "parent", "op", "start", "end", "self_s")


def _letter_images(tracer: Tracer, args, result) -> dict[str, int]:
    # images are built once per distinct (substitution, power) and cached after
    key = (args[0], args[1])
    if key in tracer._images_seen:
        return {}
    tracer._images_seen.add(key)
    return {"letter_images.chars_built": sum(map(len, result))}


def _language(tracer: Tracer, args, result) -> dict[str, int]:
    key = (args[0], args[1])
    if key in tracer._language_seen:
        return {"language.repeats": 1}
    tracer._language_seen.add(key)
    return {}


COUNTERS = {
    "substitution.letter_images": _letter_images,
    "substitution.language": _language,
    "odometer.lift_state": lambda tracer, args, result: {
        "lift_state.survivors": len(result.survivors)
    },
    "oracles.extensions": lambda tracer, args, result: {"extensions.windows": len(result)},
    "oracles.sensitivity_scan": lambda tracer, args, result: {"cylinders_scanned": len(result)},
    "oracles.block_sensitivity_scan": lambda tracer, args, result: {"cylinders_scanned": len(result)},
    "certificates.replay": lambda tracer, args, result: {"replay.checks": result.checks},
}
