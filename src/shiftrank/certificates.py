"""Serialization and search-free replay of witness certificates.

A certificate is a JSON document whose payload suffices to re-verify the
claimed inequalities using window operations alone: shifting, comparing, and
checking agreement radii.  Replay never consults a language table and never
searches; it either reproduces every claimed scale condition or fails.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

from .words import CenteredWord, scale_of_difference, shift_window

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ReplayResult:
    ok: bool
    checks: int
    failures: tuple[str, ...]

    def summary(self) -> str:
        state = "ok" if self.ok else "FAILED"
        return f"replay {state}: {self.checks} checks, {len(self.failures)} failures"


def certificate_json(payload: dict) -> str:
    """Canonical JSON for a certificate: schema-tagged, sorted, timestamp-free."""
    doc = {"schema": SCHEMA_VERSION, **payload}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def load_certificate(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"malformed certificate: {e}") from None
    if not isinstance(doc, dict):
        raise ValueError("malformed certificate: not a JSON object")
    if doc.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported certificate schema: {doc.get('schema')!r}")
    return doc


class _Ledger:
    """A replay's check count and the reasons of the checks that failed."""

    def __init__(self) -> None:
        self.checks = 0
        self.failures: list[str] = []

    def check(self, ok: bool, reason: str, *args) -> bool:
        """Count one check; a failed one records ``reason.format(*args)``.

        The reason is formatted only on failure, so the per-pair loops build
        no text for a check that passes.
        """
        self.checks += 1
        if not ok:
            self.failures.append(reason.format(*args))
        return ok


def _holding(windows: list[CenteredWord], g: int, ledger: _Ledger, label: str) -> list[bool]:
    """Whether each window holds the shift g.

    A window short of g is a failure but not a check: the pairs it belongs
    to are skipped at g, not counted.
    """
    held = [w.covers(g, g) for w in windows]
    for i, ok in enumerate(held):
        if not ok:
            ledger.failures.append(f"{label}: window {i} does not hold the shift {g}")
    return held


def _shifted(
    windows: list[CenteredWord], g: int, ledger: _Ledger, label: str
) -> list[CenteredWord | None]:
    """Each window shifted by g, or None where the window does not hold g (``_holding``)."""
    held = _holding(windows, g, ledger, label)
    return [shift_window(w, g) if ok else None for w, ok in zip(windows, held)]


def _separated_at(a: CenteredWord, b: CenteredWord, g: int, K: int) -> bool:
    """Whether the pair differs within K of the shift g: its symbols on the overlap near g.

    The points shifted by g differ at some |n| <= K of their overlap exactly
    when the windows differ somewhere on [max(lefts, g - K), min(rights,
    g + K)], so this is ``scale_of_difference`` of the shifted pair being at
    most K, without shifting or bisecting.
    """
    lo = max(a.left, b.left, g - K)
    hi = min(a.right, b.right, g + K)
    if lo > hi:  # the windows both hold g, so only K < 0 leaves nothing to compare
        return False
    return a.symbols[lo - a.left : hi - a.left + 1] != b.symbols[lo - b.left : hi - b.left + 1]


def _replay_entry(entry: dict, m: int, K: int, shifts, ledger: _Ledger) -> None:
    """Replay one tuple: an entry of a sensitivity kind or a stage of a ladder kind.

    The entry holds ``m`` windows, each carries the entry's cylinder
    centrally, every pair differs within ``K`` of each shift in ``shifts``,
    and the scale matrix is reproduced at the entry's own ``shift``.
    """
    windows = [CenteredWord.parse(t) for t in entry["windows"]]
    cylinder = entry["cylinder"]
    label = f"cylinder {cylinder!r}"
    size = len(windows)
    ledger.check(size == m, "{}: {} windows for a claimed tuple size m={}", label, size, m)
    half = len(cylinder) // 2
    for i, w in enumerate(windows):
        ok = w.covers(-half, half) and w.central(half) == cylinder
        ledger.check(ok, "window {} does not carry the cylinder {!r}", i, cylinder)
    reason = "{}: pair ({},{}) not separated at shift {}"
    for g in shifts:
        held = _holding(windows, g, ledger, label)
        for (i, a), (j, b) in combinations(enumerate(windows), 2):
            if held[i] and held[j]:
                ledger.check(_separated_at(a, b, g, K), reason, label, i, j, g)
    _replay_scale_matrix(windows, entry["shift"], entry["scale_matrix"], ledger)


def _replay_scale_matrix(
    windows: list[CenteredWord], g: int, matrix: list[list], ledger: _Ledger
) -> None:
    """Each off-diagonal entry is the pair's first difference at shift g.

    The matrix must be m x m, m = len(windows), with a null diagonal; a
    matrix of another shape fails without its entries being compared.  The
    first difference is symmetric, so each pair's is computed once and both
    of its entries are checked against it.
    """
    m = len(windows)
    shape = [len(row) for row in matrix]
    reason = "scale matrix has row lengths {}, not {} x {}"
    if not ledger.check(shape == [m] * m, reason, shape, m, m):
        return
    diagonal = [matrix[i][i] for i in range(m)]
    ledger.check(diagonal == [None] * m, "scale matrix diagonal {} is not null", diagonal)
    shifted = _shifted(windows, g, ledger, "scale matrix")
    held = [i for i, w in enumerate(shifted) if w is not None]
    scales = {}
    for i, j in combinations(held, 2):
        scales[i, j] = scales[j, i] = scale_of_difference(shifted[i], shifted[j])
    reason = "scale matrix mismatch at ({},{}): {} != {}"
    for i, row in enumerate(matrix):
        for j, claimed in enumerate(row):
            if (i, j) in scales:
                ledger.check(scales[i, j] == claimed, reason, i, j, scales[i, j], claimed)


def _replay_ladder(doc: dict, point: str, ledger: _Ledger) -> None:
    """Stages at the budget's ladder radii, each on the base point's central word there."""
    radii = [stage["delta_radius"] for stage in doc["stages"]]
    ladder = doc["budget"]["ladder"]
    ledger.check(radii == ladder, "stage radii {} are not the budget ladder {}", radii, ladder)
    half = len(point) // 2
    for W, stage in zip(radii, doc["stages"]):
        cylinder = stage["cylinder"]
        reason = "stage W={}: cylinder length {}, not 2W+1 = {}"
        ledger.check(len(cylinder) == 2 * W + 1, reason, W, len(cylinder), 2 * W + 1)
        read = W <= half and point[half - W : half + W + 1] == cylinder
        reason = "stage W={}: cylinder {!r} is not the point read at radius {}"
        ledger.check(read, reason, W, cylinder, W)


def _replay_sensitivity(doc: dict, ledger: _Ledger) -> None:
    for entry in doc["cylinders"]:
        _replay_entry(entry, doc["m"], doc["K"], (entry["shift"],), ledger)


def _replay_block_sensitivity(doc: dict, ledger: _Ledger) -> None:
    B = doc["B"]
    for entry in doc["cylinders"]:
        label, g = f"cylinder {entry['cylinder']!r}", entry["shift"]
        half = entry["block_half"]
        ledger.check(half == B, "{}: block half-length {!r} != B={}", label, half, B)
        # a negative half-length leaves no shift to check, which would prove nothing
        ledger.check(B >= 0, "{}: negative block half-length {}", label, B)
        _replay_entry(entry, doc["m"], doc["K"], range(g - B, g + B + 1), ledger)


def _replay_point_counterexample(doc: dict, ledger: _Ledger) -> None:
    _replay_ladder(doc, doc["point"], ledger)
    for stage in doc["stages"]:
        _replay_entry(stage, doc["m"], doc["K"], (stage["shift"],), ledger)


def _replay_cover_falsified(doc: dict, ledger: _Ledger) -> None:
    B, stages = doc["B"], doc["stages"]
    # a gap of 2B + 2 < 2 shifts holds no shift at which to compare a pair
    ledger.check(B >= 0, "negative block half-length B={}", B)
    # the document records no point: its largest-radius stage reads the base point
    top = max(stages, key=lambda stage: stage["delta_radius"], default={"cylinder": ""})
    _replay_ladder(doc, top["cylinder"], ledger)
    for stage in stages:
        W, start, end = stage["delta_radius"], stage["gap_start"], stage["gap_end"]
        gap = end - start + 1
        reason = "gap stage W={}: gap length {}, not 2B+2 = {}"
        ledger.check(gap == 2 * B + 2, reason, W, gap, 2 * B + 2)
        reason = "gap stage W={}: shift {} is not the gap start {}"
        ledger.check(stage["shift"] == start, reason, W, stage["shift"], start)
        _replay_entry(stage, doc["m"], doc["K"], range(start, end + 1), ledger)


def replay(doc: dict) -> ReplayResult:
    """Re-verify a certificate's inequalities; no search, windows only.

    A document that lacks a field its kind needs, or holds a value of the
    wrong type in one, raises ValueError.
    """
    ledger = _Ledger()
    try:
        _replay_kind(doc, ledger)
    except KeyError as e:
        raise ValueError(f"malformed certificate: missing field {e.args[0]!r}") from None
    except (TypeError, AttributeError) as e:
        raise ValueError(f"malformed certificate: {e}") from None
    return ReplayResult(not ledger.failures, ledger.checks, tuple(ledger.failures))


_REPLAYERS = {
    "m-sensitivity": _replay_sensitivity,
    "block-m-sensitivity": _replay_block_sensitivity,
    "eq-point-counterexample": _replay_point_counterexample,
    "cover-falsified": _replay_cover_falsified,
    # universal claim: the payload is a summary, nothing to replay
    "cover-witness": lambda doc, ledger: None,
}


def _replay_kind(doc: dict, ledger: _Ledger) -> None:
    kind = doc["kind"]
    if kind not in _REPLAYERS:
        raise ValueError(f"unknown certificate kind: {kind!r}")
    # a scale 2^-K with K < 0 compares no position, so a claim at it proves nothing
    ledger.check(doc["K"] >= 0, "negative scale exponent K={}", doc["K"])
    _REPLAYERS[kind](doc, ledger)
