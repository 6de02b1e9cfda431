"""Serialization and search-free replay of witness certificates.

A certificate is a JSON document whose payload suffices to re-verify the
claimed inequalities using window operations alone: shifting, comparing, and
checking agreement radii.  Replay never consults a language table and never
searches; it either reproduces every claimed scale condition or fails.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

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


def _windows(items: list[str]) -> list[CenteredWord]:
    return [CenteredWord.parse(t) for t in items]


def _shifted(
    windows: list[CenteredWord], g: int, failures: list[str], label: str
) -> list[CenteredWord | None]:
    """Each window shifted by g, or None, with a failure, where the window does not hold g."""
    for i, w in enumerate(windows):
        if not w.covers(g, g):
            failures.append(f"{label}: window {i} does not hold the shift {g}")
    return [shift_window(w, g) if w.covers(g, g) else None for w in windows]


def _check_separated_tuple(
    windows: list[CenteredWord], g: int, K: int, failures: list[str], label: str
) -> int:
    checks = 0
    shifted = _shifted(windows, g, failures, label)
    for i in range(len(shifted)):
        for j in range(i + 1, len(shifted)):
            if shifted[i] is None or shifted[j] is None:
                continue
            checks += 1
            d = scale_of_difference(shifted[i], shifted[j])
            if d is None or d > K:
                failures.append(f"{label}: pair ({i},{j}) not separated at shift {g}")
    return checks


def _check_tuple_size(windows: list[CenteredWord], m: int, failures: list[str], label: str) -> int:
    if len(windows) != m:
        failures.append(f"{label}: {len(windows)} windows for a claimed tuple size m={m}")
    return 1


def _check_cylinder(windows: list[CenteredWord], cylinder: str, failures: list[str]) -> int:
    half = len(cylinder) // 2
    for idx, w in enumerate(windows):
        if not w.covers(-half, half) or w.central(half) != cylinder:
            failures.append(f"window {idx} does not carry the cylinder {cylinder!r}")
    return len(windows)


def _replay_sensitivity_entry(
    entry: dict, m: int, K: int, failures: list[str], B: int | None = None
) -> int:
    """Replay one cylinder entry or stage; ``B`` is the block kind's half-length."""
    windows = _windows(entry["windows"])
    cylinder = entry["cylinder"]
    checks = _check_tuple_size(windows, m, failures, f"cylinder {cylinder!r}")
    checks += _check_cylinder(windows, cylinder, failures)
    block_half = entry.get("block_half")
    if B is not None:
        checks += 1
        if block_half != B:
            failures.append(f"cylinder {cylinder!r}: block half-length {block_half!r} != B={B}")
    g = entry["shift"]
    if block_half is None:
        checks += _check_separated_tuple(windows, g, K, failures, f"cylinder {cylinder!r}")
    else:
        # a negative half-length leaves no shift to check, which would prove nothing
        checks += 1
        if block_half < 0:
            failures.append(f"cylinder {cylinder!r}: negative block half-length {block_half}")
        for t in range(g - block_half, g + block_half + 1):
            checks += _check_separated_tuple(windows, t, K, failures, f"cylinder {cylinder!r}")
    return checks + _check_scale_matrix(windows, g, entry.get("scale_matrix") or [], failures)


def _check_scale_matrix(
    windows: list[CenteredWord], g: int, matrix: list[list], failures: list[str]
) -> int:
    """Each off-diagonal entry is the pair's first difference at shift g.

    The matrix must be m x m, m = len(windows), with a null diagonal; a
    matrix of another shape fails without its entries being compared.
    """
    m = len(windows)
    shape = [len(row) for row in matrix]
    if shape != [m] * m:
        failures.append(f"scale matrix has row lengths {shape}, not {m} x {m}")
        return 1
    diagonal = [matrix[i][i] for i in range(m)]
    if diagonal != [None] * m:
        failures.append(f"scale matrix diagonal {diagonal} is not null")
    checks = 2
    shifted = _shifted(windows, g, failures, "scale matrix")
    for i, row in enumerate(matrix):
        for j, claimed in enumerate(row):
            if i == j or shifted[i] is None or shifted[j] is None:
                continue
            checks += 1
            got = scale_of_difference(shifted[i], shifted[j])
            if got != claimed:
                failures.append(f"scale matrix mismatch at ({i},{j}): {got} != {claimed}")
    return checks


def _check_cylinder_radius(cylinder: str, W: int, failures: list[str], label: str) -> int:
    if len(cylinder) != 2 * W + 1:
        failures.append(f"{label}: cylinder length {len(cylinder)}, not 2W+1 = {2 * W + 1}")
    return 1


def _replay_point_counterexample(doc: dict, failures: list[str]) -> int:
    """Stages at the budget's ladder radii, each on the point's central word there."""
    point, stages = doc["point"], doc["stages"]
    radii = [stage["delta_radius"] for stage in stages]
    ladder = doc["budget"]["ladder"]
    checks = 1
    if radii != ladder:
        failures.append(f"stage radii {radii} are not the budget ladder {ladder}")
    half = len(point) // 2
    for stage in stages:
        W, cylinder = stage["delta_radius"], stage["cylinder"]
        label = f"stage W={W}"
        checks += _check_cylinder_radius(cylinder, W, failures, label)
        checks += 1
        if W > half or point[half - W : half + W + 1] != cylinder:
            failures.append(f"{label}: cylinder {cylinder!r} is not the point read at radius {W}")
        checks += _replay_sensitivity_entry(stage, doc["m"], doc["K"], failures)
    return checks


def _replay_cover_falsified(doc: dict, failures: list[str]) -> int:
    m, K, B = doc["m"], doc["K"], doc["B"]
    checks = 1
    if B < 0:
        failures.append(f"negative block half-length B={B}")
    for stage in doc["stages"]:
        windows = _windows(stage["windows"])
        W, start = stage["delta_radius"], stage["gap_start"]
        label = f"gap stage W={W}"
        checks += _check_tuple_size(windows, m, failures, label)
        checks += _check_cylinder_radius(stage["cylinder"], W, failures, label)
        checks += _check_cylinder(windows, stage["cylinder"], failures)
        checks += 2
        gap = stage["gap_end"] - start + 1
        if gap != 2 * B + 2:
            failures.append(f"{label}: gap length {gap}, not 2B+2 = {2 * B + 2}")
        if stage["shift"] != start:
            failures.append(f"{label}: shift {stage['shift']} is not the gap start {start}")
        for t in range(start, stage["gap_end"] + 1):
            checks += _check_separated_tuple(windows, t, K, failures, label)
        checks += _check_scale_matrix(windows, start, stage["scale_matrix"], failures)
    return checks


def replay(doc: dict) -> ReplayResult:
    """Re-verify a certificate's inequalities; no search, windows only.

    A document that lacks a field its kind needs, or holds a value of the
    wrong type in one, raises ValueError.
    """
    failures: list[str] = []
    try:
        checks = _replay_kind(doc, failures)
    except KeyError as e:
        raise ValueError(f"malformed certificate: missing field {e.args[0]!r}") from None
    except (TypeError, AttributeError) as e:
        raise ValueError(f"malformed certificate: {e}") from None
    return ReplayResult(not failures, checks, tuple(failures))


def _replay_sensitivity(doc: dict, failures: list[str]) -> int:
    B = doc["B"] if doc["kind"] == "block-m-sensitivity" else None
    return sum(
        _replay_sensitivity_entry(entry, doc["m"], doc["K"], failures, B)
        for entry in doc["cylinders"]
    )


_REPLAYERS = {
    "m-sensitivity": _replay_sensitivity,
    "block-m-sensitivity": _replay_sensitivity,
    "eq-point-counterexample": _replay_point_counterexample,
    "cover-falsified": _replay_cover_falsified,
    # universal claim: the payload is a summary, nothing to replay
    "cover-witness": lambda doc, failures: 0,
}


def _replay_kind(doc: dict, failures: list[str]) -> int:
    kind = doc["kind"]
    if kind not in _REPLAYERS:
        raise ValueError(f"unknown certificate kind: {kind!r}")
    # a scale 2^-K with K < 0 compares no position, so a claim at it proves nothing
    if doc["K"] < 0:
        failures.append(f"negative scale exponent K={doc['K']}")
    return 1 + _REPLAYERS[kind](doc, failures)
