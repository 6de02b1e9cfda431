"""Certificate serialization and search-free replay."""

import json

import pytest
from hypothesis import example, given, strategies as st

from shiftrank import certificates
from shiftrank.certificates import (
    _REPLAYERS,
    _separated_at,
    certificate_json,
    load_certificate,
    replay,
)
from shiftrank.oracles import (
    SearchBudget,
    block_m_sensitivity_test,
    cover_m_equicontinuity_test,
    m_equicontinuity_point_test,
    m_sensitivity_test,
)
from shiftrank.substitution import Substitution, SubstitutionSystem
from shiftrank.words import CenteredWord, scale_of_difference, shift_window

TM_SYS = SubstitutionSystem("thue-morse", Substitution(("01", "10")))


def roundtrip(payload: dict) -> dict:
    return load_certificate(certificate_json(payload))


def test_schema_tag_enforced():
    doc = json.loads(certificate_json({"kind": "cover-witness"}))
    assert doc["schema"] == 1
    with pytest.raises(ValueError):
        load_certificate(json.dumps({"schema": 99, "kind": "cover-witness"}))


def test_sensitivity_certificate_replays():
    report = m_sensitivity_test(TM_SYS, 3, 2, SearchBudget(L=2, N=128, K=2))
    assert report.aggregate.witnessed
    doc = roundtrip(report.aggregate.certificate)
    result = replay(doc)
    assert result.ok, result.failures
    assert result.checks > 0


def test_block_certificate_replays():
    report = block_m_sensitivity_test(TM_SYS, 2, 1, 8, SearchBudget(L=2, N=128, K=1, B=8))
    assert report.aggregate.witnessed
    result = replay(roundtrip(report.aggregate.certificate))
    assert result.ok, result.failures


def test_point_counterexample_replays():
    budget = SearchBudget(L=2, N=128, K=2, ladder=(1, 2))
    x = TM_SYS.point_window(TM_SYS.seed_points()[0], budget.N + budget.K + 2)
    v = m_equicontinuity_point_test(TM_SYS, x, 3, 2, budget)
    assert v.witnessed
    assert replay(roundtrip(v.certificate)).ok


def test_tampered_certificate_fails_replay():
    report = m_sensitivity_test(TM_SYS, 2, 2, SearchBudget(L=2, N=64, K=2))
    cert = json.loads(certificate_json(report.aggregate.certificate))
    entry = cert["cylinders"][0]
    entry["shift"] = entry["shift"] + 1000  # move the witness outside its window
    result = replay(cert)
    assert not result.ok
    assert "window 0 does not hold the shift" in result.failures[0]


def test_flipped_window_fails_replay():
    report = m_sensitivity_test(TM_SYS, 2, 2, SearchBudget(L=2, N=64, K=2))
    cert = json.loads(certificate_json(report.aggregate.certificate))
    entry = cert["cylinders"][0]
    # duplicate one window: the pair is no longer separated
    entry["windows"][1] = entry["windows"][0]
    result = replay(cert)
    assert not result.ok


TUPLE_BUDGET = SearchBudget(L=2, N=64, K=2, B=8, ladder=(1, 2))


def _tm_point():
    return TM_SYS.point_window(TM_SYS.seed_points()[0], 64 + 8 + 2 + 3)


TUPLE_CERTIFICATES = pytest.mark.parametrize(
    "make",
    [
        lambda: m_sensitivity_test(TM_SYS, 3, 2, TUPLE_BUDGET).aggregate.certificate,
        lambda: block_m_sensitivity_test(TM_SYS, 2, 1, 8, TUPLE_BUDGET).aggregate.certificate,
        lambda: m_equicontinuity_point_test(TM_SYS, _tm_point(), 3, 2, TUPLE_BUDGET).certificate,
        lambda: cover_m_equicontinuity_test(TM_SYS, _tm_point(), 2, 2, TUPLE_BUDGET).certificate,
    ],
    ids=["m-sensitivity", "block-m-sensitivity", "eq-point-counterexample", "cover-falsified"],
)


@TUPLE_CERTIFICATES
def test_claimed_tuple_size_is_checked(make):
    cert = roundtrip(make())
    assert replay(cert).ok
    cert["m"] = 5  # claim a larger tuple than the entries carry
    result = replay(cert)
    assert not result.ok
    assert "windows for a claimed tuple size m=5" in result.failures[0]


@TUPLE_CERTIFICATES
def test_negative_scale_exponent_fails_replay(make):
    # 2^-K with K < 0 compares no position, so a claim at that scale proves nothing
    cert = roundtrip(make())
    assert replay(cert).ok
    cert["K"] = -1
    result = replay(cert)
    assert not result.ok
    assert "negative scale exponent K=-1" in result.failures[0]


@TUPLE_CERTIFICATES
def test_replay_computes_each_pairs_first_difference_once(make, monkeypatch):
    calls = 0

    def counted(a, b):
        nonlocal calls
        calls += 1
        return scale_of_difference(a, b)

    monkeypatch.setattr(certificates, "scale_of_difference", counted)
    cert = roundtrip(make())
    assert replay(cert).ok
    entries = cert.get("stages") or cert["cylinders"]
    assert calls == sum(len(e["windows"]) * (len(e["windows"]) - 1) // 2 for e in entries) > 0


def test_every_kind_requires_a_non_negative_scale_exponent():
    for kind in _REPLAYERS:
        with pytest.raises(ValueError):
            replay({"kind": kind})  # K is required
    result = replay({"kind": "cover-witness", "K": -1})
    assert result.failures == ("negative scale exponent K=-1",)


def _tm_cover_falsified(shift: int = 0) -> dict:
    budget = SearchBudget()
    x = TM_SYS.point_window(TM_SYS.seed_points()[0], max(budget.ladder), shift=shift)
    return cover_m_equicontinuity_test(TM_SYS, x, 2, budget.K, budget).certificate


def _tm_point_counterexample() -> dict:
    budget = SearchBudget()
    x = TM_SYS.point_window(TM_SYS.seed_points()[0], max(budget.ladder))
    return m_equicontinuity_point_test(TM_SYS, x, 3, budget.K, budget).certificate


def _tm_block() -> dict:
    return block_m_sensitivity_test(TM_SYS, 2, 1, 8, SearchBudget()).aggregate.certificate


def _tm_sensitivity() -> dict:
    return m_sensitivity_test(TM_SYS, 2, 2, SearchBudget(N=16)).aggregate.certificate


def _one_symbol_first_windows(cert: dict) -> None:
    # a window on [0, 0] holds neither the cylinder nor any nonzero shift
    for entry in cert.get("stages") or cert["cylinders"]:
        entry["windows"][0] = "offset:left=0 word=0"


def _far_shifts(cert: dict) -> None:
    for entry in cert["cylinders"]:
        entry["shift"] = 100000


def _one_shift_gaps(cert: dict) -> None:
    for stage in cert["stages"]:
        stage["gap_end"] = stage["gap_start"]


def _foreign_cylinder(cert: dict) -> None:
    cert["stages"][0]["cylinder"] = "000"


def _zero_block_halves(cert: dict) -> None:
    for entry in cert["cylinders"]:
        entry["block_half"] = 0


def _stage_zero_at_every_radius(cert: dict) -> None:
    # the radius-1 counterexample, passed off as one for every ladder radius
    for stage in cert["stages"][1:]:
        stage.update({**cert["stages"][0], "delta_radius": stage["delta_radius"]})


def _stage_zero_everywhere(cert: dict) -> None:
    cert["stages"] = [dict(cert["stages"][0]) for _ in cert["stages"]]


def _no_stages(cert: dict) -> None:
    cert["stages"] = []


def _first_stage_only(cert: dict) -> None:
    del cert["stages"][1:]


def _w2_stage_of_the_next_seed_shift(cert: dict) -> None:
    # a genuine W=2 stage, but around the point shifted by one: cylinder 00110, not 10011
    cert["stages"][1] = roundtrip(_tm_cover_falsified(shift=1))["stages"][1]


def _radius_one_cylinder_at_w2(cert: dict) -> None:
    # the W=2 stage claims the radius-1 cylinder, which its windows do carry
    cert["stages"][1]["cylinder"] = cert["stages"][0]["cylinder"]


def _later_scale_matrices(cert: dict) -> None:
    # the genuine matrices are [[None, 0], [0, None]]: a difference at 0
    for stage in cert["stages"]:
        stage["scale_matrix"] = [[None, 2], [2, None]]


def _moved_shifts(cert: dict) -> None:
    for stage in cert["stages"]:
        stage["shift"] += 1


def _negative_block_halves(cert: dict) -> None:
    # B = -1 spans no shift, so no pair is ever compared
    cert["B"] = -1
    for entry in cert["cylinders"]:
        entry["block_half"] = -1


def _empty_gaps(cert: dict) -> None:
    # B = -1 makes 2B+2 = 0: a gap of no shifts
    cert["B"] = -1
    for stage in cert["stages"]:
        stage["gap_end"] = stage["gap_start"] - 1


def _scale_matrices(matrix: list):
    def forge(cert: dict) -> None:
        for entry in cert.get("stages") or cert["cylinders"]:
            entry["scale_matrix"] = matrix

    return forge


@pytest.mark.parametrize(
    "make, forge, reason",
    [
        (_tm_cover_falsified, _one_shift_gaps, "gap length 1, not 2B+2 = 18"),
        (_tm_cover_falsified, _foreign_cylinder, "does not carry the cylinder '000'"),
        (_tm_block, _zero_block_halves, "block half-length 0 != B=8"),
        (
            _tm_point_counterexample,
            _stage_zero_at_every_radius,
            "stage W=2: cylinder '001' is not the point read at radius 2",
        ),
        (
            _tm_point_counterexample,
            _stage_zero_at_every_radius,
            "stage W=8: cylinder length 3, not 2W+1 = 17",
        ),
        (
            _tm_point_counterexample,
            _stage_zero_everywhere,
            "stage radii [1, 1, 1, 1] are not the budget ladder [1, 2, 4, 8]",
        ),
        (
            _tm_cover_falsified,
            _stage_zero_everywhere,
            "stage radii [1, 1, 1, 1] are not the budget ladder [1, 2, 4, 8]",
        ),
        (_tm_cover_falsified, _no_stages, "stage radii [] are not the budget ladder [1, 2, 4, 8]"),
        (_tm_cover_falsified, _first_stage_only, "stage radii [1] are not the budget ladder"),
        (
            _tm_cover_falsified,
            _w2_stage_of_the_next_seed_shift,
            "stage W=2: cylinder '00110' is not the point read at radius 2",
        ),
        (_tm_cover_falsified, _radius_one_cylinder_at_w2, "cylinder length 3, not 2W+1 = 5"),
        (_tm_cover_falsified, _later_scale_matrices, "scale matrix mismatch at (0,1): 0 != 2"),
        (_tm_cover_falsified, _moved_shifts, "is not the gap start"),
        (_tm_block, _negative_block_halves, "negative block half-length -1"),
        (_tm_cover_falsified, _empty_gaps, "negative block half-length B=-1"),
        (_tm_cover_falsified, _scale_matrices([]), "row lengths [], not 2 x 2"),
        (_tm_block, _scale_matrices([[None]]), "row lengths [1], not 2 x 2"),
        (
            _tm_cover_falsified,
            _scale_matrices([[None] * 3] * 3),
            "row lengths [3, 3, 3], not 2 x 2",
        ),
        (
            _tm_cover_falsified,
            _scale_matrices([[0, 0], [0, None]]),
            "diagonal [0, None] is not null",
        ),
        (_tm_sensitivity, _one_symbol_first_windows, "window 0 does not carry the cylinder"),
        (_tm_sensitivity, _one_symbol_first_windows, ": window 0 does not hold the shift"),
        (_tm_sensitivity, _far_shifts, "window 1 does not hold the shift 100000"),
        (_tm_block, _far_shifts, "scale matrix: window 0 does not hold the shift 100000"),
        (_tm_point_counterexample, _one_symbol_first_windows, "does not carry the cylinder"),
        (_tm_cover_falsified, _one_symbol_first_windows, "window 0 does not hold the shift"),
    ],
    ids=[
        "cover-gap-length",
        "cover-cylinder",
        "block-half-length",
        "point-stage-on-point",
        "point-stage-radius",
        "point-ladder",
        "cover-ladder",
        "cover-no-stages",
        "cover-first-stage-only",
        "cover-stage-off-the-point",
        "cover-stage-radius",
        "cover-scale-matrix",
        "cover-shift",
        "block-negative-half-length",
        "cover-negative-B",
        "cover-empty-scale-matrix",
        "block-1x1-scale-matrix",
        "cover-3x3-scale-matrix",
        "cover-scale-matrix-diagonal",
        "sensitivity-window-short-of-cylinder",
        "sensitivity-window-short-of-shift",
        "sensitivity-shift-outside-windows",
        "block-shift-outside-windows",
        "point-window-short-of-cylinder",
        "cover-window-short-of-gap",
    ],
)
def test_forged_run_lengths_and_cylinders_fail_replay(make, forge, reason):
    cert = roundtrip(make())
    assert replay(cert).ok
    forge(cert)
    result = replay(cert)
    assert not result.ok
    assert any(reason in failure for failure in result.failures), result.failures


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        replay({"kind": "no-such-kind"})


def test_canonical_json_is_deterministic():
    report = m_sensitivity_test(TM_SYS, 2, 2, SearchBudget(L=2, N=64, K=2))
    a = certificate_json(report.aggregate.certificate)
    b = certificate_json(
        m_sensitivity_test(TM_SYS, 2, 2, SearchBudget(L=2, N=64, K=2)).aggregate.certificate
    )
    assert a == b


@st.composite
def pairs_holding_a_shift(draw):
    """Two windows of independent lefts and lengths over a common word, edited, a shift both hold, and K.

    The windows overlap in part, at least at the origin, and the edits land
    anywhere in their union, so a difference may fall inside the overlap
    near the shift, beyond K of it, or outside the overlap.
    """
    left_a, left_b = draw(st.integers(-12, 0)), draw(st.integers(-12, 0))
    right_a, right_b = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    lo, hi = min(left_a, left_b), max(right_a, right_b)
    base = draw(st.text(alphabet="01", min_size=hi - lo + 1, max_size=hi - lo + 1))
    edited = list(base)
    for n in draw(st.lists(st.integers(lo, hi), max_size=3)):
        edited[n - lo] = "1" if edited[n - lo] == "0" else "0"
    a = CenteredWord(base[left_a - lo : right_a - lo + 1], left_a)
    b = CenteredWord("".join(edited)[left_b - lo : right_b - lo + 1], left_b)
    g = draw(st.integers(max(left_a, left_b), min(right_a, right_b)))
    return a, b, g, draw(st.integers(0, 4))


@given(pairs_holding_a_shift())
@example((CenteredWord("0110", -1), CenteredWord("1011", -2), 1, 0))  # K = 0, equal at g
@example((CenteredWord("0110", -1), CenteredWord("1010", -2), 1, 0))  # K = 0, differing at g
@example((CenteredWord("000", -1), CenteredWord("00001", -2), 0, 1))  # differing beyond the overlap
def test_replay_separation_is_the_shifted_scale(case):
    a, b, g, K = case
    d = scale_of_difference(shift_window(a, g), shift_window(b, g))
    assert _separated_at(a, b, g, K) == (d is not None and d <= K)
