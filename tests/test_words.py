"""Window metric and shift action: examples plus metric laws."""

import pytest
from hypothesis import example, given, strategies as st

from shiftrank.words import (
    CenteredWord,
    scale_of_difference,
    shift_window,
    shifts,
)


def tm_prefix(n: int) -> str:
    w = "0"
    while len(w) < n:
        w = "".join("01" if c == "0" else "10" for c in w)
    return w[:n]


def test_difference_at_origin_is_scale_zero():
    a = CenteredWord("010", -1)
    b = CenteredWord("000", -1)
    assert scale_of_difference(a, b) == 0


def test_thue_morse_windows_differ_first_at_plus_one():
    # centered at index 3 of each word: coordinates -3..3
    a = CenteredWord("0110100", -3)
    b = CenteredWord("0110010", -3)
    # direct scan: differences at +1 and +2 only
    diffs = [n for n in range(-3, 4) if a.segment(n, n) != b.segment(n, n)]
    assert min(abs(n) for n in diffs) == 1
    assert scale_of_difference(a, b) == 1


def test_shift_window_relabels_coordinates():
    w = CenteredWord("01", 0)
    s = shift_window(w, 1)
    assert s.left == -1 and s.symbols == "01"
    assert s.segment(0, 0) == w.segment(1, 1)
    assert shift_window(w, 0) == w


def test_shift_roundtrip_on_thue_morse_window():
    w = CenteredWord(tm_prefix(17), -8)
    for g in range(-8, 9):
        assert shift_window(shift_window(w, g), -g) == w


def test_shift_outside_window_rejected():
    w = CenteredWord("01", 0)
    with pytest.raises(ValueError):
        shift_window(w, 2)


def test_serialization_roundtrip():
    w = CenteredWord("0110100", -3)
    assert w.serialize() == "offset:left=-3 word=0110100"
    assert CenteredWord.parse(w.serialize()) == w


windows = st.integers(2, 12).flatmap(
    lambda n: st.tuples(
        st.text(alphabet="01", min_size=n, max_size=n),
        st.integers(-(n - 1), 0),
    ).map(lambda t: CenteredWord(t[0], t[1]))
)


@given(windows, windows)
def test_scale_is_symmetric(a, b):
    assert scale_of_difference(a, b) == scale_of_difference(b, a)


@given(st.data())
def test_ultrametric_inequality(data):
    n = data.draw(st.integers(3, 9))
    words = [data.draw(st.text(alphabet="01", min_size=2 * n + 1, max_size=2 * n + 1)) for _ in range(3)]
    a, b, c = (CenteredWord(w, -n) for w in words)
    sab = scale_of_difference(a, b)
    sbc = scale_of_difference(b, c)
    sac = scale_of_difference(a, c)
    if sab is not None and sbc is not None and sac is not None:
        assert sac >= min(sab, sbc)


shifted_pairs = st.integers(4, 9).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(-2, 2),
        st.text(alphabet="01", min_size=2 * n + 1, max_size=2 * n + 1),
        st.text(alphabet="01", min_size=2 * n + 1, max_size=2 * n + 1),
    )
)


@given(shifted_pairs)
@example((4, -1, "010010000", "010010001"))  # only difference beyond the overlap radius
def test_scale_commutes_with_common_shift(case):
    n, g, wa, wb = case
    a, b = CenteredWord(wa, -n), CenteredWord(wb, -n)
    sa, sb = shift_window(a, g), shift_window(b, g)
    # scanning the full overlap of the shifted pair reproduces the scan of
    # the originals about the shifted origin
    direct = min(
        (
            abs(m)
            for m in range(sa.left, sa.right + 1)
            if a.segment(m + g, m + g) != b.segment(m + g, m + g)
        ),
        default=None,
    )
    assert scale_of_difference(sa, sb) == direct


def test_shifts_order_deterministic():
    assert list(shifts(3)) == [0, 1, -1, 2, -2, 3, -3]


def _scan_every_coordinate(a: CenteredWord, b: CenteredWord) -> int | None:
    """Reference: the per-coordinate scan of the whole overlap."""
    best = None
    for n in range(max(a.left, b.left), min(a.right, b.right) + 1):
        if a.segment(n, n) != b.segment(n, n):
            if best is None or abs(n) < best:
                best = abs(n)
    return best


@st.composite
def overlapping_pairs(draw):
    """Two windows over a common sequence, with edits at chosen coordinates.

    The windows reach independently far on each side, so overlaps are
    asymmetric; edits land anywhere in the overlap, beyond the symmetric
    radius included, and optionally on both n and -n.
    """
    left_a, left_b = draw(st.integers(-40, 0)), draw(st.integers(-40, 0))
    right_a, right_b = draw(st.integers(0, 40)), draw(st.integers(0, 40))
    lo, hi = min(left_a, left_b), max(right_a, right_b)
    base = draw(st.text(alphabet="012", min_size=hi - lo + 1, max_size=hi - lo + 1))
    edited = list(base)
    ov_lo, ov_hi = max(left_a, left_b), min(right_a, right_b)
    for n in draw(st.lists(st.integers(ov_lo, ov_hi), max_size=3)):
        mirrored = [n, -n] if draw(st.booleans()) and ov_lo <= -n <= ov_hi else [n]
        for k in mirrored:
            edited[k - lo] = "012"[("012".index(edited[k - lo]) + 1) % 3]
    edited = "".join(edited)
    a = CenteredWord(base[left_a - lo : right_a - lo + 1], left_a)
    b = CenteredWord(edited[left_b - lo : right_b - lo + 1], left_b)
    return a, b


@given(overlapping_pairs())
@example((CenteredWord("0000000", -1), CenteredWord("0000001", -1)))  # only beyond radius 1
@example((CenteredWord("1000001", -3), CenteredWord("0000000", -3)))  # |n| = 3 on both sides
@example((CenteredWord("0100", -2), CenteredWord("0000", -2)))  # left side only
@example((CenteredWord("0", 0), CenteredWord("1", 0)))  # one-symbol overlap
@example((CenteredWord(tm_prefix(11), -5), CenteredWord(tm_prefix(11), -5)))  # identical
def test_scale_matches_coordinate_scan(pair):
    a, b = pair
    assert scale_of_difference(a, b) == _scan_every_coordinate(a, b)
