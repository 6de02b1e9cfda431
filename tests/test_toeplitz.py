"""Toeplitz skeletons: validation, generated sequences, the substitutions they repeat, censuses."""

import json

import pytest

from shiftrank.catalog import system_for
from shiftrank.cli import main
from shiftrank.substitution import RegimeError
from shiftrank.toeplitz import (
    Stage,
    ToeplitzSkeleton,
    ToeplitzSystem,
    doubling_skeleton,
    rank_family_skeleton,
    toeplitz_property,
)

# a degenerate skeleton with no holes: the sequence is periodic
FULL_FILL = ToeplitzSkeleton((Stage(2, ((0, "0"), (1, "1"))),))


def test_doubling_skeleton_is_period_doubling_sequence():
    # independent generation through the substitution 0 -> 01, 1 -> 00
    w = "0"
    while len(w) < 4096:
        w = "".join("01" if c == "0" else "00" for c in w)
    assert doubling_skeleton(16).prefix(4096) == w[:4096]


def test_prefix_positions_eventually_periodic():
    prefix = doubling_skeleton(16).prefix(4096)
    assert toeplitz_property(prefix, [2**k for k in range(1, 13)], 4096)


def test_rank_family_property_and_alphabet():
    prefix = rank_family_skeleton(3, depth=10).prefix(4096)
    assert set(prefix) == set("012")
    assert toeplitz_property(prefix, [3**k for k in range(1, 9)], 4096)


def test_skeleton_conflicts_rejected():
    with pytest.raises(ValueError):
        # residue 0 mod 4 already pinned by 0 mod 2
        ToeplitzSkeleton((Stage(2, ((0, "0"),)), Stage(4, ((0, "1"),))))
    with pytest.raises(ValueError):
        # periods must grow through divisibility
        ToeplitzSkeleton((Stage(2, ((0, "0"),)), Stage(3, ((1, "1"),))))


def test_full_fill_is_periodic_and_all_ranks_one():
    sk = FULL_FILL
    assert sk.periodic
    system = ToeplitzSystem("degenerate", sk)
    report = system.rank_report()
    assert (report.r_c.value, report.r_m.value, report.r_M.value) == (1, 1, 1)


def test_permanently_unfilled_position_rejected():
    sk = ToeplitzSkeleton((Stage(2, ((0, "0"),)),))  # odd positions never filled
    with pytest.raises(ValueError):
        sk.prefix(8)


def _symbol_at(sk: ToeplitzSkeleton, n: int) -> str | None:
    """Reference: the first fill, in stage order, whose residue is n mod its period."""
    for st in sk.stages:
        for r, sym in st.fills:
            if n % st.period == r:
                return sym
    return None


def _walk(sk: ToeplitzSkeleton, length: int) -> list[str | None]:
    """Reference: ``_symbol_at`` at each position."""
    return [_symbol_at(sk, n) for n in range(length)]


CATALOG_TOEPLITZ = ("toeplitz-doubling", "toeplitz-rank-2", "toeplitz-rank-3")


@pytest.mark.parametrize(
    "sk",
    [
        *(system_for(name).skeleton for name in CATALOG_TOEPLITZ),
        rank_family_skeleton(2, 12),
        FULL_FILL,
        # two fills of one stage share residue 0; _symbol_at takes the first
        ToeplitzSkeleton((Stage(2, ((0, "0"), (0, "1"), (1, "1"))),)),
    ],
    ids=[*CATALOG_TOEPLITZ, "rank-2-depth-12", "full-fill", "shared-residue"],
)
def test_stride_fills_match_per_position_walk(sk):
    holes = _walk(sk, sk.stages[-1].period)
    assert sk.hole_residues() == tuple(r for r, sym in enumerate(holes) if sym is None)
    symbols = _walk(sk, 2**15)
    if None in symbols:
        first = symbols.index(None)
        with pytest.raises(ValueError, match=f"^position {first} permanently unfilled"):
            sk.prefix(2**15)
    else:
        assert sk.prefix(2**15) == "".join(symbols)


def test_doubling_census_ranks():
    system = ToeplitzSystem("toeplitz-doubling", doubling_skeleton(16))
    report = system.rank_report()
    assert report.r_m.value == 1
    assert report.r_M.value == 2
    assert report.r_c.value == 1
    assert report.r_m.kind.value == "stabilized"


def test_rank_family_censuses_hit_their_targets():
    for r, depth in ((2, 16), (3, 10)):
        system = ToeplitzSystem(f"toeplitz-rank-{r}", rank_family_skeleton(r, depth))
        report = system.rank_report()
        assert report.r_m.value == 1, r
        assert report.r_M.value == r, r


def test_language_from_prefix_is_factor_closed():
    system = ToeplitzSystem("toeplitz-doubling", doubling_skeleton(16))
    for n in (2, 4, 7):
        shorter = set(system.language(n - 1))
        for w in system.language(n):
            assert w[:-1] in shorter and w[1:] in shorter


@pytest.mark.parametrize("n", [0, -3])
def test_language_rejects_lengths_below_one(n):
    # a negative length used to slice the prefix from its end, and 0 gave one empty word
    system = system_for("toeplitz-doubling")
    with pytest.raises(ValueError, match="length must be positive"):
        system.language(n)
    assert system.language(1) == ("0", "1")


def test_catalog_skeletons_repeat_their_substitutions():
    rules = {name: system_for(name).skeleton.substitution().rules for name in CATALOG_TOEPLITZ}
    assert rules["toeplitz-doubling"] == ("0100", "0101")
    assert rules["toeplitz-rank-2"] == ("1010", "1011")
    # three stages of period 3 rotate the symbols back: one hole mod 27, at 26
    head = system_for("toeplitz-rank-3").skeleton.prefix(26)
    assert rules["toeplitz-rank-3"] == tuple(head + a for a in "012")


def test_periodic_skeleton_repeats_its_period_for_every_letter():
    assert FULL_FILL.substitution().rules == ("01", "01")


@pytest.mark.parametrize(
    "sk",
    [
        # one stage leaves the odd residues as one hole, and no stage repeats it
        ToeplitzSkeleton((Stage(2, ((0, "0"),)),)),
        # the doubling rule with its third symbol flipped: no p sees its stages dilated
        ToeplitzSkeleton(
            tuple(Stage(2**k, ((2 ** (k - 1) - 1, sym),)) for k, sym in enumerate("0111", 1))
        ),
    ],
    ids=["one-stage", "not-repeating"],
)
def test_skeleton_that_does_not_repeat_is_refused(sk):
    with pytest.raises(RegimeError, match="does not repeat"):
        sk.substitution()
    with pytest.raises(RegimeError):
        ToeplitzSystem("refused", sk)


def _windows(text: str, n: int) -> tuple[str, ...]:
    return tuple(sorted({text[i : i + n] for i in range(len(text) - n + 1)}))


@pytest.mark.parametrize("name", CATALOG_TOEPLITZ)
def test_language_is_the_windows_of_a_long_prefix(name):
    system = system_for(name)
    prefix = system.skeleton.prefix(2**15)
    # a window starts a length-64 window or lies in the last 63 symbols
    longest, tail = _windows(prefix, 64), prefix[-63:]
    for n in range(1, 65):
        windows = {w[:n] for w in longest} | set(_windows(tail, n))
        assert system.language(n) == tuple(sorted(windows)), n


def test_rank_3_language_keeps_the_words_a_short_prefix_drops():
    # a 2^15 prefix holds 6,563 of the 6,564 words of length 2,188
    system = system_for("toeplitz-rank-3")
    words = system.language(2188)
    assert len(words) == 6564
    assert words == _windows(system.skeleton.prefix(59048), 2188)


def test_ranks_read_the_census_depth(capsys):
    assert main(["ranks", "toeplitz-doubling", "--depth", "3", "--radius", "16", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    for rank in ("r_m", "r_M"):
        assert doc[rank]["evidence"]["branch_depth"] == 3
        assert doc[rank]["evidence"]["radius"] == 16
