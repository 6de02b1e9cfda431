"""Toeplitz skeletons: validation, generated sequences, censuses."""

import functools

import pytest

from shiftrank.catalog import system_for
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
    system = ToeplitzSystem("toeplitz-doubling", doubling_skeleton(16), prefix_length=4096)
    # independent generation through the substitution 0 -> 01, 1 -> 00
    w = "0"
    while len(w) < 4096:
        w = "".join("01" if c == "0" else "00" for c in w)
    assert system.prefix == w[:4096]


def test_prefix_positions_eventually_periodic():
    system = ToeplitzSystem("toeplitz-doubling", doubling_skeleton(16), prefix_length=4096)
    assert toeplitz_property(system.prefix, [2**k for k in range(1, 13)], 4096)


def test_rank_family_property_and_alphabet():
    sk = rank_family_skeleton(3, depth=10)
    system = ToeplitzSystem("toeplitz-rank-3", sk, prefix_length=4096)
    assert set(system.prefix) == set("012")
    assert toeplitz_property(system.prefix, [3**k for k in range(1, 9)], 4096)


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
    system = ToeplitzSystem("degenerate", sk, prefix_length=64)
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
    system = ToeplitzSystem("toeplitz-doubling", doubling_skeleton(16), prefix_length=4096)
    for n in (2, 4, 7):
        shorter = set(system.language(n - 1))
        for w in system.language(n):
            assert w[:-1] in shorter and w[1:] in shorter


@functools.cache
def _residue_window_count(system, period, residue, radius):
    """Reference: distinct windows of a residue class, sliced off the prefix."""
    p = system.prefix
    positions = range(residue, len(p) - radius, period)
    return len({p[pos - radius : pos + radius + 1] for pos in positions if pos >= radius})


def _per_policy_census(system, policy, radius, min_samples=4):
    """Reference: the walk for one extreme at a time, ``policy`` "min" or "max"."""
    periods = system.skeleton.periods
    best, stable_flag = None, False

    def occurrences(period, residue):
        return max(0, (system.prefix_length - residue) // period)

    def walk(level, residue, history):
        nonlocal best, stable_flag
        period = periods[level]
        count = _residue_window_count(system, period, residue, radius)
        history = history + (count,)
        deeper_ok = (
            level + 1 < len(periods) and occurrences(periods[level + 1], residue) >= min_samples
        )
        stabilized = len(history) >= 3 and len(set(history[-3:])) == 1
        if stabilized or not deeper_ok:
            if count > 0:
                if best is None or (count > best if policy == "max" else count < best):
                    best, stable_flag = count, stabilized
                elif count == best:
                    stable_flag = stable_flag or stabilized
            return
        nxt = periods[level + 1]
        for lift in range(residue, nxt, period):
            if occurrences(nxt, lift) >= 1:
                walk(level + 1, lift, history)

    for r in range(periods[0]):
        walk(0, r, ())
    return best, stable_flag


@pytest.mark.parametrize(
    "system",
    [
        ToeplitzSystem("toeplitz-doubling", doubling_skeleton(16), prefix_length=1 << 13),
        ToeplitzSystem("toeplitz-rank-3", rank_family_skeleton(3, depth=8), prefix_length=1 << 12),
    ],
    ids=lambda system: system.name,
)
@pytest.mark.parametrize("radius", [1, 4, 16, 32, 64])
def test_one_walk_gives_both_extremes(system, radius):
    assert system._census_extremes(radius) == (
        _per_policy_census(system, "min", radius),
        _per_policy_census(system, "max", radius),
    )


@pytest.mark.parametrize("name", ["toeplitz-doubling", "toeplitz-rank-2", "toeplitz-rank-3"])
def test_interned_census_matches_sliced_windows(name):
    # every radius on a short prefix, where the windows reach both ends of
    # it, and the catalog's own prefix at the extreme radii
    system = system_for(name)
    short = ToeplitzSystem(name, system.skeleton, prefix_length=1 << 12)
    cases = [(short, r) for r in range(1, 65)] + [(system, r) for r in (1, 2, 63, 64)]
    for toeplitz, radius in cases:
        assert toeplitz._census_extremes(radius) == (
            _per_policy_census(toeplitz, "min", radius),
            _per_policy_census(toeplitz, "max", radius),
        ), radius


@pytest.mark.parametrize("n", [0, -3])
def test_language_rejects_lengths_below_one(n):
    # a negative length used to slice the prefix from its end, and 0 gave one empty word
    system = system_for("toeplitz-doubling")
    with pytest.raises(ValueError, match="length must be positive"):
        system.language(n)
    assert system.language(1) == ("0", "1")
