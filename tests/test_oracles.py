"""Witness searches: examples, certificates, and cross-test invariants."""

import ast
import collections
import gc
import hashlib
import itertools
import json
import operator
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from shiftrank import catalog, oracles
from shiftrank.catalog import system_for
from shiftrank.certificates import certificate_json
from shiftrank.oracles import (
    SEGMENT,
    SearchBudget,
    _cylinders,
    _indexed_extension_groups,
    _ladder_extensions,
    _RunCliqueFinder,
    _SegmentBlocks,
    _pair_separated_over_run,
    _run_scan,
    _separation_scan,
    _trimmed,
    block_m_sensitivity_test,
    block_sensitivity_scan,
    cover_m_equicontinuity_test,
    extensions,
    m_equicontinuity_point_test,
    m_sensitivity_test,
    sensitivity_scan,
)
from shiftrank.ranks import sliding_block_factor
from shiftrank.substitution import BlockPairs, Substitution, SubstitutionSystem, language
from shiftrank.toeplitz import ToeplitzSystem, doubling_skeleton
from shiftrank.verdicts import VerdictStatus
from shiftrank.verify import BLOCK_SCALE
from shiftrank.words import CenteredWord, scale_of_difference, shift_window, shifts

TM_SYS = SubstitutionSystem("thue-morse", Substitution(("01", "10")))
PD_SYS = SubstitutionSystem("period-doubling", Substitution(("01", "00")))
ONE_SYS = SubstitutionSystem("trivial-1", Substitution(("00",)))


def seed_point(system, index, radius, shift=0):
    return system.point_window(system.seed_points()[index], radius, shift)


# -- budgets ------------------------------------------------------------------


def test_budget_rejects_a_negative_ladder_radius():
    with pytest.raises(ValueError, match=r"non-negative, got ladder=\[-1, 2\]"):
        SearchBudget(ladder=(-1, 2))
    assert SearchBudget(ladder=(0, 2)).ladder == (0, 2)  # radius 0 is the point's own symbol


# -- equicontinuity point test ----------------------------------------------------


def test_trivial_system_is_consistent_with_equicontinuity():
    budget = SearchBudget(N=32, K=2, ladder=(1, 2))
    x = seed_point(ONE_SYS, 0, budget.N + budget.K + 2)
    v = m_equicontinuity_point_test(ONE_SYS, x, 2, 2, budget)
    assert v.exhausted and v.annotations["verdict_class"] == "consistent-up-to"


def test_thue_morse_fails_4_equicontinuity_at_scale_two():
    budget = SearchBudget()
    x = seed_point(TM_SYS, 0, budget.N + budget.K + max(budget.ladder))
    v = m_equicontinuity_point_test(TM_SYS, x, 4, 2, budget)
    assert v.witnessed and v.annotations["verdict_class"] == "counterexample"
    assert [s["delta_radius"] for s in v.certificate["stages"]] == list(budget.ladder)


def test_thue_morse_consistent_with_5_equicontinuity():
    budget = SearchBudget()
    x = seed_point(TM_SYS, 0, budget.N + budget.K + max(budget.ladder))
    v = m_equicontinuity_point_test(TM_SYS, x, 5, 2, budget)
    assert v.exhausted and v.annotations["verdict_class"] == "consistent-up-to"


# -- aggregate sensitivity ---------------------------------------------------------


def test_thue_morse_2_sensitive_small_budget():
    report = m_sensitivity_test(TM_SYS, 2, 1, SearchBudget(L=2, N=64, K=1))
    assert report.aggregate.witnessed
    assert all(v.witnessed for v in report.per_cylinder.values())


def test_thue_morse_not_5_sensitive_at_desk_scale():
    report = m_sensitivity_test(TM_SYS, 5, 1, SearchBudget(L=2, N=256, K=1))
    assert report.aggregate.exhausted
    assert len(report.aggregate.annotations["witness_free_cylinders"]) == len(
        TM_SYS.language(5)
    )


def test_trivial_system_never_sensitive():
    report = m_sensitivity_test(ONE_SYS, 2, 1, SearchBudget(L=2, N=16, K=1))
    assert report.aggregate.exhausted


def test_sensitivity_monotone_in_m():
    budget = SearchBudget()
    reports = {m: m_sensitivity_test(TM_SYS, m, 2, budget) for m in (2, 3, 4, 5)}
    for m in (3, 4, 5):
        if reports[m].aggregate.witnessed:
            assert reports[m - 1].aggregate.witnessed
    # dropping a point from an m-witness leaves a valid (m-1)-witness
    cert = reports[4].aggregate.certificate
    entry = cert["cylinders"][0]
    windows = [CenteredWord.parse(t) for t in entry["windows"]]
    g = entry["shift"]
    for drop in range(4):
        rest = [w for i, w in enumerate(windows) if i != drop]
        shifted = [shift_window(w, g) for w in rest]
        for i in range(3):
            for j in range(i + 1, 3):
                d = scale_of_difference(shifted[i], shifted[j])
                assert d is not None and d <= 2


def test_sensitivity_monotone_in_budget():
    small = m_sensitivity_test(TM_SYS, 3, 2, SearchBudget(L=2, N=64, K=2))
    big = m_sensitivity_test(TM_SYS, 3, 2, SearchBudget(L=2, N=128, K=2))
    if small.aggregate.witnessed:
        assert big.aggregate.witnessed


def test_dichotomy_no_co_occurrence():
    # aggregate sensitivity witnessed and point-consistency never co-occur at
    # matched scales: the ladder stays within the cylinder radius
    budget = SearchBudget(L=2, N=128, K=2, ladder=(1, 2))
    for system in (TM_SYS, PD_SYS, ONE_SYS):
        x = seed_point(system, 0, budget.N + budget.K + 2)
        for m in (2, 3):
            agg = m_sensitivity_test(system, m, budget.K, budget).aggregate
            point = m_equicontinuity_point_test(system, x, m, budget.K, budget)
            consistent = point.exhausted
            assert not (agg.witnessed and consistent), (system.name, m)


# -- block sensitivity ---------------------------------------------------------------


def test_thue_morse_block_2_witnessed():
    report = block_m_sensitivity_test(TM_SYS, 2, 1, 8, SearchBudget(L=2, N=256, K=1, B=8))
    assert report.aggregate.witnessed


def test_thue_morse_block_3_exhausted_deep_horizon():
    report = block_m_sensitivity_test(TM_SYS, 3, 1, 8, SearchBudget(L=2, N=512, K=1, B=8))
    assert report.aggregate.exhausted


def test_period_doubling_block_2_exhausted():
    report = block_m_sensitivity_test(PD_SYS, 2, 1, 8, SearchBudget(L=2, N=256, K=1, B=8))
    assert report.aggregate.exhausted


def test_block_witness_yields_plain_witnesses_throughout_block():
    report = block_m_sensitivity_test(TM_SYS, 2, 1, 8, SearchBudget(L=2, N=256, K=1, B=8))
    entry = report.aggregate.certificate["cylinders"][0]
    windows = [CenteredWord.parse(t) for t in entry["windows"]]
    h, B = entry["shift"], entry["block_half"]
    for g in range(h - B, h + B + 1):
        a, b = (shift_window(w, g) for w in windows)
        d = scale_of_difference(a, b)
        assert d is not None and d <= 1


# -- cover equicontinuity --------------------------------------------------------------


def test_trivial_system_cover_witnessed():
    budget = SearchBudget(L=2, N=32, K=2, B=1, ladder=(1, 2))
    x = seed_point(ONE_SYS, 0, budget.N + budget.B + budget.K + 3)
    v = cover_m_equicontinuity_test(ONE_SYS, x, 2, 2, budget)
    assert v.witnessed


def test_thue_morse_cover_3_witnessed_small_gap_bound():
    budget = SearchBudget(L=2, N=128, K=2, B=16)
    x = seed_point(TM_SYS, 0, budget.N + budget.B + budget.K + 1 + max(budget.ladder))
    v = cover_m_equicontinuity_test(TM_SYS, x, 3, 2, budget)
    assert v.witnessed


def test_thue_morse_cover_2_falsified():
    budget = SearchBudget(L=2, N=128, K=2, B=16)
    x = seed_point(TM_SYS, 0, budget.N + budget.B + budget.K + 1 + max(budget.ladder))
    v = cover_m_equicontinuity_test(TM_SYS, x, 2, 2, budget)
    assert v.status is VerdictStatus.REFUTED
    assert v.annotations["verdict_class"] == "falsified-up-to"
    # the recorded gap is a genuine stretch of pairwise separation
    stage = v.certificate["stages"][0]
    windows = [CenteredWord.parse(t) for t in stage["windows"]]
    for g in range(stage["gap_start"], stage["gap_end"] + 1):
        a, b = (shift_window(w, g) for w in windows)
        d = scale_of_difference(a, b)
        assert d is not None and d <= 2


@pytest.mark.parametrize("N", [4, 8])
def test_cover_test_rejects_a_horizon_shorter_than_one_run(N):
    # N <= B leaves no run of 2B+2 shifts inside [-N, N]: the scan would be
    # empty, and an empty scan finds no violating tuple
    budget = SearchBudget(N=N, B=8)
    x = seed_point(TM_SYS, 0, max(budget.ladder))
    with pytest.raises(ValueError, match=rf"N={N} .* 2B\+2 = 18"):
        cover_m_equicontinuity_test(TM_SYS, x, 2, budget.K, budget)


def test_cover_and_block_verdicts_complement():
    # block 2-sensitivity holds on thue-morse, so cover 2-equicontinuity must
    # fail; block 3 fails, so cover 3-equicontinuity must hold
    budget = SearchBudget(L=2, N=128, K=1, B=16)
    x = seed_point(TM_SYS, 0, budget.N + budget.B + budget.K + 1 + max(budget.ladder))
    assert cover_m_equicontinuity_test(TM_SYS, x, 2, 1, budget).status is VerdictStatus.REFUTED
    assert cover_m_equicontinuity_test(TM_SYS, x, 3, 1, budget).witnessed


# -- shift invariance (metamorphic) ---------------------------------------------------


def test_point_test_verdict_stable_under_seed_shifts():
    # horizons matter here: small N makes boundary effects flip verdicts, so
    # the stability check runs at the full default horizon
    budget = SearchBudget()
    for system in (TM_SYS, PD_SYS):
        base = None
        for g in range(-4, 5):
            x = seed_point(system, 0, budget.N + budget.K + 4 + max(budget.ladder), shift=g)
            v = m_equicontinuity_point_test(system, x, 3, budget.K, budget)
            if base is None:
                base = v.status
            assert v.status == base, (system.name, g)



# sha256 of the point and cover outputs below: per job, each test's status,
# verdict class and canonical certificate JSON
PROBE_SHA256 = "0b04883577144a056a16459dd8866566527980abfac62c75a0ba3d9ff05ddffd"


def test_probe_outputs_are_frozen():
    # the acceptance-criterion-8 probes of the four exact-regime systems
    budget = SearchBudget()
    radius = budget.N + budget.K + 4 + max(budget.ladder)
    rows = []
    for name in ("thue-morse", "period-doubling", "ternary-morse", "keane-morse-011"):
        system = system_for(name)
        for m in (2, 3, 4, 5):
            for g in (-64, 0, 63):
                x = seed_point(system, 0, radius, shift=g)
                row = [name, m, g]
                for v in (
                    m_equicontinuity_point_test(system, x, m, budget.K, budget),
                    cover_m_equicontinuity_test(system, x, m, budget.K, budget),
                ):
                    cert = v.certificate and certificate_json(v.certificate)
                    row += [v.status.value, v.annotations.get("verdict_class"), cert]
                rows.append(row)
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == PROBE_SHA256


# (system, test) -> sha256 of the sensitivity or block reports at N=64 and
# m = 2..4: per m, the aggregate status and certificate, then each
# cylinder's status and certificate, so a changed witness shows even where
# the aggregate is exhausted and certifies nothing
PER_CYLINDER_SHA256 = {
    ("thue-morse", "sensitivity"): "742651cdfea06b020810d6d05a8a38fa288e79bb543f4dd7af62ca573ab3f4c8",
    ("thue-morse", "block"): "713cacdf16302ae200a4f3c9f7cb9a28b63141ae69c4a642478c9d3755aa5e32",
    ("period-doubling", "sensitivity"): "5d47953678076e085fa867e9acbcc4bfac3bfb1e98b891f86e98815366a9cc26",
    ("period-doubling", "block"): "9db90343cee1d3ede02b60e44f61b8a5b78390d7627d7bddbd33c732dcf9b2ef",
    ("ternary-morse", "sensitivity"): "2043a332238711aa3ec12f56031454f804a9830359528ce0d60e92532295b069",
    ("ternary-morse", "block"): "9b80bcf6f66303afc1131c92cfc998f9680b0eb6640b5c7e9f87974054c269cf",
    ("keane-morse-011", "sensitivity"): "a72ac3834396125112aba9589de8c6bc81973c1db9f1ad6f859864edf98dd2e6",
    ("keane-morse-011", "block"): "171149ec707d09cf61c78d7c89369195f127cab1ab3f7463134c3807b34422a6",
    ("trivial-1", "sensitivity"): "2e0cfa44d0b0abf611a940cabfa72d35e3d9b6dbef4912bb4663720322df8f9f",
    ("trivial-1", "block"): "2e0cfa44d0b0abf611a940cabfa72d35e3d9b6dbef4912bb4663720322df8f9f",
    ("toeplitz-doubling", "sensitivity"): "326ece51153879560082128c1807ee6ead42aa11fa58d295a31bbdf51c4b12f2",
    ("toeplitz-doubling", "block"): "9db90343cee1d3ede02b60e44f61b8a5b78390d7627d7bddbd33c732dcf9b2ef",
    ("toeplitz-rank-2", "sensitivity"): "0443401528db751fa7f0c593ac4e5f4e8813dc2deea8ceeeee7ec5b25b627ab8",
    ("toeplitz-rank-2", "block"): "c651a43758da2c29a2779fd0dad3eadb01f7c3c8ef5a16f59f9e23c922a02af9",
    ("toeplitz-rank-3", "sensitivity"): "4d169509651224bff7a1296be8d323247d818b413e88deb936f194df7410a15a",
    ("toeplitz-rank-3", "block"): "a38ed4e8045944dddf6f45ba4630a07dae68ffd67926190c07285bb1903179c6",
}


@pytest.mark.parametrize("name, test", sorted(PER_CYLINDER_SHA256))
def test_per_cylinder_certificates_are_frozen(name, test):
    system = system_for(name)
    budget = SearchBudget(N=64)
    rows = []
    for m in (2, 3, 4):
        if test == "block":
            report = block_m_sensitivity_test(system, m, 1, budget.B, budget)
        else:
            report = m_sensitivity_test(system, m, budget.K, budget)
        agg = report.aggregate
        cylinders = [
            [u, v.status.value, v.certificate and certificate_json(v.certificate)]
            for u, v in report.per_cylinder.items()
        ]
        rows.append([m, agg.status.value, agg.certificate and certificate_json(agg.certificate), cylinders])
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == PER_CYLINDER_SHA256[name, test]


def test_per_cylinder_freeze_covers_the_runnable_catalog():
    runnable = {n for n in catalog.names() if catalog.get(n).kind != "documentation"}
    assert {name for name, _ in PER_CYLINDER_SHA256} == runnable


@pytest.mark.parametrize(
    "name, test, witnesses",
    [("thue-morse", "sensitivity", 12), ("ternary-morse", "sensitivity", 30), ("thue-morse", "block", 0)],
)
def test_single_m_tests_build_witnesses_only_for_m(monkeypatch, name, test, witnesses):
    # one entry per cylinder that has a size-m witness, none for the sizes below m
    built = []
    witness = oracles._witness

    def counting(*args, **kwargs):
        built.append(args[0])
        return witness(*args, **kwargs)

    monkeypatch.setattr(oracles, "_witness", counting)
    budget = SearchBudget()
    if test == "block":
        block_m_sensitivity_test(system_for(name), 3, 1, 8, budget)
    else:
        m_sensitivity_test(system_for(name), 4, budget.K, budget)
    assert len(built) == witnesses


# -- scan kernels against the per-extension loops ----------------------------------


def _prefix_sum_separated(b1, b2, K, centers):
    """Reference: a prefix-sum count of mismatches around every center."""
    pref = [0]
    for x, y in zip(b1, b2):
        pref.append(pref[-1] + (x != y))
    return all(pref[p + K + 1] - pref[p - K] > 0 for p in range(K, K + centers))


run_block_pairs = st.tuples(st.integers(0, 3), st.integers(1, 6)).flatmap(
    lambda kc: st.tuples(
        st.just(kc[0]),
        st.just(kc[1]),
        st.text(alphabet="01", min_size=kc[1] + 2 * kc[0], max_size=kc[1] + 2 * kc[0]),
        st.lists(st.integers(0, kc[1] + 2 * kc[0] - 1), max_size=4),
    )
)


@given(run_block_pairs)
def test_pair_separation_matches_prefix_sums(case):
    K, centers, b1, flips = case
    b2 = list(b1)
    for i in flips:
        b2[i] = "1" if b2[i] == "0" else "0"
    b2 = "".join(b2)
    assert _pair_separated_over_run(b1, b2, K) == _prefix_sum_separated(b1, b2, K, centers)


def _dict_separation_scan(exts, radius, K, horizon, m_cap):
    """Reference: the first-index dict built at every shift."""
    best, witnesses, width = 0, {}, 2 * K + 1
    for g in shifts(horizon):
        start = radius + g - K
        seen = {}
        for idx, w in enumerate(exts):
            seen.setdefault(w[start : start + width], idx)
        if len(seen) > best:
            first = list(seen.values())
            for m in range(best + 1, min(len(seen), m_cap) + 1):
                witnesses[m] = (g, sorted(first[:m]))
            best = len(seen)
            if best >= m_cap:
                break
    return best, witnesses


class _PrefixSumFinder(_RunCliqueFinder):
    def __init__(self, K, centers, m_cap):
        super().__init__(K, m_cap)
        self.centers = centers

    def _separated(self, b1, b2):
        return _prefix_sum_separated(b1, b2, self.K, self.centers)


def _dict_run_scan(exts, radius, K, centers, starts, m_cap):
    """Reference: the first-index dict built at every run start."""
    finder = _PrefixSumFinder(K, centers, m_cap)
    best, witnesses, width = 0, {}, centers + 2 * K
    for a in starts:
        lo = radius + a - K
        first_idx = {}
        for idx, w in enumerate(exts):
            first_idx.setdefault(w[lo : lo + width], idx)
        blocks = tuple(sorted(first_idx))
        size, members = finder.best(blocks)
        if size > best:
            for m in range(best + 1, min(size, m_cap) + 1):
                witnesses[m] = (a, sorted(first_idx[blocks[v]] for v in members[:m]))
            best = size
            if best >= m_cap:
                break
    return best, witnesses


@pytest.mark.parametrize("name", ["thue-morse", "keane-morse-011", "ternary-morse"])
def test_scans_match_per_extension_loops(name):
    # N = 80 puts string offsets 0..2N+2L+2B across several segments on
    # both sides of shift 0
    system = system_for(name)
    L, N, K, B, m_cap = 2, 80, 1, 2, 5
    sep_radius = L + N + K
    run_radius = L + N + B + K
    centers = 2 * B + 1
    finder = _RunCliqueFinder(K, m_cap)
    # the cover test's runs: 2B+2 centers from increasing starts, at K = 2, B = 8
    cover_K, cover_B = 2, 8
    cover_radius = N + cover_B + cover_K + 1
    cover_centers = 2 * cover_B + 2
    cover_starts = range(-N, N - cover_centers + 2)
    cover_finder = _RunCliqueFinder(cover_K, m_cap)
    for u in system.language(2 * L + 1):
        exts = extensions(system, u, sep_radius)
        assert _separation_scan(exts, sep_radius, K, N, m_cap) == _dict_separation_scan(
            exts, sep_radius, K, N, m_cap
        )
        exts = extensions(system, u, run_radius)
        starts = [h - B for h in shifts(N)]
        got = _run_scan(exts, run_radius, K, centers, starts, m_cap, finder)
        assert got == _dict_run_scan(exts, run_radius, K, centers, starts, m_cap)
        exts = extensions(system, u, cover_radius)
        run = (exts, cover_radius, cover_K, cover_centers, cover_starts, m_cap)
        assert _run_scan(*run, cover_finder) == _dict_run_scan(*run)


def _flipped(base: str, flips: list[int]) -> str:
    out = list(base)
    for i in flips:
        out[i % len(out)] = "1" if out[i % len(out)] == "0" else "0"
    return "".join(out)


# K, B, N and m_cap, then 1 to 3 extension sets, each a constant word with a
# few flipped symbols per extension: the extensions agree away from the
# flips, so many centers show few distinct blocks and the bounds rule out
# starts, while the flips still make separated tuples.  B runs to 6, so runs
# of 2B+1 or 2B+2 centers have core steps S = centers // 3 from 1 to 4.
run_scan_cases = st.tuples(
    st.tuples(st.sampled_from([1, 2]), st.integers(1, 6), st.integers(0, 10), st.integers(2, 5)),
    st.lists(
        st.tuples(
            st.sampled_from("01"),
            st.lists(st.lists(st.integers(0, 200), max_size=12), min_size=1, max_size=9),
        ),
        min_size=1,
        max_size=3,
    ),
)


class _FullRunCounter(_RunCliqueFinder):
    """Counts the clique solves over whole runs of ``centers`` centers.

    A ``blind`` finder answers m_cap for every shorter block set, so no core
    rules out a start, and its count is that of the per-center bound alone.
    """

    def __init__(self, K, m_cap, centers, blind=False):
        super().__init__(K, m_cap)
        self.width = centers + 2 * K
        self.blind = blind
        self.full = 0

    def best(self, blocks):
        if len(blocks[0]) == self.width:
            self.full += 1
        elif self.blind:
            return self.m_cap, ()
        return super().best(blocks)


def test_run_scan_matches_reference_with_warm_finder():
    ruled_out = []  # starts the cores ruled out, per example

    # two cases where a core rules out a start that the center counts pass
    @example(((2, 4, 9, 2), [("0", [[], [45], [42, 59], [50]])]), True)
    @example(((2, 5, 3, 3), [("0", [[130], [159], [194], [28], []])]), False)
    @given(run_scan_cases, st.booleans())
    def check(case, cover_style):
        (K, B, N, m_cap), sets = case
        if cover_style:  # increasing starts over runs of 2B+2 centers
            centers, radius = 2 * B + 2, N + B + K + 1
            starts = list(range(-N, N - centers + 2))
        else:  # zigzag starts over runs of 2B+1 centers, as the block scan
            centers, radius = 2 * B + 1, 1 + N + B + K
            starts = [h - B for h in shifts(N)]
        # shared: later sets meet a warm cache
        finder = _FullRunCounter(K, m_cap, centers)
        blind = _FullRunCounter(K, m_cap, centers, blind=True)
        for symbol, flip_lists in sets:
            exts = [_flipped(symbol * (2 * radius + 1), flips) for flips in flip_lists]
            want = _dict_run_scan(exts, radius, K, centers, starts, m_cap)
            assert _run_scan(exts, radius, K, centers, starts, m_cap, finder) == want
            assert _run_scan(exts, radius, K, centers, starts, m_cap, blind) == want
        ruled_out.append(blind.full - finder.full)

    check()
    assert min(ruled_out) >= 0
    assert max(ruled_out) > 0


def test_run_scan_skips_starts_the_center_counts_rule_out(monkeypatch):
    solved = []
    best = _RunCliqueFinder.best

    def counting_best(self, blocks):
        solved.append(blocks)
        return best(self, blocks)

    monkeypatch.setattr(_RunCliqueFinder, "best", counting_best)
    budget = SearchBudget()
    x = seed_point(TM_SYS, 0, max(budget.ladder))
    assert cover_m_equicontinuity_test(TM_SYS, x, 3, budget.K, budget).witnessed
    assert len(solved) < 498 // 10  # one clique solve per start made 498
    solved.clear()
    block_sensitivity_scan(system_for("ternary-morse"), 5, 1, budget.B, budget)
    assert len(solved) < 14061 // 10  # one clique solve per start made 14,061


def test_zigzag_block_scan_keeps_one_blocker_per_side(monkeypatch):
    budget = SearchBudget()
    K = 1
    segment_reads = []
    reads = []
    at = _SegmentBlocks.at
    count = BlockPairs.count

    def counting_at(self, lo):
        if self._width == 2 * K + 1:
            segment_reads.append(lo)
        return at(self, lo)

    def counting_count(self, x, e):
        reads.append(e)
        return count(self, x, e)

    monkeypatch.setattr(_SegmentBlocks, "at", counting_at)
    monkeypatch.setattr(BlockPairs, "count", counting_count)
    block_sensitivity_scan(system_for("ternary-morse"), 5, K, budget.B, budget)
    # a substitution's center counts come from its block pairs, not its
    # extensions; one blocker shared by both sides of the zigzag made 14,022
    # center reads
    assert segment_reads == []
    assert len(reads) <= 3500


def test_run_scan_skips_starts_a_core_rules_out(monkeypatch):
    budget = SearchBudget()
    width = 2 * budget.B + 2 + 2 * budget.K  # a cover run: 2B+2 centers, K symbols each side
    solved = []
    best = _RunCliqueFinder.best

    def counting_best(self, blocks):
        if len(blocks[0]) == width:
            solved.append(blocks)
        return best(self, blocks)

    monkeypatch.setattr(_RunCliqueFinder, "best", counting_best)
    x = seed_point(TM_SYS, 0, max(budget.ladder))
    assert cover_m_equicontinuity_test(TM_SYS, x, 5, budget.K, budget).witnessed
    # the per-center counts alone left 149 starts to solve over the whole run
    assert len(solved) <= 5


def _eager_best(K, m_cap, blocks):
    """Reference: the whole adjacency matrix, both halves, built before the search."""
    n = len(blocks)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if _pair_separated_over_run(blocks[i], blocks[j], K):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    best_size, best_members = 0, ()

    def grow(members, cand):
        nonlocal best_size, best_members
        if len(members) > best_size:
            best_size, best_members = len(members), tuple(members)
            if best_size >= m_cap:
                return True
        while cand:
            if len(members) + cand.bit_count() <= best_size:
                return False
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            if grow(members + [v], cand & adj[v]):
                return True
        return False

    grow([], (1 << n) - 1)
    return best_size, best_members


# K, m_cap and a set of run-blocks of 1 to 6 centers: each block a constant
# word with a few flipped symbols, so that pairs are separated at some
# centers and not at others
clique_cases = st.tuples(
    st.sampled_from([1, 2]), st.integers(2, 5), st.integers(1, 6), st.sampled_from("01")
).flatmap(
    lambda case: st.tuples(
        *map(st.just, case),
        st.lists(st.lists(st.integers(0, 15), max_size=6), max_size=12),
    )
)


@given(clique_cases)
def test_clique_finder_matches_the_whole_matrix_search(case):
    K, m_cap, centers, symbol, flip_lists = case
    base = symbol * (centers + 2 * K)
    blocks = tuple(sorted({_flipped(base, flips) for flips in flip_lists}))
    finder = _RunCliqueFinder(K, m_cap)
    assert finder.best(blocks) == _eager_best(K, m_cap, blocks)


@pytest.mark.parametrize("cover_style", [True, False], ids=["increasing", "zigzag"])
def test_run_scan_matches_reference_on_empty_extension_sets(cover_style):
    K, B, N, m_cap = 2, 3, 20, 4
    if cover_style:
        centers, radius = 2 * B + 2, N + B + K + 1
        starts = list(range(-N, N - centers + 2))
    else:
        centers, radius = 2 * B + 1, 1 + N + B + K
        starts = [h - B for h in shifts(N)]
    want = _dict_run_scan((), radius, K, centers, starts, m_cap)
    assert want == (0, {})
    finder = _RunCliqueFinder(K, m_cap)
    assert _run_scan((), radius, K, centers, starts, m_cap, finder) == want


def test_clique_rows_check_only_pairs_the_search_reads(monkeypatch):
    lookups = 0
    separated = _RunCliqueFinder._separated

    def counting_separated(self, b1, b2):
        nonlocal lookups
        lookups += 1
        return separated(self, b1, b2)

    monkeypatch.setattr(_RunCliqueFinder, "_separated", counting_separated)
    budget = SearchBudget()
    radius = budget.N + budget.K + 4 + max(budget.ladder)
    for name in ("thue-morse", "ternary-morse", "keane-morse-011"):
        system = system_for(name)
        x = seed_point(system, 0, radius)
        cover_m_equicontinuity_test(system, x, 3, budget.K, budget)
    # the whole adjacency matrix of every solved block set made 1,451
    assert lookups <= 700


@pytest.mark.parametrize(
    "system, x",
    [
        *[
            (system, seed_point(system, 0, 40, shift=g))
            for system in map(
                system_for, ["thue-morse", "period-doubling", "ternary-morse", "keane-morse-011"]
            )
            for g in (0, 13)
        ],
        (
            ToeplitzSystem("toeplitz-doubling", doubling_skeleton(16)),
            CenteredWord(doubling_skeleton(16).prefix(4096)[1000 - 40 : 1000 + 41], -40),
        ),
    ],
    ids=lambda v: getattr(v, "name", None),
)
def test_ladder_stages_narrow_to_the_extensions(system, x):
    radius, ladder = 30, (1, 2, 4, 8, 16)
    stages = list(_ladder_extensions(system, x, ladder, radius))
    assert [W for W, _, _ in stages] == list(ladder)
    for W, central, exts in stages:
        assert central == x.central(W)
        assert exts == extensions(system, central, radius), W
    with pytest.raises(ValueError, match="wider than the requested window"):
        list(_ladder_extensions(system, x, (1, 2, radius + 1), radius))


class _FiniteWordSystem:
    """Language of one finite string: cylinders near its ends have no extension."""

    name = "finite-word"

    def __init__(self, text: str):
        self.text = text

    def language(self, n: int) -> tuple[str, ...]:
        return tuple(sorted({self.text[i : i + n] for i in range(len(self.text) - n + 1)}))


INDEX_SYSTEMS = [
    system_for("thue-morse"),
    system_for("ternary-morse"),
    ToeplitzSystem("toeplitz-doubling", doubling_skeleton(16)),
    sliding_block_factor(TM_SYS, {w: str(int(w[0]) ^ int(w[1])) for w in TM_SYS.language(2)}),
    _FiniteWordSystem("0001000110"),
]


def _whole_table_extensions(system, central, radius):
    """Reference: filter the whole length-(2 radius + 1) table by central word."""
    span = slice(radius - len(central) // 2, radius + len(central) // 2 + 1)
    return tuple(w for w in system.language(2 * radius + 1) if w[span] == central)


@pytest.mark.parametrize("system", INDEX_SYSTEMS, ids=lambda system: system.name)
@pytest.mark.parametrize("L, radius", [(0, 3), (1, 4), (2, 20), (2, 67)])
def test_grouped_extensions_match_per_cylinder_filter(system, L, radius):
    grouped = _cylinders(system, L, radius)
    assert [u for u, _ in grouped] == list(system.language(2 * L + 1))
    for u, exts in grouped:
        assert exts == _whole_table_extensions(system, u, radius), u


@pytest.mark.parametrize("system", INDEX_SYSTEMS, ids=lambda system: system.name)
@pytest.mark.parametrize("half, radius", [(0, 3), (1, 4), (2, 20), (4, 67)])
def test_extensions_match_whole_table_filter(system, half, radius):
    words = system.language(2 * half + 1)
    # every admissible central word, and the first word over 0-3 that is not
    inadmissible = next(
        w for w in ("".join(t) for t in itertools.product("0123", repeat=2 * half + 1))
        if w not in words
    )
    for u in (*words, inadmissible):
        assert extensions(system, u, radius) == _whole_table_extensions(system, u, radius), u
    assert extensions(system, inadmissible, radius) == ()


CATALOG_SCAN_SYSTEMS = [
    name for name in catalog.names() if catalog.get(name).kind in ("substitution", "toeplitz")
]


@pytest.mark.parametrize("name", CATALOG_SCAN_SYSTEMS)
@pytest.mark.parametrize("N", [256, 1024])
def test_trimmed_grouping_matches_direct_grouping(name, N):
    # verify's two radii at the default budget: the block scan's is the wider
    system = system_for(name)
    budget = SearchBudget(N=N)
    radius = oracles.scan_radius(budget, budget.K)
    wide = oracles.scan_radius(budget, BLOCK_SCALE, budget.B)
    assert wide > radius
    trimmed = _trimmed(_cylinders(system, budget.L, wide), wide - radius, 2 * radius + 1)
    direct = _cylinders(system, budget.L, radius)
    assert list(trimmed) == direct


class _Counted(str):
    """A word that counts its own deletion."""

    deleted = collections.Counter()

    def __del__(self):
        _Counted.deleted[len(self)] += 1


class _CountedWords:
    """A system's language with every word a ``_Counted``."""

    def __init__(self, system):
        self.system = system

    def language(self, n):
        return tuple(map(_Counted, self.system.language(n)))


def test_a_narrower_read_drops_each_wide_word_once_trimmed():
    wide, narrow = 40, 30
    cylinders = _cylinders(_CountedWords(TM_SYS), 2, wide)
    sizes = [len(exts) for _, exts in cylinders]
    _Counted.deleted.clear()
    dropped = []
    for _, exts in _trimmed(cylinders, wide - narrow, 2 * narrow + 1):
        assert exts
        dropped.append(_Counted.deleted[2 * wide + 1])
    # a cylinder's wide words are all gone once its trims are handed out, so
    # the wide and the trimmed table are never held together
    assert dropped == list(itertools.accumulate(sizes))


class _WithoutBlockCounter:
    """A system's name and language, without its block counter."""

    def __init__(self, system):
        self.name = system.name
        self.language = system.language


def test_scans_count_a_substitution_by_block_pairs_and_drop_them(monkeypatch):
    built = []
    init = BlockPairs.__init__

    def recording_init(self, *args):
        init(self, *args)
        built.append(weakref.ref(self))

    monkeypatch.setattr(BlockPairs, "__init__", recording_init)
    budget = SearchBudget(N=32)
    # a Toeplitz system is counted through the substitution its skeleton repeats
    toeplitz = ToeplitzSystem("toeplitz-doubling", doubling_skeleton(16))
    for system in (TM_SYS, system_for("ternary-morse"), toeplitz):
        scans = sensitivity_scan(system, 3, budget.K, budget)
        block_scans = block_sensitivity_scan(system, 3, 1, 2, budget)
        assert len(built) == 2
        gc.collect()
        assert [ref() for ref in built] == [None, None]  # nothing outlives the scan
        built.clear()
        # the same witnesses as the segment kernel, which a system without a
        # block counter is counted by
        plain = _WithoutBlockCounter(system)
        assert sensitivity_scan(plain, 3, budget.K, budget) == scans
        assert block_sensitivity_scan(plain, 3, 1, 2, budget) == block_scans


def test_oracles_import_nothing_from_the_system_modules():
    # systems reach the scans through the ShiftSystem protocol and an
    # optional block_counter, never through an import
    tree = ast.parse(Path(oracles.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    system_modules = {"substitution", "odometer", "toeplitz"}
    assert [name for name in imported if system_modules & set(name.split("."))] == []


def _held_word_lengths(obj, seen=None) -> set[int]:
    """Word lengths of the word tuples reachable from obj's attributes and containers."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return set()
    seen.add(id(obj))
    if isinstance(obj, dict):
        items = [*obj.keys(), *obj.values()]
    elif isinstance(obj, (tuple, list, set, frozenset)):
        items = list(obj)
    elif hasattr(obj, "__dict__") and not isinstance(obj, type):
        items = list(vars(obj).values())
    else:
        return set()
    lengths = {len(w) for w in items if isinstance(w, str)} if isinstance(obj, tuple) else set()
    for item in items:
        if not isinstance(item, str):
            lengths |= _held_word_lengths(item, seen)
    return lengths


def _scanned_systems() -> list:
    """Fresh systems, so no other test's memoised table lengths count."""
    tm = SubstitutionSystem("thue-morse", Substitution(("01", "10")))
    tern = Substitution(("012", "120", "201"))
    return [
        tm,
        ToeplitzSystem("toeplitz-doubling", doubling_skeleton(16)),
        sliding_block_factor(
            SubstitutionSystem("ternary-morse", tern),
            {w: str((int(w[0]) + int(w[1])) % 3) for w in language(tern, 2)},
        ),
    ]


def test_cylinder_scans_do_not_fill_the_extension_index():
    # the per-cylinder scans read long tables once: only extensions() caches
    # a grouping, and neither the system nor the language table its
    # substitution owns keeps a table of the scan lengths, 2 (L + N + K) + 1
    # and longer
    budget = SearchBudget(N=32)
    for system in _scanned_systems():
        before = _indexed_extension_groups.cache_info()
        sensitivity_scan(system, 3, budget.K, budget)
        block_sensitivity_scan(system, 3, 1, 2, budget)
        assert _indexed_extension_groups.cache_info() == before
        held = _held_word_lengths(system)
        assert max(held, default=0) < 2 * (budget.L + budget.N + budget.K) + 1, system.name


def test_extensions_reject_even_and_too_wide_central_words():
    with pytest.raises(ValueError, match="odd length"):
        extensions(TM_SYS, "01", 4)
    with pytest.raises(ValueError, match="wider than the requested window"):
        extensions(TM_SYS, "0110100", 2)


equal_length_sets = st.tuples(st.integers(1, 40), st.integers(0, 120)).flatmap(
    lambda wx: st.tuples(
        st.just(wx[0]),
        st.lists(
            st.text(alphabet="012", min_size=wx[0] + wx[1], max_size=wx[0] + wx[1]),
            min_size=1,
            max_size=8,
        ),
    )
)


@given(equal_length_sets, st.randoms(use_true_random=False))
def test_segment_blocks_match_every_extension(case, rng):
    width, exts = case
    last = len(exts[0]) - width
    los = {b + d for b in range(0, last + SEGMENT, SEGMENT) for d in (-1, 0, 1)} | {last}
    los = sorted(lo for lo in los if 0 <= lo <= last)
    rng.shuffle(los)  # segments are built on first use, in any order
    blocks = _SegmentBlocks(exts, width)
    for lo in los:
        assert blocks.at(lo) == {e[lo : lo + width] for e in exts}, lo
