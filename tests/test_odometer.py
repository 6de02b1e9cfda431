"""Odometer factor: columns, pair classes, de-substitution, residues, fiber censuses."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from shiftrank import catalog, odometer, ranks
from shiftrank.odometer import (
    PLATEAU,
    OdometerResidue,
    _continuations,
    _lift,
    base_windows,
    census_extreme,
    census_graph,
    column_number,
    fiber_census,
    initial_state,
    lift_state,
    proximal_pair,
)
from shiftrank.oracles import CylinderGrouping, _SegmentBlocks
from shiftrank.substitution import (
    BlockPairs,
    RegimeError,
    Substitution,
    SubstitutionSystem,
    expand,
    language,
    seed_pairs,
    seed_window,
)
from shiftrank.words import CenteredWord, shift_window

TM = Substitution(("01", "10"))
PD = Substitution(("01", "00"))
ONE = Substitution(("00",))


# -- columns ------------------------------------------------------------------


# (c, depth, index, column); the last four have column maps whose shortest
# word to a one-letter column has length 9, the first of them Černý's automaton
DEPTH_NINE = {
    Substitution(("11", "21", "32", "03")): (1, 9, 273, "1"),
    Substitution(("01", "12", "23", "00")): (1, 9, 238, "0"),
    Substitution(("01", "20", "32", "10")): (1, 9, 297, "0"),
    Substitution(("01", "23", "32", "20")): (1, 9, 214, "2"),
}
COLUMNS = {TM: (2, 1, 0, "01"), PD: (1, 1, 0, "0"), ONE: (1, 1, 0, "0"), **DEPTH_NINE}


@pytest.mark.parametrize("s", COLUMNS, ids=lambda s: "-".join(s.rules))
def test_column_number_values(s):
    assert column_number(s) == COLUMNS[s]


def _reference_column(s, k_max):
    """(size, power, index, letters) of the least column of σ^1..σ^k_max, read off the images."""
    images, best = tuple(s.letters), []
    for k in range(1, k_max + 1):
        images = tuple(map(s.image, images))
        columns = list(zip(*images))
        least = min(dict.fromkeys(columns), key=lambda col: len(set(col)))
        best.append((len(set(least)), k, columns.index(least), "".join(sorted(set(least)))))
        if best[-1][0] == 1:
            break
    return min(best)


def _small_primitive_systems():
    """The primitive substitutions with 2 letters and q <= 4, or 3 letters and q = 2."""
    spaces = [("01", 2), ("01", 3), ("01", 4), ("012", 2)]
    systems = [
        Substitution(rules)
        for letters, q in spaces
        for rules in itertools.product(
            ["".join(w) for w in itertools.product(letters, repeat=q)], repeat=len(letters)
        )
    ]
    return [s for s in systems if s.primitive]


def test_column_number_matches_image_columns_on_small_space():
    primitive = _small_primitive_systems()
    assert len(primitive) == 568
    for s in primitive:
        expected = column_number(s)
        assert _reference_column(s, max(8, expected[1])) == expected, s.rules
    for s, expected in DEPTH_NINE.items():
        assert _reference_column(s, 8)[0] == 2
        assert _reference_column(s, 9) == expected


# -- pair classes ---------------------------------------------------------------


def _reference_proximal(s, a, b):
    """The ordered-pair search: whether the aligned points over a and b are proximal.

    The directed graph on ordered letter pairs sends (x, y) to the pairs of
    letters in matching columns of their images.  Reaching the diagonal means
    the two aligned points share arbitrarily long blocks (proximal); never
    reaching it means they differ in every block position (distal).
    """
    s.require_constant_length()
    if not s.primitive:
        raise RegimeError("pair graph requires a primitive substitution")
    if a == b:
        return True
    idx = s.letters.index
    frontier = {(a, b)}
    seen = set(frontier)
    while frontier:
        nxt = set()
        for x, y in frontier:
            for cx, cy in zip(s.rules[idx(x)], s.rules[idx(y)]):
                if cx == cy:
                    return True
                if (cx, cy) not in seen:
                    seen.add((cx, cy))
                    nxt.add((cx, cy))
        frontier = nxt
    return False


def test_diagonal_pairs_are_proximal():
    for system in (TM, PD):
        for a in system.letters:
            assert proximal_pair(system, a, a)


def test_thue_morse_opposite_letters_distal():
    # the reachable pair set from (0,1) never meets the diagonal
    assert not proximal_pair(TM, "0", "1")
    assert not proximal_pair(TM, "1", "0")


def test_period_doubling_pair_proximal_via_first_column():
    assert proximal_pair(PD, "0", "1")


def test_ternary_all_offdiagonal_distal():
    tern = Substitution(("012", "120", "201"))
    for a in "012":
        for b in "012":
            assert proximal_pair(tern, a, b) is (a == b)


def test_pair_classes_match_ordered_pair_search_on_small_space():
    systems = [*_small_primitive_systems(), *DEPTH_NINE]
    for s in systems:
        for a, b in itertools.product(s.letters, repeat=2):
            assert proximal_pair(s, a, b) is _reference_proximal(s, a, b), (s.rules, a, b)


# -- de-substitution ----------------------------------------------------------


def desubstitute(s, w, k):
    """All (cut, preimage) pairs whose k-fold expansion matches w on its window.

    Preimages are admissible words, read off ``odometer._lift`` one level at
    a time.  The cuts are the window's odometer residues mod q^k, and an
    empty result means the window itself is inadmissible.
    """
    q = s.require_constant_length()
    if not s.table.admits(w.symbols):
        return set()
    if k == 0:
        return {(0, w)}
    out = set()
    for c1 in range(q):
        m_lo, _, preimages = _lift(s, q, w.left, w.right, c1, {w.symbols: w.symbols})
        for v1 in preimages:
            for c2, v2 in desubstitute(s, CenteredWord(v1, m_lo), k - 1):
                out.add((c1 + q * c2, v2))
    return out


def residues(s, w, k):
    """The residues mod q^k compatible with w: the cuts of its de-substitutions."""
    return {cut for cut, _ in desubstitute(s, w, k)}


def test_desubstitute_depth_zero_is_identity():
    w = CenteredWord("0110", 0)
    assert desubstitute(TM, w, 0) == {(0, w)}


def test_desubstitute_expanded_block():
    w = CenteredWord("0110", 0)  # the square image of 0 aligned at the origin
    results = desubstitute(TM, w, 2)
    assert (0, CenteredWord("0", 0)) in results


def _brute_force_one_level(s, w):
    """Oracle: try every cut and every admissible preimage word by expansion."""
    q = s.constant_length
    out = set()
    for cut in range(q):
        m_lo = (w.left + cut) // q
        m_hi = (w.right + cut) // q
        for v in language(s, m_hi - m_lo + 1):
            cand = CenteredWord(v, m_lo)
            image = expand(s, cand, 1, cut)
            if image.covers(w.left, w.right) and image.segment(w.left, w.right) == w.symbols:
                out.add((cut, cand))
    return out


def test_period_doubling_double_zero_both_cuts():
    # exhaustive match over both cuts: the image of 1 is literally 00, so the
    # aligned cut is realizable too, alongside the straddling one
    w = CenteredWord("00", 0)
    oracle = _brute_force_one_level(PD, w)
    assert desubstitute(PD, w, 1) == oracle
    assert {c for c, _ in oracle} == {0, 1}
    assert (0, CenteredWord("1", 0)) in oracle
    assert (1, CenteredWord("10", 0)) in oracle


@pytest.mark.parametrize(
    "name", ["thue-morse", "period-doubling", "ternary-morse", "keane-morse-011"]
)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_desubstitute_matches_brute_force(name, data):
    s = catalog.system_for(name).substitution
    word = data.draw(st.sampled_from(language(s, 9)))
    w = CenteredWord(word, data.draw(st.integers(-8, 0)))
    assert desubstitute(s, w, 1) == _brute_force_one_level(s, w)


def test_inadmissible_window_gives_empty_results():
    w = CenteredWord("000", -1)
    assert desubstitute(TM, w, 1) == set()
    assert residues(TM, w, 2) == set()


# -- block pairs ----------------------------------------------------------------

# displacements of a block from a cylinder word: negative, overlapping the
# word, and past the direct-table span 2 (a + b) of every width pair below
DISPLACEMENTS = (-29, -17, -6, -3, -2, -1, 0, 1, 2, 4, 7, 11, 23, 31)


def _segment_counts(s, a, b):
    """(u, e, count) per length-a word u and displacement e, from u's extensions.

    The count is the number of distinct length-b blocks at displacement e
    among the extensions of u, read by ``_SegmentBlocks``, the kernel the
    probes and the Toeplitz scans count with.
    """
    radius = max(map(abs, DISPLACEMENTS)) + a + b
    origin = radius - a // 2  # where u starts in an extension
    grouping = CylinderGrouping(SubstitutionSystem("s", s), a // 2, radius)
    for u, exts in grouping.at(a // 2, radius):
        blocks = _SegmentBlocks(exts, b)
        for e in DISPLACEMENTS:
            yield u, e, blocks.count(origin + e)


@pytest.mark.parametrize("a, b", [(1, 3), (1, 5), (3, 3), (3, 5), (5, 3), (5, 5)])
def test_block_pairs_match_segment_counts(a, b):
    substitutions = [
        catalog.system_for(name).substitution
        for name in catalog.names()
        if catalog.get(name).kind == "substitution"
    ]
    for s in [*substitutions, *_small_primitive_systems()]:
        pairs = BlockPairs(s, a, b)
        for u, e, want in _segment_counts(s, a, b):
            assert pairs.count(u, e) == want, (s.rules, u, e)


def test_block_pairs_need_an_expanding_constant_length():
    with pytest.raises(RegimeError, match="constant length at least 2"):
        BlockPairs(Substitution(("0",)), 1, 1)
    with pytest.raises(RegimeError, match="constant-length"):
        BlockPairs(Substitution(("01", "0")), 1, 1)


# -- residues -----------------------------------------------------------------


def test_depth_zero_residue():
    w = CenteredWord("01", 0)
    assert residues(TM, w, 0) == {0}


def test_wide_seed_window_has_unique_residue():
    seed = seed_pairs(TM)[0]
    w = seed_window(TM, seed, 32)
    assert residues(TM, w, 3) == {0}  # fixed points sit over the zero path


def test_equivariance_shift_is_successor():
    # the finite form of the factor map commuting with the action
    seed = seed_pairs(TM)[0]
    w = seed_window(TM, seed, 64)
    base = residues(TM, w.restrict(-40, 40), 3)
    shifted = residues(TM, shift_window(w, 1).restrict(-40, 40), 3)
    assert len(base) == 1 and len(shifted) == 1
    # the successor of v mod q^k is (v + 1) mod q^k
    assert shifted == {(next(iter(base)) + 1) % 2**3}


def test_equivariance_along_an_orbit_stretch():
    seed = seed_pairs(TM)[2]
    w = seed_window(TM, seed, 96)
    current = residues(TM, w.restrict(-48, 48), 3)
    assert len(current) == 1
    r = next(iter(current))
    for g in range(1, 9):
        got = residues(TM, shift_window(w, g).restrict(-48, 48), 3)
        r = (r + 1) % 2**3
        assert got == {r}


# -- fiber census -------------------------------------------------------------


def test_thue_morse_boundary_fiber_is_four():
    census = fiber_census(TM, OdometerResidue(2, 3, 0), 64)
    assert census.count == 4
    assert census.stabilized
    assert len(census.representatives) == 4


def test_thue_morse_generic_fiber_is_two():
    census = fiber_census(TM, OdometerResidue(2, 3, 5), 64)
    assert census.count == 2
    assert census.stabilized


def test_one_letter_fiber_is_one():
    census = fiber_census(ONE, OdometerResidue(2, 2, 1), 16)
    assert census.count == 1


def test_period_doubling_fibers():
    assert fiber_census(PD, OdometerResidue(2, 3, 0), 64).count == 2
    assert fiber_census(PD, OdometerResidue(2, 3, 5), 64).count == 1


def test_census_rejects_small_radius():
    with pytest.raises(ValueError):
        fiber_census(TM, OdometerResidue(2, 4, 0), 8)


def test_census_representatives_share_residue():
    census = fiber_census(TM, OdometerResidue(2, 2, 1), 32)
    for rep in census.representatives:
        assert 1 in residues(TM, rep, 2)


# -- monotone census properties ------------------------------------------------


@given(st.lists(st.integers(0, 1), min_size=0, max_size=4))
@settings(max_examples=24, deadline=None)
def test_counts_nonincreasing_along_paths(digits):
    radius = 16
    state = initial_state(TM, radius)
    counts = [len(base_windows(state))]
    for d in digits:
        state = lift_state(TM, state, d, radius)
        counts.append(len(base_windows(state)))
    assert all(a >= b for a, b in zip(counts, counts[1:]))


@pytest.mark.parametrize(
    "s", [TM, PD, catalog.system_for("keane-morse-011").substitution], ids=["tm", "pd", "keane"]
)
def test_carried_windows_match_expansion(s):
    # the window each survivor carries is the central window of its
    # depth-fold expansion, computed here by the reference route
    radius = 9
    for path in itertools.product(range(s.constant_length), repeat=3):
        states = [initial_state(s, radius)]
        for d in path:
            states.append(lift_state(s, states[-1], d, radius))
        for state in states:
            for v, window in state.survivors.items():
                image = expand(s, CenteredWord(v, state.m_lo), state.depth, state.cut)
                assert window == image.restrict(-radius, radius).symbols, (path, state.depth, v)


@given(st.lists(st.integers(0, 1), min_size=0, max_size=3))
@settings(max_examples=16, deadline=None)
def test_children_cover_parent_survivor_windows(digits):
    # every window alive on a path stays alive along at least one next digit,
    # so the children's window sets cover the parent's
    radius = 16
    state = initial_state(TM, radius)
    for d in digits:
        state = lift_state(TM, state, d, radius)
    parent = base_windows(state)
    children = set()
    for d in range(2):
        children |= base_windows(lift_state(TM, state, d, radius))
    assert parent == children


@given(st.lists(st.integers(0, 1), min_size=1, max_size=4), st.integers(4, 12))
@settings(max_examples=24, deadline=None)
def test_radius_refines_classes(digits, radius):
    def windows_along(r):
        state = initial_state(TM, r)
        for d in digits:
            state = lift_state(TM, state, d, r)
        return base_windows(state)

    small = windows_along(radius)
    big = windows_along(radius + 1)
    assert len(big) >= len(small)
    # each wide window restricts onto a surviving narrow window
    narrowed = {w[1:-1] for w in big}
    assert narrowed <= set(small)


# -- census over the interned state graph ---------------------------------------


def _per_path_follow(s, state, radius, pattern, extra_depth):
    """Reference: follow one continuation by lifting full path states."""
    counts = [len(base_windows(state))]

    def plateaued():
        return len(counts) > PLATEAU and len(set(counts[-PLATEAU - 1 :])) == 1

    cap = state.depth + extra_depth
    i = 0
    while state.depth < cap and not plateaued():
        state = lift_state(s, state, pattern[i % len(pattern)], radius)
        counts.append(len(base_windows(state)))
        i += 1
    return counts[-1], plateaued()


def _per_path_census_extreme(s, policy, branch_depth, radius):
    """Reference: the census walk that recomputes every path state from its parent."""
    q = s.constant_length
    best = None
    all_stable = True

    def consider(count, stabilized):
        nonlocal best, all_stable
        if best is None or (count > best if policy == "max" else count < best):
            best, all_stable = count, stabilized
        elif count == best:
            all_stable = all_stable or stabilized

    def walk(state, prefix):
        if policy == "max" and best is not None and len(base_windows(state)) <= best:
            return
        if policy == "min" and best == 1:
            return
        if state.depth >= branch_depth:
            for pattern in _continuations(q, prefix, policy):
                consider(*_per_path_follow(s, state, radius, pattern, 18))
            return
        for d in range(q):
            walk(lift_state(s, state, d, radius), prefix + (d,))

    walk(initial_state(s, radius), ())
    return best, all_stable


EXACT_CATALOG = ("thue-morse", "period-doubling", "ternary-morse", "keane-morse-011")


@pytest.mark.parametrize("depth, radius", [(3, 16), (2, 8)])
def test_graph_census_matches_per_path_census_on_criterion_5_sample(depth, radius):
    for s in catalog.random_exact_substitutions(200):
        for policy in ("min", "max"):
            assert census_extreme(s, policy, depth, radius) == _per_path_census_extreme(
                s, policy, depth, radius
            ), (s.rules, policy)


@pytest.mark.parametrize("depth, radius", [(4, 64), (3, 32)])
@pytest.mark.parametrize("name", EXACT_CATALOG)
def test_graph_census_matches_per_path_census_on_catalog(name, depth, radius):
    s = catalog.system_for(name).substitution
    for policy in ("min", "max"):
        assert census_extreme(s, policy, depth, radius) == _per_path_census_extreme(
            s, policy, depth, radius
        ), policy


@pytest.mark.parametrize("policy", ["Max", "MIN", "", "maximum"])
def test_census_extreme_rejects_unknown_policies(policy):
    with pytest.raises(ValueError, match="census policy"):
        census_extreme(TM, policy, 3, 16)


def _graph_counts_match_paths(s, radius, depth):
    """Whether every node reached by a digit path of at most ``depth`` digits
    counts the windows of the path state that ``lift_state`` reaches."""
    graph = census_graph(s, radius)

    def walk(node, state):
        if graph.count(node) != len(base_windows(state)):
            return False
        return state.depth == depth or all(
            walk(graph.step(node, d), lift_state(s, state, d, radius))
            for d in range(s.constant_length)
        )

    return walk(0, initial_state(s, radius))


@pytest.mark.parametrize("radius", [2, 5, 16])
@pytest.mark.parametrize("name", EXACT_CATALOG)
def test_census_graph_counts_match_every_short_path(name, radius):
    assert _graph_counts_match_paths(catalog.system_for(name).substitution, radius, 6)


def test_census_graph_counts_match_paths_on_criterion_5_sample():
    for s in catalog.random_exact_substitutions(200):
        assert _graph_counts_match_paths(s, 8, 4), s.rules


def test_census_graph_lifts_each_state_once(monkeypatch):
    # the min and max rank reports of the rank-sweep benchmark's 40 systems,
    # confirmation radius included; lifting every path state per path made
    # 16,885 calls here, the graph makes 3,295
    calls = 0
    lift = odometer._lift

    def counted(*args):
        nonlocal calls
        calls += 1
        return lift(*args)

    monkeypatch.setattr(odometer, "_lift", counted)
    census_graph.cache_clear()
    for s in catalog.random_exact_substitutions(40):
        ranks.minimal_rank(s, 3, 16)
        ranks.maximal_rank(s, 3, 16)
    assert calls <= 4000


def test_census_graph_cache_is_bounded_and_holds_ints():
    assert census_graph.cache_info().maxsize == 2
    graph = census_graph(TM, 16)
    assert len(graph.successors) == len(graph.counts)
    assert all(type(c) is int for c in graph.counts)
    nodes = range(len(graph.counts))
    assert all(type(n) is int and n in nodes for row in graph.successors for n in row)
