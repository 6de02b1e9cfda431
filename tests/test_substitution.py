"""Substitutions: primitivity, language generation, seeds, expansion, height."""

import functools
import gc
import hashlib
import itertools
import json
import weakref

import pytest
from hypothesis import given, strategies as st

from shiftrank import catalog, oracles, ranks, substitution
from shiftrank.substitution import (
    APERIODICITY_N_MAX,
    ComplexityError,
    LanguageTable,
    RegimeError,
    Substitution,
    SubstitutionSystem,
    aperiodicity_check,
    expand,
    height,
    language,
    seed_pairs,
    seed_window,
)
from shiftrank.verdicts import VerdictStatus
from shiftrank.words import CenteredWord

TM = Substitution(("01", "10"))
PD = Substitution(("01", "00"))
TERN = Substitution(("012", "120", "201"))
ONE = Substitution(("00",))


def iterate(s: Substitution, letter: str, k: int, cap: int | None = None) -> str:
    w = letter
    for _ in range(k):
        w = s.image(w)
        if cap is not None and len(w) >= cap:
            return w[:cap]
    return w


def factors(word: str, n: int) -> set[str]:
    return {word[i : i + n] for i in range(len(word) - n + 1)}


def _primitive(letters: str, q: int) -> list[Substitution]:
    """Every primitive length-q substitution over the letters, periodic ones included."""
    images = ["".join(w) for w in itertools.product(letters, repeat=q)]
    systems = [Substitution(rules) for rules in itertools.product(images, repeat=len(letters))]
    return [s for s in systems if s.primitive]


# -- primitivity ------------------------------------------------------------


def test_thue_morse_is_primitive():
    assert TM.primitive


def test_identity_substitution_is_not_primitive():
    assert not Substitution(("0", "1")).primitive


def test_period_doubling_is_primitive():
    assert PD.primitive


def _conjugate(s: Substitution, image: str) -> Substitution:
    """Relabel symbols by the permutation sending letter i to image[i]."""
    perm = str.maketrans(s.letters, image)
    inv = str.maketrans(image, s.letters)
    rules = [s.rules[s.letters.index(a.translate(inv))].translate(perm) for a in s.letters]
    return Substitution(tuple(rules))


def test_primitivity_invariant_under_relabeling():
    assert _conjugate(PD, "10").primitive == PD.primitive
    for image in itertools.permutations("012"):
        assert _conjugate(TERN, "".join(image)).primitive == TERN.primitive


def test_primitivity_is_decided_once_per_substitution(monkeypatch):
    runs = []
    incidence_matrix = substitution.incidence_matrix
    monkeypatch.setattr(
        substitution, "incidence_matrix", lambda s: runs.append(s.rules) or incidence_matrix(s)
    )
    s = Substitution(("011", "100"))  # fresh, so no property is cached yet
    assert s.regime.exact
    s.table.words(5)
    seed_pairs(s)
    assert runs == [s.rules]


# -- language ---------------------------------------------------------------


def test_thue_morse_letters():
    assert language(TM, 1) == ("0", "1")


def test_thue_morse_length_two_against_direct_iteration():
    # independent oracle: collect 2-factors of the sixth image of 0
    expected = factors(iterate(TM, "0", 6), 2)
    assert set(language(TM, 2)) == expected == {"00", "01", "10", "11"}


def test_thue_morse_length_three():
    expected = factors(iterate(TM, "0", 7), 3)
    assert set(language(TM, 3)) == expected
    assert len(language(TM, 3)) == 6 and "000" not in language(TM, 3)


def test_ternary_letters():
    assert language(TERN, 1) == ("0", "1", "2")


def test_language_rejects_non_primitive():
    with pytest.raises(RegimeError):
        language(Substitution(("0", "1")), 2)


def test_language_factor_closed_and_extendable():
    for s in (TM, PD, TERN):
        for n in (2, 3, 5, 8):
            words_n = set(language(s, n))
            words_prev = set(language(s, n - 1)) if n > 1 else set()
            for w in words_n:
                if n > 1:
                    assert w[:-1] in words_prev and w[1:] in words_prev
            longer = set(language(s, n + 1))
            for w in words_n:
                assert any(x[1:] == w for x in longer) or any(x[:-1] == w for x in longer)
                assert any(x.startswith(w) for x in longer)
                assert any(x.endswith(w) for x in longer)


def test_one_letter_language():
    assert language(ONE, 4) == ("0000",)


@functools.cache
def _admissible_pairs(s: Substitution) -> frozenset[str]:
    """Reference: the two-letter factors of theta^k(c) over every letter c and power k >= 1.

    theta^(k+1)(c) is theta^k(x) over the letters x of theta(c), joined, so
    its two-letter factors are those of each theta^k(x) and the seams
    last(theta^k(x)) first(theta^k(y)) of consecutive letters xy.  The
    per-letter state (factors, first letter, last letter) at power k + 1 is
    thus a function of the state at power k, and once a state repeats no
    new factor can appear.  For a primitive substitution these factors are
    exactly the admissible two-letter words.
    """
    state = {
        c: (frozenset(img[i : i + 2] for i in range(len(img) - 1)), img[0], img[-1])
        for c, img in zip(s.letters, s.rules)
    }
    seen, pairs = set(), set()
    while (key := tuple(state.items())) not in seen:
        seen.add(key)
        for factors, _, _ in state.values():
            pairs |= factors
        state = {
            c: (
                frozenset().union(
                    *(state[x][0] for x in img),
                    (state[x][2] + state[y][1] for x, y in zip(img, img[1:])),
                ),
                state[img[0]][1],
                state[img[-1]][2],
            )
            for c, img in zip(s.letters, s.rules)
        }
    return frozenset(pairs)


def _pairwise_words(s: Substitution, n: int) -> tuple[str, ...]:
    """Reference: per admissible pair ab, the length-n windows starting in theta^k(a).

    The windows are read from the block theta^k(a)theta^k(b), where k is
    the least power whose letter images all have length >= n.  A
    window lying inside theta^k(b) starts in the first image of a pair bc:
    the language is right-extendable, so every letter b has a right
    neighbour c, and theta^k(c) is long enough to hold the window's rest.
    So skipping the windows that start in theta^k(b) loses none.
    """
    images = list(s.letters)
    while min(map(len, images)) < n:
        images = [s.image(img) for img in images]
    image = dict(zip(s.letters, images))
    found = set()
    for a, b in _admissible_pairs(s):
        block = image[a] + image[b][: n - 1]
        found.update(block[i : i + n] for i in range(len(image[a])))
    return tuple(sorted(found))


TABLE_LENGTHS = (*range(1, 40), 64, 129, 517, 535, 1033, 1047)
CATALOG_RULES = [
    catalog.get(name).params["rules"]
    for name in catalog.names()
    if catalog.get(name).kind == "substitution"
]
NON_CONSTANT_RULES = [["0 -> 01", "1 -> 0"], ["0 -> 0012", "1 -> 12", "2 -> 01"]]


@pytest.mark.parametrize(
    "rules", [*CATALOG_RULES, *NON_CONSTANT_RULES], ids=lambda rules: ";".join(rules)
)
def test_language_table_matches_pairwise_windows(rules):
    s = Substitution.from_text("\n".join(rules))
    table = LanguageTable(s)
    for n in TABLE_LENGTHS:
        assert table.words(n) == _pairwise_words(s, n), n


def test_language_table_matches_pairwise_windows_on_criterion_5_sample():
    for s in catalog.random_exact_substitutions(200):
        table = LanguageTable(s)
        for n in TABLE_LENGTHS:
            assert table.words(n) == _pairwise_words(s, n), (s.rules, n)


@pytest.mark.parametrize(
    "rules",
    [*CATALOG_RULES, *NON_CONSTANT_RULES, ["0 -> 01", "1 -> 01"]],
    ids=lambda rules: ";".join(rules),
)
def test_derived_tables_match_pairwise_windows(rules):
    # longest first, so every other length is derived from a longer table;
    # the catalog's trivial-1 is the one-letter 0 -> 00
    s = Substitution.from_text("\n".join(rules))
    table = LanguageTable(s)
    for n in sorted(TABLE_LENGTHS, reverse=True):
        assert table.words(n) == _pairwise_words(s, n), n


def test_derived_tables_match_pairwise_windows_on_criterion_5_sample():
    for s in catalog.random_exact_substitutions(200):
        table = LanguageTable(s)
        for n in range(49, 0, -1):
            assert table.words(n) == _pairwise_words(s, n), (s.rules, n)


# (L, radius): short radii, the point and cover probes' 258 and 267, and
# verify's 516 and 523 at N = 512
CYLINDER_RADII = [(0, 1), (1, 1), (2, 16), (2, 258), (2, 267), (2, 516), (2, 523)]


def test_cylinder_groups_match_the_whole_table_grouping():
    subs = [Substitution.from_text("\n".join(rules)) for rules in CATALOG_RULES]
    subs += [
        catalog.system_for(name).substitution
        for name in catalog.names()
        if catalog.get(name).kind == "toeplitz"
    ]
    # the catalog's trivial-1 is 0 -> 00; 0 -> 0 presents the same point
    subs.append(Substitution(("0",)))
    subs += [Substitution.from_text(";".join(rules)) for rules in NON_CONSTANT_RULES]
    subs += catalog.random_exact_substitutions(40)
    for s in subs:
        system = SubstitutionSystem("s", s)
        for L, radius in CYLINDER_RADII:
            grouped = oracles._cylinders(system, L, radius)
            assert list(oracles._cylinder_groups(system, L, radius)) == grouped, (s.rules, L, radius)


@pytest.fixture
def image_builds(monkeypatch):
    """The lengths that tables build from letter images while the test runs."""
    built = []
    images_covering = LanguageTable._images_covering

    def counting(self, n):
        built.append(n)
        return images_covering(self, n)

    monkeypatch.setattr(LanguageTable, "_images_covering", counting)
    return built


def test_aperiodicity_check_builds_one_table_from_images(image_builds, monkeypatch):
    derived = []
    prefixes = substitution._prefixes

    def counting(words, n):
        derived.append(n)
        return prefixes(words, n)

    monkeypatch.setattr(substitution, "_prefixes", counting)
    # fresh substitutions, whose tables no other test has filled
    for s in (Substitution(TM.rules), Substitution(TERN.rules)):
        image_builds.clear()
        assert aperiodicity_check(s).status is VerdictStatus.WITNESSED
        # one build at length 49, and p(1..48) counted from it without a derived table
        assert image_builds == [49]
        assert derived == []


def test_gated_sample_keeps_one_table_length():
    # the regime gate keeps its scan length n_max + 1; everything else the
    # memo holds adds up to fewer characters than that one length
    longest = APERIODICITY_N_MAX + 1
    for s in catalog.random_exact_substitutions(200):
        memo = s.table._cache
        assert longest in memo, s.rules
        others = sum(n * len(words) for n, words in memo.items() if n != longest)
        assert others < longest * len(memo[longest]), (s.rules, sorted(memo))


def test_census_derives_its_tables_from_the_gated_length(image_builds):
    sample = catalog.random_exact_substitutions(10)
    image_builds.clear()
    # the rank-sweep census: depth 3, radius 16, so length 33 and shorter
    for s in sample:
        ranks.minimal_rank(s, 3, 16)
        ranks.maximal_rank(s, 3, 16)
    assert image_builds == []


def test_height_reads_no_language_table(monkeypatch):
    def unread(*args):
        raise AssertionError("height read a language table")

    for name in ("build", "words", "_images_covering"):
        monkeypatch.setattr(LanguageTable, name, unread)
    # its words avoid 1 for up to 70 letters, so its returns of 1 outrun length 49
    systems = [Substitution.from_text("0->200;1->222;2->110")]
    systems += [Substitution.from_text("\n".join(rules)) for rules in CATALOG_RULES]
    assert [height(s) for s in systems] == [1] * len(systems)


# sha256 over the full aperiodicity verdict (status, certificate, annotations
# and reason) of each catalog substitution, each criterion-5 system and each
# primitive substitution with 2 letters and q <= 3, periodic ones included
APERIODICITY_SHA256 = "8befb95b96fa4d1e02b1a11db08be95bf50bf772154f273da810132083024810"


def test_aperiodicity_evidence_is_frozen():
    systems = [Substitution.from_text("\n".join(rules)) for rules in CATALOG_RULES]
    systems += catalog.random_exact_substitutions(200)
    systems += _primitive("01", 2) + _primitive("01", 3)
    rows = []
    for s in systems:
        v = aperiodicity_check(s)
        rows.append([s.rules, v.status.value, v.certificate, dict(v.annotations), v.reason])
    assert len(rows) == 261
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == APERIODICITY_SHA256


# sha256 over, per catalog substitution and then per criterion-5 system, the
# rules, the regime flags and the complexities p(1..49) of the shared table
REGIME_SHA256 = "a56f36746b674192eebae21ee379f383e260e7252c8cb9c2bc6dfb0a57c92a31"


def test_sample_and_regime_evidence_are_frozen():
    systems = [Substitution.from_text("\n".join(rules)) for rules in CATALOG_RULES]
    systems += catalog.random_exact_substitutions(200)
    rows = [
        [s.rules, dict(s.regime.flags), [len(s.table.words(n)) for n in range(1, 50)]]
        for s in systems
    ]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == REGIME_SHA256


# sha256 over the rules and regime flags of the first 40 criterion-5 systems,
# the rank-sweep benchmark's inputs
RANK_SWEEP_REGIME_SHA256 = "502a0229e77071adb20dd4fdbabbedf2669929b57441e8305cfc4532aa2e2fd1"


def test_rank_sweep_inputs_and_regime_are_frozen():
    rows = [[s.rules, dict(s.regime.flags)] for s in catalog.random_exact_substitutions(40)]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == RANK_SWEEP_REGIME_SHA256


# -- seeds ------------------------------------------------------------------


def test_thue_morse_seed_pairs():
    seeds = seed_pairs(TM)
    assert len(seeds) == 4
    assert all(p.power == 2 for p in seeds)
    assert {(p.b, p.a) for p in seeds} == {("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")}


def test_one_letter_seed():
    seeds = seed_pairs(ONE)
    assert len(seeds) == 1 and (seeds[0].b, seeds[0].a) == ("0", "0")


def test_period_doubling_seeds():
    seeds = seed_pairs(PD)
    # only 0 is fixed as a first letter; last letters cycle with period 2
    assert all(p.a == "0" for p in seeds)
    assert {p.b for p in seeds} == {"0", "1"}


def test_seed_windows_are_nested():
    for seed in seed_pairs(TM):
        small = seed_window(TM, seed, 10)
        big = seed_window(TM, seed, 40)
        assert big.restrict(-10, 10) == small


@pytest.mark.parametrize("s", [TM, TERN], ids=["thue-morse", "ternary-morse"])
def test_seed_window_agrees_with_fixed_point_iteration(s):
    radius = 12
    for seed in seed_pairs(s):
        # theta^k(b).theta^k(a) is a window of the fixed point for every multiple k
        k = seed.power
        while s.constant_length**k <= radius:
            k += seed.power
        w = seed_window(s, seed, radius)
        assert w.segment(0, radius) == iterate(s, seed.a, k)[: radius + 1]
        assert w.segment(-radius, -1) == iterate(s, seed.b, k)[-radius:]


# -- expand -----------------------------------------------------------------


def test_expand_zero_power_is_identity():
    w = CenteredWord("0110", -2)
    assert expand(TM, w, 0, 0) == w


def test_expand_single_letter_examples():
    assert expand(TM, CenteredWord("0", 0), 1, 0) == CenteredWord("01", 0)
    assert expand(TM, CenteredWord("0", 0), 2, 3) == CenteredWord("0110", -3)


def test_expand_rejects_cut_out_of_range():
    with pytest.raises(ValueError):
        expand(TM, CenteredWord("0", 0), 1, 2)


@given(st.integers(0, 3), st.integers(0, 3), st.data())
def test_expand_composition_mixed_radix(j, k, data):
    # theta^(j+k) with cut c equals theta^j at the high digits then theta^k
    # at the low ones: c = (c div q^k) * q^k + (c mod q^k)
    q = 2
    cut = data.draw(st.integers(0, q ** (j + k) - 1))
    word = data.draw(st.sampled_from(language(TM, 3)))
    w = CenteredWord(word, -1)
    direct = expand(TM, w, j + k, cut)
    composed = expand(TM, expand(TM, w, j, cut // q**k), k, cut % q**k)
    assert direct == composed


# -- height -----------------------------------------------------------------


def test_heights_are_one():
    assert height(TM) == 1
    assert height(PD) == 1
    assert height(ONE) == 1


def test_height_against_direct_prefix_oracle():
    # independent computation on a long eighth-image prefix
    import math

    prefix = iterate(TM, "0", 12)
    g = 0
    for n in range(1, len(prefix)):
        if prefix[n] == prefix[0]:
            g = math.gcd(g, n)
    h = g
    while (d := math.gcd(h, 2)) > 1:
        h //= d
    assert h == height(TM) == 1


def test_height_agrees_with_prefix_oracle_and_divides_returns():
    import math

    candidates = [TM, PD, TERN] + [s for q in (2, 3, 4) for s in _primitive("01", q)]
    candidates += _primitive("012", 2)
    assert len(candidates) == 3 + 8 + 48 + 224 + 288
    heights = []
    for s in candidates:
        h = height(s)
        heights.append(h)
        q = s.constant_length
        # the least letter on a cycle of the first-letter map, and its period:
        # theta^p(a) starts with a, so theta^(pk)(a) is a fixed-point prefix
        first = {c: s.image(c)[0] for c in s.letters}
        on_cycles = set(s.letters)
        for _ in s.letters:
            on_cycles = {first[c] for c in on_cycles}
        a = min(on_cycles)
        c, p = first[a], 1
        while c != a:
            c, p = first[c], p + 1
        prefix = a
        while len(prefix) < 4096:
            prefix = iterate(s, prefix, p)
        returns = [n for n in range(1, len(prefix)) if prefix[n] == a]
        assert returns, "primitive fixed point must revisit its first letter"
        g = 0
        for n in returns:
            g = math.gcd(g, n)
        assert g % h == 0
        assert math.gcd(h, q) == 1
        while (d := math.gcd(g, q)) > 1:
            g //= d
        assert h == g, s.rules
    # the periodic 0->101;1->010 has height 2, and 0->10;1->02;2->21 height 3
    assert set(heights) == {1, 2, 3}


@pytest.mark.parametrize(
    "rules", [("02", "12", "10"), ("020", "002", "211"), ("101", "200", "202")]
)
def test_height_one_when_short_prefixes_suggest_more(rules):
    # 0 recurs at 3 and 6 in the fixed point of 0->02;1->12;2->10, and at 11
    s = Substitution(rules)
    assert height(s) == 1
    assert s.regime.exact


# -- aperiodicity -----------------------------------------------------------


def test_thue_morse_aperiodic_witnessed():
    v = aperiodicity_check(TM)
    assert v.status is VerdictStatus.WITNESSED
    # the complexity witness satisfies p(n) > n
    n = v.certificate["n"]
    assert v.certificate["complexity"] > n


def test_one_letter_refuted_with_period_one():
    v = aperiodicity_check(ONE)
    assert v.status is VerdictStatus.REFUTED
    assert v.annotations["period"] == 1


def test_ternary_aperiodic():
    assert aperiodicity_check(TERN).status is VerdictStatus.WITNESSED


def test_periodic_system_with_growing_low_complexity_is_refuted():
    # fixed point (001)^inf has p(1)=2>1; a naive p(n)>n check would pass it
    s = Substitution(("001", "001"))
    v = aperiodicity_check(s)
    assert v.status is VerdictStatus.REFUTED
    assert v.annotations["period"] == 3


def test_alternating_periodic_refuted():
    s = Substitution(("01", "01"))
    v = aperiodicity_check(s)
    assert v.status is VerdictStatus.REFUTED
    assert v.annotations["period"] == 2


# -- system wrapper ---------------------------------------------------------


def test_text_roundtrip_and_hash():
    text = TM.to_text()
    assert text == "0 -> 01\n1 -> 10"
    assert Substitution.from_text(text) == TM
    assert Substitution.from_text("0 -> 01; 1 -> 10") == TM
    sys1 = SubstitutionSystem("a", TM)
    sys2 = SubstitutionSystem("b", TM)
    assert sys1.spec_hash == sys2.spec_hash
    assert sys1.spec_hash != SubstitutionSystem("c", PD).spec_hash


def test_memoized_language_table_shared():
    # every reader of one substitution shares its memoised table
    s = Substitution(("01", "10"))
    assert s.table is s.table
    assert s.table.words(9) is s.table.words(9)
    # an equal substitution owns a table of its own
    assert Substitution(("01", "10")).table is not s.table


@pytest.mark.parametrize("rules", [("01", "01"), ("00",)], ids=["period-2", "one-letter"])
def test_a_table_that_loses_a_word_is_refused(monkeypatch, rules):
    # (01)^Z has p(n) = 2 and the constant word p(n) = 1 at every length,
    # so a length-4 table that loses one word is smaller than the length-3
    # table memoised before it
    table = Substitution(rules).table
    shorter = table.words(3)
    windows = LanguageTable._windows

    def losing(self, n):
        text, runs = windows(self, n)
        words = sorted({text[g : g + n] for g in itertools.chain.from_iterable(runs)})[1:]
        return "".join(words), [range(0, n * len(words), n)]

    monkeypatch.setattr(LanguageTable, "_windows", losing)
    assert len(table.build(4)) == len(shorter) - 1
    with pytest.raises(ComplexityError, match="length-4 table has"):
        table.words(4)
    assert 4 not in table._cache  # the short table is not memoised
    # a length derived from a memoised longer one reads no windows
    assert table.words(2) == tuple(dict.fromkeys(w[:2] for w in shorter))


def test_dropped_substitution_frees_its_table():
    s = Substitution(("012", "120", "201"))
    assert s.regime.exact  # fills the table through the regime gate
    table = weakref.ref(s.table)
    del s
    gc.collect()
    assert table() is None
