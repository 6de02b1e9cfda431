"""The q-adic odometer factor of a constant-length substitution subshift.

Every point of such a subshift de-substitutes: it is the image of another
point under the substitution, shifted by a cut in [0, q).  Iterating this
peels off base-q digits, and the digit stream is exactly the image of the
point in the q-adic odometer.  Everything here is finite and exact: windows
de-substitute to windows, and fibers of the odometer map are approximated by
following a digit path downward while counting the distinct central windows
that stay realizable.

This module owns the census policy: which digit paths are followed, how deep,
and when a path's window count is taken as stabilized.  ``census_extreme`` is the one entry
point the rank estimates read, and ``fiber_census`` follows a single residue.

``census_extreme`` walks a ``CensusGraph``: the digit-path states of one
substitution at one radius, the closure of the root under de-substitution
along each digit (Dekking 1978; Allouche and Shallit 2003, ch. 5-6),
interned so that each is lifted once, whatever the number of paths that
reach it.  A state is its span m_lo..m_hi and a tuple of classes, one int
per admissible word of the span in table order: two words share a class
exactly when their expansions carry one central window, and classes are
numbered by first occurrence.  This is exact, and the tuple is the whole
state:

- Every admissible word of a span survives.  The root holds every
  admissible word of its span, and the image slice of an admissible word is
  admissible, so every word over a child's span reads some parent survivor.
  By induction each state's survivors are the whole table of its span
  length, and no digit path runs out of survivors.
- ``_lift`` carries each word's value to the words below it without
  reading it: a word below takes the value of the parent word its image
  slice spells, whose index ``ImageCuts.cut`` gives.  So the classes below a
  state depend on its key alone, and its count, the number of distinct
  windows, is its number of classes.  Two states with one key therefore
  give equal counts along every continuation, so every plateau and
  ``stabilized`` flag of the walk is the one the windows themselves give.

A leaf's continuation repeats a digit pattern, so it walks the graph's
(node, pattern phase) states, and where it first plateaus is a fact of the
state it starts from.  A state that, with its next ``PLATEAU`` successors
along the pattern, shares one count plateaus ``PLATEAU`` steps on; any other
state first plateaus one step past its successor.  ``census_extreme``
settles each state by this rule once per call, so leaves whose
continuations meet share the rest of the walk.  Settling ends: counts never
increase along an edge, so the states of a cycle share one count and each
of them starts a plateau, and every walk over finitely many states reaches
a cycle.  ``fiber_census`` follows its residue with ``follow_path`` over
``PathState`` windows, which ``lift_state`` carries through the same
``_lift``: the reference the tests hold the graph to.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Generic, Iterator, Mapping, Sequence, TypeVar

from .substitution import ImageCuts, Substitution
from .words import CenteredWord


@dataclass(frozen=True)
class OdometerResidue:
    """A depth-k approximation of a q-adic integer: its value mod q^k."""

    q: int
    depth: int
    value: int

    def __post_init__(self) -> None:
        if self.q < 2:
            raise ValueError("odometer base must be at least 2")
        if self.depth < 0 or not 0 <= self.value < self.q**self.depth:
            raise ValueError(f"residue {self.value} out of range for depth {self.depth}")

    def digits(self) -> tuple[int, ...]:
        """Base-q digits, least significant first."""
        out = []
        v = self.value
        for _ in range(self.depth):
            out.append(v % self.q)
            v //= self.q
        return tuple(out)


def _columns(s: Substitution, start: str) -> Iterator[dict[str, int]]:
    """Each power's columns reachable from ``start``, each with its least index.

    f_j(a) is letter j of σ(a).  Column i of σ^k, the letters at position i
    of the images σ^k(a) for a in ``start``, has base-q digits i_1…i_k, most
    significant first, and equals f_{i_k}∘…∘f_{i_1} applied to ``start``:
    letter i of σ^k(a) is letter i_k of the image of letter ⌊i/q⌋ of
    σ^(k-1)(a).  So the columns of every power are subsets reachable from
    ``start`` under the f_j, and there are at most 2^d of them.  Each
    power's columns are the f_j-images of the previous power's, so once a
    power has no column unseen at a lower power, no later power has one, and
    the search stops there.

    Yields powers 1, 2, … in order, each as a map from column (its letters
    in order) to its least index.  That index is ``index*q + j`` from the
    previous power's least index: words of one length compare as the
    integers they spell.
    """
    q = s.require_constant_length()
    maps = [str.maketrans(s.letters, "".join(image[j] for image in s.rules)) for j in range(q)]
    level = {start: 0}
    seen: set[str] = set()
    while not level.keys() <= seen:
        seen |= level.keys()
        deeper: dict[str, int] = {}
        # level holds its columns in increasing index order, so each first
        # insertion into deeper carries that column's least index
        for column, index in level.items():
            for j, f in enumerate(maps):
                deeper.setdefault("".join(sorted(set(column.translate(f)))), index * q + j)
        level = deeper
        yield level


def column_number(s: Substitution) -> tuple[int, int, int, str]:
    """Dekking's column number c, decided exactly from the column maps.

    c is the least column size over all powers (Dekking 1978), so it is the
    least size of any subset that ``_columns`` reaches from the alphabet.
    The search stops at the first column of one letter, since no column is
    smaller.

    The depth is the least power k >= 1 at which a column of size c appears,
    and the index is that column's least index at that power.  No fixed
    depth suffices: the column maps of 0->11;1->21;2->32;3->03 form Černý's
    automaton (Černý 1964), whose shortest reset word has length
    (4-1)^2 = 9, so there c = 1 first appears at depth 9.

    Returns (c, depth, index, column), with the column's letters in order.
    """
    least = []  # (size, power, index, letters) of each power's least column
    for level in _columns(s, s.letters):
        column, index = min(level.items(), key=lambda item: len(item[0]))
        least.append((len(column), len(least) + 1, index, column))
        if len(column) == 1:
            break
    return min(least)


def proximal_pair(s: Substitution, a: str, b: str) -> bool:
    """Whether the aligned points over letters a and b are proximal.

    Position i of σ^k(a) and σ^k(b) is column i of σ^k over {a, b}, so the
    points share arbitrarily long blocks exactly when ``_columns`` reaches a
    single letter from {a, b}, and otherwise differ in every block position
    (distal).
    """
    start = "".join(sorted({a, b}))
    return any(len(column) == 1 for level in _columns(s, start) for column in level)


V = TypeVar("V")


def _lift(
    s: Substitution,
    q: int,
    m_lo: int,
    m_hi: int,
    digit: int,
    values: Sequence[V],
    cuts: ImageCuts | None = None,
) -> tuple[int, int, tuple[V, ...]]:
    """De-substitute blocks m_lo..m_hi one level along ``digit``.

    ``values`` holds one value per admissible word over m_lo..m_hi, in table
    order.  Returns the span new_lo..new_hi of the level-up blocks and, per
    admissible word v over it in table order, the value of the word that
    v's image reads over m_lo..m_hi: one ``ImageCuts.cut``, mapped.  The cut
    depends only on the offset and the old span's length, so ``cuts``, when
    given, keeps it for later lifts.
    """
    new_lo = (m_lo + digit) // q
    new_hi = (m_hi + digit) // q
    # block m of the old span is symbol m + digit - q * new_lo of image(v)
    off = m_lo + digit - q * new_lo
    if cuts is None:
        cuts = ImageCuts(s, s.table.words)
    cut = cuts.cut(off, m_hi - m_lo + 1)
    return new_lo, new_hi, tuple(map(values.__getitem__, cut))


# --------------------------------------------------------------------------
# Digit-path censuses


@dataclass(frozen=True)
class PathState:
    """Survivors of a digit path at one depth, each with its level-0 window.

    ``cut`` is the accumulated residue mod q^depth; survivors are the
    admissible words over level-``depth`` blocks m_lo..m_hi, all of them and
    in table order (see the module docstring).  ``survivors`` maps each
    survivor to the radius-L central window of its depth-fold expansion at
    ``cut``.  The map is well defined because a survivor induces exactly one
    word one level up the path: its image, read over the parent's blocks,
    is a parent survivor, and the survivor's expansion restricts to the same
    central window as the parent's.  At depth 0 every word is its own
    window.
    """

    depth: int
    cut: int
    m_lo: int
    m_hi: int
    survivors: Mapping[str, str]


def initial_state(s: Substitution, radius: int) -> PathState:
    return PathState(0, 0, -radius, radius, {w: w for w in s.table.words(2 * radius + 1)})


def lift_state(s: Substitution, state: PathState, digit: int, radius: int) -> PathState:
    """De-substitute one more level along the given next digit."""
    q = s.require_constant_length()
    if not 0 <= digit < q:
        raise ValueError(f"digit {digit} out of range for base {q}")
    windows = tuple(state.survivors.values())
    new_lo, new_hi, lifted = _lift(s, q, state.m_lo, state.m_hi, digit, windows)
    return PathState(
        state.depth + 1,
        state.cut + digit * q**state.depth,
        new_lo,
        new_hi,
        dict(zip(s.table.words(new_hi - new_lo + 1), lifted)),
    )


def base_windows(state: PathState) -> frozenset[str]:
    """Distinct central windows realizable by the survivors, at the path's radius."""
    return frozenset(state.survivors.values())


State = TypeVar("State")


@dataclass(frozen=True)
class PathCensus(Generic[State]):
    """Counts of realizable central windows along a digit path, and its last state."""

    counts: tuple[int, ...]
    state: State
    stabilized: bool

    @property
    def count(self) -> int:
        return self.counts[-1]


PLATEAU = 3  # a path is stabilized once its last PLATEAU + 1 counts are equal


def follow_path(
    step: Callable[[State, int], State],
    count: Callable[[State], int],
    state: State,
    prefix: tuple[int, ...],
    pattern: tuple[int, ...],
    extra_depth: int,
) -> PathCensus[State]:
    """Lift ``state`` along ``prefix``, then along ``pattern`` repeated.

    ``step(state, digit)`` lifts a state one level and ``count(state)`` is
    its window count.  The pattern is followed until the last ``PLATEAU`` + 1
    window counts are equal (stabilization) or ``extra_depth`` levels past
    the prefix are reached.  Counts are nonincreasing in depth (constraints
    only accumulate), which is why a plateau is taken as stabilization.  An
    empty pattern stops after the prefix, unstabilized.
    """
    counts = [count(state)]

    def plateaued() -> bool:
        return len(counts) > PLATEAU and len(set(counts[-PLATEAU - 1 :])) == 1

    for d in prefix:
        state = step(state, d)
        counts.append(count(state))
    if pattern:
        for i in range(extra_depth):
            if plateaued():
                break
            state = step(state, pattern[i % len(pattern)])
            counts.append(count(state))
    stabilized = bool(pattern) and plateaued()
    return PathCensus(tuple(counts), state, stabilized)


@dataclass(frozen=True)
class CensusGraph:
    """The interned digit-path states of one substitution at one radius.

    Node 0 is ``initial_state``; ``successors[n][d]`` is the node that node n
    lifts to along digit d, and ``counts[n]`` is node n's window count.
    """

    counts: tuple[int, ...]
    successors: tuple[tuple[int, ...], ...]

    def step(self, node: int, digit: int) -> int:
        return self.successors[node][digit]

    def count(self, node: int) -> int:
        return self.counts[node]


@functools.lru_cache(maxsize=2)  # a rank report reads two radii, for both extremes
def census_graph(s: Substitution, radius: int) -> CensusGraph:
    """Every state reachable from ``initial_state(s, radius)``, each lifted once per digit.

    A state is its span and class tuple, as the module docstring describes;
    the root's classes are 0, 1, ..., one per word, since each word is its
    own window.  A lift maps the parent's classes through ``_lift`` and
    renumbers them by first occurrence.  Every lift reads one ``ImageCuts``,
    so the words under each span length are imaged once per graph, and
    every offset's cut is kept as ints.  The graph keeps only ints too: the
    class tuples and the kernel are dropped once every state has its
    successors.
    """
    q = s.require_constant_length()
    cuts = ImageCuts(s, s.table.words)
    ids: dict[tuple[int, int, tuple[int, ...]], int] = {}
    states: list[tuple[int, int, tuple[int, ...]]] = []  # m_lo, m_hi, classes
    counts: list[int] = []

    def intern(m_lo: int, m_hi: int, values: Sequence[int]) -> int:
        first: dict[int, int] = {}
        classes = tuple([first.setdefault(c, len(first)) for c in values])
        key = (m_lo, m_hi, classes)
        node = ids.get(key)
        if node is None:
            node = ids[key] = len(states)
            states.append(key)
            counts.append(len(first))
        return node

    intern(-radius, radius, range(len(s.table.words(2 * radius + 1))))
    successors = []
    while len(successors) < len(states):  # interning appends the states still to lift
        m_lo, m_hi, classes = states[len(successors)]
        row = [intern(*_lift(s, q, m_lo, m_hi, d, classes, cuts)) for d in range(q)]
        successors.append(tuple(row))
    return CensusGraph(tuple(counts), tuple(successors))


def _continuations(q: int, prefix: tuple[int, ...], policy: str) -> list[tuple[int, ...]]:
    pats = [(0,), (q - 1,)] if policy == "max" else [(1 % q, 0)]
    if prefix and len(set(prefix)) > 1:
        pats.append(prefix)
    return pats


LEAF_LEVELS = 18  # how far a census leaf follows its pattern before it gives up on a plateau


def _starts_plateau(graph: CensusGraph, node: int, pattern: tuple[int, ...], phase: int) -> bool:
    """Whether (node, phase) and its next ``PLATEAU`` successors along ``pattern`` share a count."""
    count = graph.counts[node]
    for i in range(phase, phase + PLATEAU):
        node = graph.successors[node][pattern[i % len(pattern)]]
        if graph.counts[node] != count:
            return False
    return True


def _leaf_census(
    graph: CensusGraph,
    settled: dict[tuple[int, tuple[int, ...], int], tuple[int, int]],
    leaf: int,
    pattern: tuple[int, ...],
) -> tuple[int, bool]:
    """``follow_path(graph.step, graph.count, leaf, (), pattern, LEAF_LEVELS)``'s count and flag.

    ``settled`` maps each (node, pattern, phase) state already met to its
    number of steps to the first plateau and the plateau's count.  Walks
    from the leaf's state to the first state that is settled or starts a
    plateau, then settles the states it passed, each one step further than
    its successor.
    """
    path = []
    node, phase = leaf, 0
    while (known := settled.get((node, pattern, phase))) is None:
        if _starts_plateau(graph, node, pattern, phase):
            known = settled[node, pattern, phase] = (PLATEAU, graph.counts[node])
            break
        path.append((node, phase))
        node = graph.successors[node][pattern[phase]]
        phase = (phase + 1) % len(pattern)
    steps, count = known
    for node, phase in reversed(path):
        steps += 1
        settled[node, pattern, phase] = (steps, count)
    if steps <= LEAF_LEVELS:
        return count, True
    node = leaf
    for i in range(LEAF_LEVELS):
        node = graph.successors[node][pattern[i % len(pattern)]]
    return graph.counts[node], False


def census_extreme(
    s: Substitution, policy: str, branch_depth: int, radius: int
) -> tuple[int, bool]:
    """Extreme stabilized window count over digit paths, ``policy`` "min" or "max".

    Branches over all digits to ``branch_depth`` (sampling every residue of
    that depth), then follows canonical continuations: constant digits reach
    the integer points where boundary fibers live, mixed periodic patterns
    reach generic points.  Counts only decrease along a path, so for the
    maximum a subtree whose current count cannot beat the best is pruned.
    Returns the extreme count and whether some path reaching it stabilized.

    Each leaf reads the count and ``stabilized`` flag that ``follow_path``
    gives its continuation from the (node, pattern phase) states settled so
    far in the call (``_leaf_census``), so each state is settled once per
    call.  Settling ends because counts never increase along an edge: the
    states of a cycle share one count, and each starts a plateau.
    """
    if policy not in ("min", "max"):
        raise ValueError(f'census policy must be "min" or "max", got {policy!r}')
    q = s.require_constant_length()
    graph = census_graph(s, radius)
    settled: dict[tuple[int, tuple[int, ...], int], tuple[int, int]] = {}
    best: int | None = None
    all_stable = True
    # depth first, lower digits first; a recursive closure would be a
    # reference cycle, which keeps the graph and the memo alive until the
    # next cyclic collection
    stack = [(0, ())]
    while stack:
        node, prefix = stack.pop()
        if policy == "max" and best is not None and graph.count(node) <= best:
            continue
        if policy == "min" and best == 1:
            break
        if len(prefix) < branch_depth:
            stack.extend((graph.step(node, d), prefix + (d,)) for d in reversed(range(q)))
            continue
        for pattern in _continuations(q, prefix, policy):
            count, stabilized = _leaf_census(graph, settled, node, pattern)
            if best is None or (count > best if policy == "max" else count < best):
                best, all_stable = count, stabilized
            elif count == best:
                all_stable = all_stable or stabilized
    assert best is not None
    return best, all_stable


@dataclass(frozen=True)
class FiberCensus:
    """Fiber of the odometer map over a residue, at desk scale."""

    residue: OdometerResidue
    radius: int
    count: int
    representatives: tuple[CenteredWord, ...]
    counts_by_depth: tuple[int, ...]
    stabilized: bool

    def to_payload(self) -> dict:
        return {
            "q": self.residue.q,
            "depth": self.residue.depth,
            "residue": self.residue.value,
            "radius": self.radius,
            "count": self.count,
            "stabilized": self.stabilized,
            "representatives": [w.serialize() for w in self.representatives],
        }


def fiber_census(s: Substitution, r: OdometerResidue, radius: int) -> FiberCensus:
    """Enumerate the distinct central windows compatible with a residue's digit path.

    The residue's digits are continued periodically, which selects the
    canonical q-adic point with those leading digits: all-zero residues give
    integer points (boundary fibers), mixed residues give generic points.
    The census deepens until the window count stabilizes, at most 16 levels
    past the residue.
    """
    q = s.require_constant_length()
    if r.q != q:
        raise ValueError(f"residue base {r.q} does not match substitution length {q}")
    if radius < q**r.depth:
        raise ValueError(f"radius {radius} too small for depth {r.depth}: need at least q^depth")
    digits = r.digits()
    census = follow_path(
        lambda state, d: lift_state(s, state, d, radius),
        lambda state: len(base_windows(state)),
        initial_state(s, radius),
        digits,
        digits or (0,),
        16,
    )
    reps = tuple(CenteredWord(w, -radius) for w in sorted(base_windows(census.state)))
    return FiberCensus(r, radius, census.count, reps, census.counts, census.stabilized)
