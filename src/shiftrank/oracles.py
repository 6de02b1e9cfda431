"""Finite-horizon witness searches realizing the epsilon-delta definitions.

Open sets are cylinders on central words, points are admissible windows, and
epsilon is always a dyadic scale 2^-K, so "within epsilon" means agreement on
the coordinates [-K, K] and "separated by epsilon" means a difference there.
These are exact complements, which keeps the dichotomy-style tests honest.

Every universally quantified negative ("no tuple exists") is reported as an
exhausted budget, never as a refutation.  Every witness carries enough data
to replay its defining inequality with window operations alone.

The cylinder scans, ``sensitivity_scan`` and ``block_sensitivity_scan``, are
the only drivers that scan every cylinder: the single-m tests, and with them
the CLI, run them, and so does ``verify``.  Each is one loop over
``_cylinder_groups``, which yields one cylinder's extensions at a time, and
drops each group before the next is built.  Both read one index per system
(``_index``): a text and, per central word, the starts of its extensions in
it.  A substitution or Toeplitz system's ``cylinders`` gives the table's
window text, so a scan cuts each group only when it reaches it and holds its
largest group, not the whole length-(2 R + 1) table; a factor system's index
joins that table, grouped by ``_cylinders``.  The point and cover probes
read the same groups through the bounded cache ``_indexed_extension_groups``,
whose entries hold no window: each is the index with its starts sorted by
window, so the cache's bound of 8 entries bounds texts and starts.  A probe
cuts the windows of its first ladder stage out of the text when it reaches
the stage, and drops them when it returns.

The searches bound their tuples by distinct-block counts, which come from one
of two counters.  The cylinder scans read the system's ``block_counter`` when
it has one: for a constant-length substitution, and for a Toeplitz system
through the substitution its skeleton repeats, that is the block-pair
automaton ``substitution.BlockPairs``, which counts without reading an
extension and hands out, per displacement, one row of counts over every
cylinder word.  Each scan builds one automaton.  The separation scan reads
it in one pass over the shifts for all cylinders (``_rises``), and then
reads each group only to cut its witnesses at the shifts where its count
rose; the block scan reads a cylinder's column of the rows at each center
its run scan asks for.
Everything else is cut from the extensions by the segment kernel
``_SegmentBlocks``: the counts of the factor systems' cylinder scans, the
run-blocks and cores of every run scan, and every block of the point and
cover probes.  The probes keep the kernel because each ladder radius has its
own central width and their scans exit early, so an automaton per stage
costs more than it saves: one per stage made the probe-replay benchmark 3.4
times slower.

Probes of one system at many points meet the same ladder words again, so
they share a second bounded cache, ``_probe_memo``: per system, for up to 8
systems, a dict of what their scans found, in ints and short words only,
emptied whenever it would pass ``_PROBE_MEMO_ENTRIES`` entries.
Under the key (u, K) it holds, per ladder word u, the number of distinct
(2K+1)-blocks among u's extensions at each block center, as one byte per
center (``_center_counts``).  That number does not depend on the window
radius: the language is factorial and extendable, so the radius-R windows
carrying u, cut down to a smaller radius, are exactly the smaller radius's
windows carrying u, and a center inside both windows shows the same blocks
in both.  So the point test (radius N + K) and the cover test (radius N + B
+ K + 1) read and fill the same counts.  Under the key (u, radius, K, run
length, m_cap, m_min) it holds each core's clique size and each solved
run's clique, as its size, member blocks and number of distinct run-blocks
(``_run_scan``).  Each call still cuts its witnesses from its own
extensions, so a warm memo changes no verdict or certificate.  The cylinder
scans pass a fresh memo per cylinder.

The block and cover tests ask for cliques of run-blocks pairwise separated
at every center of a run (``_run_scan``).  Their finder builds all the
separation rows of a block set at once, as bit masks from one grouping of
the blocks per center, and bounds its branch and bound by a greedy
colouring as well as by the candidate count.  Every scan reports witnesses
only from a floor m_min up, m for the single-m tests and 2 for ``verify``,
and its searches start their bounds there.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Protocol, Sequence

from .verdicts import Verdict, VerdictStatus, exhausted, witnessed
from .words import CenteredWord, _cut, _window_starts, scale_of_difference, shift_window, shifts


class ShiftSystem(Protocol):
    """Anything with a name, a spec hash, and an enumerable language.

    ``language(n)`` returns the sorted length-n words and keeps no copy, so
    a scan-length table of a system without ``cylinders`` lives as long as
    the index ``_index`` joins from it: one scan, or an entry of the bounded
    ``_indexed_extension_groups``.

    A system may also offer ``cylinders(L, radius)``: a text, and per
    radius-L cylinder word, in language order, the starts in it of the
    length-(2 radius + 1) windows that are that word's extensions, a window
    possibly at more than one start (``substitution.LanguageTable.cylinders``).
    ``_index`` reads it instead of grouping the whole table.  For a
    substitution it is the table's window text, tens of KB at the default
    budget, so the scans and the probes' cache hold no window they have not
    cut.

    And it may offer ``block_counter(central, width)``, an object whose
    ``words`` are the length-``central`` words, sorted, and whose ``row(e)``
    counts, for each of them in that order, the length-``width`` words
    occurring e after it (``substitution.BlockPairs`` for constant-length
    substitutions).  The cylinder scans read it instead of their extensions'
    blocks; see ``sensitivity_scan`` and ``block_sensitivity_scan``.
    """

    name: str

    @property
    def spec_hash(self) -> str: ...

    def language(self, n: int) -> tuple[str, ...]: ...


@dataclass(frozen=True)
class SearchBudget:
    """Finite horizons for the searches.

    L is the cylinder radius, N the shift horizon, K the scale exponent
    (epsilon = 2^-K), B the block half-length for block sensitivity, and
    ladder the increasing sequence of candidate delta-window radii used to
    exhaust "for every delta".  No search reads m: each test takes its tuple
    size as an argument, and m is kept only because certificates record the
    whole budget.
    """

    L: int = 2
    N: int = 256
    K: int = 2
    B: int = 8
    m: int = 2
    ladder: tuple[int, ...] = (1, 2, 4, 8)

    def __post_init__(self) -> None:
        if min(self.L, self.N, self.K, self.B, self.m) < 1:
            raise ValueError("budget parameters must be positive")
        if not self.ladder or list(self.ladder) != sorted(set(self.ladder)):
            raise ValueError("ladder must be strictly increasing")
        if self.ladder[0] < 0:
            raise ValueError(f"ladder radii must be non-negative, got ladder={list(self.ladder)}")

    def as_dict(self) -> dict:
        return {
            "L": self.L,
            "N": self.N,
            "K": self.K,
            "B": self.B,
            "m": self.m,
            "ladder": list(self.ladder),
        }


def _central_span(central: str, radius: int) -> slice:
    """Where a radius-``radius`` window carries ``central`` as its central word."""
    if len(central) % 2 == 0:
        raise ValueError("central word must have odd length")
    half = len(central) // 2
    if half > radius:
        raise ValueError("central word wider than the requested window")
    return slice(radius - half, radius + half + 1)


def _cylinders(system: ShiftSystem, L: int, radius: int) -> list[tuple[str, tuple[str, ...]]]:
    """Every radius-``L`` cylinder word with its radius-``radius`` extensions, in language order.

    Grouped in one pass over the whole length-(2 radius + 1) table, each
    group in language order, and not cached: the list lives as long as its
    caller holds it.
    """
    lo, hi = radius - L, radius + L + 1
    groups: dict[str, list[str]] = {}
    for w in system.language(2 * radius + 1):
        groups.setdefault(w[lo:hi], []).append(w)
    return [(u, tuple(groups.get(u, ()))) for u in system.language(2 * L + 1)]


def _index(system: ShiftSystem, L: int, radius: int) -> tuple[str, dict[str, Sequence[int]]]:
    """A text, and per radius-``L`` word, in language order, the starts of its extensions in it.

    The system's ``cylinders`` when it has one.  Otherwise the ``_cylinders``
    groups joined into one text, with starts at strides of 2 radius + 1.
    """
    if hasattr(system, "cylinders"):
        return system.cylinders(L, radius)
    n = 2 * radius + 1
    groups = _cylinders(system, L, radius)
    starts, base = {}, 0
    for u, exts in groups:
        starts[u] = range(base, base + len(exts) * n, n)
        base += len(exts) * n
    return "".join(w for _, exts in groups for w in exts), starts


def _cylinder_groups(
    system: ShiftSystem, L: int, radius: int
) -> Iterator[tuple[str, tuple[str, ...]]]:
    """``_cylinders``, one group at a time, holding none it has handed out.

    Each group's windows are cut out of the index's text, deduplicated and
    sorted when it is reached, and its starts are dropped, so no more than
    one group need be held at once.
    """
    n = 2 * radius + 1
    text, index = _index(system, L, radius)
    return ((u, _cut(text, index.pop(u), n)) for u in list(index))


# A point or cover test reads one entry per (system, radius), at the first
# ladder radius, so the four exact-regime catalog systems at the point and
# cover radii fill 8 entries.  An entry holds no window: it is a text and,
# per central word, the starts of its extensions in that text, and
# ``extensions`` cuts one group's windows when a test asks for it.  So the
# bound of 8 bounds texts and starts.  The text is ``_index``'s: for a
# substitution or Toeplitz system the table's window text, at the default
# budget 35-190 KB per catalog entry against 0.45-2.3 MB for its windows as
# strings.  The scans never read this cache: they drop each group before
# the next is built.
@functools.lru_cache(maxsize=8)
def _indexed_extension_groups(
    system: ShiftSystem, radius: int, half: int
) -> tuple[str, dict[str, Sequence[int]]]:
    """``_index``, with each word's starts in window order, one per distinct window.

    Each group's windows are cut, to sort them, and dropped before the
    next group's.
    """
    n = 2 * radius + 1
    text, index = _index(system, half, radius)
    return text, {u: _window_starts(text, starts, n) for u, starts in index.items()}


# The probes' memo grows with the ladder words probed, not with the calls:
# after the 128 jobs of a seed-1 probe-replay round the four systems' memos
# held about 395 KB (tracemalloc): 229 count arrays of about 530 bytes, and
# the cores and 330 solved runs of 264 cover stages.  A system's memo held
# at most 157 entries then, and at most 633 after all 2,064 probe-replay
# jobs; one that would pass _PROBE_MEMO_ENTRIES is emptied first.
_PROBE_MEMO_ENTRIES = 2048


@functools.lru_cache(maxsize=8)
def _probe_memo(system: ShiftSystem) -> dict:
    """The point and cover tests' memo of ``system``, empty at first; see the module docstring."""
    return {}


def _memo_entry(memo: dict, key: tuple, make: Callable[[], object]) -> object:
    """``memo[key]``, made by ``make`` when absent; a full memo is emptied before it grows.

    A scan holds the entries it reads, so emptying the memo under it only
    makes later calls recompute them.
    """
    value = memo.get(key)
    if value is None:
        if len(memo) >= _PROBE_MEMO_ENTRIES:
            memo.clear()
        value = memo[key] = make()
    return value


def extensions(system: ShiftSystem, central: str, radius: int) -> tuple[str, ...]:
    """Admissible radius-``radius`` windows whose central word is ``central``, in language order."""
    _central_span(central, radius)  # raises on an even or too wide central word
    text, starts = _indexed_extension_groups(system, radius, len(central) // 2)
    n = 2 * radius + 1
    return tuple(text[g : g + n] for g in starts.get(central, ()))


def _ladder_extensions(
    system: ShiftSystem, x: CenteredWord, ladder: Sequence[int], radius: int
) -> Iterator[tuple[int, str, tuple[str, ...]]]:
    """Each ladder radius W with x.central(W) and its ``extensions`` at ``radius``.

    The first stage's windows are cut out of the cached text when the stage
    is reached, and live as long as the caller iterates.  The ladder
    increases, and a window carrying x.central(W) carries the central words
    of every smaller radius, so each stage after the first filters the
    previous stage's extensions, in language order, instead of the whole
    language table.
    """
    exts = None
    for W in ladder:
        central = x.central(W)
        if exts is None:
            exts = extensions(system, central, radius)
        else:
            span = _central_span(central, radius)
            exts = tuple(w for w in exts if w[span] == central)
        yield W, central, exts


def scan_radius(budget: SearchBudget, K: int, B: int = 0) -> int:
    """The window radius of a sensitivity scan (B = 0) or of a block scan of half-length B."""
    return budget.L + budget.N + B + K


def _block_counter(system: ShiftSystem, L: int, K: int):
    """The system's ``block_counter`` for radius-L cylinder words and radius-K blocks, or None."""
    return system.block_counter(2 * L + 1, 2 * K + 1) if hasattr(system, "block_counter") else None


def _witness(
    cylinder: str,
    exts: Sequence[str],
    idxs: Sequence[int],
    radius: int,
    g: int,
    K: int,
    block_half: int | None = None,
) -> dict:
    """The certificate entry for extensions ``idxs`` of ``cylinder``, separated at shift g."""
    windows = [CenteredWord(exts[i], -radius) for i in idxs]
    shifted = [shift_window(w, g) for w in windows]
    size = len(windows)
    rows: list[list[int | None]] = [[None] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            # the measure is symmetric: compute the upper triangle, mirror it
            rows[i][j] = rows[j][i] = scale_of_difference(shifted[i], shifted[j])
    return {
        "cylinder": cylinder,
        "windows": [w.serialize() for w in windows],
        "shift": g,
        "K": K,
        "block_half": block_half,
        "scale_matrix": rows,
    }


# Offsets per segment of the distinct-block kernel.  It serves every count
# but the cylinder scans of substitution and Toeplitz systems, which read the
# block-pair automaton, and it cuts every block a clique search or a witness
# reads (the module docstring lists the readers).  The probes keep it because
# their scans exit early and each ladder radius would need an automaton of
# its own.  Counted per verify-wide cylinder against one slice per extension
# per shift, segments of 8 slice about 5x fewer strings, 16 to 32 6.6-11x
# fewer and 64 5.5-9.5x fewer.
SEGMENT = 32


class _SegmentBlocks:
    """The distinct width-``width`` blocks of ``exts`` at any string offset.

    Offsets fall into segments of S = ``SEGMENT`` consecutive offsets, and
    segment s keeps the distinct windows ``e[sS : sS + S + width - 1]`` of
    the extensions, built on first use.  An offset lo of segment s sits at
    ``off = lo - sS < S`` inside that window, so ``off + width <= S + width
    - 1`` and ``e[lo : lo + width]`` is the window's ``[off : off + width]``.
    Reading every window at ``off`` therefore gives exactly
    ``{e[lo : lo + width] for e in exts}``, at the cost of one slice per
    distinct window, of which a segment has far fewer than there are
    extensions.  Near the end of the strings slicing cuts the windows short,
    but never before ``lo + width`` for a valid offset.  The windows live as
    long as this object, which is one scan call.
    """

    def __init__(self, exts: Sequence[str], width: int):
        self._exts = exts
        self._width = width
        self._windows: dict[int, tuple[str, ...]] = {}

    def at(self, lo: int) -> set[str]:
        seg, off = divmod(lo, SEGMENT)
        windows = self._windows.get(seg)
        if windows is None:
            base = seg * SEGMENT
            window_of = operator.itemgetter(slice(base, base + SEGMENT + self._width - 1))
            windows = self._windows[seg] = tuple(set(map(window_of, self._exts)))
        return set(map(operator.itemgetter(slice(off, off + self._width)), windows))

    def count(self, lo: int) -> int:
        return len(self.at(lo))


def _read_through(
    table: bytearray, origin: int, compute: Callable[[int], int]
) -> Callable[[int], int]:
    """``compute``, memoised in ``table``: byte i - origin holds compute(i) + 1 once known, else 0.

    A value above 254 does not fit a byte, so it is computed at every read.
    """

    def read(i: int) -> int:
        known = table[i - origin]
        if known:
            return known - 1
        value = compute(i)
        if value < 255:
            table[i - origin] = value + 1
        return value

    return read


def _center_counts(
    memo: dict,
    word: str,
    exts: Sequence[str],
    radius: int,
    K: int,
    count: Callable[[int], int] | None = None,
) -> Callable[[int], int]:
    """The number of distinct (2K+1)-blocks of ``exts`` at a string offset, read through ``memo``.

    ``memo[word, K]`` holds the counts by block center: the block at offset
    p of a radius-``radius`` window is centered at coordinate p + K -
    radius, and byte c + H of the array, H = its length // 2, is for center
    c.  The array reaches at least the window's centers, radius - K each
    side, and grows both ways when a wider window asks.  ``count(p)``
    counts at offset p, from ``exts`` by the segment kernel unless given.
    """
    half = radius - K
    counts = _memo_entry(memo, (word, K), lambda: bytearray(2 * half + 1))
    if len(counts) < 2 * half + 1:
        pad = bytearray(half - len(counts) // 2)
        counts = memo[word, K] = pad + counts + pad
    count = count or _SegmentBlocks(exts, 2 * K + 1).count
    return _read_through(counts, half - len(counts) // 2, count)


def _first_indices(blocks: Iterable[str], limit: int) -> dict[str, int]:
    """The first ``limit`` distinct blocks with their first indices; reads no block past them."""
    first: dict[str, int] = {}
    for idx, block in enumerate(blocks):
        if block not in first:
            first[block] = idx
            if len(first) == limit:
                break
    return first


def _separation_scan(
    exts: Sequence[str],
    radius: int,
    K: int,
    horizon: int,
    m_cap: int,
    m_min: int = 1,
    memo: dict | None = None,
    word: str = "",
) -> tuple[int, dict[int, tuple[int, list[int]]]]:
    """Best number of pairwise-separated extensions at a single shift.

    Extensions are separated at shift g exactly when their radius-K blocks
    around coordinate g are pairwise distinct words.  Returns the best count,
    or m_min - 1 when no shift reaches m_min, and, for each tuple size from
    m_min up to the cap, the first witnessing shift with extension indices,
    in deterministic scan order.  The scan starts from the bound m_min - 1,
    so it reads no block for a size below m_min.  The counts are the
    extensions' own, by the segment kernel, read through ``memo``'s counts
    of the ladder word ``word`` (``_center_counts``); the witnesses are cut
    from ``exts`` on every call.
    """
    best = m_min - 1
    rises = []
    count_at = _center_counts({} if memo is None else memo, word, exts, radius, K)
    for g in shifts(horizon):
        count = count_at(radius + g - K)
        if count > best:
            rises.append((g, count))
            best = count
            if best >= m_cap:
                break
    return best, _separation_witnesses(exts, radius, K, m_cap, m_min, rises)


def _rises(
    counter, shift: int, horizon: int, m_cap: int, m_min: int
) -> dict[str, list[tuple[int, int]]]:
    """Per cylinder word, each (g, count) where its separation scan's count rises.

    One pass over ``shifts(horizon)`` for every cylinder word at once: the
    counter's row at displacement g + ``shift`` holds each word's count at
    shift g.  A word is done once its count reaches m_cap, and the pass
    once every word is.  A row met before raises no count: when it was
    first met, each word reached its count there or was already done, and
    neither is undone.  So each word rises at the same shifts to the same
    counts as in ``_separation_scan``.
    """
    words = counter.words
    best = [m_min - 1] * len(words)
    rises: list[list[tuple[int, int]]] = [[] for _ in words]
    seen = set()
    for g in shifts(horizon):
        row = counter.row(g + shift)
        if row in seen:
            continue
        seen.add(row)
        for i, count in enumerate(row):
            if best[i] < count and best[i] < m_cap:
                best[i] = count
                rises[i].append((g, count))
        if min(best) >= m_cap:
            break
    return dict(zip(words, rises))


def _separation_witnesses(
    exts: Sequence[str],
    radius: int,
    K: int,
    m_cap: int,
    m_min: int,
    rises: Iterable[tuple[int, int]],
) -> dict[int, tuple[int, list[int]]]:
    """The separation scan's witnesses, cut at each (g, count) of ``_rises``.

    Each new size up to the count, capped, is witnessed at g by the first
    extensions to show distinct radius-K blocks there.
    """
    best = m_min - 1
    witnesses: dict[int, tuple[int, list[int]]] = {}
    width = 2 * K + 1
    for g, count in rises:
        start = radius + g - K
        block_of = operator.itemgetter(slice(start, start + width))
        top = min(count, m_cap)
        first_indices = list(_first_indices(map(block_of, exts), top).values())
        for m in range(best + 1, top + 1):
            witnesses[m] = (g, sorted(first_indices[:m]))
        best = count
    return witnesses


def _require_scale(K: int) -> None:
    """A scale 2^-K with K < 0 leaves no position to compare, so it would prove nothing."""
    if K < 0:
        raise ValueError(f"scale exponent must be non-negative, got K={K}")


def sensitivity_scan(
    system: ShiftSystem, m_cap: int, K: int, budget: SearchBudget, m_min: int = 2
) -> dict[str, dict[int, dict]]:
    """Each cylinder's witness entries for tuple sizes m_min..m_cap, from the separation scan.

    A system with a ``block_counter`` is counted for every cylinder in one
    pass over the shifts (``_rises``), and only then are its extensions
    read, to cut each cylinder's witnesses at the shifts that pass found;
    any other system's cylinders are scanned one by one
    (``_separation_scan``).  The extensions are read one group at a time
    (``_cylinder_groups``), and each group is dropped before the next is
    built.
    """
    _require_scale(K)
    radius = scan_radius(budget, K)
    counter = _block_counter(system, budget.L, K)
    # a cylinder word sits at offset radius - L, so shift g's block is displaced g + L - K
    rises = None if counter is None else _rises(counter, budget.L - K, budget.N, m_cap, m_min)
    del counter  # the automaton is dropped before any group is built
    scans = {}
    for u, exts in _cylinder_groups(system, budget.L, radius):
        if rises is None:
            raw = _separation_scan(exts, radius, K, budget.N, m_cap, m_min)[1]
        else:
            raw = _separation_witnesses(exts, radius, K, m_cap, m_min, rises[u])
        scans[u] = {m: _witness(u, exts, idxs, radius, g, K) for m, (g, idxs) in raw.items()}
        del exts
    return scans


@dataclass(frozen=True)
class SensitivityReport:
    """Per-cylinder verdicts plus the aggregate for one tuple size."""

    aggregate: Verdict
    per_cylinder: dict[str, Verdict]


def _certificate_header(
    kind: str, system: ShiftSystem, m: int, K: int, budget: SearchBudget
) -> dict:
    """The top-level fields every tuple-search certificate starts with."""
    return {
        "kind": kind,
        "system": system.name,
        "spec_hash": system.spec_hash,
        "m": m,
        "K": K,
        "budget": budget.as_dict(),
    }


def sensitivity_report(
    system: ShiftSystem,
    scans: dict[str, dict[int, dict]],
    m: int,
    K: int,
    B: int | None,
    budget: SearchBudget,
) -> SensitivityReport:
    """Grade per-cylinder scans for tuple size m: the one scan-to-verdict step.

    ``B`` None grades an m-sensitivity scan, an integer a block m-sensitivity
    scan with that half-length.  The aggregate is witnessed, with a
    certificate bundling every cylinder's witness, only when each cylinder
    has one; otherwise it is exhausted and names the witness-free cylinders.
    """
    if B is None:
        kind, claim = "m-sensitivity", f"{m}-sensitivity at scale 2^-{K} on {system.name}"
    else:
        kind = "block-m-sensitivity"
        claim = f"block {m}-sensitivity at scale 2^-{K}, half-length {B}, on {system.name}"
    per: dict[str, Verdict] = {}
    bundle = []
    missing = []
    for u, witnesses in scans.items():
        entry = witnesses.get(m)
        if entry is None:
            per[u] = exhausted(claim)
            missing.append(u)
        else:
            per[u] = witnessed(claim, entry)
            bundle.append(entry)
    if missing:
        aggregate = exhausted(claim, witness_free_cylinders=tuple(missing))
    else:
        payload = {**_certificate_header(kind, system, m, K, budget), "cylinders": bundle}
        if B is not None:
            payload["B"] = B
        aggregate = witnessed(claim, payload)
    return SensitivityReport(aggregate, per)


def m_sensitivity_test(
    system: ShiftSystem, m: int, K: int, budget: SearchBudget
) -> SensitivityReport:
    """Search every cylinder for m extensions pairwise 2^-K-separated at one time."""
    if m < 2:
        raise ValueError("tuple size must be at least 2")
    scans = sensitivity_scan(system, m, K, budget, m_min=m)
    return sensitivity_report(system, scans, m, K, None, budget)


def m_equicontinuity_point_test(
    system: ShiftSystem, x: CenteredWord, m: int, K: int, budget: SearchBudget
) -> Verdict:
    """Try to refute that x is an m-equicontinuity point at scale 2^-K.

    For each candidate delta-radius W on the ladder, search for m admissible
    windows agreeing with x on [-W, W] that some shift separates pairwise by
    2^-K.  Finding one at every W is a counterexample across the tested
    deltas (witnessed); a W admitting none within the horizon is consistency
    with m-equicontinuity up to the budget (exhausted).
    """
    if m < 2:
        raise ValueError("tuple size must be at least 2")
    _require_scale(K)
    radius = budget.N + K
    claim = f"failure of {m}-equicontinuity at scale 2^-{K} near the given point"
    memo = _probe_memo(system)
    stages = []
    for W, central, exts in _ladder_extensions(system, x, budget.ladder, radius):
        best, raw = _separation_scan(exts, radius, K, budget.N, m, m, memo, central)
        if best < m:
            return exhausted(claim, verdict_class="consistent-up-to", clean_delta_radius=W)
        g, idxs = raw[m]
        stages.append({"delta_radius": W, **_witness(central, exts, idxs, radius, g, K)})
    payload = {
        **_certificate_header("eq-point-counterexample", system, m, K, budget),
        "point": x.central(max(budget.ladder)),
        "stages": stages,
    }
    return witnessed(claim, payload, verdict_class="counterexample")


# --------------------------------------------------------------------------
# Block (compact) sensitivity and cover equicontinuity share one kernel: both
# ask for m extensions pairwise separated at every shift in a whole run.


class _RunCliqueFinder:
    """Max sets of run-blocks pairwise separated everywhere, for sizes from m_min up.

    A run-block spans its centers plus K symbols on each side, so the
    radius-K windows around the centers are exactly its (2K+1)-windows, and
    two blocks are separated over the run iff their windows differ at every
    center.  The clique answer depends only on the set of available blocks,
    so it memoizes well across run positions and cylinders; the cache lives
    as long as the finder, which is one scan call.
    """

    def __init__(self, K: int, m_cap: int, m_min: int = 1):
        self.K = K
        self.m_cap = m_cap
        self.m_min = m_min
        self._cliques: dict[tuple[str, ...], tuple[int, tuple[int, ...]]] = {}

    def _rows(self, blocks: tuple[str, ...]) -> list[int]:
        """Row v: the bits of the blocks separated from block v at every center.

        At each center the blocks are grouped by their (2K+1)-window, one
        bit mask per distinct window, so ``close[v]``, the OR of v's groups,
        holds exactly the blocks that share a window with v somewhere (v
        included), and row v is its complement.
        """
        n = len(blocks)
        close = [0] * n
        span = 2 * self.K + 1
        for c in range(len(blocks[0]) - span + 1 if blocks else 0):
            windows = list(map(operator.itemgetter(slice(c, c + span)), blocks))
            groups: dict[str, int] = {}
            for v, w in enumerate(windows):
                groups[w] = groups.get(w, 0) | 1 << v
            for v, w in enumerate(windows):
                close[v] |= groups[w]
        full = (1 << n) - 1
        return [full ^ c for c in close]

    def best(self, blocks: tuple[str, ...]) -> tuple[int, tuple[int, ...]]:
        """The largest set of pairwise separated blocks (size capped), by index.

        Carraghan-Pardalos branch and bound, from the bound m_min - 1: expand
        the lowest candidate v, then search the candidates after v that are
        separated from it.  A set with no clique of m_min blocks answers
        (m_min - 1, ()).

        Besides the candidate count, ``grow`` bounds a node by a greedy
        colouring of its candidates (Tomita and Seki 2003): classes of
        pairwise unseparated blocks, each filled highest index first.  No
        clique has two members in one class, so the candidates a node has
        yet to expand hold no clique larger than the number of classes that
        still meet them.  Filled highest first, a block's class depends only
        on the candidates above it, so that number falls as the lowest
        candidates are expanded.

        Neither bound changes the answer.  Let d = min(clique number, m_cap)
        and let P be the first node of depth d in the unpruned depth-first
        order, d >= m_min.  Before P every node is shallower, so the best
        size stays below d.  When an ancestor A of P comes to expand P's
        next member, P's other remaining members are among A's candidates
        and form a clique, so both of A's bounds are at least d - depth(A)
        and neither prunes on the way to P.  P is therefore reached and
        recorded, and nothing after it is deeper (at m_cap the search
        stops), so the answer is P: the members an unpruned search from the
        bound 0 finds, whatever the floor and however many other subtrees
        the bounds cut.
        """
        cached = self._cliques.get(blocks)
        if cached is not None:
            return cached
        rows = self._rows(blocks)
        best_size = self.m_min - 1
        best_members: tuple[int, ...] = ()

        def grow(members: list[int], cand: int) -> bool:
            nonlocal best_size, best_members
            depth = len(members)
            if depth > best_size:
                best_size = depth
                best_members = tuple(members)
                if best_size >= self.m_cap:
                    return True
            if depth + cand.bit_count() <= best_size:
                return False
            classes = []  # colour classes, each independent: no pair in it separated
            rest = cand
            while rest:
                free, cls = rest, 0
                while free:
                    u = free.bit_length() - 1
                    cls |= 1 << u
                    free &= ~(rows[u] | 1 << u)
                classes.append(cls)
                rest ^= cls
            top = len(classes)
            while cand:
                while not classes[top - 1] & cand:
                    top -= 1
                if depth + top <= best_size:
                    return False
                v = (cand & -cand).bit_length() - 1
                cand &= cand - 1
                if grow(members + [v], cand & rows[v]):
                    return True
            return False

        grow([], (1 << len(blocks)) - 1)
        result = (best_size, best_members)
        self._cliques[blocks] = result
        return result


def _run_scan(
    exts: Sequence[str],
    radius: int,
    K: int,
    centers: int,
    starts: tuple[range, range],
    m_cap: int,
    finder: _RunCliqueFinder,
    memo: dict | None = None,
    word: str = "",
    center_count: Callable[[int], int] | None = None,
) -> tuple[int, dict[int, tuple[int, list[int]]]]:
    """Best clique of extensions pairwise separated at every shift of a run.

    ``starts`` = (up, down) holds the first shifts of the candidate runs of
    ``centers`` consecutive shifts: ``up`` counts up by one from the first
    start and ``down`` down by one below it, taken in the order up[0],
    up[1], down[0], up[2], down[1], ..., one side going on alone once the
    other ends.  Returns witnesses keyed by tuple size, with the run start.
    ``center_count(p)`` is the number of distinct (2K+1)-blocks at string
    offset p, from the extensions unless given.

    The scan reads and fills ``memo`` (see the module docstring): the
    center counts of the ladder word ``word``, and, per word, radius, K, run
    length and finder cap and floor, each core's clique size and each solved
    run's size, member blocks and number of distinct run-blocks, which is
    all that cutting its witnesses from ``exts`` needs.  These are facts of
    the word's extensions, so a memo filled by other calls changes no result.

    Witnesses are made only for the sizes from the finder's floor m_min up,
    and the best size is exact only there: below m_min it reads as some
    size below m_min.  The finder answers m_min - 1 for a block set with no
    clique of m_min, so once a start is solved ``best`` is at least
    m_min - 1, and the bounds below skip every start that cannot reach the
    floor.

    A clique's members show pairwise distinct radius-K blocks at every center
    of their run, so its size is at most the number of distinct (2K+1)-blocks
    at each center.  A start with some center holding at most ``best`` of them
    cannot yield a clique larger than ``best``, and the scan acts only on a
    larger one, so skipping that start, without building its run-blocks or
    solving its clique, changes no result.  An empty extension set has only
    the empty clique; otherwise every center shows at least one block, so no
    count rules a start out while ``best`` is 0, and none is read until the
    first solved start has made ``best`` positive.  Each side keeps a
    blocker, the center that ruled out that side's last skipped start.  A
    side's starts move one way, so a run's centers are searched from its
    leading end, right to left above and left to right below: the center
    found lies in the most of that side's next runs.  ``best`` never falls,
    so the side's cursor jumps past every run holding it; the other side's
    blocker is checked at each start a cursor lands on.  Which center rules
    a start out changes no skip.

    Each side also keeps a clean stretch: its last read run's trailing part
    from the leading end down to the blocker, if one was found, or the whole
    run.  Every center in it holds more than ``best`` blocks, and the side's
    next run that the blockers let through starts past the blocker and past
    the last read start, so it overlaps the stretch at its trailing end, and
    only its centers beyond the stretch are read.  The first center found
    holding at most ``best`` blocks is therefore the one a full search from
    the leading end would find.  A larger ``best`` can rule out a clean
    center, so the stretches are dropped whenever ``best`` grows.

    Cutting a clique's run-blocks down to any stretch of its centers leaves
    a clique, so the largest clique over a stretch bounds the run's.  The
    stretches are aligned cores: with C = ``centers`` and step S, core k
    holds the C - S + 1 centers from string offset kS.  The run from offset
    lo holds core ceil(lo / S) whole, because that core starts in
    [lo, lo + S - 1] and so ends by lo + C - 1.  Once ``best`` is positive,
    a start whose core has no clique larger than ``best`` is skipped before
    its run-blocks are built.  S consecutive start offsets share a core; each
    core is solved once per memo, by the finder, whose clique cache takes
    blocks of either width.
    """
    best = 0
    witnesses: dict[int, tuple[int, list[int]]] = {}
    if not exts:
        return best, witnesses
    memo = {} if memo is None else memo
    floor = finder.m_min - 1
    width = centers + 2 * K
    distinct = _SegmentBlocks(exts, width)
    count_at = _center_counts(memo, word, exts, radius, K, center_count)

    # Core step S, at least 1 for the one-center runs of B = 0.  A smaller
    # S makes longer cores, which rule out more starts, but each core serves
    # only S of them.  Uncached clique solves in one probe-replay pass (seed
    # 1) by S: C/2 1,352, 2C/5 1,190, C/3 689, C/4 867, C/5 1,111, against
    # 2,243 without cores.
    step = max(1, centers // 3)
    cores = _SegmentBlocks(exts, centers - step + 1 + 2 * K)
    # core index -> its largest clique (capped), run offset -> its solved clique
    core_sizes, runs = _memo_entry(
        memo,
        (word, radius, K, centers, finder.m_cap, finder.m_min),
        lambda: (bytearray(len(exts[0]) // step + 1), {}),
    )
    core_size = _read_through(
        core_sizes, 0, lambda k: finder.best(tuple(sorted(cores.at(k * step))))[0]
    )

    up, down = starts
    offset = radius - K  # the string offset of run start 0
    cursor = [0, 0]  # the next start of each side: up[cursor[0]], down[cursor[1]]
    blocker = [-1, -1]
    # how far each side's clean stretch reaches toward its next runs: up to
    # clean[0] above the first start, down to clean[1] below it
    unclean = [-1, len(exts[0])]
    clean = unclean[:]
    while True:
        above, below = cursor
        side = 0 if above < len(up) and (above <= below + 1 or below >= len(down)) else 1
        if cursor[side] >= len(starts[side]):
            break
        a = starts[side][cursor[side]]
        cursor[side] += 1
        lo = offset + a
        hi = lo + centers - 1
        # center j of the run reads its radius-K blocks at string offset lo + j
        if lo <= blocker[1 - side] <= hi:
            continue  # best never falls, so a center that ruled out a start still does
        if best:
            if side == 0:
                unread = range(hi, max(clean[0], lo - 1), -1)
                clean[0] = hi
            else:
                unread = range(lo, min(clean[1], hi + 1))
                clean[1] = lo
            low = next((p for p in unread if count_at(p) <= best), None)
            if low is not None:
                blocker[side] = low
                # on to the side's first run without low: from offset low + 1
                # above, ending at offset low - 1 below
                if side == 0:
                    cursor[0] = low + 1 - offset - up[0]
                else:
                    cursor[1] = down[0] + offset + centers - low
                continue
            if core_size(-(-lo // step)) <= best:
                continue
        solved = runs.get(lo)
        if solved is None:
            blocks = tuple(sorted(distinct.at(lo)))
            size, members = finder.best(blocks)
            solved = runs[lo] = (size, tuple(blocks[v] for v in members), len(blocks))
        size, members, block_count = solved
        if size > best:
            sizes = range(max(best, floor) + 1, min(size, m_cap) + 1)
            if sizes:
                block_of = operator.itemgetter(slice(lo, lo + width))
                first_idx = _first_indices(map(block_of, exts), block_count)
                for m in sizes:
                    witnesses[m] = (a, sorted(first_idx[b] for b in members[:m]))
            best = size
            clean = unclean[:]
            if best >= m_cap:
                break
    return best, witnesses


def block_sensitivity_scan(
    system: ShiftSystem, m_cap: int, K: int, B: int, budget: SearchBudget, m_min: int = 2
) -> dict[str, dict[int, dict]]:
    """Each cylinder's witness entries for sizes m_min..m_cap, separated across blocks [h-B, h+B].

    The extensions are read one group at a time, as in ``sensitivity_scan``.
    A cylinder's center counts come from its column of the system's
    ``block_counter`` rows when it has one, and from its extensions
    otherwise; the run-blocks and cores are always cut from the extensions.
    Every cylinder shares one clique finder, floored at m_min, and has a
    fresh memo, which keeps each count it reads for the rest of its run scan.
    """
    _require_scale(K)
    if B < 0:
        raise ValueError(f"block half-length must be non-negative, got B={B}")
    radius = scan_radius(budget, K, B)
    centers = 2 * B + 1
    finder = _RunCliqueFinder(K, m_cap, m_min)
    counter = _block_counter(system, budget.L, K)
    if counter is not None:
        column = {u: j for j, u in enumerate(counter.words)}
        row, origin = counter.row, radius - budget.L  # a cylinder word's string offset
    # the run of shift h starts at h - B, for h = 0, 1, -1, 2, ... (see ``shifts``)
    starts = (range(-B, budget.N - B + 1), range(-B - 1, -budget.N - B - 1, -1))
    scans = {}
    for u, exts in _cylinder_groups(system, budget.L, radius):
        center_count = None
        if counter is not None:
            center_count = lambda p, j=column[u]: row(p - origin)[j]
        _, raw = _run_scan(exts, radius, K, centers, starts, m_cap, finder, {}, u, center_count)
        scans[u] = {
            m: _witness(u, exts, idxs, radius, a + B, K, block_half=B)
            for m, (a, idxs) in raw.items()
        }
        del exts
    return scans


def block_m_sensitivity_test(
    system: ShiftSystem, m: int, K: int, B: int, budget: SearchBudget
) -> SensitivityReport:
    """Search every cylinder for m extensions separated throughout a block of shifts."""
    if m < 2:
        raise ValueError("tuple size must be at least 2")
    scans = block_sensitivity_scan(system, m, K, B, budget, m_min=m)
    return sensitivity_report(system, scans, m, K, B, budget)


def cover_m_equicontinuity_test(
    system: ShiftSystem, x: CenteredWord, m: int, K: int, budget: SearchBudget
) -> Verdict:
    """Check whether near x every m-tuple keeps some pair 2^-K-close syndetically.

    A tuple violates the bound exactly when all its pairs stay separated
    throughout 2B+2 consecutive shifts, i.e. when its members form a clique
    of run-separated blocks.  Witnessed means no such clique exists for some
    delta-radius W on the ladder (all gaps of the closeness return set are at
    most 2B+1 over the horizon); refuted-up-to-budget means every W admits a
    violating tuple.
    """
    if m < 2:
        raise ValueError("tuple size must be at least 2")
    _require_scale(K)
    B, N = budget.B, budget.N
    centers = 2 * B + 2
    if 2 * N + 1 < centers:
        # no run fits in the horizon, so the scan would find no tuple and prove nothing
        raise ValueError(
            f"horizon N={N} holds {2 * N + 1} shifts, fewer than the 2B+2 = {centers} of one run"
        )
    radius = N + B + K + 1
    finder = _RunCliqueFinder(K, m, m_min=m)
    memo = _probe_memo(system)
    claim = (
        f"cover {m}-equicontinuity at scale 2^-{K} with gap bound {2 * B + 1} near the given point"
    )
    falsifications = []
    starts = (range(-N, N - centers + 2), range(0))
    for W, central, exts in _ladder_extensions(system, x, budget.ladder, radius):
        best, raw = _run_scan(exts, radius, K, centers, starts, m, finder, memo, central)
        if best < m:
            payload = {
                **_certificate_header("cover-witness", system, m, K, budget),
                "B": B,
                "delta_radius": W,
                "note": "universal claim over tuples; checked exhaustively within budget",
            }
            return witnessed(claim, payload, delta_radius=W)
        a, idxs = raw[m]
        gap = {"delta_radius": W, "gap_start": a, "gap_end": a + centers - 1}
        falsifications.append({**gap, **_witness(central, exts, idxs, radius, a, K)})
    payload = {
        **_certificate_header("cover-falsified", system, m, K, budget),
        "B": B,
        "stages": falsifications,
    }
    return Verdict(
        VerdictStatus.REFUTED,
        claim,
        certificate=payload,
        reason=f"every ladder radius admits a tuple separated for {centers} consecutive shifts",
        annotations={"verdict_class": "falsified-up-to"},
    )
