"""Finite-horizon witness searches realizing the epsilon-delta definitions.

Open sets are cylinders on central words, points are admissible windows, and
epsilon is always a dyadic scale 2^-K, so "within epsilon" means agreement on
the coordinates [-K, K] and "separated by epsilon" means a difference there.
These are exact complements, which keeps the dichotomy-style tests honest.

Every universally quantified negative ("no tuple exists") is reported as an
exhausted budget, never as a refutation.  Every witness carries enough data
to replay its defining inequality with window operations alone.

The searches bound their tuples by distinct-block counts, which come from one
of two counters.  The cylinder scans, ``sensitivity_scan`` and
``block_sensitivity_scan``, which ``cylinder_scans`` runs for ``verify`` from
one extension table, read the system's ``block_counter`` when it has one:
for a constant-length substitution, and for a Toeplitz system through the
substitution its skeleton repeats, that is the block-pair automaton
``substitution.BlockPairs``, which counts without reading an extension.
Everything else is cut from the extensions by the segment kernel
``_SegmentBlocks``: the counts of the factor systems' cylinder scans, the
run-blocks and cores of every run scan, and every block of the point and
cover probes.  The probes keep the kernel because each ladder radius has its
own central width and their scans exit early, so an automaton per stage
costs more than it saves: one per stage made the probe-replay benchmark 3.4
times slower.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Protocol, Sequence

from .verdicts import Verdict, VerdictStatus, exhausted, witnessed
from .words import CenteredWord, scale_of_difference, shift_window, shifts


class ShiftSystem(Protocol):
    """Anything with a name, a spec hash, and an enumerable language.

    ``language(n)`` returns the sorted length-n words and keeps no copy, so
    a scan-length table lives as long as the grouping built from it: the
    cylinder list of one scan or one ``cylinder_scans`` call, or an entry of
    the bounded ``_indexed_extension_groups``.

    A system may also offer ``block_counter(central, width)``, a function
    that counts, for a length-``central`` word u and a displacement e, the
    length-``width`` words occurring e after u (``substitution.BlockPairs``
    for constant-length substitutions).  The cylinder scans read it instead
    of their extensions' blocks; see ``_cylinder_counts``.
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


def _extension_groups(
    system: ShiftSystem, radius: int, half: int
) -> dict[str, tuple[str, ...]]:
    """The radius-``radius`` windows grouped by their radius-``half`` central word.

    One pass over the length-(2 radius + 1) table; each group keeps
    language order.
    """
    lo, hi = radius - half, radius + half + 1
    groups: dict[str, list[str]] = {}
    for w in system.language(2 * radius + 1):
        groups.setdefault(w[lo:hi], []).append(w)
    return {u: tuple(ws) for u, ws in groups.items()}


# A point or cover test reads one grouping per (system, radius), at the
# first ladder radius, so the four exact-regime catalog systems at the point
# and cover radii fill 8 entries.  A grouping holds every word of its
# length-(2 radius + 1) table, and no system keeps the table itself, so the
# bound also bounds the long tables the probes hold; the per-cylinder scans
# group uncached, and their tables go with the scan.
_indexed_extension_groups = functools.lru_cache(maxsize=8)(_extension_groups)


def extensions(system: ShiftSystem, central: str, radius: int) -> tuple[str, ...]:
    """Admissible radius-``radius`` windows whose central word is ``central``."""
    _central_span(central, radius)  # raises on an even or too wide central word
    return _indexed_extension_groups(system, radius, len(central) // 2).get(central, ())


def _ladder_extensions(
    system: ShiftSystem, x: CenteredWord, ladder: Sequence[int], radius: int
) -> Iterator[tuple[int, str, tuple[str, ...]]]:
    """Each ladder radius W with x.central(W) and its ``extensions`` at ``radius``.

    The ladder increases, and a window carrying x.central(W) carries the
    central words of every smaller radius, so each stage after the first
    filters the previous stage's extensions, in language order, instead of
    the whole language table.
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


def _cylinders(system: ShiftSystem, L: int, radius: int) -> list[tuple[str, tuple[str, ...]]]:
    """Every radius-``L`` cylinder word with its radius-``radius`` extensions, in language order.

    Not cached: the list lives as long as its caller holds it, one scan or
    one ``cylinder_scans`` call.
    """
    groups = _extension_groups(system, radius, L)
    return [(u, groups.get(u, ())) for u in system.language(2 * L + 1)]


def _trimmed(
    cylinders: list[tuple[str, tuple[str, ...]]], lo: int, width: int
) -> Iterator[tuple[str, tuple[str, ...]]]:
    """Each cylinder with the distinct length-``width`` trims at ``lo`` of its words, sorted.

    Empties ``cylinders`` as it goes, dropping each word once trimmed.
    """
    trim = operator.itemgetter(slice(lo, lo + width))
    cylinders.reverse()
    while cylinders:
        u, exts = cylinders.pop()
        exts = list(exts)  # the list is the words' last holder
        trims = set()
        while exts:
            trims.add(trim(exts.pop()))
        yield u, tuple(sorted(trims))


def _cylinder_counts(
    system: ShiftSystem, L: int, width: int, radius: int
) -> Callable[[str], Callable[[int], int]] | None:
    """Per cylinder word u, the distinct width-``width`` blocks at each string offset.

    The offsets are those of u's radius-``radius`` extensions, and the count
    comes from the system's ``block_counter``: u sits at offset radius - L,
    so the block at offset lo is displaced lo - (radius - L) from it.  None
    when the system offers no counter, and the scan counts its extensions'
    blocks with ``_SegmentBlocks``.
    """
    count = system.block_counter(2 * L + 1, width) if hasattr(system, "block_counter") else None
    if count is None:
        return None
    origin = radius - L
    return lambda u: lambda lo: count(u, lo - origin)


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
    count_at: Callable[[int], int] | None = None,
) -> tuple[int, dict[int, tuple[int, list[int]]]]:
    """Best number of pairwise-separated extensions at a single shift.

    Extensions are separated at shift g exactly when their radius-K blocks
    around coordinate g are pairwise distinct words.  Returns the best count
    and, for each tuple size up to the cap, the first witnessing shift with
    extension indices, in deterministic scan order.  ``count_at(lo)`` is the
    number of distinct blocks at string offset lo, from the extensions
    themselves unless given.
    """
    best = 0
    witnesses: dict[int, tuple[int, list[int]]] = {}
    width = 2 * K + 1
    if count_at is None:
        count_at = _SegmentBlocks(exts, width).count
    for g in shifts(horizon):
        start = radius + g - K
        count = count_at(start)
        if count > best:
            block_of = operator.itemgetter(slice(start, start + width))
            top = min(count, m_cap)
            first_indices = list(_first_indices(map(block_of, exts), top).values())
            for m in range(best + 1, top + 1):
                witnesses[m] = (g, sorted(first_indices[:m]))
            best = count
            if best >= m_cap:
                break
    return best, witnesses


def _require_scale(K: int) -> None:
    """A scale 2^-K with K < 0 leaves no position to compare, so it would prove nothing."""
    if K < 0:
        raise ValueError(f"scale exponent must be non-negative, got K={K}")


def sensitivity_scan(
    system: ShiftSystem,
    m_cap: int,
    K: int,
    budget: SearchBudget,
    m_min: int = 2,
    cylinders: Iterable[tuple[str, tuple[str, ...]]] | None = None,
) -> dict[str, dict[int, dict]]:
    """Each cylinder's witness entries for tuple sizes m_min..m_cap, from the separation scan.

    The cylinders with their extensions come from ``cylinders`` when given,
    so that one table serves both of verify's scans (``cylinder_scans``),
    and the block counts from the system's ``block_counter`` when it has one.
    """
    _require_scale(K)
    radius = scan_radius(budget, K)
    counts = _cylinder_counts(system, budget.L, 2 * K + 1, radius)
    scans = {}
    if cylinders is None:
        cylinders = _cylinders(system, budget.L, radius)
    for u, exts in cylinders:
        count_at = counts(u) if counts else None
        _, raw = _separation_scan(exts, radius, K, budget.N, m_cap, count_at)
        scans[u] = {
            m: _witness(u, exts, idxs, radius, g, K)
            for m, (g, idxs) in raw.items()
            if m >= m_min
        }
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
    stages = []
    for W, central, exts in _ladder_extensions(system, x, budget.ladder, radius):
        best, raw = _separation_scan(exts, radius, K, budget.N, m)
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


def _pair_separated_over_run(b1: str, b2: str, K: int) -> bool:
    """Whether two run-blocks differ within distance K of every one of the centers.

    A run-block spans its centers plus K symbols on each side, so the
    radius-K windows around the centers are exactly its (2K+1)-windows: the
    pair is separated iff the mismatch mask has no run of 2K+1 zero bytes.
    """
    mask = bytes(map(operator.ne, b1, b2))
    return bytes(2 * K + 1) not in mask


class _RunCliqueFinder:
    """Max sets of run-blocks pairwise separated everywhere, with caching.

    Pair separation depends only on the two block strings, and the clique
    answer only on the set of available blocks, so both memoize well across
    run positions and cylinders.
    """

    def __init__(self, K: int, m_cap: int):
        self.K = K
        self.m_cap = m_cap
        self._pairs: dict[tuple[str, str], bool] = {}
        self._cliques: dict[tuple[str, ...], tuple[int, tuple[int, ...]]] = {}

    def _separated(self, b1: str, b2: str) -> bool:
        key = (b1, b2) if b1 < b2 else (b2, b1)
        cached = self._pairs.get(key)
        if cached is None:
            cached = _pair_separated_over_run(key[0], key[1], self.K)
            self._pairs[key] = cached
        return cached

    def best(self, blocks: tuple[str, ...]) -> tuple[int, tuple[int, ...]]:
        """The largest set of pairwise separated blocks (size capped), by index.

        Carraghan-Pardalos branch and bound: expand the lowest candidate v,
        then search the candidates after v that are separated from it.  So
        every candidate set the search forms holds only blocks after the
        vertex it expands, and the search never reads the lower half of the
        adjacency matrix.  Row v is therefore built when v is first
        expanded, and only against the blocks after v; blocks never expanded
        get no row and cost no pair check.
        """
        cached = self._cliques.get(blocks)
        if cached is not None:
            return cached
        n = len(blocks)
        separated = self._separated
        rows: list[int | None] = [None] * n  # bits j > v separated from v
        best_size = 0
        best_members: tuple[int, ...] = ()

        def grow(members: list[int], cand: int) -> bool:
            nonlocal best_size, best_members
            if len(members) > best_size:
                best_size = len(members)
                best_members = tuple(members)
                if best_size >= self.m_cap:
                    return True
            while cand:
                if len(members) + cand.bit_count() <= best_size:
                    return False
                v = (cand & -cand).bit_length() - 1
                cand &= cand - 1
                row = rows[v]
                if row is None:
                    b = blocks[v]
                    row = rows[v] = sum(1 << j for j in range(v + 1, n) if separated(b, blocks[j]))
                if grow(members + [v], cand & row):
                    return True
            return False

        grow([], (1 << n) - 1)
        result = (best_size, best_members)
        self._cliques[blocks] = result
        return result


def _run_scan(
    exts: Sequence[str],
    radius: int,
    K: int,
    centers: int,
    starts: Iterable[int],
    m_cap: int,
    finder: _RunCliqueFinder,
    center_count: Callable[[int], int] | None = None,
) -> tuple[int, dict[int, tuple[int, list[int]]]]:
    """Best clique of extensions pairwise separated at every shift of a run.

    ``starts`` enumerates the first shift of each candidate run of
    ``centers`` consecutive shifts; returns witnesses keyed by tuple size,
    with the run start.  ``center_count(p)`` is the number of distinct
    (2K+1)-blocks at string offset p, from the extensions unless given.

    A clique's members show pairwise distinct radius-K blocks at every center
    of their run, so its size is at most the number of distinct (2K+1)-blocks
    at each center.  A start with some center holding at most ``best`` of them
    cannot yield a clique larger than ``best``, and the scan acts only on a
    larger one, so skipping that start, without building its run-blocks or
    solving its clique, changes no result.  An empty extension set has only
    the empty clique; otherwise every center shows at least one block, so no
    count rules a start out while ``best`` is 0, and none is read until the
    first solved start has made ``best`` positive.  Each side of the first
    start keeps a blocker, the center that ruled out that side's last skipped
    start, which is tried first.  In the scans' orders, increasing and zigzag
    (0, 1, -1, 2, ...), starts increase at or above the first start and
    decrease below it, so a run's centers are searched from its leading end,
    right to left above and left to right below: the center found stays inside
    the most of that side's next runs, and one side's blocker never overwrites
    the other's.  Which center rules a start out changes no skip.

    Cutting a clique's run-blocks down to any stretch of its centers leaves
    a clique, so the largest clique over a stretch bounds the run's.  The
    stretches are aligned cores: with C = ``centers`` and step S, core k
    holds the C - S + 1 centers from string offset kS.  The run from offset
    lo holds core ceil(lo / S) whole, because that core starts in
    [lo, lo + S - 1] and so ends by lo + C - 1.  Once ``best`` is positive,
    a start whose core has no clique larger than ``best`` is skipped before
    its run-blocks are built.  S consecutive start offsets share a core; each
    core is solved once per call by the same finder, whose pair and clique
    caches take blocks of either width.
    """
    best = 0
    witnesses: dict[int, tuple[int, list[int]]] = {}
    if not exts:
        return best, witnesses
    width = centers + 2 * K
    distinct = _SegmentBlocks(exts, width)
    if center_count is None:
        center_count = _SegmentBlocks(exts, 2 * K + 1).count
    counts: dict[int, int] = {}  # string offset -> distinct (2K+1)-blocks there

    def count_at(p: int) -> int:
        count = counts.get(p)
        if count is None:
            count = counts[p] = center_count(p)
        return count

    # Core step S, at least 1 for the one-center runs of B = 0.  A smaller
    # S makes longer cores, which rule out more starts, but each core serves
    # only S of them.  Uncached clique solves in one probe-replay pass (seed
    # 1) by S: C/2 1,352, 2C/5 1,190, C/3 689, C/4 867, C/5 1,111, against
    # 2,243 without cores.
    step = max(1, centers // 3)
    cores = _SegmentBlocks(exts, centers - step + 1 + 2 * K)
    core_sizes: dict[int, int] = {}  # core index -> its largest clique (capped)

    def core_size(k: int) -> int:
        size = core_sizes.get(k)
        if size is None:
            size = core_sizes[k] = finder.best(tuple(sorted(cores.at(k * step))))[0]
        return size

    first = None
    above = below = -1  # the blockers of the starts at or above the first start, and below it
    for a in starts:
        lo = radius + a - K
        # center j of the run reads its radius-K blocks at string offset lo + j
        run = range(lo, lo + centers)
        if above in run or below in run:
            continue  # best never falls, so a center that ruled out a start still does
        if first is None:
            first = a
        if best:
            is_above = a >= first
            leading = reversed(run) if is_above else run
            low = next((p for p in leading if count_at(p) <= best), None)
            if low is not None:
                if is_above:
                    above = low
                else:
                    below = low
                continue
            if core_size(-(-lo // step)) <= best:
                continue
        blocks = tuple(sorted(distinct.at(lo)))
        size, members = finder.best(blocks)
        if size > best:
            block_of = operator.itemgetter(slice(lo, lo + width))
            first_idx = _first_indices(map(block_of, exts), len(blocks))
            for m in range(best + 1, min(size, m_cap) + 1):
                idxs = sorted(first_idx[blocks[v]] for v in members[:m])
                witnesses[m] = (a, idxs)
            best = size
            if best >= m_cap:
                break
    return best, witnesses


def block_sensitivity_scan(
    system: ShiftSystem,
    m_cap: int,
    K: int,
    B: int,
    budget: SearchBudget,
    m_min: int = 2,
    cylinders: Iterable[tuple[str, tuple[str, ...]]] | None = None,
) -> dict[str, dict[int, dict]]:
    """Each cylinder's witness entries for sizes m_min..m_cap, separated across blocks [h-B, h+B].

    Extensions and center counts come as in ``sensitivity_scan``; the
    run-blocks and cores are always cut from the extensions.
    """
    _require_scale(K)
    if B < 0:
        raise ValueError(f"block half-length must be non-negative, got B={B}")
    radius = scan_radius(budget, K, B)
    centers = 2 * B + 1
    finder = _RunCliqueFinder(K, m_cap)
    counts = _cylinder_counts(system, budget.L, 2 * K + 1, radius)
    scans = {}
    if cylinders is None:
        cylinders = _cylinders(system, budget.L, radius)
    for u, exts in cylinders:
        starts = (h - B for h in shifts(budget.N))
        center_count = counts(u) if counts else None
        _, raw = _run_scan(exts, radius, K, centers, starts, m_cap, finder, center_count)
        scans[u] = {
            m: _witness(u, exts, idxs, radius, a + B, K, block_half=B)
            for m, (a, idxs) in raw.items()
            if m >= m_min
        }
    return scans


def cylinder_scans(
    system: ShiftSystem, m_cap: int, budget: SearchBudget, block_K: int
) -> tuple[dict[str, dict[int, dict]], dict[str, dict[int, dict]]]:
    """``sensitivity_scan`` at scale ``budget.K`` and ``block_sensitivity_scan`` at ``block_K``.

    Both read one length-(2 radius + 1) table, at the wider of their radii,
    and the wider scan runs first.  A radius-r extension of u is a central
    trim of some wider extension of u, because the language is factorial and
    extendable, and every such trim is one, so the narrower scan reads the
    distinct trims, sorted: u's extensions at r, in language order.  Each
    wide word is dropped once trimmed, so the wide and the trimmed words are
    never all held at once.
    """
    sens_radius = scan_radius(budget, budget.K)
    block_radius = scan_radius(budget, block_K, budget.B)
    radius = max(sens_radius, block_radius)
    cylinders = _cylinders(system, budget.L, radius)

    def at(r: int) -> Iterable[tuple[str, tuple[str, ...]]]:
        return cylinders if r == radius else _trimmed(cylinders, radius - r, 2 * r + 1)

    def sens():
        return sensitivity_scan(system, m_cap, budget.K, budget, cylinders=at(sens_radius))

    def block():
        return block_sensitivity_scan(
            system, m_cap, block_K, budget.B, budget, cylinders=at(block_radius)
        )

    if block_radius >= sens_radius:
        block_scans = block()
        return sens(), block_scans
    sens_scans = sens()
    return sens_scans, block()


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
    finder = _RunCliqueFinder(K, m)
    claim = (
        f"cover {m}-equicontinuity at scale 2^-{K} with gap bound {2 * B + 1} near the given point"
    )
    falsifications = []
    starts = range(-N, N - centers + 2)
    for W, central, exts in _ladder_extensions(system, x, budget.ladder, radius):
        best, raw = _run_scan(exts, radius, K, centers, starts, m, finder)
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
