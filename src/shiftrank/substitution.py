"""Constant-length substitutions, their languages, and structural predicates.

A substitution sends each symbol to a nonempty word; iterating it on a seed
letter generates the language of a subshift.  The exact-rank machinery
downstream needs the constant-length, primitive, aperiodic, height-1 regime,
and the predicates here certify membership in it.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import math
import operator
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, partial
from types import MappingProxyType
from typing import Callable, Mapping

from .verdicts import Verdict, VerdictStatus, exhausted, refuted, witnessed
from .words import ALPHABET_CHARS, CenteredWord, _cut, _first_mismatch, shift_window, sym_char


class RegimeError(ValueError):
    """An operation was applied outside its validity regime."""


class ComplexityError(RuntimeError):
    """A language table has fewer words of some length than of a shorter one.

    The complexity p(n) of a subshift never decreases, since each word
    extends to the right, so a smaller table has lost words.
    """


@dataclass(frozen=True)
class Substitution:
    """Per-symbol rewriting rules; ``rules[i]`` is the image of symbol i."""

    rules: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.rules:
            raise ValueError("empty alphabet")
        charset = set(ALPHABET_CHARS[: len(self.rules)])
        for i, image in enumerate(self.rules):
            if not image:
                raise ValueError(f"rule for {sym_char(i)} has empty image")
            if not set(image) <= charset:
                raise ValueError(f"rule {sym_char(i)} -> {image} uses symbols outside the alphabet")

    @property
    def alphabet_size(self) -> int:
        return len(self.rules)

    @property
    def letters(self) -> str:
        return ALPHABET_CHARS[: len(self.rules)]

    @cached_property
    def constant_length(self) -> int | None:
        q = len(self.rules[0])
        return q if all(len(r) == q for r in self.rules) else None

    def require_constant_length(self) -> int:
        q = self.constant_length
        if q is None:
            raise RegimeError("operation requires a constant-length substitution")
        return q

    @cached_property
    def _translation(self) -> dict[int, str]:
        return {ord(c): image for c, image in zip(self.letters, self.rules)}

    @cached_property
    def primitive(self) -> bool:
        """True iff some power of the incidence matrix is entrywise positive.

        The power is bounded by the square of the alphabet size, which
        suffices for primitive nonnegative matrices.  Decided once per
        substitution, as ``regime`` is.
        """
        n = self.alphabet_size
        m = [[bool(v) for v in row] for row in incidence_matrix(self)]
        power = [row[:] for row in m]
        for _ in range(n * n):
            if all(all(row) for row in power):
                return True
            power = [
                [any(power[i][k] and m[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)
            ]
        return all(all(row) for row in power)

    @cached_property
    def regime(self) -> ExactRegime:
        """Membership in the exact regime, checked once per substitution."""
        return ExactRegime(MappingProxyType(_exact_regime_flags(self)))

    @cached_property
    def table(self) -> LanguageTable:
        """This substitution's language table, kept exactly as long as the substitution."""
        return LanguageTable(self)

    def image(self, word: str) -> str:
        """One application of the substitution to a word over its alphabet."""
        return word.translate(self._translation)

    def to_text(self) -> str:
        return "\n".join(f"{sym_char(i)} -> {img}" for i, img in enumerate(self.rules))

    @classmethod
    def from_text(cls, text: str) -> "Substitution":
        """Parse lines of the form ``symbol -> image``."""
        rules: dict[int, str] = {}
        for raw in text.replace(";", "\n").splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            lhs, arrow, rhs = line.partition("->")
            if not arrow:
                raise ValueError(f"bad rule line: {line!r}")
            sym = lhs.strip()
            if len(sym) != 1:
                raise ValueError(f"rule must map a single symbol: {line!r}")
            rules[ALPHABET_CHARS.index(sym)] = rhs.strip()
        if sorted(rules) != list(range(len(rules))):
            raise ValueError("rules must cover symbols 0..k-1 without gaps")
        return cls(tuple(rules[i] for i in range(len(rules))))


def incidence_matrix(s: Substitution) -> list[list[int]]:
    """entry [i][j] = number of occurrences of symbol j in the image of symbol i."""
    return [[img.count(sym_char(j)) for j in range(s.alphabet_size)] for img in s.rules]


# ``LanguageTable._windows`` reads the length-n words off the images of
# words under a power whose shortest letter image is SOURCE_SPAN**2 to
# (n - 1) / SOURCE_SPAN long, or, without one (always below n = 65), off the
# letter images and seams.  A shorter image repeats fewer windows, but each
# image costs a few microseconds to lay out.  At n = 1047, over the catalog's
# substitutions and the first 40 criterion-5 systems, the window starts fall
# from 535k to 196k, for 181k distinct words, and a table's build from 8.1 to
# 4.5 ms (Python 3.11 on 2 vCPUs); below n = 129 builds stay within 5
# microseconds of the letter images and seams alone.
SOURCE_SPAN = 4


class LanguageTable:
    """Admissible words of each length, one sorted tuple per length.

    The substitution owns its table (``Substitution.table``), so the table
    and its memo live exactly as long as the substitution does; the table
    keeps the rules, not the substitution, so dropping a substitution frees
    its table at once.  ``build(n)`` makes the length-n tuple and keeps
    nothing; ``words(n)`` memoises it.  The memo serves the readers that
    revisit lengths: ``seed_pairs`` and the digit-path census.  The protocol
    read ``SubstitutionSystem.language``, which the CLI's ``language``
    command uses, goes through ``build``, so such a table lives only as long
    as the caller holds it.  The cylinder scans and the probes read
    ``cylinders`` instead, which indexes the window text by central word and
    cuts no window.

    The regime gate reads one length, ``APERIODICITY_N_MAX + 1``, once:
    ``aperiodicity_check`` memoises it and counts every shorter complexity
    from it, and ``height`` reads no table.  So a substitution that has
    passed the gate keeps that one length, and every shorter length a later
    reader asks for, such as the census's 2 * radius + 1, is derived from
    the shortest longer one the memo holds.

    Exactness argument.  Write theta^j(y) for the image of a word y under
    the j-th power and l_j for the length of the shortest letter image under
    it, and take m with (m - 1) l_j >= n - 1.  The admissible length-n words
    are exactly the windows theta^j(y)[r : r + n] of the admissible length-m
    words y that start inside theta^j(y[0]):

    - each is admissible, because the substitution maps admissible words to
      admissible words;
    - each admissible word x occurs in some theta^K(a) = theta^j(z) with
      z = theta^(K - j)(a) admissible, so x starts inside the image of a
      letter of z, and z extends to the right as far as needed.  The m
      letters of z from that one on are an admissible y, and the m - 1 after
      the first have an image at least n - 1 long, so x is a window of
      theta^j(y).

    The same argument at length m, with a power d where l_d >= m - 1, reads
    the length-m words off the two-letter words, which a monotone closure
    computes, so no stabilization heuristic is involved.  Two words y that
    share a prefix give the same windows inside its image, so in sorted
    order each y skips the starts whose windows lie inside the image of the
    prefix it shares with the word before it.  At the least power whose
    shortest image has length >= n, m = 2 and these are the letter images,
    each once, and the seams between the images of each two-letter word.

    A length shorter than one already memoised is derived, not built from
    letter images: the table is exactly the language of the subshift, which
    is factorial and right-extendable, so the length-n words are exactly the
    length-n prefixes of the length-m words for any m > n.  Truncation keeps
    lexicographic order, so equal prefixes are adjacent and the distinct
    prefixes, in order, are already sorted.
    """

    def __init__(self, s: Substitution):
        if not s.primitive:
            raise RegimeError("language generation requires a primitive substitution")
        self._rules = s.rules
        self._letters = s.letters
        self._translation = s._translation
        self._cache: dict[int, tuple[str, ...]] = {}
        self._pairs: frozenset[str] | None = None

    def _image(self, word: str) -> str:
        return word.translate(self._translation)

    def _two_letter_words(self) -> frozenset[str]:
        if self._pairs is None:
            pairs = {img[i : i + 2] for img in self._rules for i in range(len(img) - 1)}
            while True:
                grown = set(pairs)
                for p in pairs:
                    img = self._image(p)
                    grown.update(img[i : i + 2] for i in range(len(img) - 1))
                if grown == pairs:
                    break
                pairs = grown
            self._pairs = frozenset(pairs)
        return self._pairs

    def _images_covering(self, n: int) -> tuple[list[tuple[str, ...]], list[int]]:
        """Letter images under each power, up to the least whose shortest image has length >= n.

        Returned with the shortest image's length at each power.
        """
        powers, shortest = [tuple(self._letters)], [1]
        while shortest[-1] < n:
            if len(powers) > 64:
                raise RegimeError("substitution images grow too slowly to cover the request")
            powers.append(tuple(map(self._image, powers[-1])))
            shortest.append(min(map(len, powers[-1])))
        return powers, shortest

    def _windows(self, n: int) -> tuple[str, list[range]]:
        """A text and runs of starts of its length-n windows: exactly the admissible words.

        The images of the length-m words (see the exactness argument on the
        class) are laid out one after another, each cut to the stretch its
        kept starts read, and each gives one run.
        """
        if len(self._letters) == 1:  # the only point is the constant word
            return self._letters * n, [range(1)]
        if n == 1:  # a primitive substitution's images use every letter
            return self._letters, [range(len(self._letters))]
        # a primitive substitution on two or more letters is no permutation,
        # so some image is longer than one letter and the powers cover n
        powers, shortest = self._images_covering(n)
        # the words are read off the images of the length-m words under the
        # j-th power (see SOURCE_SPAN)
        top = (n - 1) / SOURCE_SPAN
        fits = [i for i, length in enumerate(shortest) if SOURCE_SPAN**2 <= length <= top]
        j = fits[-1] if fits else len(powers) - 1
        m = -(-(n - 1) // shortest[j]) + 1
        contexts = self._two_letter_words()
        if m > 2:  # the length-m words, off the two-letter words under the d-th power
            d = next(i for i, length in enumerate(shortest) if length >= m - 1)
            inner = dict(zip(self._letters, powers[d]))
            blocks = ((inner[a] + inner[b], len(inner[a])) for a, b in contexts)
            contexts = {block[i : i + m] for block, size in blocks for i in range(size)}
        outer = {ord(c): image for c, image in zip(self._letters, powers[j])}
        sizes = dict(zip(self._letters, map(len, powers[j])))
        pieces, runs, base, previous = [], [], 0, ""
        for y in sorted(contexts):
            size = sizes[y[0]]
            lo = 0
            if previous[:1] == y[:1]:
                # the windows inside the image of the prefix y shares with the
                # previous context were taken there
                shared = sum(map(sizes.__getitem__, y[: _first_mismatch(previous, y)]))
                lo = max(0, shared - n + 1)
            if lo < size:
                pieces.append(y.translate(outer)[lo : size + n - 1])
                runs.append(range(base, base + size - lo))
                base += size + n - 1 - lo
            previous = y
        return "".join(pieces), runs

    def build(self, n: int) -> tuple[str, ...]:
        """All admissible words of length n, sorted, without memoising them."""
        if n < 1:
            raise ValueError("length must be positive")
        if n in self._cache:
            return self._cache[n]
        longer = min((m for m in self._cache if m > n), default=None)
        if longer is not None:
            return _prefixes(self._cache[longer], n)
        text, runs = self._windows(n)
        return _cut(text, itertools.chain.from_iterable(runs), n)

    def cylinders(self, L: int, radius: int) -> tuple[str, dict[str, list[int]]]:
        """``_windows(2 radius + 1)``'s text, with the starts of each central word's windows.

        A window's length-(2 L + 1) central word is read at its start, so no
        window is cut.  The starts are grouped by central word in one pass, so
        each word's starts come in text order, and the words are then put in
        language order.  A word's starts may repeat a window.  Its windows cut
        at its starts, with repeats dropped and sorted (``words._cut``), are
        its group in the grouping of ``build(2 radius + 1)`` by central word
        (``oracles._cylinder_groups``).
        """
        if not 0 <= L <= radius:
            raise ValueError(f"cylinder radius {L} outside [0, {radius}]")
        text, runs = self._windows(2 * radius + 1)
        lo, k = radius - L, 2 * L + 1
        groups: defaultdict[str, list[int]] = defaultdict(list)
        for g in itertools.chain.from_iterable(runs):
            groups[text[g + lo : g + lo + k]].append(g)
        return text, {u: groups[u] for u in sorted(groups)}

    def words(self, n: int) -> tuple[str, ...]:
        """All admissible words of length n, sorted and memoised.

        A new table is checked against the sizes of every memoised one:
        p(m) <= p(n) for m < n, and p(n) <= p(m) for m > n.
        """
        if n not in self._cache:
            table = self.build(n)
            for m, words in self._cache.items():
                shorter, longer = (words, table) if m < n else (table, words)
                if len(shorter) > len(longer):
                    raise ComplexityError(
                        f"the length-{n} table has {len(table)} words and the"
                        f" length-{m} table {len(words)}: p(n) must not decrease"
                    )
            self._cache[n] = table
        return self._cache[n]

    def admits(self, word: str) -> bool:
        words = self.words(len(word))
        i = bisect.bisect_left(words, word)
        return i < len(words) and words[i] == word


def _prefixes(words: tuple[str, ...], n: int) -> tuple[str, ...]:
    """The distinct length-n prefixes of sorted ``words``, in order (see ``LanguageTable``)."""
    return tuple(dict.fromkeys(map(operator.itemgetter(slice(n)), words)))


def language(s: Substitution, n: int) -> tuple[str, ...]:
    """The admissible words of length n of the subshift generated by s, not memoised."""
    return s.table.build(n)


class ImageCuts:
    """The image slices of a substitution's words, as indices into its sorted tables.

    ``cut(r, m)``, for an offset r < q, gives the index of sigma(w)[r : r + m]
    among the length-m words for each length-n word w in table order, where
    n = (r + m - 1) // q + 1 is the least length whose image covers the
    slice.  The substitution maps admissible words to admissible words, so
    the slice has an index.  ``source(n)`` gives the sorted length-n words.

    Whoever asks for one offset at a length m asks for all q of them: a
    census state lifts along every digit d, which reads its image at offset
    (m_lo + d) mod q, and a block-pair node reads one cut per r < q.  A miss
    therefore cuts every offset at once from one image of the length-n
    words that offset q - 1 reads.  The smaller offsets read those words or
    their (n - 1)-prefixes, which are exactly the length-(n - 1) words, in
    order (see ``LanguageTable``), and a slice inside a prefix's image is the
    same for every extension of it.

    Both de-substitution steps read this kernel: ``odometer._lift`` maps a
    state's values through a cut, and ``BlockPairs`` maps its pair rows.  The
    memo lives as long as this object, which is one census graph or one scan,
    and holds only the cuts, tuples of ints: no slice, image or index is
    kept past the miss that reads it.
    """

    def __init__(self, s: Substitution, source: Callable[[int], tuple[str, ...]]):
        self._q = s.require_constant_length()
        self._image = s.image
        self._source = source
        self._cuts: dict[tuple[int, int], tuple[int, ...]] = {}

    def cut(self, r: int, m: int) -> tuple[int, ...]:
        cut = self._cuts.get((r, m))
        if cut is None:
            self._cut_offsets(m)
            cut = self._cuts[r, m]
        return cut

    def _cut_offsets(self, m: int) -> None:
        q = self._q
        n = (q + m - 2) // q + 1  # the words offset q - 1 reads
        words, targets = self._source(n), self._source(m)
        index = dict(zip(targets, range(len(targets))))
        text = self._image("".join(words))
        step = q * n
        prefixes = None  # per length-(n - 1) word, the position of one extension
        for r in range(q):
            cut = tuple([index[text[i : i + m]] for i in range(r, len(text), step)])
            if (r + m - 1) // q + 1 < n:
                if prefixes is None:
                    first = map(operator.itemgetter(slice(n - 1)), words)
                    prefixes = list(dict(zip(first, range(len(words)))).values())
                cut = tuple(map(cut.__getitem__, prefixes))
            self._cuts[r, m] = cut


class BlockPairs:
    """How many length-``b`` words occur at each displacement from each length-``a`` word.

    T(e; a, b) is the set of pairs (x, y), |x| = a and |y| = b, such that
    some admissible word carries x at 0 and y at e.  For a primitive
    substitution sigma of constant length q >= 2, every admissible word is a
    factor sigma(w')[r : ...] of the image of an admissible w', at a cut r < q,
    and the image of every admissible word is admissible.  Reading x at cut r
    and y at r + e, with r_y = (r + e) mod q, gives the recursion

        T(e; a, b) = union over r < q of the pairs
            (sigma(x')[r : r + a], sigma(y')[r_y : r_y + b])
            for (x', y') in T(floor((r + e) / q); floor((r + a - 1) / q) + 1,
                              floor((r_y + b - 1) / q) + 1).

    A node whose span, from min(0, e) to max(a, e + b), fits in ``base`` =
    a + b is read directly off the length-``base`` table, with x and y at
    their offsets in each word; the language is factorial and extendable, so
    every pair of the node occurs in some word of that table.  Every other
    node recurses, and the recursion ends: lengths never grow down it, for
    |e| >= 2 each child displacement is smaller in absolute value, and a
    node with |e| <= 1 spans at most max(a, b) + 1 <= a + b, so it is read
    directly.  For a cylinder word u the number of y with (u, y) in
    T(e; a, b) is exactly the number of distinct length-b blocks at
    displacement e among the extensions of u, however wide they are.

    A node is one int, bit x * |W_b| + y set for the pair of the x-th and y-th
    words of the sorted tables W_a and W_b, interned to a small id.  A node
    is keyed by the residue of e mod q, its lengths and its q children.  The
    cuts sigma(x')[r : r + a] come from one ``ImageCuts`` over the prefixes
    of the length-``base`` table, and each child row's image is memoised, so
    once its children are known a displacement costs a few dict lookups; a
    child already memoised is read without a call.  ``row(e)`` hands out a top node's counts, one per word
    of ``words``, as a tuple kept per node, so the displacements of one node
    share one row.  Everything lives as long as this object, which is one
    scan call.
    """

    def __init__(self, s: Substitution, a: int, b: int):
        self._q = q = s.require_constant_length()
        if q < 2:
            raise RegimeError("block pairs need a substitution of constant length at least 2")
        self._a, self._b = a, b
        self._base = a + b
        self._table = s.table.build(self._base)
        self._tables: dict[int, tuple[tuple[str, ...], dict[str, int]]] = {}
        self._cuts = ImageCuts(s, partial(_prefixes, self._table))
        self._memo: dict[tuple[int, int], dict[int, int]] = {}  # (a, b) -> e -> node id
        self._top = self._memo[a, b] = {}
        self._ids: dict[int, int] = {}  # node -> id
        self._nodes: list[int] = []  # id -> node
        self._lifted: dict[tuple[int, ...], int] = {}
        self._rows: dict[tuple[int, int, int], int] = {}
        self._plans: dict[tuple[int, int, int], list[tuple[int, int, int, dict]]] = {}
        self._counts: dict[int, tuple[int, ...]] = {}  # top node id -> y count per x

    @property
    def words(self) -> tuple[str, ...]:
        """The length-a words, sorted: the order of every ``row``."""
        return self._words(self._a)[0]

    def _words(self, n: int) -> tuple[tuple[str, ...], dict[str, int]]:
        """The length-n words, sorted, with each word's index."""
        got = self._tables.get(n)
        if got is None:
            words = _prefixes(self._table, n)
            got = self._tables[n] = (words, {w: i for i, w in enumerate(words)})
        return got

    def _intern(self, node: int) -> int:
        i = self._ids.get(node)
        if i is None:
            i = self._ids[node] = len(self._nodes)
            self._nodes.append(node)
        return i

    def _row(self, row: int, r: int, m: int) -> int:
        """The row of the cuts sigma(y')[r : r + m] of the preimage words y' in ``row``."""
        key = (row, r, m)
        image = self._rows.get(key)
        if image is None:
            cut = self._cuts.cut(r, m)
            image, bits = 0, row
            while bits:
                low = bits & -bits
                image |= 1 << cut[low.bit_length() - 1]
                bits ^= low
            self._rows[key] = image
        return image

    def _node(self, e: int, a: int, b: int) -> int:
        """The id of T(e; a, b), which its caller has found unmemoised; memoised here."""
        # the span max(a, e + b) - min(0, e) fits in base, solved for e: a and
        # b never exceed base down the recursion
        if a - self._base <= e <= self._base - b:
            x_ids, y_ids = self._words(a)[1], self._words(b)[1]
            nb = len(y_ids)
            ox, oy = max(0, -e), max(0, e)
            node = 0
            for w in self._table:
                node |= 1 << (x_ids[w[ox : ox + a]] * nb + y_ids[w[oy : oy + b]])
            i = self._intern(node)
        else:
            top, residue = divmod(e, self._q)
            children = [residue, a, b]
            plan = self._plans.get((residue, a, b)) or self._plan(residue, a, b)
            for carry, a_pre, b_pre, memo in plan:
                child = memo.get(top + carry)
                children.append(self._node(top + carry, a_pre, b_pre) if child is None else child)
            key = tuple(children)
            i = self._lifted.get(key)
            if i is None:
                i = self._lifted[key] = self._intern(self._lift(e, a, b, key[3:]))
        self._memo[a, b][e] = i  # the top lengths' memo, or one a plan made
        return i

    def _plan(self, residue: int, a: int, b: int) -> list[tuple[int, int, int, dict]]:
        """Per cut r, child r's displacement less floor(e / q), its lengths and its memo.

        They depend on e only through its residue mod q.
        """
        q, plan = self._q, []
        for r in range(q):
            carry, ry = divmod(residue + r, q)
            lengths = ((r + a - 1) // q + 1, (ry + b - 1) // q + 1)
            plan.append((carry, *lengths, self._memo.setdefault(lengths, {})))
        self._plans[residue, a, b] = plan
        return plan

    def _lift(self, e: int, a: int, b: int, children: tuple[int, ...]) -> int:
        q = self._q
        nb = len(self._words(b)[0])
        node = 0
        for r, child in enumerate(children):
            ry = (r + e) % q
            # the child pairs the preimages x' and y'; y' has this length
            b_pre = (ry + b - 1) // q + 1
            cut = self._cuts.cut(r, a)
            nb_pre = len(self._words(b_pre)[0])
            full = (1 << nb_pre) - 1
            bits = self._nodes[child]
            for x in range(len(cut)):
                row = (bits >> (x * nb_pre)) & full
                if row:
                    node |= self._row(row, ry, b) << (cut[x] * nb)
        return node

    def row(self, e: int) -> tuple[int, ...]:
        """Per word x of ``words``, how many length-b words occur at displacement e from x."""
        i = self._top.get(e)
        if i is None:
            i = self._node(e, self._a, self._b)
        counts = self._counts.get(i)
        if counts is None:
            bits, nb = self._nodes[i], len(self._words(self._b)[0])
            full = (1 << nb) - 1
            counts = self._counts[i] = tuple(
                ((bits >> (x * nb)) & full).bit_count() for x in range(len(self.words))
            )
        return counts


def expand(s: Substitution, w: CenteredWord, k: int, cut: int) -> CenteredWord:
    """Apply the k-th power of the substitution to a window.

    The image of the window's coordinate-0 symbol occupies a block of q^k
    cells and the output origin is placed ``cut`` cells into that block, so
    the output left offset is ``w.left * q^k - cut``.
    """
    q = s.require_constant_length()
    block = q**k
    if not 0 <= cut < block:
        raise ValueError(f"cut {cut} out of range [0, {block})")
    if k == 0:
        return w
    symbols = w.symbols
    for _ in range(k):
        symbols = s.image(symbols)
    return CenteredWord(symbols, w.left * block - cut)


@dataclass(frozen=True)
class SeedPair:
    """Letters (b, a) whose images under the p-th power end in b / start with a.

    The two-sided fixed point lim theta^{pk}(b).theta^{pk}(a) is the concrete
    point the pair denotes; "ba" must be admissible so the limit lies in the
    subshift.
    """

    b: str
    a: str
    power: int


def _cycle_lengths(step: dict[str, str]) -> dict[str, int]:
    out: dict[str, int] = {}
    for start in step:
        seen = {start: 0}
        cur = start
        for i in itertools.count(1):
            cur = step[cur]
            if cur == start:
                out[start] = i
                break
            if cur in seen:
                break  # start is on a tail, not a cycle
            seen[cur] = i
    return out


def seed_pairs(s: Substitution) -> tuple[SeedPair, ...]:
    """All admissible fixed-point seeds, with the least power fixing both letters."""
    if not s.primitive:
        raise RegimeError("seed enumeration requires a primitive substitution")
    first = {c: s.rules[s.letters.index(c)][0] for c in s.letters}
    last = {c: s.rules[s.letters.index(c)][-1] for c in s.letters}
    first_cycles = _cycle_lengths(first)
    last_cycles = _cycle_lengths(last)
    found = []
    for b, cb in sorted(last_cycles.items()):
        for a, ca in sorted(first_cycles.items()):
            if s.table.admits(b + a):
                found.append(SeedPair(b, a, math.lcm(cb, ca)))
    return tuple(found)


def seed_window(s: Substitution, seed: SeedPair, radius: int, shift: int = 0) -> CenteredWord:
    """Window of the seed's fixed point on [shift-radius, shift+radius], recentred at shift."""
    q = s.require_constant_length()
    if q == 1:  # a primitive substitution of length 1 has one letter: the point is constant
        return CenteredWord(seed.a * (2 * radius + 1), -radius)
    k = seed.power
    while q**k <= radius + abs(shift):
        k += seed.power
    full = expand(s, CenteredWord(seed.b + seed.a, -1), k, 0)
    window = full.restrict(shift - radius, shift + radius)
    return shift_window(window, shift)


def height(s: Substitution) -> int:
    """Dekking's height h: the largest n <= d, coprime to q, that phases the letters mod n.

    Dekking (1978, "The spectrum of dynamical systems arising from
    substitutions of constant length") defines h as the largest divisor,
    coprime to q, of the gcd of the positions of u_0 in a fixed point u of
    a power sigma^p.  A *phasing mod n* is a map c from letters to Z/n and a
    constant t with c(sigma(b)[j]) = q c(b) + j + t for every letter b and
    j < q.  For n coprime to q, a phasing mod n exists exactly when n | h:

    - (<=) Induction along u = sigma^p(u) gives c(u_k) = c(u_0) + k.  So n
      divides the gcd of the positions of u_0 and, being coprime to q, h.
    - (=>) Dekking's partition puts u_k in class k mod h.  So every point x
      of the subshift has x_k in class c(x_0) + k.  Reading this at
      x = sigma(u) phases the letters mod h, and mod every divisor of h.
    - Each class holds a letter, so h <= d.
    """
    q = s.require_constant_length()
    if not s.primitive:
        raise RegimeError("height requires a primitive substitution")
    for n in range(s.alphabet_size, 1, -1):
        if math.gcd(n, q) == 1 and any(_phased(s, n, t) for t in range(n)):
            return n
    return 1


def _phased(s: Substitution, n: int, t: int) -> bool:
    """Whether a phasing mod n with constant t exists (see ``height``).

    A shift of c only changes t, so c is 0 at the first letter.  Labels spread
    breadth-first from the images, and primitivity reaches every letter.
    """
    q, images = s.constant_length, dict(zip(s.letters, s.rules))
    phase, queue = {s.letters[0]: 0}, [s.letters[0]]
    for b in queue:
        for j, e in enumerate(images[b]):
            want = (q * phase[b] + j + t) % n
            if e not in phase:
                phase[e] = want
                queue.append(e)
            elif phase[e] != want:
                return False
    return True


APERIODICITY_N_MAX = 48  # the complexity scan length n_max; see aperiodicity_check


def aperiodicity_check(s: Substitution) -> Verdict:
    """Morse-Hedlund style periodicity scan.

    A flat step p(n) = p(n+1) certifies a periodic (finite) subshift, so the
    flatness scan runs first at every length; only a complexity profile that
    keeps strictly growing through n_max is reported as witnessed aperiodic,
    with the least n where p(n) > n as the witness.  n_max is deep enough to
    catch every periodic fixed point in the range that
    ``catalog.random_exact_substitutions`` samples (at most
    ``catalog.ALPHABET_MAX`` = 3 letters, length at most ``catalog.Q_MAX`` =
    4).

    Only the length n_max + 1 table is read, and the substitution's table
    keeps it.  The length-n words are its distinct length-n prefixes (see
    ``LanguageTable``), and sorted words share a prefix exactly when every
    word between them does, so p(n) is one more than the number of adjacent
    pairs that agree on fewer than n letters: one pass counts every p(n).
    """
    if not s.primitive:
        raise RegimeError("aperiodicity check requires a primitive substitution")
    n_max = APERIODICITY_N_MAX
    agree = [0] * (n_max + 1)  # agree[k]: the adjacent pairs whose first mismatch is at k
    for x, y in itertools.pairwise(s.table.words(n_max + 1)):
        agree[_first_mismatch(x, y)] += 1
    p = list(itertools.accumulate(agree, initial=1))  # p[n] for n >= 1
    claim = "aperiodicity"
    witness_n: int | None = None
    for n in range(1, n_max + 1):
        if p[n] == p[n + 1]:
            return refuted(claim, f"complexity flat at length {n}", period=p[n], length=n)
        if witness_n is None and p[n] > n:
            witness_n = n
    if witness_n is not None:
        return witnessed(claim, {"n": witness_n, "complexity": p[witness_n]}, scanned_to=n_max)
    return exhausted(claim)


@dataclass(frozen=True)
class ExactRegime:
    """Whether a substitution is in the exact regime, with the evidence.

    The exact regime is constant length, primitive, aperiodic and height
    one; ``flags`` is the evidence that rank reports carry.  A primitive
    constant-length substitution whose complexity goes flat is periodic.
    """

    flags: Mapping[str, object]

    @property
    def exact(self) -> bool:
        return bool(self.flags["exact_regime"])

    @property
    def periodic(self) -> bool:
        return bool(self.flags.get("periodic"))


def _exact_regime_flags(s: Substitution) -> dict:
    flags: dict[str, object] = {
        "primitive": s.primitive,
        "constant_length": s.constant_length,
    }
    if not flags["primitive"] or s.constant_length is None:
        flags["exact_regime"] = False
        return flags
    aper = aperiodicity_check(s)
    flags["aperiodic"] = aper.status.value
    if aper.status is VerdictStatus.REFUTED:
        flags["period"] = aper.annotations.get("period")
        flags["exact_regime"] = False
        flags["periodic"] = True
        return flags
    flags["height"] = height(s)
    flags["exact_regime"] = aper.status is VerdictStatus.WITNESSED and flags["height"] == 1
    return flags


class _SubstitutionPresented:
    """The protocol members of a system presented by a substitution.

    A subclass sets ``substitution``, which gives the language, the
    cylinder index and the block counts, and ``spec_text``, on which the
    spec hash, and with it every certificate, rests.
    """

    substitution: Substitution

    @property
    def spec_hash(self) -> str:
        return hashlib.sha256(self.spec_text.encode()).hexdigest()[:16]

    def language(self, n: int) -> tuple[str, ...]:
        """The length-n words, built per call and not kept (see ``LanguageTable``)."""
        return language(self.substitution, n)

    def cylinders(self, L: int, radius: int) -> tuple[str, dict[str, list[int]]]:
        """The window text of the radius-``radius`` words, and each radius-L word's starts in it.

        See ``LanguageTable.cylinders``; ``oracles`` cuts the groups.
        """
        return self.substitution.table.cylinders(L, radius)

    def block_counter(self, central: int, width: int) -> BlockPairs | None:
        """``BlockPairs`` for words of these lengths, or None below constant length 2.

        Its ``row(e)`` counts, for every length-``central`` word at once, the
        length-``width`` words at displacement e.  The cylinder scans read it
        in place of their extensions' blocks; see ``oracles.sensitivity_scan``.
        """
        if (self.substitution.constant_length or 0) < 2:
            return None
        return BlockPairs(self.substitution, central, width)


@dataclass(frozen=True)
class SubstitutionSystem(_SubstitutionPresented):
    """A named substitution subshift."""

    name: str
    substitution: Substitution

    @property
    def spec_text(self) -> str:
        return f"substitution\n{self.substitution.to_text()}"

    def seed_points(self) -> tuple[SeedPair, ...]:
        return seed_pairs(self.substitution)

    def point_window(self, seed: SeedPair, radius: int, shift: int = 0) -> CenteredWord:
        return seed_window(self.substitution, seed, radius, shift)
