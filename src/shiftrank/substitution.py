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
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

from .verdicts import Verdict, VerdictStatus, exhausted, refuted, witnessed
from .words import ALPHABET_CHARS, CenteredWord, shift_window, sym_char


class RegimeError(ValueError):
    """An operation was applied outside its validity regime."""


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


class LanguageTable:
    """Admissible words of each length, one sorted tuple per length.

    The substitution owns its table (``Substitution.table``), so the table
    and its memo live exactly as long as the substitution does; the table
    keeps the rules, not the substitution, so dropping a substitution frees
    its table at once.  ``build(n)`` makes the length-n tuple and keeps
    nothing; ``words(n)`` memoises it.  The memo serves the readers that
    revisit lengths: ``seed_pairs`` and the digit-path census.  The protocol
    read ``SubstitutionSystem.language``, which the oracles and the CLI use
    for their scan-length tables, goes through ``build``, so such a table
    lives only as long as the caller holds it.

    A substitution that has passed the regime gate keeps one length,
    ``APERIODICITY_N_MAX + 1``, which ``aperiodicity_check`` memoises; the
    gate reads its other lengths, in ``aperiodicity_check`` and ``height``,
    without keeping them.  Every shorter length a later reader asks for,
    such as the census's 2 * radius + 1, is derived from the shortest longer
    one the memo holds.

    Exactness argument: once the image of every letter under the k-th power
    has length >= n, any admissible length-n word sits inside the image of an
    admissible two-letter word, and conversely every factor of such an image
    is admissible.  The two-letter words are computed by a monotone closure,
    so no stabilization heuristic is involved.

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

    def _images_covering(self, n: int) -> tuple[str, ...]:
        """Letter images under the least power whose shortest image has length >= n."""
        lengths = [len(r) for r in self._rules]
        if min(lengths) < 2 and max(lengths) < 2:
            raise RegimeError("substitution does not expand; language undefined at this length")
        images = tuple(self._letters)
        k = 0
        while min(map(len, images)) < n:
            k += 1
            if k > 64:
                raise RegimeError("substitution images grow too slowly to cover the request")
            images = tuple(map(self._image, images))
        return images

    def build(self, n: int) -> tuple[str, ...]:
        """All admissible words of length n, sorted, without memoising them."""
        if n < 1:
            raise ValueError("length must be positive")
        if n in self._cache:
            return self._cache[n]
        longer = min((m for m in self._cache if m > n), default=None)
        if longer is not None:
            return _prefixes(self._cache[longer], n)
        if n == 1:  # a primitive substitution's images use every letter
            return tuple(self._letters)
        images = dict(zip(self._letters, self._images_covering(n)))
        seeds = self._two_letter_words()  # nonempty: _images_covering raises when no image grows
        # A length-n window of a seed's block theta^k(a) theta^k(b) lies
        # inside one letter's image or crosses the seam, and the crossing
        # ones are the windows of theta^k(a)[1-n:] + theta^k(b)[:n-1]: take
        # each letter's inner windows once, and per seed only the seam's.
        found = set()
        for c in {c for pair in seeds for c in pair}:
            img = images[c]
            found.update(img[i : i + n] for i in range(len(img) - n + 1))
        for a, b in seeds:
            seam = images[a][1 - n :] + images[b][: n - 1]
            found.update(seam[i : i + n] for i in range(n - 1))
        return tuple(sorted(found))

    def words(self, n: int) -> tuple[str, ...]:
        """All admissible words of length n, sorted and memoised."""
        if n not in self._cache:
            self._cache[n] = self.build(n)
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
            # a one-letter alphabet admits its only pair without a table
            if s.alphabet_size == 1 or s.table.admits(b + a):
                found.append(SeedPair(b, a, math.lcm(cb, ca)))
    return tuple(found)


def seed_window(s: Substitution, seed: SeedPair, radius: int, shift: int = 0) -> CenteredWord:
    """Window of the seed's fixed point on [shift-radius, shift+radius], recentred at shift."""
    q = s.require_constant_length()
    k = seed.power
    while q**k <= radius + abs(shift):
        k += seed.power
    full = expand(s, CenteredWord(seed.b + seed.a, -1), k, 0)
    window = full.restrict(shift - radius, shift + radius)
    return shift_window(window, shift)


def height(s: Substitution) -> int:
    """Largest divisor, coprime to q, of the gcd of return times of the first letter.

    Dekking (1978, "The spectrum of dynamical systems arising from
    substitutions of constant length") defines the height from the positions
    of u_0 = a in a fixed point u, where a is the least letter on a cycle of
    the first-letter map.  The gcd of those positions is the gcd of the
    return times of a: the lengths r = |a w| of the return words a w a of u,
    with no a in w.

    It is decided exactly from the language table.  For a primitive
    substitution every admissible word occurs in u, and ``LanguageTable`` is
    exactly the language, so a return of time r is an admissible word of
    length r + 1 that starts and ends with a and has no a inside.  Lengths
    are read up to the least n at which every admissible word contains a:
    w is admissible and has no a, so |w| < n, and no return time exceeds n.
    Each length is read through ``build``, so the table keeps none of them.
    """
    q = s.require_constant_length()
    if not s.primitive:
        raise RegimeError("height requires a primitive substitution")
    first = {c: s.rules[s.letters.index(c)][0] for c in s.letters}
    a = min(_cycle_lengths(first))
    table = s.table
    g = 0
    words = table.build(1)
    for n in itertools.count(1):
        longer = table.build(n + 1)
        if any(w[0] == a == w[-1] and a not in w[1:-1] for w in longer):
            g = math.gcd(g, n)
        if all(a in w for w in words):
            break
        words = longer
    while (d := math.gcd(g, q)) > 1:
        g //= d
    return g


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

    Only the length n_max + 1 table is built from letter images, and it is
    the only one the substitution's table keeps.  The complexities p(n) are
    read before the scan, down a chain from n_max + 1 to 1: each shorter
    table is the prefixes of the one just above it (see ``LanguageTable``)
    and is dropped once its length is counted.
    """
    if not s.primitive:
        raise RegimeError("aperiodicity check requires a primitive substitution")
    n_max = APERIODICITY_N_MAX
    words = s.table.words(n_max + 1)
    p = [0] * (n_max + 2)  # p[n] is the complexity at length n
    p[n_max + 1] = len(words)
    for n in range(n_max, 0, -1):
        words = _prefixes(words, n)
        p[n] = len(words)
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


@dataclass(frozen=True)
class SubstitutionSystem:
    """A named substitution subshift."""

    name: str
    substitution: Substitution

    @property
    def spec_text(self) -> str:
        return f"substitution\n{self.substitution.to_text()}"

    @property
    def spec_hash(self) -> str:
        return hashlib.sha256(self.spec_text.encode()).hexdigest()[:16]

    def language(self, n: int) -> tuple[str, ...]:
        """The length-n words, built per call and not kept (see ``LanguageTable``)."""
        return language(self.substitution, n)

    def seed_points(self) -> tuple[SeedPair, ...]:
        return seed_pairs(self.substitution)

    def point_window(self, seed: SeedPair, radius: int, shift: int = 0) -> CenteredWord:
        return seed_window(self.substitution, seed, radius, shift)
