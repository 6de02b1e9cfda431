"""Finite centered windows and the dyadic window metric.

A point of a subshift is approximated at desk scale by a finite two-sided
window of symbols straddling the origin.  All metric questions about points
reduce to exact combinatorics on these windows: with the standard subshift
metric d(x, y) = 2^-min{|n| : x_n != y_n}, the ball of radius 2^-K around x
is exactly the cylinder of its central window of radius K.  A comparison
returns the least |n| at which two windows differ over their whole overlap,
or None when they agree on it, so a None says nothing about the coordinates
outside the overlap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

#: Symbol ids are rendered as single characters, so words are plain strings.
ALPHABET_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"


def sym_char(i: int) -> str:
    """Character for symbol id ``i``."""
    if not 0 <= i < len(ALPHABET_CHARS):
        raise ValueError(f"symbol id out of range: {i}")
    return ALPHABET_CHARS[i]


def _cut(text: str, starts: Iterable[int], n: int) -> tuple[str, ...]:
    """The distinct length-n windows of ``text`` at ``starts``, sorted."""
    return tuple(sorted({text[g : g + n] for g in starts}))


def _window_starts(text: str, starts: Iterable[int], n: int) -> tuple[int, ...]:
    """One start per distinct length-n window of ``text`` at ``starts``, in window order."""
    start_of = {text[g : g + n]: g for g in starts}
    return tuple(map(start_of.__getitem__, sorted(start_of)))


@dataclass(frozen=True)
class CenteredWord:
    """A finite window of a bi-infinite sequence, must contain coordinate 0.

    ``symbols[i]`` sits at coordinate ``left + i``; ``left <= 0`` and the
    window extends at least to coordinate 0.
    """

    symbols: str
    left: int = 0

    def __post_init__(self) -> None:
        if not self.symbols:
            raise ValueError("centered word must be nonempty")
        if not (self.left <= 0 <= self.left + len(self.symbols) - 1):
            raise ValueError(
                f"window [{self.left}, {self.left + len(self.symbols) - 1}] "
                "does not contain the origin"
            )

    @property
    def right(self) -> int:
        return self.left + len(self.symbols) - 1

    def covers(self, lo: int, hi: int) -> bool:
        return self.left <= lo and hi <= self.right

    def segment(self, lo: int, hi: int) -> str:
        """Symbols on coordinates ``lo..hi`` inclusive."""
        if not self.covers(lo, hi):
            raise IndexError(f"[{lo}, {hi}] outside window [{self.left}, {self.right}]")
        return self.symbols[lo - self.left : hi - self.left + 1]

    def central(self, radius: int) -> str:
        """The word on coordinates ``-radius..radius``."""
        return self.segment(-radius, radius)

    def restrict(self, lo: int, hi: int) -> "CenteredWord":
        if lo > 0 or hi < 0:
            raise ValueError("restriction must keep the origin")
        return CenteredWord(self.segment(lo, hi), lo)

    def serialize(self) -> str:
        return f"offset:left={self.left} word={self.symbols}"

    @classmethod
    def parse(cls, text: str) -> "CenteredWord":
        head, _, word_part = text.partition(" word=")
        if not head.startswith("offset:left=") or not word_part:
            raise ValueError(f"bad centered word literal: {text!r}")
        return cls(word_part, int(head[len("offset:left=") :]))


def _first_mismatch(x: str, y: str) -> int | None:
    """Index of the first position where two equal-length strings differ, or None."""
    if x == y:
        return None
    lo, hi = 0, len(x)  # x[:lo] == y[:lo], and x[lo:hi] != y[lo:hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if x[lo:mid] == y[lo:mid]:
            lo = mid
        else:
            hi = mid
    return lo


def scale_of_difference(a: CenteredWord, b: CenteredWord) -> int | None:
    """min{|n| : a_n != b_n} over the overlap of the windows, or None if they agree there.

    Scans each side of the intersection of both windows outward from the
    origin: coordinates ``0..hi`` as they stand, ``lo..-1`` reversed.  Each
    side's first mismatch is found by bisection on slice equality, so a scan
    costs O(log n) string comparisons.  The minimum is exact over the whole,
    possibly asymmetric, overlap, differences beyond the symmetric overlap
    radius included.
    """
    lo = max(a.left, b.left)
    hi = min(a.right, b.right)
    sa, sb = a.symbols, b.symbols
    oa, ob = -a.left, -b.left
    best = _first_mismatch(sa[oa : oa + hi + 1], sb[ob : ob + hi + 1])
    # on the left only coordinates -1..-reach can still match or beat best
    reach = -lo if best is None else min(-lo, best)
    left = _first_mismatch(sa[oa - reach : oa][::-1], sb[ob - reach : ob][::-1])
    if left is not None:
        best = left + 1
    return best


def shift_window(w: CenteredWord, g: int) -> CenteredWord:
    """The window of the shifted point: coordinate n of the output reads n+g of the input."""
    if not w.left <= g <= w.right:
        raise ValueError(f"shift by {g} moves the origin outside [{w.left}, {w.right}]")
    return CenteredWord(w.symbols, w.left - g)


def shifts(limit: int) -> Iterator[int]:
    """Shift amounts 0, 1, -1, 2, -2, ... out to |g| <= limit, deterministic order."""
    yield 0
    for g in range(1, limit + 1):
        yield g
        yield -g
