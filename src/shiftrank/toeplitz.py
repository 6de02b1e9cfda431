"""Toeplitz sequences from period skeletons, and their fiber censuses.

A skeleton is a nested list of stages: stage k fills some residue classes
modulo its period with fixed symbols, leaving holes for deeper stages.  Every
position is eventually filled periodically, which is exactly the Toeplitz
property; the odometer over the period tower is the equicontinuous factor,
and fibers are censused by following residue classes down the tower in a
generated prefix.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .ranks import CENSUS_RADIUS, Estimate, EstimateKind, RankReport
from .words import ALPHABET_CHARS


@dataclass(frozen=True)
class Stage:
    period: int
    fills: tuple[tuple[int, str], ...]  # (residue, symbol), residue mod period


@dataclass(frozen=True)
class ToeplitzSkeleton:
    stages: tuple[Stage, ...]

    def __post_init__(self) -> None:
        prev = 1
        for st in self.stages:
            if st.period <= prev or st.period % prev != 0:
                raise ValueError("stage periods must strictly increase through divisibility")
            prev = st.period
            for r, sym in st.fills:
                if not 0 <= r < st.period:
                    raise ValueError(f"residue {r} out of range mod {st.period}")
                if sym not in ALPHABET_CHARS:
                    raise ValueError(f"bad fill symbol {sym!r}")
        # a later fill must not touch residues already pinned earlier
        for i, st in enumerate(self.stages):
            for r, _ in st.fills:
                for earlier in self.stages[:i]:
                    if any(r % earlier.period == er for er, _ in earlier.fills):
                        raise ValueError(
                            f"stage {st.period} fills residue {r} already filled mod {earlier.period}"
                        )

    @property
    def periods(self) -> tuple[int, ...]:
        return tuple(st.period for st in self.stages)

    def _symbols(self, length: int) -> list[str | None]:
        """The symbol of every position n < ``length``, None where no fill reaches.

        Position n takes the first fill, in stage order, whose residue is n
        mod its period.  One stride assignment per fill, in reverse order,
        writes that fill last.
        """
        chars: list[str | None] = [None] * length
        fills = [(st.period, r, sym) for st in self.stages for r, sym in st.fills]
        for period, r, sym in reversed(fills):
            chars[r::period] = [sym] * len(range(r, length, period))
        return chars

    def hole_residues(self) -> tuple[int, ...]:
        """Residues mod the deepest period not filled by any stage."""
        symbols = self._symbols(self.stages[-1].period)
        return tuple(r for r, sym in enumerate(symbols) if sym is None)

    @cached_property
    def periodic(self) -> bool:
        """No holes at the deepest stage: the sequence is fully periodic."""
        return not self.hole_residues()

    def prefix(self, length: int) -> str:
        chars = self._symbols(length)
        if None in chars:
            raise ValueError(
                f"position {chars.index(None)} permanently unfilled by the given stages; "
                "extend the skeleton or shorten the prefix"
            )
        return "".join(chars)


def doubling_skeleton(depth: int = 16) -> ToeplitzSkeleton:
    """Classic alternating doubling skeleton: stage k fills 2^(k-1)-1 mod 2^k."""
    stages = []
    for k in range(1, depth + 1):
        sym = "0" if k % 2 == 1 else "1"
        stages.append(Stage(2**k, ((2 ** (k - 1) - 1, sym),)))
    return ToeplitzSkeleton(tuple(stages))


def rank_family_skeleton(r: int, depth: int = 10) -> ToeplitzSkeleton:
    """Skeleton with r-fold ambiguity at the hole: targets maximal rank r.

    At each stage the current hole class splits into r subclasses; all but
    one are filled, with symbols rotating so that every symbol keeps showing
    up arbitrarily deep in the tower.
    """
    if r < 2:
        raise ValueError("rank family needs r >= 2")
    stages = []
    hole = 0
    for k in range(1, depth + 1):
        period = r**k
        fills = []
        for j in range(r - 1):
            residue = hole + j * r ** (k - 1)
            fills.append((residue, ALPHABET_CHARS[(j + k) % r]))
        stages.append(Stage(period, tuple(fills)))
        hole = hole + (r - 1) * r ** (k - 1)
    return ToeplitzSkeleton(tuple(stages))


def toeplitz_property(seq: str, periods: Iterable[int], positions: int) -> bool:
    """Every position up to ``positions`` recurs under some skeleton period.

    A period certifies a position when every in-range occurrence n + kp
    carries the same symbol; positions whose filling period exceeds the
    remaining range are vacuously certified, matching the finite-prefix
    reading of the Toeplitz property.
    """
    plist = sorted(periods)
    for n in range(min(positions, len(seq))):
        ok = False
        for p in plist:
            good = True
            t = n + p
            while t < len(seq):
                if seq[t] != seq[n]:
                    good = False
                    break
                t += p
            if good:
                ok = True
                break
        if not ok:
            return False
    return True


_MIN_SAMPLES = 4


class ToeplitzSystem:
    """A Toeplitz subshift presented by a skeleton and a generated prefix.

    The language is read off the prefix; for a minimal Toeplitz sequence
    every admissible word recurs with bounded gaps, so a long prefix is a
    faithful desk-scale presentation.
    """

    def __init__(self, name: str, skeleton: ToeplitzSkeleton, prefix_length: int = 1 << 15):
        self.name = name
        self.skeleton = skeleton
        self.prefix_length = prefix_length

    @cached_property
    def prefix(self) -> str:
        return self.skeleton.prefix(self.prefix_length)

    @property
    def spec_text(self) -> str:
        lines = ["toeplitz"]
        for st in self.skeleton.stages:
            fills = ",".join(f"{r}={sym}" for r, sym in st.fills)
            lines.append(f"stage {st.period}: {fills}")
        return "\n".join(lines)

    @property
    def spec_hash(self) -> str:
        return hashlib.sha256(self.spec_text.encode()).hexdigest()[:16]

    def language(self, n: int) -> tuple[str, ...]:
        """The length-n windows of the prefix, sorted, built per call and not kept."""
        if n < 1:
            raise ValueError("length must be positive")
        p = self.prefix
        return tuple(sorted({p[i : i + n] for i in range(len(p) - n + 1)}))

    # -- fiber census over the period tower -------------------------------

    def _census_extremes(self, radius: int) -> tuple[tuple[int, bool], tuple[int, bool]]:
        """Least and greatest stabilized window counts over residue paths down the tower.

        Each extreme comes with whether some path ending at it stabilized.
        One walk serves both: which nodes it visits never depends on the
        extreme.  A path goes one period deeper only while the prefix holds
        at least ``_MIN_SAMPLES`` occurrences of the deeper residue class.
        """
        periods = self.skeleton.periods
        leaves: list[tuple[int, bool]] = []  # (count, stabilized) per path end
        # ids[i] numbers the radius-``radius`` window centred at prefix
        # position radius + i, so equal windows share an id and a residue
        # class is counted from ints, never re-slicing the prefix
        p, width = self.prefix, 2 * radius + 1
        intern: dict[str, int] = {}
        ids = [intern.setdefault(p[i : i + width], len(intern)) for i in range(len(p) - width + 1)]

        def occurrences(period: int, residue: int) -> int:
            return max(0, (self.prefix_length - residue) // period)

        def walk(level: int, residue: int, history: tuple[int, ...]) -> None:
            period = periods[level]
            # the index in ids of the class's first whole window
            count = len(set(ids[(residue - radius) % period :: period]))
            history = history + (count,)
            deeper_ok = (
                level + 1 < len(periods)
                and occurrences(periods[level + 1], residue) >= _MIN_SAMPLES
            )
            stabilized = len(history) >= 3 and len(set(history[-3:])) == 1
            if stabilized or not deeper_ok:
                if count > 0:
                    leaves.append((count, stabilized))
                return
            nxt = periods[level + 1]
            for lift in range(residue, nxt, period):
                if occurrences(nxt, lift) >= 1:
                    walk(level + 1, lift, history)

        for r in range(periods[0]):
            walk(0, r, ())
        if not leaves:
            raise RuntimeError("census found no occupied residue; prefix too short")

        def extreme(pick) -> tuple[int, bool]:
            value = pick(count for count, _ in leaves)
            return value, any(st for count, st in leaves if count == value)

        return extreme(min), extreme(max)

    def rank_report(self, radius_max: int = CENSUS_RADIUS):
        flags = {
            "toeplitz": True,
            "periods": list(self.skeleton.periods[:6]) + ["..."],
            "periodic": self.skeleton.periodic,
        }
        if self.skeleton.periodic:
            one = Estimate(1, EstimateKind.EXACT, {"method": "periodic-orbit"})
            return RankReport(self.name, one, one, one, flags)
        (lo_v, lo_st), (hi_v, hi_st) = self._census_extremes(radius_max)
        (lo_small, _), (hi_small, _) = self._census_extremes(max(4, radius_max // 2))
        ev = {"method": "fiber-census", "radius": radius_max, "prefix": self.prefix_length}
        r_m = Estimate(
            lo_v,
            EstimateKind.STABILIZED if lo_st and lo_v == lo_small else EstimateKind.LOWER_BOUND,
            ev,
        )
        r_M = Estimate(
            hi_v,
            EstimateKind.STABILIZED if hi_st and hi_v == hi_small else EstimateKind.LOWER_BOUND,
            ev,
        )
        if r_m.value == 1:
            r_c = Estimate(
                1,
                r_m.kind,
                {"method": "almost-automorphic-bound", "note": "r_c <= r_m = 1"},
            )
        else:
            r_c = Estimate(1, EstimateKind.LOWER_BOUND, {"method": "trivial-bound"})
        return RankReport(self.name, r_c, r_m, r_M, flags)
