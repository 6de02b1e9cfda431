"""Toeplitz sequences from period skeletons, presented by the substitutions they repeat.

A skeleton is a nested list of stages: stage k fills some residue classes
modulo its period with fixed symbols, leaving holes for deeper stages.  Every
position is eventually filled periodically, which is exactly the Toeplitz
property.  A skeleton that repeats its stage rule inside its one remaining
hole describes the fixed point of a constant-length substitution
(Cassaigne and Karhumaki, "Toeplitz words, generalized periodicity and
periodically iterated morphisms", 1997), and ``ToeplitzSystem`` reads its
language, its block counts and its fiber censuses off that substitution,
whose odometer is the equicontinuous factor.  A skeleton that does not
repeat is refused.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

from .ranks import (
    CENSUS_DEPTH,
    CENSUS_RADIUS,
    Estimate,
    EstimateKind,
    RankReport,
    maximal_rank,
    minimal_rank,
)
from .substitution import RegimeError, Substitution, SubstitutionSystem
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

    def substitution(self) -> Substitution:
        """The constant-length substitution sigma fixing this skeleton's sequence t.

        Take the least p such that the first p stages leave at most one hole
        residue h mod P, the period of stage p, and every later stage p + k
        is stage k dilated into the hole: its period is P * period(k), and
        its fills are (h + P r, a) for each fill (r, a) of stage k.  At least
        one later stage must exist and match, unless no hole is left, which
        makes t periodic.  Then sigma(a) is t[:P] with a at position h, or
        t[:P] for every a when t is periodic, for each letter a up to the
        largest fill symbol.

        Proof: the first p stages fill position P n + j, j != h, with t[j].
        Position P n + h is filled at stage p + k exactly when n is filled at
        stage k, with the same symbol, so t[P n + h] = t[n].  So t = sigma(t).

        A skeleton has finitely many stages; it is read as the first stages
        of the self-similar rule it repeats, whose limit is sigma's fixed
        point.  Any other skeleton raises RegimeError.
        """
        used = {sym for st in self.stages for _, sym in st.fills}
        letters = ALPHABET_CHARS[: 1 + max(map(ALPHABET_CHARS.index, used), default=0)]
        for p, stage in enumerate(self.stages, 1):
            P, later = stage.period, self.stages[p:]
            symbols = ToeplitzSkeleton(self.stages[:p])._symbols(P)
            holes = [r for r, sym in enumerate(symbols) if sym is None]
            repeats = len(holes) == 1 and later and later == tuple(
                Stage(P * st.period, tuple((holes[0] + P * r, sym) for r, sym in st.fills))
                for st in self.stages[: len(later)]
            )
            if not holes or repeats:
                return Substitution(tuple("".join(sym or a for sym in symbols) for a in letters))
        raise RegimeError("the skeleton does not repeat its stages inside one hole")


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


class ToeplitzSystem:
    """A Toeplitz subshift presented by a skeleton and the substitution it repeats.

    The language, the scans' block counts and the rank censuses are those of
    ``sigma``, the ``SubstitutionSystem`` of ``skeleton.substitution()``.
    The spec, and with it every certificate, stays the skeleton's.
    """

    def __init__(self, name: str, skeleton: ToeplitzSkeleton):
        self.name = name
        self.skeleton = skeleton
        self.sigma = SubstitutionSystem(name, skeleton.substitution())

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
        """The length-n words of ``sigma``, built per call and not kept."""
        return self.sigma.language(n)

    def block_counter(self, central: int, width: int) -> Callable[[str, int], int] | None:
        """``sigma``'s block counter; see ``SubstitutionSystem.block_counter``."""
        return self.sigma.block_counter(central, width)

    def rank_report(
        self, depth_max: int = CENSUS_DEPTH, radius_max: int = CENSUS_RADIUS
    ) -> RankReport:
        """r_m and r_M from ``sigma``'s censuses, r_c from the almost-automorphic bound."""
        flags = {
            "toeplitz": True,
            "periods": list(self.skeleton.periods[:6]) + ["..."],
            "periodic": self.skeleton.periodic,
        }
        if self.skeleton.periodic:
            one = Estimate(1, EstimateKind.EXACT, {"method": "periodic-orbit"})
            return RankReport(self.name, one, one, one, flags)
        s = self.sigma.substitution
        r_m = minimal_rank(s, depth_max, radius_max)
        r_M = maximal_rank(s, depth_max, radius_max)
        if r_m.value == 1:
            r_c = Estimate(
                1,
                r_m.kind,
                {"method": "almost-automorphic-bound", "note": "r_c <= r_m = 1"},
            )
        else:
            r_c = Estimate(1, EstimateKind.LOWER_BOUND, {"method": "trivial-bound"})
        return RankReport(self.name, r_c, r_m, r_M, flags)
