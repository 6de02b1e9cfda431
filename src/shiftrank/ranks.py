"""Rank estimates, predicted multivariate profiles, and factor utilities.

The three ranks measure fiber sizes of the odometer factor map: the smallest
fiber, the largest fiber, and the largest pairwise non-proximal subset of a
fiber.  In the exact regime (constant length, primitive, aperiodic, height
one) the coincidence rank is exact: a minimal column and its pair classes
both come from the search of ``odometer``'s column maps
(``column_number``, ``proximal_pair``).  Minimal and maximal rank come from
digit-path censuses (``odometer.census_extreme``) stabilized over depth and
radius.  Nothing here reads the scan layer (``oracles``).
"""

from __future__ import annotations

import enum
import hashlib
import itertools
from dataclasses import dataclass
from typing import Callable, Mapping

from .odometer import census_extreme, column_number, proximal_pair
from .substitution import RegimeError, Substitution, SubstitutionSystem

# The census depth and radius every rank report runs at unless told otherwise.
CENSUS_DEPTH = 4
CENSUS_RADIUS = 64


class EstimateKind(enum.Enum):
    EXACT = "exact"
    STABILIZED = "stabilized"
    LOWER_BOUND = "lower-bound"


@dataclass(frozen=True)
class Estimate:
    """A rank value with provenance.  ``value`` None encodes infinity."""

    value: int | None
    kind: EstimateKind
    evidence: Mapping[str, object]

    @property
    def infinite(self) -> bool:
        return self.value is None

    def to_payload(self) -> dict:
        return {
            "value": self.value,
            "kind": self.kind.value,
            "evidence": dict(self.evidence),
        }


def _le(a: int | None, b: int | None) -> bool:
    """a <= b with None as infinity."""
    if b is None:
        return True
    return a is not None and a <= b


@dataclass(frozen=True)
class RankReport:
    system: str
    r_c: Estimate
    r_m: Estimate
    r_M: Estimate
    flags: Mapping[str, object]

    def __post_init__(self) -> None:
        if not (_le(self.r_c.value, self.r_m.value) and _le(self.r_m.value, self.r_M.value)):
            raise ValueError(
                f"rank chain violated for {self.system}: "
                f"{self.r_c.value} <= {self.r_m.value} <= {self.r_M.value} fails"
            )

    @property
    def almost_automorphic(self) -> bool:
        """Some fiber of the equicontinuous factor is a singleton."""
        return self.r_m.value == 1

    def to_payload(self) -> dict:
        return {
            "system": self.system,
            "r_c": self.r_c.to_payload(),
            "r_m": self.r_m.to_payload(),
            "r_M": self.r_M.to_payload(),
            "almost_automorphic": self.almost_automorphic,
            "flags": dict(self.flags),
        }


def coincidence_rank(s: Substitution) -> Estimate:
    """Largest pairwise-distal subset of a minimal column.

    The column and its pair classes come from one search, ``odometer``'s
    column maps: from the alphabet for the column, from each 2-subset of it
    for the pair's class.
    """
    if not s.regime.exact:
        return Estimate(
            1,
            EstimateKind.LOWER_BOUND,
            {"method": "pair-graph", "note": "outside the exact regime; trivial bound"},
        )
    _, depth, index, column = column_number(s)
    distal = {pair for pair in itertools.combinations(column, 2) if not proximal_pair(s, *pair)}
    value = next(
        size
        for size in range(len(column), 0, -1)
        if any(
            distal.issuperset(itertools.combinations(subset, 2))
            for subset in itertools.combinations(column, size)
        )
    )
    return Estimate(
        value,
        EstimateKind.EXACT,
        {
            "method": "pair-graph",
            "column_depth": depth,
            "column_index": index,
            "column": column,
        },
    )


def _census_rank(
    s: Substitution, policy: str, depth_max: int, radius_max: int
) -> Estimate:
    q = s.require_constant_length()
    if not s.regime.exact:
        raise RegimeError("census ranks require the exact regime")
    # the confirmation census is never wider than the estimate it confirms
    small_depth, small_radius = max(1, depth_max - 1), min(radius_max, max(q, radius_max // 2))
    small_v, small_st = census_extreme(s, policy, small_depth, small_radius)
    big_v, big_st = census_extreme(s, policy, depth_max, radius_max)
    kind = (
        EstimateKind.STABILIZED
        if small_v == big_v and small_st and big_st
        else EstimateKind.LOWER_BOUND
    )
    return Estimate(
        big_v,
        kind,
        {
            "method": "fiber-census",
            "policy": policy,
            "branch_depth": depth_max,
            "radius": radius_max,
            "confirmation": {"branch_depth": small_depth, "radius": small_radius, "value": small_v},
        },
    )


def minimal_rank(
    s: Substitution, depth_max: int = CENSUS_DEPTH, radius_max: int = CENSUS_RADIUS
) -> Estimate:
    """Smallest stabilized fiber census over sampled digit paths."""
    return _census_rank(s, "min", depth_max, radius_max)


def maximal_rank(
    s: Substitution, depth_max: int = CENSUS_DEPTH, radius_max: int = CENSUS_RADIUS
) -> Estimate:
    """Largest stabilized fiber census, boundary digit paths included."""
    return _census_rank(s, "max", depth_max, radius_max)


def substitution_rank_report(
    system: SubstitutionSystem, depth_max: int = CENSUS_DEPTH, radius_max: int = CENSUS_RADIUS
) -> RankReport:
    s = system.substitution
    regime = s.regime
    if regime.periodic:
        ev = {"method": "periodic-orbit", "period": regime.flags["period"]}
        one = Estimate(1, EstimateKind.EXACT, ev)
        return RankReport(system.name, one, one, one, regime.flags)
    if not regime.exact:
        raise RegimeError(
            f"{system.name}: rank pipelines need the exact regime "
            "(constant length, primitive, aperiodic, height 1) or a periodic system"
        )
    return RankReport(
        system.name,
        coincidence_rank(s),
        minimal_rank(s, depth_max, radius_max),
        maximal_rank(s, depth_max, radius_max),
        regime.flags,
    )


def equicontinuous_rank_report(name: str) -> RankReport:
    """Ranks of a system that is its own equicontinuous factor, e.g. an odometer."""
    one = Estimate(1, EstimateKind.EXACT, {"method": "equicontinuous-by-construction"})
    return RankReport(name, one, one, one, {"equicontinuous": True})


def rank_report(
    system, depth_max: int = CENSUS_DEPTH, radius_max: int = CENSUS_RADIUS
) -> RankReport:
    """Dispatch to the right rank pipeline for the system's construction."""
    for label, value in (("depth", depth_max), ("radius", radius_max)):
        if value < 0:
            raise ValueError(f"census {label} must be non-negative, got {label}={value}")
    if isinstance(system, SubstitutionSystem):
        return substitution_rank_report(system, depth_max, radius_max)
    reporter: Callable | None = getattr(system, "rank_report", None)
    if reporter is not None:
        return reporter(depth_max, radius_max)
    raise TypeError(f"no rank pipeline for {type(system).__name__}")


# --------------------------------------------------------------------------
# Predicted multivariate profile


@dataclass(frozen=True)
class ProfileRow:
    """Predicted dichotomies at tuple size m: each equicontinuity negates a sensitivity."""

    m: int
    m_sensitive: bool
    compactly_m_sensitive: bool

    @property
    def m_equicontinuous(self) -> bool:
        return not self.m_sensitive

    @property
    def cover_m_equicontinuous(self) -> bool:
        return not self.compactly_m_sensitive


@dataclass(frozen=True)
class MultivariateProfile:
    system: str
    rows: tuple[ProfileRow, ...]

    def row(self, m: int) -> ProfileRow:
        for r in self.rows:
            if r.m == m:
                return r
        raise KeyError(m)

    def to_payload(self) -> dict:
        return {
            "system": self.system,
            "profile": {
                str(r.m): {
                    "m_equicontinuous": r.m_equicontinuous,
                    "m_sensitive": r.m_sensitive,
                    "compactly_m_sensitive": r.compactly_m_sensitive,
                    "cover_m_equicontinuous": r.cover_m_equicontinuous,
                }
                for r in self.rows
            },
        }


def require_profile_size(m_max: int) -> None:
    """Refuse a profile with no row: its tuple sizes run from 2 to ``m_max``.

    ``verify`` and the CLI's ``profile`` check before the rank census runs.
    """
    if m_max < 2:
        raise ValueError("profile needs m_max >= 2")


def predict_profile(report: RankReport, m_max: int) -> MultivariateProfile:
    """Apply the rank characterizations: sensitivity tracks the maximal rank,
    block sensitivity tracks the coincidence rank."""
    require_profile_size(m_max)
    r_M, r_c = report.r_M.value, report.r_c.value
    rows = tuple(
        ProfileRow(m, r_M is None or r_M >= m, r_c is None or r_c >= m) for m in range(2, m_max + 1)
    )
    return MultivariateProfile(report.system, rows)


# --------------------------------------------------------------------------
# Sliding-block factors


class FactorLanguage:
    """Image language of a sliding-block code applied to a source system.

    The local rule maps every admissible source word of its window length to
    one output symbol; image words of length n are read off source words of
    length n + window - 1, so the result is factor-closed by construction.
    """

    def __init__(self, source, rule: Mapping[str, str], name: str | None = None):
        widths = {len(k) for k in rule}
        if len(widths) != 1:
            raise ValueError("all rule keys must share one window length")
        self.window = widths.pop()
        if self.window < 1:
            raise ValueError("rule window must be positive")
        for v in rule.values():
            if len(v) != 1:
                raise ValueError("rule values must be single symbols")
        missing = [w for w in source.language(self.window) if w not in rule]
        if missing:
            raise ValueError(f"partial rule: no image for {missing[:3]}...")
        self.source = source
        self.rule = dict(rule)
        self.name = name or f"{source.name}-factor"

    @property
    def spec_hash(self) -> str:
        text = self.source.spec_hash + repr(sorted(self.rule.items()))
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def apply(self, word: str) -> str:
        """Slide the rule along a source word."""
        w = self.window
        if len(word) < w:
            raise ValueError("word shorter than the rule window")
        return "".join(self.rule[word[i : i + w]] for i in range(len(word) - w + 1))

    def language(self, n: int) -> tuple[str, ...]:
        """The image words of length n, sorted, built per call and not kept."""
        src = self.source.language(n + self.window - 1)
        return tuple(sorted({self.apply(w) for w in src}))


def sliding_block_factor(source, rule: Mapping[str, str], name: str | None = None) -> FactorLanguage:
    return FactorLanguage(source, rule, name)


def check_extension_inequality(
    x_report: RankReport, y_report: RankReport, proximal: bool
) -> bool:
    """For a proximal extension X -> Y: r_c(Y) <= r_c(X) <= r_m(Y) on the estimates."""
    if not proximal:
        raise ValueError("the inequality chain is only asserted for proximal extensions")
    return _le(y_report.r_c.value, x_report.r_c.value) and _le(
        x_report.r_c.value, y_report.r_m.value
    )
