"""The rank-vs-oracle consistency loop.

For a system: compute the rank report, derive the predicted multivariate
profile, then run the sensitivity searches for each tuple size and grade
every cell.  A witness where sensitivity is predicted is consistent; a
witness where equicontinuity is predicted contradicts the prediction; an
exhausted search where sensitivity is predicted is inconclusive, because a
bigger budget might still find the witness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .oracles import (
    CylinderGrouping,
    SearchBudget,
    block_sensitivity_scan,
    scan_radius,
    sensitivity_report,
    sensitivity_scan,
)
from .ranks import (
    CENSUS_DEPTH,
    CENSUS_RADIUS,
    MultivariateProfile,
    RankReport,
    predict_profile,
    rank_report,
)
from .verdicts import Verdict

CONSISTENT = "CONSISTENT"
INCONSISTENT = "INCONSISTENT"
INCONCLUSIVE = "INCONCLUSIVE"
BLOCK_SCALE = 1  # the scale exponent K of every block cell; see verify_system
M_MAX = 5  # the largest tuple size graded unless told otherwise


@dataclass(frozen=True)
class Cell:
    m: int
    test: str  # "sensitivity" | "block"
    predicted_positive: bool
    verdict: Verdict
    label: str

    def to_payload(self) -> dict:
        return {
            "m": self.m,
            "test": self.test,
            "predicted_positive": self.predicted_positive,
            "verdict": self.verdict.status.value,
            "label": self.label,
        }


@dataclass(frozen=True)
class VerifyReport:
    system: str
    ranks: RankReport
    profile: MultivariateProfile
    cells: tuple[Cell, ...]

    @property
    def consistent(self) -> bool:
        return all(c.label != INCONSISTENT for c in self.cells)

    def witnessed_certificates(self) -> list[dict]:
        return [
            c.verdict.certificate
            for c in self.cells
            if c.verdict.witnessed and c.verdict.certificate
        ]

    def to_payload(self) -> dict:
        return {
            "system": self.system,
            "ranks": self.ranks.to_payload(),
            "profile": self.profile.to_payload(),
            "cells": [c.to_payload() for c in self.cells],
            "consistent": self.consistent,
        }


def _grade(predicted_positive: bool, verdict: Verdict) -> str:
    if verdict.witnessed:
        return CONSISTENT if predicted_positive else INCONSISTENT
    return INCONCLUSIVE if predicted_positive else CONSISTENT


def verify_system(
    system,
    m_max: int = M_MAX,
    budget: SearchBudget | None = None,
    depth_max: int = CENSUS_DEPTH,
    radius_max: int = CENSUS_RADIUS,
) -> VerifyReport:
    """Grade sensitivity and block-sensitivity cells against the rank predictions.

    Sensitivity cells run at the budget's scale.  Block cells run at the
    finest scale, ``BLOCK_SCALE`` = 1: block separation at a scale
    comparable to the cylinder radius admits spurious desk witnesses that the
    coincidence rank only rules out in the limit, while at scale one the
    searches track the rank on every reference system.

    Both scans read one extension grouping, built at the wider of their
    window radii.  The wider scan runs first, because the narrower one trims
    the grouping and drops it as it goes (see ``CylinderGrouping``).
    """
    budget = budget or SearchBudget()
    ranks = rank_report(system, depth_max, radius_max)
    profile = predict_profile(ranks, m_max)
    sens_radius = scan_radius(budget, budget.K)
    block_radius = scan_radius(budget, BLOCK_SCALE, budget.B)
    grouping = CylinderGrouping(system, budget.L, max(sens_radius, block_radius))

    def sens():
        return sensitivity_scan(system, m_max, budget.K, budget, grouping=grouping)

    def block():
        return block_sensitivity_scan(
            system, m_max, BLOCK_SCALE, budget.B, budget, grouping=grouping
        )

    if block_radius >= sens_radius:
        block_scans, sens_scans = block(), sens()
    else:
        sens_scans, block_scans = sens(), block()
    cells = []
    for m in range(2, m_max + 1):
        row = profile.row(m)
        for test, scans, K, B, predicted in (
            ("sensitivity", sens_scans, budget.K, None, row.m_sensitive),
            ("block", block_scans, BLOCK_SCALE, budget.B, row.compactly_m_sensitive),
        ):
            verdict = sensitivity_report(system, scans, m, K, B, budget).aggregate
            cells.append(Cell(m, test, predicted, verdict, _grade(predicted, verdict)))
    return VerifyReport(system.name, ranks, profile, tuple(cells))
