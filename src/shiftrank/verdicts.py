"""Tri-valued outcomes of finite-horizon searches.

A finite search cannot prove a universally quantified statement over all of
Z, so every search reports one of three things: a witness with enough data
to replay the defining inequality, an exact refutation backed by a closed
form argument, or exhaustion of the stated budget.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Mapping


class VerdictStatus(enum.Enum):
    WITNESSED = "witnessed"
    REFUTED = "refuted"
    EXHAUSTED = "exhausted"


@dataclass(frozen=True)
class Verdict:
    """Outcome of one search, with replayable evidence when witnessed."""

    status: VerdictStatus
    claim: str
    certificate: Any = None
    reason: str | None = None
    annotations: Mapping[str, Any] = field(default_factory=dict)

    @property
    def witnessed(self) -> bool:
        return self.status is VerdictStatus.WITNESSED

    @property
    def exhausted(self) -> bool:
        return self.status is VerdictStatus.EXHAUSTED

    def summary(self) -> str:
        tail = f" ({self.reason})" if self.reason else ""
        return f"{self.status.value}: {self.claim}{tail}"


def witnessed(claim: str, certificate: Any, **annotations: Any) -> Verdict:
    return Verdict(VerdictStatus.WITNESSED, claim, certificate=certificate, annotations=annotations)


def refuted(claim: str, reason: str, **annotations: Any) -> Verdict:
    return Verdict(VerdictStatus.REFUTED, claim, reason=reason, annotations=annotations)


def exhausted(claim: str, **annotations: Any) -> Verdict:
    return Verdict(VerdictStatus.EXHAUSTED, claim, annotations=annotations)
