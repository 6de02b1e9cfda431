"""The benchmark workloads: inputs from a seed, one op, its checks and its digest.

Every library call goes through a module attribute looked up at call time
(``ranks.minimal_rank(...)``, never a name bound at import), so the wrappers
that the tracer installs on those attributes see every call.

An op returns its verdict-level output: rank values and kinds, cell statuses
and labels, verdict classes and canonical certificate JSON.  Free-text
evidence stays out, so a documented evidence fix does not change a digest.
"""

from __future__ import annotations

import hashlib
import json
import random

from shiftrank import catalog, certificates, odometer, oracles, ranks, verify


class OpFailure(Exception):
    """An op's output failed its correctness check."""


def digest(output: object) -> str:
    """sha256 of canonical JSON, cut to 64 bits: enough to tell a changed output."""
    text = json.dumps(output, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _le(a: int | None, b: int | None) -> bool:
    """a <= b with None as infinity."""
    return b is None or (a is not None and a <= b)


def _estimate(est) -> list:
    return [est.value, est.kind.value]


def _replayed(payloads) -> list[str]:
    """Canonical JSON of each certificate, after it replays through its text form."""
    canonical = []
    for payload in payloads:
        text = certificates.certificate_json(payload)
        result = certificates.replay(certificates.load_certificate(text))
        if not result.ok:
            raise OpFailure(f"{payload['kind']} certificate does not replay: {result.failures[:2]}")
        canonical.append(text)
    return canonical


class Workload:
    """Defaults: one rank report per op, no check across ops, every op drawn by any seed."""

    reports_per_op = 1

    def all_inputs(self, seed: int = 0) -> list:
        return self.inputs(seed)

    def cross_check(self, inputs, outputs) -> dict[int, str]:
        """Failures that only show across ops: op index -> reason."""
        return {}


class RankSweep(Workload):
    """Exact rank reports for random exact-regime substitutions.

    The systems are the first ``size`` of the criterion-5 sample
    (``random_exact_substitutions`` at its default seed), in sampling order,
    whatever the run's seed.  Op cost is heavy-tailed (one q = 4 system takes
    40% of a pass), so a sample drawn per seed moves wall time by about as
    much as the whole pass from seed to seed, and the order of the systems
    moves peak RSS by 20%.  One op is one system.
    """

    name = "rank-sweep"
    size = 40
    sample_seed = 20260811
    depth = 3
    radius = 16

    def inputs(self, seed: int) -> list:
        return catalog.random_exact_substitutions(self.size, self.sample_seed)

    def key(self, s) -> str:
        return "/".join(s.rules)

    def run(self, s) -> dict:
        c = odometer.column_number(s)[0]
        r_c = ranks.coincidence_rank(s)
        r_m = ranks.minimal_rank(s, self.depth, self.radius)
        r_M = ranks.maximal_rank(s, self.depth, self.radius)
        if not r_c.value == c == r_m.value:
            raise OpFailure(f"r_c {r_c.value}, column number {c}, r_m {r_m.value} differ")
        if not (_le(r_c.value, r_m.value) and _le(r_m.value, r_M.value)):
            raise OpFailure(f"rank chain {r_c.value} <= {r_m.value} <= {r_M.value} fails")
        return {
            "column_number": c,
            "r_c": _estimate(r_c),
            "r_m": _estimate(r_m),
            "r_M": _estimate(r_M),
        }


class VerifyWide(Workload):
    """``verify_system`` over the ``verify = yes`` catalog systems at a wide horizon.

    The seed only orders the systems; verdicts do not depend on order.  Every
    witnessed certificate is replayed.  One op is one system.
    """

    name = "verify-wide"
    N = 512
    m_max = 5

    def inputs(self, seed: int) -> list:
        names = [n for n in catalog.names() if catalog.get(n).verify]
        random.Random(seed).shuffle(names)
        return [catalog.system_for(n) for n in names]

    def key(self, system) -> str:
        return system.name

    def run(self, system) -> dict:
        report = verify.verify_system(system, self.m_max, oracles.SearchBudget(N=self.N))
        bad = [f"m={c.m} {c.test}" for c in report.cells if c.label == verify.INCONSISTENT]
        if bad:
            raise OpFailure(f"INCONSISTENT cells: {', '.join(bad)}")
        return {
            "ranks": {k: _estimate(getattr(report.ranks, k)) for k in ("r_c", "r_m", "r_M")},
            "cells": [
                [c.m, c.test, c.predicted_positive, c.verdict.status.value, c.label]
                for c in report.cells
            ],
            "certificates": _replayed(report.witnessed_certificates()),
        }


class ProbeReplay(Workload):
    """Point and cover tests at seed-point windows, with every certificate replayed.

    A job is (exact-regime catalog system, seed shift g, m).  Each
    (system, m) class gets ``per_class`` distinct shifts drawn from the seed,
    so the class mix, and with it the cost of a pass, is the same for every
    seed.  One op is one job.
    """

    name = "probe-replay"
    systems = ("thue-morse", "period-doubling", "ternary-morse", "keane-morse-011")
    ms = (2, 3, 4, 5)
    shift_max = 64
    per_class = 8
    reports_per_op = 0

    def _jobs(self, shifts_for) -> list:
        return [
            (catalog.system_for(name), g, m)
            for name in self.systems
            for m in self.ms
            for g in shifts_for()
        ]

    def inputs(self, seed: int) -> list:
        rng = random.Random(seed)
        shifts = range(-self.shift_max, self.shift_max + 1)
        jobs = self._jobs(lambda: rng.sample(shifts, self.per_class))
        rng.shuffle(jobs)
        return jobs

    def all_inputs(self, seed: int = 0) -> list:
        return self._jobs(lambda: range(-self.shift_max, self.shift_max + 1))

    def key(self, job) -> str:
        system, g, m = job
        return f"{system.name}/{g}/{m}"

    def run(self, job) -> dict:
        system, g, m = job
        budget = oracles.SearchBudget()
        # the window radius of acceptance criterion 8
        radius = budget.N + budget.K + 4 + max(budget.ladder)
        x = system.point_window(system.seed_points()[0], radius, shift=g)
        point = oracles.m_equicontinuity_point_test(system, x, m, budget.K, budget)
        cover = oracles.cover_m_equicontinuity_test(system, x, m, budget.K, budget)
        verdicts = (point, cover)
        return {
            "point": [point.status.value, point.annotations.get("verdict_class")],
            "cover": [cover.status.value, cover.annotations.get("verdict_class")],
            "certificates": _replayed(v.certificate for v in verdicts if v.certificate),
        }

    def cross_check(self, inputs, outputs) -> dict[int, str]:
        """The point-test verdict class must not depend on g (acceptance criterion 8)."""
        classes: dict[tuple[str, int], set] = {}
        for (system, _, m), out in zip(inputs, outputs):
            if out is not None:
                classes.setdefault((system.name, m), set()).add(tuple(out["point"]))
        return {
            i: f"point-test verdict class varies with g on {system.name}, m={m}"
            for i, (system, _, m) in enumerate(inputs)
            if len(classes.get((system.name, m), ())) > 1
        }


WORKLOADS = {w.name: w for w in (RankSweep(), VerifyWide(), ProbeReplay())}
