"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Shared state (verify reports, rank reports, certificates) is computed once in
module-scoped fixtures so the criteria stay order-independent.
"""

import hashlib
import json
import time

import pytest

from shiftrank import catalog
from shiftrank.certificates import certificate_json, load_certificate, replay
from shiftrank.odometer import column_number
from shiftrank.oracles import SearchBudget, block_m_sensitivity_test, m_equicontinuity_point_test
from shiftrank.ranks import (
    Estimate,
    EstimateKind,
    RankReport,
    check_extension_inequality,
    coincidence_rank,
    equicontinuous_rank_report,
    maximal_rank,
    minimal_rank,
    rank_report,
    sliding_block_factor,
)
from shiftrank.substitution import SubstitutionSystem
from shiftrank.toeplitz import toeplitz_property
from shiftrank.verify import INCONSISTENT, verify_system

DEFAULT = SearchBudget()
EXACT_NAMES = ("thue-morse", "period-doubling", "ternary-morse", "keane-morse-011")
C5_ROWS_SHA256 = "9c1a2cb71688b7618bad4772d04aa0cfb522149dab49839cb4959b251a48ef98"
C5_PAYLOADS_SHA256 = "f9dcddfc294720af5e82ce0f5fb1491bbc1590eef97ca9a1537e2b9fb2954c1a"


class Collected:
    """Rank reports and witnessed certificates accumulated across criteria."""

    def __init__(self):
        self.rank_reports: list[RankReport] = []
        self.certificates: list[dict] = []


@pytest.fixture(scope="module")
def collected():
    return Collected()


@pytest.fixture(scope="module")
def verify_reports(collected):
    names = [n for n in catalog.names() if catalog.get(n).verify]
    started = time.monotonic()
    reports = {}
    for name in names:
        reports[name] = verify_system(catalog.system_for(name), 5, DEFAULT)
    elapsed = time.monotonic() - started
    for rep in reports.values():
        collected.rank_reports.append(rep.ranks)
        collected.certificates.extend(rep.witnessed_certificates())
    return reports, elapsed


def test_criterion_1_thue_morse_ranks(collected):
    started = time.monotonic()
    system = catalog.system_for("thue-morse")
    report = rank_report(system, depth_max=4, radius_max=64)
    elapsed = time.monotonic() - started
    collected.rank_reports.append(report)
    assert report.r_m.value == 2 and report.r_m.kind is EstimateKind.STABILIZED
    assert report.r_M.value == 4 and report.r_M.kind is EstimateKind.STABILIZED
    assert report.r_c.value == 2 and report.r_c.kind is EstimateKind.EXACT
    assert report.r_c.evidence["method"] == "pair-graph"
    assert column_number(system.substitution)[0] == 2  # independent route
    assert elapsed < 10.0
    print(
        f"PASS criterion 1: thue-morse r_c=2 r_m=2 r_M=4, stabilized at depth<=4 "
        f"radius<=64 in {elapsed:.2f}s"
    )


def test_criterion_2_ternary_rank_and_toeplitz_factor(collected):
    system = catalog.system_for("ternary-morse")
    report = rank_report(system, depth_max=4, radius_max=64)
    collected.rank_reports.append(report)
    assert report.r_m.value == 3 and report.r_m.kind is EstimateKind.STABILIZED
    rule = {w: str((int(w[0]) + int(w[1]) + int(w[2])) % 3) for w in system.language(3)}
    factor = sliding_block_factor(system, rule, name="ternary-sum")
    s = system.substitution
    prefix = "0"
    while len(prefix) < 3**9 + 2:
        prefix = s.image(prefix)
    image = factor.apply(prefix[: 3**9 + 2])
    assert toeplitz_property(image, [3**k for k in range(1, 9)], 2**12)
    print(
        "PASS criterion 2: ternary-morse r_m=3 stabilized; mod-3 sum factor image "
        "is Toeplitz on a 2^12 prefix"
    )


def test_criterion_3_maximal_rank_loop(verify_reports, collected):
    reports, elapsed = verify_reports
    for name, rep in reports.items():
        bad = [c for c in rep.cells if c.label == INCONSISTENT]
        assert not bad, (name, bad)
    for name in EXACT_NAMES:
        rep = reports[name]
        r_M = rep.ranks.r_M.value
        for cell in rep.cells:
            if cell.test != "sensitivity":
                continue
            predicted = r_M is None or r_M >= cell.m
            assert cell.verdict.witnessed == predicted, (name, cell.m)
            if cell.verdict.exhausted:
                assert rep.profile.row(cell.m).m_equicontinuous, (name, cell.m)
    assert elapsed < 120.0
    print(
        f"PASS criterion 3: sensitivity witnessed iff r_M >= m on every exact-regime "
        f"system, zero inconsistent cells; full verify in {elapsed:.1f}s"
    )


def test_criterion_4_coincidence_rank_loop(collected):
    tm = catalog.system_for("thue-morse")
    pd = catalog.system_for("period-doubling")
    b_tm = SearchBudget(L=2, N=256, K=1, B=8)
    r2 = block_m_sensitivity_test(tm, 2, 1, 8, b_tm)
    assert r2.aggregate.witnessed
    collected.certificates.append(r2.aggregate.certificate)
    r3 = block_m_sensitivity_test(tm, 3, 1, 8, SearchBudget(L=2, N=512, K=1, B=8))
    assert r3.aggregate.exhausted
    rpd = block_m_sensitivity_test(pd, 2, 1, 8, b_tm)
    assert rpd.aggregate.exhausted
    # and the witnessed sizes match the coincidence ranks
    assert coincidence_rank(tm.substitution).value == 2
    assert coincidence_rank(pd.substitution).value == 1
    print(
        "PASS criterion 4: block sensitivity witnessed at m=2 (B=8) and exhausted at "
        "m=3 (N=512) on thue-morse; exhausted at m=2 on period-doubling"
    )


def test_criterion_5_oracle_equivalence(collected):
    started = time.monotonic()
    systems = catalog.random_exact_substitutions(200)
    mismatches = []
    rows = []
    payloads = []
    for s in systems:
        c = column_number(s)[0]
        rc = coincidence_rank(s)
        rm = minimal_rank(s, depth_max=3, radius_max=16)
        rM = maximal_rank(s, depth_max=3, radius_max=16)
        report = RankReport(f"random-{s.rules}", rc, rm, rM, {})
        collected.rank_reports.append(report)
        rows.append((c, rc.value, rm.value, rM.value))
        payloads.append([rm.to_payload(), rM.to_payload()])
        if not (rc.value == c == rm.value):
            mismatches.append((s.rules, c, rc.value, rm.value))
    elapsed = time.monotonic() - started
    assert len(systems) == 200
    assert not mismatches, mismatches[:5]
    # frozen (column number, r_c, r_m, r_M) of all 200 systems
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == C5_ROWS_SHA256
    # frozen full census estimates (value, kind, confirmation evidence) of r_m and r_M
    assert hashlib.sha256(json.dumps(payloads).encode()).hexdigest() == C5_PAYLOADS_SHA256
    print(
        f"PASS criterion 5: pair-graph rank = column number = stabilized census "
        f"minimum on 200 random systems, zero mismatches, {elapsed:.1f}s"
    )


def test_criterion_6_rank_chain(verify_reports, collected):
    reports, _ = verify_reports
    assert collected.rank_reports, "criteria 1-5 must contribute reports"
    seen = list(collected.rank_reports) + [rep.ranks for rep in reports.values()]

    def le(a, b):
        return b is None or (a is not None and a <= b)

    for report in seen:
        assert le(report.r_c.value, report.r_m.value), report.system
        assert le(report.r_m.value, report.r_M.value), report.system
    print(f"PASS criterion 6: rank chain r_c <= r_m <= r_M on all {len(seen)} reports produced")


def test_criterion_7_certificate_replay(verify_reports, collected, tmp_path):
    reports, _ = verify_reports
    certs = list(collected.certificates)
    for rep in reports.values():
        certs.extend(rep.witnessed_certificates())
    assert certs, "criteria 3-4 must produce witnesses"
    replayed = 0
    for cert in certs:
        doc = load_certificate(certificate_json(cert))
        result = replay(doc)
        assert result.ok, (cert.get("kind"), result.failures[:3])
        replayed += 1
    # one certificate through the command-line replay path
    from shiftrank.cli import main

    path = tmp_path / "cert.json"
    path.write_text(certificate_json(certs[0]))
    assert main(["replay", str(path)]) == 0
    print(f"PASS criterion 7: {replayed}/{replayed} witnessed certificates replay cleanly")


def test_criterion_8_shift_invariance():
    checked = 0
    for name in EXACT_NAMES + ("trivial-1",):
        system = catalog.system_for(name)
        radius = DEFAULT.N + DEFAULT.K + 4 + max(DEFAULT.ladder)
        for m in (2, 4, 5):
            statuses = set()
            for g in range(-4, 5):
                x = system.point_window(system.seed_points()[0], radius, shift=g)
                v = m_equicontinuity_point_test(system, x, m, DEFAULT.K, DEFAULT)
                statuses.add(v.status)
            assert len(statuses) == 1, (name, m, statuses)
            checked += 1
    print(
        f"PASS criterion 8: point-test verdict class invariant under |g|<=4 seed "
        f"shifts across {checked} (system, m) pairs"
    )


def test_criterion_9_extension_inequality():
    tm_report = rank_report(catalog.system_for("thue-morse"))
    assert check_extension_inequality(tm_report, tm_report, proximal=True)
    toeplitz = rank_report(catalog.system_for("toeplitz-doubling"))
    odometer = equicontinuous_rank_report("dyadic-odometer")
    assert (toeplitz.r_c.value, toeplitz.r_m.value) == (1, 1)
    assert check_extension_inequality(toeplitz, odometer, proximal=True)
    synthetic_x = RankReport(
        "x",
        Estimate(1, EstimateKind.EXACT, {}),
        Estimate(1, EstimateKind.EXACT, {}),
        Estimate(1, EstimateKind.EXACT, {}),
        {},
    )
    synthetic_y = RankReport(
        "y",
        Estimate(2, EstimateKind.EXACT, {}),
        Estimate(2, EstimateKind.EXACT, {}),
        Estimate(2, EstimateKind.EXACT, {}),
        {},
    )
    assert not check_extension_inequality(synthetic_x, synthetic_y, proximal=True)
    print(
        "PASS criterion 9: extension inequality holds on the identity factor and the "
        "almost automorphic system over its odometer, and flags the synthetic violation"
    )
