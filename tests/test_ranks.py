"""Rank pipelines, predicted profiles, factors, and the extension inequality."""

import ast
from pathlib import Path

import pytest

from shiftrank import ranks
from shiftrank.catalog import random_exact_substitutions, system_for
from shiftrank.odometer import column_number
from shiftrank.ranks import (
    Estimate,
    EstimateKind,
    RankReport,
    check_extension_inequality,
    coincidence_rank,
    equicontinuous_rank_report,
    maximal_rank,
    minimal_rank,
    predict_profile,
    rank_report,
    sliding_block_factor,
    substitution_rank_report,
)
from shiftrank.substitution import Substitution, SubstitutionSystem, language
from shiftrank.toeplitz import toeplitz_property

TM = Substitution(("01", "10"))
PD = Substitution(("01", "00"))
TERN = Substitution(("012", "120", "201"))
ONE = Substitution(("00",))

TM_SYS = SubstitutionSystem("thue-morse", TM)
TERN_SYS = SubstitutionSystem("ternary-morse", TERN)


# -- coincidence rank ----------------------------------------------------------


def test_coincidence_rank_thue_morse():
    est = coincidence_rank(TM)
    assert est.value == 2 and est.kind is EstimateKind.EXACT
    assert est.evidence["method"] == "pair-graph"
    # independent route: the column number
    assert column_number(TM)[0] == 2


def test_coincidence_rank_period_doubling():
    est = coincidence_rank(PD)
    assert est.value == 1 and est.kind is EstimateKind.EXACT


def test_coincidence_rank_ternary():
    assert coincidence_rank(TERN).value == 3


# -- minimal / maximal rank ------------------------------------------------------


def test_thue_morse_minimal_rank_is_two():
    est = minimal_rank(TM)
    assert est.value == 2 and est.kind is EstimateKind.STABILIZED


def test_thue_morse_maximal_rank_is_four():
    est = maximal_rank(TM)
    assert est.value == 4 and est.kind is EstimateKind.STABILIZED


def test_ternary_minimal_rank_is_three():
    est = minimal_rank(TERN)
    assert est.value == 3 and est.kind is EstimateKind.STABILIZED


@pytest.mark.parametrize("census", [minimal_rank, maximal_rank])
def test_census_records_the_confirmation_run_it_made(census):
    # the confirmation run uses radius max(q, radius_max // 2) = 3 here, not 2
    est = census(TERN, depth_max=1, radius_max=4)
    assert est.evidence["confirmation"]["branch_depth"] == 1
    assert est.evidence["confirmation"]["radius"] == 3


@pytest.mark.parametrize("census", [minimal_rank, maximal_rank])
def test_confirmation_census_is_no_wider_than_the_estimate(census):
    # toeplitz-rank-3 repeats a substitution of length q = 27, above the
    # radius 16, where the radius max(q, radius_max // 2) confirmed a
    # radius-16 estimate at radius 27
    s = system_for("toeplitz-rank-3").substitution
    assert s.constant_length == 27
    est = census(s, depth_max=3, radius_max=16)
    assert est.evidence["confirmation"]["branch_depth"] == 2
    assert est.evidence["confirmation"]["radius"] == 16


def test_period_doubling_census_ranks():
    # derived once by the census and frozen: smallest fiber 1, largest 2
    assert minimal_rank(PD).value == 1
    assert maximal_rank(PD).value == 2


def test_one_letter_report_is_periodic_all_ones():
    report = substitution_rank_report(SubstitutionSystem("trivial-1", ONE))
    assert (report.r_c.value, report.r_m.value, report.r_M.value) == (1, 1, 1)
    assert report.r_c.kind is EstimateKind.EXACT
    assert report.flags.get("periodic")


def test_exact_regime_is_checked_once_per_substitution(monkeypatch):
    import shiftrank.substitution as substitution

    calls = []
    check = substitution.aperiodicity_check
    monkeypatch.setattr(
        substitution, "aperiodicity_check", lambda s, *a: calls.append(s) or check(s, *a)
    )
    s = Substitution(("01", "10"))  # a fresh object: nothing cached yet
    report = substitution_rank_report(SubstitutionSystem("thue-morse", s), 3, 16)
    coincidence_rank(s)
    minimal_rank(s, 3, 16)
    assert calls == [s]
    assert report.to_payload()["flags"] == {
        "primitive": True,
        "constant_length": 2,
        "aperiodic": "witnessed",
        "height": 1,
        "exact_regime": True,
    }


def test_sampled_substitutions_carry_their_regime(monkeypatch):
    # the sampler keeps a candidate by its cached regime, so the rank
    # pipeline has nothing left to check
    import shiftrank.substitution as substitution

    sample = random_exact_substitutions(3, seed=11)
    calls = []
    check = substitution.aperiodicity_check
    monkeypatch.setattr(
        substitution, "aperiodicity_check", lambda s, *a: calls.append(s) or check(s, *a)
    )
    for s in sample:
        coincidence_rank(s)
    assert calls == []


def test_rank_chain_on_catalog_reports():
    for s, name in ((TM, "tm"), (PD, "pd"), (TERN, "tern")):
        report = substitution_rank_report(SubstitutionSystem(name, s))
        assert report.r_c.value <= report.r_m.value <= report.r_M.value


def test_rank_chain_violation_rejected():
    bad = Estimate(3, EstimateKind.EXACT, {})
    good = Estimate(1, EstimateKind.EXACT, {})
    with pytest.raises(ValueError):
        RankReport("broken", bad, good, good, {})


def test_oracle_agreement_on_random_sample():
    # the pair graph, the column minima, and the census agree pairwise
    for s in random_exact_substitutions(25, seed=99):
        c = column_number(s)[0]
        assert coincidence_rank(s).value == c
        assert minimal_rank(s, depth_max=3, radius_max=16).value == c


# -- predicted profile -------------------------------------------------------------


def test_thue_morse_profile():
    report = substitution_rank_report(TM_SYS)
    profile = predict_profile(report, 5)
    sensitive = {r.m for r in profile.rows if r.m_sensitive}
    compact = {r.m for r in profile.rows if r.compactly_m_sensitive}
    cover = {r.m for r in profile.rows if r.cover_m_equicontinuous}
    assert sensitive == {2, 3, 4}
    assert profile.row(5).m_equicontinuous
    assert compact == {2}
    assert cover == {3, 4, 5}


def test_rank_one_profile_is_equicontinuous_everywhere():
    report = equicontinuous_rank_report("odometer")
    profile = predict_profile(report, 6)
    assert all(r.m_equicontinuous for r in profile.rows)
    assert all(not r.m_sensitive for r in profile.rows)


def test_infinite_rank_profile_all_sensitive():
    inf = Estimate(None, EstimateKind.LOWER_BOUND, {"method": "synthetic"})
    report = RankReport("synthetic-inf", inf, inf, inf, {})
    profile = predict_profile(report, 4)
    assert all(r.m_sensitive and r.compactly_m_sensitive for r in profile.rows)


def test_ternary_profile_follows_computed_ranks():
    report = substitution_rank_report(TERN_SYS)
    profile = predict_profile(report, 5)
    assert all(r.m_sensitive for r in profile.rows)  # r_M = 9 at desk scale
    assert {r.m for r in profile.rows if r.compactly_m_sensitive} == {2, 3}


# -- sliding-block factors ------------------------------------------------------------


def test_identity_rule_preserves_language():
    rule = {w: w for w in TM_SYS.language(1)}
    fac = sliding_block_factor(TM_SYS, rule)
    for n in (1, 3, 6):
        assert fac.language(n) == TM_SYS.language(n)


def test_partial_rule_rejected():
    with pytest.raises(ValueError):
        sliding_block_factor(TM_SYS, {"00": "0"})


def test_ternary_sum_factor_golden_lengths_and_toeplitz_property():
    rule = {w: str((int(w[0]) + int(w[1]) + int(w[2])) % 3) for w in TERN_SYS.language(3)}
    fac = sliding_block_factor(TERN_SYS, rule, name="ternary-sum")
    # golden image-language sizes, derived by direct sliding application
    assert [len(fac.language(n)) for n in range(1, 13)] == [
        3, 7, 10, 13, 15, 17, 19, 21, 24, 27, 30, 33,
    ]
    # complexity of the factor never exceeds the source's
    for n in range(1, 13):
        assert len(fac.language(n)) <= len(TERN_SYS.language(n))
    # factor-closed
    for n in (2, 5, 9):
        shorter = set(fac.language(n - 1))
        for w in fac.language(n):
            assert w[:-1] in shorter and w[1:] in shorter
    # the image of a long fixed-point prefix is Toeplitz over the 3-adic tower
    s = TERN_SYS.substitution
    prefix = "0"
    while len(prefix) < 3**9 + 2:
        prefix = s.image(prefix)
    image = fac.apply(prefix[: 3**9 + 2])
    assert toeplitz_property(image, [3**k for k in range(1, 9)], 4096)


def test_thue_morse_sum_factor_is_relabeled_period_doubling():
    rule = {w: str((int(w[0]) + int(w[1])) % 2) for w in TM_SYS.language(2)}
    fac = sliding_block_factor(TM_SYS, rule, name="tm-sum")
    # dual generation: candidate substitution presentation of the image
    candidate = Substitution(("11", "10"))  # period doubling with symbols swapped
    for n in range(1, 13):
        assert fac.language(n) == language(candidate, n)
    flip = str.maketrans("01", "10")
    for n in range(1, 13):
        assert set(fac.language(n)) == {w.translate(flip) for w in language(PD, n)}


# -- extension inequality ---------------------------------------------------------------


def test_identity_extension_inequality():
    report = substitution_rank_report(TM_SYS)
    assert check_extension_inequality(report, report, proximal=True)


def test_toeplitz_over_odometer_inequality():
    from shiftrank.catalog import system_for

    toeplitz = rank_report(system_for("toeplitz-doubling"))
    odometer = equicontinuous_rank_report("dyadic-odometer")
    assert toeplitz.r_m.value == 1
    assert check_extension_inequality(toeplitz, odometer, proximal=True)


def test_synthetic_violation_flagged():
    x = RankReport(
        "x",
        Estimate(1, EstimateKind.EXACT, {}),
        Estimate(1, EstimateKind.EXACT, {}),
        Estimate(2, EstimateKind.EXACT, {}),
        {},
    )
    y = RankReport(
        "y",
        Estimate(2, EstimateKind.EXACT, {}),
        Estimate(2, EstimateKind.EXACT, {}),
        Estimate(2, EstimateKind.EXACT, {}),
        {},
    )
    assert not check_extension_inequality(x, y, proximal=True)


def test_infinite_marker_comparisons():
    inf = Estimate(None, EstimateKind.LOWER_BOUND, {})
    fin = Estimate(2, EstimateKind.EXACT, {})
    x = RankReport("x", fin, fin, inf, {})
    y = RankReport("y", fin, inf, inf, {})
    assert check_extension_inequality(x, y, proximal=True)


def test_non_proximal_call_rejected():
    report = substitution_rank_report(TM_SYS)
    with pytest.raises(ValueError):
        check_extension_inequality(report, report, proximal=False)


def test_almost_automorphic_flag_tracks_minimal_rank():
    from shiftrank.catalog import system_for

    assert rank_report(system_for("period-doubling")).almost_automorphic
    assert rank_report(system_for("toeplitz-doubling")).almost_automorphic
    assert not rank_report(system_for("thue-morse")).almost_automorphic


@pytest.mark.parametrize("name", ["thue-morse", "period-doubling", "toeplitz-doubling"])
@pytest.mark.parametrize(
    "depth, radius, message",
    [(-3, 16, "census depth must be non-negative, got depth=-3"),
     (3, -5, "census radius must be non-negative, got radius=-5")],
    ids=["depth", "radius"],
)
def test_rank_report_rejects_negative_census_settings(name, depth, radius, message):
    # a negative radius graded Toeplitz ranks "stabilized", and a negative
    # depth went into the substitution evidence as branch_depth
    system = system_for(name)
    with pytest.raises(ValueError, match=message):
        rank_report(system, depth, radius)
    report = rank_report(system, 0, 0)
    assert report.r_m.value >= 1


def test_ranks_imports_nothing_from_the_scan_layer():
    # r_c reads its column and pair classes from odometer, not from oracles
    tree = ast.parse(Path(ranks.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert [name for name in imported if "oracles" in name.split(".")] == []
