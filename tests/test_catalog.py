"""Catalog inventory: predicates, goldens, and the random sampler."""

import pytest

from shiftrank import catalog
from shiftrank.ranks import rank_report
from shiftrank.substitution import RegimeError, SubstitutionSystem, aperiodicity_check
from shiftrank.toeplitz import ToeplitzSystem, toeplitz_property
from shiftrank.verdicts import VerdictStatus


def test_inventory_names():
    expected = {
        "thue-morse",
        "period-doubling",
        "ternary-morse",
        "keane-morse-011",
        "trivial-1",
        "toeplitz-doubling",
        "toeplitz-rank-2",
        "toeplitz-rank-3",
        "glasner-weiss-skew",
    }
    assert expected <= set(catalog.names())


def test_unknown_name_rejected():
    with pytest.raises(KeyError):
        catalog.get("no-such-system")


def test_documentation_entry_has_no_computation():
    spec = catalog.get("glasner-weiss-skew")
    assert spec.kind == "documentation" and spec.note
    with pytest.raises(RegimeError):
        catalog.system_for("glasner-weiss-skew")


def test_catalog_substitutions_pass_structural_predicates():
    for name in catalog.names():
        spec = catalog.get(name)
        if spec.kind != "substitution":
            continue
        system = catalog.system_for(name)
        assert system.substitution.primitive, name
        verdict = aperiodicity_check(system.substitution)
        if name == "trivial-1":
            assert verdict.status is VerdictStatus.REFUTED
        else:
            assert verdict.status is VerdictStatus.WITNESSED, name


def test_goldens_reproduced_by_rank_pipelines():
    for name in catalog.names():
        spec = catalog.get(name)
        if not spec.golden or spec.kind == "documentation":
            continue
        report = rank_report(catalog.system_for(name))
        got = {"r_c": report.r_c.value, "r_m": report.r_m.value, "r_M": report.r_M.value}
        for rank, (value, provenance) in spec.golden.items():
            assert got[rank] == value, (name, rank, provenance, got)


def test_toeplitz_entries_satisfy_toeplitz_property():
    for name in ("toeplitz-doubling", "toeplitz-rank-2", "toeplitz-rank-3"):
        system = catalog.system_for(name)
        assert isinstance(system, ToeplitzSystem)
        periods = system.skeleton.periods
        assert toeplitz_property(system.prefix[: 2**12 + 512], periods, 2**12)


def test_custom_substitution_from_rule_text():
    system = catalog.custom_substitution("0 -> 01; 1 -> 10", name="inline-tm")
    assert isinstance(system, SubstitutionSystem)
    assert system.language(2) == ("00", "01", "10", "11")


def test_random_sampler_is_deterministic_and_filtered():
    a = catalog.random_exact_substitutions(10, seed=5)
    b = catalog.random_exact_substitutions(10, seed=5)
    assert [s.rules for s in a] == [s.rules for s in b]
    for s in a:
        assert s.primitive
        assert s.constant_length is not None and 2 <= s.constant_length <= 4
        assert 2 <= s.alphabet_size <= 3
        assert aperiodicity_check(s).status is VerdictStatus.WITNESSED


def test_random_sampler_shares_one_instance_per_repeated_draw():
    # equal draws share one instance, so they share its regime and language table
    sample = catalog.random_exact_substitutions(40)
    first = {}
    for s in sample:
        assert first.setdefault(s.rules, s) is s
    assert len(first) < len(sample)  # the first 40 repeat three draws
