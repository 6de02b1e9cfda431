"""Cell grading rules of the consistency loop, and its frozen certificates."""

import ast
import hashlib
import inspect
import sys
from pathlib import Path

import pytest

from shiftrank import catalog, oracles, verify
from shiftrank.certificates import certificate_json
from shiftrank.oracles import (
    SearchBudget,
    block_sensitivity_scan,
    scan_radius,
    sensitivity_report,
    sensitivity_scan,
)
from shiftrank.substitution import BlockPairs
from shiftrank.verdicts import exhausted, witnessed
from shiftrank.verify import (
    BLOCK_SCALE,
    CONSISTENT,
    INCONCLUSIVE,
    INCONSISTENT,
    _grade,
    verify_system,
)

# sha256 of the canonical JSON of each witnessed certificate, in cell order,
# from verify_system at its defaults; `verify --all --json` records only cell
# labels, so this is what notices a changed witness
VERIFY_CERTIFICATE_SHA256 = {
    "thue-morse": [
        "5d195ba02207c471d438fd09473e83f79f58cb30b3e10e3b38b24f6ef0a4d14b",
        "809ca154b69338da0012a09859b6fa640b8a048b750e225bfd4ea58070b60498",
        "ab43ba2d54f3c7d1f06678b7637b53d58b52abe62db4e22536fe708224eb5a02",
        "a5b40d753c2af6b66b49813afc76a54ad224674fb8dd74a8bb0bb7259118a6d5",
    ],
    "period-doubling": ["d1d2655f56d2ca3e77fead0da5f0fdfbf54b2bcb63b00689fea723df0bafe6f1"],
    "ternary-morse": [
        "f50d4278c2851c0aec9870b449123e4295251cb0f7eb45a21f50a49769f4c1d6",
        "fd0e1eedec3a15a20ecadb36d44a899c52fbbb5885fb122832a77cac1a2bb9a7",
        "42778369da40d37192304408fca4e7bc699a8b936c2f4f2296fa3bf7f7152b9f",
        "5dda12eddd3dc38a5ccd3f19e7a336dbc62a8f7e0a28551e70eeabb00c97d6e1",
        "87fcd5af267264a27fac1e332b0795c1fce7c22510ddc99eaacbdf177287dd78",
        "8b687743d3b5b8d792ae209b3cdbb82095467eea6f72b848d10bc5a1d7f9e20f",
    ],
    "keane-morse-011": [
        "fa8c7dce531fbbe0c22aa0668b7522fd240844691a555ee1890b2c74ec412250",
        "ef8b052decaf1578ec88ed8cbaefb961afd9a45eb04a2049136943f53d4064d3",
        "82da68f7df7606009de2e404506eba0144204acc94fbde0d749fd44dce0e7d6e",
        "5ff93751fd46fd7ec1d0e8c2c88cb5e95cecd161a3e6982be662564efc536b92",
    ],
    "toeplitz-doubling": ["20a54ec2d17ff293c49fab4e182873f2310abb24f755ff614e1ed511b98eda61"],
    "trivial-1": [],
}

# the same at the verify-wide horizon, m_max 5 and N=512, which the default
# budget never reaches
VERIFY_WIDE_CERTIFICATE_SHA256 = {
    "thue-morse": [
        "1571372ea11e58ca1ccbf54d0fe21ca2534537eb923e7cf0110a2bf7f0656652",
        "73fbe306cd2f4b2da6fcd2c21077363a3656029ace3b532368bd873151d6ae01",
        "50fc2722af9f57f0fac65ec47b67974314b48c892e1d54287809b4055bb0770f",
        "968b54727eacfd4232bfff61baca28d8c32e01060b8cac792e148555931b06d0",
    ],
    "period-doubling": ["6e1718649fef2578812789bb564cec7e9d9a882a3c3938c2779af12a68d18881"],
    "ternary-morse": [
        "af9cb628c7a8106f756a52efee1065083645e890a0ecd82b267fef8154dc1dd8",
        "c52cf0bd2204305fd594d8ac47ab82efb6a61303bc3040cd9cb37a7794ed76d9",
        "f0c1322bba484a57d43837a0fc0501b843cadbafb1227be00308de38aad28be8",
        "2f0742fd469a177f9ef12386e2ddaf8803ab3f79af8391436bc4bc26b92e36c9",
        "32875fbe50dc4b7e6204f129425427633c3abcb5ef93916f5bf41fc3377dc9c4",
        "2829f4aab91a197e64ca04c14b1f85c4644b3406ad45dd8e3bdc7007f479577d",
    ],
    "keane-morse-011": [
        "a2658f97484c102aa533f882ab9ecfd0de494c0dbaf47c1f2731d581ab7e5692",
        "06e2d5c1779897b000d3e9532983ab24b03930ee83d67b275f0af78c90d5772a",
        "15f2fb5eefae2f896bd156cc060cf34e68364417cbc0b30e643b5542eabec11b",
        "543878b9b226b83d784265b563ed1dcced744ce94c2cff5209b43d55a32fd564",
    ],
    "toeplitz-doubling": ["985e15f887c219bf97d8a9e1f7420d5854837536b6c71e590cdab16d5d35d2a3"],
    "trivial-1": [],
}


def _witnessed_certificate_hashes(**kwargs) -> dict[str, list[str]]:
    got = {}
    for name in catalog.names():
        if catalog.get(name).verify:
            report = verify_system(catalog.system_for(name), **kwargs)
            got[name] = [
                hashlib.sha256(certificate_json(c).encode()).hexdigest()
                for c in report.witnessed_certificates()
            ]
    return got


def test_witness_where_predicted_is_consistent():
    assert _grade(True, witnessed("claim", {})) == CONSISTENT


def test_witness_against_prediction_is_inconsistent():
    assert _grade(False, witnessed("claim", {})) == INCONSISTENT


def test_exhausted_where_predicted_positive_is_inconclusive():
    assert _grade(True, exhausted("claim")) == INCONCLUSIVE


def test_exhausted_where_predicted_negative_is_consistent():
    assert _grade(False, exhausted("claim")) == CONSISTENT


def test_verify_certificates_are_frozen():
    got = _witnessed_certificate_hashes()
    assert got == VERIFY_CERTIFICATE_SHA256
    assert sum(map(len, got.values())) == 16


def test_verify_wide_certificates_are_frozen():
    got = _witnessed_certificate_hashes(m_max=5, budget=SearchBudget(N=512))
    assert got == VERIFY_WIDE_CERTIFICATE_SHA256
    assert sum(map(len, got.values())) == 16


@pytest.mark.parametrize(
    "budget, sensitivity_wider",
    [(SearchBudget(N=64, K=4, B=1), True), (SearchBudget(N=64), False)],
    ids=["sensitivity-radius-wider", "block-radius-wider"],
)
def test_cells_match_the_public_scans_run_apart(budget, sensitivity_wider):
    # verify_system grades the two public scans, whichever of their radii is
    # the wider
    wider = scan_radius(budget, budget.K) > scan_radius(budget, BLOCK_SCALE, budget.B)
    assert wider is sensitivity_wider
    m_max = 4
    for name in catalog.names():
        if not catalog.get(name).verify:
            continue
        system = catalog.system_for(name)
        sens = sensitivity_scan(system, m_max, budget.K, budget)
        block = block_sensitivity_scan(system, m_max, BLOCK_SCALE, budget.B, budget)
        expected = []
        for m in range(2, m_max + 1):
            expected.append(sensitivity_report(system, sens, m, budget.K, None, budget).aggregate)
            expected.append(
                sensitivity_report(system, block, m, BLOCK_SCALE, budget.B, budget).aggregate
            )
        cells = verify_system(system, m_max, budget).cells
        assert [cell.verdict for cell in cells] == expected, name


def test_verify_scans_pay_once_per_displacement(monkeypatch):
    # verify_system on the verify = yes systems at N=512, m_max 5, as the
    # verify-wide benchmark runs it.  When the scans read the block-pair
    # automaton one (cylinder, shift) at a time, it ran _node 60,740 times,
    # and the run scan visited 74,010 starts, 63,518 of them only to reject
    # a start that a blocker had already ruled out.  Reading each
    # displacement's row once, and jumping each side's cursor past its
    # blocker, makes 21,678 and 10,746.
    node_calls = 0
    node = BlockPairs._node

    def counted(self, *args):
        nonlocal node_calls
        node_calls += 1
        return node(self, *args)

    monkeypatch.setattr(BlockPairs, "_node", counted)
    # a start is examined where the run scan takes it off a side's cursor
    source, first = inspect.getsourcelines(oracles._run_scan)
    take = next(first + k for k, line in enumerate(source) if "a = starts[side]" in line)
    starts = 0

    def in_run_scan(frame, event, arg):
        nonlocal starts
        starts += event == "line" and frame.f_lineno == take
        return in_run_scan

    def tracer(frame, event, arg):
        return in_run_scan if frame.f_code is oracles._run_scan.__code__ else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        for name in catalog.names():
            if catalog.get(name).verify:
                verify_system(catalog.system_for(name), 5, SearchBudget(N=512))
    finally:
        sys.settrace(previous)
    assert 0 < node_calls <= 22000
    assert 0 < starts <= 11000


def test_verify_imports_only_the_scan_drivers_from_oracles():
    # the scan radii and the extension groups live in the two oracles
    # drivers; verify grades what they return
    tree = ast.parse(Path(verify.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
            if "oracles" in (node.module or "").split("."):
                imported += names
            else:
                imported += [name for name in names if name == "oracles"]
        elif isinstance(node, ast.Import):
            imported += [a.name for a in node.names if "oracles" in a.name.split(".")]
    assert sorted(imported) == [
        "SearchBudget",
        "block_sensitivity_scan",
        "sensitivity_report",
        "sensitivity_scan",
    ]
