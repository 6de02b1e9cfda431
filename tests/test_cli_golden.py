"""Frozen command-line output: stdout bytes, written certificates, parser surface.

The hashes were taken from the commit before the tuple searches shared one
scan-to-verdict path; a refactor that changes what shiftrank prints or
writes fails here.  Each search command has a witnessed case and an
exhausted (for ``cover``: refuted) case on Thue-Morse or period-doubling.
"""

import argparse
import hashlib

import pytest

from shiftrank import catalog
from shiftrank.certificates import certificate_json, load_certificate, replay
from shiftrank.cli import build_parser, main
from shiftrank.oracles import SearchBudget, cover_m_equicontinuity_test

CASES = {
    "sensitivity-witnessed": ["sensitivity", "thue-morse", "--m", "3", "--budget", "N=32,K=5"],
    "sensitivity-exhausted": ["sensitivity", "period-doubling", "--m", "3", "--budget", "N=32"],
    "block-witnessed": ["block", "thue-morse", "--m", "2", "--budget", "N=32"],
    "block-exhausted": [
        "block", "period-doubling", "--m", "2", "--block", "4", "--budget", "N=32,B=6"
    ],
    "point-witnessed": ["point", "thue-morse", "--m", "4", "--budget", "N=32,ladder=1/2"],
    "point-exhausted": ["point", "period-doubling", "--m", "3", "--budget", "N=32"],
    "cover-witnessed": ["cover", "period-doubling", "--m", "2", "--budget", "N=32,B=4"],
    "cover-refuted": ["cover", "thue-morse", "--m", "2", "--budget", "N=32,B=4"],
    "verify-all": [
        "verify", "--all", "--m-max", "3", "--depth", "3", "--radius", "16", "--budget", "N=32"
    ],
}

# (case, --json) -> sha256 of stdout; every case exits 0
STDOUT_SHA256 = {
    ("sensitivity-witnessed", False): "890f6d627ce3193016c08a2d9872c94c60f160012fa91db1fc75e996e76529b4",
    ("sensitivity-witnessed", True): "f4f37dfbf5b5ffe0ba18afa387cfb604951e313ce4586110d70ad6d2e9ab17bb",
    ("sensitivity-exhausted", False): "d3eb1f1a0fcefe14c4c1d9c9e07332ff687595f663a03cd10e96f73c1d2d4985",
    ("sensitivity-exhausted", True): "001c1569462cf90daddacabaf64ea7f3884c32be3c7770f0ce1742320ae37e2c",
    ("block-witnessed", False): "97355a80564af31ff482595ded7a292c3d83a0fac6475826a3e7a45c7031ec37",
    ("block-witnessed", True): "b1232af8aad92f1927075af47b7e775eaa3764e4193294bb06c0a75ec5a29e07",
    ("block-exhausted", False): "c8d571bc9ceea9e5194f508fc9f6beaf0cf1a5723c3cc7b9c55d081da1545618",
    ("block-exhausted", True): "28f074b5ce78dc7c3764976792d4fa71d09d1f85acb49a8e2bf8bd7ad6d787b3",
    ("point-witnessed", False): "d81d980d00157f20d35f3d746da97d87a9557a96e5f1b4e582287bf16d03b9d0",
    ("point-witnessed", True): "0e8d1ca74de6c7c989a8baa200874ce0177c25464b27aa18f3367c5e4ea7751a",
    ("point-exhausted", False): "52454f203355d4dea2e5b9df6cf7d6b9711a5eb38adc2951f1a4508ee1171530",
    ("point-exhausted", True): "d997effa56eb210f1401d0b1af3de80a2f1eab79d3bd6030b49933e30f9a2741",
    ("cover-witnessed", False): "ab1e232d87dd1e9c1c11010572bf4701019626494e621ca3fcb3e0db2ad43e56",
    ("cover-witnessed", True): "6f39529d557986d794475fe0589d1cf51d85a8d80f3fdf4b70b89e7248bc77fd",
    ("cover-refuted", False): "122c0e42cf279b363d79c3fdc8d802e6b7befd660822ac284acfe36667c57f42",
    ("cover-refuted", True): "b910342d94d883212022eb6ce9c255924f58955b0001492bcc4cd3d0d8f2158c",
    ("verify-all", False): "ee7fead72737c3e5b93fb9a1f530f4f65942b221a186ebb1a571b35026a9bc55",
    ("verify-all", True): "ab0e3f4a5a50f667f39fd5a826cbc7de6965ac78bdb677871e319dc4b99f2fcd",
}

# case -> sha256 of the file that --cert writes
CERT_SHA256 = {
    "sensitivity-witnessed": "9d4ebcbe83bf0606c30060e36af9819a2b4469f0a1e1fbffc636819ef31f2f2b",
    "block-witnessed": "ca611d2dac6ba80c3d4b229bfd389177dc9ce2444df49f7285e2fdc0be29954f",
    "point-witnessed": "2a5f4d747fc45f125a6b4725515d0f341bc3f29b158dc0060aab6581ec66fd70",
}

# subcommand -> option string (or positional dest) -> default
PARSER_SNAPSHOT = {
    "catalog": {"-h/--help": argparse.SUPPRESS, "--json": False},
    "ranks": {
        "-h/--help": argparse.SUPPRESS, "system": None, "--json": False,
        "--depth": 4, "--radius": 64,
    },
    "profile": {
        "-h/--help": argparse.SUPPRESS, "system": None, "--json": False,
        "--m-max": 5, "--depth": 4, "--radius": 64,
    },
    "sensitivity": {
        "-h/--help": argparse.SUPPRESS, "system": None, "--json": False, "--budget": None,
        "--m": None, "--scale": 2, "--cert": None,
    },
    "block": {
        "-h/--help": argparse.SUPPRESS, "system": None, "--json": False, "--budget": None,
        "--m": None, "--scale": 1, "--block": 8, "--cert": None,
    },
    "cover": {
        "-h/--help": argparse.SUPPRESS, "system": None, "--json": False, "--budget": None,
        "--m": None, "--scale": 2, "--seed-index": 0, "--cert": None,
    },
    "point": {
        "-h/--help": argparse.SUPPRESS, "system": None, "--json": False, "--budget": None,
        "--m": None, "--scale": 2, "--seed-index": 0, "--cert": None,
    },
    "fiber": {
        "-h/--help": argparse.SUPPRESS, "system": None, "--json": False,
        "--depth": None, "--value": None, "--radius": 64,
    },
    "language": {
        "-h/--help": argparse.SUPPRESS, "system": None, "--json": False,
        "--length": None,
    },
    "verify": {
        "-h/--help": argparse.SUPPRESS, "system": None, "--all": False, "--json": False,
        "--budget": None, "--m-max": 5, "--depth": 4, "--radius": 64,
    },
    "replay": {"-h/--help": argparse.SUPPRESS, "certificate": None},
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "case, as_json",
    sorted(STDOUT_SHA256),
    ids=[f"{c}-{'json' if j else 'text'}" for c, j in sorted(STDOUT_SHA256)],
)
def test_stdout_is_frozen(capsys, case, as_json):
    code = main(CASES[case] + (["--json"] if as_json else []))
    out = capsys.readouterr().out
    assert code == 0
    assert _sha256(out.encode()) == STDOUT_SHA256[case, as_json]


@pytest.mark.parametrize("case", sorted(CERT_SHA256))
def test_written_certificate_is_frozen(capsys, tmp_path, case):
    cert = tmp_path / "cert.json"
    assert main(CASES[case] + ["--cert", str(cert)]) == 0
    capsys.readouterr()
    assert _sha256(cert.read_bytes()) == CERT_SHA256[case]


@pytest.mark.parametrize("case", ["cover-witnessed", "cover-refuted"])
def test_cover_writes_the_library_certificate(capsys, tmp_path, case):
    # both cover verdicts carry a certificate; the CLI writes it unchanged
    cert = tmp_path / "cert.json"
    assert main(CASES[case] + ["--cert", str(cert)]) == 0
    capsys.readouterr()
    system = catalog.system_for(CASES[case][1])
    budget = SearchBudget(N=32, B=4)
    point = system.point_window(system.seed_points()[0], max(budget.ladder))
    verdict = cover_m_equicontinuity_test(system, point, 2, 2, budget)
    assert cert.read_text() == certificate_json(verdict.certificate)
    result = replay(load_certificate(cert.read_text()))
    assert result.ok
    if case == "cover-refuted":
        assert result.checks > 1


def _subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return dict(action.choices)


def test_parser_surface_is_frozen():
    surface = {
        name: {("/".join(a.option_strings) or a.dest): a.default for a in sub._actions}
        for name, sub in _subcommands(build_parser()).items()
    }
    assert surface == PARSER_SNAPSHOT
