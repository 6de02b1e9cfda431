"""Frozen command-line output: stdout bytes, written certificates, parser surface.

The hashes were taken from the commit before the tuple searches shared one
scan-to-verdict path; a refactor that changes what shiftrank prints or
writes fails here.  Each search command has a witnessed case and an
exhausted (for ``cover``: refuted) case on Thue-Morse or period-doubling.
The ``ranks`` cases (every runnable catalog system, at the default depth
and radius and at depth 3 / radius 16) and the ``fiber`` cases (every
depth-2 residue of the aperiodic catalog substitutions) pin the digit-path
census.
"""

import argparse
import hashlib

import pytest

from shiftrank import catalog
from shiftrank.certificates import certificate_json, load_certificate, replay
from shiftrank.cli import build_parser, main
from shiftrank.oracles import SearchBudget, cover_m_equicontinuity_test

RANK_SYSTEMS = (
    "thue-morse", "period-doubling", "ternary-morse", "keane-morse-011",
    "trivial-1", "toeplitz-doubling", "toeplitz-rank-2", "toeplitz-rank-3",
)
FIBER_SYSTEMS = ("thue-morse", "period-doubling", "ternary-morse", "keane-morse-011")

CASES = {
    "sensitivity-witnessed": ["sensitivity", "thue-morse", "--m", "3", "--budget", "N=32"],
    "sensitivity-exhausted": ["sensitivity", "period-doubling", "--m", "3", "--budget", "N=32"],
    "block-witnessed": ["block", "thue-morse", "--m", "2", "--budget", "N=32"],
    "block-exhausted": ["block", "period-doubling", "--m", "2", "--block", "4", "--budget", "N=32"],
    "point-witnessed": ["point", "thue-morse", "--m", "4", "--budget", "N=32,ladder=1/2"],
    "point-exhausted": ["point", "period-doubling", "--m", "3", "--budget", "N=32"],
    "cover-witnessed": ["cover", "period-doubling", "--m", "2", "--budget", "N=32,B=4"],
    "cover-refuted": ["cover", "thue-morse", "--m", "2", "--budget", "N=32,B=4"],
    "verify-all": [
        "verify", "--all", "--m-max", "3", "--depth", "3", "--radius", "16", "--budget", "N=32"
    ],
    **{f"ranks-{name}": ["ranks", name] for name in RANK_SYSTEMS},
    **{
        f"ranks-{name}-d3r16": ["ranks", name, "--depth", "3", "--radius", "16"]
        for name in RANK_SYSTEMS
    },
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
    ("verify-all", True): "95f8c004ccf4613f51d23ab6ef54d09b978af7b281dbb870b07e5090e60f2462",
    ("ranks-thue-morse", False): "1ece548e0ad5dc38079d2cd647649f38412d413889c0616235a610a9d5b6f6e2",
    ("ranks-thue-morse", True): "c4ca83ebd4d284149f73376b1df53638e3728ccf14b73826c8f36ec953a65fc1",
    ("ranks-thue-morse-d3r16", False): "7df554ba7be9bb4d8b1378c3f8acb0c77c15c8052a90d9fec68c691a1e4328d5",
    ("ranks-thue-morse-d3r16", True): "e90cf16ef45ac6abc1eabb81da08e4ab99ff74e6cdd935dc48e16cee9bb69f88",
    ("ranks-period-doubling", False): "b27797433e7c28863db3e69cdf4d70159bb0db044c3804ff98f8eb54006afbd0",
    ("ranks-period-doubling", True): "dbbe90f0a6addedb8879e3197919566ddbf2fbce5888f2a97d8ea751b1913ef8",
    ("ranks-period-doubling-d3r16", False): "5670a053b87a99d1cfd7fb6ab4bbaee3fb44f44a4c7f1b5188549af62802187f",
    ("ranks-period-doubling-d3r16", True): "5903554e6bfdfd1663f967a8dc55882c8eb4f47768a81d79a649d82b500e7b05",
    ("ranks-ternary-morse", False): "72d3690ce61d4ced23043263e5aefb2f79fe5a44d830bc482504deefd976e241",
    ("ranks-ternary-morse", True): "7ab6dc4fdb6bdde5bf743f7254d24ce39919c4af67a946308541e3a87193ec54",
    ("ranks-ternary-morse-d3r16", False): "c84f0e6b0874152bafd93403f2ab520d91dd8000ba5e0d2b4664e62c41884280",
    ("ranks-ternary-morse-d3r16", True): "b6d463e37daba5091a36f81e389f1054183b0cbc340d222fc78fa4a21be01948",
    ("ranks-keane-morse-011", False): "f1658b0b54bedb7509b6113b107cf9277ce09b836edbfc9ed30dfb2beb4b7188",
    ("ranks-keane-morse-011", True): "3c8dc9b333cd1e7042d508534e0dca93e1de9f871f68a1c50976e40dff6b8a83",
    ("ranks-keane-morse-011-d3r16", False): "87307ce79fe5c93810d8334b4d58995a33c272eb3a1ce31641ec7aea5602a097",
    ("ranks-keane-morse-011-d3r16", True): "a83c9682eecd0eb947689390ad048107c53f81609ad613a1690c1bc61570de4f",
    ("ranks-trivial-1", False): "0e994850ea8adf3409522b3f6abaebdb61b936797f705cc66fb6d1c129a80786",
    ("ranks-trivial-1", True): "ebf28352c0b1b3ffbf532c4de9534490be746f8a5e4cdf014e02f3c76c56c08f",
    ("ranks-trivial-1-d3r16", False): "0e994850ea8adf3409522b3f6abaebdb61b936797f705cc66fb6d1c129a80786",
    ("ranks-trivial-1-d3r16", True): "ebf28352c0b1b3ffbf532c4de9534490be746f8a5e4cdf014e02f3c76c56c08f",
    ("ranks-toeplitz-doubling", False): "0f8ff35f2531016adce99415f17a3a0c9bb060553507f9485cb50259e0910340",
    ("ranks-toeplitz-doubling", True): "934a9cc7b6acd7d66246a55d2ff66d663ad01ece886ec348f4dc08f4c4209493",
    ("ranks-toeplitz-doubling-d3r16", False): "8b9b523e4e3e26b5e93457f33330d0d840547ce204fa85d5ae02bc66f60825a0",
    ("ranks-toeplitz-doubling-d3r16", True): "bdb3787959220bdffd4aaf307eae6feb5a2e896da696acc3f04df8c2363d9a17",
    ("ranks-toeplitz-rank-2", False): "4e6ff0ce32d81bc65c291158f2c3c71cdcec9a17d0315ceaca6288956cb5adec",
    ("ranks-toeplitz-rank-2", True): "899eacb4264c6e17d7810eb4ecc7bb25a7340dff415c43c27e35c295f0a085b9",
    ("ranks-toeplitz-rank-2-d3r16", False): "5bcbc9d86815c0b408ac3e9a4911535353866c00703aa1da687057188ebd1985",
    ("ranks-toeplitz-rank-2-d3r16", True): "1e404e00fe165a7da9b42d77987d1053bf6319b4359f00b496a5d34c062b2f7d",
    ("ranks-toeplitz-rank-3", False): "338a923ad6a6296a0c6172532d9d725c48804a189134f4f5cc581a1545d3d284",
    ("ranks-toeplitz-rank-3", True): "5b1788b353756b87a91a71545d3c74291311921a77ae3adc35c70f943bb5eb09",
    ("ranks-toeplitz-rank-3-d3r16", False): "c1b3d5f59bd260a5ecafa090480009dd55dfd46cd71bf4a66056b5a48d538044",
    ("ranks-toeplitz-rank-3-d3r16", True): "d5a492cc62d39564aa91719213161bac815467c9ce0f4cf7f925c2b66f794bf0",
}

# (system, --json) -> sha256 of the concatenated stdout of
# ``fiber SYSTEM --depth 2 --value v`` over every residue v mod q^2
FIBER_SHA256 = {
    ("thue-morse", False): "e0fe332df994801886c309ced5e462d070d5ef5a4e66d33de4ad58420def15eb",
    ("thue-morse", True): "41fef5277d622813f5fe3095ddfa36dcdea8844f9e29cc83eead5f388c2af533",
    ("period-doubling", False): "6efd77c699e7937d6686116a177bc5521e12570e08b8233175c201cd6b920153",
    ("period-doubling", True): "18161c8e5607515260761d3230a0b585bb087bbf5e8e3cdd5645e17b5b30291d",
    ("ternary-morse", False): "8cddb99d30fa4a4b1dd8f84d6962450024642627ab496edae33d963efb232290",
    ("ternary-morse", True): "537f3587f6f4dfb288952dc887382c0972136ff0ada1125c9ab01e6c3eada754",
    ("keane-morse-011", False): "0e770dbff709de7f7729689f895ef748527564ff0e0f0d5990cf952e398d6b8a",
    ("keane-morse-011", True): "c3c00a458413a4621bac110d271aa4849fed95727d6fc46d122341b6aab94cb3",
}

# sha256 of the whole stdout of ``verify --all --json`` at the default budget
# and at N=1024: the cell labels do not change with N, so both runs print the
# same bytes (the certificates behind them are frozen in test_verify.py)
VERIFY_ALL_JSON_SHA256 = "d819ef432f4c03882bb1ef0c1b563fa7ab24881c32650bc7fe61136d4be3a790"

# case -> sha256 of the file that --cert writes
CERT_SHA256 = {
    "sensitivity-witnessed": "f07630e6217a5756b7d1fb16845b03884b29161f98a7e7cfd78973cbb8cdffb2",
    "block-witnessed": "ca611d2dac6ba80c3d4b229bfd389177dc9ce2444df49f7285e2fdc0be29954f",
    "point-witnessed": "2a5f4d747fc45f125a6b4725515d0f341bc3f29b158dc0060aab6581ec66fd70",
    "cover-witnessed": "ee4c487a9b70487d844010a7237bd01905eba9e5e6c0217f72e21fc8fdbe8767",
    "cover-refuted": "f6b4cc1ef68a8a51f9ca5223c5b530cd2ee5b41220efb98f8927086d58c905ae",
}

# case -> stdout of ``replay`` on the file that --cert writes; the check
# counts are the ones docs/certificates.md derives for each kind
REPLAY_STDOUT = {
    "sensitivity-witnessed": "replay ok: 181 checks, 0 failures\n",
    "block-witnessed": "replay ok: 313 checks, 0 failures\n",
    "point-witnessed": "replay ok: 56 checks, 0 failures\n",
    "cover-witnessed": "replay ok: 1 checks, 0 failures\n",
    "cover-refuted": "replay ok: 87 checks, 0 failures\n",
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


@pytest.mark.parametrize("budget", [[], ["--budget", "N=1024"]], ids=["default", "N=1024"])
def test_verify_all_json_is_frozen(capsys, budget):
    assert main(["verify", "--all", "--json", *budget]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == VERIFY_ALL_JSON_SHA256


def test_rank_cases_cover_the_runnable_catalog():
    runnable = {n for n in catalog.names() if catalog.get(n).kind != "documentation"}
    assert set(RANK_SYSTEMS) == runnable


@pytest.mark.parametrize(
    "system, as_json",
    sorted(FIBER_SHA256),
    ids=[f"{s}-{'json' if j else 'text'}" for s, j in sorted(FIBER_SHA256)],
)
def test_fiber_output_is_frozen(capsys, system, as_json):
    q = catalog.system_for(system).substitution.constant_length
    out = ""
    for value in range(q * q):
        argv = ["fiber", system, "--depth", "2", "--value", str(value)]
        assert main(argv + (["--json"] if as_json else [])) == 0
        out += capsys.readouterr().out
    assert _sha256(out.encode()) == FIBER_SHA256[system, as_json]


@pytest.mark.parametrize("case", sorted(CERT_SHA256))
def test_written_certificate_is_frozen(capsys, tmp_path, case):
    cert = tmp_path / "cert.json"
    assert main(CASES[case] + ["--cert", str(cert)]) == 0
    capsys.readouterr()
    assert _sha256(cert.read_bytes()) == CERT_SHA256[case]


@pytest.mark.parametrize("case", sorted(REPLAY_STDOUT))
def test_replay_of_a_written_certificate_is_frozen(capsys, tmp_path, case):
    cert = tmp_path / "cert.json"
    assert main(CASES[case] + ["--cert", str(cert)]) == 0
    capsys.readouterr()
    assert main(["replay", str(cert)]) == 0
    assert capsys.readouterr().out == REPLAY_STDOUT[case]


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
