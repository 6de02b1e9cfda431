"""Command-line surface: exit codes, determinism, replay round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shiftrank
from shiftrank.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_lists_inventory(capsys):
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0
    assert "thue-morse" in out and "glasner-weiss-skew" in out


def test_ranks_thue_morse_table(capsys):
    code, out, _ = run_cli(capsys, "ranks", "thue-morse")
    assert code == 0
    assert "r_c = 2" in out and "r_m = 2" in out and "r_M = 4" in out
    assert "pair-graph" in out and "fiber-census" in out


def test_ranks_json_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "ranks", "thue-morse", "--json")
    code2, out2, _ = run_cli(capsys, "ranks", "thue-morse", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["r_M"]["value"] == 4


def test_ranks_of_a_height_one_system_whose_first_returns_share_a_factor(capsys):
    # 0 recurs at 3 and 6 before it recurs at 11: height 1, so the exact regime
    code, out, err = run_cli(capsys, "ranks", "0->02;1->12;2->10")
    assert code == 0, err
    assert "r_c = 1" in out and "r_m = 1" in out and "r_M = 4" in out


def test_ranks_column_of_a_system_whose_column_maps_reset_at_depth_nine(capsys):
    # the column maps form Černý's automaton: a one-letter column first at σ^9
    code, out, err = run_cli(capsys, "ranks", "0->11;1->21;2->32;3->03")
    assert code == 0, err
    r_c = next(line for line in out.splitlines() if "r_c =" in line)
    assert "column_depth=9, column_index=273, column=1" in r_c


def test_unknown_system_exits_two(capsys):
    code, _, err = run_cli(capsys, "ranks", "not-a-system")
    assert code == 2
    assert "unknown system" in err


def test_documentation_entry_exits_two(capsys):
    code, _, err = run_cli(capsys, "ranks", "glasner-weiss-skew")
    assert code == 2
    assert "documentation-only" in err


def test_budget_parse_error_exits_two(capsys):
    code, _, err = run_cli(capsys, "sensitivity", "thue-morse", "--m", "2", "--budget", "bogus")
    assert code == 2


def test_negative_budget_rejected(capsys):
    code, _, err = run_cli(capsys, "sensitivity", "thue-morse", "--m", "2", "--budget", "N=-5")
    assert code == 2


def test_negative_block_half_length_rejected(capsys, tmp_path):
    # 2B+1 = -1 centers make every run empty, so any pair looked separated
    cert = tmp_path / "cert.json"
    code, out, err = run_cli(
        capsys, "block", "thue-morse", "--m", "2", "--block", "-1", "--cert", str(cert)
    )
    assert code == 2
    assert out == ""
    assert "block half-length must be non-negative" in err
    assert not cert.exists()
    code, out, _ = run_cli(capsys, "block", "thue-morse", "--m", "2", "--block", "0")
    assert code == 0
    assert "witnessed" in out


def test_cover_rejects_a_horizon_shorter_than_one_run(capsys, tmp_path):
    # with N <= B no run of 2B+2 shifts fits in [-N, N], so the scan found no
    # violating tuple and the cover claim was printed as witnessed
    cert = tmp_path / "cert.json"
    argv = ["cover", "thue-morse", "--m", "2", "--cert", str(cert), "--budget"]
    code, out, err = run_cli(capsys, *argv, "N=4,B=8")
    assert code == 2
    assert out == ""
    assert "N=4" in err and "2B+2 = 18" in err
    assert not cert.exists()
    code, out, _ = run_cli(capsys, *argv, "N=64,B=8")
    assert code == 0
    assert out.startswith("refuted")


def test_negative_ladder_radius_rejected(capsys):
    argv = ["point", "thue-morse", "--m", "2", "--budget"]
    code, out, err = run_cli(capsys, *argv, "ladder=-1/2")
    assert code == 2
    assert out == ""
    assert "ladder radii must be non-negative, got ladder=[-1, 2]" in err
    code, _, _ = run_cli(capsys, *argv, "ladder=0/2")
    assert code == 0


@pytest.mark.parametrize("command", ["sensitivity", "block", "point", "cover"])
def test_negative_scale_rejected(capsys, tmp_path, command):
    # 2^-K with K < 0 compares no position: every pair would look separated
    cert = tmp_path / "cert.json"
    argv = [command, "thue-morse", "--m", "2", "--budget", "N=16", "--cert", str(cert)]
    code, out, err = run_cli(capsys, *argv, "--scale", "-1")
    assert code == 2
    assert out == ""
    assert "scale exponent must be non-negative, got K=-1" in err
    assert not cert.exists()
    code, _, _ = run_cli(capsys, *argv, "--scale", "0")
    assert code == 0


@pytest.mark.parametrize("length", ["-3", "0"])
def test_toeplitz_language_rejects_lengths_below_one(capsys, length):
    code, out, err = run_cli(capsys, "language", "toeplitz-doubling", "--length", length)
    assert code == 2
    assert out == ""
    assert "length must be positive" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ranks", "toeplitz-doubling", "--radius", "-5"], "radius=-5"),
        (["ranks", "period-doubling", "--depth", "-3"], "depth=-3"),
        (["ranks", "thue-morse", "--radius", "-5"], "radius=-5"),
        (["profile", "thue-morse", "--depth", "-1"], "depth=-1"),
        (["verify", "thue-morse", "--radius", "-1"], "radius=-1"),
    ],
    ids=["ranks-toeplitz-radius", "ranks-depth", "ranks-radius", "profile-depth", "verify-radius"],
)
def test_negative_census_settings_exit_two(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "must be non-negative" in err and message in err


def test_inline_rules_accepted(capsys):
    code, out, _ = run_cli(capsys, "language", "0->01;1->10", "--length", "3")
    assert code == 0
    assert "6 admissible words" in out


def test_one_letter_identity_is_the_constant_word(capsys):
    # 0 -> 0 presents the same one-point subshift as 0 -> 00
    code, out, err = run_cli(capsys, "ranks", "0->0")
    assert code == 0, err
    assert out == run_cli(capsys, "ranks", "0->00")[1]
    assert run_cli(capsys, "language", "0->0", "--length", "3")[1].splitlines()[1:] == ["000"]
    code, out, err = run_cli(capsys, "verify", "0->0", "--json")
    assert code == 0, err
    (report,) = json.loads(out)["verify"].values()
    assert {cell["label"] for cell in report["cells"]} == {"CONSISTENT"}


def test_sensitivity_and_replay_roundtrip(capsys, tmp_path):
    cert = tmp_path / "cert.json"
    code, out, _ = run_cli(
        capsys,
        "sensitivity",
        "thue-morse",
        "--m",
        "3",
        "--scale",
        "2",
        "--budget",
        "N=128",
        "--cert",
        str(cert),
    )
    assert code == 0
    assert "witnessed" in out
    assert cert.exists()
    code, out, _ = run_cli(capsys, "replay", str(cert))
    assert code == 0
    assert "replay ok" in out


def test_block_command(capsys):
    code, out, _ = run_cli(
        capsys, "block", "period-doubling", "--m", "2", "--budget", "N=128"
    )
    assert code == 0
    assert "exhausted" in out


def test_fiber_command(capsys):
    code, out, _ = run_cli(
        capsys, "fiber", "thue-morse", "--depth", "3", "--value", "0", "--radius", "64", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 4 and doc["stabilized"]


def test_profile_command(capsys):
    code, out, _ = run_cli(capsys, "profile", "thue-morse", "--m-max", "5")
    assert code == 0
    assert "m=5" in out


def test_verify_single_system_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "trivial-1", "--m-max", "4")
    assert code == 0
    assert "all cells consistent" in out
    assert "INCONSISTENT" not in out


def test_verify_thue_morse_cells(capsys):
    code, out, _ = run_cli(capsys, "verify", "thue-morse", "--m-max", "5", "--json")
    assert code == 0
    doc = json.loads(out)
    cells = {
        (c["m"], c["test"]): (c["verdict"], c["label"])
        for c in doc["verify"]["thue-morse"]["cells"]
    }
    for m in (2, 3, 4):
        assert cells[(m, "sensitivity")] == ("witnessed", "CONSISTENT")
    assert cells[(5, "sensitivity")][1] in ("CONSISTENT", "INCONCLUSIVE")
    assert cells[(2, "block")] == ("witnessed", "CONSISTENT")
    assert cells[(3, "block")][0] == "exhausted"


def test_verify_json_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "verify", "period-doubling", "--json")
    _, out2, _ = run_cli(capsys, "verify", "period-doubling", "--json")
    assert out1 == out2


def test_point_command(capsys):
    code, out, _ = run_cli(
        capsys, "point", "thue-morse", "--m", "4", "--scale", "2", "--budget", "N=128,ladder=1/2"
    )
    assert code == 0
    assert "counterexample" in out


def test_cover_command(capsys):
    code, out, _ = run_cli(
        capsys, "cover", "thue-morse", "--m", "3", "--scale", "2", "--budget", "N=64,B=16"
    )
    assert code == 0
    assert "witnessed" in out


def test_missing_subcommand_exits_two(capsys):
    assert main([]) == 2


def _run_module(*args: str) -> subprocess.CompletedProcess:
    # the child process must find the package this process imported, also
    # when pytest put it on sys.path through its own `pythonpath` setting
    paths = [str(Path(shiftrank.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    return subprocess.run(
        [sys.executable, "-m", *args], capture_output=True, text=True, env=env
    )


def test_installed_entry_point_runs():
    proc = _run_module("shiftrank.cli", "catalog")
    assert proc.returncode == 0
    assert "thue-morse" in proc.stdout


def test_package_runs_as_a_module(capsys):
    proc = _run_module("shiftrank", "catalog", "--json")
    assert proc.returncode == 0
    assert main(["catalog", "--json"]) == 0
    assert proc.stdout == capsys.readouterr().out


def test_budget_key_m_is_rejected(capsys):
    # tuple size comes from --m / --m-max; a budget m would only mislabel certificates
    code, out, err = run_cli(capsys, "sensitivity", "thue-morse", "--m", "2", "--budget", "m=7")
    assert code == 2
    assert out == ""
    assert "unknown budget key 'm'" in err


# the budget keys each command's search reads; K comes from --scale and
# block's B from --block
BUDGET_READS = {
    "sensitivity": {"L", "N"},
    "block": {"L", "N"},
    "point": {"N", "ladder"},
    "cover": {"N", "B", "ladder"},
    "verify": {"L", "N", "K", "B"},
}
# N exceeds the default B = 8, so that cover has a run of 2B+2 shifts to scan
BUDGET_ITEMS = {"L": "L=1", "N": "N=16", "K": "K=1", "B": "B=1", "m": "m=2", "ladder": "ladder=1/2"}


@pytest.mark.parametrize(
    "command, key",
    [(c, k) for c in BUDGET_READS for k in BUDGET_ITEMS],
    ids=lambda v: v,
)
def test_each_command_accepts_exactly_the_budget_keys_it_reads(capsys, command, key):
    if command == "verify":
        argv = ["verify", "thue-morse", "--m-max", "2", "--depth", "2", "--radius", "8"]
    else:
        argv = [command, "thue-morse", "--m", "2"]
    code, out, err = run_cli(capsys, *argv, "--budget", BUDGET_ITEMS[key])
    if key in BUDGET_READS[command]:
        assert code == 0 and err == ""
    else:
        assert code == 2 and out == ""
        assert f"unknown budget key {key!r}; {command} reads " in err
        assert set(err.rsplit(" reads ", 1)[1].strip().split(", ")) == BUDGET_READS[command]


@pytest.mark.parametrize(
    "argv",
    [
        # searched at K=2 (--scale) while the certificate recorded budget.K = 5
        ["sensitivity", "thue-morse", "--m", "3", "--budget", "N=32,K=5"],
        # searched at B=4 (--block) while the certificate recorded budget.B = 6
        ["block", "period-doubling", "--m", "2", "--block", "4", "--budget", "N=32,B=6"],
    ],
    ids=["sensitivity-K", "block-B"],
)
def test_budget_keys_the_search_never_read_are_refused(capsys, tmp_path, argv):
    cert = tmp_path / "cert.json"
    code, out, err = run_cli(capsys, *argv, "--cert", str(cert))
    assert code == 2
    assert out == ""
    assert err.startswith("error: unknown budget key")
    assert not cert.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["ranks", "period-doubling"],
        ["profile", "period-doubling"],
        ["fiber", "period-doubling", "--depth", "1", "--value", "0"],
        ["language", "period-doubling", "--length", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_budget_is_rejected_outside_the_searches(capsys, argv):
    # only the tuple searches and verify read a budget; elsewhere it was ignored
    code, out, err = run_cli(capsys, *argv, "--budget", "bogus=1")
    assert code == 2
    assert out == ""
    assert "--budget" in err


def test_replay_of_missing_file_exits_two(capsys, tmp_path):
    code, out, err = run_cli(capsys, "replay", str(tmp_path / "absent.json"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read certificate")


@pytest.mark.parametrize(
    "doc, reason",
    [
        ({"schema": 1}, "missing field 'kind'"),
        ({"schema": 1, "kind": "m-sensitivity", "m": 2, "K": 2}, "missing field 'cylinders'"),
        ({"schema": 1, "kind": "m-sensitivity", "m": 2, "K": 2, "cylinders": 5}, "not iterable"),
        (
            {"schema": 1, "kind": "cover-falsified", "m": 2, "K": 2, "stages": [{"windows": [7]}]},
            "malformed certificate",
        ),
        ([1, 2], "not a JSON object"),
        ("{not json", "malformed certificate"),
    ],
    ids=[
        "no-kind",
        "no-cylinders",
        "cylinders-not-a-list",
        "window-not-a-string",
        "not-an-object",
        "not-json",
    ],
)
def test_replay_of_malformed_certificate_exits_two(capsys, tmp_path, doc, reason):
    path = tmp_path / "cert.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code, out, err = run_cli(capsys, "replay", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed certificate")
    assert reason in err


@pytest.mark.parametrize(
    "field, value, reason",
    [
        ("windows", "offset:left=0 word=0", "window 0 does not carry the cylinder '00101'"),
        ("shift", 100000, "cylinder '00101': window 0 does not hold the shift 100000"),
    ],
    ids=["one-symbol-window", "far-shift"],
)
def test_replay_of_a_window_short_of_its_claim_exits_one(capsys, tmp_path, field, value, reason):
    # a window that misses its cylinder or its shift is a failed check, not a usage error
    cert = tmp_path / "cert.json"
    argv = ["sensitivity", "thue-morse", "--m", "2", "--budget", "N=16", "--cert", str(cert)]
    assert run_cli(capsys, *argv)[0] == 0
    doc = json.loads(cert.read_text())
    for entry in doc["cylinders"]:
        if field == "windows":
            entry["windows"][0] = value
        else:
            entry[field] = value
    cert.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "replay", str(cert))
    assert code == 1
    assert err == ""
    assert out.startswith("replay FAILED") and f"  {reason}\n" in out


def test_exhausted_search_removes_an_older_certificate(capsys, tmp_path):
    # the file at --cert must belong to the run that was asked to write it
    cert = tmp_path / "s.json"
    witnessed = ["sensitivity", "thue-morse", "--m", "3", "--budget", "N=32"]
    code, _, err = run_cli(capsys, *witnessed, "--cert", str(cert))
    assert code == 0 and err == "" and cert.exists()
    exhausted = ["sensitivity", "period-doubling", "--m", "3", "--budget", "N=32"]
    _, plain_out, _ = run_cli(capsys, *exhausted)
    code, out, err = run_cli(capsys, *exhausted, "--cert", str(cert))
    assert code == 0
    assert out == plain_out
    assert not cert.exists()
    assert err.count("\n") == 1 and "no certificate" in err and "removed" in err
