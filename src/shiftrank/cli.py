"""Command-line surface: catalog, ranks, profiles, searches, verify, replay.

Output is deterministic for a fixed build and configuration: searches use
fixed scan orders and the JSON mode emits sorted keys with no timestamps.
Exit codes: 0 success / consistent, 1 inconsistent verify or failed replay,
2 usage errors (including an unreadable or malformed certificate).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import catalog
from .certificates import certificate_json, load_certificate, replay
from .odometer import OdometerResidue, fiber_census
from .oracles import (
    SearchBudget,
    block_m_sensitivity_test,
    cover_m_equicontinuity_test,
    m_equicontinuity_point_test,
    m_sensitivity_test,
)
from .ranks import CENSUS_DEPTH, CENSUS_RADIUS, predict_profile, rank_report, require_profile_size
from .substitution import RegimeError, SubstitutionSystem
from .verify import BLOCK_SCALE, INCONSISTENT, M_MAX, verify_system


class UsageError(Exception):
    pass


def _emit(doc: dict, as_json: bool, text_lines: list[str]) -> None:
    if as_json:
        sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        for line in text_lines:
            print(line)


def _resolve_system(name: str):
    if "->" in name:
        return catalog.custom_substitution(name, name="inline")
    try:
        return catalog.system_for(name)
    except (KeyError, RegimeError) as e:
        raise UsageError(str(e)) from None


# The budget keys each command's search reads.  The tuple searches take K
# from --scale and block takes B from --block; a certificate records the
# defaults of the keys a command does not read.
BUDGET_KEYS = {
    "sensitivity": ("L", "N"),
    "block": ("L", "N"),
    "point": ("N", "ladder"),
    "cover": ("N", "B", "ladder"),
    "verify": ("L", "N", "K", "B"),
}


def _budget(args) -> SearchBudget:
    keys = BUDGET_KEYS[args.command]
    fields = {}
    if args.budget:
        for item in args.budget.split(","):
            key, eq, value = item.partition("=")
            if not eq:
                raise UsageError(f"bad budget item {item!r}; use key=value")
            key = key.strip()
            if key not in keys:
                raise UsageError(
                    f"unknown budget key {key!r}; {args.command} reads {', '.join(keys)}"
                )
            if key == "ladder":
                fields[key] = tuple(int(x) for x in value.split("/"))
            else:
                fields[key] = int(value)
    try:
        return SearchBudget(**fields)
    except ValueError as e:
        raise UsageError(str(e)) from None


def _seed_point(system, index: int, radius: int):
    if not isinstance(system, SubstitutionSystem):
        raise UsageError("seed points are only defined for substitution systems")
    seeds = system.seed_points()
    if not 0 <= index < len(seeds):
        raise UsageError(f"seed index {index} out of range; system has {len(seeds)} seeds")
    return system.point_window(seeds[index], radius)


def cmd_catalog(args) -> int:
    lines = []
    payload = {}
    for name in catalog.names():
        spec = catalog.get(name)
        golden = {k: {"value": v, "provenance": p} for k, (v, p) in spec.golden.items()}
        payload[name] = {"kind": spec.kind, "golden": golden, "verify": spec.verify}
        gtxt = " ".join(f"{k}={v}[{p}]" for k, (v, p) in spec.golden.items()) or "-"
        lines.append(f"{name:<22} {spec.kind:<13} verify={'yes' if spec.verify else 'no':<4} {gtxt}")
        if spec.note:
            lines.append(f"    {spec.note}")
    _emit({"catalog": payload}, args.json, lines)
    return 0


def cmd_ranks(args) -> int:
    system = _resolve_system(args.system)
    report = rank_report(system, args.depth, args.radius)
    lines = [f"system: {report.system}"]
    for label, est in (("r_c", report.r_c), ("r_m", report.r_m), ("r_M", report.r_M)):
        v = "inf" if est.infinite else est.value
        ev = ", ".join(f"{k}={v2}" for k, v2 in est.evidence.items() if not isinstance(v2, dict))
        lines.append(f"  {label} = {v:<4} [{est.kind.value}] {ev}")
    _emit(report.to_payload(), args.json, lines)
    return 0


def cmd_profile(args) -> int:
    system = _resolve_system(args.system)
    require_profile_size(args.m_max)
    report = rank_report(system, args.depth, args.radius)
    profile = predict_profile(report, args.m_max)
    lines = [f"predicted profile for {system.name} (r_c={report.r_c.value}, r_M={report.r_M.value})"]
    for row in profile.rows:
        lines.append(
            f"  m={row.m}: sensitive={row.m_sensitive} "
            f"block-sensitive={row.compactly_m_sensitive} "
            f"cover-equicontinuous={row.cover_m_equicontinuous}"
        )
    _emit(profile.to_payload(), args.json, lines)
    return 0


def _verdict_lines(v) -> list[str]:
    lines = [v.summary()]
    for key, value in v.annotations.items():
        lines.append(f"  {key}: {value}")
    return lines


def _maybe_write_cert(verdict, path_arg) -> None:
    """Write the verdict's certificate to ``--cert``, or say on stderr why not.

    A verdict without a certificate removes an older file at the path, so the
    file never belongs to a different run.
    """
    if not path_arg:
        return
    path = Path(path_arg)
    if isinstance(verdict.certificate, dict):
        path.write_text(certificate_json(verdict.certificate))
        return
    note = f"note: the verdict carries no certificate; nothing written to {path_arg}"
    if path.exists():
        path.unlink()
        note += ", older file removed"
    print(note, file=sys.stderr)


def cmd_cylinder_search(args) -> int:
    """``sensitivity`` and ``block``: a tuple search over every cylinder."""
    system = _resolve_system(args.system)
    budget = _budget(args)
    doc = {"system": system.name, "m": args.m, "K": args.scale}
    if args.command == "block":
        doc["B"] = args.block
        report = block_m_sensitivity_test(system, args.m, args.scale, args.block, budget)
    else:
        report = m_sensitivity_test(system, args.m, args.scale, budget)
    _maybe_write_cert(report.aggregate, args.cert)
    doc["aggregate"] = report.aggregate.status.value
    doc["cylinders"] = {u: v.status.value for u, v in report.per_cylinder.items()}
    _emit(doc, args.json, _verdict_lines(report.aggregate))
    return 0


def cmd_seed_point_test(args) -> int:
    """``point`` and ``cover``: a tuple test near a seed point."""
    system = _resolve_system(args.system)
    budget = _budget(args)
    test = cover_m_equicontinuity_test if args.command == "cover" else m_equicontinuity_point_test
    # both tests read the point only through its central windows on the ladder
    point = _seed_point(system, args.seed_index, max(budget.ladder))
    verdict = test(system, point, args.m, args.scale, budget)
    _maybe_write_cert(verdict, args.cert)
    doc = {
        "system": system.name,
        "m": args.m,
        "K": args.scale,
        "status": verdict.status.value,
        "annotations": dict(verdict.annotations),
    }
    _emit(doc, args.json, _verdict_lines(verdict))
    return 0


def cmd_fiber(args) -> int:
    system = _resolve_system(args.system)
    if not isinstance(system, SubstitutionSystem):
        raise UsageError("fiber censuses run on substitution systems")
    s = system.substitution
    q = s.constant_length
    if q is None:
        raise UsageError("fiber censuses need a constant-length substitution")
    census = fiber_census(s, OdometerResidue(q, args.depth, args.value), args.radius)
    lines = [
        f"fiber census for {system.name}: residue {args.value} mod {q}^{args.depth}, radius {args.radius}",
        f"  count={census.count} stabilized={census.stabilized} depth-counts={census.counts_by_depth}",
    ]
    lines += [f"  {w.serialize()}" for w in census.representatives]
    _emit(census.to_payload(), args.json, lines)
    return 0


def cmd_language(args) -> int:
    system = _resolve_system(args.system)
    words = system.language(args.length)
    doc = {"system": system.name, "length": args.length, "count": len(words), "words": list(words)}
    lines = [f"{len(words)} admissible words of length {args.length}"] + list(words)
    _emit(doc, args.json, lines)
    return 0


def cmd_verify(args) -> int:
    budget = _budget(args)
    if args.all:
        targets = [n for n in catalog.names() if catalog.get(n).verify]
    elif args.system:
        targets = [args.system]
    else:
        raise UsageError("verify needs a system name or --all")
    worst = 0
    docs = {}
    lines = []
    for name in targets:
        system = _resolve_system(name)
        report = verify_system(system, args.m_max, budget, args.depth, args.radius)
        docs[name] = report.to_payload()
        lines.append(
            f"{name}: r_c={report.ranks.r_c.value} r_m={report.ranks.r_m.value} "
            f"r_M={report.ranks.r_M.value}"
        )
        for cell in report.cells:
            lines.append(
                f"  m={cell.m} {cell.test:<11} predicted={'+' if cell.predicted_positive else '-'} "
                f"verdict={cell.verdict.status.value:<9} {cell.label}"
            )
        if not report.consistent:
            worst = 1
    lines.append("verify: " + ("all cells consistent" if worst == 0 else INCONSISTENT))
    _emit({"verify": docs, "consistent": worst == 0}, args.json, lines)
    return worst


def cmd_replay(args) -> int:
    try:
        text = Path(args.certificate).read_text()
    except OSError as e:
        raise UsageError(f"cannot read certificate {args.certificate!r}: {e.strerror}") from None
    result = replay(load_certificate(text))
    print(result.summary())
    for f in result.failures:
        print(f"  {f}")
    return 0 if result.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftrank",
        description="rank invariants and sensitivity searches for substitution and Toeplitz subshifts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("system", help="catalog name or inline rules like '0->01;1->10'")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("catalog", help="list the reference systems")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_catalog)

    p = sub.add_parser("ranks", help="rank report for a system")
    common(p)
    p.add_argument("--depth", type=int, default=CENSUS_DEPTH)
    p.add_argument("--radius", type=int, default=CENSUS_RADIUS)
    p.set_defaults(fn=cmd_ranks)

    p = sub.add_parser("profile", help="predicted multivariate profile")
    common(p)
    p.add_argument("--m-max", type=int, default=M_MAX)
    p.add_argument("--depth", type=int, default=CENSUS_DEPTH)
    p.add_argument("--radius", type=int, default=CENSUS_RADIUS)
    p.set_defaults(fn=cmd_profile)

    def tuple_search(name, summary, fn, scale, scale_help):
        p = sub.add_parser(name, help=summary)
        common(p)
        keys = ", ".join(BUDGET_KEYS[name])
        p.add_argument("--budget", help=f"comma list of key=value; keys {keys}")
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--scale", type=int, default=scale, help=scale_help)
        p.add_argument("--cert", help="write the verdict's certificate, if any, to this path")
        p.set_defaults(fn=fn)
        return p

    tuple_search(
        "sensitivity",
        "tuple sensitivity search over all cylinders",
        cmd_cylinder_search,
        scale=SearchBudget.K,
        scale_help="epsilon exponent K",
    )

    p = tuple_search(
        "block",
        "block sensitivity search over all cylinders",
        cmd_cylinder_search,
        scale=BLOCK_SCALE,
        scale_help=None,
    )
    p.add_argument("--block", type=int, default=SearchBudget.B, help="block half-length B")

    p = tuple_search(
        "cover",
        "cover equicontinuity test at a seed point",
        cmd_seed_point_test,
        scale=SearchBudget.K,
        scale_help=None,
    )
    p.add_argument("--seed-index", type=int, default=0)

    p = tuple_search(
        "point",
        "equicontinuity point test at a seed point",
        cmd_seed_point_test,
        scale=SearchBudget.K,
        scale_help=None,
    )
    p.add_argument("--seed-index", type=int, default=0)

    p = sub.add_parser("fiber", help="fiber census over an odometer residue")
    common(p)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--value", type=int, required=True)
    p.add_argument("--radius", type=int, default=CENSUS_RADIUS)
    p.set_defaults(fn=cmd_fiber)

    p = sub.add_parser("language", help="admissible words of a length")
    common(p)
    p.add_argument("--length", type=int, required=True)
    p.set_defaults(fn=cmd_language)

    p = sub.add_parser("verify", help="rank-vs-oracle consistency loop")
    p.add_argument("system", nargs="?", help="catalog name; or use --all")
    p.add_argument("--all", action="store_true", help="run over the verify-enabled catalog")
    p.add_argument("--json", action="store_true")
    p.add_argument("--budget")
    p.add_argument("--m-max", type=int, default=M_MAX)
    p.add_argument("--depth", type=int, default=CENSUS_DEPTH)
    p.add_argument("--radius", type=int, default=CENSUS_RADIUS)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("replay", help="replay a witness certificate, no search")
    p.add_argument("certificate")
    p.set_defaults(fn=cmd_replay)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (UsageError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
