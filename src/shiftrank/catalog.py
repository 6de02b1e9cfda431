"""Named reference systems with frozen expectations, plus random sampling."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from importlib import resources

from .substitution import RegimeError, Substitution, SubstitutionSystem
from .toeplitz import ToeplitzSystem, doubling_skeleton, rank_family_skeleton


@dataclass(frozen=True)
class SystemSpec:
    """One catalog entry: construction recipe plus golden expectations."""

    name: str
    kind: str  # substitution | toeplitz | documentation
    params: dict = field(default_factory=dict)
    golden: dict = field(default_factory=dict)  # rank -> (value, provenance)
    verify: bool = False
    note: str = ""


def _parse_catalog(text: str) -> dict[str, SystemSpec]:
    specs: dict[str, SystemSpec] = {}
    current: dict | None = None

    def flush() -> None:
        if current is not None:
            spec = SystemSpec(
                current["name"],
                current.get("kind", "substitution"),
                current.get("params", {}),
                current.get("golden", {}),
                current.get("verify", False),
                current.get("note", ""),
            )
            specs[spec.name] = spec

    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[system ") and line.endswith("]"):
            flush()
            current = {"name": line[len("[system ") : -1].strip(), "params": {}, "golden": {}}
            continue
        if current is None:
            raise ValueError(f"catalog line outside a system block: {line!r}")
        if line.startswith("rule "):
            current["params"].setdefault("rules", []).append(line[len("rule ") :])
        elif line.startswith("golden "):
            body = line[len("golden ") :]
            lhs, _, rhs = body.partition("=")
            parts = rhs.split()
            current["golden"][lhs.strip()] = (int(parts[0]), parts[1])
        elif line.startswith("note ="):
            current["note"] = line.partition("=")[2].strip()
        elif line.startswith("verify ="):
            current["verify"] = line.partition("=")[2].strip() == "yes"
        elif line.startswith("kind ="):
            current["kind"] = line.partition("=")[2].strip()
        else:
            key, eq, value = line.partition("=")
            if not eq:
                raise ValueError(f"bad catalog line: {line!r}")
            current["params"][key.strip()] = value.strip()
    flush()
    return specs


def _load_specs() -> dict[str, SystemSpec]:
    text = resources.files("shiftrank.data").joinpath("catalog.txt").read_text()
    return _parse_catalog(text)


_SPECS: dict[str, SystemSpec] | None = None
_SYSTEMS: dict[str, object] = {}


def specs() -> dict[str, SystemSpec]:
    global _SPECS
    if _SPECS is None:
        _SPECS = _load_specs()
    return _SPECS


def names() -> tuple[str, ...]:
    return tuple(specs())


def get(name: str) -> SystemSpec:
    try:
        return specs()[name]
    except KeyError:
        raise KeyError(f"unknown system {name!r}; see `catalog` for the inventory") from None


def system_for(name: str):
    """Instantiate (and cache) the runnable system behind a catalog entry."""
    if name in _SYSTEMS:
        return _SYSTEMS[name]
    spec = get(name)
    if spec.kind == "substitution":
        sub = Substitution.from_text("\n".join(spec.params["rules"]))
        system = SubstitutionSystem(spec.name, sub)
    elif spec.kind == "toeplitz":
        builder = spec.params.get("builder")
        depth = int(spec.params.get("depth", 16))
        if builder == "doubling":
            skeleton = doubling_skeleton(depth)
        elif builder == "rank-family":
            skeleton = rank_family_skeleton(int(spec.params["r"]), depth)
        else:
            raise ValueError(f"unknown toeplitz builder {builder!r}")
        system = ToeplitzSystem(spec.name, skeleton)
    elif spec.kind == "documentation":
        raise RegimeError(
            f"{name} is a documentation-only entry (nonconstructive family); "
            "it has no finite presentation to compute on"
        )
    else:
        raise ValueError(f"unknown system kind {spec.kind!r}")
    _SYSTEMS[name] = system
    return system


def custom_substitution(rules_text: str, name: str = "custom") -> SubstitutionSystem:
    """An ad-hoc system from the same rules format the catalog file uses."""
    return SubstitutionSystem(name, Substitution.from_text(rules_text))


ALPHABET_MAX = 3
Q_MAX = 4


def random_exact_substitutions(count: int, seed: int = 20260811) -> list[Substitution]:
    """Sample primitive, aperiodic, height-1 constant-length substitutions.

    Candidates are drawn uniformly over rule tables of 2 to ``ALPHABET_MAX``
    letters and length 2 to ``Q_MAX``, and kept when they are in the exact
    regime (``Substitution.regime``), which each kept instance carries on
    into the rank pipelines.  Deterministic for a fixed seed.
    """
    rng = random.Random(seed)
    out: list[Substitution] = []
    # a rule table drawn again reuses the kept instance, and with it its language table
    kept: dict[tuple[str, ...], Substitution] = {}
    while len(out) < count:
        size = rng.randint(2, ALPHABET_MAX)
        q = rng.randint(2, Q_MAX)
        letters = "0123456789"[:size]
        rules = tuple("".join(rng.choice(letters) for _ in range(q)) for _ in range(size))
        s = kept.get(rules) or Substitution(rules)
        if s.regime.exact:
            kept[rules] = s
            out.append(s)
    return out
