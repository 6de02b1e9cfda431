"""Rank and scan invariance under conjugacy: a net that needs no reference values.

σ and σ² generate the same subshift, and the q-adic and q²-adic odometers
are the same group.  Renaming the letters gives a conjugate subshift, and so
does mirroring (each image reversed), which conjugates the shift with its
inverse.  So the rank of a system cannot depend on which of these
presentations it is given by, and the tuple searches, which read only the
language, cannot either.

Half of the net holds today and is checked here.  At the CLI default census
(depth 4, radius 64), σ² still changes (r_m, r_M) on 5 of the criterion-5
systems with q <= 3 (the sampled census is not exact), so σ² is compared
only at the criterion-5 setting (depth 3, radius 16) until the exact census
lands.
"""

import pytest

from shiftrank import catalog
from shiftrank.oracles import SearchBudget, block_sensitivity_scan, sensitivity_scan
from shiftrank.ranks import coincidence_rank, maximal_rank, minimal_rank
from shiftrank.substitution import Substitution, SubstitutionSystem
from shiftrank.verify import BLOCK_SCALE


def _square(s: Substitution) -> Substitution:
    return Substitution(tuple(map(s.image, s.rules)))


def _mirror(s: Substitution) -> Substitution:
    return Substitution(tuple(image[::-1] for image in s.rules))


def _renamed(s: Substitution) -> Substitution:
    """The cyclic renaming that sends letter i to letter i + 1."""
    rename = str.maketrans(s.letters, s.letters[1:] + s.letters[:1])
    return Substitution(tuple(s.rules[i - 1].translate(rename) for i in range(len(s.rules))))


@pytest.fixture(scope="module")
def systems() -> list[Substitution]:
    """The catalog substitutions with two or more letters, and the criterion-5 sample with q <= 3."""
    named = [
        catalog.system_for(name).substitution
        for name in catalog.names()
        if catalog.get(name).kind == "substitution"
    ]
    sample = catalog.random_exact_substitutions(200)
    return [s for s in named if len(s.rules) > 1] + [s for s in sample if s.constant_length <= 3]


def _ranks(s: Substitution, depth: int, radius: int) -> tuple[int, int, int]:
    return (
        coincidence_rank(s).value,
        minimal_rank(s, depth, radius).value,
        maximal_rank(s, depth, radius).value,
    )


def test_ranks_agree_on_conjugate_presentations(systems):
    assert len(systems) == 127
    differ = []
    for s in systems:
        ranks = _ranks(s, 4, 64)
        for label, variant in (("mirror", _mirror(s)), ("renamed", _renamed(s))):
            if _ranks(variant, 4, 64) != ranks:
                differ.append((s.rules, label))
        if _ranks(_square(s), 3, 16) != _ranks(s, 3, 16):
            differ.append((s.rules, "square"))
    assert differ == []


@pytest.mark.parametrize("L", [1, 2])
def test_scans_agree_on_a_substitution_and_its_square(systems, L):
    # the same language gives the same witnesses; the square's blocks are
    # counted by its own block-pair automaton, at q²
    budget = SearchBudget(L=L, N=16, B=1)

    def scans(s):
        system = SubstitutionSystem("s", s)
        return (
            sensitivity_scan(system, 2, budget.K, budget),
            block_sensitivity_scan(system, 2, BLOCK_SCALE, budget.B, budget),
        )

    differ = [s.rules for s in systems if scans(s) != scans(_square(s))]
    assert differ == []
