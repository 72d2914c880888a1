"""Workloads, seeded inputs and the expected-answer table of the benchmark.

Every input is a catalog group whose points are relabelled by a seeded
random permutation and whose generator order is shuffled.  The program
under test sees only these generators, never the catalog name.  σ, the
optimal-cover counts and the σ-elementary verdicts do not change under
relabelling, so one table of expected answers serves every seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from groupcover import Permutation, PermGroup, construct

EXPECTED_FILE = Path(__file__).with_name("expected.json")

# Query kinds: one public `groupcover` call each.
SIGMA = "sigma"  # analysis.sigma
SIGMA_ALL = "sigma_all"  # analysis.sigma with enumerate_all
ELEMENTARY = "elementary"  # analysis.is_sigma_elementary
TOMKINSON = "tomkinson"  # analysis.tomkinson_sigma
COVER_KINDS = (SIGMA, SIGMA_ALL)

# Every solvable non-cyclic MANIFEST group of order <= 300.
SOLVABLE_SMALL = (
    "ElemAbelian(2,2)", "ElemAbelian(3,2)", "ElemAbelian(5,2)", "ElemAbelian(7,2)",
    "ElemAbelian(11,2)", "ElemAbelian(13,2)", "ElemAbelian(17,2)",
    "Dihedral(4)", "Dihedral(5)", "Dihedral(6)", "Dihedral(7)", "Dihedral(11)",
    "Dihedral(13)", "Dihedral(17)", "Dihedral(19)", "Dihedral(23)",
    "Frobenius(7,3)", "Frobenius(11,5)", "Frobenius(13,3)", "Frobenius(13,4)",
    "Frobenius(13,6)", "Frobenius(17,4)", "Frobenius(17,8)", "Frobenius(19,3)",
    "Frobenius(19,6)", "Frobenius(19,9)", "Frobenius(23,11)",
    "AGL1(5)", "AGL1(7)", "AGL1(8)", "AGL1(9)", "AGL1(11)", "AGL1(13)",
    "AGL1(16)", "AGL1(17)",
    "AffineSemilinear(9,4,1)", "AffineSemilinear(16,5,1)", "AffineSemilinear(8,7,3)",
    "Sym(3)", "Sym(4)", "Alt(4)",
)


@dataclass(frozen=True)
class Query:
    spec: str
    kind: str


def _queries(specs, kinds) -> tuple[Query, ...]:
    return tuple(Query(s, k) for s in specs for k in kinds)


WORKLOADS: dict[str, tuple[Query, ...]] = {
    # One σ query on each large simple group: the lattice worklist dominates.
    "simple-large": _queries(("M11", "PSL3(3)"), (SIGMA,)),
    # σ with every optimal cover enumerated: branch-and-bound dominates.
    "search-enum": _queries(("Alt(6)", "PSL2(9)"), (SIGMA_ALL,)),
    # The solvable sweep: σ, σ-elementarity and Tomkinson's formula per group.
    "solvable-small": _queries(SOLVABLE_SMALL, (SIGMA, ELEMENTARY, TOMKINSON)),
    # A few seconds of everything, for the benchmark's own tests.
    "smoke": _queries(("Sym(4)", "Dihedral(5)"), (SIGMA_ALL, ELEMENTARY, TOMKINSON))
    + _queries(("Alt(5)",), (SIGMA_ALL, ELEMENTARY)),
}


@dataclass(frozen=True)
class GroupInput:
    """The generators the program is given for one catalog group."""

    degree: int
    generators: tuple[Permutation, ...]

    def fresh_group(self) -> PermGroup:
        """A new group object, so no cache of an earlier query is reused."""
        return PermGroup(self.generators, degree=self.degree)


def relabel(G: PermGroup, rng: random.Random) -> GroupInput:
    """Conjugate G by a random point permutation and shuffle its generators."""
    n = G.degree
    pi = list(range(n))
    rng.shuffle(pi)
    gens = []
    for g in G.generators:
        images = [0] * n
        for x, gx in enumerate(g.images):
            images[pi[x]] = pi[gx - 1] + 1
        gens.append(Permutation(images))
    rng.shuffle(gens)
    return GroupInput(n, tuple(gens))


def make_inputs(queries, seed: int) -> dict[str, GroupInput]:
    """One input per catalog group, drawn from a stream of (seed, spec)."""
    out: dict[str, GroupInput] = {}
    for q in queries:
        if q.spec not in out:
            out[q.spec] = relabel(construct(q.spec), random.Random(f"{seed}/{q.spec}"))
    return out


def load_expected() -> dict:
    with open(EXPECTED_FILE, encoding="utf-8") as f:
        return json.load(f)


def check_answer(q: Query, answer: dict, expected: dict) -> list[str]:
    """Every way the answer differs from the expected-answer table."""
    problems = []
    want = expected["sigma"][q.spec]
    if answer["sigma"] != want:
        problems.append(f"sigma {answer['sigma']} != {want}")
    if q.kind == SIGMA_ALL:
        want = expected["optimal_covers"][q.spec]
        if answer["optimal_covers"] != want:
            problems.append(f"optimal covers {answer['optimal_covers']} != {want}")
    if q.kind == ELEMENTARY:
        want = expected["elementary"][q.spec]
        if answer["elementary"] != want:
            problems.append(f"elementary {answer['elementary']} != {want}")
    return problems
