"""Subgroup lattices: cyclic/maximal subgroups, normal structure, quotients."""

from __future__ import annotations

import hashlib
import importlib
import inspect
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import groupcover
from groupcover import (
    BudgetExhaustedError,
    InvariantError,
    PermGroup,
    SigmaOptions,
    center,
    construct,
    derived_series,
    generated_subgroup,
    is_solvable,
    lattice,
    parse_cycles,
    sigma,
    tomkinson_sigma,
)
from groupcover.subgroup_lattice import SubgroupLattice, _chain_of_ids

lattice_module = importlib.import_module("groupcover.subgroup_lattice")
group_module = importlib.import_module("groupcover.group")

from conftest import brute_of, grp, manifest_upto, subgroup_ids
from oracles import coset_closure, o_closure


def test_sym3_cyclic_subgroups():
    lat = lattice(grp("Sym(3)"))
    cyc = lat.cyclic_subgroups()
    assert len(cyc) == 5  # trivial, three C2, one C3
    assert sorted(c.order for c in cyc) == [1, 2, 2, 2, 3]
    maxcyc = lat.maximal_cyclic_subgroups()
    assert sorted(c.order for c in maxcyc) == [2, 2, 2, 3]


def test_sym3_maximal_subgroups():
    lat = lattice(grp("Sym(3)"))
    maxs = lat.maximal_subgroups()
    assert sorted(M.order for M in maxs) == [2, 2, 2, 3]


def test_klein_maximals():
    lat = lattice(grp("ElemAbelian(2,2)"))
    assert sorted(M.order for M in lat.maximal_subgroups()) == [2, 2, 2]


def test_alt4_structure():
    lat = lattice(grp("Alt(4)"))
    assert sorted(M.order for M in lat.maximal_subgroups()) == [3, 3, 3, 3, 4]
    soc = lat.socle()
    assert soc.order == 4  # the Klein four-subgroup
    mins = lat.minimal_normal_subgroups()
    assert len(mins) == 1 and mins[0].order == 4


def test_alt5_is_simple():
    lat = lattice(grp("Alt(5)"))
    assert sorted(N.order for N in lat.normal_subgroups()) == [1, 60]
    assert lat.socle().order == 60


@pytest.mark.parametrize(
    "spec", ["Sym(5)", "PGL2(7)", "AGL1(16)", "ElemAbelian(5,2)", "Cyclic(12)"]
)
def test_cyclic_subgroups_by_powers(spec):
    lat = lattice(grp(spec))
    T = lat.table
    cyc = lat.cyclic_subgroups()
    assert [C.key for C in cyc] == sorted(C.key for C in cyc)
    for e in range(T.n):
        C = cyc[lat._elem_to_cyclic[e]]
        assert set(C.ids.tolist()) == {T.power(e, k) for k in range(T.orders[e])}
    for C, g in zip(cyc, lat._cyclic_gen.tolist()):
        # the recorded generator is the least element generating C
        assert C.gen_ids == [g] == [min(i for i in C.ids if T.orders[i] == C.order)]


def test_maximal_cyclic_union_covers_group():
    for spec in ["Sym(4)", "Alt(5)", "Dihedral(6)", "AGL1(8)", "PSL3(2)"]:
        lat = lattice(grp(spec))
        covered: set[int] = set()
        for C in lat.maximal_cyclic_subgroups():
            covered.update(int(i) for i in C.ids)
        assert len(covered) == grp(spec).order(), spec


def test_maximal_cyclic_are_maximal_among_cyclics():
    for spec in ["Sym(4)", "Alt(5)", "Frobenius(11,5)"]:
        lat = lattice(grp(spec))
        maxcyc = lat.maximal_cyclic_subgroups()
        allcyc = lat.cyclic_subgroups()
        for C in maxcyc:
            assert not any(
                C.issubset(D) and D.order > C.order for D in allcyc
            ), spec


def test_maximals_are_incomparable_and_truly_maximal():
    for spec in ["Sym(4)", "AGL1(8)", "PSL3(2)", "Alt(6)"]:
        G = grp(spec)
        lat = lattice(G)
        T = G.table()
        maxs = lat.maximal_subgroups()
        for i, M in enumerate(maxs):
            for j, M2 in enumerate(maxs):
                if i != j:
                    assert not M.issubset(M2), spec
        # adjoining any outside element to a maximal generates the whole group
        for M in maxs[:: max(1, len(maxs) // 4)]:
            inside = set(int(x) for x in M.ids)
            outside = [x for x in range(T.n) if x not in inside][:3]
            for x in outside:
                J = generated_subgroup(T, [int(i) for i in M.ids] + [x])
                assert J.order == G.order(), spec


def test_lattice_completeness_against_brute_force_upto_500():
    """Every proper subgroup lies inside a listed maximal subgroup, and the
    listed maximals are exactly the inclusion-maximal proper subgroups."""
    checked = 0
    for spec in manifest_upto(500):
        G = grp(spec)
        lat = lattice(G)
        bg = brute_of(spec)
        subs = bg.all_subgroups()
        proper = [s for s in subs if len(s) < bg.n]
        maxs = [subgroup_ids(M) for M in lat.maximal_subgroups()]
        for s in proper:
            assert any(s <= m for m in maxs), f"{spec}: subgroup not under a maximal"
        brute_max = {s for s in proper if not any(s < t for t in proper)}
        assert brute_max == set(maxs), spec
        # cyclic subgroup census agrees too
        assert {subgroup_ids(C) for C in lat.cyclic_subgroups()} == set(
            bg.cyclic_subgroups()
        ), spec
        checked += 1
    assert checked >= 40


def test_oracle_coset_closure_matches_breadth_first_closure():
    bg = brute_of("Sym(5)")
    rows, cols = bg.mul.tolist(), bg.mul.T.tolist()
    cyclics = sorted(bg.cyclic_subgroups().items(), key=lambda kv: sorted(kv[0]))
    for (C, g), (_, h) in zip(cyclics, cyclics[5:] + cyclics[:5]):
        gens = [bg.elements[g], bg.elements[h]]
        want = frozenset(bg.index[e] for e in o_closure(gens, bg.degree))
        assert coset_closure(rows, cols, C, [g, h]) == want
        capped = coset_closure(rows, cols, C, [g, h], abort_over=60)
        assert capped == (None if len(want) > 60 else want)


def test_normal_subgroups_against_brute_force():
    for spec in [
        "Sym(4)",
        "Dihedral(6)",
        "AGL1(7)",
        "Frobenius(13,6)",
        "Alt(5)",
        "ElemAbelian(5,2)",
        "Dihedral(4)",
        "Cyclic(6)",
        "Cyclic(5)",
        "Cyclic(1)",
    ]:
        lat = lattice(grp(spec))
        bg = brute_of(spec)
        brute_normals = {
            s for s in bg.all_subgroups() if bg.is_subgroup_normal(s)
        }
        assert {subgroup_ids(N) for N in lat.normal_subgroups()} == brute_normals, spec


def _brute_closure(bg, ids) -> frozenset[int]:
    rows, cols = bg.mul.tolist(), bg.mul.T.tolist()
    return coset_closure(rows, cols, [bg.identity_id], sorted(set(ids)))


def _brute_derived_series(bg) -> list[frozenset[int]]:
    """Each term the closure of every commutator of the one before."""
    inv = np.argmax(bg.mul == bg.identity_id, axis=1)
    series = [frozenset(range(bg.n))]
    while True:
        a = np.array(sorted(series[-1]))
        # a^-1 b^-1 a b, with mul[x, y] the id of (apply x, then y)
        comm = bg.mul[bg.mul[bg.mul[inv[a][:, None], inv[a][None, :]], a[:, None]], a]
        D = _brute_closure(bg, comm.ravel().tolist())
        if D == series[-1]:
            return series
        series.append(D)
        if len(D) == 1:
            return series


def _brute_socle(bg) -> frozenset[int]:
    """The closure of the union of the minimal normal subgroups."""
    normals = [
        s for s in bg.all_subgroups() if len(s) > 1 and bg.is_subgroup_normal(s)
    ]
    minimal = [s for s in normals if not any(t < s for t in normals)]
    return _brute_closure(bg, [x for s in minimal for x in s])


def test_derived_series_and_socle_against_brute_force_upto_200():
    specs = manifest_upto(200)
    assert len(specs) >= 45
    for spec in specs:
        G = grp(spec)
        bg = brute_of(spec)
        series = _brute_derived_series(bg)
        assert [subgroup_ids(S) for S in derived_series(G)] == series, spec
        assert is_solvable(G) == (len(series[-1]) == 1), spec
        assert subgroup_ids(lattice(G).socle()) == _brute_socle(bg), spec


def test_every_module_imports_as_a_module():
    # ``import groupcover.<name> as m`` binds the package attribute <name>,
    # which is not the module when the package reuses the name for a function
    for path in sorted(Path(groupcover.__file__).parent.glob("*.py")):
        if path.stem != "__init__":
            scope: dict = {}
            exec(f"import groupcover.{path.stem} as m", scope)
            assert inspect.ismodule(scope["m"]), path.stem


def test_conjugates_and_normality():
    lat = lattice(grp("Sym(4)"))
    maxs = lat.maximal_subgroups()
    a4 = [M for M in maxs if M.order == 12]
    s3 = [M for M in maxs if M.order == 6]
    d8 = [M for M in maxs if M.order == 8]
    assert len(a4) == 1 and len(s3) == 4 and len(d8) == 3
    assert lat.is_normal(a4[0])
    assert not lat.is_normal(s3[0])
    assert len(lat.conjugates(s3[0])) == 4
    assert len(lat.conjugates(d8[0])) == 3
    assert len(lat.conjugates(a4[0])) == 1


def test_m11_maximal_subgroups(m11):
    lat = lattice(m11)
    maxs = lat.maximal_subgroups()
    assert len(maxs) == 309
    hist = Counter(M.order for M in maxs)
    assert hist == {48: 165, 120: 66, 144: 55, 660: 12, 720: 11}


def test_m11_frattini_trivial(m11):
    assert lattice(m11).frattini().order == 1


def test_frattini():
    assert lattice(grp("Sym(3)")).frattini().order == 1
    assert lattice(grp("Cyclic(4)")).frattini().order == 2
    assert lattice(grp("Cyclic(9)")).frattini().order == 3
    assert lattice(grp("ElemAbelian(3,2)")).frattini().order == 1
    assert lattice(grp("AGL1(8)")).frattini().order == 1


def test_centre():
    assert center(grp("Dihedral(6)")).order == 2
    assert center(grp("PSL3(2)")).order == 1
    assert center(grp("ElemAbelian(5,2)")).order == 25


def test_quotients():
    lat = lattice(grp("Sym(4)"))
    normals = {N.order: N for N in lat.normal_subgroups()}
    assert sorted(normals) == [1, 4, 12, 24]
    Q = lat.quotient(normals[4])
    assert Q.order() == 6 and not Q.is_abelian()  # Sym(4)/V4 is Sym(3)
    Q2 = lat.quotient(normals[12])
    assert Q2.order() == 2 and Q2.is_cyclic()
    non_normal = [M for M in lat.maximal_subgroups() if not lat.is_normal(M)][0]
    with pytest.raises(ValueError):
        lat.quotient(non_normal)


def test_quotient_map_is_homomorphism():
    import numpy as np

    G = grp("Sym(4)")
    lat = lattice(G)
    N = [N for N in lat.normal_subgroups() if N.order == 4][0]
    Q = lat.quotient(N)
    T = G.table()
    QT = Q.table()
    # the right cosets Nx, numbered in the order of their least element IDs
    least = [min(T.mul(int(n), x) for n in N.ids) for x in range(T.n)]
    firsts = sorted(set(least))
    coset_of = [firsts.index(m) for m in least]
    reps: dict[int, int] = {}
    for x in range(T.n):
        reps.setdefault(int(coset_of[x]), x)

    def phi(x: int) -> int:
        """Image of element x in the quotient: cosets move by right multiplication."""
        img = np.array(
            [coset_of[T.mul(reps[c], x)] for c in range(Q.degree)],
            dtype=QT.rows.dtype,
        )
        qid = QT.id_of_row(img)
        assert qid is not None
        return qid

    for a in range(0, T.n, 5):
        for b in range(0, T.n, 7):
            assert QT.mul(phi(a), phi(b)) == phi(T.mul(a, b))
    # kernel: exactly the elements of N land on the identity coset permutation
    kernel = [x for x in range(T.n) if phi(x) == 0]
    assert sorted(kernel) == sorted(int(i) for i in N.ids)


def test_chief_series_sym4():
    lat = lattice(grp("Sym(4)"))
    records = lat.chief_series()
    assert sorted(r.factor_order for r in records) == [2, 3, 4]
    three = [r for r in records if r.factor_order == 3][0]
    assert three.complement_count == 3
    for r in records:
        assert r.S.order == r.K.order * r.factor_order


def test_chief_series_dihedral5():
    lat = lattice(grp("Dihedral(5)"))
    records = lat.chief_series()
    assert sorted(r.factor_order for r in records) == [2, 5]
    five = [r for r in records if r.factor_order == 5][0]
    assert five.complement_count == 5  # the five reflections


@pytest.mark.parametrize(
    "spec, pairs",
    [
        ("Sym(4)", [(4, 4), (3, 3), (2, 1)]),
        ("Dihedral(4)", [(2, 0), (2, 2), (2, 1)]),
        ("Dihedral(5)", [(5, 5), (2, 1)]),  # the five reflections
        ("Dihedral(6)", [(2, 2), (3, 3), (2, 1)]),
        ("AGL1(9)", [(9, 9), (2, 0), (2, 0), (2, 1)]),
        ("AGL1(16)", [(16, 16), (3, 1), (5, 1)]),
        ("AffineSemilinear(8,7,3)", [(8, 8), (7, 7), (3, 1)]),
        ("ElemAbelian(5,2)", [(5, 5), (5, 1)]),
    ],
)
def test_chief_series_complement_counts(spec, pairs):
    records = lattice(grp(spec)).chief_series()
    assert [(r.factor_order, r.complement_count) for r in records] == pairs
    for r in records:
        assert r.S.order == r.K.order * r.factor_order


def test_socle_of_extensions():
    assert lattice(grp("Sym(4)")).socle().order == 4
    assert lattice(grp("PGammaL2(9)")).socle().order == 360
    assert lattice(grp("AGL1(8)")).socle().order == 8


def test_join_budget_exhaustion():
    base = construct("Alt(6)")
    G = PermGroup(list(base.generators), degree=base.degree)
    lat = SubgroupLattice(G, join_budget=25)
    with pytest.raises(BudgetExhaustedError) as err:
        lat.maximal_subgroups()
    assert err.value.budget == 25


def _fresh(spec: str) -> PermGroup:
    base = construct(spec)
    return PermGroup(list(base.generators), degree=base.degree)


def test_exhausted_join_budget_leaves_no_poisoned_lattice():
    G = _fresh("Sym(5)")
    with pytest.raises(BudgetExhaustedError):
        lattice(G, join_budget=25).maximal_subgroups()
    assert sigma(G, SigmaOptions(join_budget=10**7)).sigma == 16
    fresh = lattice(_fresh("Sym(5)"))
    fresh.maximal_subgroups()
    assert lattice(G).joins_spent == fresh.joins_spent == 143
    H = _fresh("Sym(4)")
    with pytest.raises(BudgetExhaustedError):
        lattice(H, join_budget=1).maximal_subgroups()
    assert tomkinson_sigma(H).sigma == 4


# The worklist's output pinned: a change in the order of the join targets
# or in the recorded generators changes these numbers or these strings.


def _fresh_lattice(spec: str) -> SubgroupLattice:
    return SubgroupLattice(_fresh(spec))


@pytest.mark.parametrize(
    "spec, joins", [("Alt(6)", 335), ("PSL2(9)", 335), ("Sym(5)", 143)]
)
def test_worklist_join_counts_pinned(spec, joins):
    lat = _fresh_lattice(spec)
    lat.maximal_subgroups()
    assert lat.joins_spent == joins


SIGMA_COVER_STRINGS = {
    "Sym(5)": [
        ["(1 5)(2 4)", "(2 3 5 4)"],
        ["(1 3)(2 5)", "(1 5 2 4)"],
        ["(1 5)(2 3)", "(1 4 2 5)"],
        ["(1 4)(2 3)", "(1 5)"],
        ["(1 5)(2 4)", "(3 4 5)"],
        ["(1 3)(2 4)", "(1 5)"],
        ["(2 5)(3 4)", "(1 2)"],
        ["(1 2)(3 4)", "(1 5 3 2)"],
        ["(2 4)(3 5)", "(1 2)"],
        ["(1 5)(2 4)", "(3 4)"],
        ["(1 3)(4 5)", "(2 3)"],
        ["(1 2)(3 5)", "(4 5)"],
        ["(1 3)(2 5)", "(4 5)"],
        ["(1 4)(2 3)", "(2 5)"],
        ["(1 4)(2 5)", "(1 3 5 4)"],
        ["(1 4)(2 5)", "(3 4)"],
    ],
    "Alt(6)": [
        ["(2 6)(3 5)", "(1 3 4)(2 5 6)"],
        ["(1 3)(2 4)", "(1 6 3 2)(4 5)"],
        ["(2 5)(3 4)", "(1 5)(2 4 6 3)"],
        ["(1 4)(3 5)", "(1 2 4 3)(5 6)"],
        ["(1 5)(3 6)", "(1 4 2)(3 5 6)"],
        ["(2 3)(4 6)", "(1 4)(2 6 3 5)"],
        ["(1 6)(2 5)", "(1 5 6)(2 4 3)"],
        ["(1 6)(2 4)", "(1 5 3)(2 4 6)"],
        ["(1 5)(3 6)", "(1 2)(3 4 6 5)"],
        ["(2 6)(3 4)", "(1 2 5)(3 4 6)"],
        ["(2 3)(4 6)", "(1 4 5)(2 3 6)"],
        ["(1 2)(3 4)", "(1 3 2 6)(4 5)"],
        ["(2 6)(3 5)", "(1 3)(2 4 6 5)"],
        ["(1 6)(2 3)", "(1 4)(2 5 3 6)"],
        ["(1 2)(3 6)", "(1 5 2 6)(3 4)"],
        ["(1 6)(2 5)", "(1 4 6 5)(2 3)"],
    ],
}


@pytest.mark.parametrize("spec", sorted(SIGMA_COVER_STRINGS))
def test_sigma_cover_generators_pinned(spec):
    res = sigma(_fresh(spec))
    assert res.sigma == 16
    assert [list(c) for c in res.cover] == SIGMA_COVER_STRINGS[spec]


def test_join_that_reaches_g_returns_no_chain():
    from groupcover.subgroup_lattice import _chain_of_ids

    lat = _fresh_lattice("Sym(4)")
    T = lat.table
    ids = [T.id_of_perm(parse_cycles(c, 4)) for c in ("(1 2 3)", "(1 2 3 4)", "(1 2)")]
    chain = _chain_of_ids(T, ids[:1])
    assert lat._join(chain, ids[1]) is None  # ⟨(1 2 3), (1 2 3 4)⟩ = Sym(4)
    assert lat.joins_spent == 1
    proper = lat._join(chain, ids[2])
    assert proper is not None and proper.order() == 6
    assert lat.joins_spent == 2
    assert chain.order() == 3


# Joins answered from the overgroups the worklist already holds.


def _record_join_answers(lat: SubgroupLattice, monkeypatch) -> list:
    """Run the worklist and return (H, x, answer, decided by the prepass)."""
    answers = []
    answer = lat._join_answer

    def recording(H, chain_H, x, K, lower):
        J = answer(H, chain_H, x, K, lower)
        proven = 2 * lower > (lat.table.n if K is None else K.order)
        answers.append((H, x, J, proven))
        return J

    monkeypatch.setattr(lat, "_join_answer", recording)
    lat.maximal_subgroups()
    return answers


def _check_join_answers(spec: str, monkeypatch) -> list:
    lat = _fresh_lattice(spec)
    T = lat.table
    answers = _record_join_answers(lat, monkeypatch)
    assert len(answers) == lat.joins_spent
    proper = 0
    for H, x, J, _ in answers:
        want = generated_subgroup(T, list(H.gen_ids) + [x])
        assert (J is None) == (want.order == T.n), (spec, H, x)
        if J is not None:
            assert J.key == want.key, (spec, H, x)
            proper += 1
    # most proper joins are answered by a subgroup found earlier
    assert lat.joins_materialised < proper
    return answers


@pytest.mark.parametrize(
    "spec",
    ["Sym(5)", "Alt(6)", "PGL2(7)", "Dihedral(6)", "Sym(4)", "Frobenius(13,4)",
     "AGL1(9)"],
)
def test_every_join_answer_is_the_generated_subgroup(spec, monkeypatch):
    _check_join_answers(spec, monkeypatch)


def _count_exact_joins(monkeypatch) -> list:
    exact = []
    join = SubgroupLattice._join

    def counting(self, *args):
        exact.append(1)
        return join(self, *args)

    monkeypatch.setattr(SubgroupLattice, "_join", counting)
    return exact


@pytest.mark.parametrize(
    "spec, joins, exact",
    [("ElemAbelian(17,2)", 288, 0), ("Frobenius(13,4)", 20, 1),
     ("Dihedral(6)", 18, 4), ("Sym(4)", 28, 14)],
)
def test_lagrange_bound_answers_joins_without_schreier_sims(
    spec, joins, exact, monkeypatch
):
    # none of these classes reaches the prepass: every join Schreier-Sims
    # skips is one whose order Lagrange's theorem fixes
    counted = _count_exact_joins(monkeypatch)
    lat = _fresh_lattice(spec)
    lat.maximal_subgroups()
    assert lat.joins_spent == joins
    assert len(counted) == exact


@pytest.mark.parametrize("spec", ["Sym(5)", "Alt(6)", "PGL2(7)"])
def test_every_join_answer_with_the_prepass_on_every_class(spec, monkeypatch):
    monkeypatch.setattr(lattice_module, "_PREPASS_MIN_TARGETS", 1)
    answers = _check_join_answers(spec, monkeypatch)
    assert any(proven for *_, proven in answers)


def test_every_m11_join_answer_is_the_generated_subgroup(monkeypatch):
    # M11's large classes take the prepass by default.  ⟨H, x⟩ lies in the
    # answer J, so equal orders make them equal.
    lat = _fresh_lattice("M11")
    T = lat.table
    answers = _record_join_answers(lat, monkeypatch)
    assert len(answers) == lat.joins_spent == 5285
    assert sum(p for *_, p in answers) > 5000
    for H, x, J, _ in answers:
        order = _chain_of_ids(T, list(H.gen_ids) + [x]).order()
        if J is None:
            assert order == T.n, (H, x)
        else:
            assert all(J.bits >> g & 1 for g in list(H.gen_ids) + [x]), (H, x)
            assert J.order == order, (H, x)


def _fingerprint(lat: SubgroupLattice) -> list:
    lat.maximal_subgroups()
    return [
        lat.joins_spent,
        lat.joins_materialised,
        [
            (S.key, S.gen_ids, S.is_maximal, S.is_normal, S.is_cyclic)
            for S in lat.all_subgroups()
        ],
        [S.key for S in lat.maximal_subgroups()],
    ]


@pytest.mark.parametrize("spec, min_targets", [("PGL2(7)", 1), ("M11", None)])
def test_worklist_does_not_depend_on_the_prepass_seed(spec, min_targets, monkeypatch):
    if min_targets is not None:
        monkeypatch.setattr(lattice_module, "_PREPASS_MIN_TARGETS", min_targets)
    exact = _count_exact_joins(monkeypatch)
    prints = []
    for seed in (group_module._PREPASS_SEED, 1, 2):
        monkeypatch.setattr(group_module, "_PREPASS_SEED", seed)
        lat = _fresh_lattice(spec)
        prints.append(_fingerprint(lat))
    assert prints[1] == prints[0] and prints[2] == prints[0]
    # the prepass ran: far fewer exact joins than joins spent
    assert len(exact) < 3 * prints[0][0] // 2


# taken at the commit before the Lagrange join bound
SMALL_CATALOG_LATTICES = (
    "fa0d305b06d9e50b8aec49e66f1222fe40710056df646f444b849a86d190d6a9"
)


def test_small_catalog_lattices_pinned():
    # every subgroup with its recorded generators and flags, the maximal
    # and maximal cyclic lists and both join counts, of every catalog group
    # of order <= 2000
    h = hashlib.sha256()
    for spec in manifest_upto(2000):
        lat = _fresh_lattice(spec)
        maximal_cyclic = [S.key for S in lat.maximal_cyclic_subgroups()]
        h.update(f"{spec} {_fingerprint(lat)} {maximal_cyclic}\n".encode())
    assert h.hexdigest() == SMALL_CATALOG_LATTICES


@pytest.mark.parametrize(
    "spec, joins, materialised", [("Sym(5)", 143, 11), ("Alt(6)", 335, 15)]
)
def test_prepass_on_every_class_keeps_the_join_counts(
    spec, joins, materialised, monkeypatch
):
    monkeypatch.setattr(lattice_module, "_PREPASS_MIN_TARGETS", 1)
    lat = _fresh_lattice(spec)
    lat.maximal_subgroups()
    assert lat.joins_spent == joins
    assert lat.joins_materialised == materialised


def _non_cyclic_classes(lat: SubgroupLattice) -> int:
    seen: set[bytes] = set()
    classes = 0
    for S in lat.all_subgroups():
        if S.is_cyclic or S.key in seen:
            continue
        classes += 1
        seen.update(C.key for C in lat.conjugates(S))
    return classes


@pytest.mark.parametrize(
    "spec, materialised", [("Sym(5)", 11), ("Alt(6)", 15), ("PGL2(7)", 14)]
)
def test_joins_materialised_counts_non_cyclic_classes(spec, materialised):
    # the cyclic classes seed the worklist, so a join never finds a new one
    lat = _fresh_lattice(spec)
    lat.maximal_subgroups()
    assert lat.joins_materialised == _non_cyclic_classes(lat) == materialised


# taken at the commit before the worklist held its subgroups as key rows:
# exact Schreier-Sims joins, joins spent, joins materialised and the sha256
# of the whole worklist output
SIMPLE_LARGE_LATTICES = {
    "M11": (
        254, 5285, 30,
        "23f086244bab7c4c74bb006f2a90642686e1d9611014f6a9691168b5a25fa0e3",
    ),
    "PSL3(3)": (
        447, 4664, 42,
        "ce12054933e9058d2c09b17f101d34ea8b11e4046f792c7f3044ff2543007f32",
    ),
}


@pytest.mark.parametrize("spec", sorted(SIMPLE_LARGE_LATTICES))
def test_simple_large_lattices_pinned(spec, monkeypatch):
    checked = []
    holds = lattice_module._Recorded.holds

    def counting(self, S):
        checked.append(S)
        return holds(self, S)

    monkeypatch.setattr(lattice_module._Recorded, "holds", counting)
    lat = _fresh_lattice(spec)
    digest = hashlib.sha256(f"{_fingerprint(lat)}".encode()).hexdigest()
    counts = (lat.joins_exact, lat.joins_spent, lat.joins_materialised)
    assert counts + (digest,) == SIMPLE_LARGE_LATTICES[spec]
    # the newness check runs once per materialised join, not per subgroup
    assert len(checked) == lat.joins_materialised


def test_a_join_answer_already_recorded_is_an_invariant_error(monkeypatch):
    lat = _fresh_lattice("Sym(4)")
    answer = lat._join_answer

    def rebuilt(H, chain_H, x, K, lower):
        # a known answer built afresh, as if it had been materialised
        J = answer(H, chain_H, x, K, lower)
        return J if J is None else generated_subgroup(lat.table, J.gen_ids)

    monkeypatch.setattr(lat, "_join_answer", rebuilt)
    with pytest.raises(InvariantError, match="recorded already"):
        lat.maximal_subgroups()


@pytest.mark.parametrize("spec", ["Alt(6)", "PGL2(7)"])
def test_conjugates_are_the_brute_force_orbits(spec):
    lat = _fresh_lattice(spec)
    bg = brute_of(spec)
    seen: set[bytes] = set()
    for S in lat.all_subgroups():
        if S.key in seen:
            continue
        orbit = lat.conjugates(S)
        assert {subgroup_ids(C) for C in orbit} == bg.conjugacy_orbit(subgroup_ids(S))
        assert [C.key for C in orbit] == sorted({C.key for C in orbit})
        assert any(C is S for C in orbit)
        for C in orbit:
            assert generated_subgroup(lat.table, C.gen_ids).key == C.key
        seen.update(C.key for C in orbit)


def test_m11_joins_materialised(m11):
    lat = lattice(m11)
    assert lat.joins_spent == 5285
    assert lat.joins_materialised == _non_cyclic_classes(lat) == 30


def test_joins_answered_from_overgroups_still_spend_budget():
    G = _fresh("Alt(6)")
    with pytest.raises(BudgetExhaustedError) as err:
        sigma(G, SigmaOptions(join_budget=334))
    assert err.value.budget == 334
    assert sigma(G, SigmaOptions(join_budget=335)).sigma == 16
    assert lattice(G).joins_spent == 335


@pytest.mark.parametrize(
    "spec", ["Sym(5)", "Alt(6)", "PGL2(7)", "AGL1(16)", "Frobenius(11,5)"]
)
def test_maximal_cyclic_subgroups_match_containment_reference(spec):
    lat = lattice(grp(spec))
    cyc = lat.cyclic_subgroups()
    want = [
        C for C in cyc
        if not any(D.order > C.order and C.issubset(D) for D in cyc)
    ]
    assert [C.key for C in lat.maximal_cyclic_subgroups()] == [C.key for C in want]
