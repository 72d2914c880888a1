"""Covering numbers, elementary verdicts, the solvable formula, and counts."""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from functools import lru_cache, reduce
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from groupcover import (
    BudgetExhaustedError,
    CyclicGroupError,
    INFINITY,
    InvariantError,
    PermGroup,
    Permutation,
    SigmaOptions,
    count_symmetric_order_elements,
    derived_series,
    derived_subgroup,
    has_klein_quotient,
    is_sigma_elementary,
    is_solvable,
    lattice,
    sigma,
    sigma_value,
    solvable_elementary_check,
    structural_audit,
    tomkinson_sigma,
)
from groupcover.analysis import (
    EXPECTED_CLASSIFICATION,
    ISOMORPHIC_ALIASES,
    SIGMA_EXPECTATIONS,
    classification_report,
)

from conftest import grp, manifest_upto
from oracles import quotient


def test_sigma_of_cyclic_groups_is_infinite():
    for spec in ["Cyclic(4)", "Cyclic(6)", "Cyclic(9)", "Cyclic(30)"]:
        res = sigma(grp(spec))
        assert res.sigma is INFINITY
        assert res.cover is None or res.cover == []


def test_small_sigma_values():
    for spec, want in [
        ("ElemAbelian(2,2)", 3),
        ("Sym(3)", 4),
        ("Sym(4)", 4),
        ("Alt(4)", 5),
        ("Dihedral(5)", 6),
        ("AGL1(5)", 6),
        ("ElemAbelian(5,2)", 6),
        ("Dihedral(7)", 8),
        ("Frobenius(7,3)", 8),
        ("AGL1(7)", 8),
        ("ElemAbelian(7,2)", 8),
        ("AGL1(8)", 9),
        ("AffineSemilinear(9,4,1)", 10),
        ("AGL1(9)", 10),
        ("Alt(5)", 10),
        ("Dihedral(6)", 3),
        ("PGammaL2(9)", 3),
        ("Sym(6)", 13),
        ("PSL3(2)", 15),
        ("PSL2(7)", 15),
        ("Sym(5)", 16),
        ("Alt(6)", 16),
        ("PSL2(9)", 16),
        ("AffineSemilinear(16,5,1)", 17),
        ("AGL1(16)", 17),
    ]:
        assert sigma_value(grp(spec)) == want, spec


def test_sigma_result_fields_and_cover_validity():
    from groupcover import verify_cover

    res = sigma(grp("Alt(5)"))
    assert res.sigma == 10 and res.order == 60 and res.degree == 5
    assert len(res.cover) == 10
    assert verify_cover(grp("Alt(5)"), res.cover).ok
    assert res.interval is None
    assert any(c.kind == "counting-bound" for c in res.certificates)
    assert res.stats["rows"] == 31 and res.stats["columns"] == 21


def test_sigma_results_are_cached():
    G = grp("Sym(5)")
    assert sigma(G) is sigma(G)
    # enumeration upgrades the cached result
    res = sigma(G, SigmaOptions(enumerate_all=True, enumerate_limit=10))
    assert res.optimal_count is not None


def test_sigma_never_two_seven_eleven():
    for spec in manifest_upto(500):
        s = sigma_value(grp(spec))
        if s is not INFINITY:
            assert s not in (2, 7, 11), spec


def test_scorza_equivalence():
    for spec, klein in [
        ("ElemAbelian(2,2)", True),
        ("Dihedral(6)", True),
        ("PGammaL2(9)", True),
        ("Dihedral(4)", True),
        ("Sym(3)", False),
        ("Alt(4)", False),
        ("Dihedral(5)", False),
        ("Sym(4)", False),
        ("Alt(5)", False),
    ]:
        assert has_klein_quotient(grp(spec)) == klein, spec
        s = sigma_value(grp(spec))
        assert (s == 3) == klein, spec


def test_derived_series_and_solvability():
    S4 = grp("Sym(4)")
    d1 = derived_subgroup(S4)
    assert d1.order == 12
    series = derived_series(S4)
    assert [S.order for S in series] == [24, 12, 4, 1]
    assert derived_subgroup(grp("Alt(5)")).order == 60  # perfect
    assert derived_subgroup(grp("Sym(3)")).order == 3
    assert derived_subgroup(grp("Dihedral(5)")).order == 5
    assert is_solvable(grp("Sym(4)"))
    assert is_solvable(grp("AGL1(16)"))
    assert is_solvable(grp("Frobenius(23,11)"))
    assert not is_solvable(grp("Alt(5)"))
    assert not is_solvable(grp("ASL3(2)"))
    assert not is_solvable(grp("M11"))


def test_tomkinson_formula():
    for spec, q, s in [
        ("Dihedral(5)", 5, 6),
        ("Sym(4)", 3, 4),
        ("ElemAbelian(2,2)", 2, 3),
        ("Dihedral(4)", 2, 3),
        ("AGL1(8)", 8, 9),
        ("Frobenius(13,4)", 13, 14),
        ("AffineSemilinear(9,4,1)", 9, 10),
        ("AGL1(16)", 16, 17),
    ]:
        res = tomkinson_sigma(grp(spec))
        assert res.q == q and res.sigma == s, spec
        assert res.sigma == sigma_value(grp(spec)), spec


def test_tomkinson_rejects_nonsolvable_and_cyclic():
    with pytest.raises(ValueError, match="not solvable"):
        tomkinson_sigma(grp("Alt(5)"))
    with pytest.raises(CyclicGroupError):
        tomkinson_sigma(grp("Cyclic(9)"))


def test_is_sigma_elementary_verdicts():
    assert is_sigma_elementary(grp("Sym(3)")).is_elementary
    assert is_sigma_elementary(grp("ElemAbelian(2,2)")).is_elementary
    assert is_sigma_elementary(grp("Alt(4)")).is_elementary
    assert is_sigma_elementary(grp("Alt(5)")).is_elementary
    assert is_sigma_elementary(grp("Sym(6)")).is_elementary

    v = is_sigma_elementary(grp("Sym(4)"))
    assert not v.is_elementary
    assert v.witness["normal_order"] == 4 and v.witness["quotient_sigma"] == 4

    v2 = is_sigma_elementary(grp("Dihedral(6)"))
    assert not v2.is_elementary  # its Klein quotient already has sigma 3

    v3 = is_sigma_elementary(grp("PGammaL2(9)"))
    assert not v3.is_elementary


def test_quotient_monotonicity_spot():
    latS4 = lattice(grp("Sym(4)"))
    for N in latS4.normal_subgroups():
        if N.order in (1, 24):
            continue
        q = sigma_value(quotient(latS4, N))
        assert sigma_value(grp("Sym(4)")) <= q


def test_elementary_quotient_sigmas_recorded():
    v = is_sigma_elementary(grp("Alt(4)"))
    assert v.is_elementary
    # non-trivial normal subgroups: V4 and G; both quotients are cyclic
    assert len(v.quotient_sigmas) == 2
    for rec in v.quotient_sigmas.values():
        assert rec["quotient_sigma"] is INFINITY


def _klein_by_derived_quotient(G) -> bool:
    """C₂×C₂ is a quotient of G iff G/G' has at least four elements of order
    at most 2: the test on the derived quotient group itself."""
    D = derived_subgroup(G)
    if (G.order() // D.order) % 4 != 0:
        return False
    QT = quotient(lattice(G), D).table()
    return int((QT.orders <= 2).sum()) >= 4


def test_quotient_sigmas_match_quotient_groups():
    specs = [s for s in manifest_upto(500) if not grp(s).is_cyclic()]
    for spec in specs + ["ASL3(2)", "PGammaL2(9)"]:
        G = grp(spec)
        lat = lattice(G)
        by_digest = {N.digest: N for N in lat.normal_subgroups()}
        v = is_sigma_elementary(G)
        assert len(v.quotient_sigmas) == len(by_digest) - 1, spec
        for digest, rec in v.quotient_sigmas.items():
            want = sigma_value(quotient(lat, by_digest[digest]))
            assert rec["quotient_sigma"] == want, (spec, rec["normal_order"])
        assert has_klein_quotient(G) == _klein_by_derived_quotient(G), spec


def _fresh(spec: str):
    """A catalog group with none of the caches of the shared catalog copy."""
    from groupcover import PermGroup

    base = grp(spec)
    return PermGroup(list(base.generators), degree=base.degree, name=spec)


def test_quotient_facts_build_no_quotient_group(monkeypatch):
    from groupcover import PermGroup

    cases = [
        ("Sym(4)", False, (True, 4, False, False, False, 4)),
        ("Dihedral(6)", True, (False, 6, True, False, False, 3)),
        ("AGL1(16)", False, (True, 16, True, True, True, 17)),
    ]
    groups = [_fresh(spec) for spec, _, _ in cases]
    S4, C6 = _fresh("Sym(4)"), _fresh("Cyclic(6)")

    def no_group(self, *args, **kwargs):
        raise AssertionError("a group was built")

    monkeypatch.setattr(PermGroup, "__init__", no_group)
    # the Klein answers and solvable reports that quotient groups gave
    keys = ("monolithic", "socle_order", "cyclic_over_socle",
            "predicted_elementary", "computed_elementary", "sigma")
    for G, (spec, klein, report) in zip(groups, cases):
        assert has_klein_quotient(G) == klein, spec
        rep = solvable_elementary_check(G)
        assert rep == {"group": spec, **dict(zip(keys, report)), "ok": True}
        v = is_sigma_elementary(G)
        assert (v.is_elementary, v.sigma) == (report[4], report[5]), spec
    assert is_sigma_elementary(S4).quotient_sigmas == {
        "d5c01b858b719b83": {"normal_order": 4, "quotient_sigma": 4},
        "25f55028a1e8aab1": {"normal_order": 12, "quotient_sigma": INFINITY},
        "2cfd140f2f1bc5b1": {"normal_order": 24, "quotient_sigma": INFINITY},
    }
    v = is_sigma_elementary(C6)
    assert not v.is_elementary and v.sigma is INFINITY
    assert [r["normal_order"] for r in v.quotient_sigmas.values()] == [2, 3, 6]
    assert all(r["quotient_sigma"] is INFINITY for r in v.quotient_sigmas.values())
    assert v.witness["normal_order"] == 2
    assert not has_klein_quotient(C6)
    with pytest.raises(ValueError, match="abelian"):
        solvable_elementary_check(C6)


def test_structure_queries_build_no_subgroup_from_generators(monkeypatch):
    from groupcover.group import StabilizerChain

    # derived orders, solvable, socle order, abelian minimal normal
    # subgroups, and the solvable report (None when G is not solvable)
    cases = {
        "Sym(4)": ([24, 12, 4, 1], True, 4, 1, (True, 4, False, False, False, 4)),
        "AGL1(16)": ([240, 16, 1], True, 16, 1, (True, 16, True, True, True, 17)),
        "Alt(5)": ([60], False, 60, 0, None),
        "PGammaL2(9)": ([1440, 360], False, 360, 0, None),
    }
    groups = {spec: _fresh(spec) for spec in cases}
    for G in groups.values():
        lattice(G).normal_subgroups()

    def no_chain(self, z, level=0):
        raise AssertionError("a subgroup was built from generators")

    monkeypatch.setattr(StabilizerChain, "add_generator", no_chain)
    keys = ("monolithic", "socle_order", "cyclic_over_socle",
            "predicted_elementary", "computed_elementary", "sigma")
    for spec, (orders, solvable, socle, abelian_minimals, report) in cases.items():
        G = groups[spec]
        # G' is the second term, or G itself when G is perfect
        assert derived_subgroup(G).order == (orders[1:] or orders)[0], spec
        assert [S.order for S in derived_series(G)] == orders, spec
        assert is_solvable(G) == solvable, spec
        assert lattice(G).socle().order == socle, spec
        if report is None:
            with pytest.raises(ValueError, match="not solvable"):
                solvable_elementary_check(G)
        else:
            rep = solvable_elementary_check(G)
            assert rep == {"group": spec, **dict(zip(keys, report)), "ok": True}
        audit = structural_audit(G)
        assert audit["abelian_minimal_normal_count"] == abelian_minimals, spec
        assert audit["ok"], spec


def test_solvable_elementary_check():
    for spec in [
        "Dihedral(5)",
        "AGL1(7)",
        "Frobenius(11,5)",
        "Sym(4)",
        "Dihedral(6)",
        "AGL1(16)",
        "AffineSemilinear(9,4,1)",
    ]:
        rep = solvable_elementary_check(grp(spec))
        assert rep["ok"], spec
        if rep["computed_elementary"]:
            assert rep["sigma"] == rep["socle_order"] + 1, spec
    with pytest.raises(ValueError, match="not solvable"):
        solvable_elementary_check(grp("Alt(5)"))
    # the monolithic-socle characterization is for non-abelian groups only:
    # elementary abelian squares are sigma-elementary without being monolithic
    with pytest.raises(ValueError, match="abelian"):
        solvable_elementary_check(grp("ElemAbelian(5,2)"))


def _prime_power(q: int):
    """(p, e) with q = p^e, or None when q is not a prime power."""
    p = next(p for p in range(2, q + 1) if q % p == 0)
    e = 0
    while q % p == 0:
        q //= p
        e += 1
    return (p, e) if q == 1 else None


def _order_mod(p: int, d: int) -> int:
    """The multiplicative order of p modulo d, for d ≥ 2 coprime to p."""
    e, x = 1, p % d
    while x != 1:
        x, e = x * p % d, e + 1
    return e


def test_solvable_rows_are_derived_from_theory():
    """The classification's solvable rows, generated, not listed.

    Tomkinson, "Groups as the union of proper subgroups" (Math. Scand.
    1997): a solvable σ-elementary group is C_p × C_p with σ = p + 1, or
    monolithic and cyclic over its socle with σ = |soc| + 1, the form that
    ``solvable_elementary_check`` asserts.  By Schur's lemma a cyclic group
    acting irreducibly on F_p^e lies in a Singer cycle, so the non-abelian
    candidates are F_q ⋊ C_d, q = p^e and d | q − 1: irreducible exactly
    when the order of p mod d is e.
    """
    derived, reducible = [], []
    for p in range(2, 25):
        if _prime_power(p) == (p, 1):
            verdict = is_sigma_elementary(grp(f"ElemAbelian({p},2)"))
            assert (verdict.is_elementary, verdict.sigma) == (True, p + 1), p
            derived.append((p + 1, p * p))
    for q in range(3, 25):
        pe = _prime_power(q)
        if pe is None:
            continue
        p, e = pe
        for d in range(2, q):
            if (q - 1) % d:
                continue
            verdict = is_sigma_elementary(grp(f"AffineSemilinear({q},{d},1)"))
            if _order_mod(p, d) == e:
                assert (verdict.is_elementary, verdict.sigma) == (True, q + 1), (q, d)
                derived.append((q + 1, q * d))
            else:
                assert not verdict.is_elementary, (q, d)
                reducible.append((q, d))
    assert reducible == [(9, 2), (16, 3)]
    listed = [
        (s, grp(name).order())
        for s, names in EXPECTED_CLASSIFICATION.items()
        for name in names
        if is_solvable(grp(name))
    ]
    assert Counter(derived) == Counter(listed)


def test_solvable_elementary_check_keeps_the_join_budget():
    G = _fresh("Sym(4)")  # its worklist needs 28 joins
    with pytest.raises(BudgetExhaustedError):
        solvable_elementary_check(G, SigmaOptions(join_budget=3))
    keys = ("monolithic", "socle_order", "cyclic_over_socle",
            "predicted_elementary", "computed_elementary", "sigma")
    assert solvable_elementary_check(G) == {
        "group": "Sym(4)", **dict(zip(keys, (True, 4, False, False, False, 4))),
        "ok": True,
    }


def test_structural_audit():
    for spec in ["Alt(5)", "Sym(3)", "PSL3(2)", "Sym(6)", "AGL1(8)"]:
        rep = structural_audit(grp(spec))
        assert rep["ok"] and rep["frattini_order"] == 1 and rep["centre_order"] == 1
    with pytest.raises(InvariantError, match="centre"):
        structural_audit(grp("Dihedral(6)"))  # centre of order 2
    with pytest.raises(InvariantError, match="Frattini"):
        structural_audit(grp("Cyclic(4)"))


def test_sigma_forcing_option_is_conservative():
    plain = sigma_value(grp("Sym(4)"))
    strong = sigma_value(grp("Sym(4)"), SigmaOptions(sigma_forcing=True))
    assert plain == strong == 4


def test_sigma_respects_node_budget_interval():
    from groupcover import PermGroup, construct

    base = construct("Alt(5)")
    fresh = PermGroup(list(base.generators), degree=base.degree, name="budget-case")
    res = sigma(fresh, SigmaOptions(node_budget=1))
    assert res.sigma is None
    lo, hi = res.interval
    assert lo <= 10 <= hi


def test_enumeration_budget_still_reports_sigma():
    # the solve needs no node for σ = 8; enumerating the 2 optimal covers does
    res = sigma(_fresh("AGL1(7)"), SigmaOptions(enumerate_all=True, node_budget=1))
    assert res.sigma == 8 and res.interval is None and len(res.cover) == 8
    assert res.optimal_count is None and res.unique is None
    assert "optimal_covers" not in res.stats


# the options that shape a σ document: enumeration, its limit, the node budget
_DOC_OPTIONS = [
    SigmaOptions(enumerate_all=e, enumerate_limit=limit, node_budget=budget)
    for e in (False, True)
    for limit in (1, 1000)
    for budget in (1, 10**8)
]


def _sigma_outcome(G, opts: SigmaOptions):
    """The σ document, or the error when a budget runs out mid-enumeration."""
    from groupcover.cli import _result_document

    try:
        return _result_document(sigma(G, opts))
    except BudgetExhaustedError as e:
        return repr(e)


@lru_cache(maxsize=None)
def _fresh_outcome(spec: str, opts: SigmaOptions):
    return _sigma_outcome(_fresh(spec), opts)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    spec=st.sampled_from(["Alt(5)", "AGL1(7)"]),  # 15 and 2 optimal covers
    calls=st.lists(st.sampled_from(_DOC_OPTIONS), min_size=1, max_size=5),
)
def test_sigma_document_does_not_depend_on_earlier_calls(spec, calls):
    G = _fresh(spec)
    for opts in calls:
        assert _sigma_outcome(G, opts) == _fresh_outcome(spec, opts), opts


def _presented(G: PermGroup, data) -> PermGroup:
    """G under another presentation: its points relabelled by a random
    permutation, 0-3 extra fixed points, two random words in its generators
    as extra generators, and every generator in reversed order."""
    n = G.degree + data.draw(st.integers(0, 3), label="extra points")
    pi = data.draw(st.permutations(range(n)), label="relabelling")
    words = st.lists(st.sampled_from(G.generators), min_size=1, max_size=5)
    gens = list(G.generators) + [
        reduce(mul, data.draw(words, label="word")) for _ in range(2)
    ]
    out = []
    for g in reversed(gens):
        img = list(g.zero) + list(range(G.degree, n))
        z = [0] * n
        for x in range(n):
            z[pi[x]] = pi[img[x]]
        out.append(Permutation([v + 1 for v in z]))
    return PermGroup(out, degree=n)


def _presentation_facts(G: PermGroup) -> tuple:
    """What must not depend on the presentation; node counts and covers
    follow the element IDs, so they may."""
    res = sigma(G, SigmaOptions(enumerate_all=True))
    stats = {k: res.stats[k] for k in ("root_lower_bound", "forced", "rows", "columns")}
    return (
        res.sigma,
        res.optimal_count,
        stats,
        len(lattice(G).all_subgroups()),
        is_sigma_elementary(G).is_elementary,
    )


@lru_cache(maxsize=None)
def _catalog_facts(spec: str) -> tuple:
    return _presentation_facts(grp(spec))


@pytest.mark.parametrize(
    "spec", [s for s in manifest_upto(200) if not grp(s).is_cyclic()]
)
@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_answer_does_not_depend_on_the_presentation(spec, data):
    H = _presented(grp(spec), data)
    assert _presentation_facts(H) == _catalog_facts(spec)


def test_tomkinson_leaves_numpy_ma_unloaded():
    """The derived series closes its frontier without np.unique, which
    imports numpy.ma into the process on first use."""
    import os
    import subprocess
    import sys

    import groupcover

    code = (
        "import sys\n"
        "from groupcover import PermGroup, construct, tomkinson_sigma\n"
        "base = construct('Sym(4)')\n"
        "G = PermGroup(list(base.generators), degree=base.degree)\n"
        "assert tomkinson_sigma(G).sigma == 4\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(groupcover.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_count_symmetric_order_elements():
    assert count_symmetric_order_elements(3, 2) == 3
    assert count_symmetric_order_elements(4, 2) == 9
    assert count_symmetric_order_elements(5, 6) == 20
    assert count_symmetric_order_elements(7, 7) == 720
    assert count_symmetric_order_elements(10, 21) == 172800
    assert count_symmetric_order_elements(5, 7) == 0
    with pytest.raises(ValueError):
        count_symmetric_order_elements(0, 2)
    with pytest.raises(ValueError):
        count_symmetric_order_elements(31, 2)
    with pytest.raises(ValueError):
        count_symmetric_order_elements(5, 0)


def test_count_symmetric_matches_element_table():
    T = grp("Sym(6)").table()
    hist = Counter(int(o) for o in T.orders)
    for k in sorted(hist):
        assert count_symmetric_order_elements(6, k) == hist[k], k
    assert count_symmetric_order_elements(6, 7) == 0


def test_expectation_tables_are_well_formed():
    from groupcover import MANIFEST

    for n, members in EXPECTED_CLASSIFICATION.items():
        assert 3 <= n <= 25
        assert len(members) == len(set(members))
        for name in members:
            assert name in MANIFEST, name
    for a, b in ISOMORPHIC_ALIASES.items():
        assert a in MANIFEST and b in MANIFEST
    for name, rec in SIGMA_EXPECTATIONS.items():
        assert name in MANIFEST
        assert isinstance(rec["sigma"], int) and rec["sigma"] >= 3


def test_classification_report_keeps_to_the_papers_sums():
    for max_sum in (2, 26):
        with pytest.raises(ValueError, match="range 3..25"):
            classification_report(max_sum)


def test_alias_fold_flags_a_partner_outside_the_row(monkeypatch):
    from groupcover import analysis

    # PSL2(7) is not Alt(5): the fold finds no partner in its row, and the
    # pair disagrees on σ; PSL2(9) and Alt(6) fold as usual
    monkeypatch.setattr(
        analysis, "ISOMORPHIC_ALIASES", {"PSL2(7)": "Alt(5)", "PSL2(9)": "Alt(6)"}
    )
    report = analysis.classification_report(16, SigmaOptions(cap=400))
    assert report["ok"] is False
    assert report["flags"][-3:] == [
        "PSL2(7): isomorphic partner Alt(5) missing from sum 15",
        "PSL2(9): same group as Alt(6), listed once under sum 16",
        "isomorphic pair disagrees: PSL2(7) -> 15, Alt(5) -> 10",
    ]
    rows = {r["sum"]: r["computed"] for r in report["rows"]}
    assert rows[15] == ["PSL3(2)"]
    assert rows[16] == ["Alt(6)", "Sym(5)"]
