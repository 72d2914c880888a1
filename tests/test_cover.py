"""Cover instances, bounds, reductions, the exact solver, and verification."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from groupcover import (
    BudgetExhaustedError,
    CoverInstance,
    CyclicGroupError,
    INFINITY,
    PermGroup,
    SigmaOptions,
    build_instance,
    counting_lower_bound,
    enumerate_optimal_covers,
    greedy_upper_bound,
    is_sigma_elementary,
    lattice,
    reduce as reduce_instance,
    sigma,
    solve_exact,
    verify_cover,
)

from groupcover.cover import DEFAULT_NODE_BUDGET, _Search
from groupcover.errors import CapExceededError
from groupcover.perm import parse_cycles

from conftest import brute_of, grp, manifest_upto
from oracles import reference_verify_cover


def _covers_every_row(ins, cols) -> bool:
    covered = 0
    for j in cols:
        covered |= ins.col_rows[j]
    return covered == (1 << len(ins.rows)) - 1


def test_sym3_instance_is_identity_incidence():
    ins = build_instance(grp("Sym(3)"))
    assert len(ins.rows) == 4 and len(ins.cols) == 4
    assert sum(c.bit_count() for c in ins.col_rows) == 4
    assert all(c.bit_count() == 1 for c in ins.col_rows)
    assert all(r.bit_count() == 1 for r in ins.row_cols)


def test_alt5_instance_shape():
    ins = build_instance(grp("Alt(5)"))
    row_orders = Counter(r.order for r in ins.rows)
    col_orders = Counter(c.order for c in ins.cols)
    assert row_orders == {2: 15, 3: 10, 5: 6}
    assert col_orders == {12: 5, 6: 10, 10: 6}
    assert (len(ins.row_cols), len(ins.col_rows)) == (31, 21)
    assert max(ins.row_cols).bit_length() <= 21 and max(ins.col_rows).bit_length() <= 31


def test_instance_rejects_cyclic():
    with pytest.raises(CyclicGroupError):
        build_instance(grp("Cyclic(6)"))
    with pytest.raises(CyclicGroupError):
        build_instance(grp("Cyclic(30)"))


def test_one_instance_build_per_group(monkeypatch):
    builds = []
    init = CoverInstance.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CoverInstance, "__init__", counting_init)
    base = grp("Alt(5)")
    G = PermGroup(list(base.generators), degree=base.degree, name="Alt(5)")
    assert sigma(G).sigma == 10
    assert is_sigma_elementary(G).is_elementary
    assert counting_lower_bound(G, 5).payload["bound"] == 6
    ins = build_instance(G)
    assert len(builds) == 1
    # each copy reduces on its own lists and shares the incidence
    reduce_instance(ins)
    assert ins.forced and ins.certificates
    later = build_instance(G)
    assert later.forced == [] and later.certificates == []
    assert later.col_rows is ins.col_rows
    assert len(builds) == 1


def test_instance_is_deterministic():
    a = build_instance(grp("Alt(5)"))
    b = build_instance(grp("Alt(5)"))
    assert [c.digest for c in a.cols] == [c.digest for c in b.cols]
    assert [r.digest for r in a.rows] == [r.digest for r in b.rows]
    assert a.row_cols == b.row_cols and a.col_rows == b.col_rows


def test_counting_lower_bound_small():
    cert = counting_lower_bound(grp("Alt(5)"), 5)
    assert cert.kind == "counting-bound"
    assert cert.payload["order"] == 5
    assert cert.payload["elements"] == 24
    assert cert.payload["max_per_subgroup"] == 4  # a D10 holds four 5-elements
    assert cert.payload["bound"] == 6
    cert2 = counting_lower_bound(grp("Sym(3)"), 2)
    assert cert2.payload["elements"] == 3 and cert2.payload["bound"] == 3
    d = cert.as_dict()
    assert d["kind"] == "counting-bound" and d["bound"] == 6


def test_counting_lower_bound_errors():
    with pytest.raises(ValueError):
        counting_lower_bound(grp("Alt(5)"), 4)  # no elements of order 4
    with pytest.raises(CyclicGroupError):
        counting_lower_bound(grp("Cyclic(6)"), 2)


def test_counting_bound_never_exceeds_sigma():
    from groupcover import sigma_value

    for spec in ["Sym(3)", "Alt(4)", "Alt(5)", "Dihedral(7)", "AGL1(8)", "Sym(5)"]:
        G = grp(spec)
        s = sigma_value(G)
        T = G.table()
        for k in sorted(set(int(o) for o in T.orders) - {1}):
            assert counting_lower_bound(G, k).payload["bound"] <= s, (spec, k)


def test_greedy_upper_bound_is_a_cover():
    for spec in ["Alt(5)", "Sym(4)", "PSL3(2)", "Frobenius(11,5)"]:
        ins = build_instance(grp(spec))
        chosen = greedy_upper_bound(ins)
        assert _covers_every_row(ins, chosen), spec


# (spec, greedy cover, unique-coverer count, sha256 prefix of the
# certificates, forced set after reduce); the greedy cover is the same
# before and after the unique-coverage pass on these groups, and a second
# reduce with the greedy size as upper bound forces nothing more
GREEDY_REDUCE_PINS = [
    ("Alt(6)", [0, 1, 2, 4, 5, 7, 8, 11, 13, 14, 22, 26, 33, 35, 36, 37, 41],
     0, "4f53cda18c2baa0c", []),
    ("PSL2(9)", [1, 2, 5, 6, 7, 9, 10, 16, 19, 20, 21, 27, 32, 34, 36, 39, 47],
     0, "4f53cda18c2baa0c", []),
    ("Sym(5)", [0, 1, 2, 3, 4, 5, 7, 8, 9, 10, 12, 13, 15, 16, 18, 19],
     10, "0ac1e742a0231a6a", [3, 5, 7, 9, 10, 12, 13, 15, 16, 19]),
    ("PGL2(7)", [2, 3, 6, 7, 8, 9, 10, 12, 13, 16, 17, 18, 19, 20, 24, 27, 28,
                 30, 31, 34, 37, 40, 42, 43, 45, 46, 48, 51, 57],
     21, "26d1116c22e0261d", [2, 3, 6, 7, 9, 10, 13, 16, 17, 19, 20, 24, 27, 30,
                              31, 37, 40, 42, 45, 46, 57]),
    ("ASL3(2)", [0, 1, 2, 4, 5, 6, 8, 9, 11, 13, 17, 26, 28, 32, 34],
     0, "4f53cda18c2baa0c", []),
]


@pytest.mark.parametrize(
    "spec,greedy,n_certs,digest,forced",
    GREEDY_REDUCE_PINS,
    ids=[p[0] for p in GREEDY_REDUCE_PINS],
)
def test_greedy_and_reduce_are_pinned(spec, greedy, n_certs, digest, forced):
    import hashlib

    ins = build_instance(grp(spec))
    assert greedy_upper_bound(ins) == greedy
    reduce_instance(ins)
    assert ins.forced == forced
    assert greedy_upper_bound(ins) == greedy
    reduce_instance(ins, upper_bound=len(greedy))
    assert ins.forced == forced
    certs = [c.as_dict() for c in ins.certificates]
    assert len(certs) == n_certs
    assert all(c["kind"] == "unique-coverer" for c in certs)
    assert sorted(c["column"] for c in certs) == sorted(ins.cols[j].digest for j in forced)
    assert hashlib.sha256(repr(certs).encode()).hexdigest()[:16] == digest


def test_unique_coverage_reduction_forces_columns():
    ins = build_instance(grp("Alt(4)"))
    reduce_instance(ins)
    # each C3 row forces its own C3 column; the C2 rows force the Klein column
    assert len(ins.forced) == 5
    kinds = Counter(c.kind for c in ins.certificates)
    assert kinds["unique-coverer"] == 5
    assert Counter(c.payload["row_order"] for c in ins.certificates) == {3: 4, 2: 1}
    forced_orders = Counter(ins.cols[j].order for j in ins.forced)
    assert forced_orders == {3: 4, 4: 1}


def test_sym3_reduction_forces_everything():
    ins = build_instance(grp("Sym(3)"))
    reduce_instance(ins)
    assert len(ins.forced) == 4
    sigma, cover, stats = solve_exact(ins)
    assert sigma == 4 and sorted(cover) == [0, 1, 2, 3]


def test_solve_exact_small_sigmas():
    for spec, want in [
        ("ElemAbelian(2,2)", 3),
        ("Sym(3)", 4),
        ("Alt(4)", 5),
        ("Dihedral(5)", 6),
        ("Sym(4)", 4),
        ("ElemAbelian(3,2)", 4),
    ]:
        ins = build_instance(grp(spec))
        sigma, cover, stats = solve_exact(ins)
        assert sigma == want, spec
        assert len(cover) == want
        assert _covers_every_row(ins, cover)
        assert stats["root_lower_bound"] <= want


def test_solver_matches_brute_oracle_on_small_groups():
    from groupcover import sigma_value

    for spec in ["Sym(3)", "Alt(4)", "Dihedral(6)", "Frobenius(7,3)", "ElemAbelian(5,2)"]:
        assert sigma_value(grp(spec)) == brute_of(spec).min_cover_size(), spec


def test_node_budget_exhaustion_yields_interval():
    ins = build_instance(grp("Alt(5)"))
    with pytest.raises(BudgetExhaustedError) as err:
        solve_exact(ins, node_budget=1)
    assert err.value.lower is not None and err.value.upper is not None
    assert err.value.lower <= 10 <= err.value.upper


# (spec, solve nodes, solve cover, interval at nodes - 1, enumerate nodes,
#  optimal covers, sha256 prefix of repr(covers)), on the instance as σ
# reduces it; any change to the branch-and-bound tree moves one of these
SEARCH_TREE_PINS = [
    ("Alt(6)", 5210, [1, 7, 8, 11, 13, 14, 17, 19, 26, 28, 30, 33, 36, 37, 42, 50],
     (11, 16), 9012, 2, "94bf967fed6b2e6e"),
    ("PSL2(9)", 5109, [1, 5, 6, 7, 9, 10, 16, 19, 20, 27, 34, 36, 39, 41, 47, 49],
     (11, 16), 8898, 2, "ff651fabb4a57fd7"),
    ("Sym(6)", 90, [4, 6, 9, 11, 20, 23, 29, 34, 38, 43, 45, 48, 50],
     (10, 13), 311, 1, "a88039ce08524fd2"),
    ("PGL2(7)", 58, [2, 3, 6, 7, 8, 9, 10, 12, 13, 16, 17, 18, 19, 20, 24, 27, 28,
                     30, 31, 34, 37, 40, 42, 43, 45, 46, 48, 51, 57],
     (26, 29), 188, 37, "4892c02f2e7e32b8"),
    ("ASL3(2)", 3106, [0, 1, 2, 4, 5, 6, 8, 9, 11, 13, 17, 26, 28, 32, 34],
     (8, 15), 6749, 34, "7d756210c12f5542"),
]


@pytest.mark.parametrize(
    "spec,nodes,cover,interval,enum_nodes,count,digest",
    SEARCH_TREE_PINS,
    ids=[p[0] for p in SEARCH_TREE_PINS],
)
def test_search_tree_is_pinned(spec, nodes, cover, interval, enum_nodes, count, digest):
    import hashlib

    ins = build_instance(grp(spec))
    reduce_instance(ins)
    reduce_instance(ins, upper_bound=len(greedy_upper_bound(ins)))
    sigma, got, stats = solve_exact(ins)
    assert (stats["nodes"], got, sigma) == (nodes, cover, len(cover))
    with pytest.raises(BudgetExhaustedError) as err:
        solve_exact(ins, node_budget=nodes - 1)
    assert (err.value.lower, err.value.upper) == interval
    with pytest.raises(BudgetExhaustedError):
        enumerate_optimal_covers(ins, sigma, node_budget=enum_nodes - 1)
    n, covers, exact = enumerate_optimal_covers(ins, sigma, node_budget=enum_nodes)
    assert exact and n == count == len(covers)
    assert hashlib.sha256(repr(covers).encode()).hexdigest()[:16] == digest


# (spec, order of the normal N, nodes, σ(G/N), root bound) of searches from
# the mask of the columns that contain N, with none chosen
QUOTIENT_SEARCH_PINS = [
    ("ASL3(2)", 8, 5, 15, 13),
    ("Sym(6)", 1, 90, 13, 10),
    ("PSL2(8)", 1, 93, 36, 33),
]


def _quotient_masks(ins):
    """Each normal N with a non-cyclic quotient, with the mask of the
    columns that contain N."""
    for N in ins.lat.normal_subgroups():
        cols = sum(1 << j for j, M in enumerate(ins.cols) if N.issubset(M))
        if all(r & cols for r in ins.row_cols):
            yield N, cols


@pytest.mark.parametrize(
    "spec,n_order,nodes,value,root_lb",
    QUOTIENT_SEARCH_PINS,
    ids=[f"{p[0]}/{p[1]}" for p in QUOTIENT_SEARCH_PINS],
)
def test_quotient_search_tree_is_pinned(spec, n_order, nodes, value, root_lb):
    ins = build_instance(grp(spec))
    [cols] = [cols for N, cols in _quotient_masks(ins) if N.order == n_order]
    search = _Search(ins, DEFAULT_NODE_BUDGET, cols)
    assert search.solve()[::2] == (value, root_lb)
    assert search.nodes == nodes


def test_search_matches_the_reference_search():
    """The search on count planes visits the same tree as the reference
    search, which makes a pass over the columns at every node: the same
    nodes, covers, root bound and optimal covers, on each full instance as
    σ reduces it and from each non-cyclic quotient's column mask."""
    from oracles import ReferenceSearch

    for spec in manifest_upto(2000):
        G = grp(spec)
        if G.is_cyclic():
            continue
        ins = reduce_instance(build_instance(G))
        for cols in [None] + [cols for _, cols in _quotient_masks(ins)]:
            new = _Search(ins, DEFAULT_NODE_BUDGET, cols)
            ref = ReferenceSearch(ins, DEFAULT_NODE_BUDGET, cols)
            got = new.solve()
            assert (got, new.nodes) == (ref.solve(), ref.nodes), (spec, cols)
            if cols is None:
                value = got[0]
        new = _Search(ins, DEFAULT_NODE_BUDGET)
        ref = ReferenceSearch(ins, DEFAULT_NODE_BUDGET)
        assert (new.enumerate(value, 1000), new.nodes) == (
            ref.enumerate(value, 1000), ref.nodes
        ), spec


def _outcome(search, call):
    """What a search call gives, or the interval its budget exhaustion
    reports, with the nodes spent either way."""
    try:
        return call(search), search.nodes
    except BudgetExhaustedError as err:
        return (type(err), err.lower, err.upper), search.nodes


def test_budget_runs_out_at_the_reference_search_node():
    """Children that the parent's counting test prunes are spent but not
    called, so a node budget runs out at the same node as in the reference
    search, with the same interval: solve from each mask of the matching
    test above, and enumerate on each full instance, at budgets 1, n/2 and
    n − 1 for n the reference's nodes."""
    from oracles import ReferenceSearch

    for spec in manifest_upto(2000):
        G = grp(spec)
        if G.is_cyclic():
            continue
        ins = reduce_instance(build_instance(G))
        masks = [None] + [cols for _, cols in _quotient_masks(ins)]
        runs = [(cols, lambda s: s.solve()) for cols in masks]
        runs.append((None, lambda s: s.enumerate(value, 1000)))
        for i, (cols, call) in enumerate(runs):
            # the matching test above pins n to the reference's node count
            result, n = _outcome(_Search(ins, DEFAULT_NODE_BUDGET, cols), call)
            if i == 0:  # the full instance's σ, which the last run enumerates at
                value = result[0]
            for budget in sorted({1, n // 2, n - 1} - {0}):
                got = _outcome(_Search(ins, budget, cols), call)
                want = _outcome(ReferenceSearch(ins, budget, cols), call)
                assert got == want, (spec, cols, budget)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(spec=st.sampled_from(["Alt(6)", "Sym(5)", "ASL3(2)"]), data=st.data())
def test_count_tiers_and_handed_down_bounds_answer_exactly(spec, data):
    """On random search states: the residual bound read off the count tiers
    equals the reference's walk down the columns, and the counting-bound
    test, given a bounds list made at any state above, answers whether some
    available column holds t = ⌈u/r⌉ of the u uncovered rows."""
    from oracles import ReferenceSearch

    from groupcover.cover import _bit_indices, _column_counts

    ins = build_instance(grp(spec))
    col_rows = ins.col_rows

    def mask(bits, label):
        return data.draw(st.integers(0, (1 << bits) - 1), label=label)

    def counts(uncov, avail):
        return [(col_rows[c] & uncov).bit_count() for c in _bit_indices(avail)]

    elems = mask(ins.table.n, "covered elements") | 1 << ins.table.identity_id
    avail = mask(len(ins.cols), "available columns")
    assert ins.residual_lower_bound(elems, avail) == ReferenceSearch(
        ins, DEFAULT_NODE_BUDGET
    ).residual_lower_bound(elems, avail)

    # the state the bounds list was made at, then a state below it
    uncov_above = mask(len(ins.rows), "uncovered rows above")
    most = max(counts(uncov_above, avail), default=0)
    floor = data.draw(st.integers(1, most + 1), label="floor")
    bounds = (floor, _column_counts(col_rows, uncov_above, _bit_indices(avail), floor))
    uncov = uncov_above & mask(len(ins.rows), "rows kept")
    avail &= mask(len(ins.cols), "columns kept")
    u = uncov.bit_count()
    r = data.draw(st.integers(0, max(u, 1)), label="columns allowed")
    kept = _Search(ins, DEFAULT_NODE_BUDGET)._counted(bounds, uncov, avail, r)
    met = u == 0 or r >= 1 and max(counts(uncov, avail), default=0) >= -(u // -r)
    assert (kept is not None) == met
    if kept is not None:
        # what it keeps still bounds every column that can reach its floor
        listed = dict((c, n) for n, c in kept[1])
        for c in _bit_indices(avail):
            n = (col_rows[c] & uncov).bit_count()
            assert n < kept[0] or listed.get(c, -1) >= n


def test_enumerate_alt5_optimal_covers():
    ins = build_instance(grp("Alt(5)"))
    sigma, cover, _ = solve_exact(ins)
    assert sigma == 10
    count, covers, exact = enumerate_optimal_covers(ins, sigma, limit=1000)
    assert exact and count == 15 and len(covers) == 15
    # every optimal cover uses all six D10s, plus either four A4s, or
    # three A4s and one S3
    for cov in covers:
        orders = Counter(ins.cols[j].order for j in cov)
        assert orders[10] == 6
        assert orders in (
            {10: 6, 12: 4},
            {10: 6, 12: 3, 6: 1},
        )
    shapes = Counter(tuple(sorted(Counter(ins.cols[j].order for j in cov).items())) for cov in covers)
    assert shapes[((6, 1), (10, 6), (12, 3))] == 10
    assert shapes[((10, 6), (12, 4))] == 5


def test_enumerate_limit_reports_lower_bound():
    ins = build_instance(grp("Alt(5)"))
    count, covers, exact = enumerate_optimal_covers(ins, 10, limit=5)
    assert not exact and count == ">=6" and len(covers) == 5


def test_verify_cover_round_trip():
    for spec in ["Alt(5)", "Sym(4)", "Frobenius(13,4)"]:
        G = grp(spec)
        ins = build_instance(G)
        sigma, cover, _ = solve_exact(ins)
        families = [ins.describe_col(j) for j in cover]
        res = verify_cover(G, families)
        assert res.ok, (spec, res.reason)


def test_verify_rejects_improper_member():
    G = grp("Alt(5)")
    gens = [g.cycle_string() for g in G.generators]
    res = verify_cover(G, [gens])
    assert not res.ok and res.reason == "subgroup-not-proper"
    # subgroups are checked in order: G itself first, a foreign generator next
    res = verify_cover(G, [gens, ["(1 2)"]])
    assert not res.ok and res.reason == "subgroup-not-proper"
    assert res.witness == "subgroup 0"


def test_verify_rejects_uncovered():
    G = grp("Alt(5)")
    ins = build_instance(G)
    sigma, cover, _ = solve_exact(ins)
    families = [ins.describe_col(j) for j in cover[:-1]]
    res = verify_cover(G, families)
    assert not res.ok and res.reason == "element-uncovered"
    assert isinstance(res.witness, str) and res.witness.startswith("(")
    missing = res.witness
    from groupcover import parse_cycles

    assert G.contains(parse_cycles(missing, G.degree))


def test_verify_rejects_foreign_generator():
    from groupcover import parse_cycles

    G = grp("Alt(5)")
    res = verify_cover(G, [["(1 2)"]])  # odd permutation, not in Alt(5)
    assert not res.ok and res.reason == "generator-outside-group"
    res = verify_cover(G, [[parse_cycles("(1 2 3)", 6)]])  # another degree
    assert not res.ok and res.reason == "generator-outside-group"
    assert res.witness == "subgroup 0: (1 2 3)"


def _tampered_covers(G, cover):
    """The cover itself, and three copies that must be rejected: one
    subgroup dropped, one generator replaced by a permutation outside G,
    one subgroup replaced by G's own generators."""
    mid = len(cover) // 2
    outside = parse_cycles("(1 2)", G.degree)
    if G.contains(outside):  # G holds every transposition: leave its degree
        outside = parse_cycles("(1 2)", G.degree + 1)
    foreign = [list(gens) for gens in cover]
    foreign[mid][0] = outside
    improper = [list(gens) for gens in cover]
    improper[mid] = [g.cycle_string() for g in G.generators]
    return {
        "cover": cover,
        "dropped": cover[:mid] + cover[mid + 1 :],
        "foreign": foreign,
        "improper": improper,
    }


def test_verify_matches_reference():
    for spec in manifest_upto(1000):
        G = grp(spec)
        if G.is_cyclic():
            continue
        for name, cover in _tampered_covers(G, sigma(G).cover).items():
            got = verify_cover(G, cover)
            assert got == reference_verify_cover(G, cover), (spec, name)
            assert got.ok == (name == "cover"), (spec, name)


def test_verify_edge_cases_match_reference():
    trivial = PermGroup([], degree=3)
    for G, cover in [(grp("Alt(5)"), []), (grp("Sym(3)"), [[]]), (trivial, []), (trivial, [[]])]:
        assert verify_cover(G, cover) == reference_verify_cover(G, cover)


def test_verify_builds_no_element_table():
    base = grp("PSL2(7)")
    cover = sigma(base).cover
    G = PermGroup(list(base.generators), degree=base.degree)
    assert verify_cover(G, cover).ok
    assert G._table is None
    res = verify_cover(G, cover[1:])  # a rejection names its witness without one too
    assert res.reason == "element-uncovered" and G._table is None
    assert verify_cover(G, cover, cap=G.order()).ok
    with pytest.raises(CapExceededError):
        verify_cover(G, cover, cap=G.order() - 1)


def test_forced_columns_appear_in_every_optimal_cover():
    ins = build_instance(grp("Alt(4)"))
    reduce_instance(ins)
    forced = set(ins.forced)
    sigma, cover, _ = solve_exact(ins)
    count, covers, exact = enumerate_optimal_covers(ins, sigma, limit=100)
    assert exact
    for cov in covers:
        assert forced <= set(cov)


def test_residual_lower_bound_additivity():
    """Counting bounds over disjoint column families add up."""
    ins = build_instance(grp("Alt(7)"))
    root = ins.residual_lower_bound(1, (1 << len(ins.cols)) - 1)  # identity element covered
    # order-7 elements alone force 15; order-6 elements add 11 more
    assert root >= 26


def test_infinity_ordering():
    assert INFINITY > 10**9
    assert not (INFINITY < 3)
    assert INFINITY == INFINITY
    assert INFINITY != 5
    assert min(INFINITY, 7) == 7
    assert max(INFINITY, 7) is INFINITY


def test_sigma_forcing_reads_the_maximal_classes_off_the_lattice(monkeypatch):
    # the worklist recorded every maximal class with its conjugates
    def recomputed(S):
        raise AssertionError("a maximal class was conjugated again")

    base = grp("PGammaL2(8)")
    G = PermGroup(list(base.generators), degree=base.degree)
    lat = lattice(G)
    lat.maximal_subgroups()
    monkeypatch.setattr(lat, "_orbit", recomputed)
    res = sigma(G, SigmaOptions(sigma_forcing=True))
    forced = [c for c in res.certificates if c.kind == "forced-subgroup"]
    assert res.sigma == 29
    assert [c.payload["column_order"] for c in forced] == [504]
