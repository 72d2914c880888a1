"""Stabilizer chains, element tables, membership, and determinism."""

from __future__ import annotations

import numpy as np
import pytest

from groupcover import (
    MANIFEST,
    CapExceededError,
    PermGroup,
    Permutation,
    center,
    construct,
    parse_cycles,
)
from groupcover.group import StabilizerChain, power_rows

from conftest import grp
from oracles import (
    conj_by_lookup,
    lmul_by_lookup,
    o_closure,
    o_compose,
    o_inverse,
    o_order,
    quotient,
)


def test_orders_by_chain():
    assert grp("Sym(3)").order() == 6
    assert grp("Sym(4)").order() == 24
    assert grp("Sym(5)").order() == 120
    assert grp("Sym(6)").order() == 720
    assert grp("Alt(4)").order() == 12
    assert grp("Alt(5)").order() == 60
    assert grp("Alt(6)").order() == 360
    assert grp("Alt(7)").order() == 2520
    assert grp("M11").order() == 7920
    assert grp("M11").degree == 11
    assert grp("PSL3(2)").order() == 168
    assert grp("PGammaL2(8)").order() == 1512


def test_order_matches_closure_oracle():
    for spec in ["Sym(4)", "Alt(5)", "Dihedral(7)", "Frobenius(11,5)", "AGL1(8)"]:
        G = grp(spec)
        gens = [g.zero for g in G.generators]
        assert G.order() == len(o_closure(gens, G.degree))


def test_membership():
    G = grp("Alt(5)")
    a, b = G.generators[0], G.generators[1]
    assert G.contains(a * b * a.inverse())
    assert G.contains(parse_cycles("(1 2 3)", 5))
    assert not G.contains(parse_cycles("(1 2)", 5))  # odd permutation
    S = grp("Sym(5)")
    assert S.contains(parse_cycles("(1 2)", 5))


def test_sift_of_member_is_identity():
    G = grp("Sym(4)")
    chain = G.chain
    for g in G.generators:
        x = (g * g * G.generators[0]).zero
        assert chain.contains(x)
        assert chain.sift(x) == tuple(range(4))
    outside = parse_cycles("(1 2)", 4).zero
    H = PermGroup([parse_cycles("(1 2 3)", 4)], degree=4)
    assert not H.chain.contains(outside)
    assert H.chain.sift(outside) != tuple(range(4))


def test_chain_base_and_incremental_build():
    chain = StabilizerChain.build(
        [parse_cycles("(1 2 3 4 5)", 5).zero, parse_cycles("(1 2)", 5).zero], 5
    )
    assert chain.order() == 120
    assert len(chain.base()) >= 1
    grew = chain.copy()
    assert grew.order() == 120
    fresh = StabilizerChain.build([], 3)
    assert fresh.order() == 1
    assert fresh.add_generator(parse_cycles("(1 2 3)", 3).zero)
    assert fresh.order() == 3
    assert not fresh.add_generator(parse_cycles("(1 3 2)", 3).zero)


def test_trivial_cyclic_abelian_flags():
    assert PermGroup([], degree=3).is_trivial()
    assert grp("Cyclic(6)").is_cyclic()
    assert grp("Cyclic(30)").is_cyclic()
    assert not grp("ElemAbelian(2,2)").is_cyclic()
    assert grp("ElemAbelian(2,2)").is_abelian()
    assert grp("Cyclic(9)").is_abelian()
    assert not grp("Sym(3)").is_cyclic()
    assert not grp("Sym(3)").is_abelian()


def test_element_table_rows_sorted_and_identity_first():
    for spec in ["Sym(4)", "Alt(5)", "Dihedral(6)"]:
        T = grp(spec).table()
        assert T.n == grp(spec).order()
        rows = [bytes(T.rows[i]) for i in range(T.n)]
        assert rows == sorted(rows), "element ids must be lexicographic ranks"
        assert list(T.rows[0]) == list(range(T.degree))


def _sym4_elements():
    """Sym(4)'s element table, its elements as image tuples by ID, and
    their IDs."""
    T = grp("Sym(4)").table()
    elems = [tuple(int(x) for x in T.rows[i]) for i in range(T.n)]
    return T, elems, {e: i for i, e in enumerate(elems)}


def test_element_table_arithmetic_matches_oracle():
    T, elems, idx = _sym4_elements()
    all_ids = np.arange(T.n, dtype=np.int32)
    for a in range(T.n):
        # lmul: apply a, then each x
        want = [idx[o_compose(elems[a], e)] for e in elems]
        assert T.lmul(a, all_ids).tolist() == want
        assert T.orders[a] == o_order(elems[a])
        assert T.inverse[a] == idx[o_inverse(elems[a])]
    powers = list(elems)  # the k-th power of every element, from k = 1
    for k in range(1, 13):
        assert T.lookup_rows(power_rows(T.rows, k)).tolist() == [idx[p] for p in powers]
        powers = [o_compose(p, e) for p, e in zip(powers, elems)]


def test_element_table_conjugation():
    T, elems, idx = _sym4_elements()
    all_ids = np.arange(T.n, dtype=np.int32)
    for g in range(T.n):
        # conj gives g^-1 * x * g in left-to-right composition
        ginv = o_inverse(elems[g])
        want = [idx[o_compose(o_compose(ginv, e), elems[g])] for e in elems]
        assert T.conj(all_ids, g).tolist() == want
        assert (T.orders[want] == T.orders).all()


def _right_regular(spec: str) -> PermGroup:
    """The catalog group acting on its own element IDs by right
    multiplication."""
    T = grp(spec).table()
    gens = [
        Permutation((T.lookup_rows(T.rows[g][T.rows]) + 1).tolist())
        for g in T.generator_ids()
    ]
    return PermGroup(gens, degree=T.n)


@pytest.mark.parametrize(
    "spec", ["Sym(4)", "Dihedral(6)", "AGL1(16)", "M11", "regular Alt(5)"]
)
def test_word_gathers_match_the_sift_lookups(spec):
    G = _right_regular("Alt(5)") if spec == "regular Alt(5)" else grp(spec)
    T = G.table()
    all_ids = np.arange(T.n, dtype=np.int32)
    for h in np.random.default_rng(17).integers(T.n, size=20).tolist():
        assert np.array_equal(T.lmul(h, all_ids), lmul_by_lookup(T, h, all_ids))
        assert np.array_equal(T.conj(all_ids, h), conj_by_lookup(T, all_ids, h))
    for k, g in enumerate(T.generator_ids()):
        assert np.array_equal(T.conj_by_gen()[k], conj_by_lookup(T, all_ids, g))
    assert T.word(T.identity_id) == []


def test_lookup_rows_round_trip_small_and_wide_degree():
    # int8 table (degree <= 120)
    T = grp("Alt(5)").table()
    ids = np.array([0, 3, 17, 59], dtype=np.int32)
    assert list(T.lookup_rows(T.rows[ids])) == list(ids)
    # int16 table: a quotient action can easily exceed 120 points
    from groupcover import lattice

    G = grp("ASL3(2)")
    lat = lattice(G)
    soc = [N for N in lat.normal_subgroups() if N.order == 8]
    assert len(soc) == 1
    Q = quotient(lat, soc[0])
    assert Q.order() == 168
    TQ = Q.table()
    assert TQ.rows.dtype == np.int16 or TQ.degree <= 120
    some = np.array([0, 1, TQ.n - 1], dtype=np.int32)
    assert list(TQ.lookup_rows(TQ.rows[some])) == list(some)


def _asl32_quotient_table():
    """The int16 table of ASL3(2) modulo its translations (168 points)."""
    from groupcover import lattice

    lat = lattice(grp("ASL3(2)"))
    (soc,) = [N for N in lat.normal_subgroups() if N.order == 8]
    TQ = quotient(lat, soc).table()
    assert TQ.rows.dtype == np.int16 and TQ.degree == 168
    return TQ


def _outside_rows(T):
    """Rows that are not elements of T's group."""
    d = T.degree
    swap = np.arange(d, dtype=T.rows.dtype)
    swap[[0, 1]] = [1, 0]
    out = [swap]  # a transposition, in none of the groups tested
    if d == 6:  # Sym(6) holds every permutation of its points
        out = [
            np.array([0, 1, 2, 3, 4, 4], dtype=T.rows.dtype),  # residue not 1
            np.array([1, 1, 2, 3, 4, 5], dtype=T.rows.dtype),  # leaves an orbit
        ]
    return out


@pytest.mark.parametrize("which", ["Alt(5)", "Sym(6)", "ASL3(2)/2^3"])
def test_lookup_rows_rejects_rows_outside_the_group(which):
    T = _asl32_quotient_table() if which == "ASL3(2)/2^3" else grp(which).table()
    inside = T.rows[[0, T.n - 1]]
    for row in _outside_rows(T):
        with pytest.raises(KeyError):
            T.lookup_rows(row[None, :])
        with pytest.raises(KeyError):
            T.lookup_rows(np.vstack([inside, row[None, :]]))
        assert T.id_of_row(row) is None
        if len(set(row.tolist())) == T.degree:
            p = Permutation._from_zero(tuple(int(x) for x in row))
            assert T.id_of_row(np.array(p.zero)) is None
    assert list(T.lookup_rows(inside)) == [0, T.n - 1]


@pytest.mark.parametrize("which", ["Sym(6)", "ASL3(2)/2^3"])
def test_lookup_rows_round_trips_every_id(which):
    T = _asl32_quotient_table() if which == "ASL3(2)/2^3" else grp(which).table()
    ids = np.arange(T.n, dtype=np.int32)
    assert (T.lookup_rows(T.rows) == ids).all()
    shuffled = np.random.default_rng(0).permutation(ids).astype(np.int32)
    assert (T.lookup_rows(T.rows[shuffled]) == shuffled).all()
    assert all(T.id_of_row(T.rows[i]) == i for i in range(0, T.n, 7))


def test_extended_chain_stops_above_its_limit():
    chain = StabilizerChain.build([parse_cycles("(1 2 3)", 4).zero], 4)
    four_cycle = parse_cycles("(1 2 3 4)", 4).zero
    assert chain.extended(four_cycle, 12) is None  # ⟨(1 2 3), (1 2 3 4)⟩ = Sym(4)
    full = chain.extended(four_cycle, 24)
    assert full is not None and full.order() == 24
    s3 = chain.extended(parse_cycles("(1 2)", 4).zero, 12)
    assert s3 is not None and s3.order() == 6
    assert s3.add_generator(four_cycle)  # a finished chain has no limit left
    assert s3.order() == 24
    assert chain.order() == 3  # the original chain is left untouched


def test_id_of_perm():
    G = grp("Sym(3)")
    T = G.table()
    assert T.id_of_row(np.array(parse_cycles("()", 3).zero)) == 0
    assert T.id_of_row(np.array(parse_cycles("(1 2 3)", 3).zero)) is not None
    H = grp("Alt(4)")
    assert H.table().id_of_row(np.array(parse_cycles("(1 2)", 4).zero)) is None
    # another degree
    assert T.id_of_row(np.array(parse_cycles("(1 2 3)", 4).zero)) is None
    assert T.id_of_row(np.array(parse_cycles("()", 4).zero)) is None


def test_id_of_row_rejects_rows_that_are_not_permutations():
    T = grp("Sym(4)").table()
    for row in ([0, 0, 1, 2], [3, 3, 3, 3], [0, 1, 2, 4], [0, 1, 2], [0, 1, 2, 3, 4]):
        assert T.id_of_row(np.array(row)) is None, row
    assert T.id_of_row(np.array([0, 1, 2, 3])) == T.identity_id


def test_element_table_rejects_a_chain_of_a_proper_subgroup():
    G = PermGroup(grp("Sym(4)").generators, degree=4)  # not the cached group
    first = G.generators[0]
    G._chain = StabilizerChain.build([first.zero], G.degree)
    assert G.order() == first.order() < 24
    with pytest.raises(AssertionError):
        G.table()


_REFERENCE_TABLES = [
    s for s in MANIFEST if grp(s).order() <= 500
] + ["Cyclic(1)", "ASL3(2)/2^3"]


@pytest.mark.parametrize("which", _REFERENCE_TABLES)
def test_element_table_matches_closure_oracle(which):
    T = _asl32_quotient_table() if which == "ASL3(2)/2^3" else grp(which).table()
    gens = [g.zero for g in T.group.generators]
    want = sorted(o_closure(gens, T.degree))
    assert [tuple(r) for r in T.rows.tolist()] == want  # rows are sorted already
    assert T.orders.tolist() == [o_order(e) for e in want]


def test_cap_enforced():
    G = grp("Alt(8)")
    assert G.order() == 20160
    with pytest.raises(CapExceededError) as err:
        G.table(20000)
    assert err.value.order == 20160 and err.value.cap == 20000
    with pytest.raises(CapExceededError):
        grp("Sym(8)").table()
    # a table, lattice or σ already built under the default cap does not
    # let a later call with a smaller cap through
    from groupcover import SigmaOptions, lattice, sigma

    A5 = grp("Alt(5)")
    lattice(A5).maximal_subgroups()
    with pytest.raises(CapExceededError):
        lattice(A5, cap=10)
    with pytest.raises(CapExceededError):
        A5.table(10)
    with pytest.raises(CapExceededError):
        sigma(A5, SigmaOptions(cap=10))


def test_center():
    assert center(grp("Sym(3)")).order == 1
    assert center(grp("Dihedral(4)")).order == 2  # order-8 dihedral
    assert center(grp("ElemAbelian(3,2)")).order == 9
    assert center(grp("M11")).order == 1


def test_fresh_builds_are_deterministic():
    def build(spec):
        base = construct(spec)
        G = PermGroup(list(base.generators), degree=base.degree, name=spec)
        from groupcover.subgroup_lattice import SubgroupLattice

        lat = SubgroupLattice(G)
        return (
            bytes(G.table().rows.tobytes()),
            [M.digest for M in lat.maximal_subgroups()],
        )

    for spec in ["Alt(5)", "Sym(4)", "Frobenius(11,5)"]:
        assert build(spec) == build(spec)
