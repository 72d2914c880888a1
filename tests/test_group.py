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
from groupcover.group import StabilizerChain

from conftest import grp
from oracles import o_closure, o_order


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


def test_element_table_arithmetic_matches_oracle():
    T = grp("Sym(4)").table()
    elems = [tuple(int(x) for x in T.rows[i]) for i in range(T.n)]
    idx = {e: i for i, e in enumerate(elems)}
    for a in range(0, T.n, 5):
        for b in range(0, T.n, 7):
            ea, eb = elems[a], elems[b]
            want = idx[tuple(eb[x] for x in ea)]  # apply a, then b
            assert T.mul(a, b) == want
    for a in range(T.n):
        assert T.orders[a] == o_order(elems[a])
        assert T.mul(a, int(T.inverse[a])) == T.identity_id
        assert T.mul(int(T.inverse[a]), a) == T.identity_id
        assert T.power(a, T.orders[a]) == 0


def test_element_table_conjugation():
    T = grp("Sym(4)").table()
    for x in [1, 5, 11]:
        for g in [2, 7, 20]:
            # conj_rows gives g^-1 * x * g in left-to-right composition
            ginv = T.power(g, T.orders[g] - 1)
            xg = int(T.conj_rows([x], g)[0])
            assert xg == T.mul(T.mul(ginv, x), g)
            assert T.orders[xg] == T.orders[x]


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
    Q = lat.quotient(soc[0])
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
    TQ = lat.quotient(soc).table()
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
            assert T.id_of_perm(p) is None
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
    assert T.id_of_perm(parse_cycles("()", 3)) == 0
    assert T.id_of_perm(parse_cycles("(1 2 3)", 3)) is not None
    H = grp("Alt(4)")
    assert H.table().id_of_perm(parse_cycles("(1 2)", 4)) is None
    assert T.id_of_perm(parse_cycles("(1 2 3)", 4)) is None  # another degree
    assert T.id_of_perm(parse_cycles("()", 4)) is None


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
