"""Catalog constructions, spec parsing, and group files."""

from __future__ import annotations

import hashlib

import pytest

from groupcover import (
    MANIFEST,
    GroupFileError,
    SpecError,
    construct,
    parse_group_file,
    parse_spec,
    render_group_file,
)

from conftest import grp
from oracles import o_closure


ORDER_CHECKS = {
    "Cyclic(30)": (30, None),
    "ElemAbelian(2,2)": (4, None),
    "ElemAbelian(23,2)": (529, None),
    "Dihedral(5)": (10, 5),
    "Dihedral(23)": (46, 23),
    "Frobenius(7,3)": (21, 7),
    "Frobenius(13,4)": (52, 13),
    "Frobenius(23,11)": (253, 23),
    "AGL1(5)": (20, 5),
    "AGL1(8)": (56, 8),
    "AGL1(16)": (240, 16),
    "AGL1(23)": (506, 23),
    "AffineSemilinear(9,4,1)": (36, 9),
    "AffineSemilinear(16,5,1)": (80, 16),
    "AffineSemilinear(8,7,3)": (168, 8),
    "Sym(6)": (720, 6),
    "Alt(7)": (2520, 7),
    "PSL3(2)": (168, 7),
    "PSL3(3)": (5616, 13),
    "ASL3(2)": (1344, 8),
    "PSL2(7)": (168, 8),
    "PGL2(7)": (336, 8),
    "PSL2(8)": (504, 9),
    "PGammaL2(8)": (1512, 9),
    "PSL2(9)": (360, 10),
    "PGL2(9)": (720, 10),
    "M10": (720, 10),
    "PGammaL2(9)": (1440, 10),
    "PSL2(11)": (660, 12),
    "PSL2(16)": (4080, 17),
    "PSL2(16):2": (8160, 17),
    "PGammaL2(16)": (16320, 17),
    "M11": (7920, 11),
}


def test_orders_and_degrees():
    for spec, (order, degree) in ORDER_CHECKS.items():
        G = grp(spec)
        assert G.order() == order, spec
        if degree is not None:
            assert G.degree == degree, spec


def test_small_orders_match_closure_oracle():
    for spec in ["Alt(5)", "Frobenius(13,4)", "AffineSemilinear(9,4,1)", "AGL1(9)"]:
        G = grp(spec)
        gens = [g.zero for g in G.generators]
        assert len(o_closure(gens, G.degree)) == G.order()


def test_transitive_actions():
    for spec in ["Alt(5)", "PSL3(2)", "M11", "AGL1(8)", "Dihedral(7)"]:
        G = grp(spec)
        orbit = {1}
        frontier = [1]
        while frontier:
            x = frontier.pop()
            for g in G.generators:
                y = g(x)
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        assert orbit == set(range(1, G.degree + 1)), spec


def test_manifest_all_construct_and_unique():
    assert len(MANIFEST) == len(set(MANIFEST))
    for spec in MANIFEST:
        G = construct(spec)
        assert G.order() >= 2
        assert parse_spec(spec).canonical() == spec


def test_parse_spec_normalization():
    assert parse_spec(" Dihedral( 5 ) ").canonical() == "Dihedral(5)"
    assert parse_spec("PSL2(16) : 2").canonical() == "PSL2(16):2"
    assert construct("Sym( 4 )").order() == 24


def test_spec_errors():
    for bad in [
        "Foo(3)",
        "Sym()",
        "Sym(1 2)",
        "Frobenius(6,2)",  # 6 is not prime
        "Frobenius(13,5)",  # 5 does not divide 12
        "AGL1(6)",  # not a prime power
        "AGL(4,2)",
        "PSL3(4)",
        "M22",
        "M23",
        "M24",
        "2^4:Alt(7)",
        "Cyclic(0)",
        "Cyclic(-3)",
        "ElemAbelian(4,2)",
        "Dihedral(1)",
        "PSL2(16):0",
    ]:
        with pytest.raises(SpecError):
            construct(bad)


# beyond the manifest: the out-of-sample groups of the roadmap, and affine
# groups over the fields of order 25, 27 and 32
CATALOG_EXTRA = (
    "PSL2(13)", "PSL2(17)", "PSL2(19)", "PSL2(23)", "PSL2(25)", "PSL2(27)",
    "PGL2(11)", "Sym(7)", "AGL1(25)", "AGL1(27)", "AGL1(32)",
)
CATALOG_MALFORMED = (
    "AGL1(6)", "PSL2(12)", "PSL2(33)", "Frobenius(15,2)", "ElemAbelian(9,2)",
    "PSL2(2,3)", "Sym(3):2", "Foo(3)",
)
# taken before prime factorisation had one owner in the package
CATALOG_DIGEST = "97cf5317269b3d56c4029752596e5120bc8db08dca8595b4119b89deef9c99d6"


def test_catalog_generators_pinned():
    # name, degree, generator images and order of every constructed group,
    # and the exception type and message of every malformed spec
    h = hashlib.sha256()
    for spec in MANIFEST + CATALOG_EXTRA:
        G = construct(spec)
        images = [g.zero for g in G.generators]
        h.update(f"{spec} {G.name} {G.degree} {images} {G.order()}\n".encode())
    for spec in CATALOG_MALFORMED:
        with pytest.raises(SpecError) as err:
            construct(spec)
        h.update(f"{spec} {type(err.value).__name__} {err.value}\n".encode())
    assert h.hexdigest() == CATALOG_DIGEST


def test_isomorphism_cross_checks():
    # same abstract group, different catalog constructions
    assert grp("PSL2(7)").order() == grp("PSL3(2)").order() == 168
    assert grp("PSL2(9)").order() == grp("Alt(6)").order() == 360
    # AffineSemilinear(8,7,3) is AGammaL(1,8) = AGL1(8) extended by Frobenius
    assert grp("AffineSemilinear(8,7,3)").order() == 168
    # the full Frobenius group of prime degree is the one-dimensional affine group
    assert construct("Frobenius(13,12)").order() == grp("AGL1(13)").order() == 156


def test_group_file_generator_form():
    text = "degree 4\ngen (1 2)(3 4)\ngen (1 3)(2 4)\n"
    G = parse_group_file(text)
    assert G.order() == 4
    assert not G.is_cyclic()


def test_group_file_catalog_form():
    G = parse_group_file("catalog: Dihedral(5)\n")
    assert G.order() == 10


def test_group_file_comments_and_blank_lines():
    text = "# a Klein four-group\n\ndegree 4\ngen (1 2)(3 4)\ngen (1 3)(2 4)\n"
    assert parse_group_file(text).order() == 4


def test_group_file_errors_carry_line_numbers():
    with pytest.raises(GroupFileError) as err:
        parse_group_file("degree 4\ngen (1 9)\n")
    assert err.value.line_no == 2
    with pytest.raises(GroupFileError):
        parse_group_file("gen (1 2)\n")  # generator before degree
    with pytest.raises(GroupFileError):
        parse_group_file("degree x\n")
    with pytest.raises(GroupFileError):
        parse_group_file("degree 4\nfrobnicate\n")
    # an unknown catalog spec inside a group file reports the offending line
    with pytest.raises(GroupFileError):
        parse_group_file("catalog: M99\n")


def test_render_round_trip():
    for spec in ["Alt(5)", "Frobenius(11,5)", "M11"]:
        G = grp(spec)
        H = parse_group_file(render_group_file(G))
        assert H.degree == G.degree
        assert H.order() == G.order()
        for g in G.generators:
            assert H.contains(g)
