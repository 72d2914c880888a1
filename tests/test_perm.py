"""Cycle notation, composition, and permutation arithmetic."""

from __future__ import annotations

import pytest

from groupcover import ParseError, Permutation, parse_cycles
from groupcover.errors import (
    CycleSyntaxError,
    PointOutOfRangeError,
    RepeatedPointError,
)
from groupcover.perm import compose, invert

from oracles import o_compose, o_inverse, o_order


def test_parse_simple_cycle():
    p = parse_cycles("(1 2 3)", 5)
    assert p.images == (2, 3, 1, 4, 5)
    assert p(1) == 2 and p(3) == 1 and p(4) == 4


def test_parse_multiple_cycles_and_commas():
    p = parse_cycles("(1 2)(3 4 5)", 5)
    q = parse_cycles("(1,2)(3,4,5)", 5)
    assert p == q
    assert p.cycles() == [(1, 2), (3, 4, 5)]


def test_identity_forms():
    assert parse_cycles("()", 4) == Permutation.identity(4)
    assert parse_cycles("", 4) == Permutation.identity(4)
    assert Permutation.identity(4).cycle_string() == "()"
    assert Permutation.identity(4).is_identity()


def test_cycle_string_round_trip():
    for text in ["(1 2 3)(4 5)", "(2 6)(3 5)", "()", "(1 10 2)"]:
        p = parse_cycles(text, 10)
        assert parse_cycles(p.cycle_string(), 10) == p


def test_cycles_least_point_first():
    assert parse_cycles("(2 1)", 3).cycle_string() == "(1 2)"
    assert parse_cycles("(3 1 2)", 3).cycles() == [(1, 2, 3)]


def test_parse_errors():
    with pytest.raises(PointOutOfRangeError):
        parse_cycles("(1 6)", 5)
    with pytest.raises(PointOutOfRangeError):
        parse_cycles("(0 1)", 5)
    with pytest.raises(RepeatedPointError):
        parse_cycles("(1 2)(2 3)", 5)
    with pytest.raises(RepeatedPointError):
        parse_cycles("(1 1)", 5)
    with pytest.raises(CycleSyntaxError):
        parse_cycles("(1 2", 5)
    with pytest.raises(CycleSyntaxError):
        parse_cycles("1 2)", 5)
    with pytest.raises(CycleSyntaxError):
        parse_cycles("(1 x)", 5)
    # every parse failure is a ParseError for the command line's exit code
    for bad in ["(1 6)", "(1 1)", "(1 2"]:
        with pytest.raises(ParseError):
            parse_cycles(bad, 5)


@pytest.mark.parametrize(
    "text, error, message, token",
    [
        ("(1 6)", PointOutOfRangeError, "point 6 out of range 1..5", "6"),
        ("(0 1)", PointOutOfRangeError, "point 0 out of range 1..5", "0"),
        ("(1 2)(2 3)", RepeatedPointError, "point 2 repeated", "2"),
        ("(1 1)", RepeatedPointError, "point 1 repeated", "1"),
        ("(1 2", CycleSyntaxError, "unclosed '(' in cycle notation", "("),
        ("1 2)", CycleSyntaxError, "point 1 outside any cycle", "1"),
        ("(1 x)", CycleSyntaxError, "unexpected token 'x'", "x"),
        ("(1 2))", CycleSyntaxError, "unmatched ')' in cycle notation", ")"),
        ("(1 2)a", CycleSyntaxError, "unexpected token 'a'", "a"),
        ("((1 2))", CycleSyntaxError, "nested '(' in cycle notation", "("),
    ],
)
def test_parse_error_details(text, error, message, token):
    # the exact class, message and offending token of each parse failure
    with pytest.raises(ParseError) as info:
        parse_cycles(text, 5)
    assert type(info.value) is error
    assert str(info.value) == message
    assert info.value.token == token


def test_parse_rejects_digits_int_cannot_read():
    # a superscript digit is a digit to str.isdigit but not to int()
    with pytest.raises(CycleSyntaxError, match="unexpected token '²'"):
        parse_cycles("(1 ²)", 5)


def test_parse_skips_whitespace():
    p = parse_cycles(" ( 1\t2 ,3 )\n(4  5) ", 5)
    assert p == parse_cycles("(1 2 3)(4 5)", 5)


def test_composition_is_left_to_right():
    a = parse_cycles("(1 2)", 3)
    b = parse_cycles("(2 3)", 3)
    # apply a first (1 -> 2), then b (2 -> 3)
    assert (a * b)(1) == 3
    assert (a * b).cycle_string() == "(1 3 2)"
    assert (b * a)(1) == 2


def test_degree_mismatch():
    with pytest.raises(ValueError):
        parse_cycles("(1 2)", 3) * parse_cycles("(1 2)", 4)


def test_inverse_and_power():
    p = parse_cycles("(1 2 3 4 5)", 5)
    assert p * p.inverse() == Permutation.identity(5)
    assert p**5 == Permutation.identity(5)
    assert p**-1 == p.inverse()
    assert p**7 == p * p
    assert (p**0).is_identity()


def test_order():
    assert parse_cycles("(1 2)(3 4 5)", 5).order() == 6
    assert parse_cycles("(1 2 3 4)", 4).order() == 4
    assert Permutation.identity(3).order() == 1
    p = parse_cycles("(1 2)(3 4 5)(6 7 8 9 10)", 10)
    assert p.order() == 30


def test_images_constructor_validation():
    assert Permutation((2, 1, 3)).cycle_string() == "(1 2)"
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation((0, 1, 2))


def test_immutability_and_hash():
    p = parse_cycles("(1 2)", 3)
    with pytest.raises(AttributeError):
        p.zero = (0, 1, 2)
    assert len({p, parse_cycles("(2 1)", 3)}) == 1


def test_zero_based_kernel_matches_oracle():
    a = parse_cycles("(1 4 2)(3 5)", 6)
    b = parse_cycles("(2 3 4 5 6)", 6)
    assert compose(a.zero, b.zero) == o_compose(a.zero, b.zero)
    assert invert(a.zero) == o_inverse(a.zero)
    assert a.order() == o_order(a.zero)
    assert (a * b).zero == o_compose(a.zero, b.zero)
