"""Permutations of {1, ..., n}: arithmetic plus cycle-notation parse/render.

Composition is left to right: ``(a * b)(x) == b(a(x))``.  Points are 1-based
in all public interfaces; the internal image table is 0-based.
"""

from __future__ import annotations

import re
from math import lcm
from operator import itemgetter

from .errors import CycleSyntaxError, PointOutOfRangeError, RepeatedPointError

_TOKEN = re.compile(r"\(|\)|,|\s+|\d+|\S")


def compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Apply a first, then b (0-based image tuples)."""
    if len(a) > 1:  # with one index, itemgetter returns an item, not a tuple
        return itemgetter(*a)(b)
    return tuple(b[x] for x in a)


def invert(a: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


class Permutation:
    """An immutable permutation of {1, ..., degree}."""

    __slots__ = ("zero",)

    def __init__(self, images):
        """Build from a 1-based image sequence; images[i] is the image of i+1."""
        img = tuple(int(x) for x in images)
        n = len(img)
        if sorted(img) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {img}")
        object.__setattr__(self, "zero", tuple(x - 1 for x in img))

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @classmethod
    def _from_zero(cls, z: tuple[int, ...]) -> "Permutation":
        p = object.__new__(cls)
        object.__setattr__(p, "zero", z)
        return p

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls._from_zero(tuple(range(degree)))

    @property
    def degree(self) -> int:
        return len(self.zero)

    @property
    def images(self) -> tuple[int, ...]:
        """The 1-based image table."""
        return tuple(x + 1 for x in self.zero)

    def __call__(self, point: int) -> int:
        """Image of a 1-based point."""
        return self.zero[point - 1] + 1

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Permutation._from_zero(compose(self.zero, other.zero))

    def inverse(self) -> "Permutation":
        return Permutation._from_zero(invert(self.zero))

    def __pow__(self, k: int) -> "Permutation":
        if k < 0:
            return self.inverse() ** (-k)
        result = tuple(range(self.degree))
        base = self.zero
        while k:
            if k & 1:
                result = compose(result, base)
            base = compose(base, base)
            k >>= 1
        return Permutation._from_zero(result)

    def is_identity(self) -> bool:
        return all(x == i for i, x in enumerate(self.zero))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles as 1-based tuples, each starting at its least point."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            x = self.zero[start]
            while x != start:
                seen[x] = True
                cyc.append(x)
                x = self.zero[x]
            if len(cyc) > 1:
                out.append(tuple(p + 1 for p in cyc))
        return out

    def order(self) -> int:
        return lcm(*(len(c) for c in self.cycles()))  # lcm() is 1

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cycs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.zero == other.zero

    def __hash__(self) -> int:
        return hash(self.zero)

    def __repr__(self) -> str:
        return f"Permutation[{self.degree}] {self.cycle_string()}"


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse cycle notation like ``(1 2 3)(4 5)`` into a permutation.

    Raises CycleSyntaxError for malformed input, PointOutOfRangeError for a
    point outside 1..degree, RepeatedPointError for a duplicated point.  The
    empty string and ``()`` denote the identity.
    """
    images = list(range(degree))
    used: set[int] = set()
    current: list[int] | None = None
    for m in _TOKEN.finditer(text):
        tok = m.group()
        if tok.isspace() or tok == ",":
            continue
        if tok == "(":
            if current is not None:
                raise CycleSyntaxError("nested '(' in cycle notation", token=tok)
            current = []
        elif tok == ")":
            if current is None:
                raise CycleSyntaxError("unmatched ')' in cycle notation", token=tok)
            for a, b in zip(current, current[1:] + current[:1]):
                images[a] = b
            current = None
        elif tok.isdigit():
            if current is None:
                raise CycleSyntaxError(f"point {tok} outside any cycle", token=tok)
            point = int(tok)
            if not 1 <= point <= degree:
                raise PointOutOfRangeError(
                    f"point {point} out of range 1..{degree}", token=tok
                )
            if point - 1 in used:
                raise RepeatedPointError(f"point {point} repeated", token=tok)
            used.add(point - 1)
            current.append(point - 1)
        else:
            raise CycleSyntaxError(f"unexpected token {tok!r}", token=tok)
    if current is not None:
        raise CycleSyntaxError("unclosed '(' in cycle notation", token="(")
    return Permutation._from_zero(tuple(images))
