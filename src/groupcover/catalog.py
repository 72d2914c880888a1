"""Constructions of named permutation groups and group-file parsing.

Every construction is deterministic: point orderings, field tables, and
generator lists are fixed, so the same spec always yields the same generator
tuple and hence the same element IDs downstream.  Each constructor asserts
the expected group order after building the stabilizer chain, which catches
typos in generator data immediately.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from math import factorial, gcd

from .errors import GroupFileError, InvariantError, SpecError
from .group import PermGroup, prime_factors
from .perm import Permutation, parse_cycles

# ---------------------------------------------------------------------------
# finite fields of order up to 32

_REDUCTIONS = {
    # q -> coefficients of x^e as a lower-degree polynomial (little-endian)
    4: [1, 1],
    8: [1, 1, 0],
    9: [2, 0],
    16: [1, 1, 0, 0],
    25: [2, 0],
    27: [2, 1, 0],
    32: [1, 0, 1, 0, 0],
}


class _Field:
    """Arithmetic tables for GF(q), q <= 32; elements are ints 0..q-1."""

    def __init__(self, q: int):
        if not 2 <= q <= 32:
            raise SpecError(f"field order {q} out of supported range 2..32")
        primes = prime_factors(q)
        if len(primes) != 1:
            raise SpecError(f"{q} is not a prime power")
        p, e = primes[0], 1
        while p**e < q:
            e += 1
        self.q, self.p, self.e = q, p, e
        if e > 1 and q not in _REDUCTIONS:
            raise SpecError(f"no reduction polynomial for GF({q})")

        def decode(x: int) -> list[int]:
            out = []
            for _ in range(e):
                out.append(x % p)
                x //= p
            return out

        def encode(cs: list[int]) -> int:
            x = 0
            for c in reversed(cs):
                x = x * p + c % p
            return x

        red = _REDUCTIONS.get(q, [])

        def polymul(a: list[int], b: list[int]) -> list[int]:
            prod = [0] * (2 * e - 1)
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b):
                        prod[i + j] = (prod[i + j] + ai * bj) % p
            for k in range(2 * e - 2, e - 1, -1):
                c = prod[k]
                if c:
                    prod[k] = 0
                    for j, rj in enumerate(red):
                        prod[k - e + j] = (prod[k - e + j] + c * rj) % p
            return prod[:e]

        self.add = [[encode([(x + y) % p for x, y in zip(decode(a), decode(b))])
                     for b in range(q)] for a in range(q)]
        self.mul = [[encode(polymul(decode(a), decode(b))) for b in range(q)]
                    for a in range(q)]
        self.neg = [self.add[a].index(0) for a in range(q)]
        self.inv = [0] * q
        for a in range(1, q):
            self.inv[a] = self.mul[a].index(1)
        self.frob = [self.power(a, p) for a in range(q)]
        self.gen = next(
            a for a in range(2, q) if self.mult_order(a) == q - 1
        ) if q > 2 else 1

    def power(self, a: int, k: int) -> int:
        r = 1
        while k:
            if k & 1:
                r = self.mul[r][a]
            a = self.mul[a][a]
            k >>= 1
        return r

    def mult_order(self, a: int) -> int:
        if a == 0:
            raise ValueError("zero has no multiplicative order")
        o, x = 1, a
        while x != 1:
            x = self.mul[x][a]
            o += 1
        return o

    def frob_power(self, a: int, j: int) -> int:
        for _ in range(j % self.e):
            a = self.frob[a]
        return a


@lru_cache(maxsize=None)
def _field(q: int) -> _Field:
    return _Field(q)


# ---------------------------------------------------------------------------
# projective-line and affine constructions

def _projective_perm(F: _Field, a: int, b: int, c: int, d: int, j: int = 0) -> Permutation:
    """x -> (a phi^j(x) + b) / (c phi^j(x) + d) on {inf} + GF(q); point 1 is inf."""
    if F.mul[a][d] == F.mul[b][c]:
        raise ValueError("singular fractional map")
    q = F.q
    images = [0] * (q + 1)
    # infinity
    images[0] = 1 if c == 0 else F.mul[a][F.inv[c]] + 2
    for x in range(q):
        y = F.frob_power(x, j)
        num = F.add[F.mul[a][y]][b]
        den = F.add[F.mul[c][y]][d]
        images[x + 1] = 1 if den == 0 else F.mul[num][F.inv[den]] + 2
    return Permutation(images)


def _psl2_gens(q: int) -> list[Permutation]:
    F = _field(q)
    # nu generates the non-zero squares: all the units in characteristic 2
    nu = F.gen if F.p == 2 else F.mul[F.gen][F.gen]
    gens = [_projective_perm(F, 1, 1, 0, 1)]
    if nu != 1:  # the only non-zero square of GF(2) and GF(3)
        gens.append(_projective_perm(F, nu, 0, 0, 1))
    return gens + [_projective_perm(F, 0, F.neg[1], 1, 0)]


def _make_psl2(q: int, galois: int = 1) -> PermGroup:
    F = _field(q)
    if F.e % galois != 0:
        raise SpecError(f"PSL2({q}):{galois} needs {galois} dividing {F.e}")
    gens = _psl2_gens(q)
    if galois > 1:
        gens.append(_projective_perm(F, 1, 0, 0, 1, j=F.e // galois))
    name = f"PSL2({q})" + (f":{galois}" if galois > 1 else "")
    return _built(gens, q + 1, name, q * (q * q - 1) // gcd(2, q - 1) * galois)


def _make_pgl2(q: int) -> PermGroup:
    F = _field(q)
    gens = _psl2_gens(q)
    if F.p != 2:
        gens.append(_projective_perm(F, F.gen, 0, 0, 1))
    return _built(gens, q + 1, f"PGL2({q})", q * (q * q - 1))


def _make_pgammal2(q: int) -> PermGroup:
    F = _field(q)
    gens = _psl2_gens(q)
    if F.p != 2:
        gens.append(_projective_perm(F, F.gen, 0, 0, 1))
    if F.e > 1:
        gens.append(_projective_perm(F, 1, 0, 0, 1, j=1))
    return _built(gens, q + 1, f"PGammaL2({q})", q * (q * q - 1) * F.e)


def _make_m10() -> PermGroup:
    F = _field(9)
    gens = _psl2_gens(9)
    gens.append(_projective_perm(F, F.gen, 0, 0, 1, j=1))
    return _built(gens, 10, "M10", 720)


def _make_affine_semilinear(q: int, d: int, f: int) -> PermGroup:
    F = _field(q)
    if d < 1 or (q - 1) % d != 0:
        raise SpecError(f"AffineSemilinear({q},{d},{f}): {d} must divide {q - 1}")
    if f < 1 or F.e % f != 0:
        raise SpecError(f"AffineSemilinear({q},{d},{f}): {f} must divide {F.e}")
    gens = []
    shift = 1
    for _ in range(F.e):
        images = [F.add[x][shift] + 1 for x in range(q)]
        gens.append(Permutation(images))
        shift = F.mul[shift][F.gen]
    if d > 1:
        lam = F.power(F.gen, (q - 1) // d)
        gens.append(Permutation([F.mul[lam][x] + 1 for x in range(q)]))
    if f > 1:
        j = F.e // f
        gens.append(Permutation([F.frob_power(x, j) + 1 for x in range(q)]))
    return _built(gens, q, f"AffineSemilinear({q},{d},{f})", q * d * f)


def _make_frobenius(p: int, d: int) -> PermGroup:
    if prime_factors(p) != [p]:
        raise SpecError(f"Frobenius({p},{d}): {p} must be prime")
    if d < 1 or (p - 1) % d != 0:
        raise SpecError(f"Frobenius({p},{d}): {d} must divide {p - 1}")
    g = _make_affine_semilinear(p, d, 1)
    g.name = f"Frobenius({p},{d})"
    return g


def _make_agl1(q: int) -> PermGroup:
    g = _make_affine_semilinear(q, q - 1, 1)
    g.name = f"AGL1({q})"
    return g


def _vector_points(p: int, dim: int) -> list[tuple[int, ...]]:
    pts = [()]
    for _ in range(dim):
        pts = [v + (c,) for v in pts for c in range(p)]
    return pts


def _projective_normal(v: tuple[int, ...], p: int) -> tuple[int, ...]:
    """The multiple of a non-zero vector whose first non-zero entry is 1."""
    inv = pow(next(c for c in v if c), -1, p)
    return tuple(c * inv % p for c in v)


def _projective_points(p: int, dim: int) -> list[tuple[int, ...]]:
    return [
        v for v in _vector_points(p, dim) if any(v) and _projective_normal(v, p) == v
    ]


def _matrix_perm(M, points: list[tuple[int, ...]], p: int, normalize: bool) -> Permutation:
    index = {v: i for i, v in enumerate(points)}
    images = []
    for v in points:
        w = tuple(sum(M[i][j] * v[j] for j in range(len(v))) % p for i in range(len(v)))
        if normalize:  # an invertible M maps the non-zero points to non-zero w
            w = _projective_normal(w, p)
        images.append(index[w] + 1)
    return Permutation(images)


def _transvections(p: int, dim: int):
    for i in range(dim):
        for j in range(dim):
            if i != j:
                M = [[1 if a == b else 0 for b in range(dim)] for a in range(dim)]
                M[i][j] = 1
                yield M


def _make_psl3(p: int) -> PermGroup:
    if p not in (2, 3):
        raise SpecError(f"PSL3({p}) supported for p in 2, 3")
    points = _projective_points(p, 3)
    gens = [_matrix_perm(M, points, p, normalize=True) for M in _transvections(p, 3)]
    order = {2: 168, 3: 5616}[p]
    return _built(gens, len(points), f"PSL3({p})", order)


def _make_asl3(p: int) -> PermGroup:
    if p != 2:
        raise SpecError("ASL3(p) supported for p = 2")
    points = _vector_points(2, 3)
    index = {v: i for i, v in enumerate(points)}
    gens = []
    for k in range(3):
        e = tuple(1 if i == k else 0 for i in range(3))
        images = [index[tuple((a + b) % 2 for a, b in zip(v, e))] + 1 for v in points]
        gens.append(Permutation(images))
    for M in _transvections(2, 3):
        gens.append(_matrix_perm(M, points, 2, normalize=False))
    return _built(gens, 8, "ASL3(2)", 1344)


def _make_m11() -> PermGroup:
    gens = [
        parse_cycles("(1 2 3 4 5 6 7 8 9 10 11)", 11),
        parse_cycles("(3 7 11 8)(4 10 5 6)", 11),
    ]
    return _built(gens, 11, "M11", 7920)


def _make_sym(n: int) -> PermGroup:
    if n < 1:
        raise SpecError("Sym(n) needs n >= 1")
    if n == 1:
        return _built([], 1, "Sym(1)", 1)
    gens = [Permutation([2, 1] + list(range(3, n + 1)))]
    if n > 2:
        gens.append(Permutation(list(range(2, n + 1)) + [1]))
    return _built(gens, n, f"Sym({n})", factorial(n))


def _make_alt(n: int) -> PermGroup:
    if n < 1:
        raise SpecError("Alt(n) needs n >= 1")
    if n <= 2:
        return _built([], max(n, 1), f"Alt({n})", 1)
    three = parse_cycles("(1 2 3)", n)
    if n == 3:
        return _built([three], 3, "Alt(3)", 3)
    if n % 2 == 1:
        long = Permutation(list(range(2, n + 1)) + [1])
    else:
        long = Permutation([1] + list(range(3, n + 1)) + [2])
    return _built([three, long], n, f"Alt({n})", factorial(n) // 2)


def _make_cyclic(n: int) -> PermGroup:
    if n < 1:
        raise SpecError("Cyclic(n) needs n >= 1")
    if n == 1:
        return _built([], 1, "Cyclic(1)", 1)
    return _built([Permutation(list(range(2, n + 1)) + [1])], n, f"Cyclic({n})", n)


def _make_elem_abelian(p: int, k: int) -> PermGroup:
    if prime_factors(p) != [p]:
        raise SpecError(f"ElemAbelian({p},{k}): {p} must be prime")
    if k < 1:
        raise SpecError("ElemAbelian(p,k) needs k >= 1")
    gens = []
    n = k * p
    for b in range(k):
        base = b * p
        images = list(range(1, n + 1))
        for i in range(p):
            images[base + i] = base + (i + 1) % p + 1
        gens.append(Permutation(images))
    return _built(gens, n, f"ElemAbelian({p},{k})", p**k)


def _make_dihedral(n: int) -> PermGroup:
    if n < 3:
        raise SpecError("Dihedral(n) needs n >= 3")
    rot = Permutation(list(range(2, n + 1)) + [1])
    ref = Permutation([1] + list(range(n, 1, -1)))
    return _built([rot, ref], n, f"Dihedral({n})", 2 * n)


def _built(gens, degree: int, name: str, expected_order: int) -> PermGroup:
    G = PermGroup(gens, degree=degree, name=name)
    got = G.order()
    if got != expected_order:
        raise InvariantError(
            f"{name}: constructed order {got}, expected {expected_order}"
        )
    return G


# ---------------------------------------------------------------------------
# spec strings

@dataclass(frozen=True)
class GroupSpec:
    name: str
    args: tuple[int, ...]
    ext: int | None = None

    def canonical(self) -> str:
        body = self.name
        if self.args:
            body += "(" + ",".join(str(a) for a in self.args) + ")"
        if self.ext is not None:
            body += f":{self.ext}"
        return body


_SPEC_RE = re.compile(
    r"^\s*([A-Za-z][A-Za-z0-9]*)\s*(?:\(\s*([0-9,\s]*)\))?\s*(?::\s*(\d+))?\s*$"
)

_FAMILIES: dict[str, tuple[int, object]] = {
    "Cyclic": (1, _make_cyclic),
    "ElemAbelian": (2, _make_elem_abelian),
    "Dihedral": (1, _make_dihedral),
    "Frobenius": (2, _make_frobenius),
    "AffineSemilinear": (3, _make_affine_semilinear),
    "AGL1": (1, _make_agl1),
    "Sym": (1, _make_sym),
    "Alt": (1, _make_alt),
    "PGL2": (1, _make_pgl2),
    "PGammaL2": (1, _make_pgammal2),
    "PSL3": (1, _make_psl3),
    "ASL3": (1, _make_asl3),
    "M10": (0, _make_m10),
    "M11": (0, _make_m11),
}


def parse_spec(text: str) -> GroupSpec:
    """Parse a catalog spec like ``PGammaL2(8)``, ``M11`` or ``PSL2(16):2``."""
    m = _SPEC_RE.match(text)
    if not m:
        raise SpecError(f"unrecognized group spec {text!r}", token=text)
    name, argstr, ext = m.group(1), m.group(2), m.group(3)
    args = tuple(int(a) for a in argstr.replace(",", " ").split()) if argstr else ()
    spec = GroupSpec(name, args, int(ext) if ext else None)
    if name == "PSL2":
        if len(args) != 1:
            raise SpecError(f"PSL2 takes one argument, got {spec.canonical()!r}")
        if spec.ext is not None and spec.ext < 1:
            raise SpecError(f"PSL2(q):k needs k >= 1, got {spec.canonical()!r}")
        return spec
    if spec.ext is not None:
        raise SpecError(f"':k' extension only applies to PSL2, got {spec.canonical()!r}")
    if name not in _FAMILIES:
        raise SpecError(f"unknown catalog family {name!r}", token=name)
    arity, _ = _FAMILIES[name]
    if len(args) != arity:
        raise SpecError(
            f"{name} takes {arity} argument(s), got {len(args)} in {spec.canonical()!r}"
        )
    return spec


@lru_cache(maxsize=None)
def construct(spec_text: str) -> PermGroup:
    """Build (and cache) the catalog group named by a spec string."""
    spec = parse_spec(spec_text)
    if spec.name == "PSL2":
        return _make_psl2(spec.args[0], spec.ext or 1)
    _, fn = _FAMILIES[spec.name]
    return fn(*spec.args)


# ---------------------------------------------------------------------------
# group files

def parse_group_file(text: str, source: str = "<group file>") -> PermGroup:
    """Parse the two-form group file format.

    Either a single ``catalog: Name(args)`` line, or a ``degree N`` line
    followed by ``gen <cycles>`` lines.  ``#`` starts a comment.
    """
    degree: int | None = None
    gens: list[Permutation] = []
    saw_catalog: PermGroup | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if saw_catalog is not None:
            raise GroupFileError("content after catalog line", line_no, token=line)
        if line.startswith("catalog:"):
            if degree is not None or gens:
                raise GroupFileError(
                    "catalog line cannot mix with degree/gen lines", line_no
                )
            spec = line[len("catalog:") :].strip()
            try:
                saw_catalog = construct(spec)
            except SpecError as exc:
                raise GroupFileError(str(exc), line_no, token=spec) from exc
            continue
        head, _, rest = line.partition(" ")
        if head == "degree":
            if degree is not None:
                raise GroupFileError("duplicate degree line", line_no)
            try:
                degree = int(rest.strip())
            except ValueError:
                raise GroupFileError(
                    f"bad degree {rest.strip()!r}", line_no, token=rest.strip()
                ) from None
            if degree < 1:
                raise GroupFileError("degree must be positive", line_no)
        elif head == "gen":
            if degree is None:
                raise GroupFileError("gen line before degree line", line_no)
            try:
                gens.append(parse_cycles(rest, degree))
            except Exception as exc:
                raise GroupFileError(str(exc), line_no, token=rest.strip()) from exc
        else:
            raise GroupFileError(f"unrecognized line {line!r}", line_no, token=head)
    if saw_catalog is not None:
        return saw_catalog
    if degree is None:
        raise GroupFileError("empty group file", 1)
    return PermGroup(gens, degree=degree, name=f"{source}")


def render_group_file(G: PermGroup) -> str:
    """Canonical group-file text for a group (round-trips through the parser)."""
    if G.name and _looks_like_spec(G.name):
        return f"catalog: {G.name}\n"
    lines = [f"degree {G.degree}"]
    lines += [f"gen {g.cycle_string()}" for g in G.generators]
    return "\n".join(lines) + "\n"


def _looks_like_spec(name: str) -> bool:
    try:
        parse_spec(name)
        return True
    except SpecError:
        return False


# ---------------------------------------------------------------------------
# curated instances used by sweeps and regression suites

MANIFEST: tuple[str, ...] = (
    # elementary abelian squares
    "ElemAbelian(2,2)", "ElemAbelian(3,2)", "ElemAbelian(5,2)", "ElemAbelian(7,2)",
    "ElemAbelian(11,2)", "ElemAbelian(13,2)", "ElemAbelian(17,2)",
    "ElemAbelian(19,2)", "ElemAbelian(23,2)",
    # cyclic controls
    "Cyclic(4)", "Cyclic(6)", "Cyclic(9)", "Cyclic(30)",
    # dihedral
    "Dihedral(4)", "Dihedral(5)", "Dihedral(6)", "Dihedral(7)", "Dihedral(11)",
    "Dihedral(13)", "Dihedral(17)", "Dihedral(19)", "Dihedral(23)",
    # one-dimensional affine and Frobenius groups
    "Frobenius(7,3)", "Frobenius(11,5)", "Frobenius(13,3)", "Frobenius(13,4)",
    "Frobenius(13,6)", "Frobenius(17,4)", "Frobenius(17,8)", "Frobenius(19,3)",
    "Frobenius(19,6)", "Frobenius(19,9)", "Frobenius(23,11)",
    "AGL1(5)", "AGL1(7)", "AGL1(8)", "AGL1(9)", "AGL1(11)", "AGL1(13)",
    "AGL1(16)", "AGL1(17)", "AGL1(19)", "AGL1(23)",
    "AffineSemilinear(9,4,1)", "AffineSemilinear(16,5,1)", "AffineSemilinear(8,7,3)",
    # symmetric and alternating
    "Sym(3)", "Sym(4)", "Sym(5)", "Sym(6)",
    "Alt(4)", "Alt(5)", "Alt(6)", "Alt(7)",
    # linear and projective
    "PSL3(2)", "PSL3(3)", "ASL3(2)",
    "PSL2(7)", "PGL2(7)", "PSL2(8)", "PGammaL2(8)", "PSL2(11)",
    "PSL2(9)", "PGL2(9)", "M10", "PGammaL2(9)",
    "PSL2(16)", "PSL2(16):2", "PGammaL2(16)",
    "M11",
)
