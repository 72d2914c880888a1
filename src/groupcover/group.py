"""Permutation groups: stabilizer chains, dense element tables, centers.

The stabilizer chain is built by a deterministic incremental Schreier-Sims
pass: generators are sifted in their given order, the base extends on demand,
and each new base point is the least point moved by the residue that created
its level.  No randomization anywhere, so identical input always produces
identical chains.

Element tables assign every group element a stable integer ID: IDs follow the
lexicographic order of the 0-based image tables, independent of how the
closure was generated.
"""

from __future__ import annotations

import numpy as np

from .errors import CapExceededError
from .perm import Permutation, compose, invert
from .subgroup import SubgroupSet, bits_from_ids

DEFAULT_ELEMENT_CAP = 20000


class _Level:
    """One level of the chain.  ``closed`` = (m, g): every Schreier generator
    from the first m orbit points and the first g generators has been sifted."""

    __slots__ = ("point", "gens", "transversal", "inv", "orbit", "closed")

    def __init__(self, point: int):
        self.point = point
        self.gens: list[tuple[int, ...]] = []
        self.transversal: dict[int, tuple[int, ...]] = {}
        self.inv: dict[int, tuple[int, ...]] = {}
        self.orbit: list[int] = []
        self.closed = (0, 0)

    def copy(self) -> "_Level":
        lvl = _Level(self.point)
        lvl.gens = list(self.gens)
        lvl.transversal = dict(self.transversal)
        lvl.inv = dict(self.inv)
        lvl.orbit = list(self.orbit)
        lvl.closed = self.closed
        return lvl


class _OrderPassed(Exception):
    """Raised inside Schreier-Sims once a chain's order passes its limit."""


class StabilizerChain:
    """Base and strong generating set for a permutation group (0-based)."""

    def __init__(self, degree: int):
        self.degree = degree
        self.identity = tuple(range(degree))
        self.levels: list[_Level] = []
        self._limit: int | None = None

    @classmethod
    def build(cls, gens: list[tuple[int, ...]], degree: int) -> "StabilizerChain":
        chain = cls(degree)
        for g in gens:
            chain.add_generator(g)
        return chain

    def copy(self) -> "StabilizerChain":
        chain = StabilizerChain(self.degree)
        chain.levels = [lvl.copy() for lvl in self.levels]
        return chain

    def extended(self, z: tuple[int, ...], limit: int) -> "StabilizerChain | None":
        """A copy of this chain with z added, or None once its order passes limit.

        Base points are only ever appended and basic orbits only grow, so at
        every step of Schreier-Sims the product of the orbit lengths is a
        lower bound on the order of the group being built.
        """
        chain = self.copy()
        chain._limit = limit
        try:
            chain.add_generator(z)
        except _OrderPassed:
            return None
        chain._limit = None
        return chain

    def order(self) -> int:
        n = 1
        for lvl in self.levels:
            n *= len(lvl.transversal)
        return n

    def base(self) -> list[int]:
        return [lvl.point for lvl in self.levels]

    def _sift_from(self, z: tuple[int, ...], start: int):
        """Strip z through levels >= start; return (residue, stop_level)."""
        for i in range(start, len(self.levels)):
            lvl = self.levels[i]
            beta = z[lvl.point]
            u_inv = lvl.inv.get(beta)
            if u_inv is None:
                return z, i
            z = compose(z, u_inv)
        return z, len(self.levels)

    def sift(self, z: tuple[int, ...]) -> tuple[int, ...]:
        residue, _ = self._sift_from(z, 0)
        return residue

    def contains(self, z: tuple[int, ...]) -> bool:
        return self.sift(z) == self.identity

    def add_generator(self, z: tuple[int, ...], level: int = 0) -> bool:
        """Install z as a generator at the given level unless redundant.

        Callers guarantee z fixes the base points of all levels before
        ``level``.  The generator lands in that level's generating set (so the
        level's orbit re-expands under it); Schreier closure then pushes any
        consequences to deeper levels.
        """
        residue, _ = self._sift_from(z, level)
        if residue == self.identity:
            return False
        if level == len(self.levels):
            point = min(j for j, x in enumerate(z) if x != j)
            lvl = _Level(point)
            lvl.transversal[point] = self.identity
            lvl.inv[point] = self.identity
            lvl.orbit.append(point)
            self.levels.append(lvl)
        self.levels[level].gens.append(z)
        self._close(level)
        return True

    def _close(self, i: int) -> None:
        """Re-establish the Schreier closure at level i (and below, recursively).

        Level i's generators do not change while it closes, and a close runs
        to the end, so the pairs already done are those under ``closed``.
        """
        lvl = self.levels[i]
        orbit, gens, transversal, inv = lvl.orbit, lvl.gens, lvl.transversal, lvl.inv
        m, g_done = lvl.closed
        k = 0
        while k < len(orbit):
            beta = orbit[k]
            u = transversal[beta]
            for g in gens[g_done:] if k < m else gens:
                gamma = g[beta]
                ug = compose(u, g)
                if gamma not in transversal:
                    transversal[gamma] = ug
                    inv[gamma] = invert(ug)
                    orbit.append(gamma)
                    if self._limit is not None and self.order() > self._limit:
                        raise _OrderPassed
                    # ug is now gamma's transversal element: the Schreier
                    # generator ug * ug^-1 is trivial
                    continue
                schreier = compose(ug, inv[gamma])
                if schreier != self.identity:
                    self.add_generator(schreier, i + 1)
            k += 1
        lvl.closed = (len(orbit), len(gens))


class ElementTable:
    """All elements of a group, indexed by lexicographic rank of image tables.

    Rows map to IDs through their sift coordinates: stripping a row through
    G's own stabilizer chain gives one basic-orbit position per level, and
    read as a mixed-radix number those positions are a bijection from G onto
    [0, |G|), which indexes a dense slot array.
    """

    def __init__(self, group: "PermGroup"):
        order = group.order()
        self.group = group
        self.degree = group.degree
        self.n = order
        rows = _closure_rows(
            [g.zero for g in group.generators], self.degree, order
        )
        rows = rows[np.lexsort(rows.T[::-1])]
        self.rows = rows
        self.id_of: dict[bytes, int] = {
            rows[i].tobytes(): i for i in range(order)
        }
        self.identity_id = self.id_of[
            np.arange(self.degree, dtype=rows.dtype).tobytes()
        ]
        self._sift_base, self._sift_levels = _sift_index(group.chain, rows.dtype)
        self._slot = np.full(order, -1, dtype=np.int32)
        self._slot[self._sift_keys(rows)] = np.arange(order, dtype=np.int32)
        if (self._slot < 0).any():
            raise AssertionError("sift keys of the element rows collide")
        self.orders = _element_orders(rows)
        self.inverse = self.lookup_rows(np.argsort(rows, axis=1).astype(rows.dtype))
        self._conj_by_gen: list[np.ndarray] | None = None

    def _sift_keys(self, mat: np.ndarray) -> np.ndarray:
        """Mixed-radix sift coordinates of each row, level 0 most significant.

        Only the images of the base points are stripped; raises KeyError when
        one of them leaves its basic orbit.
        """
        images = mat[:, self._sift_base]
        keys = np.zeros(mat.shape[0], dtype=np.intp)
        for pos, inv_rows, stride in self._sift_levels:
            p = pos[images[:, 0]]
            if (p < 0).any():
                raise KeyError("row outside the group")
            keys += p * stride
            # strip u^-1: every later base image b becomes u^-1(b)
            images = inv_rows[p[:, None], images[:, 1:]]
        return keys

    def lookup_rows(self, mat: np.ndarray) -> np.ndarray:
        """Map a matrix of image rows to element IDs; KeyError if one is not in G.

        A row whose sift residue is not the identity has the sift key of a
        different element, so the found row is compared with the given one.
        """
        if mat.dtype != self.rows.dtype:
            mat = mat.astype(self.rows.dtype)
        ids = self._slot[self._sift_keys(mat)]
        if not (self.rows[ids] == mat).all():
            raise KeyError("row outside the group")
        return ids

    def id_of_row(self, row: np.ndarray) -> int | None:
        return self.id_of.get(np.ascontiguousarray(row, dtype=self.rows.dtype).tobytes())

    def mul(self, a: int, b: int) -> int:
        """ID of the product: apply a, then b."""
        return self.id_of[self.rows[b][self.rows[a]].tobytes()]

    def mul_many(self, ids: np.ndarray, b: int) -> np.ndarray:
        """Apply each of ids, then b."""
        return self.lookup_rows(self.rows[b][self.rows[ids]])

    def lmul_many(self, a: int, ids: np.ndarray) -> np.ndarray:
        """Apply a, then each of ids."""
        return self.lookup_rows(self.rows[ids][:, self.rows[a]])

    def conj_rows(self, ids: np.ndarray, g: int) -> np.ndarray:
        """IDs of g^-1 x g for each x in ids."""
        ginv = self.rows[self.inverse[g]]
        mid = self.rows[ids][:, ginv]
        return self.lookup_rows(self.rows[g][mid])

    def conj(self, x: int, g: int) -> int:
        ginv = self.rows[self.inverse[g]]
        return self.id_of[self.rows[g][self.rows[x][ginv]].tobytes()]

    def power(self, a: int, k: int) -> int:
        if k < 0:
            a, k = int(self.inverse[a]), -k
        result = self.identity_id
        while k:
            if k & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            k >>= 1
        return result

    def conj_by_gen(self) -> list[np.ndarray]:
        """Per group generator, the full conjugation table id -> id."""
        if self._conj_by_gen is None:
            all_ids = np.arange(self.n, dtype=np.int32)
            tables = []
            for g in self.group.generators:
                gid = self.id_of[
                    np.array(g.zero, dtype=self.rows.dtype).tobytes()
                ]
                tables.append(self.conj_rows(all_ids, gid))
            self._conj_by_gen = tables
        return self._conj_by_gen

    def perm(self, i: int) -> Permutation:
        return Permutation._from_zero(tuple(int(x) for x in self.rows[i]))

    def id_of_perm(self, p: Permutation) -> int | None:
        return self.id_of.get(
            np.array(p.zero, dtype=self.rows.dtype).tobytes()
        )


def _sift_index(chain: StabilizerChain, dtype):
    """Base points and, per level, (orbit position of each point or -1,
    inverse transversal rows in orbit order, mixed-radix stride)."""
    levels = []
    stride = 1
    for lvl in reversed(chain.levels):
        pos = np.full(chain.degree, -1, dtype=np.intp)
        pos[lvl.orbit] = np.arange(len(lvl.orbit))
        inv_rows = np.array([lvl.inv[b] for b in lvl.orbit], dtype=dtype)
        levels.append((pos, inv_rows, stride))
        stride *= len(lvl.orbit)
    levels.reverse()
    base = np.array(chain.base(), dtype=np.intp)
    return base, levels


def _closure_rows(gens0: list[tuple[int, ...]], degree: int, order: int) -> np.ndarray:
    """All elements as image rows, by breadth-first closure under the generators."""
    dtype = np.int8 if degree <= 120 else np.int16
    ident = np.arange(degree, dtype=dtype)
    seen = {ident.tobytes()}
    gen_rows = [np.array(g, dtype=dtype) for g in gens0]
    frontier = [ident]
    while frontier:
        block = np.array(frontier)
        new: list[np.ndarray] = []
        for g in gen_rows:
            for r in g[block]:
                b = r.tobytes()
                if b not in seen:
                    seen.add(b)
                    new.append(r)
        frontier = new
    mat = np.frombuffer(b"".join(sorted(seen)), dtype=dtype).reshape(-1, degree)
    if mat.shape[0] != order:
        raise AssertionError(
            f"closure found {mat.shape[0]} elements, chain order is {order}"
        )
    return mat.copy()


def _element_orders(rows: np.ndarray) -> np.ndarray:
    n, deg = rows.shape
    out = np.empty(n, dtype=np.int32)
    from math import lcm

    for i in range(n):
        row = rows[i]
        seen = [False] * deg
        o = 1
        for s in range(deg):
            if seen[s]:
                continue
            length = 0
            x = s
            while not seen[x]:
                seen[x] = True
                x = int(row[x])
                length += 1
            o = lcm(o, length)
        out[i] = o
    return out


class PermGroup:
    """A finite permutation group on {1..degree} given by generators."""

    def __init__(self, generators, degree: int | None = None, name: str | None = None):
        gens = [g for g in generators if not g.is_identity()]
        if degree is None:
            if not gens:
                raise ValueError("degree required for a trivial group")
            degree = gens[0].degree
        for g in gens:
            if g.degree != degree:
                raise ValueError("generators act on different degrees")
        self.degree = degree
        self.generators: tuple[Permutation, ...] = tuple(gens)
        self.name = name
        self._chain: StabilizerChain | None = None
        self._table: ElementTable | None = None
        self._cache: dict = {}

    @property
    def chain(self) -> StabilizerChain:
        if self._chain is None:
            self._chain = StabilizerChain.build(
                [g.zero for g in self.generators], self.degree
            )
        return self._chain

    def order(self) -> int:
        return self.chain.order()

    def contains(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            return False
        return self.chain.contains(p.zero)

    def is_trivial(self) -> bool:
        return not self.generators

    def is_abelian(self) -> bool:
        gens = self.generators
        return all(
            (a * b) == (b * a) for i, a in enumerate(gens) for b in gens[i + 1 :]
        )

    def is_cyclic(self) -> bool:
        """True iff the group is generated by one element.

        Works without enumerating elements: an abelian group is cyclic exactly
        when the lcm of its generator orders reaches the group order.
        """
        if not self.generators:
            return True
        if not self.is_abelian():
            return False
        from math import lcm

        exponent = 1
        for g in self.generators:
            exponent = lcm(exponent, g.order())
        return exponent == self.order()

    def table(self, cap: int = DEFAULT_ELEMENT_CAP) -> ElementTable:
        """The element table; raises CapExceededError when |G| > cap, even
        when an earlier call with a larger cap has already built it."""
        order = self.order()
        if order > cap:
            raise CapExceededError(order, cap)
        if self._table is None:
            self._table = ElementTable(self)
        return self._table

    def label(self) -> str:
        return self.name or f"<group deg {self.degree} order {self.order()}>"

    def __repr__(self) -> str:
        return f"PermGroup({self.label()}, degree={self.degree})"


def enumerate_elements(G: PermGroup, cap: int = DEFAULT_ELEMENT_CAP) -> ElementTable:
    """The group's element table; raises CapExceededError when |G| > cap."""
    return G.table(cap)


def center(G: PermGroup, cap: int = DEFAULT_ELEMENT_CAP) -> SubgroupSet:
    """Elements commuting with every generator, as a subgroup bit vector."""
    table = G.table(cap)
    mask = np.ones(table.n, dtype=bool)
    all_ids = np.arange(table.n, dtype=np.int32)
    for conj in table.conj_by_gen():
        mask &= conj == all_ids
    ids = all_ids[mask]
    return SubgroupSet.from_ids(table, ids)


def conjugate_subgroup(table: ElementTable, H: SubgroupSet, g) -> SubgroupSet:
    """The conjugate g^-1 H g inside the same ambient table."""
    if isinstance(g, Permutation):
        gid = table.id_of_perm(g)
        if gid is None:
            raise ValueError("conjugating element lies outside the group")
    else:
        gid = int(g)
    ids = table.conj_rows(H.ids, gid)
    gen_ids = (
        [int(x) for x in table.conj_rows(np.array(H.gen_ids, dtype=np.int32), gid)]
        if H.gen_ids
        else None
    )
    return SubgroupSet(table, bits_from_ids(ids), gen_ids=gen_ids)
