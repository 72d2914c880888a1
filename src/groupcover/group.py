"""Permutation groups: stabilizer chains, dense element tables, centers.

The stabilizer chain is built by a deterministic incremental Schreier-Sims
pass: generators are sifted in their given order, the base extends on demand,
and each new base point is the least point moved by the residue that created
its level.  No randomization, so identical input always produces identical
chains.  The one random pass here, ``ElementTable.join_lower_bounds``, runs
on a fixed seed and only proves lower bounds on subgroup orders, which hold
whatever its random elements were.  It also decides whether it runs at all
(``_PREPASS_MIN_TARGETS``); the worklist offers it every class.

Element tables assign every group element a stable integer ID: IDs follow the
lexicographic order of the 0-based image tables.  The rows are read off the
stabilizer chain, one product of transversal elements per element, and the
chain's sift coordinates map any row back to its ID.
"""

from __future__ import annotations

import random
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import CapExceededError
from .perm import Permutation, compose, invert
from .subgroup import SubgroupSet

DEFAULT_ELEMENT_CAP = 20000

# ElementTable.join_lower_bounds: a seeded random Schreier-Sims pass
_PREPASS_SEED = 20111222
_PREPASS_SLOTS = 8  # product-replacement slots, and random elements per round
_PREPASS_ROUNDS = 12
_PREPASS_STALL = 2  # rounds without a new point before a target is left alone
_PREPASS_CHUNK_BYTES = 1 << 20  # of inverse transversal rows per chunk of targets
# The prepass runs on a class with at least _PREPASS_MIN_TARGETS targets.
# Timed per class over the worklists of the 69 MANIFEST groups of order
# <= 8160 (2-core machine), prepass and fallback joins against exact joins
# alone take 1.1-1.6x below 16 targets, 0.7-1.0x at 16-31, 0.6-0.9x at 32-63
# and 0.4-0.65x from 64 up.  At 64 every class that runs it gains a third or
# more, and the small solvable groups (no class over 42 targets) run no
# prepass.
_PREPASS_MIN_TARGETS = 64


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
        self._order = 1  # the product of the basic orbit lengths, kept current
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
        chain._order = self._order
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
        return self._order

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
                    self._order = self._order // (len(orbit) - 1) * len(orbit)
                    if self._limit is not None and self._order > self._limit:
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

    The rows are the products of one transversal element per level of G's
    stabilizer chain, sorted.  Rows map to IDs through their sift
    coordinates: stripping a row through the same chain gives one
    basic-orbit position per level, and read as a mixed-radix number those
    positions are a bijection from G onto [0, |G|), which indexes a dense
    slot array.  Every ID lookup, one row or many, goes through that array.
    ``orders`` and ``inverse`` are computed on first use.

    Products with an arbitrary element h run on ID tables instead of
    lookups.  The letters are the group's generators and their inverses,
    and per letter the table keeps only right multiplication (read off the
    closure check below); conjugation by a letter is derived from it and
    ``inverse``.  A word tree, a breadth-first search from the identity over
    right multiplication by the letters, gives every element a shortest word
    in them, so ``conj`` by h is one table gather per letter of h's word,
    and ``lmul`` by h is that many right multiplications between two
    inversions.
    """

    def __init__(self, group: "PermGroup"):
        order = group.order()
        self.group = group
        self.degree = group.degree
        self.n = order
        rows = chain_rows(group.chain, row_dtype(self.degree))
        rows = rows[np.lexsort(rows.T[::-1])]
        self.rows = rows
        self.identity_id = 0  # the identity row is the lexicographically least
        self._sift = _sift_index(group.chain, rows.dtype)
        self._slot = np.full(order, -1, dtype=np.int32)
        self._slot[sift_keys(self._sift, rows)] = np.arange(order, dtype=np.int32)
        if (self._slot < 0).any():
            raise AssertionError("sift keys of the element rows collide")
        # The chain products lie in ⟨gens⟩ and hold the identity, so rows
        # closed under every generator are all of ⟨gens⟩: a chain that
        # lists a proper subgroup fails here.  The lookups are kept as the
        # tables x -> x g of right multiplication by each generator g.
        self._rmul_by_gen = np.empty((len(group.generators), order), dtype=np.int32)
        for k, g in enumerate(group.generators):
            try:
                self._rmul_by_gen[k] = self.lookup_rows(
                    np.array(g.zero, dtype=rows.dtype)[rows]
                )
            except KeyError:
                raise AssertionError(
                    f"the {order} chain elements are not closed under generator {k}"
                ) from None

    @cached_property
    def orders(self) -> np.ndarray:
        """Each element's order, by ID."""
        return _element_orders(self.rows)

    @cached_property
    def inverse(self) -> np.ndarray:
        """Each element's inverse, by ID."""
        return self.lookup_rows(np.argsort(self.rows, axis=1).astype(self.rows.dtype))

    def lookup_rows(self, mat: np.ndarray) -> np.ndarray:
        """Map a matrix of image rows to element IDs; KeyError if one is not in G.

        A row whose sift residue is not the identity has the sift key of a
        different element, so the found row is compared with the given one.
        """
        if mat.dtype != self.rows.dtype:
            mat = mat.astype(self.rows.dtype)
        ids = self._slot[sift_keys(self._sift, mat)]
        if not (self.rows[ids] == mat).all():
            raise KeyError("row outside the group")
        return ids

    def id_of_row(self, row: np.ndarray) -> int | None:
        """ID of one image row; None when it is not an element of G."""
        row = np.asarray(row)
        if row.shape != (self.degree,):
            return None
        try:
            return int(self.lookup_rows(row[None, :])[0])
        except (KeyError, IndexError):  # IndexError: a point out of range
            return None

    def generator_ids(self) -> list[int]:
        """IDs of the group's own generators, in their order."""
        gens = [g.zero for g in self.group.generators]
        mat = np.array(gens, dtype=self.rows.dtype).reshape(len(gens), self.degree)
        return self.lookup_rows(mat).tolist()

    def conj_by_gen(self) -> np.ndarray:
        """Row k: the conjugation table x -> g^-1 x g of generator g = g_k."""
        return self._conj[: len(self._conj) // 2]

    @cached_property
    def _rmul(self) -> np.ndarray:
        """Row a: the table x -> x a of letter a.  The letters are
        g_0..g_{k-1}, g_0^-1..g_{k-1}^-1 for the k group generators, so row
        a + k (mod 2k) is that of a^-1."""
        return np.concatenate(
            [self._rmul_by_gen, _inverse_permutations(self._rmul_by_gen)]
        )

    @cached_property
    def _conj(self) -> np.ndarray:
        """Row a: the conjugation table x -> a^-1 x a of letter a, since
        a^-1 x = (x^-1 a)^-1."""
        inv = self.inverse
        return np.take_along_axis(self._rmul, inv[self._rmul[:, inv]], axis=1)

    @cached_property
    def _word_tree(self) -> list[int]:
        """Per element e, p * k + a for a parent p and a letter a with
        e = p a (k letters), -1 at the identity: a breadth-first search from
        the identity over right multiplication by the letters, so every
        element is a shortest word in them.  An element reached from
        several parents keeps one of them; any word will do."""
        k = len(self._rmul)
        code = np.full(self.n, -1, dtype=np.int64)
        seen = np.zeros(self.n, dtype=bool)
        seen[self.identity_id] = True
        frontier = np.array([self.identity_id], dtype=np.int64)
        while len(frontier):
            step = self._rmul[:, frontier]
            j, i = np.nonzero(~seen[step])
            new, parent = step[j, i], frontier[i] * k + j
            code[new] = parent
            seen[new] = True
            frontier = new[code[new] == parent]  # each new element once
        return code.tolist()

    def word(self, h: int) -> list[int]:
        """Letters a_1..a_m with h = a_1 a_2 ... a_m (apply a_1 first), read
        up h's path in the word tree."""
        code, k = self._word_tree, len(self._rmul)
        word = []
        while code[h] >= 0:
            h, j = divmod(code[h], k)
            word.append(j)
        word.reverse()
        return word

    def lmul(self, h: int, ids: np.ndarray) -> np.ndarray:
        """IDs of h x (apply h, then x) for each x in ids, by table gathers
        along h's word: for h = a_1 ... a_m, h x = (x^-1 a_m^-1 ... a_1^-1)^-1."""
        k = len(self._rmul) // 2
        out = self.inverse[ids]
        for a in reversed(self.word(h)):
            out = self._rmul[(a + k) % (2 * k)][out]
        return self.inverse[out]

    def conj(self, ids: np.ndarray, h: int) -> np.ndarray:
        """IDs of h^-1 x h for each x in ids, by table gathers along h's
        word: for h = a_1 ... a_m, conjugation by h is conjugation by a_1,
        then by a_2, and so on."""
        out = ids
        for a in self.word(h):
            out = self._conj[a][out]
        return out

    def perm(self, i: int) -> Permutation:
        return Permutation._from_zero(tuple(int(x) for x in self.rows[i]))

    def join_lower_bounds(
        self, H: SubgroupSet, targets: np.ndarray, limits: np.ndarray
    ) -> np.ndarray:
        """A proven lower bound on |⟨H, x⟩| for every target x, all at once.

        Random Schreier-Sims on G's own base b_0..b_{L-1}, one partial chain
        per target: ``reached[t, i]`` marks the points of b_i's orbit found
        so far under ⟨H, x⟩ ∩ Stab(b_0..b_{i-1}), and ``inv[t, i, β]`` holds
        the inverse of an element of that stabilizer mapping b_i to β.  The
        chains start as H's own chain, read off H's elements.  Random
        elements of every ⟨H, x⟩ come from product replacement on the slots
        H.gen_ids + [x], with one seeded schedule for all targets; each is
        sifted into its own target's chain, and where it stops at an
        unreached point, that point is added with the sifted element as its
        transversal.  Products of one transversal element per level are
        distinct elements of ⟨H, x⟩, so the product of the reached counts is
        a lower bound on its order, however random the elements were.  A
        target leaves the pass once its bound passes half its limit, or
        after _PREPASS_STALL rounds with no new point.

        The targets run in chunks, each one's chain taking L inverse rows of
        the degree per point.  Below _PREPASS_MIN_TARGETS targets, or below
        that many per chunk (a large degree, say), the pass does not pay and
        every bound is 0.
        """
        L, d = len(self._sift.base), self.degree
        chunk = _PREPASS_CHUNK_BYTES // (L * d * d * self.rows.itemsize)
        if min(len(targets), chunk) < _PREPASS_MIN_TARGETS:
            return np.zeros(len(targets), dtype=np.int64)
        # H's chain on G's base, one transversal element per orbit point
        h_reached = np.zeros((L, d), dtype=bool)
        h_inv = np.zeros((L, d, d), dtype=self.rows.dtype)
        h_rows = self.rows[H.ids]
        fixing = np.arange(len(h_rows))
        for i, b in enumerate(self._sift.base.tolist()):
            first = np.full(d, -1, dtype=np.intp)
            first[h_rows[fixing, b]] = fixing
            pts = np.flatnonzero(first >= 0)
            h_reached[i, pts] = True
            h_inv[i, pts] = self.rows[self.inverse[H.ids[first[pts]]]]
            fixing = fixing[h_rows[fixing, b] == b]
        out = np.empty(len(targets), dtype=np.int64)
        for start in range(0, len(targets), chunk):
            part = slice(start, start + chunk)
            out[part] = _sifted_bounds(
                self, H, targets[part], limits[part], h_reached, h_inv
            )
        return out


def row_dtype(degree: int):
    """The dtype of a group's image rows."""
    return np.int8 if degree <= 120 else np.int16


class _SiftIndex(NamedTuple):
    """Base points and, per level, (orbit position of each point or -1,
    inverse transversal rows in orbit order, mixed-radix stride)."""

    base: np.ndarray
    levels: list


def _sift_index(chain: StabilizerChain, dtype) -> _SiftIndex:
    """The sift index of a chain, its rows of the given dtype."""
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
    return _SiftIndex(base, levels)


def sift_keys(index: _SiftIndex, mat: np.ndarray) -> np.ndarray:
    """Mixed-radix sift coordinates of each row on a chain, level 0 most
    significant: a bijection from the chain's group onto [0, |G|), and the
    position of each element in ``chain_rows`` of that chain.

    Only the images of the base points are stripped.  A base image outside
    its basic orbit takes position -1, which keeps every key in (-|G|, |G|)
    and so a valid index of an array of length |G|; the element that key
    names then differs from the given row, which a caller that may meet
    rows outside the group must check.
    """
    images = mat[:, index.base]
    keys = np.zeros(mat.shape[0], dtype=np.intp)
    for pos, inv_rows, stride in index.levels:
        p = pos[images[:, 0]]
        keys += p * stride
        # strip u^-1: every later base image b becomes u^-1(b)
        images = inv_rows[p[:, None], images[:, 1:]]
    return keys


def _sifted_bounds(T, H, xs, limits, h_reached, h_inv) -> np.ndarray:
    """``ElementTable.join_lower_bounds`` for one chunk of targets.

    Rows are composed as flat gathers: apply a, then b, is
    ``b.ravel()[a + offsets]`` with row i offset by i * degree.
    """
    base = T._sift.base.tolist()
    m, d = len(xs), T.degree
    L = len(base)
    # entry (target, level, point) of both at target * L * d + level * d + point
    reached = np.repeat(h_reached[None], m, axis=0).reshape(-1)
    inv = np.repeat(h_inv[None], m, axis=0).reshape(m * L * d, d)
    bound = np.full(m, H.order, dtype=np.int64)
    gens = [np.repeat(T.rows[g][None], m, axis=0) for g in H.gen_ids] + [T.rows[xs]]
    slots = [gens[k % len(gens)] for k in range(max(_PREPASS_SLOTS, len(gens)))]
    live = np.arange(m)  # the targets still in the prepass
    stall = np.zeros(m, dtype=np.int64)
    rng = random.Random(_PREPASS_SEED)
    for _ in range(_PREPASS_ROUNDS):
        offsets = np.arange(0, len(live) * d, d)[:, None]
        elements = []
        for _ in range(len(slots)):
            i, j = rng.sample(range(len(slots)), 2)
            a, b = (slots[i], slots[j]) if rng.random() < 0.5 else (slots[j], slots[i])
            slots[i] = b.ravel()[a + offsets]
            elements.append(slots[i])
        start = np.tile(live * (L * d), len(elements))
        _sift_into(np.concatenate(elements), start, base, reached, inv)
        new = reached.reshape(m, L, d)[live].sum(axis=2).prod(axis=1)
        stall[live] = np.where(new > bound[live], 0, stall[live] + 1)
        bound[live] = new
        keep = (2 * new <= limits[live]) & (stall[live] < _PREPASS_STALL)
        if not keep.any():
            break
        if not keep.all():
            live = live[keep]
            slots = [s[keep] for s in slots]
    return bound


def _sift_into(rows, start, base, reached, inv) -> None:
    """Sift each row into the chain of its target, whose entries start at
    ``start``; where one stops at an unreached point, add the point with the
    sifted row as its transversal.

    Only the images of the base points are stripped level by level; the
    full residue of a row is rebuilt only when it stops at a new point.
    """
    d = rows.shape[1]
    img = rows[:, base].astype(np.intp)
    alive = np.arange(len(rows))  # rows still sifting, as indices into rows
    for lvl in range(len(base)):
        at = start + lvl * d + img[:, 0]  # the entry of (level, point)
        hit = reached[at]
        if not hit.all():
            miss = ~hit
            res = rows[alive[miss]]
            offsets = np.arange(0, res.size, d)[:, None]
            for k in range(lvl):
                # apply the residue so far, then the inverse transversal element
                u = inv[start[miss] + k * d + res[:, base[k]]]
                res = u.ravel()[res + offsets]
            reached[at[miss]] = True
            res_inv = np.empty(res.size, dtype=res.dtype)
            res_inv[res + offsets] = np.arange(d)
            inv[at[miss]] = res_inv.reshape(-1, d)
            alive, start, at, img = alive[hit], start[hit], at[hit], img[hit]
            if not len(alive):
                return
        # the deeper base images under the inverse of the transversal element
        img = inv.ravel()[at[:, None] * d + img[:, 1:]].astype(np.intp)


def _inverse_permutations(p: np.ndarray) -> np.ndarray:
    """The inverse of each row of a matrix of permutations."""
    out = np.empty_like(p)
    out[np.arange(len(p))[:, None], p] = np.arange(p.shape[1], dtype=p.dtype)
    return out


def power_rows(rows: np.ndarray, k: int) -> np.ndarray:
    """Each image row raised to the k-th power (k >= 1), by repeated squaring."""
    at = np.arange(len(rows))[:, None]
    out = None
    while True:
        if k & 1:
            # the powers of one element commute, so the order of the factors is free
            out = rows if out is None else rows[at, out]
        k >>= 1
        if not k:
            return out
        rows = rows[at, rows]


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending (none for n < 2)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def chain_rows(chain: StabilizerChain, dtype) -> np.ndarray:
    """Every element of the chain's group as an image row, in no set order:
    the products of one transversal element per level, each distinct."""
    rows = np.arange(chain.degree, dtype=dtype)[None, :]
    for lvl in reversed(chain.levels):
        us = np.array([lvl.transversal[b] for b in lvl.orbit], dtype=dtype)
        # compose(e, u): apply e then u, i.e. u[e], for every pair
        rows = us[:, rows].reshape(-1, chain.degree)
    return rows


def _element_orders(rows: np.ndarray) -> np.ndarray:
    """Each row's order: the lcm of its points' cycle lengths.

    Every point of every row moves on together, one row gather per step,
    and its cycle length is the first step at which it is back home; the
    loop ends when every cycle has closed.  A cycle length is at most the
    degree, so it fits the rows' own dtype.
    """
    home = np.arange(rows.shape[1], dtype=rows.dtype)
    at = np.arange(len(rows))[:, None]
    cycle = np.zeros_like(rows)
    img, length = rows, 1
    while True:
        cycle[(img == home) & (cycle == 0)] = length
        if cycle.all():
            return np.lcm.reduce(cycle, axis=1, dtype=np.int32)
        img = rows[at, img]
        length += 1


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


def center(G: PermGroup, cap: int = DEFAULT_ELEMENT_CAP) -> SubgroupSet:
    """Elements commuting with every generator, as a subgroup bit vector."""
    table = G.table(cap)
    mask = np.ones(table.n, dtype=bool)
    all_ids = np.arange(table.n, dtype=np.int32)
    for conj in table.conj_by_gen():
        mask &= conj == all_ids
    return SubgroupSet.from_mask(table, mask)
