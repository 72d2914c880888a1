"""Subgroup machinery over a full element table.

Everything here works with :class:`SubgroupSet` bit-vectors over the stable
element IDs of one ambient group.  The centerpiece is a complete
maximal-subgroup enumeration by ascending join-closure: a worklist of
subgroup conjugacy classes, seeded with the cyclic subgroups, where each
class representative H is extended by generators ⟨H, x⟩ until either some
extension stays proper (H is not maximal; the extension is a larger
subgroup, pushed when it is new) or every extension generates the whole group (H is
maximal).  Processing one representative per conjugacy class is sound
because joins of conjugates are conjugates of joins; whole conjugate orbits
are pushed in one step.

Most proper joins give a subgroup the worklist already holds, so each join
⟨H, x⟩ is answered from H's known overgroups first: with K the smallest
known subgroup above H that contains x, ⟨H, x⟩ ≤ K (≤ G when there is no
such K), and a subgroup of K of order above |K|/2 is K.  Lagrange alone
often settles this before any Schreier-Sims: |⟨H, x⟩| divides |K|, is a
multiple of lcm(|H|, o(x)) and is at least |H⟨x⟩| = |H| o(x) / |H ∩ ⟨x⟩|,
so the least divisor of |K| with both properties is a proven lower bound.
When it passes |K|/2 the join is K; otherwise Schreier-Sims runs from H's
chain and stops once the order passes |K|/2, and the join is again K.  A
join that stays within that bound is new, and only then are its elements
built.  Every target still spends one join of the budget, however it is
answered, and H's chain is built only when one of its joins needs it.

A class with many targets answers most of them without Schreier-Sims: one
seeded random Schreier-Sims prepass over all its targets at once, on numpy
arrays, proves a lower bound on every |⟨H, x⟩|, and a bound above |K|/2
(|G|/2) proves the join is K (G).  Every class is offered the prepass, and
``ElementTable.join_lower_bounds`` decides whether it runs: it returns zero
bounds where it would not pay.  Only the targets it leaves open take the
exact path above, in the same order, so the pushes, the recorded generators
and the join counts are those of the exact path alone.  The random elements
only decide how soon a bound is reached, never what a join is, so no result
depends on the seed.

The worklist keeps its subgroups on arrays.  Every subgroup it records is
one row of packed membership bytes (its key) in one append-only uint8
matrix, a whole conjugacy class at a time; the orbit itself comes from a
breadth-first search on a matrix of sorted member-ID rows (``_orbit``), and
the known overgroups of H are one gather of H's generator bits over the key
matrix (``_Overgroups``).  A SubgroupSet object is built only for a row that
is asked for: class representatives, maximal classes, the known overgroup a
join returns, and the subgroups the queries below return.  A join that builds
its subgroup is checked against the recorded rows, so no class is recorded
twice.

The same worklist discovers every subgroup of the ambient group, with its
normality, which the normal-subgroup, chief-series and complement
computations then read off the key matrix.
"""

from __future__ import annotations

import heapq
import mmap
from bisect import bisect_left, bisect_right
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cache
from math import gcd, isqrt, lcm

import numpy as np

from .errors import BudgetExhaustedError, InvariantError
from .group import (
    DEFAULT_ELEMENT_CAP,
    ElementTable,
    PermGroup,
    StabilizerChain,
    chain_rows,
    power_rows,
    prime_factors,
)
from .subgroup import SubgroupSet

DEFAULT_JOIN_BUDGET = 10**7
_RECORDED_ROWS = 64  # key rows the worklist starts with; it doubles them as needed


def _row_tuple(table: ElementTable, i: int) -> tuple[int, ...]:
    return tuple(table.rows[i].tolist())


def _chain_of_ids(table: ElementTable, gen_ids) -> StabilizerChain:
    return StabilizerChain.build(
        [_row_tuple(table, int(i)) for i in gen_ids], table.degree
    )


def _subgroup_from_chain(
    table: ElementTable, chain: StabilizerChain, gen_ids: list[int] | None
) -> SubgroupSet:
    mask = np.zeros(table.n, dtype=bool)
    mask[table.lookup_rows(chain_rows(chain, table.rows.dtype))] = True
    S = SubgroupSet.from_mask(table, mask, gen_ids=gen_ids)
    if S.order != chain.order():
        raise InvariantError("materialized subgroup order disagrees with its chain")
    return S


def generated_subgroup(table: ElementTable, gen_ids) -> SubgroupSet:
    """The subgroup generated by the given element IDs."""
    gen_ids = [int(i) for i in gen_ids]
    return _subgroup_from_chain(table, _chain_of_ids(table, gen_ids), gen_ids)


@dataclass(frozen=True)
class ChiefFactorRecord:
    """One step S/K of a maximal chain of normal subgroups, with complements.

    ``complement_count`` is the number of subgroups H of G with HS = G and
    H ∩ S = K, counted among the subgroups of G that the worklist lists.
    """

    S: SubgroupSet
    K: SubgroupSet
    factor_order: int
    complement_count: int


class SubgroupLattice:
    """Lazy subgroup-structure computations for one ambient group."""

    def __init__(
        self,
        G: PermGroup,
        cap: int = DEFAULT_ELEMENT_CAP,
        join_budget: int = DEFAULT_JOIN_BUDGET,
    ):
        self.group = G
        self.table = G.table(cap)
        self.join_budget = join_budget
        self.joins_spent = 0
        # joins whose subgroup was new and had to be built element by element
        self.joins_materialised = 0
        # joins that ran Schreier-Sims (``_join``)
        self.joins_exact = 0
        self._cyclic: list[SubgroupSet] | None = None
        self._cyclic_gen: np.ndarray | None = None
        self._elem_to_cyclic: np.ndarray | None = None
        self._maximal_cyclic: list[SubgroupSet] | None = None
        self._recorded: _Recorded | None = None
        self._maximal: list[SubgroupSet] | None = None
        self._normals: list[SubgroupSet] | None = None
        self._chief: list[ChiefFactorRecord] | None = None

    # -- cyclic subgroups ---------------------------------------------------

    def cyclic_subgroups(self) -> list[SubgroupSet]:
        """One SubgroupSet per distinct ⟨g⟩, trivial subgroup included."""
        if self._cyclic is None:
            self._build_cyclic()
        return self._cyclic

    def _build_cyclic(self) -> None:
        """Every cyclic subgroup, with its least generator, in key order,
        and the maximal ones among them.

        e and f generate the same cyclic subgroup exactly when f = e^k for a
        unit k mod o = o(e), and a few units generate all of them, so per
        element order the least generator of ⟨e⟩ is an orbit minimum under a
        few power maps.  ⟨e⟩ is then its generators together with ⟨e^p⟩ for
        each prime p dividing o, which are smaller and so built first.  A
        cyclic subgroup lies properly inside another exactly when it is such
        an ⟨e^p⟩, so the others are the maximal ones.
        """
        T = self.table
        n = T.n
        orders = T.orders
        label = np.arange(n, dtype=np.int32)  # the least generator of ⟨e⟩
        for o in sorted(set(orders.tolist())):
            units = _unit_generators(o)
            if units:
                ids = np.flatnonzero(orders == o).astype(np.int32)
                rows = T.rows[ids]
                powers = [
                    np.searchsorted(ids, T.lookup_rows(power_rows(rows, k)))
                    for k in units
                ]
                label[ids] = ids[_orbit_minima(powers, len(ids))]
        reps = np.flatnonzero(label == np.arange(n)).astype(np.int32)
        cls = np.searchsorted(reps, label)  # class of every element, by reps
        rep_orders = orders[reps]
        below: list[list[int]] = [[] for _ in range(len(reps))]
        non_maximal = np.zeros(len(reps), dtype=bool)
        for p in prime_factors(n):  # every element order divides |G|
            at = np.flatnonzero(rep_orders % p == 0)
            sub = cls[T.lookup_rows(power_rows(T.rows[reps[at]], p))]
            non_maximal[sub] = True
            for c, b in zip(at.tolist(), sub.tolist()):
                below[c].append(b)
        bits = [0] * len(reps)
        for e, c in enumerate(cls.tolist()):
            bits[c] |= 1 << e  # first the generators of each class
        for c in sorted(range(len(reps)), key=rep_orders.tolist().__getitem__):
            for d in below[c]:
                bits[c] |= bits[d]
        raw = [SubgroupSet(T, bits[c], gen_ids=[g]) for c, g in enumerate(reps.tolist())]
        order = sorted(range(len(raw)), key=lambda i: raw[i].key)
        rank = np.empty(len(raw), dtype=np.int32)
        rank[order] = np.arange(len(raw), dtype=np.int32)
        self._cyclic = [raw[i] for i in order]
        self._cyclic_gen = reps[order]
        self._elem_to_cyclic = rank[cls]
        self._maximal_cyclic = [raw[i] for i in order if not non_maximal[i]]

    def maximal_cyclic_subgroups(self) -> list[SubgroupSet]:
        """Cyclic subgroups not properly contained in a larger cyclic one,
        in key order; :meth:`_build_cyclic` finds them in its p-th-power
        pass."""
        if self._maximal_cyclic is None:
            self._build_cyclic()
        return self._maximal_cyclic

    # -- conjugacy ----------------------------------------------------------

    def _orbit(self, S: SubgroupSet) -> tuple[np.ndarray, np.ndarray, int]:
        """S's conjugacy orbit as packed key rows in key order, a row of
        recorded generator IDs per member, and the row of S itself.

        Breadth first on a matrix with one row per subgroup: its sorted
        member IDs, then its recorded generators.  Each level's frontier is
        conjugated by every group generator in one gather, and a conjugate
        is new when the bytes of its re-sorted member IDs are.  New
        conjugates keep (subgroup, generator) order, which fixes each one's
        generators: those of the subgroup it came from, conjugated by that
        generator.  The frontier holds members of one conjugacy class, and
        |class| |S| = |G:N(S)| |S| <= |G|, so a level's images hold at most
        k (|G| + |class| #gens) IDs for k group generators, about the size
        of the k conjugation tables.  The keys are packed straight from the
        ID rows (``_packed_keys``).
        """
        T = self.table
        tables = T.conj_by_gen()
        size = S.order
        frontier = np.concatenate([S.ids, np.array(S.gen_ids, dtype=np.int32)])[None]
        width = np.dtype((np.void, size * frontier.itemsize))
        seen = {S.ids.tobytes()}
        found = [frontier]
        while len(frontier):
            img = tables[:, frontier].transpose(1, 0, 2).reshape(-1, frontier.shape[1])
            img[:, :size].sort(axis=1)
            members = np.ascontiguousarray(img[:, :size]).view(width).ravel()
            fresh = []
            for i, row in enumerate(members.tolist()):
                if row not in seen:
                    seen.add(row)
                    fresh.append(i)
            frontier = img[fresh]
            found.append(frontier)
        rows = np.concatenate(found)
        keys = _packed_keys(rows[:, :size], T.n)
        as_bytes = keys.view(np.dtype((np.void, keys.shape[1]))).ravel().tolist()
        order = sorted(range(len(keys)), key=as_bytes.__getitem__)
        return keys[order], rows[order, size:], order.index(0)

    # -- maximal subgroups via ascending join-closure -----------------------

    def maximal_subgroups(self) -> list[SubgroupSet]:
        """Complete list of maximal subgroups, sorted by bit-vector key."""
        if self._maximal is None:
            self._run_worklist()
        return self._maximal

    def maximal_classes(self) -> list[list[SubgroupSet]]:
        """The conjugacy classes of maximal subgroups, each sorted by key:
        the orbits the worklist flagged maximal, in the order it recorded them."""
        self.maximal_subgroups()  # runs the worklist
        return [
            [self._member(r) for r in range(o.start, o.stop)]
            for o in self._recorded.orbits if o.maximal
        ]

    def all_subgroups(self) -> list[SubgroupSet]:
        """Every subgroup of the ambient group except the group itself,
        sorted by key."""
        if self._maximal is None:
            self._run_worklist()
        return self._members(range(self._recorded.count))

    def _members(self, rows) -> list[SubgroupSet]:
        return sorted((self._member(r) for r in rows), key=lambda s: s.key)

    def _spend_join(self) -> None:
        self.joins_spent += 1
        if self.joins_spent > self.join_budget:
            raise BudgetExhaustedError(
                "maximal-subgroup enumeration", self.join_budget
            )

    def _run_worklist(self) -> None:
        # an earlier run may have stopped on its budget
        self.joins_spent = self.joins_materialised = self.joins_exact = 0
        T = self.table
        rec = self._recorded = _Recorded(T)
        queue: list[tuple[int, bytes, int]] = []
        if T.n > 1:
            trivial = SubgroupSet(T, 1 << T.identity_id, gen_ids=[])
            key = np.frombuffer(trivial.key, dtype=np.uint8)[None]
            alone = rec.append(key, np.empty((1, 0), dtype=np.int32), 1, cyclic=True)
            alone.built[0] = trivial
            # The cyclic subgroups seed the worklist, one conjugacy class
            # each; a conjugate of ⟨g⟩ is ⟨g'⟩ for the conjugate g' of g.
            cyclics = self.cyclic_subgroups()
            recorded = np.zeros(len(cyclics), dtype=bool)
            for c, S in enumerate(cyclics):
                if recorded[c] or S.is_trivial_subgroup() or S.is_whole_group():
                    continue
                orbit = self._record(S, queue, cyclic=True)
                recorded[self._elem_to_cyclic[orbit.gens[:, 0]]] = True
            while queue:
                _, _, i = heapq.heappop(queue)
                self._process_class(rec.orbits[i], queue)
            if not any(o.maximal for o in rec.orbits):
                # No proper non-trivial subgroup at all: |G| is prime and
                # the trivial subgroup is the unique maximal subgroup.
                alone.maximal = True
        self._maximal = self._members(
            r for o in rec.orbits if o.maximal for r in range(o.start, o.stop)
        )

    def _record(self, S: SubgroupSet, queue: list, cyclic: bool) -> "_Orbit":
        """Record the conjugacy orbit of S, which is not recorded yet, and
        enqueue it by its representative, the member of least key.  S stays
        the object of its own row."""
        rec = self._recorded
        keys, gens, at = self._orbit(S)
        orbit = rec.append(keys, gens, S.order, cyclic)
        orbit.built[orbit.start + at] = S
        rep = rec.keys[orbit.start].tobytes()
        heapq.heappush(queue, (S.order, rep, len(rec.orbits) - 1))
        return orbit

    def _member(self, r: int) -> SubgroupSet:
        """The subgroup of row r of the key matrix, built on first use."""
        rec = self._recorded
        orbit = rec.orbit_of(r)
        S = orbit.built.get(r)
        if S is None:
            S = SubgroupSet.from_key(
                self.table, rec.keys[r].tobytes(),
                gen_ids=orbit.gens[r - orbit.start].tolist(),
            )
            orbit.built[r] = S
        return S

    def _process_class(self, orbit: "_Orbit", queue: list) -> None:
        """Join the class representative H, the orbit's first row, with its
        targets; flag the whole orbit maximal when every join is G.

        The smallest recorded subgroup that properly contains H and holds
        the target is found for every target first, and every new class a
        join records updates it for the targets after that join, so each
        join is answered against all the overgroups of H known at that time
        (see ``_join_answer``).

        Every join gets the Lagrange bound of ``_least_join_order`` against
        the smallest known overgroup K of H holding x (G when there is
        none).  Every class is also offered one random Schreier-Sims prepass
        over all its targets (``ElementTable.join_lower_bounds``), which
        decides for itself whether to run and, when it does, proves another
        lower bound on every |⟨H, x⟩|.  The targets are then
        answered in order, and a bound that passes |K|/2 proves that the
        join is K without an exact Schreier-Sims.  The bounds are proven
        whatever the random elements were, so the seed only decides how many
        joins fall back to the exact path, never what any join is.
        """
        T = self.table
        rec = self._recorded
        H = self._member(orbit.start)
        chain_H = cache(lambda: _chain_of_ids(T, H.gen_ids))
        targets = self._targets_for(H, T.n // H.order)
        over = _Overgroups(rec, H, targets)
        limits = np.where(over.best < 0, T.n, rec.orders[over.best])
        lower = T.join_lower_bounds(H, targets, limits).tolist()
        cyclic = self._cyclic
        cyclic_of = memoryview(self._elem_to_cyclic)  # indexes to Python ints
        all_join_full = True
        for j, x in enumerate(targets.tolist()):
            k = int(over.best[j])
            K = self._member(k) if k >= 0 else None
            C = cyclic[cyclic_of[x]]  # ⟨x⟩
            least = _least_join_order(
                H.order, C.order, (H.bits & C.bits).bit_count(),
                T.n if K is None else K.order,
            )
            J = self._join_answer(H, chain_H, x, K, max(lower[j], least))
            if J is None:
                continue
            all_join_full = False
            if J is not K:
                # the argument of ``_join_answer``, checked on every join
                # that builds its subgroup
                if rec.holds(J):
                    raise InvariantError("a materialised join was recorded already")
                new = self._record(J, queue, cyclic=False)
                over.add(new.start, new.stop, j + 1)
        orbit.maximal = all_join_full

    def _join_answer(
        self,
        H: SubgroupSet,
        chain_H: Callable[[], StabilizerChain],
        x: int,
        K: SubgroupSet | None,
        lower: int,
    ) -> SubgroupSet | None:
        """⟨H, x⟩ for a target x outside H, for one join: None when it is G.

        K is the smallest known subgroup that properly contains H and
        contains x, so ⟨H, x⟩ ≤ K (≤ G when K is None).  When ``lower``, a
        proven lower bound on |⟨H, x⟩| (from Lagrange or the prepass),
        passes |K|/2, the join is K; it spends the join like any other
        answer.  Otherwise Schreier-Sims from H's chain, which ``chain_H()``
        builds on its first call, stops as soon as the order passes |K|/2,
        and the join is again K, already known.  A join that stays at or
        below |K|/2 is smaller than every known overgroup of H that holds x,
        so it is a new subgroup, and only then are its elements built.
        """
        within = self.table.n if K is None else K.order
        if 2 * lower > within:
            self._spend_join()
            return K
        chain = self._join(chain_H(), x, within)
        if chain is None:
            return K
        self.joins_materialised += 1
        return _subgroup_from_chain(self.table, chain, H.gen_ids + [x])

    def _join(
        self, chain: StabilizerChain, x: int, within: int | None = None
    ) -> StabilizerChain | None:
        """The chain of ⟨chain, x⟩, or None when that join is the subgroup of
        order ``within`` (default |G|) known to contain it.

        Schreier-Sims stops once the partial order passes within/2: a
        subgroup of that subgroup whose order is above half of its order is
        the whole of it.
        """
        self._spend_join()
        self.joins_exact += 1
        limit = (self.table.n if within is None else within) // 2
        return chain.extended(_row_tuple(self.table, x), limit)

    def _targets_for(self, H: SubgroupSet, index: int) -> np.ndarray:
        """Element IDs x whose joins ⟨H, x⟩ witness H's maximality status.

        Either one generator per cyclic subgroup not inside H, or one
        representative per non-trivial coset of H — whichever set is smaller —
        deduplicated under conjugation by H (valid because discovered joins
        are pushed as whole conjugacy orbits).  Each H-orbit is represented
        by its least member: the cyclic subgroup first in key order, or the
        least element of the double coset HxH, whose right cosets Hx are
        labelled by ``_coset_minima``.  Targets come in ascending order.
        """
        T = self.table
        self.cyclic_subgroups()
        in_h = np.zeros(T.n, dtype=bool)
        in_h[H.ids] = True
        gens = self._cyclic_gen
        outside = ~in_h[gens]
        if np.count_nonzero(outside) <= index - 1:
            # conjugating a generator of C by h gives a generator of C^h
            label = _orbit_minima(
                [self._elem_to_cyclic[T.conj(gens, h)] for h in H.gen_ids],
                len(gens),
            )
            return gens[outside & (label == np.arange(len(gens)))]

        coset_min = self._coset_minima(H)
        reps = np.flatnonzero((coset_min == np.arange(T.n)) & ~in_h).astype(np.int32)
        # conjugation by h maps the coset Hy to Hyh
        label = _orbit_minima(
            [np.searchsorted(reps, coset_min[T.conj(reps, h)]) for h in H.gen_ids],
            len(reps),
        )
        return reps[label == np.arange(len(reps))]

    def _coset_minima(self, H: SubgroupSet) -> np.ndarray:
        """Every element labelled by the least element of its right coset
        Hx, the orbit of x under left multiplication by H's generators."""
        T = self.table
        all_ids = np.arange(T.n, dtype=np.int32)
        return _orbit_minima([T.lmul(h, all_ids) for h in H.gen_ids], T.n)

    # -- normal structure ---------------------------------------------------

    def normal_subgroups(self) -> list[SubgroupSet]:
        """All normal subgroups, G included, sorted by key.

        The worklist records every proper subgroup with its whole conjugacy
        orbit, so these are its one-member orbits, and G.
        """
        if self._normals is None:
            self.maximal_subgroups()  # runs the worklist
            T = self.table
            whole = SubgroupSet(T, (1 << T.n) - 1, gen_ids=T.generator_ids())
            normals = self._members(
                o.start for o in self._recorded.orbits if len(o.gens) == 1
            )
            self._normals = sorted(normals + [whole], key=lambda s: s.key)
        return self._normals

    def minimal_normal_subgroups(self) -> list[SubgroupSet]:
        """The non-trivial normal subgroups with no smaller one inside."""
        normals = [S for S in self.normal_subgroups() if not S.is_trivial_subgroup()]
        return [
            S for S in normals
            if not any(O.order < S.order and O.bits & S.bits == O.bits for O in normals)
        ]

    def socle(self) -> SubgroupSet:
        """The subgroup generated by the minimal normal subgroups, which is
        normal, so the normal closure of their union."""
        bits = 0
        for S in self.minimal_normal_subgroups():
            bits |= S.bits
        return self.normal_closure(bits)

    def normal_closure(self, bits: int) -> SubgroupSet:
        """The least normal subgroup holding every element of the bitmask,
        read off :meth:`normal_subgroups`: normal subgroups are closed under
        intersection, so the one of least order among those holding the
        elements lies in all the others."""
        return min(
            (N for N in self.normal_subgroups() if N.bits & bits == bits),
            key=lambda N: N.order,
        )

    def frattini(self) -> SubgroupSet:
        """Intersection of all maximal subgroups, and G when there are none."""
        bits = (1 << self.table.n) - 1
        for M in self.maximal_subgroups():
            bits &= M.bits
        return SubgroupSet(self.table, bits)

    # -- chief series and complements ---------------------------------------

    def chief_series(self) -> list[ChiefFactorRecord]:
        """A maximal chain of normal subgroups with complement counts."""
        if self._chief is None:
            T = self.table
            normals = self.normal_subgroups()
            records: list[ChiefFactorRecord] = []
            current = next(S for S in normals if S.is_trivial_subgroup())
            while not current.is_whole_group():
                above = [
                    S for S in normals
                    if S.order > current.order
                    and S.bits & current.bits == current.bits
                ]
                S = min(above, key=lambda s: (s.order, s.key))
                records.append(
                    ChiefFactorRecord(
                        S=S,
                        K=current,
                        factor_order=S.order // current.order,
                        complement_count=len(self.complements(S, current)),
                    )
                )
                current = S
            self._chief = records
        return self._chief

    def complements(self, S: SubgroupSet, K: SubgroupSet) -> list[SubgroupSet]:
        """The subgroups H ≤ G with HS = G and H ∩ S = K, sorted by key.

        Such an H has order |G||K|/|S|, and conversely a subgroup of that
        order meeting S in K has |HS| = |G|, so they read straight off the
        worklist's key matrix.
        """
        self.maximal_subgroups()  # runs the worklist
        rec = self._recorded
        rows = np.flatnonzero(rec.orders[: rec.count] == self.table.n * K.order // S.order)
        s_key, k_key = (np.frombuffer(X.key, dtype=np.uint8) for X in (S, K))
        return self._members(rows[((rec.keys[rows] & s_key) == k_key).all(axis=1)].tolist())


@dataclass
class _Orbit:
    """One conjugacy class the worklist recorded: rows start..stop of the
    key matrix, in key order, with a row of recorded generator IDs per
    member.  It holds the lattice's facts about its members: they are
    normal when it has one member, cyclic when ``cyclic``, and maximal when
    ``maximal``, which stays None until the class is joined (for the
    trivial class, which is never joined, unless |G| is prime)."""

    start: int
    gens: np.ndarray
    cyclic: bool
    maximal: bool | None = None
    built: dict[int, SubgroupSet] = field(default_factory=dict)  # by row

    @property
    def stop(self) -> int:
        return self.start + len(self.gens)


class _Recorded:
    """Every subgroup the worklist has recorded, a whole conjugacy class at
    a time: one row of packed membership bytes (its key) each, in one
    append-only uint8 matrix, with its order."""

    def __init__(self, table: ElementTable):
        self.keys = _mapped_rows(_RECORDED_ROWS, (table.n + 7) // 8)
        self.orders = np.empty(_RECORDED_ROWS, dtype=np.int64)
        self.count = 0
        self.orbits: list[_Orbit] = []
        self._starts: list[int] = []

    def append(self, keys: np.ndarray, gens: np.ndarray, order: int, cyclic: bool):
        start, stop = self.count, self.count + len(keys)
        if stop > len(self.keys):
            cap = max(stop, 2 * len(self.keys))
            grown = _mapped_rows(cap, self.keys.shape[1])
            grown[:start] = self.keys[:start]
            self.keys = grown
            grown = np.empty(cap, dtype=np.int64)
            grown[:start] = self.orders[:start]
            self.orders = grown
        self.keys[start:stop] = keys
        self.orders[start:stop] = order
        self.count = stop
        orbit = _Orbit(start, gens, cyclic)
        self.orbits.append(orbit)
        self._starts.append(start)
        return orbit

    def orbit_of(self, r: int) -> _Orbit:
        return self.orbits[bisect_right(self._starts, r) - 1]

    def holds(self, S: SubgroupSet) -> bool:
        """Whether some recorded row is S's key."""
        rows = np.flatnonzero(self.orders[: self.count] == S.order)
        key = np.frombuffer(S.key, dtype=np.uint8)
        return bool((self.keys[rows] == key).all(axis=1).any())


def _packed_keys(ids: np.ndarray, n: int) -> np.ndarray:
    """The key of each row of sorted member IDs out of n elements: its
    membership bits packed little-endian, bit i of byte i // 8 for ID i.

    The bits of each (row, byte) pair are ORed over the run of IDs that
    share it, so the work is the size of the ID matrix, not of the keys.
    """
    width = (n + 7) // 8
    at = ((ids >> 3) + np.arange(0, len(ids) * width, width)[:, None]).ravel()
    bits = np.left_shift(1, ids & 7).astype(np.uint8).ravel()
    runs = np.flatnonzero(np.diff(at, prepend=-1))
    keys = np.zeros(len(ids) * width, dtype=np.uint8)
    keys[at[runs]] = np.bitwise_or.reduceat(bits, runs)
    return keys.reshape(len(ids), width)


def _mapped_rows(count: int, width: int) -> np.ndarray:
    """A zeroed count x width uint8 matrix in an anonymous memory map of its
    own, which goes back to the system as soon as the matrix is dropped.

    The key matrix is reallocated as it grows and dropped with its lattice.
    Taken from malloc, each free of such a block raises glibc's mmap
    threshold, so the next lattice's blocks stay in the heap: on Linux that
    held the simple-large benchmark's peak RSS at 105 MiB, where keeping
    the subgroups as objects took 98 MiB.
    """
    buffer = mmap.mmap(-1, count * width)
    return np.frombuffer(buffer, dtype=np.uint8).reshape(count, width)


class _Overgroups:
    """Per target, ``best``: the row of the smallest recorded subgroup that
    properly contains H and holds the target, the first recorded of those
    on a tie, or -1 when only G does.

    K contains H exactly when it holds H's generators, so one gather of
    their key bits over new rows of larger order finds those that contain
    H, and one gather of the targets' key bits over these finds the ones
    that hold each target.  Rows are recorded once and never change, so
    only new rows can change ``best``.
    """

    def __init__(self, recorded: _Recorded, H: SubgroupSet, targets: np.ndarray):
        self.recorded = recorded
        self.order = H.order
        g = np.array(H.gen_ids, dtype=np.intp)
        self._cols, self._bits = g >> 3, (1 << (g & 7)).astype(np.uint8)
        self._x_cols, self._x_shifts = targets >> 3, (targets & 7).astype(np.uint8)
        self.best = np.full(len(targets), -1, dtype=np.intp)
        self.add(0, recorded.count, 0)

    def add(self, start: int, stop: int, first: int) -> None:
        """Let rows start..stop, recorded after every row in ``best``, answer
        the targets from ``first`` on."""
        rec = self.recorded
        rows = start + np.flatnonzero(rec.orders[start:stop] > self.order)
        held = rec.keys[rows[:, None], self._cols] & self._bits
        rows = rows[held.all(axis=1)]
        if not len(rows):
            return
        rows = rows[np.argsort(rec.orders[rows], kind="stable")]
        hit = (rec.keys[rows[:, None], self._x_cols[first:]] >> self._x_shifts[first:]) & 1
        new = rows[np.argmax(hit, axis=0)]
        old = self.best[first:]  # a view: writing to it writes to best
        better = hit.any(axis=0) & ((old < 0) | (rec.orders[new] < rec.orders[old]))
        old[better] = new[better]


def _least_join_order(h: int, o: int, meet: int, within: int) -> int:
    """The least order Lagrange allows ⟨H, x⟩ inside a subgroup of order
    ``within`` holding both, for |H| = h, o(x) = o and |H ∩ ⟨x⟩| = meet.

    |⟨H, x⟩| divides ``within``, is a multiple of lcm(h, o) and is at least
    |H⟨x⟩| = h o / meet, so it is at least the least divisor with both.
    """
    step, least = lcm(h, o), h * o // meet
    quotients = _divisors(within // step)
    return step * quotients[bisect_left(quotients, -(-least // step))]


@cache
def _divisors(n: int) -> tuple[int, ...]:
    """The divisors of n, ascending."""
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return tuple(small + [n // d for d in reversed(small) if d * d != n])


def _unit_generators(o: int) -> list[int]:
    """A few units k mod o that generate all of them under multiplication."""
    gens: list[int] = []
    reached = {1}
    for k in range(2, o):
        if k in reached or gcd(k, o) != 1:
            continue
        gens.append(k)
        while True:
            more = {r * k % o for r in reached} - reached
            if not more:
                break
            reached |= more
    return gens


def _orbit_minima(perms: list[np.ndarray], size: int) -> np.ndarray:
    """For each of 0..size-1, the least point of its orbit under the perms.

    Every label stays a point of the same orbit and never grows; at the fixed
    point of "take the successor's label, then the label's label", labels
    are constant along every cycle of every permutation, so on every orbit.
    """
    label = np.arange(size, dtype=np.int32)
    while True:
        new = label
        for p in perms:
            new = np.minimum(new, new[p])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def lattice(
    G: PermGroup,
    cap: int = DEFAULT_ELEMENT_CAP,
    join_budget: int = DEFAULT_JOIN_BUDGET,
) -> SubgroupLattice:
    """The (cached) subgroup lattice helper for a group.

    A cached lattice whose worklist has not finished takes this call's join
    budget, so a run that stopped on an earlier, smaller budget is retried.
    The element cap is checked on every call, cached lattice or not.
    """
    G.table(cap)
    lat = G._cache.get("lattice")
    if lat is None:
        lat = SubgroupLattice(G, cap=cap, join_budget=join_budget)
        G._cache["lattice"] = lat
    elif lat._maximal is None:
        lat.join_budget = join_budget
    return lat
