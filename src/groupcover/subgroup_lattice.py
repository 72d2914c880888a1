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
(|G|/2) proves the join is K (G).  Only the targets it leaves open take the
exact path above, in the same order, so the pushes, the recorded generators
and the join counts are those of the exact path alone.  The random elements
only decide how soon a bound is reached, never what a join is, so no result
depends on the seed.

The same worklist discovers every subgroup of the ambient group, with its
normality, which the normal-subgroup, chief-series and complement
computations then reuse.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections.abc import Callable
from dataclasses import dataclass
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
)
from .perm import Permutation
from .subgroup import SubgroupSet, bits_from_ids

DEFAULT_JOIN_BUDGET = 10**7
_CONJUGATE_CHUNK = 64  # frontier subgroups conjugated together

# The join prepass (``ElementTable.join_lower_bounds``) runs on a class with
# at least _PREPASS_MIN_TARGETS targets.  Timed per class over the worklists
# of the 69 MANIFEST groups of order <= 8160 (2-core machine), prepass and
# fallback joins against exact joins alone take 1.1-1.6x below 16 targets,
# 0.7-1.0x at 16-31, 0.6-0.9x at 32-63 and 0.4-0.65x from 64 up.  At 64
# every class that runs it gains a third or more, and the small solvable
# groups (no class over 42 targets) run no prepass.
_PREPASS_MIN_TARGETS = 64


def _prime_factors(n: int) -> list[int]:
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
        self._cyclic: list[SubgroupSet] | None = None
        self._cyclic_gen: np.ndarray | None = None
        self._elem_to_cyclic: np.ndarray | None = None
        self._maximal_cyclic: list[SubgroupSet] | None = None
        self._maximal: list[SubgroupSet] | None = None
        self._all_subgroups: dict[bytes, SubgroupSet] | None = None
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
        for p in _prime_factors(n):  # every element order divides |G|
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
        raw = []
        for c, g in enumerate(reps.tolist()):
            S = SubgroupSet(T, bits[c], gen_ids=[g])
            S.is_cyclic = True
            raw.append(S)
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

    def conjugates(self, S: SubgroupSet) -> list[SubgroupSet]:
        """The full conjugacy orbit of a subgroup, sorted by key.

        Breadth first: every frontier subgroup is conjugated by every group
        generator, and new conjugates are kept in (subgroup, generator)
        order.  The frontier is conjugated in chunks of at most
        ``_CONJUGATE_CHUNK`` subgroups, one gather and one packed mask per
        chunk and generator, which bounds the temporaries at that many
        membership rows.
        """
        T = self.table
        tables = T.conj_by_gen()
        seen: dict[bytes, SubgroupSet] = {S.key: S}
        frontier = [S]
        while frontier:
            nxt = []
            for start in range(0, len(frontier), _CONJUGATE_CHUNK):
                chunk = frontier[start : start + _CONJUGATE_CHUNK]
                ids = np.stack([H.ids for H in chunk])  # conjugates: one order
                at = np.arange(len(chunk))[:, None]
                images = []
                for ct in tables:
                    img = ct[ids]
                    mask = np.zeros((len(chunk), T.n), dtype=bool)
                    mask[at, img] = True
                    images.append(
                        (ct, img, np.packbits(mask, axis=1, bitorder="little"))
                    )
                for i, H in enumerate(chunk):
                    for ct, img, packed in images:
                        key = packed[i].tobytes()
                        if key in seen:
                            continue
                        C = SubgroupSet.from_key(
                            T, key, np.sort(img[i]),
                            gen_ids=[int(ct[g]) for g in H.gen_ids],
                        )
                        C.is_cyclic = H.is_cyclic
                        seen[key] = C
                        nxt.append(C)
            frontier = nxt
        return sorted(seen.values(), key=lambda x: x.key)

    def is_normal(self, S: SubgroupSet) -> bool:
        if S.is_normal is None:
            T = self.table
            S.is_normal = all(
                bits_from_ids(ct[S.ids]) == S.bits for ct in T.conj_by_gen()
            )
        return S.is_normal

    # -- maximal subgroups via ascending join-closure -----------------------

    def maximal_subgroups(self) -> list[SubgroupSet]:
        """Complete list of maximal subgroups, sorted by bit-vector key."""
        if self._maximal is None:
            self._run_worklist()
        return self._maximal

    def all_subgroups(self) -> list[SubgroupSet]:
        """Every subgroup of the ambient group except the group itself."""
        if self._all_subgroups is None:
            self._run_worklist()
        return sorted(self._all_subgroups.values(), key=lambda s: s.key)

    def _spend_join(self) -> None:
        self.joins_spent += 1
        if self.joins_spent > self.join_budget:
            raise BudgetExhaustedError(
                "maximal-subgroup enumeration", self.join_budget
            )

    def _run_worklist(self) -> None:
        self.joins_spent = 0  # an earlier run may have stopped on its budget
        self.joins_materialised = 0
        T = self.table
        n = T.n
        trivial = SubgroupSet(T, bits_from_ids([T.identity_id]), gen_ids=[])
        trivial.is_cyclic = True
        trivial.is_normal = True
        discovered: dict[bytes, SubgroupSet] = {trivial.key: trivial}
        maximal: list[SubgroupSet] = []

        if n == 1:
            self._all_subgroups = {}
            self._maximal = []
            return

        cyclics = self.cyclic_subgroups()
        cyc_key = {S.key for S in cyclics}
        queue: list[tuple[int, bytes, int]] = []
        recorded: list[list[SubgroupSet]] = []  # every orbit pushed, in order

        def push_class(S: SubgroupSet) -> list[SubgroupSet]:
            """Record S's whole conjugacy orbit and enqueue its representative;
            return the orbit, or nothing when S is known already."""
            if S.key in discovered:
                return []
            orbit = self.conjugates(S)
            normal = len(orbit) == 1
            for C in orbit:
                C.is_normal = normal
                if C.is_cyclic is None:
                    C.is_cyclic = C.key in cyc_key
                discovered[C.key] = C
            rep = orbit[0]
            heapq.heappush(queue, (rep.order, rep.key, len(recorded)))
            recorded.append(orbit)
            return orbit

        for S in cyclics:
            if not S.is_trivial_subgroup() and not S.is_whole_group():
                push_class(S)

        while queue:
            _, _, i = heapq.heappop(queue)
            self._process_class(recorded[i], push_class, recorded, maximal)

        if not maximal and n > 1:
            # No proper non-trivial subgroup at all: |G| is prime and the
            # trivial subgroup is the unique maximal subgroup.
            trivial.is_maximal = True
            maximal.append(trivial)

        self._all_subgroups = discovered
        self._maximal = sorted(maximal, key=lambda s: s.key)

    def _process_class(self, orbit, push_class, recorded, maximal) -> None:
        """Join the class representative H = orbit[0] with its targets; flag
        the whole orbit maximal when every join is G.

        The members of the recorded orbits that properly contain H are
        indexed first, and every new class a join pushes adds its members
        that contain H, so each join is answered against all the overgroups
        of H known at that time (see ``_join_answer``).

        Every join gets the Lagrange bound of ``_least_join_order`` against
        the smallest known overgroup K of H holding x (G when there is
        none).  A class with many targets also runs one random Schreier-Sims
        prepass over all of them (``ElementTable.join_lower_bounds``), which
        proves another lower bound on every |⟨H, x⟩|.  The targets are then
        answered in order, and a bound that passes |K|/2 proves that the
        join is K without an exact Schreier-Sims.  The bounds are proven
        whatever the random elements were, so the seed only decides how many
        joins fall back to the exact path, never what any join is.
        """
        T = self.table
        H = orbit[0]
        chain_H = cache(lambda: _chain_of_ids(T, H.gen_ids))
        targets = self._targets_for(H, T.n // H.order)
        over = _Overgroups(H, recorded)
        smallest = over.smallest_containing(targets)
        # a large degree (a regular representation, say) makes each target's
        # chain too large for a chunk of targets; those joins stay exact
        if min(len(targets), T.prepass_chunk()) >= _PREPASS_MIN_TARGETS:
            limits = np.array([K.order for K in over.groups] + [T.n])[smallest]
            lower = T.join_lower_bounds(H, targets, limits).tolist()
        else:
            lower = [0] * len(targets)
        cyclic = self._cyclic
        cyclic_of = memoryview(self._elem_to_cyclic)  # indexes to Python ints
        all_join_full = True
        for j, x in enumerate(targets.tolist()):
            k = int(smallest[j])
            K = over.groups[k] if k < len(over.groups) else None
            C = cyclic[cyclic_of[x]]  # ⟨x⟩
            least = _least_join_order(
                H.order, C.order, (H.bits & C.bits).bit_count(),
                T.n if K is None else K.order,
            )
            J = self._join_answer(H, chain_H, x, K, max(lower[j], least))
            if J is None:
                continue
            all_join_full = False
            if over.add(push_class(J)):
                smallest[j + 1 :] = over.smallest_containing(targets[j + 1 :])
        for M in orbit:
            M.is_maximal = all_join_full
        if all_join_full:
            maximal.extend(orbit)

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
        limit = (self.table.n if within is None else within) // 2
        return chain.extended(_row_tuple(self.table, x), limit)

    def _targets_for(self, H: SubgroupSet, index: int) -> np.ndarray:
        """Element IDs x whose joins ⟨H, x⟩ witness H's maximality status.

        Either one generator per cyclic subgroup not inside H, or one
        representative per non-trivial coset of H — whichever set is smaller —
        deduplicated under conjugation by H (valid because discovered joins
        are pushed as whole conjugacy orbits).  Each H-orbit is represented
        by its least member: the cyclic subgroup first in key order, or the
        least element of the double coset HxH.  Targets come in ascending order.
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
                [self._elem_to_cyclic[T.conj_rows(gens, h)] for h in H.gen_ids],
                len(gens),
            )
            return gens[outside & (label == np.arange(len(gens)))]

        # label every element by the least element of its right coset Hx
        all_ids = np.arange(T.n, dtype=np.int32)
        coset_min = _orbit_minima([T.lmul_many(h, all_ids) for h in H.gen_ids], T.n)
        reps = np.nonzero((coset_min == all_ids) & ~in_h)[0].astype(np.int32)
        # conjugation by h maps the coset Hy to Hyh
        label = _orbit_minima(
            [np.searchsorted(reps, coset_min[T.conj_rows(reps, h)]) for h in H.gen_ids],
            len(reps),
        )
        return reps[label == np.arange(len(reps))]

    # -- normal structure ---------------------------------------------------

    def normal_subgroups(self) -> list[SubgroupSet]:
        """All normal subgroups, G included, sorted by key.

        The worklist records every proper subgroup with its whole conjugacy
        orbit, so this only keeps the ones flagged normal and adds G.
        """
        if self._normals is None:
            T = self.table
            whole = SubgroupSet(T, (1 << T.n) - 1, gen_ids=T.generator_ids())
            whole.is_normal = True
            normals = [S for S in self.all_subgroups() if S.is_normal]
            self._normals = sorted(normals + [whole], key=lambda s: s.key)
        return self._normals

    def minimal_normal_subgroups(self) -> list[SubgroupSet]:
        normals = [
            S for S in self.normal_subgroups()
            if not S.is_trivial_subgroup() and not S.is_whole_group()
        ]
        if not normals:
            whole = [S for S in self.normal_subgroups() if S.is_whole_group()]
            return whole if self.table.n > 1 else []
        out = []
        for S in normals:
            if not any(
                O.order < S.order and O.bits & S.bits == O.bits for O in normals
            ):
                out.append(S)
        return out

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
        """Intersection of all maximal subgroups."""
        maxes = self.maximal_subgroups()
        if not maxes:
            return SubgroupSet(self.table, (1 << self.table.n) - 1)
        bits = maxes[0].bits
        for M in maxes[1:]:
            bits &= M.bits
        return SubgroupSet(self.table, bits)

    # -- quotients ----------------------------------------------------------

    def quotient(self, N: SubgroupSet) -> PermGroup:
        """G/N as a permutation group on the right cosets of N, numbered in
        the order of their least element IDs."""
        T = self.table
        if not self.is_normal(N):
            raise ValueError("quotient requires a normal subgroup")
        coset_of = np.full(T.n, -1, dtype=np.int64)
        reps: list[int] = []
        n_ids = N.ids
        for x in range(T.n):
            if coset_of[x] >= 0:
                continue
            coset_of[T.mul_many(n_ids, x)] = len(reps)
            reps.append(x)
        gens = [
            Permutation((coset_of[T.mul_many(reps, gid)] + 1).tolist())
            for gid in T.generator_ids()
        ]
        name = f"{self.group.label()}/[order {N.order}]"
        Q = PermGroup(gens, degree=len(reps), name=name)
        if Q.order() != T.n // N.order:
            raise InvariantError("quotient order disagrees with the index")
        return Q

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
        worklist's list of all subgroups.
        """
        want = self.table.n * K.order // S.order
        return [
            H for H in self.all_subgroups()
            if H.order == want and H.bits & S.bits == K.bits
        ]


class _Overgroups:
    """The known subgroups that properly contain H, smallest first.

    Each is held as a row of its packed membership bytes (its key), so one
    column gather tests an element against all of them.  A last row of
    ones stands for G, which holds every element.
    """

    def __init__(self, H: SubgroupSet, orbits: list[list[SubgroupSet]]):
        self.H = H
        self.groups: list[SubgroupSet] = []
        self._rows = np.full((1, len(H.key)), 0xFF, dtype=np.uint8)
        order = H.order
        self.add(
            K for orbit in orbits
            if orbit[0].order > order and orbit[0].order % order == 0
            for K in orbit
        )

    def add(self, subgroups) -> bool:
        """Index those of the given subgroups, all larger than H, that
        contain H; True when there were any."""
        # K contains H exactly when it holds H's generators, one key byte
        # each; the first one alone rules out most K
        (q, bit), *rest = [(g >> 3, 1 << (g & 7)) for g in self.H.gen_ids]
        new = [
            K for K in subgroups
            if K.key[q] & bit and all(K.key[r] & b for r, b in rest)
        ]
        if new:
            self.groups = sorted(self.groups + new, key=lambda K: K.order)
            keys = [K.key for K in self.groups] + [self._rows[-1].tobytes()]
            self._rows = np.frombuffer(b"".join(keys), dtype=np.uint8).reshape(
                len(keys), -1
            )
        return bool(new)

    def smallest_containing(self, xs: np.ndarray) -> np.ndarray:
        """Per element ID, the index in ``groups`` of the first (smallest)
        one that contains it, or len(groups) when none does."""
        hit = (self._rows[:, xs >> 3] >> (xs & 7).astype(np.uint8)) & 1
        return np.argmax(hit, axis=0)


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
