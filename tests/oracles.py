"""Brute-force reference implementations used to cross-check the package.

Everything in this module is deliberately independent of ``groupcover``: it
works on plain image tuples (0-based) and an explicitly built multiplication
table.  The algorithms are the naive textbook ones — breadth-first closure,
cyclic-extension subgroup enumeration, and an exhaustive branch-and-bound
cover search over ALL proper subgroups (not only maximal ones) — so that
agreement with the package is meaningful evidence, not a shared bug.

The exceptions are :class:`ReferenceSearch`, the package's cover search
before it kept its rows' column counts as bit planes, with the residual
lower bound as it was before it read per-order count tiers;
:func:`reference_verify_cover`, the cover check before it ran on G's
stabilizer chain alone; :func:`lmul_by_lookup` and :func:`conj_by_lookup`,
the element table's products before they ran on word tables; and
:func:`quotient`, G/N as a permutation group on the cosets of N.  They run
on the package's own objects, because what they check is that the faster
code gives the same results: the same branch-and-bound tree, the same
verdict, reason and witness, the same products, and the σ(G/N) the package
reads off G's own lattice.
"""

from __future__ import annotations

from collections import Counter
from math import lcm

import numpy as np

from groupcover.cover import (
    CoverInstance,
    VerifyResult,
    _bit_indices,
    greedy_upper_bound,
)
from groupcover.errors import BudgetExhaustedError, InvariantError
from groupcover.group import DEFAULT_ELEMENT_CAP, PermGroup, StabilizerChain
from groupcover.perm import Permutation, parse_cycles
from groupcover.subgroup_lattice import _subgroup_from_chain


def o_compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Apply ``a`` first, then ``b`` (left-to-right)."""
    return tuple(b[x] for x in a)


def o_inverse(a: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def o_order(a: tuple[int, ...]) -> int:
    """Order of a permutation as the lcm of its cycle lengths."""
    seen = [False] * len(a)
    result = 1
    for start in range(len(a)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = a[x]
            length += 1
        result = lcm(result, length)
    return result


def o_closure(gens, degree: int) -> frozenset[tuple[int, ...]]:
    """All products of the generators, by breadth-first search."""
    identity = tuple(range(degree))
    seen = {identity}
    frontier = [identity]
    gens = [tuple(g) for g in gens]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = o_compose(x, g)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return frozenset(seen)


def coset_closure(rows, cols, H, gens, abort_over: int | None = None):
    """The subgroup generated by ``gens``, as a frozenset of element ids, by
    one step of Dimino's algorithm; None once it has more than ``abort_over``
    elements (it is then the whole group whenever abort_over >= n // the
    smallest prime divisor of n).

    ``H`` is a subgroup inside the one generated, and ``rows[a][b]`` and
    ``cols[b][a]`` are both the id of (apply a, then b).  The result is grown
    as a union of right cosets H·r: every coset representative r is
    multiplied on the right by every generator, and a product y outside the
    union adds its whole coset H·y and becomes a representative itself.  A
    union of cosets closed under right multiplication by the generators is
    the subgroup they generate.
    """
    H = list(H)
    member = bytearray(len(rows))
    for h in H:
        member[h] = 1
    elements = list(H)
    reps = [H[0]]  # any element of H represents the coset H itself
    for r in reps:
        row = rows[r]
        for g in gens:
            y = row[g]
            if member[y]:
                continue
            col = cols[y]
            coset = [col[h] for h in H]
            for z in coset:
                member[z] = 1
            elements.extend(coset)
            reps.append(y)
        if abort_over is not None and len(elements) > abort_over:
            return None
    return frozenset(elements)


class BruteGroup:
    """A finite group held as an explicit multiplication table.

    Elements are indexed by their position in the lexicographically sorted
    list of image tuples, which matches any other table built from the same
    element set in the same way.
    """

    def __init__(self, elements):
        elems = sorted(tuple(e) for e in elements)
        self.elements: list[tuple[int, ...]] = elems
        self.n = len(elems)
        self.degree = len(elems[0])
        self.index = {e: i for i, e in enumerate(elems)}
        self.identity_id = self.index[tuple(range(self.degree))]
        E = np.array(elems, dtype=np.int32)
        # Big-endian rows compared as raw bytes compare lexicographically,
        # so the sorted element list is sorted as byte strings too and a
        # binary search finds the ID of any product.
        key = np.dtype((np.void, 4 * self.degree))
        sorted_keys = E.astype(">i4").view(key).ravel()
        # mul[a, b] = id of (apply a, then b): row a's images looked up in row b
        mul = np.empty((self.n, self.n), dtype=np.int32)
        for b in range(self.n):
            composed = E[b][E]
            composed_keys = composed.astype(">i4").view(key).ravel()
            found = np.searchsorted(sorted_keys, composed_keys)
            if (found >= self.n).any() or not (E[found] == composed).all():
                raise ValueError("the elements are not closed under products")
            mul[:, b] = found
        self.mul = mul
        self.orders = [o_order(e) for e in elems]
        self._subgroups: set[frozenset[int]] | None = None

    @classmethod
    def from_generators(cls, gens, degree: int) -> "BruteGroup":
        return cls(o_closure(gens, degree))

    # -- subgroup machinery -------------------------------------------------

    def cyclic_subgroups(self) -> dict[frozenset[int], int]:
        """All cyclic subgroups, mapped to one generating element id."""
        out: dict[frozenset[int], int] = {}
        for g in range(self.n):
            powers = {self.identity_id}
            x = g
            while x != self.identity_id:
                powers.add(x)
                x = int(self.mul[x, g])
            key = frozenset(powers)
            out.setdefault(key, g)
        return out

    def all_subgroups(self) -> set[frozenset[int]]:
        """Every subgroup, by cyclic extension: grow each known subgroup by
        one cyclic generator at a time until no new subgroup appears."""
        if self._subgroups is not None:
            return self._subgroups
        full = frozenset(range(self.n))
        # Any proper subgroup order divides n and is <= n // smallest prime p | n.
        half = self.n // min(
            p for p in range(2, self.n + 1) if self.n % p == 0
        ) if self.n > 1 else 1
        rows, cols = self.mul.tolist(), self.mul.T.tolist()
        cyclics = self.cyclic_subgroups()
        subs: set[frozenset[int]] = set(cyclics) | {full}
        # each known subgroup with a list of elements generating it
        frontier = [(s, [g]) for s, g in cyclics.items() if s != full]
        while frontier:
            H, gens = frontier.pop()
            for C, g in cyclics.items():
                if g in H:
                    continue
                # |<H, g>| is at least |H|*|C|/|H ∩ C|; skip the closure when
                # that already forces the whole group.
                if len(H) * len(C) // len(H & C) > half:
                    continue
                new = coset_closure(rows, cols, H, gens + [g], abort_over=half)
                if new is None or new in subs:
                    continue
                subs.add(new)
                frontier.append((new, gens + [g]))
        self._subgroups = subs
        return subs

    def proper_subgroups(self) -> list[frozenset[int]]:
        return [s for s in self.all_subgroups() if len(s) < self.n]

    def conjugacy_orbit(self, H: frozenset[int]) -> set[frozenset[int]]:
        """Every conjugate g^-1 H g of a subgroup, one per element g."""
        inverse = np.argmax(self.mul == self.identity_id, axis=1)
        members = np.array(sorted(H))
        return {
            frozenset(self.mul[self.mul[inverse[g], members], g].tolist())
            for g in range(self.n)
        }

    def is_subgroup_normal(self, H: frozenset[int]) -> bool:
        for g in range(self.n):
            ginv = int(np.where(self.mul[g] == self.identity_id)[0][0])
            for h in H:
                if int(self.mul[int(self.mul[ginv, h]), g]) not in H:
                    return False
        return True

    # -- exhaustive minimum cover ------------------------------------------

    def min_cover_size(self) -> int | None:
        """Exact minimum number of proper subgroups whose union is the group,
        or None when no such cover exists (cyclic groups)."""
        full = frozenset(range(self.n))
        sets = sorted(self.proper_subgroups(), key=len, reverse=True)
        union: set[int] = set()
        for s in sets:
            union |= s
        if union != full:
            return None

        # Static per-element-order maxima give a cheap admissible bound.
        per_set_counts = [Counter(self.orders[i] for i in s) for s in sets]
        max_of_order: Counter[int] = Counter()
        for c in per_set_counts:
            for k, v in c.items():
                max_of_order[k] = max(max_of_order[k], v)

        def lower_bound(uncovered: frozenset[int]) -> int:
            need = Counter(self.orders[i] for i in uncovered)
            return max(
                -(-count // max_of_order[k]) for k, count in need.items()
            )

        containing: dict[int, list[int]] = {i: [] for i in range(self.n)}
        for j, s in enumerate(sets):
            for i in s:
                containing[i].append(j)

        # Greedy incumbent.
        uncovered = set(full)
        greedy = 0
        avail_idx = list(range(len(sets)))
        while uncovered:
            j = max(avail_idx, key=lambda t: len(sets[t] & uncovered))
            uncovered -= sets[j]
            greedy += 1
        best = [greedy]

        def dfs(chosen: int, uncovered: frozenset[int], avail: frozenset[int]):
            while True:
                if not uncovered:
                    if chosen < best[0]:
                        best[0] = chosen
                    return
                if chosen + lower_bound(uncovered) >= best[0]:
                    return
                pivot, cands = None, None
                for i in uncovered:
                    cs = [j for j in containing[i] if j in avail]
                    if cands is None or len(cs) < len(cands):
                        pivot, cands = i, cs
                        if len(cs) <= 1:
                            break
                if not cands:
                    return
                # Keep only inclusion-maximal candidates: replacing a set by a
                # larger available one containing the pivot never hurts.
                cands = [
                    j
                    for j in cands
                    if not any(k != j and sets[j] < sets[k] for k in cands)
                ]
                if len(cands) == 1:
                    chosen += 1
                    uncovered = uncovered - sets[cands[0]]
                    avail = avail - {cands[0]}
                    continue
                # Exclusion branching: after exploring candidate j, later
                # branches must cover the pivot without j.
                banned: set[int] = set()
                for j in cands:
                    dfs(chosen + 1, uncovered - sets[j], avail - banned - {j})
                    banned.add(j)
                return

        dfs(0, full, frozenset(range(len(sets))))
        return best[0]


class ReferenceSearch:
    """The cover search as it was before its count planes, kept as the
    reference that the search on count planes must match node for node:
    every node makes one pass over its live columns (``_scan``) for the
    rows held by at least one, two and three available columns and the
    largest column.

    The same interface as ``groupcover.cover._Search``: ``solve()`` and
    ``enumerate(sigma, limit)``, and ``nodes`` afterwards.  Its residual
    lower bound is its own: per element order it walks the columns by
    descending count, from per-column counts derived here.
    """

    def __init__(self, instance: CoverInstance, node_budget: int, cols: int | None = None):
        self.ins = instance
        self.cols = cols
        self.node_budget = node_budget
        self.nodes = 0
        self.best: list[int] | None = None
        self.allow = 0  # covers of size <= allow are still interesting
        self.solutions: list[tuple[int, ...]] | None = None
        self.solution_limit = 0
        self.root_lb = 0
        self.all_rows = (1 << len(instance.rows)) - 1
        # per element order k: each column's count of order-k elements, the
        # columns by descending count (lowest index first on ties), and the
        # mask of columns holding at least one
        self.order_counts: dict[int, list[int]] = {}
        self.order_by_count: dict[int, list[int]] = {}
        self.order_cols: dict[int, int] = {}
        for k, bits in instance.order_bits.items():
            counts = [(bits & mb).bit_count() for mb in instance.col_elem_bits]
            self.order_counts[k] = counts
            self.order_by_count[k] = sorted(range(len(counts)), key=lambda j: -counts[j])
            self.order_cols[k] = sum(1 << j for j, n in enumerate(counts) if n)

    # ----- shared machinery

    def _spend_node(self):
        self.nodes += 1
        if self.nodes > self.node_budget:
            raise BudgetExhaustedError(
                "cover search",
                self.node_budget,
                lower=self.root_lb,
                upper=len(self.best) if self.best is not None else None,
            )

    def _start_state(self):
        ins = self.ins
        avail = (1 << len(ins.cols)) - 1 if self.cols is None else self.cols
        chosen = list(ins.forced) if self.cols is None else []
        covered = 0
        elems = 1 << ins.table.identity_id
        for j in chosen:
            covered |= ins.col_rows[j]
            elems |= ins.col_elem_bits[j]
        return covered, elems, avail, range(len(ins.cols)), chosen

    def residual_lower_bound(self, covered_elems: int, avail: int):
        """A lower bound on how many more columns any completion needs.

        ``avail`` is the int mask of the available columns.  Counting bounds
        per element order, summed over a greedy family of orders whose
        available covering columns are pairwise disjoint.  Returns None when
        some order has uncovered elements but no available column at all.
        """
        uncovered = self.ins.full_elem_mask ^ covered_elems
        per_k = []
        for k, bits in self.ins.order_bits.items():
            missing = (bits & uncovered).bit_count()
            if missing == 0:
                continue
            m = 0
            for j in self.order_by_count[k]:
                if avail >> j & 1:
                    m = self.order_counts[k][j]
                    break
            if m == 0:
                return None
            per_k.append((-(missing // -m), k))
        per_k.sort(key=lambda t: (-t[0], t[1]))
        used = 0
        total = 0
        for bound, k in per_k:
            colset = self.order_cols[k] & avail
            if not colset & used:
                total += bound
                used |= colset
        return total

    def _scan(self, uncov: int, avail: int, live):
        """One pass over the available columns in ``live``: the uncovered
        rows that lie in at least one, two and three of them, the most
        uncovered rows any one of them holds, and the ones that hold one.

        ``live`` lists every available column that holds an uncovered row;
        as covered rows only grow, the returned list serves every
        descendant node."""
        col_rows = self.ins.col_rows
        one = two = three = most = 0
        held = []
        for c in live:
            if avail >> c & 1:
                r = col_rows[c] & uncov
                if r:
                    held.append(c)
                    three |= two & r
                    two |= one & r
                    one |= r
                    n = r.bit_count()
                    if n > most:
                        most = n
        return one, two, three, most, held

    def _lower(self, covered_elems: int, avail: int, uncov: int, most: int):
        lb = self.residual_lower_bound(covered_elems, avail)
        if lb is None or not uncov:
            return lb
        if most == 0:
            return None
        return max(lb, -(uncov.bit_count() // -most), 1)

    def _dfs(self, covered_rows, covered_elems, avail, live, chosen):
        self._spend_node()
        ins = self.ins
        col_rows, row_cols = ins.col_rows, ins.row_cols
        # in-node forcing: rows with a single available column
        while True:
            uncov = self.all_rows ^ covered_rows
            if not uncov:
                self._record(chosen)
                return
            one, two, three, most, live = self._scan(uncov, avail, live)
            if uncov != one:  # a row in no available column
                return
            lb = self._lower(covered_elems, avail, uncov, most)
            if lb is None or len(chosen) + lb > self.allow:
                return
            ones = uncov & ~two
            if not ones:
                break
            forced = []
            while ones:
                i = (ones & -ones).bit_length() - 1
                cols = row_cols[i] & avail
                c = (cols & -cols).bit_length() - 1
                forced.append(c)
                ones &= ~col_rows[c]
            if len(chosen) + len(forced) > self.allow:
                return
            for c in sorted(forced):
                chosen.append(c)
                covered_rows |= col_rows[c]
                covered_elems |= ins.col_elem_bits[c]
        # branch on the first uncovered row with fewest available columns
        pairs = two & ~three
        if pairs:
            pivot = (pairs & -pairs).bit_length() - 1
        else:
            pivot = min(_bit_indices(uncov), key=lambda i: (row_cols[i] & avail).bit_count())
        cands = sorted(
            _bit_indices(row_cols[pivot] & avail),
            key=lambda c: (-(col_rows[c] & uncov).bit_count(), c),
        )
        for c in cands:
            if len(chosen) + 1 > self.allow:
                break
            avail &= ~(1 << c)  # c is decided here; later branches avoid it
            self._dfs(
                covered_rows | col_rows[c],
                covered_elems | ins.col_elem_bits[c],
                avail,
                live,
                chosen + [c],
            )
            if self.solutions is not None and len(self.solutions) > self.solution_limit:
                return

    def _record(self, chosen):
        if self.solutions is not None:
            if len(chosen) <= self.allow:
                self.solutions.append(tuple(sorted(chosen)))
            return
        if self.best is None or len(chosen) < len(self.best):
            self.best = sorted(chosen)
            self.allow = len(self.best) - 1

    # ----- entry points

    def solve(self) -> tuple[int, list[int], int]:
        ins = self.ins
        incumbent = greedy_upper_bound(ins, self.cols)
        self.best = incumbent
        covered, elems, avail, live, chosen = self._start_state()
        uncov = self.all_rows ^ covered
        lb0 = self._lower(elems, avail, uncov, self._scan(uncov, avail, live)[3])
        if lb0 is None:
            raise InvariantError("instance admits no cover at the root")
        self.root_lb = len(chosen) + lb0 if uncov else len(chosen)
        self.allow = len(self.best) - 1
        if self.root_lb <= self.allow:
            self._dfs(covered, elems, avail, live, chosen)
        return len(self.best), self.best, self.root_lb

    def enumerate(self, sigma: int, limit: int) -> tuple[object, list[tuple[int, ...]], bool]:
        self.solutions = []
        self.solution_limit = limit
        self.allow = sigma
        self._dfs(*self._start_state())
        sols = sorted(set(self.solutions))
        if len(sols) > limit:
            return f">={limit + 1}", sols[:limit], False
        return len(sols), sols, True


def reference_verify_cover(G, subgroups, cap: int = DEFAULT_ELEMENT_CAP) -> VerifyResult:
    """``verify_cover`` on G's element table: each subgroup as a lattice
    SubgroupSet, their union as an int of element bits, and the uncovered
    element of largest ID as the witness."""
    T = G.table(cap)
    union = 0
    full = (1 << T.n) - 1
    for idx, gens in enumerate(subgroups):
        perms = [parse_cycles(g, G.degree) if isinstance(g, str) else g for g in gens]
        for p in perms:
            if not G.contains(p):
                return VerifyResult(
                    False,
                    reason="generator-outside-group",
                    witness=f"subgroup {idx}: {p.cycle_string()}",
                )
        chain = StabilizerChain.build([p.zero for p in perms], G.degree)
        if chain.order() == T.n:
            return VerifyResult(
                False, reason="subgroup-not-proper", witness=f"subgroup {idx}"
            )
        union |= _subgroup_from_chain(T, chain, None).bits
    if union != full:
        missing = (union ^ full).bit_length() - 1
        return VerifyResult(
            False,
            reason="element-uncovered",
            witness=T.perm(missing).cycle_string(),
        )
    return VerifyResult(True)


def lmul_by_lookup(T, a: int, ids) -> np.ndarray:
    """IDs of a x (apply a, then x) for each x in ids, by sift lookups of
    the composed rows."""
    return T.lookup_rows(T.rows[ids][:, T.rows[a]])


def conj_by_lookup(T, ids, g: int) -> np.ndarray:
    """IDs of g^-1 x g for each x in ids, by sift lookups of the composed
    rows."""
    ginv = T.rows[T.inverse[g]]
    return T.lookup_rows(T.rows[g][T.rows[ids][:, ginv]])


def quotient(lat, N) -> PermGroup:
    """G/N as a permutation group on the right cosets of N, numbered in the
    order of their least element IDs (the lattice's ``_coset_minima``); each
    generator g of G moves Nx to Nxg.  N is looked up among the lattice's
    normal subgroups by its bits: the normality check, and the recorded
    generators for a bare bit vector."""
    T = lat.table
    N = next((M for M in lat.normal_subgroups() if M.bits == N.bits), None)
    if N is None:
        raise ValueError("quotient requires a normal subgroup")
    coset_min = lat._coset_minima(N)
    reps = np.flatnonzero(coset_min == np.arange(T.n)).astype(np.int32)
    coset_of = np.searchsorted(reps, coset_min)
    # row k of _rmul_by_gen: x -> x g for the k-th generator g of G
    gens = [Permutation((coset_of[xg[reps]] + 1).tolist()) for xg in T._rmul_by_gen]
    name = f"{lat.group.label()}/[order {N.order}]"
    Q = PermGroup(gens, degree=len(reps), name=name)
    if Q.order() != T.n // N.order:
        raise InvariantError("quotient order disagrees with the index")
    return Q
