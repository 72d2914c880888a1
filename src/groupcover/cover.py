"""Exact minimum subgroup covers by branch-and-bound set cover.

The instance is the bipartite containment structure (maximal cyclic
subgroups) × (maximal subgroups): a family of maximal subgroups covers the
whole group exactly when every maximal cyclic subgroup lies inside some
member, because a subgroup containing a generator contains the cyclic
subgroup it generates.

Lower bounds are element-counting bounds ⌈N_k/m_k⌉ per element order k,
made additive across orders whose covering column sets are pairwise
disjoint.  Reduction forces columns by unique coverage and, given a σ
function, by the classical forcing rule: a maximal subgroup whose own
covering number exceeds an upper bound for σ(G) lies in every minimal
cover, and with it its whole conjugacy class when it is not normal.

The incidence is held once, as Python int bitsets built once per
instance: each column's rows and each row's columns, and per element order
the columns in tiers of equal count.  Reduction, the greedy upper bound and
the search all read it.  A search node holds its rows' counts of available
columns as bit planes, and the columns its parent found large enough, with
their counts there, as bounds on their counts here; so a node costs a few
int operations plus a walk over the few columns whose bounds meet its
counting bound's threshold.  σ(G/N) is a search of G's own instance from
the columns that contain N.
"""

from __future__ import annotations

import math
from copy import copy
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BudgetExhaustedError,
    CapExceededError,
    CyclicGroupError,
    InvariantError,
)
from .group import (
    DEFAULT_ELEMENT_CAP,
    PermGroup,
    StabilizerChain,
    _sift_index,
    chain_rows,
    row_dtype,
    sift_keys,
)
from .perm import Permutation, parse_cycles
from .subgroup import SubgroupSet, bits_from_ids
from .subgroup_lattice import DEFAULT_JOIN_BUDGET, SubgroupLattice, lattice

DEFAULT_NODE_BUDGET = 10**8


INFINITY = math.inf  # the covering number of a cyclic group


@dataclass(frozen=True)
class Certificate:
    """A machine-checkable piece of evidence about minimal covers.

    kinds: ``counting-bound`` (order k, element count, max per subgroup,
    bound), ``unique-coverer`` (a universe row with its only covering
    column), ``forced-subgroup`` (a column proven to lie in every minimal
    cover, with the reason).
    """

    kind: str
    payload: dict

    def as_dict(self) -> dict:
        return {"kind": self.kind, **self.payload}


@dataclass
class SigmaResult:
    """Outcome of a σ computation with its evidence."""

    group: str
    order: int
    degree: int
    sigma: object = None  # int, INFINITY, or None when only an interval is known
    cover: list | None = None  # subgroups, each a list of generator cycle strings
    certificates: list = field(default_factory=list)
    unique: object = None  # True/False/None-unknown
    optimal_count: object = None  # int, a ">= n" string, or None
    interval: tuple | None = None
    stats: dict = field(default_factory=dict)


@dataclass
class VerifyResult:
    ok: bool
    reason: str | None = None
    witness: str | None = None


class CoverInstance:
    """Universe × candidate-set incidence for one group, plus bound data."""

    def __init__(self, G: PermGroup, lat: SubgroupLattice):
        if G.is_cyclic():
            raise CyclicGroupError(
                f"{G.label()} is cyclic: no cover by proper subgroups exists"
            )
        self.group = G
        self.lat = lat
        self.table = lat.table
        self.rows: list[SubgroupSet] = sorted(
            lat.maximal_cyclic_subgroups(), key=lambda s: (s.digest, s.key)
        )
        self.full_elem_mask = (1 << self.table.n) - 1
        orders = self.table.orders
        self.order_bits: dict[int, int] = {
            k: bits_from_ids(np.nonzero(orders == k)[0])
            for k in sorted(set(orders.tolist()))
            if k != 1
        }
        self.cols = cols = sorted(lat.maximal_subgroups(), key=lambda s: (s.digest, s.key))
        # a cyclic subgroup lies in M exactly when its generator does:
        # member[j, i] is bit g_i of column j's key, g_i row i's generator
        gens = np.array([r.gen_ids[0] for r in self.rows], dtype=np.intp)
        keys = np.frombuffer(b"".join(M.key for M in cols), dtype=np.uint8)
        member = keys.reshape(len(cols), len(self.rows[0].key))[:, gens >> 3]
        member >>= (gens & 7).astype(np.uint8)
        member &= 1
        # col_rows[j] holds bit i when row i lies in column j, and
        # row_cols[i] holds bit j likewise
        self.col_rows = _int_bitsets(member)
        self.row_cols = _int_bitsets(member.T)
        if not all(self.row_cols):
            raise InvariantError(
                "some maximal cyclic subgroup lies in no maximal subgroup"
            )
        self.col_elem_bits = [M.bits for M in cols]
        # per element order k: each column's count of order-k elements, the
        # (count, mask of the columns holding that many) tiers of every
        # nonzero count, largest first, and the mask of columns holding one
        self.order_counts: dict[int, list[int]] = {}
        self.order_tiers: dict[int, list[tuple[int, int]]] = {}
        self.order_cols: dict[int, int] = {}
        for k, bits in self.order_bits.items():
            counts = [(bits & mb).bit_count() for mb in self.col_elem_bits]
            tiers: dict[int, int] = {}
            for j, n in enumerate(counts):
                if n:
                    tiers[n] = tiers.get(n, 0) | 1 << j
            self.order_counts[k] = counts
            self.order_tiers[k] = sorted(tiers.items(), reverse=True)
            self.order_cols[k] = sum(tiers.values())
        self.forced: list[int] = []
        self.certificates: list[Certificate] = []

    # ------------------------------------------------------------------

    def describe_col(self, j: int) -> list[str]:
        M = self.cols[j]
        return [p.cycle_string() for p in M.generator_perms()]

    def residual_lower_bound(self, covered_elems: int, avail: int):
        """A lower bound on how many more columns any completion needs.

        ``avail`` is the int mask of the available columns.  Counting bounds
        per element order, summed over a greedy family of orders whose
        available covering columns are pairwise disjoint.  Returns None when
        some order has uncovered elements but no available column at all.
        """
        uncovered = self.full_elem_mask ^ covered_elems
        per_k = []
        for k, bits in self.order_bits.items():
            missing = (bits & uncovered).bit_count()
            if missing == 0:
                continue
            for m, cols in self.order_tiers[k]:
                if cols & avail:
                    break
            else:
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


def _int_bitsets(mat: np.ndarray) -> list[int]:
    """Each row of a 0/1 matrix as an int: bit j is set when entry j is."""
    packed = np.packbits(mat, axis=1, bitorder="little")
    data, width = packed.tobytes(), packed.shape[1]
    return [
        int.from_bytes(data[i * width : (i + 1) * width], "little")
        for i in range(len(packed))
    ]


def _bit_indices(mask: int):
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _column_counts(col_rows: list[int], uncov: int, cols, floor: int) -> list:
    """Each column of ``cols`` that holds at least ``floor`` of the rows in
    ``uncov``, as (count, column) pairs, largest count first."""
    out = []
    for c in cols:
        n = (col_rows[c] & uncov).bit_count()
        if n >= floor:
            out.append((n, c))
    out.sort(reverse=True)
    return out


def build_instance(
    G: PermGroup,
    cap: int = DEFAULT_ELEMENT_CAP,
    join_budget: int = DEFAULT_JOIN_BUDGET,
) -> CoverInstance:
    """The set-cover instance for a non-cyclic group.

    The incidence is built once per group and cached on it; each call gets a
    shallow copy of it whose ``forced`` and ``certificates`` lists start
    empty, so :func:`reduce` on one copy leaves every other copy unreduced.
    """
    lat = lattice(G, cap=cap, join_budget=join_budget)
    if "instance" not in G._cache:
        G._cache["instance"] = CoverInstance(G, lat)
    ins = copy(G._cache["instance"])
    ins.forced, ins.certificates = [], []
    return ins


def counting_lower_bound(G: PermGroup, k: int, cap: int = DEFAULT_ELEMENT_CAP) -> Certificate:
    """The ⌈N_k/m_k⌉ certificate for elements of order k."""
    return counting_certificate(build_instance(G, cap=cap), k)


def counting_certificate(instance: CoverInstance, k: int) -> Certificate:
    """⌈N_k/m_k⌉: N_k elements of order k, at most m_k in any maximal subgroup."""
    if k == 1:
        n_k = m_k = 1  # the identity, which every subgroup holds
    elif k in instance.order_bits:
        n_k = instance.order_bits[k].bit_count()
        m_k = max(instance.order_counts[k])
    else:
        raise ValueError(f"{instance.group.label()} has no elements of order {k}")
    return Certificate(
        "counting-bound",
        {"order": k, "elements": n_k, "max_per_subgroup": m_k, "bound": -(-n_k // m_k)},
    )


def greedy_upper_bound(instance: CoverInstance, cols: int | None = None) -> list[int]:
    """A valid cover by repeatedly taking the most-covering column: from the
    forced ones on, or, given an int column mask ``cols``, only among those."""
    col_rows = instance.col_rows
    uncovered = (1 << len(instance.rows)) - 1
    chosen = list(instance.forced) if cols is None else []
    candidates = range(len(col_rows)) if cols is None else list(_bit_indices(cols))
    for j in chosen:
        uncovered &= ~col_rows[j]
    while uncovered:
        best, gain = -1, 0
        for j in candidates:  # first index wins ties: lowest digest
            n = (col_rows[j] & uncovered).bit_count()
            if n > gain:
                best, gain = j, n
        if best < 0:
            raise InvariantError("greedy cover stalled on an uncoverable row")
        chosen.append(best)
        uncovered &= ~col_rows[best]
    return sorted(chosen)


def reduce(
    instance: CoverInstance,
    upper_bound: int | None = None,
    sigma_fn=None,
) -> CoverInstance:
    """Extend the forced set by unique coverage and, given ``sigma_fn``, by
    subgroup forcing.

    ``sigma_fn`` maps a PermGroup to a (lower, upper) pair for its covering
    number.  Forcing by σ is valid when the subgroup's lower bound exceeds
    an upper bound for σ(G): such a maximal subgroup lies in every minimal
    cover, and if it is not normal so does its whole conjugacy class.
    """
    forced = set(instance.forced)
    # unique coverage: rows whose column set is a single bit
    for i, cols in enumerate(instance.row_cols):
        if cols & (cols - 1):
            continue
        j = cols.bit_length() - 1
        if j not in forced:
            forced.add(j)
            instance.certificates.append(
                Certificate(
                    "unique-coverer",
                    {
                        "row": instance.rows[i].digest,
                        "row_order": instance.rows[i].order,
                        "column": instance.cols[j].digest,
                    },
                )
            )
    if sigma_fn is not None:
        if upper_bound is None:
            upper_bound = len(greedy_upper_bound(instance))
        # every conjugate of a maximal subgroup is a column; a normal one
        # is its own class
        key_to_idx = {M.key: j for j, M in enumerate(instance.cols)}
        class_of: dict[int, list[int]] = {}
        for maximal_class in instance.lat.maximal_classes():
            cols = sorted(key_to_idx[O.key] for O in maximal_class)
            class_of.update((c, cols) for c in cols)
        seen_class: set[int] = set()
        for j, M in enumerate(instance.cols):
            if j in seen_class or j in forced:
                continue
            orbit = class_of[j]
            seen_class.update(orbit)
            H = PermGroup(
                M.generator_perms(),
                degree=instance.group.degree,
                name=f"subgroup[{M.digest}]",
            )
            lo, _hi = sigma_fn(H)
            if not lo > upper_bound:
                continue
            for c in orbit:
                if c not in forced:
                    forced.add(c)
                    instance.certificates.append(
                        Certificate(
                            "forced-subgroup",
                            {
                                "column": instance.cols[c].digest,
                                "column_order": instance.cols[c].order,
                                "reason": "sigma-exceeds-upper-bound",
                                "sigma_lower": _bound_repr(lo),
                                "upper_bound": upper_bound,
                            },
                        )
                    )
    if upper_bound is not None and len(forced) > upper_bound:
        raise InvariantError(
            f"{len(forced)} forced columns exceed the upper bound {upper_bound}"
        )
    instance.forced = sorted(forced)
    return instance


def _bound_repr(x):
    return "infinity" if x == INFINITY else int(x)


class _Search:
    """Branch-and-bound over the instance; also enumerates all optima.

    The search runs on the instance's int bitsets, built once per instance:
    a node holds its covered rows, covered elements and available columns as
    int masks.  A column chosen by in-node forcing stays available, as the
    bounds count it; a branched column leaves the mask of its own subtree
    and of every later sibling.

    Each node also holds every row's count of available columns as bit
    planes: plane p is an int whose bit i is bit p of row i's count.  The
    root adds up its available columns' rows once, with a carry that
    ripples up the planes; a branch subtracts its column's rows with a
    borrow likewise.  The rows held by at least one, two and three
    available columns, and the first row of fewest, are a few int
    operations on the planes.

    The counting bound prunes a node when no available column holds
    t = ⌈u/r⌉ of its u uncovered rows, r the columns it may still add.  A
    node's bounds list ``(floor, entries)`` holds every available column
    whose count of uncovered rows was at least ``floor`` where the list was
    made, with that count, largest first.  Uncovered rows and available
    columns only shrink down the tree, so those counts bound the node's own
    from above, and a test of t ≥ floor walks only the entries of count at
    least t; a t below the floor, which in-node forcing can bring, remakes
    the list from every available column.  A branching node hands its
    children one list, made with the least t any child's first test can
    ask for: ⌈(u − g)/(r − 1)⌉, g the largest gain among the pivot's
    columns.  It runs each child's first test itself, and spends a node on
    a child that this test prunes without calling it.

    By default the search starts from every column, the forced ones
    chosen; given an int column mask ``cols`` (for σ(G/N), the columns that
    contain N), it starts from those columns with none chosen.
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
        """The root's covered rows, covered elements, available columns,
        chosen columns and bounds list."""
        ins = self.ins
        avail = (1 << len(ins.cols)) - 1 if self.cols is None else self.cols
        chosen = list(ins.forced) if self.cols is None else []
        covered = 0
        elems = 1 << ins.table.identity_id
        for j in chosen:
            covered |= ins.col_rows[j]
            elems |= ins.col_elem_bits[j]
        uncov = self.all_rows ^ covered
        bounds = (1, _column_counts(ins.col_rows, uncov, _bit_indices(avail), 1))
        return covered, elems, avail, chosen, bounds

    def _planes(self, avail: int) -> list[int]:
        """Every row's count of the columns in ``avail``, as bit planes."""
        # a count is at most len(cols), and an instance has at least three
        # columns (no group is the union of two proper subgroups), so there
        # are at least two planes
        planes = [0] * len(self.ins.cols).bit_length()
        for c in _bit_indices(avail):
            carry, p = self.ins.col_rows[c], 0
            while carry:  # one onto the count of each row of c
                plane = planes[p]
                planes[p] = plane ^ carry
                carry &= plane
                p += 1
        return planes

    def _counted(self, bounds, uncov: int, avail: int, r: int):
        """The bounds list to keep, or None when the counting bound prunes:
        ⌈u/most⌉ exceeds ``r``, the columns still allowed, exactly when no
        column of ``avail`` holds t = ⌈u/r⌉ of the u rows in ``uncov``.

        ``bounds`` must list every column of ``avail`` that can hold
        ``floor`` of those rows, with a count at least its own; a t below
        ``floor`` remakes it from every column of ``avail``."""
        if not uncov:
            return bounds
        if r < 1:
            return None
        t = -(uncov.bit_count() // -r)
        col_rows = self.ins.col_rows
        if t < bounds[0]:
            bounds = (t, _column_counts(col_rows, uncov, _bit_indices(avail), t))
        for n, c in bounds[1]:
            if n < t:
                return None
            if avail >> c & 1 and (col_rows[c] & uncov).bit_count() >= t:
                return bounds
        return None

    def _enter(self, covered_rows, covered_elems, avail, chosen, bounds):
        """Spend the root node and search it unless its counting bound
        prunes it."""
        self._spend_node()
        uncov = self.all_rows ^ covered_rows
        bounds = self._counted(bounds, uncov, avail, self.allow - len(chosen))
        if bounds is not None:
            planes = self._planes(avail)
            self._dfs(covered_rows, covered_elems, avail, planes, chosen, bounds)

    def _dfs(self, covered_rows, covered_elems, avail, planes, chosen, bounds):
        """Search a node whose caller has spent it and found its counting
        bound met."""
        ins = self.ins
        col_rows, row_cols = ins.col_rows, ins.row_cols
        high = 0
        for plane in planes[2:]:
            high |= plane
        held1 = planes[0] | planes[1] | high
        held2 = planes[1] | high
        held3 = planes[0] & planes[1] | high
        # in-node forcing: rows with a single available column
        uncov = self.all_rows ^ covered_rows
        while True:
            if not uncov:
                self._record(chosen)
                return
            if uncov & ~held1:  # a row in no available column
                return
            lb = ins.residual_lower_bound(covered_elems, avail)
            if lb is None or len(chosen) + lb > self.allow:
                return
            ones = uncov & ~held2
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
            uncov = self.all_rows ^ covered_rows
            bounds = self._counted(bounds, uncov, avail, self.allow - len(chosen))
            if bounds is None:
                return
        # branch on the first uncovered row with fewest available columns:
        # a row held by exactly two, else the bit-sliced minimum count
        pairs = uncov & held2 & ~held3
        if pairs:
            pivot = (pairs & -pairs).bit_length() - 1
        else:
            least = uncov
            for plane in reversed(planes):
                if least & ~plane:
                    least &= ~plane
            pivot = (least & -least).bit_length() - 1
        # (−gain, column): most uncovered rows first, lowest index on ties
        cands = sorted(
            (-(col_rows[c] & uncov).bit_count(), c)
            for c in _bit_indices(row_cols[pivot] & avail)
        )
        r = self.allow - len(chosen)
        if r > 1:
            # a child covers at most g rows and may add r − 1 columns, so
            # its first test asks for at least ⌈(u − g)/(r − 1)⌉
            g = -cands[0][0]
            floor = max(1, -((g - uncov.bit_count()) // (r - 1)))
            if floor < bounds[0]:
                pool = _bit_indices(avail)
            else:
                pool = [c for n, c in bounds[1] if n >= floor and avail >> c & 1]
            bounds = (floor, _column_counts(col_rows, uncov, pool, floor))
        # one copy per node: a child reads it only until it returns
        planes = planes.copy()
        for _, c in cands:
            if len(chosen) + 1 > self.allow:
                break
            avail &= ~(1 << c)  # c is decided here; later branches avoid it
            rows = col_rows[c]
            p = 0
            while rows:  # one off the count of each row of c
                plane = planes[p]
                planes[p] = plane ^ rows
                rows &= ~plane
                p += 1
            self._spend_node()
            # the child's first counting-bound test
            rest, r = uncov & ~col_rows[c], self.allow - len(chosen) - 1
            if self._counted(bounds, rest, avail, r) is None:
                continue
            self._dfs(
                covered_rows | col_rows[c],
                covered_elems | ins.col_elem_bits[c],
                avail,
                planes,
                chosen + [c],
                bounds,
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
        covered, elems, avail, chosen, bounds = self._start_state()
        uncov = self.all_rows ^ covered
        lb0 = ins.residual_lower_bound(elems, avail)
        most = bounds[1][0][0] if bounds[1] else 0
        if lb0 is None or uncov and not most:
            raise InvariantError("instance admits no cover at the root")
        self.root_lb = len(chosen)
        if uncov:
            self.root_lb += max(lb0, -(uncov.bit_count() // -most), 1)
        self.allow = len(self.best) - 1
        if self.root_lb <= self.allow:
            self._enter(covered, elems, avail, chosen, bounds)
        return len(self.best), self.best, self.root_lb

    def enumerate(self, sigma: int, limit: int) -> tuple[object, list[tuple[int, ...]], bool]:
        self.solutions = []
        self.solution_limit = limit
        self.allow = sigma
        self._enter(*self._start_state())
        sols = sorted(set(self.solutions))
        if len(sols) > limit:
            return f">={limit + 1}", sols[:limit], False
        return len(sols), sols, True


def solve_exact(
    instance: CoverInstance, node_budget: int = DEFAULT_NODE_BUDGET
) -> tuple[int, list[int], dict]:
    """(σ, witness column indices, stats); raises on budget exhaustion."""
    search = _Search(instance, node_budget)
    sigma, cover, root_lb = search.solve()
    stats = {
        "nodes": search.nodes,
        "rows": len(instance.rows),
        "columns": len(instance.cols),
        "forced": len(instance.forced),
        "root_lower_bound": root_lb,
    }
    return sigma, cover, stats


def quotient_sigma(
    instance: CoverInstance, N: SubgroupSet, node_budget: int = DEFAULT_NODE_BUDGET
):
    """σ(G/N) for a normal N: the least number of columns M ⊇ N (the M/N
    are the maximal subgroups of G/N) that cover every row, searched on G's
    own instance from the mask of those columns; INFINITY when some row lies
    in no such column, exactly when G/N is cyclic."""
    cols = sum(1 << j for j, M in enumerate(instance.cols) if N.issubset(M))
    if not all(r & cols for r in instance.row_cols):
        return INFINITY
    return _Search(instance, node_budget, cols).solve()[0]


def enumerate_optimal_covers(
    instance: CoverInstance,
    sigma: int,
    limit: int = 1000,
    node_budget: int = DEFAULT_NODE_BUDGET,
):
    """(count or ">=limit+1", covers as column index tuples, exact flag)."""
    search = _Search(instance, node_budget)
    return search.enumerate(sigma, limit)


def verify_cover(G: PermGroup, subgroups, cap: int = DEFAULT_ELEMENT_CAP) -> VerifyResult:
    """Check that generator lists describe proper subgroups covering G.

    The check trusts G's stabilizer chain and each subgroup's own chain,
    nothing else.  A subgroup is proper when its chain's order is below
    |G|.  Every subgroup's elements, read off its chain, go by their sift
    keys on G's chain into one mask over G, and the subgroups cover G when
    every key is marked.  Sift key k is element k of ``chain_rows`` of G's
    chain, so an uncovered element is named without G's element table: the
    lexicographically largest, which is the one of largest table ID.
    """
    n = G.order()
    if n > cap:
        raise CapExceededError(n, cap)
    dtype = row_dtype(G.degree)
    # the empty block lets a cover of no subgroups concatenate too
    orders, rows = [], [np.empty((0, G.degree), dtype=dtype)]
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
        if chain.order() == n:
            return VerifyResult(
                False, reason="subgroup-not-proper", witness=f"subgroup {idx}"
            )
        orders.append(chain.order())
        rows.append(chain_rows(chain, dtype))
    # one sift of every subgroup's elements, then one mark per subgroup
    keys = sift_keys(_sift_index(G.chain, dtype), np.concatenate(rows))
    covered = np.zeros(n, dtype=bool)
    for order, part in zip(orders, np.split(keys, np.cumsum(orders)[:-1])):
        mask = np.zeros(n, dtype=bool)
        mask[part] = True
        if np.count_nonzero(mask) != order:
            raise InvariantError("a subgroup's elements disagree with its chain's order")
        covered |= mask
    if not covered.all():
        missing = chain_rows(G.chain, dtype)[~covered]
        last = missing[np.lexsort(missing.T[::-1])[-1]]
        return VerifyResult(
            False,
            reason="element-uncovered",
            witness=Permutation((last + 1).tolist()).cycle_string(),
        )
    return VerifyResult(True)
