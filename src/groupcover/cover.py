"""Exact minimum subgroup covers by branch-and-bound set cover.

The instance is the bipartite containment structure (maximal cyclic
subgroups) × (maximal subgroups): a family of maximal subgroups covers the
whole group exactly when every maximal cyclic subgroup lies inside some
member, because a subgroup containing a generator contains the cyclic
subgroup it generates.

Lower bounds are element-counting bounds ⌈N_k/m_k⌉ per element order k,
made additive across orders whose covering column sets are pairwise
disjoint.  Reduction forces columns by unique coverage and (optionally) by
the classical forcing rule: a maximal subgroup whose own covering number
exceeds an upper bound for σ(G) lies in every minimal cover, and with it
its whole conjugacy class when it is not normal.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, field
from math import ceil

import numpy as np

from .errors import BudgetExhaustedError, CyclicGroupError, InvariantError
from .group import DEFAULT_ELEMENT_CAP, PermGroup, StabilizerChain
from .lattice import DEFAULT_JOIN_BUDGET, SubgroupLattice, _subgroup_from_chain, lattice
from .perm import parse_cycles
from .subgroup import SubgroupSet, bits_from_ids

DEFAULT_NODE_BUDGET = 10**8


class _Infinity:
    """The covering number of a cyclic group; larger than every natural."""

    __slots__ = ()

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, _Infinity)

    def __gt__(self, other):
        return not isinstance(other, _Infinity)

    def __ge__(self, other):
        return True

    def __eq__(self, other):
        return isinstance(other, _Infinity)

    def __hash__(self):
        return hash("infinity")

    def __repr__(self):
        return "infinity"


INFINITY = _Infinity()


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
    sigma: object  # int, INFINITY, or None when only an interval is known
    cover: list  # list of subgroups, each a list of generator cycle strings
    certificates: list
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
            for k in sorted(set(int(o) for o in orders))
            if k != 1
        }
        self._set_cols(sorted(lat.maximal_subgroups(), key=lambda s: (s.digest, s.key)))
        if not self.inc.any(axis=1).all():
            raise InvariantError(
                "some maximal cyclic subgroup lies in no maximal subgroup"
            )

    def _set_cols(self, cols: list[SubgroupSet]) -> None:
        """Make ``cols`` the candidate sets, none of them forced yet."""
        self.cols = cols
        # a cyclic subgroup lies in M exactly when its generator does:
        # inc[i, j] is bit g_i of column j's key, g_i row i's generator
        gens = np.array([r.gen_ids[0] for r in self.rows], dtype=np.intp)
        keys = np.frombuffer(b"".join(M.key for M in cols), dtype=np.uint8)
        member = keys.reshape(len(cols), len(self.rows[0].key))[:, gens >> 3]
        member >>= (gens & 7).astype(np.uint8)
        self.inc = np.ascontiguousarray((member & 1).T, dtype=bool)
        self.inc_u8 = self.inc.astype(np.uint8)
        self.col_elem_bits = [M.bits for M in cols]
        self.order_counts: dict[int, np.ndarray] = {
            k: np.array(
                [(bits & mb).bit_count() for mb in self.col_elem_bits], dtype=np.int64
            )
            for k, bits in self.order_bits.items()
        }
        self.forced: list[int] = []
        self.certificates: list[Certificate] = []

    # ------------------------------------------------------------------

    def describe_col(self, j: int) -> list[str]:
        M = self.cols[j]
        return [p.cycle_string() for p in M.generator_perms()]

    def residual_lower_bound(self, covered_elems: int, avail: np.ndarray):
        """A lower bound on how many more columns any completion needs.

        Counting bounds per element order, summed over a greedy family of
        orders whose available covering columns are pairwise disjoint.
        Returns None when some order has uncovered elements but no
        available column at all.
        """
        per_k = []
        for k, bits in self.order_bits.items():
            missing = (bits & (self.full_elem_mask ^ covered_elems)).bit_count()
            if missing == 0:
                continue
            counts = self.order_counts[k]
            m = int(counts[avail].max()) if avail.any() else 0
            if m == 0:
                return None
            per_k.append((-ceil(missing / m), k, counts))
        per_k.sort(key=lambda t: (t[0], t[1]))
        used = np.zeros(len(self.cols), dtype=bool)
        total = 0
        for negb, _k, counts in per_k:
            colset = (counts > 0) & avail
            if not (colset & used).any():
                total += -negb
                used |= colset
        return total


def build_instance(
    G: PermGroup,
    cap: int = DEFAULT_ELEMENT_CAP,
    join_budget: int = DEFAULT_JOIN_BUDGET,
) -> CoverInstance:
    """The set-cover instance for a non-cyclic group."""
    return CoverInstance(G, lattice(G, cap=cap, join_budget=join_budget))


def counting_lower_bound(G: PermGroup, k: int, cap: int = DEFAULT_ELEMENT_CAP) -> Certificate:
    """The ⌈N_k/m_k⌉ certificate for elements of order k."""
    return counting_certificate(build_instance(G, cap=cap), k)


def counting_certificate(instance: CoverInstance, k: int) -> Certificate:
    """⌈N_k/m_k⌉: N_k elements of order k, at most m_k in any maximal subgroup."""
    if k == 1:
        n_k = m_k = 1  # the identity, which every subgroup holds
    elif k in instance.order_bits:
        n_k = instance.order_bits[k].bit_count()
        m_k = int(instance.order_counts[k].max())
    else:
        raise ValueError(f"{instance.group.label()} has no elements of order {k}")
    return Certificate(
        "counting-bound",
        {"order": k, "elements": n_k, "max_per_subgroup": m_k, "bound": -(-n_k // m_k)},
    )


def greedy_upper_bound(instance: CoverInstance) -> list[int]:
    """A valid cover by repeatedly taking the most-covering column."""
    R = len(instance.rows)
    covered = np.zeros(R, dtype=bool)
    chosen = list(instance.forced)
    for j in chosen:
        covered |= instance.inc[:, j]
    chosen_set = set(chosen)
    while not covered.all():
        gains = instance.inc[~covered].sum(axis=0)
        for j in chosen_set:
            gains[j] = -1
        best = int(np.argmax(gains))  # first index wins ties: lowest digest
        if gains[best] <= 0:
            raise InvariantError("greedy cover stalled on an uncoverable row")
        chosen.append(best)
        chosen_set.add(best)
        covered |= instance.inc[:, best]
    return sorted(chosen)


def reduce(
    instance: CoverInstance,
    upper_bound: int | None = None,
    sigma_forcing: bool = False,
    sigma_fn=None,
) -> CoverInstance:
    """Extend the forced set by unique coverage and subgroup forcing.

    ``sigma_fn`` maps a PermGroup to a (lower, upper) pair for its covering
    number; it is only consulted when ``sigma_forcing`` is set.  Forcing by σ is
    valid when the subgroup's lower bound exceeds an upper bound for σ(G):
    such a maximal subgroup lies in every minimal cover, and if it is not
    normal so does its whole conjugacy class.
    """
    forced = set(instance.forced)
    # unique coverage
    single = np.nonzero(instance.inc.sum(axis=1) == 1)[0]
    for i in single:
        j = int(np.argmax(instance.inc[i]))
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
    if sigma_forcing:
        if sigma_fn is None:
            raise ValueError("sigma forcing needs a sigma_fn")
        if upper_bound is None:
            upper_bound = len(greedy_upper_bound(instance))
        key_to_idx = {M.key: j for j, M in enumerate(instance.cols)}
        seen_class: set[bytes] = set()
        for j, M in enumerate(instance.cols):
            if M.key in seen_class or j in forced:
                continue
            orbit = instance.lat.conjugates(M)
            for O in orbit:
                seen_class.add(O.key)
            H = PermGroup(
                M.generator_perms(),
                degree=instance.group.degree,
                name=f"subgroup[{M.digest}]",
            )
            lo, _hi = sigma_fn(H)
            if not lo > upper_bound:
                continue
            members = [j] if M.is_normal else [
                key_to_idx[O.key] for O in orbit if O.key in key_to_idx
            ]
            for c in sorted(members):
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
    return "infinity" if isinstance(x, _Infinity) else int(x)


class _Search:
    """Branch-and-bound over the instance; also enumerates all optima."""

    def __init__(self, instance: CoverInstance, node_budget: int):
        self.ins = instance
        self.node_budget = node_budget
        self.nodes = 0
        self.best: list[int] | None = None
        self.allow = 0  # covers of size <= allow are still interesting
        self.solutions: list[tuple[int, ...]] | None = None
        self.solution_limit = 0
        self.root_lb = 0

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
        R, C = ins.inc.shape
        covered = np.zeros(R, dtype=bool)
        avail = np.ones(C, dtype=bool)
        elems = 1 << ins.table.identity_id
        chosen: list[int] = []
        for j in ins.forced:
            chosen.append(j)
            covered |= ins.inc[:, j]
            elems |= ins.col_elem_bits[j]
        return covered, elems, avail, chosen

    def _lower(self, covered_elems, avail, covered_rows):
        lb = self.ins.residual_lower_bound(covered_elems, avail)
        if lb is None:
            return None
        uncov = ~covered_rows
        k = int(np.count_nonzero(uncov))
        if k:
            percol = self.ins.inc_u8[uncov].sum(axis=0)
            percol[~avail] = 0
            m = int(percol.max())
            if m == 0:
                return None
            lb = max(lb, ceil(k / m), 1)
        return lb

    def _dfs(self, covered_rows, covered_elems, avail, chosen):
        self._spend_node()
        ins = self.ins
        # in-node forcing: rows with a single available column
        while True:
            uncov_idx = np.nonzero(~covered_rows)[0]
            if uncov_idx.size == 0:
                self._record(chosen)
                return
            counts = ins.inc_u8[uncov_idx] @ avail.astype(np.uint8)
            if (counts == 0).any():
                return
            lb = self._lower(covered_elems, avail, covered_rows)
            if lb is None or len(chosen) + lb > self.allow:
                return
            ones = uncov_idx[counts == 1]
            if ones.size == 0:
                break
            forced_cols = sorted(
                {int(np.argmax(ins.inc[i] & avail)) for i in ones}
            )
            if len(chosen) + len(forced_cols) > self.allow:
                return
            for c in forced_cols:
                chosen.append(c)
                covered_rows = covered_rows | ins.inc[:, c]
                covered_elems |= ins.col_elem_bits[c]
        # branch on the uncovered row with fewest available columns
        pivot = int(uncov_idx[int(np.argmin(counts))])
        cands = np.nonzero(ins.inc[pivot] & avail)[0]
        covg = ins.inc_u8[~covered_rows][:, cands].sum(axis=0)
        order = sorted(range(len(cands)), key=lambda t: (-int(covg[t]), int(cands[t])))
        avail_here = avail.copy()
        for t in order:
            c = int(cands[t])
            if len(chosen) + 1 > self.allow:
                break
            branch_avail = avail_here.copy()
            branch_avail[c] = False  # c is decided inside this branch
            self._dfs(
                covered_rows | ins.inc[:, c],
                covered_elems | ins.col_elem_bits[c],
                branch_avail,
                chosen + [c],
            )
            avail_here[c] = False  # later branches must avoid c entirely
            if self.solutions is not None and len(self.solutions) > self.solution_limit:
                return

    def _record(self, chosen):
        if self.solutions is not None:
            if len(chosen) == self.allow or len(chosen) < self.allow:
                self.solutions.append(tuple(sorted(chosen)))
            return
        if self.best is None or len(chosen) < len(self.best):
            self.best = sorted(chosen)
            self.allow = len(self.best) - 1

    # ----- entry points

    def solve(self) -> tuple[int, list[int], int]:
        ins = self.ins
        incumbent = greedy_upper_bound(ins)
        self.best = incumbent
        covered, elems, avail, chosen = self._start_state()
        lb0 = self._lower(elems, avail, covered)
        if lb0 is None:
            raise InvariantError("instance admits no cover at the root")
        self.root_lb = len(chosen) + lb0 if not covered.all() else len(chosen)
        self.allow = len(self.best) - 1
        if self.root_lb <= self.allow:
            self._dfs(covered, elems, avail, chosen)
        return len(self.best), self.best, self.root_lb

    def enumerate(self, sigma: int, limit: int) -> tuple[object, list[tuple[int, ...]], bool]:
        self.solutions = []
        self.solution_limit = limit
        self.allow = sigma
        covered, elems, avail, chosen = self._start_state()
        self._dfs(covered, elems, avail, chosen)
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
    are the maximal subgroups of G/N) that cover every row; INFINITY when
    some row lies in no such column, exactly when G/N is cyclic."""
    sub = copy(instance)
    sub._set_cols([M for M in instance.cols if N.issubset(M)])
    if not sub.inc.any(axis=1).all():
        return INFINITY
    return _Search(sub, node_budget).solve()[0]


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
    """Check that generator lists describe proper subgroups covering G."""
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
