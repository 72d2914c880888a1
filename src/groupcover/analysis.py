"""Covering numbers, σ-elementary verdicts, and classical cross-checks.

The top-level entry point is :func:`sigma`, which orchestrates instance
building, reduction, and exact search.  Around it sit the structure tests
the exact values are checked against: Tomkinson's formula for solvable
groups (least chief-factor order with at least two complements, plus one),
Scorza's criterion (σ = 3 exactly for groups with a Klein four-group
quotient), the σ-elementary definition (σ drops strictly under every
proper quotient), and the classification of σ-elementary groups by their
covering number up to 25.

No quotient group is built: σ(G/N), a C₂×C₂ quotient, a cyclic G/soc(G),
the derived series and the socle are all read off G's own lattice, whose
worklist lists every normal subgroup, and off G's one cover instance
(:func:`~groupcover.cover.build_instance`).  The one subgroup built from
generators is each maximal class's representative under ``sigma_forcing``,
whose own σ decides whether the class is forced.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import factorial, lcm

import numpy as np

from .catalog import MANIFEST, construct
from .cover import (
    DEFAULT_NODE_BUDGET,
    INFINITY,
    SigmaResult,
    build_instance,
    counting_certificate,
    enumerate_optimal_covers,
    quotient_sigma,
    reduce as reduce_instance,
    solve_exact,
)
from .errors import (
    BudgetExhaustedError,
    CapExceededError,
    CyclicGroupError,
    InvariantError,
)
from .group import DEFAULT_ELEMENT_CAP, PermGroup, center
from .subgroup import SubgroupSet, bits_from_ids
from .subgroup_lattice import DEFAULT_JOIN_BUDGET, SubgroupLattice, lattice


@dataclass(frozen=True)
class SigmaOptions:
    cap: int = DEFAULT_ELEMENT_CAP
    node_budget: int = DEFAULT_NODE_BUDGET
    join_budget: int = DEFAULT_JOIN_BUDGET
    sigma_forcing: bool = False
    enumerate_all: bool = False
    enumerate_limit: int = 1000


@dataclass
class ElementaryVerdict:
    is_elementary: bool
    sigma: object
    witness: dict | None
    quotient_sigmas: dict


@dataclass
class TomkinsonResult:
    q: int
    sigma: int
    factor: object  # the ChiefFactorRecord achieving q


# ----------------------------------------------------------------------
# σ computation


def sigma(G: PermGroup, opts: SigmaOptions | None = None) -> SigmaResult:
    """The covering number of G with certificates; cyclic groups get ∞."""
    opts = opts or SigmaOptions()
    cache_key = ("sigma", opts)  # every option can change the document
    if cache_key not in G._cache:
        G._cache[cache_key] = _compute_sigma(G, opts)
    return G._cache[cache_key]


def sigma_value(G: PermGroup, opts: SigmaOptions | None = None):
    """Just the number (or INFINITY); raises if only an interval is known."""
    opts = opts or SigmaOptions()
    res = sigma(G, opts)
    if res.sigma is None:
        if "joins" in res.stats:  # the worklist ran out before the search
            what, budget = "maximal-subgroup enumeration", opts.join_budget
        else:
            what, budget = "cover search", opts.node_budget
        raise BudgetExhaustedError(
            what, budget, lower=res.interval[0], upper=res.interval[1]
        )
    return res.sigma


def _compute_sigma(G: PermGroup, opts: SigmaOptions) -> SigmaResult:
    result = SigmaResult(group=G.label(), order=G.order(), degree=G.degree)
    if G.is_cyclic():
        result.sigma = INFINITY
        return result
    try:
        ins = build_instance(G, cap=opts.cap, join_budget=opts.join_budget)
    except BudgetExhaustedError as e:
        result.cover = []
        result.interval = (e.lower, e.upper)
        result.stats = {"joins": opts.join_budget}
        return result
    reduce_instance(ins, sigma_fn=_child_sigma_fn(opts) if opts.sigma_forcing else None)
    counting = max(
        (counting_certificate(ins, k) for k in sorted(ins.order_bits)),
        key=lambda c: c.payload["bound"],
    )
    result.certificates = list(ins.certificates) + [counting]
    try:
        value, cover_idx, result.stats = solve_exact(ins, node_budget=opts.node_budget)
    except BudgetExhaustedError as e:
        result.cover = []
        result.interval = (e.lower or 1, e.upper)
        result.stats = {"nodes": opts.node_budget}
        return result
    if counting.payload["bound"] > value:
        raise InvariantError(
            f"counting bound {counting.payload['bound']} exceeds sigma {value}"
        )
    result.sigma = value
    result.cover = [ins.describe_col(j) for j in cover_idx]
    if opts.enumerate_all:
        try:
            count, covers, exact = enumerate_optimal_covers(
                ins, value, limit=opts.enumerate_limit, node_budget=opts.node_budget
            )
        except BudgetExhaustedError:
            return result  # σ stands; the count and uniqueness stay unknown
        result.optimal_count = count
        result.unique = (count == 1) if exact else False
        result.stats["optimal_covers"] = count
    return result


def _child_sigma_fn(opts: SigmaOptions):
    """σ lower bounds for maximal subgroups, recursion capped at one level."""
    child = replace(opts, sigma_forcing=False, enumerate_all=False)

    def fn(H: PermGroup):
        res = sigma(H, child)
        return res.interval[0] if res.sigma is None else res.sigma

    return fn


# ----------------------------------------------------------------------
# derived series, solvability, Scorza's criterion


def derived_subgroup(G: PermGroup, cap: int = DEFAULT_ELEMENT_CAP) -> SubgroupSet:
    """The commutator subgroup, read off G's normal subgroups (this runs
    G's subgroup-lattice worklist)."""
    lat = lattice(G, cap=cap)
    return _derived_of(lat, lat.table.generator_ids())


def derived_series(G: PermGroup, cap: int = DEFAULT_ELEMENT_CAP) -> list[SubgroupSet]:
    """G ⊇ G' ⊇ G'' ⊇ … until it stabilizes; every term after G is one of
    G's normal subgroups (this runs G's subgroup-lattice worklist)."""
    lat = lattice(G, cap=cap)
    T = lat.table
    series = [SubgroupSet(T, (1 << T.n) - 1, gen_ids=T.generator_ids())]
    while True:
        S = _derived_of(lat, series[-1].gen_ids)
        if S.order == series[-1].order:
            break
        series.append(S)
        if S.order == 1:
            break
    return series


def is_solvable(G: PermGroup, cap: int = DEFAULT_ELEMENT_CAP) -> bool:
    """Whether the derived series reaches 1.  This runs G's subgroup-lattice
    worklist, which every caller in the package (Tomkinson's formula, the
    solvable σ-elementary check) runs anyway."""
    return derived_series(G, cap=cap)[-1].order == 1


def _derived_of(lat: SubgroupLattice, gen_ids: list[int]) -> SubgroupSet:
    """The derived subgroup D of a normal subgroup N = ⟨gen_ids⟩ of G: the
    least normal subgroup K of G holding the commutators of the generators.

    D is characteristic in N ⊴ G, so normal in G, and holds them, so K ≤ D;
    K is normal in N and N/K is generated by commuting images, so it is
    abelian and D ≤ K.
    """
    T = lat.table
    ids = np.asarray(gen_ids, dtype=np.intp)
    a, b = np.repeat(ids, len(ids)), np.tile(ids, len(ids))
    # a^-1 b^-1 a b: apply a^-1, then b^-1, then a, then b
    at = np.arange(len(a))[:, None]
    comm = T.rows[T.inverse[a]]
    for step in (T.rows[T.inverse[b]], T.rows[a], T.rows[b]):
        comm = step[at, comm]
    return lat.normal_closure(bits_from_ids(T.lookup_rows(comm)))


def has_klein_quotient(G: PermGroup, cap: int = DEFAULT_ELEMENT_CAP) -> bool:
    """Scorza's criterion: σ(G) = 3 iff some quotient is C₂×C₂, that is iff
    G/G' has 2-rank r ≥ 2, or 2^r − 1 ≥ 3 subgroups of index 2 (all maximal)."""
    n = G.order()
    return sum(2 * M.order == n for M in lattice(G, cap=cap).maximal_subgroups()) >= 3


# ----------------------------------------------------------------------
# σ-elementary


def is_sigma_elementary(
    G: PermGroup, opts: SigmaOptions | None = None
) -> ElementaryVerdict:
    """Does σ strictly increase under every proper quotient?

    The maximal subgroups of G/N are the M/N with N ≤ M maximal in G, so
    σ(G/N) is the least number of G's maximal subgroups that contain N and
    cover G (:func:`quotient_sigma`); no quotient group is built.
    """
    opts = opts or SigmaOptions()
    s_G = sigma_value(G, opts)
    lat = lattice(G, cap=opts.cap, join_budget=opts.join_budget)
    ins = None if G.is_cyclic() else build_instance(
        G, cap=opts.cap, join_budget=opts.join_budget
    )
    quotient_sigmas: dict = {}
    witness = None
    for N in lat.normal_subgroups():
        if N.order == 1:
            continue
        s_Q = INFINITY if ins is None else quotient_sigma(ins, N, opts.node_budget)
        if s_G > s_Q:
            raise InvariantError(
                f"sigma({G.label()}) = {s_G} exceeds sigma of a quotient ({s_Q})"
            )
        quotient_sigmas[N.digest] = {
            "normal_order": N.order,
            "quotient_sigma": s_Q,
        }
        if witness is None and not s_G < s_Q:
            witness = {
                "normal_digest": N.digest,
                "normal_order": N.order,
                "quotient_sigma": s_Q,
            }
    return ElementaryVerdict(
        is_elementary=witness is None,
        sigma=s_G,
        witness=witness,
        quotient_sigmas=quotient_sigmas,
    )


# ----------------------------------------------------------------------
# Tomkinson's formula


def tomkinson_sigma(G: PermGroup, cap: int = DEFAULT_ELEMENT_CAP) -> TomkinsonResult:
    """σ = q+1 with q the least chief-factor order with ≥ 2 complements."""
    if G.is_cyclic():
        raise CyclicGroupError(
            f"{G.label()} is cyclic: the formula needs a non-cyclic group"
        )
    if not is_solvable(G, cap=cap):
        raise ValueError(f"{G.label()} is not solvable: the formula does not apply")
    lat = lattice(G, cap=cap)
    best = None
    for rec in lat.chief_series():
        if rec.complement_count >= 2:
            if best is None or rec.factor_order < best.factor_order:
                best = rec
    if best is None:
        raise InvariantError(
            f"{G.label()}: no chief factor with two complements in a solvable "
            "non-cyclic group"
        )
    return TomkinsonResult(q=best.factor_order, sigma=best.factor_order + 1, factor=best)


# ----------------------------------------------------------------------
# structure of σ-elementary groups


def solvable_elementary_check(G: PermGroup, opts: SigmaOptions | None = None) -> dict:
    """For solvable non-abelian G: σ-elementary ⟺ monolithic with cyclic
    quotient over the socle, and then σ = |soc(G)| + 1."""
    opts = opts or SigmaOptions()
    lat = lattice(G, cap=opts.cap, join_budget=opts.join_budget)
    lat.maximal_subgroups()  # the worklist runs under this call's join budget
    if not is_solvable(G, cap=opts.cap):
        raise ValueError(f"{G.label()} is not solvable")
    if G.is_abelian():
        raise ValueError(
            f"{G.label()} is abelian: the monolithic-socle test does not apply"
        )
    minimals = lat.minimal_normal_subgroups()
    soc = lat.socle()
    # G/S is cyclic exactly when CS = G for some maximal cyclic C
    cyclic_over_socle = any(
        C.order * soc.order == G.order() * (C.bits & soc.bits).bit_count()
        for C in lat.maximal_cyclic_subgroups()
    )
    predicted = len(minimals) == 1 and cyclic_over_socle
    verdict = is_sigma_elementary(G, opts)
    report = {
        "group": G.label(),
        "monolithic": len(minimals) == 1,
        "socle_order": soc.order,
        "cyclic_over_socle": cyclic_over_socle,
        "predicted_elementary": predicted,
        "computed_elementary": verdict.is_elementary,
        "sigma": verdict.sigma,
    }
    if predicted != verdict.is_elementary:
        raise InvariantError(
            f"{G.label()}: structure test predicts elementary={predicted} but "
            f"direct computation says {verdict.is_elementary}"
        )
    if verdict.is_elementary and verdict.sigma != soc.order + 1:
        raise InvariantError(
            f"{G.label()}: sigma {verdict.sigma} != socle order + 1 = {soc.order + 1}"
        )
    report["ok"] = True
    return report


def structural_audit(G: PermGroup, opts: SigmaOptions | None = None) -> dict:
    """Invariants of a non-abelian σ-elementary group: trivial Frattini
    subgroup, trivial centre, at most one abelian minimal normal subgroup."""
    opts = opts or SigmaOptions()
    lat = lattice(G, cap=opts.cap, join_budget=opts.join_budget)
    phi = lat.frattini()
    z = center(G, cap=opts.cap)
    # a minimal normal N is abelian exactly when N' = 1
    abelian_minimals = [
        N
        for N in lat.minimal_normal_subgroups()
        if _derived_of(lat, N.gen_ids).order == 1
    ]
    report = {
        "group": G.label(),
        "frattini_order": phi.order,
        "centre_order": z.order,
        "abelian_minimal_normal_count": len(abelian_minimals),
    }
    if phi.order != 1:
        raise InvariantError(f"{G.label()}: non-trivial Frattini subgroup")
    if z.order != 1:
        raise InvariantError(f"{G.label()}: non-trivial centre")
    if len(abelian_minimals) > 1:
        raise InvariantError(
            f"{G.label()}: {len(abelian_minimals)} abelian minimal normal subgroups"
        )
    report["ok"] = True
    return report


# ----------------------------------------------------------------------
# symmetric-group element counts without group construction


def count_symmetric_order_elements(n: int, k: int) -> int:
    """Elements of order exactly k in Sym(n), by cycle-type combinatorics."""
    if not 1 <= n <= 30:
        raise ValueError("n must be between 1 and 30")
    if k < 1:
        raise ValueError("k must be positive")
    total = 0
    for part in _partitions(n):
        if lcm(*part.keys()) != k:
            continue
        count = factorial(n)
        for j, m in part.items():
            count //= (j**m) * factorial(m)
        total += count
    return total


def _partitions(n: int, largest: int | None = None):
    """Every partition of n into parts ≤ ``largest``, as {part: multiplicity}."""
    if n == 0:
        yield {}
        return
    top = n if largest is None else min(n, largest)
    for part in range(top, 0, -1):
        for m in range(n // part, 0, -1):
            for rest in _partitions(n - part * m, part - 1):
                yield {part: m, **rest}


# ----------------------------------------------------------------------
# the classification table, sums 3..25


#: σ-elementary groups by covering number; sums 7, 11, 19, 21, 22, 25 are
#: empty.  Every entry is a catalog spec string.
EXPECTED_CLASSIFICATION: dict[int, tuple[str, ...]] = {
    3: ("ElemAbelian(2,2)",),
    4: ("ElemAbelian(3,2)", "Sym(3)"),
    5: ("Alt(4)",),
    6: ("ElemAbelian(5,2)", "Dihedral(5)", "AGL1(5)"),
    7: (),
    8: ("ElemAbelian(7,2)", "Dihedral(7)", "Frobenius(7,3)", "AGL1(7)"),
    9: ("AGL1(8)",),
    10: ("AffineSemilinear(9,4,1)", "AGL1(9)", "Alt(5)"),
    11: (),
    12: ("ElemAbelian(11,2)", "Frobenius(11,5)", "Dihedral(11)", "AGL1(11)"),
    13: ("Sym(6)",),
    14: (
        "ElemAbelian(13,2)",
        "Dihedral(13)",
        "Frobenius(13,3)",
        "Frobenius(13,4)",
        "Frobenius(13,6)",
        "AGL1(13)",
    ),
    15: ("PSL3(2)",),
    16: ("Sym(5)", "Alt(6)"),
    17: ("AffineSemilinear(16,5,1)", "AGL1(16)"),
    18: (
        "ElemAbelian(17,2)",
        "Dihedral(17)",
        "Frobenius(17,4)",
        "Frobenius(17,8)",
        "AGL1(17)",
    ),
    19: (),
    20: (
        "ElemAbelian(19,2)",
        "AGL1(19)",
        "Dihedral(19)",
        "Frobenius(19,3)",
        "Frobenius(19,6)",
        "Frobenius(19,9)",
    ),
    21: (),
    22: (),
    23: ("M11",),
    24: ("ElemAbelian(23,2)", "Dihedral(23)", "Frobenius(23,11)", "AGL1(23)"),
    25: (),
}

#: Catalog entries that present the same abstract group in two
#: representations; rows list only the canonical spelling, and the report
#: checks that both representations agree on σ.
ISOMORPHIC_ALIASES: dict[str, str] = {
    "PSL2(7)": "PSL3(2)",
    "PSL2(9)": "Alt(6)",
}

#: Exact covering numbers asserted by the source tables, keyed by catalog
#: spec.  ``conflict`` marks the one value the source states inconsistently
#: in two places; the report recomputes it and flags the discrepancy.
SIGMA_EXPECTATIONS: dict[str, dict] = {
    "Sym(3)": {"sigma": 4},
    "Sym(4)": {"sigma": 4},
    "Sym(5)": {"sigma": 16},
    "Sym(6)": {"sigma": 13},
    "Alt(4)": {"sigma": 5},
    "Alt(5)": {"sigma": 10},
    "Alt(6)": {"sigma": 16},
    "Alt(7)": {"sigma": 31},
    "PSL3(2)": {"sigma": 15},
    "PSL2(7)": {
        "sigma": 15,
        "conflict": "also stated as 29 in one source table; recomputed here",
    },
    "PGL2(7)": {"sigma": 29},
    "PSL2(8)": {"sigma": 36},
    "PGammaL2(8)": {"sigma": 29, "unique_cover": True},
    "PSL2(9)": {"sigma": 16},
    "PGL2(9)": {"sigma": 46},
    "M10": {"sigma": 46},
    "PGammaL2(9)": {"sigma": 3},
    "PSL2(11)": {"sigma": 67},
    "ASL3(2)": {"sigma": 15},
    "AGL1(5)": {"sigma": 6},
    "AGL1(7)": {"sigma": 8},
    "AGL1(8)": {"sigma": 9},
    "AGL1(9)": {"sigma": 10},
    "AGL1(16)": {"sigma": 17},
    "AffineSemilinear(9,4,1)": {"sigma": 10},
    "AffineSemilinear(16,5,1)": {"sigma": 17},
    "M11": {"sigma": 23},
}


def classification_report(
    max_sum: int = 25, opts: SigmaOptions | None = None
) -> dict:
    """Recompute the σ-elementary classification and the exact-σ table.

    Sweeps the whole catalog manifest in order.  Groups whose root lower
    bound already exceeds ``max_sum`` are excluded from rows cheaply;
    everything else gets an exact σ and a σ-elementary verdict.  A group
    whose budget runs out, or whose order is over ``opts.cap``, gets a
    ``skipped`` entry, and a sum row that misses only skipped groups names
    them under ``skipped``.  Returns a report document with ``ok`` false on
    any mismatch.  ``max_sum`` must lie in the paper's range 3..25, the
    sums of ``EXPECTED_CLASSIFICATION``.
    """
    if max_sum not in EXPECTED_CLASSIFICATION:
        raise ValueError(f"max_sum {max_sum} is outside the paper's range 3..25")
    opts = opts or SigmaOptions()
    sweep: list[dict] = []
    regression: list[dict] = []
    flags: list[str] = []
    ok = True

    for spec_text in MANIFEST:
        G = construct(spec_text)
        entry: dict = {
            "spec": spec_text,
            "order": G.order(),
            "degree": G.degree,
        }
        try:
            entry.update(_sweep_one(G, spec_text, max_sum, opts))
        except BudgetExhaustedError as e:
            entry["status"] = "skipped"
            entry["interval"] = [e.lower, e.upper]
            flags.append(f"{spec_text}: skipped on exhausted {e.what}")
        except CapExceededError as e:
            entry["status"] = "skipped"
            flags.append(f"{spec_text}: skipped, order {e.order} over the cap {e.cap}")
        sweep.append(entry)
        expected = SIGMA_EXPECTATIONS.get(spec_text)
        if expected is not None:
            row = {
                "spec": spec_text,
                "expected": expected["sigma"],
                "computed": entry.get("sigma"),
            }
            row["status"] = "ok" if row["computed"] == row["expected"] else "mismatch"
            if entry.get("status") == "skipped":
                row["status"] = "skipped"
            if "conflict" in expected:
                row["note"] = expected["conflict"]
                flags.append(f"{spec_text}: {expected['conflict']}")
            if expected.get("unique_cover") and row["status"] == "ok":
                res = sigma(G, replace(opts, enumerate_all=True))
                row["unique_cover"] = res.unique
                if res.unique is None:
                    row["status"] = "skipped"
                    flags.append(f"{spec_text}: uniqueness skipped on exhausted enumeration")
                elif not res.unique:
                    row["status"] = "mismatch"
            regression.append(row)
            if row["status"] == "mismatch":
                ok = False

    # each isomorphic duplicate folds into its canonical spelling and must
    # agree with it on σ; fold notes come by sum, then in manifest order
    entries = {e["spec"]: e for e in sweep}
    fold_flags: list[tuple[int, int, str]] = []
    pair_flags: list[str] = []
    for name, alias in ISOMORPHIC_ALIASES.items():
        a, b = entries.get(name, {}), entries.get(alias, {})
        if a and b and a.get("sigma") != b.get("sigma"):
            ok = False
            pair_flags.append(
                f"isomorphic pair disagrees: {name} -> {a.get('sigma')}, "
                f"{alias} -> {b.get('sigma')}"
            )
        s = a.get("listed_sum")
        if s is None:
            continue
        if b.get("listed_sum") == s:
            note = f"{name}: same group as {alias}, listed once under sum {s}"
        else:
            ok = False
            note = f"{name}: isomorphic partner {alias} missing from sum {s}"
        fold_flags.append((s, MANIFEST.index(name), note))
    flags += [note for _, _, note in sorted(fold_flags)] + pair_flags

    skipped = {e["spec"] for e in sweep if e.get("status") == "skipped"}
    rows = []
    for s in range(3, max_sum + 1):
        expected = sorted(EXPECTED_CLASSIFICATION.get(s, ()))
        got = sorted(
            e["spec"]
            for e in sweep
            if e.get("listed_sum") == s and e["spec"] not in ISOMORPHIC_ALIASES
        )
        # a skipped group was never decided, so its absence is no mismatch
        lost = [name for name in expected if name in skipped and name not in got]
        row = {"sum": s, "expected": expected, "computed": got}
        row["ok"] = [name for name in expected if name not in lost] == got
        if lost:
            row["skipped"] = lost
        rows.append(row)
        if not row["ok"]:
            ok = False

    return {
        "max_sum": max_sum,
        "rows": rows,
        "regression": regression,
        "sweep": sweep,
        "flags": flags,
        "ok": ok,
    }


def _sweep_one(G: PermGroup, spec_text: str, max_sum: int, opts: SigmaOptions) -> dict:
    if G.is_cyclic():
        return {"sigma": INFINITY, "elementary": False, "status": "cyclic"}
    ins = build_instance(G, cap=opts.cap, join_budget=opts.join_budget)
    root_bound = ins.residual_lower_bound(
        1 << ins.table.identity_id, (1 << len(ins.cols)) - 1
    )
    if (
        root_bound is not None
        and root_bound > max_sum
        and spec_text not in SIGMA_EXPECTATIONS
    ):
        # cannot appear in any row; skip the exact solve
        return {
            "sigma_lower_bound": root_bound,
            "status": f"excluded: sigma > {max_sum}",
        }
    s_G = sigma_value(G, opts)
    out: dict = {"sigma": s_G, "status": "computed"}
    if isinstance(s_G, int) and s_G <= max_sum:
        verdict = is_sigma_elementary(G, opts)
        out["elementary"] = verdict.is_elementary
        if verdict.is_elementary:
            out["listed_sum"] = s_G
        elif verdict.witness is not None:
            out["witness_quotient_sigma"] = _jsonable(
                verdict.witness["quotient_sigma"]
            )
    return out


def _jsonable(x):
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if x == INFINITY:
        return "infinity"
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    return str(x)
