"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Each criterion is asserted with exact integer equality.  The suite is
ordered so the expensive shared computations (element tables, subgroup
lattices, covering numbers) are cached for the rest of the test run.
"""

from __future__ import annotations

import sys
from collections import Counter

import numpy as np
import pytest

from groupcover import (
    CapExceededError,
    INFINITY,
    MANIFEST,
    SigmaOptions,
    SpecError,
    construct,
    count_symmetric_order_elements,
    counting_lower_bound,
    generated_subgroup,
    has_klein_quotient,
    is_solvable,
    lattice,
    parse_cycles,
    sigma,
    sigma_value,
    structural_audit,
    tomkinson_sigma,
    verify_cover,
)
from groupcover.analysis import EXPECTED_CLASSIFICATION, classification_report

from conftest import brute_of, grp, manifest_upto
from oracles import quotient


def _report(number: int, description: str, ok: bool, detail: str = ""):
    line = f"[criterion {number}] {description}: {'PASS' if ok else 'FAIL'}"
    if detail and not ok:
        line += f" ({detail})"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, f"criterion {number} failed: {description} {detail}"


# spec names from the source table, mapped to catalog spellings
SIGMA_REGRESSION = {
    "ElemAbelian(2,2)": 3,
    "Sym(3)": 4,
    "Alt(4)": 5,
    "Dihedral(5)": 6,
    "AGL1(5)": 6,
    "ElemAbelian(5,2)": 6,
    "Dihedral(7)": 8,
    "Frobenius(7,3)": 8,
    "AGL1(7)": 8,
    "ElemAbelian(7,2)": 8,
    "AGL1(8)": 9,
    "AffineSemilinear(9,4,1)": 10,
    "AGL1(9)": 10,
    "Alt(5)": 10,
    "Sym(6)": 13,
    "PSL3(2)": 15,
    "ASL3(2)": 15,
    "Sym(5)": 16,
    "Alt(6)": 16,
    "AffineSemilinear(16,5,1)": 17,
    "AGL1(16)": 17,
    "M11": 23,
    "PSL2(8)": 36,
    "Alt(7)": 31,
    "PGammaL2(8)": 29,
}


def test_criterion_1_sigma_regression():
    bad = []
    for spec, want in SIGMA_REGRESSION.items():
        got = sigma_value(grp(spec))
        if got != want:
            bad.append(f"{spec}: {got} != {want}")
    _report(1, "exact sigma regression values", not bad, "; ".join(bad))


def test_criterion_2_unique_cover_flagship():
    G = grp("PGammaL2(8)")
    res = sigma(G, SigmaOptions(enumerate_all=True))
    ok = res.sigma == 29 and res.unique is True and res.optimal_count == 1
    detail = f"sigma={res.sigma} unique={res.unique} count={res.optimal_count}"

    # the one optimal cover is {socle} plus the 28 Sylow-3 normalizers
    T = G.table()
    lat = lattice(G)
    members = [
        generated_subgroup(
            T, [T.id_of_row(np.array(parse_cycles(s, G.degree).zero)) for s in fam]
        )
        for fam in res.cover
    ]
    orders = Counter(S.order for S in members)
    ok = ok and orders == {54: 28, 504: 1}
    detail += f" orders={dict(orders)}"
    soc = lat.socle()
    big = [S for S in members if S.order == 504]
    ok = ok and len(big) == 1 and big[0] == soc
    # each order-54 member holds exactly one Sylow-3 subgroup (27 elements of
    # 3-power order), and those 28 Sylow subgroups are pairwise distinct --
    # so the members are exactly the Sylow-3 normalizers (index 28 = 1512/54)
    sylows = set()
    for S in (S for S in members if S.order == 54):
        three_part = frozenset(
            int(i) for i in S.ids if int(T.orders[int(i)]) in (1, 3, 9, 27)
        )
        ok = ok and len(three_part) == 27
        sylows.add(three_part)
    ok = ok and len(sylows) == 28
    ok = ok and verify_cover(G, res.cover).ok

    # with the recursive-exclusion reduction enabled, the socle is forced by
    # an explicit certificate: sigma(PSL(2,8)) = 36 exceeds the upper bound 29
    strong = sigma(G, SigmaOptions(enumerate_all=True, sigma_forcing=True))
    forced = [c for c in strong.certificates if c.kind == "forced-subgroup"]
    ok = ok and strong.sigma == 29 and strong.unique is True
    ok = ok and any(
        c.payload["column_order"] == 504
        and c.payload["reason"] == "sigma-exceeds-upper-bound"
        and c.payload["sigma_lower"] == 36
        for c in forced
    )
    _report(2, "PGammaL2(8) has exactly one minimal cover (29 subgroups)", ok, detail)


def test_criterion_3_counting_certificates():
    checks = [
        ("PSL3(3)", 13, 1728, 12, 144),
        ("PSL2(16):2", 10, 1632, 24, 68),
        ("PGammaL2(16)", 12, 2720, 40, 68),
        ("Alt(7)", 7, 720, 48, 15),
    ]
    bad = []
    for spec, k, n_k, m_k, bound in checks:
        cert = counting_lower_bound(grp(spec), k)
        got = (
            cert.payload["elements"],
            cert.payload["max_per_subgroup"],
            cert.payload["bound"],
        )
        if got != (n_k, m_k, bound):
            bad.append(f"{spec} k={k}: {got}")
    if count_symmetric_order_elements(10, 21) != 172800:
        bad.append("Sym(10) order-21 count")
    _report(3, "counting-bound certificates from raw element tables", not bad, "; ".join(bad))


def test_criterion_4_tomkinson_agreement():
    bad = []
    checked = 0
    for spec in MANIFEST:
        G = grp(spec)
        if G.order() > 2000 or G.is_cyclic() or not is_solvable(G):
            continue
        checked += 1
        formula = tomkinson_sigma(G).sigma
        solved = sigma_value(G)
        if formula != solved:
            bad.append(f"{spec}: formula {formula} != solver {solved}")
    ok = not bad and checked >= 40
    _report(
        4,
        f"solvable formula agrees with the solver ({checked} groups <= 2000)",
        ok,
        "; ".join(bad),
    )


def test_criterion_5_property_suite():
    bad = []
    seen_sigmas = []
    swept = 0
    for spec in manifest_upto(2000):
        G = grp(spec)
        if G.is_cyclic():
            continue
        swept += 1
        s = sigma_value(G)
        seen_sigmas.append(s)
        # Klein-quotient equivalence for sigma = 3
        if (s == 3) != has_klein_quotient(G):
            bad.append(f"{spec}: sigma-3/Klein-quotient disagreement")
        # quotient monotonicity over every non-trivial normal subgroup
        lat = lattice(G)
        for N in lat.normal_subgroups():
            if N.order == 1:
                continue
            if N.order == G.order():
                continue  # trivial quotient: sigma infinite, monotone for free
            q = sigma_value(quotient(lat, N))
            seen_sigmas.append(q)
            if not (s <= q):
                bad.append(f"{spec}: sigma {s} > quotient sigma {q}")
    for s in seen_sigmas:
        if s in (2, 7, 11):
            bad.append(f"impossible covering number {s} computed")
    # structural invariants of the non-abelian sigma-elementary groups
    audited = 0
    for members in EXPECTED_CLASSIFICATION.values():
        for name in members:
            if grp(name).is_abelian():
                continue
            audited += 1
            try:
                structural_audit(grp(name))
            except Exception as e:  # noqa: BLE001 - recorded as a failure
                bad.append(f"{name}: structural audit failed: {e}")
    ok = not bad and swept >= 50 and audited >= 25
    _report(
        5,
        f"property suite (monotonicity, Klein, forbidden values, audits; "
        f"{swept} groups, {audited} audits)",
        ok,
        "; ".join(bad[:5]),
    )


def test_criterion_6_oracle_equivalence():
    bad = []
    checked = 0
    for spec in manifest_upto(200):
        G = grp(spec)
        brute = brute_of(spec).min_cover_size()
        if G.is_cyclic():
            if brute is not None or sigma_value(G) is not INFINITY:
                bad.append(f"{spec}: cyclic group mishandled")
        else:
            s = sigma_value(G)
            if brute != s:
                bad.append(f"{spec}: brute {brute} != sigma {s}")
        checked += 1
    ok = not bad and checked >= 35
    _report(
        6,
        f"sigma equals exhaustive search over all proper subgroups "
        f"({checked} groups <= 200)",
        ok,
        "; ".join(bad),
    )


def test_criterion_7_table_reproduction():
    report = classification_report(25)
    bad = []
    if not report["ok"]:
        bad.append("report not ok")
    by_sum = {row["sum"]: row for row in report["rows"]}
    for s in range(3, 26):
        row = by_sum[s]
        want = sorted(EXPECTED_CLASSIFICATION.get(s, ()))
        if row["computed"] != want or not row["ok"]:
            bad.append(f"sum {s}: {row['computed']} != {want}")
    for s in (7, 11, 19, 21, 22, 25):
        if by_sum[s]["computed"]:
            bad.append(f"sum {s} should be empty")
    for row in report["regression"]:
        if row["status"] != "ok":
            bad.append(f"regression {row['spec']}: {row['status']}")
    flags = "\n".join(report["flags"])
    if "recomputed here" not in flags:
        bad.append("missing the recorded source-table conflict note")
    if "listed once" not in flags:
        bad.append("missing isomorphic-duplicate fold notes")
    _report(7, "classification table reproduced for sums 3..25", not bad, "; ".join(bad))


def test_criterion_8_out_of_scope_exclusions():
    bad = []
    for spec in ["Alt(8)", "Sym(8)"]:
        G = construct(spec)
        try:
            sigma_value(G)
            bad.append(f"{spec}: sigma unexpectedly computed")
        except CapExceededError:
            pass
    for spec in ["M22", "M23", "M24", "AGL(4,2)", "PSL3(4)", "2^4:Alt(7)"]:
        with pytest.raises(SpecError):
            construct(spec)
    # the counting machinery still reaches everything under the cap
    cert = counting_lower_bound(grp("PGammaL2(16)"), 12)
    if cert.payload["bound"] != 68:
        bad.append("counting bound under the cap broken")
    _report(8, "desk-scale exclusions and cap behavior", not bad, "; ".join(bad))
