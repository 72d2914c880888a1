"""Queries and per-layer metrics for the traced run.

A traced query calls the layers of ``groupcover`` bottom-up on a fresh
group, one public function per span, so that each call finds the layers
below it already built and no layer's work lands in two spans:

    group      chain, element table
    lattice    cyclic subgroups, maximal cyclic subgroups, the maximal-
               subgroup worklist, normal subgroups, chief series
    cover      instance, reduce, greedy bound, search, enumeration, verify
    analysis   sigma, is_sigma_elementary, tomkinson_sigma

σ itself is rebuilt from ``build_instance``, ``reduce``,
``greedy_upper_bound``, ``solve_exact`` and ``enumerate_optimal_covers`` in
the order ``analysis.sigma`` calls them.  The σ-elementary query needs σ(G)
in G's own cache, so there it is one ``analysis.sigma`` span.  Work that
an ``analysis`` or ``lattice.chief`` call does on quotient groups (their
chains, lattices and σ) is counted in that span alone, so the lattice
counters cover the lattices of the input groups only.

Spans are kept in memory and written out as JSON lines at the end.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from groupcover import (
    build_instance,
    enumerate_optimal_covers,
    greedy_upper_bound,
    is_sigma_elementary,
    lattice,
    reduce,
    sigma,
    solve_exact,
    tomkinson_sigma,
    verify_cover,
)

from inputs import ELEMENTARY, SIGMA, SIGMA_ALL, TOMKINSON

QUERY = "query"


class Tracer:
    """Spans (name, start, end, parent span, query id) kept in memory."""

    def __init__(self, label: str):
        self.label = label
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._query: int | None = None
        self._queries = 0

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "query": self._query,
            **attrs,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._open.pop()

    @contextmanager
    def query(self, kind: str, spec: str):
        """A root span that every layer span of one query hangs off."""
        self._query = self._queries
        self._queries += 1
        try:
            with self.span(QUERY, kind=kind, spec=spec) as rec:
                yield rec
        finally:
            self._query = None

    def write(self, f) -> None:
        for rec in self.spans:
            f.write(json.dumps({"pass": self.label, **rec}) + "\n")


# ----------------------------------------------------------------------
# traced queries


def _build_group(tr: Tracer, G) -> None:
    with tr.span("group.chain"):
        G.order()
        G.is_cyclic()
    with tr.span("group.table") as s:
        s["elements"] = G.table().n


def _build_maximal(tr: Tracer, G):
    """Cyclic and maximal cyclic subgroups, then the worklist."""
    with tr.span("lattice.cyclic"):
        lat = lattice(G)
        lat.cyclic_subgroups()
    with tr.span("lattice.maxcyclic"):
        lat.maximal_cyclic_subgroups()
    with tr.span("lattice.worklist") as s:
        lat.maximal_subgroups()
    s["joins"] = lat.joins_spent
    s["subgroups"] = len(lat.all_subgroups())
    return lat


def _sigma(tr: Tracer, G, enumerate_all: bool) -> dict:
    """analysis.sigma, one cover-layer call per span."""
    _build_group(tr, G)
    _build_maximal(tr, G)
    with tr.span("cover.instance") as s:
        ins = build_instance(G)
    s["rows"], s["cols"] = len(ins.rows), len(ins.cols)
    with tr.span("cover.reduce"):
        reduce(ins)
    with tr.span("cover.greedy"):
        upper = len(greedy_upper_bound(ins))
    with tr.span("cover.reduce") as s:
        reduce(ins, upper_bound=upper)
    s["forced"] = len(ins.forced)
    with tr.span("cover.search") as s:
        value, cover_idx, stats = solve_exact(ins)
    s["nodes"] = stats["nodes"]
    answer = {
        "sigma": value,
        "cover": [ins.describe_col(j) for j in cover_idx],
        "nodes": stats["nodes"],
    }
    if enumerate_all:
        with tr.span("cover.enumerate") as s:
            count, _covers, _exact = enumerate_optimal_covers(ins, value)
        s["optimal_covers"] = count
        answer["optimal_covers"] = count
    return answer


def _elementary(tr: Tracer, G) -> dict:
    _build_group(tr, G)
    lat = _build_maximal(tr, G)
    with tr.span("analysis.sigma"):
        sigma(G)
    with tr.span("lattice.normal"):
        lat.normal_subgroups()
    with tr.span("analysis.elementary") as s:
        v = is_sigma_elementary(G)
    s["quotients"] = len(v.quotient_sigmas)
    return {"sigma": v.sigma, "elementary": v.is_elementary}


def _tomkinson(tr: Tracer, G) -> dict:
    _build_group(tr, G)
    with tr.span("lattice.normal"):
        lat = lattice(G)
        lat.normal_subgroups()
    with tr.span("lattice.chief") as s:
        s["chief_factors"] = len(lat.chief_series())
    with tr.span("analysis.tomkinson"):
        t = tomkinson_sigma(G)
    return {"sigma": t.sigma}


def traced_answer(tr: Tracer, kind: str, G) -> dict:
    if kind == SIGMA:
        return _sigma(tr, G, enumerate_all=False)
    if kind == SIGMA_ALL:
        return _sigma(tr, G, enumerate_all=True)
    if kind == ELEMENTARY:
        return _elementary(tr, G)
    if kind == TOMKINSON:
        return _tomkinson(tr, G)
    raise ValueError(f"unknown query kind {kind!r}")


def traced_verify(tr: Tracer, H, cover) -> bool:
    with tr.span("cover.verify"):
        return verify_cover(H, cover).ok


# ----------------------------------------------------------------------
# per-layer metrics

# (metric, span whose summed duration it is)
TIMES = (
    ("catalog.construct_s", "catalog.construct"),
    ("group.chain_s", "group.chain"),
    ("group.table_s", "group.table"),
    ("lattice.cyclic_s", "lattice.cyclic"),
    ("lattice.maxcyclic_s", "lattice.maxcyclic"),
    ("lattice.worklist_s", "lattice.worklist"),
    ("lattice.normal_s", "lattice.normal"),
    ("lattice.chief_s", "lattice.chief"),
    ("cover.instance_s", "cover.instance"),
    ("cover.reduce_s", "cover.reduce"),
    ("cover.greedy_s", "cover.greedy"),
    ("cover.search_s", "cover.search"),
    ("cover.enumerate_s", "cover.enumerate"),
    ("cover.verify_s", "cover.verify"),
    ("analysis.sigma_s", "analysis.sigma"),
    ("analysis.elementary_s", "analysis.elementary"),
    ("analysis.tomkinson_s", "analysis.tomkinson"),
)

# (metric, span attribute it sums)
COUNTS = (
    ("group.elements", "elements"),
    ("lattice.joins", "joins"),
    ("lattice.subgroups", "subgroups"),
    ("lattice.chief_factors", "chief_factors"),
    ("cover.rows", "rows"),
    ("cover.cols", "cols"),
    ("cover.forced", "forced"),
    ("cover.nodes", "nodes"),
    ("cover.optimal_covers", "optimal_covers"),
    ("analysis.quotients", "quotients"),
)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def pass_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer times and counts of one traced pass.

    ``trace.wall_s`` is the summed duration of the query spans, the traced
    counterpart of an untraced pass's wall time; ``trace.coverage`` is the
    share of it that layer spans cover.
    """
    time_of: dict[str, float] = defaultdict(float)
    count_of: dict[str, int] = defaultdict(int)
    queries = {r["id"] for r in tr.spans if r["name"] == QUERY}
    wall = covered = 0.0
    for r in tr.spans:
        d = r["end"] - r["start"]
        if r["name"] == QUERY:
            wall += d
            continue
        time_of[r["name"]] += d
        if r["parent"] in queries:
            covered += d
        for _metric, attr in COUNTS:
            if attr in r:
                count_of[attr] += r[attr]
    out = {metric: time_of[name] for metric, name in TIMES}
    out.update({metric: count_of[attr] for metric, attr in COUNTS})
    out["lattice.joins_per_s"] = _ratio(out["lattice.joins"], out["lattice.worklist_s"])
    out["lattice.joins_per_subgroup"] = _ratio(out["lattice.joins"], out["lattice.subgroups"])
    out["cover.nodes_per_s"] = _ratio(out["cover.nodes"], out["cover.search_s"])
    out["trace.wall_s"] = wall
    out["trace.coverage"] = _ratio(covered, wall)
    return out
