"""Passes, set-up timing and metrics of the benchmark.

One single-threaded client drives the public ``groupcover`` API in a
closed loop: each query starts only after the previous one has returned.
Every query gets a fresh ``PermGroup``, so no lattice or σ cached on an
earlier group object is reused, and ``gc.collect()`` runs between queries,
outside the timed regions.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy
import sympy
from groupcover import (
    SigmaOptions,
    construct,
    is_sigma_elementary,
    lattice,
    sigma,
    tomkinson_sigma,
    verify_cover,
)

from inputs import COVER_KINDS, ELEMENTARY, SIGMA_ALL, TOMKINSON, check_answer
from traced import Tracer, pass_metrics, traced_answer, traced_verify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# (name, unit, better) of the metrics one run reports.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("answer_p50_s", "s", "lower"),
    ("verify_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
)
PER_LAYER = (
    ("catalog.construct_s", "s", "lower"),
    ("group.chain_s", "s", "lower"),
    ("group.table_s", "s", "lower"),
    ("group.elements", "count", "lower"),
    ("lattice.cyclic_s", "s", "lower"),
    ("lattice.maxcyclic_s", "s", "lower"),
    ("lattice.worklist_s", "s", "lower"),
    ("lattice.joins", "count", "lower"),
    ("lattice.joins_per_s", "1/s", "higher"),
    ("lattice.subgroups", "count", "lower"),
    ("lattice.joins_per_subgroup", "ratio", "lower"),
    ("lattice.normal_s", "s", "lower"),
    ("lattice.chief_s", "s", "lower"),
    ("lattice.chief_factors", "count", "lower"),
    ("cover.instance_s", "s", "lower"),
    ("cover.rows", "count", "lower"),
    ("cover.cols", "count", "lower"),
    ("cover.reduce_s", "s", "lower"),
    ("cover.forced", "count", "higher"),
    ("cover.greedy_s", "s", "lower"),
    ("cover.search_s", "s", "lower"),
    ("cover.nodes", "count", "lower"),
    ("cover.nodes_per_s", "1/s", "higher"),
    ("cover.enumerate_s", "s", "lower"),
    ("cover.optimal_covers", "count", "lower"),
    ("cover.verify_s", "s", "lower"),
    ("analysis.sigma_s", "s", "lower"),
    ("analysis.elementary_s", "s", "lower"),
    ("analysis.quotients", "count", "lower"),
    ("analysis.tomkinson_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
)
UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}

SETUP_RUNS = 6  # half before the timed queries, half after
VERIFY_REPEATS = 5  # untraced checks of each reported cover
SETUP_TIMEOUT_S = 120

# Run in a fresh interpreter: import the package, then construct and relabel
# the workload's groups.  Prints the seconds that took.
_SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
import inputs
inputs.make_inputs(inputs.WORKLOADS[sys.argv[1]], int(sys.argv[2]))
print(time.perf_counter() - t0)
"""

_ENUMERATE_ALL = SigmaOptions(enumerate_all=True)


def run_context(workload: str, seed: int) -> dict:
    """What a result depends on besides the code: machine, versions, seed."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "workload": workload,
        "seed": seed,
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
    }


def measure_setup(workload: str, seed: int, runs: int = SETUP_RUNS) -> list[float]:
    """Set-up seconds in each of ``runs`` fresh interpreters, one at a time."""
    path = [str(SRC), str(HERE), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    times = []
    for _ in range(runs):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, workload, str(seed)],
            env=env, capture_output=True, text=True, check=True,
            timeout=SETUP_TIMEOUT_S,
        )
        times.append(float(out.stdout.split()[-1]))
    return times


def answer(kind: str, G) -> dict:
    """One untraced query through the public API."""
    if kind in COVER_KINDS:
        r = sigma(G, _ENUMERATE_ALL if kind == SIGMA_ALL else None)
        out = {"sigma": r.sigma, "cover": r.cover, "nodes": r.stats["nodes"]}
        if kind == SIGMA_ALL:
            out["optimal_covers"] = r.optimal_count
        return out
    if kind == ELEMENTARY:
        v = is_sigma_elementary(G)
        return {"sigma": v.sigma, "elementary": v.is_elementary}
    if kind == TOMKINSON:
        return {"sigma": tomkinson_sigma(G).sigma}
    raise ValueError(f"unknown query kind {kind!r}")


@dataclass
class Sample:
    """One query, checked, and the checks of the cover it reported."""

    time: float | None  # seconds of the query; None: it raised
    verify: list[float]  # seconds of each verify_cover call
    answer: dict | None  # None: failed
    failure: str | None
    cost: float  # wall seconds spent on all of it, gc included


def run_query(q, inputs, expected, tracer: Tracer | None = None, verify_repeats: int = 1) -> Sample:
    """One query on a fresh group object, then ``verify_repeats`` checks of
    its cover, each on another fresh group object."""
    start = perf_counter()
    G = inputs[q.spec].fresh_group()
    gc.collect()
    verify: list[float] = []
    try:
        t0 = perf_counter()
        if tracer is None:
            got = answer(q.kind, G)
        else:
            with tracer.query(q.kind, q.spec):
                got = traced_answer(tracer, q.kind, G)
        dt = perf_counter() - t0
        got["joins"] = lattice(G).joins_spent
        problems = check_answer(q, got, expected)
        checks = verify_repeats if q.kind in COVER_KINDS else 0
        if checks:
            gc.collect()
        for _ in range(checks):
            H = inputs[q.spec].fresh_group()
            t0 = perf_counter()
            if tracer is None:
                ok = verify_cover(H, got["cover"]).ok
            else:
                with tracer.query("verify", q.spec):
                    ok = traced_verify(tracer, H, got["cover"])
            verify.append(perf_counter() - t0)
            if not ok:
                problems.append("verify_cover rejected the reported cover")
                break
    except Exception:  # a query that raises counts as failed
        traceback.print_exc(file=sys.stderr)
        return Sample(None, verify, None, f"{q.kind} {q.spec}: raised", perf_counter() - start)
    failure = f"{q.kind} {q.spec}: " + "; ".join(problems) if problems else None
    return Sample(dt, verify, None if problems else got, failure, perf_counter() - start)


@dataclass
class PassResult:
    samples: list[Sample]

    @property
    def answers(self) -> list[dict | None]:
        return [s.answer for s in self.samples]

    @property
    def failures(self) -> list[str]:
        return [s.failure for s in self.samples if s.failure]

    @property
    def wall(self) -> float:
        """Queries plus verifications, gc excluded."""
        return sum(s.time + sum(s.verify) for s in self.samples if s.time is not None)


def run_pass(queries, inputs, expected, tracer: Tracer | None = None) -> PassResult:
    """Every query of the workload once, each on a fresh group object."""
    return PassResult([run_query(q, inputs, expected, tracer) for q in queries])


def repeat_mismatches(queries, samples: list[list[Sample]]) -> list[str]:
    """Queries whose answers or counts (joins, nodes) differ between samples.

    ``samples[i]`` are the samples of ``queries[i]``.  Inputs are fixed by
    the seed and every query gets a fresh group, so a difference means some
    cache leaked from one sample into the next.
    """
    out = []
    for q, got in zip(queries, samples):
        answers = [s.answer for s in got if s.answer is not None]
        if any(a != answers[0] for a in answers[1:]):
            out.append(f"{q.kind} {q.spec}: a repeat differs from the first answer "
                       "(answers, lattice.joins or cover.nodes)")
    return out


def by_query(passes: list[PassResult]) -> list[list[Sample]]:
    """The samples of each query over the passes."""
    return [list(col) for col in zip(*(p.samples for p in passes))]


def _run_for(seconds: float, one_round) -> None:
    """Call ``one_round`` at least once, and again while it fits the time."""
    start = perf_counter()
    while True:
        t0 = perf_counter()
        one_round()
        took = perf_counter() - t0
        if perf_counter() - start + took > seconds:
            return


def sample_queries(queries, inputs, expected, seconds: float) -> list[list[Sample]]:
    """Cycle through the queries for ``seconds``; the samples of each.

    The first cycle runs every query.  Later cycles run a query again only
    while it fits the time left, judged by what its last sample cost, so
    cheap queries fill the end of a run that an expensive one would overrun.
    """
    samples: list[list[Sample]] = [[] for _ in queries]
    start = perf_counter()
    while True:
        ran = False
        for q, got in zip(queries, samples):
            if got and perf_counter() - start + got[-1].cost > seconds:
                continue
            got.append(run_query(q, inputs, expected, verify_repeats=VERIFY_REPEATS))
            ran = True
        if not ran:
            return samples


@dataclass
class RunResult:
    metrics: dict[str, float]
    attempted: int  # queries
    failed: int  # queries that raised or answered wrong
    problems: list[str]  # the failed queries, then any query that did not repeat
    notes: dict[str, str]
    tracers: list[Tracer] = field(default_factory=list)


def _outcome(queries, samples: list[list[Sample]]) -> tuple[int, int, list[str]]:
    failures = [s.failure for got in samples for s in got if s.failure]
    attempted = sum(len(got) for got in samples)
    return attempted, len(failures), failures + repeat_mismatches(queries, samples)


def query_medians(samples: list[list[Sample]]) -> tuple[list[float], list[float]]:
    """Each query's median time, and each cover's median check time, over
    the samples in which the query returned.

    wall_s sums both, answer_p50_s is the median of the first and verify_s
    the sum of the second.  A median per query first keeps one slow or fast
    moment of the machine from moving a whole pass, and keeps the median of
    few queries repeated many times out of the gap between their times.
    """
    times, checks = [], []
    for got in samples:
        ok = [s for s in got if s.time is not None]
        if ok:
            times.append(statistics.median(s.time for s in ok))
        if any(s.verify for s in ok):
            checks.append(statistics.median(v for s in ok for v in s.verify))
    return times, checks


def run_untraced(workload: str, queries, inputs, expected, seed: int, seconds: float) -> RunResult:
    """The end-to-end metrics, with tracing off."""
    # Set-up runs before and after the queries, so that they do not all
    # meet the machine in one state.
    setups = measure_setup(workload, seed, SETUP_RUNS // 2)
    samples = sample_queries(queries, inputs, expected, seconds)
    setups += measure_setup(workload, seed, SETUP_RUNS - SETUP_RUNS // 2)
    times, checks = query_medians(samples)
    attempted, failed, problems = _outcome(queries, samples)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(times) + sum(checks),
        "answer_p50_s": statistics.median(times) if times else 0.0,
        "verify_s": sum(checks),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    counts = [len(got) for got in samples]
    spread = f"{min(counts)} to {max(counts)} samples a query" if counts else ""
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "wall_s": f"sum of {len(times)} queries' and {len(checks)} covers' medians, {spread}",
        "answer_p50_s": f"median of {len(times)} queries' medians, {spread}",
        "verify_s": f"sum of {len(checks)} covers' medians, {VERIFY_REPEATS} checks a sample",
    }
    return RunResult(metrics, attempted, failed, problems, notes)


def run_traced(queries, inputs, expected, seconds: float) -> RunResult:
    """The per-layer metrics: untraced and traced passes, alternating."""
    setup = Tracer("setup")
    for spec in dict.fromkeys(q.spec for q in queries):
        with setup.span("catalog.construct", spec=spec):
            construct.__wrapped__(spec)  # bypass the lru_cache
    plain: list[PassResult] = []
    traced: list[PassResult] = []
    tracers: list[Tracer] = [setup]

    def one_round() -> None:
        plain.append(run_pass(queries, inputs, expected))
        tracers.append(Tracer(f"traced-{len(traced)}"))
        traced.append(run_pass(queries, inputs, expected, tracer=tracers[-1]))

    _run_for(seconds, one_round)
    per_pass = [pass_metrics(tr) for tr in tracers[1:]]
    metrics = {
        name: statistics.median(m[name] for m in per_pass)
        for name, _, _ in PER_LAYER
        if name not in ("catalog.construct_s", "trace.overhead")
    }
    metrics["catalog.construct_s"] = pass_metrics(setup)["catalog.construct_s"]
    traced_wall = statistics.median(m["trace.wall_s"] for m in per_pass)
    plain_wall = statistics.median(p.wall for p in plain)
    metrics["trace.overhead"] = traced_wall / plain_wall - 1
    attempted, failed, problems = _outcome(queries, by_query(plain + traced))
    notes = {"trace.overhead": f"{len(traced)} traced against {len(plain)} untraced passes"}
    return RunResult(
        {name: metrics[name] for name, _, _ in PER_LAYER},
        attempted, failed, problems, notes, tracers,
    )
