"""Tests of the benchmark's own code.  Run: python -m pytest bench/tests"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from traced import Tracer, pass_metrics  # noqa: E402

from groupcover import MANIFEST, construct, is_solvable  # noqa: E402

SMOKE = inputs.WORKLOADS["smoke"]
HELD_OUT_SEED = 8_675_309  # used by no run while the benchmark was built


def _pass(queries, seed=None, tracer=None):
    """One pass; with no seed, on the catalog's own generators."""
    if seed is None:
        data = {q.spec: inputs.GroupInput(construct(q.spec).degree, construct(q.spec).generators)
                for q in queries}
    else:
        data = inputs.make_inputs(queries, seed)
    return harness.run_pass(queries, data, inputs.load_expected(), tracer=tracer)


def test_smoke_pass_traced_and_untraced_agree():
    plain = _pass(SMOKE, seed=3)
    tr = Tracer("traced")
    traced = _pass(SMOKE, seed=3, tracer=tr)
    assert plain.failures == [] and traced.failures == []
    assert harness.repeat_mismatches(SMOKE, harness.by_query([plain, traced])) == []
    m = pass_metrics(tr)
    assert m["trace.coverage"] >= 0.95
    assert m["cover.optimal_covers"] == sum(
        inputs.load_expected()["optimal_covers"][q.spec]
        for q in SMOKE if q.kind == inputs.SIGMA_ALL
    )
    spans = tr.spans
    assert all(s["end"] >= s["start"] for s in spans)
    # layer spans hang off query spans, and never off each other
    ids = {s["id"]: s for s in spans}
    for s in spans:
        if s["name"] != "query":
            assert ids[s["parent"]]["name"] == "query"
            assert s["query"] == ids[s["parent"]]["query"]


def test_wrong_answer_is_counted_as_failed():
    q = inputs.Query("Sym(4)", inputs.SIGMA)
    expected = inputs.load_expected()
    expected["sigma"] = dict(expected["sigma"], **{"Sym(4)": 5})
    res = harness.run_pass((q,), inputs.make_inputs((q,), 1), expected)
    assert res.answers == [None] and len(res.failures) == 1


def _sample(time, verify=(), answer=None):
    return harness.Sample(time, list(verify), answer, None, 0.0)


def test_medians_are_taken_per_query_first():
    samples = [
        [_sample(1.0, [0.1, 0.5, 0.2]), _sample(3.0, [0.3]), _sample(2.0)],
        [_sample(10.0), _sample(12.0), _sample(None)],
    ]
    assert harness.query_medians(samples) == ([2.0, 11.0], [0.25])


def test_a_repeat_that_differs_is_a_problem():
    q = inputs.Query("Sym(4)", inputs.SIGMA)
    same = [[_sample(1.0, answer={"sigma": 4}), _sample(1.0, answer={"sigma": 4})]]
    leaked = [[_sample(1.0, answer={"joins": 9}), _sample(1.0, answer={"joins": 7})]]
    assert harness.repeat_mismatches([q], same) == []
    assert len(harness.repeat_mismatches([q], leaked)) == 1


def test_sampling_runs_every_query_once_however_short_the_time():
    samples = harness.sample_queries(SMOKE, inputs.make_inputs(SMOKE, 2), inputs.load_expected(), 0.0)
    assert [len(got) for got in samples] == [1] * len(SMOKE)
    assert all(s.failure is None for got in samples for s in got)
    covers = [got[0] for q, got in zip(SMOKE, samples) if q.kind in inputs.COVER_KINDS]
    assert all(len(s.verify) == harness.VERIFY_REPEATS for s in covers)


def test_same_seed_same_inputs_and_other_seed_other_inputs():
    a = inputs.make_inputs(SMOKE, 11)
    b = inputs.make_inputs(SMOKE, 11)
    c = inputs.make_inputs(SMOKE, 12)
    assert a == b
    assert a != c


@pytest.mark.parametrize("seed", [0, HELD_OUT_SEED])
def test_relabel_invariance(seed):
    catalog = _pass(SMOKE)
    relabelled = _pass(SMOKE, seed)
    assert catalog.failures == [] and relabelled.failures == []
    keys = ("sigma", "optimal_covers", "elementary")
    for x, y in zip(catalog.answers, relabelled.answers):
        assert {k: x.get(k) for k in keys} == {k: y.get(k) for k in keys}
    for spec, gi in inputs.make_inputs(SMOKE, seed).items():
        G = construct(spec)
        assert gi.fresh_group().order() == G.order()


def test_counts_match_the_baseline_on_catalog_generators():
    q = (inputs.Query("Alt(6)", inputs.SIGMA_ALL),)
    tr = Tracer("traced")
    res = _pass(q, tracer=tr)
    assert res.failures == []
    m = pass_metrics(tr)
    assert (m["lattice.joins"], m["cover.nodes"], m["cover.optimal_covers"]) == (335, 5210, 2)


def test_solvable_small_is_every_solvable_noncyclic_manifest_group_upto_300():
    want = []
    for spec in MANIFEST:
        G = construct(spec)
        if G.order() <= 300 and not G.is_cyclic() and is_solvable(G):
            want.append(spec)
    assert list(inputs.SOLVABLE_SMALL) == want


def test_expected_table_covers_every_query():
    expected = inputs.load_expected()
    for queries in inputs.WORKLOADS.values():
        for q in queries:
            assert q.spec in expected["sigma"]
            if q.kind == inputs.SIGMA_ALL:
                assert q.spec in expected["optimal_covers"]
            if q.kind == inputs.ELEMENTARY:
                assert q.spec in expected["elementary"]


def test_metric_names_and_benchmark_file_agree():
    name_re = re.compile(r"[A-Za-z0-9_.-]+")
    metrics = harness.END_TO_END + harness.PER_LAYER
    assert all(name_re.fullmatch(name) for name, _, _ in metrics)
    assert len({name for name, _, _ in metrics}) == len(metrics)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", harness.END_TO_END), ("per_layer", harness.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] == list(table)
    assert [w["name"] for w in spec["workloads"]] == list(run.BENCH_WORKLOADS)


def _cli(*args):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_cli_prints_one_result_line(trace):
    out = _cli("--workload", "smoke", "--seed", "5", "--seconds", "0.1", "--trace", trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert json.loads(lines[0])["context"]["seed"] == 5
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    table = harness.PER_LAYER if trace == "1" else harness.END_TO_END
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {n: u for n, u, _ in table}


def test_cli_fails_without_the_package(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", BENCH / "no-such-directory")
    code = run.main(["--workload", "smoke", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
