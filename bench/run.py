"""Benchmark of groupcover: exact covering numbers from generators alone.

Run from the root of the repository:

    python3 bench/run.py --workload simple-large --seed 1 --seconds 32 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 32 --trace 1

Workloads (see BENCHMARK.json for why each was chosen):

    simple-large    sigma on M11 and PSL3(3), then verify_cover of each cover
    search-enum     sigma with every optimal cover enumerated on Alt(6) and
                    PSL2(9), then verify_cover
    solvable-small  sigma, is_sigma_elementary and tomkinson_sigma on every
                    solvable non-cyclic MANIFEST group of order <= 300
    smoke           a few seconds of all of the above on small groups
    all             the first three, each in its own process

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
reports the per-layer metrics of a traced run and writes its spans as JSON
lines to ``bench/out/trace-<workload>-seed<seed>.jsonl``.  Every answer is
checked against ``bench/expected.json``.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 0 only when every answer was right.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BENCH_WORKLOADS = ("simple-large", "search-enum", "solvable-small")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=BENCH_WORKLOADS + ("smoke", "all"))
    ap.add_argument("--seed", type=int, required=True, help="seed of the input relabelling")
    ap.add_argument("--seconds", type=float, default=30.0, help="how long to keep measuring")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def run_all(args) -> int:
    """Each benchmark workload in a process of its own, then one result line."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in BENCH_WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"run.py: workload {workload} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        correct = correct and res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{workload}.{k}": v for k, v in res["metrics"].items()})
    print(result_line(correct, attempted, failed, metrics))
    return 0 if correct else 1


def write_trace(context: dict, tracers) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{context['workload']}-seed{context['seed']}.jsonl"
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps({"context": context}) + "\n")
        for tr in tracers:
            tr.write(f)
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "groupcover" / "__init__.py").is_file():
        print(f"run.py: no groupcover package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # Imported only now: both import groupcover, which lives under SRC.
    sys.path.insert(0, str(SRC))
    import harness
    import inputs

    queries = inputs.WORKLOADS[args.workload]
    context = harness.run_context(args.workload, args.seed)
    print(json.dumps({"context": context}))
    expected = inputs.load_expected()
    data = inputs.make_inputs(queries, args.seed)
    if args.trace:
        res = harness.run_traced(queries, data, expected, args.seconds)
        print(f"spans: {write_trace(context, res.tracers).relative_to(ROOT)}")
    else:
        res = harness.run_untraced(args.workload, queries, data, expected, args.seed, args.seconds)
    for problem in res.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, value in res.metrics.items():
        print(f"{name:<28} {value:>16.6f} {harness.UNITS[name]:<6} {res.notes.get(name, '')}")
    print(f"{'failed_frac':<28} {res.failed / res.attempted:>16.6f} {'ratio':<6} "
          f"{res.failed} of {res.attempted} queries")
    metrics = {n: {"value": v, "unit": harness.UNITS[n]} for n, v in res.metrics.items()}
    print(result_line(not res.problems, res.attempted, res.failed, metrics))
    return 0 if not res.problems else 1


if __name__ == "__main__":
    sys.exit(main())
