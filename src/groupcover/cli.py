"""Command-line front end.

Commands: ``sigma`` (covering number with certificates and witness cover),
``verify`` (check a proposed cover), ``elementary`` (σ-elementary verdict),
``table`` (recompute the classification of σ-elementary groups by sum).

Group specs are either ``catalog:Name(args)`` or a path to a group file.
Result documents are JSON and byte-identical across runs for identical
inputs and configuration; nothing time- or machine-dependent goes in them.

Exit codes: 0 success, 2 parse error, 3 budget or cap exhausted,
4 internal invariant violation.  ``verify`` exits 1 on a rejected cover and
``table`` exits 1 on any mismatch, else 3 when a sum row lost a group that
was skipped.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .analysis import (
    EXPECTED_CLASSIFICATION,
    ElementaryVerdict,
    SigmaOptions,
    _jsonable,
    classification_report,
    is_sigma_elementary,
    sigma,
)
from .catalog import construct, parse_group_file
from .cover import verify_cover
from .errors import (
    BudgetExhaustedError,
    CapExceededError,
    GroupCoverError,
    InvariantError,
    ParseError,
)
from .group import PermGroup

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_INVARIANT = 4


def _load_group(spec: str) -> PermGroup:
    if spec.startswith("catalog:"):
        return construct(spec[len("catalog:") :])
    path = Path(spec)
    if not path.exists():
        raise ParseError(
            f"group spec {spec!r} is neither catalog:... nor an existing file",
            token=spec,
        )
    return parse_group_file(path.read_text(), source=str(path))


def _result_document(res) -> dict:
    return {
        "group": res.group,
        "order": res.order,
        "degree": res.degree,
        "sigma": _jsonable(res.sigma),
        "interval": _jsonable(list(res.interval)) if res.interval else None,
        "cover": res.cover,
        "certificates": [c.as_dict() for c in res.certificates],
        "unique": res.unique,
        "optimal_count": _jsonable(res.optimal_count),
        "stats": _jsonable(res.stats),
    }


def _emit(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, indent=2) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _check_cap(args) -> None:
    if args.cap < 1:
        raise ParseError("--cap must be at least 1")


def _options(args) -> SigmaOptions:
    _check_cap(args)
    if args.node_budget < 1:
        raise ParseError("--node-budget must be at least 1")
    if args.join_budget < 1:
        raise ParseError("--join-budget must be at least 1")
    limit = getattr(args, "limit", SigmaOptions.enumerate_limit)
    if limit < 1:
        raise ParseError("--limit must be at least 1")
    return SigmaOptions(
        cap=args.cap,
        node_budget=args.node_budget,
        join_budget=args.join_budget,
        sigma_forcing=getattr(args, "sigma_forcing", False),
        enumerate_all=getattr(args, "enumerate_all", False),
        enumerate_limit=limit,
    )


def cmd_sigma(args) -> int:
    G = _load_group(args.spec)
    opts = _options(args)
    res = sigma(G, opts)
    doc = _result_document(res)
    _emit(doc, args.out)
    if args.out:
        if res.sigma is None:
            lo, hi = res.interval
            print(f"sigma({res.group}) in [{lo}, {hi}] (budget exhausted)")
        else:
            print(f"sigma({res.group}) = {_jsonable(res.sigma)}")
    if res.sigma is None or opts.enumerate_all and res.optimal_count is None:
        return EXIT_BUDGET
    return EXIT_OK


def cmd_verify(args) -> int:
    _check_cap(args)
    G = _load_group(args.spec)
    payload = json.loads(Path(args.cover_file).read_text())
    if isinstance(payload, dict):
        cover = payload.get("cover")
        if cover is None:
            raise ParseError(f"{args.cover_file}: document has no 'cover' array")
    else:
        cover = payload
    if not isinstance(cover, list) or not all(
        isinstance(s, list) and all(isinstance(g, str) for g in s) for s in cover
    ):
        raise ParseError(
            f"{args.cover_file}: cover must be an array of lists of cycle strings"
        )
    result = verify_cover(G, cover, cap=args.cap)
    if result.ok:
        print(f"cover of {G.label()} accepted ({len(cover)} subgroups)")
        return EXIT_OK
    print(f"cover of {G.label()} rejected: {result.reason} ({result.witness})")
    return EXIT_REJECTED


def cmd_elementary(args) -> int:
    G = _load_group(args.spec)
    opts = _options(args)
    verdict: ElementaryVerdict = is_sigma_elementary(G, opts)
    doc = {
        "group": G.label(),
        "order": G.order(),
        "degree": G.degree,
        "sigma": _jsonable(verdict.sigma),
        "elementary": verdict.is_elementary,
        "witness": _jsonable(verdict.witness),
        "quotient_sigmas": _jsonable(verdict.quotient_sigmas),
    }
    _emit(doc, args.out)
    if args.out:
        word = "sigma-elementary" if verdict.is_elementary else "not sigma-elementary"
        print(f"{G.label()}: {word} (sigma = {_jsonable(verdict.sigma)})")
    return EXIT_OK


def _format_table(report: dict) -> str:
    lines = ["sum | sigma-elementary groups", "----+------------------------"]
    for row in report["rows"]:
        names = ", ".join(row["computed"]) if row["computed"] else "(none)"
        mark = "" if row["ok"] else "   MISMATCH expected: " + ", ".join(row["expected"])
        if "skipped" in row:
            mark += "   skipped: " + ", ".join(row["skipped"])
        lines.append(f"{row['sum']:3d} | {names}{mark}")
    lines.append("")
    lines.append("exact values:")
    for r in report["regression"]:
        extra = f"  [{r['note']}]" if "note" in r else ""
        lines.append(
            f"  {r['status']:8s} {r['spec']:26s} expected {r['expected']:>3} "
            f"computed {r['computed']}{extra}"
        )
    if report["flags"]:
        lines.append("")
        lines.append("notes:")
        lines += [f"  - {f}" for f in report["flags"]]
    lines.append("")
    if not report["ok"]:
        result = "MISMATCHES FOUND"
    elif _skipped_rows(report):
        result = "no mismatches; rows with skipped groups are undecided"
    else:
        result = "all rows match"
    lines.append("result: " + result)
    return "\n".join(lines) + "\n"


def _skipped_rows(report: dict) -> bool:
    return any("skipped" in row for row in report["rows"])


def cmd_table(args) -> int:
    if args.max_sum not in EXPECTED_CLASSIFICATION:
        raise ParseError("--max-sum must lie in the paper's range 3..25")
    opts = _options(args)
    report = classification_report(max_sum=args.max_sum, opts=opts)
    sys.stdout.write(_format_table(report))
    if args.out:
        Path(args.out).write_text(json.dumps(_jsonable(report), indent=2) + "\n")
    if not report["ok"]:
        return EXIT_REJECTED
    return EXIT_BUDGET if _skipped_rows(report) else EXIT_OK


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cap", type=int, default=SigmaOptions.cap, help="element-table cap")
    p.add_argument("--node-budget", type=int, default=SigmaOptions.node_budget,
                   help="search node budget; interval answers on exhaustion")
    p.add_argument("--join-budget", type=int, default=SigmaOptions.join_budget,
                   help="subgroup-join budget of the maximal-subgroup worklist; "
                        "interval answers on exhaustion")
    p.add_argument("--out", help="write the JSON result document here")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="groupcover",
        description="Exact covering numbers of finite permutation groups.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sigma", help="compute the covering number with certificates")
    p.add_argument("spec", help="catalog:Name(args) or a group file path")
    _common_flags(p)
    p.add_argument("--enumerate-all", action="store_true",
                   help="count all minimum covers and report uniqueness")
    p.add_argument("--limit", type=int, default=SigmaOptions.enumerate_limit,
                   help="cap for --enumerate-all counting")
    p.add_argument("--sigma-forcing", action="store_true",
                   help="also force maximal subgroups whose own sigma exceeds "
                        "the upper bound (recursion depth 1)")
    p.set_defaults(fn=cmd_sigma)

    p = sub.add_parser("verify", help="check a proposed cover")
    p.add_argument("spec")
    p.add_argument("cover_file", help="result document or bare cover array (JSON)")
    p.add_argument("--cap", type=int, default=SigmaOptions.cap)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("elementary", help="sigma-elementary verdict")
    p.add_argument("spec")
    _common_flags(p)
    p.set_defaults(fn=cmd_elementary)

    p = sub.add_parser("table", help="recompute the classification by sums")
    p.add_argument("--max-sum", type=int, default=25,
                   help="largest covering number to classify, in the paper's range 3..25")
    _common_flags(p)
    p.set_defaults(fn=cmd_table)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_PARSE if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except json.JSONDecodeError as e:
        print(f"error: bad JSON input: {e}", file=sys.stderr)
        return EXIT_PARSE
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (CapExceededError, BudgetExhaustedError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except InvariantError as e:
        print(f"internal invariant violated: {e}", file=sys.stderr)
        return EXIT_INVARIANT
    except GroupCoverError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
