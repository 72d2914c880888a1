"""Command-line interface: exit codes, JSON documents, determinism."""

from __future__ import annotations

import hashlib
import json

import pytest

from groupcover.cli import main

from conftest import grp


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sigma_document_to_stdout(capsys):
    code, out, err = run(capsys, "sigma", "catalog:Sym(3)")
    assert code == 0
    doc = json.loads(out)
    assert doc["group"] == "Sym(3)"
    assert doc["order"] == 6 and doc["degree"] == 3
    assert doc["sigma"] == 4
    assert doc["interval"] is None
    assert len(doc["cover"]) == 4
    assert all(isinstance(fam, list) for fam in doc["cover"])
    assert doc["stats"]["rows"] == 4 and doc["stats"]["columns"] == 4
    assert list(doc) == [
        "group",
        "order",
        "degree",
        "sigma",
        "interval",
        "cover",
        "certificates",
        "unique",
        "optimal_count",
        "stats",
    ]


def test_sigma_infinity_for_cyclic(capsys):
    code, out, _ = run(capsys, "sigma", "catalog:Cyclic(12)")
    assert code == 0
    doc = json.loads(out)
    assert doc["sigma"] == "infinity"
    assert doc["cover"] is None


def test_sigma_out_file_and_summary_line(tmp_path, capsys):
    out_file = tmp_path / "res.json"
    code, out, _ = run(capsys, "sigma", "catalog:Alt(4)", "--out", str(out_file))
    assert code == 0
    assert "sigma(Alt(4)) = 5" in out
    doc = json.loads(out_file.read_text())
    assert doc["sigma"] == 5


def test_sigma_documents_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, "sigma", "catalog:Alt(5)", "--out", str(a))[0] == 0
    assert run(capsys, "sigma", "catalog:Alt(5)", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_sigma_enumerate_all(capsys):
    code, out, _ = run(
        capsys, "sigma", "catalog:Alt(5)", "--enumerate-all", "--limit", "1000"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["optimal_count"] == 15
    assert doc["unique"] is False


def test_verify_round_trip(tmp_path, capsys):
    res_file = tmp_path / "alt4.json"
    assert run(capsys, "sigma", "catalog:Alt(4)", "--out", str(res_file))[0] == 0
    code, out, _ = run(capsys, "verify", "catalog:Alt(4)", str(res_file))
    assert code == 0
    assert "accepted" in out


def test_verify_bare_cover_array(tmp_path, capsys):
    res = json.loads(
        run(capsys, "sigma", "catalog:Sym(3)")[1]
    )
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(res["cover"]))
    code, out, _ = run(capsys, "verify", "catalog:Sym(3)", str(bare))
    assert code == 0 and "accepted" in out


def test_verify_rejects_short_cover(tmp_path, capsys):
    doc = json.loads(run(capsys, "sigma", "catalog:Alt(4)")[1])
    doc["cover"] = doc["cover"][:-1]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "catalog:Alt(4)", str(broken))
    assert code == 1
    assert "rejected" in out and "element-uncovered" in out


def test_verify_bad_json_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run(capsys, "verify", "catalog:Sym(3)", str(bad))
    assert code == 2


def test_verify_document_without_cover(tmp_path, capsys):
    f = tmp_path / "no_cover.json"
    f.write_text(json.dumps({"sigma": 4}))
    code, _, err = run(capsys, "verify", "catalog:Sym(3)", str(f))
    assert code == 2


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_verify_rejects_cap_below_one(tmp_path, capsys, cap):
    res_file = tmp_path / "alt5.json"
    assert run(capsys, "sigma", "catalog:Alt(5)", "--out", str(res_file))[0] == 0
    code, _, err = run(capsys, "verify", "catalog:Alt(5)", str(res_file), "--cap", cap)
    assert code == 2
    assert "--cap must be at least 1" in err


def test_verify_non_string_generators_are_parse_error(tmp_path, capsys):
    f = tmp_path / "numbers.json"
    f.write_text(json.dumps([[1, 2]]))
    code, _, err = run(capsys, "verify", "catalog:Sym(3)", str(f))
    assert code == 2
    assert str(f) in err and "Traceback" not in err


def test_elementary_document(capsys):
    code, out, _ = run(capsys, "elementary", "catalog:Sym(4)")
    assert code == 0
    doc = json.loads(out)
    assert doc["group"] == "Sym(4)"
    assert doc["sigma"] == 4
    assert doc["elementary"] is False
    assert doc["witness"]["normal_order"] == 4
    assert doc["witness"]["quotient_sigma"] == 4


def test_elementary_positive(capsys):
    code, out, _ = run(capsys, "elementary", "catalog:Alt(4)")
    assert code == 0
    doc = json.loads(out)
    assert doc["elementary"] is True and doc["witness"] is None


def test_group_file_input(tmp_path, capsys):
    f = tmp_path / "klein.grp"
    f.write_text("degree 4\ngen (1 2)(3 4)\ngen (1 3)(2 4)\n")
    code, out, _ = run(capsys, "sigma", str(f))
    assert code == 0
    assert json.loads(out)["sigma"] == 3
    g = tmp_path / "d5.grp"
    g.write_text("catalog: Dihedral(5)\n")
    code, out, _ = run(capsys, "sigma", str(g))
    assert code == 0 and json.loads(out)["sigma"] == 6


def test_parse_failures_exit_2(capsys):
    assert run(capsys, "sigma", "catalog:Nope(3)")[0] == 2
    assert run(capsys, "sigma", "/nonexistent/file.grp")[0] == 2
    assert run(capsys, "sigma", "catalog:Sym(4)", "--cap", "0")[0] == 2
    assert run(capsys, "table", "--max-sum", "2")[0] == 2
    assert run(capsys, "table", "--cap", "0")[0] == 2
    assert run(capsys, "table", "--node-budget", "0")[0] == 2
    assert run(capsys, "sigma", "catalog:M11", "--join-budget", "0")[0] == 2
    for limit in ["0", "-1"]:
        code, _, err = run(capsys, "sigma", "catalog:Alt(5)", "--enumerate-all", "--limit", limit)
        assert code == 2 and "--limit must be at least 1" in err


def test_cap_exhaustion_exits_3(capsys):
    code, _, err = run(capsys, "sigma", "catalog:Alt(8)")
    assert code == 3
    assert "cap" in err


def test_node_budget_exhaustion_exits_3(tmp_path, capsys):
    f = tmp_path / "fresh_a5.grp"
    G = grp("Alt(5)")
    f.write_text(
        "degree 5\n" + "".join(f"gen {g.cycle_string()}\n" for g in G.generators)
    )
    code, out, _ = run(capsys, "sigma", str(f), "--node-budget", "1")
    assert code == 3
    doc = json.loads(out)
    assert doc["sigma"] is None
    lo, hi = doc["interval"]
    assert lo <= 10 <= hi


def test_join_budget_exhaustion_exits_3_then_sigma_is_exact(tmp_path, capsys):
    from groupcover import PermGroup, SigmaOptions, sigma

    base = grp("Alt(6)")
    f = tmp_path / "fresh_a6.grp"
    f.write_text(
        "degree 6\n" + "".join(f"gen {g.cycle_string()}\n" for g in base.generators)
    )
    code, out, _ = run(capsys, "sigma", str(f), "--join-budget", "10")
    assert code == 3
    doc = json.loads(out)
    # 3 <= σ <= the 121 maximal cyclic subgroups, which need no join
    assert (doc["sigma"], doc["interval"], doc["cover"]) == (None, [3, 121], [])
    assert doc["stats"] == {"joins": 10}
    # the same answers on one group object, and no poisoned cache after them
    G = PermGroup(list(base.generators), degree=base.degree)
    res = sigma(G, SigmaOptions(join_budget=10))
    assert (res.sigma, res.interval) == (None, (3, 121))
    assert sigma(G).sigma == 16


def test_table_join_budget_exhaustion_gives_sigma_intervals(tmp_path, capsys, monkeypatch):
    from groupcover import analysis, construct, lattice

    # fresh groups, so that no lattice of the session answers without joins
    fresh = {}

    def build(spec):
        fresh[spec] = construct.__wrapped__(spec)
        return fresh[spec]

    monkeypatch.setattr(analysis, "construct", build)
    out = tmp_path / "table.json"
    code, text, _ = run(capsys, "table", "--max-sum", "5", "--join-budget", "1",
                        "--out", str(out))
    assert code == 3
    assert "Sym(4): skipped on exhausted maximal-subgroup enumeration" in text
    skipped = {e["spec"]: e["interval"] for e in json.loads(out.read_text())["sweep"]
               if e.get("status") == "skipped"}
    assert len(skipped) == 66
    # the interval sigma gives on the same budget: 3 <= σ <= the number of
    # maximal cyclic subgroups
    for spec, interval in skipped.items():
        assert interval == [3, len(lattice(fresh[spec]).maximal_cyclic_subgroups())]
    assert skipped["ElemAbelian(2,2)"] == [3, 3] and skipped["Sym(4)"] == [3, 13]


def test_enumeration_budget_exhaustion_prints_sigma_and_exits_3(capsys):
    code, out, _ = run(
        capsys, "sigma", "catalog:AGL1(7)", "--enumerate-all", "--node-budget", "1"
    )
    assert code == 3
    doc = json.loads(out)
    assert doc["sigma"] == 8 and doc["interval"] is None
    assert doc["optimal_count"] is None and doc["unique"] is None


def test_usage_errors(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["--help"]) == 0


def test_table_text_and_json(tmp_path, capsys):
    out_file = tmp_path / "table.json"
    code, out, _ = run(capsys, "table", "--max-sum", "25", "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["ok"] is True
    assert doc["max_sum"] == 25
    # the printed text table mentions the flagship rows
    assert "M11" in out
    assert "Sym(6)" in out
    # both documents are pinned byte for byte
    assert _sha256(out_file.read_bytes()) == (
        "39669d1546c05fd778b8832db17503971d5ab565a1b1a72cc846ddda960da964"
    )
    assert _sha256(out.encode()) == (
        "cdcbbf64f1cd23a649e6156ca055b346a7fdc6954f19b7faacb2351f7b399f70"
    )


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# the sigma and elementary documents every change must leave byte-identical
_PINNED_DOCUMENTS = [
    ("sigma catalog:M11",
     "1930782aaa0c2782794d6c56d676c937f97752b9eb1c0684bdbd475f0edebee9"),
    ("sigma catalog:PGammaL2(8) --enumerate-all",
     "04756a653982c54bc8408e10d473f9fba11c6c9328f693e4db92c9dbf85be468"),
    ("sigma catalog:PGammaL2(8) --enumerate-all --sigma-forcing",
     "1f88403ebed40213040bfccfee1a8b9f45e5c4bb91ed618e47856c97967052fb"),
    ("sigma catalog:Cyclic(12)",
     "1f5d4883abc0a4e5db8914b4650e7eca883aa19e131c53e2b494c4309e3076a2"),
    ("elementary catalog:Sym(4)",
     "c6ee7ddbd53382d42941a713f71162271280bdeacf5fd01c344c0948d00dba91"),
    ("elementary catalog:Cyclic(6)",
     "dd2ba764262688bd5319be32ce534688b0bd14ef9450e723cc5face36930232b"),
    ("elementary catalog:PGammaL2(9)",
     "c7ff93b9d3aa0ffb5683af94202bd367617ec69c8c9076fbbec272ca2b2eb7a6"),
    ("elementary catalog:AGL1(16)",
     "8391fad33713e45ba7fdd21b26151c471d59d917f8ba930d8ca005028282b9d6"),
    ("elementary catalog:Alt(5)",
     "c5623bc1a109b02777f6c0e976bbc91511c375e25d3cb56ecdd6c9781c5eda44"),
]


@pytest.mark.parametrize(
    "command, digest", _PINNED_DOCUMENTS, ids=[c for c, _ in _PINNED_DOCUMENTS]
)
def test_documents_are_pinned(capsys, command, digest):
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert _sha256(out.encode()) == digest


def test_table_skips_groups_over_the_cap(tmp_path, capsys):
    out_file = tmp_path / "table.json"
    code, out, _ = run(
        capsys, "table", "--max-sum", "5", "--cap", "50", "--out", str(out_file)
    )
    doc = json.loads(out_file.read_text())
    skipped = [e for e in doc["sweep"] if e["status"] == "skipped"]
    # a group over the cap is skipped, never solved, and nothing aborts
    assert skipped and all(e["order"] > 50 for e in skipped)
    assert all("sigma" not in e for e in skipped)
    assert {"ElemAbelian(11,2)", "M11"} <= {e["spec"] for e in skipped}
    solved = [e for e in doc["sweep"] if e["status"] == "computed"]
    assert solved and all(e["order"] <= 50 for e in solved)
    assert "ElemAbelian(11,2): skipped, order 121 over the cap 50" in doc["flags"]
    assert "skipped" in out
    regression = {r["spec"]: r["status"] for r in doc["regression"]}
    assert regression["M11"] == "skipped"
    # the rows up to sum 5 need no group of order over 50
    assert code == 0 and doc["ok"] is True


def test_table_row_missing_only_skipped_groups_reads_skipped(tmp_path, capsys):
    out_file = tmp_path / "table.json"
    code, out, _ = run(
        capsys, "table", "--max-sum", "10", "--cap", "60", "--node-budget", "1",
        "--out", str(out_file),
    )
    doc = json.loads(out_file.read_text())
    status = {e["spec"]: e["status"] for e in doc["sweep"]}
    # AGL1(9) is over the cap, and Alt(5)'s cover search runs out of nodes
    assert status["AGL1(9)"] == status["Alt(5)"] == "skipped"
    rows = {r["sum"]: r for r in doc["rows"]}
    assert rows[10]["computed"] == ["AffineSemilinear(9,4,1)"]
    assert rows[10]["skipped"] == ["AGL1(9)", "Alt(5)"]
    assert rows[10]["ok"] is True
    # a row that lost no group carries no skipped key
    assert all("skipped" not in r for s, r in rows.items() if s != 10)
    assert doc["ok"] is True
    assert "MISMATCH" not in out
    assert "skipped: AGL1(9), Alt(5)" in out
    assert code == 3
