"""Document forms, their round trips, and the command line surface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from liccilab import serialize
from liccilab.betti import betti_table
from liccilab.cli import main
from liccilab.graphs import complete, cycle, from_edges, star
from liccilab.licci import classify, hu_decide
from liccilab.linkage import verify_direct_link
from liccilab.monomial import IdealError, Monomial, MonomialIdeal
from liccilab.polarization import depolarize_suspension


def test_monomial_text_round_trip():
    names = ["x1", "x2", "x3"]
    for exps in [(2, 1, 0), (0, 0, 0), (1, 1, 1), (0, 3, 0)]:
        m = Monomial(exps)
        assert serialize.parse_monomial_text(m.to_text(names), names) == m
    assert serialize.parse_monomial_text("x1^2*x2", names) == Monomial((2, 1, 0))
    with pytest.raises(IdealError):
        serialize.parse_monomial_text("y^2", names)
    with pytest.raises(IdealError):
        serialize.parse_monomial_text("x1^0", names)


def test_ideal_round_trips():
    I = MonomialIdeal(["x1", "x2"], [(2, 0), (1, 1)])
    assert serialize.ideal_from_doc(serialize.ideal_to_doc(I)) == I
    assert serialize.ideal_from_doc(serialize.ideal_to_text_doc(I)) == I
    zero = MonomialIdeal(["x1", "x2"], ())
    assert serialize.ideal_from_doc(serialize.ideal_to_text_doc(zero)) == zero
    assert serialize.ideal_to_text_doc(zero)["gens"] == ["0"]


def test_graph_round_trip():
    g = from_edges(4, [(1, 2), (3, 4)])
    doc = {"n": 4, "labels": ["x1", "x2", "x3", "x4"], "edges": [[1, 2], [3, 4]]}
    assert serialize.graph_from_doc(doc) == g
    assert serialize.graph_from_doc(json.loads(serialize.dumps(doc))) == g


def test_field_round_trip():
    from liccilab.exact import GF2, RATIONALS

    assert serialize.field_from_doc("q") == RATIONALS
    assert serialize.field_from_doc("fp:2") == GF2
    assert serialize.field_from_doc(serialize.field_to_doc(RATIONALS)) == RATIONALS
    with pytest.raises(IdealError):
        serialize.field_from_doc("float")


def assert_document(doc, expected):
    assert doc == expected
    assert json.loads(serialize.dumps(doc)) == expected


def test_table_round_trip():
    t = betti_table(MonomialIdeal(["x", "y"], [(2, 0), (1, 1)]))
    assert_document(serialize.table_to_doc(t), {
        "n_vars": 2,
        "field": "q",
        "entries": [[0, 0, 1], [1, 2, 2], [2, 3, 1]],
    })


def test_verdict_round_trip():
    # a traced R6 verdict and an untraced R2 one
    traced = hu_decide(MonomialIdeal(["x", "y"], [(2, 0), (0, 2)]))
    assert_document(serialize.verdict_to_doc(traced), {
        "status": "Licci",
        "rules": [{
            "rule": "R6",
            "citation": "Huneke-Ulrich standard-form iteration decides licci "
                        "for Artinian monomial ideals",
            "witness": "terminated at step 1: complete intersection",
        }],
        "trace": [{
            "k": 1,
            "ideal": {"vars": ["x", "y"], "gens": [[0, 0]]},
            "note": "complete intersection",
        }],
    })
    untraced = classify(MonomialIdeal(["x", "y"], [(1, 1)]))
    assert_document(serialize.verdict_to_doc(untraced), {
        "status": "Licci",
        "rules": [{
            "rule": "R2",
            "citation": "principal ideals and complete intersections are licci "
                        "(height-one CM ideals in a UFD are principal)",
            "witness": "principal",
        }],
    })


def test_report_round_trip():
    I = MonomialIdeal(["x"], [(1,)])
    rep = verify_direct_link(I, I, I.gens)
    assert_document(serialize.report_to_doc(rep), {
        "title": "direct link",
        "passed": False,
        "checks": [
            {"check": "regular_sequence", "passed": True, "witness": ""},
            {"check": "contained_in_both", "passed": True, "witness": ""},
            {"check": "heights_match", "passed": True, "witness": "heights (1, 1, 1)"},
            {"check": "colon_by_second_gives_first", "passed": False,
             "witness": "MonomialIdeal<x>(1)"},
            {"check": "colon_by_first_gives_second", "passed": False,
             "witness": "MonomialIdeal<x>(1)"},
        ],
    })


def test_serialization_deterministic():
    I = depolarize_suspension(complete(3), 3)
    a = serialize.dumps(serialize.ideal_to_doc(I))
    b = serialize.dumps(serialize.ideal_to_doc(depolarize_suspension(complete(3), 3)))
    assert a == b


# -- CLI ---------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_construct_complementary(capsys):
    code, out, _ = run_cli(
        capsys,
        "construct", "complementary",
        "--kind", "edge_list", "--n", "4",
        "--edges", "[[1,2],[1,3],[2,3],[1,4]]",
        "--text",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["gens"] == ["x1*x4", "x2*x3", "x2*x4", "x3*x4"]


def test_cli_betti_and_oracle_agree(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "construct", "path", "--kind", "cycle", "--n", "4", "--t", "2")
    assert code == 0
    p = tmp_path / "ideal.json"
    p.write_text(out)
    code, out1, _ = run_cli(capsys, "betti", "--ideal", str(p))
    assert code == 0
    code, out2, _ = run_cli(capsys, "betti", "--ideal", str(p), "--oracle")
    assert code == 0
    assert json.loads(out1)["entries"] == json.loads(out2)["entries"]


def test_cli_licci_worked_example(capsys, tmp_path):
    doc = {
        "vars": ["x1", "x2", "x3"],
        "gens": ["x1^2", "x2^2", "x3^2", "x1*x2", "x2*x3"],
    }
    p = tmp_path / "ideal.json"
    p.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "licci", "--ideal", str(p))
    assert code == 0
    verdict = json.loads(out)
    assert verdict["status"] == "Licci"
    assert len(verdict["trace"]) == 2


def test_cli_dual(capsys, tmp_path):
    doc = {"vars": ["x1", "x2"], "gens": ["x1*x2"]}
    p = tmp_path / "i.json"
    p.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "dual", "--ideal", str(p))
    assert code == 0
    parsed = json.loads(out)
    assert parsed["dual"]["gens"] == [[1, 0], [0, 1]]
    assert parsed["minimal_primes"] == [["x1"], ["x2"]]


def test_cli_link(capsys, tmp_path):
    first = tmp_path / "a.json"
    first.write_text(json.dumps({"vars": ["x"], "gens": ["x"]}))
    regseq = tmp_path / "c.json"
    regseq.write_text(json.dumps({"vars": ["x"], "gens": ["x^2"]}))
    code, out, _ = run_cli(
        capsys, "link", "--first", str(first), "--second", str(first), "--regseq", str(regseq)
    )
    assert code == 0
    assert json.loads(out)["passed"] is True
    # a failing link exits nonzero but still prints the structured report
    code, out, _ = run_cli(
        capsys, "link", "--first", str(first), "--second", str(first), "--regseq", str(first)
    )
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_cli_verify_list_and_single_task(capsys):
    code, out, _ = run_cli(capsys, "verify-paper", "--list")
    assert code == 0
    assert out.count(":") >= 18
    code, out, _ = run_cli(capsys, "verify-paper", "T1", "T18")
    assert code == 0
    assert "[PASS] T1" in out and "[PASS] T18" in out


def test_cli_unknown_task(capsys):
    code, _, err = run_cli(capsys, "verify-paper", "T99")
    assert code == 2
    assert "unknown task" in err


def test_cli_malformed_document(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, _, err = run_cli(capsys, "betti", "--ideal", str(p))
    assert code == 2
    assert "error" in err


def test_cli_variable_cap_reported(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("LICCILAB_MAX_VARS", "3")
    doc = {"vars": ["a", "b", "c", "d"], "gens": [[1, 0, 0, 0]]}
    p = tmp_path / "big.json"
    p.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "betti", "--ideal", str(p))
    assert code == 2
    assert "4" in err and "cap" in err


C5_DOC = {"vars": ["x1", "x2", "x3", "x4", "x5"],
          "gens": [[1, 1, 0, 0, 0], [0, 1, 1, 0, 0], [0, 0, 1, 1, 0],
                   [0, 0, 0, 1, 1], [1, 0, 0, 0, 1]]}


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["betti", "--field", "fp:4", "--ideal", "{doc}"], C5_DOC),
        (["betti", "--field", "fp:abc", "--ideal", "{doc}"], C5_DOC),
        (["construct", "edge", "--kind", "star"], None),
        (["betti", "--ideal", "{doc}"], {"vars": ["x", "y"], "gens": [["a", 1]]}),
        (["betti", "--ideal", "{doc}"], {"vars": ["x", "y"], "gens": [[1.5, 1]]}),
        (["construct", "edge", "--graph", "{doc}"], {"n": 3, "edges": [[1, 2.5]]}),
        (["construct", "edge", "--kind", "edge_list", "--edges", "[[1,2]]"], None),
        (["construct", "edge", "--kind", "edge_list", "--n", "3", "--edges", "abc"], None),
        (["construct", "edge", "--kind", "edge_list", "--n", "3", "--edges", "[[1]]"], None),
    ],
    ids=["field-fp4", "field-fp-abc", "star-without-k", "exponent-not-integer",
         "exponent-fractional", "vertex-fractional", "edges-without-n",
         "edges-not-json", "edges-not-pairs"],
)
def test_cli_malformed_input_exits_2_without_traceback(tmp_path, argv, doc):
    path = tmp_path / "ideal.json"
    if doc is not None:
        path.write_text(json.dumps(doc))
    argv = [a.replace("{doc}", str(path)) for a in argv]
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-m", "liccilab", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
