"""End-to-end tests of the command-line interface: exit codes, report
shape, determinism, and the error paths for broken inputs."""

import copy
import io
import itertools
import json
import os
import pathlib
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from hopfcyclic.cli import _GROUP_BUILDERS, InputError, _sign_character, main, resolve_extension
from hopfcyclic.crossed import adjoint, crossed_to_json
from hopfcyclic.hopf import FiniteGroup, group_algebra, hopf_to_json
from hopfcyclic.linalg import QQ


def run(argv):
    """Returns (exit code, stdout text, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def run_json(argv):
    rc, out, err = run(argv + ["--format", "json"])
    assert err == ""
    return rc, json.loads(out)


GOLDEN = pathlib.Path(__file__).parent / "data"


def assert_golden(rep, name):
    """The whole report apart from `timings` equals tests/data/<name>.json,
    a report kept from an earlier, hand-checked run of the same command."""
    rep = {k: v for k, v in rep.items() if k != "timings"}
    assert rep == json.loads((GOLDEN / f"{name}.json").read_text())


# ---------------------------------------------------------------------------
# homology subcommands
# ---------------------------------------------------------------------------


def test_hc_adjoint_z2():
    rc, rep = run_json(["hc", "z2", "adjoint", "--max-degree", "5"])
    assert rc == 0
    assert rep["status"] == "pass"
    assert rep["tables"]["hc (lambda)"] == [2, 0, 2, 0, 2, 0]


def test_hh_trivial_z2():
    rc, rep = run_json(["hh", "z2", "trivial", "--max-degree", "3"])
    assert rc == 0
    assert rep["tables"]["hh"] == [1, 0, 0, 0]


def test_hc_both_methods_agree():
    rc, rep = run_json(
        ["hc", "z3", "adjoint", "--max-degree", "3", "--method", "both"]
    )
    assert rc == 0
    assert rep["tables"]["hc (lambda)"] == rep["tables"]["hc (bicomplex)"] == [
        3, 0, 3, 0,
    ]
    assert any(c["name"] == "the two cyclic routes agree" for c in rep["checks"])
    assert_golden(rep, "hc_z3_adjoint_both")


def test_hc_s3_both_methods():
    rc, rep = run_json(
        ["hc", "s3", "adjoint", "--method", "both", "--max-degree", "3"]
    )
    assert rc == 0
    assert rep["tables"]["hc (lambda)"] == rep["tables"]["hc (bicomplex)"] == [
        3, 0, 3, 0,
    ]
    assert_golden(rep, "hc_s3_adjoint_both")


def test_hh_works_over_a_prime_field():
    rc, rep = run_json(["hh", "z2", "adjoint", "--field", "f2", "--max-degree", "2"])
    assert rc == 0
    assert rep["tables"]["hh"] == [2, 2, 2]
    assert_golden(rep, "hh_z2_adjoint_f2")


@pytest.mark.parametrize("argv, table, want, golden", [
    (["hh", "h4", "adjoint"], "hh", [2, 1, 1, 1], "hh_h4_adjoint"),
    (["hc", "h4", "adjoint", "--method", "both"], "hc (lambda)", [2, 1, 2, 1],
     "hc_h4_adjoint_both"),
    (["hc", "h4", "coadjoint", "--method", "both"], "hc (lambda)", [1, 0, 1, 0],
     "hc_h4_coadjoint_both"),
])
def test_sweedler_builtin(argv, table, want, golden):
    """Sweedler's H4 is a builtin: its multi-term coproduct and
    non-involutive antipode reach the reports.  HH with adjoint
    coefficients is the Tor of the bar oracle, and both cyclic routes
    agree."""
    rc, rep = run_json(argv)
    assert rc == 0 and rep["status"] == "pass"
    assert rep["tables"][table] == want
    if "--method" in argv:
        assert rep["tables"]["hc (bicomplex)"] == want
    assert_golden(rep, golden)


def test_modular_pair_module_over_op_cop():
    rc, rep = run_json(["hc", "z3", "modular_pair:g", "--max-degree", "3"])
    assert rc == 0
    assert rep["tables"]["hc (lambda)"] == [1, 0, 1, 0]


# ---------------------------------------------------------------------------
# report shape and determinism
# ---------------------------------------------------------------------------


def test_report_shape():
    rc, rep = run_json(["hc", "z2", "adjoint", "--max-degree", "2"])
    assert rep["schema"] == 2
    assert rep["command"] == ["hc", "z2", "adjoint"]
    assert set(rep["config"]) == {"max_degree", "field", "method"}
    assert rep["config"]["max_degree"] == 2
    assert rep["config"]["field"] == "q"
    assert set(rep["inputs"]) == {"hopf z2", "module adjoint"}
    assert all(len(v) == 64 for v in rep["inputs"].values())
    assert "timings" in rep and "total" in rep["timings"]


def test_reports_are_deterministic_modulo_timings():
    def canonical():
        rc, out, err = run(
            ["burghelea", "z3", "adjoint", "--max-degree", "2", "--format", "json"]
        )
        assert rc == 0
        rep = json.loads(out)
        rep.pop("timings")
        return json.dumps(rep, sort_keys=True)

    assert canonical() == canonical()


def test_table_format_prints_tables():
    rc, out, _ = run(["hc", "z2", "adjoint", "--max-degree", "3"])
    assert rc == 0
    assert "hc (lambda): 2 0 2 0" in out
    assert "status: pass" in out


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------


def test_verify_hopf_builtin():
    rc, rep = run_json(["verify", "hopf", "s3"])
    assert rc == 0
    assert all(c["passed"] for c in rep["checks"])
    assert any("antipode" in c["name"] for c in rep["checks"])


def test_verify_cyclic_passes_for_adjoint():
    rc, rep = run_json(["verify", "cyclic", "z3", "adjoint", "--max-degree", "2"])
    assert rc == 0
    assert all(c["passed"] for c in rep["checks"])


def test_verify_cyclic_pinpoints_nonmodular_coefficients():
    # sign action with coaction by the grouplike g: a crossed module that is
    # not modular, so the cyclic operator has the wrong order.
    doc = json.dumps(
        {
            "dim": 1,
            "action": [[0, 0, 0, "1"], [1, 0, 0, "-1"]],
            "coaction": [[0, 0, 1, "1"]],
        }
    )
    rc, rep = run_json(["verify", "cyclic", "z2", doc, "--max-degree", "2"])
    assert rc == 1
    assert rep["status"] == "fail"
    bad = [c for c in rep["checks"] if not c["passed"]]
    assert bad and all("cyclic operator order" in c["name"] for c in bad)
    assert all(c["witness"] for c in bad)


def test_verify_crossed_document():
    h = group_algebra(FiniteGroup.cyclic(3))
    doc = crossed_to_json(adjoint(h))
    doc["base"] = "z3"
    rc, rep = run_json(["verify", "crossed", json.dumps(doc)])
    assert rc == 0
    assert all(c["passed"] for c in rep["checks"])


def test_verify_crossed_lists_each_check_once():
    # the modularity report already holds the five crossed axioms
    rc, rep = run_json(["verify", "crossed", json.dumps(dict(_MODULE, base="z2"))])
    assert rc == 0
    names = [c["name"] for c in rep["checks"]]
    assert len(names) == len(set(names)) == 6


def test_verify_galois_builtin():
    rc, rep = run_json(["verify", "galois", "kz4_over_kz2"])
    assert rc == 0
    assert rep["tables"]["base dimension"] == [2]
    assert_golden(rep, "verify_galois_kz4_over_kz2")


# ---------------------------------------------------------------------------
# galois / burghelea / qtorus subcommands
# ---------------------------------------------------------------------------


def test_galois_twisted_klein():
    rc, rep = run_json(["galois", "twisted_klein", "--max-degree", "2"])
    assert rc == 0
    assert rep["tables"]["hc (relative)"] == [1, 0, 1]
    assert rep["tables"]["hc (transported)"] == [1, 0, 1]
    assert_golden(rep, "galois_twisted_klein")


def test_galois_s3_over_a3():
    rc, rep = run_json(["galois", "s3_over_a3", "--max-degree", "2"])
    assert rc == 0
    assert rep["tables"]["hc (relative)"] == rep["tables"]["hc (transported)"] == [3, 0, 3]
    assert_golden(rep, "galois_s3_over_a3")


def test_galois_grading_document_matches_builtin():
    doc = json.dumps(
        {"algebra": "z4", "grading": {"group": "z2", "blocks": {"0": [0, 2], "1": [1, 3]}}}
    )
    _, from_doc = run_json(["galois", doc, "--max-degree", "1"])
    _, builtin = run_json(["galois", "kz4_over_kz2", "--max-degree", "1"])
    assert list(from_doc["inputs"].values()) == list(builtin["inputs"].values())
    assert from_doc["tables"] == builtin["tables"]


def test_galois_over_a_base_with_two_generators():
    # kD4 graded by Z/2 over the Klein group {r0, r2, s0, s2}, whose algebra
    # needs two generators; HC counts the 5 conjugacy classes of D4
    doc = json.dumps({"algebra": "d4", "grading": {
        "group": "z2", "blocks": {"0": [0, 2, 4, 6], "1": [1, 3, 5, 7]}}})
    rc, rep = run_json(["galois", doc, "--max-degree", "2"])
    assert rc == 0
    assert rep["tables"]["hc (relative)"] == rep["tables"]["hc (transported)"] == [5, 0, 5]
    assert rep["tables"]["relative dims"] == [6, 12, 24]


def test_galois_crossed_product_document():
    doc = json.dumps(
        {
            "crossed_product": {
                "base": "k",
                "group": "z2",
                "cocycle": {"0,0": [[0, 1]], "0,1": [[0, 1]],
                            "1,0": [[0, 1]], "1,1": [[0, -1]]},
            },
            "name": "k_i",
        }
    )
    rc, rep = run_json(["galois", doc, "--max-degree", "1"])
    assert rc == 0
    assert rep["tables"]["hc (relative)"] == [2, 0]


def test_burghelea_s3():
    rc, rep = run_json(["burghelea", "s3", "adjoint", "--max-degree", "3"])
    assert rc == 0
    assert rep["tables"]["hc (direct)"] == [3, 0, 3, 0]
    assert rep["tables"]["hc (folded)"] == [3, 0, 3, 0]
    assert set(rep["tables"]["per class"]) == {"e", "(12)", "(123)"} or len(
        rep["tables"]["per class"]
    ) == 3
    assert_golden(rep, "burghelea_s3_adjoint")


def test_qtorus_generic_plane():
    rc, rep = run_json(
        ["qtorus", '{"r":2,"a":[[0,1],[-1,0]],"q_order":"infinite"}',
         "--max-degree", "4"]
    )
    assert rc == 0
    assert rep["tables"]["hh totals"] == [1, 2, 1, 0, 0]
    assert rep["tables"]["hc totals"] == [1, 2, 2, 2, 2]
    assert rep["tables"]["lattice"]["rank"] == 0


def test_qtorus_finite_order_box_check():
    rc, rep = run_json(
        ["qtorus", '{"r":2,"a":[[0,1],[-1,0]],"q_order":3}', "--max-degree", "3"]
    )
    assert rc == 0
    assert rep["tables"]["lattice"] == {"basis": [[0, 3], [3, 0]], "index": 9,
                                        "rank": 2}
    assert rep["tables"]["hc totals"] == [None, None, 2, 2]
    assert any("membership agrees" in c["name"] for c in rep["checks"])


# ---------------------------------------------------------------------------
# error paths
# ---------------------------------------------------------------------------


def test_hc_refuses_prime_fields():
    rc, _, err = run(["hc", "z2", "adjoint", "--field", "f5"])
    assert rc == 2
    assert "characteristic zero" in err


def test_nonprime_field_rejected():
    rc, _, err = run(["hh", "z2", "adjoint", "--field", "f4"])
    assert rc == 2
    assert "prime" in err


@pytest.mark.parametrize("spec", ["f1" + "0" * 399 + "7", "f2305843009213693951"],
                         ids=["401-digits", "2^61-1"])
def test_huge_characteristic_refused_before_primality(spec):
    rc, out, err = run(["hh", "z2", "adjoint", "--field", spec])
    assert rc == 2 and out == ""
    assert err == "input error: prime fields need p < 2^31\n"


@pytest.mark.parametrize("spec, message", [
    ("f03", "input error: unknown field 'f03': use q or f<prime>\n"),
    ("f\u0663", "input error: unknown field 'f\u0663': use q or f<prime>\n"),
    ("f" + "7" * 5000, "input error: prime fields need p < 2^31\n"),
], ids=["leading-zero", "arabic-indic-digit", "5000-digits"])
def test_field_spec_is_f_and_ascii_digits(spec, message):
    rc, out, err = run(["hh", "z2", "adjoint", "--field", spec])
    assert rc == 2 and out == ""
    assert err == message


def test_largest_admitted_characteristic():
    rc, rep = run_json(["hh", "z2", "adjoint", "--field", "f2147483647", "--max-degree", "2"])
    assert rc == 0
    assert rep["config"]["field"] == "f2147483647"
    assert rep["tables"]["hh"] == [2, 0, 0]


def test_mutated_hopf_document_fails_with_witness():
    doc = hopf_to_json(group_algebra(FiniteGroup.cyclic(2)))
    doc["antipode"][1][1] = 0
    rc, _, err = run(["verify", "hopf", json.dumps(doc)])
    assert rc == 1
    assert "antipode" in err


def test_mutated_crossed_document_fails():
    h = group_algebra(FiniteGroup.cyclic(2))
    doc = crossed_to_json(adjoint(h))
    doc["base"] = "z2"
    doc["action"][-1][-1] = "7"
    rc, _, err = run(["verify", "crossed", json.dumps(doc)])
    assert rc == 1
    assert "failed" in err


def test_parse_error_reports_location():
    rc, _, err = run(["qtorus", '{"r":2,'])
    assert rc == 2
    assert "line 1" in err and "column" in err


def test_unknown_builtin_is_an_input_error():
    rc, _, err = run(["hh", "z9", "adjoint"])
    assert rc == 2
    assert "no such file or builtin" in err


@pytest.mark.parametrize("doc, message", [
    ('{"dim": -1, "action": [], "coaction": []}', "non-negative integer"),
    ('{"dim": "1", "action": [], "coaction": []}', "non-negative integer"),
    ("[1,2]", "not a JSON object"),
    ('{"dim": 1, "action": [[0, 0, 0, "1/0"]], "coaction": []}',
     "zero denominator"),
    ('{"dim": 1, "action": [[0, 0, 0, "abc"]], "coaction": []}',
     "not a rational literal"),
    ('{"dim": 1, "action": [[0, 0, 0, 0.5]], "coaction": []}',
     "is not a scalar"),
    ('{"dim": 1, "action": [[0, 0]], "coaction": []}', "action entry [0, 0]"),
    ('{"dim": 1, "action": [[0, 0, 7, "1"]], "coaction": []}',
     "action entry [0, 0, 7"),
    ('{"dim": 1, "action": [[0, true, 0, "1"]], "coaction": []}',
     "action entry [0, True"),
    ('{"dim": 1, "action": [], "coaction": [[0, 0, 2, "1"]]}',
     "coaction entry [0, 0, 2"),
    ('{"dim": 1,\n "action": []}',
     "module document <inline> is missing field 'coaction'"),
    ('{"dim": 1, "basis": 5, "action": [[0, 0, 0, "1"], [1, 0, 0, "1"]],'
     ' "coaction": [[0, 0, 0, "1"]]}', "basis must be a list of 1 strings"),
    ('{"dim": 1, "basis": ["a", "b"], "action": [], "coaction": []}',
     "basis must be a list of 1 strings"),
    ('{"dim": 1, "name": 5, "action": [], "coaction": []}',
     "name must be a string, not 5"),
])
def test_malformed_module_document_is_an_input_error(doc, message):
    rc, out, err = run(["hh", "z2", doc, "--max-degree", "2"])
    assert rc == 2 and out == ""
    assert err.startswith("input error: ")
    assert message in err and len(err.splitlines()) == 1


_KZ1 = hopf_to_json(group_algebra(FiniteGroup.cyclic(1)))
_KZ2 = hopf_to_json(group_algebra(FiniteGroup.cyclic(2)))


def _hopf_doc(base: dict, **change) -> str:
    return json.dumps({**base, **change})


def _s3_grading(blocks: str) -> str:
    return f'{{"algebra": "s3", "grading": {{"group": "z2", "blocks": {blocks}}}}}'


@pytest.mark.parametrize("argv, message", [
    (["hh", "z2", '{"dim": 1, "action": [[0, 0, 0, "1/5"]], "coaction": []}',
      "--field", "f5"], "divisible by 5"),
    (["hh", "[1,2]", "adjoint"], "hopf document <inline> is not a JSON object"),
    (["galois", "[1,2]"], "extension document <inline> is not a JSON object"),
    (["galois", '{"algebra": [1], "grading": {"group": "z2", "blocks": {}}}'],
     "algebra document <embedded> is not a JSON object"),
    (["qtorus", "[1]"], "torus document <inline> is not a JSON object"),
    (["galois", '{"algebra": "s3", "grading": [1]}'],
     "'grading' must be a JSON object"),
    (["galois", '{"grading": {"group": "z2", "blocks": {}}}'],
     "is missing field 'algebra'"),
    (["galois", '{"crossed_product": {"base": "k", "group": "z2",'
                ' "cocycle": {"0": [[0, "1"]]}}}'],
     "cocycle key '0' is not 'x,y'"),
    (["galois", '{"crossed_product": {"base": "k", "group": "z2",'
                ' "cocycle": {"0,0": [[5, "1"]]}}}'],
     "cocycle '0,0' entry [5, '1']"),
    (["galois", '{"crossed_product": {"base": "k", "group": "z2",'
                ' "action": {"1": [[3, 0, "1"]]}}}'],
     "action '1' entry [3, 0, '1']"),
    (["galois", '{"crossed_product": {"base": "k", "group": "z2",'
                ' "action": {"1": [[0, 0, "1"]]}}}'],
     "the action has no matrix for group element 0"),
    (["galois", '{"crossed_product": {"base": "k", "group": "z2",'
                ' "cocycle": {"0,2": [[0, "1"]]}}}'],
     "'2' is not a group element index below 2"),
    (["galois", '{"algebra": "s3", "grading": {"group": "z2",'
                ' "blocks": {"0": [0, 1, 2], "1": [3, 4, 9]}}}'],
     "block '1' is not a list of basis indices below 6"),
    (["galois", _s3_grading('{"0": [0, 1, 2]}')], "no block for group element g"),
    (["galois", _s3_grading('{"0": [0, 1, 2], "1": [2, 3, 4, 5]}')],
     "basis index 2 appears in two blocks"),
    (["galois", _s3_grading('{"0": [0, 1, 2], "1": [3, 4]}')],
     "the blocks do not cover the basis"),
    (["verify", "hopf", _hopf_doc(_KZ2, mult=[["a", 0, 0, "1"]] + _KZ2["mult"][1:])],
     "mult entry ['a', 0, 0, '1']"),
    (["verify", "hopf", _hopf_doc(_KZ2, mult=5)], "mult must be a list"),
    (["verify", "hopf", _hopf_doc(_KZ2, unit=None)], "unit must be a list of 2 scalars"),
    (["verify", "hopf", _hopf_doc(_KZ1, mult=[[0, 0]])], "mult entry [0, 0]"),
    (["verify", "hopf", _hopf_doc(_KZ1, mult=[[0, 0, 3, "1"]])],
     "mult entry [0, 0, 3, '1']"),
    (["verify", "hopf", _hopf_doc(_KZ2, dim="a")],
     "dim must be a non-negative integer, not 'a'"),
    (["verify", "hopf", _hopf_doc(_KZ2, unit="1")], "unit must be a list of 2 scalars"),
    (["verify", "hopf", _hopf_doc(_KZ2, basis="ab")], "basis must be a list of 2 strings"),
    (["galois", '{"algebra": {"dim": 2, "mult": [[0, 0, 5, "1"]], "unit": ["1", "0"]},'
                ' "grading": {"group": "z2", "blocks": {"0": [0], "1": [1]}}}'],
     "algebra document: mult entry [0, 0, 5, '1']"),
    (["burghelea", '{"table": 5}', "trivial"],
     "group document <inline>: table must be n lists"),
    (["burghelea", '{"table": [["a"]]}', "trivial"],
     "group document <inline>: table must be n lists"),
    (["burghelea", '{"table": [[0, 1], [1]]}', "trivial"],
     "group document <inline>: table must be n lists"),
    (["burghelea", '{"table": [[true]]}', "trivial"],
     "group document <inline>: table must be n lists"),
    (["burghelea", '{"table": [[0]], "elements": 5}', "trivial"],
     "group document <inline>: elements must be a list of 1 strings"),
    (["burghelea", '{"elements": ["e"]}', "trivial"],
     "group document <inline> is missing field 'table'"),
    (["galois", '{"algebra": "z2", "grading": {"group": {"table": 5},'
                ' "blocks": {"0": [0], "1": [1]}}}'],
     "group document <embedded>: table must be n lists"),
    (["galois", '{"algebra": "z2", "grading": {"group": {"table": [[0, 1], [1, 0]],'
                ' "elements": [1, 2]}, "blocks": {"0": [0], "1": [1]}}}'],
     "group document <embedded>: elements must be a list of 2 strings"),
    (["qtorus", '{"r": 1, "a": [[0.5]]}'], "a must be a 1 x 1 matrix of integers"),
    (["qtorus", '{"r": 2, "a": [[0, 1.7], [-1.7, 0]]}'],
     "a must be a 2 x 2 matrix of integers"),
    (["qtorus", '{"r": true, "a": [[0]]}'], "r must be a positive integer, not True"),
    (["qtorus", '{"r": 2, "a": [[0, 1], [-1, 0]], "q_order": 2.5}'],
     'q_order must be a positive integer, "infinite" or null, not 2.5'),
    (["qtorus", '{"r": 2, "a": [[0, 1], [-1, 0]], "q_order": true}'],
     'q_order must be a positive integer, "infinite" or null, not True'),
    (["verify", "crossed", '{"base": [1], "dim": 1, "action": [], "coaction": []}'],
     "hopf document <embedded> is not a JSON object"),
    (["galois", '{"algebra": "z2", "grading": {"group": "z2",'
                ' "blocks": {"0": [0], "1": [0], "01": [1]}}}'],
     "block keys '1' and '01' name the same group element"),
    (["galois", '{"crossed_product": {"base": "k", "group": "z2", "action":'
                ' {"0": [[0, 0, "1"]], "1": [[0, 0, "1"]], " 1": [[0, 0, "1"]]}}}'],
     "action keys '1' and ' 1' name the same group element"),
    (["galois", '{"crossed_product": {"base": "k", "group": "z2",'
                ' "cocycle": {"1,0": [[0, "1"]], "01,0": [[0, "1"]]}}}'],
     "cocycle keys '1,0' and '01,0' name the same pair of group elements"),
], ids=["denominator-divisible-by-p", "hopf-list", "extension-list",
        "algebra-list", "torus-list", "grading-list", "grading-without-algebra",
        "cocycle-key", "cocycle-index", "action-index", "action-incomplete",
        "cocycle-element", "block-index", "block-missing", "block-overlap",
        "block-cover", "mult-scalar-index", "mult-not-list", "unit-null",
        "mult-short", "mult-index", "dim-string", "unit-string", "basis-string",
        "algebra-mult-index", "group-table-int", "group-table-string",
        "group-table-ragged", "group-table-bool", "group-elements-int",
        "group-table-missing", "grading-group-table-int",
        "grading-group-elements-ints", "torus-entry-float",
        "torus-entry-float-antisymmetric", "torus-rank-bool", "torus-order-float",
        "torus-order-bool", "crossed-base-list", "block-key-twice",
        "action-key-twice", "cocycle-key-twice"])
def test_bad_input_is_an_input_error(argv, message):
    rc, out, err = run(argv + ["--max-degree", "2"])
    assert rc == 2 and out == ""
    assert err.startswith("input error: ")
    assert message in err and len(err.splitlines()) == 1


# A value of the wrong JSON type wherever it is put in the documents below.
_WRONG = st.sampled_from([None, 5, -1, True, 1.5, "ab", [[1]], {"k": 1}])
_GRADING = {"algebra": "z2", "grading": {"group": "z2", "blocks": {"0": [0], "1": [1]}}}


@st.composite
def _faulty_hopf_document(draw):
    doc = copy.deepcopy(_KZ2)
    fault = draw(st.sampled_from(["type", "short", "index", "missing"]))
    if fault == "type":
        key = draw(st.sampled_from(
            ["dim", "basis", "mult", "comult", "unit", "counit", "antipode"]))
        doc[key] = draw(_WRONG.filter(lambda v: v is not None or key != "basis"))
    elif fault == "short":
        key = draw(st.sampled_from(["mult", "comult", "antipode", "unit", "counit"]))
        k = draw(st.integers(0, len(doc[key]) - 1))
        if key in ("unit", "counit"):
            doc[key] = doc[key][:k]
        else:
            doc[key][k] = doc[key][k][:draw(st.integers(0, len(doc[key][k]) - 1))]
    elif fault == "index":
        entries = doc[draw(st.sampled_from(["mult", "comult", "antipode"]))]
        entry = entries[draw(st.integers(0, len(entries) - 1))]
        entry[draw(st.integers(0, len(entry) - 2))] = draw(st.sampled_from([-1, 2, 9]))
    else:
        del doc[draw(st.sampled_from(
            ["dim", "mult", "comult", "unit", "counit", "antipode"]))]
    return ["verify", "hopf", json.dumps(doc)]


@st.composite
def _faulty_grading_document(draw):
    doc = copy.deepcopy(_GRADING)
    grading = doc["grading"]
    blocks = grading["blocks"]
    key = draw(st.sampled_from(["0", "1"]))
    fault = draw(st.sampled_from(["type", "index", "missing", "overlap"]))
    if fault == "type":
        owner, field = draw(st.sampled_from([
            (doc, "algebra"), (doc, "grading"), (grading, "group"),
            (grading, "blocks"), (blocks, key)]))
        owner[field] = draw(_WRONG)
    elif fault == "index":
        blocks[key].append(draw(st.sampled_from([-1, 2, 9])))
    elif fault == "missing":
        owner, field = draw(st.sampled_from([
            (doc, "algebra"), (grading, "group"), (grading, "blocks"), (blocks, key)]))
        del owner[field]
    else:
        blocks[key].append(1 - int(key))
    return ["galois", json.dumps(doc)]


_Z3_TABLE = {"table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]], "elements": ["1", "g", "g2"]}


@st.composite
def _faulty_group_document(draw):
    doc = copy.deepcopy(_Z3_TABLE)
    fault = draw(st.sampled_from(["type", "row", "entry", "label", "missing"]))
    if fault == "type":
        doc[draw(st.sampled_from(["table", "elements"]))] = draw(
            _WRONG.filter(lambda v: v is not None))
    elif fault == "row":
        doc["table"][draw(st.integers(0, 2))] = draw(_WRONG)
    elif fault == "entry":
        doc["table"][draw(st.integers(0, 2))][draw(st.integers(0, 2))] = draw(_WRONG)
    elif fault == "label":
        doc["elements"][draw(st.integers(0, 2))] = draw(
            _WRONG.filter(lambda v: not isinstance(v, str)))
    else:
        del doc["table"]
    if draw(st.booleans()):
        return ["burghelea", json.dumps(doc), "trivial"]
    grading = {"algebra": "z3", "grading": {"group": doc, "blocks": {"0": [0, 1, 2]}}}
    return ["galois", json.dumps(grading)]


_MODULE = crossed_to_json(adjoint(group_algebra(FiniteGroup.cyclic(2))))


@st.composite
def _faulty_module_document(draw):
    doc = copy.deepcopy(_MODULE)
    fault = draw(st.sampled_from(["type", "short", "index", "missing"]))
    if fault == "type":
        key = draw(st.sampled_from(["dim", "basis", "name", "action", "coaction"]))
        doc[key] = draw(_WRONG.filter(lambda v: not (
            key == "basis" and v is None or key == "name" and isinstance(v, str))))
    elif fault == "short":
        entries = doc[draw(st.sampled_from(["action", "coaction"]))]
        k = draw(st.integers(0, len(entries) - 1))
        entries[k] = entries[k][:draw(st.integers(0, 3))]
    elif fault == "index":
        entries = doc[draw(st.sampled_from(["action", "coaction"]))]
        entry = entries[draw(st.integers(0, len(entries) - 1))]
        entry[draw(st.integers(0, 2))] = draw(st.sampled_from([-1, 2, 9]))
    else:
        del doc[draw(st.sampled_from(["dim", "action", "coaction"]))]
    return ["hh", "z2", json.dumps(doc)]


_CROSSED_PRODUCT = {
    "crossed_product": {
        "base": "k",
        "group": "z2",
        "action": {"0": [[0, 0, "1"]], "1": [[0, 0, "1"]]},
        "cocycle": {"0,0": [[0, "1"]], "0,1": [[0, "1"]],
                    "1,0": [[0, "1"]], "1,1": [[0, "-1"]]},
    },
    "name": "k_i",
}


@st.composite
def _faulty_crossed_product_document(draw):
    doc = copy.deepcopy(_CROSSED_PRODUCT)
    spec = doc["crossed_product"]
    table = draw(st.sampled_from(["action", "cocycle"]))
    key = draw(st.sampled_from(sorted(spec[table])))
    fault = draw(st.sampled_from(["type", "index", "key", "missing"]))
    if fault == "type":
        owner, field = draw(st.sampled_from([
            (doc, "crossed_product"), (doc, "name"), (spec, "base"), (spec, "group"),
            (spec, table), (spec[table], key)]))
        owner[field] = draw(
            _WRONG.filter(lambda v: field != "name" or not isinstance(v, str)))
    elif fault == "index":
        entry = spec[table][key][0]
        entry[draw(st.integers(0, len(entry) - 2))] = draw(st.sampled_from([-1, 1, 9]))
    elif fault == "key":
        bad = (["2", "x", "-1", "0,1"] if table == "action"
               else ["2,0", "0", "0,x", "1,1,1"])
        spec[table][draw(st.sampled_from(bad))] = spec[table][key]
    else:
        owner, field = draw(st.sampled_from([
            (doc, "crossed_product"), (spec, "base"), (spec, "group"),
            (spec["action"], key if table == "action" else "1")]))
        del owner[field]
    return ["galois", json.dumps(doc)]


_TORUS = {"r": 2, "a": [[0, 1], [-1, 0]], "q_order": 3}


@st.composite
def _faulty_torus_document(draw):
    doc = copy.deepcopy(_TORUS)
    fault = draw(st.sampled_from(["type", "row", "entry", "missing"]))
    if fault == "type":
        key = draw(st.sampled_from(["r", "a", "q_order"]))
        doc[key] = draw(_WRONG.filter(lambda v: key != "q_order" or v not in (None, 5)))
    elif fault == "row":
        doc["a"][draw(st.integers(0, 1))] = draw(_WRONG)
    elif fault == "entry":
        doc["a"][draw(st.integers(0, 1))][draw(st.integers(0, 1))] = draw(
            _WRONG.filter(lambda v: not isinstance(v, int) or isinstance(v, bool)))
    else:
        del doc[draw(st.sampled_from(["r", "a"]))]
    return ["qtorus", json.dumps(doc)]


@given(argv=st.one_of(_faulty_hopf_document(), _faulty_grading_document(),
                      _faulty_group_document(), _faulty_module_document(),
                      _faulty_crossed_product_document(), _faulty_torus_document()))
@settings(max_examples=150, deadline=None)
def test_document_faults_are_input_errors(argv):
    rc, out, err = run(argv + ["--max-degree", "1"])
    assert rc == 2 and out == ""
    assert err.startswith("input error: ") and len(err.splitlines()) == 1


def test_sign_character_resolution():
    rc, rep = run_json(["hh", "z2", "sign", "--max-degree", "2"])
    assert rc == 0
    assert rep["tables"]["hh"] == [0, 0, 0]

    rc, _, err = run(["hh", "z3", "sign"])
    assert rc == 2 and "no sign character" in err

    rc, _, err = run(["hh", "z2xz2", "sign"])
    assert rc == 2 and "ambiguous" in err


def _brute_force_sign_characters(g):
    """Every nontrivial {1,-1}-valued character of g, found by trying all
    2^(|G|-1) sign patterns: the oracle for small groups."""
    rest = [x for x in range(g.order) if x != g.identity]
    found = []
    for bits in itertools.product((1, -1), repeat=g.order - 1):
        char = {g.identity: 1, **dict(zip(rest, bits))}
        if -1 in bits and all(char[g.mul(a, b)] == char[a] * char[b]
                              for a in range(g.order) for b in range(g.order)):
            found.append(char)
    return found


@pytest.mark.parametrize("name", sorted(_GROUP_BUILDERS))
def test_sign_character_matches_the_brute_force(name):
    g = _GROUP_BUILDERS[name]()
    assert g.order <= 8
    found = _brute_force_sign_characters(g)
    if len(found) == 1:
        assert _sign_character(g, QQ) == found[0]
    else:
        with pytest.raises(InputError, match="ambiguous" if found else "no sign character"):
            _sign_character(g, QQ)


def test_sign_character_of_s4_is_the_parity():
    """S4 has 2^23 sign patterns; the squares rule takes |G|^2 products."""
    perms = sorted(itertools.permutations(range(4)))  # FiniteGroup.symmetric's order
    g = FiniteGroup.symmetric(4)
    start = time.perf_counter()
    char = _sign_character(g, QQ)
    assert time.perf_counter() - start < 0.1
    parity = [(-1) ** sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4))
              for p in perms]
    assert char == dict(enumerate(parity))
    assert sum(c == 1 for c in char.values()) == 12  # A4


def test_trivial_module_needs_an_involutive_antipode():
    """The counit action and the unit coaction are crossed exactly when
    S^2 = id: refused over H4 as an input error, unchanged over kS3."""
    rc, out, err = run(["hh", "h4", "trivial", "--max-degree", "2"])
    assert rc == 2 and out == ""
    assert err.startswith("input error: ") and len(err.splitlines()) == 1
    assert "S^2 = id" in err
    rc, rep = run_json(["hh", "s3", "trivial", "--field", "f5"])
    assert rc == 0 and rep["status"] == "pass"
    assert rep["tables"] == {"hh": [1, 0, 0, 0]}


def test_bad_max_degree_rejected():
    rc, _, err = run(["hc", "z2", "adjoint", "--max-degree", "0"])
    assert rc == 2
    assert "max-degree" in err


def test_nonstrong_grading_fails_as_math_error(tmp_path):
    # upper-triangular 2x2 matrices graded by Z/2 with the strictly upper
    # part in odd degree: a grading, but not strong.
    doc = {
        "algebra": {
            "basis": ["e11", "e22", "e12"],
            "mult": [[0, 0, 0, "1"], [1, 1, 1, "1"], [0, 2, 2, "1"],
                     [2, 1, 2, "1"]],
            "unit": ["1", "1", "0"],
        },
        "grading": {"group": "z2", "blocks": {"0": [0, 1], "1": [2]}},
    }
    path = tmp_path / "ut2.json"
    path.write_text(json.dumps(doc))
    rc, _, err = run(["galois", str(path)])
    assert rc == 1
    assert "not strong" in err


def test_bare_algebra_document_from_a_file(tmp_path):
    # the upper-triangular algebra of the test above, referenced by its path
    # from the extension document, fails the same way as when given inline
    algebra = {
        "basis": ["e11", "e22", "e12"],
        "mult": [[0, 0, 0, "1"], [1, 1, 1, "1"], [0, 2, 2, "1"], [2, 1, 2, "1"]],
        "unit": ["1", "1", "0"],
    }
    path = tmp_path / "ut2.json"
    path.write_text(json.dumps(algebra))
    grading = {"group": "z2", "blocks": {"0": [0, 1], "1": [2]}}
    for ref in (str(path), algebra):
        rc, _, err = run(["galois", json.dumps({"algebra": ref, "grading": grading})])
        assert rc == 1
        assert "not strong" in err


def _crossed_product_z2(**spec) -> str:
    return json.dumps({"crossed_product": {"base": "k", "group": "z2", **spec}})


def test_crossed_product_entries_add_up():
    # repeated indices add, as in every other entries field: the action of
    # g with 1 + 1 is the non-unital 2, not the identity
    for triples in ([[0, 0, "1"], [0, 0, "1"]], [[0, 0, "2"]]):
        rc, _, err = run(["galois", _crossed_product_z2(
            action={"0": [[0, 0, "1"]], "1": triples})])
        assert rc == 1
        assert "multiplication is associative" in err
    summed, _ = resolve_extension(
        _crossed_product_z2(cocycle={"1,1": [[0, "1"], [0, "1"]]}), QQ)
    two, _ = resolve_extension(_crossed_product_z2(cocycle={"1,1": [[0, "2"]]}), QQ)
    one, _ = resolve_extension(_crossed_product_z2(cocycle={"1,1": [[0, "1"]]}), QQ)
    assert summed.mult == two.mult != one.mult


def test_certification_survives_optimized_python():
    """Every check is an explicit comparison, none an assert, so `python -O`
    fails and passes exactly the same checks."""
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(__file__).parent.parent / "src")}

    def run_optimized(argv):
        proc = subprocess.run([sys.executable, "-O", "-m", "hopfcyclic.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=300)
        return proc.returncode, proc.stdout

    doc = hopf_to_json(group_algebra(FiniteGroup.cyclic(2)))
    doc["antipode"][1][1] = 0
    assert run_optimized(["verify", "hopf", json.dumps(doc)])[0] == 1
    nonmodular = json.dumps({"dim": 1, "action": [[0, 0, 0, "1"], [1, 0, 0, "-1"]],
                             "coaction": [[0, 0, 1, "1"]]})
    argv = ["verify", "cyclic", "z2", nonmodular, "--max-degree", "2", "--format", "json"]
    rc, out = run_optimized(argv)
    _, plain = run_json(argv[:-2])
    assert rc == 1
    assert json.loads(out)["checks"] == plain["checks"]
    assert [c for c in plain["checks"] if not c["passed"]]
    assert run_optimized(["hh", "z3", "adjoint", "--max-degree", "2"])[0] == 0


def test_package_runs_as_a_module():
    """`python -m hopfcyclic` is the same command line as the script."""
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(__file__).parent.parent / "src")}
    argv = ["hh", "z2", "adjoint", "--max-degree", "1", "--format", "json"]
    proc = subprocess.run([sys.executable, "-m", "hopfcyclic", *argv],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["status"] == "pass"
