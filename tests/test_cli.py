"""Command-line interface: exit codes, JSON reports, round trips, errors."""

import json
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cwkoszul import bigraded, cli, linalg
from cwkoszul.catalog import catalog
from cwkoszul.cli import COMMANDS, main
from cwkoszul.cw import ComplexError, complex_from_dict
from cwkoszul.layered import GraphError

from helpers import (
    cycle_product,
    dangling_square_complex,
    double_diagonal_d_down,
    flip_d_up_sign,
    segment_plus_point,
    tampered_build_layer,
    two_disjoint_triangles,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    names = out.strip().split("\n")
    assert "example_singular" in names and "rp2_six" in names


@pytest.mark.parametrize("name", ["simplex01", "simplex0002", "sphere+2", "sphere\u0663"])
def test_catalog_aliases_exit_two(capsys, name):
    # int() reads each suffix as a listed dimension; the complex would then
    # carry the alias as its name, and the report and sha256 would change
    for argv in (("validate", f"catalog:{name}"), ("catalog", "emit", name)):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out, argv
        assert "unknown catalog name" in err and "Traceback" not in err


def test_catalog_emit_round_trip(capsys):
    code, out, _ = run(capsys, "catalog", "emit", "example_singular")
    assert code == 0
    assert complex_from_dict(json.loads(out)) == catalog("example_singular")


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", "catalog:simplex3")
    assert code == 0
    assert "no violations" in out


def test_validate_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dangling_square_complex().to_dict()))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 2
    assert "boundary of boundary" in out and "'f'" in out


def test_validate_schema_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "b", "cells": [
        {"id": "v", "dim": 0, "boundary": {}},
        {"id": "w", "dim": 0, "boundary": {}},
        {"id": "e", "dim": 1, "boundary": {"v": 0, "w": 1}},
    ]}))
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "+1 or -1" in err


@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_impossible_dimension_exits_two_at_once(tmp_path, capsys, flags):
    # one cell cannot fill the dimensions 0..3000000; no report is listed
    path = tmp_path / "huge.json"
    path.write_text('{"cells": [{"id": "a", "dim": 3000000, "boundary": {}}]}')
    start = time.perf_counter()
    code, out, err = run(capsys, "validate", str(path), *flags)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert "'a' has dimension 3000000" in err and err.count("\n") == 1


_EDGE_VERTICES = [{"id": "v", "dim": 0}, {"id": "w", "dim": 0}]


@pytest.mark.parametrize("command", ["validate", "cohomology"])
@pytest.mark.parametrize("edge, message", [
    ({"id": "e", "dim": True, "boundary": {"v": -1, "w": 1}}, "dim must be an integer >= 0"),
    ({"id": "e", "dim": 1, "boundary": {"v": -1, "w": True}}, "must be +1 or -1, got True"),
])
def test_json_booleans_are_not_integers(tmp_path, capsys, command, edge, message):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({"name": "b", "cells": _EDGE_VERTICES + [edge]}))
    code, out, err = run(capsys, command, str(path))
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize("argv", [
    ["validate"], ["koszul", "--poset", "bar"], ["koszul", "--poset", "hat", "--field", "q"],
], ids=["validate", "koszul-bar", "koszul-hat"])
def test_cell_bounded_by_a_three_torus_exits_two(tmp_path, capsys, argv):
    # an input error, not the internal fault of a valid complex whose cell
    # fails Koszulity: the closed cell W is no ball
    path = tmp_path / "w.json"
    path.write_text(json.dumps(cycle_product(3, 3, 3, filled=True).to_dict()))
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 2
    assert "boundary of 'W' has H_1 = Z^3, H_2 = Z^3" in out + err
    assert "internal error" not in err


def test_graph_boolean_rank_exits_two(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({
        "name": "b",
        "vertices": [{"id": "a", "rank": True}, {"id": "x", "rank": 2}],
        "covers": [["x", "a"]],
    }))
    code, out, err = run(capsys, "koszul-graph", str(path), "--field", "q")
    assert code == 2 and out == ""
    assert "rank must be an integer >= 1" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "cohomology", "nope.json", "--field", "q")
    assert code == 2
    assert "cannot read" in err


@pytest.mark.parametrize("command", ["validate", "koszul", "koszul-graph"])
@pytest.mark.parametrize("content", [b'{"name": "x", "cells": [', b"\xff\xfe{}"])
def test_invalid_json_file(tmp_path, capsys, command, content):
    path = tmp_path / "broken.json"
    path.write_bytes(content)
    code, out, err = run(capsys, command, str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {str(path)!r} is not valid UTF-8 JSON: ")


DEEP_ARRAY = b"[" * 100_000 + b"]" * 100_000
LONG_INT = b'{"name": "x", "cells": [{"id": "v", "dim": ' + b"9" * 5_000 + b', "boundary": {}}]}'


@pytest.mark.parametrize("command", ["validate", "koszul-graph"])
@pytest.mark.parametrize("content", [DEEP_ARRAY, LONG_INT], ids=["deep-array", "long-int"])
def test_unparsable_json_exits_two_without_traceback(tmp_path, capsys, command, content):
    # the parser's own limits: nesting depth (RecursionError) and the
    # int digit limit (ValueError)
    path = tmp_path / "huge.json"
    path.write_bytes(content)
    code, out, err = run(capsys, command, str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {str(path)!r} is not valid UTF-8 JSON: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["validate", "koszul-graph"])
def test_missing_file_every_reader(capsys, command):
    code, _, err = run(capsys, command, "nope.json")
    assert code == 2
    assert err.startswith("error: cannot read 'nope.json': ")


def test_koszul_exit_status():
    assert main(["koszul", "catalog:example_singular", "--poset", "hat",
                 "--field", "q", "--exit-status"]) == 1
    assert main(["koszul", "catalog:rp2_six", "--poset", "hat",
                 "--field", "f2", "--exit-status"]) == 1
    assert main(["koszul", "catalog:rp2_six", "--poset", "hat",
                 "--field", "q", "--exit-status"]) == 0
    assert main(["koszul", "catalog:example_singular", "--poset", "bar",
                 "--field", "f3", "--exit-status"]) == 0


def test_koszul_without_exit_status_returns_zero():
    assert main(["koszul", "catalog:example_singular", "--poset", "hat"]) == 0


def test_parser_shared_between_calls_keeps_no_option(capsys):
    # the argparse tree is built once per process; options of one call must
    # not reach the next, whichever position they were given in
    for json_first in (["--json", "koszul"], ["koszul", "--json"]):
        argv = json_first + ["catalog:rp2_six", "--poset", "hat", "--field", "f2", "--exit-status"]
        code, out, _ = run(capsys, *argv)
        assert code == 1 and json.loads(out)["command"] == "koszul"
        code, out, _ = run(capsys, "cohomology", "catalog:sphere2", "--field", "f2")
        assert code == 0 and out.startswith("cellular cohomology of 'sphere2' over F2\n")
        code, out, _ = run(capsys, "koszul", "catalog:rp2_six", "--poset", "hat", "--field", "f2")
        assert code == 0 and out.startswith("dual algebra of the hat poset")


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_every_command_renders_its_help(capsys, name):
    # argparse formats a subcommand's help only when asked for it
    with pytest.raises(SystemExit) as exc:
        main([name, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: cwkoszul {name} ")


COMPLEX_COMMANDS = [
    ("poset", "--hat"),
    ("cohomology", "--field", "f2"),
    ("relative", "--cell", "01"),
    ("hx", "--integral"),
    ("koszul", "--poset", "hat"),
    ("rdims",),
    ("ann-check", "--vertex", "012", "--n", "1"),
    ("phi-check", "--field", "f3"),
]


def test_complex_commands_call_load_complex_once(monkeypatch, capsys):
    # through the module attribute, so a wrapper set on it (the benchmark
    # tracer's `cli.load` span) sees every read
    assert {argv[0] for argv in COMPLEX_COMMANDS} == {
        name for name, cmd in COMMANDS.items() if cmd.reads == "complex"
    }
    calls = []
    load_complex = cli.load_complex
    monkeypatch.setattr("cwkoszul.cli.load_complex",
                        lambda spec: calls.append(spec) or load_complex(spec))
    for name, *options in COMPLEX_COMMANDS:
        calls.clear()
        code, _, err = run(capsys, name, "catalog:simplex2", *options)
        assert (code, err) == (0, ""), name
        assert calls == ["catalog:simplex2"], name


def test_koszul_json_witness(capsys):
    code, out, _ = run(capsys, "--json", "koszul", "catalog:example_singular",
                       "--poset", "hat", "--field", "f2")
    report = json.loads(out)
    assert report["result"]["koszul"] is False
    w = report["result"]["witness"]
    assert w["vertex"] == "1bar" and (w["n"], w["k"]) == (2, 1)
    assert [2, 1, 1] in report["result"]["obstructions"]["bigraded"]
    assert ["C4", 2, 1] in report["result"]["obstructions"]["relative"]


# the full witness and obstructions of `koszul --poset hat --json`, as the
# reports printed them when every head-block word was listed up front
PINNED_HAT_REPORTS = {
    ("example_singular", "f2"): (
        {"vertex": "1bar", "n": 2, "k": 1, "cocycle": [
            {"word": "B5>C4", "coeff": "1"},
            {"word": "B6>C6", "coeff": "1"},
            {"word": "B7>C8", "coeff": "1"},
        ]},
        {"bigraded": [[2, 1, 1]], "cohomology": [], "relative": [["C4", 2, 1], ["D3", 2, 1]]},
    ),
    ("example_singular", "q"): (
        {"vertex": "1bar", "n": 2, "k": 1, "cocycle": [
            {"word": "B5>C4", "coeff": "1"},
            {"word": "B6>C6", "coeff": "-1"},
            {"word": "B7>C8", "coeff": "1"},
        ]},
        {"bigraded": [[2, 1, 1]], "cohomology": [], "relative": [["C4", 2, 1], ["D3", 2, 1]]},
    ),
    ("rp2_six", "f2"): (
        {"vertex": "1bar", "n": 1, "k": 0, "cocycle": [
            {"word": "23>3", "coeff": "1"},
            {"word": "25>5", "coeff": "1"},
            {"word": "36>6", "coeff": "1"},
            {"word": "45>5", "coeff": "1"},
            {"word": "46>6", "coeff": "1"},
        ]},
        {"bigraded": [[1, 0, 1]], "cohomology": [[1, 1]], "relative": []},
    ),
}


@pytest.mark.parametrize("name, field", sorted(PINNED_HAT_REPORTS))
def test_koszul_hat_json_witness_is_pinned(capsys, name, field):
    code, out, _ = run(capsys, "--json", "koszul", f"catalog:{name}",
                       "--poset", "hat", "--field", field)
    result = json.loads(out)["result"]
    witness, obstructions = PINNED_HAT_REPORTS[(name, field)]
    assert code == 0 and result["koszul"] is False
    assert result["witness"] == witness
    assert result["obstructions"] == obstructions


def test_koszul_decision_builds_no_word_labels(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("a KOSZUL decision built word labels")

    monkeypatch.setattr("cwkoszul.dualalg.HeadBlocks.labels", refuse)
    code, out, _ = run(capsys, "koszul", "catalog:sphere3", "--poset", "hat",
                       "--field", "q", "--check-remark39")
    assert code == 0 and "verdict: KOSZUL over Q" in out


def test_koszul_hat_makes_no_relative_cohomology_call(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr("cwkoszul.bigraded.relative_cohomology", lambda *a: calls.append(a))
    for name in ("example_singular", "sphere2", "rp2_six"):
        code, _, _ = run(capsys, "koszul", f"catalog:{name}", "--poset", "hat", "--field", "f3")
        assert code == 0, name
    assert calls == []


def test_koszul_hat_square_check_exits_four_before_relative_counts(monkeypatch, capsys):
    # the relative groups are read off a layer only after its checks passed
    read = []
    relative_dims = bigraded._relative_dims
    monkeypatch.setattr("cwkoszul.bigraded.build_layer", tampered_build_layer(0, flip_d_up_sign))
    monkeypatch.setattr("cwkoszul.bigraded._relative_dims",
                        lambda layer, p: read.append(layer.k) or relative_dims(layer, p))
    code, out, err = run(capsys, "koszul", "catalog:sphere2", "--poset", "hat", "--field", "q")
    assert code == 4
    assert out == ""
    assert "Traceback" in err and "does not commute" in err
    assert read == []


def test_koszul_text_names_the_classical_reason(capsys):
    # rp2_six over F2 fails through H^1(X; F2) alone, with no relative witness
    _, out, _ = run(capsys, "koszul", "catalog:rp2_six", "--poset", "hat", "--field", "f2")
    assert out.splitlines()[-2:] == ["obstructions (n,k,dim): (1,0,1)", "cohomology (n,dim): (1,1)"]
    _, out, _ = run(capsys, "koszul", "catalog:example_singular", "--poset", "hat", "--field", "q")
    assert out.splitlines()[-2:] == [
        "obstructions (n,k,dim): (2,1,1)",
        "relative witnesses (cell,n,dim): (C4,2,1), (D3,2,1)",
    ]


def test_koszul_check_remark_flag(capsys):
    code, out, _ = run(capsys, "koszul", "catalog:simplex2", "--poset", "hat",
                       "--field", "q", "--check-remark39", "--json")
    report = json.loads(out)
    assert report["result"]["koszul"] is True
    assert report["result"]["whole_graph_criterion"] is True
    assert report["result"]["agrees"] is True


def test_json_output_deterministic(capsys):
    _, out1, _ = run(capsys, "koszul", "catalog:rp2_six", "--poset", "hat",
                     "--field", "f2", "--json")
    _, out2, _ = run(capsys, "koszul", "catalog:rp2_six", "--poset", "hat",
                     "--field", "f2", "--json")
    assert out1 == out2


# report values: text with any code point but lone surrogates, so non-ASCII
# and control characters, big ints, and empty or nested containers
REPORT_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@given(REPORT_VALUES)
@example({"": [], "\u00e9\x00\u2028": {}, "b": [None, True, False, 0, -(10**30), "\U0001f600\t\""]})
@settings(max_examples=300, deadline=None)
def test_report_writer_equals_json_dumps(obj):
    assert cli._canonical_json(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("obj", [1.5, (1,), {1: 0}, {"a": [set()]}], ids=repr)
def test_report_writer_refuses_other_types(obj):
    with pytest.raises(TypeError):
        cli._canonical_json(obj)


def test_hypothesis_failures_exit_three(tmp_path, capsys):
    pure = tmp_path / "segment_plus_point.json"
    pure.write_text(json.dumps(segment_plus_point().to_dict()))
    code, _, err = run(capsys, "koszul", str(pure), "--poset", "hat", "--field", "q")
    assert code == 3
    assert "not pure" in err

    split = tmp_path / "two_triangles.json"
    split.write_text(json.dumps(two_disjoint_triangles().to_dict()))
    code, _, err = run(capsys, "koszul", str(split), "--poset", "hat", "--field", "q")
    assert code == 3
    assert "uniform" in err


@pytest.mark.parametrize("field", ["q", "f2"])
def test_koszul_hat_accepts_two_points(tmp_path, capsys, field):
    # points share the empty face, so two of them are connected by
    # codimension-1 faces: their hat poset is a rank-2 Boolean lattice
    path = tmp_path / "two_points.json"
    cells = [{"id": c, "dim": 0, "boundary": {}} for c in "ab"]
    path.write_text(json.dumps({"name": "tp", "cells": cells}))
    assert run(capsys, "validate", str(path))[0] == 0
    code, out, err = run(capsys, "--json", "koszul", str(path), "--poset", "hat",
                         "--field", field, "--exit-status")
    assert code == 0 and err == ""
    result = json.loads(out)["result"]
    assert result["koszul"] is True and result["witness"] is None
    assert result["obstructions"] == {"bigraded": [], "cohomology": [], "relative": []}
    code, out, _ = run(capsys, "koszul", str(path), "--poset", "hat", "--field", field,
                       "--exit-status")
    assert code == 0 and "verdict: KOSZUL over" in out


def test_koszul_graph_round_trip(tmp_path, capsys):
    _, out, _ = run(capsys, "poset", "catalog:example_singular", "--hat", "--json")
    path = tmp_path / "g.json"
    path.write_text(out)
    code, out2, _ = run(capsys, "koszul-graph", str(path), "--field", "q",
                        "--exit-status", "--json")
    assert code == 1
    report = json.loads(out2)
    assert report["result"]["witness"]["vertex"] == "1bar"


def test_koszul_graph_nonuniform_exit_three(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({
        "name": "nu",
        "vertices": [{"id": "x", "rank": 3}, {"id": "b", "rank": 2},
                     {"id": "c", "rank": 2}, {"id": "p", "rank": 1},
                     {"id": "q", "rank": 1}],
        "covers": [["x", "b"], ["x", "c"], ["b", "p"], ["c", "q"]],
    }))
    code, _, err = run(capsys, "koszul-graph", str(path), "--field", "q")
    assert code == 3
    assert "uniform" in err


def test_koszul_graph_check_remark(tmp_path, capsys):
    _, out, _ = run(capsys, "poset", "catalog:simplex2", "--hat", "--json")
    path = tmp_path / "g.json"
    path.write_text(out)
    code, out, err = run(capsys, "koszul-graph", str(path), "--check-remark39")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "dual algebra of graph 'simplex2^'",
        "verdict: KOSZUL over Q",
        "checked vertices: 5 (5 passed)",
        "whole-graph criterion: True (agrees: True)",
    ]
    code, out, _ = run(capsys, "koszul-graph", str(path), "--field", "f2",
                       "--check-remark39", "--json")
    report = json.loads(out)
    assert code == 0 and report["command"] == "koszul-graph"
    assert report["params"] == {"field": "F2"}
    result = report["result"]
    assert result["koszul"] is True and result["witness"] is None
    assert result["whole_graph_criterion"] is True and result["agrees"] is True
    assert [c["vertex"] for c in result["checked"]] == ["01", "02", "12", "012", "1bar"]


def test_cohomology_command(capsys):
    code, out, _ = run(capsys, "cohomology", "catalog:example_singular",
                       "--field", "q", "--json")
    report = json.loads(out)
    assert report["result"]["dims"] == [1, 0, 0, 0]


def test_relative_command(capsys):
    code, out, _ = run(capsys, "relative", "catalog:example_singular",
                       "--cell", "C4", "--field", "f3", "--json")
    report = json.loads(out)
    assert report["result"]["dims"][2] >= 1
    code, _, err = run(capsys, "relative", "catalog:example_singular",
                       "--cell", "C99", "--field", "q")
    assert code == 2


def test_hx_integral_table(capsys):
    code, out, _ = run(capsys, "hx", "catalog:simplex3", "--integral")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip().startswith(("0", "1", "2", "3"))]
    assert len(lines) == 4
    assert lines[-1].split() == ["3", "0", "0", "0", "Z"]


def test_hx_field_json(capsys):
    code, out, _ = run(capsys, "hx", "catalog:rp2_six", "--field", "f2", "--json")
    report = json.loads(out)
    assert report["result"]["entries"]["1,0"] == 1


def test_rdims_command(capsys):
    code, out, _ = run(capsys, "rdims", "catalog:simplex1", "--poset", "bar",
                       "--field", "q", "--json")
    report = json.loads(out)
    assert report["result"]["dims"] == [3, 1, 0]


def test_ann_check_command(capsys):
    code, out, _ = run(capsys, "ann-check", "catalog:example_singular",
                       "--poset", "hat", "--vertex", "1bar", "--n", "1",
                       "--field", "q", "--json")
    assert code == 0
    assert json.loads(out)["result"]["holds"] is False
    code, _, err = run(capsys, "ann-check", "catalog:simplex1", "--poset", "bar",
                       "--vertex", "zz", "--n", "0", "--field", "q")
    assert code == 2
    code, _, err = run(capsys, "ann-check", "catalog:simplex1", "--poset", "bar",
                       "--vertex", "01", "--n", "7", "--field", "q")
    assert code == 2


def test_phi_check_command(capsys):
    code, out, _ = run(capsys, "phi-check", "catalog:sphere2", "--field", "f2", "--json")
    report = json.loads(out)
    assert report["result"]["bijective"] is True


def test_column_requests_present_no_pair_space_quotient(monkeypatch, capsys):
    # pair spaces are divided by their vertical images only through echelon
    # forms; the only presented quotients left are head blocks, on a range
    labels = []
    quotient = linalg.quotient

    def spy(ambient_labels, relations, ring):
        labels.append(ambient_labels)
        return quotient(ambient_labels, relations, ring)

    for name, mod in list(sys.modules.items()):
        if name.startswith("cwkoszul.") and getattr(mod, "quotient", None) is quotient:
            monkeypatch.setattr(mod, "quotient", spy)
    for argv in (("hx", "--field", "f2"), ("hx", "--integral"),
                 ("koszul", "--poset", "hat", "--field", "q"), ("phi-check", "--field", "f3")):
        for name in ("sphere2", "example_singular"):
            labels.clear()
            code, _, _ = run(capsys, argv[0], f"catalog:{name}", *argv[1:])
            assert code == 0, (argv, name)
            assert all(isinstance(ls, range) for ls in labels), (argv, name)
            assert bool(labels) == (argv[0] != "hx"), (argv, name)


def test_field_parse_error(capsys):
    code, _, err = run(capsys, "cohomology", "catalog:point", "--field", "f4")
    assert code == 2
    assert "field" in err


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


def test_internal_assertion_exits_four(monkeypatch, capsys):
    # a failed internal check must not read as NOT KOSZUL (exit 1)
    monkeypatch.setattr("cwkoszul.bigraded.koszul_obstructions",
                        _raise(AssertionError("routes disagree")))
    code, out, err = run(capsys, "koszul", "catalog:simplex3", "--poset", "hat",
                         "--field", "q", "--exit-status")
    assert code == 4
    assert out == ""
    assert "Traceback" in err and "routes disagree" in err


def test_witness_bidegree_off_the_obstructions_exits_four(monkeypatch, capsys):
    # the routes must agree on where the obstruction sits, not only on whether it exists
    real = bigraded.koszul_obstructions

    def shifted(x, field):
        report = real(x, field)
        return report._replace(bigraded=[(n + 1, k, h) for n, k, h in report.bigraded])

    monkeypatch.setattr("cwkoszul.bigraded.koszul_obstructions", shifted)
    code, out, err = run(capsys, "koszul", "catalog:rp2_six", "--poset", "hat",
                         "--field", "f2", "--exit-status")
    assert code == 4
    assert out == ""
    assert "Traceback" in err and "witness bidegree (1,0)" in err


def test_internal_value_error_exits_four(monkeypatch, capsys):
    # nor may a bare ValueError from an internal check read as an input error (exit 2)
    monkeypatch.setattr("cwkoszul.bigraded.koszul_obstructions",
                        _raise(ValueError("composition of differentials 0 and 1 is nonzero")))
    code, out, err = run(capsys, "koszul", "catalog:simplex3", "--poset", "hat",
                         "--field", "f2", "--exit-status")
    assert code == 4
    assert out == ""
    assert "Traceback" in err and "composition" in err


@pytest.mark.parametrize("target, exc, argv", [
    ("cwkoszul.dualalg.HeadBlocks.block", GraphError("the minimum carries no generator"),
     ("koszul", "catalog:simplex3", "--poset", "hat", "--exit-status")),
    ("cwkoszul.dualalg.sign_of_path", ComplexError("unknown cell 'zz'"),
     ("phi-check", "catalog:sphere2", "--field", "f2")),
    ("cwkoszul.bigraded.koszul_obstructions", GraphError("unknown vertex 'zz'"),
     ("koszul", "catalog:simplex3", "--poset", "hat", "--field", "f3")),
], ids=["koszul-head-block", "phi-check-sign", "koszul-obstructions"])
def test_library_error_after_reading_exits_four(monkeypatch, capsys, target, exc, argv):
    # a ComplexError or GraphError is an input error only while the input is
    # read; later it is an internal fault, not exit 2, and only the
    # non-uniform refusal is exit 3
    monkeypatch.setattr(target, _raise(exc))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (4, "")
    assert "Traceback" in err and str(exc) in err


@pytest.mark.parametrize("poset", ["hat", "bar"])
def test_witness_below_the_maximum_exits_four(monkeypatch, capsys, poset):
    # every interval below the maximum comes from a regular CW cell and is
    # Koszul: a witness there is an internal fault, never NOT KOSZUL (exit 1)
    from cwkoszul.dualalg import KoszulVerdict, KoszulWitness

    def decide(g, field, blocks=None):
        witness = KoszulWitness("012", 2, 1, [(("012", "01"), 1)])
        return KoszulVerdict(False, field.key, g.name, witness, [("012", 3, False)])

    monkeypatch.setattr("cwkoszul.dualalg.koszul_decide", decide)
    code, out, err = run(capsys, "koszul", "catalog:simplex3", "--poset", poset,
                         "--field", "q", "--exit-status")
    assert code == 4
    assert out == ""
    assert "Traceback" in err and "below '012'" in err


def test_bad_prime_selector_exits_two(capsys):
    code, _, err = run(capsys, "koszul", "catalog:simplex3", "--field", "fp:8",
                       "--exit-status")
    assert code == 2
    assert "not prime" in err
    assert "Traceback" not in err


def test_torsion_refusal_exits_three(monkeypatch, capsys):
    # a quotient with torsion has no free coordinates: the method does not
    # apply, which is a failed hypothesis, not an input error
    from cwkoszul.linalg import TorsionError

    monkeypatch.setattr("cwkoszul.bigraded.hx_table",
                        _raise(TorsionError("integral quotient has torsion")))
    code, _, err = run(capsys, "hx", "catalog:simplex3", "--integral")
    assert code == 3
    assert err.startswith("hypothesis failure:")
    assert "torsion" in err and "Traceback" not in err


def test_hx_square_check_exits_four(monkeypatch, capsys):
    # a pair layer whose d_up no longer commutes with the vertical
    # differential is an internal fault, not an input error
    monkeypatch.setattr("cwkoszul.bigraded.build_layer", tampered_build_layer(0, flip_d_up_sign))
    code, out, err = run(capsys, "hx", "catalog:sphere2")
    assert code == 4
    assert out == ""
    assert "Traceback" in err and "does not commute" in err


def test_hx_torsion_in_a_pair_quotient_exits_three(monkeypatch, capsys):
    # a doubled vertical generator leaves Z/2 in column 1: refused before any check
    monkeypatch.setattr("cwkoszul.bigraded.build_layer",
                        tampered_build_layer(2, double_diagonal_d_down))
    code, out, err = run(capsys, "hx", "catalog:sphere2", "--integral")
    assert code == 3
    assert out == ""
    assert err == ("hypothesis failure: integral quotient has torsion (invariant factors "
                   "[1, 1, 1, 2]); no free coordinate system exists\n")
