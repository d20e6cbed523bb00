"""Every check passes on the program's real output and fails on a flipped
verdict or a perturbed entry."""

import contextlib
import copy
import io
import json

import pytest

import checks
import gen
from cwkoszul import cli


def _input(tmp_path, name, data, kind, facets):
    raw = (json.dumps(data) + "\n").encode()
    path = tmp_path / f"{name}.json"
    path.write_bytes(raw)
    return str(path), {"data": data, "meta": {"kind": kind, "facets": facets}, "raw": raw}


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())


@pytest.fixture
def rp2(tmp_path):
    return _input(tmp_path, "rp2", gen.simplicial_file("rp2", gen.RP2_SIX), "rp2", gen.RP2_SIX)


@pytest.fixture
def torus(tmp_path):
    facets = gen.grid_surface(3, 3, False)
    return _input(tmp_path, "torus", gen.simplicial_file("t", facets), "torus", facets)


def _hat(path, field):
    req = {"input": "x", "check": "hat", "field": field}
    code, report = _run(["koszul", path, "--poset", "hat", "--field", field,
                         "--exit-status", "--json"])
    return req, code, report


@pytest.mark.parametrize("field", ["f2", "f3"])
def test_hat_verdict_flip_is_caught(rp2, field):
    path, inp = rp2
    req, code, report = _hat(path, field)
    assert checks.check(req, code, report, inp, {}) == []
    flipped = copy.deepcopy(report)
    flipped["result"]["koszul"] = not report["result"]["koszul"]
    assert checks.check(req, 1 - code, flipped, inp, {})
    assert checks.check(req, 1 - code, report, inp, {})  # exit status alone


def test_singular_witness_and_sha_are_checked(tmp_path):
    path, inp = _input(tmp_path, "s", gen.example_singular_file(), "singular", None)
    req, code, report = _hat(path, "q")
    assert checks.check(req, code, report, inp, {}) == []
    moved = copy.deepcopy(report)
    moved["result"]["witness"]["k"] = 0
    assert checks.check(req, code, moved, inp, {})
    forged = copy.deepcopy(report)
    forged["input"]["sha256"] = "0" * 64
    assert checks.check(req, code, forged, inp, {})


def test_hx_tables_checks_catch_perturbed_entries(torus):
    path, inp = torus
    z_req = {"input": "t", "check": "hx-integral", "field": "z"}
    f_req = {"input": "t", "check": "hx-field", "field": "f3"}
    _, z = _run(["hx", path, "--integral", "--json"])
    _, f = _run(["hx", path, "--field", "f3", "--json"])
    results = {checks.key(z_req): z}
    assert checks.check(z_req, 0, z, inp, results) == []
    assert checks.check(f_req, 0, f, inp, results) == []
    bad_z = copy.deepcopy(z)
    bad_z["result"]["entries"]["1,0"]["free"] += 1
    assert checks.check(z_req, 0, bad_z, inp, {})
    bad_f = copy.deepcopy(f)
    bad_f["result"]["entries"]["2,1"] += 1
    assert checks.check(f_req, 0, bad_f, inp, results)
    torsion = copy.deepcopy(z)
    torsion["result"]["entries"]["2,0"]["torsion"] = [3]
    assert checks.check(f_req, 0, f, inp, {checks.key(z_req): torsion})


SMALL = [
    (["validate"], {"check": "validate"}, lambda r: r["counts"].append(1)),
    (["koszul", "--poset", "bar", "--field", "f2"], {"check": "koszul-bar", "field": "f2"},
     lambda r: r.update(koszul=False)),
    (["rdims", "--poset", "bar", "--field", "q"], {"check": "rdims", "field": "q"},
     lambda r: r["dims"].append(1)),
    (["phi-check", "--field", "f3"], {"check": "phi", "field": "f3"},
     lambda r: r.update(bijective=False)),
    (["ann-check", "--poset", "bar", "--vertex", "v1-2-4", "--n", "1", "--field", "q"],
     {"check": "ann", "field": "q"}, lambda r: r.update(holds=False)),
    (["cohomology", "--field", "f2"], {"check": "cohomology", "field": "f2"},
     lambda r: r["dims"].__setitem__(1, 0)),
    (["relative", "--cell", "v1", "--field", "f2"], {"check": "relative", "field": "f2", "cell": "v1"},
     lambda r: r["dims"].__setitem__(0, 1)),
]


@pytest.mark.parametrize("argv, req, perturb", SMALL, ids=[s[1]["check"] for s in SMALL])
def test_small_request_checks_catch_perturbations(rp2, argv, req, perturb):
    path, inp = rp2
    code, report = _run([argv[0], path] + argv[1:] + ["--json"])
    req = dict(req, input="rp2")
    assert checks.check(req, code, report, inp, {}) == []
    perturb(report["result"])
    assert checks.check(req, code, report, inp, {})
