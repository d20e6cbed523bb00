"""Acceptance criteria: headline reproductions and the exact property suite.

Each criterion prints one [PASS]/[FAIL] line (visible with `pytest -s`) and
asserts the same condition, so a red line is a red test.
"""

import json
import time

from cwkoszul.bigraded import (
    cellular_cohomology,
    hx_table,
    koszul_obstructions,
    pair_basis,
    reduced_layers,
)
from cwkoszul.catalog import catalog, catalog_names
from cwkoszul.cli import main
from cwkoszul.dualalg import (
    annihilator_check,
    comparison_iso_check,
    koszul_decide,
)
from cwkoszul.linalg import GF, QQ, ZZ, cochain_cohomology

from helpers import (
    matmul,
    pair_layers,
    path_block_component,
    path_graded_component,
    path_word_complex,
    random_uniform_graphs,
    reduced_chain,
    reduced_dims,
    word_cohomology,
)

FIELDS = (QQ, GF(2), GF(3))

# the positive-result list: bar posets of these are Koszul over every field
KOSZUL_BAR_LIST = (
    "point", "simplex2", "simplex3", "simplex4",
    "sphere1", "sphere2", "sphere3",
    "rp2_six", "example_singular", "three_triangles_shared_edge",
)


def _verdict(num: int, desc: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}")
    assert ok, f"criterion {num}: {desc}"


def test_criterion_1_bar_posets_always_koszul():
    ok = True
    for name in KOSZUL_BAR_LIST:
        g = catalog(name).face_poset_bar()
        for field in FIELDS:
            t0 = time.time()
            verdict = koszul_decide(g, field)
            elapsed = time.time() - t0
            ok = ok and verdict.koszul and elapsed < 60.0
    _verdict(1, "bar-poset dual algebras Koszul over Q, F2, F3", ok)


def test_criterion_2_glued_tetrahedra_counterexample(capsys):
    ok = True
    for fkey in ("q", "f2", "f3"):
        code = main(["koszul", "catalog:example_singular", "--poset", "hat",
                     "--field", fkey, "--exit-status", "--json"])
        report = json.loads(capsys.readouterr().out)
        ok = ok and code == 1 and report["result"]["koszul"] is False
        ok = ok and [2, 1, 1] in report["result"]["obstructions"]["bigraded"]

        main(["relative", "catalog:example_singular", "--cell", "C4",
              "--field", fkey, "--json"])
        rel = json.loads(capsys.readouterr().out)["result"]["dims"]
        ok = ok and rel[2] >= 1

        main(["cohomology", "catalog:example_singular", "--field", fkey, "--json"])
        coh = json.loads(capsys.readouterr().out)["result"]["dims"]
        ok = ok and coh[1] == 0 and coh[2] == 0
    with capsys.disabled():
        _verdict(2, "glued-tetrahedra solid: hat poset not Koszul, witness at (2,1)", ok)


def test_criterion_3_projective_plane_characteristic_two(capsys):
    code2 = main(["koszul", "catalog:rp2_six", "--poset", "hat",
                  "--field", "f2", "--exit-status", "--json"])
    report = json.loads(capsys.readouterr().out)
    w = report["result"]["witness"]
    ok = code2 == 1 and (w["n"], w["k"]) == (1, 0)
    ok = ok and hx_table(catalog("rp2_six"), GF(2)).entry(1, 0) == 1
    for fkey in ("q", "f3"):
        code = main(["koszul", "catalog:rp2_six", "--poset", "hat",
                     "--field", fkey, "--exit-status"])
        capsys.readouterr()
        ok = ok and code == 0
    with capsys.disabled():
        _verdict(3, "projective plane: Koszul exactly away from characteristic 2", ok)


def test_criterion_4_zero_column_is_cellular_cohomology():
    ok = True
    for name in catalog_names():
        x = catalog(name)
        for field in FIELDS:
            table = hx_table(x, field)
            cell = cellular_cohomology(x, field)
            for n in range(x.dim + 1):
                ok = ok and table.entry(n, 0) == cell[n]
    _verdict(4, "k=0 table row equals classical cellular cohomology", ok)


def test_criterion_5_interval_graph_cohomology():
    ok = True
    for n in (1, 2, 3, 4):
        g = catalog(f"simplex{n}").face_poset_bar()
        d = g.max_rank - 1
        for field in FIELDS:
            for k in range(d + 1):
                dims = [h for h, _ in word_cohomology(g, k, field)]
                ok = ok and dims[0] == 1
                if k < d:
                    ok = ok and dims[d - k] == 0
                if k < d - 1:
                    ok = ok and dims[d - 1 - k] == 0
    _verdict(5, "interval graphs: diagonal cohomology F, top rows vanish", ok)


def test_criterion_6_signed_path_map_bijective():
    ok = True
    for name in catalog_names():
        x = catalog(name)
        for field in (QQ, GF(2)):
            bij, details = comparison_iso_check(x, field)
            ok = ok and bij and all(ldim == rdim for _, _, ldim, rdim, _ in details)
    _verdict(6, "signed path map bijective in every bidegree over Q and F2", ok)


def test_criterion_7_annihilator_identities():
    ok = True
    for name in ("sphere1", "simplex2", "simplex3"):
        g = catalog(name).face_poset_bar()
        for x in g.vertex_ids(skip_bottom=True):
            for n in range(g.rank(x) + 1):
                ok = ok and annihilator_check(g, QQ, x, n)
    for name in KOSZUL_BAR_LIST:
        g = catalog(name).face_poset_bar()
        for x in g.vertex_ids(skip_bottom=True):
            ok = ok and annihilator_check(g, QQ, x, 0)
    ghat = catalog("example_singular").face_poset_hat()
    for x in ghat.vertex_ids(skip_bottom=True):
        ok = ok and annihilator_check(ghat, QQ, x, 0)
    failures = [
        (x, n)
        for x in ghat.vertex_ids(skip_bottom=True)
        for n in range(ghat.rank(x) + 1)
        if not annihilator_check(ghat, QQ, x, n)
    ]
    ok = ok and len(failures) > 0
    witness = koszul_decide(ghat, QQ).witness
    consistent = (witness.vertex, ghat.rank(witness.vertex) - 2 - witness.n)
    ok = ok and consistent in failures
    _verdict(7, "annihilator identities hold on Koszul graphs, fail on the counterexample", ok)


def test_criterion_8_integral_diagonal_for_solid_simplex():
    table = hx_table(catalog("simplex3"), ZZ)
    ok = True
    for (n, k), val in table.entries.items():
        expected = (1, ()) if n == k else (0, ())
        ok = ok and val == expected
    _verdict(8, "solid 3-simplex over Z: diagonal Z, zero off-diagonal", ok)


def test_criterion_9_property_suite():
    t0 = time.time()
    ok = True
    catalog_complexes = [catalog(name) for name in catalog_names()]

    # signed incidence and interval structure (boundary-of-boundary, thinness,
    # sphere Euler characteristics, single diamond classes)
    for x in catalog_complexes:
        ok = ok and x.validate() == []

    # the two pair differentials commute; reduction bookkeeping; Euler identity
    for x in catalog_complexes:
        layers = pair_layers(x, ZZ)
        for k in range(1, x.dim + 1):
            for n in sorted(layers[k].bases)[:-1]:
                left = matmul(layers[k - 1].d_up[n], layers[k].d_down[n])
                right = matmul(layers[k].d_down[n + 1], layers[k].d_up[n])
                ok = ok and left == right
        for field in (QQ, GF(2)):
            reduced = list(reduced_layers(x, field))
            rdims = [reduced_dims(layer) for layer in reduced]
            for k in range(1, x.dim + 1):
                for n in range(k, x.dim + 1):
                    lhs = rdims[k][n]
                    rhs = len(pair_basis(x, n, k - 1)) - rdims[k - 1][n]
                    ok = ok and lhs == rhs
            for k in range(x.dim + 1):
                dims, mats = reduced_chain(reduced[k])
                homs = cochain_cohomology(dims, mats, field)
                ok = ok and sum((-1) ** i * d for i, d in enumerate(dims)) == sum(
                    (-1) ** i * h for i, (h, _) in enumerate(homs)
                )

    # word complexes: differential squares to zero (checked inside), Euler
    # identity, and the head-block decomposition of every graded component
    graphs = [x.face_poset_bar() for x in catalog_complexes]
    graphs += random_uniform_graphs(50, seed=20250809)
    for g in graphs:
        for k in range(g.max_rank):
            wc = path_word_complex(g, k, QQ)
            dims, mats = wc.chain()
            homs = cochain_cohomology(dims, mats, QQ)
            ok = ok and sum((-1) ** i * d for i, d in enumerate(dims)) == sum(
                (-1) ** i * h for i, (h, _) in enumerate(homs)
            )
        for m in range(1, g.max_rank + 1):
            total = path_graded_component(g, m, QQ).dim
            blocks = sum(
                path_block_component(g, m, r, QQ).dim for r in range(1, g.max_rank + 1)
            )
            ok = ok and total == blocks

    elapsed = time.time() - t0
    ok = ok and elapsed < 600.0
    _verdict(9, f"exact property suite on catalog and 50 random graphs ({elapsed:.0f}s)", ok)


def test_criterion_10_routes_agree():
    ok = True
    for name in catalog_names():
        x = catalog(name)
        if not (x.is_pure() and x.connected_by_codim1()):
            continue
        ghat = x.face_poset_hat()
        for field in FIELDS:
            verdict = koszul_decide(ghat, field)
            report = koszul_obstructions(x, field)
            ok = ok and verdict.koszul == report.empty
    _verdict(10, "vertexwise decision agrees with obstruction emptiness", ok)
