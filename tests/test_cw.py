"""Regular CW complexes: validation, face posets, subcomplexes, catalog."""

import random

import pytest

from cwkoszul.bigraded import cellular_cohomology
from cwkoszul.catalog import _simplicial, catalog, catalog_names
from cwkoszul.cw import ComplexError, RegularCWComplex, _connected, complex_from_dict
from cwkoszul.layered import BOTTOM, TOP, GraphError, LayeredGraph
from cwkoszul.linalg import QQ

import helpers
from helpers import (
    Subcomplex,
    closed_cell,
    complement_star,
    dangling_square_complex,
    diamond_classes,
    disjoint_spheres_complex,
    doubled_tetrahedron_complex,
    glued_spheres_complex,
    is_thin,
    random_uniform_graphs,
    reference_validation_report,
    scan_to_dict,
    segment_plus_point,
    two_disjoint_triangles,
)


def test_catalog_counts():
    assert catalog("example_singular").counts() == (4, 8, 7, 2)
    assert catalog("rp2_six").counts() == (6, 15, 10)
    assert catalog("sphere2").counts() == (4, 6, 4)
    assert catalog("point").counts() == (1,)


def test_catalog_validates_clean():
    for name in catalog_names():
        assert catalog(name).validate() == []


def test_rp2_euler_characteristic():
    assert catalog("rp2_six").euler_characteristic() == 1


def test_unknown_catalog_name():
    with pytest.raises(ComplexError, match="unknown"):
        catalog("torus")
    with pytest.raises(ComplexError, match="unsupported"):
        catalog("simplex7")


def test_validator_flags_dangling_boundary():
    report = dangling_square_complex().validate()
    assert any("boundary of boundary" in v and "'f'" in v for v in report)
    assert any("Euler characteristic" in v for v in report)


def test_validator_rejects_structural_errors_at_init():
    with pytest.raises(ComplexError, match="dimensions"):
        RegularCWComplex("bad", {"v": 0, "f": 2}, {("f", "v"): 1})
    with pytest.raises(ComplexError, match="\\+1 or -1"):
        RegularCWComplex("bad", {"v": 0, "w": 0, "e": 1}, {("e", "v"): 2, ("e", "w"): 1})
    with pytest.raises(ComplexError, match="reserved"):
        RegularCWComplex("bad", {BOTTOM: 0}, {})


def test_booleans_are_not_integers_at_init():
    with pytest.raises(ComplexError, match="invalid dimension True"):
        RegularCWComplex("bad", {"v": 0, "w": 0, "e": True}, {("e", "v"): -1, ("e", "w"): 1})
    with pytest.raises(ComplexError, match="\\+1 or -1, got True"):
        RegularCWComplex("bad", {"v": 0, "w": 0, "e": 1}, {("e", "v"): -1, ("e", "w"): True})
    with pytest.raises(GraphError, match="invalid rank True"):
        LayeredGraph({"a": True, "x": 2}, {("x", "a")})


def test_face_poset_bar_point():
    g = catalog("point").face_poset_bar()
    assert sorted(g.vertices.items()) == [(BOTTOM, 0), ("p", 1)]


def test_face_poset_bar_hollow_triangle():
    g = catalog("sphere1").face_poset_bar()
    assert g.max_rank == 2
    assert len(g.at_rank(1)) == 3 and len(g.at_rank(2)) == 3


def test_face_poset_bar_singular_solid_layers():
    g = catalog("example_singular").face_poset_bar()
    assert [len(g.at_rank(r)) for r in range(5)] == [1, 4, 8, 7, 2]


def test_face_poset_hat_singular_solid():
    g = catalog("example_singular").face_poset_hat()
    assert g.max_rank == 5
    assert g.lower_covers("1bar") == ("A1", "A2")


def test_face_poset_hat_simplex2_has_rank_four():
    g = catalog("simplex2").face_poset_hat()
    assert g.max_rank == 4
    assert g.lower_covers("1bar") == ("012",)


def test_face_poset_hat_requires_purity():
    with pytest.raises(ComplexError, match="not pure"):
        segment_plus_point().face_poset_hat()


def _bar_plus_top(x: RegularCWComplex) -> LayeredGraph:
    """The reference hat poset: the bar poset plus TOP over its maximal vertices."""
    bar = x.face_poset_bar()
    lowers = {l for _, l in bar.covers}
    maxima = [v for v in bar.vertices if v not in lowers]
    (rank,) = {bar.rank(v) for v in maxima}
    verts = {**bar.vertices, TOP: rank + 1}
    covers = {(u, l) for u, l in bar.covers if l != BOTTOM} | {(TOP, v) for v in maxima}
    return LayeredGraph(verts, covers, name=f"{x.name}^" if x.name else "^")


@pytest.mark.parametrize("name", catalog_names())
def test_face_poset_hat_is_the_bar_poset_plus_top(name, monkeypatch):
    x = catalog(name)
    for cx in (x, RegularCWComplex("", x.dims, x.incidence)):
        ref = _bar_plus_top(cx)
        fresh = RegularCWComplex(cx.name, cx.dims, cx.incidence)
        built = []
        init = LayeredGraph.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(LayeredGraph, "__init__", counting_init)
            hat = fresh.face_poset_hat()
        assert len(built) == 1 and built[0] is hat
        assert hat == ref and hat.name == ref.name


def test_is_pure():
    assert catalog("sphere3").is_pure()
    assert catalog("example_singular").is_pure()
    assert not segment_plus_point().is_pure()


def test_connected_by_codim1():
    assert catalog("example_singular").connected_by_codim1()
    assert catalog("sphere3").connected_by_codim1()
    assert not two_disjoint_triangles().connected_by_codim1()
    # points share their codimension-1 face, the empty cell
    assert RegularCWComplex("two_points", {"a": 0, "b": 0}, {}).connected_by_codim1()
    with pytest.raises(ComplexError, match="not pure"):
        segment_plus_point().connected_by_codim1()


def test_closed_cell_and_complement_star():
    x = catalog("simplex1")
    assert complement_star(x, "0").cells == frozenset({"1"})
    x3 = catalog("simplex3")
    assert closed_cell(x3, "0123").cells == frozenset(x3.cells())
    s = catalog("example_singular")
    y = complement_star(s, "C4")
    assert y.euler_characteristic() == 0
    assert cellular_cohomology(y.induced(), QQ) == [1, 1, 0]  # circle type


def test_subcomplex_must_be_downward_closed():
    x = catalog("simplex2")
    with pytest.raises(ComplexError, match="downward closed"):
        Subcomplex(x, frozenset({"012"}))


def test_bar_posets_thin_and_spheres_uniform():
    for name in catalog_names():
        g = catalog(name).face_poset_bar()
        assert is_thin(g)[0], name
    for name in ("sphere1", "sphere2", "sphere3"):
        assert catalog(name).face_poset_bar().is_uniform()[0]


def test_pure_connected_gives_uniform_hat():
    for name in ("simplex3", "sphere2", "rp2_six", "example_singular",
                 "three_triangles_shared_edge"):
        x = catalog(name)
        assert x.is_pure() and x.connected_by_codim1()
        assert x.face_poset_hat().is_uniform()[0], name


def test_boundary_euler_characteristics_match_spheres():
    for name in ("simplex3", "rp2_six", "example_singular"):
        x = catalog(name)
        for c in x.cells():
            n = x.cell_dim(c)
            if n >= 1:
                chi = closed_cell(x, c).euler_characteristic() - (-1) ** n
                assert chi == 1 + (-1) ** (n - 1), (name, c)


def test_serialization_round_trip():
    for name in ("point", "sphere2", "example_singular"):
        x = catalog(name)
        assert complex_from_dict(x.to_dict()) == x


def test_to_dict_equals_the_incidence_scan():
    for name in catalog_names():
        x = catalog(name)
        got = x.to_dict()
        assert got == scan_to_dict(x), name
        # the key order of every boundary is part of the emitted JSON
        assert [list(c["boundary"]) for c in got["cells"]] == [
            list(c["boundary"]) for c in scan_to_dict(x)["cells"]
        ], name


def test_complex_from_dict_schema_errors():
    with pytest.raises(ComplexError, match="\\+1 or -1"):
        complex_from_dict({"name": "b", "cells": [
            {"id": "v", "dim": 0, "boundary": {}},
            {"id": "w", "dim": 0, "boundary": {}},
            {"id": "e", "dim": 1, "boundary": {"v": 0, "w": 1}},
        ]})
    with pytest.raises(ComplexError, match="unknown cell"):
        complex_from_dict({"name": "b", "cells": [
            {"id": "e", "dim": 1, "boundary": {"v": 1, "w": -1}},
        ]})
    with pytest.raises(ComplexError, match="duplicate"):
        complex_from_dict({"name": "b", "cells": [
            {"id": "v", "dim": 0}, {"id": "v", "dim": 0},
        ]})
    with pytest.raises(ComplexError, match="expected 1"):
        complex_from_dict({"name": "b", "cells": [
            {"id": "v", "dim": 0, "boundary": {}},
            {"id": "f", "dim": 2, "boundary": {"v": 1}},
        ]})
    with pytest.raises(ComplexError, match="empty boundary"):
        complex_from_dict({"name": "b", "cells": [
            {"id": "v", "dim": 0, "boundary": {"v": 1}},
        ]})


def test_diamond_classes_single_on_cw_intervals():
    for name in ("sphere2", "simplex3", "example_singular"):
        g = catalog(name).face_poset_bar()
        for b in g.vertex_ids():
            for a in sorted(g.strictly_below(b)):
                assert len(diamond_classes(g, b, a)) == 1, (name, b, a)


def test_intervals_of_rank_at_most_two_have_one_diamond_class():
    # validation skips these intervals: their maximal chains differ in their
    # one interior position, so they always form a single class
    graphs = [catalog(name).face_poset_bar() for name in catalog_names()]
    graphs += [catalog(name).face_poset_hat() for name in ("sphere2", "rp2_six")]
    graphs += random_uniform_graphs(20, seed=5)
    for g in graphs:
        for b in g.vertex_ids():
            for a in g.strictly_below(b):
                if g.rank(b) - g.rank(a) <= 2:
                    assert len(diamond_classes(g, b, a)) == 1, (g.name, a, b)


def _split_intervals(g):
    return [(a, b) for b in g.vertex_ids() for a in sorted(g.strictly_below(b))
            if len(diamond_classes(g, b, a)) != 1]


def test_glued_spheres_report_the_disconnected_open_intervals():
    # the listing splits 7 intervals here, connectivity reports 3 of them;
    # each reported one splits and each split one contains a reported one
    x = glued_spheres_complex()
    assert x.validate() == [
        f"interval [{a!r}, 'W'] splits into several diamond classes"
        for a in ("01", "02", "12")
    ]
    g = x._face_poset_bar_unchecked()
    assert is_thin(g)[0] and x.euler_characteristic(x._strict_faces["W"]) == 0
    reported = [("01", "W"), ("02", "W"), ("12", "W")]
    split = _split_intervals(g)
    assert sorted(split) == sorted(reported + [(v, "W") for v in (BOTTOM, "0", "1", "2")])
    for a, b in split:
        assert any(g.le(a, c) and g.le(d, b) for c, d in reported), (a, b)


def test_disjoint_spheres_split_below_the_filling_cell():
    x = disjoint_spheres_complex()
    assert x.validate() == [f"interval [{BOTTOM!r}, 'W'] splits into several diamond classes"]
    assert _split_intervals(x._face_poset_bar_unchecked()) == [(BOTTOM, "W")]


def test_doubled_tetrahedron_fails_only_the_rank_2_intermediate_check():
    # boundary of boundary and the Euler characteristics hold; only the count
    # of cells between an edge and the 3-cell sees the two extra triangles
    x = doubled_tetrahedron_complex()
    assert x.validate() == [
        f"interval [{a!r}, 'g'] has 4 intermediate cells, expected 2" for a in ("12", "34")
    ]


def test_validation_lists_no_maximal_chains(monkeypatch):
    def refuse(*args):
        raise AssertionError("validation listed maximal chains")

    x = _simplicial("simplex7", ["01234567"])
    monkeypatch.setattr(LayeredGraph, "maximal_chains", refuse)
    monkeypatch.setattr(helpers, "diamond_classes", refuse)
    assert x.validate() == []


def test_validation_builds_no_face_poset(monkeypatch):
    # validate() reads the complex's own closures; face_poset_bar() builds
    # the bar poset once per call
    def refuse(*args, **kwargs):
        raise AssertionError("validation built a layered graph")

    x = complex_from_dict(catalog("sphere2").to_dict())
    with monkeypatch.context() as m:
        m.setattr(LayeredGraph, "__init__", refuse)
        assert x.validate() == []
        assert dangling_square_complex().validate()
    built = []
    init = LayeredGraph.__init__

    def counting(g, *args, **kwargs):
        built.append(g)
        init(g, *args, **kwargs)

    monkeypatch.setattr(LayeredGraph, "__init__", counting)
    bar = x.face_poset_bar()
    assert built == [bar]
    assert bar == x._face_poset_bar_unchecked()


def _mutant(x, rng):
    """A copy of x with one or two incidences dropped or flipped, or cells added.

    An added cell has random faces, or is glued: its boundary is the sum of
    those of two cells sharing no face, a cycle, so boundary of boundary
    still vanishes and only the later checks can object.
    """
    dims, incidence = dict(x.dims), dict(x.incidence)
    for step in range(rng.randint(1, 2)):
        kind = rng.choice(("drop", "flip", "add", "glue"))
        if kind == "glue":
            cells = x.cells(rng.randint(0, x.dim))
            a, b = rng.sample(cells, 2) if len(cells) > 1 else (None, None)
            if a and not set(x.faces(a)) & set(x.faces(b)):
                cid = f"new{step}"
                dims[cid] = x.dims[a]
                for c in (a, b):
                    incidence.update({(cid, f): x.incidence[(c, f)] for f in x.faces(c)})
        elif kind == "add" or not incidence:
            d = rng.randint(0, x.dim + 1)
            lower = sorted(c for c, e in dims.items() if e == d - 1)
            cid = f"new{step}"
            dims[cid] = d
            for f in rng.sample(lower, min(len(lower), rng.randint(1, 4))) if d else ():
                incidence[(cid, f)] = rng.choice((1, -1))
        else:
            key = rng.choice(sorted(incidence))
            if kind == "drop":
                del incidence[key]
            else:
                incidence[key] = -incidence[key]
    return RegularCWComplex(f"{x.name}-mutant", dims, incidence)


def _seeded_mutants():
    rng = random.Random(20081)
    names = ("simplex2", "simplex3", "sphere2", "rp2_six", "example_singular",
             "three_triangles_shared_edge")
    for _ in range(400):
        yield _mutant(catalog(rng.choice(names)), rng)


def test_validate_reports_every_mutant_without_a_thin_bar_poset():
    # validate() builds the bar poset only after its earlier checks pass and
    # asks neither for a layered graph nor for thinness: those checks imply
    # both.  Every mutant whose bar poset is not a thin layered graph must
    # therefore be reported, and no clean report may come without one.
    not_thin = 0
    for x in _seeded_mutants():
        try:
            bar = LayeredGraph({c: d + 1 for c, d in x.dims.items()}, set(x.incidence))
            thin = is_thin(bar)[0]
        except GraphError:
            thin = False
        report = x.validate()
        if not thin:
            not_thin += 1
            assert report, x.to_dict()
        elif not report:
            assert x.face_poset_bar() == bar
    assert not_thin >= 100


def test_validate_matches_the_bar_poset_reference():
    # the closure-based report equals, line for line, the one built on the
    # bar poset with one pass per check
    complexes = [catalog(name) for name in catalog_names()]
    complexes += [glued_spheres_complex(), disjoint_spheres_complex(), doubled_tetrahedron_complex()]
    complexes += list(_seeded_mutants())
    reported = 0
    for x in complexes:
        fresh = RegularCWComplex(x.name, x.dims, x.incidence)  # catalog entries keep their report
        assert fresh.validate() == reference_validation_report(fresh), x.to_dict()
        reported += bool(fresh._report)
    assert reported >= 100


def _covers_connect(inside, faces) -> bool:
    """Plain search: whether the covers (u, l), l in faces[u], with both
    ends inside join all of `inside`."""
    adj = {c: [] for c in inside}
    for u in inside:
        for l in faces[u]:
            if l in inside:
                adj[u].append(l)
                adj[l].append(u)
    if not adj:
        return True
    start = next(iter(adj))
    seen, todo = {start}, [start]
    while todo:
        for c in adj[todo.pop()]:
            if c not in seen:
                seen.add(c)
                todo.append(c)
    return len(seen) == len(adj)


def test_connected_matches_a_plain_search_on_simplex_faces():
    # seeded random subsets of the faces of a 6-simplex, sparse ones split
    x = _simplicial("s6", ["0123456"])
    cells, faces = x.cells(), x._faces
    rng = random.Random(20261019)
    verdicts = []
    for _ in range(300):
        density = rng.choice((0.02, 0.05, 0.1, 0.3, 0.7, 1.0))
        inside = {c for c in cells if rng.random() < density}
        got = _connected(inside, faces)
        assert got == _covers_connect(inside, faces), sorted(inside)
        verdicts.append(got)
    assert verdicts.count(True) >= 50 and verdicts.count(False) >= 50


def test_impossible_dimension_is_refused_at_init():
    # every dimension up to a cell's needs a cell of its own
    with pytest.raises(ComplexError, match="'a' has dimension 3000000"):
        RegularCWComplex("huge", {"a": 3000000}, {})
    with pytest.raises(ComplexError, match="'e' has dimension 2"):
        RegularCWComplex("bad", {"v": 0, "e": 2}, {})
    # dimension = number of cells - 1 is possible; validation reports the missing faces
    assert RegularCWComplex("ok", {"v": 0, "e": 1}, {}).validate()
