"""Layered graphs: spheres, intervals, uniformity, thinness, chains, serialization."""

import random

import pytest

from cwkoszul.catalog import catalog, catalog_names
from cwkoszul.layered import (
    BOTTOM,
    GraphError,
    LayeredGraph,
    closures,
    graph_from_dict,
    linked_classes,
)

from helpers import (
    below,
    diamond_classes,
    down_up_sequence,
    edge_poset,
    is_thin,
    nonuniform_poset,
    open_interval_connected,
    random_layered_graph,
    random_uniform_graphs,
    up_down_sequence,
)

RANDOM = random_uniform_graphs(30, 2024)


def _catalog_posets():
    out = []
    for name in catalog_names():
        x = catalog(name)
        out.append(x.face_poset_bar())
        if x.is_pure():
            out.append(x.face_poset_hat())
    return out


def test_construction_rejects_bad_rank_drop():
    with pytest.raises(GraphError, match="drops rank"):
        LayeredGraph({"a": 1, "x": 3}, {("x", "a")})


def test_construction_rejects_missing_lower_cover():
    with pytest.raises(GraphError, match="no lower cover"):
        LayeredGraph({"a": 1, "x": 2}, set())


def test_construction_rejects_explicit_bottom_cover():
    with pytest.raises(GraphError, match="implicit"):
        LayeredGraph({"a": 1}, {("a", BOTTOM)})


def _searched(v, links) -> frozenset[str]:
    """Every item reached from v through one or more links, by depth-first search."""
    seen: set[str] = set()
    stack = list(links[v])
    while stack:
        w = stack.pop()
        if w not in seen:
            seen.add(w)
            stack.extend(links[w])
    return frozenset(seen)


def test_closures_equal_a_search_per_item():
    rng = random.Random(7)
    walks = []  # (order, links), each linked item listed before the items linking to it
    for g in RANDOM + [random_layered_graph(rng) for _ in range(40)]:
        order = g.vertex_ids()
        upper: dict[str, list[str]] = {v: [] for v in order}
        for u, l in g.covers:
            upper[l].append(u)
        walks += [(order, {v: g.lower_covers(v) for v in order}), (order[::-1], upper)]
    for name in catalog_names():
        x = catalog(name)
        order = x.cells()
        walks += [(order, {c: x.faces(c) for c in order}),
                  (order[::-1], {c: x.cofaces(c) for c in order})]
    for order, links in walks:
        assert closures(order, links) == {v: _searched(v, links) for v in order}


def test_below_minimum_is_single_vertex():
    g = edge_poset()
    sub = below(g, BOTTOM)
    assert set(sub.vertices) == {BOTTOM}


def test_below_edge_of_hollow_triangle_has_four_elements():
    g = catalog("sphere1").face_poset_bar()
    sub = below(g, "01")
    assert set(sub.vertices) == {BOTTOM, "0", "1", "01"}
    assert sub.rank("01") == 2


def test_below_top_is_whole_graph():
    g = catalog("simplex2").face_poset_bar()
    assert below(g, "012") == g


def test_below_unknown_vertex():
    with pytest.raises(GraphError, match="unknown"):
        below(edge_poset(), "zz")


def test_sphere_examples():
    g = edge_poset()
    assert g.sphere("e", 1) == ("a", "b")
    assert g.sphere("e", 2) == (BOTTOM,)
    assert g.sphere("e", 0) == ("e",)
    assert g.sphere("a", 2) == ()


def test_sphere_equals_level_scan():
    for g in _catalog_posets() + RANDOM:
        for x in g.vertex_ids():
            r = g.rank(x)
            for n in range(1, r + 2):
                scan = tuple(v for v in g.at_rank(r - n) if v in g.strictly_below(x))
                assert g.sphere(x, n) == scan, (g.name, x, n)
            if r:
                assert g.sphere(x, r) == (BOTTOM,)


def _closure_classes(items, links):
    """Partition of `items` by merging any two groups whose link sets meet."""
    groups = [([v], set(links[v])) for v in items]
    merged = True
    while merged:
        merged = False
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                if groups[i][1] & groups[j][1]:
                    groups[i][0].extend(groups[j][0])
                    groups[i][1].update(groups.pop(j)[1])
                    merged = True
                    break
            if merged:
                break
    return sorted(sorted(members) for members, _ in groups)


def test_is_uniform_equals_linked_classes():
    rng = random.Random(7)
    graphs = RANDOM + [random_layered_graph(rng) for _ in range(60)] + [nonuniform_poset()]
    assert not all(g.is_uniform()[0] for g in graphs)
    for g in graphs:
        lower = {v: g.lower_covers(v) for v in g.vertex_ids()}
        want = (True, None)
        for v in g.vertex_ids():
            if g.rank(v) < 2:
                continue
            classes = linked_classes(lower[v], lower.__getitem__)
            assert classes == _closure_classes(lower[v], lower), (g.name, v)
            if len(classes) > 1:
                want = (False, (v, classes))
                break
        assert g.is_uniform() == want, g.name


def test_is_uniform_positive_and_negative():
    assert edge_poset().is_uniform() == (True, None)
    ok, witness = nonuniform_poset().is_uniform()
    assert not ok
    assert witness[0] == "x"
    assert sorted(map(sorted, witness[1])) == [["b"], ["c"]]


def test_uniform_iff_all_intervals_uniform():
    for name in ("sphere2", "example_singular"):
        g = catalog(name).face_poset_bar()
        assert g.is_uniform()[0]
        assert all(below(g, x).is_uniform()[0] for x in g.vertex_ids())
    g = nonuniform_poset()
    assert not g.is_uniform()[0]
    assert not all(below(g, x).is_uniform()[0] for x in g.vertex_ids())


def test_hat_poset_of_singular_solid_is_uniform():
    g = catalog("example_singular").face_poset_hat()
    assert g.is_uniform() == (True, None)


def test_is_thin():
    assert is_thin(catalog("sphere1").face_poset_bar()) == (True, None)
    single = LayeredGraph({}, set())
    assert is_thin(single) == (True, None)
    hat3 = catalog("three_triangles_shared_edge").face_poset_hat()
    ok, witness = is_thin(hat3)
    assert not ok
    assert witness[0] == "1bar" and witness[1] == "ab"


def test_down_up_trivial_and_edge():
    g = edge_poset()
    assert down_up_sequence(g, "a", "a") == (["a"], [])
    seq, links = down_up_sequence(g, "a", "b")
    assert seq == ["a", "b"] and links == [BOTTOM]
    with pytest.raises(GraphError, match="different ranks"):
        down_up_sequence(g, "a", "e")


def test_up_down_sequence():
    g = edge_poset()
    seq, links = up_down_sequence(g, "a", "b")
    assert seq == ["a", "b"] and links == ["e"]
    assert up_down_sequence(nonuniform_poset(), "p", "q") is None


def test_down_up_within_uniform_intervals():
    for name in ("sphere2", "simplex3", "example_singular"):
        g = catalog(name).face_poset_bar()
        for x in g.vertex_ids():
            sub = below(g, x)
            for r in range(1, sub.max_rank + 1):
                layer = sub.at_rank(r)
                for a in layer:
                    for b in layer:
                        assert down_up_sequence(sub, a, b) is not None
                        assert up_down_sequence(sub, a, b) is not None


def test_maximal_chains():
    g = catalog("simplex2").face_poset_bar()
    assert g.maximal_chains("012", "012") == [("012",)]
    chains = g.maximal_chains("012", BOTTOM)
    assert len(chains) == 6
    assert chains == sorted(chains)
    g3 = catalog("simplex3").face_poset_bar()
    assert len(g3.maximal_chains("0123", "0")) == 6
    with pytest.raises(GraphError, match="not below"):
        g.maximal_chains("0", "012")


def test_first_maximal_chain_is_first_listed():
    g = catalog("sphere3").face_poset_bar()
    pairs = 0
    for b in g.vertex_ids():
        for a in g.vertex_ids():
            if g.le(a, b):
                assert g.first_maximal_chain(b, a) == g.maximal_chains(b, a)[0]
                pairs += 1
    assert pairs > len(g.vertex_ids())
    with pytest.raises(GraphError, match="not below"):
        g.first_maximal_chain(BOTTOM, g.vertex_ids()[-1])


def test_diamond_classes():
    g = catalog("simplex2").face_poset_bar()
    assert len(diamond_classes(g, "01", "0")) == 1  # single chain
    assert len(diamond_classes(g, "012", BOTTOM)) == 1
    ng = nonuniform_poset()
    assert len(diamond_classes(ng, "x", BOTTOM)) == 2


def test_open_interval_connected():
    g = catalog("simplex3").face_poset_bar()
    assert open_interval_connected(g, "0123", BOTTOM)
    assert open_interval_connected(g, "01", "0")  # empty
    # length 2: the edges 01 and 02 are incomparable, yet [0, 012] is one class
    assert not open_interval_connected(g, "012", "0")
    assert len(diamond_classes(g, "012", "0")) == 1
    ng = nonuniform_poset()
    assert not open_interval_connected(ng, "x", BOTTOM)
    with pytest.raises(GraphError, match="not below"):
        open_interval_connected(g, "0", "012")


def test_ranked_invariant_chain_lengths():
    for name in ("sphere2", "example_singular"):
        g = catalog(name).face_poset_bar()
        for x in g.vertex_ids():
            for chain in g.maximal_chains(x, BOTTOM):
                assert len(chain) == g.rank(x) + 1


def test_serialization_round_trip():
    g = catalog("example_singular").face_poset_hat()
    assert graph_from_dict(g.to_dict()) == g


def test_graph_from_dict_errors():
    with pytest.raises(GraphError, match="duplicate"):
        graph_from_dict({"vertices": [{"id": "a", "rank": 1}, {"id": "a", "rank": 1}], "covers": []})
    with pytest.raises(GraphError, match="rank"):
        graph_from_dict({"vertices": [{"id": "a", "rank": 0}], "covers": []})
    with pytest.raises(GraphError, match="reserved"):
        graph_from_dict({"vertices": [{"id": BOTTOM, "rank": 1}], "covers": []})
    with pytest.raises(GraphError, match="unknown vertex"):
        graph_from_dict({"vertices": [{"id": "a", "rank": 1}], "covers": [["a", "b"]]})
    with pytest.raises(GraphError, match="omitted"):
        graph_from_dict({"vertices": [{"id": "a", "rank": 1}], "covers": [["a", BOTTOM]]})
    with pytest.raises(GraphError, match="vertices"):
        graph_from_dict({"covers": []})
