"""Structural properties checked on random graphs and catalog complexes."""

import random

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from cwkoszul.bigraded import reduced_layers
from cwkoszul.catalog import catalog, catalog_names
from cwkoszul.layered import BOTTOM, graph_from_dict
from cwkoszul.linalg import QQ, ZZ, cochain_cohomology

from helpers import (
    below,
    diamond_classes,
    down_up_sequence,
    is_thin,
    matmul,
    open_interval_connected,
    pair_layers,
    path_block_component,
    path_graded_component,
    path_word_complex,
    path_words,
    random_layered_graph,
    random_uniform_graphs,
    reduced_chain,
    up_down_sequence,
)

SMALL_CATALOG = ("point", "simplex2", "sphere1", "sphere2", "rp2_six",
                 "example_singular", "three_triangles_shared_edge")


@st.composite
def layered_graphs(draw):
    seed = draw(st.integers(0, 10**6))
    return random_layered_graph(random.Random(seed))


@given(layered_graphs())
@settings(max_examples=40, deadline=None)
def test_random_graph_chain_lengths(g):
    for x in g.vertex_ids():
        for chain in g.maximal_chains(x, BOTTOM):
            assert len(chain) == g.rank(x) + 1
        assert g.sphere(x, 0) == (x,)
        if g.rank(x) >= 1:
            assert g.sphere(x, g.rank(x)) == (BOTTOM,)


@given(layered_graphs())
@settings(max_examples=40, deadline=None)
def test_random_graph_serialization_round_trip(g):
    assert graph_from_dict(g.to_dict()) == g


@given(layered_graphs())
@settings(max_examples=40, deadline=None)
def test_random_graph_diamond_partition(g):
    for x in g.vertex_ids():
        chains = g.maximal_chains(x, BOTTOM)
        classes = diamond_classes(g, x, BOTTOM)
        assert sorted(c for cls in classes for c in cls) == sorted(chains)


@given(st.one_of(layered_graphs(),
                 st.integers(0, 10**6).map(lambda seed: random_uniform_graphs(1, seed)[0])))
@example(random_layered_graph(random.Random(5)))  # 3 disconnected, 6 split
@settings(max_examples=200, deadline=None)
def test_open_interval_connectivity_against_diamond_classes(g):
    long = [(a, b) for b in g.vertex_ids() for a in g.strictly_below(b)
            if g.rank(b) - g.rank(a) >= 3]
    disconnected = {(a, b) for a, b in long if not open_interval_connected(g, b, a)}
    split = {(a, b) for a, b in long if len(diamond_classes(g, b, a)) > 1}
    # each disconnected one splits; some splits iff some is disconnected
    assert disconnected <= split
    assert bool(disconnected) == bool(split)
    for a, b in split:
        assert any(g.le(a, c) and g.le(d, b) for c, d in disconnected), (g.name, a, b)


@given(layered_graphs())
@settings(max_examples=30, deadline=None)
def test_uniform_iff_every_interval_uniform(g):
    whole = g.is_uniform()[0]
    intervals = all(below(g, x).is_uniform()[0] for x in g.vertex_ids())
    assert whole == intervals


@given(layered_graphs())
@settings(max_examples=25, deadline=None)
def test_word_components_block_diagonal(g):
    for m in range(1, g.max_rank + 1):
        comp = path_graded_component(g, m, QQ)
        blocks = [path_block_component(g, m, r, QQ) for r in range(1, g.max_rank + 1)]
        assert comp.dim == sum(b.dim for b in blocks)
        assert sorted(comp.labels()) == sorted(w for b in blocks for w in b.labels())


@pytest.mark.parametrize("seed", [7, 8])
def test_uniform_random_graphs_connectivity(seed):
    # within each interval of a uniform graph, same-rank vertices are linked
    # by both shared-lower-cover and shared-upper-cover sequences
    for g in random_uniform_graphs(5, seed):
        for x in g.vertex_ids():
            sub = below(g, x)
            for r in range(1, sub.max_rank + 1):
                layer = sub.at_rank(r)
                for a in layer:
                    assert down_up_sequence(sub, layer[0], a) is not None
                    assert up_down_sequence(sub, layer[0], a) is not None


def test_uniform_random_graphs_word_complex_squares_to_zero():
    for g in random_uniform_graphs(10, seed=21):
        for k in range(g.max_rank):
            wc = path_word_complex(g, k, QQ)
            dims, mats = wc.chain()
            homs = cochain_cohomology(dims, mats, QQ)  # raises if d*d != 0
            euler_spaces = sum((-1) ** i * d for i, d in enumerate(dims))
            euler_homs = sum((-1) ** i * h for i, (h, _) in enumerate(homs))
            assert euler_spaces == euler_homs


@pytest.mark.parametrize("name", SMALL_CATALOG)
def test_layer_differentials_interchange(name):
    x = catalog(name)
    layers = pair_layers(x, ZZ)
    for k in range(1, x.dim + 1):
        for n in sorted(layers[k].bases)[:-1]:
            left = matmul(layers[k - 1].d_up[n], layers[k].d_down[n])
            right = matmul(layers[k].d_down[n + 1], layers[k].d_up[n])
            assert left == right, (name, n, k)


@pytest.mark.parametrize("name", SMALL_CATALOG)
def test_reduced_layer_euler_identity(name):
    x = catalog(name)
    for layer in reduced_layers(x, QQ):
        dims, mats = reduced_chain(layer)
        homs = cochain_cohomology(dims, mats, QQ)
        assert sum((-1) ** i * d for i, d in enumerate(dims)) == sum(
            (-1) ** i * h for i, (h, _) in enumerate(homs)
        )


@pytest.mark.parametrize("name", SMALL_CATALOG)
def test_word_count_matches_flag_count(name):
    # ambient word counts of the face poset: descending cell flags
    x = catalog(name)
    g = x.face_poset_bar()
    for m in (2, 3):
        count = 0
        for c in x.cells():
            count += _flags_below(x, c, m - 1)
        assert len(path_words(g, m)) == count


def _flags_below(x, c, steps):
    if steps == 0:
        return 1
    return sum(_flags_below(x, f, steps - 1) for f in x.faces(c))


def test_catalog_posets_thin():
    for name in catalog_names():
        assert is_thin(catalog(name).face_poset_bar())[0], name
