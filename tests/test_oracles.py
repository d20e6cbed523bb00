"""Independent brute-force oracles for the quotient presentations.

The production code presents each graded component as a sum of head blocks,
each a quotient of the blocks below it; the tests' reference presents it on
path words.  Here the same dimensions are recomputed from first principles:
the full tensor power on all generators, with every two-sided padding of the
quadratic relations rowed up, and nothing assumed about which words survive.
Both presentations must match these dimensions.
"""

import itertools

from cwkoszul.catalog import catalog
from cwkoszul.dualalg import graded_dims, koszul_decide, whole_graph_criterion
from cwkoszul.layered import LayeredGraph
from cwkoszul.linalg import GF, QQ, rank

from helpers import (
    edge_poset,
    matrix_from_rows,
    nonuniform_poset,
    path_graded_component,
    random_uniform_graphs,
)


def brute_force_graded_dim(g: LayeredGraph, m: int, field) -> int:
    """Dimension of the degree-m component, straight from the presentation."""
    gens = g.vertex_ids(skip_bottom=True)
    if m == 0:
        return 1
    words = list(itertools.product(gens, repeat=m))
    index = {w: i for i, w in enumerate(words)}
    quad: list[dict] = []
    for x in gens:
        for y in gens:
            if (x, y) not in g.covers:
                quad.append({(x, y): field.one})
        covs = [c for c in g.lower_covers(x) if g.rank(c) >= 1]
        if covs:
            quad.append({(x, c): field.one for c in covs})
    rows = []
    for i in range(m - 1):
        for rel in quad:
            for prefix in itertools.product(gens, repeat=i):
                for suffix in itertools.product(gens, repeat=m - i - 2):
                    rows.append({
                        index[prefix + pair + suffix]: v for pair, v in rel.items()
                    })
    mat = matrix_from_rows(rows, len(words), field)
    return len(words) - rank(mat)


def test_brute_force_matches_path_word_presentation():
    graphs = [
        catalog("point").face_poset_bar(),
        edge_poset(),
        nonuniform_poset(),
        catalog("sphere1").face_poset_bar(),
        catalog("simplex2").face_poset_bar(),
    ]
    for g in graphs:
        for field in (QQ, GF(2)):
            dims = [1] + graded_dims(g, field, up_to=3)
            for m in range(4):
                expected = brute_force_graded_dim(g, m, field)
                got = path_graded_component(g, m, field).dim
                assert got == expected, (g.name, m, field.key)
                assert dims[m] == expected, (g.name, m, field.key)


def test_brute_force_on_random_uniform_graphs():
    for g in random_uniform_graphs(6, seed=99):
        dims = [1] + graded_dims(g, QQ, up_to=3)
        for m in range(4):
            expected = brute_force_graded_dim(g, m, QQ)
            assert path_graded_component(g, m, QQ).dim == expected, (g.name, m)
            assert dims[m] == expected, (g.name, m)


def test_decision_stable_across_large_prime_field():
    # characteristic far from any invariant factor: same verdicts as over Q
    f = GF(101)
    g = catalog("example_singular").face_poset_hat()
    v = koszul_decide(g, f)
    assert not v.koszul and (v.witness.n, v.witness.k) == (2, 1)
    assert koszul_decide(catalog("rp2_six").face_poset_hat(), f).koszul


def test_whole_graph_criterion_scope():
    # on graphs with a unique maximal vertex the whole-graph vanishing
    # criterion coincides with the vertexwise decision ...
    for name in ("simplex2", "simplex3"):
        g = catalog(name).face_poset_bar()
        assert whole_graph_criterion(g, QQ) is koszul_decide(g, QQ).koszul is True
    gh = catalog("example_singular").face_poset_hat()
    assert whole_graph_criterion(gh, QQ) is koszul_decide(gh, QQ).koszul is False
    # ... but with several maximal vertices the top head degree of the whole
    # graph carries the space's own top cohomology and may be nonzero even
    # though the algebra is Koszul; verdicts never rely on this criterion
    g = catalog("sphere2").face_poset_bar()
    assert koszul_decide(g, QQ).koszul
    assert whole_graph_criterion(g, QQ) is False
