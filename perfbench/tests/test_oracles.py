"""The benchmark's oracles on cases whose answers are known."""

import gen
import oracles


def test_reisner_spheres_are_cohen_macaulay():
    for n in (1, 2, 3):
        for p in (0, 2, 3):
            assert oracles.reisner(gen.sphere(n), p)


def test_reisner_torus_and_klein_bottle_are_not():
    for twisted in (False, True):
        for p in (0, 2, 3):
            assert not oracles.reisner(gen.grid_surface(3, 3, twisted), p)


def test_reisner_projective_plane_depends_on_the_field():
    assert not oracles.reisner(gen.RP2_SIX, 2)
    assert oracles.reisner(gen.RP2_SIX, 3)
    assert oracles.reisner(gen.RP2_SIX, 0)


def test_reisner_sees_a_pinch():
    # two triangles sharing only a vertex: the link of that vertex is disconnected
    assert not oracles.reisner([(1, 2, 3), (1, 4, 5)], 0)


def test_cellular_dims_of_named_spaces():
    klein = gen.simplicial_file("k", gen.grid_surface(4, 5, True))
    assert oracles.cellular_dims(klein, 0) == [1, 1, 0]
    assert oracles.cellular_dims(klein, 2) == [1, 2, 1]
    assert oracles.cellular_dims(klein, 3) == [1, 1, 0]
    torus = gen.simplicial_file("t", gen.grid_surface(3, 4, False))
    assert oracles.cellular_dims(torus, 0) == [1, 2, 1]
    assert oracles.cellular_dims(gen.example_singular_file(), 0) == [1, 0, 0, 0]


def test_universal_coefficients_on_a_klein_bottle():
    known = oracles.KNOWN_COHOMOLOGY["klein"]
    integral = {f"{n},0": {"free": f, "torsion": t} for n, (f, t) in enumerate(known)}
    klein = gen.simplicial_file("k", gen.grid_surface(3, 4, True))
    for p in (2, 3):
        predicted = [oracles.universal_coefficients(integral, n, 0, p) for n in range(3)]
        assert predicted == oracles.cellular_dims(klein, p)


def test_relative_dims_from_links():
    disk = gen.simplex(2)
    assert oracles.relative_dims(disk, (0, 1, 2), 0) == [0, 0, 1]  # facet: empty link
    assert oracles.relative_dims(disk, (0,), 0) == [0, 0, 0]  # boundary vertex
    s2 = gen.sphere(2)
    assert oracles.relative_dims(s2, (0,), 2) == [0, 0, 1]  # link is a circle


def test_rank_over_q_and_fp():
    rows = [{0: 2, 1: 2}, {0: 1, 1: 1}, {2: 3}]
    assert oracles.rank(rows, 0) == 2
    assert oracles.rank(rows, 2) == 2  # the first row vanishes
    assert oracles.rank(rows, 3) == 1  # the last row vanishes
