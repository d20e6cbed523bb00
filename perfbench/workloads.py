"""The three workloads: seeded inputs and the fixed request list of each.

An input is (name, complex file, meta).  `meta` stays on the benchmark's side:
`kind` names the space (for its known cohomology), `facets` the simplicial
structure (for the link oracles), or None for a non-simplicial input.

Sizes and fields are fixed per workload; the seed only chooses vertex labels
and the shape of the grown complexes, so a pass costs about the same on every
seed while no two seeds share an input file.
"""

from __future__ import annotations

import random

import gen

FIELDS = ("q", "f2", "f3")


def _simplicial(rng, name, kind, facets):
    facets = gen.relabel(facets, rng)
    return name, gen.simplicial_file(name, facets), {"kind": kind, "facets": facets}


def _grown(rng, name, dim, facets, new_every):
    return _simplicial(rng, name, "grown", gen.grown(rng, dim, facets, new_every))


def _named(rng):
    """Fresh copies of the catalog complexes the paper discusses."""
    return [
        _simplicial(rng, "simplex4", "simplex4", gen.simplex(4)),
        _simplicial(rng, "sphere3", "sphere3", gen.sphere(3)),
        _simplicial(rng, "sphere4", "sphere4", gen.sphere(4)),
        _simplicial(rng, "rp2_six", "rp2", gen.RP2_SIX),
        ("example_singular", gen.example_singular_file(), {"kind": "singular", "facets": None}),
    ]


def hat_verdicts(seed: int):
    rng = random.Random(f"hat-verdicts/{seed}")
    inputs = _named(rng)
    for a, b in ((3, 3), (3, 4), (4, 4)):
        inputs.append(_simplicial(rng, f"torus{a}x{b}", "torus", gen.grid_surface(a, b, False)))
        inputs.append(_simplicial(rng, f"klein{a}x{b}", "klein", gen.grid_surface(a, b, True)))
    # grown complexes vary in cost with the seed: they stay out of the slowest
    # quarter, which the fixed-shape inputs above fill
    grown = [_grown(rng, f"grown2_{i}", 2, 14, 2) for i in range(8)]
    grown += [_grown(rng, f"grown3_{i}", 3, 5, 2) for i in range(4)]
    fields = {"simplex4": ("q", "f2"), "sphere4": ("f2",)}
    for i, (name, _, _) in enumerate(grown):
        fields[name] = (FIELDS[1 + i % 2],)
    requests = []
    for name, _, _ in inputs + grown:
        for field in fields.get(name, FIELDS):
            requests.append({
                "input": name,
                "check": "hat",
                "field": field,
                "argv": ["koszul", "{path}", "--poset", "hat", "--field", field,
                         "--exit-status", "--json"],
            })
    return inputs + grown, requests


def integral_tables(seed: int):
    rng = random.Random(f"integral-tables/{seed}")
    inputs = [
        _simplicial(rng, "sphere2", "sphere2", gen.sphere(2)),
        _simplicial(rng, "sphere3", "sphere3", gen.sphere(3)),
    ]
    for a, b in ((4, 5), (5, 5)):
        inputs.append(_simplicial(rng, f"torus{a}x{b}", "torus", gen.grid_surface(a, b, False)))
        inputs.append(_simplicial(rng, f"klein{a}x{b}", "klein", gen.grid_surface(a, b, True)))
    inputs += [_grown(rng, f"grown2_{i}", 2, 44, 2) for i in range(4)]
    inputs += [_grown(rng, f"grown3_{i}", 3, 16, 2) for i in range(4)]
    requests = []
    for name, _, _ in inputs:
        requests.append({"input": name, "check": "hx-integral", "field": "z",
                         "argv": ["hx", "{path}", "--integral", "--json"]})
        for field in ("f2", "f3"):
            requests.append({"input": name, "check": "hx-field", "field": field,
                             "argv": ["hx", "{path}", "--field", field, "--json"]})
    return inputs, requests


def small_requests(seed: int):
    rng = random.Random(f"small-requests/{seed}")
    named = _named(rng)
    inputs = [i for i in named if i[0] in ("rp2_six", "example_singular", "sphere3")]
    inputs.append(_simplicial(rng, "simplex3", "simplex3", gen.simplex(3)))
    inputs.append(_simplicial(rng, "torus3x3", "torus", gen.grid_surface(3, 3, False)))
    inputs += [_grown(rng, f"grown2_{i}", 2, 10, 2) for i in range(3)]
    inputs += [_grown(rng, f"grown3_{i}", 3, 4, 2) for i in range(2)]
    requests = []
    for i, (name, data, meta) in enumerate(inputs):
        field = FIELDS[i % 3]
        top = max(c["dim"] for c in data["cells"])
        tops = [c["id"] for c in data["cells"] if c["dim"] == top]
        requests.append({"input": name, "check": "validate", "argv": ["validate", "{path}", "--json"]})
        for f in FIELDS:
            requests.append({"input": name, "check": "koszul-bar", "field": f,
                             "argv": ["koszul", "{path}", "--poset", "bar", "--field", f, "--json"]})
        requests.append({"input": name, "check": "rdims", "field": field,
                         "argv": ["rdims", "{path}", "--poset", "bar", "--field", field, "--json"]})
        requests.append({"input": name, "check": "phi", "field": field,
                         "argv": ["phi-check", "{path}", "--field", field, "--json"]})
        requests.append({"input": name, "check": "ann", "field": field,
                         "argv": ["ann-check", "{path}", "--poset", "bar", "--vertex",
                                  rng.choice(tops), "--n", str(rng.randint(0, top)),
                                  "--field", field, "--json"]})
        requests.append({"input": name, "check": "cohomology", "field": field,
                         "argv": ["cohomology", "{path}", "--field", field, "--json"]})
        if meta["facets"] is not None:
            by_dim = {}
            for c in data["cells"]:
                by_dim.setdefault(c["dim"], []).append(c["id"])
            for d in range(top + 1):
                cell = rng.choice(by_dim[d])
                requests.append({"input": name, "check": "relative", "field": field, "cell": cell,
                                 "argv": ["relative", "{path}", "--cell", cell,
                                          "--field", field, "--json"]})
    return inputs, requests


WORKLOADS = {
    "hat-verdicts": hat_verdicts,
    "integral-tables": integral_tables,
    "small-requests": small_requests,
}
