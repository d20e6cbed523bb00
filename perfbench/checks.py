"""Checks of every request's output, against oracles.py or a property the
method must have.  None of them compares with a stored copy of an output.

`check(req, code, report, inp, results)` returns a list of problems, empty
when the output is right.  `inp` holds the input's file data, raw bytes and
meta; `results` maps each request's `key` to the parsed report of the
same run, for checks that compare two requests (universal coefficients).
"""

from __future__ import annotations

import hashlib

import oracles


def _hat(req, code, res, inp):
    problems = []
    p = oracles.PRIMES[req["field"]]
    koszul = res["koszul"]
    if code != (0 if koszul else 1):
        problems.append(f"exit status {code} does not match verdict koszul={koszul}")
    if bool(res["obstructions"]["bigraded"]) == koszul:
        problems.append("obstruction list does not match the verdict")
    facets = inp["meta"]["facets"]
    if facets is not None and koszul != oracles.reisner(facets, p):
        problems.append(f"verdict koszul={koszul} differs from Reisner's criterion")
    w = res["witness"]
    if (w is None) != koszul:
        return problems + [f"witness {w} does not match verdict koszul={koszul}"]
    if inp["meta"]["kind"] == "singular" and (koszul or (w["n"], w["k"]) != (2, 1)):
        problems.append(f"example_singular must be NOT KOSZUL with witness (2,1), got {w}")
    if not koszul:
        if w["vertex"] != "1bar":
            problems.append(f"witness vertex {w['vertex']!r}, expected '1bar'")
        if [w["n"], w["k"]] not in [o[:2] for o in res["obstructions"]["bigraded"]]:
            problems.append(f"witness ({w['n']},{w['k']}) is not a reported obstruction")
    return problems


def _column_zero(entries, d, value):
    return [value(entries[f"{n},0"]) for n in range(d + 1)]


def _hx_integral(req, res, inp):
    problems = []
    data, kind = inp["data"], inp["meta"]["kind"]
    d = max(c["dim"] for c in data["cells"])
    entries = res["entries"]
    want = {f"{n},{k}" for n in range(d + 1) for k in range(n + 1)}
    if set(entries) != want:
        return [f"table entries {sorted(entries)} do not cover 0 <= k <= n <= {d}"]
    free = _column_zero(entries, d, lambda e: e["free"])
    if free != oracles.cellular_dims(data, 0):
        problems.append(f"free ranks of column 0 {free} differ from the Betti numbers")
    chi = sum((-1) ** c["dim"] for c in data["cells"])
    if sum((-1) ** n * f for n, f in enumerate(free)) != chi:
        problems.append(f"Euler characteristic of column 0 differs from the cell count {chi}")
    known = oracles.KNOWN_COHOMOLOGY.get(kind)
    if known is not None:
        got = _column_zero(entries, d, lambda e: (e["free"], e["torsion"]))
        if got != [(f, t) for f, t in known]:
            problems.append(f"column 0 is {got}, the cohomology of a {kind} is {known}")
    return problems


def _hx_field(req, res, inp, integral):
    problems = []
    p = oracles.PRIMES[req["field"]]
    data = inp["data"]
    d = max(c["dim"] for c in data["cells"])
    entries = res["entries"]
    column = [entries[f"{n},0"] for n in range(d + 1)]
    if column != oracles.cellular_dims(data, p):
        problems.append(f"column 0 over {req['field']} {column} differs from the Betti numbers")
    if integral is None:
        return problems + ["no integral table of the same input to compare with"]
    for key, dim in entries.items():
        n, k = map(int, key.split(","))
        want = oracles.universal_coefficients(integral["entries"], n, k, p)
        if dim != want:
            problems.append(f"entry ({n},{k}) is {dim}, universal coefficients give {want}")
    return problems


def _small(req, res, inp):
    data, meta = inp["data"], inp["meta"]
    kind = req["check"]
    p = oracles.PRIMES.get(req.get("field"))
    if kind == "validate":
        counts = [sum(1 for c in data["cells"] if c["dim"] == d)
                  for d in range(max(c["dim"] for c in data["cells"]) + 1)]
        if res["violations"] or res["counts"] != counts:
            return [f"validate: violations {res['violations']}, counts {res['counts']} vs {counts}"]
    elif kind == "koszul-bar":
        if not res["koszul"] or res["witness"] is not None:
            return ["a bar poset must be Koszul"]
    elif kind == "rdims":
        dims = res["dims"]
        if dims[0] != len(data["cells"]) or dims[-1] != 0:
            return [f"rdims {dims}: degree 1 must count {len(data['cells'])} generators, the last 0"]
    elif kind == "phi":
        if not res["bijective"] or not all(b["ok"] for b in res["bidegrees"]):
            return ["the signed path map must be bijective in every bidegree"]
    elif kind == "ann":
        if not res["holds"]:
            return ["the annihilator identity must hold on a bar poset"]
    elif kind == "cohomology":
        if res["dims"] != oracles.cellular_dims(data, p):
            return [f"cohomology {res['dims']} differs from the Betti numbers"]
    elif kind == "relative":
        sigma = tuple(int(v) for v in req["cell"][1:].split("-"))
        want = oracles.relative_dims(meta["facets"], sigma, p)
        if res["dims"] != want:
            return [f"relative to {req['cell']}: {res['dims']}, the link gives {want}"]
    else:
        return [f"no check named {kind!r}"]
    return []


def expected_codes(req) -> tuple[int, ...]:
    """Exit codes of a completed request; `koszul --exit-status` maps its verdict to 0/1."""
    return (0, 1) if req["check"] == "hat" else (0,)


def key(req) -> tuple:
    return req["input"], req["check"], req.get("field"), req.get("cell")


def check(req, code, report, inp, results) -> list[str]:
    """Problems with the output of a request that exited with an expected code."""
    if report["input"]["sha256"] != hashlib.sha256(inp["raw"]).hexdigest():
        return ["reported sha256 is not the sha256 of the input file"]
    res = report["result"]
    if req["check"] == "hat":
        return _hat(req, code, res, inp)
    if req["check"] == "hx-integral":
        return _hx_integral(req, res, inp)
    if req["check"] == "hx-field":
        integral = results.get((req["input"], "hx-integral", "z", None))
        return _hx_field(req, res, inp, integral and integral["result"])
    return _small(req, res, inp)
