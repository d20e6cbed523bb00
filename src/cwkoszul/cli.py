"""Command-line interface: validation, posets, cohomology tables, Koszulity.

Inputs are complex/graph JSON files or `catalog:<name>` pseudo-paths.  Every
command accepts --json for a machine-readable report; human output is aligned
plain text.

`COMMANDS` is the one table of subcommands.  A row gives the help line, the
runner, what the positional input is read as (a complex, a graph, a complex
with its validation report, or none for `catalog`), whether the command
takes `--field` (default q) and `--poset`, and its own options;
`build_parser` builds every subparser from it.  Before the runner, `main`
reads the input, parses the field and builds the poset, in that order, and
passes them on; the runner returns (report dict, human lines, exit code).

`main` is also the one map onto exit codes: 0 success, 2 `InputError` (bad
file, schema or validation), 3 `HypothesisFailure` (impure complex,
non-uniform graph, torsion), 4 anything else, an internal fault, with the
traceback on stderr.  So an error raised after the input was read never
reads as an input error.  `koszul --exit-status` maps the verdict itself
onto 0/1.

Importing this module loads only `cw` and `layered`; each command imports
the layers it runs when it runs.  `validate` and `poset` need nothing more;
`cohomology`, `relative` and `hx` add `linalg` and `bigraded`; `koszul --poset
bar`, `koszul-graph`, `rdims` and `ann-check` add `linalg` and `dualalg`;
`koszul --poset hat` and `phi-check` add all three; the `catalog` command and
`catalog:` inputs add `catalog`.  In a long-lived process the first call of a
command pays its imports once.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from collections import namedtuple
from json.encoder import encode_basestring_ascii
from . import __version__
from .cw import ComplexError, RegularCWComplex, complex_from_dict
from .layered import BOTTOM, TOP, GraphError, LayeredGraph, NotUniformError, graph_from_dict


class InputError(Exception):
    """Bad file, schema violation, or failed validation: exit code 2."""


class HypothesisFailure(Exception):
    """A structural hypothesis of the requested computation fails: exit code 3."""


def _field(spec: str):
    from .linalg import field_from_spec

    try:
        return field_from_spec(spec)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _canonical_json(obj) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True) + "\\n"`, byte for byte.

    With `indent` set, `json.dumps` runs its pure-Python encoder; this writer
    covers only what reports hold: dicts with str keys, lists, str, bool,
    int and None.  Anything else raises TypeError.
    """
    parts: list[str] = []
    _write_json(obj, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


def _write_json(obj, newline: str, out) -> None:
    """Write obj at the indentation that `newline` (a newline and spaces) ends in."""
    if isinstance(obj, str):
        out(encode_basestring_ascii(obj))
    elif isinstance(obj, dict):
        if not obj:
            out("{}")
            return
        inner, sep = newline + "  ", "{"
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, not {type(key).__name__}")
            out(sep + inner + encode_basestring_ascii(key) + ": ")
            _write_json(obj[key], inner, out)
            sep = ","
        out(newline + "}")
    elif isinstance(obj, list):
        if not obj:
            out("[]")
            return
        inner, sep = newline + "  ", "["
        for item in obj:
            out(sep + inner)
            _write_json(item, inner, out)
            sep = ","
        out(newline + "]")
    elif obj is None:
        out("null")
    elif isinstance(obj, bool):
        out("true" if obj else "false")
    elif isinstance(obj, int):
        out(int.__repr__(obj))
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _read_json(spec: str) -> tuple[object, bytes]:
    """The parsed content of a JSON file and its raw bytes."""
    try:
        with open(spec, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {spec!r}: {exc}") from None
    try:
        return json.loads(raw.decode("utf-8")), raw
    # bad UTF-8 or JSON, nesting too deep to parse, or an int too long to convert
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{spec!r} is not valid UTF-8 JSON: {exc}") from None


def _read_complex(spec: str) -> tuple[RegularCWComplex, dict, list[str]]:
    """A complex, its provenance and its validation report.

    Catalog entries are built valid and are not validated again.
    """
    if spec.startswith("catalog:"):
        from .catalog import catalog

        name = spec[len("catalog:"):]
        try:
            x = catalog(name)
        except ComplexError as exc:
            raise InputError(str(exc)) from None
        digest = _sha256(_canonical_json(x.to_dict()).encode())
        return x, {"source": spec, "sha256": digest}, []
    data, raw = _read_json(spec)
    try:
        x = complex_from_dict(data)
    except ComplexError as exc:
        raise InputError(f"{spec!r}: {exc}") from None
    return x, {"source": spec, "sha256": _sha256(raw)}, x.validate()


def load_complex(spec: str) -> tuple[RegularCWComplex, dict]:
    x, prov, report = _read_complex(spec)
    if report:
        raise InputError(f"{spec!r} fails validation: " + "; ".join(report))
    return x, prov


def load_graph(spec: str) -> tuple[LayeredGraph, dict]:
    data, raw = _read_json(spec)
    try:
        g = graph_from_dict(data)
    except GraphError as exc:
        raise InputError(f"{spec!r}: {exc}") from None
    return g, {"source": spec, "sha256": _sha256(raw)}


def _poset_of(x: RegularCWComplex, which: str) -> LayeredGraph:
    if which == "bar":
        return x.face_poset_bar()
    try:
        return x.face_poset_hat()
    except ComplexError as exc:
        raise HypothesisFailure(str(exc)) from None


def _fmt_group(entry) -> str:
    free, torsion = entry
    parts = []
    if free == 1:
        parts.append("Z")
    elif free > 1:
        parts.append(f"Z^{free}")
    parts.extend(f"Z/{t}" for t in torsion)
    return "+".join(parts) if parts else "0"


def _witness_json(witness) -> dict | None:
    if witness is None:
        return None
    return {
        "vertex": witness.vertex,
        "n": witness.n,
        "k": witness.k,
        "cocycle": [
            {"word": ">".join(word), "coeff": str(c)} for word, c in witness.cocycle
        ],
    }


def _report(command: str, provenance: dict, params: dict, result: dict) -> dict:
    return {
        "tool": {"name": "cwkoszul", "version": __version__},
        "command": command,
        "input": provenance,
        "params": params,
        "result": result,
    }


def _table_lines(title: str, dim: int, cell) -> list[str]:
    lines = [title]
    width = max(6, max(len(cell(n, k)) for n in range(dim + 1) for k in range(n + 1)) + 2)
    header = "  n\\k" + "".join(f"{k:>{width}}" for k in range(dim + 1))
    lines.append(header)
    for n in range(dim + 1):
        row = f"{n:>5}" + "".join(f"{cell(n, k):>{width}}" for k in range(n + 1))
        lines.append(row)
    return lines


# ---------------------------------------------------------------------------
# runners: each takes the parsed arguments, then what its row of COMMANDS
# reads and builds (the loader's values, the field, the poset), and returns
# (report dict, human lines, exit code)


def _cmd_validate(args, x, prov, report):
    result = {"name": x.name, "counts": list(x.counts()), "violations": report}
    lines = [f"complex {x.name!r}: cells by dimension {x.counts()}"]
    if report:
        lines.append("violations:")
        lines.extend(f"  - {v}" for v in report)
    else:
        lines.append("no violations found")
    return _report("validate", prov, {}, result), lines, (2 if report else 0)


def _cmd_poset(args, x, prov):
    g = _poset_of(x, "hat" if args.hat else "bar")
    data = g.to_dict()
    lines = [f"poset of {x.name!r} ({'hat' if args.hat else 'bar'}), implicit minimum omitted"]
    for r in range(1, g.max_rank + 1):
        lines.append(f"rank {r}: " + " ".join(g.at_rank(r)))
    lines.append("covers:")
    for u, l in sorted(p for p in g.covers if p[1] != BOTTOM):
        lines.append(f"  {u} > {l}")
    return data, lines, 0


def _cmd_cohomology(args, x, prov, field):
    from .bigraded import cellular_cohomology

    dims = cellular_cohomology(x, field)
    result = {"name": x.name, "field": field.key, "dims": dims}
    lines = [f"cellular cohomology of {x.name!r} over {field.key}"]
    lines += [f"  H^{n} dim {d}" for n, d in enumerate(dims)]
    return _report("cohomology", prov, {"field": field.key}, result), lines, 0


def _cmd_relative(args, x, prov, field):
    from .bigraded import relative_cohomology

    if args.cell not in x:
        raise InputError(f"unknown cell {args.cell!r}")
    dims = relative_cohomology(x, args.cell, field)
    result = {"name": x.name, "cell": args.cell, "field": field.key, "dims": dims}
    lines = [f"cohomology of {x.name!r} relative to the complement star of {args.cell!r} over {field.key}"]
    lines += [f"  H^{n} dim {d}" for n, d in enumerate(dims)]
    return _report("relative", prov, {"cell": args.cell, "field": field.key}, result), lines, 0


def _cmd_hx(args, x, prov):
    from .bigraded import hx_table
    from .linalg import ZZ, TorsionError

    if args.integral:
        if args.field is not None:
            raise InputError("choose either --field or --integral, not both")
        ring = ZZ
    else:
        ring = _field(args.field or "q")
    try:
        table = hx_table(x, ring)
    except TorsionError as exc:
        # a pair quotient over Z with torsion has no free coordinates
        raise HypothesisFailure(str(exc)) from None
    if args.integral:
        entries = {
            f"{n},{k}": {"free": e[0], "torsion": list(e[1])}
            for (n, k), e in table.entries.items()
        }
        cell = lambda n, k: _fmt_group(table.entry(n, k))
        title = f"bigraded pair cohomology of {x.name!r} over Z (rows n, cols k)"
    else:
        entries = {f"{n},{k}": e for (n, k), e in table.entries.items()}
        cell = lambda n, k: str(table.entry(n, k))
        title = f"bigraded pair cohomology dims of {x.name!r} over {ring.key} (rows n, cols k)"
    result = {"name": x.name, "coefficients": table.coeff, "entries": entries}
    lines = _table_lines(title, table.dim, cell)
    return _report("hx", prov, {"coefficients": ring.key}, result), lines, 0


def _cmd_rdims(args, x, prov, field, g):
    from .dualalg import graded_dims

    dims = graded_dims(g, field)
    result = {"name": x.name, "poset": args.poset, "field": field.key, "dims": dims}
    lines = [f"graded dimensions of the dual algebra of the {args.poset} poset of {x.name!r} over {field.key}"]
    lines += [f"  degree {m}: {d}" for m, d in enumerate(dims, start=1)]
    return _report("rdims", prov, {"poset": args.poset, "field": field.key}, result), lines, 0


def _cmd_koszul(args, src, prov, field, poset=None):
    """`koszul` on the face poset of the complex `src`, or `koszul-graph` on the graph `src`."""
    from .dualalg import HeadBlocks, koszul_decide, whole_graph_criterion

    g = src if poset is None else poset
    # the decision and the whole-graph criterion share one head-block store
    blocks = HeadBlocks(g, field)
    try:
        verdict = koszul_decide(g, field, blocks)
    except NotUniformError as exc:
        raise HypothesisFailure(str(exc)) from None
    extra = {}
    if args.check_remark39:
        whole = whole_graph_criterion(g, field, blocks)
        extra = {"whole_graph_criterion": whole, "agrees": whole == verdict.koszul}
    del blocks  # freed before the topological route builds its layers
    if poset is None:
        lines, params = [f"dual algebra of graph {g.name!r}"], {"field": field.key}
    else:
        # every bar interval and every hat interval below the maximum is the face
        # poset of a regular CW cell with a minimum, hence Koszul (Serconek-Wilson;
        # Piontkovski): a witness there is a fault, never a verdict
        if not verdict.koszul and (args.poset == "bar" or verdict.witness.vertex != TOP):
            raise AssertionError(
                f"internal error: the interval below {verdict.witness.vertex!r} of the "
                f"{args.poset} poset of a valid complex fails Koszulity"
            )
        lines = [f"dual algebra of the {args.poset} poset of {src.name!r}"]
        params = {"poset": args.poset, "field": field.key}
    result = {
        "graph": verdict.graph_name,
        "field": verdict.field_key,
        "koszul": verdict.koszul,
        "witness": _witness_json(verdict.witness),
        "checked": [
            {"vertex": v, "rank": r, "ok": ok} for v, r, ok in verdict.checked
        ],
        **extra,
    }
    lines.append(f"verdict: {'KOSZUL' if verdict.koszul else 'NOT KOSZUL'} over {verdict.field_key}")
    if verdict.witness:
        w = verdict.witness
        lines.append(f"witness: vertex {w.vertex}, bidegree (n,k) = ({w.n},{w.k})")
        terms = "  ".join(f"{c} * {'>'.join(word)}" for word, c in w.cocycle)
        lines.append(f"  cocycle: {terms}")
    ok = sum(1 for _, _, good in verdict.checked if good)
    lines.append(f"checked vertices: {len(verdict.checked)} ({ok} passed)")
    if extra:
        lines.append(
            f"whole-graph criterion: {extra['whole_graph_criterion']} "
            f"(agrees: {extra['agrees']})"
        )
    if poset is not None and args.poset == "hat":
        from .bigraded import koszul_obstructions

        # the topological route must agree with the vertexwise decision
        report = koszul_obstructions(src, field)
        if report.empty != verdict.koszul:
            raise AssertionError(
                "internal error: topological and algebraic Koszulity routes disagree"
            )
        w = verdict.witness
        if w and (w.n, w.k) not in {(n, k) for n, k, _ in report.bigraded}:
            raise AssertionError(
                f"internal error: the witness bidegree ({w.n},{w.k}) is not among "
                "the bigraded obstructions"
            )
        result["obstructions"] = {
            "bigraded": [list(t) for t in report.bigraded],
            "cohomology": [list(t) for t in report.cohomology],
            "relative": [list(t) for t in report.relative],
        }
        for label, entries in (
            ("obstructions (n,k,dim)", report.bigraded),
            ("cohomology (n,dim)", report.cohomology),
            ("relative witnesses (cell,n,dim)", report.relative),
        ):
            if entries:
                lines.append(f"{label}: " + ", ".join(f"({','.join(map(str, t))})" for t in entries))
    code = 1 if args.exit_status and not verdict.koszul else 0
    return _report(args.cmd, prov, params, result), lines, code


def _cmd_ann_check(args, x, prov, field, g):
    from .dualalg import annihilator_check

    if args.vertex not in g or args.vertex == BOTTOM:
        raise InputError(f"unknown vertex {args.vertex!r}")
    if not 0 <= args.n <= g.rank(args.vertex):
        raise InputError(
            f"depth {args.n} outside 0..{g.rank(args.vertex)} for vertex {args.vertex!r}"
        )
    holds = annihilator_check(g, field, args.vertex, args.n)
    result = {
        "graph": g.name,
        "vertex": args.vertex,
        "n": args.n,
        "field": field.key,
        "holds": holds,
    }
    lines = [
        f"annihilator identity at vertex {args.vertex!r}, depth {args.n}, "
        f"over {field.key}: {'holds' if holds else 'FAILS'}"
    ]
    params = {"poset": args.poset, "vertex": args.vertex, "n": args.n, "field": field.key}
    return _report("ann-check", prov, params, result), lines, 0


def _cmd_phi_check(args, x, prov, field):
    from .dualalg import comparison_iso_check

    ok, details = comparison_iso_check(x, field)
    result = {
        "name": x.name,
        "field": field.key,
        "bijective": ok,
        "bidegrees": [
            {"n": n, "k": k, "pair_dim": a, "word_dim": b, "ok": good}
            for n, k, a, b, good in details
        ],
    }
    lines = [f"signed path map on {x.name!r} over {field.key}: "
             f"{'bijective in every bidegree' if ok else 'NOT bijective'}"]
    for n, k, a, b, good in details:
        lines.append(f"  (n,k)=({n},{k}): pair dim {a}, word dim {b}, {'ok' if good else 'MISMATCH'}")
    return _report("phi-check", prov, {"field": field.key}, result), lines, 0


def _cmd_catalog(args):
    from .catalog import catalog, catalog_names

    if args.action == "list":
        names = catalog_names()
        return {"catalog": names}, names, 0
    if not args.name:
        raise InputError("catalog emit requires a name")
    try:
        x = catalog(args.name)
    except ComplexError as exc:
        raise InputError(str(exc)) from None
    data = x.to_dict()
    return data, _canonical_json(data).rstrip("\n").split("\n"), 0


def _opt(*flags, **kwargs):
    """One `add_argument` call of a command's own options."""
    return flags, kwargs


# what a command reads from its positional input; each reader calls its loader
# through this module's globals, so a wrapper set on `load_complex` is called
_READERS = {
    "complex": lambda spec: load_complex(spec),
    "graph": lambda spec: load_graph(spec),
    "report": lambda spec: _read_complex(spec),  # violations listed, not refused
}

Command = namedtuple("Command", "help run reads field poset options",
                     defaults=("complex", True, False, ()))

_VERDICT_OPTIONS = (
    _opt("--exit-status", action="store_true", help="exit 0 when Koszul, 1 when not"),
    _opt("--check-remark39", action="store_true",
         help="also report the whole-graph vanishing criterion"),
)

COMMANDS = {
    "validate": Command("validate a complex file", _cmd_validate, "report", field=False),
    "poset": Command("emit the face poset as a graph file", _cmd_poset, field=False, options=(
        _opt("--hat", action="store_true", help="extend with a maximum"),)),
    "cohomology": Command("cellular cohomology dimensions", _cmd_cohomology),
    "relative": Command("cohomology relative to a complement star", _cmd_relative,
                        options=(_opt("--cell", required=True),)),
    # --field has no default here: it may not be combined with --integral
    "hx": Command("bigraded pair cohomology table", _cmd_hx, field=False, options=(
        _opt("--field", default=None),
        _opt("--integral", action="store_true", help="compute over Z"))),
    "koszul": Command("decide Koszulity of a face-poset dual algebra", _cmd_koszul,
                      poset=True, options=_VERDICT_OPTIONS),
    "koszul-graph": Command("decide Koszulity from a graph file", _cmd_koszul, "graph",
                            options=_VERDICT_OPTIONS),
    "rdims": Command("graded dimensions of the dual algebra", _cmd_rdims, poset=True),
    "ann-check": Command("annihilator identity at one vertex and depth", _cmd_ann_check,
                         poset=True, options=(_opt("--vertex", required=True),
                                              _opt("--n", type=int, required=True))),
    "phi-check": Command("bijectivity of the signed path map", _cmd_phi_check),
    "catalog": Command("list or emit built-in complexes", _cmd_catalog, None, field=False,
                       options=(_opt("action", choices=["list", "emit"]), _opt("name", nargs="?"))),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    p = argparse.ArgumentParser(
        prog="cwkoszul",
        description="Koszulity of layered-graph dual algebras from regular CW complexes",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    sub = p.add_subparsers(dest="cmd", required=True)
    for name, cmd in COMMANDS.items():
        sp = sub.add_parser(name, help=cmd.help)
        # accepted in either position; SUPPRESS keeps the top-level value
        sp.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="machine-readable output")
        if cmd.reads:
            sp.add_argument("input")
        if cmd.field:
            sp.add_argument("--field", default="q")
        if cmd.poset:
            sp.add_argument("--poset", choices=["bar", "hat"], default="bar")
        for flags, kwargs in cmd.options:
            sp.add_argument(*flags, **kwargs)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cmd = COMMANDS[args.cmd]
    try:
        inputs = [*_READERS[cmd.reads](args.input)] if cmd.reads else []
        if cmd.field:
            inputs.append(_field(args.field))
        if cmd.poset:
            inputs.append(_poset_of(inputs[0], args.poset))
        report, lines, code = cmd.run(args, *inputs)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HypothesisFailure as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return 3
    except Exception:
        # a failed internal check must never read as a verdict or an input error;
        # traceback is imported here to keep it off the start-up path
        import traceback

        traceback.print_exc()
        print("internal error: the traceback above locates the fault", file=sys.stderr)
        return 4
    if args.json:
        sys.stdout.write(_canonical_json(report))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
