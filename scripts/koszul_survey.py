#!/usr/bin/env python3
"""Survey Koszulity of the catalog complexes over several fields.

For each built-in complex the script decides Koszulity of the dual algebras of
both face posets (with and without the added maximum) over Q, F2 and F3, and
prints the witness bidegree whenever a poset fails, next to the time of each
decision in milliseconds (`time.perf_counter`).

Usage:
    python scripts/koszul_survey.py [--field q|f2|f3|fp:P ...]
"""

import argparse
import sys
import time

from cwkoszul import catalog, catalog_names, field_from_spec, koszul_decide
from cwkoszul.cw import ComplexError
from cwkoszul.layered import GraphError


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--field", action="append", default=None,
                        help="field selector, repeatable (default: q f2 f3)")
    args = parser.parse_args(argv)
    fields = [field_from_spec(f) for f in (args.field or ["q", "f2", "f3"])]

    header = f"{'complex':32s} {'poset':5s} " + " ".join(f"{f.key:>12s}" for f in fields)
    print(header)
    print("-" * len(header))
    for name in catalog_names():
        x = catalog(name)
        for which in ("bar", "hat"):
            cells = []
            for field in fields:
                t0 = time.perf_counter()
                try:
                    g = x.face_poset_bar() if which == "bar" else x.face_poset_hat()
                    verdict = koszul_decide(g, field)
                except (ComplexError, GraphError):
                    cells.append(f"{'n/a':>12s}")
                    continue
                ms = (time.perf_counter() - t0) * 1000
                if verdict.koszul:
                    cells.append(f"{'yes':>5s} {ms:5.0f}ms")
                else:
                    w = verdict.witness
                    cells.append(f"({w.n},{w.k}) {ms:5.0f}ms")
            print(f"{name:32s} {which:5s} " + " ".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
