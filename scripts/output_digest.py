#!/usr/bin/env python3
"""Digest the output of every benchmark request and of a fixed catalog sweep.

Writes the input files of the given seeds of every workload in
`perfbench/workloads.py` to a temporary directory and runs each workload
request, then a fixed set of commands on every catalog entry: `hx
--integral`, and over q, f2, f3 and fp:5 `hx`, `koszul --poset hat --json`,
`koszul --poset bar --check-remark39`, `phi-check --json` and `rdims --poset
hat`.  Every request is one `cwkoszul.cli.main(argv)` call in this process.
The script prints one line per call (a digest of its exit code, stdout and
stderr, then the exit code and the argv) and a last line with the number of
calls and a digest of all lines.

A change meant to keep every output byte-identical is checked by running the
script in the parent checkout and in the changed one, then comparing:

    python3 scripts/output_digest.py 5 6 > parent.txt    # in the parent
    python3 scripts/output_digest.py 5 6 > change.txt    # in the change
    diff parent.txt change.txt

Input paths are relative to the temporary directory, so the `source` field
of a report does not depend on where it is.  The program is imported from
the `src/` next to this script.  An internal fault (exit 4) prints a
traceback naming source lines, so its digest moves whenever the code does.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from cwkoszul import cli  # noqa: E402
from cwkoszul.catalog import catalog_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

FIELDS = ("q", "f2", "f3", "fp:5")


def workload_requests(seeds: list[int]) -> list[list[str]]:
    """The argv of every workload request; writes the inputs under the current directory."""
    calls = []
    for seed in seeds:
        for workload, make in sorted(WORKLOADS.items()):
            inputs, requests = make(seed)
            folder = Path(f"{workload}-seed{seed}")
            folder.mkdir()
            for name, data, _ in inputs:
                (folder / f"{name}.json").write_bytes((json.dumps(data, indent=1) + "\n").encode())
            for req in requests:
                path = str(folder / f"{req['input']}.json")
                calls.append([path if a == "{path}" else a for a in req["argv"]])
    return calls


def catalog_requests() -> list[list[str]]:
    calls = []
    for name in catalog_names():
        spec = f"catalog:{name}"
        calls.append(["hx", spec, "--integral"])
        for f in FIELDS:
            calls += [
                ["hx", spec, "--field", f],
                ["koszul", spec, "--poset", "hat", "--field", f, "--json"],
                ["koszul", spec, "--poset", "bar", "--field", f, "--check-remark39"],
                ["phi-check", spec, "--field", f, "--json"],
                ["rdims", spec, "--poset", "hat", "--field", f],
            ]
    return calls


def digest(argv: list[str]) -> tuple[str, object]:
    """A digest of the exit code, stdout and stderr of one call, and the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    text = f"{code}\0{out.getvalue()}\0{err.getvalue()}"
    return hashlib.sha256(text.encode()).hexdigest()[:16], code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("seeds", type=int, nargs="*", default=[5, 6],
                    help="workload seeds (default: 5 6)")
    args = ap.parse_args(argv)
    total = hashlib.sha256()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            calls = workload_requests(args.seeds) + catalog_requests()
            for call in calls:
                h, code = digest(call)
                line = f"{h} {code} {' '.join(call)}"
                print(line, flush=True)
                total.update(line.encode() + b"\n")
        finally:
            os.chdir(cwd)
    print(f"total {len(calls)} calls {total.hexdigest()[:16]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
