"""Benchmark of the cwkoszul command line: one workload per invocation.

    python3 perfbench/run.py --workload hat-verdicts --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from `src/`.
The seed makes the workload's input files under `.perfbench_runs/`; the
program sees only those files.  Five fresh processes time set-up, then one
fresh process runs the requests (worker.py) and this process checks every
output (checks.py).  The last line of stdout is one JSON object: `correct`,
`attempted`, `failed` and `metrics`, the end-to-end metrics with --trace 0
and the per-layer ones with --trace 1.  See README.md for what each means.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_RUNS = 5
MIN_PASSES = {0: 3, 1: 2}
WORKER_TIMEOUT_S = 120


def _worker(mode: str, plan_path: Path, out_path: Path, timeout: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")), mode,
           str(plan_path), str(out_path)]
    subprocess.run(cmd, cwd=ROOT, check=True, timeout=timeout)
    with open(out_path) as fh:
        return json.load(fh)


def _tail(values: list[float]) -> float:
    """The value with exactly ten samples above it."""
    return sorted(values)[len(values) - 11]


def _end_to_end(run: dict, setups: list[dict]) -> dict:
    medians = [statistics.median(t) for t in run["times"]]
    return {
        "throughput_rps": (len(medians) / sum(medians), "1/s"),
        "latency_p50_s": (statistics.median(medians), "s"),
        "latency_tail_s": (_tail(medians), "s"),
        "peak_rss_mb": (run["peak_rss_kb"] / 1024, "MB"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
    }


def _per_layer(run: dict) -> dict:
    metrics = {}
    for name, first in run["layers"][0].items():
        if name.endswith("_s"):
            metrics[name] = (statistics.median(layer[name] for layer in run["layers"]), "s")
        else:  # counts repeat exactly from pass to pass
            metrics[name] = (first, "ratio" if isinstance(first, float) else "count")
    plain = sum(statistics.median(t) for t in run["times"])
    traced = sum(statistics.median(t) for t in run["traced_times"])
    metrics["trace.overhead_pct"] = (100 * (traced - plain) / plain, "%")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    src = ROOT / "src"
    if not (src / "cwkoszul" / "cli.py").is_file():
        print(f"error: no cwkoszul sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    out_dir = ROOT / ".perfbench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    (out_dir / "inputs").mkdir(parents=True)
    inputs, requests = WORKLOADS[args.workload](args.seed)
    by_name = {}
    paths = {}
    for name, data, meta in inputs:
        path = out_dir / "inputs" / f"{name}.json"
        raw = (json.dumps(data, indent=1) + "\n").encode()
        path.write_bytes(raw)
        paths[name] = str(path.relative_to(ROOT))
        by_name[name] = {"data": data, "meta": meta, "raw": raw}
    for req in requests:
        req["argv"] = [paths[req["input"]] if a == "{path}" else a for a in req["argv"]]
    plan = {
        "src": str(src),
        "inputs": paths,
        "requests": requests,
        "seconds": args.seconds,
        "trace": args.trace,
        "min_passes": MIN_PASSES[args.trace],
        "spans_path": str(out_dir / "spans.jsonl"),
    }
    plan_path = out_dir / "plan.json"
    plan_path.write_text(json.dumps(plan))
    generated = time.perf_counter() - t0

    setups = [_worker("setup", plan_path, out_dir / f"setup{i}.json", 60)
              for i in range(SETUP_RUNS)]
    run = _worker("measure", plan_path, out_dir / "measure.json", WORKER_TIMEOUT_S)
    measured = time.perf_counter() - t0

    attempts = run["passes"] * (2 if args.trace else 1)
    failed = sum(1 for req, codes in zip(requests, run["codes"])
                 for c in codes if c not in checks.expected_codes(req))
    reports = [json.loads(out) if out else None for out in run["outputs"]]
    by_key = dict(zip(map(checks.key, requests), reports))
    problems = []
    for r, req in enumerate(requests):
        if not run["stable"][r]:
            problems.append((r, ["output differs between repeats"]))
        code = run["codes"][r][0]
        if code not in checks.expected_codes(req):  # counted in `failed`
            print(f"FAILED: {' '.join(req['argv'])}: exit {code!r}: "
                  f"{run['stderr'][r].strip()[-300:]}", file=sys.stderr)
            continue
        found = checks.check(req, code, reports[r], by_name[req["input"]], by_key)
        if found:
            problems.append((r, found))
    for s in setups:
        if any(c != 0 for c in s["codes"].values()):
            problems.append((-1, [f"set-up validate exit codes {s['codes']}"]))
    for r, found in problems:
        label = " ".join(requests[r]["argv"]) if r >= 0 else "set-up"
        for problem in found:
            print(f"CHECK FAILED: {label}: {problem}", file=sys.stderr)

    metrics = _per_layer(run) if args.trace else _end_to_end(run, setups)
    print(f"{args.workload} seed {args.seed}: {len(requests)} requests x {run['passes']} passes, "
          f"inputs {generated:.1f} s, measured by {measured:.1f} s, "
          f"checked by {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(requests) * attempts,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
