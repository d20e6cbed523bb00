"""One fresh process that times the program; started by run.py.

    python3 perfbench/worker.py setup <plan.json> <out.json>
    python3 perfbench/worker.py measure <plan.json> <out.json>

`setup` times importing `cwkoszul` plus one `validate` request per input.
`measure` runs the plan's requests in passes: a closed loop with one client,
each request a call of `cwkoszul.cli.main(argv)` with stdout and stderr
captured, every pass in the same order.  Passes repeat until the plan's
seconds are spent, with a floor of `min_passes`.  With `trace` set, every
request runs twice per pass, plain and traced, so the overhead of tracing is
measured on the same requests.

Nothing here reuses a complex or a graph between requests: each call reads
its input file again, as a command-line run does.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time


def _call(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # reported as a failed request, never hidden
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
    return elapsed, code, out.getvalue(), err.getvalue()


def _setup(plan):
    t0 = time.perf_counter()
    from cwkoszul import cli
    codes = {}
    for name, path in plan["inputs"].items():
        _, codes[name], _, _ = _call(cli.main, ["validate", path, "--json"])
    return {"setup_s": time.perf_counter() - t0, "codes": codes}


def _measure(plan):
    from cwkoszul import cli

    tracer = None
    if plan["trace"]:
        import tracing
        tracer = tracing.Tracer()
    requests = plan["requests"]
    n = len(requests)
    times = [[] for _ in range(n)]
    traced_times = [[] for _ in range(n)]
    codes = [[] for _ in range(n)]
    outputs = [None] * n
    digests = [set() for _ in range(n)]
    stderr = [""] * n
    layers = []
    start = time.perf_counter()
    passes = 0
    while passes < plan["min_passes"] or time.perf_counter() - start < plan["seconds"]:
        if tracer:
            tracer.begin_pass()
        for r, req in enumerate(requests):
            gc.collect()  # the previous request's garbage is not this one's cost
            dt, code, out, err = _call(cli.main, req["argv"])
            times[r].append(dt)
            codes[r].append(code)
            if passes == 0:
                outputs[r], stderr[r] = out, err
            digests[r].add(hashlib.sha256(f"{code}\n{out}".encode()).hexdigest())
            if tracer:
                tracer.request = r
                gc.collect()
                with tracer.installed():
                    dt, code, out, err = _call(cli.main, req["argv"])
                traced_times[r].append(dt)
                codes[r].append(code)
                digests[r].add(hashlib.sha256(f"{code}\n{out}".encode()).hexdigest())
        if tracer:
            layers.append(tracer.end_pass())
        passes += 1
    result = {
        "passes": passes,
        "times": times,
        "codes": codes,
        "outputs": outputs,
        "stderr": stderr,
        "stable": [len(d) == 1 for d in digests],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        result["traced_times"] = traced_times
        result["layers"] = layers
        tracer.dump(plan["spans_path"])
    return result


def main(argv):
    mode, plan_path, out_path = argv
    with open(plan_path) as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))
    result = _setup(plan) if mode == "setup" else _measure(plan)
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
