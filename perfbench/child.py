"""One benchmark child process: set up a workload, time its body once, check it.

Run by run.py in a fresh interpreter; prints one JSON record on stdout.
``setup_s`` runs from the parent's spawn time (``--spawned``, a
CLOCK_MONOTONIC reading) to the end of set-up, so it covers interpreter
start, ``import cohcfg`` and building the workload's inputs.
"""

import argparse
import contextlib
import json
import os
import resource
import sys
import time

import numpy as np

import cohcfg
import tracer as tracing
from workloads import WORKLOADS


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None, help="file for the spans (traced runs)")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    phase = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    with phase("bench.setup"):
        workload = WORKLOADS[args.workload](args.seed)
    record = {"setup_s": time.monotonic() - args.spawned,
              "python": sys.version.split()[0], "numpy": np.__version__,
              "cohcfg": os.path.dirname(cohcfg.__file__)}
    try:
        if not args.setup_only:
            record.update(timed_body(workload, tracer, phase, args))
    finally:
        if tracer:
            tracer.uninstall()
        if hasattr(workload, "close"):
            workload.close()
    print(json.dumps(record))


def timed_body(workload, tracer, phase, args):
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    with phase("bench.body"):
        outputs = workload.run()
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()   # the checks below are not part of the trace
    problems = workload.check(outputs)
    out = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss_mb,
           "attempted": len(outputs),
           "failed": len({i for i, _ in problems if i is not None}),
           "problems": [msg for _, msg in problems]}
    if tracer:
        metrics = tracing.layer_metrics(tracer.spans)
        out["layers"] = metrics
        out["problems"] += tracing.activity_problems(args.workload, metrics)
        if args.spans:
            with open(args.spans, "w") as fh:
                for name, start, end, parent, attrs in tracer.spans:
                    fh.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "attrs": attrs}) + "\n")
    return out


if __name__ == "__main__":
    main()
