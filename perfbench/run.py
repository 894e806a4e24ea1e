"""cohcfg benchmark: time the four workloads in fresh child processes.

    python3 perfbench/run.py --workload ledger --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout (the directory holding ``src/``).
Each workload runs in fresh child processes, one after another, with
single-threaded numpy.  A run starts ``SETUP_ONLY`` children that only
set up, then children that set up and time the workload body once, for
as long as another one fits in ``--seconds`` (at least one).  The
end-to-end metrics are medians over the children; ``setup_s`` is the
median over all of them.

With ``--trace 1`` untraced and traced children alternate; the traced
ones record spans around cohcfg's public functions and give the
per-layer metrics (medians for times; counts must agree exactly), plus
the tracing overhead, traced minus untraced ``wall_s``.

``--workload all`` runs every workload in turn.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
"""

import argparse
import compileall
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from tracer import EXACT, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s")]
SETUP_ONLY = 6
DEADLINE_S = 170   # every run ends well inside 180 s
# single-threaded numpy, and a fixed hash seed so set orders repeat
CHILD_ENV = dict({name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                         "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                         "VECLIB_MAXIMUM_THREADS")},
                 PYTHONHASHSEED="0")


class Fatal(Exception):
    """A child that crashed or ran out of time: no result is printed."""


def run_record():
    def read(path):
        try:
            with open(path) as fh:
                return fh.read().strip()
        except OSError:
            return None

    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        rev = proc.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "cohcfg")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"git_rev": rev, "src_sha256": digest.hexdigest(),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "loadavg": read("/proc/loadavg"), "child_env": CHILD_ENV}


class Runner:
    def __init__(self, workload, seed, seconds, trace):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.start = time.monotonic()
        self.env = dict(os.environ, **CHILD_ENV, PYTHONPATH=SRC)
        self.env.pop("PYTHONSTARTUP", None)

    def elapsed(self):
        return time.monotonic() - self.start

    def child(self, trace=0, setup_only=False, spans=None):
        cmd = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--trace", str(trace)]
        if setup_only:
            cmd.append("--setup-only")
        if spans:
            cmd += ["--spans", spans]
        timeout = DEADLINE_S - self.elapsed()
        if timeout <= 0:
            raise Fatal("out of time before a child could start")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--spawned", repr(spawned)], env=self.env,
                                  cwd=ROOT, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise Fatal(f"{self.workload} child timed out") from exc
        if proc.returncode != 0 or not proc.stdout.strip():
            raise Fatal(f"{self.workload} child exited {proc.returncode}:\n{proc.stderr}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        rec["duration_s"] = time.monotonic() - spawned
        return rec

    def fits(self, durations):
        return self.elapsed() + max(durations) <= self.seconds

    def untraced(self):
        setups = [self.child(setup_only=True) for _ in range(SETUP_ONLY)]
        full = []
        while not full or self.fits([r["duration_s"] for r in full]):
            full.append(self.child())
        metrics = {name: (statistics.median(r[name] for r in full), unit)
                   for name, unit in END_TO_END if name != "setup_s"}
        metrics["setup_s"] = (statistics.median(r["setup_s"] for r in full + setups), "s")
        return full, setups, metrics

    def traced(self):
        plain, traced = [], []
        while not traced or self.fits([a["duration_s"] + b["duration_s"]
                                       for a, b in zip(plain, traced)]):
            plain.append(self.child())
            spans = os.path.join(OUT_DIR, f"{self.workload}-seed{self.seed}.spans.jsonl")
            traced.append(self.child(trace=1, spans=spans))
        layers = [r["layers"] for r in traced]
        problems = [f"{name} differs between traced runs: {[m[name] for m in layers]}"
                    for name in EXACT if len({m[name] for m in layers}) > 1]
        units = {name: unit for name, unit, _ in PER_LAYER}
        metrics = {name: (statistics.median(m[name] for m in layers), units[name])
                   for name in units if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced)
            - statistics.median(r["wall_s"] for r in plain), "s")
        return plain + traced, problems, metrics

    def run(self):
        if self.trace:
            children, problems, metrics = self.traced()
            setups = []
        else:
            children, setups, metrics = self.untraced()
            problems = []
        for rec in children:
            problems += rec["problems"]
        attempted = sum(r["attempted"] for r in children)
        failed = sum(r["failed"] for r in children)
        return {"workload": self.workload, "correct": not problems and failed == 0,
                "attempted": attempted, "failed": failed, "problems": problems,
                "metrics": metrics, "children": children, "setups": setups}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cohcfg", "__init__.py")):
        print(f"error: no cohcfg sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    record = run_record()
    os.makedirs(OUT_DIR, exist_ok=True)
    compileall.compile_dir(SRC, quiet=1)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            results.append(Runner(name, args.seed, args.seconds, args.trace).run())
    except Fatal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for res in results:
        with open(os.path.join(OUT_DIR, f"{res['workload']}-seed{args.seed}"
                               f"-trace{args.trace}.json"), "w") as fh:
            json.dump(dict(res, record=record), fh, indent=1)
        for name, (value, unit) in res["metrics"].items():
            print(f"{res['workload']} {name} {value!r} {unit}")
        print(f"{res['workload']} fail_frac {res['failed'] / res['attempted']!r} "
              f"({res['failed']}/{res['attempted']} operations)")
        for msg in res["problems"]:
            print(f"{res['workload']} problem: {msg}")
    print("record " + json.dumps(record))

    prefix = len(results) > 1
    metrics = {(f"{res['workload']}.{name}" if prefix else name): {"value": value, "unit": unit}
               for res in results for name, (value, unit) in res["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
