"""Alternating before/after benchmark pairs, recorded in BENCH_<workload>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload structure-496 --seeds 300 301 302 --seconds 30 \\
        --title "What the change does" --claimed wall_s

For each seed it runs ``perfbench/run.py`` once in the parent checkout
and once in the change checkout, alternating which side goes first
(the parent at the first seed).  It reads the last JSON line each run
prints, and appends one entry to ``BENCH_<workload>.json`` in the change
checkout: per metric the quartiles and median of both sides, the number
of pairs in which the change is lower and in which it is higher, the
difference of the medians and the parent's interquartile range, and every
pair with the side that ran first.  With ``--claimed`` the entry records
``claim_met``: whether the claimed metric reads lower in at least 9/10 of
the pairs with a median lower by more than the parent's interquartile
range.  A run that exits non-zero, or whose result says that
its checks failed, stops the script before anything is written.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

RECORD_KEYS = ("src_sha256", "python", "numpy", "nproc", "loadavg")
ABOUT = ("Before/after pairs behind speed claims on the {workload} workload, "
         "oldest first. Entries with source 'CHANGES.md' are copied from the "
         "change log; entries with source 'perfbench/out' hold the result of "
         "each run of 'python3 perfbench/run.py --workload {workload} --seed "
         "<seed> --seconds <seconds>' (metrics are medians over the run's child "
         "processes). 'first' names the side that ran first in a pair.")


def quartiles(values):
    """[q1, median, q3], linearly interpolated between order statistics."""
    if len(values) == 1:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def summarize(pairs):
    """Per metric: both sides' quartiles, in how many pairs the change
    reads lower and in how many higher (ties count for neither side), the
    change's median minus the parent's, and the parent's interquartile
    range."""
    summary = {}
    for name in pairs[0]["parent"]["metrics"]:
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        lower = sum(c < p for p, c in zip(parent, change))
        higher = sum(c > p for p, c in zip(parent, change))
        pq, cq = quartiles(parent), quartiles(change)
        summary[name] = {
            "parent_q1_median_q3": [round(x, 4) for x in pq],
            "change_q1_median_q3": [round(x, 4) for x in cq],
            "change_lower_in": f"{lower}/{len(pairs)}",
            "change_higher_in": f"{higher}/{len(pairs)}",
            "median_delta": round(cq[1] - pq[1], 4),
            "parent_iqr": round(pq[2] - pq[0], 4)}
    return summary


def claim_met(metric_summary):
    """The rule a claimed gain must meet: the change reads lower in at
    least nine tenths of the pairs, and its median lies below the parent's
    by more than the parent's interquartile range."""
    lower, pairs = map(int, metric_summary["change_lower_in"].split("/"))
    return (10 * lower >= 9 * pairs
            and -metric_summary["median_delta"] > metric_summary["parent_iqr"])


def run_side(checkout, workload, seed, seconds):
    """One benchmark run; its result line, with metric values and the run
    record reduced to what identifies the code and the machine."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {checkout} seed {seed} exited "
                         f"{proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"error: {checkout} seed {seed} failed its checks "
                         f"(correct {result['correct']}, {result['failed']} of "
                         f"{result['attempted']} operations failed)")
    record = next((json.loads(line[len("record "):]) for line in lines
                   if line.startswith("record ")), {})
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: round(m["value"], 4)
                        for name, m in result["metrics"].items()},
            "record": {k: record.get(k) for k in RECORD_KEYS}}


def short_rev(checkout):
    proc = subprocess.run(["git", "-C", checkout, "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="parent checkout")
    parser.add_argument("--change", default=".", help="change checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=int, nargs="+")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--title", required=True, help="what the change does")
    parser.add_argument("--claimed", default=None,
                        help="the metric the change claims to improve")
    args = parser.parse_args(argv)

    pairs = []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            pair[side] = run_side(checkout, args.workload, seed, args.seconds)
        pairs.append(pair)
        print(json.dumps({"seed": seed, "first": pair["first"],
                          "parent": pair["parent"]["metrics"],
                          "change": pair["change"]["metrics"]}), flush=True)

    path = os.path.join(args.change, f"BENCH_{args.workload}.json")
    if os.path.exists(path):
        with open(path) as fh:
            bench = json.load(fh)
    else:
        bench = {"workload": args.workload,
                 "about": ABOUT.format(workload=args.workload), "entries": []}
    summary = summarize(pairs)
    bench["entries"].append({
        "change": args.title, "parent_commit": short_rev(args.parent),
        "source": "perfbench/out", "claimed": args.claimed,
        "claim_met": claim_met(summary[args.claimed]) if args.claimed else None,
        "seeds": args.seeds, "seconds": args.seconds,
        "summary": summary, "pairs": pairs})
    with open(path, "w") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    print(json.dumps({"claim_met": bench["entries"][-1]["claim_met"],
                      "summary": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
