"""Capture the golden outputs the benchmark checks against.

    PYTHONPATH=src python3 perfbench/make_golden.py

Run from the root of a source checkout whose outputs are known good; it
rewrites perfbench/golden/.  The ledger golden is the stdout of
demos/05_claim_ledger.py itself; the others come from the workloads at
seed 0.
"""

import json
import os
import subprocess
import sys

from workloads import GOLDEN_DIR, WORKLOADS, Structure496, sha256

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    from cohcfg.iofmt import dumps

    os.makedirs(GOLDEN_DIR, exist_ok=True)
    demo = subprocess.run([sys.executable, os.path.join(ROOT, "demos", "05_claim_ledger.py")],
                          capture_output=True, text=True, check=True, cwd=ROOT)
    golden = {"ledger.txt": demo.stdout}

    ext = WORKLOADS["extend-496"](0)
    golden["extend-496.json"] = [
        {"rank": e.rank, "fibers": sorted(len(f) for f in e.fibers()),
         "sha256": sha256(dumps(e))}
        for e, _ in ext.run()]

    aut = WORKLOADS["aut-search"](0)
    golden["aut-search.json"] = [{"order": order, "method": method}
                                 for (order, method, _), _ in aut.run()]

    structure = Structure496(0)
    try:
        golden["structure-496.json"] = structure.results(structure.run())
    finally:
        structure.close()

    for name, value in golden.items():
        with open(os.path.join(GOLDEN_DIR, name), "w") as fh:
            if name.endswith(".txt"):
                fh.write(value)
            else:
                json.dump(value, fh, indent=1)
                fh.write("\n")


if __name__ == "__main__":
    main()
