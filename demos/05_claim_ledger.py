"""Run the named claim registry and print the full ledger.

Every line is `CLAIM <id> <params> PASS|FAIL <witnesses>`.  FAIL lines
are genuine findings: the d = 3 trace-form graph is edgeless, and the
designated color of the affine subgroup scheme has maximal intersection
number 2 rather than 1 once q >= 5 (two orbit parameters can meet), so
downstream small-bound clauses fail with it.  The structural
conclusions those bounds were used to prove are checked directly by
claims 280520a and 310520d and hold.

Pass --heavy to include the 496-point two-point extensions.  The
benchmark's `ledger` workload runs the light plan; its wall time and
peak RSS, before and after each speed claim, are in BENCH_ledger.json.
"""

import sys

from cohcfg import verify_claim

HEAVY = "--heavy" in sys.argv

plan = [
    ("160520i", [{"q": q} for q in (8, 16, 32)]),
    ("250720a", [{"q": q} for q in (8, 16, 32)]),
    ("250720b", [{"q": 8}]),
    ("250720c", [{"q": q} for q in (8, 16, 32)]),
    ("4151533a", [{"d": d} for d in (3, 4, 5, 6)]),
    ("170520w1", [{"q": 8}, {"q": 16}]),
    ("250720f", [{"q": 8}, {"q": 16}]),
    ("180520i", [{"q": 8}]),
    ("030620i", [{"q": 8}]),
    ("270520i", [{"q": 8}, {"q": 32}]),
    ("300520a", [{"q": q} for q in (3, 5, 7, 9, 11, 13)]),
    ("310520d", [{"q": q} for q in (3, 5, 7, 9, 11, 13)]),
    ("201444a", [{"seed": 0, "count": 50}]),
    ("411958b", [{"family": "small"}, {"family": "passman"}]),
]
if HEAVY:
    plan.append(("280520a", [{"q": 32}]))
    plan.append(("170520w1", [{"q": 32}]))

failures = 0
for claim_id, param_sets in plan:
    for params in param_sets:
        rep = verify_claim(claim_id, **params)
        print(rep.ledger_line())
        failures += 0 if rep.passed else 1

print()
print(f"{failures} FAIL line(s); each records a computed counterexample")
