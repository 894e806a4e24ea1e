"""The benchmark workloads: seeded inputs, the timed body, output checks.

Each workload builds its inputs in ``__init__`` (set-up), runs the
operations a user of cohcfg waits on in ``run`` (the timed body), and
compares the outputs with golden outputs captured from the program in
``check``.  Seed 0 reproduces the golden inputs exactly.  Any other seed
relabels the input points by a seeded permutation (``extend-496``,
``aut-search``) or reseeds the random claim corpus (``ledger``); the
program sees only the generated inputs, and ``check`` then compares
label-independent invariants: orders, ranks, fiber sizes and verdicts.

An operation is one claim line, one extension, one search or one CLI
command.  It fails on an exception, a nonzero exit, or an output that
differs from the golden one.  ``check`` returns one
``(operation index or None, message)`` pair per problem found.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")
OUT_DIR = os.path.join(HERE, "out")

# The light plan of demos/05_claim_ledger.py, entry for entry.
LEDGER_PLAN = [
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
CLAIM_IDS = [claim_id for claim_id, _ in LEDGER_PLAN]

STRUCTURE_FAMILIES = [("hollmann-large", 32), ("hollmann-small", 32),
                      ("passman", 13)]
OUT_PLACEHOLDER = "<out>"


def load_golden(name):
    with open(os.path.join(GOLDEN_DIR, name)) as fh:
        return fh.read() if name.endswith(".txt") else json.load(fh)


def seeded_permutations(seed, sizes):
    """One point permutation per size; all identities for seed 0."""
    if seed == 0:
        return [np.arange(n) for n in sizes]
    rng = np.random.default_rng(seed)
    return [rng.permutation(n) for n in sizes]


def relabel(cfg, perm):
    """The configuration with point a renamed perm[a]."""
    from cohcfg import CoherentConfiguration

    if np.array_equal(perm, np.arange(len(perm))):
        return cfg
    inv = np.argsort(perm)
    return CoherentConfiguration(cfg.colors[np.ix_(inv, inv)])


def sha256(data):
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _attempt(fn, *args):
    """(result, None) or (None, error text); an operation never aborts the body."""
    try:
        return fn(*args), None
    except Exception as exc:  # counted as a failed operation, not fatal
        return None, f"{type(exc).__name__}: {exc}"


class Ledger:
    """The demo claim ledger, 37 claim lines from an empty claims cache."""

    def __init__(self, seed):
        self.seed = seed
        self.plan = []
        for claim_id, param_sets in LEDGER_PLAN:
            for params in param_sets:
                params = dict(params)
                if claim_id == "201444a":
                    params["seed"] = seed
                self.plan.append((claim_id, params))
        self.golden = load_golden("ledger.txt")

    def run(self):
        from cohcfg import verify_claim

        out = []
        for claim_id, params in self.plan:
            rep, err = _attempt(lambda: verify_claim(claim_id, **params))
            out.append((rep.ledger_line(), rep.passed) if rep else (None, err))
        return out

    def stdout(self, outputs):
        """The text demos/05_claim_ledger.py prints for these reports."""
        lines = [line for line, _ in outputs]
        failures = sum(1 for _, passed in outputs if passed is not True)
        return ("\n".join(str(line) for line in lines) + "\n\n"
                f"{failures} FAIL line(s); each records a computed counterexample\n")

    def check(self, outputs):
        problems = []
        golden_lines = self.golden.split("\n")
        for i, ((line, status), (claim_id, _)) in enumerate(zip(outputs, self.plan)):
            if line is None:
                problems.append((i, status))
            elif claim_id == "201444a" and self.seed != 0:
                # the corpus changes with the seed; the verdict and the
                # instance count do not
                want = (f"CLAIM 201444a count=50,seed={self.seed} PASS "
                        "instances=100 partly_regular_certified=")
                if not line.startswith(want):
                    problems.append((i, f"unexpected line {line!r}"))
            elif line != golden_lines[i]:
                problems.append((i, f"line {line!r} != golden {golden_lines[i]!r}"))
        text = self.stdout(outputs)
        if self.seed == 0 and text != self.golden:
            problems.append((None, "ledger stdout differs from the golden output"))
        elif text.split("\n")[-2:] != golden_lines[-2:]:
            problems.append((None, "ledger summary line differs from the golden one"))
        return problems


class Extend496:
    """A one-point extension of the 496-point large scheme and a
    two-point extension of the 496-point small scheme."""

    def __init__(self, seed):
        from cohcfg import hollmann_large, hollmann_small

        large, _ = hollmann_large(32)
        small, _ = hollmann_small(32)
        t = next(s for s in range(small.rank) if not small.is_reflexive(s))
        a, b = small.first_pair(t)
        (self.perm,) = seeded_permutations(seed, [large.degree])
        p = [int(x) for x in self.perm]
        self.inputs = [(relabel(large, self.perm), [p[0]]),
                       (relabel(small, self.perm), [p[a], p[b]])]

    def run(self):
        from cohcfg import extend_points

        return [_attempt(extend_points, cfg, points) for cfg, points in self.inputs]

    def check(self, outputs):
        from cohcfg import CoherentConfiguration
        from cohcfg.iofmt import dumps

        problems = []
        for i, ((ext, err), want) in enumerate(zip(outputs, load_golden("extend-496.json"))):
            if ext is None:
                problems.append((i, err))
                continue
            fibers = sorted(len(f) for f in ext.fibers())
            # closure commutes with relabeling: undoing the seeded
            # relabeling must give the golden matrix byte for byte
            original = ext
            if not np.array_equal(self.perm, np.arange(len(self.perm))):
                original = CoherentConfiguration(ext.colors[np.ix_(self.perm, self.perm)])
            got = {"rank": ext.rank, "fibers": fibers, "sha256": sha256(dumps(original))}
            for key, value in got.items():
                if value != want[key]:
                    problems.append((i, f"{key} {value!r} != golden {want[key]!r}"))
        return problems


class AutSearch:
    """Automorphism groups of hollmann_large(16) and passman_scheme(9),
    both by the generic individualization-refinement search."""

    def __init__(self, seed):
        from cohcfg import hollmann_large, passman_scheme

        inputs = [hollmann_large(16)[0], passman_scheme(9)[0]]
        perms = seeded_permutations(seed, [cfg.degree for cfg in inputs])
        self.inputs = [relabel(cfg, perm) for cfg, perm in zip(inputs, perms)]

    def run(self):
        from cohcfg import automorphism_group

        def search(cfg):
            aut = automorphism_group(cfg)
            return aut.order, aut.method, aut.generators

        return [_attempt(search, cfg) for cfg in self.inputs]

    def check(self, outputs):
        problems = []
        golden = load_golden("aut-search.json")
        for i, ((got, err), cfg, want) in enumerate(zip(outputs, self.inputs, golden)):
            if got is None:
                problems.append((i, err))
                continue
            order, method, gens = got
            if (order, method) != (want["order"], want["method"]):
                problems.append((i, f"order/method {(order, method)} != golden "
                                    f"{(want['order'], want['method'])}"))
            n = cfg.degree
            for g in gens:
                g = np.asarray(g, dtype=np.int64)
                if sorted(g.tolist()) != list(range(n)) or \
                   not np.array_equal(cfg.colors[np.ix_(g, g)], cfg.colors):
                    problems.append((i, "a generator is not an automorphism"))
                    break
        return problems


class Structure496:
    """In-process CLI: build each 496/169-point scheme to a file, then
    analyze it with full validation, tensor, pseudocyclicity and
    indistinguishing numbers.  Makes no stabilize call."""

    def __init__(self, seed):
        os.makedirs(OUT_DIR, exist_ok=True)
        self.outdir = tempfile.mkdtemp(prefix="structure-", dir=OUT_DIR)
        self.paths = []
        self.commands = []
        for family, q in STRUCTURE_FAMILIES:
            path = os.path.join(self.outdir, f"{family}-{q}.cohcfg")
            self.paths.append(path)
            self.commands.append(["build", "--family", family, "--q", str(q),
                                  "-o", path])
            self.commands.append(["--seed", str(seed), "analyze", path,
                                  "--validate=full", "--tensor",
                                  "--pseudocyclic", "--indistinguishing"])

    def run(self):
        from cohcfg import cli

        out = []
        for argv in self.commands:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code, err = _attempt(cli.main, argv)
            out.append((code, stdout.getvalue(), err or stderr.getvalue()))
        return out

    def results(self, outputs):
        """Exit codes and stdout with the output directory normalized,
        plus the digest of every written file."""
        commands = [{"argv": [a.replace(self.outdir, OUT_PLACEHOLDER) for a in argv],
                     "exit": code,
                     "stdout": stdout.replace(self.outdir, OUT_PLACEHOLDER)}
                    for argv, (code, stdout, _) in zip(self.commands, outputs)]
        files = {}
        for path in self.paths:
            name = os.path.basename(path)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    files[name] = sha256(fh.read())
            else:
                files[name] = None
        return {"commands": commands, "files": files}

    def check(self, outputs):
        problems = []
        got = self.results(outputs)
        want = load_golden("structure-496.json")
        for i, (g, w, (_, _, stderr)) in enumerate(zip(got["commands"], want["commands"], outputs)):
            if (g["exit"], g["stdout"]) != (w["exit"], w["stdout"]):
                problems.append((i, f"exit {g['exit']} stdout {g['stdout']!r} stderr "
                                    f"{stderr!r} != golden exit {w['exit']} "
                                    f"stdout {w['stdout']!r}"))
        for k, (name, digest) in enumerate(got["files"].items()):
            if digest != want["files"].get(name):
                problems.append((2 * k, f"{name} sha256 {digest} != golden"))
        return problems

    def close(self):
        shutil.rmtree(self.outdir, ignore_errors=True)


WORKLOADS = {"ledger": Ledger, "extend-496": Extend496,
             "aut-search": AutSearch, "structure-496": Structure496}
