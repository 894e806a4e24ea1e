"""Spans around cohcfg's public functions, patched in from outside.

``Tracer.install`` replaces every binding of each traced function with a
wrapper that records a span: the home module, each module that imported
the function by name, and the package namespace.  Methods are wrapped
on their class.  ``uninstall`` puts every binding back as it was.

A span is ``[name, start, end, parent index, attrs]``; ``attrs`` holds the
counts recorded at that boundary (cells, ranks, bytes, generators).
``layer_metrics`` turns the spans of one traced run into the per-layer
metrics listed in ``PER_LAYER``.
"""

import contextlib
import functools
import importlib
import math
import resource
import sys
import time
from collections import defaultdict

import numpy as np

from workloads import CLAIM_IDS

# (metric, unit, better); the per_layer section of BENCHMARK.json
PER_LAYER = [
    ("wl.stabilize.calls", "count", "lower"),
    ("wl.stabilize.self_s", "s", "lower"),
    ("wl.stabilize.cells", "count", "lower"),
    ("wl.stabilize.rank_in", "count", "lower"),
    ("wl.stabilize.rank_out", "count", "lower"),
    ("wl.stabilize.cells_per_s", "1/s", "higher"),
    ("wl.stabilize.rss_raise_mb", "MB", "lower"),
    ("wl.extend_points.calls", "count", "lower"),
    ("wl.extend_points.s", "s", "lower"),
    ("wl.coherence_violations.calls", "count", "lower"),
    ("wl.coherence_violations.self_s", "s", "lower"),
    ("wl.coherence_violations.cells", "count", "lower"),
    ("perm.orbitals.calls", "count", "lower"),
    ("perm.orbitals.self_s", "s", "lower"),
    ("perm.orbitals.cells", "count", "lower"),
    ("perm.chain.calls", "count", "lower"),
    ("perm.chain.self_s", "s", "lower"),
    ("schemes.build.calls", "count", "lower"),
    ("schemes.build.self_s", "s", "lower"),
    ("cc.canonicalize.calls", "count", "lower"),
    ("cc.canonicalize.self_s", "s", "lower"),
    ("cc.canonicalize.cells", "count", "lower"),
    ("cc.tensor.calls", "count", "lower"),
    ("cc.tensor.self_s", "s", "lower"),
    ("cc.tensor.verified_cells", "count", "lower"),
    ("cc.valencies.self_s", "s", "lower"),
    ("cc.indistinguishing.self_s", "s", "lower"),
    ("cc.regular_points.self_s", "s", "lower"),
    ("cc.fusion.calls", "count", "lower"),
    ("cc.fusion.self_s", "s", "lower"),
    ("cc.validate.self_s", "s", "lower"),
    ("analysis.aut.calls", "count", "lower"),
    ("analysis.aut.s", "s", "lower"),
    ("analysis.aut.self_s", "s", "lower"),
    ("analysis.aut.nodes", "count", "lower"),
    ("analysis.aut.gens", "count", "lower"),
    ("analysis.aut.gens_per_node", "ratio", "higher"),
    ("analysis.aut.wl_share", "ratio", "lower"),
    ("analysis.schurian.s", "s", "lower"),
    ("analysis.separable.s", "s", "lower"),
    ("claims.verify.calls", "count", "lower"),
] + [(f"claims.{claim_id}.s", "s", "lower") for claim_id in CLAIM_IDS] + [
    ("iofmt.dumps.calls", "count", "lower"),
    ("iofmt.dumps.self_s", "s", "lower"),
    ("iofmt.dumps.bytes", "B", "lower"),
    ("iofmt.loads.calls", "count", "lower"),
    ("iofmt.loads.self_s", "s", "lower"),
    ("iofmt.loads.bytes", "B", "lower"),
    ("iofmt.mb_per_s", "MB/s", "higher"),
    ("cli.build.calls", "count", "lower"),
    ("cli.build.s", "s", "lower"),
    ("cli.analyze.calls", "count", "lower"),
    ("cli.analyze.s", "s", "lower"),
    ("gf.field.calls", "count", "lower"),
    ("gf.field.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unaccounted_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]

# Counts that must repeat exactly between traced runs of one input.
EXACT = [name for name, unit, _ in PER_LAYER if unit in ("count", "B")]

# Layers each workload must reach in a traced run (nonzero), and the
# ones it must not reach (zero).
ACTIVE = {
    "ledger": ["wl.stabilize.calls", "wl.extend_points.calls",
               "perm.orbitals.calls", "perm.chain.calls",
               "schemes.build.calls", "cc.canonicalize.calls",
               "cc.tensor.calls", "cc.fusion.calls", "analysis.aut.calls",
               "claims.verify.calls", "gf.field.calls"],
    "extend-496": ["wl.stabilize.calls", "wl.extend_points.calls",
                   "cc.canonicalize.calls", "schemes.build.calls"],
    "aut-search": ["wl.stabilize.calls", "analysis.aut.calls",
                   "analysis.aut.nodes", "perm.chain.calls",
                   "perm.orbitals.calls", "schemes.build.calls"],
    "structure-496": ["cli.build.calls", "cli.analyze.calls",
                      "iofmt.dumps.calls", "iofmt.loads.calls",
                      "wl.coherence_violations.calls", "perm.orbitals.calls",
                      "schemes.build.calls", "cc.tensor.calls",
                      "cc.fusion.calls", "gf.field.calls"],
}
INACTIVE = {"structure-496": ["wl.stabilize.calls"]}


def distinct(colors):
    """Number of distinct values in a color matrix."""
    a = np.asarray(colors).ravel()
    if a.size == 0:
        return 0
    if a.min() >= 0 and a.max() < 4 * a.size + (1 << 20):
        return int(np.count_nonzero(np.bincount(a)))
    return int(np.unique(a).size)


def max_rss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _stabilize_before(args, kwargs):
    return max_rss_kb()


def _stabilize_after(rss_before, args, kwargs, result):
    colors = np.asarray(args[0])
    return {"cells": int(colors.size), "rank_in": distinct(colors),
            "rank_out": distinct(result),
            "rss_raise_kb": max_rss_kb() - rss_before}


def _cells_of_first_arg(_, args, kwargs, result):
    return {"cells": int(np.asarray(args[0]).size)}


def _cells_of_group(_, args, kwargs, result):
    return {"cells": args[0].degree ** 2}


def _tensor_before(args, kwargs):
    """Cells re-verified by this call, by CoherentConfiguration.tensor's
    rule: none when the cached tensor is returned, every cell when
    verify="full" or (verify=None and degree <= 100), else
    min(cells, ceil(log2 n)) seeded cells per color."""
    cfg = args[0]
    verify = args[1] if len(args) > 1 else kwargs.get("verify")
    if verify is None and cfg._tensor is not None:
        return 0
    n = cfg.degree
    if verify == "full" or (verify is None and n <= 100):
        return n * n
    k = max(1, math.ceil(math.log2(max(n, 2))))
    counts = np.bincount(cfg.colors.ravel(), minlength=cfg.rank)
    return int(np.minimum(counts, k).sum())


def _tensor_after(verified, args, kwargs, result):
    return {"verified_cells": verified}


def _aut_after(_, args, kwargs, result):
    return {"gens": len(result.generators)}


def _claim_id(_, args, kwargs, result):
    return {"id": args[0]}


def _bytes_of_result(_, args, kwargs, result):
    return {"bytes": len(result.encode())}


def _bytes_of_first_arg(_, args, kwargs, result):
    return {"bytes": len(args[0].encode())}


# (span name, module, attribute path, before hook, after hook)
TARGETS = [
    ("wl.stabilize", "cohcfg.wl", "stabilize", _stabilize_before, _stabilize_after),
    ("wl.extend_points", "cohcfg.wl", "extend_points", None, None),
    ("wl.coherence_violations", "cohcfg.wl", "coherence_violations", None, _cells_of_first_arg),
    ("perm.orbitals", "cohcfg.perm", "PermGroup.orbitals", None, _cells_of_group),
] + [("perm.chain", "cohcfg.perm", f"PermGroup.{m}", None, None)
     for m in ("order", "contains", "stabilizer_prefix", "point_stabilizer",
               "orbit", "elements")] + [
    ("schemes.build", "cohcfg.schemes", f, None, None)
    for f in ("hollmann_large", "hollmann_small", "passman_scheme", "trace_label_check")
] + [
    ("cc.canonicalize", "cohcfg.cc", "canonicalize_colors", None, _cells_of_first_arg),
    ("cc.tensor", "cohcfg.cc", "CoherentConfiguration.tensor", _tensor_before, _tensor_after),
    ("cc.valencies", "cohcfg.cc", "CoherentConfiguration.valencies", None, None),
    ("cc.indistinguishing", "cohcfg.cc",
     "CoherentConfiguration.indistinguishing_numbers", None, None),
    ("cc.regular_points", "cohcfg.cc", "CoherentConfiguration.regular_points", None, None),
    ("cc.fusion", "cohcfg.cc", "algebraic_fusion", None, None),
    ("cc.fusion", "cohcfg.cc", "induced_color_action", None, None),
    ("cc.validate", "cohcfg.cc", "CoherentConfiguration.validate", None, None),
    ("analysis.aut", "cohcfg.analysis", "automorphism_group", None, _aut_after),
    ("analysis.schurian", "cohcfg.analysis", "is_schurian", None, None),
    ("analysis.separable", "cohcfg.analysis", "is_separable_small", None, None),
    ("claims.verify", "cohcfg.claims", "verify_claim", None, _claim_id),
    ("iofmt.dumps", "cohcfg.iofmt", "dumps", None, _bytes_of_result),
    ("iofmt.loads", "cohcfg.iofmt", "loads", None, _bytes_of_first_arg),
    ("cli.build", "cohcfg.cli", "_build", None, None),
    ("cli.analyze", "cohcfg.cli", "_analyze", None, None),
    ("gf.field", "cohcfg.gf", "Field.__init__", None, None),
]


def bindings(fn):
    """Every (module, name) of the cohcfg package whose value is fn."""
    out = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "cohcfg" or mod_name.startswith("cohcfg.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                out.append((mod, attr))
    return out


class Tracer:
    """Records nested spans in memory; one thread only."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []   # (owner, attribute, original value)

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, {}])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    @contextlib.contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield self.spans[idx][4]
        finally:
            self.close(idx)

    def wrap(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args, kwargs) if before else None
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after:
                tracer.spans[idx][4].update(after(state, args, kwargs, result))
            return result
        return traced

    def _patch(self, owner, attribute, value):
        self._patched.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, value)

    def install(self):
        for name, module, path, before, after in TARGETS:
            owner = importlib.import_module(module)
            *classes, attribute = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = vars(owner)[attribute]
            wrapper = self.wrap(name, original, before, after)
            if classes:
                self._patch(owner, attribute, wrapper)
                continue
            found = bindings(original)
            if not found:
                raise RuntimeError(f"no binding of {module}.{path}")
            for mod, attr in found:
                self._patch(mod, attr, wrapper)

    def uninstall(self):
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)


def self_times(spans):
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted((max(spans[c][1], start), min(spans[c][2], end))
                           for c in children[i]):
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


def _has_ancestor(spans, i, names):
    parent = spans[i][3]
    while parent is not None:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans, body="bench.body"):
    """Per-layer metrics of one traced run; every name in PER_LAYER."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span[0]].append(i)

    def calls(name):
        return len(by_name[name])

    def self_s(name):
        return sum(selfs[i] for i in by_name[name])

    def inclusive(name, ids=None):
        # outermost spans only, so a nested call is not counted twice
        ids = by_name[name] if ids is None else ids
        return sum(spans[i][2] - spans[i][1] for i in ids
                   if not _has_ancestor(spans, i, {name}))

    def total(name, key):
        return sum(spans[i][4].get(key, 0) for i in by_name[name])

    m = {}
    for layer in ("wl.stabilize", "wl.coherence_violations", "perm.orbitals",
                  "perm.chain", "schemes.build", "cc.canonicalize", "cc.tensor",
                  "cc.fusion", "analysis.aut", "iofmt.dumps", "iofmt.loads",
                  "gf.field"):
        m[f"{layer}.calls"] = calls(layer)
        m[f"{layer}.self_s"] = self_s(layer)
    for layer in ("wl.extend_points", "cli.build", "cli.analyze"):
        m[f"{layer}.calls"] = calls(layer)
        m[f"{layer}.s"] = inclusive(layer)
    for layer in ("cc.valencies", "cc.indistinguishing", "cc.regular_points",
                  "cc.validate"):
        m[f"{layer}.self_s"] = self_s(layer)
    for key in ("cells", "rank_in", "rank_out"):
        m[f"wl.stabilize.{key}"] = total("wl.stabilize", key)
    stab_self = m["wl.stabilize.self_s"]
    m["wl.stabilize.cells_per_s"] = m["wl.stabilize.cells"] / stab_self if stab_self else 0.0
    m["wl.stabilize.rss_raise_mb"] = total("wl.stabilize", "rss_raise_kb") / 1024
    m["wl.coherence_violations.cells"] = total("wl.coherence_violations", "cells")
    m["perm.orbitals.cells"] = total("perm.orbitals", "cells")
    m["cc.canonicalize.cells"] = total("cc.canonicalize", "cells")
    m["cc.tensor.verified_cells"] = total("cc.tensor", "verified_cells")

    aut_s = inclusive("analysis.aut")
    under_aut = [i for i in by_name["wl.stabilize"]
                 if _has_ancestor(spans, i, {"analysis.aut"})]
    m["analysis.aut.s"] = aut_s
    m["analysis.aut.nodes"] = len(under_aut)
    m["analysis.aut.gens"] = total("analysis.aut", "gens")
    m["analysis.aut.gens_per_node"] = (m["analysis.aut.gens"] / len(under_aut)
                                       if under_aut else 0.0)
    m["analysis.aut.wl_share"] = (sum(selfs[i] for i in under_aut) / aut_s
                                  if aut_s else 0.0)
    m["analysis.schurian.s"] = inclusive("analysis.schurian")
    m["analysis.separable.s"] = inclusive("analysis.separable")

    m["claims.verify.calls"] = calls("claims.verify")
    for claim_id in CLAIM_IDS:
        ids = [i for i in by_name["claims.verify"] if spans[i][4].get("id") == claim_id]
        m[f"claims.{claim_id}.s"] = inclusive("claims.verify", ids)

    m["iofmt.dumps.bytes"] = total("iofmt.dumps", "bytes")
    m["iofmt.loads.bytes"] = total("iofmt.loads", "bytes")
    io_s = m["iofmt.dumps.self_s"] + m["iofmt.loads.self_s"]
    m["iofmt.mb_per_s"] = ((m["iofmt.dumps.bytes"] + m["iofmt.loads.bytes"]) / io_s / 1e6
                           if io_s else 0.0)

    body_ids = by_name[body]
    m["trace.wall_s"] = inclusive(body, body_ids)
    m["trace.unaccounted_s"] = sum(selfs[i] for i in body_ids)
    m["trace.spans"] = len(spans)
    return m


def activity_problems(workload, metrics):
    """Layers that a traced run of this workload reached wrongly."""
    problems = [f"{name} is 0 on {workload}" for name in ACTIVE.get(workload, [])
                if not metrics.get(name)]
    problems += [f"{name} is {metrics[name]} on {workload}, expected 0"
                 for name in INACTIVE.get(workload, []) if metrics.get(name)]
    return problems
