"""Tests of the benchmark's tracer: self-time arithmetic, per-layer
aggregation, and that patching leaves every binding as it found it."""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import tracer as tracing  # noqa: E402

cohcfg = pytest.importorskip("cohcfg")


def span(name, start, end, parent=None, **attrs):
    return [name, start, end, parent, attrs]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, 0),
        span("a.inner", 2.0, 3.0, 1),
        span("b", 5.0, 7.0, 0),
        span("c", 6.0, 8.0, 0),      # overlaps b: covered once
        span("d", 9.5, 11.0, 0),     # runs past the parent: clipped
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - 3 - 3 - 0.5, 2.0, 1.0, 2.0, 2.0, 1.5])


def test_layer_metrics_on_nested_synthetic_spans():
    spans = [
        span("bench.body", 0.0, 20.0),
        span("claims.verify", 1.0, 11.0, 0, id="250720b"),
        span("analysis.aut", 2.0, 8.0, 1, gens=3),
        span("wl.stabilize", 3.0, 5.0, 2, cells=100, rank_in=2, rank_out=7, rss_raise_kb=2048),
        span("wl.stabilize", 5.0, 6.0, 2, cells=100, rank_in=3, rank_out=9, rss_raise_kb=0),
        span("wl.extend_points", 9.0, 10.0, 1),
        span("wl.stabilize", 9.0, 9.5, 5, cells=25, rank_in=4, rank_out=4, rss_raise_kb=1024),
        span("schemes.build", 12.0, 16.0, 0),
        span("schemes.build", 13.0, 14.0, 7),   # nested rebuild: counted, not re-timed
    ]
    m = tracing.layer_metrics(spans)
    assert set(m) == {name for name, _, _ in tracing.PER_LAYER} - {"trace.overhead_s"}
    assert m["wl.stabilize.calls"] == 3
    assert m["wl.stabilize.cells"] == 225
    assert (m["wl.stabilize.rank_in"], m["wl.stabilize.rank_out"]) == (9, 20)
    assert m["wl.stabilize.self_s"] == pytest.approx(3.5)
    assert m["wl.stabilize.cells_per_s"] == pytest.approx(225 / 3.5)
    assert m["wl.stabilize.rss_raise_mb"] == pytest.approx(3.0)
    assert m["analysis.aut.s"] == pytest.approx(6.0)
    assert m["analysis.aut.self_s"] == pytest.approx(3.0)
    assert m["analysis.aut.nodes"] == 2          # the extension's stabilize is not under aut
    assert m["analysis.aut.gens_per_node"] == pytest.approx(1.5)
    assert m["analysis.aut.wl_share"] == pytest.approx(3.0 / 6.0)
    assert m["wl.extend_points.s"] == pytest.approx(1.0)
    assert m["claims.250720b.s"] == pytest.approx(10.0)
    assert m["claims.310520d.s"] == 0
    assert (m["schemes.build.calls"], m["schemes.build.self_s"]) == (2, pytest.approx(4.0))
    assert m["trace.wall_s"] == pytest.approx(20.0)
    assert m["trace.unaccounted_s"] == pytest.approx(20.0 - 10.0 - 4.0)
    # self times partition the traced body
    selfs = tracing.self_times(spans)
    assert sum(selfs) == pytest.approx(m["trace.wall_s"])


def _all_bindings():
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "cohcfg" or name.startswith("cohcfg.")):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
                if isinstance(value, type) and value.__module__.startswith("cohcfg"):
                    for cattr, cvalue in vars(value).items():
                        out[(name, attr, cattr)] = cvalue
    return out


def test_install_patches_every_import_binding_and_uninstall_restores_them():
    import cohcfg.cli  # noqa: F401  (brings in every traced module)
    from cohcfg import analysis, claims, cli, wl

    before = _all_bindings()
    original = wl.extend_points
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = [wl.extend_points, analysis.extend_points, claims.extend_points,
                   cli.extend_points, cohcfg.extend_points]
        assert all(f is patched[0] and f is not original for f in patched)
        assert analysis.stabilize is wl.stabilize
        assert claims.automorphism_group is cli.automorphism_group is analysis.automorphism_group
        assert cli.hollmann_large is claims.hollmann_large is cohcfg.hollmann_large
    finally:
        tracer.uninstall()
    after = _all_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_calls_keep_results_and_nest_spans():
    cfg, _ = cohcfg.hollmann_large(8)
    plain = cohcfg.extend_points(cfg, [0])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # looked up after install: a name imported earlier stays unpatched
        with tracer.span("bench.body"):
            traced = cohcfg.extend_points(cfg, [0])
            aut = cohcfg.automorphism_group(cfg)
        with pytest.raises(cohcfg.UsageError):
            cohcfg.extend_points(cfg, [0, 0])
    finally:
        tracer.uninstall()
    assert np.array_equal(plain.colors, traced.colors)
    assert aut.order == 8 * 63
    names = [s[0] for s in tracer.spans]
    assert names[:3] == ["bench.body", "wl.extend_points", "wl.stabilize"]
    assert tracer.spans[2][3] == 1
    assert all(s[2] is not None for s in tracer.spans)   # a raising call still closes
    m = tracing.layer_metrics(tracer.spans)
    assert m["wl.extend_points.calls"] == 2
    assert m["analysis.aut.calls"] == 1 and m["analysis.aut.nodes"] > 0
    assert m["wl.stabilize.cells"] == 28 * 28 + m["analysis.aut.nodes"] * 56 * 56


def test_benchmark_json_lists_the_metrics_the_code_reports():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(x) for x in tracing.PER_LAYER]
    import run
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    from workloads import WORKLOADS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
