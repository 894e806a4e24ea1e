import importlib.util
import json
import os

import pytest

PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_pairs.py")
spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def pair(parent, change):
    return {"parent": {"metrics": parent}, "change": {"metrics": change}}


def test_summary_quartiles_medians_and_wins():
    walls = [(1.0, 0.7), (1.2, 0.8), (1.1, 1.1), (1.4, 0.9), (1.3, 1.5)]
    pairs = [pair({"wall_s": p, "peak_rss_mb": 50.0}, {"wall_s": c, "peak_rss_mb": 49.0})
             for p, c in walls]
    summary = bench_pairs.summarize(pairs)
    wall = summary["wall_s"]
    assert wall["parent_q1_median_q3"] == [1.1, 1.2, 1.3]
    assert wall["change_q1_median_q3"] == [0.8, 0.9, 1.1]
    # the tie at 1.1 counts for neither side
    assert wall["change_lower_in"] == "3/5"
    assert wall["change_higher_in"] == "1/5"
    assert wall["median_delta"] == pytest.approx(-0.3)
    assert wall["parent_iqr"] == pytest.approx(0.2)
    assert summary["peak_rss_mb"]["change_lower_in"] == "5/5"
    assert summary["peak_rss_mb"]["change_higher_in"] == "0/5"


def test_summary_interpolates_quartiles():
    pairs = [pair({"wall_s": p}, {"wall_s": p}) for p in (4.0, 1.0, 3.0, 2.0)]
    wall = bench_pairs.summarize(pairs)["wall_s"]
    assert wall["parent_q1_median_q3"] == pytest.approx([1.75, 2.5, 3.25])
    assert wall["change_lower_in"] == "0/4"
    single = bench_pairs.summarize([pair({"wall_s": 2.0}, {"wall_s": 1.0})])
    assert single["wall_s"]["change_q1_median_q3"] == [1.0, 1.0, 1.0]


def claim_pairs(deltas, parent_spread=0.0):
    """Ten pairs with parents 50 + i * parent_spread and changes that
    differ from them by the given deltas."""
    return [pair({"peak_rss_mb": 50 + i * parent_spread},
                 {"peak_rss_mb": 50 + i * parent_spread + d})
            for i, d in enumerate(deltas)]


@pytest.mark.parametrize("deltas, parent_spread, met", [
    # lower in 10/10 by 5 MB, parents spread 0.1 MB apart: met
    ([-5.0] * 10, 0.1, True),
    # lower in 9/10, one pair a tie: met; 8/10 with one pair higher: lost
    ([-5.0] * 9 + [0.0], 0.1, True),
    ([-5.0] * 8 + [0.0, 1.0], 0.1, False),
    # lower in 10/10, but by 0.2 MB against a parent IQR of 0.45 MB: lost
    ([-0.2] * 10, 0.1, False),
])
def test_claim_rule(deltas, parent_spread, met):
    summary = bench_pairs.summarize(claim_pairs(deltas, parent_spread))
    assert bench_pairs.claim_met(summary["peak_rss_mb"]) is met


@pytest.mark.parametrize("correct, failed", [(False, 0), (True, 1)])
def test_runs_that_failed_their_checks_stop_the_script(tmp_path, monkeypatch,
                                                       correct, failed):
    result = {"correct": correct, "attempted": 6, "failed": failed,
              "metrics": {"wall_s": {"value": 0.5, "unit": "s"}}}

    def fake_run(argv, cwd=None, **kwargs):
        return bench_pairs.subprocess.CompletedProcess(
            argv, 0, stdout="record {}\n" + json.dumps(result) + "\n", stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    with pytest.raises(SystemExit, match=f"{parent} seed 7 failed its checks"):
        bench_pairs.main(["--parent", str(parent), "--change", str(change),
                          "--workload", "ledger", "--seeds", "7", "--title", "t"])
    assert not list(change.iterdir())
