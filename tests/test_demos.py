"""The demos run as scripts, and the claim ledger keeps its bytes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


def run_demo(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(DEMOS / name)], cwd=ROOT,
                          env=env, capture_output=True, timeout=300)


def test_claim_ledger_matches_golden_bytes():
    done = run_demo("05_claim_ledger.py")
    assert done.returncode == 0, done.stderr.decode()
    golden = (ROOT / "perfbench" / "golden" / "ledger.txt").read_bytes()
    assert done.stdout == golden


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("0[1-4]_*.py")))
def test_demo_runs(name):
    done = run_demo(name)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout
