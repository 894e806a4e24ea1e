"""The demos run as scripts, and the claim ledger keeps its bytes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


def run_demo(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(DEMOS / name), *args], cwd=ROOT,
                          env=env, capture_output=True, timeout=300)


def test_claim_ledger_matches_golden_bytes():
    done = run_demo("05_claim_ledger.py")
    assert done.returncode == 0, done.stderr.decode()
    golden = (ROOT / "perfbench" / "golden" / "ledger.txt").read_bytes()
    assert done.stdout == golden


# the two lines --heavy adds, as the code of 144f845 printed them
HEAVY_LINES = [
    b"CLAIM 280520a q=32 PASS color-1=(0,1,123136) color-2=(0,3,123136) "
    b"color-3=(0,4,123136)",
    b"CLAIM 170520w1 q=32 PASS all-fiber-pairs-matched=15x15 "
    b"trace-zero-witnesses=90/90",
]


def test_heavy_claim_ledger_keeps_its_bytes():
    done = run_demo("05_claim_ledger.py", "--heavy")
    assert done.returncode == 0, done.stderr.decode()
    light = (ROOT / "perfbench" / "golden" / "ledger.txt").read_bytes().split(b"\n")
    assert len(light) == 40 and light[37:] == [
        b"", b"6 FAIL line(s); each records a computed counterexample", b""]
    assert done.stdout.split(b"\n") == light[:37] + HEAVY_LINES + light[37:]


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("0[1-4]_*.py")))
def test_demo_runs(name):
    done = run_demo(name)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout
