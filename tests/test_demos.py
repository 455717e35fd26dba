from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# SHA-256 of each demo's stdout; every demo prints the same bytes on each run
STDOUT_DIGESTS = {
    "01_oscillator_realization.py": "6b09bb4a4a05915373bd3ad3fa27ca211ceb9fc0735e6570abcaa82be98f4727",
    "02_determinant_singular_vectors.py": "b10aa4356da747569c7d7e0350336cf77fd87fd00314b8d7f8439e6ce6076c07",
    "03_lowering_factor.py": "c291abab7841ba2634c2193ee9aca069e20255d34911c2901dedb9a14978c830",
    "04_enveloping_projection.py": "b82a5e3e252b60b07e7e1df66bd92f4b6d0640f890d6ef2e9fa840705560e8d7",
    "05_sp6_classification.py": "c409cd1490e7ab977fbc87e457aaca448e104247e8e2f358bc7536a025d1551b",
}


def test_demos_are_found():
    # an empty glob would leave test_demo_runs with nothing to run
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == STDOUT_DIGESTS[demo.name], done.stdout
