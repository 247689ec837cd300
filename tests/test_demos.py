"""Every demo runs to completion in a fresh interpreter and prints what it
printed when pinned."""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

import heisenrep

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
# sha256 of each demo's stdout; a pure refactor keeps these bytes (measured
# with numpy 2.4.6, whose FFT fixes the last digits)
STDOUT_DIGESTS = {
    "01_transforms.py":
        "54325065d4c6fafa7fd55455cd547924c2d94c36dc5dd50106790d03188df1c3",
    "02_group_action.py":
        "3f70b98c9b8ba6dd2824e91620684a12900bdcd13537bd19b1533879e049fa77",
    "03_generators_and_norms.py":
        "0022788b558c8d0b3867be57a89191874a38be551267284503c024a6b5c677e4",
    "04_moment_annihilation.py":
        "7078afd381109ea08b0dc62906781b4c73f8e2c7d016c016b2a35163a427b498",
    "05_invariant_pairs.py":
        "90ac7678a8930d7c75f66b2a2df032a6ee6e13f1ac8d4b6bd44fae908f319f37",
    "06_semigroup_evolution.py":
        "7815625a40d96889bbed02b258f5a1a4f2655d2205b444d06450d54eeb004d0a",
    "07_verification_harness.py":
        "6b832a9117307b2d15bd445d4842bc3a5089eadbc7b23dec3e16a890cd896522",
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    src = os.path.dirname(os.path.dirname(heisenrep.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(demo)], env=env, cwd=demo.parent,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.strip()
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_DIGESTS[demo.name]
