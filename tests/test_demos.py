"""The fast demos run end to end in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name: str) -> subprocess.CompletedProcess:
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, text=True, env=env,
                          timeout=120)


@pytest.mark.parametrize("name,expected", [
    ("autodiff_basics.py", "all passed: True"),
    ("corpus_walkthrough.py", ""),
])
def test_demo_exits_zero(name, expected):
    proc = run_demo(name)
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout
