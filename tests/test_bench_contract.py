"""The benchmark drives entqa's public API. Its traced mode
(`perfbench/run.py --trace 1`) wraps entqa functions by module and
attribute name; each one must still exist, or a rename would break tracing
without failing any other test. A short untraced run checks the rest of
that use, scoring included."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from entqa import checkpoint, corpus, metrics, model, splits, tensor, trainer

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"

# the owners the benchmark hands to Tracer.install
OWNERS = {"corpus": corpus, "splits": splits, "trainer": trainer,
          "model": model, "tensor": tensor, "Tensor": tensor.Tensor,
          "metrics": metrics, "checkpoint": checkpoint}


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("owner,attr", [(o, a) for o, a, _ in _targets()],
                         ids=lambda v: v)
def test_tracer_target_exists(owner, attr):
    assert owner in OWNERS, f"tracer wraps an attribute of unknown {owner!r}"
    assert callable(getattr(OWNERS[owner], attr, None)), \
        f"{owner}.{attr} is gone; the traced benchmark run would fail"


def test_matrix_sentence_smoke_run():
    # about 9 s; the run's scoring oracle compares evaluate_pairs with a
    # brute-force decode to 1e-12 on all four systems
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         "matrix-sentence", "--seed", "1", "--seconds", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    assert run.returncode == 0
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
