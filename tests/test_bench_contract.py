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


def _smoke_run(workload: str) -> dict:
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    assert run.returncode == 0
    return json.loads(run.stdout.strip().splitlines()[-1])


def test_matrix_sentence_smoke_run():
    # about 9 s; the run's scoring oracle compares evaluate_pairs with a
    # brute-force decode to 1e-12 on all four systems
    result = _smoke_run("matrix-sentence")
    assert result["correct"] is True
    assert result["failed"] == 0


def test_train_paragraph_smoke_run():
    # about 12 s; the only tier-1 run of the paragraph path: tagged
    # 15-20-sentence windows, default-size training and its checks. 8 of
    # the 64 test questions lose their answer to truncation.
    result = _smoke_run("train-paragraph")
    assert result["correct"] is True
    assert (result["failed"], result["attempted"]) == (8, 64)


def test_eval_paragraph_smoke_run():
    # about 17 s; the only tier-1 run that scores a reloaded default-size
    # checkpoint on the paragraph test split. 8 of its 90 questions lose
    # their answer to truncation.
    result = _smoke_run("eval-paragraph")
    assert result["correct"] is True
    assert (result["failed"], result["attempted"]) == (8, 90)


def test_bench_files_name_workloads_and_metrics():
    # BENCH_<short-sha>.json: every run.py result of one comparison against
    # commit <short-sha>; a traced run reports per-layer metrics and keeps
    # its end-to-end values beside them
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert files
    for path in files:
        bench = json.loads(path.read_text())
        assert path.name == f"BENCH_{bench['parent']}.json"
        assert bench["runs"], path.name
        for run in bench["runs"]:
            where = f"{path.name}: {run.get('workload')} {run.get('side')} " \
                    f"seed {run.get('seed')}"
            assert run["workload"] in workloads, where
            assert run["side"] in ("parent", "change"), where
            assert isinstance(run["seed"], int), where
            metrics = run["result"]["metrics"]
            if run["trace"]:
                assert set(metrics) == per_layer, where
                assert set(run["traced_end_to_end"]) == end_to_end, where
            else:
                assert set(metrics) == end_to_end, where
            assert isinstance(run["result"]["correct"], bool), where
