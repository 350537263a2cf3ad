"""A seeded pipeline writes the same bytes every time it runs.

A tiny gen-data -> split -> train -> eval runs twice, each in its own
process with its own string-hash seed, into fresh directories. Every file
either run writes, manifests aside (they record the argument list, which
names the directories), must be byte-identical. No digest is pinned here:
model bits depend on the CPU's BLAS kernel and thread count.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PIPELINE = """
import sys
from entqa.cli import main

out, system = sys.argv[1], sys.argv[2]
data, split, run = f"{out}/data", f"{out}/split", f"{out}/run"
common = ["--data", f"{data}/corpus.jsonl", "--vocab", f"{data}/vocab.txt",
          "--split", f"{split}/split.json"]
model = {"hidden_dim": 16, "layers": 1, "heads": 2, "entity_dim": 8,
         "entity_heads": 2, "max_seq_len": 48, "ffn_mult": 2}
settings = [f"model.{k}={v}" for k, v in model.items()
            if system != "baseline" or not k.startswith("entity")]
settings += ["train.epochs=2", "train.batch_size=32", "train.lr=0.0005"]
for argv in (
        ["gen-data", "--seed", "0", "--num-notes", "8", "--out", data],
        ["split", "--mode", "pl", "--seed", "0",
         "--data", f"{data}/corpus.jsonl", "--out", split],
        ["train", *common, "--system", system, "--seed", "0", "--out", run,
         *(a for s in settings for a in ("--set", s))],
        ["eval", "--run", run, *common, "--subset", "test",
         "--out", f"{out}/eval"]):
    if main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
"""


def _run(out: Path, system: str, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(ROOT / "src"),
                                 os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", PIPELINE, str(out), system],
                   env=env, check=True, stdout=subprocess.DEVNULL, timeout=120)
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "manifest.json"}


@pytest.mark.parametrize("system", ["multitask", "baseline"])
def test_pipeline_writes_the_same_bytes_twice(tmp_path, system):
    first = _run(tmp_path / "first", system, "0")
    second = _run(tmp_path / "second", system, "1")
    assert {"data/corpus.jsonl", "split/split.json", "run/model.ckpt",
            "run/train_log.jsonl", "eval/report.json"} <= set(first)
    assert sorted(first) == sorted(second)
    differ = [name for name in first if first[name] != second[name]]
    assert not differ, f"{system}: these outputs differ between runs: {differ}"
