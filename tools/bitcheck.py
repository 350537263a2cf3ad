#!/usr/bin/env python3
"""Bit identity of entqa's outputs, checked by a tool rather than by hand.

Runs one fixed protocol (PROTOCOL: two corpora, three splits, training
and evaluation of six runs, a 3-seed experiment matrix and gradient
checks) on the entqa source of one tree, in a child process with one
BLAS thread and PYTHONHASHSEED=0, and writes JSON holding:

- ``files``: the sha256 of every file the protocol writes, each command's
  stdout included. A manifest is hashed without ``git_describe``, which
  names the commit.
- ``metrics``: what the acceptance margins read: each evaluation's
  scores, the matrix cells and margins, and the worst gradcheck error.
- ``environment``: the Python and numpy versions, numpy's BLAS
  configuration, the BLAS thread settings and the CPU model.

Model bits depend on the CPU's BLAS kernel and on the thread count, so
compare only results made on one host.

    python tools/bitcheck.py TREE [--out result.json]
    python tools/bitcheck.py --compare A B [--out result.json]

A tree is a directory holding ``src/entqa``, such as a checkout.
``--compare`` runs both trees, adds ``differ`` (each file that differs or
that only one tree wrote) and ``moved`` (``{metric path: {"a", "b",
"delta"}}`` for each numeric metric whose value differs, delta = b - a)
to the JSON, prints one line for each to stderr, and exits 1 when any
file differs. A protocol step that fails exits 2.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

# the thread-count variables BLAS libraries read when numpy loads
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}

SMALL_MODEL = {"hidden_dim": 48, "layers": 1, "heads": 2, "entity_dim": 12,
               "entity_heads": 2, "max_seq_len": 48, "ffn_mult": 2}
SMALL_TRAIN = {"epochs": 2, "batch_size": 32, "lr": 0.0005}


def _sets(model: dict, train: dict) -> list:
    return [a for scope, values in (("model", model), ("train", train))
            for key, value in values.items()
            for a in ("--set", f"{scope}.{key}={value}")]


def _small(system: str, **model) -> list:
    """--set flags for the acceptance-size model; baseline refuses the
    entity sizes it has no use for."""
    chosen = {k: v for k, v in {**SMALL_MODEL, **model}.items()
              if system != "baseline" or not k.startswith("entity")}
    return _sets(chosen, SMALL_TRAIN)


def _run(name: str, system: str, corpus: str, split: str,
         settings: list) -> list:
    """Train `name`, then evaluate it on test and on val."""
    data = ["--data", f"{corpus}/corpus.jsonl", "--vocab",
            f"{corpus}/vocab.txt", "--split", f"{corpus}/{split}/split.json"]
    steps = [(f"train-{name}", ["train", *data, "--system", system,
                                "--seed", "0", "--out", f"runs/{name}",
                                "--json", *settings])]
    for subset in ("test", "val"):
        steps.append((f"eval-{name}-{subset}",
                      ["eval", "--run", f"runs/{name}", *data, "--subset",
                       subset, "--out", f"evals/{name}-{subset}"]))
    return steps


# (step name, entqa argv), run in order from the work directory; every
# path is relative, so manifests, which record argv, match across trees
PROTOCOL = [
    ("gen-sentence", ["gen-data", "--seed", "0", "--num-notes", "30",
                      "--out", "sentence", "--json"]),
    ("gen-paragraph", ["gen-data", "--seed", "0", "--num-notes", "16",
                       "--setting", "paragraph", "--out", "paragraph",
                       "--json"]),
    *((f"split-{corpus}-{mode}",
       ["split", "--mode", mode, "--seed", "0", "--data",
        f"{corpus}/corpus.jsonl", "--out", f"{corpus}/{mode}", "--json"])
      for corpus, mode in (("sentence", "pl"), ("sentence", "r"),
                           ("paragraph", "pl"))),
    *_run("multitask-default", "multitask", "paragraph", "pl",
          _sets({}, {"epochs": 2})),
    *_run("multitask", "multitask", "sentence", "pl", _small("multitask")),
    *_run("baseline", "baseline", "sentence", "pl", _small("baseline")),
    *_run("fused-r", "fused", "sentence", "r", _small("fused")),
    *_run("evidence", "evidence", "paragraph", "pl", _small("evidence")),
    *_run("evidence-omega0", "evidence", "paragraph", "pl",
          _small("evidence", omega=0.0)),
    ("run-matrix", ["run-matrix", "--data", "sentence/corpus.jsonl",
                    "--vocab", "sentence/vocab.txt", "--seeds", "0,1,2",
                    "--out", "matrix", *_small("multitask")]),
    ("gradcheck", ["gradcheck", "--seeds", "3", "--json"]),
]

# runs PROTOCOL (argv[1], JSON) with entqa's CLI in one process, each
# step's stdout to stdout/<step>.txt
CHILD = """
import contextlib, json, sys
from pathlib import Path
from entqa.cli import main

Path("stdout").mkdir()
for name, argv in json.loads(sys.argv[1]):
    with open(f"stdout/{name}.txt", "w", encoding="utf-8") as fh, \\
            contextlib.redirect_stdout(fh):
        code = main(argv)
    if code != 0:
        sys.exit(f"bitcheck: step {name} (entqa {argv[0]}) exited {code}")
"""


class ProtocolError(RuntimeError):
    pass


def file_digest(path: Path) -> str:
    """sha256 of the file; a manifest's without its git_describe."""
    if path.name == "manifest.json":
        manifest = json.loads(path.read_text(encoding="utf-8"))
        manifest.pop("git_describe", None)
        data = json.dumps(manifest, sort_keys=True).encode()
    else:
        data = path.read_bytes()
    return hashlib.sha256(data).hexdigest()


def digests(work: Path) -> dict:
    """{relative path: sha256} of every file under `work`."""
    return {p.relative_to(work).as_posix(): file_digest(p)
            for p in sorted(work.rglob("*")) if p.is_file()}


def metrics(work: Path) -> dict:
    """The scores the acceptance margins read, from the protocol's files."""
    out = {"evals": {}, "matrix": {}, "margins": {}}
    for path in sorted(work.glob("evals/*/report.json")):
        report = json.loads(path.read_text(encoding="utf-8"))
        scores = {k: report[k] for k in ("n_examples", "em", "token_f1")}
        for k in ("lf_exact", "evidence"):
            if report.get(k):
                scores[f"{k}_f1"] = report[k]["f1"]
        out["evals"][path.parent.name] = scores
    matrix = work / "matrix" / "matrix.csv"
    if matrix.exists():
        with open(matrix, encoding="utf-8", newline="") as fh:
            cells = {f"{row['system']}/{row['split']}":
                     {"f1_mean": float(row["f1_mean"]),
                      "em_mean": float(row["em_mean"])}
                     for row in csv.DictReader(fh)}
        out["matrix"] = cells
        f1 = {name: cell["f1_mean"] for name, cell in cells.items()}
        out["margins"] = {
            "fused_minus_baseline": f1["fused/pl"] - f1["baseline/pl"],
            "multitask_minus_fused": f1["multitask/pl"] - f1["fused/pl"],
            "r_minus_pl": f1["fused/r"] - f1["fused/pl"]}
    gradcheck = work / "stdout" / "gradcheck.txt"
    if gradcheck.exists():
        out["gradcheck_worst"] = json.loads(gradcheck.read_text())["worst"]
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    """What the bits depend on besides the source: the interpreter, numpy
    and its BLAS, the thread settings and the CPU."""
    import numpy as np
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:   # numpy before 1.25 prints its configuration only
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": BLAS_THREADS,
            "cpu_model": _cpu_model(), "cpu_count": os.cpu_count()}


def run_tree(tree: Path) -> dict:
    """The protocol's result on the entqa source in `tree`."""
    src = tree.resolve() / "src"
    if not (src / "entqa" / "__init__.py").is_file():
        raise ProtocolError(f"{tree} holds no src/entqa")
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0",
               **BLAS_THREADS)
    work = Path(tempfile.mkdtemp(prefix="bitcheck-"))
    try:
        child = subprocess.run(
            [sys.executable, "-c", CHILD, json.dumps(PROTOCOL)], cwd=work,
            env=env, stderr=subprocess.PIPE, text=True)
        if child.returncode != 0:
            raise ProtocolError(f"{tree}: {child.stderr.strip()}")
        return {"tree": str(tree), "files": digests(work),
                "metrics": metrics(work)}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def differing(a: dict, b: dict) -> list:
    """The files whose digests differ between two results, or that only
    one of them wrote."""
    return sorted(name for name in set(a["files"]) | set(b["files"])
                  if a["files"].get(name) != b["files"].get(name))


def moved(a: dict, b: dict) -> dict:
    """{metric path: {"a", "b", "delta"}} for each numeric metric both
    results hold with different values; a path joins the keys with dots,
    as in ``evals.multitask-test.em``."""
    out = {}

    def walk(x, y, path):
        if isinstance(x, dict) and isinstance(y, dict):
            for key in sorted(set(x) & set(y)):
                walk(x[key], y[key], f"{path}.{key}" if path else key)
        elif all(isinstance(v, (int, float)) and not isinstance(v, bool)
                 for v in (x, y)) and x != y:
            out[path] = {"a": x, "b": y, "delta": y - x}

    walk(a["metrics"], b["metrics"], "")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Hash every output of a fixed entqa protocol, or name "
                    "the outputs that differ between two source trees.")
    parser.add_argument("tree", nargs="?", type=Path,
                        help="a directory holding src/entqa")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    parser.add_argument("--out", type=Path, help="JSON file (default stdout)")
    args = parser.parse_args(argv)
    if (args.tree is None) == (args.compare is None):
        parser.error("give one TREE or --compare A B")
    try:
        if args.compare:
            a, b = (run_tree(tree) for tree in args.compare)
            result = {"a": a, "b": b, "differ": differing(a, b),
                      "moved": moved(a, b)}
        else:
            result = run_tree(args.tree)
    except ProtocolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result["environment"] = environment()
    text = json.dumps(result, indent=2, sort_keys=True) + "\n"
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    if args.compare:
        for name in result["differ"]:
            print(f"differs: {name}", file=sys.stderr)
        for path, m in result["moved"].items():
            print(f"moved: {path} {m['a']!r} -> {m['b']!r} "
                  f"({m['delta']:+.6g})", file=sys.stderr)
        print(f"{len(result['differ'])} of {len(result['a']['files'])} "
              f"files differ", file=sys.stderr)
        return 1 if result["differ"] else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
