"""The bit-identity runner's layout, without running its protocol.

`tools/bitcheck.py` runs a fixed entqa protocol on one source tree and
hashes every output (about a minute per tree, so not here). These tests
check what that run relies on: every protocol step is a command line
entqa accepts, paths are relative so manifests match across trees, a
manifest is hashed without its commit, and the JSON names the files that
differ. No digest is pinned: model bits depend on the host's BLAS.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from entqa.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bitcheck():
    spec = importlib.util.spec_from_file_location(
        "bitcheck", ROOT / "tools" / "bitcheck.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_protocol_steps_are_entqa_command_lines(bitcheck):
    names = [name for name, _ in bitcheck.PROTOCOL]
    assert len(set(names)) == len(names)
    commands = set()
    for name, argv in bitcheck.PROTOCOL:
        assert "/" not in name, name   # each names a stdout file
        assert not any(Path(a).is_absolute() for a in argv), name
        commands.add(build_parser().parse_args(argv).subcommand)
    assert commands == {"gen-data", "split", "train", "eval", "run-matrix",
                        "gradcheck"}
    systems = {argv[argv.index("--system") + 1]
               for _, argv in bitcheck.PROTOCOL if "--system" in argv}
    assert systems == {"multitask", "baseline", "fused", "evidence"}


def test_every_run_is_evaluated_on_test_and_val(bitcheck):
    runs = {argv[argv.index("--out") + 1]
            for _, argv in bitcheck.PROTOCOL if argv[0] == "train"}
    evaluated = {(argv[argv.index("--run") + 1],
                  argv[argv.index("--subset") + 1])
                 for _, argv in bitcheck.PROTOCOL if argv[0] == "eval"}
    assert evaluated == {(run, s) for run in runs for s in ("test", "val")}


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def test_manifest_is_hashed_without_its_commit(bitcheck, tmp_path):
    for side, commit in (("a", "abc1234"), ("b", "0123abc-dirty")):
        _write(tmp_path / side / "run" / "manifest.json",
               json.dumps({"argv": ["train"], "git_describe": commit}))
        _write(tmp_path / side / "run" / "model.ckpt", side)
    a, b = (bitcheck.digests(tmp_path / side) for side in "ab")
    assert sorted(a) == ["run/manifest.json", "run/model.ckpt"]
    assert a["run/manifest.json"] == b["run/manifest.json"]
    assert a["run/model.ckpt"] != b["run/model.ckpt"]
    _write(tmp_path / "b" / "run" / "manifest.json",
           json.dumps({"argv": ["eval"], "git_describe": "0123abc"}))
    assert bitcheck.digests(tmp_path / "b")["run/manifest.json"] \
        != a["run/manifest.json"]


def test_differing_names_changed_and_one_sided_files(bitcheck):
    a = {"files": {"same": "1", "changed": "2", "only_a": "3"}}
    b = {"files": {"same": "1", "changed": "4", "only_b": "5"}}
    assert bitcheck.differing(a, b) == ["changed", "only_a", "only_b"]
    assert bitcheck.differing(a, a) == []


def test_metrics_layout(bitcheck, tmp_path):
    report = {"n_examples": 4, "em": 0.5, "token_f1": 0.75,
              "lf_exact": {"precision": 1.0, "recall": 1.0, "f1": 1.0},
              "evidence": None}
    _write(tmp_path / "evals" / "multitask-test" / "report.json",
           json.dumps(report))
    rows = [("baseline", "pl", 60.0), ("fused", "pl", 70.0),
            ("multitask", "pl", 72.5), ("fused", "r", 90.0)]
    _write(tmp_path / "matrix" / "matrix.csv",
           "system,split,f1_mean,f1_sd,em_mean,em_sd\n" + "".join(
               f"{s},{m},{f1},1.0,{f1 - 10},1.0\n" for s, m, f1 in rows))
    _write(tmp_path / "stdout" / "gradcheck.txt",
           json.dumps({"passed": True, "worst": 2e-5}))
    got = bitcheck.metrics(tmp_path)
    assert got["evals"] == {"multitask-test": {
        "n_examples": 4, "em": 0.5, "token_f1": 0.75, "lf_exact_f1": 1.0}}
    assert got["matrix"]["fused/r"] == {"f1_mean": 90.0, "em_mean": 80.0}
    assert got["margins"] == {"fused_minus_baseline": 10.0,
                              "multitask_minus_fused": 2.5,
                              "r_minus_pl": 20.0}
    assert got["gradcheck_worst"] == 2e-5


def test_environment_names_what_the_bits_depend_on(bitcheck):
    env = bitcheck.environment()
    assert {"python", "numpy", "blas", "blas_threads", "cpu_model"} <= set(env)
    assert set(env["blas_threads"].values()) == {"1"}
    json.dumps(env)


def test_refuses_a_tree_without_entqa(bitcheck, tmp_path, capsys):
    assert bitcheck.main([str(tmp_path)]) == 2
    assert "src/entqa" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        bitcheck.main([])
