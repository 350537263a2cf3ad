import dataclasses
import json
import math
import shutil
import struct
import subprocess
from pathlib import Path

import numpy as np
import pytest

from entqa import cli
from entqa import model as mdl
from entqa import tensor as T
from entqa import trainer as tr
from entqa.checkpoint import save_checkpoint
from entqa.cli import main
from entqa.corpus import read_dataset
from entqa.model import ModelConfig
from entqa.textpipe import Vocab


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tiny generated corpus with a pl split and one trained run."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["gen-data", "--seed", "0", "--num-notes", "12",
                 "--out", str(data)]) == 0
    assert main(["split", "--mode", "pl", "--seed", "0",
                 "--data", str(data / "corpus.jsonl"),
                 "--out", str(root / "pl")]) == 0
    run = root / "run"
    code = main(["train", "--data", str(data / "corpus.jsonl"),
                 "--vocab", str(data / "vocab.txt"),
                 "--split", str(root / "pl" / "split.json"),
                 "--system", "multitask", "--seed", "0",
                 "--set", "model.hidden_dim=16", "--set", "model.layers=1",
                 "--set", "model.heads=2", "--set", "model.entity_dim=8",
                 "--set", "model.max_seq_len=48", "--set", "model.ffn_mult=2",
                 "--set", "train.lr=0.0005", "--set", "train.epochs=1",
                 "--set", "train.batch_size=32",
                 "--out", str(run)])
    assert code == 0
    return root


class TestGenData:
    def test_outputs_and_manifest(self, workspace):
        data = workspace / "data"
        for name in ("corpus.jsonl", "vocab.txt", "manifest.json"):
            assert (data / name).exists(), name
        manifest = json.loads((data / "manifest.json").read_text())
        assert manifest["command"] == "gen-data"
        assert manifest["seed"] == 0
        assert "git_describe" in manifest

    def test_reproducible(self, tmp_path):
        for sub in ("a", "b"):
            assert main(["gen-data", "--seed", "3", "--num-notes", "4",
                         "--out", str(tmp_path / sub)]) == 0
        assert (tmp_path / "a" / "corpus.jsonl").read_bytes() == \
               (tmp_path / "b" / "corpus.jsonl").read_bytes()

    def test_paragraph_setting(self, tmp_path):
        out = tmp_path / "para"
        assert main(["gen-data", "--seed", "1", "--num-notes", "3",
                     "--setting", "paragraph", "--out", str(out)]) == 0
        for ex in read_dataset(out / "corpus.jsonl"):
            assert 15 <= len(ex.context_sentences) <= 20

    def test_sentence_setting_single_sentence(self, workspace):
        for ex in read_dataset(workspace / "data" / "corpus.jsonl"):
            assert len(ex.context_sentences) == 1

    def test_bad_num_notes(self, tmp_path, capsys):
        assert main(["gen-data", "--num-notes", "0",
                     "--out", str(tmp_path / "x")]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("facts", ["0", "-2"])
    def test_no_facts_per_note_exits_2(self, tmp_path, capsys, facts):
        # notes without facts would write an empty corpus
        assert main(["gen-data", "--num-notes", "3", "--facts-per-note",
                     facts, "--out", str(tmp_path / "x")]) == 2
        assert "facts_per_note" in capsys.readouterr().err
        assert not (tmp_path / "x" / "corpus.jsonl").exists()

    def test_manifest_records_blas_thread_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "1")
        assert main(["gen-data", "--num-notes", "2",
                     "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["blas_thread_env"] == {
            "OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": None,
            "MKL_NUM_THREADS": "1"}

    @pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
    def test_manifest_records_entqa_commit_not_the_callers(
            self, tmp_path, monkeypatch):
        # run from inside another repository, the manifest still describes
        # the entqa source, not that repository's commit
        caller = tmp_path / "caller"
        caller.mkdir()
        git = ["git", "-C", str(caller), "-c", "user.name=t",
               "-c", "user.email=t@example.com"]
        subprocess.run(git + ["init", "-q"], check=True)
        subprocess.run(git + ["commit", "-q", "--allow-empty", "-m", "x"],
                       check=True)
        theirs = subprocess.run(git + ["describe", "--always", "--dirty"],
                                capture_output=True, text=True,
                                check=True).stdout.strip()
        monkeypatch.chdir(caller)
        assert main(["gen-data", "--num-notes", "2",
                     "--out", str(tmp_path / "data")]) == 0
        manifest = json.loads((tmp_path / "data" / "manifest.json").read_text())
        ours = subprocess.run(["git", "describe", "--always", "--dirty"],
                              capture_output=True, text=True,
                              cwd=Path(cli.__file__).resolve().parent)
        assert manifest["git_describe"] != theirs
        assert manifest["git_describe"] == (
            ours.stdout.strip() if ours.returncode == 0 else "unknown")

    def test_hung_git_records_unknown(self, tmp_path, monkeypatch):
        def hang(cmd, **kwargs):
            raise subprocess.TimeoutExpired(cmd, kwargs.get("timeout"))

        monkeypatch.setattr(subprocess, "run", hang)
        assert main(["gen-data", "--num-notes", "2",
                     "--out", str(tmp_path / "data")]) == 0
        manifest = json.loads((tmp_path / "data" / "manifest.json").read_text())
        assert manifest["git_describe"] == "unknown"


class TestSplit:
    def test_manifest_and_id_lists(self, workspace):
        pl = workspace / "pl"
        ids = {}
        for name in ("train", "val", "test"):
            path = pl / f"{name}_ids.txt"
            assert path.exists()
            ids[name] = set(path.read_text().split())
        assert not (ids["train"] & ids["val"])
        assert not (ids["train"] & ids["test"])
        manifest = json.loads((pl / "manifest.json").read_text())
        assert manifest["resolved_config"]["leakage"]["note_overlap"] == 0
        assert manifest["resolved_config"]["leakage"]["template_overlap"] == 0

    def test_manifest_records_parsed_argv(self, workspace, tmp_path):
        argv = ["split", "--mode", "r",
                "--data", str(workspace / "data" / "corpus.jsonl"),
                "--out", str(tmp_path / "r")]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
        assert manifest["argv"] == argv

    def test_r_mode_trains_on_all_templates(self, workspace, tmp_path):
        out = tmp_path / "r"
        assert main(["split", "--mode", "r", "--seed", "0",
                     "--data", str(workspace / "data" / "corpus.jsonl"),
                     "--out", str(out)]) == 0
        r_train = set((out / "train_ids.txt").read_text().split())
        pl_train = set(
            (workspace / "pl" / "train_ids.txt").read_text().split())
        assert pl_train < r_train

    def test_unknown_mode_is_usage_error(self, workspace):
        with pytest.raises(SystemExit) as err:
            main(["split", "--mode", "xx",
                  "--data", str(workspace / "data" / "corpus.jsonl"),
                  "--out", "/tmp/never"])
        assert err.value.code == 2

    def test_missing_data_is_integrity_error(self, tmp_path):
        assert main(["split", "--mode", "pl",
                     "--data", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "out")]) == 3

    @pytest.mark.parametrize("edit,named", [
        (lambda record: {**record, "extra": 1}, "unknown field 'extra'"),
        (lambda record: 5, "not a JSON object")],
        ids=["unknown_field", "not_an_object"])
    def test_bad_record_is_integrity_error(self, workspace, tmp_path, capsys,
                                           edit, named):
        lines = (workspace / "data" / "corpus.jsonl").read_text().splitlines()
        data = tmp_path / "corpus.jsonl"
        data.write_text(lines[0] + "\n"
                        + json.dumps(edit(json.loads(lines[1]))) + "\n")
        assert main(["split", "--mode", "pl", "--data", str(data),
                     "--out", str(tmp_path / "out")]) == 3
        assert f"line 2: {named}" in capsys.readouterr().err


def _edit_tag(change):
    """Apply `change` to a copy of the record's first context tag."""
    def edit(record):
        tags = [list(t) for t in record["context_tags"]]
        tags[0] = change(tags[0])
        return {**record, "context_tags": tags}
    return edit


def _edit_answer(**changes):
    return lambda record: {**record, "answer": {**record["answer"], **changes}}


BAD_RECORDS = {
    "unknown_tag_type": (_edit_tag(lambda t: ["zzzz", t[1], t[2]]),
                         "context_tags[0]"),
    "two_item_tag": (_edit_tag(lambda t: t[:2]), "context_tags[0]"),
    "tag_past_text": (_edit_tag(lambda t: [t[0], 5000, 5003]),
                      "context_tags[0]"),
    "tag_start_not_before_end": (_edit_tag(lambda t: [t[0], t[2], t[1]]),
                                 "context_tags[0]"),
    "evidence_idx_past_context": (lambda r: {**r, "evidence_idx": 99},
                                  "evidence_idx"),
    "sentence_index_not_evidence": (_edit_answer(sentence_index=99),
                                    "answer.sentence_index"),
    "answer_text_not_slice": (_edit_answer(text="a replaced answer"),
                              "answer.text"),
    "unknown_answer_key": (_edit_answer(extra=1), "answer"),
}


@pytest.mark.parametrize("command", ["split", "train"])
@pytest.mark.parametrize("case", BAD_RECORDS)
def test_bad_record_exits_3(workspace, tmp_path, capsys, command, case):
    # every record is checked where it is built, so split and train refuse
    # the corpus before using it, naming the line and the field at fault
    edit, named = BAD_RECORDS[case]
    lines = (workspace / "data" / "corpus.jsonl").read_text().splitlines()
    data = tmp_path / "corpus.jsonl"
    data.write_text(lines[0] + "\n"
                    + json.dumps(edit(json.loads(lines[1]))) + "\n")
    args = {"split": ["split", "--mode", "pl"],
            "train": ["train", "--vocab", str(workspace / "data" / "vocab.txt"),
                      "--split", str(workspace / "pl" / "split.json")]}[command]
    assert main(args + ["--data", str(data),
                        "--out", str(tmp_path / "out")]) == 3
    assert f"line 2: {named}:" in capsys.readouterr().err


class TestTrainEval:
    def test_train_artifacts(self, workspace):
        run = workspace / "run"
        for name in ("model.ckpt", "model_config.json", "train_log.jsonl",
                     "manifest.json"):
            assert (run / name).exists(), name
        entries = [json.loads(line) for line in
                   (run / "train_log.jsonl").read_text().splitlines()]
        assert entries
        assert {"step", "lr", "L_span", "L_lf", "L_total"} <= set(entries[0])

    def test_train_and_eval_record_coverage(self, workspace, tmp_path,
                                            capsys):
        # each split's examples handed to the encoder and pairs it kept,
        # recomputed here from the split and the run's sequence length
        data, split = workspace / "data", workspace / "pl" / "split.json"
        examples = list(read_dataset(data / "corpus.jsonl"))
        parts = dict(zip(cli.SPLITS, cli.filter_examples(
            examples, cli.SplitAssignment.load(split))))
        vocab = Vocab.load(data / "vocab.txt")
        want = {name: {"examples": len(part),
                       "pairs": len(tr.encode_examples(part, vocab, 20))}
                for name, part in parts.items()}
        assert all(c["pairs"] < c["examples"] for c in want.values())
        run, scored = tmp_path / "run", tmp_path / "scored"
        common = ["--data", str(data / "corpus.jsonl"),
                  "--vocab", str(data / "vocab.txt"), "--split", str(split)]
        assert main(["train", *common, "--system", "baseline", "--json",
                     "--set", "model.hidden_dim=8", "--set", "model.layers=1",
                     "--set", "model.heads=2", "--set", "model.max_seq_len=20",
                     "--set", "model.ffn_mult=1", "--set", "train.epochs=1",
                     "--out", str(run)]) == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        manifest = json.loads((run / "manifest.json").read_text())
        train_cov = {"train": want["train"], "val": want["val"]}
        assert summary["coverage"] == manifest["coverage"] == train_cov
        assert main(["eval", "--run", str(run), *common, "--subset", "test",
                     "--out", str(scored)]) == 0
        manifest = json.loads((scored / "manifest.json").read_text())
        assert manifest["coverage"] == {"test": want["test"]}
        report = json.loads((scored / "report.json").read_text())
        assert report["n_examples"] == want["test"]["pairs"]

    def test_eval_prints_report_json(self, workspace, capsys):
        code = main(["eval", "--run", str(workspace / "run"),
                     "--data", str(workspace / "data" / "corpus.jsonl"),
                     "--vocab", str(workspace / "data" / "vocab.txt"),
                     "--split", str(workspace / "pl" / "split.json"),
                     "--subset", "test"])
        assert code == 0
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert 0.0 <= report["em"] <= 1.0
        assert 0.0 <= report["token_f1"] <= 1.0
        assert report["lf_exact"] is not None

    def test_digest_mismatch_exits_3(self, workspace, tmp_path, capsys):
        import shutil
        bad = tmp_path / "bad_run"
        shutil.copytree(workspace / "run", bad)
        cfg = json.loads((bad / "model_config.json").read_text())
        cfg["omega"] = 0.99
        (bad / "model_config.json").write_text(json.dumps(cfg))
        code = main(["eval", "--run", str(bad),
                     "--data", str(workspace / "data" / "corpus.jsonl"),
                     "--vocab", str(workspace / "data" / "vocab.txt"),
                     "--split", str(workspace / "pl" / "split.json")])
        assert code == 3
        assert "digest" in capsys.readouterr().err

    @pytest.mark.parametrize("edit,named", [
        (lambda text: text.replace("{", '{"extra": 1, ', 1), "extra"),
        (lambda text: json.dumps({k: v for k, v in json.loads(text).items()
                                  if k != "vocab_size"}), "vocab_size"),
        (lambda text: text[:len(text) // 2], "bad model config"),
        (lambda text: text.replace("{", '{"num_lf_classes": 9, ', 1),
         "num_lf_classes")],
        ids=["unknown_key", "missing_vocab_size", "truncated_json",
             "removed_key"])
    def test_bad_model_config_exits_3(self, workspace, tmp_path, capsys,
                                      edit, named):
        import shutil
        bad = tmp_path / "bad_run"
        shutil.copytree(workspace / "run", bad)
        path = bad / "model_config.json"
        path.write_text(edit(path.read_text()))
        code = main(["eval", "--run", str(bad),
                     "--data", str(workspace / "data" / "corpus.jsonl"),
                     "--vocab", str(workspace / "data" / "vocab.txt"),
                     "--split", str(workspace / "pl" / "split.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert str(path) in err and named in err

    def test_baseline_train_then_eval(self, workspace, tmp_path, capsys):
        data, split = workspace / "data", workspace / "pl" / "split.json"
        run = tmp_path / "baseline"
        assert main(["train", "--data", str(data / "corpus.jsonl"),
                     "--vocab", str(data / "vocab.txt"),
                     "--split", str(split), "--system", "baseline",
                     "--set", "model.hidden_dim=16", "--set", "model.layers=1",
                     "--set", "model.heads=2", "--set", "model.max_seq_len=48",
                     "--set", "model.ffn_mult=2", "--set", "train.epochs=1",
                     "--set", "train.batch_size=32",
                     "--out", str(run)]) == 0
        assert main(["eval", "--run", str(run),
                     "--data", str(data / "corpus.jsonl"),
                     "--vocab", str(data / "vocab.txt"),
                     "--split", str(split)]) == 0
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert 0.0 <= report["token_f1"] <= 1.0

    def test_evidence_on_sentence_setting_exits_2(self, workspace, tmp_path,
                                                  capsys):
        # one-sentence contexts give every evidence pair label 1
        data = workspace / "data"
        code = main(["train", "--data", str(data / "corpus.jsonl"),
                     "--vocab", str(data / "vocab.txt"),
                     "--split", str(workspace / "pl" / "split.json"),
                     "--system", "evidence",
                     "--set", "model.hidden_dim=16", "--set", "model.layers=1",
                     "--set", "model.heads=2", "--set", "model.entity_dim=8",
                     "--set", "model.max_seq_len=48",
                     "--set", "model.ffn_mult=2", "--set", "train.epochs=1",
                     "--out", str(tmp_path / "evidence")])
        assert code == 2
        assert "one-sentence contexts" in capsys.readouterr().err

    def test_evidence_val_pairs_match_between_train_and_eval(
            self, tmp_path, monkeypatch):
        # eval --subset val must score the validation pairs that chose the
        # checkpoint, negatives included
        data, split, run = tmp_path / "data", tmp_path / "pl", tmp_path / "run"
        assert main(["gen-data", "--seed", "0", "--num-notes", "4",
                     "--setting", "paragraph", "--out", str(data)]) == 0
        assert main(["split", "--mode", "pl", "--seed", "0",
                     "--data", str(data / "corpus.jsonl"),
                     "--out", str(split)]) == 0
        common = ["--data", str(data / "corpus.jsonl"),
                  "--vocab", str(data / "vocab.txt"),
                  "--split", str(split / "split.json")]
        captured = {}

        class Captured(Exception):
            pass

        def capture(key, index):
            def record(*args, **kwargs):
                captured[key] = args[index]
                raise Captured
            return record

        monkeypatch.setattr(tr, "train", capture("train", 1))
        with pytest.raises(Captured):
            main(["train", *common, "--system", "evidence", "--seed", "7",
                  "--out", str(run)])
        # an untrained run directory eval can load
        config = tr.apply_system(
            ModelConfig(vocab_size=len(Vocab.load(data / "vocab.txt")),
                        hidden_dim=16, layers=1, heads=2, entity_dim=8,
                        entity_heads=2, ffn_mult=2), "evidence")
        config.save(run / "model_config.json")
        save_checkpoint(run / "model.ckpt", mdl.init_params(config, 0),
                        config.digest())
        monkeypatch.setattr(tr, "evaluate_pairs", capture("eval", 2))
        with pytest.raises(Captured):
            main(["eval", "--run", str(run), *common, "--subset", "val"])
        trained, scored = captured["train"], captured["eval"]
        assert len(trained) == len(scored) > 0
        assert {p.label for p in trained} == {0, 1}
        for a, b in zip(trained, scored):
            np.testing.assert_array_equal(a.token_ids, b.token_ids)
            assert (a.label, a.lf_id) == (b.label, b.lf_id)

    def test_split_file_fixes_evidence_pairs_for_every_seed(
            self, tmp_path, monkeypatch):
        # evidence runs trained at seeds 0 and 7 on one split draw the same
        # validation pairs, and eval scores the same val and test pairs for
        # both: the split file's seed keys the negatives, not the run's
        data, split = tmp_path / "data", tmp_path / "pl"
        assert main(["gen-data", "--seed", "0", "--num-notes", "8",
                     "--setting", "paragraph", "--out", str(data)]) == 0
        assert main(["split", "--mode", "pl", "--seed", "3",
                     "--data", str(data / "corpus.jsonl"),
                     "--out", str(split)]) == 0
        common = ["--data", str(data / "corpus.jsonl"),
                  "--vocab", str(data / "vocab.txt"),
                  "--split", str(split / "split.json")]
        drawn = []

        def untrained(train_pairs, val_pairs, model_config, train_config,
                      **kwargs):
            # `train` writes the run's files around an untrained model
            drawn.append(val_pairs)
            config = tr.apply_system(model_config, train_config.system)
            return tr.TrainResult(mdl.init_params(config, 0), config)

        evaluate = tr.evaluate_pairs

        def scored(params, config, pairs):
            drawn.append(pairs)
            return evaluate(params, config, pairs)

        monkeypatch.setattr(tr, "train", untrained)
        monkeypatch.setattr(tr, "evaluate_pairs", scored)
        for seed in (0, 7):
            run = tmp_path / f"run{seed}"
            assert main(["train", *common, "--system", "evidence",
                         "--seed", str(seed), "--set", "model.hidden_dim=16",
                         "--set", "model.layers=1", "--set", "model.heads=2",
                         "--set", "model.entity_dim=8",
                         "--set", "model.ffn_mult=2", "--out", str(run)]) == 0
            for subset in ("val", "test"):
                out = tmp_path / f"eval{seed}{subset}"
                assert main(["eval", "--run", str(run), *common, "--subset",
                             subset, "--out", str(out)]) == 0
                manifest = json.loads((out / "manifest.json").read_text())
                assert manifest["seed"] == 3
        # per seed: the trained val pairs, then eval's val and test pairs
        trained0, val0, test0, trained7, val7, test7 = drawn
        for a, b in [(trained0, trained7), (trained0, val0), (trained0, val7),
                     (test0, test7)]:
            assert len(a) == len(b) > 0
            assert {p.label for p in a} == {0, 1}
            for x, y in zip(a, b):
                np.testing.assert_array_equal(x.token_ids, y.token_ids)
                assert (x.label, x.lf_id) == (y.label, y.lf_id)

    def test_eval_checkpoint_dims_past_the_end_exit_3(self, workspace,
                                                      tmp_path, capsys):
        # 2^46 floats, read as the first record's size, once ended in a
        # MemoryError traceback
        import shutil
        bad = tmp_path / "bad_run"
        shutil.copytree(workspace / "run", bad)
        path = bad / "model.ckpt"
        blob = path.read_bytes()
        # magic, version, a 64-byte digest, the count, the first name
        (name_len,) = struct.unpack_from("<I", blob, 80)
        at = 84 + name_len
        (ndim,) = struct.unpack_from("<I", blob, at)
        path.write_bytes(blob[:at] + struct.pack("<3I", 2, 2 ** 23, 2 ** 23)
                         + blob[at + 4 + 4 * ndim:])
        code = main(["eval", "--run", str(bad),
                     "--data", str(workspace / "data" / "corpus.jsonl"),
                     "--vocab", str(workspace / "data" / "vocab.txt"),
                     "--split", str(workspace / "pl" / "split.json")])
        assert code == 3
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("change", [-5, 3], ids=["smaller", "larger"])
    def test_eval_vocab_size_mismatch_exits_3(self, workspace, tmp_path,
                                              capsys, change):
        # a smaller vocabulary would score wrong token ids, a larger one
        # index past the embedding table
        tokens = (workspace / "data" / "vocab.txt").read_text().splitlines()
        tokens = (tokens[:change] if change < 0
                  else tokens + [f"zzextra{i}" for i in range(change)])
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("\n".join(tokens) + "\n")
        trained = ModelConfig.load(workspace / "run" / "model_config.json")
        code = main(["eval", "--run", str(workspace / "run"),
                     "--data", str(workspace / "data" / "corpus.jsonl"),
                     "--vocab", str(vocab),
                     "--split", str(workspace / "pl" / "split.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert f"holds {trained.vocab_size + change} tokens" in err
        assert f"trained on {trained.vocab_size}" in err

    @pytest.mark.parametrize("edit", [
        lambda blob: blob + b"\x00",
        lambda blob: blob[:12] + b"\xff" + blob[13:]],
        ids=["trailing_bytes", "digest_not_utf8"])
    def test_bad_checkpoint_bytes_exit_3(self, workspace, tmp_path, capsys,
                                         edit):
        import shutil
        bad = tmp_path / "bad_run"
        shutil.copytree(workspace / "run", bad)
        path = bad / "model.ckpt"
        path.write_bytes(edit(path.read_bytes()))
        code = main(["eval", "--run", str(bad),
                     "--data", str(workspace / "data" / "corpus.jsonl"),
                     "--vocab", str(workspace / "data" / "vocab.txt"),
                     "--split", str(workspace / "pl" / "split.json")])
        assert code == 3
        assert str(path) in capsys.readouterr().err

    def test_checkpoint_of_other_system_exits_3(self, workspace, tmp_path,
                                                capsys):
        # a checkpoint whose parameter names differ from the system's,
        # such as one written before unused parameters were dropped
        import shutil
        from entqa.checkpoint import load_checkpoint, save_checkpoint
        from entqa.tensor import Tensor
        bad = tmp_path / "bad_run"
        shutil.copytree(workspace / "run", bad)
        arrays, digest = load_checkpoint(bad / "model.ckpt")
        arrays["ev.w"] = arrays["span.ws"]
        save_checkpoint(bad / "model.ckpt",
                        {k: Tensor(v) for k, v in arrays.items()}, digest)
        code = main(["eval", "--run", str(bad),
                     "--data", str(workspace / "data" / "corpus.jsonl"),
                     "--vocab", str(workspace / "data" / "vocab.txt"),
                     "--split", str(workspace / "pl" / "split.json")])
        assert code == 3
        assert "parameter name mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("edit,named", [
        (lambda obj: json.dumps({k: v for k, v in obj.items()
                                 if k != "test_notes"}),
         "missing field 'test_notes'"),
        (lambda obj: json.dumps(obj)[:40], "bad split file"),
        (lambda obj: json.dumps({**obj, "mode": "zz"}), "split mode 'zz'"),
        (lambda obj: json.dumps({**obj, "val_notes": ["1"]}),
         "val_notes: note ids must be integers"),
        (lambda obj: json.dumps({**obj, "train_notes": obj["train_notes"]
                                 + obj["test_notes"][:1]}),
         "is in both train_notes and test_notes"),
        (lambda obj: json.dumps({**obj, "templates_train": {
            **obj["templates_train"], "0": obj["templates_train"]["0"]
            + obj["templates_eval"]["0"][:1]}}),
         "is in both templates_train and templates_eval"),
        (lambda obj: json.dumps({**obj, "seed": "3"}),
         "seed must be a non-negative integer, got '3'"),
        (lambda obj: json.dumps({**obj, "seed": -1}),
         "seed must be a non-negative integer, got -1")],
        ids=["missing_key", "truncated_json", "unknown_mode", "string_note_id",
             "note_on_two_sides", "template_on_two_sides", "string_seed",
             "negative_seed"])
    def test_bad_split_file_exits_3(self, workspace, tmp_path, capsys, edit,
                                    named):
        split = tmp_path / "split.json"
        split.write_text(edit(json.loads(
            (workspace / "pl" / "split.json").read_text())))
        data = workspace / "data"
        assert main(["train", "--data", str(data / "corpus.jsonl"),
                     "--vocab", str(data / "vocab.txt"),
                     "--split", str(split), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert str(split) in err and named in err

    @pytest.mark.parametrize("key", ["entity_vocab_size", "num_lf_classes"])
    def test_derived_model_key_is_unknown(self, workspace, tmp_path, capsys,
                                          key):
        # both follow from the inventories of semantic types and LFs
        code = main(["train", "--data",
                     str(workspace / "data" / "corpus.jsonl"),
                     "--vocab", str(workspace / "data" / "vocab.txt"),
                     "--split", str(workspace / "pl" / "split.json"),
                     "--set", f"model.{key}=5", "--out", str(tmp_path)])
        assert code == 2
        assert f"unknown model config key {key!r}" in capsys.readouterr().err

    def test_unknown_config_key(self, workspace, capsys):
        code = main(["train", "--data",
                     str(workspace / "data" / "corpus.jsonl"),
                     "--vocab", str(workspace / "data" / "vocab.txt"),
                     "--split", str(workspace / "pl" / "split.json"),
                     "--set", "model.not_a_field=1",
                     "--out", "/tmp/never2"])
        assert code == 2
        assert "not_a_field" in capsys.readouterr().err


@pytest.fixture(scope="module")
def mismatched(tmp_path_factory):
    """A 10-note corpus with its split and a run trained on them, and a
    20-note corpus whose notes 10-19 that split does not place."""
    root = tmp_path_factory.mktemp("mismatch")
    for n in (10, 20):
        assert main(["gen-data", "--seed", "0", "--num-notes", str(n),
                     "--out", str(root / f"d{n}")]) == 0
    assert main(["split", "--mode", "pl", "--seed", "0",
                 "--data", str(root / "d10" / "corpus.jsonl"),
                 "--out", str(root / "split")]) == 0
    assert main(["train", "--data", str(root / "d10" / "corpus.jsonl"),
                 "--vocab", str(root / "d10" / "vocab.txt"),
                 "--split", str(root / "split" / "split.json"),
                 "--system", "baseline", "--set", "model.hidden_dim=8",
                 "--set", "model.layers=1", "--set", "model.heads=2",
                 "--set", "model.max_seq_len=48", "--set", "model.ffn_mult=1",
                 "--set", "train.epochs=1", "--out", str(root / "run")]) == 0
    return root


def _unknown_template(root, tmp_path):
    """The 10-note corpus with its first record's template renamed."""
    lines = (root / "d10" / "corpus.jsonl").read_text().splitlines()
    first = json.loads(lines[0])
    lines[0] = json.dumps({**first, "question_template_id": "lf0_nope"})
    data = tmp_path / "corpus.jsonl"
    data.write_text("\n".join(lines) + "\n")
    return data, f"example {first['id']} references unknown template " \
                 "'lf0_nope'"


def _unplaced_note(root, tmp_path):
    """The 20-note corpus, whose first note-10 example no part holds."""
    data = root / "d20" / "corpus.jsonl"
    first = next(ex for ex in read_dataset(data) if ex.note_id == 10)
    return data, f"example {first.id} is on note 10, which no part"


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("corpus", [_unplaced_note, _unknown_template],
                         ids=["unplaced_note", "unknown_template"])
def test_corpus_that_disagrees_with_its_split_exits_3(
        mismatched, tmp_path, capsys, command, corpus):
    # every example must fall in a part the split file names, or a split
    # made for a smaller corpus would silently drop the rest of this one
    data, named = corpus(mismatched, tmp_path)
    args = {"train": ["train", "--system", "baseline"],
            "eval": ["eval", "--run", str(mismatched / "run")]}[command]
    assert main(args + ["--data", str(data),
                        "--vocab", str(mismatched / "d10" / "vocab.txt"),
                        "--split", str(mismatched / "split" / "split.json"),
                        "--out", str(tmp_path / "out")]) == 3
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _training_args(workspace, tmp_path, command, system="fused"):
    data = workspace / "data"
    args = [command, "--data", str(data / "corpus.jsonl"),
            "--vocab", str(data / "vocab.txt"), "--out", str(tmp_path / "out")]
    if command == "train":
        args += ["--split", str(workspace / "pl" / "split.json"),
                 "--system", system]
    return args


def _setting(tmp_path, source, key, value):
    """`key` set to `value` through --set or through a --config file."""
    if source == "set":
        return ["--set", f"{key}={json.dumps(value)}"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    return ["--config", str(config)]


def _refused_before_training(*args, **kwargs):
    raise AssertionError("a refused setting reached training")


def _no_training(monkeypatch):
    monkeypatch.setattr(tr, "train", _refused_before_training)
    monkeypatch.setattr(tr, "run_matrix", _refused_before_training)


# what decides each key a training command sets itself, as its message says
DECIDED_BY = {
    "model.vocab_size": {"train": "--vocab", "run-matrix": "--vocab"},
    "model.mode": {"train": "--system", "run-matrix": "--system"},
    "model.use_entities": {"train": "--system", "run-matrix": "--system"},
    "train.system": {"train": "--system", "run-matrix": "run-matrix row"},
    "train.seed": {"train": "--seed", "run-matrix": "--seeds"},
}


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_every_json_output_is_strict_json(tmp_path):
    # RFC 8259 has no NaN or Infinity: a loss a system does not compute is
    # logged as null, on span and on evidence runs alike
    data, split = tmp_path / "data", tmp_path / "pl"
    assert main(["gen-data", "--seed", "0", "--num-notes", "4",
                 "--setting", "paragraph", "--out", str(data)]) == 0
    assert main(["split", "--mode", "pl", "--seed", "0",
                 "--data", str(data / "corpus.jsonl"),
                 "--out", str(split)]) == 0
    common = ["--data", str(data / "corpus.jsonl"),
              "--vocab", str(data / "vocab.txt"),
              "--split", str(split / "split.json")]
    for system in ("multitask", "evidence"):
        run = tmp_path / system
        assert main(["train", *common, "--system", system,
                     "--set", "model.hidden_dim=16", "--set", "model.layers=1",
                     "--set", "model.heads=2", "--set", "model.entity_dim=8",
                     "--set", "model.ffn_mult=2", "--set", "train.epochs=1",
                     "--set", "train.batch_size=32", "--out", str(run)]) == 0
        assert main(["eval", "--run", str(run), *common, "--subset", "val",
                     "--out", str(tmp_path / f"{system}_eval")]) == 0
    files = sorted(tmp_path.rglob("*.json")) + sorted(tmp_path.rglob("*.jsonl"))
    assert len([f for f in files if f.name == "train_log.jsonl"]) == 2
    for path in files:
        for line in path.read_text().splitlines() if path.suffix == ".jsonl" \
                else [path.read_text()]:
            json.loads(line, parse_constant=_refuse_constant)
    logs = {system: [json.loads(line) for line in
                     (tmp_path / system / "train_log.jsonl").open()]
            for system in ("multitask", "evidence")}
    assert all(e["L_evidence"] is None for e in logs["multitask"])
    assert all(e["L_span"] is None for e in logs["evidence"])
    for path in tmp_path.rglob("manifest.json"):
        assert "blas_thread_env" in json.loads(path.read_text()), path


@pytest.mark.parametrize("command", ["train", "run-matrix"])
@pytest.mark.parametrize("key,value", [("model.mode", "evidence"),
                                       ("model.use_entities", False),
                                       ("model.vocab_size", 50),
                                       ("train.system", "evidence"),
                                       ("train.seed", 9)])
@pytest.mark.parametrize("source", ["set", "config"])
def test_system_keys_refused(workspace, tmp_path, capsys, monkeypatch,
                             command, key, value, source):
    # the command sets these itself, so an override would be silently
    # discarded (or, for the vocabulary size, break the embedding table)
    _no_training(monkeypatch)
    args = _training_args(workspace, tmp_path, command)
    assert main(args + _setting(tmp_path, source, key, value)) == 2
    err = capsys.readouterr().err
    assert key in err and DECIDED_BY[key][command] in err


@pytest.mark.parametrize("system,key,says", [
    pytest.param("baseline", "model.omega", "fixes it", id="baseline"),
    pytest.param("fused", "model.omega", "fixes it", id="fused"),
    pytest.param("baseline", "model.entity_dim", "has no use for it",
                 id="baseline-entity_dim"),
    pytest.param("baseline", "model.entity_heads", "has no use for it",
                 id="baseline-entity_heads"),
    pytest.param("baseline", "model.entity_attention_layers",
                 "has no use for it", id="baseline-entity_attention_layers"),
    pytest.param("evidence", "model.max_answer_len", "has no use for it",
                 id="evidence-max_answer_len"),
])
@pytest.mark.parametrize("source", ["set", "config"])
def test_omega_refused_where_the_system_zeroes_it(
        workspace, tmp_path, capsys, monkeypatch, system, key, says, source):
    # the system zeroes omega, or never reads the key; run-matrix accepts
    # them all, since some row reads each
    _no_training(monkeypatch)
    args = _training_args(workspace, tmp_path, "train", system)
    assert main(args + _setting(tmp_path, source, key, FIELD_VALUES[key])) == 2
    err = capsys.readouterr().err
    assert key in err and f"--system {system} {says}" in err


def test_run_matrix_checks_every_row_before_training(
        workspace, tmp_path, capsys, monkeypatch):
    # omega = 0 suits the baseline and fused rows but not multitask's, so
    # run-matrix refuses it before it trains any row
    calls = []

    def trained(*args, **kwargs):
        calls.append(args)
        raise AssertionError("run-matrix trained before refusing omega = 0")

    monkeypatch.setattr(tr, "train", trained)
    args = _training_args(workspace, tmp_path, "run-matrix")
    assert main(args + ["--set", "model.omega=0"]) == 2
    assert calls == []
    assert "omega" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_matrix_refuses_repeated_seeds(workspace, tmp_path, capsys,
                                           monkeypatch):
    # a repeated seed would report one run's result as a mean over several
    monkeypatch.setattr(tr, "train", _refused_before_training)
    args = _training_args(workspace, tmp_path, "run-matrix")
    assert main(args + ["--seeds", "3,1,3"]) == 2
    assert "seed 3" in capsys.readouterr().err


def test_run_matrix_records_coverage(workspace, tmp_path, capsys):
    # each split mode's splits: the examples handed to the encoder and the
    # pairs it kept, recomputed here from the corpus and the split seed;
    # the command writes the matrix files beside the manifest and prints
    # the table it wrote
    data = workspace / "data"
    examples = list(read_dataset(data / "corpus.jsonl"))
    vocab = Vocab.load(data / "vocab.txt")
    want = {mode: {name: {"examples": len(part),
                          "pairs": len(tr.encode_examples(part, vocab, 20))}
                   for name, part in zip(cli.SPLITS, cli.filter_examples(
                       examples, cli._assign(examples, mode, seed=1)))}
            for mode in ("pl", "r")}
    assert all(c["pairs"] < c["examples"]
               for by_split in want.values() for c in by_split.values())
    args = _training_args(workspace, tmp_path, "run-matrix")
    assert main(args + ["--split-seed", "1", "--set", "model.hidden_dim=8",
                        "--set", "model.layers=1", "--set", "model.heads=2",
                        "--set", "model.entity_dim=4",
                        "--set", "model.entity_heads=2",
                        "--set", "model.max_seq_len=20",
                        "--set", "model.ffn_mult=1",
                        "--set", "train.epochs=1"]) == 0
    out = tmp_path / "out"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["coverage"] == want
    header, *rows = (out / "matrix.csv").read_text().splitlines()
    assert header == "system,split,f1_mean,f1_sd,em_mean,em_sd"
    assert [row.split(",")[:2] for row in rows] == [
        [system, mode] for system, mode in tr.MATRIX_ROWS]
    assert capsys.readouterr().out == (out / "matrix.txt").read_text()


@pytest.mark.parametrize("seeds,bad", [("0,1,x", "'x'"), ("0,1,2,", "''")],
                         ids=["not_a_number", "trailing_comma"])
def test_run_matrix_names_a_bad_seed(workspace, tmp_path, capsys,
                                     monkeypatch, seeds, bad):
    monkeypatch.setattr(tr, "run_matrix", _refused_before_training)
    args = _training_args(workspace, tmp_path, "run-matrix")
    assert main(args + ["--seeds", seeds]) == 2
    err = capsys.readouterr().err
    assert "--seeds" in err and bad in err


@pytest.mark.parametrize("command,flag", [
    ("gen-data", ["--seed", "-1"]),
    ("split", ["--seed", "-1"]),
    ("train", ["--seed", "-1"]),
    ("run-matrix", ["--split-seed", "-1"]),
    ("run-matrix", ["--seeds=-1,0,1"]),
], ids=["gen-data", "split", "train", "run-matrix-split-seed",
        "run-matrix-seeds"])
def test_negative_seed_names_its_flag(workspace, tmp_path, capsys,
                                      monkeypatch, command, flag):
    # numpy refuses a negative seed with a message that names no flag
    _no_training(monkeypatch)
    data = workspace / "data"
    out = tmp_path / "out"
    if command == "gen-data":
        args = ["gen-data", "--out", str(out)]
    elif command == "split":
        args = ["split", "--mode", "pl", "--data", str(data / "corpus.jsonl"),
                "--out", str(out)]
    else:
        args = _training_args(workspace, tmp_path, command)
    try:
        code = main(args + flag)
    except SystemExit as exc:   # argparse refuses the value while parsing
        code = exc.code
    assert code == 2
    assert flag[0].split("=")[0] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "run-matrix"])
@pytest.mark.parametrize("key", ["trian.epochs", "epochs", "lr",
                                 "optimizer.lr"])
@pytest.mark.parametrize("source", ["set", "config"])
def test_misscoped_key_exits_2(workspace, tmp_path, capsys, monkeypatch,
                               command, key, source):
    _no_training(monkeypatch)
    args = _training_args(workspace, tmp_path, command)
    assert main(args + _setting(tmp_path, source, key, 1)) == 2
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "run-matrix"])
@pytest.mark.parametrize("text", ["5", "[1, 2]", '"train.lr=1"', "null"])
def test_config_that_is_not_an_object_exits_2(workspace, tmp_path, capsys,
                                              command, text):
    config = tmp_path / "config.json"
    config.write_text(text)
    args = _training_args(workspace, tmp_path, command)
    assert main(args + ["--config", str(config)]) == 2
    assert str(config) in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("train.epochs", 1.5),
                                       ("model.hidden_dim", "16"),
                                       ("model.dropout", "0.1"),
                                       ("model.omega", True),
                                       ("train.system", 3)])
def test_mistyped_value_exits_2(workspace, tmp_path, capsys, monkeypatch,
                                key, value):
    _no_training(monkeypatch)
    args = _training_args(workspace, tmp_path, "run-matrix")
    assert main(args + _setting(tmp_path, "set", key, value)) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "run-matrix"])
@pytest.mark.parametrize("key,value", [
    ("train.epochs", 0), ("train.batch_size", 0), ("train.patience", 0),
    ("train.lr", -1e-3), ("train.weight_decay", -1.0),
    # JSON reads NaN and Infinity, and NaN < 0 is False
    ("train.lr", math.nan), ("train.lr", math.inf),
    ("train.weight_decay", math.nan), ("train.weight_decay", math.inf),
    ("model.dropout", 1.0), ("model.dropout", -0.5),
    ("model.entity_heads", 0), ("model.ffn_mult", 0), ("model.ffn_mult", -1),
    ("model.entity_attention_layers", -1)])
def test_out_of_range_value_exits_2(workspace, tmp_path, capsys, monkeypatch,
                                    command, key, value):
    _no_training(monkeypatch)
    args = _training_args(workspace, tmp_path, command)
    assert main(args + _setting(tmp_path, "set", key, value)) == 2
    assert key.partition(".")[2] in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "run-matrix"])
@pytest.mark.parametrize("bad", ["corpus.jsonl", "vocab.txt"])
def test_file_not_in_utf8_exits_3(workspace, tmp_path, capsys, monkeypatch,
                                  command, bad):
    # a data integrity error that names the file, not a usage error with
    # the bare codec message
    _no_training(monkeypatch)
    data = workspace / "data"
    path = tmp_path / bad
    path.write_bytes((data / bad).read_bytes() + b"\xff\xfe\n")
    args = _training_args(workspace, tmp_path, command)
    args[args.index(str(data / bad))] = str(path)
    assert main(args) == 3
    err = capsys.readouterr().err
    assert str(path) in err and "not UTF-8" in err
    assert not (tmp_path / "out").exists()


# a valid value other than the default for every settable field
FIELD_VALUES = {
    "model.vocab_size": 50, "model.hidden_dim": 16, "model.layers": 1,
    "model.heads": 2, "model.entity_dim": 8,
    "model.entity_attention_layers": 2, "model.entity_heads": 2,
    "model.omega": 0.5, "model.dropout": 0.0, "model.max_seq_len": 48,
    "model.max_answer_len": 10, "model.mode": "evidence",
    "model.use_entities": False, "model.ffn_mult": 2,
    "train.lr": 0.001, "train.weight_decay": 0.0, "train.warmup_frac": 0.2,
    "train.epochs": 1, "train.batch_size": 8, "train.seed": 5,
    "train.patience": 1, "train.system": "fused",
}


# the keys `train --system X` refuses besides DECIDED_BY's: those the
# system fixes or has no use for
SYSTEM_REFUSES = {
    "baseline": {"model.omega", "model.entity_dim", "model.entity_heads",
                 "model.entity_attention_layers"},
    "fused": {"model.omega"},
    "multitask": set(),
    "evidence": {"model.max_answer_len"},
}


@pytest.mark.parametrize("command,system", [
    pytest.param("train", "multitask", id="train"),
    pytest.param("train", "baseline", id="train-baseline"),
    pytest.param("train", "fused", id="train-fused"),
    pytest.param("train", "evidence", id="train-evidence"),
    pytest.param("run-matrix", None, id="run-matrix"),
])
@pytest.mark.parametrize("source", ["set", "config"])
def test_every_setting_is_trained_with_or_exits_2(
        workspace, tmp_path, capsys, monkeypatch, command, system, source):
    # each value either reaches the configs training runs with (after
    # apply_system; on run-matrix, in at least one row) or exits 2 naming
    # its key, and only the keys the command decides itself exit 2
    defaults = {**{f"model.{f.name}": f.default
                   for f in dataclasses.fields(ModelConfig)},
                **{f"train.{f.name}": f.default
                   for f in dataclasses.fields(tr.TrainConfig)}}
    assert set(FIELD_VALUES) == set(defaults)

    class Captured(Exception):
        pass

    rows = []

    def capture_train(train_pairs, val_pairs, model_config, train_config,
                      **kwargs):
        rows.append((tr.apply_system(model_config, train_config.system),
                     train_config))
        raise Captured

    def capture_matrix(splits_by_mode, vocab, model_config, train_config,
                       seeds, **kwargs):
        for system, _ in tr.MATRIX_ROWS:
            for seed in seeds:
                rows.append((tr.apply_system(model_config, system),
                             dataclasses.replace(train_config, system=system,
                                                 seed=seed)))
        raise Captured

    monkeypatch.setattr(tr, "train", capture_train)
    monkeypatch.setattr(tr, "run_matrix", capture_matrix)
    refused = set()
    for key, value in FIELD_VALUES.items():
        assert value != defaults[key], key
        rows.clear()
        args = _training_args(workspace, tmp_path, command, system)
        try:
            code = main(args + _setting(tmp_path, source, key, value))
        except Captured:
            scope, _, name = key.partition(".")
            assert any(getattr(model if scope == "model" else train, name)
                       == value for model, train in rows), key
            continue
        assert code == 2, key
        assert key in capsys.readouterr().err, key
        refused.add(key)
    assert refused == set(DECIDED_BY).union(SYSTEM_REFUSES.get(system, ()))


class TestGradcheck:
    def test_single_seed_passes(self, capsys):
        assert main(["gradcheck", "--seeds", "1", "--json"]) == 0
        out = json.loads(capsys.readouterr().out.strip())
        assert out["passed"]
        assert out["worst"] <= 1e-4

    def test_impossible_tolerance_exits_4(self, capsys):
        assert main(["gradcheck", "--seeds", "1",
                     "--tolerance", "1e-18"]) == 4

    def test_nan_gradient_exits_4(self, capsys, monkeypatch):
        # fusion's GELU hands back NaN: every fragment through it fails
        gelu = T.gelu

        def nan_gelu(x):
            out = gelu(x)
            out._node.vjp = lambda g: (np.full(g.shape, np.nan),)
            return out

        monkeypatch.setattr(T, "gelu", nan_gelu)
        assert main(["gradcheck", "--seeds", "1", "--json"]) == 4
        out = json.loads(capsys.readouterr().out.strip())
        assert out["worst"] == math.inf

    @pytest.mark.parametrize("flags,named", [
        (["--seeds", "0"], "--seeds"), (["--seeds", "-3"], "--seeds"),
        (["--seeds", "1", "--tolerance", "nan"], "--tolerance"),
        (["--seeds", "1", "--tolerance", "inf"], "--tolerance"),
        (["--seeds", "1", "--tolerance", "0"], "--tolerance"),
        (["--seeds", "1", "--tolerance", "-0.001"], "--tolerance")],
        ids=["no_seeds", "negative_seeds", "nan", "inf", "zero", "negative"])
    def test_check_that_cannot_fail_exits_2(self, capsys, flags, named):
        # no seeds check nothing, and no error exceeds a NaN or infinite
        # tolerance, so the check would pass vacuously
        assert main(["gradcheck", *flags]) == 2
        assert named in capsys.readouterr().err


class TestLfTokenize:
    def test_json_output(self, capsys):
        assert main(["lf-tokenize", "--lf-id", "0", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["tokens"]["MedicationEvent"] == 1
        assert out["tokens"]["|medication|"] == 1

    def test_free_text(self, capsys):
        assert main(["lf-tokenize", "Event (|x|) [a=b]"]) == 0
        assert "Event x1" in capsys.readouterr().out

    def test_bad_lf_id(self, capsys):
        assert main(["lf-tokenize", "--lf-id", "99"]) == 2
