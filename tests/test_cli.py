import json

import pytest

from entqa.cli import main
from entqa.corpus import read_dataset


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
        for name in ("corpus.jsonl", "gazetteer.json", "vocab.txt",
                     "manifest.json"):
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

    def test_baseline_train_then_eval(self, workspace, tmp_path, capsys):
        data, split = workspace / "data", workspace / "pl" / "split.json"
        run = tmp_path / "baseline"
        assert main(["train", "--data", str(data / "corpus.jsonl"),
                     "--vocab", str(data / "vocab.txt"),
                     "--split", str(split), "--system", "baseline",
                     "--set", "model.hidden_dim=16", "--set", "model.layers=1",
                     "--set", "model.heads=2", "--set", "model.entity_dim=8",
                     "--set", "model.max_seq_len=48",
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

    def test_unknown_config_key(self, workspace, capsys):
        code = main(["train", "--data",
                     str(workspace / "data" / "corpus.jsonl"),
                     "--vocab", str(workspace / "data" / "vocab.txt"),
                     "--split", str(workspace / "pl" / "split.json"),
                     "--set", "model.not_a_field=1",
                     "--out", "/tmp/never2"])
        assert code == 2
        assert "not_a_field" in capsys.readouterr().err


class TestGradcheck:
    def test_single_seed_passes(self, capsys):
        assert main(["gradcheck", "--seeds", "1", "--json"]) == 0
        out = json.loads(capsys.readouterr().out.strip())
        assert out["passed"]
        assert out["worst"] <= 1e-4

    def test_impossible_tolerance_exits_4(self, capsys):
        assert main(["gradcheck", "--seeds", "1",
                     "--tolerance", "1e-18"]) == 4


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
