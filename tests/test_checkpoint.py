import struct
from types import SimpleNamespace

import numpy as np
import pytest

from entqa import cli
from entqa import trainer as tr
from entqa.checkpoint import (MAGIC, VERSION, CheckpointError, load_checkpoint,
                              restore_params, save_checkpoint)
from entqa.cli import write_manifest
from entqa.corpus import (build_templates, generate_corpus,
                          instantiate_questions, write_dataset)
from entqa.metrics import EvalReport
from entqa.model import ModelConfig
from entqa.splits import make_assignment
from entqa.tensor import Tensor
from entqa.textpipe import Vocab


@pytest.fixture
def params():
    rng = np.random.default_rng(0)
    return {
        "emb": Tensor(rng.normal(size=(7, 4))),
        "w": Tensor(rng.normal(size=(4, 4))),
        "b": Tensor(np.zeros(4)),
    }


class TestRoundtrip:
    def test_values_survive_at_float32_precision(self, tmp_path, params):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, "digest123")
        arrays, digest = load_checkpoint(path)
        assert digest == "digest123"
        assert set(arrays) == set(params)
        for name, p in params.items():
            np.testing.assert_allclose(arrays[name], p.data, atol=1e-6)
            assert arrays[name].dtype == np.float64

    def test_restore_into_fresh_params(self, tmp_path, params):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, "d")
        fresh = {k: Tensor(np.zeros_like(v.data)) for k, v in params.items()}
        arrays, _ = load_checkpoint(path)
        restore_params(fresh, arrays)
        np.testing.assert_allclose(fresh["w"].data, params["w"].data,
                                   atol=1e-6)

    def test_scalar_and_empty_shapes(self, tmp_path):
        params = {"s": Tensor(np.float64(2.5)), "v": Tensor(np.zeros(0))}
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, "d")
        arrays, _ = load_checkpoint(path)
        assert arrays["s"].shape == ()
        assert arrays["s"] == 2.5
        assert arrays["v"].shape == (0,)


class TestValidation:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_bad_version(self, tmp_path, params):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, "d")
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path, params):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, "d")
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 10])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field", ["digest", "name"])
    def test_non_utf8_text_names_the_file(self, tmp_path, params, field):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, "d")
        blob = path.read_bytes()
        # the digest "d" is byte 12; the first name, "b", is byte 21, after
        # the record count and the name's length
        at = 12 if field == "digest" else 21
        path.write_bytes(blob[:at] + b"\xff" + blob[at + 1:])
        with pytest.raises(CheckpointError, match="not UTF-8") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    def test_trailing_bytes_name_the_file(self, tmp_path, params):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, "d")
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CheckpointError, match="after the last") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("name_len,dims", [
        (1, (2 ** 23, 2 ** 23)), (1, (65536,) * 4), (1000, ())],
        ids=["huge_dims", "overflowing_dims", "name_past_eof"])
    def test_lengths_past_the_end_name_the_file(self, tmp_path, name_len,
                                                dims):
        # a header length past the end of the file is refused before it
        # is read: 2^46 floats once ended in a MemoryError, and 2^64 in an
        # int64 overflow that read nothing and failed to reshape
        path = tmp_path / "model.ckpt"
        path.write_bytes(
            MAGIC + struct.pack("<II", VERSION, 1) + b"d"
            + struct.pack("<II", 1, name_len) + b"w"
            + struct.pack(f"<I{len(dims)}I", len(dims), *dims) + bytes(64))
        with pytest.raises(CheckpointError, match="truncated") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    def test_restore_name_mismatch(self, params):
        arrays = {k: v.data for k, v in params.items()}
        del arrays["b"]
        arrays["stray"] = np.zeros(2)
        with pytest.raises(CheckpointError, match="stray"):
            restore_params(params, arrays)

    def test_restore_shape_mismatch(self, params):
        arrays = {k: v.data.copy() for k, v in params.items()}
        arrays["w"] = np.zeros((2, 2))
        with pytest.raises(CheckpointError, match="shape"):
            restore_params(params, arrays)


class _Unreadable:
    """A parameter whose values cannot be read, to fail a save part-way."""

    @property
    def data(self):
        raise OSError("device full")


def _config_writes(tmp_path, ok):
    config = ModelConfig(vocab_size=10)
    if not ok:
        config.mode = object()     # json.dump fails after the first keys
    config.save(tmp_path / "model_config.json")
    return tmp_path / "model_config.json"


def _manifest_writes(tmp_path, ok):
    write_manifest(tmp_path, "train", [], {"lr": 1e-3 if ok else object()}, 0)
    return tmp_path / "manifest.json"


def _checkpoint_writes(tmp_path, ok):
    # records are written in name order, so "a" is on disk when "z" fails
    params = {"a": Tensor(np.ones(3)),
              "z": Tensor(np.zeros(2)) if ok else _Unreadable()}
    save_checkpoint(tmp_path / "model.ckpt", params, "d")
    return tmp_path / "model.ckpt"


def _vocab_writes(tmp_path, ok):
    # a non-string token fails after "aspirin" is written
    Vocab(["aspirin", "dose" if ok else 5]).save(tmp_path / "vocab.txt")
    return tmp_path / "vocab.txt"


def _dataset_writes(tmp_path, ok):
    records = [SimpleNamespace(to_json=lambda: {"id": "q1"}),
               SimpleNamespace(to_json=lambda: {"id": "q2" if ok else object()})]
    write_dataset(records, tmp_path / "corpus.jsonl")
    return tmp_path / "corpus.jsonl"


def _split_writes(tmp_path, ok):
    notes = [SimpleNamespace(note_id=i) for i in range(6)]
    assignment = make_assignment(notes, build_templates(), "pl", seed=0)
    if not ok:
        assignment.seed = object()     # "mode" is written before it
    assignment.save(tmp_path / "split.json")
    return tmp_path / "split.json"


def _id_list_writes(tmp_path, ok):
    corpus = tmp_path / "corpus.jsonl"
    if not corpus.exists():
        write_dataset(instantiate_questions(generate_corpus(seed=0, num_notes=4),
                                            build_templates()), corpus)
    argv = ["split", "--mode", "pl", "--data", str(corpus), "--out",
            str(tmp_path)]
    with pytest.MonkeyPatch.context() as mp:
        if not ok:
            # a second training record without an id fails the list part-way
            def with_bad_record(examples, assignment):
                train, val, test = filter_examples(examples, assignment)
                bad = SimpleNamespace(id=None, note_id=train[0].note_id,
                                      question_template_id=train[0]
                                      .question_template_id)
                return train[:1] + [bad] + train[1:], val, test
            filter_examples = cli.filter_examples
            mp.setattr(cli, "filter_examples", with_bad_record)
        assert cli.main(argv + ["--seed", "0"]) == 0
    return tmp_path / "train_ids.txt"


def _report(ok):
    return EvalReport(n_examples=2, em=0.5, token_f1=0.5,
                      per_lf={0: {"em": 0.5, "f1": 0.5, "n": 2}} if ok
                      else {0: object()},
                      confusion=[[1, 0], [0, 1] if ok else object()])


def _report_writes(tmp_path, ok):
    # keys are sorted, so "confusion" and "em" are written before "per_lf"
    _report(ok).save(tmp_path / "report.json")
    return tmp_path / "report.json"


def _confusion_writes(tmp_path, ok):
    _report(ok).save_confusion_csv(tmp_path / "confusion.csv")
    return tmp_path / "confusion.csv"


_CELLS = {("baseline", "pl"): {"f1": [50.0, 52.0], "em": [40.0, 42.0]},
          ("fused", "pl"): {"f1": [60.0, 58.0], "em": [48.0, 50.0]}}


def _matrix_csv_writes(tmp_path, ok):
    # the second row fails after the header and the first row
    cells = dict(_CELLS)
    if not ok:
        cells[("fused", "pl")] = {"f1": [object()], "em": [0.0]}
    tr.save_matrix(cells, tmp_path)
    return tmp_path / "matrix.csv"


def _matrix_txt_writes(tmp_path, ok):
    with pytest.MonkeyPatch.context() as mp:
        if not ok:
            def fail(cells):
                raise OSError("device full")
            mp.setattr(tr, "format_matrix", fail)
        tr.save_matrix(_CELLS, tmp_path)
    return tmp_path / "matrix.txt"


@pytest.mark.parametrize("write", [
    _checkpoint_writes, _manifest_writes, _config_writes, _vocab_writes,
    _dataset_writes, _split_writes, _id_list_writes, _report_writes,
    _confusion_writes, _matrix_csv_writes, _matrix_txt_writes,
], ids=["checkpoint", "manifest", "model_config", "vocab", "dataset", "split",
        "id_list", "report", "confusion", "matrix_csv", "matrix_txt"])
def test_failed_write_leaves_previous_file_intact(tmp_path, write):
    path = write(tmp_path, ok=True)
    before = path.read_bytes()
    listing = sorted(p.name for p in tmp_path.iterdir())
    with pytest.raises((OSError, TypeError)):
        write(tmp_path, ok=False)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == listing
