import numpy as np
import pytest

from entqa.checkpoint import (CheckpointError, load_checkpoint, restore_params,
                              save_checkpoint)
from entqa.cli import write_manifest
from entqa.model import ModelConfig
from entqa.tensor import Tensor


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


@pytest.mark.parametrize("write", [_checkpoint_writes, _manifest_writes,
                                   _config_writes],
                         ids=["checkpoint", "manifest", "model_config"])
def test_failed_write_leaves_previous_file_intact(tmp_path, write):
    path = write(tmp_path, ok=True)
    before = path.read_bytes()
    with pytest.raises((OSError, TypeError)):
        write(tmp_path, ok=False)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
