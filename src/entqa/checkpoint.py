"""Versioned binary checkpoint container.

Layout (little-endian): magic "MTLQ", uint32 format version, length-
prefixed config digest, uint32 record count, then per record a length-
prefixed utf-8 name, uint32 ndim, uint32 dims, and a float32 payload;
nothing follows the last record.
Files are written through `atomic_write`, so a save that fails part-way
leaves the previous file in place.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct

import numpy as np

from .tensor import Tensor

MAGIC = b"MTLQ"
VERSION = 1


class CheckpointError(ValueError):
    pass


@contextlib.contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """Write a temporary file beside `path` and move it over `path` when the
    block ends without an exception; otherwise remove it, leaving `path` as
    it was."""
    path = os.fspath(path)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def _write_bytes(fh, blob: bytes):
    fh.write(struct.pack("<I", len(blob)))
    fh.write(blob)


def _read_exact(fh, n: int) -> bytes:
    """The next `n` bytes; a length past the end of the file is refused
    before anything is read, so a corrupt header allocates nothing."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise CheckpointError(f"{fh.name}: truncated checkpoint file: "
                              f"{n} bytes wanted, {left} left")
    return fh.read(n)


def _read_bytes(fh) -> bytes:
    (n,) = struct.unpack("<I", _read_exact(fh, 4))
    return _read_exact(fh, n)


def _read_text(fh) -> str:
    try:
        return _read_bytes(fh).decode()
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"{fh.name}: a digest or parameter name is "
                              f"not UTF-8: {exc}") from exc


def save_checkpoint(path, params: dict[str, Tensor], config_digest: str):
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        _write_bytes(fh, config_digest.encode())
        fh.write(struct.pack("<I", len(params)))
        for name in sorted(params):
            data = params[name].data
            _write_bytes(fh, name.encode())
            fh.write(struct.pack("<I", data.ndim))
            fh.write(struct.pack(f"<{data.ndim}I", *data.shape))
            fh.write(np.ascontiguousarray(data, dtype="<f4").tobytes())


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], str]:
    """Returns (name -> float64 array, config digest)."""
    with open(path, "rb") as fh:
        if _read_exact(fh, 4) != MAGIC:
            raise CheckpointError(f"{path}: bad magic bytes")
        (version,) = struct.unpack("<I", _read_exact(fh, 4))
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported version {version}")
        digest = _read_text(fh)
        (count,) = struct.unpack("<I", _read_exact(fh, 4))
        arrays = {}
        for _ in range(count):
            name = _read_text(fh)
            (ndim,) = struct.unpack("<I", _read_exact(fh, 4))
            shape = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim))
            payload = _read_exact(fh, 4 * math.prod(shape))
            arrays[name] = np.frombuffer(payload, dtype="<f4").reshape(shape) \
                .astype(np.float64)
        if fh.read(1):
            raise CheckpointError(f"{path}: bytes after the last of its "
                                  f"{count} records")
    return arrays, digest


def restore_params(params: dict[str, Tensor], arrays: dict[str, np.ndarray]):
    """Copy loaded arrays into live parameter tensors, name-checked, and
    drop the gradients they held, which belong to the replaced data."""
    missing = set(params) - set(arrays)
    extra = set(arrays) - set(params)
    if missing or extra:
        raise CheckpointError(
            f"parameter name mismatch: missing={sorted(missing)[:5]}, "
            f"extra={sorted(extra)[:5]}")
    for name, p in params.items():
        if p.data.shape != arrays[name].shape:
            raise CheckpointError(
                f"shape mismatch for {name}: {p.data.shape} vs "
                f"{arrays[name].shape}")
        p.data = arrays[name].copy()
        if p.requires_grad:
            p.grad = None
