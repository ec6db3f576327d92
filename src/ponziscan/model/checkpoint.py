"""Deterministic checkpoint archive.

A checkpoint is a zip (stored, fixed timestamps, fixed entry order) holding
meta.json (config plus caller metadata, sorted keys), vocab.txt, and
tensors.bin (each tensor as name, dims, row-major float64 little-endian,
name-sorted). Identical params/vocab/config/extra bytes in, identical file
bytes out, regardless of when or where it is written.
"""

from __future__ import annotations

import io
import json
import math
import struct
import zipfile
from pathlib import Path

import numpy as np

from ponziscan.encoding import Vocabulary
from ponziscan.errors import CorruptCheckpoint, IdOutOfRange, ShapeMismatch
from ponziscan.model.config import ModelConfig
from ponziscan.model.params import Params, param_shapes

FORMAT_VERSION = 1
_MAGIC = b"PSCT"
_FIXED_DATE = (1980, 1, 1, 0, 0, 0)


def _pack_tensors(params: Params) -> bytes:
    buf = io.BytesIO()
    buf.write(_MAGIC)
    buf.write(struct.pack("<I", len(params)))
    for name in sorted(params):
        arr = np.ascontiguousarray(params[name], dtype="<f8")
        encoded = name.encode("utf-8")
        buf.write(struct.pack("<H", len(encoded)))
        buf.write(encoded)
        buf.write(struct.pack("<B", arr.ndim))
        for dim in arr.shape:
            buf.write(struct.pack("<Q", dim))
        buf.write(arr.tobytes(order="C"))
    return buf.getvalue()


def _unpack_tensors(blob: bytes) -> Params:
    if blob[:4] != _MAGIC:
        raise ValueError("not a tensor archive (bad magic)")
    offset = 4
    (count,) = struct.unpack_from("<I", blob, offset)
    offset += 4
    params: Params = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", blob, offset)
        offset += 2
        name = blob[offset:offset + name_len].decode("utf-8")
        offset += name_len
        (ndim,) = struct.unpack_from("<B", blob, offset)
        offset += 1
        shape = struct.unpack_from(f"<{ndim}Q", blob, offset)
        offset += 8 * ndim
        n = math.prod(shape)  # exact, where numpy's product would overflow
        if 8 * n > len(blob) - offset:
            raise ValueError(f"tensor {name!r} runs past the end of the archive")
        arr = np.frombuffer(blob, dtype="<f8", count=n, offset=offset)
        offset += 8 * n
        params[name] = arr.reshape(shape).astype(np.float64)
    if offset != len(blob):
        raise ValueError(f"{len(blob) - offset} bytes after the last tensor")
    return params


def save_checkpoint(path: str | Path, params: Params, vocab: Vocabulary,
                    config: ModelConfig, extra: dict | None = None) -> None:
    meta = {
        "format_version": FORMAT_VERSION,
        "config": config.to_dict(),
        "extra": extra or {},
    }
    entries = [
        ("meta.json", json.dumps(meta, sort_keys=True, separators=(",", ":")).encode() + b"\n"),
        ("vocab.txt", ("\n".join(vocab.to_lines()) + "\n").encode()),
        ("tensors.bin", _pack_tensors(params)),
    ]
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as zf:
        for name, data in entries:
            info = zipfile.ZipInfo(name, date_time=_FIXED_DATE)
            info.compress_type = zipfile.ZIP_STORED
            info.external_attr = 0o644 << 16
            zf.writestr(info, data)


def load_checkpoint(path: str | Path):
    """Returns (params, vocab, config, extra). Raises CorruptCheckpoint for
    anything but an archive of this format holding exactly the tensors its
    config and vocabulary imply; OSError if the file cannot be read."""
    try:
        with zipfile.ZipFile(path, "r") as zf:
            meta = json.loads(zf.read("meta.json").decode())
            vocab = Vocabulary.from_lines(zf.read("vocab.txt").decode().splitlines())
            params = _unpack_tensors(zf.read("tensors.bin"))
        if not isinstance(meta, dict) or not isinstance(meta.get("config"), dict):
            raise CorruptCheckpoint(f"{path}: meta.json has no config object")
        if meta.get("format_version") != FORMAT_VERSION:
            raise CorruptCheckpoint(f"{path}: unsupported format_version "
                                    f"{meta.get('format_version')!r}")
        config = ModelConfig.from_dict(meta["config"])
    except (zipfile.BadZipFile, KeyError, struct.error, TypeError, ValueError,
            OverflowError, RecursionError, IdOutOfRange, ShapeMismatch) as exc:
        raise CorruptCheckpoint(f"{path}: not a valid checkpoint ({exc})") from exc
    expected = param_shapes(config, len(vocab))
    actual = {name: arr.shape for name, arr in params.items()}
    wrong = sorted(n for n in expected.keys() | actual.keys()
                   if expected.get(n) != actual.get(n))
    if wrong:
        raise CorruptCheckpoint(f"{path}: tensors do not match the config: "
                                + ", ".join(wrong))
    return params, vocab, config, meta.get("extra", {})
