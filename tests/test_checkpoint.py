"""Checkpoint archive: round-trip fidelity and byte determinism."""

from __future__ import annotations

import json
import time
import zipfile

import numpy as np
import pytest

from ponziscan.encoding import build_vocab
from ponziscan.errors import DomainError, ShapeMismatch
from ponziscan.model.checkpoint import (
    _pack_tensors,
    _unpack_tensors,
    load_checkpoint,
    save_checkpoint,
)
from ponziscan.model.config import ModelConfig
from ponziscan.model.params import init_params


@pytest.fixture()
def payload():
    config = ModelConfig(n_layers=1, d_h=8, n_heads=2, d_ff=16,
                         code_len=8, flow_len=2, seed=5)
    vocab = build_vocab(['uint a = b; s = "q\\t";'], cap=32)
    params = init_params(config, len(vocab))
    return params, vocab, config


def test_round_trip_exact(tmp_path, payload):
    params, vocab, config = payload
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, vocab, config, extra={"stage": "test"})
    p2, v2, c2, extra = load_checkpoint(path)
    assert c2 == config
    assert extra == {"stage": "test"}
    assert v2.to_lines() == vocab.to_lines()
    assert set(p2) == set(params)
    for name in params:
        assert np.array_equal(p2[name], params[name])
        assert p2[name].dtype == np.float64


def test_byte_identical_across_writes(tmp_path, payload):
    params, vocab, config = payload
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(a, params, vocab, config, extra={"epochs": 3})
    time.sleep(0.05)
    save_checkpoint(b, params, vocab, config, extra={"epochs": 3})
    assert a.read_bytes() == b.read_bytes()


def test_extra_defaults_to_empty(tmp_path, payload):
    params, vocab, config = payload
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, vocab, config)
    *_, extra = load_checkpoint(path)
    assert extra == {}


def test_archive_entries_and_order(tmp_path, payload):
    params, vocab, config = payload
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, vocab, config)
    with zipfile.ZipFile(path) as zf:
        assert [i.filename for i in zf.infolist()] == [
            "meta.json", "vocab.txt", "tensors.bin"]
        for info in zf.infolist():
            assert info.compress_type == zipfile.ZIP_STORED
            assert info.date_time == (1980, 1, 1, 0, 0, 0)


def test_tensor_pack_round_trip():
    params = {
        "empty": np.zeros((0, 3)),
        "scalarish": np.array([7.5]),
        "mat": np.arange(12, dtype=np.float64).reshape(3, 4),
    }
    out = _unpack_tensors(_pack_tensors(params))
    assert set(out) == set(params)
    for name in params:
        assert out[name].shape == params[name].shape
        assert np.array_equal(out[name], params[name])


def test_tensor_pack_is_name_sorted():
    a = _pack_tensors({"b": np.ones(2), "a": np.zeros(2)})
    b = _pack_tensors({"a": np.zeros(2), "b": np.ones(2)})
    assert a == b


def test_bad_magic_rejected():
    with pytest.raises(ShapeMismatch):
        _unpack_tensors(b"NOPE" + b"\x00" * 16)


def test_non_contiguous_tensors_survive(tmp_path, payload):
    params, vocab, config = payload
    params = dict(params)
    rows, cols = params["tok_emb"].shape
    base = np.arange(4 * rows * cols, dtype=np.float64).reshape(2 * rows, 2 * cols)
    params["tok_emb"] = base[::2, ::2]  # strided view of the right shape
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, vocab, config)
    p2, *_ = load_checkpoint(path)
    assert np.array_equal(p2["tok_emb"], base[::2, ::2])


def _entries(mutate):
    """A corruption that applies mutate(entries) to the archive's
    {name: bytes} and writes the archive back."""
    def corrupt(path):
        with zipfile.ZipFile(path) as zf:
            entries = {name: zf.read(name) for name in zf.namelist()}
        mutate(entries)
        with zipfile.ZipFile(path, "w") as zf:
            for name, data in entries.items():
                zf.writestr(name, data)
    return corrupt


def _meta(edit):
    def mutate(entries):
        meta = json.loads(entries["meta.json"])
        edit(meta)
        entries["meta.json"] = json.dumps(meta).encode()
    return _entries(mutate)


def _tensors(edit):
    def mutate(entries):
        params = _unpack_tensors(entries["tensors.bin"])
        edit(params)
        entries["tensors.bin"] = _pack_tensors(params)
    return _entries(mutate)


def _set(name, data):
    return _entries(lambda e: e.update({name: data(e[name]) if callable(data)
                                        else data}))


CORRUPTIONS = {
    "not_a_zip": lambda path: path.write_bytes(b"not a zip archive"),
    "missing_meta": _entries(lambda e: e.pop("meta.json")),
    "missing_vocab": _entries(lambda e: e.pop("vocab.txt")),
    "missing_tensors": _entries(lambda e: e.pop("tensors.bin")),
    "meta_not_json": _set("meta.json", b"{not json"),
    "meta_not_utf8": _set("meta.json", b"\xff\xfe"),
    "meta_not_object": _set("meta.json", b"[1, 2]"),
    "vocab_not_utf8": _set("vocab.txt", b"\xff\xfe"),
    "vocab_bad_line": _set("vocab.txt", b"no-tab-here\n"),
    "tensors_truncated_header": _set("tensors.bin", b"PSCT\x01"),
    "tensors_short_data": _set("tensors.bin", lambda blob: blob[:-8]),
    "tensors_bad_magic": _set("tensors.bin", lambda blob: b"NOPE" + blob[4:]),
    "config_not_object": _meta(lambda m: m.update(config=[1, 8])),
    "config_bad_value": _meta(lambda m: m["config"].update(d_h="wide")),
    "config_unknown_key": _meta(lambda m: m["config"].update(depth=3)),
    "format_version_newer": _meta(lambda m: m.update(format_version=2)),
    "format_version_missing": _meta(lambda m: m.pop("format_version")),
    "tensor_missing": _tensors(lambda p: p.pop("cls_w")),
    "tensor_extra": _tensors(lambda p: p.update(extra=np.zeros(2))),
    "tensor_wrong_shape": _tensors(lambda p: p.update(cls_w=np.zeros((3, 2)))),
    # one more well-formed entry: tok_emb no longer has a row per token
    "vocab_size_mismatch": _set("vocab.txt", lambda text: text + b'"zzz"\t%d\n'
                                % len(text.splitlines())),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_corrupt_checkpoint_is_domain_error(tmp_path, payload, case):
    params, vocab, config = payload
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, vocab, config)
    load_checkpoint(path)  # intact before the corruption
    CORRUPTIONS[case](path)
    with pytest.raises(DomainError):
        load_checkpoint(path)
