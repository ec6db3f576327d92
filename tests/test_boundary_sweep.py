"""Every JSON input boundary, swept with seeded single edits.

Each sweep edits an intact input 400 times (a bit flip, a truncation, an
insertion, a deletion, or an array nested deeper than the recursion limit;
see helpers.edit_bytes). Every edited input must load, or be refused by
that boundary's own error: a dataset line by the dataset errors, a
--config file by a usage error (exit 2), meta.json by CorruptCheckpoint,
an HTTP body by NetworkError, a cache file by a miss, and a SourceCode
bundle by passing its raw text through. Anything else escapes the sweep
and fails it, a warning included (the suite turns warnings into errors).
The pinned probes, a whole input nested too deep and a source holding a
lone surrogate, run first.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import urllib.request
import zipfile

import pytest

from ponziscan import ingest
from ponziscan.cli import main
from ponziscan.encoding import build_vocab
from ponziscan.errors import (
    CorruptCheckpoint,
    DuplicateIdx,
    EmptyDataset,
    MalformedRecord,
    NetworkError,
    NotVerified,
)
from ponziscan.ingest import ApiConfig, fetch_verified_source
from ponziscan.model.checkpoint import load_checkpoint, save_checkpoint
from ponziscan.model.config import ModelConfig
from ponziscan.model.params import init_params
from ponziscan.pipeline import load_dataset

from helpers import NESTED_TOO_DEEP, edit_bytes

EDITS = 400
ADDRESS = "0x" + "ab12" * 10


def _sweep(intact: bytes, load, probes: list[tuple[bytes, bool]], seed: int) -> None:
    """load(data) says whether data loaded (True) or was refused by the
    boundary's own error (False); each probe must give its outcome, and the
    edits must give both."""
    assert load(intact)
    for data, loads in probes:
        assert load(data) is loads
    rng = random.Random(seed)
    loaded = sum(load(edit_bytes(intact, rng)) for _ in range(EDITS))
    assert 0 < loaded < EDITS


def test_edited_dataset_line_loads_or_is_malformed(tmp_path):
    path = tmp_path / "data.jsonl"
    lines = [json.dumps({"idx": i, "source": f"contract C{i} {{ uint x; }}",
                         "label": i % 2}).encode() for i in range(3)]

    def load(line: bytes) -> bool:
        path.write_bytes(b"\n".join([lines[0], line, lines[2]]) + b"\n")
        try:
            load_dataset(path)
        except (MalformedRecord, DuplicateIdx, EmptyDataset):
            return False
        return True

    # the lone surrogate loads here; lex refuses it on the model path
    surrogate = b'{"idx": 1, "source": "contract C { string s = \\"\\ud800\\"; }", "label": 0}'
    _sweep(lines[1], load, [(NESTED_TOO_DEEP, False), (surrogate, True)], seed=1)


def test_edited_config_file_runs_or_is_usage_error(tmp_path):
    source = tmp_path / "c.sol"
    source.write_text("contract C { uint x; function f() public { x = 1; } }")
    cfg = tmp_path / "cfg.json"

    def load(data: bytes) -> bool:
        cfg.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["dfg", "--source", str(source), "--config", str(cfg)])
        assert code in (0, 2), err.getvalue()
        return code == 0

    # keys of other subcommands' options are accepted, values and all
    intact = json.dumps({"format": "json", "pretty": False, "seed": 3,
                         "epochs": 2, "split": "random"}).encode()
    _sweep(intact, load, [(NESTED_TOO_DEEP, False)], seed=2)


def test_edited_meta_json_loads_or_is_corrupt(tmp_path):
    config = ModelConfig(n_layers=1, d_h=8, n_heads=2, d_ff=16, code_len=8,
                         flow_len=2, seed=5)
    vocab = build_vocab(["uint a = b;"], cap=16)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, init_params(config, len(vocab)), vocab, config,
                    extra={"stage": "test"})
    with zipfile.ZipFile(path) as zf:
        entries = {name: zf.read(name) for name in zf.namelist()}

    def load(meta: bytes) -> bool:
        with zipfile.ZipFile(path, "w") as zf:
            for name, data in {**entries, "meta.json": meta}.items():
                zf.writestr(name, data)
        try:
            load_checkpoint(path)
        except CorruptCheckpoint:
            return False
        return True

    _sweep(entries["meta.json"], load, [(NESTED_TOO_DEEP, False)], seed=3)


def _ok_body(source: str) -> dict:
    return {"status": "1", "message": "OK",
            "result": [{"SourceCode": source, "ContractName": "C"}]}


@pytest.fixture()
def unthrottled(monkeypatch):
    """No wait between requests: the sweeps make hundreds."""
    monkeypatch.setattr(ingest, "_throttle", lambda delay: None)


def test_edited_http_body_is_fetched_or_network_error(monkeypatch, unthrottled):
    reply = {}
    monkeypatch.setattr(urllib.request, "urlopen",
                        lambda url, timeout: io.BytesIO(reply["body"]))

    def load(body: bytes) -> bool:
        reply["body"] = body
        try:
            fetch_verified_source(ADDRESS, ApiConfig(api_key="unused"))
        except (NetworkError, NotVerified):
            return False
        return True

    intact = json.dumps(_ok_body("contract C { uint a; }")).encode()
    _sweep(intact, load, [(NESTED_TOO_DEEP, False)], seed=4)


def test_edited_cache_file_is_read_or_a_miss(tmp_path, unthrottled):
    cache_file = tmp_path / f"{ADDRESS.lower()}.json"
    calls = []

    def http_get(url, params, timeout):
        calls.append(url)
        return _ok_body("contract Fresh { }")

    def load(data: bytes) -> bool:
        cache_file.write_bytes(data)
        before = len(calls)
        record = fetch_verified_source(ADDRESS, ApiConfig(cache_dir=tmp_path,
                                                          http_get=http_get))
        assert type(record.idx) is int and isinstance(record.source, str)
        return len(calls) == before  # no request: read from the cache

    intact = json.dumps({"idx": 7, "source": "contract Cached { }"}).encode()
    _sweep(intact, load, [(NESTED_TOO_DEEP, False)], seed=5)


def test_edited_bundle_is_flattened_or_passed_through():
    def load(data: bytes) -> bool:
        raw = data.decode("utf-8", "surrogateescape")
        out = ingest._flatten_source(raw)
        assert isinstance(out, str)
        return out != raw

    bundle = {"sources": {"A.sol": {"content": "contract A {}"},
                          "B.sol": {"content": "contract B {}"}}}
    intact = ("{" + json.dumps(bundle) + "}").encode()
    deep = b'{"sources": ' + NESTED_TOO_DEEP + b"}"
    _sweep(intact, load, [(deep, False)], seed=6)
