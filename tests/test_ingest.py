"""Source fetch client with injected HTTP stubs; no network involved."""

from __future__ import annotations

import io
import json
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from ponziscan.errors import BadAddress, NetworkError, NotVerified, RateLimited
from ponziscan.ingest import MAX_RETRIES, ApiConfig, _flatten_source, fetch_verified_source

ADDRESS = "0x" + "ab12" * 10
SECRET = "KEY-THAT-MUST-NOT-LEAK"


def ok_body(source: str) -> dict:
    return {"status": "1", "message": "OK",
            "result": [{"SourceCode": source, "ContractName": "C"}]}


RATE_BODY = {"status": "0", "message": "NOTOK",
             "result": "Max rate limit reached, please use API Key"}


class StubHttp:
    def __init__(self, bodies):
        self.bodies = list(bodies)
        self.calls = []

    def __call__(self, url, params, timeout):
        self.calls.append((url, dict(params), timeout, time.monotonic()))
        body = self.bodies.pop(0)
        if isinstance(body, Exception):
            raise body
        return body


def make_config(stub, **kwargs) -> ApiConfig:
    kwargs.setdefault("api_key", SECRET)
    kwargs.setdefault("delay", 0.2)
    return ApiConfig(http_get=stub, **kwargs)


def test_success_returns_unlabeled_record():
    stub = StubHttp([ok_body("contract C { uint a; }")])
    record = fetch_verified_source(ADDRESS, make_config(stub))
    assert record.source == "contract C { uint a; }"
    assert record.label is None
    assert record.idx == int(ADDRESS, 16) % 10 ** 9
    url, params, timeout, _ = stub.calls[0]
    assert params["module"] == "contract"
    assert params["action"] == "getsourcecode"
    assert params["address"] == ADDRESS
    assert params["apikey"] == SECRET


def test_bad_address_rejected_without_request():
    stub = StubHttp([])
    for bad in ("not-an-address", "0x123", "0x" + "g" * 40, "", ADDRESS + "ff"):
        with pytest.raises(BadAddress):
            fetch_verified_source(bad, make_config(stub))
    assert stub.calls == []


def test_unverified_contract():
    stub = StubHttp([ok_body("")])
    with pytest.raises(NotVerified):
        fetch_verified_source(ADDRESS, make_config(stub))


def test_rate_limit_then_success_retries():
    stub = StubHttp([RATE_BODY, ok_body("contract R {}")])
    record = fetch_verified_source(ADDRESS, make_config(stub))
    assert record.source == "contract R {}"
    assert len(stub.calls) == 2


def test_rate_limit_exhaustion():
    stub = StubHttp([RATE_BODY] * (MAX_RETRIES + 1))
    with pytest.raises(RateLimited) as err:
        fetch_verified_source(ADDRESS, make_config(stub))
    assert len(stub.calls) == MAX_RETRIES + 1 == 4
    assert SECRET not in str(err.value)


def test_network_error_hides_key():
    stub = StubHttp([NetworkError("request to https://api failed: Timeout")])
    with pytest.raises(NetworkError) as err:
        fetch_verified_source(ADDRESS, make_config(stub))
    assert SECRET not in str(err.value)


def test_malformed_body_raises_network_error():
    stub = StubHttp(["not a dict"])
    with pytest.raises(NetworkError):
        fetch_verified_source(ADDRESS, make_config(stub))
    stub2 = StubHttp([{"status": "1", "result": "weird"}])
    with pytest.raises(NetworkError):
        fetch_verified_source(ADDRESS, make_config(stub2))


def test_cache_write_then_offline_hit(tmp_path):
    stub = StubHttp([ok_body("contract C { uint a; }")])
    config = make_config(stub, cache_dir=tmp_path)
    first = fetch_verified_source(ADDRESS, config)
    cache_file = tmp_path / f"{ADDRESS.lower()}.json"
    assert cache_file.exists()
    assert SECRET not in cache_file.read_text()

    offline = make_config(StubHttp([]), cache_dir=tmp_path)
    second = fetch_verified_source(ADDRESS, offline)
    assert second == first


@pytest.mark.parametrize("entry", ['{"idx": 5', '{"source": "x"}', "[1]",
                                   '{"idx": "5", "source": "x"}', "\udcff"])
def test_corrupt_cache_entry_is_fetched_again(tmp_path, entry):
    cache_file = tmp_path / f"{ADDRESS.lower()}.json"
    cache_file.write_bytes(entry.encode("utf-8", "surrogateescape"))
    stub = StubHttp([ok_body("contract C { uint a; }")])
    record = fetch_verified_source(ADDRESS, make_config(stub, cache_dir=tmp_path))
    assert len(stub.calls) == 1
    assert record.source == "contract C { uint a; }"
    assert json.loads(cache_file.read_text(encoding="utf-8")) == {
        "idx": record.idx, "source": record.source}


def test_multi_file_bundle_flattened():
    bundle = {"sources": {
        "A.sol": {"content": "contract A {}"},
        "B.sol": {"content": "contract B {}"},
    }}
    raw = "{{" + json.dumps(bundle)[1:-1] + "}}"
    stub = StubHttp([ok_body(raw)])
    record = fetch_verified_source(ADDRESS, make_config(stub))
    assert "// file: A.sol" in record.source
    assert "contract A {}" in record.source
    assert "// file: B.sol" in record.source
    assert "contract B {}" in record.source


def test_flatten_plain_source_passthrough():
    assert _flatten_source("contract C {}") == "contract C {}"
    assert _flatten_source("{ not json") == "{ not json"


def test_flatten_single_brace_bundle():
    raw = json.dumps({"sources": {"Only.sol": {"content": "contract O {}"}}})
    out = _flatten_source(raw)
    assert out == "// file: Only.sol\ncontract O {}"


def test_requests_spaced_by_delay():
    stub = StubHttp([ok_body("contract A {}"), ok_body("contract B {}")])
    config = make_config(stub, delay=0.2)
    other = "0x" + "cd34" * 10
    fetch_verified_source(ADDRESS, config)
    fetch_verified_source(other, config)
    gap = stub.calls[1][3] - stub.calls[0][3]
    assert gap >= 0.2 - 0.005  # scheduler jitter allowance


class FakeUrlopen:
    """Stands in for urllib.request.urlopen: records each call, then returns
    `reply` as the response body (bytes) or raises it, built from the URL
    it was asked for (an exception), so an error text that echoed the URL
    would carry the API key."""

    def __init__(self, reply):
        self.reply = reply
        self.calls = []

    def __call__(self, url, timeout):
        self.calls.append((url, timeout))
        if isinstance(self.reply, bytes):
            return io.BytesIO(self.reply)
        raise self.reply(url)


def test_default_http_get_decodes_json(monkeypatch):
    fake = FakeUrlopen(json.dumps(ok_body("contract U {}")).encode())
    monkeypatch.setattr(urllib.request, "urlopen", fake)
    record = fetch_verified_source(ADDRESS, ApiConfig(api_key=SECRET, timeout=3.5))
    assert record.source == "contract U {}"
    [(url, timeout)] = fake.calls
    base, query = url.split("?")
    assert base == ApiConfig().base_url
    assert urllib.parse.parse_qs(query) == {
        "module": ["contract"], "action": ["getsourcecode"],
        "address": [ADDRESS], "apikey": [SECRET]}
    assert timeout == 3.5


@pytest.mark.parametrize("reply, kind", [
    (lambda url: urllib.error.HTTPError(url, 500, f"Internal Server Error at {url}",
                                        None, None), "HTTPError"),
    (lambda url: TimeoutError(f"timed out reading {url}"), "TimeoutError"),
    (lambda url: urllib.error.URLError(f"connection refused: {url}"), "URLError"),
    (b"<html>502 Bad Gateway</html>", "JSONDecodeError"),
], ids=["http_500", "timeout", "unreachable", "not_json"])
def test_default_http_get_failure_is_network_error(monkeypatch, reply, kind):
    monkeypatch.setattr(urllib.request, "urlopen", FakeUrlopen(reply))
    with pytest.raises(NetworkError) as err:
        fetch_verified_source(ADDRESS, ApiConfig(api_key=SECRET))
    assert str(err.value).endswith(f"failed: {kind}")
    assert SECRET not in str(err.value)
    assert err.value.__cause__ is None and err.value.__suppress_context__


def test_delay_floor_enforced():
    with pytest.raises(ValueError):
        ApiConfig(delay=0.1)
