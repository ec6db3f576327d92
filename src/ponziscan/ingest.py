"""Fetch verified contract source from an Etherscan-style HTTP API.

The network call is injectable so tests run offline: ApiConfig.http_get
takes (url, params, timeout) and returns the decoded JSON body. Responses
are cached on disk keyed by address; calls are throttled to one per
config.delay seconds across threads.
"""

from __future__ import annotations

import json
import re
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from ponziscan.errors import BadAddress, NetworkError, NotVerified, RateLimited
from ponziscan.pipeline import ContractRecord

_ADDRESS_RE = re.compile(r"^0x[0-9a-fA-F]{40}$")
MIN_DELAY = 0.2    # seconds between calls, at least
MAX_RETRIES = 3    # attempts after a rate-limit reply
DEFAULT_BASE_URL = "https://api.etherscan.io/api"

_throttle_lock = threading.Lock()
_last_request_at = 0.0


def _default_http_get(url: str, params: dict, timeout: float) -> dict:
    """GET url?params and decode the body as JSON. Any failure is a
    NetworkError that names the exception type only, and is raised without
    its cause: the query string carries the API key."""
    # imported on first use: offline commands never load the HTTP stack
    import http.client
    import urllib.parse
    import urllib.request

    try:
        with urllib.request.urlopen(url + "?" + urllib.parse.urlencode(params),
                                    timeout=timeout) as resp:
            return json.load(resp)
    except (OSError, http.client.HTTPException, ValueError) as exc:
        # OSError covers HTTPError, URLError and TimeoutError; ValueError a
        # body that is not JSON (or not text)
        raise NetworkError(f"request to {url} failed: {type(exc).__name__}") from None


@dataclass
class ApiConfig:
    api_key: str = ""
    base_url: str = DEFAULT_BASE_URL
    timeout: float = 10.0
    delay: float = MIN_DELAY
    cache_dir: Path | None = None
    http_get: Callable[[str, dict, float], dict] = field(default=_default_http_get)

    def __post_init__(self) -> None:
        if self.delay < MIN_DELAY:
            raise ValueError(f"delay must be >= {MIN_DELAY}s")
        if self.cache_dir is not None:
            self.cache_dir = Path(self.cache_dir)


def _throttle(delay: float) -> None:
    global _last_request_at
    with _throttle_lock:
        wait = _last_request_at + delay - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        _last_request_at = time.monotonic()


def _cache_path(config: ApiConfig, address: str) -> Path | None:
    if config.cache_dir is None:
        return None
    return config.cache_dir / f"{address.lower()}.json"


def _cached_record(path: Path | None) -> ContractRecord | None:
    """The record cached at path, or None on a miss. An entry that is not a
    JSON object with an int idx and a str source counts as a miss, so the
    fetch that follows overwrites it."""
    if path is None or not path.exists():
        return None
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except ValueError:  # not UTF-8 or not JSON
        return None
    if (isinstance(payload, dict) and type(payload.get("idx")) is int
            and isinstance(payload.get("source"), str)):
        return ContractRecord(idx=payload["idx"], source=payload["source"], label=None)
    return None


def _flatten_source(raw: str) -> str:
    """Verified source is either plain Solidity or a JSON bundle of files
    (the API wraps the bundle in an extra brace pair)."""
    text = raw.strip()
    if text.startswith("{{") and text.endswith("}}"):
        text = text[1:-1]
    if text.startswith("{"):
        try:
            bundle = json.loads(text)
        except json.JSONDecodeError:
            return raw
        sources = bundle.get("sources", bundle)
        if isinstance(sources, dict):
            parts = []
            for fname, entry in sources.items():
                content = entry.get("content", "") if isinstance(entry, dict) else str(entry)
                parts.append(f"// file: {fname}\n{content}")
            return "\n\n".join(parts)
    return raw


def _is_rate_limit(body: dict) -> bool:
    if str(body.get("status", "")) == "0":
        blob = f"{body.get('message', '')} {body.get('result', '')}".lower()
        return "rate limit" in blob or "max rate" in blob
    return False


def fetch_verified_source(address: str, config: ApiConfig) -> ContractRecord:
    """One unlabeled record for the contract at address, from cache when
    available. Raises BadAddress, NotVerified, RateLimited, or NetworkError.
    The API key never appears in logs or error text."""
    if not _ADDRESS_RE.match(address):
        raise BadAddress(f"not a hex contract address: {address!r}")

    cached = _cache_path(config, address)
    record = _cached_record(cached)
    if record is not None:
        return record

    params = {
        "module": "contract",
        "action": "getsourcecode",
        "address": address,
        "apikey": config.api_key,
    }
    body = None
    for attempt in range(MAX_RETRIES + 1):
        _throttle(config.delay)
        body = config.http_get(config.base_url, params, config.timeout)
        if not isinstance(body, dict):
            raise NetworkError("malformed response body")
        if _is_rate_limit(body):
            if attempt == MAX_RETRIES:
                raise RateLimited(f"rate limited after {attempt + 1} attempts")
            time.sleep(config.delay * (attempt + 1))
            continue
        break

    result = body.get("result")
    if isinstance(result, list):
        result = result[0] if result else {}
    if not isinstance(result, dict):
        raise NetworkError("unexpected result payload")
    raw = result.get("SourceCode", "")
    if not raw or not raw.strip():
        raise NotVerified(f"no verified source for {address}")

    source = _flatten_source(raw)
    record = ContractRecord(idx=int(address, 16) % (10 ** 9), source=source,
                            label=None)
    if cached is not None:
        cached.parent.mkdir(parents=True, exist_ok=True)
        cached.write_text(json.dumps({"idx": record.idx, "source": record.source}))
    return record
