"""Scripted, recording, and remote completion providers plus fixture I/O."""
from __future__ import annotations

import json
import os
import threading
import time
from datetime import timezone
from email.utils import parsedate_to_datetime
from pathlib import Path
from typing import Protocol

import requests

from .types import (
    ChatRequest,
    ChatResponse,
    FixtureMissError,
    RateLimitError,
    RemoteError,
    request_digest,
)


class Provider(Protocol):
    provider_id: str

    def complete(self, request: ChatRequest) -> ChatResponse: ...


class ScriptedProvider:
    """Replays canned responses keyed by request digest.

    A missing digest raises instead of degrading; a scripted run that
    silently answered from some other source would not be a replay.
    """

    provider_id = "scripted"

    def __init__(self, fixtures: dict[str, str]):
        self.fixtures = dict(fixtures)

    def complete(self, request: ChatRequest) -> ChatResponse:
        digest = request_digest(request)
        try:
            content = self.fixtures[digest]
        except KeyError:
            raise FixtureMissError(
                f"fixture miss: tag={request.tag!r} digest={digest[:12]}...")
        return ChatResponse(content=content, provider_id=self.provider_id,
                            from_cache=True)


class RecordingProvider:
    """Wraps another provider and captures (digest, response) pairs."""

    def __init__(self, inner: Provider):
        self.inner = inner
        self.provider_id = inner.provider_id
        self.captured: dict[str, str] = {}
        self.log: list[tuple[str, str, str]] = []

    def complete(self, request: ChatRequest) -> ChatResponse:
        response = self.inner.complete(request)
        digest = request_digest(request)
        self.captured[digest] = response.content
        self.log.append((digest, request.tag, response.content))
        return response


def save_fixtures(provider: RecordingProvider, path: str | Path) -> None:
    """Write each captured response as one JSON line, sorted by digest and
    tagged with the request tag that produced it."""
    tags = {digest: tag for digest, tag, _ in provider.log}
    with open(path, "w", encoding="utf-8") as fh:
        for digest, content in sorted(provider.captured.items()):
            doc = {"digest": digest, "content": content, "tag": tags[digest]}
            fh.write(json.dumps(doc, sort_keys=True) + "\n")


def load_fixtures(path: str | Path) -> dict[str, str]:
    fixtures: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            doc = json.loads(line)
            fixtures[doc["digest"]] = doc["content"]
    return fixtures


class _TokenBucket:
    def __init__(self, rate_per_sec: float, burst: float):
        self.rate = rate_per_sec
        self.capacity = burst
        self.tokens = burst
        self.updated = time.monotonic()
        self.lock = threading.Lock()

    def acquire(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while True:
            with self.lock:
                now = time.monotonic()
                self.tokens = min(self.capacity, self.tokens + (now - self.updated) * self.rate)
                self.updated = now
                if self.tokens >= 1.0:
                    self.tokens -= 1.0
                    return
                needed = (1.0 - self.tokens) / self.rate
            if time.monotonic() + needed > deadline:
                raise RateLimitError("rate limit: no request token available in time")
            time.sleep(min(needed, 0.05))


def retry_after_seconds(value: str | None, now: float) -> float | None:
    """The wait a ``Retry-After`` header asks for (RFC 9110 section 10.2.3),
    in seconds from ``now`` (a Unix time): delta-seconds, or an HTTP-date,
    read as 0 once it has passed. ``None`` when the header is absent or is
    neither form."""
    if value is None:
        return None
    value = value.strip()
    if value.isascii() and value.isdigit():
        return float(value)
    try:
        when = parsedate_to_datetime(value)
    except (TypeError, ValueError, IndexError, OverflowError):
        return None
    if when.tzinfo is None:  # an asctime date or "-0000"; HTTP dates are UTC
        when = when.replace(tzinfo=timezone.utc)
    return max(0.0, when.timestamp() - now)


class RemoteProvider:
    """Minimal chat-completion HTTP client.

    Sends {model, messages, temperature, max_tokens} and reads
    choices[0].message.content. Transient failures (connection errors,
    HTTP 429/5xx) are retried up to max_retries, after the wait that a
    reply's ``Retry-After`` asks for, capped at ``timeout``, or else after
    an exponential backoff. A token bucket plus a concurrency semaphore
    keep request pressure bounded when many pipeline workers share one
    provider. A caller holds a slot for one attempt at a time and backs off
    without it.
    """

    provider_id = "remote"

    def __init__(self, endpoint: str, model: str,
                 api_key_env: str = "FILINGSWARM_API_KEY",
                 timeout: float = 30.0, max_retries: int = 3,
                 rate_per_sec: float = 5.0, max_concurrent: int = 4,
                 session: requests.Session | None = None):
        self.endpoint = endpoint
        self.model = model
        self.api_key_env = api_key_env
        self.timeout = timeout
        self.max_retries = max_retries
        self.session = session or requests.Session()
        self.bucket = _TokenBucket(rate_per_sec, burst=max(1.0, rate_per_sec))
        self.slots = threading.BoundedSemaphore(max_concurrent)

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(self.api_key_env, "")
        if key:
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def complete(self, request: ChatRequest) -> ChatResponse:
        payload = {
            "model": self.model,
            "messages": [{"role": "system", "content": request.system_prompt}]
                        + [{"role": role, "content": content}
                           for role, content in request.messages],
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        start = time.perf_counter()
        last_error: Exception | None = None
        for attempt in range(self.max_retries + 1):
            if attempt:  # back off without a slot, so other callers can use it
                time.sleep(delay)
            delay = 0.5 * (2 ** attempt)
            with self.slots:
                self.bucket.acquire(timeout=self.timeout)
                try:
                    resp = self.session.post(self.endpoint, json=payload,
                                             headers=self._headers(),
                                             timeout=self.timeout)
                except requests.RequestException as exc:
                    last_error = exc
                    continue
                if resp.status_code == 200:
                    try:
                        content = resp.json()["choices"][0]["message"]["content"]
                    except (ValueError, KeyError, IndexError, TypeError) as exc:
                        raise RemoteError(f"malformed completion response: {exc}")
                    return ChatResponse(content=content,
                                        provider_id=self.provider_id,
                                        latency=time.perf_counter() - start)
                if resp.status_code not in (429,) and resp.status_code < 500:
                    raise RemoteError(f"endpoint returned HTTP {resp.status_code}")
                last_error = RemoteError(f"transient HTTP {resp.status_code}")
                asked = retry_after_seconds(resp.headers.get("Retry-After"), time.time())
                if asked is not None:
                    delay = min(asked, self.timeout)
        raise RemoteError(f"remote completion failed after "
                          f"{self.max_retries + 1} attempts: {last_error}")

