"""Request and response types shared by all completion providers."""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

ROLES = ("user", "assistant")


class GatewayError(RuntimeError):
    """Base class for provider failures."""


class FixtureMissError(RuntimeError):
    """Scripted provider saw a request digest absent from its fixtures.

    A hard error on purpose: silently falling back to another provider would
    make ablation runs incomparable. It is not a ``GatewayError``, so no
    handler that falls back on a provider failure catches it.
    """


class RemoteError(GatewayError):
    """Remote endpoint failed after exhausting retries."""


class RateLimitError(GatewayError):
    """Client-side rate ceiling exceeded without capacity becoming free."""


@dataclass(frozen=True)
class ChatRequest:
    system_prompt: str
    messages: tuple[tuple[str, str], ...]
    temperature: float = 0.0
    max_tokens: int = 512
    tag: str = ""

    def __post_init__(self) -> None:
        if not self.messages:
            raise ValueError("messages must be non-empty")
        for role, content in self.messages:
            if role not in ROLES:
                raise ValueError(f"bad message role {role!r}")
            if not isinstance(content, str):
                raise ValueError("message content must be text")
        if not math.isfinite(self.temperature) or self.temperature < 0:
            raise ValueError("temperature must be finite and >= 0")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")

    def last_user_content(self) -> str:
        for role, content in reversed(self.messages):
            if role == "user":
                return content
        return ""


@dataclass(frozen=True)
class ChatResponse:
    content: str
    provider_id: str
    latency: float = 0.0
    from_cache: bool = False


def request_digest(request: ChatRequest) -> str:
    """Stable fingerprint of everything a provider conditions on."""
    payload = {
        "system": request.system_prompt,
        "messages": [[role, content] for role, content in request.messages],
        "temperature": request.temperature,
        "max_tokens": request.max_tokens,
        "tag": request.tag,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
