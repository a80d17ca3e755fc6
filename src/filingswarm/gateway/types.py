"""The request type and errors shared by all completion providers.

A request is its tag and its messages; a provider answers it with the reply
text. The tag names the system prompt, the asset
``assets/prompts/<tag>.txt``, and sets the reply budget in ``TAGS``. Every
request is sampled at ``TEMPERATURE``.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache

ROLES = ("user", "assistant")
TEMPERATURE = 0.0
# Each request tag with its reply budget in tokens; a plan's JSON needs more.
TAGS = {"classify": 512, "rewrite": 512, "decompose": 512, "route_agent": 512,
        "route_table": 512, "plan": 2048, "replan": 2048, "variegate": 512}


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


@lru_cache(maxsize=None)
def _system_prompt(tag: str) -> str:
    # imported on first use, as in corpus.schema, to keep it off cold start
    from importlib import resources

    ref = resources.files("filingswarm.assets.prompts").joinpath(f"{tag}.txt")
    return ref.read_text(encoding="utf-8")


@dataclass(frozen=True)
class ChatRequest:
    tag: str
    messages: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        if self.tag not in TAGS:
            raise ValueError(f"unknown request tag {self.tag!r}")
        if not self.messages:
            raise ValueError("messages must be non-empty")
        for role, content in self.messages:
            if role not in ROLES:
                raise ValueError(f"bad message role {role!r}")
            if not isinstance(content, str):
                raise ValueError("message content must be text")

    @property
    def system_prompt(self) -> str:
        return _system_prompt(self.tag)

    @property
    def max_tokens(self) -> int:
        return TAGS[self.tag]

    def last_user_content(self) -> str:
        for role, content in reversed(self.messages):
            if role == "user":
                return content
        return ""


def request_digest(request: ChatRequest) -> str:
    """Stable fingerprint of everything a provider conditions on."""
    payload = {
        "system": request.system_prompt,
        "messages": [[role, content] for role, content in request.messages],
        "temperature": TEMPERATURE,
        "max_tokens": request.max_tokens,
        "tag": request.tag,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
