"""The prompt wire format of every gateway call site, in both directions.

A request is its tag and its messages (see ``types``). A user message is a
block of lines, each starting with one of these prefixes (each line break
inside a value is folded to a space, so a value cannot forge a field):

- ``QUERY: <text>``: the question; a plan prompt has one line per sub-query.
- ``AGENT: <filing type>``: the agent whose tables a table prompt offers.
- ``CANDIDATES: <a> | <b> | ...``: the closed list a route prompt offers.
- ``ALREADY: agent=<agent> table=<table>``: one line per route assigned so far.
- ``PERSONA: <text>``: the swarm member asking.
- ``HISTORY:``, then one ``- <entry>`` line per earlier swarm proposal.
- ``DRAFT_PLAN: <json>``: the plan a replan prompt revises.
- ``FINDINGS:``, then one ``- <entry>`` line per expert finding.
- ``VARIANT: <n>``: which paraphrase a variegate prompt asks for.

A reply is plain text: ``<label> [<confidence>]`` to classify, sub-query
lines to decompose, a JSON plan or ``CANNOT PLAN`` to plan, one candidate
name or ``none of these`` to route, and the new text to rewrite or variegate.

The ``build_*`` functions write requests and the retry notes that send a
rejected plan or route reply back once; ``parse_prompt`` is their only
reader and the ``read_*`` functions read replies. So rule-based and scripted
providers parse the same prompt a hosted model would receive.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import lru_cache

from .types import ChatRequest, GatewayError

CANDIDATE_SEP = " | "
CANNOT_PLAN = "CANNOT PLAN"
REFUSAL = "none of these"


def _one_line(text: str) -> str:
    """``text`` with each line boundary made a space; the "." keeps a final one."""
    return " ".join((text + ".").splitlines())[:-1]


# a question's ~18 route prompts arrive back to back, from short fixed lists
_route_value = lru_cache(maxsize=64)(_one_line)


def _request(tag: str, lines: list[str]) -> ChatRequest:
    content = "\n".join(lines)
    if content.splitlines() != lines:  # only then does a line hold a line boundary
        content = "\n".join(map(_one_line, lines))
    return ChatRequest(tag, (("user", content),))


def build_classify_request(query: str) -> ChatRequest:
    return _request("classify", [f"QUERY: {query}"])


def build_rewrite_request(query: str) -> ChatRequest:
    return _request("rewrite", [f"QUERY: {query}"])


def build_decompose_request(query: str) -> ChatRequest:
    return _request("decompose", [f"QUERY: {query}"])


def build_route_request(query: str, candidates: Sequence[str],
                        covered: Sequence[tuple[str, str]] = (),
                        agent: str | None = None, persona: str | None = None,
                        history: Sequence[str] = ()) -> ChatRequest:
    """An agent route prompt, or a table route prompt when ``agent`` is
    given: the tables offered are that agent's."""
    head = (f"PERSONA: {_route_value(persona)}\nQUERY: {_route_value(query)}" if persona
            else f"QUERY: {_route_value(query)}")
    if agent is not None:
        head += f"\nAGENT: {_route_value(agent)}"
    already = "".join([f"\nALREADY: agent={_route_value(a)} table={_route_value(t)}"
                       for a, t in covered]) if covered else ""
    content = (f"{head}\n{_candidates_line(tuple(candidates))}{already}"
               f"{_history_block(tuple(history))}")
    return ChatRequest("route_agent" if agent is None else "route_table",
                       (("user", content),))


@lru_cache(maxsize=32)
def _candidates_line(candidates: tuple[str, ...]) -> str:
    """The CANDIDATES line; routing offers a few distinct lists."""
    return f"CANDIDATES: {_one_line(CANDIDATE_SEP.join(candidates))}"


@lru_cache(maxsize=32)
def _history_block(history: tuple[str, ...]) -> str:
    """The HISTORY lines after a newline, or nothing for no history. Every
    member of a swarm round reads the same history."""
    if not history:
        return ""
    return "\nHISTORY:" + "".join(f"\n- {_one_line(entry)}" for entry in history)


def build_plan_request(subquery_texts: Sequence[str]) -> ChatRequest:
    return _request("plan", [f"QUERY: {text}" for text in subquery_texts])


def build_replan_request(query: str, plan_json: str,
                         findings_lines: Sequence[str]) -> ChatRequest:
    lines = [f"QUERY: {query}", f"DRAFT_PLAN: {plan_json}", "FINDINGS:"]
    lines.extend(f"- {entry}" for entry in findings_lines)
    return _request("replan", lines)


def build_variegate_request(query: str, variant_index: int) -> ChatRequest:
    return _request("variegate", [f"QUERY: {query}", f"VARIANT: {variant_index}"])


def build_reprompt(request: ChatRequest, reply: str, note: str) -> ChatRequest:
    """The same request again, with the rejected reply and a note appended."""
    return replace(request, messages=request.messages + (("assistant", reply),
                                                         ("user", note)))


def build_plan_retry(request: ChatRequest, reply: str, error: Exception) -> ChatRequest:
    return build_reprompt(request, reply, f"That plan was rejected ({error}). "
                          "Reply with only a valid JSON step array.")


def build_route_retry(request: ChatRequest, reply: str) -> ChatRequest:
    return build_reprompt(request, reply, "That reply is not one of the candidates. "
                          "Reply with exactly one candidate name and nothing else.")


@dataclass
class Prompt:
    """The fields of a user message that some provider reads. AGENT,
    HISTORY and FINDINGS lines are not kept: no provider reads them."""
    queries: list[str] = field(default_factory=list)
    candidates: list[str] = field(default_factory=list)
    covered: int = 0
    persona: str = ""
    variant: int = 1
    draft_plan: str = ""


def parse_prompt(content: str) -> Prompt:
    prompt = Prompt()
    for line in content.splitlines():
        key, sep, value = line.partition(": ")
        if not sep:
            continue
        if key == "QUERY":
            prompt.queries.append(value)
        elif key == "CANDIDATES":
            prompt.candidates = list(_split_candidates(value))
        elif key == "ALREADY":
            prompt.covered += 1
        elif key == "PERSONA":
            prompt.persona = value
        elif key == "VARIANT":
            try:
                prompt.variant = int(value)
            except ValueError:
                prompt.variant = 1
        elif key == "DRAFT_PLAN":
            prompt.draft_plan = value
    return prompt


@lru_cache(maxsize=32)
def _split_candidates(value: str) -> tuple[str, ...]:
    """The names a CANDIDATES value lists. A tuple, so that the caller's
    list is its own copy."""
    return tuple(c.strip() for c in value.split("|"))


def read_verdict(reply: str) -> tuple[str, float]:
    """The label and confidence of a classify reply. A missing, non-numeric
    or nan confidence reads as 0.5; any other is clamped to [0, 1]."""
    parts = reply.strip().split()
    if not parts or parts[0] not in ("hallucinatory", "non_hallucinatory"):
        raise GatewayError(f"unparseable classification: {reply!r}")
    try:
        confidence = float(parts[1])
    except (IndexError, ValueError):
        confidence = math.nan
    return parts[0], 0.5 if math.isnan(confidence) else min(1.0, max(0.0, confidence))


def read_subqueries(reply: str) -> list[str]:
    """The sub-queries of a decompose reply; empty when it holds none."""
    texts = (line.strip().removeprefix("- ").strip() for line in reply.splitlines())
    return [text for text in texts if text]


def read_plan_reply(reply: str) -> str:
    """The plan JSON of a plan or replan reply. Raises ValueError when the
    planner declined or sent nothing."""
    reply = reply.strip()
    if not reply or reply.upper().startswith(CANNOT_PLAN):
        raise ValueError("planner declined")
    return reply


def read_candidate(reply: str, candidates: Sequence[str]) -> str | None:
    """The candidate a route reply names, or None when it names none."""
    name = reply.strip().strip('"').strip("'").rstrip(".").strip().lower()
    return _candidate_names(tuple(candidates)).get(name)


@lru_cache(maxsize=32)
def _candidate_names(candidates: tuple[str, ...]) -> dict[str, str]:
    """Each candidate under its stripped, lower-cased name. Routing offers
    a few distinct lists, so each is folded once; callers only read it."""
    return {c.strip().lower(): c for c in candidates}
