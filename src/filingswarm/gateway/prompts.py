"""The prompt wire format of every gateway call site, in both directions.

System prompts live as text assets. A user message is a block of lines, each
starting with one of these prefixes:

- ``QUERY: <text>``: the question; a plan prompt has one line per sub-query.
- ``AGENT: <filing type>``: the agent whose tables a table prompt offers.
- ``CANDIDATES: <a> | <b> | ...``: the closed list a route prompt offers.
- ``ALREADY: agent=<agent> table=<table>``: one line per route assigned so far.
- ``PERSONA: <text>``: the swarm member asking.
- ``HISTORY:``, then one ``- <entry>`` line per earlier swarm proposal.
- ``DRAFT_PLAN: <json>``: the plan a replan prompt revises.
- ``FINDINGS:``, then one ``- <entry>`` line per expert finding.
- ``VARIANT: <n>``: which paraphrase a variegate prompt asks for.

The ``build_*`` functions write these lines and ``parse_prompt`` is their
only reader, so rule-based and scripted providers parse the same prompt a
hosted model would receive.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import lru_cache
from importlib import resources

from .types import ChatRequest

CANDIDATE_SEP = " | "


@lru_cache(maxsize=None)
def system_prompt(tag: str) -> str:
    ref = resources.files("filingswarm.assets.prompts").joinpath(f"{tag}.txt")
    return ref.read_text(encoding="utf-8")


def _request(tag: str, lines: list[str], max_tokens: int = 512) -> ChatRequest:
    return ChatRequest(
        system_prompt=system_prompt(tag),
        messages=(("user", "\n".join(lines)),),
        max_tokens=max_tokens,
        tag=tag,
    )


def build_classify_request(query: str) -> ChatRequest:
    return _request("classify", [f"QUERY: {query}"])


def build_rewrite_request(query: str) -> ChatRequest:
    return _request("rewrite", [f"QUERY: {query}"])


def build_decompose_request(query: str) -> ChatRequest:
    return _request("decompose", [f"QUERY: {query}"])


def _route_lines(query: str, agent: str | None, candidates: Sequence[str],
                 covered: list[tuple[str, str]], persona: str | None,
                 history: list[str] | None) -> list[str]:
    lines = []
    if persona:
        lines.append(f"PERSONA: {persona}")
    lines.append(f"QUERY: {query}")
    if agent is not None:
        lines.append(f"AGENT: {agent}")
    lines.append(f"CANDIDATES: {CANDIDATE_SEP.join(candidates)}")
    for cov_agent, cov_table in covered:
        lines.append(f"ALREADY: agent={cov_agent} table={cov_table}")
    if history:
        lines.append("HISTORY:")
        lines.extend(f"- {entry}" for entry in history)
    return lines


def build_route_agent_request(query: str, candidates: Sequence[str],
                              covered: list[tuple[str, str]] = (),
                              persona: str | None = None,
                              history: list[str] | None = None) -> ChatRequest:
    return _request("route_agent", _route_lines(query, None, candidates, covered,
                                                persona, history))


def build_route_table_request(query: str, agent: str, candidates: Sequence[str],
                              covered: list[tuple[str, str]] = (),
                              persona: str | None = None,
                              history: list[str] | None = None) -> ChatRequest:
    return _request("route_table", _route_lines(query, agent, candidates, covered,
                                                persona, history))


def build_plan_request(subquery_texts: list[str]) -> ChatRequest:
    return _request("plan", [f"QUERY: {text}" for text in subquery_texts],
                    max_tokens=2048)


def build_replan_request(query: str, plan_json: str, findings_lines: list[str]) -> ChatRequest:
    lines = [f"QUERY: {query}", f"DRAFT_PLAN: {plan_json}", "FINDINGS:"]
    lines.extend(f"- {entry}" for entry in findings_lines)
    return _request("replan", lines, max_tokens=2048)


def build_variegate_request(query: str, variant_index: int) -> ChatRequest:
    return _request("variegate", [f"QUERY: {query}", f"VARIANT: {variant_index}"])


def build_reprompt(request: ChatRequest, reply: str, note: str) -> ChatRequest:
    """The same request again, with the rejected reply and a note appended."""
    return replace(request, messages=request.messages + (("assistant", reply),
                                                         ("user", note)))


@dataclass
class Prompt:
    """The fields of a user message that some provider reads. AGENT and
    HISTORY lines are not kept: no provider reads them."""
    queries: list[str]
    candidates: list[str]
    covered: int
    persona: str
    variant: int
    draft_plan: str
    findings: list[str]


def parse_prompt(content: str) -> Prompt:
    queries: list[str] = []
    candidates: list[str] = []
    covered = 0
    persona = ""
    variant = 1
    draft_plan = ""
    findings: list[str] = []
    in_findings = False
    for line in content.splitlines():
        if line.startswith("QUERY: "):
            queries.append(line[len("QUERY: "):])
            in_findings = False
        elif line.startswith("CANDIDATES: "):
            candidates = [c.strip() for c in line[len("CANDIDATES: "):].split("|")]
            in_findings = False
        elif line.startswith("ALREADY: "):
            covered += 1
        elif line.startswith("PERSONA: "):
            persona = line[len("PERSONA: "):]
        elif line.startswith("VARIANT: "):
            try:
                variant = int(line[len("VARIANT: "):])
            except ValueError:
                variant = 1
        elif line.startswith("DRAFT_PLAN: "):
            draft_plan = line[len("DRAFT_PLAN: "):]
        elif line.startswith("FINDINGS:"):
            in_findings = True
        elif in_findings and line.startswith("- "):
            findings.append(line[2:])
    return Prompt(queries, candidates, covered, persona, variant, draft_plan, findings)
