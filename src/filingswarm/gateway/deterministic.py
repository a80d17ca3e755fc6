"""Rule-based completion provider.

A deterministic stand-in for a hosted model: it reads the same prompts a
remote model would receive and answers from keyword rules. Question stems it
recognizes get full routing and planning treatment; anything else falls back
to keyword scoring, and scoreless prompts get a refusal the callers treat as
a parse failure. The rules are intentionally coupled to the default schema
registry; this provider is the offline analyst for that corpus domain, not a
general model. It plans a recognized stem with the question bench's plan
for that template given no corpus: every template then plans from its slots
alone, so the annual-report stem gets a guess at the filer's wording.
"""
from __future__ import annotations

import re
from collections.abc import Mapping
from functools import cached_property, lru_cache
from types import MappingProxyType

from ..plans import plan_to_json
from ..questbench import TEMPLATES
from .prompts import CANNOT_PLAN, REFUSAL, Prompt, parse_prompt
from .types import TAGS, ChatRequest

_CUE_WORDS = (
    "get", "calculate", "identify", "list", "what", "how many", "retrieve",
    "fetch", "find", "show", "total", "aggregate", "which", "sum", "work out",
    "point out", "break", "compare",
)
_CUE_RE = re.compile(r"\b(?:" + "|".join(re.escape(c) for c in _CUE_WORDS) + r")\b",
                     re.IGNORECASE)

_FILLERS = (
    "i want to know", "can you", "could you", "tell me", "please", "kindly",
    "um", "uh", "hey", "just", "basically", "like, ", "sort of", "kind of",
)
_FILLER_RE = re.compile(r"\b(?:" + "|".join(re.escape(f) for f in _FILLERS) + r")\b[,]?",
                        re.IGNORECASE)

# (template id, phrases that must all appear)
_TEMPLATES: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("E0", ("cash equity position",)),
    ("E1", ("option position",)),
    ("E2", ("regulatory aum",)),
    ("E3", ("funds managed by",)),
    ("E4", ("prime broker",)),
    ("E5", ("country-level aum",)),
    ("E6", ("money market net assets",)),
    ("H0", ("holdings of instrument type",)),
    ("H1", ("counterparty split",)),
    ("H2", ("custom basket",)),
    ("H3", ("total assets", "annual report")),
)

_AGENT_KEYWORDS: dict[str, tuple[tuple[str, int], ...]] = {
    "13F": (("institutional manager", 3), ("13f", 2), ("equity position", 2),
            ("option", 1), ("shares", 1)),
    "NPORT": (("derivative", 2), ("counterparty", 2), ("basket", 2),
              ("portfolio", 1), ("country", 1), ("holding", 1), ("instrument", 1)),
    "NMFP": (("money market", 3), ("seven", 1), ("maturity", 1)),
    "NCEN": (("census", 2), ("managed by", 2), ("service provider", 2),
             ("trust", 1), ("registered", 1), ("advisor", 1), ("adviser", 1),
             ("custodian", 1)),
    "NCSR": (("annual report", 3), ("shareholder", 2), ("statement", 1),
             ("expense", 1), ("fiscal", 1)),
    "ADV": (("assets under management", 3), ("aum", 2), ("brokerage", 2),
            ("disclosure", 2), ("regulatory", 1), ("broker", 1)),
}

_TABLE_KEYWORDS: dict[str, tuple[tuple[str, int], ...]] = {
    "thirteenf_holdings": (("option", 1), ("equity", 1), ("position", 1), ("holding", 1)),
    "adv_entity": (("aum", 2), ("regulatory", 1), ("employee", 1), ("client", 1)),
    "adv_brokers": (("broker", 2), ("prime", 1)),
    "adv_disclosures": (("disclosure", 2), ("complaint", 1), ("event", 1)),
    "ncen_fund_registry": (("managed", 1), ("advisor", 1), ("adviser", 1),
                           ("registry", 1), ("fund", 1)),
    "ncen_trust_registry": (("trust", 2),),
    "ncen_service_providers": (("auditor", 2), ("custodian", 2), ("service", 1), ("provider", 1)),
    "nport_fund_info": (("total assets", 2), ("net assets", 1), ("fund", 1)),
    "nport_holdings": (("country", 2), ("holding", 1), ("issuer", 1), ("instrument", 1)),
    "nport_derivatives": (("derivative", 2), ("counterparty", 2), ("basket", 2),
                          ("notional", 2), ("expir", 1)),
    "nmfp_fund_info": (("net assets", 2), ("yield", 1)),
    "nmfp_holdings": (("maturity", 1), ("holding", 1), ("issuer", 1), ("category", 1)),
    "ncsr_report_meta": (("auditor", 2), ("fiscal", 1)),
    "ncsr_statement_items": (("total assets", 2), ("statement", 2), ("asset total", 2),
                             ("expense", 1), ("income", 1), ("liabilit", 1)),
    "ncsr_portfolio": (("security", 1), ("portfolio", 1)),
}

# Strong paraphrases deliberately reword a stem's key phrase; routing and
# planning rules then lose their anchor, which is what makes the variegated
# split genuinely harder than the templated one.
_BREAKING_SWAPS = (
    ("option positions", "derivative contracts"),
    ("country-level AUM", "geographic exposure totals"),
    ("money market net assets", "cash management fund balances"),
    ("holdings of instrument type", "positions in the asset class"),
    ("counterparty split", "dealer exposure breakdown"),
    ("custom baskets", "bespoke structured bundles"),
    ("total assets from the annual report",
     "asset total from the yearly shareholder statement"),
)

_MILD_SWAPS = (
    ("Get the", "Retrieve the"),
    ("Get all", "List all"),
    ("Calculate the", "Work out the"),
    ("Identify", "Point out"),
)

_RE_MANAGER = re.compile(r'manager\s+"([^"]+)"', re.IGNORECASE)
_RE_ADVISOR = re.compile(r'advis[oe]r\s+"([^"]+)"', re.IGNORECASE)
_RE_FUND = re.compile(r'fund\s+"([^"]+)"', re.IGNORECASE)
_RE_INSTRUMENT = re.compile(r'(?:type|class)\s+"([^"]+)"', re.IGNORECASE)
_RE_PERIOD = re.compile(r'period\s+(\d{4}-\d{2}-\d{2})', re.IGNORECASE)
_RE_CUTOFF = re.compile(r'(?:before|by)\s+(\d{4}-\d{2}-\d{2})', re.IGNORECASE)


def _totals(low: str, table: dict[str, tuple[tuple[str, int], ...]]) -> Mapping[str, int]:
    return MappingProxyType({key: sum(w for phrase, w in rules if phrase in low)
                             for key, rules in table.items()})


class _Reading:
    """What the rules take from one query text: the recognized stem, if
    any, and the keyword total of every agent and every table. Each part
    is read on first use, because screening and planning need only some
    of it; every part is read-only once read."""

    def __init__(self, query: str) -> None:
        self.low = query.lower()

    @cached_property
    def template_id(self) -> str | None:
        return next((tid for tid, phrases in _TEMPLATES
                     if all(p in self.low for p in phrases)), None)

    @cached_property
    def agent_totals(self) -> Mapping[str, int]:
        return _totals(self.low, _AGENT_KEYWORDS)

    @cached_property
    def table_totals(self) -> Mapping[str, int]:
        return _totals(self.low, _TABLE_KEYWORDS)


# The ~18 completions that route one question arrive back to back, so a
# small memo is enough to read each question once. The rules are pure
# functions of the text, so one reading serves every provider and thread.
_read = lru_cache(maxsize=64)(_Reading)


def _score(totals: Mapping[str, int], keys: list[str]) -> list[tuple[str, int]]:
    scored = [(key, totals.get(key, 0)) for key in keys]
    scored.sort(key=lambda kv: (-kv[1], kv[0]))
    return scored


def _slots(query: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for name, rx in (("manager", _RE_MANAGER), ("advisor", _RE_ADVISOR),
                     ("fund", _RE_FUND), ("instrument", _RE_INSTRUMENT),
                     ("cutoff", _RE_CUTOFF), ("period", _RE_PERIOD)):
        m = rx.search(query)
        if m:
            out[name] = m.group(1)
    return out


class DeterministicProvider:
    """One ``_do_<tag>`` rule per request tag, dispatched through ``_RULES``."""

    def complete(self, request: ChatRequest) -> str:
        prompt = parse_prompt(request.last_user_content())
        return _RULES[request.tag](self, " ".join(prompt.queries), prompt)

    # -- screening ---------------------------------------------------------

    def _do_classify(self, query: str, prompt: Prompt) -> str:
        reading = _read(query)
        has_cue = _CUE_RE.search(query) is not None
        # every keyword weight is positive, so a total > 0 means some phrase hit
        domain = (reading.template_id is not None
                  or any(total > 0 for total in reading.agent_totals.values()))
        if has_cue and domain:
            return "non_hallucinatory 0.97"
        return "hallucinatory 0.88"

    def _do_rewrite(self, query: str, prompt: Prompt) -> str:
        text = _FILLER_RE.sub(" ", query)
        text = " ".join(text.split()).strip(" ,")
        if not text:
            return "Get"
        if _CUE_RE.search(text) is None:
            text = f"Get {text}"
        text = text[0].upper() + text[1:]
        if not text.endswith((".", "?")):
            text += "."
        return text

    # -- decomposition -----------------------------------------------------

    def _do_decompose(self, query: str, prompt: Prompt) -> str:
        template_id = _read(query).template_id
        slots = _slots(query)
        period = slots.get("period", "")
        if template_id and period:
            helper = {
                "E5": 'Resolve the fund identifiers registered to manager "{m}" in the fund census for period {p}.',
                "E6": 'Resolve the money market funds registered to advisor "{a}" for period {p}.',
                "H0": 'Resolve the fund identifier for fund "{f}" for period {p}.',
                "H1": 'Resolve the fund identifiers registered to advisor "{a}" for period {p}.',
                "H2": 'Resolve the fund identifier for fund "{f}" for period {p}.',
            }.get(template_id)
            if helper:
                second = helper.format(m=slots.get("manager", ""),
                                       a=slots.get("advisor", ""),
                                       f=slots.get("fund", ""), p=period)
                return f"{query}\n{second}"
        return query

    # -- routing -----------------------------------------------------------

    def _ranked_with_persona(self, scored: list[tuple[str, int]], slot: int,
                             persona: str) -> str:
        if not scored or scored[0][1] <= 0:
            return REFUSAL
        bump = 1 if "contrarian" in persona.lower() else 0
        idx = (slot + bump) % len(scored)
        if scored[idx][1] <= 0:
            idx = 0
        return scored[idx][0]

    def _do_route_agent(self, query: str, prompt: Prompt) -> str:
        reading = _read(query)
        if reading.template_id:
            routes = TEMPLATES[reading.template_id].gold_routes
            if prompt.covered < len(routes):
                agent = routes[prompt.covered].agent.value
                if agent in prompt.candidates:
                    return agent
        scored = _score(reading.agent_totals, prompt.candidates)
        return self._ranked_with_persona(scored, prompt.covered, prompt.persona)

    def _do_route_table(self, query: str, prompt: Prompt) -> str:
        reading = _read(query)
        if reading.template_id:
            routes = TEMPLATES[reading.template_id].gold_routes
            if prompt.covered < len(routes):
                table = routes[prompt.covered].table
                if table in prompt.candidates:
                    return table
        scored = _score(reading.table_totals, prompt.candidates)
        return self._ranked_with_persona(scored, 0, prompt.persona)

    # -- planning ----------------------------------------------------------

    def _do_plan(self, query: str, prompt: Prompt) -> str:
        template_id = _read(query).template_id
        if template_id is None:
            return CANNOT_PLAN
        slots = _slots(query)
        if template_id == "E5" and "manager" in slots:
            # the E5 stem names its advisor "manager"
            slots["advisor"] = slots["manager"]
        try:
            return plan_to_json(TEMPLATES[template_id].plan(None, slots))
        except KeyError:  # a slot the template needs is not in the text
            return CANNOT_PLAN

    def _do_replan(self, query: str, prompt: Prompt) -> str:
        return prompt.draft_plan or CANNOT_PLAN

    # -- variegation -------------------------------------------------------

    def _do_variegate(self, query: str, prompt: Prompt) -> str:
        text = query
        if prompt.variant % 2 == 1:
            return self._mild_paraphrase(text)
        swapped = text
        low = swapped.lower()
        applied = False
        for phrase, replacement in _BREAKING_SWAPS:
            idx = low.find(phrase.lower())
            if idx >= 0:
                swapped = swapped[:idx] + replacement + swapped[idx + len(phrase):]
                low = swapped.lower()
                applied = True
        if not applied:
            swapped = swapped.replace("for period", "covering period")
            swapped = swapped.replace("aggregate", "combined")
        for old, new in _MILD_SWAPS:
            if swapped.startswith(old):
                swapped = new + swapped[len(old):]
                break
        return swapped

    @staticmethod
    def _mild_paraphrase(text: str) -> str:
        m = re.search(r'\s+for period (\d{4}-\d{2}-\d{2})\.?$', text)
        if m:
            body = text[:m.start()].rstrip(".")
            out = f"For period {m.group(1)}, {body[0].lower()}{body[1:]}."
        else:
            out = text
        for old, new in _MILD_SWAPS:
            idx = out.find(old)
            if idx >= 0:
                out = out[:idx] + new + out[idx + len(old):]
                break
        return out


# Each request tag's rule; a tag without a ``_do_<tag>`` rule fails here, at
# import, not at its first request.
_RULES = {tag: getattr(DeterministicProvider, f"_do_{tag}") for tag in TAGS}
