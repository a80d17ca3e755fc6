"""Question templates, guaranteed-answerable instantiation, and oracles.

Seven easy and four hard templates. Each template knows how to enumerate
valid slot fillers from a corpus (only fillers whose oracle answer is
non-empty are ever offered), how to solve itself directly (the oracle), and
how to express that solution as a canonical executable plan. Hard templates
either need two tables resolved in sequence or, for the annual-report one,
must cope with filer-specific wording of statement line items.

Instantiation is deterministic given the rng; variegation rewrites only the
question text and copies every gold field unchanged.
"""
from __future__ import annotations

import json
import logging
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable

from .corpus.reconcile import ReconciledView
from .corpus.records import FilingRecord
from .corpus.schema import FilingType
from .corpus.synthetic import STATEMENT_LABELS
from .gateway.prompts import build_variegate_request
from .gateway.types import GatewayError
from .plans import (
    Aggregate,
    Answer,
    Filter,
    Join,
    ListValue,
    Plan,
    Retrieve,
    Return,
    Scalar,
    TableValue,
    answer_from_dict,
    answer_to_dict,
)
from .routing import Route

log = logging.getLogger(__name__)

EASY_IDS = ("E0", "E1", "E2", "E3", "E4", "E5", "E6")
HARD_IDS = ("H0", "H1", "H2", "H3")
ALL_IDS = EASY_IDS + HARD_IDS


class UnsatisfiableTemplateError(ValueError):
    """No slot filler on this corpus yields a non-empty answer, or the
    drawn filling's answer is not a finite number."""


@dataclass(frozen=True)
class QuestionTemplate:
    template_id: str
    difficulty: str
    text_template: str
    answer_type: str  # float | list | dataframe
    gold_routes: tuple[Route, ...]
    candidates: Callable[[ReconciledView], list[dict]]
    solve: Callable[[ReconciledView, dict], tuple[Answer, frozenset[str]]]
    # Given None, each template plans from its slots alone; H3 given a view pins the label.
    plan: Callable[[ReconciledView | None, dict], Plan]


@dataclass(frozen=True)
class QuestionInstance:
    template_id: str
    text: str
    base_text: str
    variant: str  # templated | variegated
    slot_values: dict
    gold_routes: tuple[Route, ...]
    gold_answer: Answer
    relevant_record_ids: frozenset[str]


# ---------------------------------------------------------------------------
# Per-template implementations. Every single-table candidate list comes from
# ``_distinct_slots``, every oracle finds its rows with ``_rows``, and every
# summed oracle adds up with ``_sum``. The oracles stay plain scans of the
# view, independent of the executor, and follow its null rules (see
# ``plans``): a null adds nothing to a sum, a group whose values are all
# null is kept with 0.0, a null group key sorts first, a single-column
# answer skips nulls, and a matched row is relevant whatever its value.

_TF = "thirteenf_holdings"
_REGISTRY = "ncen_fund_registry"

# Each template's slots, paired with the fields they fill, in sort order.
_BY_MANAGER = (("manager", "manager_name"), ("period", "period"))
_BY_ADVISOR = (("advisor", "advisor_name"), ("period", "period"))
_BY_FUND = (("fund", "fund_name"), ("period", "period"))
_BY_FUND_ID = (("fund_id", "fund_id"), ("period", "period"))

_Names = tuple[tuple[str, str], ...]
_Keep = Callable[[dict], bool]


def _any_row(fields: dict) -> bool:
    return True


def _distinct_slots(view: ReconciledView, table: str, names: _Names,
                    keep: _Keep = _any_row) -> list[dict]:
    """The sorted distinct fillings of the slots ``names`` pairs with fields,
    by the rows of ``table`` that pass ``keep``. A row with a null slot
    value fills none."""
    seen = set()
    for r in view.table_records(table):
        values = tuple(r.fields.get(f) for _, f in names)
        if None not in values and keep(r.fields):
            seen.add(values)
    slot_names = tuple(s for s, _ in names)
    return [dict(zip(slot_names, values)) for values in sorted(seen)]


def _rows(view: ReconciledView, table: str, slots: dict, names: _Names,
          keep: _Keep = _any_row) -> list[FilingRecord]:
    """The rows of ``table``, in table order, whose fields in ``names`` hold
    the slots' values and that pass ``keep``."""
    want = tuple(slots[s] for s, _ in names)
    return [r for r in view.table_records(table)
            if tuple(r.fields.get(f) for _, f in names) == want and keep(r.fields)]


def _sum(values: Iterable) -> float:
    """0.0 plus each value in order; a null adds nothing. Raises
    OverflowError when a value or the total is not a finite float."""
    total = 0.0
    for v in values:
        if v is not None:
            total += v
    if not math.isfinite(total):
        raise OverflowError(f"sum is {total}")
    return total


def _solve_sum(view: ReconciledView, slots: dict, table: str, names: _Names,
               value_field: str, keep: _Keep = _any_row):
    """Sum of ``value_field`` over the rows the slots match."""
    rows = _rows(view, table, slots, names, keep)
    ids = frozenset(r.record_id for r in rows)
    return Scalar(_sum(r.fields.get(value_field) for r in rows), tuple(sorted(ids))), ids


def _plan_sum(agent: FilingType, table: str, filters: tuple[Filter, ...],
              value_field: str) -> Plan:
    """Every sum question's plan: retrieve, sum ``value_field``, return."""
    return Plan((
        Retrieve("r1", agent, table, filters),
        Aggregate("a1", "r1", "sum", value_field=value_field),
        Return("ret", "a1")))


def _is_option(fields: dict) -> bool:
    return str(fields.get("security_class")).startswith("OPT")


def _is_cash(fields: dict) -> bool:
    return not _is_option(fields)


def _plan_positions(slots: dict, class_filter: Filter) -> Plan:
    return _plan_sum(FilingType.THIRTEEN_F, _TF, (
        Filter("manager_name", "eq", slots["manager"]),
        Filter("period", "eq", slots["period"]),
        class_filter), "value_usd")


def _has_aum(fields: dict) -> bool:
    return fields.get("regulatory_aum") is not None


def _names_a_fund(fields: dict) -> bool:
    return fields.get("fund_name") is not None


def _is_prime_broker(fields: dict) -> bool:
    return fields.get("relation") == "prime broker"


def _solve_advisor_names(view: ReconciledView, slots: dict, table: str,
                         name_field: str, keep: _Keep = _any_row):
    """``name_field`` of the advisor's rows of ``table`` for the period that
    pass ``keep``; a null name is left out and its row stays relevant."""
    rows = _rows(view, table, slots, _BY_ADVISOR, keep)
    names = tuple(str(r.fields[name_field]) for r in rows
                  if r.fields.get(name_field) is not None)
    ids = frozenset(r.record_id for r in rows)
    return ListValue(names, tuple(sorted(ids))), ids


def _plan_advisor_names(slots: dict, agent: FilingType, table: str,
                        name_field: str, where: tuple[Filter, ...] = ()) -> Plan:
    return Plan((
        Retrieve("r1", agent, table, (
            Filter("advisor_name", "eq", slots["advisor"]),
            *where,
            Filter("period", "eq", slots["period"])), (name_field,)),
        Return("ret", "r1")))


def _is_money_market(fields: dict) -> bool:
    return fields.get("fund_type") == "money market"


def _cands_advisor_split(view: ReconciledView, table: str,
                         where: _Keep = _any_row) -> list[dict]:
    """The advisor fillings of the registry rows that pass ``where`` and
    whose funds file in ``table`` for the period."""
    filed = {(r.fields["period"], r.fields["fund_id"]) for r in view.table_records(table)}
    return [slots for slots in _distinct_slots(view, _REGISTRY, _BY_ADVISOR, where)
            if any((slots["period"], r.fields["fund_id"]) in filed
                   for r in _rows(view, _REGISTRY, slots, _BY_ADVISOR, where))]


def _solve_advisor_split(view: ReconciledView, slots: dict, table: str,
                         group_field: str, value_field: str, where: _Keep = _any_row):
    """Sum of ``value_field`` per ``group_field`` over the period's rows of
    ``table`` that belong to the advisor's funds passing ``where``. As in
    the plan's join, a group field the registry has is read from the
    registry row."""
    registry_rows = _rows(view, _REGISTRY, slots, _BY_ADVISOR, where)
    funds = {r.fields["fund_id"]: r.fields for r in registry_rows}
    ids = {r.record_id for r in registry_rows}
    from_registry = group_field in view.registry.table(_REGISTRY).field_name_set
    groups: dict = {}
    for r in view.table_records(table):
        fund = funds.get(r.fields["fund_id"])
        if fund is not None and r.fields["period"] == slots["period"]:
            group = (fund if from_registry else r.fields).get(group_field)
            groups.setdefault(group, []).append(r.fields.get(value_field))
            ids.add(r.record_id)
    rows = tuple((group, _sum(groups[group]))
                 for group in sorted(groups, key=lambda g: (g is not None, g)))
    return TableValue((group_field, value_field), rows, tuple(sorted(ids))), frozenset(ids)


def _plan_advisor_split(slots: dict, table: str, group_field: str,
                        value_field: str) -> Plan:
    return Plan((
        Retrieve("r1", FilingType.NCEN, _REGISTRY, (
            Filter("advisor_name", "eq", slots["advisor"]),
            Filter("period", "eq", slots["period"])), ("fund_id",)),
        Retrieve("r2", FilingType.NPORT, table, (
            Filter("period", "eq", slots["period"]),),
            ("fund_id", group_field, value_field)),
        Join("j1", "r1", "r2", ("fund_id",)),
        Aggregate("g1", "j1", "groupby-sum", (group_field,), value_field),
        Return("ret", "g1")))


def _plan_e6(view: ReconciledView, slots: dict) -> Plan:
    return Plan((
        Retrieve("r1", FilingType.NCEN, _REGISTRY, (
            Filter("advisor_name", "eq", slots["advisor"]),
            Filter("fund_type", "eq", "money market"),
            Filter("period", "eq", slots["period"])), ("fund_id", "fund_name")),
        Retrieve("r2", FilingType.NMFP, "nmfp_fund_info", (
            Filter("period", "eq", slots["period"]),), ("fund_id", "net_assets")),
        Join("j1", "r1", "r2", ("fund_id",)),
        Aggregate("g1", "j1", "groupby-sum", ("fund_name",), "net_assets"),
        Return("ret", "g1")))


def _solve_fund_rows(view: ReconciledView, slots: dict, table: str,
                     columns: tuple[str, ...], keep: Callable[[dict, dict], bool]):
    """``columns`` of the rows of ``table`` for the period that pass
    ``keep(fields, slots)`` and belong to a fund with the fund's name in
    the period. As in the plan's join, every ``nport_fund_info`` row with
    that name counts: rows come in info-row order, then table order."""
    info = _rows(view, "nport_fund_info", slots, _BY_FUND)
    rows = [r for fund in info
            for r in _rows(view, table, {"fund_id": fund.fields["fund_id"],
                                         "period": slots["period"]},
                           _BY_FUND_ID, lambda fields: keep(fields, slots))]
    ids = frozenset(r.record_id for r in info + rows)
    return TableValue(columns, tuple(tuple(r.fields.get(c) for c in columns) for r in rows),
                      tuple(sorted(ids))), ids


def _plan_fund_rows(slots: dict, table: str, columns: tuple[str, ...],
                    filters: tuple[Filter, ...]) -> Plan:
    return Plan((
        Retrieve("r1", FilingType.NPORT, "nport_fund_info", (
            Filter("fund_name", "eq", slots["fund"]),
            Filter("period", "eq", slots["period"])), ("fund_id",)),
        Retrieve("r2", FilingType.NPORT, table, (
            *filters, Filter("period", "eq", slots["period"])), columns),
        Join("j1", "r1", "r2", ("fund_id",)),
        Return("ret", "j1")))


_H0_COLS = ("fund_id", "issuer_name", "cusip", "country", "value_usd", "shares")


def _fund_names(view: ReconciledView) -> dict[tuple, str | None]:
    """Each (fund_id, period)'s fund name, from its first ``nport_fund_info``
    row in table order."""
    names: dict[tuple, str | None] = {}
    for r in view.table_records("nport_fund_info"):
        names.setdefault((r.fields["fund_id"], r.fields["period"]), r.fields.get("fund_name"))
    return names


def _cands_h0(view: ReconciledView) -> list[dict]:
    names = _fund_names(view)
    seen = set()
    for r in view.table_records("nport_holdings"):
        name = names.get((r.fields["fund_id"], r.fields["period"]))
        if name is not None and r.fields.get("instrument_type") is not None:
            seen.add((name, r.fields.get("instrument_type"), r.fields["period"]))
    return [{"fund": f, "instrument": i, "period": p} for f, i, p in sorted(seen)]


def _is_h0_row(fields: dict, slots: dict) -> bool:
    return fields.get("instrument_type") == slots["instrument"]


_H2_COLS = ("fund_id", "derivative_type", "counterparty_name", "underlying",
            "notional_value", "expiration_date")
_H2_OFFSETS = (90, 180, 365)


def _cands_h2(view: ReconciledView) -> list[dict]:
    from datetime import date, timedelta

    names = _fund_names(view)
    by_fund_period: dict[tuple, list[str]] = {}
    for r in view.table_records("nport_derivatives"):
        if r.fields["derivative_type"] == "custom basket":
            key = (r.fields["fund_id"], r.fields["period"])
            by_fund_period.setdefault(key, []).append(r.fields.get("expiration_date"))
    out = []
    for (fund_id, period), expiries in sorted(by_fund_period.items()):
        name = names.get((fund_id, period))
        if name is None:
            continue
        base = date.fromisoformat(period)
        for offset in _H2_OFFSETS:
            cutoff = (base + timedelta(days=offset)).isoformat()
            if any(e is not None and e <= cutoff for e in expiries):
                out.append({"fund": name, "period": period, "cutoff": cutoff})
    out.sort(key=lambda s: (s["fund"], s["period"], s["cutoff"]))
    return out


def _is_h2_row(fields: dict, slots: dict) -> bool:
    # a null expiry never satisfies the cutoff, matching range-filter
    # semantics in the executable plan
    return (fields["derivative_type"] == "custom basket"
            and fields.get("expiration_date") is not None
            and fields.get("expiration_date") <= slots["cutoff"])


_TOTAL_ASSETS_LABELS = frozenset(STATEMENT_LABELS["TOTAL_ASSETS"][1])


def _is_total_assets(fields: dict) -> bool:
    return (fields.get("statement") == "assets_liabilities"
            and fields.get("label") in _TOTAL_ASSETS_LABELS)


def _plan_h3(view: ReconciledView | None, slots: dict) -> Plan:
    if view is None:  # filers word the line item differently: a guess
        line_item = (Filter("label", "contains", "total assets"),)
    else:  # the canonical plan pins the filer's exact wording
        rows = _rows(view, "ncsr_statement_items", slots, _BY_FUND, _is_total_assets)
        label = rows[0].fields["label"] if rows else "Total assets"
        line_item = (Filter("statement", "eq", "assets_liabilities"),
                     Filter("label", "eq", label))
    return _plan_sum(FilingType.NCSR, "ncsr_statement_items", (
        Filter("fund_name", "eq", slots["fund"]),
        Filter("period", "eq", slots["period"])) + line_item, "value_usd")


TEMPLATES: dict[str, QuestionTemplate] = {}


def _register(template: QuestionTemplate) -> None:
    TEMPLATES[template.template_id] = template


_register(QuestionTemplate(
    "E0", "easy",
    'Get the aggregate cash equity positions for manager "{manager}" for period {period}.',
    "float", (Route(FilingType.THIRTEEN_F, _TF),),
    lambda view: _distinct_slots(view, _TF, _BY_MANAGER, _is_cash),
    lambda view, slots: _solve_sum(view, slots, _TF, _BY_MANAGER, "value_usd", _is_cash),
    lambda view, slots: _plan_positions(slots, Filter("security_class", "eq", "COM"))))

_register(QuestionTemplate(
    "E1", "easy",
    'Get the aggregate option positions for manager "{manager}" for period {period}.',
    "float", (Route(FilingType.THIRTEEN_F, _TF),),
    lambda view: _distinct_slots(view, _TF, _BY_MANAGER, _is_option),
    lambda view, slots: _solve_sum(view, slots, _TF, _BY_MANAGER, "value_usd", _is_option),
    lambda view, slots: _plan_positions(slots, Filter("security_class", "contains", "OPT"))))

_register(QuestionTemplate(
    "E2", "easy",
    'Get the regulatory AUM for advisor "{advisor}" for period {period}.',
    "float", (Route(FilingType.ADV, "adv_entity"),),
    lambda view: _distinct_slots(view, "adv_entity", _BY_ADVISOR, _has_aum),
    lambda view, slots: _solve_sum(view, slots, "adv_entity", _BY_ADVISOR, "regulatory_aum"),
    lambda view, slots: _plan_sum(FilingType.ADV, "adv_entity", (
        Filter("advisor_name", "eq", slots["advisor"]),
        Filter("period", "eq", slots["period"])), "regulatory_aum")))

_register(QuestionTemplate(
    "E3", "easy",
    'Get all funds managed by investment advisor "{advisor}" for period {period}.',
    "list", (Route(FilingType.NCEN, _REGISTRY),),
    lambda view: _distinct_slots(view, _REGISTRY, _BY_ADVISOR, _names_a_fund),
    lambda view, slots: _solve_advisor_names(view, slots, _REGISTRY, "fund_name"),
    lambda view, slots: _plan_advisor_names(slots, FilingType.NCEN, _REGISTRY,
                                            "fund_name")))

_register(QuestionTemplate(
    "E4", "easy",
    'Get all prime brokers for advisor "{advisor}" for period {period}.',
    "list", (Route(FilingType.ADV, "adv_brokers"),),
    lambda view: _distinct_slots(view, "adv_brokers", _BY_ADVISOR, _is_prime_broker),
    lambda view, slots: _solve_advisor_names(view, slots, "adv_brokers", "broker_name",
                                             _is_prime_broker),
    lambda view, slots: _plan_advisor_names(slots, FilingType.ADV, "adv_brokers",
                                            "broker_name",
                                            (Filter("relation", "eq", "prime broker"),))))

_register(QuestionTemplate(
    "E5", "easy",
    'Get the country-level AUM for manager "{advisor}" for period {period}.',
    "dataframe",
    (Route(FilingType.NCEN, _REGISTRY),
     Route(FilingType.NPORT, "nport_holdings")),
    lambda view: _cands_advisor_split(view, "nport_holdings"),
    lambda view, slots: _solve_advisor_split(view, slots, "nport_holdings",
                                             "country", "value_usd"),
    lambda view, slots: _plan_advisor_split(slots, "nport_holdings",
                                            "country", "value_usd")))

_register(QuestionTemplate(
    "E6", "easy",
    'Get the money market net assets per fund for advisor "{advisor}" for period {period}.',
    "dataframe",
    (Route(FilingType.NCEN, _REGISTRY),
     Route(FilingType.NMFP, "nmfp_fund_info")),
    lambda view: _cands_advisor_split(view, "nmfp_fund_info", where=_is_money_market),
    lambda view, slots: _solve_advisor_split(view, slots, "nmfp_fund_info", "fund_name",
                                             "net_assets", where=_is_money_market),
    _plan_e6))

_register(QuestionTemplate(
    "H0", "hard",
    'Get all holdings of instrument type "{instrument}" for fund "{fund}" for period {period}.',
    "dataframe",
    (Route(FilingType.NPORT, "nport_fund_info"),
     Route(FilingType.NPORT, "nport_holdings")),
    _cands_h0,
    lambda view, slots: _solve_fund_rows(view, slots, "nport_holdings", _H0_COLS,
                                         _is_h0_row),
    lambda view, slots: _plan_fund_rows(slots, "nport_holdings", _H0_COLS, (
        Filter("instrument_type", "eq", slots["instrument"]),))))

_register(QuestionTemplate(
    "H1", "hard",
    'Calculate the counterparty split for advisor "{advisor}" for period {period}.',
    "dataframe",
    (Route(FilingType.NCEN, _REGISTRY),
     Route(FilingType.NPORT, "nport_derivatives")),
    lambda view: _cands_advisor_split(view, "nport_derivatives"),
    lambda view, slots: _solve_advisor_split(view, slots, "nport_derivatives",
                                             "counterparty_name", "notional_value"),
    lambda view, slots: _plan_advisor_split(slots, "nport_derivatives",
                                            "counterparty_name", "notional_value")))

_register(QuestionTemplate(
    "H2", "hard",
    'Identify custom baskets expiring on or before {cutoff} for fund "{fund}" for period {period}.',
    "dataframe",
    (Route(FilingType.NPORT, "nport_fund_info"),
     Route(FilingType.NPORT, "nport_derivatives")),
    _cands_h2,
    lambda view, slots: _solve_fund_rows(view, slots, "nport_derivatives", _H2_COLS,
                                         _is_h2_row),
    lambda view, slots: _plan_fund_rows(slots, "nport_derivatives", _H2_COLS, (
        Filter("derivative_type", "eq", "custom basket"),
        Filter("expiration_date", "range", (None, slots["cutoff"]))))))

_register(QuestionTemplate(
    "H3", "hard",
    'Get the total assets from the annual report for fund "{fund}" for period {period}.',
    "float", (Route(FilingType.NCSR, "ncsr_statement_items"),),
    lambda view: _distinct_slots(view, "ncsr_statement_items", _BY_FUND, _is_total_assets),
    lambda view, slots: _solve_sum(view, slots, "ncsr_statement_items", _BY_FUND,
                                   "value_usd", _is_total_assets),
    _plan_h3))


# ---------------------------------------------------------------------------
# Operations

def instantiate(template: QuestionTemplate, view: ReconciledView,
                rng: random.Random) -> QuestionInstance:
    """Sample one guaranteed-answerable instance."""
    candidates = template.candidates(view)
    if not candidates:
        raise UnsatisfiableTemplateError(
            f"template {template.template_id} unsatisfiable on this corpus; "
            "enlarge the generator config")
    slots = candidates[rng.randrange(len(candidates))]
    try:
        answer, relevant = template.solve(view, slots)
    except OverflowError as exc:
        raise UnsatisfiableTemplateError(
            f"template {template.template_id} has no finite answer for {slots}: "
            f"{exc}") from exc
    text = template.text_template.format(**slots)
    return QuestionInstance(
        template_id=template.template_id,
        text=text,
        base_text=text,
        variant="templated",
        slot_values=dict(slots),
        gold_routes=template.gold_routes,
        gold_answer=answer,
        relevant_record_ids=relevant)


def oracle_solve(instance: QuestionInstance,
                 view: ReconciledView) -> tuple[Answer, frozenset[str]]:
    """Direct plan-free solution for an instance's slots."""
    return TEMPLATES[instance.template_id].solve(view, instance.slot_values)


def canonical_plan(instance: QuestionInstance, view: ReconciledView) -> Plan:
    """The executable plan whose output must match the oracle."""
    return TEMPLATES[instance.template_id].plan(view, instance.slot_values)


def variegate(instance: QuestionInstance, gateway, n: int = 2) -> list[QuestionInstance]:
    """Rewrite the question text n ways; all gold fields are copied."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = []
    for k in range(1, n + 1):
        try:
            text = gateway.complete(build_variegate_request(instance.text, k)).strip()
        except GatewayError as exc:
            log.warning("variegation %d failed: %s", k, exc)
            continue
        if not text:
            log.warning("variegation %d produced empty text; skipped", k)
            continue
        out.append(replace(instance, text=text, variant="variegated"))
    return out


def generate_benchmark(view: ReconciledView, per_template: int,
                       seed: int, gateway=None, variegate_n: int = 0,
                       template_ids: Iterable[str] = ALL_IDS) -> list[QuestionInstance]:
    """Instantiate per_template base questions per template, optionally with
    variegated rewrites after each base instance."""
    instances: list[QuestionInstance] = []
    for template_id in template_ids:
        template = TEMPLATES[template_id]
        rng = random.Random(f"{seed}:{template_id}")
        for _ in range(per_template):
            base = instantiate(template, view, rng)
            instances.append(base)
            if gateway is not None and variegate_n > 0:
                instances.extend(variegate(base, gateway, variegate_n))
    return instances


# ---------------------------------------------------------------------------
# Benchmark file format

def instance_to_dict(instance: QuestionInstance) -> dict:
    return {
        "template_id": instance.template_id,
        "text": instance.text,
        "base_text": instance.base_text,
        "variant": instance.variant,
        "slot_values": instance.slot_values,
        "gold_routes": [[r.agent.value, r.table] for r in instance.gold_routes],
        "gold_answer": answer_to_dict(instance.gold_answer),
        "relevant_record_ids": sorted(instance.relevant_record_ids),
    }


def instance_from_dict(doc: dict) -> QuestionInstance:
    """A line with no gold route raises ValueError: routing scores every
    question against at least one."""
    gold_routes = tuple(Route(FilingType.parse(a), t) for a, t in doc["gold_routes"])
    if not gold_routes:
        raise ValueError("gold_routes is empty")
    return QuestionInstance(
        template_id=doc["template_id"],
        text=doc["text"],
        base_text=doc.get("base_text", doc["text"]),
        variant=doc["variant"],
        slot_values=dict(doc["slot_values"]),
        gold_routes=gold_routes,
        gold_answer=answer_from_dict(doc["gold_answer"]),
        relevant_record_ids=frozenset(doc["relevant_record_ids"]))


def export_benchmark(instances: list[QuestionInstance], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for instance in instances:
            fh.write(json.dumps(instance_to_dict(instance), sort_keys=True) + "\n")


def load_benchmark(path: str | Path) -> list[QuestionInstance]:
    """A damaged line raises ValueError naming the file and the line."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if line:
                try:
                    out.append(instance_from_dict(json.loads(line)))
                except (ValueError, KeyError, TypeError, AttributeError) as exc:
                    raise ValueError(f"{path} line {lineno}: {exc!r}") from exc
    return out
