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
    """No slot filler on this corpus yields a non-empty answer."""


@dataclass(frozen=True)
class QuestionTemplate:
    template_id: str
    difficulty: str
    text_template: str
    answer_type: str  # float | list | dataframe
    gold_routes: tuple[Route, ...]
    candidates: Callable[[ReconciledView], list[dict]]
    solve: Callable[[ReconciledView, dict], tuple[Answer, frozenset[str]]]
    # Only H3 reads the view, for the filer's label wording; the other
    # templates plan from the slots alone and accept None.
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
# Per-template implementations. Templates that ask one question of different
# tables share their functions, which take the table and fields as arguments.

_TF = "thirteenf_holdings"


def _cands_positions(view: ReconciledView, want_option: bool) -> list[dict]:
    seen = set()
    for r in view.table_records(_TF):
        is_opt = str(r.fields["security_class"]).startswith("OPT")
        if is_opt == want_option and r.fields["manager_name"] is not None:
            seen.add((r.fields["manager_name"], r.fields["period"]))
    return [{"manager": m, "period": p} for m, p in sorted(seen)]


def _solve_positions(view: ReconciledView, slots: dict, want_option: bool):
    total = 0.0
    ids = set()
    for r in view.table_records(_TF):
        if r.fields["manager_name"] != slots["manager"]:
            continue
        if r.fields["period"] != slots["period"]:
            continue
        is_opt = str(r.fields["security_class"]).startswith("OPT")
        if is_opt != want_option:
            continue
        total += r.fields["value_usd"]
        ids.add(r.record_id)
    return Scalar(total, frozenset(ids)), frozenset(ids)


def _plan_positions(slots: dict, want_option: bool) -> Plan:
    class_filter = (Filter("security_class", "contains", "OPT") if want_option
                    else Filter("security_class", "eq", "COM"))
    return Plan((
        Retrieve("r1", FilingType.THIRTEEN_F, _TF, (
            Filter("manager_name", "eq", slots["manager"]),
            Filter("period", "eq", slots["period"]),
            class_filter)),
        Aggregate("a1", "r1", "sum", value_field="value_usd"),
        Return("ret", "a1")))


def _cands_e2(view: ReconciledView) -> list[dict]:
    seen = {(r.fields["advisor_name"], r.fields["period"])
            for r in view.table_records("adv_entity")
            if r.fields["regulatory_aum"] is not None
            and r.fields["advisor_name"] is not None}
    return [{"advisor": a, "period": p} for a, p in sorted(seen)]


def _solve_e2(view: ReconciledView, slots: dict):
    total = 0.0
    ids = set()
    for r in view.table_records("adv_entity"):
        if (r.fields["advisor_name"] == slots["advisor"]
                and r.fields["period"] == slots["period"]
                and r.fields["regulatory_aum"] is not None):
            total += r.fields["regulatory_aum"]
            ids.add(r.record_id)
    return Scalar(total, frozenset(ids)), frozenset(ids)


def _plan_e2(view: ReconciledView, slots: dict) -> Plan:
    return Plan((
        Retrieve("r1", FilingType.ADV, "adv_entity", (
            Filter("advisor_name", "eq", slots["advisor"]),
            Filter("period", "eq", slots["period"]))),
        Aggregate("a1", "r1", "sum", value_field="regulatory_aum"),
        Return("ret", "a1")))


def _cands_advisors(view: ReconciledView) -> list[dict]:
    seen = {(r.fields["advisor_name"], r.fields["period"])
            for r in view.table_records("ncen_fund_registry")
            if r.fields["advisor_name"] is not None}
    return [{"advisor": a, "period": p} for a, p in sorted(seen)]


def _cands_e4(view: ReconciledView) -> list[dict]:
    seen = {(r.fields["advisor_name"], r.fields["period"])
            for r in view.table_records("adv_brokers")
            if r.fields["relation"] == "prime broker"}
    return [{"advisor": a, "period": p} for a, p in sorted(seen)]


_PRIME_BROKER = (("relation", "prime broker"),)


def _solve_advisor_names(view: ReconciledView, slots: dict, table: str,
                         name_field: str, where: tuple[tuple[str, str], ...] = ()):
    """``name_field`` of the advisor's rows of ``table`` for the period that
    also hold every ``(field, value)`` of ``where``."""
    names = []
    ids = set()
    for r in view.table_records(table):
        if (r.fields["advisor_name"] == slots["advisor"]
                and r.fields["period"] == slots["period"]
                and all(r.fields[f] == v for f, v in where)):
            names.append(str(r.fields[name_field]))
            ids.add(r.record_id)
    return ListValue(tuple(names), frozenset(ids)), frozenset(ids)


def _plan_advisor_names(slots: dict, agent: FilingType, table: str,
                        name_field: str, where: tuple[tuple[str, str], ...] = ()) -> Plan:
    return Plan((
        Retrieve("r1", agent, table, (
            Filter("advisor_name", "eq", slots["advisor"]),
            *(Filter(f, "eq", v) for f, v in where),
            Filter("period", "eq", slots["period"])), (name_field,)),
        Return("ret", "r1")))


def _advisor_funds(view: ReconciledView, advisor: str, period: str) -> tuple[set, set]:
    fund_ids = set()
    registry_ids = set()
    for r in view.table_records("ncen_fund_registry"):
        if r.fields["advisor_name"] == advisor and r.fields["period"] == period:
            fund_ids.add(r.fields["fund_id"])
            registry_ids.add(r.record_id)
    return fund_ids, registry_ids


def _cands_advisor_split(view: ReconciledView, table: str) -> list[dict]:
    table_funds: dict[str, set] = {}
    for r in view.table_records(table):
        table_funds.setdefault(r.fields["period"], set()).add(r.fields["fund_id"])
    out = []
    for slots in _cands_advisors(view):
        fund_ids, _ = _advisor_funds(view, slots["advisor"], slots["period"])
        if fund_ids & table_funds.get(slots["period"], set()):
            out.append(slots)
    return out


def _solve_advisor_split(view: ReconciledView, slots: dict, table: str,
                         group_field: str, value_field: str):
    """Sum of ``value_field`` per ``group_field`` over the period's rows of
    ``table`` that belong to the advisor's funds."""
    fund_ids, registry_ids = _advisor_funds(view, slots["advisor"], slots["period"])
    sums: dict[str, float] = {}
    ids = set(registry_ids)
    for r in view.table_records(table):
        if r.fields["period"] == slots["period"] and r.fields["fund_id"] in fund_ids:
            group = r.fields[group_field]
            sums[group] = sums.get(group, 0.0) + r.fields[value_field]
            ids.add(r.record_id)
    rows = tuple((group, sums[group]) for group in sorted(sums))
    return TableValue((group_field, value_field), rows, frozenset(ids)), frozenset(ids)


def _plan_advisor_split(slots: dict, table: str, group_field: str,
                        value_field: str) -> Plan:
    return Plan((
        Retrieve("r1", FilingType.NCEN, "ncen_fund_registry", (
            Filter("advisor_name", "eq", slots["advisor"]),
            Filter("period", "eq", slots["period"])), ("fund_id",)),
        Retrieve("r2", FilingType.NPORT, table, (
            Filter("period", "eq", slots["period"]),),
            ("fund_id", group_field, value_field)),
        Join("j1", "r1", "r2", ("fund_id",)),
        Aggregate("g1", "j1", "groupby-sum", (group_field,), value_field),
        Return("ret", "g1")))


def _cands_e6(view: ReconciledView) -> list[dict]:
    nmfp_funds: dict[str, set] = {}
    for r in view.table_records("nmfp_fund_info"):
        nmfp_funds.setdefault(r.fields["period"], set()).add(r.fields["fund_id"])
    out = []
    seen = {(r.fields["advisor_name"], r.fields["period"])
            for r in view.table_records("ncen_fund_registry")
            if r.fields["fund_type"] == "money market"
            and r.fields["advisor_name"] is not None}
    for advisor, period in sorted(seen):
        fund_ids = {r.fields["fund_id"] for r in view.table_records("ncen_fund_registry")
                    if r.fields["advisor_name"] == advisor
                    and r.fields["period"] == period
                    and r.fields["fund_type"] == "money market"}
        if fund_ids & nmfp_funds.get(period, set()):
            out.append({"advisor": advisor, "period": period})
    return out


def _solve_e6(view: ReconciledView, slots: dict):
    mm: dict[str, str] = {}
    ids = set()
    for r in view.table_records("ncen_fund_registry"):
        if (r.fields["advisor_name"] == slots["advisor"]
                and r.fields["period"] == slots["period"]
                and r.fields["fund_type"] == "money market"):
            mm[r.fields["fund_id"]] = str(r.fields["fund_name"])
            ids.add(r.record_id)
    sums: dict[str, float] = {}
    for r in view.table_records("nmfp_fund_info"):
        if r.fields["period"] == slots["period"] and r.fields["fund_id"] in mm:
            name = mm[r.fields["fund_id"]]
            sums[name] = sums.get(name, 0.0) + r.fields["net_assets"]
            ids.add(r.record_id)
    rows = tuple((name, sums[name]) for name in sorted(sums))
    return TableValue(("fund_name", "net_assets"), rows, frozenset(ids)), frozenset(ids)


def _plan_e6(view: ReconciledView, slots: dict) -> Plan:
    return Plan((
        Retrieve("r1", FilingType.NCEN, "ncen_fund_registry", (
            Filter("advisor_name", "eq", slots["advisor"]),
            Filter("fund_type", "eq", "money market"),
            Filter("period", "eq", slots["period"])), ("fund_id", "fund_name")),
        Retrieve("r2", FilingType.NMFP, "nmfp_fund_info", (
            Filter("period", "eq", slots["period"]),), ("fund_id", "net_assets")),
        Join("j1", "r1", "r2", ("fund_id",)),
        Aggregate("g1", "j1", "groupby-sum", ("fund_name",), "net_assets"),
        Return("ret", "g1")))


def _fund_name_to_id(view: ReconciledView, fund_name: str, period: str) -> tuple[str | None, set]:
    for r in view.table_records("nport_fund_info"):
        if r.fields["fund_name"] == fund_name and r.fields["period"] == period:
            return r.fields["fund_id"], {r.record_id}
    return None, set()


def _solve_fund_rows(view: ReconciledView, slots: dict, table: str,
                     columns: tuple[str, ...], keep: Callable[[dict, dict], bool]):
    """``columns`` of the named fund's rows of ``table`` for the period that
    pass ``keep(fields, slots)``."""
    fund_id, info_ids = _fund_name_to_id(view, slots["fund"], slots["period"])
    ids = set(info_ids)
    rows = []
    for r in view.table_records(table):
        if (r.fields["fund_id"] == fund_id
                and r.fields["period"] == slots["period"]
                and keep(r.fields, slots)):
            rows.append(tuple(r.fields[c] for c in columns))
            ids.add(r.record_id)
    return TableValue(columns, tuple(rows), frozenset(ids)), frozenset(ids)


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


def _cands_h0(view: ReconciledView) -> list[dict]:
    names = {r.fields["fund_id"]: r.fields["fund_name"]
             for r in view.table_records("nport_fund_info")}
    seen = set()
    for r in view.table_records("nport_holdings"):
        name = names.get(r.fields["fund_id"])
        if name is not None and r.fields["instrument_type"] is not None:
            seen.add((name, r.fields["instrument_type"], r.fields["period"]))
    return [{"fund": f, "instrument": i, "period": p} for f, i, p in sorted(seen)]


def _is_h0_row(fields: dict, slots: dict) -> bool:
    return fields["instrument_type"] == slots["instrument"]


_H2_COLS = ("fund_id", "derivative_type", "counterparty_name", "underlying",
            "notional_value", "expiration_date")
_H2_OFFSETS = (90, 180, 365)


def _cands_h2(view: ReconciledView) -> list[dict]:
    from datetime import date, timedelta

    names = {r.fields["fund_id"]: r.fields["fund_name"]
             for r in view.table_records("nport_fund_info")}
    by_fund_period: dict[tuple, list[str]] = {}
    for r in view.table_records("nport_derivatives"):
        if r.fields["derivative_type"] == "custom basket":
            key = (r.fields["fund_id"], r.fields["period"])
            by_fund_period.setdefault(key, []).append(r.fields["expiration_date"])
    out = []
    for (fund_id, period), expiries in sorted(by_fund_period.items()):
        name = names.get(fund_id)
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
            and fields["expiration_date"] is not None
            and fields["expiration_date"] <= slots["cutoff"])


_TOTAL_ASSETS_LABELS = frozenset(STATEMENT_LABELS["TOTAL_ASSETS"][1])


def _cands_h3(view: ReconciledView) -> list[dict]:
    seen = set()
    for r in view.table_records("ncsr_statement_items"):
        if (r.fields["statement"] == "assets_liabilities"
                and r.fields["label"] in _TOTAL_ASSETS_LABELS
                and r.fields["fund_name"] is not None):
            seen.add((r.fields["fund_name"], r.fields["period"]))
    return [{"fund": f, "period": p} for f, p in sorted(seen)]


def _h3_rows(view: ReconciledView, slots: dict) -> list[FilingRecord]:
    return [r for r in view.table_records("ncsr_statement_items")
            if r.fields["fund_name"] == slots["fund"]
            and r.fields["period"] == slots["period"]
            and r.fields["statement"] == "assets_liabilities"
            and r.fields["label"] in _TOTAL_ASSETS_LABELS]


def _solve_h3(view: ReconciledView, slots: dict):
    rows = _h3_rows(view, slots)
    total = sum(r.fields["value_usd"] for r in rows)
    ids = frozenset(r.record_id for r in rows)
    return Scalar(total, ids), ids


def _plan_h3(view: ReconciledView, slots: dict) -> Plan:
    rows = _h3_rows(view, slots)
    # the canonical plan pins the filer's exact wording, read off the corpus
    label = rows[0].fields["label"] if rows else "Total assets"
    return Plan((
        Retrieve("r1", FilingType.NCSR, "ncsr_statement_items", (
            Filter("fund_name", "eq", slots["fund"]),
            Filter("period", "eq", slots["period"]),
            Filter("statement", "eq", "assets_liabilities"),
            Filter("label", "eq", label))),
        Aggregate("a1", "r1", "sum", value_field="value_usd"),
        Return("ret", "a1")))


TEMPLATES: dict[str, QuestionTemplate] = {}


def _register(template: QuestionTemplate) -> None:
    TEMPLATES[template.template_id] = template


_register(QuestionTemplate(
    "E0", "easy",
    'Get the aggregate cash equity positions for manager "{manager}" for period {period}.',
    "float", (Route(FilingType.THIRTEEN_F, _TF),),
    lambda view: _cands_positions(view, want_option=False),
    lambda view, slots: _solve_positions(view, slots, want_option=False),
    lambda view, slots: _plan_positions(slots, want_option=False)))

_register(QuestionTemplate(
    "E1", "easy",
    'Get the aggregate option positions for manager "{manager}" for period {period}.',
    "float", (Route(FilingType.THIRTEEN_F, _TF),),
    lambda view: _cands_positions(view, want_option=True),
    lambda view, slots: _solve_positions(view, slots, want_option=True),
    lambda view, slots: _plan_positions(slots, want_option=True)))

_register(QuestionTemplate(
    "E2", "easy",
    'Get the regulatory AUM for advisor "{advisor}" for period {period}.',
    "float", (Route(FilingType.ADV, "adv_entity"),),
    _cands_e2, _solve_e2, _plan_e2))

_register(QuestionTemplate(
    "E3", "easy",
    'Get all funds managed by investment advisor "{advisor}" for period {period}.',
    "list", (Route(FilingType.NCEN, "ncen_fund_registry"),),
    _cands_advisors,
    lambda view, slots: _solve_advisor_names(view, slots, "ncen_fund_registry",
                                             "fund_name"),
    lambda view, slots: _plan_advisor_names(slots, FilingType.NCEN,
                                            "ncen_fund_registry", "fund_name")))

_register(QuestionTemplate(
    "E4", "easy",
    'Get all prime brokers for advisor "{advisor}" for period {period}.',
    "list", (Route(FilingType.ADV, "adv_brokers"),),
    _cands_e4,
    lambda view, slots: _solve_advisor_names(view, slots, "adv_brokers", "broker_name",
                                             _PRIME_BROKER),
    lambda view, slots: _plan_advisor_names(slots, FilingType.ADV, "adv_brokers",
                                            "broker_name", _PRIME_BROKER)))

_register(QuestionTemplate(
    "E5", "easy",
    'Get the country-level AUM for manager "{advisor}" for period {period}.',
    "dataframe",
    (Route(FilingType.NCEN, "ncen_fund_registry"),
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
    (Route(FilingType.NCEN, "ncen_fund_registry"),
     Route(FilingType.NMFP, "nmfp_fund_info")),
    _cands_e6, _solve_e6, _plan_e6))

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
    (Route(FilingType.NCEN, "ncen_fund_registry"),
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
    _cands_h3, _solve_h3, _plan_h3))


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
    answer, relevant = template.solve(view, slots)
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
            response = gateway.complete(build_variegate_request(instance.text, k))
        except GatewayError as exc:
            log.warning("variegation %d failed: %s", k, exc)
            continue
        text = response.content.strip()
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


def datapoint_stats(instances: list[QuestionInstance]) -> dict[str, dict]:
    """Median and total relevant-record counts per template, templated
    instances only."""
    by_template: dict[str, list[int]] = {}
    for inst in instances:
        if inst.variant != "templated":
            continue
        by_template.setdefault(inst.template_id, []).append(len(inst.relevant_record_ids))
    out = {}
    for template_id in sorted(by_template):
        counts = sorted(by_template[template_id])
        n = len(counts)
        mid = n // 2
        median = counts[mid] if n % 2 else (counts[mid - 1] + counts[mid]) / 2
        out[template_id] = {"median": median, "total": sum(counts), "instances": n}
    return out


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
    return QuestionInstance(
        template_id=doc["template_id"],
        text=doc["text"],
        base_text=doc.get("base_text", doc["text"]),
        variant=doc["variant"],
        slot_values=dict(doc["slot_values"]),
        gold_routes=tuple(Route(FilingType.parse(a), t) for a, t in doc["gold_routes"]),
        gold_answer=answer_from_dict(doc["gold_answer"]),
        relevant_record_ids=frozenset(doc["relevant_record_ids"]))


def export_benchmark(instances: list[QuestionInstance], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for instance in instances:
            fh.write(json.dumps(instance_to_dict(instance), sort_keys=True) + "\n")


def load_benchmark(path: str | Path) -> list[QuestionInstance]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(instance_from_dict(json.loads(line)))
    return out
