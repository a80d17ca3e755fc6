"""Typed plan DSL and its executor.

A plan is a small DAG of five step kinds: Retrieve rows from one table,
Aggregate them, Join two row sets, combine scalars with Arithmetic, and
Return exactly one step's value as the final answer. Plans serialize to JSON
so they can round trip through a text generator, be stored in long-term
memory, and be injected directly in tests.

Step output types are table (rows), scalar, or the final Answer. Validation
checks reference integrity, acyclicity, registry membership for tables and
fields, and type agreement between producers and consumers before any
execution happens.

Execution semantics, fixed here because they matter for scoring:
- eq compares values exactly; contains is case-insensitive substring
  (false on null); range is inclusive on both ends, with None meaning open,
  and ISO date strings compare lexicographically.
- sum of an empty input is 0.0; mean of an empty input is an execution
  error; nulls are skipped by sum and mean.
- Join is an inner equi-join; null keys never match; on column-name
  collisions the left value wins.
- Return coerces: scalar stays Scalar, a single-column table becomes a
  ListValue, anything else a TableValue.
- supporting_record_ids is the union of every Retrieve step's matches.

A Retrieve narrows on its eq filters through the view's equality index
(``ReconciledView.eq_index``) and re-checks every filter, so its matches and
their order are exactly those of a full table scan.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from .corpus.reconcile import ReconciledView
from .corpus.schema import FilingType, SchemaError, SchemaRegistry

FILTER_OPS = ("eq", "contains", "range")
AGG_FUNCTIONS = ("sum", "mean", "count", "groupby-sum")
ARITH_OPS = ("add", "sub", "mul", "div")
PROVENANCES = ("draft", "optimized", "memory")


class PlanError(ValueError):
    """Plan fails structural or type validation."""


class ExecutionError(RuntimeError):
    """Plan failed while running; message names the step."""


@dataclass(frozen=True)
class Filter:
    field: str
    op: str
    value: Any

    def __post_init__(self) -> None:
        if self.op not in FILTER_OPS:
            raise PlanError(f"unknown filter op {self.op!r}")
        if self.op == "range":
            ok = (isinstance(self.value, (list, tuple)) and len(self.value) == 2)
            if not ok:
                raise PlanError("range filter value must be a [lo, hi] pair")
            object.__setattr__(self, "value", tuple(self.value))


@dataclass(frozen=True)
class Retrieve:
    step_id: str
    agent: FilingType
    table: str
    filters: tuple[Filter, ...] = ()
    columns: tuple[str, ...] | None = None

    @property
    def inputs(self) -> tuple[str, ...]:
        return ()


@dataclass(frozen=True)
class Aggregate:
    step_id: str
    input_step: str
    function: str
    group_fields: tuple[str, ...] = ()
    value_field: str | None = None

    def __post_init__(self) -> None:
        if self.function not in AGG_FUNCTIONS:
            raise PlanError(f"unknown aggregate function {self.function!r}")

    @property
    def inputs(self) -> tuple[str, ...]:
        return (self.input_step,)


@dataclass(frozen=True)
class Arithmetic:
    step_id: str
    left_step: str
    right_step: str
    op: str

    def __post_init__(self) -> None:
        if self.op not in ARITH_OPS:
            raise PlanError(f"unknown arithmetic op {self.op!r}")

    @property
    def inputs(self) -> tuple[str, ...]:
        return (self.left_step, self.right_step)


@dataclass(frozen=True)
class Join:
    step_id: str
    left_step: str
    right_step: str
    on_fields: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.on_fields:
            raise PlanError("join requires at least one on field")

    @property
    def inputs(self) -> tuple[str, ...]:
        return (self.left_step, self.right_step)


@dataclass(frozen=True)
class Return:
    step_id: str
    input_step: str

    @property
    def inputs(self) -> tuple[str, ...]:
        return (self.input_step,)


PlanStep = Retrieve | Aggregate | Arithmetic | Join | Return


@dataclass(frozen=True)
class Plan:
    steps: tuple[PlanStep, ...]
    provenance: str = "draft"
    source_subquery: str | None = None

    def __post_init__(self) -> None:
        if self.provenance not in PROVENANCES:
            raise PlanError(f"unknown provenance {self.provenance!r}")

    def step(self, step_id: str) -> PlanStep:
        for s in self.steps:
            if s.step_id == step_id:
                return s
        raise KeyError(step_id)


# ---------------------------------------------------------------------------
# Answers

@dataclass(frozen=True)
class Scalar:
    value: float
    supporting_record_ids: frozenset[str] = frozenset()


@dataclass(frozen=True)
class ListValue:
    values: tuple[str, ...]
    supporting_record_ids: frozenset[str] = frozenset()


@dataclass(frozen=True)
class TableValue:
    columns: tuple[str, ...]
    rows: tuple[tuple[Any, ...], ...]
    supporting_record_ids: frozenset[str] = frozenset()


Answer = Scalar | ListValue | TableValue


def answer_to_dict(answer: Answer) -> dict:
    if isinstance(answer, Scalar):
        body: dict[str, Any] = {"kind": "scalar", "value": answer.value}
    elif isinstance(answer, ListValue):
        body = {"kind": "list", "values": list(answer.values)}
    elif isinstance(answer, TableValue):
        body = {"kind": "table", "columns": list(answer.columns),
                "rows": [list(r) for r in answer.rows]}
    else:
        raise TypeError(f"not an Answer: {answer!r}")
    body["supporting_record_ids"] = sorted(answer.supporting_record_ids)
    return body


def answer_from_dict(doc: Mapping[str, Any]) -> Answer:
    support = frozenset(doc.get("supporting_record_ids", ()))
    kind = doc.get("kind")
    if kind == "scalar":
        return Scalar(float(doc["value"]), support)
    if kind == "list":
        return ListValue(tuple(str(v) for v in doc["values"]), support)
    if kind == "table":
        return TableValue(tuple(doc["columns"]),
                          tuple(tuple(r) for r in doc["rows"]), support)
    raise ValueError(f"unknown answer kind {kind!r}")


# ---------------------------------------------------------------------------
# Serialization

def _filter_to_list(f: Filter) -> list:
    value = list(f.value) if isinstance(f.value, tuple) else f.value
    return [f.field, f.op, value]


def plan_to_dict(plan: Plan) -> dict:
    steps = []
    for s in plan.steps:
        if isinstance(s, Retrieve):
            doc: dict[str, Any] = {"id": s.step_id, "kind": "retrieve",
                                   "agent": s.agent.value, "table": s.table,
                                   "filters": [_filter_to_list(f) for f in s.filters]}
            if s.columns is not None:
                doc["columns"] = list(s.columns)
        elif isinstance(s, Aggregate):
            doc = {"id": s.step_id, "kind": "aggregate", "input": s.input_step,
                   "function": s.function}
            if s.group_fields:
                doc["group_fields"] = list(s.group_fields)
            if s.value_field is not None:
                doc["value_field"] = s.value_field
        elif isinstance(s, Arithmetic):
            doc = {"id": s.step_id, "kind": "arithmetic", "left": s.left_step,
                   "right": s.right_step, "op": s.op}
        elif isinstance(s, Join):
            doc = {"id": s.step_id, "kind": "join", "left": s.left_step,
                   "right": s.right_step, "on": list(s.on_fields)}
        elif isinstance(s, Return):
            doc = {"id": s.step_id, "kind": "return", "input": s.input_step}
        else:
            raise TypeError(f"unknown step {s!r}")
        steps.append(doc)
    return {"steps": steps, "provenance": plan.provenance,
            "source_subquery": plan.source_subquery}


def plan_from_dict(doc: Mapping[str, Any]) -> Plan:
    try:
        raw_steps = doc["steps"]
    except (KeyError, TypeError):
        raise PlanError("plan document missing steps")
    if not isinstance(raw_steps, list) or not raw_steps:
        raise PlanError("plan steps must be a non-empty list")
    steps: list[PlanStep] = []
    for raw in raw_steps:
        if not isinstance(raw, Mapping):
            raise PlanError("each step must be an object")
        try:
            step_id = str(raw["id"])
            kind = raw["kind"]
        except KeyError as exc:
            raise PlanError(f"step missing {exc}")
        if kind == "retrieve":
            try:
                agent = FilingType.parse(raw["agent"])
            except (KeyError, ValueError) as exc:
                raise PlanError(f"step {step_id}: bad agent ({exc})")
            filters = tuple(
                Filter(str(f[0]), str(f[1]), tuple(f[2]) if isinstance(f[2], list) and str(f[1]) == "range" else f[2])
                for f in raw.get("filters", ())
            )
            columns = raw.get("columns")
            steps.append(Retrieve(step_id, agent, str(raw.get("table", "")), filters,
                                  tuple(columns) if columns is not None else None))
        elif kind == "aggregate":
            steps.append(Aggregate(step_id, str(raw.get("input", "")),
                                   str(raw.get("function", "")),
                                   tuple(raw.get("group_fields", ())),
                                   raw.get("value_field")))
        elif kind == "arithmetic":
            steps.append(Arithmetic(step_id, str(raw.get("left", "")),
                                    str(raw.get("right", "")), str(raw.get("op", ""))))
        elif kind == "join":
            steps.append(Join(step_id, str(raw.get("left", "")),
                              str(raw.get("right", "")), tuple(raw.get("on", ()))))
        elif kind == "return":
            steps.append(Return(step_id, str(raw.get("input", ""))))
        else:
            raise PlanError(f"step {step_id}: unknown kind {kind!r}")
    raw_source = doc.get("source_subquery")
    return Plan(tuple(steps),
                provenance=doc.get("provenance", "draft"),
                source_subquery=None if raw_source is None else str(raw_source))


def plan_to_json(plan: Plan) -> str:
    return json.dumps(plan_to_dict(plan), sort_keys=True)


def plan_from_json(text: str) -> Plan:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PlanError(f"plan is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise PlanError("plan JSON must be an object")
    return plan_from_dict(doc)


# ---------------------------------------------------------------------------
# Validation

_SCALAR = "scalar"
_TABLE = "table"


def _toposort(plan: Plan) -> list[PlanStep]:
    ids = [s.step_id for s in plan.steps]
    if len(set(ids)) != len(ids):
        raise PlanError("duplicate step ids")
    by_id = {s.step_id: s for s in plan.steps}
    for s in plan.steps:
        for ref in s.inputs:
            if ref not in by_id:
                raise PlanError(f"step {s.step_id} references unknown step {ref!r}")
    indegree = {s.step_id: len(s.inputs) for s in plan.steps}
    consumers: dict[str, list[str]] = {s.step_id: [] for s in plan.steps}
    for s in plan.steps:
        for ref in s.inputs:
            consumers[ref].append(s.step_id)
    ready = sorted(sid for sid, deg in indegree.items() if deg == 0)
    order: list[PlanStep] = []
    while ready:
        sid = ready.pop(0)
        order.append(by_id[sid])
        for nxt in consumers[sid]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                ready.append(nxt)
        ready.sort()
    if len(order) != len(plan.steps):
        raise PlanError("plan contains a cycle")
    return order


def validate_plan(plan: Plan, registry: SchemaRegistry) -> None:
    """Raise PlanError unless the plan is a well-typed executable DAG."""
    order = _toposort(plan)
    returns = [s for s in plan.steps if isinstance(s, Return)]
    if len(returns) != 1:
        raise PlanError(f"plan must have exactly one return step, found {len(returns)}")

    out_type: dict[str, str] = {}
    out_cols: dict[str, tuple[str, ...]] = {}
    for s in order:
        if isinstance(s, Retrieve):
            try:
                schema = registry.table(s.table)
            except (KeyError, SchemaError):
                raise PlanError(f"step {s.step_id}: unknown table {s.table!r}")
            if schema.filing_type != s.agent:
                raise PlanError(
                    f"step {s.step_id}: table {s.table} does not belong to agent {s.agent.value}")
            known = set(schema.field_names)
            for f in s.filters:
                if f.field not in known:
                    raise PlanError(f"step {s.step_id}: unknown filter field {f.field!r}")
            cols = s.columns if s.columns is not None else tuple(schema.field_names)
            for c in cols:
                if c not in known:
                    raise PlanError(f"step {s.step_id}: unknown column {c!r}")
            if not cols:
                raise PlanError(f"step {s.step_id}: empty column projection")
            out_type[s.step_id] = _TABLE
            out_cols[s.step_id] = tuple(cols)
        elif isinstance(s, Aggregate):
            if out_type[s.input_step] != _TABLE:
                raise PlanError(f"step {s.step_id}: aggregate input must be a table")
            cols = out_cols[s.input_step]
            if s.function == "count":
                if s.group_fields or s.value_field is not None:
                    raise PlanError(f"step {s.step_id}: count takes no fields")
                out_type[s.step_id] = _SCALAR
            elif s.function in ("sum", "mean"):
                if s.group_fields:
                    raise PlanError(f"step {s.step_id}: {s.function} takes no group fields")
                if s.value_field is None or s.value_field not in cols:
                    raise PlanError(f"step {s.step_id}: value_field must name an input column")
                out_type[s.step_id] = _SCALAR
            else:  # groupby-sum
                if not s.group_fields:
                    raise PlanError(f"step {s.step_id}: groupby-sum requires group fields")
                for g in s.group_fields:
                    if g not in cols:
                        raise PlanError(f"step {s.step_id}: unknown group field {g!r}")
                if s.value_field is None or s.value_field not in cols:
                    raise PlanError(f"step {s.step_id}: value_field must name an input column")
                if s.value_field in s.group_fields:
                    raise PlanError(f"step {s.step_id}: value_field cannot be grouped")
                out_type[s.step_id] = _TABLE
                out_cols[s.step_id] = tuple(s.group_fields) + (s.value_field,)
        elif isinstance(s, Arithmetic):
            for ref in (s.left_step, s.right_step):
                if out_type[ref] != _SCALAR:
                    raise PlanError(f"step {s.step_id}: arithmetic operand {ref} is not scalar")
            out_type[s.step_id] = _SCALAR
        elif isinstance(s, Join):
            for ref in (s.left_step, s.right_step):
                if out_type[ref] != _TABLE:
                    raise PlanError(f"step {s.step_id}: join operand {ref} is not a table")
            left_cols = out_cols[s.left_step]
            right_cols = out_cols[s.right_step]
            for key in s.on_fields:
                if key not in left_cols or key not in right_cols:
                    raise PlanError(f"step {s.step_id}: join key {key!r} missing from an operand")
            merged = list(left_cols) + [c for c in right_cols if c not in left_cols]
            out_type[s.step_id] = _TABLE
            out_cols[s.step_id] = tuple(merged)
        elif isinstance(s, Return):
            out_type[s.step_id] = out_type[s.input_step]

    ret = returns[0]
    consumed = {ref for s in plan.steps for ref in s.inputs}
    dangling = [s.step_id for s in plan.steps
                if not isinstance(s, Return) and s.step_id not in consumed]
    if dangling:
        raise PlanError(f"unconsumed steps: {', '.join(sorted(dangling))}")
    if ret.step_id in consumed:
        raise PlanError("return step cannot feed another step")


# ---------------------------------------------------------------------------
# Execution

@dataclass
class _Rows:
    columns: tuple[str, ...]
    rows: list[dict[str, Any]] = field(default_factory=list)


def _matches(value: Any, flt: Filter) -> bool:
    if flt.op == "eq":
        return value == flt.value
    if flt.op == "contains":
        if value is None:
            return False
        return str(flt.value).lower() in str(value).lower()
    lo, hi = flt.value
    if value is None:
        return False
    try:
        if lo is not None and value < lo:
            return False
        if hi is not None and value > hi:
            return False
    except TypeError:
        # mismatched operand types (e.g. a range over a text field) match nothing
        return False
    return True


def _is_index_key(value: Any) -> bool:
    """Whether a dict lookup of ``value`` finds every value equal to it:
    it must be hashable and equal to itself, which excludes NaN."""
    try:
        hash(value)
    except TypeError:
        return False
    return value == value


def matching_records(view: ReconciledView, step: Retrieve) -> list:
    """Records a retrieve step would touch, before column projection, in
    table order.

    Candidates are the shortest equality posting list among the eq filters
    whose value is an index key. Equal JSON scalars hash equal, and an
    unhashable record value never equals a hashable one, so no match is
    lost; every filter is then re-checked on each candidate."""
    candidates = view.table_records(step.table)
    for f in step.filters:
        if f.op != "eq" or not _is_index_key(f.value):
            continue
        posting = view.eq_index(step.table, f.field).get(f.value, [])
        if len(posting) < len(candidates):
            candidates = posting
    return [r for r in candidates
            if all(_matches(r.fields.get(f.field), f) for f in step.filters)]


def _group_key(row: dict[str, Any], fields: tuple[str, ...]) -> tuple:
    # None sorts before everything else; values are otherwise homogeneous
    # per column, so tuple comparison stays well defined.
    return tuple((row[f] is not None, row[f]) for f in fields)


def execute_plan(plan: Plan, view: ReconciledView, registry: SchemaRegistry) -> Answer:
    """Run a validated plan over a reconciled view."""
    validate_plan(plan, registry)
    order = _toposort(plan)
    values: dict[str, Any] = {}
    support: set[str] = set()
    result: Any = None

    for s in order:
        if isinstance(s, Retrieve):
            schema = registry.table(s.table)
            cols = s.columns if s.columns is not None else tuple(schema.field_names)
            out = _Rows(tuple(cols))
            for record in matching_records(view, s):
                support.add(record.record_id)
                out.rows.append({c: record.fields.get(c) for c in cols})
            values[s.step_id] = out
        elif isinstance(s, Aggregate):
            rows_in: _Rows = values[s.input_step]
            if s.function == "count":
                values[s.step_id] = float(len(rows_in.rows))
            elif s.function == "sum":
                values[s.step_id] = float(sum(
                    row[s.value_field] for row in rows_in.rows
                    if row[s.value_field] is not None))
            elif s.function == "mean":
                present = [row[s.value_field] for row in rows_in.rows
                           if row[s.value_field] is not None]
                if not present:
                    raise ExecutionError(f"step {s.step_id}: mean of empty input")
                values[s.step_id] = float(sum(present)) / len(present)
            else:
                groups: dict[tuple, float] = {}
                originals: dict[tuple, dict[str, Any]] = {}
                for row in rows_in.rows:
                    key = _group_key(row, s.group_fields)
                    if key not in groups:
                        groups[key] = 0.0
                        originals[key] = {g: row[g] for g in s.group_fields}
                    v = row[s.value_field]
                    if v is not None:
                        groups[key] += float(v)
                out = _Rows(tuple(s.group_fields) + (s.value_field,))
                for key in sorted(groups):
                    row = dict(originals[key])
                    row[s.value_field] = groups[key]
                    out.rows.append(row)
                values[s.step_id] = out
        elif isinstance(s, Arithmetic):
            left = values[s.left_step]
            right = values[s.right_step]
            if s.op == "add":
                values[s.step_id] = left + right
            elif s.op == "sub":
                values[s.step_id] = left - right
            elif s.op == "mul":
                values[s.step_id] = left * right
            else:
                if right == 0:
                    raise ExecutionError(f"step {s.step_id}: division by zero")
                values[s.step_id] = left / right
            if not math.isfinite(values[s.step_id]):
                raise ExecutionError(f"step {s.step_id}: non-finite result")
        elif isinstance(s, Join):
            left: _Rows = values[s.left_step]
            right: _Rows = values[s.right_step]
            extra = [c for c in right.columns if c not in left.columns]
            out = _Rows(tuple(left.columns) + tuple(extra))
            by_key: dict[tuple, list[dict[str, Any]]] = {}
            for row in right.rows:
                key = tuple(row[k] for k in s.on_fields)
                if any(v is None for v in key):
                    continue
                by_key.setdefault(key, []).append(row)
            for lrow in left.rows:
                key = tuple(lrow[k] for k in s.on_fields)
                if any(v is None for v in key):
                    continue
                for rrow in by_key.get(key, ()):
                    merged = dict(lrow)
                    for c in extra:
                        merged[c] = rrow[c]
                    out.rows.append(merged)
            values[s.step_id] = out
        elif isinstance(s, Return):
            result = values[s.input_step]

    return _coerce_answer(result, frozenset(support))


def _coerce_answer(value: Any, support: frozenset[str]) -> Answer:
    if isinstance(value, _Rows):
        if len(value.columns) == 1:
            col = value.columns[0]
            items = tuple(str(row[col]) for row in value.rows if row[col] is not None)
            return ListValue(items, support)
        rows = tuple(tuple(row[c] for c in value.columns) for row in value.rows)
        return TableValue(value.columns, rows, support)
    return Scalar(float(value), support)
