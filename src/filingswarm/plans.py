"""Typed plan DSL and its executor.

A plan is a small DAG of five step kinds: Retrieve rows from one table,
Aggregate them, Join two row sets, combine scalars with Arithmetic, and
Return exactly one step's value as the final answer. A plan is its steps,
and its wire form is ``{"steps": [...]}``, the language the planner prompt
(``assets/prompts/plan.txt``) teaches; it round trips through a text
generator, is stored in long-term memory, and is injected directly in tests.

Step output types are table (rows), scalar, or the final Answer. Validation
checks reference integrity, acyclicity, registry membership for tables and
fields, and type agreement between producers and consumers before any
execution happens. Type agreement covers column kinds: each table step's
columns keep their registry kinds through Join and groupby-sum, sum, mean
and groupby-sum add only a ``number`` column, and no ``list`` column may be
a group field or a join key. A plan that passes keeps a record of the registry
it passed against and of its execution order; ``execute_plan`` runs that
order for the same registry object and validates any other plan first.

A plan is encoded once: ``plan_to_json`` keeps its JSON on the plan. The
validation record and the JSON depend only on the steps, so one plan object
can be shared, by memory among threads too; a ``dataclasses.replace`` copy
keeps neither.

Execution semantics, fixed here because they matter for scoring:
- eq compares values exactly; contains is case-insensitive substring
  (false on null); range is inclusive on both ends, with None meaning open,
  and ISO date strings compare lexicographically.
- sum of an empty input is 0.0; mean of an empty input is an execution
  error; nulls are skipped by sum and mean.
- sum, mean and groupby-sum add the same way: from 0.0, each value
  converted to a float, left to right. So they agree with one another on
  any Python version (``sum()`` adds integers exactly, and floats with
  compensation from 3.12 on).
- A sum, mean, groupby-sum or arithmetic result that is not a finite float
  (inf, nan, or an integer too large for a float) is an execution error.
- Join is an inner equi-join; null keys never match; on column-name
  collisions the left value wins.
- Return coerces: scalar stays Scalar, a single-column table becomes a
  ListValue, anything else a TableValue.
- supporting_record_ids is the union of every Retrieve step's matches, as
  a tuple of record ids, sorted, each once. A tuple of strings leaves the
  cyclic collector's tracking after one collection, while a set's whole
  hash table is walked on every collection of its generation.

A Retrieve narrows on its eq filters through the view's equality index
(``ReconciledView.eq_index``) and re-checks every filter, so its matches and
their order are exactly those of a full table scan. ``select_records``
matches each ``(table, filters)`` once per view: the resulting ``Selection``
is kept in the view's bounded memo (``ReconciledView.memo``, which admits
selections while they hold no more record references than the view has
records) and is shared by the investigate stage and the executor. A step is
memoized only when every filter value is a JSON scalar (None, bool, int,
float, str) or a range pair of them, and the key holds each value's
``repr``: values that compare equal but match differently, such as ``1``,
``1.0`` and ``True`` under contains, or ``0.0`` and ``-0.0``, never share an
entry. Other steps are matched on every call.

The executor works on columns. A Selection cuts each column tuple, and each
column's not-None count, on first use; a Retrieve takes its projection from
those tuples, aggregates read one column, groupby-sum and Join zip columns,
and only the returned table is zipped back into rows.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial, reduce
from itertools import chain
from operator import add, is_not
from typing import Any, Mapping

from .corpus.reconcile import ReconciledView
from .corpus.records import FilingRecord
from .corpus.schema import FilingType, SchemaError, SchemaRegistry

FILTER_OPS = ("eq", "contains", "range")
AGG_FUNCTIONS = ("sum", "mean", "count", "groupby-sum")
ARITH_OPS = ("add", "sub", "mul", "div")


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
    # (registry, execution order) of the last validate_plan this plan passed,
    # set by validate_plan; a replace() copy starts without it.
    _passed: tuple | None = field(default=None, init=False, compare=False, repr=False)
    # The plan's JSON, set by the first plan_to_json; kept like _passed.
    _json: str | None = field(default=None, init=False, compare=False, repr=False)

    def passed_against(self, registry: SchemaRegistry) -> bool:
        """Whether this plan passed validate_plan against this registry object."""
        passed = self._passed
        return passed is not None and passed[0] is registry


# ---------------------------------------------------------------------------
# Answers

# An answer's supporting_record_ids is sorted and holds each id once: a
# tuple, not a set, so the cyclic collector stops walking it (see the module
# docstring). answer_from_dict brings outside input to this form.

@dataclass(frozen=True)
class Scalar:
    value: float
    supporting_record_ids: tuple[str, ...] = ()


@dataclass(frozen=True)
class ListValue:
    values: tuple[str, ...]
    supporting_record_ids: tuple[str, ...] = ()


@dataclass(frozen=True)
class TableValue:
    columns: tuple[str, ...]
    rows: tuple[tuple[Any, ...], ...]
    supporting_record_ids: tuple[str, ...] = ()


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
    body["supporting_record_ids"] = answer.supporting_record_ids
    return body


def answer_from_dict(doc: Mapping[str, Any]) -> Answer:
    support = tuple(sorted(set(doc.get("supporting_record_ids", ()))))
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


def _steps_to_list(plan_steps: tuple[PlanStep, ...]) -> list[dict]:
    steps = []
    for s in plan_steps:
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
    return steps


def plan_to_dict(plan: Plan) -> dict:
    return {"steps": _steps_to_list(plan.steps)}


def _step_from_dict(raw: Mapping[str, Any], step_id: str, kind: Any) -> PlanStep:
    # Field names are looked up in sets and dicts, so each is made a string.
    if kind == "retrieve":
        try:
            agent = FilingType.parse(raw["agent"])
        except (KeyError, ValueError) as exc:
            raise PlanError(f"step {step_id}: bad agent ({exc})")
        filters = tuple(Filter(str(f[0]), str(f[1]), f[2]) for f in raw.get("filters", ()))
        columns = raw.get("columns")
        return Retrieve(step_id, agent, str(raw.get("table", "")), filters,
                        tuple(map(str, columns)) if columns is not None else None)
    if kind == "aggregate":
        value_field = raw.get("value_field")
        return Aggregate(step_id, str(raw.get("input", "")),
                         str(raw.get("function", "")),
                         tuple(map(str, raw.get("group_fields", ()))),
                         str(value_field) if value_field is not None else None)
    if kind == "arithmetic":
        return Arithmetic(step_id, str(raw.get("left", "")),
                          str(raw.get("right", "")), str(raw.get("op", "")))
    if kind == "join":
        return Join(step_id, str(raw.get("left", "")),
                    str(raw.get("right", "")), tuple(map(str, raw.get("on", ()))))
    if kind == "return":
        return Return(step_id, str(raw.get("input", "")))
    raise PlanError(f"step {step_id}: unknown kind {kind!r}")


def plan_from_dict(doc: Mapping[str, Any]) -> Plan:
    """Build a plan from its document form. A document of the wrong shape
    raises PlanError, naming the step when one is at fault. Keys other than
    ``steps`` are ignored: older journals and replies also carried
    ``provenance`` and ``source_subquery``."""
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
        try:
            steps.append(_step_from_dict(raw, step_id, kind))
        except (KeyError, IndexError, TypeError, AttributeError) as exc:
            # a filter that is not a [field, op, value] list, an agent that
            # is not a string, or field names that are not a list
            raise PlanError(f"step {step_id}: malformed {kind!r} step ({exc!r})") from exc
    return Plan(tuple(steps))


def plan_to_json(plan: Plan) -> str:
    """``json.dumps(plan_to_dict(plan), sort_keys=True)``, encoded on the
    first call and kept on the plan."""
    text = plan._json
    if text is None:
        text = json.dumps(plan_to_dict(plan), sort_keys=True)
        object.__setattr__(plan, "_json", text)
    return text


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


def _check_value_field(s: Aggregate, cols: dict[str, str]) -> None:
    """Raise PlanError unless the step adds up a number column of its input."""
    kind = cols.get(s.value_field)
    if kind is None:
        raise PlanError(f"step {s.step_id}: value_field must name an input column")
    if kind != "number":
        raise PlanError(f"step {s.step_id}: {s.function} needs a number column, "
                        f"{s.value_field!r} is {kind}")


def _toposort(plan: Plan) -> tuple[PlanStep, ...]:
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
    return tuple(order)


def validate_plan(plan: Plan, registry: SchemaRegistry) -> tuple[PlanStep, ...]:
    """Raise PlanError unless the plan is a well-typed executable DAG;
    return its steps in execution order, and record on the plan that it
    passed against ``registry``, so ``execute_plan`` need not check again."""
    order = _toposort(plan)
    returns = [s for s in plan.steps if isinstance(s, Return)]
    if len(returns) != 1:
        raise PlanError(f"plan must have exactly one return step, found {len(returns)}")
    consumed = {ref for s in plan.steps for ref in s.inputs}
    if returns[0].step_id in consumed:
        raise PlanError("return step cannot feed another step")

    out_type: dict[str, str] = {}
    out_cols: dict[str, dict[str, str]] = {}  # a table step's column kinds
    for s in order:
        if isinstance(s, Retrieve):
            try:
                schema = registry.table(s.table)
            except (KeyError, SchemaError):
                raise PlanError(f"step {s.step_id}: unknown table {s.table!r}")
            if schema.filing_type != s.agent:
                raise PlanError(
                    f"step {s.step_id}: table {s.table} does not belong to agent {s.agent.value}")
            known = schema.field_name_set
            for f in s.filters:
                if f.field not in known:
                    raise PlanError(f"step {s.step_id}: unknown filter field {f.field!r}")
            cols = s.columns if s.columns is not None else schema.field_names
            for c in cols:
                if c not in known:
                    raise PlanError(f"step {s.step_id}: unknown column {c!r}")
            if not cols:
                raise PlanError(f"step {s.step_id}: empty column projection")
            out_type[s.step_id] = _TABLE
            out_cols[s.step_id] = {c: schema.field_kind(c) for c in cols}
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
                _check_value_field(s, cols)
                out_type[s.step_id] = _SCALAR
            else:  # groupby-sum
                if not s.group_fields:
                    raise PlanError(f"step {s.step_id}: groupby-sum requires group fields")
                for g in s.group_fields:
                    kind = cols.get(g)
                    if kind is None:
                        raise PlanError(f"step {s.step_id}: unknown group field {g!r}")
                    if kind == "list":
                        raise PlanError(f"step {s.step_id}: cannot group by list column {g!r}")
                _check_value_field(s, cols)
                if s.value_field in s.group_fields:
                    raise PlanError(f"step {s.step_id}: value_field cannot be grouped")
                out_type[s.step_id] = _TABLE
                out_cols[s.step_id] = ({g: cols[g] for g in s.group_fields}
                                       | {s.value_field: "number"})
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
                kinds = (left_cols.get(key), right_cols.get(key))
                if None in kinds:
                    raise PlanError(f"step {s.step_id}: join key {key!r} missing from an operand")
                if "list" in kinds:
                    raise PlanError(f"step {s.step_id}: cannot join on list column {key!r}")
            out_type[s.step_id] = _TABLE
            out_cols[s.step_id] = right_cols | left_cols  # the left kind wins, as its value does
        elif isinstance(s, Return):
            out_type[s.step_id] = out_type[s.input_step]

    dangling = [s.step_id for s in plan.steps
                if not isinstance(s, Return) and s.step_id not in consumed]
    if dangling:
        raise PlanError(f"unconsumed steps: {', '.join(sorted(dangling))}")
    object.__setattr__(plan, "_passed", (registry, order))
    return order


# ---------------------------------------------------------------------------
# Execution

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


# _present(v) is ``v is not None``; map and filter run it without a Python frame.
_present = partial(is_not, None)
_JSON_SCALARS = (type(None), bool, int, float, str)


def _key_index(cols: list[tuple]) -> dict[tuple, list[int]]:
    """Each key tuple across ``cols`` that holds no None, mapped to its
    positions in order."""
    index: dict[tuple, list[int]] = {}
    for at, key in enumerate(zip(*cols)):
        if all(map(_present, key)):
            index.setdefault(key, []).append(at)
    return index


class Selection:
    """The records one retrieve step matches, in table order. Each column
    tuple, not-None count, join key index and the record ids are cut on
    first use and kept, so a selection shared through the view's memo does
    its per-row work once. Each cut is published whole by one dict
    assignment; a concurrent first caller may compute an equal one."""

    __slots__ = ("records", "_columns", "_filled", "_key_indexes", "_record_ids")

    def __init__(self, records: list[FilingRecord]):
        self.records = tuple(records)
        self._columns: dict[str, tuple] = {}
        self._filled: dict[str, int] = {}
        self._key_indexes: dict[tuple[str, ...], dict[tuple, list[int]]] = {}
        self._record_ids: tuple[str, ...] | None = None

    def __len__(self) -> int:
        return len(self.records)

    def column(self, name: str) -> tuple:
        """Each record's value of ``name`` (None when missing)."""
        col = self._columns.get(name)
        if col is None:
            col = tuple([r.fields.get(name) for r in self.records])
            self._columns[name] = col
        return col

    def filled(self, name: str) -> int:
        """How many records hold a value other than None for ``name``."""
        count = self._filled.get(name)
        if count is None:
            count = sum(map(_present, self.column(name)))
            self._filled[name] = count
        return count

    def key_index(self, fields: tuple[str, ...]) -> dict[tuple, list[int]]:
        """``_key_index`` over the columns ``fields``."""
        index = self._key_indexes.get(fields)
        if index is None:
            index = _key_index([self.column(f) for f in fields])
            self._key_indexes[fields] = index
        return index

    def record_ids(self) -> tuple[str, ...]:
        """The matched records' ids, sorted; a table holds each id once."""
        ids = self._record_ids
        if ids is None:
            ids = self._record_ids = tuple(sorted([r.record_id for r in self.records]))
        return ids


def _memo_key(step: Retrieve) -> tuple | None:
    """The view-memo key of a step, or None when a filter value is not a JSON
    scalar or a range pair of them. Each value is keyed by its ``repr``,
    which keeps apart values that compare equal but match differently."""
    key: list = [step.table]
    for f in step.filters:
        values = f.value if f.op == "range" else (f.value,)
        if not all(type(v) in _JSON_SCALARS for v in values):
            return None
        key.append((f.field, f.op, repr(f.value)))
    return tuple(key)


def _match(view: ReconciledView, step: Retrieve) -> Selection:
    """The retrieve loop. Candidates are the shortest equality posting list
    among the eq filters whose value is an index key. Equal JSON scalars
    hash equal, and an unhashable record value never equals a hashable one,
    so no match is lost; every filter is then re-checked on each candidate."""
    candidates = view.table_records(step.table)
    for f in step.filters:
        if f.op != "eq" or not _is_index_key(f.value):
            continue
        posting = view.eq_index(step.table, f.field).get(f.value, [])
        if len(posting) < len(candidates):
            candidates = posting
    return Selection([r for r in candidates
                      if all(_matches(r.fields.get(f.field), f) for f in step.filters)])


def select_records(view: ReconciledView, step: Retrieve) -> Selection:
    """What a retrieve step matches on ``view``, matched once per view when
    the step has a memo key and the view's memo has room."""
    key = _memo_key(step)
    if key is None:
        return _match(view, step)
    return view.memo(key, partial(_match, view, step))


@dataclass(frozen=True)
class _Table:
    """A table-typed step value: one tuple per column, all of one length.
    A Retrieve's table keeps its selection, whose rows it holds in order."""
    columns: tuple[str, ...]
    data: dict[str, tuple]
    source: Selection | None = None

    def __len__(self) -> int:
        return len(self.data[self.columns[0]])


def _take(col: tuple, positions: list[int]) -> tuple:
    return tuple(map(col.__getitem__, positions))


def _groupby_sum(table: _Table, group_fields: tuple[str, ...], value_field: str) -> _Table:
    # None sorts before everything else; values are otherwise homogeneous
    # per column, so tuple comparison stays well defined.
    sums: dict[tuple, float] = {}
    firsts: dict[tuple, tuple] = {}
    group_rows = zip(*(table.data[g] for g in group_fields))
    for group, v in zip(group_rows, table.data[value_field]):
        key = tuple([(g is not None, g) for g in group])
        if key not in sums:
            sums[key] = 0.0
            firsts[key] = group
        if v is not None:
            sums[key] += float(v)
    keys = sorted(sums)
    data = {g: tuple([firsts[k][i] for k in keys]) for i, g in enumerate(group_fields)}
    data[value_field] = tuple([sums[k] for k in keys])
    return _Table(tuple(group_fields) + (value_field,), data)


def _join(left: _Table, right: _Table, on_fields: tuple[str, ...]) -> _Table:
    """Inner equi-join in left order, then right order; on a column-name
    collision the left value wins. Null keys never match: the right side's
    key index leaves them out."""
    extra = tuple(c for c in right.columns if c not in left.columns)
    if right.source is not None:
        by_key = right.source.key_index(on_fields)
    else:
        by_key = _key_index([right.data[k] for k in on_fields])
    left_at: list[int] = []
    right_at: list[int] = []
    for i, key in enumerate(zip(*(left.data[k] for k in on_fields))):
        for j in by_key.get(key, ()):
            left_at.append(i)
            right_at.append(j)
    data = {c: _take(left.data[c], left_at) for c in left.columns}
    data.update({c: _take(right.data[c], right_at) for c in extra})
    return _Table(left.columns + extra, data)


def _add_up(values) -> float:
    """0.0 plus each value as a float, left to right, as ``_groupby_sum``
    adds each group: one addition rule for sum, mean and groupby-sum."""
    return reduce(add, map(float, values), 0.0)


def _finite(value: float | _Table) -> bool:
    """A scalar, or the sum column of a groupby-sum table, holds no inf or nan."""
    if isinstance(value, _Table):
        return all(map(math.isfinite, value.data[value.columns[-1]]))
    return math.isfinite(value)


def execute_plan(plan: Plan, view: ReconciledView, registry: SchemaRegistry) -> Answer:
    """Run a plan over a reconciled view. A plan that has not passed
    ``validate_plan`` against this registry object is validated first."""
    order = plan._passed[1] if plan.passed_against(registry) else validate_plan(plan, registry)
    values: dict[str, Any] = {}
    retrieved: list[tuple[str, tuple[str, ...]]] = []  # (table, sorted ids)
    result: Any = None

    for s in order:
        if isinstance(s, Retrieve):
            cols = s.columns if s.columns is not None else registry.table(s.table).field_names
            selected = select_records(view, s)
            retrieved.append((s.table, selected.record_ids()))
            values[s.step_id] = _Table(tuple(cols), {c: selected.column(c) for c in cols},
                                       selected)
        elif isinstance(s, Aggregate):
            table_in: _Table = values[s.input_step]
            try:
                if s.function == "count":
                    values[s.step_id] = float(len(table_in))
                elif s.function == "sum":
                    values[s.step_id] = _add_up(filter(_present, table_in.data[s.value_field]))
                elif s.function == "mean":
                    present = list(filter(_present, table_in.data[s.value_field]))
                    if not present:
                        raise ExecutionError(f"step {s.step_id}: mean of empty input")
                    values[s.step_id] = _add_up(present) / len(present)
                else:
                    values[s.step_id] = _groupby_sum(table_in, s.group_fields, s.value_field)
            except OverflowError:  # an integer too large for a float
                raise ExecutionError(f"step {s.step_id}: non-finite result") from None
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
        elif isinstance(s, Join):
            values[s.step_id] = _join(values[s.left_step], values[s.right_step], s.on_fields)
        elif isinstance(s, Return):
            result = values[s.input_step]
        if isinstance(s, (Aggregate, Arithmetic)) and not _finite(values[s.step_id]):
            raise ExecutionError(f"step {s.step_id}: non-finite result")

    return _coerce_answer(result, _support(retrieved))


def _support(retrieved: list[tuple[str, tuple[str, ...]]]) -> tuple[str, ...]:
    """The sorted union of the retrieves' sorted record ids. Record ids are
    unique in a store, so only a table retrieved twice can repeat one."""
    if len(retrieved) == 1:
        return retrieved[0][1]
    merged = chain.from_iterable(ids for _, ids in retrieved)
    if len({table for table, _ in retrieved}) < len(retrieved):
        merged = set(merged)
    return tuple(sorted(merged))


def _coerce_answer(value: Any, support: tuple[str, ...]) -> Answer:
    if isinstance(value, _Table):
        if len(value.columns) == 1:
            col = value.data[value.columns[0]]
            return ListValue(tuple(map(str, filter(_present, col))), support)
        rows = tuple(zip(*(value.data[c] for c in value.columns)))
        return TableValue(value.columns, rows, support)
    return Scalar(float(value), support)
