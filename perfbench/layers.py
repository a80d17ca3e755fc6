"""Which program calls the traced run wraps, and how its spans become the
per-layer metrics.

Layers are the package's modules: corpus, vindex, gateway, routing, plans,
pipeline, questbench and evalrun. Each patch replaces a module attribute
that a caller resolves at call time; the span is named after the layer that
does the work. Per-layer ``_s`` metrics are self times, so layers never
count each other's work, except ``pipeline.execute_s``, which is the whole
execute stage (one call into ``plans.execute_plan``).
"""
from __future__ import annotations

from filingswarm import evalrun, pipeline, plans, routing, vindex
from filingswarm.plans import Retrieve

from .spans import Span, Tracer, self_times

GATEWAY_TAGS = ("classify", "rewrite", "decompose", "plan", "replan",
                "route_agent", "route_table")
SCOPES = ("global", "agent", "table")


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _retrieve_rows(plan, view) -> int:
    return sum(len(view.table_records(step.table)) for step in plan.steps
               if isinstance(step, Retrieve))


def _info_knn(args, kwargs, result):
    index = _arg(args, kwargs, 0, "index")
    return {"scope": index.scope.kind, "rows": len(index)}


def _info_build(args, kwargs, result):
    return {"rows": len(result) if result is not None else 0}


def _info_execute(args, kwargs, result):
    doc = {"rows_scanned": _retrieve_rows(_arg(args, kwargs, 0, "plan"),
                                          _arg(args, kwargs, 1, "view"))}
    if result is not None:
        doc["rows_matched"] = len(result.supporting_record_ids)
    return doc


def _info_investigate(args, kwargs, result):
    return {"rows_scanned": _retrieve_rows(_arg(args, kwargs, 0, "plan"),
                                           _arg(args, kwargs, 1, "view"))}


def _info_screen(args, kwargs, result):
    return {"rewrites": result.rewrites} if result is not None else None


def _info_draft(args, kwargs, result):
    return {"fallback": result.fallback} if result is not None else None


def _info_route(args, kwargs, result):
    if result is None:
        return None
    doc = {"unroutable": result.unroutable}
    if result.strategy == "swarm":
        doc["rounds"] = sum(1 for entry in result.transcript if "timestep" in entry)
        doc["unanimous"] = any(entry.get("unanimous") for entry in result.transcript)
    return doc


def _info_request(args, kwargs, result):
    request = _arg(args, kwargs, 0, "request")
    size = len(request.system_prompt.encode("utf-8"))
    size += sum(len(content.encode("utf-8")) for _, content in request.messages)
    return {"tag": request.tag, "bytes": size,
            "reprompt": any(role == "assistant" for role, _ in request.messages)}


def _info_lookup(args, kwargs, result):
    return {"hit": result is not None}


PATCHES = (
    (pipeline, "screen_query", "pipeline.screen_query", _info_screen),
    (pipeline, "decompose", "pipeline.decompose", None),
    (pipeline, "draft_plan", "pipeline.draft_plan", _info_draft),
    (pipeline, "gather_swarm_intelligence", "pipeline.gather_swarm_intelligence",
     _info_investigate),
    (pipeline, "revise_plan", "pipeline.revise_plan", None),
    (pipeline, "execute_plan", "plans.execute_plan", _info_execute),
    (pipeline, "validate_plan", "plans.validate_plan", None),
    (pipeline, "knn", "vindex.knn", _info_knn),
    (pipeline, "route_generative", "routing.route_generative", _info_route),
    (plans, "validate_plan", "plans.validate_plan", None),
    (routing, "route_generative", "routing.route_generative", _info_route),
    (routing, "route_swarm", "routing.route_swarm", _info_route),
    (routing, "route_embedding", "routing.route_embedding", _info_route),
    (routing, "knn", "vindex.knn", _info_knn),
    (evalrun, "knn", "vindex.knn", _info_knn),
    (evalrun, "build_index", "vindex.build_index", _info_build),
    (vindex, "build_index", "vindex.build_index", _info_build),
    (vindex, "to_embedding_text", "corpus.to_embedding_text", None),
)


class TracedProvider:
    """Provider passed in for a traced pass: one gateway span per request."""

    def __init__(self, tracer: Tracer, inner) -> None:
        self.provider_id = getattr(inner, "provider_id", "unknown")
        self.complete = tracer.wrap("gateway.complete", inner.complete, _info_request)


class TracedEmbedder:
    """Embedder passed in for a traced run. Per-text work inside
    ``embed_batch`` stays inside the one batch span."""

    def __init__(self, tracer: Tracer, inner) -> None:
        self._inner = inner
        self.embed = tracer.wrap("vindex.embed", inner.embed)
        self.embed_batch = tracer.wrap("vindex.embed_batch", inner.embed_batch)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


def trace_memory(tracer: Tracer, memory):
    """Wrap one LongTermMemory instance's lookup and store."""
    memory.lookup = tracer.wrap("pipeline.memory_lookup", memory.lookup, _info_lookup)
    memory.store = tracer.wrap("pipeline.memory_store", memory.store)
    return memory


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (q in [0, 1]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _names() -> list[tuple[str, str]]:
    names = [
        ("corpus.ingest_s", "s"), ("corpus.reconcile_s", "s"),
        ("corpus.embedding_text_s", "s"), ("corpus.embedding_text_calls", "count"),
        ("vindex.build_index_s", "s"), ("vindex.build_index_calls", "count"),
        ("vindex.records_embedded", "count"), ("vindex.embed_batch_s", "s"),
        ("vindex.embed_s", "s"), ("vindex.embed_calls", "count"),
        ("vindex.knn_calls", "count"), ("vindex.knn_s", "s"),
        ("vindex.knn_rows_scanned", "count"),
    ]
    for pct in ("p50", "p95"):
        names += [(f"vindex.knn_{scope}_{pct}_ms", "ms") for scope in SCOPES]
    names += [("gateway.calls", "count"), ("gateway.complete_s", "s")]
    names += [(f"gateway.calls.{tag}", "count") for tag in GATEWAY_TAGS]
    names += [(f"gateway.complete_s.{tag}", "s") for tag in GATEWAY_TAGS]
    names += [
        ("gateway.prompt_bytes", "bytes"), ("gateway.errors", "count"),
        ("gateway.reprompt_share", "ratio"),
        ("routing.generative_s", "s"), ("routing.swarm_s", "s"),
        ("routing.embedding_s", "s"), ("routing.swarm_rounds_mean", "rounds"),
        ("routing.swarm_unanimous_share", "ratio"),
        ("routing.unroutable_share", "ratio"),
        ("routing.acc_overall.generative", "ratio"),
        ("routing.acc_overall.embedding", "ratio"),
        ("plans.execute_s", "s"), ("plans.execute_calls", "count"),
        ("plans.validate_s", "s"), ("plans.validate_calls", "count"),
        ("plans.rows_scanned", "count"), ("plans.rows_matched", "count"),
        ("plans.match_ratio", "ratio"),
        ("pipeline.screen_s", "s"), ("pipeline.decompose_s", "s"),
        ("pipeline.draft_s", "s"), ("pipeline.investigate_s", "s"),
        ("pipeline.revise_s", "s"), ("pipeline.execute_s", "s"),
        ("pipeline.investigate_rows_scanned", "count"),
        ("pipeline.memory_hit_share", "ratio"), ("pipeline.fallback_share", "ratio"),
        ("pipeline.rewrites", "count"), ("pipeline.memory_store_s", "s"),
        ("pipeline.memory_lookup_s", "s"),
        ("questbench.load_s", "s"),
        ("evalrun.judge_s", "s"), ("evalrun.score_routing_s", "s"),
        ("evalrun.index_build_share", "ratio"),
        ("trace.overhead_share", "ratio"),
    ]
    return names


PER_LAYER: tuple[tuple[str, str], ...] = tuple(_names())


def layer_metrics(spans: list[Span], routing_acc: dict[str, float],
                  overhead_share: float) -> dict[str, float]:
    """Every per-layer metric from the spans of one traced set-up and one
    traced pass. ``routing_acc`` holds acc_overall per routing strategy
    where the workload scores them."""
    selft = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def of(name: str) -> list[Span]:
        return by_name.get(name, [])

    def self_s(name: str) -> float:
        return sum(selft[s.span_id] for s in of(name))

    def attr_sum(name: str, key: str) -> float:
        return sum((s.attrs or {}).get(key, 0) for s in of(name))

    def share(name: str, key: str) -> float:
        return _ratio(sum(1 for s in of(name) if (s.attrs or {}).get(key)), len(of(name)))

    out: dict[str, float] = {
        "corpus.ingest_s": self_s("corpus.ingest_jsonl"),
        "corpus.reconcile_s": self_s("corpus.reconcile"),
        "corpus.embedding_text_s": self_s("corpus.to_embedding_text"),
        "corpus.embedding_text_calls": len(of("corpus.to_embedding_text")),
        "vindex.build_index_s": self_s("vindex.build_index"),
        "vindex.build_index_calls": len(of("vindex.build_index")),
        "vindex.records_embedded": attr_sum("vindex.build_index", "rows"),
        "vindex.embed_batch_s": self_s("vindex.embed_batch"),
        "vindex.embed_s": self_s("vindex.embed"),
        "vindex.embed_calls": len(of("vindex.embed")),
        "vindex.knn_calls": len(of("vindex.knn")),
        "vindex.knn_s": self_s("vindex.knn"),
        "vindex.knn_rows_scanned": attr_sum("vindex.knn", "rows"),
    }
    for scope in SCOPES:
        ms = [1e3 * s.duration for s in of("vindex.knn") if (s.attrs or {}).get("scope") == scope]
        out[f"vindex.knn_{scope}_p50_ms"] = percentile(ms, 0.50)
        out[f"vindex.knn_{scope}_p95_ms"] = percentile(ms, 0.95)

    requests = of("gateway.complete")
    out["gateway.calls"] = len(requests)
    out["gateway.complete_s"] = self_s("gateway.complete")
    for tag in GATEWAY_TAGS:
        tagged = [s for s in requests if s.attrs.get("tag") == tag]
        out[f"gateway.calls.{tag}"] = len(tagged)
        out[f"gateway.complete_s.{tag}"] = sum(selft[s.span_id] for s in tagged)
    out["gateway.prompt_bytes"] = attr_sum("gateway.complete", "bytes")
    out["gateway.errors"] = sum(1 for s in requests if "error" in s.attrs)
    closed = [s for s in requests if s.attrs.get("tag") in ("route_agent", "route_table")]
    reprompts = sum(1 for s in closed if s.attrs.get("reprompt"))
    out["gateway.reprompt_share"] = _ratio(reprompts, len(closed) - reprompts)

    routes = of("routing.route_generative") + of("routing.route_swarm") \
        + of("routing.route_embedding")
    swarms = of("routing.route_swarm")
    out.update({
        "routing.generative_s": self_s("routing.route_generative"),
        "routing.swarm_s": self_s("routing.route_swarm"),
        "routing.embedding_s": self_s("routing.route_embedding"),
        "routing.swarm_rounds_mean": _ratio(attr_sum("routing.route_swarm", "rounds"),
                                            len(swarms)),
        "routing.swarm_unanimous_share": share("routing.route_swarm", "unanimous"),
        "routing.unroutable_share": _ratio(
            sum(1 for s in routes if (s.attrs or {}).get("unroutable")), len(routes)),
        "routing.acc_overall.generative": routing_acc.get("generative", 0.0),
        "routing.acc_overall.embedding": routing_acc.get("embedding", 0.0),
    })

    scanned = attr_sum("plans.execute_plan", "rows_scanned")
    matched = attr_sum("plans.execute_plan", "rows_matched")
    out.update({
        "plans.execute_s": self_s("plans.execute_plan"),
        "plans.execute_calls": len(of("plans.execute_plan")),
        "plans.validate_s": self_s("plans.validate_plan"),
        "plans.validate_calls": len(of("plans.validate_plan")),
        "plans.rows_scanned": scanned,
        "plans.rows_matched": matched,
        "plans.match_ratio": _ratio(matched, scanned),
    })

    out.update({
        "pipeline.screen_s": self_s("pipeline.screen_query"),
        "pipeline.decompose_s": self_s("pipeline.decompose"),
        "pipeline.draft_s": self_s("pipeline.draft_plan"),
        "pipeline.investigate_s": self_s("pipeline.gather_swarm_intelligence"),
        "pipeline.revise_s": self_s("pipeline.revise_plan"),
        "pipeline.execute_s": sum(s.duration for s in of("plans.execute_plan")),
        "pipeline.investigate_rows_scanned": attr_sum(
            "pipeline.gather_swarm_intelligence", "rows_scanned"),
        "pipeline.memory_hit_share": share("pipeline.memory_lookup", "hit"),
        "pipeline.fallback_share": share("pipeline.draft_plan", "fallback"),
        "pipeline.rewrites": attr_sum("pipeline.screen_query", "rewrites"),
        "pipeline.memory_store_s": self_s("pipeline.memory_store"),
        "pipeline.memory_lookup_s": self_s("pipeline.memory_lookup"),
        "questbench.load_s": self_s("questbench.load_benchmark"),
        "evalrun.judge_s": self_s("evalrun.judge_success"),
        "evalrun.score_routing_s": self_s("evalrun.score_routing"),
    })

    passes = of("pass")
    builds = sum(s.duration for s in of("vindex.build_index")
                 if any(p.start <= s.start and s.end <= p.end for p in passes))
    out["evalrun.index_build_share"] = _ratio(builds, sum(p.duration for p in passes))
    out["trace.overhead_share"] = overhead_share
    return {name: float(out[name]) for name, _ in PER_LAYER}
