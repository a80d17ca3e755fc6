from __future__ import annotations

import email.utils
import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
import requests
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import filingswarm
from filingswarm.corpus.schema import FilingType
from filingswarm.gateway import providers
from filingswarm.gateway.deterministic import DeterministicProvider, _read
from filingswarm.gateway.prompts import (
    REFUSAL,
    Prompt,
    build_classify_request,
    build_decompose_request,
    build_plan_request,
    build_replan_request,
    build_rewrite_request,
    build_route_agent_request,
    build_route_table_request,
    build_variegate_request,
    parse_prompt,
    read_candidate,
    read_verdict,
)
from filingswarm.gateway.providers import (
    RecordingProvider,
    RemoteProvider,
    ScriptedProvider,
    load_fixtures,
    retry_after_seconds,
    save_fixtures,
)
from filingswarm.gateway.types import (
    ChatRequest,
    ChatResponse,
    FixtureMissError,
    GatewayError,
    request_digest,
)
from filingswarm.pipeline import Query, SubQuery, SubQuerySet, draft_plan
from filingswarm.plans import Filter, plan_from_json, validate_plan
from filingswarm.questbench import ALL_IDS, canonical_plan
from filingswarm.routing import SwarmConfig, route_generative, route_swarm

E2 = 'Get the regulatory AUM for advisor "Test Advisors LLC" for period 2023-03-31.'


def msg(text):
    return ChatRequest(system_prompt="You are a helper.",
                       messages=(("user", text),))


# --- request digest ----------------------------------------------------------

def test_digest_stable_across_objects():
    a = ChatRequest(system_prompt="s", messages=(("user", "hello"),),
                    temperature=0.0, max_tokens=256)
    b = ChatRequest(system_prompt="s", messages=(("user", "hello"),),
                    temperature=0.0, max_tokens=256)
    assert request_digest(a) == request_digest(b)


def test_digest_sensitive_to_content_and_params():
    base = msg("hello")
    assert request_digest(msg("hello!")) != request_digest(base)
    warm = ChatRequest(system_prompt=base.system_prompt, messages=base.messages,
                       temperature=0.7)
    assert request_digest(warm) != request_digest(base)
    other_system = ChatRequest(system_prompt="different", messages=base.messages)
    assert request_digest(other_system) != request_digest(base)


def test_chat_request_validates_inputs():
    with pytest.raises(ValueError):
        ChatRequest(system_prompt="s", messages=(("wizard", "x"),))
    with pytest.raises(ValueError):
        ChatRequest(system_prompt="s", messages=())
    with pytest.raises(ValueError):
        ChatRequest(system_prompt="s", messages=(("user", "x"),), temperature=-1.0)
    with pytest.raises(ValueError):
        ChatRequest(system_prompt="s", messages=(("user", "x"),), max_tokens=0)


# --- scripted and recording providers ---------------------------------------

def test_recording_then_scripted_replay(tmp_path):
    det = DeterministicProvider()
    recorder = RecordingProvider(det)
    request = build_classify_request(E2)
    live = recorder.complete(request)

    path = tmp_path / "fixtures.jsonl"
    save_fixtures(recorder, path)
    scripted = ScriptedProvider(load_fixtures(path))
    replayed = scripted.complete(request)
    assert replayed.content == live.content


def test_scripted_raises_on_unknown_digest():
    scripted = ScriptedProvider({})
    with pytest.raises(FixtureMissError):
        scripted.complete(msg("never recorded"))


def test_fixture_miss_is_not_a_gateway_error():
    # a handler that falls back on a provider failure must not swallow a miss
    assert not issubclass(FixtureMissError, GatewayError)
    assert issubclass(FixtureMissError, RuntimeError)


def test_save_fixtures_sorted_and_tagged(tmp_path):
    recorder = RecordingProvider(DeterministicProvider())
    recorder.complete(build_classify_request("Get the total."))
    recorder.complete(build_rewrite_request("Get the total."))
    path = tmp_path / "fx.jsonl"
    save_fixtures(recorder, path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    digests = [line["digest"] for line in lines]
    assert digests == sorted(digests)
    assert {line["tag"] for line in lines} == {"classify", "rewrite"}


class _StubSession:
    def __init__(self):
        self.calls = []

    def post(self, endpoint, json=None, headers=None, timeout=None):
        self.calls.append({"endpoint": endpoint, "json": json, "headers": headers})

        class _Resp:
            status_code = 200

            @staticmethod
            def json():
                return {"choices": [{"message": {"content": "ok"}}]}
        return _Resp()


def test_remote_provider_wire_shape_and_credential(monkeypatch):
    session = _StubSession()
    provider = RemoteProvider(endpoint="https://api.example/v1/chat", model="m",
                              session=session)
    monkeypatch.delenv("FILINGSWARM_API_KEY", raising=False)
    provider.complete(msg("hello"))
    monkeypatch.setenv("FILINGSWARM_API_KEY", "sk-test")
    response = provider.complete(msg("hello"))

    assert response.content == "ok"
    bare, authed = session.calls
    assert "Authorization" not in bare["headers"]
    assert authed["headers"]["Authorization"] == "Bearer sk-test"
    body = authed["json"]
    assert body["model"] == "m"
    assert body["messages"][0] == {"role": "system", "content": "You are a helper."}
    assert body["messages"][1] == {"role": "user", "content": "hello"}


class _Reply:
    def __init__(self, status_code, content="ok", headers=None):
        self.status_code = status_code
        self.content = content
        self.headers = requests.structures.CaseInsensitiveDict(headers or {})

    def json(self):
        return {"choices": [{"message": {"content": self.content}}]}


class _FirstAFails:
    """Answers HTTP 503 to the first request whose message is "A", and 200
    to every other request."""

    def __init__(self):
        self.lock = threading.Lock()
        self.failed = False

    def post(self, endpoint, json=None, headers=None, timeout=None):
        with self.lock:
            fail = json["messages"][-1]["content"] == "A" and not self.failed
            self.failed |= fail
        return _Reply(503 if fail else 200)


def test_remote_provider_backs_off_without_holding_its_slot(monkeypatch):
    a_backing_off = threading.Event()
    b_done = threading.Event()
    b_done_during_backoff = []

    def sleep(seconds):  # only caller A backs off; it waits for B, or times out
        if threading.current_thread().name == "caller-a":
            a_backing_off.set()
            b_done_during_backoff.append(b_done.wait(timeout=5))

    monkeypatch.setattr(providers.time, "sleep", sleep)
    provider = RemoteProvider(endpoint="https://api.example/v1/chat", model="m",
                              rate_per_sec=1000.0, max_concurrent=1,
                              session=_FirstAFails())
    replies = {}

    def call(text, done=None):
        replies[text] = provider.complete(msg(text)).content
        if done is not None:
            done.set()

    caller_a = threading.Thread(target=call, args=("A",), name="caller-a", daemon=True)
    caller_b = threading.Thread(target=call, args=("B", b_done), name="caller-b",
                                daemon=True)
    caller_a.start()
    assert a_backing_off.wait(timeout=5)
    caller_b.start()
    caller_b.join(timeout=10)
    caller_a.join(timeout=10)
    assert not caller_a.is_alive() and not caller_b.is_alive()
    assert b_done_during_backoff == [True]
    assert replies == {"A": "ok", "B": "ok"}


class _Replies:
    """Answers each request with the next of ``replies``."""

    def __init__(self, replies):
        self.replies = list(replies)

    def post(self, endpoint, json=None, headers=None, timeout=None):
        return self.replies.pop(0)


@pytest.mark.parametrize("retry_after, waits", [
    (None, [0.5, 1.0]),
    ("2", [2.0, 2.0]),
    ("0", [0.0, 0.0]),
    ("3600", [30.0, 30.0]),  # capped at the timeout
    ("soon", [0.5, 1.0]),  # neither form: exponential backoff
    ("Wed, 21 Oct 2015 07:28:00 GMT", [0.0, 0.0]),  # a date that has passed
    (email.utils.formatdate(time.time() + 3600, usegmt=True), [30.0, 30.0]),
])
def test_remote_provider_waits_as_retry_after_asks(monkeypatch, retry_after, waits):
    headers = {} if retry_after is None else {"retry-after": retry_after}
    provider = RemoteProvider(endpoint="https://api.example/v1/chat", model="m",
                              timeout=30.0, rate_per_sec=1000.0, max_concurrent=1,
                              session=_Replies([_Reply(429, headers=headers),
                                                _Reply(503, headers=headers),
                                                _Reply(200)]))
    slept = []

    def sleep(seconds):  # the caller backs off without its slot
        assert provider.slots.acquire(blocking=False)
        provider.slots.release()
        slept.append(seconds)

    monkeypatch.setattr(providers.time, "sleep", sleep)
    assert provider.complete(msg("hello")).content == "ok"
    assert slept == waits


def test_retry_after_reads_delta_seconds_and_each_http_date_form():
    now = email.utils.parsedate_to_datetime("Wed, 21 Oct 2015 07:26:30 GMT").timestamp()
    for value in ("Wed, 21 Oct 2015 07:28:00 GMT", "Wednesday, 21-Oct-15 07:28:00 GMT",
                  "Wed Oct 21 07:28:00 2015", " 90 "):
        assert retry_after_seconds(value, now) == 90.0
    assert retry_after_seconds("Wed, 21 Oct 2015 07:26:00 GMT", now) == 0.0
    for value in (None, "", "-5", "1.5", "\u00b2", "soon", "Wed, 32 Oct 2015 07:28:00 GMT"):
        assert retry_after_seconds(value, now) is None


@settings(max_examples=300, deadline=None)
@given(st.text())
def test_retry_after_never_raises(value):
    wait = retry_after_seconds(value, 1.4e9)
    assert wait is None or wait >= 0.0


# --- deterministic provider rules -------------------------------------------

def _verdict(provider, query):
    return read_verdict(provider.complete(build_classify_request(query)).content)


def test_classify_needs_verb_and_domain_phrase():
    det = DeterministicProvider()
    label, confidence = _verdict(det, E2)
    assert label == "non_hallucinatory"
    assert 0.0 < confidence <= 1.0

    assert _verdict(det, "Tell me about stuff.")[0] == "hallucinatory"
    assert _verdict(det, "regulatory AUM")[0] == "hallucinatory"


_LABELS = ("hallucinatory", "non_hallucinatory")


def _is_number(word):
    """Whether ``float`` reads the word as a number other than nan."""
    try:
        return not math.isnan(float(word))
    except ValueError:
        return False


@settings(max_examples=200, deadline=None)
@given(label=st.sampled_from(_LABELS), confidence=st.floats(allow_nan=False))
def test_verdict_reader_keeps_the_label_and_clamps_the_confidence(label, confidence):
    got_label, got = read_verdict(f" {label} {confidence!r}\n")
    assert got_label == label
    clamped = 0.0 if confidence < 0.0 else 1.0 if confidence > 1.0 else confidence
    assert got == clamped


# A word: no character that str.split treats as whitespace.
_word = st.text(st.characters(exclude_categories=("Cs", "Cc", "Zs", "Zl", "Zp")),
                min_size=1)


@settings(max_examples=200, deadline=None)
@given(label=st.sampled_from(_LABELS),
       word=_word.filter(lambda w: not _is_number(w))
       | st.sampled_from(["nan", "NaN", "-nan", "+NAN", "nAn"]))
def test_verdict_reader_reads_a_missing_or_non_numeric_confidence_as_half(label, word):
    assert read_verdict(label) == (label, 0.5)
    assert read_verdict(f"{label} {word}") == (label, 0.5)


@settings(max_examples=200, deadline=None)
@given(reply=st.one_of(st.text(), st.sampled_from(
    ["", " \n", "Hallucinatory 0.9", "non-hallucinatory", "0.9 hallucinatory"])))
def test_verdict_reader_rejects_any_other_first_word(reply):
    words = reply.split()
    assume(not words or words[0] not in _LABELS)
    with pytest.raises(GatewayError):
        read_verdict(reply)


def test_refusal_names_no_agent_and_no_table(registry):
    assert read_candidate(REFUSAL, [ft.value for ft in FilingType]) is None
    for agent in FilingType:
        assert read_candidate(REFUSAL, registry.table_ids_for(agent)) is None


def test_rewrite_strips_filler_words():
    det = DeterministicProvider()
    vague = 'Can you please get the regulatory AUM for advisor "Test Advisors LLC" for period 2023-03-31.'
    reply = det.complete(build_rewrite_request(vague)).content.strip()
    lowered = reply.lower()
    assert "please" not in lowered and "can you" not in lowered
    assert "regulatory aum" in lowered
    assert '"Test Advisors LLC"' in reply
    assert _verdict(det, reply)[0] == "non_hallucinatory"


def test_decompose_splits_multi_table_questions():
    det = DeterministicProvider()
    query = ('Get the country-level AUM for manager "Test Advisors LLC" '
             'for period 2023-03-31.')
    lines = det.complete(build_decompose_request(query)).content.strip().splitlines()
    assert lines[0].strip() == query
    assert len(lines) == 2


def test_decompose_single_table_question_is_itself():
    det = DeterministicProvider()
    lines = det.complete(build_decompose_request(E2)).content.strip().splitlines()
    assert lines == [E2]


def test_route_agent_answers_from_candidates():
    det = DeterministicProvider()
    candidates = ["13F", "NCSR", "NCEN", "NPORT", "NMFP", "ADV"]
    reply = det.complete(build_route_agent_request(E2, candidates)).content
    assert "ADV" in reply


def test_route_refusal_on_unroutable_text():
    det = DeterministicProvider()
    reply = det.complete(build_route_agent_request(
        "What is the meaning of life?", ["13F", "ADV"])).content
    assert "none of these" in reply.lower()


def test_plan_reply_is_valid_plan_json(registry):
    det = DeterministicProvider()
    reply = det.complete(build_plan_request([E2])).content
    plan = plan_from_json(reply)
    validate_plan(plan, registry)


def test_plan_reply_refuses_unknown_question():
    det = DeterministicProvider()
    reply = det.complete(build_plan_request(["Write me a poem."])).content
    assert "CANNOT PLAN" in reply


@pytest.mark.parametrize("template_id", [t for t in ALL_IDS if t != "H3"])
def test_plan_reply_is_the_canonical_plan(template_id, bench, small_view):
    det = DeterministicProvider()
    instances = [inst for inst in bench if inst.template_id == template_id]
    assert instances
    for inst in instances:
        reply = det.complete(build_plan_request([inst.text])).content
        assert plan_from_json(reply).steps == canonical_plan(inst, small_view).steps


def test_plan_reply_guesses_the_annual_report_label(bench, small_view, registry):
    det = DeterministicProvider()
    instances = [inst for inst in bench if inst.template_id == "H3"]
    assert instances
    for inst in instances:
        plan = plan_from_json(det.complete(build_plan_request([inst.text])).content)
        validate_plan(plan, registry)
        assert Filter("label", "contains", "total assets") in plan.steps[0].filters
        assert plan.steps != canonical_plan(inst, small_view).steps


def test_plan_reply_reads_the_e5_manager_as_the_advisor():
    text = ('Get the country-level AUM for manager "Summit Advisors" '
            'for period 2024-06-30.')
    plan = plan_from_json(DeterministicProvider().complete(
        build_plan_request([text])).content)
    assert Filter("advisor_name", "eq", "Summit Advisors") in plan.steps[0].filters


def test_plan_reply_refuses_a_question_without_its_slot():
    text = "Get the aggregate cash equity positions for period 2023-03-31."
    reply = DeterministicProvider().complete(build_plan_request([text])).content
    assert reply == "CANNOT PLAN"


@pytest.mark.parametrize("first", ["filingswarm.questbench",
                                   "filingswarm.gateway.deterministic"])
def test_questbench_and_the_provider_import_in_either_order(first):
    package_root = str(Path(filingswarm.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    code = (f"import {first}; import filingswarm.questbench, "
            "filingswarm.gateway.deterministic")
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_replan_echoes_a_plan(registry):
    det = DeterministicProvider()
    draft = det.complete(build_plan_request([E2])).content
    reply = det.complete(build_replan_request(E2, draft, ["ADV/adv_entity step r1: 2 records match"])).content
    plan = plan_from_json(reply)
    validate_plan(plan, registry)


def test_variegate_variants_differ_and_keep_slots():
    det = DeterministicProvider()
    mild = det.complete(build_variegate_request(E2, 1)).content.strip()
    strong = det.complete(build_variegate_request(E2, 2)).content.strip()
    assert mild != E2
    assert strong != E2
    assert mild != strong
    assert '"Test Advisors LLC"' in mild
    assert '"Test Advisors LLC"' in strong


def test_deterministic_provider_is_pure():
    det = DeterministicProvider()
    request = build_variegate_request(E2, 1)
    assert det.complete(request).content == det.complete(request).content


def test_response_metadata_present():
    det = DeterministicProvider()
    response = det.complete(build_classify_request(E2))
    assert response.provider_id
    assert response.latency >= 0.0
    assert response.from_cache is False


# --- wire format ---------------------------------------------------------------
# Scripted fixtures are keyed by request digest, so any change to these bytes
# breaks replay of every recorded transcript.

HELPER = 'Resolve the fund identifier for fund "Alpha Fund" for period 2023-03-31.'
COVERED = [("ADV", "adv_entity")]
HISTORY = ["member 0 round 0: ADV/adv_brokers"]
Q = f"QUERY: {E2}"

WIRE = {
    "classify": (Q, "classify", 512,
                 "2ab9e4a22aa89e9040d0adb798d86c01a9bdcadf9edc356e73fbb262fe1e7831"),
    "rewrite": (Q, "rewrite", 512,
                "770080e2e43490e3885ac6ab72b76c2927fdd8b011f1c34cd41f6bc2eaada738"),
    "decompose": (Q, "decompose", 512,
                  "c6d381ff2479a52854682216e09d93778ff8a066a51d89d5d6bde9d8023d2879"),
    "route_agent": (
        f"PERSONA: contrarian checker\n{Q}\nCANDIDATES: 13F | NCSR | ADV\n"
        "ALREADY: agent=ADV table=adv_entity\nHISTORY:\n- member 0 round 0: ADV/adv_brokers",
        "route_agent", 512,
        "ee07dbf49ec6e67789f934578b2352a6f403af22b963c7b548967a7c55f9c725"),
    "route_table": (
        f"PERSONA: contrarian checker\n{Q}\nAGENT: ADV\nCANDIDATES: adv_entity | adv_brokers\n"
        "ALREADY: agent=ADV table=adv_entity\nHISTORY:\n- member 0 round 0: ADV/adv_brokers",
        "route_table", 512,
        "cbc7803f0124bfeffe3ba98ddaf15a2333ce1f56a77062d7832a6c9e4558c69a"),
    "plan": (f"{Q}\nQUERY: {HELPER}", "plan", 2048,
             "56a27196f2c92c763dd1d175899addbd4b0b3ab1035dd403eebc046d4736aa5b"),
    "replan": (f'{Q}\nDRAFT_PLAN: {{"steps": []}}\nFINDINGS:\n'
               "- ADV/adv_entity step r1: 2 records match", "replan", 2048,
               "0b938f3d7b7b77dbe6e95364aac58cd39df7f5abab01e80249104803bb8f30d9"),
    "variegate": (f"{Q}\nVARIANT: 2", "variegate", 512,
                  "e55f66bad2726bfeff58fa458e7c580b6f46af67ad5ab7f5226f622d152f16d9"),
    "route_retry": (
        "That reply is not one of the candidates. "
        "Reply with exactly one candidate name and nothing else.", "route_agent", 512,
        "c6566afdb788e3ed8df0c003c049e6d4c17137cd476df8c4cfaefca2dd39a7e7"),
    "plan_retry": (
        "That plan was rejected (planner declined). "
        "Reply with only a valid JSON step array.", "plan", 2048,
        "885e0b3234debbe1d0d2dc73cd2423e33218ed8d1be08a8013f9e5fb77744ec2"),
}


class _Capture:
    """Replies from a script and keeps every request it was sent."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.requests = []

    def complete(self, request):
        self.requests.append(request)
        return ChatResponse(self.replies.pop(0), "capture")


def _wire_request(name, registry):
    builders = {
        "classify": lambda: build_classify_request(E2),
        "rewrite": lambda: build_rewrite_request(E2),
        "decompose": lambda: build_decompose_request(E2),
        "route_agent": lambda: build_route_agent_request(
            E2, ["13F", "NCSR", "ADV"], COVERED, persona="contrarian checker",
            history=HISTORY),
        "route_table": lambda: build_route_table_request(
            E2, "ADV", ["adv_entity", "adv_brokers"], COVERED,
            persona="contrarian checker", history=HISTORY),
        "plan": lambda: build_plan_request([E2, HELPER]),
        "replan": lambda: build_replan_request(
            E2, '{"steps": []}', ["ADV/adv_entity step r1: 2 records match"]),
        "variegate": lambda: build_variegate_request(E2, 2),
    }
    if name in builders:
        return builders[name]()
    if name == "route_retry":
        capture = _Capture(["hmm, tricky one", "ADV", "adv_entity"])
        route_generative(E2, capture, registry)
    else:
        capture = _Capture(["CANNOT PLAN", json.dumps({"steps": [
            {"id": "r1", "kind": "retrieve", "agent": "ADV", "table": "adv_entity",
             "filters": []},
            {"id": "ret", "kind": "return", "input": "r1"}]})])
        draft_plan(SubQuerySet(Query(E2, "user", (E2,)), (SubQuery(0, E2),)),
                   capture, registry)
    return capture.requests[1]


@pytest.mark.parametrize("name", sorted(WIRE))
def test_wire_format_is_pinned(name, registry):
    request = _wire_request(name, registry)
    assert (request.last_user_content(), request.tag, request.max_tokens,
            request_digest(request)) == WIRE[name]


# Text on one line: none of the boundaries str.splitlines breaks at.
_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_line = st.text(st.characters(exclude_characters=_LINE_BREAKS,
                              exclude_categories=("Cs",)), max_size=40)
_candidate = st.text(st.characters(exclude_characters=_LINE_BREAKS + "|",
                                   exclude_categories=("Cs",)),
                     min_size=1, max_size=20).map(str.strip).filter(bool)


def _parsed(request):
    return parse_prompt(request.last_user_content())


@settings(max_examples=200, deadline=None)
@given(query=_line)
def test_single_query_requests_round_trip(query):
    expected = Prompt([query], [], 0, "", 1, "")
    for build in (build_classify_request, build_rewrite_request, build_decompose_request):
        assert _parsed(build(query)) == expected


@settings(max_examples=200, deadline=None)
@given(query=_line, agent=_line, candidates=st.lists(_candidate, min_size=1, max_size=6),
       covered=st.lists(st.tuples(_line, _line), max_size=4),
       persona=st.one_of(st.none(), _line), history=st.lists(_line, max_size=4))
def test_route_requests_round_trip(query, agent, candidates, covered, persona, history):
    expected = Prompt([query], candidates, len(covered), persona or "", 1, "")
    assert _parsed(build_route_agent_request(
        query, candidates, covered, persona=persona, history=history)) == expected
    assert _parsed(build_route_table_request(
        query, agent, candidates, covered, persona=persona, history=history)) == expected


@settings(max_examples=200, deadline=None)
@given(queries=st.lists(_line, max_size=4), query=_line, plan_json=_line,
       findings=st.lists(_line, max_size=5), variant=st.integers())
def test_plan_replan_and_variegate_requests_round_trip(queries, query, plan_json,
                                                      findings, variant):
    assert _parsed(build_plan_request(queries)) == Prompt(queries, [], 0, "", 1, "")
    assert _parsed(build_replan_request(query, plan_json, findings)) == Prompt(
        [query], [], 0, "", 1, plan_json)
    assert _parsed(build_variegate_request(query, variant)) == Prompt(
        [query], [], 0, "", variant, "")


# --- the rule memo -------------------------------------------------------------
# The deterministic provider reads each query text once into a small memo
# shared by every instance and thread. These tests pin that it changes no
# reply and that one routed question is read once.

AGENTS = ["13F", "NCSR", "NCEN", "NPORT", "NMFP", "ADV"]
E5 = 'Get the country-level AUM for manager "Test Advisors LLC" for period 2023-03-31.'


def _memo_requests(text):
    """One request of each tag whose rule reads the memo."""
    return [
        build_classify_request(text),
        build_decompose_request(text),
        build_route_agent_request(text, AGENTS),
        build_route_agent_request(text, AGENTS, COVERED, persona="contrarian checker"),
        build_route_table_request(text, "ADV", ["adv_entity", "adv_brokers", "adv_disclosures"]),
        build_route_table_request(text, "NPORT", ["nport_fund_info", "nport_holdings"],
                                  COVERED, persona="contrarian checker"),
        build_plan_request([text]),
    ]


def test_memoized_replies_equal_cold_replies(bench_mixed):
    texts = sorted({inst.text for inst in bench_mixed}) + [
        "What is the meaning of life?", "regulatory AUM", ""]
    maxsize = _read.cache_info().maxsize
    assert len(texts) > maxsize  # so the warm sweeps evict
    det = DeterministicProvider()
    requests = [r for text in texts for r in _memo_requests(text)]
    cold = []
    for request in requests:
        _read.cache_clear()
        cold.append(det.complete(request).content)
    _read.cache_clear()
    for _ in range(2):  # the second sweep re-reads texts the first evicted
        assert [det.complete(r).content for r in requests] == cold
    info = _read.cache_info()
    assert info.misses == 2 * len(texts)
    assert info.hits == 2 * (len(requests) - len(texts))
    assert info.currsize == maxsize


def test_threads_sharing_one_provider_get_single_threaded_routes(bench_mixed, registry):
    instances = list({inst.text: inst for inst in bench_mixed}.values())
    shared = instances[:8]
    det = DeterministicProvider()
    config = SwarmConfig(n_agents=3, max_timesteps=2)

    def route(inst):
        n = len(inst.gold_routes)
        return (route_generative(inst.text, det, registry, n_routes=n),
                route_swarm(inst.text, det, registry, config, n_routes=n))

    _read.cache_clear()
    expected = {inst.text: route(inst) for inst in instances}
    n_threads = 8
    barrier = threading.Barrier(n_threads)
    results = [None] * n_threads

    def worker(slot):
        # every thread routes the shared questions twice, and its own once
        work = shared + instances[len(shared) + slot::n_threads] + shared
        random.Random(slot).shuffle(work)
        barrier.wait(timeout=10)
        results[slot] = [(inst.text, route(inst)) for inst in work]

    _read.cache_clear()
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    for got in results:
        assert got is not None
        assert len(got) > 2 * len(shared)
        for text, outcome in got:
            assert outcome == expected[text]


def test_one_swarm_call_reads_its_question_once(registry):
    recording = RecordingProvider(DeterministicProvider())
    _read.cache_clear()
    outcome = route_swarm(E5, recording, registry, SwarmConfig(), n_routes=2)
    assert len(outcome.predicted) == 2
    info = _read.cache_info()
    assert info.misses == 1
    assert info.hits == len(recording.log) - 1
    assert len(recording.log) >= 20
