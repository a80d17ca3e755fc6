from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import filingswarm
from filingswarm.gateway.deterministic import DeterministicProvider
from filingswarm.gateway.prompts import (
    build_classify_request,
    build_decompose_request,
    build_plan_request,
    build_replan_request,
    build_rewrite_request,
    build_route_agent_request,
    build_variegate_request,
)
from filingswarm.gateway.providers import (
    RecordingProvider,
    RemoteProvider,
    ScriptedProvider,
    classify_quality,
    load_fixtures,
    save_fixtures,
)
from filingswarm.gateway.types import (
    ChatRequest,
    FixtureMissError,
    GatewayError,
    request_digest,
)
from filingswarm.plans import Filter, plan_from_json, validate_plan
from filingswarm.questbench import ALL_IDS, canonical_plan

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


def test_fixture_miss_is_a_gateway_error():
    assert issubclass(FixtureMissError, GatewayError)


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

    # a plain digest map can carry its own tag annotations
    only = tmp_path / "plain.jsonl"
    save_fixtures({"d1": "content"}, only, tags={"d1": "classify"})
    kept = [json.loads(line) for line in only.read_text().splitlines()]
    assert kept == [{"content": "content", "digest": "d1", "tag": "classify"}]


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


# --- deterministic provider rules -------------------------------------------

def test_classify_needs_verb_and_domain_phrase():
    det = DeterministicProvider()
    good = classify_quality(det, E2)
    assert good["label"] == "non_hallucinatory"
    assert 0.0 < good["confidence"] <= 1.0

    assert classify_quality(det, "Tell me about stuff.")["label"] == "hallucinatory"
    assert classify_quality(det, "regulatory AUM")["label"] == "hallucinatory"


def test_rewrite_strips_filler_words():
    det = DeterministicProvider()
    vague = 'Can you please get the regulatory AUM for advisor "Test Advisors LLC" for period 2023-03-31.'
    reply = det.complete(build_rewrite_request(vague)).content.strip()
    lowered = reply.lower()
    assert "please" not in lowered and "can you" not in lowered
    assert "regulatory aum" in lowered
    assert '"Test Advisors LLC"' in reply
    assert classify_quality(det, reply)["label"] == "non_hallucinatory"


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
