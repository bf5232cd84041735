"""Scripted planner, reflector, decision parsing, live-planner contract."""

from __future__ import annotations

import pytest

from pocketrag.app_index import AppMatch
from pocketrag.errors import PlannerFailureError
from pocketrag.planning import (
    EffectReflector,
    HttpChatPlanner,
    PlannerContext,
    PlannerDecision,
    ReflectionVerdict,
    ScriptedPlanner,
    parse_decision_response,
    render_context_blocks,
)
from pocketrag.simulator import Action, Device, Scenario

from conftest import ALARM_SCRIPT, mini_scenario_dict


def make_context(**overrides) -> PlannerContext:
    device = Device(Scenario.from_dict(mini_scenario_dict()))
    defaults = dict(
        instruction="Set an alarm for 8 am.",
        screen=device.observe(),
        history=(),
        step_budget_remaining=20,
    )
    defaults.update(overrides)
    return PlannerContext(**defaults)


def candidates() -> list[AppMatch]:
    return [
        AppMatch("com.aaa", "Aaa", "first app", 0.9),
        AppMatch("com.bbb", "Bbb", "second app", 0.8),
    ]


def test_scripted_planner_follows_script():
    planner = ScriptedPlanner(ALARM_SCRIPT)
    kinds = [planner.plan(make_context()).kind for _ in range(5)]
    assert kinds == ["select_app", "act", "act", "act", "finish"]


def test_scripted_planner_exhausted_script_finishes_failure():
    planner = ScriptedPlanner([])
    decision = planner.plan(make_context())
    assert decision.kind == "finish"
    assert not decision.success


def test_scripted_pick_prefers_scripted_package():
    planner = ScriptedPlanner(
        [{"do": "select_app", "query": "q", "pick": "com.bbb"}]
    )
    planner.plan(make_context())
    assert planner.pick_app("q", candidates()) == "com.bbb"


def test_scripted_pick_falls_back_to_rank_one():
    planner = ScriptedPlanner([{"do": "select_app", "query": "q"}])
    planner.plan(make_context())
    assert planner.pick_app("q", candidates()) == "com.aaa"


def test_effect_reflector_judges_change():
    device = Device(Scenario.from_dict(mini_scenario_dict()))
    before = device.observe()
    device.execute(Action.launch("com.clock"))
    after = device.observe()
    reflector = EffectReflector()
    ok = reflector.reflect(before, Action.launch("com.clock"), after, "open clock")
    assert ok.ok
    stuck = reflector.reflect(after, Action.tap("nothing"), after, "tap")
    assert not stuck.ok
    assert stuck.diagnosis


def test_verdict_requires_diagnosis_when_not_ok():
    with pytest.raises(ValueError):
        ReflectionVerdict(ok=False)


def test_parse_all_decision_kinds():
    need = parse_decision_response('{"decision": "need_knowledge", "entities": ["X"]}')
    assert need.kind == "need_knowledge" and need.entities == ("X",)
    select = parse_decision_response('{"decision": "select_app", "query": "maps"}')
    assert select.kind == "select_app" and select.app_query == "maps"
    act = parse_decision_response(
        'noise before {"decision": "act", "action": {"kind": "tap", "target": "x"}} after'
    )
    assert act.kind == "act" and act.action == Action.tap("x")
    finish = parse_decision_response('{"decision": "finish", "success": true}')
    assert finish.kind == "finish" and finish.success


def test_parse_rejects_malformed():
    with pytest.raises(ValueError):
        parse_decision_response("no json here")
    with pytest.raises(ValueError):
        parse_decision_response('{"decision": "act"}')
    with pytest.raises(ValueError):
        parse_decision_response('{"decision": "mystery"}')
    with pytest.raises(ValueError):
        parse_decision_response('{"decision": "need_knowledge", "entities": []}')


def test_context_blocks_render_in_fixed_order():
    context = make_context(
        memory_guidance="guidance body",
        knowledge="knowledge digest",
        app_candidates=tuple(candidates()),
        notices=("no app found",),
    )
    text = render_context_blocks(context)
    order = [
        text.index("## Instruction"),
        text.index("## Similar past task"),
        text.index("## Retrieved knowledge"),
        text.index("## App candidates"),
        text.index("## Screen"),
        text.index("## Notices"),
        text.index("## Remaining step budget"),
    ]
    assert order == sorted(order)


def test_http_planner_parses_first_try():
    def transport(payload):
        assert payload["model"] == "test-model"
        assert payload["messages"][0]["role"] == "system"
        return '{"decision": "finish", "success": true, "reason": "done"}'

    planner = HttpChatPlanner("https://llm.example", "test-model", transport=transport)
    decision = planner.plan(make_context())
    assert decision.kind == "finish"


def test_http_planner_retries_then_succeeds():
    responses = iter(["garbage", '{"decision": "select_app", "query": "maps"}'])

    def transport(payload):
        return next(responses)

    planner = HttpChatPlanner("https://llm.example", "m", transport=transport)
    decision = planner.plan(make_context())
    assert decision.kind == "select_app"


def test_http_planner_retries_an_action_without_a_kind():
    reply = '{"decision": "act", "action": {}}'
    with pytest.raises(ValueError, match="kind"):
        parse_decision_response(reply)
    responses = iter([reply, '{"decision": "select_app", "query": "maps"}'])
    prompts = []

    def transport(payload):
        prompts.append(payload["messages"][1]["content"])
        return next(responses)

    planner = HttpChatPlanner("https://llm.example", "m", transport=transport)
    assert planner.plan(make_context()).kind == "select_app"
    assert len(prompts) == 2 and "## Parse error" in prompts[1]


def test_http_planner_fails_after_retries():
    def transport(payload):
        return "never valid"

    planner = HttpChatPlanner("https://llm.example", "m", transport=transport)
    with pytest.raises(PlannerFailureError):
        planner.plan(make_context())


def test_http_planner_wraps_transport_errors():
    def transport(payload):
        raise ConnectionError("down")

    planner = HttpChatPlanner("https://llm.example", "m", transport=transport)
    with pytest.raises(PlannerFailureError):
        planner.plan(make_context())


def test_http_planner_pick_app():
    def transport(payload):
        return '{"pick": "com.bbb"}'

    planner = HttpChatPlanner("https://llm.example", "m", transport=transport)
    assert planner.pick_app("query", candidates()) == "com.bbb"


def test_http_planner_pick_rejects_unknown_package():
    def transport(payload):
        return '{"pick": "com.zzz"}'

    planner = HttpChatPlanner("https://llm.example", "m", transport=transport)
    with pytest.raises(PlannerFailureError):
        planner.pick_app("query", candidates())


def test_decision_helpers():
    assert PlannerDecision.need_knowledge(["a"]).entities == ("a",)
    assert PlannerDecision.select_app("q").app_query == "q"
    assert PlannerDecision.act(Action.back()).action.kind == "back"
    assert PlannerDecision.finish(True, "ok").reason == "ok"
