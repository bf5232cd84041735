"""Metric formulas against hand-computed tallies."""

from __future__ import annotations

import pytest

from pocketrag.agent import RunCounters, TaskRun
from pocketrag.errors import InvalidGroundTruthError, MisalignmentError
from pocketrag.metrics import (
    ActionPattern,
    GroundTruth,
    SubGoal,
    compute_metrics,
    lcs_matches,
    reflection_oracle,
    score_run,
)
from pocketrag.planning import ReflectionVerdict
from pocketrag.simulator import Action, ActionStep, ActionTrace


def step(action: Action, pre: str, post: str, effect: str, flags=()) -> ActionStep:
    return ActionStep(
        action=action,
        pre_screen_id=pre,
        post_screen_id=post,
        effect=effect,
        flag_changes=tuple(flags),
    )


def make_run(task_id, steps, selections=(), reflections=(), outcome="success",
             planner_calls=3, memory_hit="none") -> TaskRun:
    return TaskRun(
        task_id=task_id,
        outcome=outcome,
        trace=ActionTrace(steps=tuple(steps)),
        app_selections=tuple(selections),
        reflections=tuple(reflections),
        counters=RunCounters(
            planner_calls=planner_calls,
            mobile_steps=len(steps),
            searches=0,
            installs=0,
            memory_hit=memory_hit,
        ),
    )


def pattern(kind, target=None) -> ActionPattern:
    return ActionPattern(kind=kind, target=target)


def test_lcs_alignment_tolerates_extras():
    steps = [
        step(Action.launch("com.a"), "home", "a_home", "transitioned"),
        step(Action.swipe("up"), "a_home", "a_home", "no_op"),  # exploratory extra
        step(Action.tap("go"), "a_home", "a_next", "transitioned"),
        step(Action.stop(True), "a_next", "a_next", "no_op"),
    ]
    patterns = [pattern("launch", "com.a"), pattern("tap", "go"), pattern("stop")]
    assert lcs_matches(steps, patterns) == 3


def test_lcs_respects_order():
    steps = [
        step(Action.tap("b"), "s", "s", "no_op"),
        step(Action.tap("a"), "s", "s", "no_op"),
    ]
    patterns = [pattern("tap", "a"), pattern("tap", "b")]
    assert lcs_matches(steps, patterns) == 1


def test_pattern_wildcard_and_keys():
    tap_step = step(Action.tap("x"), "s", "s", "no_op")
    swipe_step = step(Action.swipe("up"), "s", "s", "no_op")
    launch_step = step(Action.launch("com.a"), "home", "a", "transitioned")
    assert pattern("tap", "*").matches(tap_step)
    assert pattern("swipe", "up").matches(swipe_step)
    assert not pattern("swipe", "down").matches(swipe_step)
    assert pattern("launch", "com.a").matches(launch_step)
    assert not pattern("tap", "y").matches(tap_step)


def test_subgoal_kinds():
    flag = SubGoal(name="f", kind="flag", flag="done", equals="yes")
    screen = SubGoal(name="s", kind="screen", screen="target_screen")
    run = make_run(
        "t",
        [
            step(Action.tap("x"), "home", "target_screen", "transitioned"),
            step(Action.type_text("y", "v"), "target_screen", "target_screen",
                 "flag_update", [("done", "yes")]),
            step(Action.stop(True), "target_screen", "target_screen", "no_op"),
        ],
    )
    assert flag.met_by(run)
    assert screen.met_by(run)
    assert not SubGoal(name="n", kind="flag", flag="done", equals="no").met_by(run)
    with pytest.raises(InvalidGroundTruthError):
        SubGoal(name="bad", kind="flag")
    with pytest.raises(InvalidGroundTruthError):
        SubGoal(name="bad", kind="orbit")


def test_ground_truth_requires_subgoals():
    with pytest.raises(InvalidGroundTruthError):
        GroundTruth(expected_apps=(), expected_actions=(), sub_goals=())


def test_reflection_oracle_and_misalignment():
    run = make_run("t", [step(Action.tap("x"), "s", "u", "transitioned")])
    assert reflection_oracle(run, 0)
    with pytest.raises(MisalignmentError):
        reflection_oracle(run, 5)


def test_as_counts_positional_matches():
    truth = GroundTruth(
        expected_apps=("com.a", "com.b"),
        expected_actions=(pattern("stop"),),
        sub_goals=(SubGoal(name="s", kind="screen", screen="home"),),
    )
    run = make_run(
        "t",
        [step(Action.stop(True), "home", "home", "no_op")],
        selections=[("q1", "com.a"), ("q2", "com.x")],
    )
    score = score_run(run, truth)
    assert score.selections_correct == 1
    assert score.selections_total == 2


def test_compute_metrics_eighty_percent_selection():
    truth = GroundTruth(
        expected_apps=("com.a",),
        expected_actions=(pattern("stop"),),
        sub_goals=(SubGoal(name="s", kind="screen", screen="home"),),
    )
    stop_step = step(Action.stop(True), "home", "home", "no_op")
    runs = []
    for i, chosen in enumerate(["com.a", "com.a", "com.a", "com.a", "com.x"]):
        runs.append(
            make_run(f"t", [stop_step], selections=[("q", chosen)])
        )
    report = compute_metrics(runs, {"t": truth})
    assert report.as_pct == pytest.approx(80.0)


def test_misaligned_runs_raise():
    run = make_run("unknown", [step(Action.stop(True), "h", "h", "no_op")])
    with pytest.raises(MisalignmentError):
        compute_metrics([run], {})


# --- the three-task hand tally ----------------------------------------------------


def hand_tally_fixture():
    """Three runs with known per-metric tallies, built by hand.

    Expected totals (worked out on paper):
      AS  = 1/2          = 50.0
      AF  = (3+1+2)/8    = 75.0
      RP  = 2/3          = 66.666...
      TCR = (2+0+1)/5    = 60.0
      TSR = 2/3          = 66.666...
    """
    truths = {
        "r1": GroundTruth(
            expected_apps=("com.a",),
            expected_actions=(
                pattern("launch", "com.a"), pattern("tap", "x"), pattern("stop"),
            ),
            sub_goals=(
                SubGoal(name="opened", kind="screen", screen="a_page"),
                SubGoal(name="set", kind="flag", flag="done", equals="yes"),
            ),
        ),
        "r2": GroundTruth(
            expected_apps=("com.c",),
            expected_actions=(
                pattern("launch", "com.c"), pattern("tap", "z"), pattern("stop"),
            ),
            sub_goals=(
                SubGoal(name="opened", kind="screen", screen="c_page"),
                SubGoal(name="set", kind="flag", flag="sent", equals="yes"),
            ),
        ),
        "r3": GroundTruth(
            expected_apps=(),
            expected_actions=(pattern("tap", "m"), pattern("stop")),
            sub_goals=(SubGoal(name="set", kind="flag", flag="noted", equals="ok"),),
        ),
    }
    run1 = make_run(
        "r1",
        [
            step(Action.launch("com.a"), "home", "a_home", "transitioned"),
            step(Action.tap("x"), "a_home", "a_page", "transitioned",
                 [("done", "yes")]),
            step(Action.stop(True), "a_page", "a_page", "no_op"),
        ],
        selections=[("q", "com.a")],
        reflections=[(1, ReflectionVerdict(ok=True))],
        outcome="success",
    )
    run2 = make_run(
        "r2",
        [
            step(Action.launch("com.b"), "home", "b_home", "transitioned"),
            step(Action.tap("y"), "b_home", "b_home", "no_op"),
            step(Action.stop(False), "b_home", "b_home", "no_op"),
        ],
        selections=[("q", "com.b")],
        reflections=[(1, ReflectionVerdict(ok=True))],  # wrong: step was a no-op
        outcome="failure",
    )
    run3 = make_run(
        "r3",
        [
            step(Action.tap("m"), "home", "home", "flag_update", [("noted", "ok")]),
            step(Action.stop(True), "home", "home", "no_op"),
        ],
        reflections=[(0, ReflectionVerdict(ok=True))],
        outcome="success",
    )
    return [run1, run2, run3], truths


def test_hand_tally_three_tasks():
    runs, truths = hand_tally_fixture()
    report = compute_metrics(runs, truths)
    assert report.as_pct == pytest.approx(50.0, abs=0.1)
    assert report.af_pct == pytest.approx(75.0, abs=0.1)
    assert report.rp_pct == pytest.approx(200.0 / 3.0, abs=0.1)
    assert report.tcr_pct == pytest.approx(60.0, abs=0.1)
    assert report.tsr_pct == pytest.approx(200.0 / 3.0, abs=0.1)


def test_success_requires_all_subgoals():
    truth = GroundTruth(
        expected_apps=(),
        expected_actions=(pattern("stop"),),
        sub_goals=(
            SubGoal(name="a", kind="flag", flag="x", equals="1"),
            SubGoal(name="b", kind="flag", flag="y", equals="2"),
        ),
    )
    run = make_run(
        "t",
        [
            step(Action.tap("k"), "home", "home", "flag_update", [("x", "1")]),
            step(Action.stop(True), "home", "home", "no_op"),
        ],
        outcome="success",
    )
    score = score_run(run, truth)
    assert score.subgoals_met == 1
    assert not score.succeeded  # claimed success, but a sub-goal is unmet


def test_vacuous_denominators_read_as_perfect():
    truth = GroundTruth(
        expected_apps=(),
        expected_actions=(pattern("stop"),),
        sub_goals=(SubGoal(name="s", kind="screen", screen="home"),),
    )
    run = make_run("t", [step(Action.stop(True), "home", "home", "no_op")])
    report = compute_metrics([run], {"t": truth})
    assert report.as_pct == 100.0  # no selections anywhere
    assert report.rp_pct == 100.0  # no reflections recorded
