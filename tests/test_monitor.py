import dataclasses
import json
import random

import pytest

from demoplan import planner
from demoplan.errors import InvalidEffect, ParseError, SearchLimitExceeded, ValidationError
from demoplan.model import (
    GroundAtom,
    Literal,
    PredicateSignature,
    State,
    TypeTable,
    Vocabulary,
)
from demoplan.monitor import (
    DROP_EFFECTS,
    PERTURB,
    Fault,
    MonitorConfig,
    WorldSim,
    execute,
    faults_from_list,
    format_transcript,
    load_faults,
    log_to_dict,
)
from demoplan.planner import GroundedAction, Plan, derive_costs, ground, plan
from demoplan.synth import (
    TABLE,
    YELLOW,
    corpus_goals,
    initial_state,
    planning_objects,
    stacking_vocabulary,
)

from helpers import random_planning_instance

SIG = PredicateSignature("lit", ("Lamp",))
VOCAB = Vocabulary((SIG,))
LAMPS = TypeTable({"l1": "Lamp", "l2": "Lamp"})
ON1 = GroundAtom(SIG, ("l1",))
ON2 = GroundAtom(SIG, ("l2",))
SPARE = GroundAtom(SIG, ("l3",))  # no action mentions it


def _switch(lamp, atom):
    return GroundedAction(
        "switch", (lamp,), frozenset([Literal(atom, False)]), frozenset([atom]), frozenset()
    )


SWITCH1 = _switch("l1", ON1)
SWITCH2 = _switch("l2", ON2)
BOTH_GOAL = [Literal(ON1), Literal(ON2)]
ACTIONS = [SWITCH1, SWITCH2]


class TestFaults:
    def test_mode_and_step_are_validated(self):
        Fault(0, DROP_EFFECTS)
        with pytest.raises(ValidationError):
            Fault(-1, DROP_EFFECTS)
        with pytest.raises(ValidationError):
            Fault(0, "gremlin")

    def test_drop_faults_carry_no_effects(self):
        with pytest.raises(ValidationError):
            Fault(0, DROP_EFFECTS, adds=frozenset([ON1]))

    def test_perturb_effects_must_not_overlap(self):
        Fault(0, PERTURB, adds=frozenset([ON1]), dels=frozenset([ON2]))
        with pytest.raises(ValidationError):
            Fault(0, PERTURB, adds=frozenset([ON1]), dels=frozenset([ON1]))

    def test_list_codec(self):
        raw = [
            {"step": 1, "mode": "drop_effects"},
            {"step": 3, "mode": "perturb", "adds": [["lit", "l1"]], "dels": []},
        ]
        faults = faults_from_list(raw, VOCAB, LAMPS)
        assert [f.step for f in faults] == [1, 3]
        assert faults[1].adds == frozenset([ON1])
        # a top-level object with a "faults" key is accepted too
        assert faults_from_list({"faults": raw}, VOCAB, LAMPS) == faults

    def test_one_fault_per_step(self):
        raw = [{"step": 1, "mode": "drop_effects"}, {"step": 1, "mode": "drop_effects"}]
        with pytest.raises(ValidationError):
            faults_from_list(raw, VOCAB, LAMPS)

    def test_malformed_records(self):
        with pytest.raises(ParseError):
            faults_from_list("nope", VOCAB, LAMPS)
        with pytest.raises(ParseError):
            faults_from_list([{"mode": "perturb"}], VOCAB, LAMPS)
        for step in ("1", 1.0, True):
            record = {"step": 0, "mode": "drop_effects"}
            with pytest.raises(ParseError, match="record 1"):
                faults_from_list([record, {"step": step, "mode": "drop_effects"}], VOCAB, LAMPS)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "faults.json"
        path.write_text(json.dumps([{"step": 0, "mode": "drop_effects"}]))
        assert load_faults(path, VOCAB, LAMPS) == [Fault(0, DROP_EFFECTS)]


class TestWorldSim:
    def test_nominal_step_applies_the_action(self):
        sim = WorldSim(State())
        out = sim.step(SWITCH1, 0)
        assert out.true_atoms == frozenset([ON1])
        assert sim.current is out

    def test_drop_fault_freezes_the_world(self):
        sim = WorldSim(State(), [Fault(0, DROP_EFFECTS)])
        assert sim.step(SWITCH1, 0).true_atoms == frozenset()
        # the fault applies to its step only
        assert sim.step(SWITCH1, 1).true_atoms == frozenset([ON1])

    def test_perturb_fault_replaces_the_effects(self):
        sim = WorldSim(State(), [Fault(0, PERTURB, adds=frozenset([ON2]))])
        assert sim.step(SWITCH1, 0).true_atoms == frozenset([ON2])


class TestExecute:
    def test_nominal_run_succeeds_without_replanning(self):
        sim = WorldSim(State())
        log = execute(Plan((SWITCH1, SWITCH2), 2), sim, BOTH_GOAL, ACTIONS)
        assert log.succeeded and log.outcome == "success"
        assert len(log.steps) == 2
        assert log.replans == ()
        assert all(s.discrepancy == () for s in log.steps)
        assert log.final_state.true_atoms == frozenset([ON1, ON2])

    def test_a_bad_hand_built_action_list_raises(self):
        bad = GroundedAction("switch", ("l1",), frozenset(), frozenset([ON1]), frozenset([ON1]))
        with pytest.raises(InvalidEffect, match="action 'switch' adds and deletes the same atom"):
            execute(Plan((), 0), WorldSim(State()), [Literal(ON1)], [bad, SWITCH2])

    def test_goal_already_met_needs_nothing(self):
        sim = WorldSim(State.of([ON1, ON2]))
        log = execute(Plan((), 0), sim, BOTH_GOAL, ACTIONS)
        assert log.succeeded and log.steps == () and log.replans == ()

    def test_empty_plan_with_unmet_goal_replans(self):
        sim = WorldSim(State())
        log = execute(Plan((), 0), sim, [Literal(ON1)], ACTIONS)
        assert log.succeeded
        assert len(log.replans) == 1
        assert log.replans[0].reason == "plan exhausted without reaching the goal"

    def test_dropped_effects_cause_one_replan(self):
        sim = WorldSim(State(), [Fault(0, DROP_EFFECTS)])
        log = execute(Plan((SWITCH1,), 1), sim, [Literal(ON1)], ACTIONS)
        assert log.succeeded
        assert len(log.replans) == 1
        assert len(log.steps) == 2
        assert log.steps[0].discrepancy == (ON1,)
        assert log.steps[1].discrepancy == ()

    def test_helpful_perturbation_still_replans_before_finishing(self):
        # the fault happens to reach the goal; the monitor notices the
        # surprise, replans, and the fresh plan is empty
        sim = WorldSim(State(), [Fault(0, PERTURB, adds=frozenset([ON1, ON2]))])
        log = execute(Plan((SWITCH1, SWITCH2), 2), sim, BOTH_GOAL, ACTIONS)
        assert log.succeeded
        assert len(log.replans) == 1
        assert len(log.steps) == 1
        assert log.replans[0].plan.actions == ()

    def test_zero_budget_fails_on_the_first_surprise(self):
        sim = WorldSim(State(), [Fault(0, DROP_EFFECTS)])
        log = execute(
            Plan((SWITCH1,), 1), sim, [Literal(ON1)], ACTIONS, MonitorConfig(max_replans=0)
        )
        assert not log.succeeded
        assert log.outcome == "failure"
        assert log.reason == "replan budget exhausted"

    def test_unreachable_goal_after_perturbation_fails(self):
        # nothing ever deletes, so a spurious atom makes the goal impossible
        sim = WorldSim(State(), [Fault(0, PERTURB, adds=frozenset([ON1, ON2]))])
        log = execute(Plan((SWITCH1,), 1), sim, [Literal(ON1), Literal(ON2, False)], ACTIONS)
        assert not log.succeeded
        assert log.reason == "no plan reaches the goal from the sensed state"

    def test_foreign_plan_with_failing_precondition_replans(self):
        sim = WorldSim(State.of([ON1]))
        log = execute(Plan((SWITCH1, SWITCH2), 2), sim, BOTH_GOAL, ACTIONS)
        assert log.succeeded
        assert len(log.replans) == 1
        assert "precondition" in log.replans[0].reason

    def test_budget_counts_replans_not_steps(self):
        faults = [Fault(0, DROP_EFFECTS), Fault(1, DROP_EFFECTS)]
        sim = WorldSim(State(), faults)
        log = execute(
            Plan((SWITCH1,), 1), sim, [Literal(ON1)], ACTIONS, MonitorConfig(max_replans=2)
        )
        assert log.succeeded
        assert len(log.replans) == 2
        capped = WorldSim(State(), faults)
        log = execute(
            Plan((SWITCH1,), 1), capped, [Literal(ON1)], ACTIONS, MonitorConfig(max_replans=1)
        )
        assert not log.succeeded and log.reason == "replan budget exhausted"

    def test_runs_are_deterministic(self):
        def run():
            sim = WorldSim(State(), [Fault(0, DROP_EFFECTS)])
            return execute(Plan((SWITCH1,), 1), sim, [Literal(ON1)], ACTIONS)

        assert format_transcript(run()) == format_transcript(run())
        assert log_to_dict(run()) == log_to_dict(run())


class TestReporting:
    def _faulty_log(self):
        sim = WorldSim(State(), [Fault(0, DROP_EFFECTS)])
        return execute(Plan((SWITCH1,), 1), sim, [Literal(ON1)], ACTIONS)

    def test_transcript_format(self):
        log = self._faulty_log()
        assert format_transcript(log).splitlines() == [
            "step 0: switch(l1) ... diverged on ['lit(l1)']",
            "replan at step 1: state after switch(l1) diverged on [lit(l1)] -> 1 actions, cost 1",
            "step 1: switch(l1) ... ok",
            "outcome: success",
        ]

    def test_a_replan_after_the_last_step_ends_the_transcript(self):
        sim = WorldSim(State(), [Fault(0, PERTURB, frozenset([ON1, SPARE]))])
        log = execute(Plan((SWITCH1,), 1), sim, [Literal(ON1)], ACTIONS)
        assert format_transcript(log).splitlines() == [
            "step 0: switch(l1) ... diverged on ['lit(l3)']",
            "replan at step 1: state after switch(l1) diverged on [lit(l3)] -> 0 actions, cost 0",
            "outcome: success",
        ]

    def test_failure_transcript_names_the_reason(self):
        sim = WorldSim(State(), [Fault(0, DROP_EFFECTS)])
        log = execute(
            Plan((SWITCH1,), 1), sim, [Literal(ON1)], ACTIONS, MonitorConfig(max_replans=0)
        )
        assert format_transcript(log).splitlines()[-1] == (
            "outcome: failure (replan budget exhausted)"
        )

    def test_log_dict_is_json_serializable(self):
        log = self._faulty_log()
        payload = log_to_dict(log)
        assert json.loads(json.dumps(payload)) == payload
        assert payload["outcome"] == "success"
        assert len(payload["steps"]) == 2
        assert len(payload["replans"]) == 1

    def test_config_rejects_negative_budget(self):
        with pytest.raises(ValidationError):
            MonitorConfig(max_replans=-1)
        with pytest.raises(ValidationError):
            MonitorConfig(node_limit=-1)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("heuristic", "bogus", "unknown heuristic 'bogus'"),
            ("max_replans", 2.5, "max_replans must be a non-negative integer, got 2.5"),
            ("max_replans", True, "max_replans must be a non-negative integer, got True"),
            ("node_limit", 1.0, "node limit must be a non-negative integer, got 1.0"),
        ],
    )
    def test_config_checks_every_field_when_built(self, field, value, message):
        # a bad field used to surface only at the first replan, after the
        # world had already been stepped
        with pytest.raises(ValidationError) as err:
            MonitorConfig(**{field: value})
        assert str(err.value) == message


class TestAgainstTheCorpus:
    def test_faulty_grasp_recovers(self, corpus_actions):
        goal = list(corpus_goals()["red_on_green"])
        first = plan(corpus_actions, initial_state(), goal)
        sim = WorldSim(initial_state(), [Fault(1, DROP_EFFECTS)])
        log = execute(first, sim, goal, corpus_actions)
        assert log.succeeded
        assert len(log.replans) == 1
        # the replan re-runs the grasp, so execution is one step longer
        assert len(log.steps) == len(first.actions) + 1

    @pytest.mark.parametrize("heuristic", ["none", "hmax"])
    def test_replans_equal_fresh_plans(self, corpus_actions, heuristic):
        """execute compiles its actions once and searches that task on every
        replan; no search may leave state behind for the next one."""
        v = stacking_vocabulary()
        yellow_on_table = {v.atom("onTop", YELLOW, TABLE), v.atom("inTouch", YELLOW, TABLE)}
        assert yellow_on_table <= initial_state().true_atoms
        knock_yellow = Fault(2, PERTURB, dels=frozenset(yellow_on_table))
        config = MonitorConfig(heuristic=heuristic)
        for name, goal in sorted(corpus_goals().items()):
            first = plan(corpus_actions, initial_state(), goal, heuristic=heuristic)
            faults = [Fault(0, DROP_EFFECTS), knock_yellow, Fault(5, DROP_EFFECTS)]
            log = execute(first, WorldSim(initial_state(), faults), goal, corpus_actions, config)
            assert log.succeeded, name
            assert len(log.replans) == 3, name
            for event in log.replans:
                sensed = log.steps[event.step - 1].sensed
                fresh = plan(corpus_actions, sensed, goal, heuristic=heuristic)
                assert event.plan == fresh, (name, event.step)


def _random_perturbs(rng, atoms, count=3):
    """``count`` random (adds, dels) effects over ``atoms``."""
    perturbs = []
    for _ in range(count):
        adds = frozenset(rng.sample(atoms, min(len(atoms), rng.randint(0, 2))))
        dels = frozenset(rng.sample(atoms, min(len(atoms), rng.randint(0, 2)))) - adds
        perturbs.append((adds, dels))
    return perturbs


def _random_faults(rng, first, perturbs):
    """One to three faults on distinct steps of a run of ``first``: drop the
    step's effects, do two steps of ``first`` at once, or apply one of the
    (adds, dels) ``perturbs`` instead."""
    faults = []
    steps = len(first.actions) + 1
    for step in sorted(rng.sample(range(steps), min(steps, rng.randint(1, 3)))):
        kind = rng.randrange(3)
        if kind == 0:
            faults.append(Fault(step, DROP_EFFECTS))
            continue
        if kind == 1 and step + 1 < len(first.actions):
            a, b = first.actions[step : step + 2]
            adds, dels = (a.adds - b.dels) | b.adds, (a.dels - b.adds) | b.dels
        else:
            adds, dels = rng.choice(perturbs)
        faults.append(Fault(step, PERTURB, adds, dels))
    return faults


def _check_replans_equal_fresh_plans(tasks, heuristic, rng, task_calls):
    """Execute a plan for each (actions, init, goal, perturbs) task under
    seeded faults, and check every replan against a fresh ``plan()`` from its
    sensed state. Returns (replans, searches made by ``execute``)."""
    config = MonitorConfig(heuristic=heuristic)
    replans = searches = 0
    for actions, init, goal, perturbs in tasks:
        first = plan(actions, init, goal, heuristic=heuristic)
        if first is None:
            continue
        faults = _random_faults(rng, first, perturbs)
        before = task_calls["search"]
        log = execute(first, WorldSim(init, faults), goal, actions, config)
        searches += task_calls["search"] - before
        for event in log.replans:
            sensed = log.steps[event.step - 1].sensed if event.step else init
            assert event.plan == plan(actions, sensed, goal, heuristic=heuristic)
        if log.reason == "no plan reaches the goal from the sensed state":
            assert plan(actions, log.final_state, goal, heuristic=heuristic) is None
        replans += len(log.replans)
    return replans, searches


class TestKeepingTheRestOfAPlan:
    """A replan from a state on the last searched plan's predicted path keeps
    the rest of that plan; every other replan searches."""

    @pytest.mark.parametrize("heuristic", ["none", "hmax"])
    def test_kept_rests_equal_fresh_plans(self, corpus_actions, task_calls, heuristic):
        rng = random.Random(11)
        # Random effects would leave the cubes in states that no demonstration
        # reaches, and a blind search of such a state can take minutes, so the
        # corpus perturb knocks yellow, which no goal names, off the table.
        v = stacking_vocabulary()
        yellow_on_table = {v.atom("onTop", YELLOW, TABLE), v.atom("inTouch", YELLOW, TABLE)}
        knock_yellow = (frozenset(), frozenset(yellow_on_table))
        tasks = [
            (corpus_actions, initial_state(), list(goal), [knock_yellow])
            for goal in corpus_goals().values()
            for _ in range(4)
        ]
        for _ in range(300):
            actions, init, goal = random_planning_instance(rng)
            atoms = sorted({l.atom for l in goal} | init.true_atoms, key=GroundAtom.sort_key)
            tasks.append((actions, init, goal, _random_perturbs(rng, atoms + [SPARE])))
        replans, searches = _check_replans_equal_fresh_plans(tasks, heuristic, rng, task_calls)
        assert replans > 100
        assert searches < replans // 2  # most replans kept the rest of a plan

    def test_a_dropped_effect_keeps_the_rest_of_the_plan(self, task_calls):
        first = plan(ACTIONS, State(), BOTH_GOAL)
        # an equal action list, not the same one, is compiled again but keeps the rest
        log = execute(first, WorldSim(State(), [Fault(0, DROP_EFFECTS)]), BOTH_GOAL, list(ACTIONS))
        assert log.succeeded and log.replans[0].plan == first
        assert task_calls == {"_compile": 2, "search": 1}

    def test_ground_plan_plan_execute_compiles_once(self, corpus_library, task_calls):
        """The task grounding compiled serves both plans and every replan."""
        actions = ground(corpus_library, planning_objects(), derive_costs(corpus_library))
        goal = corpus_goals()["tower_blue_red_green"]
        first = plan(actions, initial_state(), goal)
        assert plan(actions, initial_state(), goal, heuristic="hmax").total_cost == first.total_cost
        log = execute(first, WorldSim(initial_state(), [Fault(1, DROP_EFFECTS)]), goal, actions)
        assert log.succeeded and log.replans
        assert task_calls == {"_compile": 1, "search": 2}

    def test_a_grounded_task_builds_only_its_plans_steps(
        self, corpus_library, monkeypatch, task_calls
    ):
        """A plan's proof names its grounded task by what it was grounded
        from, so neither a kept rest nor a searched replan builds the task's
        other ground actions; and the steps build each distinct
        precondition's Literal once."""
        built, literals = [], []

        def counted(*fields, _build=planner.GroundedAction):
            built.append(fields[:2])
            return _build(*fields)

        def counted_literal(*fields, _build=planner.Literal):
            literals.append(_build(*fields))
            return literals[-1]

        monkeypatch.setattr(planner, "GroundedAction", counted)
        monkeypatch.setattr(planner, "Literal", counted_literal)
        actions = ground(corpus_library, planning_objects(), derive_costs(corpus_library))
        goal = corpus_goals()["tower_blue_red_green"]
        first = plan(actions, initial_state(), goal)
        v = stacking_vocabulary()
        knock_yellow = {v.atom("onTop", YELLOW, TABLE), v.atom("inTouch", YELLOW, TABLE)}
        faults = [Fault(0, DROP_EFFECTS), Fault(3, PERTURB, dels=frozenset(knock_yellow))]
        log = execute(first, WorldSim(initial_state(), faults), goal, actions)
        assert log.succeeded and len(log.replans) == 2
        assert task_calls["search"] == 2  # the first plan, and the replan off its path
        steps = {(a.name, a.objects) for p in (first, *(e.plan for e in log.replans))
                 for a in p.actions}
        assert sorted(built) == sorted(steps) and len(built) < len(actions) // 4
        preconditions = [l for p in (first, *(e.plan for e in log.replans))
                         for a in p.actions for l in a.pre]
        assert len(literals) == len(set(literals)) == len(set(preconditions))
        assert len(set(preconditions)) < len(preconditions)  # steps share preconditions

    @pytest.mark.parametrize(
        "case", ["built", "copied", "other goal", "other heuristic", "other actions"]
    )
    def test_a_plan_without_a_proof_for_this_replan_is_searched_past(self, task_calls, case):
        if case == "other goal":
            first = plan(ACTIONS, State(), BOTH_GOAL + [Literal(SPARE, False)])
        elif case == "other heuristic":
            first = plan(ACTIONS, State(), BOTH_GOAL, heuristic="hmax")
        elif case == "other actions":
            first = plan(ACTIONS + [_switch("l3", SPARE)], State(), BOTH_GOAL)
        else:
            first = plan(ACTIONS, State(), BOTH_GOAL)
            if case == "built":
                first = Plan(first.actions, first.total_cost)
            else:
                first = dataclasses.replace(first)
        assert first.actions == (SWITCH1, SWITCH2)
        before = task_calls["search"]
        log = execute(first, WorldSim(State(), [Fault(0, DROP_EFFECTS)]), BOTH_GOAL, ACTIONS)
        assert log.succeeded and log.replans[0].plan == first
        assert task_calls["search"] - before == 1

    def test_a_change_to_an_atom_no_action_mentions_is_searched_past(self, task_calls):
        # Over the atoms the task compiles, the sensed state {SPARE} matches
        # the plan's first state; as a whole state it is off the path.
        first = plan(ACTIONS, State(), BOTH_GOAL)
        sim = WorldSim(State(), [Fault(0, PERTURB, adds=frozenset([SPARE]))])
        log = execute(first, sim, BOTH_GOAL, ACTIONS)
        assert log.succeeded and log.replans[0].plan == first
        assert task_calls["search"] == 2

    def test_node_limit_bounds_only_the_replans_that_search(self):
        first = plan(ACTIONS, State(), BOTH_GOAL)
        config = MonitorConfig(node_limit=0)
        faults = [Fault(0, DROP_EFFECTS)]
        log = execute(first, WorldSim(State(), faults), BOTH_GOAL, ACTIONS, config)
        assert log.succeeded and len(log.replans) == 1  # the kept rest expanded nothing
        copy = dataclasses.replace(first)  # no proof, so its replan searches
        with pytest.raises(SearchLimitExceeded):
            execute(copy, WorldSim(State(), faults), BOTH_GOAL, ACTIONS, config)
