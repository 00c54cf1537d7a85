import dataclasses
import gc
import itertools
import random
import weakref
from collections import Counter

import pytest

from demoplan.errors import (
    InvalidEffect,
    SchemaError,
    SearchLimitExceeded,
    ValidationError,
)
from demoplan.learning import build_library, learn_from_trace
from demoplan.model import (
    ActionSchema,
    GroundAtom,
    Literal,
    ObjectInstance,
    PredicateSignature,
    State,
    TypeTable,
    Vocabulary,
)
from demoplan.pddl import (
    emit_domain,
    emit_problem,
    library_name_map,
    parse_domain,
    parse_problem,
)
from demoplan.planner import (
    CostModel,
    GroundedAction,
    Plan,
    Task,
    compiled,
    derive_costs,
    ground,
    ground_schemas,
    plan,
    task_from_docs,
    validate,
)
from demoplan.segmentation import DEFAULT_RULES
from demoplan.synth import (
    BLUE,
    GREEN,
    RED,
    corpus_goals,
    initial_state,
    planning_objects,
    stacking_vocabulary,
)

import oracles
from helpers import random_planning_instance
from oracles import (
    applicable_reference,
    astar_plan,
    count_groundings,
    dijkstra_plan,
    ground_reference,
    hmax_reference,
    replay,
)

SIG = PredicateSignature("flag", ("Slot",))


def _atom(i):
    return GroundAtom(SIG, (f"s{i}",))


def _action(name, pre, adds, dels=(), cost=1):
    return GroundedAction(
        name, (), frozenset(pre), frozenset(adds), frozenset(dels), cost
    )


def _rejected(bad, error, message):
    """Compiling [bad], alone or through plan(), raises ``error`` with ``message``."""
    for compile_ in (lambda: Task([bad]), lambda: plan([bad], State(), [Literal(_atom(0))])):
        with pytest.raises(error) as info:
            compile_()
        assert str(info.value) == message


class TestActionInvariants:
    """A GroundedAction is a plain record; Task checks each action it compiles."""

    def test_effects_must_not_overlap(self):
        bad = _action("bad", [], [_atom(0)], [_atom(0)])
        _rejected(bad, InvalidEffect, "action 'bad' adds and deletes the same atom")

    def test_preconditions_must_not_contradict(self):
        bad = _action("bad", [Literal(_atom(0)), Literal(_atom(0), False)], [_atom(1)])
        _rejected(bad, ValidationError, "action 'bad' has contradictory preconditions")

    def test_cost_is_a_positive_integer(self):
        for cost in (0, 1.5, True):
            bad = _action("bad", [], [_atom(0)], cost=cost)
            _rejected(bad, ValidationError, "action 'bad' needs a positive integer cost")

    def test_plan_total_must_match_its_actions(self):
        act = _action("a", [], [_atom(0)], cost=3)
        Plan((act,), 3)
        with pytest.raises(ValidationError):
            Plan((act,), 4)

    def test_cost_model_rejects_nonpositive_entries(self, corpus_library):
        costs = derive_costs(corpus_library).costs
        key = next(k for k, name in corpus_library.variant_names().items() if name == "place_2")
        for cost in (0, 1.5, True):
            with pytest.raises(ValidationError) as info:
                ground(corpus_library, planning_objects(), CostModel({**costs, key: cost}))
            message = f"cost of action 'place_2' must be a positive integer, got {cost!r}"
            assert str(info.value) == message

    def test_a_cost_map_must_price_every_operator(self, corpus_library):
        costs = derive_costs(corpus_library).costs
        key = next(k for k, name in corpus_library.variant_names().items() if name == "reach_2")
        short = {k: cost for k, cost in costs.items() if k != key}
        for partial, named in ((short, "reach_2"), ({}, "grasp")):
            message = f"no cost given for operator {named!r}"
            with pytest.raises(ValidationError) as info:
                emit_domain(corpus_library, partial)
            assert str(info.value) == message
            with pytest.raises(ValidationError) as info:
                ground(corpus_library, planning_objects(), CostModel(partial))
            assert str(info.value) == message


def test_derived_costs_prefer_frequent_operators(corpus_library):
    costs = derive_costs(corpus_library)
    names = corpus_library.variant_names()
    by_name = {names[key]: costs.costs[key] for key in corpus_library.operators}
    assert by_name == {
        "grasp": 1,
        "place": 13,
        "place_2": 7,
        "put": 1,
        "reach": 7,
        "reach_2": 13,
        "release": 1,
    }


def test_derive_costs_of_empty_library_is_empty():
    from demoplan.learning import OperatorLibrary

    library = OperatorLibrary.empty(Vocabulary((SIG,)), TypeTable({}))
    assert derive_costs(library).costs == {}


_PARENTS = {"Cube": "Block", "Block": "Thing", "Zone": "Thing"}
_SIGNATURES = [
    PredicateSignature("on", ("Block", "Thing")),
    PredicateSignature("clear", ("Thing",)),
    PredicateSignature("at", ("Robot", "Zone")),
    PredicateSignature("free", ()),
]


def _random_schemas(rng: random.Random) -> tuple[list[ActionSchema], int]:
    """Up to four schemas of 0 to 3 parameters over ``_PARENTS``' types, whose
    atoms draw their arguments from the parameters, so that nullary atoms and
    atoms repeating a parameter occur; names repeat on purpose. Also returns
    how many drawn schemas ActionSchema rejected for contradictory preconditions."""
    schemas, rejected = [], 0
    for _ in range(rng.randint(0, 4)):
        params = tuple(
            (f"?p{i}", rng.choice(["Cube", "Block", "Thing", "Zone", "Robot"]))
            for i in range(rng.randint(0, 3))
        )
        terms = [v for v, _ in params]
        usable = [sig for sig in _SIGNATURES if terms or not sig.arity]

        def atom():
            sig = rng.choice(usable)
            return GroundAtom(sig, tuple(rng.choice(terms) for _ in sig.arg_types))

        pre = frozenset(Literal(atom(), rng.random() < 0.6) for _ in range(rng.randint(0, 4)))
        adds = frozenset(atom() for _ in range(rng.randint(0, 2)))
        dels = frozenset(atom() for _ in range(rng.randint(0, 2))) - adds
        name = rng.choice(["move", "push", "wait"])
        try:
            schemas.append(ActionSchema(name, params, pre, adds, dels, rng.randint(1, 3)))
        except ValidationError as exc:
            assert "contradictory preconditions" in str(exc)
            rejected += 1
    return schemas, rejected


class TestGrounding:
    def _schema(self):
        sig = PredicateSignature("linked", ("Node", "Node"))
        pre = frozenset([Literal(GroundAtom(sig, ("?n1", "?n2")), False)])
        adds = frozenset([GroundAtom(sig, ("?n1", "?n2"))])
        return ActionSchema("link", (("?n1", "Node"), ("?n2", "Node")), pre, adds, frozenset(), 2)

    def test_bindings_are_injective_by_default(self):
        table = TypeTable({"a": "Node", "b": "Node"})
        objs = table.objects()
        grounded = ground_schemas([self._schema()], objs, table)
        assert [g.objects for g in grounded] == [("a", "b"), ("b", "a")]
        assert all(g.cost == 2 for g in grounded)
        assert len(grounded) == count_groundings([["a", "b"], ["a", "b"]])

    def test_parameters_accept_subtype_instances(self):
        sig = PredicateSignature("parked", ("Vehicle",))
        table = TypeTable({"car1": "Car", "v1": "Vehicle"}, {"Car": "Vehicle"})
        schema = ActionSchema(
            "park",
            (("?v1", "Vehicle"),),
            frozenset([Literal(GroundAtom(sig, ("?v1",)), False)]),
            frozenset([GroundAtom(sig, ("?v1",))]),
            frozenset(),
            1,
        )
        grounded = ground_schemas([schema], table.objects(), table)
        assert {g.objects for g in grounded} == {("car1",), ("v1",)}

    def test_corpus_grounding_size_is_stable(self, corpus_library, corpus_actions):
        assert len(corpus_actions) == 88
        # grounding is sorted and deterministic, and takes its objects from any iterable
        again = ground(corpus_library, iter(planning_objects()), derive_costs(corpus_library))
        assert again.actions == corpus_actions.actions

    def test_matches_the_substituting_reference_on_random_schemas(self):
        """Template grounding must give the reference's actions in its order,
        with a subtype chain in play. Equal atoms must be one object. Atom
        arguments are drawn from the parameters; a schema that ActionSchema
        rejects (a precondition required true and false) is counted."""
        table = TypeTable({"c1": "Cube", "c2": "Cube", "b1": "Block", "z1": "Zone",
                           "r1": "Robot"}, _PARENTS)
        rng = random.Random(707)
        outcomes = {"equal": 0, "rejected": 0}
        for _ in range(1000):
            schemas, rejected = _random_schemas(rng)
            outcomes["rejected"] += rejected
            args = (schemas, [], table)
            expected = ground_reference(*args)
            found = ground_schemas(*args).actions
            assert list(found) == expected
            assert [(a.name, a.objects, a.cost) for a in found] == [
                (a.name, a.objects, a.cost) for a in expected
            ]
            atoms = [l.atom for a in found for l in a.pre] + [
                atom for a in found for atom in a.adds | a.dels
            ]
            assert len({id(a) for a in atoms}) == len(set(atoms))
            outcomes["equal"] += 1
        assert min(outcomes.values()) >= 10, outcomes

    def test_schemas_from_library_default_to_unit_costs(self, corpus_library):
        schemas = corpus_library.schemas()
        assert sorted(s.name for s in schemas) == [
            "grasp", "place", "place_2", "put", "reach", "reach_2", "release",
        ]
        assert all(s.cost == 1 for s in schemas)


def _has_dead_prefix(schema: ActionSchema, table: TypeTable) -> bool:
    """Whether some injective, type-consistent binding of the first
    parameters of ``schema`` completes to no action."""
    candidates = [table.instances_of(type_id) for _, type_id in schema.params]

    def injective(depth):
        return {c for c in itertools.product(*candidates[:depth]) if len(set(c)) == depth}

    complete = {c[:depth] for c in injective(len(candidates)) for depth in range(len(candidates))}
    return any(injective(depth) - complete for depth in range(len(candidates)))


def _searched(task, init, goal, expansions):
    """Per heuristic, ``task``'s plan (or "node limit") and how many states it expanded."""
    answers = []
    for heuristic in ("none", "hmax"):
        expansions.clear()
        try:
            found = task.search(init, goal, node_limit=3000, heuristic=heuristic)
        except SearchLimitExceeded:
            found = "node limit"
        answers.append((found, len(expansions)))
    return answers


class TestCarriedTask:
    """ground_schemas numbers atoms as it meets them and returns a Task over
    the core it compiled; that task must answer every search as compiling its
    actions afresh does, and plan() and execute() use it as it is."""

    def test_answers_as_a_fresh_compile_on_random_schemas(self, monkeypatch):
        expansions = []
        applicable = Task.applicable
        monkeypatch.setattr(
            Task, "applicable", lambda task, state: expansions.append(state) or applicable(task, state)
        )
        rng = random.Random(808)
        pool = [("c1", "Cube"), ("c2", "Cube"), ("c3", "Cube"), ("b1", "Block"), ("b2", "Block"),
                ("t1", "Thing"), ("z1", "Zone"), ("r1", "Robot"), ("r2", "Robot")]
        seen = Counter()
        for _ in range(300):
            schemas = _random_schemas(rng)[0]
            objects = [ObjectInstance(*o) for o in pool if rng.random() < 0.5]
            table = TypeTable({}, _PARENTS, frozenset({"Robot"})).with_instances(objects)
            carried = ground_schemas(schemas, objects, TypeTable({}, _PARENTS, frozenset({"Robot"})))
            fresh = Task(list(carried))
            assert carried.actions == fresh.actions
            assert set(carried.index) == set(fresh.index)  # no atom of a dead prefix gets a bit
            atoms = [
                GroundAtom(sig, args)
                for sig in _SIGNATURES
                for args in itertools.product(*(table.instances_of(t) for t in sig.arg_types))
            ]
            init = State.of(a for a in atoms if rng.random() < 0.3)
            goal = [Literal(a, rng.random() < 0.7) for a in rng.sample(atoms, min(len(atoms), 3))]
            answers = _searched(carried, init, goal, expansions)
            assert answers == _searched(fresh, init, goal, expansions)
            seen["solved"] += sum(found not in (None, "node limit") for found, _ in answers)
            lifted = [a for s in schemas for a in (*(l.atom for l in s.pre), *s.adds, *s.dels)]
            seen["dead prefix"] += any(_has_dead_prefix(s, table) for s in schemas)
            seen["zero parameters"] += any(not s.params for s in schemas)
            seen["nullary atom"] += any(not a.args for a in lifted)
            seen["atom repeating a parameter"] += any(len(set(a.args)) < len(a.args) for a in lifted)
            seen["subtype instance bound"] += any(
                table.type_of(obj) != type_id
                for s in schemas
                for a in ground_schemas([s], objects, table)
                for obj, (_, type_id) in zip(a.objects, s.params)
            )
            seen["goal on an atom no action mentions"] += any(l.atom not in fresh.index for l in goal)
        assert len(seen) == 7 and min(seen.values()) >= 10, seen

    def test_a_plain_list_is_compiled_on_every_call(self, corpus_library, task_calls):
        task = ground(corpus_library, planning_objects(), derive_costs(corpus_library))
        goal = corpus_goals()["red_on_green"]
        assert compiled(task) is task
        assert plan(task, initial_state(), goal).total_cost == 16
        assert task_calls["_compile"] == 1
        on_green = stacking_vocabulary().atom("onTop", RED, GREEN)
        teleport = GroundedAction("teleport", (RED,), frozenset(), frozenset([on_green]), frozenset())
        actions = [*task, teleport]
        assert plan(actions, initial_state(), goal).actions == (teleport,)
        assert task_calls["_compile"] == 2
        del actions[0], actions[-1]
        assert plan(actions, initial_state(), goal) == plan(actions, initial_state(), goal)
        assert task_calls["_compile"] == 4

    def test_a_hand_built_task_holds_the_callers_own_actions(self, corpus_library):
        grounded = ground(corpus_library, planning_objects(), derive_costs(corpus_library))
        mine = [dataclasses.replace(a) for a in reversed(grounded.actions)]
        ordered = sorted(mine, key=GroundedAction.sort_key)
        task = Task(mine)
        assert task.actions == tuple(ordered) and tuple(task) == tuple(ordered)
        goal = corpus_goals()["tower_blue_red_green"]
        for found in (task.search(initial_state(), goal), plan(mine, initial_state(), goal)):
            assert found.actions and all(a in mine for a in found.actions)

    def test_a_plan_does_not_keep_its_task_alive(self, corpus_library):
        # The proof names the actions, so a held plan does not hold the
        # task's bitmask tables and per-byte memo.
        actions = ground(corpus_library, planning_objects(), derive_costs(corpus_library))
        found = plan(actions, initial_state(), corpus_goals()["red_on_green"])
        task = weakref.ref(compiled(actions))
        del actions
        assert task() is None and found.total_cost == 16 and found.proof is not None

    def test_grounding_leaves_no_garbage_cycle(self, corpus_library):
        # A cycle would keep a request's atom tables alive until a collector
        # pass, and so make request times depend on when that pass runs.
        costs = derive_costs(corpus_library)
        gc.collect()
        gc.disable()
        try:
            actions = ground(corpus_library, planning_objects(), costs)
            plan(actions, initial_state(), corpus_goals()["red_on_green"])
            del actions
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestSharedCores:
    """Grounding compiles one core per (schemas, type hierarchy, object types
    in id order) and returns a Task over it under each call's object names. A
    Task that a cache hit returns must answer as the substituting reference's
    actions do when compiled afresh."""

    def test_a_hit_answers_as_a_fresh_compile_on_random_schemas(self, monkeypatch, task_calls):
        expansions = []
        applicable = Task.applicable
        monkeypatch.setattr(
            Task, "applicable", lambda task, state: expansions.append(state) or applicable(task, state)
        )
        rng = random.Random(909)
        seen = Counter()
        for _ in range(250):
            schemas = _random_schemas(rng)[0]
            # Places k00, k01, ... in id order; a constant keeps its name in
            # both calls, any other object is k..a in the first and k..b in the second.
            layout = [rng.choice(["Cube", "Block", "Thing", "Zone", "Robot"])
                      for _ in range(rng.randint(1, 7))]
            constant = [rng.random() < 0.25 for _ in layout]
            base = TypeTable({f"k{k:02d}": t for k, t in enumerate(layout) if constant[k]},
                             _PARENTS, frozenset({"Robot"}))
            first, second = (
                [ObjectInstance(f"k{k:02d}{suffix}", t)
                 for k, t in enumerate(layout) if not constant[k]]
                for suffix in "ab"
            )
            ground_schemas(schemas, first, base)
            compiles = task_calls["_compile"]
            hit = ground_schemas(schemas, second, base)
            assert task_calls["_compile"] == compiles  # nothing compiled again
            actions = ground_reference(schemas, second, base)
            fresh = Task(actions)
            table = base.with_instances(second)
            atoms = [
                GroundAtom(sig, args)
                for sig in _SIGNATURES
                for args in itertools.product(*(table.instances_of(t) for t in sig.arg_types))
            ]
            init = State.of(a for a in atoms if rng.random() < 0.3)
            goal = [Literal(a, rng.random() < 0.7) for a in rng.sample(atoms, min(len(atoms), 3))]
            # searched before anything reads its actions, so its plans build their own steps
            answers = _searched(hit, init, goal, expansions)
            assert answers == _searched(fresh, init, goal, expansions)
            assert len(hit) == len(actions) and hit.actions == tuple(actions)
            assert set(hit.index) == set(fresh.index)
            seen["solved"] += any(found not in (None, "node limit") for found, _ in answers)
            seen["equal names"] += len({s.name for s in schemas}) < len(schemas) and bool(actions)
            seen["constant bound"] += any(
                obj in base.instance_to_type for a in actions for obj in a.objects
            )
            seen["supertype parameter over mixed types"] += bool(actions) and any(
                len({table.type_of(obj) for obj in table.instances_of(type_id)}) > 1
                for s in schemas
                for _, type_id in s.params
            )
        assert len(seen) == 4 and min(seen.values()) >= 10, seen

    def test_a_warm_core_searches_as_a_fresh_compile(self, corpus_library, monkeypatch, task_calls):
        """A later search on a core whose memoized tables earlier searches
        filled returns the plan, and expands the states, of a cold Task."""
        expansions = []
        applicable = Task.applicable
        monkeypatch.setattr(
            Task, "applicable", lambda task, state: expansions.append(state) or applicable(task, state)
        )
        costs = derive_costs(corpus_library)
        goals = corpus_goals()
        for name in sorted(goals):
            ground(corpus_library, planning_objects(), costs).search(initial_state(), goals[name])
        for name, heuristic in itertools.product(sorted(goals), ("none", "hmax")):
            warm = ground(corpus_library, planning_objects(), costs)
            answers = []
            for task in (warm, Task(list(warm))):
                expansions.clear()
                found = task.search(initial_state(), goals[name], heuristic=heuristic)
                answers.append((found.actions, found.total_cost, len(expansions)))
            assert answers[0] == answers[1]
        assert task_calls["_compile"] == 1 + 2 * len(goals)

    def test_the_key_holds_the_type_hierarchy_and_the_object_types(self):
        sig = PredicateSignature("marked", ("Block",))
        mark = ActionSchema("mark", (("?b", "Block"),), frozenset(),
                            frozenset([GroundAtom(sig, ("?b",))]), frozenset())
        flat = TypeTable({}, {}, frozenset({"Cube", "Block", "Zone"}))
        nested = TypeTable({}, {"Cube": "Block"}, frozenset({"Zone"}))
        cube, zone = [ObjectInstance("o1", "Cube")], [ObjectInstance("o1", "Zone")]
        sizes = [len(ground_schemas([mark], objects, table))
                 for table, objects in ((flat, cube), (nested, cube), (nested, zone))]
        assert sizes == [0, 1, 0]

    def test_a_bad_object_raises_on_a_hit(self):
        table = TypeTable({"k1": "Zone"}, _PARENTS, frozenset({"Robot"}))
        schemas = _random_schemas(random.Random(3))[0]
        objects = [ObjectInstance("c1", "Cube"), ObjectInstance("r1", "Robot")]
        ground_schemas(schemas, objects, table)
        ground_schemas(schemas, [ObjectInstance("c2", "Cube"), ObjectInstance("r2", "Robot")], table)
        with pytest.raises(ValidationError) as info:
            ground_schemas(schemas, [*objects, ObjectInstance("g1", "Ghost")], table)
        assert str(info.value) == "object 'g1' has undeclared type 'Ghost'"
        with pytest.raises(SchemaError) as info:
            ground_schemas(schemas, [*objects, ObjectInstance("k1", "Cube")], table)
        assert str(info.value) == "object 'k1' declared as both 'Zone' and 'Cube'"

    def test_a_library_that_changes_is_grounded_afresh(self, corpus_demos, task_calls):
        library = build_library([corpus_demos[0].trace], DEFAULT_RULES)
        objects = planning_objects()

        def grounded_as_the_reference(costs):
            compiles = task_calls["_compile"]
            task = ground(library, objects, costs)
            assert task_calls["_compile"] == compiles + 1
            expected = ground_reference(
                library.schemas(None if costs is None else costs.costs), objects, library.types
            )
            assert task.actions == tuple(expected)

        grounded_as_the_reference(None)
        keys = sorted(library.operators)
        grounded_as_the_reference(CostModel({key: 1 + i for i, key in enumerate(keys)}))
        operators = len(library.operators)
        for demo in corpus_demos[1:]:
            learn_from_trace(library, demo.trace, DEFAULT_RULES)
            if len(library.operators) > operators:
                break
        assert len(library.operators) > operators
        grounded_as_the_reference(None)  # one more operator, the same unit costs


class TestSearch:
    def test_satisfied_goal_needs_no_actions(self):
        result = plan([], State.of([_atom(0)]), [Literal(_atom(0))])
        assert result == Plan((), 0)

    def test_unreachable_goal_returns_none(self):
        act = _action("a", [], [_atom(0)])
        assert plan([act], State(), [Literal(_atom(1))]) is None

    def test_cheapest_route_wins(self):
        expensive = _action("direct", [], [_atom(2)], cost=10)
        step1 = _action("hop1", [], [_atom(1)], cost=2)
        step2 = _action("hop2", [Literal(_atom(1))], [_atom(2)], cost=3)
        result = plan([expensive, step1, step2], State(), [Literal(_atom(2))])
        assert result.total_cost == 5
        assert [a.name for a in result.actions] == ["hop1", "hop2"]

    def test_negative_goals_and_preconditions(self):
        clear = _action("clear", [Literal(_atom(0))], [], [_atom(0)])
        result = plan([clear], State.of([_atom(0)]), [Literal(_atom(0), False)])
        assert [a.name for a in result.actions] == ["clear"]

    def test_ties_break_lexicographically(self):
        # identical effects and costs: the alphabetically first action is chosen
        a = _action("alpha", [], [_atom(0)])
        z = _action("zulu", [], [_atom(0)])
        for ordering in ([z, a], [a, z]):
            result = plan(ordering, State(), [Literal(_atom(0))])
            assert [x.name for x in result.actions] == ["alpha"]
        by_objects = [
            GroundedAction("go", (obj,), frozenset(), frozenset([_atom(0)]), frozenset())
            for obj in ("right", "left")
        ]
        result = plan(by_objects, State(), [Literal(_atom(0))])
        assert result.actions[0].objects == ("left",)

    def test_node_limit_raises(self, corpus_actions):
        goal = corpus_goals()["red_on_green"]
        with pytest.raises(SearchLimitExceeded):
            plan(corpus_actions, initial_state(), goal, node_limit=3)

    def test_unknown_heuristic_is_rejected(self):
        with pytest.raises(ValidationError):
            plan([], State(), [Literal(_atom(0))], heuristic="fancy")

    def test_negative_node_limit_is_rejected(self):
        with pytest.raises(ValidationError):
            plan([], State(), [Literal(_atom(0))], node_limit=-1)

    def test_static_goal_atoms_are_decided_before_search(self):
        # No action mentions _atom(5). The toggle space has two states, so a
        # search for the unreachable goal would exceed node_limit=1.
        toggle = [
            _action("on", [Literal(_atom(0), False)], [_atom(0)]),
            _action("off", [Literal(_atom(0))], [], [_atom(0)]),
        ]
        for heuristic in ("none", "hmax"):
            assert plan(toggle, State(), [Literal(_atom(5))], node_limit=1, heuristic=heuristic) is None
            assert (
                plan(toggle, State.of([_atom(5)]), [Literal(_atom(5), False)], node_limit=1, heuristic=heuristic)
                is None
            )
            # a static goal literal that holds in init is simply satisfied
            result = plan(
                toggle,
                State.of([_atom(5)]),
                [Literal(_atom(5)), Literal(_atom(0))],
                node_limit=1,
                heuristic=heuristic,
            )
            assert [a.name for a in result.actions] == ["on"]

    def test_a_relaxed_unreachable_goal_is_decided_before_any_search(self, corpus_actions):
        """Placing blue on green needs the two apart, and no action deletes
        inTouch(blue, green). A blind search used to take tens of seconds
        exhausting the state space to find that out."""
        init = State(initial_state().true_atoms | {stacking_vocabulary().atom("inTouch", BLUE, GREEN)})
        goal = corpus_goals()["blue_on_green"]
        for heuristic in ("none", "hmax"):
            # node_limit=0 raises at the first expansion
            assert plan(corpus_actions, init, goal, node_limit=0, heuristic=heuristic) is None

    @pytest.mark.parametrize("heuristic", ["none", "hmax"])
    def test_matches_reference_dijkstra(self, heuristic):
        rng = random.Random(101)
        solved = 0
        for _ in range(40):
            actions, init, goal = random_planning_instance(rng)
            reference = dijkstra_plan(actions, init, goal)
            result = plan(actions, init, goal, heuristic=heuristic)
            if reference is None:
                assert result is None
                continue
            solved += 1
            assert result is not None
            assert result.total_cost == reference[0]
            assert replay(result.actions, init, goal) is not None
        assert solved > 5  # the generator must produce solvable tasks too

    def test_hmax_agrees_with_blind_search_on_the_corpus(self, corpus_actions):
        for goal in corpus_goals().values():
            blind = plan(corpus_actions, initial_state(), goal)
            informed = plan(corpus_actions, initial_state(), goal, heuristic="hmax")
            assert blind.total_cost == informed.total_cost


def _hmax_masks(task, atoms, goal):
    state = 0
    for atom in atoms:
        if atom in task.index:
            state |= 1 << task.index[atom]
    goal_facts = 0
    for lit in goal:
        bit = task.index[lit.atom]
        goal_facts |= 1 << (bit if lit.positive else bit + task.n)
    return state, goal_facts


class TestHmax:
    """The level-wise h_max must equal the textbook value exactly: any
    difference would reorder the search and could change which plan wins."""

    def test_matches_the_reference_on_random_tasks(self):
        rng = random.Random(202)
        finite = 0
        for _ in range(200):
            actions, init, goal = random_planning_instance(rng)
            task = Task(actions)
            goal = [lit for lit in goal if lit.atom in task.index]
            pool = sorted(task.index, key=GroundAtom.sort_key)
            states = [init.true_atoms] + [
                frozenset(a for a in pool if rng.random() < 0.5) for _ in range(3)
            ]
            for atoms in states:
                expected = hmax_reference(actions, atoms, goal)
                assert task.hmax(*_hmax_masks(task, atoms, goal)) == expected
                finite += expected not in (0, float("inf"))
        assert finite > 50

    def test_matches_the_reference_on_every_state_of_a_tower_search(
        self, corpus_actions, monkeypatch
    ):
        evaluated = {}
        original = Task.hmax

        def recording(task, state, goal_facts):
            value = original(task, state, goal_facts)
            evaluated[state] = (task, value)
            return value

        monkeypatch.setattr(Task, "hmax", recording)
        goal = corpus_goals()["tower_blue_red_green"]
        assert plan(corpus_actions, initial_state(), goal, heuristic="hmax").total_cost == 32
        assert len(evaluated) > 1000
        for state, (task, value) in evaluated.items():
            atoms = [a for a, bit in task.index.items() if state >> bit & 1]
            assert value == hmax_reference(corpus_actions.actions, atoms, goal)


    @pytest.mark.parametrize("atoms", [0, 1, 7, 8, 9, 16, 17])
    def test_matches_the_reference_at_the_edges_of_the_tables(self, atoms):
        """Atom counts around the 8-fact bytes, action counts around the
        8-action chunks, and runs of equal cost that start and end both
        inside a chunk and across chunks."""
        rng = random.Random(900 + atoms)
        compiled_sizes, runs = set(), Counter()
        for count in (1, 7, 8, 9, 15, 16, 17, 25):
            for _ in range(8):
                drawn, init, goal = random_planning_instance(
                    rng, atom_count=(atoms, atoms), action_count=(count, count)
                )
                costs = [rng.randint(1, 5)]
                while len(costs) < count:  # runs of 1 to 12 equal costs
                    cost = rng.choice([c for c in range(1, 6) if c != costs[-1]])
                    costs += [cost] * rng.randint(1, 12)
                ordered = sorted(drawn, key=GroundedAction.sort_key)
                actions = [dataclasses.replace(a, cost=c) for a, c in zip(ordered, costs)]
                at = 0
                for _, run in itertools.groupby(costs[:count]):
                    end = at + len(list(run))
                    if at // 8 != (end - 1) // 8:
                        runs["across"] += 1
                    elif at % 8 and end % 8:
                        runs["inside"] += 1
                    at = end
                task = Task(actions)
                compiled_sizes.add(task.n)
                goal = [lit for lit in goal if lit.atom in task.index]
                pool = sorted(task.index, key=GroundAtom.sort_key)
                for state in [init.true_atoms] + [
                    frozenset(a for a in pool if rng.random() < 0.5) for _ in range(4)
                ]:
                    expected = hmax_reference(actions, state, goal)
                    assert task.hmax(*_hmax_masks(task, state, goal)) == expected
        assert atoms in compiled_sizes
        assert runs["inside"] > 10 and runs["across"] > 10, runs

    @pytest.mark.parametrize("atoms", [9, 16, 17])
    def test_an_action_waits_for_its_one_needed_fact_at_every_place_in_a_byte(self, atoms):
        """The only needed fact of the task, at each bit in turn: an action
        that needs it stays blocked until the fact is reached."""
        pool = [_atom(i) for i in range(atoms)]
        goal = [Literal(pool[-1])]
        for atom in pool[:-1]:
            for positive in (True, False):
                actions = [  # "clear" numbers the other atoms first, in set order
                    _action("clear", [], [], pool[:-1]),
                    _action("need", [Literal(atom, positive)], [pool[-1]], cost=3),
                ]
                task = Task(actions)
                for state in (frozenset(), frozenset(pool[:-1])):
                    expected = hmax_reference(actions, state, goal)
                    assert task.hmax(*_hmax_masks(task, state, goal)) == expected

    def test_goals_sharing_one_task_do_not_see_each_other(self, corpus_library):
        """One Task's tables serve every goal and search on it: h_max for two
        goals, interleaved, with a blind search in between, must each equal
        the reference on a fresh evaluation."""
        task = ground(corpus_library, planning_objects(), derive_costs(corpus_library))
        goals = [corpus_goals()["tower_blue_red_green"], corpus_goals()["red_on_green"]]
        rng = random.Random(404)
        pool = sorted(task.index, key=GroundAtom.sort_key)
        states = [initial_state().true_atoms] + [
            frozenset(a for a in pool if rng.random() < 0.3) for _ in range(30)
        ]
        finite = 0
        for i, atoms in enumerate(states):
            if i == len(states) // 2:
                assert task.search(initial_state(), goals[1]).total_cost == 16
            for goal in goals if i % 2 else goals[::-1]:
                expected = hmax_reference(task.actions, atoms, goal)
                assert task.hmax(*_hmax_masks(task, atoms, goal)) == expected
                finite += expected not in (0, float("inf"))
        assert finite > 10


class TestSuccessorGenerator:
    """The blocker tables per 16-bit chunk must give exactly the actions that
    testing every action finds applicable, including for tasks whose atoms
    fill several chunks or end exactly on a chunk boundary, and the memoized
    successor records must be those actions' effects and costs."""

    @pytest.mark.parametrize("atoms", [0, 1, 7, 8, 9, 15, 16, 17, 24, 31, 32, 33])
    def test_matches_the_scan_on_random_states(self, atoms):
        rng = random.Random(600 + atoms)
        compiled_sizes = set()
        for _ in range(20):
            actions, init, _ = random_planning_instance(
                rng, atom_count=(atoms, atoms), action_count=(2 * atoms, 3 * atoms + 4)
            )
            task = Task(actions)
            compiled_sizes.add(task.n)
            for _ in range(25):
                state = rng.getrandbits(task.n) if task.n else 0
                assert task.applicable(state) == applicable_reference(task, state)
        assert atoms in compiled_sizes

    @pytest.mark.parametrize("atoms", [1, 16, 33])
    def test_successor_records_are_the_applicable_actions(self, atoms):
        rng = random.Random(700 + atoms)
        for _ in range(20):
            actions, _, _ = random_planning_instance(
                rng, atom_count=(atoms, atoms), action_count=(atoms, 3 * atoms + 4)
            )
            task = Task(actions)

            def mask(atoms_):
                return sum(1 << task.index[a] for a in atoms_)

            for _ in range(25):
                state = rng.getrandbits(task.n) if task.n else 0
                applicable = applicable_reference(task, state)
                expected = [(i, mask(a.adds), mask(a.dels), a.cost)
                            for i, a in enumerate(task.actions) if applicable >> i & 1]
                records = task.successors[task.applicable(state)]
                assert [(i, add, ~keep, cost) for i, keep, add, cost in records] == expected
                # one record per action, shared by every mask's entry
                assert all(r is task.successors.records[r[0]] for r in records)

    def test_matches_the_scan_on_every_state_of_a_tower_search(
        self, corpus_actions, monkeypatch
    ):
        expanded = []
        original = Task.applicable

        def recording(task, state):
            expanded.append((task, state))
            return original(task, state)

        monkeypatch.setattr(Task, "applicable", recording)
        goal = corpus_goals()["tower_blue_red_green"]
        assert plan(corpus_actions, initial_state(), goal).total_cost == 32
        assert len(expanded) > 1000
        for task, state in expanded:
            assert original(task, state) == applicable_reference(task, state)


def _expands_like_the_reference(actions, init, goal, heuristic="hmax"):
    """The same plan as textbook A* (Dijkstra when blind), and the same
    number of expansions before the node limit bites."""
    expected, expansions = astar_plan(actions, init, goal, blind=heuristic == "none")
    found = plan(actions, init, goal, node_limit=expansions, heuristic=heuristic)
    assert (found and found.actions) == expected
    if expansions:
        with pytest.raises(SearchLimitExceeded):
            plan(actions, init, goal, node_limit=expansions - 1, heuristic=heuristic)


class TestBucketQueue:
    """The integer bucket queue must pop states in the (key, generation)
    order of a binary heap, blind as well as with h_max."""

    def test_blind_search_expands_like_textbook_dijkstra(self):
        rng = random.Random(505)
        for _ in range(1000):
            _expands_like_the_reference(*random_planning_instance(rng), heuristic="none")

    @pytest.mark.parametrize("name", ["red_on_green", "tower_blue_red_green"])
    def test_blind_search_on_corpus_goals(self, corpus_actions, name):
        _expands_like_the_reference(
            corpus_actions, initial_state(), corpus_goals()[name], heuristic="none"
        )


class TestLazyHmax:
    """h_max is evaluated only when a state leaves the frontier, yet states
    must be expanded exactly as textbook eager A* expands them: the same
    plan, and the same number of expansions before the node limit bites."""

    def test_matches_eager_astar_on_random_tasks(self):
        rng = random.Random(404)
        for _ in range(1000):
            _expands_like_the_reference(*random_planning_instance(rng))
        for _ in range(200):  # states that span two bytes of the successor tables
            _expands_like_the_reference(*random_planning_instance(rng, (9, 16), (8, 16)))

    @pytest.mark.parametrize("name", sorted(corpus_goals()))
    def test_matches_eager_astar_on_corpus_goals(self, corpus_actions, name):
        _expands_like_the_reference(corpus_actions, initial_state(), corpus_goals()[name])

    def test_a_cheaper_path_into_a_known_dead_end_is_dropped(self):
        """{d} leaves the frontier first, through a_dead, with h_max infinite;
        c_dead later reaches it more cheaply, and the search must skip it."""
        a, d, g = _atom(0), _atom(1), _atom(2)
        actions = [
            _action("a_dead", [Literal(d, False), Literal(a, False)], [d], cost=5),
            _action("b_go", [Literal(d, False)], [a]),
            _action("c_dead", [Literal(a)], [d], [a]),
            _action("d_goal", [Literal(a), Literal(d, False)], [g], cost=10),
        ]
        found = plan(actions, State(), [Literal(g)], heuristic="hmax")
        assert [x.name for x in found.actions] == ["b_go", "d_goal"] and found.total_cost == 11
        _expands_like_the_reference(actions, State(), [Literal(g)])

    def test_evaluates_at_most_half_the_states_eager_astar_does(self, corpus_actions, monkeypatch):
        eager, lazy = set(), []
        reference, compiled = oracles.hmax_reference, Task.hmax

        def eager_h(actions, atoms, goal):
            eager.add(frozenset(atoms))
            return reference(actions, atoms, goal)

        def lazy_h(task, state, goal_facts):
            lazy.append(state)
            return compiled(task, state, goal_facts)

        monkeypatch.setattr(oracles, "hmax_reference", eager_h)
        monkeypatch.setattr(Task, "hmax", lazy_h)
        goal = corpus_goals()["tower_blue_red_green"]
        astar_plan(corpus_actions, initial_state(), goal)
        plan(corpus_actions, initial_state(), goal, heuristic="hmax")
        assert len(lazy) == len(set(lazy))
        assert 2 * len(lazy) <= len(eager)


class TestCorpusPlans:
    def test_known_stacking_plan(self, corpus_actions):
        """Frozen expectation: stack red on green with the well-practiced
        reach/grasp/put sequence and one rarely-seen place variant."""
        goal = corpus_goals()["red_on_green"]
        result = plan(corpus_actions, initial_state(), goal)
        assert result.total_cost == 16
        assert [repr(a) for a in result.actions] == [
            "reach(Left_hand,Cube_red1)",
            "grasp(Left_hand,Cube_red1)",
            "put(Left_hand,Table_1,Cube_red1)",
            "place_2(Left_hand,Cube_red1,Cube_green1)",
        ]

    def test_every_corpus_goal_is_solvable(self, corpus_actions):
        for name, goal in corpus_goals().items():
            result = plan(corpus_actions, initial_state(), goal)
            assert result is not None, name
            check = validate(result, initial_state(), goal)
            assert check.ok, (name, check.missing)

    def test_towers_cost_double_the_single_moves(self, corpus_actions):
        for name in ("tower_blue_red_green", "tower_red_blue_green"):
            result = plan(corpus_actions, initial_state(), corpus_goals()[name])
            assert result.total_cost == 32
            assert len(result.actions) == 8

    def test_solve_is_the_composed_pipeline(self, corpus_library):
        goal = corpus_goals()["blue_on_green"]
        actions = ground(corpus_library, planning_objects(), derive_costs(corpus_library))
        result = plan(actions, initial_state(), goal)
        assert result.total_cost == 16


class TestValidate:
    def test_accepts_planner_output(self, corpus_actions):
        goal = corpus_goals()["red_on_green"]
        result = plan(corpus_actions, initial_state(), goal)
        check = validate(result, initial_state(), goal)
        assert check.ok and check.failed_step is None and check.goal_satisfied
        # the final state must agree with a literal replay
        assert replay(result.actions, initial_state(), goal)[1] == check.final_state.true_atoms

    def test_rejects_broken_preconditions(self):
        needs = _action("needs", [Literal(_atom(0))], [_atom(1)])
        bad = Plan((needs,), 1)
        check = validate(bad, State(), [Literal(_atom(1))])
        assert not check.ok
        assert check.failed_step == 0
        assert check.missing == (Literal(_atom(0)),)

    def test_rejects_unreached_goal(self):
        act = _action("a", [], [_atom(0)])
        check = validate(Plan((act,), 1), State(), [Literal(_atom(1))])
        assert not check.ok
        assert check.failed_step is None and not check.goal_satisfied


class TestDocAdapters:
    def test_parsed_documents_plan_identically(self, corpus_library, corpus_actions):
        costs = derive_costs(corpus_library)
        names = corpus_library.variant_names()
        cost_by_name = {names[k]: costs.costs[k] for k in corpus_library.operators}
        domain_text = emit_domain(corpus_library, costs.costs)
        goal = corpus_goals()["red_on_green"]
        problem_text = emit_problem(
            corpus_library, planning_objects(), initial_state(), goal
        )
        nm = library_name_map(corpus_library).extended(
            ["learned", "task"] + [o.id for o in planning_objects()]
        )
        domain_doc = parse_domain(domain_text, name_map=nm)
        problem_doc = parse_problem(problem_text, domain=domain_doc, name_map=nm)
        actions, init, parsed_goal = task_from_docs(domain_doc, problem_doc)
        assert len(actions) == len(corpus_actions)
        assert {(a.name, a.objects, a.cost) for a in actions} == {
            (a.name, a.objects, a.cost) for a in corpus_actions
        }
        result = plan(actions, init, parsed_goal)
        assert result.total_cost == 16
        assert {a.name: a.cost for a in actions if a.name == "place_2"} == {"place_2": 7}
        assert cost_by_name["put"] == 1

    def test_library_and_parsed_domain_ground_identically(self, corpus_library, corpus_actions):
        costs = derive_costs(corpus_library)
        nm = library_name_map(corpus_library).extended(["learned"])
        doc = parse_domain(emit_domain(corpus_library, costs.costs), name_map=nm)
        assert doc.actions == tuple(corpus_library.schemas(costs.costs))
        objects = planning_objects()
        assert ground_schemas(doc.actions, objects, doc.types).actions == corpus_actions.actions

    def test_schema_adapter_preserves_costs(self, corpus_library):
        costs = derive_costs(corpus_library)
        text = emit_domain(corpus_library, costs.costs)
        nm = library_name_map(corpus_library).extended(["learned"])
        doc = parse_domain(text, name_map=nm)
        assert {s.name: s.cost for s in doc.actions} == {
            "grasp": 1, "place": 13, "place_2": 7, "put": 1,
            "reach": 7, "reach_2": 13, "release": 1,
        }
