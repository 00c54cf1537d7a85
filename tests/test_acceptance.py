"""Release gate: one test per promise the package makes to its users.

Every test here freezes an end-to-end behaviour (learned operators, derived
costs, plan shapes, file formats, recovery semantics) and prints a single
summary line, so a ``pytest -s`` run reads as a checklist. The tests repeat a
few expectations that unit tests also cover on purpose: the gate must stay
meaningful even if the unit suites are refactored.
"""

import random
import time
from pathlib import Path

from demoplan.cli import main
from demoplan.learning import (
    OperatorLibrary,
    build_library,
    lift,
    load_library,
    merge,
)
from demoplan.model import ActionSchema, Literal, ObjectInstance, State
from demoplan.monitor import (
    DROP_EFFECTS,
    Fault,
    MonitorConfig,
    WorldSim,
    execute,
    log_to_dict,
)
from demoplan.pddl import (
    domain_to_doc,
    emit_domain,
    emit_problem,
    library_name_map,
    parse_domain,
    parse_problem,
    problem_to_doc,
    render_domain,
    render_problem,
)
from demoplan.planner import derive_costs, ground, plan, validate
from demoplan.segmentation import DEFAULT_RULES
from demoplan.synth import (
    corpus_goals,
    initial_state,
    inject_flicker,
    planning_objects,
)
from demoplan.traces import DebounceConfig, debounce

from helpers import random_library, random_planning_instance, toy_schema
from oracles import dijkstra_plan, replay

GOLDEN_PUT_PRE = {
    "!handMove(?h1)",
    "!handOpen(?h1)",
    "inHand(?h1,?w1)",
    "inTouch(?w1,?t1)",
    "onTop(?w1,?t1)",
}
GOLDEN_PUT_POST = {
    "!handOpen(?h1)",
    "!inTouch(?w1,?t1)",
    "!onTop(?w1,?t1)",
    "handMove(?h1)",
    "inHand(?h1,?w1)",
}


def test_bundled_demo_yields_the_golden_put_operator(fixture_path, tmp_path, capsys):
    target = tmp_path / "library.json"
    started = time.perf_counter()
    assert main(["learn", str(fixture_path), "--library", str(target)]) == 0
    elapsed = time.perf_counter() - started
    capsys.readouterr()

    library = load_library(target)
    names = library.variant_names()
    put_keys = [key for key, name in names.items() if name == "put"]
    assert len(put_keys) == 1
    op = library.operators[put_keys[0]]
    assert op.params == (("?h1", "Hand"), ("?t1", "Table"), ("?w1", "Wooden_cube"))
    assert {repr(l) for l in op.pre} == GOLDEN_PUT_PRE
    effects = {repr(Literal(a)) for a in op.adds} | {repr(Literal(a, False)) for a in op.dels}
    assert effects == GOLDEN_PUT_POST - GOLDEN_PUT_PRE
    assert elapsed < 1.0
    print(f"acceptance: bundled demo gives the golden put operator in {elapsed:.3f}s")


def test_corpus_library_supports_every_stacking_goal(corpus_demos):
    started = time.perf_counter()
    library = build_library([d.trace for d in corpus_demos], DEFAULT_RULES)
    actions = ground(library, planning_objects(), derive_costs(library))

    shared = 0
    for name, goal in corpus_goals().items():
        result = plan(actions, initial_state(), goal)
        assert result is not None, name
        assert validate(result, initial_state(), goal).ok, name
        shared += 1

    # every demonstration must also be reproducible from its own trace alone
    per_demo = 0
    for demo in corpus_demos:
        own = build_library([demo.trace], DEFAULT_RULES)
        result = plan(
            ground(own, planning_objects(), derive_costs(own)), initial_state(), demo.goal
        )
        assert result is not None
        assert validate(result, initial_state(), demo.goal).ok
        per_demo += 1

    elapsed = time.perf_counter() - started
    assert (shared, per_demo) == (4, 12)
    assert elapsed < 30.0
    print(
        "acceptance: 4/4 shared goals and 12/12 per-demo goals"
        f" planned and validated in {elapsed:.2f}s"
    )


def test_flicker_noise_does_not_change_what_is_learned(corpus_demos, corpus_library):
    reference = corpus_library.counts
    for seed in range(20):
        flipped = 0
        recovered = []
        for demo in corpus_demos:
            noisy = inject_flicker(demo.trace, seed)
            if [f.true_atoms for f in noisy.frames] != [
                f.true_atoms for f in demo.trace.frames
            ]:
                flipped += 1
            recovered.append(debounce(noisy, DebounceConfig(2)))
        assert flipped == 12, f"seed {seed} left the corpus unperturbed"
        library = build_library(recovered, DEFAULT_RULES)
        assert set(library.operators) == set(corpus_library.operators), seed
        assert library.counts == reference, seed
    print("acceptance: 20 noise seeds leave operator keys and counts untouched")


def test_search_matches_an_independent_dijkstra_on_random_tasks():
    rng = random.Random(20240817)
    started = time.perf_counter()
    # 4-7 atoms fit in one byte of the successor generator's tables; tasks
    # over 9-20 atoms, with more actions to mention them, need two or three
    draws = [((4, 7), (4, 9))] * 120 + [((9, 20), (8, 16))] * 60
    total, solvable = len(draws), 0
    for atom_count, action_count in draws:
        actions, init, goal = random_planning_instance(rng, atom_count, action_count)
        expected = dijkstra_plan(actions, init, goal)
        blind = plan(actions, init, goal)
        informed = plan(actions, init, goal, heuristic="hmax")
        if expected is None:
            assert blind is None and informed is None
            continue
        solvable += 1
        cost, _ = expected
        assert blind.total_cost == cost == informed.total_cost
        outcome = replay(blind.actions, init, goal)
        assert outcome is not None and outcome[0] == cost
    elapsed = time.perf_counter() - started
    assert solvable >= 60  # the draw must exercise both outcomes heavily
    assert elapsed < 60.0
    print(
        f"acceptance: {solvable} solvable of {total} random tasks match the"
        f" oracle cost with both heuristics in {elapsed:.2f}s"
    )


def _two_rival_operators(count_a, count_b, name_a="alpha", name_b="beta"):
    """A library where either operator alone reaches the goal atom."""
    vocabulary, table = toy_schema()
    library = OperatorLibrary.empty(vocabulary, table)
    atom = vocabulary.atom("stored", "blockA", "zone_1")
    params = (("blockA", "Block"), ("zone_1", "Zone"))
    pre = frozenset([Literal(atom, False)])
    for name, count in ((name_a, count_a), (name_b, count_b)):
        op = lift(ActionSchema(name, params, pre, frozenset([atom]), frozenset()), table)
        for _ in range(count):
            merge(library, op)
    objects = [ObjectInstance("blockA", "Block"), ObjectInstance("zone_1", "Zone")]
    actions = ground(library, objects, derive_costs(library))
    result = plan(actions, State(), [Literal(atom)])
    assert result is not None and len(result.actions) == 1
    return result.actions[0].name


def test_practice_counts_steer_plans_through_common_variants(
    corpus_library, corpus_actions
):
    # either rival reaches the goal alone; the better-practised one must win,
    # and on equal practice the alphabetically first name must win
    assert _two_rival_operators(3, 1) == "alpha"
    assert _two_rival_operators(1, 3) == "beta"
    assert _two_rival_operators(2, 2) == "alpha"
    assert _two_rival_operators(2, 2, name_a="zeta", name_b="beta") == "beta"

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

    goal = corpus_goals()["red_on_green"]
    result = plan(corpus_actions, initial_state(), goal)
    assert result.total_cost == 16
    assert [repr(a) for a in result.actions] == [
        "reach(Left_hand,Cube_red1)",
        "grasp(Left_hand,Cube_red1)",
        "put(Left_hand,Table_1,Cube_red1)",
        "place_2(Left_hand,Cube_red1,Cube_green1)",
    ]
    # the rarely demonstrated variants cost 13 each and must lose the search
    assert {a.name for a in result.actions}.isdisjoint({"place", "reach_2"})
    # both hands can do the job; the tie falls to the lexicographically first
    assert result.actions[0].objects[0] == "Left_hand"
    print("acceptance: plans prefer well-practised variants and break ties by name")


def test_fifty_random_libraries_round_trip_byte_identically():
    rng = random.Random(777)
    vocabulary, table = toy_schema()
    objects = [
        ObjectInstance(name, table.instance_to_type[name])
        for name in sorted(table.instance_to_type)
    ]
    init = State(
        [
            vocabulary.atom("at", "bot1", "zone_1"),
            vocabulary.atom("stored", "blockA", "zone_2"),
            vocabulary.atom("powered"),
        ]
    )
    goal = [Literal(vocabulary.atom("stored", "blockB", "zone_1"))]

    for draw in range(50):
        library = random_library(rng)
        nm = library_name_map(library).extended(
            ["learned", "task"] + [o.id for o in objects]
        )
        text = emit_domain(library)
        doc = parse_domain(text, name_map=nm)
        assert render_domain(doc, nm) == text, draw
        assert doc == domain_to_doc(library), draw

        ptext = emit_problem(library, objects, init, goal)
        pdoc = parse_problem(ptext, domain=doc, name_map=nm)
        assert render_problem(pdoc, nm) == ptext, draw
        assert pdoc == problem_to_doc(library, objects, init, goal), draw
    print("acceptance: 50 random libraries emit, parse and re-render byte for byte")


def test_execution_recovers_from_dropped_effects(corpus_actions):
    goal = list(corpus_goals()["red_on_green"])
    first = plan(corpus_actions, initial_state(), goal)

    def run(budget):
        sim = WorldSim(initial_state(), [Fault(1, DROP_EFFECTS)])
        return execute(
            first, sim, goal, corpus_actions, MonitorConfig(max_replans=budget)
        )

    log = run(5)
    assert log.succeeded
    assert len(log.replans) >= 1
    assert len(log.steps) == len(first.actions) + 1
    assert log_to_dict(run(5)) == log_to_dict(log)

    starved = run(0)
    assert not starved.succeeded
    assert starved.reason == "replan budget exhausted"
    assert log_to_dict(run(0)) == log_to_dict(starved)
    print("acceptance: a dropped effect costs one replan; a zero budget fails loud")


def test_the_readme_library_api_example_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "\nassert " in example
    namespace = {}
    exec(compile(example, "README.md, Library API", "exec"), namespace)  # its asserts must hold
    assert namespace["result"].total_cost == 16
    print("acceptance: the README's Library API example runs and its assert holds")


def test_library_is_order_invariant_and_additive(corpus_demos, corpus_library):
    reference = corpus_library.counts
    traces = [d.trace for d in corpus_demos]

    rng = random.Random(5)
    for _ in range(3):
        shuffled = traces[:]
        rng.shuffle(shuffled)
        library = build_library(shuffled, DEFAULT_RULES)
        assert set(library.operators) == set(corpus_library.operators)
        assert library.counts == reference

    doubled = build_library(traces + traces, DEFAULT_RULES)
    assert doubled.counts == {key: 2 * n for key, n in reference.items()}
    print("acceptance: learning order never matters and observation counts add up")
