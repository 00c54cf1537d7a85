"""Seeded random generators and hypothesis strategies shared by the tests."""

from __future__ import annotations

import random
from typing import Sequence

from hypothesis import strategies as st

from demoplan.learning import OperatorLibrary, lift, merge
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
from demoplan.planner import GroundedAction
from demoplan.segmentation import DELTA_SCOPE, STATE_SCOPE, ClassifierRule, LiteralPattern
from demoplan.traces import Frame, Trace

from oracles import enumerate_atoms

# A compact typed world used whenever a test just needs "some" schema.  The
# hierarchy (Block and Zone under Thing, Robot outside it) and the zero-arity
# predicate are both there to exercise corners that the tabletop scenario
# never touches.
_PARENTS = {"Block": "Thing", "Zone": "Thing"}
_OBJECT_TYPES = {
    "blockA": "Block",
    "blockB": "Block",
    "bot1": "Robot",
    "zone_1": "Zone",
    "zone_2": "Zone",
}

OPERATOR_NAME_POOL = ("Pick-Up", "put_down", "MOVE", "and", "define", "shift", "dock")


def toy_schema() -> tuple[Vocabulary, TypeTable]:
    vocabulary = Vocabulary(
        (
            PredicateSignature("at", ("Robot", "Zone")),
            PredicateSignature("holding", ("Robot", "Block")),
            PredicateSignature("stored", ("Block", "Zone")),
            PredicateSignature("clear", ("Thing",)),
            PredicateSignature("powered", ()),
        )
    )
    return vocabulary, TypeTable(_OBJECT_TYPES, _PARENTS)


def toy_atoms() -> list[GroundAtom]:
    vocabulary, table = toy_schema()
    return list(enumerate_atoms(vocabulary, sorted(_OBJECT_TYPES), table))


def random_grounded_operator(rng: random.Random, name: str) -> ActionSchema:
    """A random observed transition over the toy schema, as the ground
    ActionSchema that extract returns.

    Retries until every chosen object appears in some literal and the
    post-state differs from the preconditions. An atom the post-state
    mentions and the preconditions do not is added or deleted.
    """
    vocabulary, table = toy_schema()
    while True:
        objs = tuple(rng.sample(sorted(_OBJECT_TYPES), rng.randint(2, 3)))
        pool = [a for a in enumerate_atoms(vocabulary, objs, table) if a.args]
        rng.shuffle(pool)
        pre = {atom: rng.random() < 0.6 for atom in pool[: rng.randint(1, 4)]}
        post = dict(pre)
        for atom in rng.sample(pool, min(len(pool), rng.randint(1, 3))):
            post[atom] = not post.get(atom, rng.random() < 0.5)
        used = {arg for atom in set(pre) | set(post) for arg in atom.args}
        if used != set(objs) or pre == post:
            continue
        changed = {atom: value for atom, value in post.items() if pre.get(atom) != value}
        return ActionSchema(
            name,
            tuple((obj, table.type_of(obj)) for obj in objs),
            frozenset(Literal(a, p) for a, p in pre.items()),
            frozenset(a for a, value in changed.items() if value),
            frozenset(a for a, value in changed.items() if not value),
        )


def random_library(
    rng: random.Random, operators: int | None = None, labels: Sequence[str] = OPERATOR_NAME_POOL
) -> OperatorLibrary:
    vocabulary, table = toy_schema()
    library = OperatorLibrary.empty(vocabulary, table)
    for _ in range(operators if operators is not None else rng.randint(2, 5)):
        op = random_grounded_operator(rng, rng.choice(labels))
        lifted = lift(op, table)
        merge(library, lifted)
        if rng.random() < 0.3:
            merge(library, lifted)
    return library


# Identifiers that PDDL reserves, spells differently or cannot spell at all,
# and labels of the form label_N, which variant_names() also gives.
HOSTILE_NAMES = (
    "object", "Object", "OBJECT", "define", "domain", "and", "not", "either", "number",
    "total-cost", "Block", "block", "BLOCK", "-", "a-b", "_", "_x", "1abc", "9", "é", "Ωmega",
    "Block_2", "and_2",
)


def hostile_library(rng: random.Random) -> OperatorLibrary:
    """A random library whose type, predicate and operator names all come
    from HOSTILE_NAMES; a type draws its parent from the types before it, or
    from ``object``, and ``object`` itself gets none."""
    type_names = rng.sample(HOSTILE_NAMES, rng.randint(1, 4))
    parents = {
        t: rng.choice(["object", *type_names[:i]])
        for i, t in enumerate(type_names)
        if t != "object" and rng.random() < 0.5
    }
    table = TypeTable({}, parents, frozenset(type_names))
    arg_types = [*type_names, "object"]
    vocabulary = Vocabulary(
        tuple(
            PredicateSignature(name, tuple(rng.choices(arg_types, k=rng.randint(0, 2))))
            for name in rng.sample(HOSTILE_NAMES, rng.randint(1, 4))
        )
    )
    library = OperatorLibrary.empty(vocabulary, table)
    for _ in range(rng.randint(1, 4)):
        objects = {f"o{i}": rng.choice(arg_types) for i in range(rng.randint(1, 3))}
        typed = table.with_instances(ObjectInstance(o, t) for o, t in objects.items())
        pool = [a for a in enumerate_atoms(vocabulary, objects, typed) if a.args]
        if not pool:
            continue
        needed = rng.sample(pool, rng.randint(0, min(3, len(pool))))
        pre = {atom: rng.random() < 0.5 for atom in needed}
        changed = {atom: not pre.get(atom, rng.random() < 0.5) for atom in rng.sample(pool, 1)}
        used = sorted({arg for atom in [*pre, *changed] for arg in atom.args})
        op = ActionSchema(
            rng.choice(HOSTILE_NAMES),
            tuple((o, objects[o]) for o in used),
            frozenset(Literal(a, value) for a, value in pre.items()),
            frozenset(a for a, value in changed.items() if value),
            frozenset(a for a, value in changed.items() if not value),
        )
        merge(library, lift(op, table))
    return library


def rules_to_json(rules: Sequence[ClassifierRule]) -> list:
    """The rules-file payload that ``segmentation.rules_from_json`` reads back."""
    payload = []
    for rule in rules:
        conditions = []
        for cond in rule.conditions:
            literal = [cond.predicate, *cond.args]
            if not cond.positive:
                literal = ["!", *literal]
            conditions.append({"scope": cond.scope, "literal": literal})
        payload.append(
            {
                "name": rule.name,
                "actor_type": rule.actor_type,
                "priority": rule.priority,
                "conditions": conditions,
            }
        )
    return payload


def random_planning_instance(
    rng: random.Random,
    atom_count: tuple[int, int] = (4, 7),
    action_count: tuple[int, int] = (4, 9),
) -> tuple[list[GroundedAction], State, list[Literal]]:
    """A small ground task over a number of atoms drawn from ``atom_count``
    and of actions from ``action_count`` (inclusive ranges); some draws are
    unsolvable on purpose. With fewer than two atoms a draw takes what there is."""
    sig = PredicateSignature("flag", ("Slot",))
    atoms = [GroundAtom(sig, (f"s{i}",)) for i in range(rng.randint(*atom_count))]

    def some(low, high):
        return rng.sample(atoms, min(len(atoms), rng.randint(low, high)))

    actions = []
    for i in range(rng.randint(*action_count)):
        pre = frozenset(Literal(a, rng.random() < 0.6) for a in some(0, 2))
        adds = set(some(0, 2))
        dels = set(some(0, 2)) - adds
        if not adds and not dels and atoms:
            adds = {rng.choice(atoms)}
        actions.append(
            GroundedAction(
                f"act{i}", (), pre, frozenset(adds), frozenset(dels), rng.randint(1, 5)
            )
        )
    init = State.of(a for a in atoms if rng.random() < 0.5)
    goal = [Literal(a, rng.random() < 0.7) for a in some(1, 3)]
    return actions, init, goal


def random_trace(rng: random.Random) -> Trace:
    vocabulary, table = toy_schema()
    atoms = toy_atoms()
    frames = []
    t = 0.0
    for _ in range(rng.randint(2, 9)):
        frames.append(Frame(t, frozenset(a for a in atoms if rng.random() < 0.3)))
        t += rng.choice([0.0, 0.25, 0.5])
    return Trace(vocabulary, table, tuple(frames), demonstrator="gen", scenario="random")


# Actor types for random rule tables: every toy type, the supertype Thing, and
# one type no object has, so that some tables find no actor at all.
_ACTOR_TYPES = ("Robot", "Block", "Zone", "Thing", "Drone")


def random_rule_table(rng: random.Random) -> list[ClassifierRule]:
    """1-4 rules with unique priorities over the toy vocabulary.

    Each rule has 1-3 conditions of either polarity in either scope, at
    least one of them a delta condition mentioning ``?actor``; arguments are
    ``?actor``, variables shared between conditions, or object ids.
    """
    vocabulary, _ = toy_schema()
    signatures = [sig for sig in vocabulary.signatures if sig.arity]
    objects = sorted(_OBJECT_TYPES)
    rules = []
    for priority in rng.sample(range(-5, 20), rng.randint(1, 4)):
        conditions = []
        for i in range(rng.randint(1, 3)):
            sig = rng.choice(signatures if i == 0 else vocabulary.signatures)
            args = [rng.choice(["?actor", "?x", "?y", rng.choice(objects)]) for _ in range(sig.arity)]
            if i == 0:
                args[rng.randrange(len(args))] = "?actor"
            scope = DELTA_SCOPE if i == 0 else rng.choice([DELTA_SCOPE, STATE_SCOPE])
            conditions.append(LiteralPattern(scope, rng.random() < 0.6, sig.name, tuple(args)))
        rng.shuffle(conditions)
        rules.append(
            ClassifierRule(rng.choice("abc"), rng.choice(_ACTOR_TYPES), priority, tuple(conditions))
        )
    return rules


# hypothesis strategies over the same toy schema

def atoms_st():
    return st.sampled_from(sorted(toy_atoms(), key=GroundAtom.sort_key))


def literals_st():
    return st.builds(Literal, atoms_st(), st.booleans())


def states_st():
    return st.builds(State.of, st.frozensets(atoms_st(), max_size=8))


bool_series_st = st.lists(st.booleans(), min_size=1, max_size=12)


@st.composite
def traces_st(draw):
    vocabulary, table = toy_schema()
    pool = sorted(toy_atoms(), key=GroundAtom.sort_key)
    count = draw(st.integers(min_value=2, max_value=8))
    frames = tuple(
        Frame(0.5 * i, frozenset(draw(st.frozensets(st.sampled_from(pool), max_size=6))))
        for i in range(count)
    )
    return Trace(vocabulary, table, frames)
