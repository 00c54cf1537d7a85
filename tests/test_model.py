import gc
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from demoplan.errors import InvalidEffect, SchemaError, ValidationError
from demoplan.model import (
    ActionSchema,
    GroundAtom,
    Literal,
    ObjectInstance,
    PredicateSignature,
    State,
    TypeTable,
    Vocabulary,
    apply,
    atom_from_list,
    atom_to_list,
    check_atom_types,
    holds,
    json_text,
    literal_from_list,
    literal_to_list,
    objects_to_json,
    satisfies,
)

from demoplan.cli import EXIT_INVALID, main
from demoplan.pddl import emit_domain, emit_problem, library_name_map, parse_domain, parse_problem
from demoplan.learning import library_to_dict, save_library
from demoplan.planner import derive_costs, ground, task_from_docs
from demoplan.synth import corpus_goals, initial_state, planning_objects
from demoplan.traces import load_trace, save_trace

import demoplan
from helpers import atoms_st, literals_st, states_st, toy_schema
from oracles import all_typed_atoms, enumerate_atoms, json_text_reference

ON = PredicateSignature("on", ("Block", "Block"))
CLEAR = PredicateSignature("clear", ("Block",))


def test_atom_arity_is_checked_at_construction():
    with pytest.raises(ValidationError):
        GroundAtom(ON, ("a",))
    with pytest.raises(ValidationError):
        GroundAtom(CLEAR, ("a", "b"))


def test_atom_and_literal_repr():
    atom = GroundAtom(ON, ("a", "b"))
    assert repr(atom) == "on(a,b)"
    assert repr(Literal(atom)) == "on(a,b)"
    assert repr(Literal(atom, False)) == "!on(a,b)"


def test_literal_sort_puts_positive_before_negative():
    atom = GroundAtom(CLEAR, ("a",))
    ordered = sorted([Literal(atom, False), Literal(atom)], key=Literal.sort_key)
    assert [l.positive for l in ordered] == [True, False]


def test_atoms_sort_by_name_then_args():
    a = GroundAtom(ON, ("a", "b"))
    b = GroundAtom(ON, ("a", "c"))
    c = GroundAtom(CLEAR, ("z",))
    assert sorted([b, a, c], key=GroundAtom.sort_key) == [c, a, b]


def test_state_membership_and_sorting():
    a = GroundAtom(CLEAR, ("a",))
    b = GroundAtom(CLEAR, ("b",))
    state = State.of([b, a, a])
    assert a in state and b in state
    assert GroundAtom(CLEAR, ("c",)) not in state
    assert state.sorted_atoms() == [a, b]


def test_holds_is_closed_world():
    a = GroundAtom(CLEAR, ("a",))
    b = GroundAtom(CLEAR, ("b",))
    state = State.of([a])
    assert holds(state, Literal(a))
    assert not holds(state, Literal(a, False))
    # b is absent, hence false
    assert holds(state, Literal(b, False))
    assert satisfies(state, [Literal(a), Literal(b, False)])
    assert not satisfies(state, [Literal(a), Literal(b)])


@given(states_st(), literals_st())
def test_a_literal_and_its_negation_never_both_hold(state, literal):
    assert holds(state, literal) != holds(state, literal.negated())


def test_apply_adds_and_deletes():
    a = GroundAtom(CLEAR, ("a",))
    b = GroundAtom(CLEAR, ("b",))
    out = apply(State.of([a]), adds=[b], dels=[a])
    assert out.true_atoms == frozenset([b])


def test_apply_rejects_overlapping_effects():
    a = GroundAtom(CLEAR, ("a",))
    with pytest.raises(InvalidEffect):
        apply(State(), adds=[a], dels=[a])


@given(states_st(), st.frozensets(atoms_st(), max_size=4), st.frozensets(atoms_st(), max_size=4))
def test_apply_result_contains_adds_and_no_dels(state, adds, dels):
    adds = adds - dels
    out = apply(state, adds, dels)
    assert adds <= out.true_atoms
    assert not (dels & out.true_atoms)


class TestTypeTable:
    def test_subtype_walks_parent_chain_and_is_reflexive(self):
        table = TypeTable({}, {"Cube": "Solid", "Solid": "Thing"})
        assert table.is_subtype("Cube", "Cube")
        assert table.is_subtype("Cube", "Thing")
        assert not table.is_subtype("Thing", "Cube")
        assert list(table.ancestors("Cube")) == ["Cube", "Solid", "Thing"]

    def test_cycles_are_rejected(self):
        with pytest.raises(SchemaError):
            TypeTable({}, {"A": "B", "B": "A"})
        with pytest.raises(SchemaError):
            TypeTable({}, {"A": "A"})

    def test_instances_of_includes_subtypes_sorted(self):
        table = TypeTable(
            {"c2": "Cube", "c1": "Cube", "t1": "Table"},
            {"Cube": "Thing", "Table": "Thing"},
        )
        assert table.instances_of("Thing") == ["c1", "c2", "t1"]
        assert table.instances_of("Cube") == ["c1", "c2"]
        assert table.objects() == [
            ObjectInstance("c1", "Cube"),
            ObjectInstance("c2", "Cube"),
            ObjectInstance("t1", "Table"),
        ]

    def test_object_is_the_implicit_root(self):
        table = TypeTable({"c1": "Cube", "t1": "Table", "x": "object"}, {"Cube": "object", "object": "object"})
        assert table.type_to_parent == {}
        assert table.types == {"Cube", "Table"}
        assert table.is_subtype("Cube", "object") and table.is_subtype("object", "object")
        assert not table.is_subtype("object", "Cube")
        assert table.instances_of("object") == ["c1", "t1", "x"]
        assert table.declares("object") and table.declares("Table") and not table.declares("Crate")
        assert table == TypeTable({"c1": "Cube", "t1": "Table", "x": "object"})

    def test_the_root_cannot_have_a_parent(self):
        with pytest.raises(SchemaError, match="root type 'object'"):
            TypeTable({}, {"object": "Thing"})

    def test_type_of_unknown_object_raises(self):
        with pytest.raises(ValidationError):
            TypeTable({}).type_of("ghost")

    def test_with_instances_rejects_retyping(self):
        table = TypeTable({"c1": "Cube"}, {}, frozenset({"Table"}))
        extended = table.with_instances([ObjectInstance("t1", "Table")])
        assert extended.type_of("t1") == "Table"
        with pytest.raises(SchemaError):
            table.with_instances([ObjectInstance("c1", "Table")])

    def test_with_instances_rejects_an_undeclared_type(self):
        table = TypeTable({}, {"Cube": "Block"})
        assert table.with_instances([ObjectInstance("x", "object")]).type_of("x") == "object"
        with pytest.raises(ValidationError, match="^object 'c1' has undeclared type 'Cub'$"):
            table.with_instances([ObjectInstance("b1", "Block"), ObjectInstance("c1", "Cub")])

    def test_merged_rejects_conflicting_parents(self):
        a = TypeTable({}, {"Cube": "Thing"})
        b = TypeTable({}, {"Cube": "Solid"})
        with pytest.raises(SchemaError):
            a.merged(b)
        merged = a.merged(TypeTable({"c1": "Cube", "b1": "Ball"}))
        assert merged.instance_to_type == {}
        assert merged.declares("Ball")
        assert merged.is_subtype("Cube", "Thing")


@pytest.mark.parametrize("entry", ["ground", "emit_problem", "parse_problem", "load_init"])
def test_every_entry_rejects_an_object_of_an_undeclared_type_alike(entry, corpus_library, tmp_path, capsys):
    """Wherever a task takes its objects, TypeTable.with_instances admits them.
    Typed Hnd, Left_hand would otherwise take part in no action (44 of the
    corpus's 88 would be left) and sit in a problem its own domain rejects."""
    retyped = [ObjectInstance(o.id, "Hnd" if o.id == "Left_hand" else o.type_id)
               for o in planning_objects()]
    goal = corpus_goals()["red_on_green"]
    message = "object 'Left_hand' has undeclared type 'Hnd'"
    if entry == "load_init":  # through plan --library --init
        save_library(corpus_library, tmp_path / "library.json")
        init = tmp_path / "init.json"
        init.write_text(json.dumps({"objects": objects_to_json(retyped), "atoms": []}))
        code = main(["plan", "--library", str(tmp_path / "library.json"), "--init", str(init),
                     "--goal", "onTop(Cube_red1,Cube_green1)"])
        assert (code, capsys.readouterr().err) == (EXIT_INVALID, f"error: {init}: {message}\n")
        return
    with pytest.raises(ValidationError) as caught:
        if entry == "ground":
            ground(corpus_library, iter(retyped), derive_costs(corpus_library))
        elif entry == "emit_problem":
            emit_problem(corpus_library, iter(retyped), initial_state(), goal)
        else:
            nm = library_name_map(corpus_library).extended(
                ["learned", "task", "Hnd", *(o.id for o in retyped)]
            )
            text = emit_problem(corpus_library, planning_objects(), initial_state(), goal)
            domain = parse_domain(emit_domain(corpus_library), nm)
            parse_problem(text.replace("left_hand - hand", "left_hand - hnd"), domain, nm)
    assert type(caught.value) is ValidationError and str(caught.value) == message


class TestVocabulary:
    def test_a_predicate_needs_a_name(self):
        with pytest.raises(SchemaError, match="predicate name must be nonempty"):
            PredicateSignature("", ("Block",))

    def test_signatures_are_sorted_and_unique(self):
        vocab = Vocabulary((ON, CLEAR))
        assert [s.name for s in vocab.signatures] == ["clear", "on"]
        with pytest.raises(SchemaError):
            Vocabulary((ON, PredicateSignature("on", ("Block",))))

    def test_atom_builder_checks_the_name(self):
        vocab = Vocabulary((ON,))
        assert vocab.atom("on", "a", "b") == GroundAtom(ON, ("a", "b"))
        with pytest.raises(SchemaError):
            vocab.atom("off", "a")

    def test_merged_requires_identical_signatures(self):
        vocab = Vocabulary((ON,))
        widened = vocab.merged(Vocabulary((CLEAR,)))
        assert "clear" in widened and "on" in widened
        with pytest.raises(SchemaError):
            vocab.merged(Vocabulary((PredicateSignature("on", ("Block", "Table")),)))


def test_check_atom_types_accepts_subtypes_and_rejects_strangers():
    table = TypeTable({"c1": "Cube", "t1": "Table"}, {"Cube": "Thing"})
    sig = PredicateSignature("touching", ("Thing", "Table"))
    check_atom_types(GroundAtom(sig, ("c1", "t1")), table)
    with pytest.raises(ValidationError):
        check_atom_types(GroundAtom(sig, ("t1", "t1")), table)
    with pytest.raises(ValidationError):
        check_atom_types(GroundAtom(sig, ("c1", "nobody")), table)


def test_action_schema_requires_a_positive_integer_cost():
    assert ActionSchema("noop", (), frozenset(), frozenset(), frozenset()).cost == 1
    for bad in (0, -2, 1.5, "3"):
        with pytest.raises(ValidationError, match="positive integer"):
            ActionSchema("noop", (), frozenset(), frozenset(), frozenset(), bad)


class TestActionSchemaParameters:
    """Every argument of an action is one of its distinct parameters, and no
    precondition atom is required both true and false."""

    PARAMS = (("?a", "Block"), ("?b", "Block"))

    def test_an_argument_that_is_no_parameter_is_rejected(self):
        stray = GroundAtom(ON, ("?a", "table"))
        with pytest.raises(ValidationError, match=r"action 'stack' mentions non-parameters \['table'\]"):
            ActionSchema("stack", self.PARAMS, frozenset(), frozenset([stray]), frozenset())
        with pytest.raises(ValidationError, match="non-parameters"):
            ActionSchema("stack", self.PARAMS, frozenset([Literal(stray)]), frozenset(), frozenset())

    def test_a_repeated_parameter_is_rejected(self):
        with pytest.raises(ValidationError, match="action 'stack' repeats a parameter"):
            ActionSchema("stack", (("?a", "Block"), ("?a", "Block")), frozenset(), frozenset(), frozenset())

    def test_a_precondition_with_both_polarities_is_rejected(self):
        clear = GroundAtom(CLEAR, ("?a",))
        pre = frozenset([Literal(clear), Literal(clear, False)])
        with pytest.raises(ValidationError, match="action 'stack' has contradictory preconditions"):
            ActionSchema("stack", self.PARAMS, pre, frozenset(), frozenset())


def test_enumerate_atoms_matches_brute_force():
    vocabulary, table = toy_schema()
    got = list(enumerate_atoms(vocabulary, sorted(table.instance_to_type), table))
    expected = all_typed_atoms(
        vocabulary.signatures, dict(table.instance_to_type), dict(table.type_to_parent)
    )
    assert {(a.name, a.args) for a in got} == expected
    assert len(got) == len(expected)
    for atom in got:
        check_atom_types(atom, table)


def test_enumerate_atoms_includes_repeated_arguments():
    table = TypeTable({"a": "Block", "b": "Block"})
    atoms = list(enumerate_atoms(Vocabulary((ON,)), ["a", "b"], table))
    assert GroundAtom(ON, ("a", "a")) in atoms
    assert len(atoms) == 4


@given(literals_st())
def test_literal_list_codec_round_trips(literal):
    vocabulary, _ = toy_schema()
    entry = literal_to_list(literal)
    assert json.loads(json.dumps(entry)) == entry
    assert literal_from_list(entry, vocabulary) == literal


def test_atom_codec_shape():
    vocabulary, _ = toy_schema()
    atom = vocabulary.atom("at", "bot1", "zone_1")
    assert atom_to_list(atom) == ["at", "bot1", "zone_1"]
    assert literal_to_list(Literal(atom, False)) == ["!", "at", "bot1", "zone_1"]
    assert atom_from_list(["at", "bot1", "zone_1"], vocabulary) == atom
    with pytest.raises(SchemaError):
        atom_from_list([], vocabulary)
    with pytest.raises(SchemaError):
        atom_from_list(["at", 3], vocabulary)
    with pytest.raises(SchemaError):
        literal_from_list([], vocabulary)


class TestHashOnce:
    """Signatures, atoms and literals hash once, at construction, to the
    value the dataclass would compute, whichever code path built them, and a
    pickle never carries that value into another process."""

    @given(literals_st())
    def test_cached_hash_is_the_dataclass_hash(self, literal):
        atom, sig = literal.atom, literal.atom.predicate
        assert hash(sig) == hash((sig.name, sig.arg_types))
        assert hash(atom) == hash((atom.predicate, atom.args))
        assert hash(literal) == hash((literal.atom, literal.positive))
        assert pickle.loads(pickle.dumps(literal)) == literal

    def test_every_source_builds_equal_values(self, corpus_demos, corpus_library, tmp_path):
        costs = derive_costs(corpus_library)
        goal = corpus_goals()["tower_blue_red_green"]
        grounded = ground(corpus_library, planning_objects(), costs)
        names = library_name_map(corpus_library)
        domain = parse_domain(emit_domain(corpus_library, costs.costs), names)
        problem = parse_problem(
            emit_problem(corpus_library, planning_objects(), initial_state(), goal),
            domain,
            names.extended(["task", "learned"] + [o.id for o in planning_objects()]),
        )
        parsed, parsed_init, parsed_goal = task_from_docs(domain, problem)
        save_trace(corpus_demos[0].trace, tmp_path / "trace.json")
        frames = load_trace(tmp_path / "trace.json").frames

        def values(actions):
            return {l for a in actions for l in a.pre} | {x for a in actions for x in a.adds}

        def grounded_atoms(actions):
            return {l.atom for a in actions for l in a.pre} | {x for a in actions for x in a.adds}

        # grounding a library and a parsed domain
        assert values(grounded) == values(parsed) and len(values(grounded)) > 50
        # lifting, and parsing the domain it was emitted as
        assert values(corpus_library.schemas()) == values(domain.actions)
        # parsing a problem, and the synthetic scene it was emitted from
        assert parsed_init.true_atoms == initial_state().true_atoms
        assert set(parsed_goal) == set(goal)
        # loading a trace, against grounded atoms of the same objects
        by_key = {a.sort_key(): a for a in grounded_atoms(grounded)}
        loaded = [atom for frame in frames for atom in frame.true_atoms]
        matched = [atom for atom in loaded if atom.sort_key() in by_key]
        assert len(matched) > 10
        for atom in matched:
            twin = by_key[atom.sort_key()]
            assert atom == twin and hash(atom) == hash(twin)

    def test_pickles_rehash_in_the_loading_process(self):
        """Pickled under one PYTHONHASHSEED, loaded under another, every value
        must be found in a set of the same values built fresh there."""
        src = str(Path(demoplan.__file__).resolve().parent.parent)
        path = os.pathsep.join([src, str(Path(__file__).resolve().parent)])

        def run(seed, mode, data=None):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=path)
            proc = subprocess.run(
                [sys.executable, "-c", _PICKLE_SCRIPT, mode],
                input=data, capture_output=True, env=env, timeout=120, check=True,
            )
            return proc.stdout

        dumped = run(1, "dump")
        found, total = run(2, "load", dumped).decode().split()
        assert found == total and int(total) > 100


_PICKLE_SCRIPT = """
import pickle, sys
from demoplan.model import Literal
from oracles import enumerate_atoms
from demoplan.synth import planning_objects, stacking_types, stacking_vocabulary
ids = [o.id for o in planning_objects()]
atoms = list(enumerate_atoms(stacking_vocabulary(), ids, stacking_types()))
values = atoms + [Literal(a, p) for a in atoms for p in (True, False)]
values += [a.predicate for a in atoms]
if sys.argv[1] == "dump":
    sys.stdout.buffer.write(pickle.dumps(values))
else:
    fresh = set(values)
    loaded = pickle.loads(sys.stdin.buffer.read())
    print(sum(value in fresh for value in loaded), len(loaded))
"""


_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([-0.0, 1e16, 5e-324, float("nan"), float("inf"), float("-inf")])
    | st.text()
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.lists(st.text(), max_size=4)
        | st.dictionaries(st.text(), inner, max_size=4)
    ),
    max_leaves=24,
)


@given(_JSON_VALUES)
@example({"atoms": [["onTop", "a", "b"], ("!", "\u00fc\x00\n\"")], "empty": [[], {}, ()]})
@example(["first a string", 1, ["then a list"], None, True, -0.0])
def test_json_text_writes_the_bytes_of_the_standard_encoder(payload):
    assert json_text(payload) == json_text_reference(payload)


def test_json_text_leaves_no_garbage_cycle(corpus_library):
    payload = json.loads(json_text_reference(library_to_dict(corpus_library)))
    gc.collect()
    gc.disable()
    try:
        json_text(payload)
        assert gc.collect() == 0
    finally:
        gc.enable()
