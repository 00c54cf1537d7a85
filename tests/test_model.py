import json

import pytest
from hypothesis import given
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
    enumerate_atoms,
    holds,
    literal_from_list,
    literal_to_list,
    satisfies,
)

from helpers import atoms_st, literals_st, states_st, toy_schema
from oracles import all_typed_atoms

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

    def test_type_of_unknown_object_raises(self):
        with pytest.raises(ValidationError):
            TypeTable({}).type_of("ghost")

    def test_with_instances_rejects_retyping(self):
        table = TypeTable({"c1": "Cube"})
        extended = table.with_instances([ObjectInstance("t1", "Table")])
        assert extended.type_of("t1") == "Table"
        with pytest.raises(SchemaError):
            table.with_instances([ObjectInstance("c1", "Table")])

    def test_merged_rejects_conflicting_parents(self):
        a = TypeTable({}, {"Cube": "Thing"})
        b = TypeTable({}, {"Cube": "Solid"})
        with pytest.raises(SchemaError):
            a.merged(b)
        merged = a.merged(TypeTable({"c1": "Cube"}))
        assert merged.type_of("c1") == "Cube"
        assert merged.is_subtype("Cube", "Thing")


class TestVocabulary:
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
