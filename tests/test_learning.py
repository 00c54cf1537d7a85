import copy
import random
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from demoplan import learning
from demoplan.errors import NoEffectSegment, SchemaError, ValidationError
from demoplan.learning import (
    OperatorLibrary,
    build_library,
    canonical_key,
    extract,
    learn_from_trace,
    library_from_dict,
    library_to_dict,
    lift,
    load_library,
    merge,
    save_library,
)
from demoplan.model import (
    ActionSchema,
    GroundAtom,
    Literal,
    PredicateSignature,
    TypeTable,
    Vocabulary,
    json_text,
)
from demoplan.segmentation import DEFAULT_RULES, Segment, segment
from demoplan.synth import GREEN, RED, RIGHT_HAND, TABLE, inject_flicker, stacking_demo
from demoplan.traces import Frame, Trace, debounce, load_trace

from helpers import random_grounded_operator, random_library, random_trace, toy_schema, traces_st
from oracles import extract_reference, library_from_dict_reference, operators_equivalent


def _changed(op: ActionSchema) -> list[GroundAtom]:
    return sorted(op.adds | op.dels, key=GroundAtom.sort_key)


def _matches_reference(trace: Trace, seg: Segment) -> bool:
    """Assert that extract agrees with the oracle on one segment, a segment
    without change included; True when the segment had an effect."""
    try:
        expected = extract_reference(trace, seg)
    except NoEffectSegment:
        with pytest.raises(NoEffectSegment):
            extract(trace, seg)
        return False
    assert extract(trace, seg) == expected
    return True

EXPECTED_PUT_PRE = {
    "!handMove(?h1)",
    "!handOpen(?h1)",
    "inHand(?h1,?w1)",
    "inTouch(?w1,?t1)",
    "onTop(?w1,?t1)",
}
EXPECTED_PUT_ADDS = {"handMove(?h1)"}
EXPECTED_PUT_DELS = {"inTouch(?w1,?t1)", "onTop(?w1,?t1)"}


def _relabel(op: ActionSchema, mapping: dict) -> ActionSchema:
    def sub(atom):
        return GroundAtom(atom.predicate, tuple(mapping.get(a, a) for a in atom.args))

    return ActionSchema(
        op.name,
        tuple((mapping.get(o, o), t) for o, t in op.params),
        frozenset(Literal(sub(l.atom), l.positive) for l in op.pre),
        frozenset(map(sub, op.adds)),
        frozenset(map(sub, op.dels)),
    )


class TestOperatorInvariants:
    def test_lifted_operator_rejects_unused_params_and_empty_deltas(self):
        """A library file entry is checked where it is read; learn never writes these."""
        cases = [
            ([["?t1", "T"], ["?t2", "T"]], [["p", "?t1"]], [["!", "p", "?t1"]], 1,
             "operator 'op' has unused parameter(s) ['?t2']"),
            ([["?t1", "T"]], [["p", "?t1"]], [["p", "?t1"]], 1, "operator 'op' has no effect"),
            ([["?t1", "T"]], [["p", "?t1"]], [["!", "p", "?t1"]], 0,
             "operator 'op' needs a positive count"),
            ([["?t1", "T"]], [["p", "?t1"]], [["p", "?t1"], ["!", "p", "?t1"]], 1,
             "op post contains p(?t1) with both polarities"),
            ([["?t1", "T"]], [], [["p", "?t1"], ["!", "p", "?t1"]], 1,
             "op post contains p(?t1) with both polarities"),
            ([["?t1", "T"], ["?t1", "T"]], [["p", "?t1"]], [["!", "p", "?t1"]], 1,
             "action 'op' repeats a parameter: ['?t1', '?t1']"),
            ([["?t1", "T"]], [["p", "?t1"]], [["!", "p", "?t2"]], 1,
             "action 'op' mentions non-parameters ['?t2']"),
            ([["?t1", "T"]], [["p", "?t1"], ["!", "p", "?t1"]], [["p", "?t1"]], 1,
             "action 'op' has contradictory preconditions"),
        ]
        for params, pre, post, count, message in cases:
            entry = {"name": "op", "params": params, "pre": pre, "post": post, "count": count}
            payload = {
                "vocabulary": [{"name": "p", "arg_types": ["T"]}],
                "types": {"all": ["T"]},
                "operators": [entry],
            }
            with pytest.raises(ValidationError) as caught:
                library_from_dict(payload)
            assert str(caught.value) == f"operator 0: {message}"

    def test_delta_reports_what_changed(self):
        sig = PredicateSignature("p", ("T",))
        a = GroundAtom(sig, ("t1",))
        ground = ActionSchema(
            "op", (("t1", "T"),), frozenset([Literal(a, False)]), frozenset([a]), frozenset()
        )
        op = lift(ground, TypeTable({"t1": "T"}))
        assert op.adds == frozenset([GroundAtom(sig, ("?t1",))]) and op.dels == frozenset()
        assert op.pre == frozenset([Literal(GroundAtom(sig, ("?t1",)), False)])

    def test_too_many_objects_is_an_error(self):
        sig = PredicateSignature("row", tuple("ABCDEF"))
        table = TypeTable({c.lower(): c for c in "ABCDEF"})
        atom = GroundAtom(sig, tuple(c.lower() for c in "ABCDEF"))
        op = ActionSchema(
            "wide", tuple((c.lower(), c) for c in "ABCDEF"),
            frozenset([Literal(atom, False)]), frozenset([atom]), frozenset(),
        )
        with pytest.raises(ValidationError):
            lift(op, table)


class TestExtraction:
    def test_changed_atoms_and_relevant_objects(self, fixture_path):
        trace = load_trace(fixture_path)
        op = extract(trace, Segment("put", "Right_hand", 1, 2))
        assert [repr(a) for a in _changed(op)] == [
            "handMove(Right_hand)",
            "inTouch(Cube_green1,Table_1)",
            "onTop(Cube_green1,Table_1)",
        ]
        # the actor always leads; the rest follow in atom order, each with its type
        assert op.params == (
            ("Right_hand", "Hand"), ("Cube_green1", "Wooden_cube"), ("Table_1", "Table")
        )
        assert {repr(l) for l in op.pre} == {
            "!handMove(Right_hand)",
            "!handOpen(Right_hand)",
            "inHand(Right_hand,Cube_green1)",
            "inTouch(Cube_green1,Table_1)",
            "onTop(Cube_green1,Table_1)",
        }

    def test_extracted_literals_stay_inside_relevant_objects(self, corpus_demos):
        for demo in corpus_demos[:4]:
            trace = debounce(demo.trace)
            for seg in segment(trace, DEFAULT_RULES):
                op = extract(trace, seg)
                objects = [obj for obj, _ in op.params]
                for atom in (*(l.atom for l in op.pre), *op.adds, *op.dels):
                    assert set(atom.args) <= set(objects)
                assert objects[0] == seg.actor
                assert set(objects) == {seg.actor}.union(*(atom.args for atom in _changed(op)))

    def test_extract_matches_the_reference_on_the_corpus(self, corpus_demos, fixture_path):
        traces = [load_trace(fixture_path)]
        for seed in range(20):
            noisy = inject_flicker(corpus_demos[seed % len(corpus_demos)].trace, seed)
            traces += [noisy, debounce(noisy)]
        traces += [demo.trace for demo in corpus_demos]
        checked = 0
        for trace in traces:
            for seg in segment(trace, DEFAULT_RULES):
                checked += _matches_reference(trace, seg)
        assert checked > 300

    def test_extract_matches_the_reference_on_random_traces(self):
        rng = random.Random(11)
        outcomes = set()
        for _ in range(150):
            trace = random_trace(rng)
            # a closing copy of the first frame gives a segment with no effect
            last = Frame(trace.frames[-1].timestamp, trace.frames[0].true_atoms)
            trace = replace(trace, frames=trace.frames + (last,))
            actors = sorted(trace.types.instance_to_type)
            for end in range(1, len(trace.frames)):
                for start in range(end):
                    seg = Segment("act", rng.choice(actors), start, end)
                    outcomes.add(_matches_reference(trace, seg))
        assert outcomes == {True, False}

    @given(traces_st(), st.data())
    def test_extract_matches_the_reference_on_drawn_traces(self, trace, data):
        end = data.draw(st.integers(1, len(trace.frames) - 1))
        start = data.draw(st.integers(0, end - 1))
        actor = data.draw(st.sampled_from(sorted(trace.types.instance_to_type)))
        _matches_reference(trace, Segment("act", actor, start, end))

    def test_segment_without_change_raises(self):
        vocabulary, table = toy_schema()
        frames = (Frame(0.0, frozenset()), Frame(1.0, frozenset()))
        trace = Trace(vocabulary, table, frames)
        with pytest.raises(NoEffectSegment):
            extract(trace, Segment("noop", "bot1", 0, 1))

    def test_put_is_lifted_to_the_expected_literals(self, fixture_path):
        trace = load_trace(fixture_path)
        op = lift(extract(trace, Segment("put", "Right_hand", 1, 2)), trace.types)
        assert op.params == (("?h1", "Hand"), ("?t1", "Table"), ("?w1", "Wooden_cube"))
        assert {repr(l) for l in op.pre} == EXPECTED_PUT_PRE
        assert {repr(a) for a in op.adds} == EXPECTED_PUT_ADDS
        assert {repr(a) for a in op.dels} == EXPECTED_PUT_DELS
        assert op.cost == 1


class TestCanonicalization:
    def test_params_are_grouped_by_sorted_type(self):
        rng = random.Random(11)
        for _ in range(25):
            op = lift(random_grounded_operator(rng, "probe"), toy_schema()[1])
            types = [t for _, t in op.params]
            assert types == sorted(types)

    def test_variable_names_number_within_each_first_letter(self):
        sig = PredicateSignature("beside", ("Table", "Thing"))
        table = TypeTable({"t1": "Table", "x1": "Thing"})
        atom = GroundAtom(sig, ("t1", "x1"))
        op = ActionSchema(
            "park", (("t1", "Table"), ("x1", "Thing")),
            frozenset([Literal(atom, False)]), frozenset([atom]), frozenset(),
        )
        lifted = lift(op, table)
        # Table and Thing share a first letter, so the counter disambiguates
        assert lifted.params == (("?t1", "Table"), ("?t2", "Thing"))

    def test_key_is_invariant_under_object_renaming(self):
        rng = random.Random(23)
        _, table = toy_schema()
        swaps = {"blockA": "blockB", "blockB": "blockA", "zone_1": "zone_2", "zone_2": "zone_1"}
        for _ in range(40):
            op = random_grounded_operator(rng, rng.choice(("go", "flip")))
            twin = _relabel(op, swaps)
            assert canonical_key(lift(op, table)) == canonical_key(lift(twin, table))
            assert operators_equivalent(lift(op, table), lift(twin, table))

    def test_key_separates_different_behavior(self, fixture_path):
        trace = load_trace(fixture_path)
        put = lift(extract(trace, Segment("put", "Right_hand", 1, 2)), trace.types)
        place = lift(extract(trace, Segment("place", "Right_hand", 3, 4)), trace.types)
        assert canonical_key(put) != canonical_key(place)
        assert not operators_equivalent(put, place)

    def test_key_depends_on_the_rule_label(self):
        vocabulary, table = toy_schema()
        op = random_grounded_operator(random.Random(3), "lhs")
        renamed = replace(op, name="rhs")
        assert canonical_key(lift(op, table)) != canonical_key(lift(renamed, table))


    def test_key_is_computed_once_and_kept(self, monkeypatch, corpus_demos):
        """canonical_key reads, without a search, the key that the search of
        the canonical form found; learning computes it once per operator."""
        _, table = toy_schema()
        rng = random.Random(5)
        for _ in range(40):
            grounded = random_grounded_operator(rng, "go")
            op, key = learning._canonical_form(grounded)
            assert lift(grounded, table) == op
            assert canonical_key(op) == key
            # a schema built by hand has the same key; the cost takes no part
            assert canonical_key(ActionSchema(op.name, op.params, op.pre, op.adds, op.dels, 3)) == key
        calls = []
        real = learning.canonical_key
        monkeypatch.setattr(learning, "canonical_key", lambda op: calls.append(op) or real(op))
        build_library([d.trace for d in corpus_demos], DEFAULT_RULES)
        assert len(calls) == 90

    def test_canonical_form_runs_once_per_operator(self, monkeypatch, corpus_demos, corpus_library):
        calls = []
        real = learning._canonical_form

        def counting(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(learning, "_canonical_form", counting)
        build_library([d.trace for d in corpus_demos], DEFAULT_RULES)
        segments = sum(len(d.segments) for d in corpus_demos)
        assert segments == 90
        assert len(calls) == segments
        calls.clear()
        library_from_dict(library_to_dict(corpus_library))
        assert len(calls) == len(corpus_library.operators) == 7


class TestLibrary:
    def test_merge_bumps_the_count_of_an_equivalent_twin(self):
        vocabulary, table = toy_schema()
        library = OperatorLibrary.empty(vocabulary, table)
        op = lift(random_grounded_operator(random.Random(9), "dock"), table)
        merge(library, op)
        merge(library, op)
        assert library.counts == {canonical_key(op): 2}
        assert library.operators == {canonical_key(op): op}

    def test_merge_carries_incoming_counts(self):
        vocabulary, table = toy_schema()
        library = OperatorLibrary.empty(vocabulary, table)
        op = lift(random_grounded_operator(random.Random(9), "dock"), table)
        merge(library, op)
        merge(library, op, count=4)
        assert library.counts[canonical_key(op)] == 5

    def test_merge_rejects_operators_outside_the_schema(self):
        vocabulary, table = toy_schema()
        library = OperatorLibrary.empty(vocabulary, table)
        alien_sig = PredicateSignature("alien", ("Robot",))
        lit = Literal(GroundAtom(alien_sig, ("?r1",)))
        op = ActionSchema(
            "visit", (("?r1", "Robot"),), frozenset([lit.negated()]), frozenset([lit.atom]), frozenset()
        )
        with pytest.raises(SchemaError):
            merge(library, op)

    def test_variant_names_suffix_repeated_labels(self, corpus_library):
        names = sorted(corpus_library.variant_names().values())
        assert names == ["grasp", "place", "place_2", "put", "reach", "reach_2", "release"]

    def test_absorb_schema_rejects_conflicts(self):
        vocabulary, table = toy_schema()
        library = OperatorLibrary.empty(vocabulary, table)
        with pytest.raises(SchemaError):
            library.absorb_schema(
                Vocabulary((PredicateSignature("at", ("Robot",)),)), table
            )
        # a new predicate beside a conflicting type parent changes nothing
        before = (library.vocabulary, library.types)
        with pytest.raises(SchemaError):
            library.absorb_schema(
                Vocabulary((PredicateSignature("lit", ("Zone",)),)),
                TypeTable({}, {"Block": "Zone"}),
            )
        assert (library.vocabulary, library.types) == before


class TestLearning:
    def test_fixture_report(self, fixture_path):
        trace = load_trace(fixture_path)
        library = OperatorLibrary.empty(trace.vocabulary, trace.types)
        report = learn_from_trace(library, trace, DEFAULT_RULES, source="fixture")
        assert report.source == "fixture"
        assert report.added == ["put (count 1)", "place (count 1)", "release (count 1)"]
        assert report.incremented == []
        assert report.dropped_no_effect == 0
        assert len(library.operators) == 3

    def test_relearning_increments_instead_of_adding(self, fixture_path):
        trace = load_trace(fixture_path)
        library = OperatorLibrary.empty(trace.vocabulary, trace.types)
        learn_from_trace(library, trace, DEFAULT_RULES)
        report = learn_from_trace(library, trace, DEFAULT_RULES)
        assert report.added == []
        assert report.incremented == ["put (count 2)", "place (count 2)", "release (count 2)"]

    def test_report_uses_the_names_the_library_ends_with(self):
        """A variant merged later in the same trace may sort before one that
        was already merged; the report names both as the library does."""
        demo = stacking_demo("p9", RIGHT_HAND, ((RED, TABLE, GREEN), (RED, GREEN, TABLE)))
        library = OperatorLibrary.empty(demo.trace.vocabulary, demo.trace.types)
        report = learn_from_trace(library, demo.trace, DEFAULT_RULES)
        names = library.variant_names()
        assert sorted(label.split()[0] for label in report.added) == sorted(names.values())
        assert report.added == [
            "reach (count 1)", "grasp (count 1)", "put (count 1)", "place_2 (count 1)",
            "release (count 1)", "reach_2 (count 1)", "put_2 (count 1)", "place (count 1)",
        ]
        assert report.incremented == ["grasp (count 2)", "release (count 2)"]

    def test_a_failing_trace_leaves_the_library_unchanged(self, corpus_demos):
        first, trace = corpus_demos[1].trace, corpus_demos[0].trace
        library = OperatorLibrary.empty(first.vocabulary, first.types)
        learn_from_trace(library, first, DEFAULT_RULES)
        before = library_to_dict(library)
        # From frame 9 on, the actor's last segment also touches four cubes
        # and the other hand: six objects, one more than an operator may take.
        v = trace.vocabulary
        cubes = ("Cube_red1", "Cube_green1", "Cube_blue1", "Cube_yellow1")
        extra = {v.atom("graspable", c) for c in cubes}
        extra.add(v.atom("inTouch", "Cube_yellow1", "Left_hand"))
        frames = trace.frames[:9] + tuple(
            Frame(f.timestamp, f.true_atoms | extra) for f in trace.frames[9:]
        )
        with pytest.raises(ValidationError, match="touches 6 objects"):
            learn_from_trace(library, replace(trace, frames=frames), DEFAULT_RULES)
        assert library_to_dict(library) == before

    def test_corpus_library_contents(self, corpus_library):
        names = corpus_library.variant_names()
        by_name = {names[key]: count for key, count in corpus_library.counts.items()}
        assert by_name == {
            "grasp": 18,
            "place": 6,
            "place_2": 12,
            "put": 18,
            "reach": 12,
            "reach_2": 6,
            "release": 18,
        }
        # every demonstration contributes five segments, none dropped
        assert sum(by_name.values()) == 90

    def test_build_library_requires_traces(self):
        with pytest.raises(ValidationError, match="no traces supplied"):
            build_library([], DEFAULT_RULES)

    def test_an_empty_library_learns_what_one_holding_the_first_schema_learns(self, corpus_demos):
        clean = [d.trace for d in corpus_demos]
        noisy = [[inject_flicker(trace, seed) for trace in clean] for seed in range(1, 6)]
        for traces in [clean, *noisy]:
            empty, seeded = OperatorLibrary(), OperatorLibrary.empty(traces[0].vocabulary, traces[0].types)
            for library in (empty, seeded):
                for trace in traces:
                    learn_from_trace(library, trace, DEFAULT_RULES)
            assert json_text(library_to_dict(empty)) == json_text(library_to_dict(seeded))

    def test_build_order_does_not_matter(self, corpus_demos, corpus_library):
        rng = random.Random(77)
        traces = [d.trace for d in corpus_demos]
        for _ in range(3):
            rng.shuffle(traces)
            shuffled = build_library(traces, DEFAULT_RULES)
            assert shuffled.counts == corpus_library.counts
            assert shuffled.variant_names() == corpus_library.variant_names()

    def test_learning_twice_doubles_every_count(self, corpus_demos, corpus_library):
        traces = [d.trace for d in corpus_demos]
        doubled = build_library(traces + traces, DEFAULT_RULES)
        assert doubled.counts == {k: 2 * v for k, v in corpus_library.counts.items()}


class TestLibraryFiles:
    def test_round_trip(self, tmp_path, corpus_library):
        path = tmp_path / "library.json"
        save_library(corpus_library, path)
        loaded = load_library(path)
        assert loaded.counts == corpus_library.counts
        assert loaded.vocabulary == corpus_library.vocabulary
        assert loaded.types.type_to_parent == corpus_library.types.type_to_parent
        assert loaded.operators == corpus_library.operators

    def test_payload_keys_are_recomputed_on_load(self, corpus_library):
        payload = library_to_dict(corpus_library)
        assert set(payload) >= {"vocabulary", "operators", "pddl_names"}
        loaded = library_from_dict(payload)
        assert set(loaded.operators) == set(corpus_library.operators)

    @staticmethod
    def assert_loads_as_the_reference_does(payload):
        loaded, expected = library_from_dict(payload), library_from_dict_reference(payload)
        assert loaded.operators == expected.operators
        assert loaded.counts == expected.counts
        assert (loaded.vocabulary, loaded.types) == (expected.vocabulary, expected.types)
        assert all(canonical_key(op) == key for key, op in loaded.operators.items())
        assert json_text(library_to_dict(loaded)) == json_text(library_to_dict(expected))

    def test_learned_libraries_load_as_the_reference_does(self, corpus_demos, corpus_library):
        self.assert_loads_as_the_reference_does(library_to_dict(corpus_library))
        for seed in range(1, 6):
            traces = [inject_flicker(demo.trace, seed) for demo in corpus_demos]
            payload = library_to_dict(build_library(traces, DEFAULT_RULES))
            self.assert_loads_as_the_reference_does(payload)

    def test_random_libraries_with_shuffled_parameters_load_as_the_reference_does(self):
        rng = random.Random(29)
        for _ in range(200):
            payload = library_to_dict(random_library(rng))
            self.assert_loads_as_the_reference_does(payload)
            for entry in payload["operators"]:
                rng.shuffle(entry["params"])
            self.assert_loads_as_the_reference_does(payload)

    def test_a_canonical_entry_is_not_renamed_again(self, monkeypatch, corpus_library):
        calls = []
        real = learning._substituted
        monkeypatch.setattr(learning, "_substituted", lambda *args: calls.append(1) or real(*args))
        payload = library_to_dict(corpus_library)
        assert library_from_dict(payload).operators == corpus_library.operators
        assert calls == []
        entry = payload["operators"][0]
        renaming = {v: f"?o{i}" for i, (v, _) in enumerate(entry["params"])}
        entry["params"] = [[renaming[v], t] for v, t in entry["params"]]
        for side in ("pre", "post"):
            entry[side] = [[renaming.get(part, part) for part in lit] for lit in entry[side]]
        assert library_from_dict(payload).operators == corpus_library.operators
        assert calls == [1]  # that one entry

    def test_an_entry_in_another_parameter_order_saves_in_canonical_form(self, corpus_library):
        """An entry written by hand is stored as learn would have written it."""
        payload = library_to_dict(corpus_library)
        edited = copy.deepcopy(payload)
        for entry in edited["operators"]:
            # reverse the parameters and rename them, so each entry must be canonicalized
            renaming = {v: f"?o{i}" for i, (v, _) in enumerate(reversed(entry["params"]))}
            entry["params"] = [[renaming[v], t] for v, t in reversed(entry["params"])]
            for side in ("pre", "post"):
                entry[side] = [[renaming.get(part, part) for part in lit] for lit in entry[side][::-1]]
        assert edited != payload
        loaded = library_from_dict(edited)
        assert loaded.operators == corpus_library.operators
        assert json_text(library_to_dict(loaded)) == json_text(payload)

    def test_duplicate_operators_in_a_file_are_rejected(self, corpus_library):
        payload = library_to_dict(corpus_library)
        payload["operators"].append(payload["operators"][0])
        with pytest.raises(SchemaError, match=r"^operator 7: library file repeats operator 'grasp'"):
            library_from_dict(payload)
        # an entry outside the library's schema is named by its place too
        payload = library_to_dict(corpus_library)
        payload["operators"][3]["params"][0][1] = "Robot"
        with pytest.raises(SchemaError, match=r"^operator 3: operator 'put' uses unknown type 'Robot'"):
            library_from_dict(payload)
