import copy
import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from demoplan.errors import InputError, ParseError, ValidationError
from demoplan.synth import corpus, inject_flicker
from demoplan.model import GroundAtom, PredicateSignature, TypeTable, Vocabulary
from demoplan.traces import (
    DebounceConfig,
    Frame,
    Trace,
    _debounced_series,
    debounce,
    load_trace,
    save_trace,
    trace_from_dict,
    trace_to_dict,
)

from helpers import bool_series_st, random_trace, traces_st
from oracles import debounced_reference, trace_from_dict_reference

SIG = PredicateSignature("lit", ("Lamp",))
VOCAB = Vocabulary((SIG,))
TABLE = TypeTable({"l1": "Lamp", "l2": "Lamp"})
A1 = GroundAtom(SIG, ("l1",))
A2 = GroundAtom(SIG, ("l2",))


def _trace(memberships, timestamps=None):
    frames = tuple(
        Frame(timestamps[i] if timestamps else float(i), frozenset(atoms))
        for i, atoms in enumerate(memberships)
    )
    return Trace(VOCAB, TABLE, frames)


def test_trace_needs_two_frames():
    with pytest.raises(ValidationError):
        _trace([{A1}])


def test_timestamps_must_not_decrease():
    _trace([{A1}, set()], timestamps=[1.0, 1.0])  # equal stamps are fine
    with pytest.raises(ValidationError):
        _trace([{A1}, set()], timestamps=[1.0, 0.5])


def test_active_atoms_is_the_union_over_frames():
    trace = _trace([{A1}, {A2}, set()])
    assert trace.active_atoms == frozenset([A1, A2])


class TestTraceFiles:
    def test_round_trip_preserves_everything(self, tmp_path):
        trace = random_trace(random.Random(5))
        path = tmp_path / "t.json"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.frames == trace.frames
        assert loaded.vocabulary == trace.vocabulary
        assert loaded.types == trace.types
        assert loaded.demonstrator == trace.demonstrator
        assert loaded.scenario == trace.scenario

    def test_a_byte_order_mark_is_skipped(self, tmp_path):
        trace = random_trace(random.Random(5))
        path = tmp_path / "t.json"
        save_trace(trace, path)
        plain = load_trace(path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        loaded = load_trace(path)
        assert (loaded.frames, loaded.vocabulary, loaded.types) == (plain.frames, plain.vocabulary, plain.types)

    @given(traces_st())
    def test_dict_round_trip(self, trace):
        assert trace_from_dict(trace_to_dict(trace)).frames == trace.frames

    def test_type_parents_survive_the_file_format(self):
        # the toy schema has Block and Zone under Thing
        trace = random_trace(random.Random(1))
        payload = trace_to_dict(trace)
        assert payload["types"]["parents"] == {"Block": "Thing", "Zone": "Thing"}
        assert trace_from_dict(payload).types.is_subtype("Block", "Thing")

    def test_missing_keys_are_parse_errors(self):
        with pytest.raises(ParseError):
            trace_from_dict({"objects": [], "frames": []})
        with pytest.raises(ParseError):
            trace_from_dict([])

    def test_duplicate_object_ids_are_rejected(self):
        payload = {
            "vocabulary": [{"name": "lit", "arg_types": ["Lamp"]}],
            "objects": [{"id": "l1", "type": "Lamp"}, {"id": "l1", "type": "Lamp"}],
            "frames": [{"t": 0.0, "atoms": []}, {"t": 1.0, "atoms": []}],
        }
        with pytest.raises(ValidationError):
            trace_from_dict(payload)

    def test_ill_typed_frame_atom_reports_the_frame(self):
        payload = {
            "vocabulary": [{"name": "lit", "arg_types": ["Lamp"]}],
            "objects": [{"id": "l1", "type": "Lamp"}],
            "frames": [
                {"t": 0.0, "atoms": []},
                {"t": 1.0, "atoms": [["lit", "ghost"]]},
            ],
        }
        with pytest.raises(ValidationError) as err:
            trace_from_dict(payload)
        assert err.value.frame == 1

    def test_a_loaded_frame_error_names_the_file_and_keeps_the_frame(self, tmp_path):
        payload = {
            "vocabulary": [{"name": "lit", "arg_types": ["Lamp"]}],
            "objects": [{"id": "l1", "type": "Lamp"}],
            "frames": [{"t": 0.0, "atoms": []}, {"t": 1.0, "atoms": [["lit", 3]]}],
        }
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError) as err:
            load_trace(path)
        assert str(err.value).startswith(f"{path}: atom entry must be a list of strings")
        assert err.value.frame == 1

    def test_timestamps_must_be_finite_numbers(self):
        payload = trace_to_dict(random_trace(random.Random(2)))
        for bad, error in (("0.5", ParseError), (True, ParseError), (float("nan"), ValidationError),
                           (float("inf"), ValidationError)):
            payload["frames"][1]["t"] = bad
            with pytest.raises(error, match="frame 1"):
                trace_from_dict(payload)

    @pytest.mark.parametrize("meta, message", [
        ({"demonstrator": ["p1"]}, "meta 'demonstrator' must be a string, got ['p1']"),
        ({"demonstrator": 7}, "meta 'demonstrator' must be a string, got 7"),
        ({"scenario": None}, "meta 'scenario' must be a string, got None"),
        ({"scenario": {"name": "s"}}, "meta 'scenario' must be a string, got {'name': 's'}"),
    ], ids=["demonstrator-list", "demonstrator-number", "scenario-null", "scenario-object"])
    def test_a_bad_meta_entry_is_a_parse_error(self, meta, message):
        payload = trace_to_dict(random_trace(random.Random(2)))
        payload["meta"] = meta
        with pytest.raises(ParseError) as err:
            trace_from_dict(payload)
        assert str(err.value) == message

    def test_unreadable_json_is_a_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ParseError):
            load_trace(path)


class TestDecodingOncePerFile:
    """trace_from_dict decodes each distinct atom entry of a file once and
    keeps only successes; it must load and fail exactly like decoding every
    entry where it stands."""

    # Each is bad in a toy trace: unknown predicate, arity, undeclared
    # object, argument type, a non-string part, an unhashable part, no parts,
    # no list (a tuple, which a caller may pass, equals a good entry's key),
    # and a negation mark, which atoms do not take.
    BAD_ENTRIES = (
        ["fly", "blockA"], ["at", "bot1"], ["clear", "ghost"], ["at", "blockA", "zone_1"],
        ["holding", "bot1", 3], ["at", ["bot1"], "zone_1"], [], "at", 7, None, {"at": 1},
        ("clear", "blockA"), ["!", "clear", "blockA"],
    )

    @staticmethod
    def outcome(decode, payload):
        try:
            return decode(copy.deepcopy(payload))
        except InputError as exc:
            return type(exc), str(exc), getattr(exc, "frame", None), getattr(exc, "atom", None)

    def test_the_corpus_and_its_flickered_copies_decode_as_the_reference_does(self):
        clean = [demo.trace for demo in corpus()]
        flickered = [inject_flicker(trace, seed) for seed in range(1, 6) for trace in clean]
        for trace in clean + flickered:
            payload = json.loads(json.dumps(trace_to_dict(trace)))
            assert trace_from_dict(payload) == trace_from_dict_reference(payload) == trace

    def test_random_payloads_with_bad_entries_fail_as_the_reference_does(self):
        rng = random.Random(13)
        failures = 0
        for _ in range(1000):
            payload = trace_to_dict(random_trace(rng))
            if rng.random() < 0.2:  # retype an object, so that its atoms go bad everywhere
                rng.choice(payload["objects"])["type"] = rng.choice(["Robot", "Block", "Zone"])
            for _ in range(rng.randint(0, 3)):
                bad = copy.deepcopy(rng.choice(self.BAD_ENTRIES))
                for _ in range(rng.randint(1, 3)):  # the same entry in one to three frames
                    atoms = rng.choice(payload["frames"])["atoms"]
                    atoms.insert(rng.randint(0, len(atoms)), bad)
            expected = self.outcome(trace_from_dict_reference, payload)
            assert self.outcome(trace_from_dict, payload) == expected
            failures += isinstance(expected, tuple)
        assert 500 < failures < 1000

    def test_a_repeated_bad_atom_raises_at_its_first_frame(self):
        payload = {
            "vocabulary": [{"name": "lit", "arg_types": ["Lamp"]}],
            "objects": [{"id": "l1", "type": "Lamp"}],
            "frames": [
                {"t": 0.0, "atoms": [["lit", "l1"]]},
                {"t": 1.0, "atoms": [["lit", "l1"], ["lit", "l9"]]},
                {"t": 2.0, "atoms": [["lit", "l9"]]},
            ],
        }
        for _ in range(2):
            with pytest.raises(ValidationError) as err:
                trace_from_dict(payload)
            assert (err.value.frame, err.value.atom) == (1, "['lit', 'l9']")

    def test_an_entry_is_decoded_against_the_table_of_its_own_file(self):
        def payload(lamp_type):
            return {
                "vocabulary": [{"name": "lit", "arg_types": ["Lamp"]}],
                "objects": [{"id": "l1", "type": lamp_type}],
                "frames": [{"t": 0.0, "atoms": [["lit", "l1"]]}, {"t": 1.0, "atoms": []}],
            }

        assert trace_from_dict(payload("Lamp")).frames[0].true_atoms == {A1}
        with pytest.raises(ValidationError, match="has type 'Bulb', expected 'Lamp'") as err:
            trace_from_dict(payload("Bulb"))
        assert err.value.frame == 0


def test_debounce_window_must_be_a_positive_integer():
    with pytest.raises(ValidationError):
        DebounceConfig(0)
    with pytest.raises(ValidationError):
        DebounceConfig(1.5)


def test_series_suppresses_single_frame_blips():
    assert _debounced_series([True, False, True, True], window=2) == [True] * 4
    assert _debounced_series([False, True, False, False], window=2) == [False] * 4


def test_series_keeps_changes_that_persist():
    assert _debounced_series([False, True, True, False], window=2) == [
        False,
        True,
        True,
        True,  # the trailing flip lasts one frame only, so it is held back
    ]


@given(bool_series_st, st.integers(min_value=1, max_value=4))
def test_series_never_touches_the_first_frame(values, window):
    assert _debounced_series(values, window)[0] == values[0]


@given(bool_series_st, st.integers(min_value=1, max_value=4))
def test_series_matches_the_forward_scan_reference(values, window):
    assert _debounced_series(values, window) == debounced_reference(values, window)


@given(bool_series_st, st.integers(min_value=1, max_value=4))
def test_series_is_idempotent(values, window):
    once = _debounced_series(values, window)
    assert _debounced_series(once, window) == once


def test_debounce_window_one_is_the_identity():
    trace = _trace([{A1}, set(), {A1}, set()])
    assert debounce(trace, DebounceConfig(1)) is trace


@given(traces_st())
def test_debounce_is_idempotent_on_traces(trace):
    once = debounce(trace)
    twice = debounce(once)
    assert [f.true_atoms for f in twice.frames] == [f.true_atoms for f in once.frames]


@given(traces_st())
def test_debounce_preserves_timestamps_and_frame_count(trace):
    out = debounce(trace)
    assert len(out.frames) == len(trace.frames)
    assert [f.timestamp for f in out.frames] == [f.timestamp for f in trace.frames]
    assert out.frames[0].true_atoms == trace.frames[0].true_atoms


@given(traces_st())
def test_debounce_never_invents_atoms(trace):
    out = debounce(trace)
    assert out.active_atoms <= trace.active_atoms


def test_debounce_example_with_two_atoms():
    trace = _trace(
        [
            {A1},
            {A1, A2},  # A2 flickers on for one frame
            {A1},
            set(),  # A1 drop persists
            set(),
        ]
    )
    cleaned = debounce(trace, DebounceConfig(2))
    assert [sorted(map(repr, f.true_atoms)) for f in cleaned.frames] == [
        ["lit(l1)"],
        ["lit(l1)"],
        ["lit(l1)"],
        [],
        [],
    ]
