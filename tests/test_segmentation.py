import json
import random
from collections import Counter

import pytest

from demoplan.errors import NoActorError, ParseError, ValidationError
from demoplan.model import (
    GroundAtom,
    PredicateSignature,
    TypeTable,
    Vocabulary,
)
from demoplan.segmentation import (
    ACTOR_VAR,
    DEFAULT_RULES,
    DELTA_SCOPE,
    IDLE,
    STATE_SCOPE,
    ClassifierRule,
    LiteralPattern,
    Segment,
    load_rules,
    rules_from_json,
    segment,
    validate_rules,
)
from demoplan.synth import inject_flicker
from demoplan.traces import Frame, Trace, debounce, load_trace

from helpers import random_rule_table, random_trace, rules_to_json
from oracles import segment_reference

NEAR = PredicateSignature("near", ("Hand", "Cube"))
HOLD = PredicateSignature("inHand", ("Hand", "Cube"))
VOCAB = Vocabulary((NEAR, HOLD))
TABLE = TypeTable({"h": "Hand", "c1": "Cube", "c2": "Cube"})


def _trace(memberships):
    frames = tuple(Frame(float(i), frozenset(m)) for i, m in enumerate(memberships))
    return Trace(VOCAB, TABLE, frames)


def _near(c):
    return GroundAtom(NEAR, ("h", c))


def _hold(c):
    return GroundAtom(HOLD, ("h", c))


APPROACH = ClassifierRule(
    "approach", "Hand", 2,
    (LiteralPattern(DELTA_SCOPE, True, "near", (ACTOR_VAR, "?c")),),
)
RETREAT = ClassifierRule(
    "retreat", "Hand", 1,
    (LiteralPattern(DELTA_SCOPE, False, "near", (ACTOR_VAR, "?c")),),
)


class TestPatternsAndRules:
    def test_scope_must_be_known(self):
        with pytest.raises(ParseError):
            LiteralPattern("future", True, "near", ())

    def test_binding_scopes(self):
        assert LiteralPattern(DELTA_SCOPE, True, "near", ()).binds()
        assert LiteralPattern(DELTA_SCOPE, False, "near", ()).binds()
        assert LiteralPattern(STATE_SCOPE, True, "near", ()).binds()
        assert not LiteralPattern(STATE_SCOPE, False, "near", ()).binds()

    def test_rule_needs_conditions(self):
        with pytest.raises(ValidationError):
            ClassifierRule("empty", "Hand", 1, ())

    def test_rule_must_mention_the_actor(self):
        with pytest.raises(ValidationError):
            ClassifierRule(
                "loose", "Hand", 1,
                (LiteralPattern(DELTA_SCOPE, True, "near", ("?a", "?b")),),
            )

    def test_rule_must_test_at_least_one_delta(self):
        # a state-only rule would label every frame of a steady world
        with pytest.raises(ValidationError):
            ClassifierRule(
                "steady", "Hand", 1,
                (LiteralPattern(STATE_SCOPE, True, "near", (ACTOR_VAR, "?c")),),
            )

    def test_priorities_must_be_unique(self):
        with pytest.raises(ValidationError):
            validate_rules([APPROACH, ClassifierRule("other", "Hand", 2, APPROACH.conditions)])
        validate_rules([APPROACH, RETREAT])


class TestClassify:
    def test_steady_frames_are_idle(self):
        trace = _trace([{_near("c1")}, {_near("c1")}])
        assert segment(trace, [APPROACH, RETREAT]) == []

    def test_added_and_deleted_atoms_pick_the_rule(self):
        trace = _trace([set(), {_near("c1")}, set()])
        assert segment(trace, [APPROACH, RETREAT]) == [
            Segment("approach", "h", 0, 1),
            Segment("retreat", "h", 1, 2),
        ]

    def test_higher_priority_wins_on_overlap(self):
        # both rules key on the same added atom, only priorities differ
        contender = ClassifierRule("contender", "Hand", 9, APPROACH.conditions)
        trace = _trace([set(), {_near("c1")}])
        assert segment(trace, [APPROACH, contender]) == [Segment("contender", "h", 0, 1)]
        demoted = ClassifierRule("contender", "Hand", 0, APPROACH.conditions)
        assert segment(trace, [APPROACH, demoted]) == [Segment("approach", "h", 0, 1)]

    def test_rules_for_other_actor_types_never_fire(self):
        # the cube rule outranks APPROACH but never applies to the hand
        cube_rule = ClassifierRule("roll", "Cube", 5, APPROACH.conditions)
        trace = _trace([set(), {_near("c1")}])
        assert segment(trace, [cube_rule]) == []
        assert segment(trace, [cube_rule, APPROACH]) == [Segment("approach", "h", 0, 1)]

    def test_unbound_negative_state_condition_reads_universally(self):
        # fires only when the actor holds nothing at all
        free_move = ClassifierRule(
            "free_move", "Hand", 3,
            (
                LiteralPattern(DELTA_SCOPE, True, "near", (ACTOR_VAR, "?c")),
                LiteralPattern(STATE_SCOPE, False, "inHand", (ACTOR_VAR, "?x")),
            ),
        )
        empty_handed = _trace([set(), {_near("c1")}])
        assert segment(empty_handed, [free_move]) == [Segment("free_move", "h", 0, 1)]
        # holding any cube, even one unrelated to the motion, blocks the rule
        loaded = _trace([{_hold("c2")}, {_hold("c2"), _near("c1")}])
        assert segment(loaded, [free_move]) == []


class TestSegments:
    def test_segment_frame_order_is_validated(self):
        Segment("move", "h", 0, 1)
        with pytest.raises(ValidationError):
            Segment("move", "h", 2, 2)
        with pytest.raises(ValidationError):
            Segment("move", "h", -1, 1)

    def test_first_transition_follows_the_anchor_frame(self, corpus_demos):
        """A segment's label covers the transitions into start_frame + 1 ..
        end_frame, and the anchor frame itself carries another label."""
        for demo in corpus_demos[:2]:
            labels = {}
            for seg in segment(demo.trace, DEFAULT_RULES):
                frames = range(seg.start_frame + 1, seg.end_frame + 1)
                assert all((seg.actor, i) not in labels for i in frames)
                labels.update(((seg.actor, i), seg.label) for i in frames)
                assert labels.get((seg.actor, seg.start_frame), IDLE) != seg.label

    def test_runs_of_equal_labels_become_one_segment(self):
        """Two approach transitions then two retreat transitions collapse to
        two segments whose frame anchors overlap at the boundary."""
        trace = _trace(
            [
                set(),
                {_near("c1")},
                {_near("c1"), _near("c2")},
                {_near("c2")},
                set(),
            ]
        )
        segs = segment(trace, [APPROACH, RETREAT])
        assert segs == [
            Segment("approach", "h", start_frame=0, end_frame=2),
            Segment("retreat", "h", start_frame=2, end_frame=4),
        ]
        assert [s.start_frame + 1 for s in segs] == [1, 3]

    def test_idle_gaps_split_segments(self):
        trace = _trace([set(), {_near("c1")}, {_near("c1")}, {_near("c1"), _near("c2")}])
        segs = segment(trace, [APPROACH, RETREAT])
        assert segs == [
            Segment("approach", "h", 0, 1),
            Segment("approach", "h", 2, 3),
        ]

    def test_without_a_matching_actor_segmentation_refuses(self):
        cubes_only = Trace(
            VOCAB,
            TypeTable({"c1": "Cube"}),
            (Frame(0.0, frozenset()), Frame(1.0, frozenset())),
        )
        with pytest.raises(NoActorError):
            segment(cubes_only, [APPROACH])

    def test_inactive_actor_yields_no_segments(self):
        trace = _trace([set(), set()])
        assert segment(trace, [APPROACH, RETREAT]) == []


class TestDefaultRules:
    def test_table_is_internally_valid(self):
        validate_rules(DEFAULT_RULES)
        assert all(r.actor_type == "Hand" for r in DEFAULT_RULES)

    def test_fixture_trace_segments(self, fixture_path):
        trace = load_trace(fixture_path)
        segs = segment(trace, DEFAULT_RULES)
        assert segs == [
            Segment("put", "Right_hand", 1, 2),
            Segment("place", "Right_hand", 3, 4),
            Segment("release", "Right_hand", 5, 6),
        ]

    def test_moving_while_holding_is_put_not_reach(self, corpus_demos):
        # the reach rules must stay quiet whenever any cube is in the hand
        for demo in corpus_demos:
            labels = set()
            for seg in segment(demo.trace, DEFAULT_RULES):
                labels.add(seg.label)
            assert labels == {"reach", "grasp", "put", "place", "release"}

    def test_scripted_segments_are_recovered_exactly(self, corpus_demos):
        for demo in corpus_demos:
            assert tuple(segment(demo.trace, DEFAULT_RULES)) == demo.segments


def _outcome(function, trace, rules):
    """The segments ``function`` returns, or the class and message it raises."""
    try:
        return function(trace, rules)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


def _bent(rng, rule):
    """``rule`` with each delta condition kept, renamed to a predicate no
    vocabulary has, flipped in polarity, or given one argument more or less."""
    conditions = []
    for cond in rule.conditions:
        bend = rng.choice(["keep", "absent", "flip", "arity"]) if cond.scope == DELTA_SCOPE else "keep"
        if bend == "absent":
            cond = LiteralPattern(DELTA_SCOPE, cond.positive, "absent", cond.args)
        elif bend == "flip":
            cond = LiteralPattern(DELTA_SCOPE, not cond.positive, cond.predicate, cond.args)
        elif bend == "arity":
            shorter = cond.args[-1:] not in [(), (ACTOR_VAR,)] and rng.random() < 0.5
            args = cond.args[:-1] if shorter else (*cond.args, "?z")
            cond = LiteralPattern(DELTA_SCOPE, cond.positive, cond.predicate, args)
        conditions.append(cond)
    return ClassifierRule(rule.name, rule.actor_type, rule.priority, tuple(conditions))


def _filter_cases(trace, rules):
    """Per transition and delta condition, which case of the delta-predicate
    filter it meets, if any."""
    states = [frame.true_atoms for frame in trace.frames]
    for before, now in zip(states, states[1:]):
        pools = {True: now - before, False: before - now}
        for cond in (c for rule in rules for c in rule.conditions if c.scope == DELTA_SCOPE):
            if cond.predicate not in trace.vocabulary:
                yield "absent"
            elif cond.predicate not in {a.name for a in pools[cond.positive]}:
                if cond.predicate in {a.name for a in pools[not cond.positive]}:
                    yield "opposite pool only"
            elif len(cond.args) != trace.vocabulary.get(cond.predicate).arity:
                yield "other arity"


class TestReferenceParity:
    """``segment`` returns exactly what ``oracles.segment_reference`` does."""

    def test_corpus_raw_flickered_and_debounced(self, corpus_demos):
        traces = [demo.trace for demo in corpus_demos]
        for seed in range(1, 6):
            for demo in corpus_demos:
                noisy = inject_flicker(demo.trace, seed)
                traces += [noisy, debounce(noisy)]
        for trace in traces:
            assert segment(trace, DEFAULT_RULES) == segment_reference(trace, DEFAULT_RULES)

    def test_random_traces_and_rule_tables(self):
        """Also with delta conditions bent so that the filter on delta
        predicates decides: a predicate missing from the vocabulary, a
        polarity flipped so it may have changed only the other way, and an
        argument added or dropped so its arity differs from the signature's."""
        rng, bend_rng = random.Random(2024), random.Random(19)
        outcomes, bends = Counter(), Counter()
        for _ in range(1000):
            trace, rules = random_trace(rng), random_rule_table(rng)
            expected = _outcome(segment_reference, trace, rules)
            assert _outcome(segment, trace, rules) == expected
            outcomes[expected[0] if isinstance(expected, tuple) else bool(expected)] += 1
            bent = [_bent(bend_rng, rule) for rule in rules]
            assert _outcome(segment, trace, bent) == _outcome(segment_reference, trace, bent)
            bends.update(_filter_cases(trace, bent))
        # the draws reach segments, no segments, and tables without an actor
        assert set(outcomes) == {True, False, NoActorError}
        assert set(bends) == {"absent", "opposite pool only", "other arity"}


class TestRuleFiles:
    def test_json_round_trip(self):
        payload = rules_to_json(DEFAULT_RULES)
        assert rules_from_json(payload) == DEFAULT_RULES

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(rules_to_json(DEFAULT_RULES), indent=2))
        assert load_rules(path) == DEFAULT_RULES

    def test_malformed_entries_are_parse_errors(self):
        with pytest.raises(ParseError):
            rules_from_json({"not": "a list"})
        with pytest.raises(ParseError):
            rules_from_json([{"name": "x"}])
