"""Rule-based activity segmentation of demonstration traces.

Each frame transition (from frame i-1 into frame i) is classified per actor by
matching declarative rules against the state at frame i and the delta into it.
The deltas are computed once per transition and shared by every actor; a rule
whose delta predicates did not occur in them, added or deleted, is skipped.
Maximal runs of one label become segments.  A segment records ``start_frame``,
the anchor frame *before* its first classified transition, and ``end_frame``,
the frame reached by its last; operator extraction reads the precondition
snapshot at the anchor and the post snapshot at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import NoActorError, ParseError, ValidationError, located
from .model import GroundAtom, expect, expect_keys, read_json
from .traces import Trace

IDLE = "idle"
ACTOR_VAR = "?actor"

STATE_SCOPE = "state"
DELTA_SCOPE = "delta"


@dataclass(frozen=True)
class LiteralPattern:
    """A condition template; args are object ids or ``?``-variables.

    Scope ``state`` tests frame i: a positive pattern must match a true atom,
    a negative one must match nothing (variables left unbound by other
    conditions are read universally).  Scope ``delta`` tests the transition:
    positive means the atom was added into frame i, negative means deleted.
    """

    scope: str
    positive: bool
    predicate: str
    args: tuple[str, ...]

    def __post_init__(self):
        if self.scope not in (STATE_SCOPE, DELTA_SCOPE):
            raise ParseError(f"unknown condition scope {self.scope!r}")
        object.__setattr__(self, "args", tuple(self.args))

    def variables(self) -> set[str]:
        return {a for a in self.args if a.startswith("?")}

    def binds(self) -> bool:
        # Deleted-atom conditions match concrete atoms of frame i-1, so they
        # bind variables just like positive matches do.
        return self.scope == DELTA_SCOPE or self.positive


@dataclass(frozen=True)
class ClassifierRule:
    """One labeling rule for a given actor type; higher priority wins."""

    name: str
    actor_type: str
    priority: int
    conditions: tuple[LiteralPattern, ...]

    def __post_init__(self):
        object.__setattr__(self, "conditions", tuple(self.conditions))
        if not self.conditions:
            raise ValidationError(f"rule {self.name!r} has no conditions")
        mentioned = set().union(*(c.variables() for c in self.conditions))
        if ACTOR_VAR not in mentioned:
            raise ValidationError(f"rule {self.name!r} never references {ACTOR_VAR}")
        if not any(c.scope == DELTA_SCOPE for c in self.conditions):
            # A rule with no delta condition would label every frame of a
            # steady state as activity.
            raise ValidationError(f"rule {self.name!r} tests no delta condition")


@dataclass(frozen=True)
class Segment:
    """A maximal run of identically labeled transitions for one actor.

    Transitions start_frame+1 .. end_frame carry the label; start_frame is the
    state snapshot just before the activity begins, hence end > start always.
    """

    label: str
    actor: str
    start_frame: int
    end_frame: int

    def __post_init__(self):
        if not (0 <= self.start_frame < self.end_frame):
            raise ValidationError(f"segment frames out of order: {self}")


def validate_rules(rules: Sequence[ClassifierRule]) -> None:
    priorities = [r.priority for r in rules]
    if len(set(priorities)) != len(priorities):
        raise ValidationError(f"rule priorities must be unique, got {sorted(priorities)}")


def _bindings(cond: LiteralPattern, pool: Iterable[GroundAtom], binding: dict) -> Iterator[dict]:
    """Every extension of ``binding`` that unifies ``cond`` with an atom of ``pool``."""
    arity = len(cond.args)
    for atom in pool:
        if atom.predicate.name != cond.predicate or len(atom.args) != arity:
            continue
        extended = dict(binding)
        for pattern, actual in zip(cond.args, atom.args):
            if pattern.startswith("?"):
                if extended.setdefault(pattern, actual) != actual:
                    break
            elif pattern != actual:
                break
        else:
            yield extended


def _rule_fires(rule: ClassifierRule, actor_id: str, state: frozenset[GroundAtom],
                added: frozenset[GroundAtom], deleted: frozenset[GroundAtom]) -> bool:
    """Whether some binding satisfies every binding condition, in condition
    order, and leaves no non-binding condition matching a true atom."""
    bindings = [{ACTOR_VAR: actor_id}]
    filters = []
    for cond in rule.conditions:
        if not cond.binds():
            filters.append(cond)
            continue
        pool = state if cond.scope == STATE_SCOPE else added if cond.positive else deleted
        bindings = [extended for binding in bindings for extended in _bindings(cond, pool, binding)]
    return any(not any(True for cond in filters for _ in _bindings(cond, state, binding))
               for binding in bindings)


def segment(trace: Trace, rules: Sequence[ClassifierRule]) -> list[Segment]:
    """Segment a whole trace, actors in id order.

    Each transition is labelled, per actor, with the name of the
    highest-priority rule for the actor's type that fires on it, else
    ``idle``; every maximal run of one label other than ``idle`` is a segment.
    """
    validate_rules(rules)
    ordered = [(r, {(c.positive, c.predicate) for c in r.conditions if c.scope == DELTA_SCOPE})
               for r in sorted(rules, key=lambda r: -r.priority)]
    actors = [
        (obj.id, own)
        for obj in trace.objects
        if (own := [p for p in ordered if trace.types.is_subtype(obj.type_id, p[0].actor_type)])
    ]
    if not actors:
        raise NoActorError(
            f"trace declares no object matching any rule actor type "
            f"({sorted({r.actor_type for r in rules})})"
        )
    states = [frame.true_atoms for frame in trace.frames]
    transitions = [(now, now - before, before - now) for before, now in zip(states, states[1:])]
    changes = [{(True, a.name) for a in added} | {(False, a.name) for a in deleted}
               for _, added, deleted in transitions]
    segments: list[Segment] = []
    for actor, own in actors:
        labels = (
            next((r.name for r, needs in own if needs <= changed and _rule_fires(r, actor, *delta)),
                 IDLE)
            for changed, delta in zip(changes, transitions)
        )
        start = 0
        for label, run in groupby(labels):
            end = start + sum(1 for _ in run)
            if label != IDLE:
                segments.append(Segment(label, actor, start_frame=start, end_frame=end))
            start = end
    return segments


# The built-in rule table for tabletop pick-and-place over the predicates
# handMove/handOpen/inHand/inTouch/onTop (and graspable when present).
# Priorities only need to be unique; these rules never fire together on the
# scripted scenarios, so their relative order is not load-bearing.

def _pattern(scope: str, entry: list[str]) -> LiteralPattern:
    positive = entry[:1] != ["!"]
    body = entry if positive else entry[1:]
    if not body or not all(isinstance(part, str) for part in entry):
        raise ParseError(f"literal must be a list of strings naming a predicate, got {entry!r}")
    return LiteralPattern(scope, positive, body[0], tuple(body[1:]))


def _rule(name: str, priority: int,
          conditions: Sequence[tuple[str, Sequence[str]]]) -> ClassifierRule:
    return ClassifierRule(
        name, "Hand", priority,
        tuple(_pattern(scope, entry) for scope, entry in conditions),
    )


DEFAULT_RULES: tuple[ClassifierRule, ...] = (
    _rule("put", 100, [
        (DELTA_SCOPE, ["!", "onTop", "?c", "?s"]),
        (STATE_SCOPE, ["inHand", ACTOR_VAR, "?c"]),
    ]),
    _rule("put", 90, [
        (DELTA_SCOPE, ["handMove", ACTOR_VAR]),
        (STATE_SCOPE, ["inHand", ACTOR_VAR, "?c"]),
    ]),
    _rule("place", 80, [
        (DELTA_SCOPE, ["onTop", "?c", "?s"]),
        (STATE_SCOPE, ["inHand", ACTOR_VAR, "?c"]),
    ]),
    _rule("place", 70, [
        (DELTA_SCOPE, ["!", "handMove", ACTOR_VAR]),
        (STATE_SCOPE, ["inHand", ACTOR_VAR, "?c"]),
    ]),
    _rule("grasp", 60, [
        (DELTA_SCOPE, ["inHand", ACTOR_VAR, "?c"]),
    ]),
    _rule("grasp", 50, [
        (DELTA_SCOPE, ["!", "handMove", ACTOR_VAR]),
        (STATE_SCOPE, ["handOpen", ACTOR_VAR]),
    ]),
    _rule("release", 40, [
        (DELTA_SCOPE, ["!", "inHand", ACTOR_VAR, "?c"]),
    ]),
    _rule("release", 30, [
        (DELTA_SCOPE, ["!", "graspable", "?c"]),
        (STATE_SCOPE, ["handOpen", ACTOR_VAR]),
    ]),
    _rule("reach", 20, [
        (DELTA_SCOPE, ["handMove", ACTOR_VAR]),
        (STATE_SCOPE, ["!", "inHand", ACTOR_VAR, "?c"]),
    ]),
    _rule("reach", 10, [
        (DELTA_SCOPE, ["graspable", "?c"]),
        (STATE_SCOPE, ["handMove", ACTOR_VAR]),
    ]),
)


def rules_from_json(payload) -> tuple[ClassifierRule, ...]:
    rules = []
    for i, entry in enumerate(expect(payload, list, "rule file")):
        with located(f"rule {i}"):
            expect_keys(entry, "entry", "name", "actor_type", "priority", "conditions")
            conditions = []
            for j, cond in enumerate(expect(entry["conditions"], list, "'conditions'")):
                expect_keys(cond, f"condition {j}", "scope", "literal")
                literal = expect(cond["literal"], list, f"condition {j} 'literal'")
                conditions.append(_pattern(cond["scope"], literal))
            rules.append(ClassifierRule(
                expect(entry["name"], str, "'name'"),
                expect(entry["actor_type"], str, "'actor_type'"),
                expect(entry["priority"], int, "'priority'"),
                tuple(conditions),
            ))
    validate_rules(rules)
    return tuple(rules)


def load_rules(path: str | Path) -> tuple[ClassifierRule, ...]:
    return read_json(path, rules_from_json)

