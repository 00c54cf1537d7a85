"""Scripted tabletop demonstrations for tests and the gen-traces command.

Every demonstration follows the same ten-transition pick-and-place script per
move (reach, grasp, lift, transfer, lower, release), sampled so that each
symbolic change persists for at least two frames. That makes the clean traces
fixed points of the default debouncer, and inject_flicker() can add synthetic
sensor noise that a window-2 debounce provably removes again.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .model import (
    GroundAtom,
    Literal,
    ObjectInstance,
    PredicateSignature,
    State,
    TypeTable,
    Vocabulary,
)
from .segmentation import Segment
from .traces import Frame, Trace, rewrite_series

TABLE = "Table_1"
RIGHT_HAND = "Right_hand"
LEFT_HAND = "Left_hand"
RED = "Cube_red1"
GREEN = "Cube_green1"
BLUE = "Cube_blue1"
YELLOW = "Cube_yellow1"


def stacking_vocabulary() -> Vocabulary:
    return Vocabulary(
        (
            PredicateSignature("handOpen", ("Hand",)),
            PredicateSignature("handMove", ("Hand",)),
            PredicateSignature("inHand", ("Hand", "Wooden_cube")),
            PredicateSignature("graspable", ("Wooden_cube",)),
            PredicateSignature("onTop", ("Wooden_cube", "Support")),
            PredicateSignature("inTouch", ("Wooden_cube", "Support")),
        )
    )


def stacking_types() -> TypeTable:
    """Both tables and cubes can support a cube, hence the shared supertype."""
    return TypeTable(
        instance_to_type={
            RIGHT_HAND: "Hand",
            LEFT_HAND: "Hand",
            TABLE: "Table",
            RED: "Wooden_cube",
            GREEN: "Wooden_cube",
            BLUE: "Wooden_cube",
            YELLOW: "Wooden_cube",
        },
        type_to_parent={"Table": "Support", "Wooden_cube": "Support"},
    )


def planning_objects() -> list[ObjectInstance]:
    return stacking_types().objects()


def initial_state() -> State:
    """All four cubes rest on the table; both hands are closed and still."""
    v = stacking_vocabulary()
    atoms = []
    for cube in (RED, GREEN, BLUE, YELLOW):
        atoms.append(v.atom("onTop", cube, TABLE))
        atoms.append(v.atom("inTouch", cube, TABLE))
    return State.of(atoms)


@dataclass(frozen=True)
class ScriptedDemo:
    """A generated trace plus the segments and goal it was scripted to show."""

    trace: Trace
    segments: tuple[Segment, ...]
    goal: tuple[Literal, ...]


def _move_deltas(
    v: Vocabulary, hand: str, cube: str, source: str, dest: str, hand_open: bool
) -> list[tuple[list[GroundAtom], list[GroundAtom]]]:
    """The ten transitions of one pick-and-place move, as (adds, dels) pairs."""
    open_adds = [] if hand_open else [v.atom("handOpen", hand)]
    return [
        ([v.atom("handMove", hand)] + open_adds, []),
        ([v.atom("graspable", cube)], []),
        ([], [v.atom("handMove", hand)]),
        ([v.atom("inHand", hand, cube)], [v.atom("handOpen", hand)]),
        ([v.atom("handMove", hand)], []),
        ([], [v.atom("onTop", cube, source), v.atom("inTouch", cube, source)]),
        ([v.atom("onTop", cube, dest), v.atom("inTouch", cube, dest)], []),
        ([], [v.atom("handMove", hand)]),
        ([v.atom("handOpen", hand)], [v.atom("inHand", hand, cube)]),
        ([], [v.atom("graspable", cube)]),
    ]


_PHASES = ("reach", "grasp", "put", "place", "release")


def stacking_demo(
    demonstrator: str,
    hand: str,
    moves: Sequence[tuple[str, str, str]],
    dt: float = 0.5,
    scenario: str = "",
) -> ScriptedDemo:
    """Script a demonstration of ``moves`` (cube, source, dest) by one hand.

    Returns the trace together with its ground-truth segmentation; every
    phase spans two transitions, anchored one frame before its first one.
    """
    v = stacking_vocabulary()
    current = set(initial_state().true_atoms)
    frames = [Frame(0.0, frozenset(current))]
    segments = []
    hand_open = False
    for m, (cube, source, dest) in enumerate(moves):
        base = 10 * m
        for p, phase in enumerate(_PHASES):
            segments.append(Segment(phase, hand, base + 2 * p, base + 2 * p + 2))
        for adds, dels in _move_deltas(v, hand, cube, source, dest, hand_open):
            current.difference_update(dels)
            current.update(adds)
            frames.append(Frame(dt * len(frames), frozenset(current)))
        hand_open = True
    frames.append(Frame(dt * len(frames), frozenset(current)))
    trace = Trace(
        vocabulary=v,
        types=stacking_types(),
        frames=tuple(frames),
        demonstrator=demonstrator,
        scenario=scenario,
    )
    goal = tuple(
        Literal(v.atom("onTop", cube, dest)) for cube, _, dest in moves
    )
    return ScriptedDemo(trace=trace, segments=tuple(segments), goal=goal)


_SCENARIOS: tuple[tuple[str, str, tuple[tuple[str, str, str], ...]], ...] = (
    ("single_right", RIGHT_HAND, ((RED, TABLE, GREEN),)),
    ("single_left", LEFT_HAND, ((BLUE, TABLE, GREEN),)),
    ("double_right", RIGHT_HAND, ((RED, TABLE, GREEN), (BLUE, TABLE, RED))),
    ("double_left", LEFT_HAND, ((BLUE, TABLE, GREEN), (RED, TABLE, BLUE))),
)

_DEMONSTRATORS = (("p1", 0.4), ("p2", 0.5), ("p3", 0.6))


def corpus() -> list[ScriptedDemo]:
    """Twelve demonstrations: three demonstrators, four scenarios each."""
    demos = []
    for person, dt in _DEMONSTRATORS:
        for scenario, hand, moves in _SCENARIOS:
            demos.append(stacking_demo(person, hand, moves, dt, scenario))
    return demos


def corpus_goals() -> dict[str, tuple[Literal, ...]]:
    """Stacking goals used to exercise a library learned from the corpus."""
    v = stacking_vocabulary()
    top = lambda a, b: Literal(v.atom("onTop", a, b))
    return {
        "red_on_green": (top(RED, GREEN),),
        "blue_on_green": (top(BLUE, GREEN),),
        "tower_blue_red_green": (top(RED, GREEN), top(BLUE, RED)),
        "tower_red_blue_green": (top(BLUE, GREEN), top(RED, BLUE)),
    }


def _flip_positions(values: list[bool], budget: int, rng: random.Random) -> list[int]:
    """Choose flip positions that a window-2 debounce is guaranteed to undo.

    A position qualifies when it sits strictly inside a constant run that
    extends at least two frames back (or starts the series) and one frame
    forward; chosen positions stay >= 3 apart so the isolated blips cannot
    fuse into a persistent change.
    """
    n = len(values)
    eligible = [
        i
        for i in range(1, n - 1)
        if values[i - 1] == values[i] == values[i + 1]
        and (i == 1 or values[i - 2] == values[i])
    ]
    rng.shuffle(eligible)
    chosen: list[int] = []
    for i in eligible:
        if len(chosen) >= budget:
            break
        if all(abs(i - j) >= 3 for j in chosen):
            chosen.append(i)
    return sorted(chosen)


def inject_flicker(trace: Trace, seed: int) -> Trace:
    """Add isolated one-frame sensor blips that debouncing removes exactly."""
    rng = random.Random(seed)
    budget = max(1, len(trace.frames) // 10)

    def flicker(values: list[bool]) -> list[bool]:
        flipped = list(values)
        for i in _flip_positions(values, budget, rng):
            flipped[i] = not values[i]
        return flipped

    return rewrite_series(trace, flicker)
