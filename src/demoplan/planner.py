"""Grounding and optimal search over learned operators.

Costs come from observation counts: cost(op) = max_count - count(op) + 1, so
the most frequently demonstrated operator costs 1 and rarities cost more.
A learned library and a parsed PDDL domain both reach grounding as the same
ActionSchema list (OperatorLibrary.schemas, DomainDoc.actions), so there is
one grounding path. A grounded action set is compiled once to integer
bitmasks over the atoms its actions mention; a goal literal on any other atom
is static and is decided against the initial state before searching.
Grounding compiles as it goes: it numbers each atom when it first builds it,
once per binding prefix, and returns the resulting Task, which plan() and the
monitor use as it is; any other action list is compiled on each call.
Search is uniform-cost (A* with a zero heuristic) over closed-world states,
with an optional admissible h_max heuristic that never changes the optimum
cost; among equal-cost plans it may pick a different one than blind search,
always the same one for a task.
h_max is computed cost level by cost level on one bitmask of the facts (atom
true, atom false) reachable so far, and lazily: once per state, when it leaves
the frontier, in the expansion order an eager evaluation would give. A level
finds what it fires, and what that adds, in per-byte tables over the reached
facts and over 8-action chunks of one cost, built once per Task on first sight.
Ties between equal-key candidates resolve by generation order, and successors
are generated in (action name, bound objects) lexicographic order. The
actions applicable in a state come from per-byte tables: for each 8-atom
chunk of the state, its byte value maps (memoized on first sight) to the
actions it blocks, so generating successors costs ceil(atoms / 8) table
lookups plus one step per applicable action, visited in that same order.
The frontier is a bucket queue (Dial 1969) rather than a binary heap: every
action cost is a positive integer, so every key (g, plus h_max's integer
estimate) is an integer, and each bucket keeps its entries in generation
order. No state is ever queued under a key below the one being expanded (a
child's key is at least its parent's, by h_max's consistency when it is on),
so emptying the lowest bucket before the next takes states in exactly the
(key, generation) order a heap would.
"""

from __future__ import annotations

import itertools
from bisect import insort
from collections import defaultdict, namedtuple
from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Mapping, Optional, Sequence

from .errors import InvalidEffect, SearchLimitExceeded, ValidationError
from .learning import OperatorLibrary
from .model import (
    ActionSchema,
    GroundAtom,
    Literal,
    ObjectInstance,
    State,
    TypeTable,
    apply,
    holds,
)

DEFAULT_NODE_LIMIT = 10_000_000
INF = float("inf")


@dataclass(frozen=True)
class CostModel:
    """Cost per operator, keyed by canonical key."""

    costs: Mapping[str, int]


def derive_costs(library: OperatorLibrary) -> CostModel:
    """Map observation counts to costs so often-seen operators are preferred."""
    top = max(library.counts.values(), default=0)
    return CostModel({key: top - count + 1 for key, count in library.counts.items()})


@dataclass(frozen=True)
class GroundedAction:
    """A ground action, unchecked until a Task compiles it."""

    name: str
    objects: tuple[str, ...]
    pre: frozenset[Literal]
    adds: frozenset[GroundAtom]
    dels: frozenset[GroundAtom]
    cost: int = 1

    def sort_key(self) -> tuple:
        return (self.name, self.objects)

    def __repr__(self) -> str:
        return f"{self.name}({','.join(self.objects)})"


Proof = namedtuple("Proof", "actions goal heuristic start")


@dataclass(frozen=True)
class Plan:
    actions: tuple[GroundedAction, ...]
    total_cost: int
    # What Task.search found it on, for and from; a built or copied plan has none.
    proof: Optional[Proof] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "actions", tuple(self.actions))
        if self.total_cost != sum(a.cost for a in self.actions):
            raise ValidationError("plan total_cost does not match its actions")


def ground_schemas(
    schemas: Sequence[ActionSchema], objects: Iterable[ObjectInstance], types: TypeTable
) -> Task:
    """The Task of all type-consistent bindings of distinct objects to the
    parameters, in (name, objects) order.

    Parameters are bound depth first. An atom or literal is looked up by its
    predicate and arguments when the deepest parameter it names is bound,
    once per binding prefix that some action completes. Each distinct one is
    built once per call, shared by every action that mentions it, and given
    its Task bit when it is built. An action's sets and masks are unions of
    its prefixes' parts. An object of a type ``types`` does not declare raises.
    """
    instances_of = lru_cache(maxsize=None)(types.with_instances(objects).instances_of)
    index: dict[GroundAtom, int] = {}
    # predicate, or (predicate, polarity) -> {arguments: (atom or literal, its bit)}
    built: dict[object, dict] = defaultdict(dict)
    actions, masks = [], []

    def extend(level: list, values: tuple, parts: tuple) -> tuple:
        """``parts`` (pre, adds, dels, and the masks of the atoms needed true,
        needed false, added and deleted) joined with ``level``'s."""
        if not level:
            return parts
        found: tuple[list, ...] = ([], [], [], [])
        bits = [*parts[3:]]
        for lookup, get, slot, predicate, picks, positive in level:
            key = get(values)
            hit = lookup(key)
            if hit is None:
                hit = built[predicate].get(key)
                if hit is None:
                    atom = GroundAtom(predicate, tuple([values[i] for i in picks]))
                    hit = built[predicate][key] = (atom, 1 << index.setdefault(atom, len(index)))
                if positive is not None:
                    hit = built[predicate, positive][key] = (Literal(hit[0], positive), hit[1])
            found[slot].append(hit[0])
            bits[slot] |= hit[1]
        pre, adds, dels = parts[:3]
        pre = pre.union(found[0], found[1]) if found[0] or found[1] else pre
        adds = adds.union(found[2]) if found[2] else adds
        return pre, adds, dels.union(found[3]) if found[3] else dels, *bits

    for schema in sorted(schemas, key=lambda s: s.name):
        position = {var: i for i, (var, _) in enumerate(schema.params)}
        width = len(position)
        levels: list[list] = [[] for _ in range(width + 1)]  # by 1 + the deepest position named
        for slot, atom, positive in (
            *((1 - l.positive, l.atom, l.positive) for l in schema.pre),
            *((2, a, None) for a in schema.adds),
            *((3, a, None) for a in schema.dels),
        ):
            picks = tuple([position[arg] for arg in atom.args])
            get = itemgetter(*picks) if picks else lambda values: ()
            lookup = built[atom.predicate if positive is None else (atom.predicate, positive)].get
            levels[max(picks, default=-1) + 1].append(
                (lookup, get, slot, atom.predicate, picks, positive)
            )
        candidates = [instances_of(type_id) for _, type_id in schema.params]
        # stack[j + 1]: the parts of the binding prefix of length j, once an action needs them
        stack = [(frozenset(), frozenset(), frozenset(), 0, 0, 0, 0)]

        def bind(values: tuple) -> None:
            depth = len(values)
            if depth < width:
                for obj in candidates[depth]:
                    if obj not in values:
                        del stack[depth + 2 :]
                        bind(values + (obj,))
                return
            for j in range(len(stack) - 1, width + 1):
                stack.append(extend(levels[j], values, stack[-1]))
            actions.append(GroundedAction(schema.name, values, *stack[-1][:3], schema.cost))
            masks.append(stack[-1][3:])

        bind(())
        del bind  # bind names itself: end that cycle, or it keeps the tables until a GC pass
    if len({s.name for s in schemas}) < len(schemas):  # equal names: restore the tie-break order
        order = sorted(range(len(actions)), key=lambda i: actions[i].sort_key())
        actions[:], masks = [actions[i] for i in order], [masks[i] for i in order]
    task = Task.__new__(Task)
    task._compile(tuple(actions), index, masks)
    return task


def ground(
    library: OperatorLibrary,
    objects: Iterable[ObjectInstance],
    cost_model: Optional[CostModel] = None,
) -> Task:
    """Ground every operator of a library; unit costs if no model is given."""
    costs = None if cost_model is None else cost_model.costs
    return ground_schemas(library.schemas(costs), objects, library.types)


def task_from_docs(domain_doc, problem_doc) -> tuple[Task, State, list[Literal]]:
    """Ground a parsed domain against a parsed problem."""
    actions = ground_schemas(domain_doc.actions, problem_doc.objects, domain_doc.types)
    return actions, State.of(problem_doc.init), list(problem_doc.goal)


def check_search_options(node_limit: int, heuristic: str) -> None:
    """Reject a heuristic name that ``plan`` does not know, then a node limit
    that is not a non-negative integer."""
    if heuristic not in ("none", "hmax"):
        raise ValidationError(f"unknown heuristic {heuristic!r}")
    if isinstance(node_limit, bool) or not isinstance(node_limit, int) or node_limit < 0:
        raise ValidationError(f"node limit must be a non-negative integer, got {node_limit!r}")


class _Blockers(dict):
    """Byte value of one 8-bit chunk of a mask -> the union over its bits j of
    pairs[j][bit j]; over a state's atoms, the actions that value blocks.
    Filled in on first lookup of each value."""

    def __init__(self, pairs: list[tuple[int, int]]):
        super().__init__()
        self.pairs = pairs  # (the mask for bit j clear, for bit j set)

    def __missing__(self, key: int) -> int:
        blocked, byte = 0, key
        for pair in self.pairs:
            blocked |= pair[byte & 1]
            byte >>= 1
        self[key] = blocked
        return blocked


class Task:
    """A grounded action set compiled to bitmasks once, then searched many times.

    Actions are kept in (name, objects) order, the tie-break order. Each of
    the n atoms an action mentions gets one bit, in an order that no answer
    depends on; any other atom is static.
    A fact is a literal: bit i says atom i is true, bit n + i that it is false.
    A set of actions is a mask with bit a for action a. Compiling is the one
    check of an action list: overlapping effects, contradictory preconditions
    and a cost that is not a positive integer raise.
    """

    def __init__(self, actions: Iterable[GroundedAction]):
        ordered = tuple(sorted(actions, key=GroundedAction.sort_key))
        index: dict[GroundAtom, int] = {}

        def bits(atoms: Iterable[GroundAtom]) -> int:
            m = 0
            for atom in atoms:
                m |= 1 << index.setdefault(atom, len(index))
            return m

        masks = [
            (
                bits(l.atom for l in action.pre if l.positive),
                bits(l.atom for l in action.pre if not l.positive),
                bits(action.adds),
                bits(action.dels),
            )
            for action in ordered
        ]
        self._compile(ordered, index, masks)

    def _compile(self, actions: tuple, index: dict, masks: list) -> None:
        """The compile tail that ``Task(actions)`` and grounding share: ``masks``
        holds each action's (atoms needed true, needed false, added, deleted)
        under the atom bits ``index``, in ``actions``' order."""
        self.actions, self.index = actions, index
        n = self.n = len(index)
        self.all_atoms = (1 << n) - 1
        # (precondition facts, add, del, cost) per action
        self.ops = []
        for (pos, neg, add, dele), action in zip(masks, actions):
            if add & dele:
                raise InvalidEffect(f"action {action.name!r} adds and deletes the same atom")
            if pos & neg:
                raise ValidationError(f"action {action.name!r} has contradictory preconditions")
            if not isinstance(action.cost, int) or action.cost < 1:
                raise ValidationError(f"action {action.name!r} needs a positive integer cost")
            self.ops.append((pos | neg << n, add, dele, action.cost))
        # The actions that need fact i: atom i true, or atom i - n false.
        needed = [0] * 2 * n
        for ai, (pre, _, _, _) in enumerate(self.ops):
            bit = 1 << ai
            while pre:
                i = pre.bit_length() - 1
                needed[i] |= bit
                pre ^= 1 << i
        self.all_actions = (1 << len(actions)) - 1
        pairs = list(zip(needed[:n], needed[n:]))
        self.blockers = [(shift, _Blockers(pairs[shift : shift + 8])) for shift in range(0, n, 8)]
        # h_max's tables: actions blocked per needed-fact byte, fired effects per chunk
        self.unreached = [(at, _Blockers([(need, 0) for need in needed[at : at + 8]]))
                          for at in range(0, 2 * n, 8) if any(needed[at : at + 8])]
        effects = [(0, add | dele << n) for _, add, dele, _ in self.ops]
        self.effects, end = [], 0
        for cost, run in itertools.groupby(op[3] for op in self.ops):
            start, end = end, end + len(list(run))
            for at in range(start, end, 8):
                chunk = effects[at : min(at + 8, end)]
                self.effects.append((at, (1 << len(chunk)) - 1, cost, _Blockers(chunk)))

    def __len__(self) -> int:
        return len(self.actions)

    def __iter__(self):
        return iter(self.actions)

    def applicable(self, state: int) -> int:
        """The mask of actions whose preconditions hold in ``state``."""
        blocked = 0
        for shift, table in self.blockers:
            blocked |= table[state >> shift & 255]
        return self.all_actions ^ blocked

    def hmax(self, state: int, goal: int) -> float:
        """h_max (Bonet & Geffner 2001) of ``state``, one cost level at a time.

        ``reached`` holds the facts reachable within ``level``. An action
        fires at the first level that reaches all its preconditions and adds
        its effects at level + cost, so the first level that reaches every
        goal fact is the max over goal facts of their cost. A level reads what
        it fires from per-byte tables and what that adds from tables per
        8-action chunk of one cost; the Task keeps both for all its calls.
        """
        reached = state | (self.all_atoms ^ state) << self.n  # the facts true in state
        pending: dict[int, int] = {}
        unfired = self.all_actions
        level = 0
        while reached & goal != goal:
            blocked = 0
            for shift, table in self.unreached:
                blocked |= table[reached >> shift & 255]
            fired = unfired & ~blocked
            if fired:
                unfired ^= fired
                for shift, width, cost, table in self.effects:
                    chunk = fired >> shift & width
                    if chunk:
                        pending[level + cost] = pending.get(level + cost, 0) | table[chunk]
            new = 0
            while not new:  # advance to the next level that reaches a new fact
                if not pending:
                    return INF
                level = min(pending)
                new = pending.pop(level) & ~reached
            reached |= new
        return level

    def search(
        self,
        init: State,
        goal: Iterable[Literal],
        node_limit: int = DEFAULT_NODE_LIMIT,
        heuristic: str = "none",
    ) -> Optional[Plan]:
        """See ``plan``. The plan carries its proof, for ``rest_of``."""
        check_search_options(node_limit, heuristic)
        goal = frozenset(goal)
        goal_pos = goal_neg = 0
        for lit in goal:
            bit = self.index.get(lit.atom)
            if bit is None:  # no action changes this atom
                if not holds(init, lit):
                    return None
            elif lit.positive:
                goal_pos |= 1 << bit
            else:
                goal_neg |= 1 << bit
        goal_facts = goal_pos | goal_neg << self.n
        start = 0
        for atom in init.true_atoms:
            if atom in self.index:
                start |= 1 << self.index[atom]

        known: dict[int, float] = {start: self.hmax(start, goal_facts)}  # h_max seen so far
        if known[start] == INF:  # unreachable even relaxed: no search, blind or not
            return None

        # With h_max, a generated state is queued under g plus a lower bound
        # on its h: its h if known, else h(parent) - cost, which h_max's
        # consistency allows. Its h is computed once, when it is popped; if
        # the key was too low, it goes back under its true key with its
        # original tie counter, inserted in tie order, or is dropped when h
        # is infinite. States are therefore expanded in the order eager
        # evaluation would give.
        hmax = self.hmax if heuristic == "hmax" else None
        applicable, ops = self.applicable, self.ops
        dist: dict[int, int] = {start: 0}
        parent: dict[int, tuple[int, int]] = {}
        # key -> its (tie, state, g) entries in tie order; see the module docstring
        buckets: dict[int, list[tuple[int, int, int]]] = defaultdict(list)
        buckets[0].append((0, start, 0))
        ties = 1
        expanded = 0
        while buckets:
            key = min(buckets)
            for tie, state, g in buckets[key]:  # entries appended meanwhile included
                if g > dist[state]:  # stale entry
                    continue
                if hmax:
                    h = known.get(state)
                    if h is None:
                        h = known[state] = hmax(state, goal_facts)
                    if g + h > key:
                        if h != INF:
                            insort(buckets[g + h], (tie, state, g))
                        continue
                if state & goal_pos == goal_pos and not state & goal_neg:
                    steps = []
                    while state != start:
                        state, ai = parent[state]
                        steps.append(self.actions[ai])
                    steps.reverse()
                    found = Plan(tuple(steps), g)
                    object.__setattr__(found, "proof", Proof(self.actions, goal, heuristic, init))
                    return found
                expanded += 1
                if expanded > node_limit:
                    raise SearchLimitExceeded(f"expanded more than {node_limit} states")
                todo = applicable(state)
                while todo:  # action indices in increasing order
                    low = todo & -todo
                    todo ^= low
                    ai = low.bit_length() - 1
                    _, add, dele, cost = ops[ai]
                    successor = (state & ~dele) | add
                    new_g = g + cost
                    if new_g < dist.get(successor, INF):
                        bound = 0
                        if hmax:
                            bound = known.get(successor, max(h - cost, 0))
                            if bound == INF:
                                continue
                        dist[successor] = new_g
                        parent[successor] = (state, ai)
                        buckets[new_g + bound].append((ties, successor, new_g))
                        ties += 1
            del buckets[key]
        return None

    def rest_of(self, plan_: Plan, state: State, goal: frozenset, heuristic: str) -> Optional[Plan]:
        """The rest of ``plan_`` from ``state`` if it was searched over equal
        actions, for ``goal`` under ``heuristic``, and ``state`` is on its
        predicted path, else None. Costs do not depend on the state, so it is optimal."""
        if plan_.proof is None or plan_.proof[:3] != (self.actions, frozenset(goal), heuristic):
            return None
        path = itertools.accumulate(
            plan_.actions, lambda at, a: apply(at, a.adds, a.dels), initial=plan_.proof.start
        )
        for i, at in enumerate(path):
            if at == state:
                rest = plan_.actions[i:]
                return Plan(rest, sum(a.cost for a in rest))
        return None


def plan(
    actions: Iterable[GroundedAction],
    init: State,
    goal: Iterable[Literal],
    node_limit: int = DEFAULT_NODE_LIMIT,
    heuristic: str = "none",
) -> Optional[Plan]:
    """Optimal plan from init to goal, or None when the goal is unreachable.

    A goal literal on an atom that no action mentions is decided against
    ``init`` before any search, and so is a goal whose h_max from ``init`` is
    infinite. Raises SearchLimitExceeded after expanding ``node_limit`` states.
    """
    return compiled(actions).search(init, goal, node_limit, heuristic)


def compiled(actions: Iterable[GroundedAction]) -> Task:
    """``actions`` if it is already a Task, else a new Task of it."""
    return actions if isinstance(actions, Task) else Task(actions)


@dataclass(frozen=True)
class PlanValidation:
    """validate() result: ok, or the first step whose preconditions failed.

    ``failed_step`` is None with ``goal_satisfied`` False when the plan ran
    through but missed the goal.
    """

    ok: bool
    failed_step: Optional[int] = None
    missing: tuple[Literal, ...] = ()
    goal_satisfied: bool = True
    final_state: State = State()


def validate(plan_: Plan, init: State, goal: Iterable[Literal]) -> PlanValidation:
    """Replay a plan from init, checking every precondition, then the goal."""
    state = init
    for i, action in enumerate(plan_.actions):
        missing = tuple(l for l in sorted(action.pre, key=Literal.sort_key) if not holds(state, l))
        if missing:
            return PlanValidation(False, failed_step=i, missing=missing, final_state=state)
        state = apply(state, action.adds, action.dels)
    unmet = tuple(l for l in sorted(goal, key=Literal.sort_key) if not holds(state, l))
    if unmet:
        return PlanValidation(False, missing=unmet, goal_satisfied=False, final_state=state)
    return PlanValidation(True, final_state=state)

