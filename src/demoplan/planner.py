"""Grounding and optimal search over learned operators.

Costs come from observation counts: cost(op) = max_count - count(op) + 1, so
the most frequently demonstrated operator costs 1 and rarities cost more.
A learned library and a parsed PDDL domain both reach grounding as the same
ActionSchema list (OperatorLibrary.schemas, DomainDoc.actions), so there is
one grounding path. Grounding binds parameters to every tuple of distinct
objects of their types and numbers each atom, (predicate, object places),
when it first meets it; Task(actions) numbers a hand-built list's objects and
atoms by first appearance. Both feed one compile step, to integer bitmasks
over the atoms the actions mention; a goal literal on any other atom is
static and is decided against the initial state before searching. Objects
enter a grounded task only through their types in id order, so one compiled
core serves every call with equal schemas (names and costs included), type
hierarchy and object types in id order: a small LRU keeps the last
CORE_CACHE_SIZE cores, and each call returns a new Task over one under its
object names. A Task, grounded or hand-built, builds GroundedActions from
its tables alone: a plan's steps when it is found, and all of them once when
``actions`` is read. plan() and the monitor use a Task as it is; any other
action list is compiled on each call. Sharing never changes an answer: the
tables a core fills in lazily hold values that depend only on its key.
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
actions applicable in a state come from tables per 16-atom chunk, whose value
maps to the actions it blocks; the mask of the rest maps to their records
(index, ~del, add, cost) in that same order, one per action, shared. Both are
memoized on first sight and kept by the Task, so a state's successors cost
ceil(atoms / 16) + 1 lookups and one ``state & ~del | add`` each.
The frontier is a bucket queue (Dial 1969) rather than a binary heap: every
action cost is a positive integer, so every key (g, plus h_max's integer
estimate) is an integer, and each bucket keeps its entries in generation
order. No state is ever queued under a key below the one being expanded (a
child's key is at least its parent's, by h_max's consistency when it is on),
so emptying the lowest bucket before the next takes states in exactly the
(key, generation) order a heap would. Blind search's buckets hold bare
states, since a bucket's key is g; with h_max an entry is (tie, state, g).
"""

from __future__ import annotations

import itertools
from bisect import insort
from collections import defaultdict, namedtuple
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Optional, Sequence

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
    is_int_at_least,
)

DEFAULT_NODE_LIMIT = 10_000_000
CORE_CACHE_SIZE = 8  # compiled cores kept, least recently used dropped first
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


Proof = namedtuple("Proof", "key goal heuristic start")


@dataclass(frozen=True)
class Plan:
    actions: tuple[GroundedAction, ...]
    total_cost: int
    # The key of the Task search found it on, for and from; a built or copied plan has none.
    proof: Optional[Proof] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "actions", tuple(self.actions))
        if self.total_cost != sum(a.cost for a in self.actions):
            raise ValidationError("plan total_cost does not match its actions")


def ground_schemas(
    schemas: Sequence[ActionSchema], objects: Iterable[ObjectInstance], types: TypeTable
) -> Task:
    """The Task of all type-consistent bindings of distinct objects to the
    parameters, in (name, objects) order. An object of a type ``types`` does
    not declare raises, and so does one that ``types`` holds under another type.

    Objects enter only through their types in id order, so the actions over
    any objects are those of ``_core`` over their places in that order,
    renamed; the core is shared by every call with equal schemas (names and
    costs included), type hierarchy and object types in id order.
    """
    table = types.with_instances(objects)
    ids = tuple(sorted(table.instance_to_type))
    layout = tuple([table.instance_to_type[obj] for obj in ids])
    key = (tuple(schemas), frozenset(table.type_to_parent.items()), layout)
    task = Task.__new__(Task)
    task._name(_core(*key), ids, (*key, ids))
    return task


@lru_cache(maxsize=CORE_CACHE_SIZE)
def _core(schemas: tuple, parents: frozenset, layout: tuple[str, ...]) -> dict:
    """The compiled tables of ``schemas`` over the objects 0, 1, ... whose
    types ``layout`` lists, under the type hierarchy ``parents``: one action
    per binding of distinct objects, each of a subtype of its parameter's type.

    Bindings are taken in product order, and an atom gets its bit when a
    binding first meets it.
    """
    instances_of = TypeTable(dict(enumerate(layout)), dict(parents)).instances_of
    bits: dict[tuple, int] = {}
    heads, masks = [], []
    for schema in sorted(schemas, key=lambda s: s.name):
        position = {var: i for i, (var, _) in enumerate(schema.params)}
        parts = [  # (mask slot, predicate, the getter of its places)
            (slot, atom.predicate, _getter([position[arg] for arg in atom.args]))
            for slot, atom in (
                *((1 - l.positive, l.atom) for l in schema.pre),
                *((2, a) for a in schema.adds),
                *((3, a) for a in schema.dels),
            )
        ]
        for values in itertools.product(*[instances_of(type_id) for _, type_id in schema.params]):
            if len(set(values)) < len(values):
                continue
            mask = [0, 0, 0, 0]  # atoms needed true, needed false, added, deleted
            for slot, predicate, get in parts:
                mask[slot] |= 1 << bits.setdefault((predicate, get(values)), len(bits))
            heads.append((schema.name, values, schema.cost))
            masks.append(mask)
    if len({s.name for s in schemas}) < len(schemas):  # equal names: restore the tie-break order
        order = sorted(range(len(heads)), key=lambda i: heads[i][:2])
        heads, masks = [heads[i] for i in order], [masks[i] for i in order]
    return _compile(bits, heads, masks)


def _getter(picks: list[int]) -> itemgetter:
    """The function of a tuple that returns its items at ``picks``, as a tuple."""
    if len(picks) > 1:
        return itemgetter(*picks)
    return itemgetter(slice(picks[0], picks[0] + 1) if picks else slice(0))


def _compile(bits: dict[tuple, int], heads: list, masks: list) -> dict:
    """The tables every Task over one action list shares. ``bits`` numbers
    each atom, (predicate, object places), in bit order; ``heads`` holds each
    action's (name, object places, cost) in (name, objects) order, and
    ``masks`` its (atoms needed true, needed false, added, deleted)."""
    n = len(bits)
    ops = []  # (precondition facts, add, del, cost) per action
    for (pos, neg, add, dele), (name, _, cost) in zip(masks, heads):
        if add & dele:
            raise InvalidEffect(f"action {name!r} adds and deletes the same atom")
        if pos & neg:
            raise ValidationError(f"action {name!r} has contradictory preconditions")
        if not is_int_at_least(cost, 1):
            raise ValidationError(f"action {name!r} needs a positive integer cost")
        ops.append((pos | neg << n, add, dele, cost))
    # The actions that need fact i: atom i true, or atom i - n false.
    needed = [0] * 2 * n
    for ai, (pre, _, _, _) in enumerate(ops):
        for i in _members(pre):
            needed[i] |= 1 << ai
    pairs = list(zip(needed[:n], needed[n:]))
    # h_max's tables: actions blocked per needed-fact byte, fired effects per chunk
    unreached = [(at, _Blockers([(need, 0) for need in needed[at : at + 8]]))
                 for at in range(0, 2 * n, 8) if any(needed[at : at + 8])]
    changes = [(0, add | dele << n) for _, add, dele, _ in ops]
    effects, end = [], 0
    for cost, run in itertools.groupby(op[3] for op in ops):
        start, end = end, end + len(list(run))
        for at in range(start, end, 8):
            chunk = changes[at : min(at + 8, end)]
            effects.append((at, (1 << len(chunk)) - 1, cost, _Blockers(chunk)))
    return dict(
        n=n, all_atoms=(1 << n) - 1, ops=ops, all_actions=(1 << len(heads)) - 1,
        blockers=[(shift, _Blockers(pairs[shift : shift + 16])) for shift in range(0, n, 16)],
        successors=_Successors([(ai, ~dele, add, cost) for ai, (_, add, dele, cost) in enumerate(ops)]),
        unreached=unreached, effects=effects, _bits=bits, _atoms=list(bits), _heads=heads,
    )


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
    if not is_int_at_least(node_limit, 0):
        raise ValidationError(f"node limit must be a non-negative integer, got {node_limit!r}")


class _Blockers(dict):
    """Value of one chunk of a mask -> the union over its bits j of
    pairs[j][bit j]; over a chunk of a state's atoms, the actions that value
    blocks. Filled in on first lookup of each value."""

    def __init__(self, pairs: list[tuple[int, int]]):
        super().__init__()
        self.pairs = pairs  # (the mask for bit j clear, for bit j set)

    def __missing__(self, key: int) -> int:
        blocked, value = 0, key
        for pair in self.pairs:
            blocked |= pair[value & 1]
            value >>= 1
        self[key] = blocked
        return blocked


class _Successors(dict):
    """Mask of applicable actions -> their records (index, ~del, add, cost) in
    index order, shared by every entry. Filled in on first lookup of each mask."""

    def __init__(self, records: list[tuple[int, int, int, int]]):
        super().__init__()
        self.records = records

    def __missing__(self, key: int) -> tuple:
        found = self[key] = tuple(map(self.records.__getitem__, _members(key)))
        return found


class Task:
    """A grounded action set compiled to bitmasks once, then searched many times:
    the tables ``_compile`` made, shared by every Task over the same action
    list, plus the names of its object places.

    Actions are built in (name, objects) order, the tie-break order. Each of
    the n atoms an action mentions gets one bit, in an order that no answer
    depends on; any other atom is static. ``key`` names the action list in
    a plan's proof: the sorted list for ``Task(actions)``, and the schemas,
    type hierarchy and objects for a grounded Task, never a Task's tables.
    A fact is a literal: bit i says atom i is true, bit n + i that it is false.
    A set of actions is a mask with bit a for action a. Compiling is the one
    check of an action list: overlapping effects, contradictory preconditions
    and a cost that is not a positive integer raise.
    """

    def __init__(self, actions: Iterable[GroundedAction]):
        """The Task of ``actions``; objects and atoms are numbered by first appearance."""
        ordered = tuple(sorted(actions, key=GroundedAction.sort_key))
        place: dict[str, int] = {}
        bits: dict[tuple, int] = {}

        def places(objects: Iterable[str]) -> tuple[int, ...]:
            return tuple([place.setdefault(obj, len(place)) for obj in objects])

        def mask(atoms: Iterable[GroundAtom]) -> int:
            m = 0
            for atom in atoms:
                m |= 1 << bits.setdefault((atom.predicate, places(atom.args)), len(bits))
            return m

        heads, masks = [], []
        for action in ordered:
            heads.append((action.name, places(action.objects), action.cost))
            masks.append((
                mask(l.atom for l in action.pre if l.positive),
                mask(l.atom for l in action.pre if not l.positive),
                mask(action.adds),
                mask(action.dels),
            ))
        self._name(_compile(bits, heads, masks), tuple(place), ordered)

    def _name(self, tables: dict, ids: tuple[str, ...], key: tuple) -> None:
        """Take the shared ``tables`` under the object names ``ids``, place by place."""
        vars(self).update(tables)
        self.key, self._ids = key, ids
        self._place = {obj: i for i, obj in enumerate(ids)}.get

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self):
        return iter(self.actions)

    @cached_property
    def actions(self) -> tuple[GroundedAction, ...]:
        return self._build(range(len(self)))

    @cached_property
    def index(self) -> dict[GroundAtom, int]:
        return {self._atom(i): i for i in range(self.n)}

    def _bit(self, atom: GroundAtom) -> Optional[int]:
        """The bit of ``atom``, or None if no action mentions it."""
        return self._bits.get((atom.predicate, tuple(map(self._place, atom.args))))

    def _atom(self, i: int) -> GroundAtom:
        predicate, places = self._atoms[i]
        return GroundAtom(predicate, tuple([self._ids[p] for p in places]))

    def _build(self, picks: Iterable[int]) -> tuple[GroundedAction, ...]:
        """The actions at ``picks``, from the tables; each atom and literal among them is built once."""
        n, ids = self.n, self._ids
        rows = [(*self._heads[i], *self.ops[i]) for i in picks]
        facts = touched = 0
        for *_, pre, add, dele, _ in rows:
            facts, touched = facts | pre, touched | add | dele
        atom = {i: self._atom(i) for i in _members((facts | facts >> n) & self.all_atoms | touched)}.get
        literal = {f: Literal(atom(f % n), f < n) for f in _members(facts)}.get
        return tuple([
            GroundedAction(
                name, tuple([ids[p] for p in places]), frozenset(map(literal, _members(pre))),
                frozenset(map(atom, _members(add))), frozenset(map(atom, _members(dele))), cost,
            )
            for name, places, cost, pre, add, dele, _ in rows
        ])

    def applicable(self, state: int) -> int:
        """The mask of actions whose preconditions hold in ``state``."""
        blocked = 0
        for shift, table in self.blockers:
            blocked |= table[state >> shift & 0xFFFF]
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
            bit = self._bit(lit.atom)
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
            bit = self._bit(atom)
            if bit is not None:
                start |= 1 << bit

        known: dict[int, float] = {start: self.hmax(start, goal_facts)}  # h_max seen so far
        if known[start] == INF:  # unreachable even relaxed: no search, blind or not
            return None
        parent: dict[int, tuple[int, int]] = {}  # state -> (its parent, the action between)
        order = (self._astar(start, goal_facts, known, parent) if heuristic == "hmax"
                 else self._blind(start, parent))
        for expanded, (state, g) in enumerate(order):
            if state & goal_pos == goal_pos and not state & goal_neg:
                steps = []
                while state != start:
                    state, ai = parent[state]
                    steps.append(ai)
                found = Plan(self._build(reversed(steps)), g)
                object.__setattr__(found, "proof", Proof(self.key, goal, heuristic, init))
                return found
            if expanded == node_limit:
                raise SearchLimitExceeded(f"expanded more than {node_limit} states")
        return None

    def _blind(self, start: int, parent: dict) -> Iterator[tuple]:
        """Each state uniform-cost search expands, with its g, in order, expanded
        when resumed. An entry is stale once its state is reached more cheaply."""
        applicable, successors = self.applicable, self.successors
        dist: dict[int, int] = {start: 0}
        buckets: dict[int, list[int]] = defaultdict(list)
        buckets[0].append(start)
        while buckets:
            g = min(buckets)
            for state in buckets[g]:  # entries appended meanwhile included
                if dist[state] < g:
                    continue
                yield state, g
                for ai, keep, add, cost in successors[applicable(state)]:
                    successor = state & keep | add
                    new_g = g + cost
                    if new_g < dist.get(successor, INF):
                        dist[successor] = new_g
                        parent[successor] = (state, ai)
                        buckets[new_g].append(successor)
            del buckets[g]

    def _astar(self, start: int, goal_facts: int, known: dict, parent: dict) -> Iterator[tuple]:
        """As ``_blind``, for A* with h_max, whose values so far ``known`` holds.

        A generated state is queued under g plus a lower bound on its h: its
        h if known, else h(parent) - cost, which h_max's consistency allows.
        Its h is computed once, when it is popped; if the key was too low, it
        goes back under its true key with its original tie counter, inserted
        in tie order, or is dropped when h is infinite. States are therefore
        expanded in the order eager evaluation would give.
        """
        hmax, applicable, successors = self.hmax, self.applicable, self.successors
        dist: dict[int, int] = {start: 0}
        # key -> its (tie, state, g) entries in tie order; see the module docstring
        buckets: dict[int, list[tuple[int, int, int]]] = defaultdict(list)
        buckets[0].append((0, start, 0))
        ties = 1
        while buckets:
            key = min(buckets)
            for tie, state, g in buckets[key]:  # entries appended meanwhile included
                if g > dist[state]:  # stale entry
                    continue
                h = known.get(state)
                if h is None:
                    h = known[state] = hmax(state, goal_facts)
                if g + h > key:
                    if h != INF:
                        insort(buckets[g + h], (tie, state, g))
                    continue
                yield state, g
                for ai, keep, add, cost in successors[applicable(state)]:
                    successor = state & keep | add
                    new_g = g + cost
                    if new_g < dist.get(successor, INF):
                        bound = known.get(successor, max(h - cost, 0))
                        if bound == INF:
                            continue
                        dist[successor] = new_g
                        parent[successor] = (state, ai)
                        buckets[new_g + bound].append((ties, successor, new_g))
                        ties += 1
            del buckets[key]

    def rest_of(self, plan_: Plan, state: State, goal: frozenset, heuristic: str) -> Optional[Plan]:
        """The rest of ``plan_`` from ``state`` if it was searched on a Task of
        equal ``key``, for ``goal`` under ``heuristic``, and ``state`` is on its
        predicted path, else None. Costs do not depend on the state, so it is optimal."""
        if plan_.proof is None or plan_.proof[:3] != (self.key, frozenset(goal), heuristic):
            return None
        path = itertools.accumulate(
            plan_.actions, lambda at, a: apply(at, a.adds, a.dels), initial=plan_.proof.start
        )
        for i, at in enumerate(path):
            if at == state:
                rest = plan_.actions[i:]
                return Plan(rest, sum(a.cost for a in rest))
        return None


def _members(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask``, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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

