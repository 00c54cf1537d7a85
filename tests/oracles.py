"""Reference implementations the tests compare the package against.

Everything in this module is deliberately written from scratch in the most
direct style available: plain sets and dicts, exhaustive enumeration, no
bitmasks (``applicable_reference`` only reads a compiled task's state
integer), and no imports from demoplan beyond the frozen dataclasses whose
public fields the oracles read or that ``ground_reference``,
``extract_reference`` and ``segment_reference`` build, and the exceptions
``extract_reference`` and ``segment_reference`` raise. The decoding
references (``trace_from_dict_reference``, ``library_from_dict_reference``)
also use the package's JSON codecs for the single values they decode, and
decode every atom and literal entry where it stands;
``canonical_form_reference`` renames every literal of an operator,
``read_all_reference`` counts lines and columns as its scan meets each
newline, and ``json_text_reference`` is the standard library's indented
encoder. ``ground_eager`` is the exception: it is the package's former
grounder, kept as it was, because the atom numbering it defines is what the
grounder that replaced it must reproduce. When an oracle and the package disagree, one of them has a bug; the
oracles are kept simple enough to audit by eye.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import json
import math
import operator
import re
from collections import Counter, defaultdict

from demoplan.errors import (
    InputError,
    NoActorError,
    NoEffectSegment,
    PddlSyntaxError,
    ValidationError,
)
from demoplan.learning import OperatorLibrary
from demoplan.model import (
    ActionSchema,
    GroundAtom,
    Literal,
    atom_from_list,
    check_atom_types,
    expect,
    expect_keys,
    literal_from_list,
    types_from_json,
    vocabulary_from_json,
)
from demoplan.planner import GroundedAction
from demoplan.segmentation import Segment
from demoplan.traces import Frame, Trace


def ground_reference(schemas, objects, types):
    """Every type-consistent binding of every schema, by substituting a
    binding dict into each atom: what ``planner.ground_schemas`` must return,
    in the same order. Objects bound to distinct parameters differ.
    """
    table = types.with_instances(objects)
    actions = []
    for schema in sorted(schemas, key=lambda s: s.name):
        candidates = [table.instances_of(type_id) for _, type_id in schema.params]
        variables = [var for var, _ in schema.params]
        for chosen in itertools.product(*candidates):
            if len(set(chosen)) != len(chosen):
                continue
            binding = dict(zip(variables, chosen))

            def substitute(atom):
                return GroundAtom(atom.predicate, tuple(binding[a] for a in atom.args))

            actions.append(
                GroundedAction(
                    name=schema.name,
                    objects=tuple(chosen),
                    pre=frozenset(Literal(substitute(l.atom), l.positive) for l in schema.pre),
                    adds=frozenset(substitute(a) for a in schema.adds),
                    dels=frozenset(substitute(a) for a in schema.dels),
                    cost=schema.cost,
                )
            )
    return sorted(actions, key=lambda act: (act.name, act.objects))


def ground_eager(schemas, objects, types):
    """The grounder that built every ground action at once, kept as the
    reference for the one that compiles masks and shares them across calls:
    ``(actions, index)``, the actions in (name, objects) order and each
    atom's bit, numbered when the atom is first built, once per binding
    prefix, in the order in which ``planner.ground_schemas`` must number it.
    """
    instances_of = functools.lru_cache(maxsize=None)(types.with_instances(objects).instances_of)
    index = {}
    # predicate, or (predicate, polarity) -> {arguments: (atom or literal, its bit)}
    built = defaultdict(dict)
    actions = []

    def extend(level, values, parts):
        """``parts`` (pre, adds, dels) joined with ``level``'s."""
        if not level:
            return parts
        found = ([], [], [], [])
        for lookup, get, slot, predicate, picks, positive in level:
            key = get(values)
            hit = lookup(key)
            if hit is None:
                hit = built[predicate].get(key)
                if hit is None:
                    atom = GroundAtom(predicate, tuple([values[i] for i in picks]))
                    hit = built[predicate][key] = (atom, index.setdefault(atom, len(index)))
                if positive is not None:
                    hit = built[predicate, positive][key] = (Literal(hit[0], positive), hit[1])
            found[slot].append(hit[0])
        pre, adds, dels = parts
        pre = pre.union(found[0], found[1]) if found[0] or found[1] else pre
        adds = adds.union(found[2]) if found[2] else adds
        return pre, adds, dels.union(found[3]) if found[3] else dels

    for schema in sorted(schemas, key=lambda s: s.name):
        position = {var: i for i, (var, _) in enumerate(schema.params)}
        width = len(position)
        levels = [[] for _ in range(width + 1)]  # by 1 + the deepest position named
        for slot, atom, positive in (
            *((1 - l.positive, l.atom, l.positive) for l in schema.pre),
            *((2, a, None) for a in schema.adds),
            *((3, a, None) for a in schema.dels),
        ):
            picks = tuple([position[arg] for arg in atom.args])
            get = operator.itemgetter(*picks) if picks else lambda values: ()
            lookup = built[atom.predicate if positive is None else (atom.predicate, positive)].get
            levels[max(picks, default=-1) + 1].append(
                (lookup, get, slot, atom.predicate, picks, positive)
            )
        candidates = [instances_of(type_id) for _, type_id in schema.params]
        # stack[j + 1]: the parts of the binding prefix of length j, once an action needs them
        stack = [(frozenset(), frozenset(), frozenset())]

        def bind(values):
            depth = len(values)
            if depth < width:
                for obj in candidates[depth]:
                    if obj not in values:
                        del stack[depth + 2 :]
                        bind(values + (obj,))
                return
            for j in range(len(stack) - 1, width + 1):
                stack.append(extend(levels[j], values, stack[-1]))
            actions.append(GroundedAction(schema.name, values, *stack[-1], schema.cost))

        bind(())
    return sorted(actions, key=GroundedAction.sort_key), index


def dijkstra_plan(actions, init, goal):
    """Cheapest plan by textbook Dijkstra over frozenset-of-atoms states.

    ``actions`` is any sequence of objects with ``pre`` (literals), ``adds``,
    ``dels`` (atom sets) and an integer ``cost``.  Returns ``(cost, actions)``
    or None when the goal is unreachable.  Tie-breaking is arbitrary, so only
    the cost is comparable against another planner.
    """
    goal = list(goal)
    start = frozenset(init.true_atoms)
    best = {start: 0}
    heap = [(0, 0, start, ())]
    tie = itertools.count(1)
    while heap:
        cost, _, atoms, path = heapq.heappop(heap)
        if cost > best.get(atoms, cost):
            continue
        if all((lit.atom in atoms) == lit.positive for lit in goal):
            return cost, path
        for act in actions:
            if not all((lit.atom in atoms) == lit.positive for lit in act.pre):
                continue
            successor = frozenset((atoms - act.dels) | act.adds)
            next_cost = cost + act.cost
            if next_cost < best.get(successor, next_cost + 1):
                best[successor] = next_cost
                heapq.heappush(heap, (next_cost, next(tie), successor, path + (act,)))
    return None


def applicable_reference(task, state):
    """The actions of a compiled planner task that apply in ``state``, found
    by testing every action in turn.

    ``state`` is the task's integer encoding: bit ``task.index[atom]`` is set
    when the atom is true. Returns a mask with bit i set when every
    precondition literal of ``task.actions[i]`` holds.
    """
    mask = 0
    for i, act in enumerate(task.actions):
        if all((state >> task.index[lit.atom] & 1) == lit.positive for lit in act.pre):
            mask |= 1 << i
    return mask


def hmax_reference(actions, atoms, goal):
    """h_max (Bonet & Geffner 2001) by Knuth's generalised Dijkstra.

    A fact is an ``(atom, value)`` pair, and every fact of the state
    ``atoms`` costs 0.  Facts settle in cost order; an action fires once all
    its precondition facts have settled, at the cost of the last one plus its
    own cost, and offers that cost to each of its effect facts.  Returns the
    max cost over goal facts, 0 for an empty goal, or infinity when a goal
    fact is never reached.  Atoms are keyed by (name, args), which hashes
    faster than the atom itself.
    """
    state = {atom.sort_key() for atom in atoms}
    universe = set(state) | {lit.atom.sort_key() for lit in goal}
    unmet = []
    needed_by = {}
    effects = []
    tie = itertools.count()
    heap = []
    for i, act in enumerate(actions):
        pre = [(lit.atom.sort_key(), lit.positive) for lit in act.pre]
        effects.append(
            [(atom.sort_key(), True) for atom in act.adds]
            + [(atom.sort_key(), False) for atom in act.dels]
        )
        universe |= {key for key, _ in pre} | {key for key, _ in effects[i]}
        unmet.append(len(pre))
        for fact in pre:
            needed_by.setdefault(fact, []).append(i)
        if not pre:
            heap += [(act.cost, next(tie), fact) for fact in effects[i]]
    heap += [(0, next(tie), (key, key in state)) for key in universe]
    heapq.heapify(heap)
    cost = {}
    while heap:
        reached, _, fact = heapq.heappop(heap)
        if fact in cost:
            continue
        cost[fact] = reached
        for i in needed_by.get(fact, ()):
            unmet[i] -= 1
            if unmet[i] == 0:
                for effect in effects[i]:
                    heapq.heappush(heap, (reached + actions[i].cost, next(tie), effect))
    return max(
        (cost.get((lit.atom.sort_key(), lit.positive), float("inf")) for lit in goal),
        default=0,
    )


def astar_plan(actions, init, goal, blind=False):
    """Textbook eager A* with ``hmax_reference``, or with h = 0 when
    ``blind`` (Dijkstra): the expansion order the package's search must keep
    however it evaluates the heuristic and queues states. Either way, a
    start state whose h_max is infinite ends the search at once.

    Actions are tried in (name, objects) order. A successor that lowers its
    best known cost is evaluated at once, dropped when its h is infinite, and
    queued under cost + h behind a FIFO counter, so equal keys leave the
    queue in the order they entered it. Returns ``(actions, expansions)``:
    the plan, or None when the goal is unreachable, and the number of states
    expanded that did not satisfy the goal.
    """
    actions = sorted(actions, key=lambda act: (act.name, act.objects))
    goal = list(goal)
    start = frozenset(init.true_atoms)

    def estimate(atoms):
        return 0 if blind else hmax_reference(actions, atoms, goal)

    # Blind or not, a goal that h_max finds unreachable from the start (an
    # unmet goal atom that no action mentions, say) is decided before search.
    if hmax_reference(actions, start, goal) == float("inf"):
        return None, 0
    h = estimate(start)
    best = {start: 0}
    tie = itertools.count()
    heap = [(h, next(tie), 0, start, ())]
    expansions = 0
    while heap:
        _, _, cost, atoms, path = heapq.heappop(heap)
        if cost > best[atoms]:
            continue
        if all((lit.atom in atoms) == lit.positive for lit in goal):
            return path, expansions
        expansions += 1
        for act in actions:
            if not all((lit.atom in atoms) == lit.positive for lit in act.pre):
                continue
            successor = frozenset((atoms - act.dels) | act.adds)
            next_cost = cost + act.cost
            if next_cost < best.get(successor, float("inf")):
                h = estimate(successor)
                if h == float("inf"):
                    continue
                best[successor] = next_cost
                heapq.heappush(
                    heap, (next_cost + h, next(tie), next_cost, successor, path + (act,))
                )
    return None, expansions


def replay(plan_actions, init, goal):
    """Execute a plan literally; return (total_cost, final_atoms) or None.

    None means a precondition failed along the way or the goal does not hold
    at the end.
    """
    atoms = set(init.true_atoms)
    total = 0
    for act in plan_actions:
        if not all((lit.atom in atoms) == lit.positive for lit in act.pre):
            return None
        atoms = (atoms - set(act.dels)) | set(act.adds)
        total += act.cost
    if not all((lit.atom in atoms) == lit.positive for lit in goal):
        return None
    return total, frozenset(atoms)


def type_chain(type_id, parents):
    chain = [type_id]
    while chain[-1] in parents:
        chain.append(parents[chain[-1]])
    return chain


def all_typed_atoms(signatures, object_types, parents):
    """Every well-typed ground atom as (name, args) pairs, brute force.

    ``object_types`` maps object id to type id, ``parents`` maps type id to
    parent type id.  Repeated arguments are included.
    """
    atoms = set()
    for sig in signatures:
        pools = []
        for wanted in sig.arg_types:
            pools.append(
                sorted(
                    obj
                    for obj, t in object_types.items()
                    if wanted in type_chain(t, parents)
                )
            )
        for combo in itertools.product(*pools):
            atoms.add((sig.name, combo))
    return atoms


def enumerate_atoms(vocabulary, object_ids, types):
    """Yield every well-typed ground atom over the given objects, in sorted
    order, repeated arguments included."""
    pool = sorted(object_ids)
    for sig in vocabulary.signatures:
        candidates = [
            [obj for obj in pool if types.is_subtype(types.type_of(obj), t)]
            for t in sig.arg_types
        ]
        for args in itertools.product(*candidates):
            yield GroundAtom(sig, args)


def extract_reference(trace, seg):
    """What ``learning.extract`` must return, read off the type table.

    The parameters are the actor, then every argument of an atom that changed
    between the segment's two frames, in sorted atom order, with their types.
    The preconditions hold every well-typed atom over those objects that is
    true in the first frame, and, negated, every one that is false there but
    true in some frame. The adds are the atoms true only in the last frame,
    the deletes those true only in the first.
    """
    start = trace.frames[seg.start_frame].true_atoms
    end = trace.frames[seg.end_frame].true_atoms
    changed = sorted(start ^ end, key=GroundAtom.sort_key)
    if not changed:
        raise NoEffectSegment(
            f"segment {seg.label!r} [{seg.start_frame}..{seg.end_frame}] changed no atoms"
        )
    objects = [seg.actor]
    for atom in changed:
        for arg in atom.args:
            if arg not in objects:
                objects.append(arg)
    active = set()
    for frame in trace.frames:
        active |= frame.true_atoms

    def snapshot(true_atoms):
        literals = set()
        for atom in enumerate_atoms(trace.vocabulary, objects, trace.types):
            if atom in true_atoms:
                literals.add(Literal(atom, True))
            elif atom in active:
                literals.add(Literal(atom, False))
        return frozenset(literals)

    params = tuple((obj, trace.types.instance_to_type[obj]) for obj in objects)
    return ActionSchema(
        seg.label, params, snapshot(start), frozenset(end - start), frozenset(start - end)
    )


def _unify(cond, pool, binding):
    """Every extension of ``binding`` that matches ``cond`` against an atom
    of ``pool``; ``?``-arguments are variables, the rest object ids."""
    for atom in pool:
        if atom.predicate.name != cond.predicate or len(atom.args) != len(cond.args):
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


def _fires_reference(rule, actor_id, state, added, deleted):
    """Depth-first search for a binding of the binding conditions under
    which no non-binding condition matches a true atom."""
    binders = [c for c in rule.conditions if c.binds()]
    filters = [c for c in rule.conditions if not c.binds()]

    def pool(cond):
        if cond.scope == "state":
            return state
        return added if cond.positive else deleted

    def search(index, binding):
        if index == len(binders):
            for cond in filters:
                for _ in _unify(cond, state, binding):
                    return False
            return True
        cond = binders[index]
        for extended in _unify(cond, pool(cond), binding):
            if search(index + 1, extended):
                return True
        return False

    return search(0, {"?actor": actor_id})


def segment_reference(trace, rules):
    """What ``segmentation.segment`` must return, or the exception it raises.

    Each transition is classified separately for each actor: its added and
    deleted atoms are recomputed, the actor's rules filtered and sorted by
    priority, and the first that fires names it.  Runs of one label other
    than ``idle`` become segments, actors in id order.
    """
    priorities = [r.priority for r in rules]
    if len(set(priorities)) != len(priorities):
        raise ValidationError(f"rule priorities must be unique, got {sorted(priorities)}")

    def classify_frame(frame_index, actor):
        state = trace.frames[frame_index].true_atoms
        previous = trace.frames[frame_index - 1].true_atoms
        added = state - previous
        deleted = previous - state
        applicable = [r for r in rules if trace.types.is_subtype(actor.type_id, r.actor_type)]
        for rule in sorted(applicable, key=lambda r: -r.priority):
            if _fires_reference(rule, actor.id, state, added, deleted):
                return rule.name
        return "idle"

    def frame_labels(actor):
        return ["idle"] + [classify_frame(i, actor) for i in range(1, len(trace.frames))]

    actors = [
        obj
        for obj in trace.objects
        if any(trace.types.is_subtype(obj.type_id, r.actor_type) for r in rules)
    ]
    if not actors:
        raise NoActorError(
            f"trace declares no object matching any rule actor type "
            f"({sorted({r.actor_type for r in rules})})"
        )
    segments = []
    for actor in actors:
        labels = frame_labels(actor)
        i = 1
        while i < len(labels):
            if labels[i] == "idle":
                i += 1
                continue
            j = i
            while j + 1 < len(labels) and labels[j + 1] == labels[i]:
                j += 1
            segments.append(Segment(labels[i], actor.id, start_frame=i - 1, end_frame=j))
            i = j + 1
    return segments


def _relabeled(literals, mapping):
    return {
        (lit.atom.name, tuple(mapping.get(a, a) for a in lit.atom.args), lit.positive)
        for lit in literals
    }


def _effects(schema):
    return [Literal(atom) for atom in schema.adds] + [Literal(atom, False) for atom in schema.dels]


def operators_equivalent(a, b):
    """True when some type-preserving parameter bijection maps a onto b.

    Tries every permutation outright; operators here have at most a handful
    of parameters, so the factorial blowup never matters.
    """
    if len(a.params) != len(b.params):
        return False
    a_vars = [v for v, _ in a.params]
    a_types = [t for _, t in a.params]
    b_vars = [v for v, _ in b.params]
    b_types = [t for _, t in b.params]
    if sorted(a_types) != sorted(b_types):
        return False
    b_pre = _relabeled(b.pre, {})
    b_effects = _relabeled(_effects(b), {})
    for perm in itertools.permutations(range(len(b_vars))):
        if any(a_types[i] != b_types[perm[i]] for i in range(len(a_vars))):
            continue
        mapping = {a_vars[i]: b_vars[perm[i]] for i in range(len(a_vars))}
        if _relabeled(a.pre, mapping) == b_pre and _relabeled(_effects(a), mapping) == b_effects:
            return True
    return False


def count_groundings(pools):
    """How many tuples of distinct objects a parameter list admits over candidate pools."""
    return sum(len(set(combo)) == len(combo) for combo in itertools.product(*pools))


def debounced_reference(values, window):
    """Forward-scan debounce of one boolean series, independent of the
    run-length formulation in the package: a change is accepted at i only
    when the next window frames (i included) all carry the new value."""
    out = [values[0]]
    current = values[0]
    for i in range(1, len(values)):
        stable = len(values) - i >= window and all(
            v == values[i] for v in values[i : i + window]
        )
        if values[i] != current and stable:
            current = values[i]
        out.append(current)
    return out


def trace_from_dict_reference(payload):
    """``traces.trace_from_dict`` that decodes and type-checks every atom
    entry of every frame anew."""
    expect_keys(payload, "trace", "vocabulary", "objects", "frames")
    vocabulary = vocabulary_from_json(payload["vocabulary"])
    extra = expect(payload.get("types", {}), dict, "'types'")
    types = types_from_json(payload["objects"], extra.get("parents", {}), [])
    frames = []
    for i, raw in enumerate(expect(payload["frames"], list, "'frames'")):
        expect_keys(raw, f"frame {i}", "t", "atoms")
        timestamp = expect(raw["t"], (int, float), f"frame {i} 't'")
        if not math.isfinite(timestamp):
            raise ValidationError(f"timestamp must be finite, got {timestamp}", frame=i)
        atoms = set()
        for entry in expect(raw["atoms"], list, f"frame {i} 'atoms'"):
            try:
                atom = atom_from_list(entry, vocabulary)
                check_atom_types(atom, types)
            except InputError as exc:
                raise ValidationError(str(exc), frame=i, atom=repr(entry)) from exc
            atoms.add(atom)
        frames.append(Frame(float(timestamp), frozenset(atoms)))
    meta = expect(payload.get("meta", {}), dict, "'meta'")
    return Trace(
        vocabulary=vocabulary,
        types=types,
        frames=tuple(frames),
        demonstrator=expect(meta.get("demonstrator", ""), str, "meta 'demonstrator'"),
        scenario=expect(meta.get("scenario", ""), str, "meta 'scenario'"),
    )


def _literal_text(lit, renaming):
    args = ",".join(renaming[a] for a in lit.atom.args)
    return f"{'' if lit.positive else '!'}{lit.atom.name}({args})"


def canonical_form_reference(name, params, pre, post):
    """The canonical schema of an operator and its key: of every
    type-preserving parameter order (types sorted), the one whose
    serialization is smallest, with every literal renamed into it."""
    groups = [[p for p in params if p[1] == t] for t in sorted({t for _, t in params})]
    best = None
    for permuted in itertools.product(*(itertools.permutations(g) for g in groups)):
        ordering = [p for group in permuted for p in group]
        numbered = {v: f"?x{i}" for i, (v, _) in enumerate(ordering)}
        snapshots = [";".join(sorted(_literal_text(l, numbered) for l in s)) for s in (pre, post)]
        key = "|".join([name, ",".join(t for _, t in ordering), *snapshots])
        if best is None or key < best[0]:
            best = (key, ordering)
    key, ordering = best
    letters = Counter()
    renaming = {}
    for var, type_id in ordering:
        letter = next((ch for ch in type_id.lower() if ch.isalpha()), "v")
        letters[letter] += 1
        renaming[var] = f"?{letter}{letters[letter]}"

    def rename(atom):
        return GroundAtom(atom.predicate, tuple(renaming[a] for a in atom.args))

    changed = post - pre
    schema = ActionSchema(
        name,
        tuple((renaming[v], t) for v, t in ordering),
        frozenset(Literal(rename(l.atom), l.positive) for l in pre),
        frozenset(rename(l.atom) for l in changed if l.positive),
        frozenset(rename(l.atom) for l in changed if not l.positive),
    )
    return schema, key


def library_from_dict_reference(payload):
    """``learning.library_from_dict`` for a well-formed payload: every
    literal entry decoded anew and every entry renamed into canonical form."""
    vocabulary = vocabulary_from_json(payload["vocabulary"])
    raw_types = payload["types"]
    types = types_from_json([], raw_types.get("parents", {}), raw_types.get("all", []))
    library = OperatorLibrary(vocabulary=vocabulary, types=types)
    for entry in payload["operators"]:
        pre, post = (
            frozenset(literal_from_list(l, vocabulary) for l in entry[k]) for k in ("pre", "post")
        )
        schema, key = canonical_form_reference(
            entry["name"], [tuple(p) for p in entry["params"]], pre, post
        )
        assert key not in library.operators
        library.operators[key] = schema
        library.counts[key] = entry["count"]
    return library


class RefList(list):
    """A parenthesized list of ``read_all_reference``; ``paren`` is its '('."""

    def __init__(self, paren):
        super().__init__()
        self.paren = paren


class RefToken:
    def __init__(self, text, line, column):
        self.text, self.line, self.column = text, line, column

    def place(self):
        return self.line, self.column


def read_all_reference(text):
    """The one top-level form of a PDDL text, with each token's line and
    column counted as the scan meets each newline."""
    line, line_start = 1, 0
    open_lists = []
    top = None
    for match in re.finditer(r"\n|;[^\n]*|[()]|[^ \t\r\n();]+", text):
        lexeme = match.group()
        if lexeme == "\n":
            line, line_start = line + 1, match.end()
            continue
        if lexeme[0] == ";":
            continue
        tok = RefToken(lexeme, line, match.start() - line_start + 1)
        if top is not None:
            raise PddlSyntaxError("trailing text after top-level form", tok.line, tok.column)
        if lexeme == "(":
            open_lists.append(RefList(tok))
            continue
        if lexeme == ")":
            if not open_lists:
                raise PddlSyntaxError("unexpected ')'", tok.line, tok.column)
            item = open_lists.pop()
        else:
            item = tok
        if open_lists:
            open_lists[-1].append(item)
        else:
            top = item
    if open_lists:
        paren = open_lists[-1].paren
        raise PddlSyntaxError("unbalanced parenthesis", paren.line, paren.column)
    if top is None:
        raise PddlSyntaxError("empty input", line=1, column=1)
    return top


def json_text_reference(payload):
    """The text of a JSON file the package writes, from ``json.dumps`` itself."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
