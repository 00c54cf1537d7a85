"""Operator extraction, lifting, and the counted operator library.

Extraction reads each segment as a ground ActionSchema named by the rule
label, restricted to the objects the activity touched: its parameters are
those objects with their types, every literal holding at the anchor frame is
a precondition, and the atoms that changed by the final frame are its adds
and deletes. Negative literals are admitted only for atoms that are true
somewhere in the trace, which keeps never-observed facts out of the operators.
Lifting renames those objects to typed variables; an operator's post-state is
its preconditions with the delta applied. Operators are identified up to
variable renaming through a canonical key, and re-observing one increments its
count instead of adding a duplicate. lift(), learn_from_trace and
library_from_dict search each operator's key once; the last two hand it to
merge(), and canonical_key() reads it off a canonical schema without a search.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path
from typing import Collection, Iterable, Mapping, Optional, Sequence

from .errors import NoEffectSegment, ParseError, SchemaError, ValidationError, located
from .model import (
    ActionSchema,
    GroundAtom,
    Literal,
    TypeTable,
    Vocabulary,
    expect,
    expect_keys,
    json_text,
    literal_from_list,
    literal_to_list,
    once_per_entry,
    read_json,
    types_from_json,
    vocabulary_from_json,
    vocabulary_to_json,
    write_file,
)
from .segmentation import ClassifierRule, Segment, segment as segment_trace
from .traces import DebounceConfig, Trace, debounce

logger = logging.getLogger(__name__)

MAX_PARAMS = 5


def extract(trace: Trace, seg: Segment) -> ActionSchema:
    """Read one ground operator off a segment; raises NoEffectSegment if nothing changed.

    Its parameters are the actor, then every argument of an atom that changed
    between the anchor and the final frame, in order of first appearance, each
    with its type in the trace. Its preconditions hold one literal per active
    atom whose arguments are all among those objects, as at the anchor frame;
    it adds the changed atoms true at the final frame and deletes the others.
    This relies on every atom being well typed, which load_trace checks.
    """
    start = trace.frames[seg.start_frame].true_atoms
    end = trace.frames[seg.end_frame].true_atoms
    changed = sorted(start ^ end, key=GroundAtom.sort_key)
    if not changed:
        raise NoEffectSegment(
            f"segment {seg.label!r} [{seg.start_frame}..{seg.end_frame}] changed no atoms"
        )
    objects = tuple(dict.fromkeys([seg.actor, *(arg for atom in changed for arg in atom.args)]))
    allowed = set(objects)
    atoms = [atom for atom in trace.active_atoms if allowed.issuperset(atom.args)]
    return ActionSchema(
        seg.label,
        tuple((obj, trace.types.type_of(obj)) for obj in objects),
        frozenset(Literal(atom, atom in start) for atom in atoms),
        frozenset(atom for atom in changed if atom in end),
        frozenset(atom for atom in changed if atom in start),
    )


def _substituted(op: ActionSchema, mapping: Mapping[str, str]) -> tuple[frozenset, ...]:
    """The preconditions, adds and deletes of ``op``, every argument renamed by ``mapping``."""

    def rename(atom: GroundAtom) -> GroundAtom:
        return GroundAtom(atom.predicate, tuple(mapping[a] for a in atom.args))

    pre = frozenset(Literal(rename(l.atom), l.positive) for l in op.pre)
    return pre, frozenset(map(rename, op.adds)), frozenset(map(rename, op.dels))


# Percent-encoding the separators of a key in each name keeps keys injective.
_ESCAPE = str.maketrans({c: f"%{ord(c):02X}" for c in "%|;,()!"})
_escaped = lru_cache(maxsize=4096)(lambda name: name.translate(_ESCAPE))


def _key(name: str, ordering: Sequence[tuple[str, str]], *snapshots: frozenset[Literal]) -> str:
    """Name, parameter types and each snapshot's sorted literal reprs, names
    escaped and parameters renamed ?x0, ?x1, ... in ``ordering``; no literal is built."""
    renaming = {token: f"?x{i}" for i, (token, _) in enumerate(ordering)}

    def text(lit: Literal) -> str:
        args = ",".join([renaming[arg] for arg in lit.atom.args])
        return f"{'' if lit.positive else '!'}{_escaped(lit.atom.name)}({args})"

    serialized = (";".join(sorted(map(text, snapshot))) for snapshot in snapshots)
    return "|".join((_escaped(name), ",".join(_escaped(t) for _, t in ordering), *serialized))


def _post(schema: ActionSchema) -> frozenset[Literal]:
    """The post-state of a learned operator: its preconditions with the delta applied."""
    changed = schema.adds | schema.dels
    return frozenset(
        [l for l in schema.pre if l.atom not in changed]
        + [Literal(a) for a in schema.adds]
        + [Literal(a, False) for a in schema.dels]
    )


def _canonical_order(op: ActionSchema) -> tuple[str, tuple[tuple[str, str], ...]]:
    """The canonical key of an operator and the parameter order that gives it.

    Parameters are grouped by type (types in sorted order), then every
    permutation inside each same-type group is serialized and the
    lexicographically smallest serialization wins.  The key is therefore
    invariant under any type-preserving renaming of the original parameters.
    """
    if len(op.params) > MAX_PARAMS:
        raise ValidationError(
            f"operator {op.name!r} touches {len(op.params)} objects; only {MAX_PARAMS} supported"
        )
    groups: list[list[tuple[str, str]]] = []
    for type_id in sorted({t for _, t in op.params}):
        groups.append([p for p in op.params if p[1] == type_id])

    orderings = (
        tuple(itertools.chain.from_iterable(permuted))
        for permuted in itertools.product(*(itertools.permutations(g) for g in groups))
    )
    name, pre, post = op.name, op.pre, _post(op)
    return min(((_key(name, o, pre, post), o) for o in orderings), key=lambda p: p[0])


def _renamed(op: ActionSchema, ordering: tuple[tuple[str, str], ...]) -> ActionSchema:
    """``op`` with its parameters in the order _canonical_order() found, renamed ?<letter><n>."""
    letter_counts: dict[str, int] = {}
    final_names = []
    for _, type_id in ordering:
        letter = next((ch for ch in type_id.lower() if ch.isalpha()), "v")
        letter_counts[letter] = letter_counts.get(letter, 0) + 1
        final_names.append(f"?{letter}{letter_counts[letter]}")
    renaming = {token: final_names[i] for i, (token, _) in enumerate(ordering)}
    params = tuple((renaming[token], type_id) for token, type_id in ordering)
    pre, adds, dels = op.pre, op.adds, op.dels
    if params != ordering:  # entries that save_library wrote already have these names
        pre, adds, dels = _substituted(op, renaming)
    return ActionSchema(op.name, params, pre, adds, dels)


def lift(op: ActionSchema, types: TypeTable) -> ActionSchema:
    """Rename a ground operator, as extract() returns it, into canonical form.
    ``types`` goes unread, since extract() typed the parameters; it stays
    because the benchmark harness calls ``lift(grounded, types)``."""
    return _renamed(op, _canonical_order(op)[1])


def canonical_key(schema: ActionSchema) -> str:
    """The renaming-invariant identity of an operator inside a library.

    ``schema`` must be canonical, as lift() and load_library return it: the
    key is read off its parameters in their stored order, without a search.
    """
    return _key(schema.name, schema.params, schema.pre, _post(schema))


def fresh_name(base: str, taken: Collection[str]) -> str:
    """``base`` if it is not taken, else ``base_N`` with the smallest free N >= 2."""
    name, n = base, 1
    while name in taken:
        n += 1
        name = f"{base}_{n}"
    return name


@dataclass
class OperatorLibrary:
    """Canonical action schemas (named by rule label, cost 1) and their observation
    counts, both keyed by canonical key, plus the shared schema, empty until learned.

    Only merge() writes to the operator map; concurrent readers are fine, a
    single writer at a time is assumed.
    """

    vocabulary: Vocabulary = Vocabulary(())
    types: TypeTable = TypeTable()
    operators: dict[str, ActionSchema] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)

    @staticmethod
    def empty(vocabulary: Vocabulary, types: TypeTable) -> "OperatorLibrary":
        library = OperatorLibrary()
        library.absorb_schema(vocabulary, types)
        return library

    def variant_names(self) -> dict[str, str]:
        """A unique, deterministic name per operator. In key order, the first
        operator of a label keeps the label; each further one gets
        fresh_name(label), never a name another operator holds."""
        unclaimed = {op.name for op in self.operators.values()}
        taken, names = set(unclaimed), {}
        for key, op in sorted(self.operators.items()):
            name = names[key] = op.name if op.name in unclaimed else fresh_name(op.name, taken)
            unclaimed.discard(op.name)
            taken.add(name)
        return names

    def schemas(self, costs: Optional[Mapping[str, int]] = None) -> list[ActionSchema]:
        """One action schema per operator under its variant name, sorted by
        name. ``costs`` maps canonical keys to costs; without it every
        action costs 1. A missing or non-positive cost raises ValidationError."""
        names = self.variant_names()
        costs = dict.fromkeys(self.operators, 1) if costs is None else costs
        missing = sorted(names[key] for key in self.operators if key not in costs)
        if missing:
            raise ValidationError(f"no cost given for operator {missing[0]!r}")
        schemas = [
            replace(op, name=names[key], cost=costs[key]) for key, op in self.operators.items()
        ]
        return sorted(schemas, key=lambda s: s.name)

    def absorb_schema(self, vocabulary: Vocabulary, types: TypeTable) -> None:
        """Extend the library schema; conflicting declarations raise SchemaError
        and change nothing."""
        merged = self.vocabulary.merged(vocabulary)
        self.types = self.types.merged(types)
        self.vocabulary = merged

    def _check_schema(self, op: ActionSchema) -> None:
        for _, type_id in op.params:
            if not self.types.declares(type_id):
                raise SchemaError(f"operator {op.name!r} uses unknown type {type_id!r}")
        for sig in {atom.predicate for atom in (*(l.atom for l in op.pre), *op.adds, *op.dels)}:
            if sig.name not in self.vocabulary:
                raise SchemaError(f"operator {op.name!r} uses unknown predicate {sig.name!r}")
            if self.vocabulary.get(sig.name) != sig:
                raise SchemaError(
                    f"operator {op.name!r} disagrees with the library signature of {sig.name!r}"
                )


def merge(library: OperatorLibrary, op: ActionSchema, count: int = 1, key: str | None = None) -> str:
    """Add a schema seen ``count`` times, or add that to the count of its
    twin, and return its canonical key. ``op`` must be canonical, as lift()
    and load_library return it: a schema built by hand, or renamed and priced
    by schemas(), is stored under a key that no lift() gives. Given its
    ``key``, ``op`` need be canonical only if the key is new."""
    library._check_schema(op)
    key = canonical_key(op) if key is None else key
    library.operators.setdefault(key, op)
    library.counts[key] = library.counts.get(key, 0) + count
    return key


@dataclass
class TraceReport:
    """What learning one trace did: its segments, the canonical key of each operator
    it added or re-observed, in segment order, and how many no-effect segments it dropped."""

    source: str
    segments: list[Segment] = field(default_factory=list)
    added: list[str] = field(default_factory=list)
    incremented: list[str] = field(default_factory=list)
    dropped_no_effect: int = 0


def learn_from_trace(
    library: OperatorLibrary,
    trace: Trace,
    rules: Sequence[ClassifierRule],
    debounce_config: DebounceConfig = DebounceConfig(),
    source: str = "",
) -> TraceReport:
    """Debounce, segment, extract, lift, and merge one trace into the library.

    Every segment's key is searched before the library changes, so a trace
    that raises leaves it as it was; only an operator with a new key is renamed.
    """
    cleaned = debounce(trace, debounce_config)
    report = TraceReport(source=source or trace.scenario)
    operators = []
    for seg in segment_trace(cleaned, rules):
        report.segments.append(seg)
        try:
            grounded = extract(cleaned, seg)
        except NoEffectSegment as exc:
            logger.warning("dropping segment: %s", exc)
            report.dropped_no_effect += 1
            continue
        operators.append((grounded, *_canonical_order(grounded)))
    library.absorb_schema(trace.vocabulary, trace.types)
    for grounded, key, ordering in operators:
        known = key in library.operators
        merge(library, grounded if known else _renamed(grounded, ordering), key=key)
        (report.incremented if known else report.added).append(key)
    return report


def build_library(
    traces: Iterable[Trace],
    rules: Sequence[ClassifierRule],
) -> OperatorLibrary:
    """Learn a fresh library from a sequence of traces, debounced by the default window."""
    library = OperatorLibrary()
    learned = 0
    for learned, trace in enumerate(traces, 1):
        learn_from_trace(library, trace, rules)
    if not learned:
        raise ValidationError("no traces supplied")
    return library


def library_to_dict(library: OperatorLibrary) -> dict:
    operators = []
    for key, op in sorted(library.operators.items()):
        operators.append(
            {
                "name": op.name,
                "params": [[v, t] for v, t in op.params],
                "pre": [literal_to_list(l) for l in sorted(op.pre, key=Literal.sort_key)],
                "post": [literal_to_list(l) for l in sorted(_post(op), key=Literal.sort_key)],
                "count": library.counts[key],
            }
        )
    return {
        "vocabulary": vocabulary_to_json(library.vocabulary),
        "types": {
            "all": sorted(library.types.types),
            "parents": dict(sorted(library.types.type_to_parent.items())),
        },
        "operators": operators,
    }


def _entry_schema(
    name: str, params: list, pre: frozenset, post: frozenset, count: int
) -> ActionSchema:
    """A library file entry as the ActionSchema it stores, after the checks
    that ActionSchema does not make and that no operator lift() returns fails."""
    both = sorted(repr(l.atom) for l in post if l.positive and l.negated() in post)
    if both:
        raise ValidationError(f"operator {name!r} post contains {both[0]} with both polarities")
    changed = post - pre
    adds = frozenset(l.atom for l in changed if l.positive)
    dels = frozenset(l.atom for l in changed if not l.positive)
    op = ActionSchema(name, tuple((v, t) for v, t in params), pre, adds, dels)
    unused = {v for v, _ in params} - {arg for lit in pre | post for arg in lit.atom.args}
    if unused:
        raise ValidationError(f"operator {name!r} has unused parameter(s) {sorted(unused)}")
    left_out = {l.atom for l in pre} - {l.atom for l in post}
    if left_out:
        raise ValidationError(
            f"operator {name!r} post leaves out {sorted(map(repr, left_out))} of its pre"
        )
    if pre == post:
        raise ValidationError(f"operator {name!r} has no effect")
    if count < 1:
        raise ValidationError(f"operator {name!r} needs a positive count")
    return op


def library_from_dict(payload: dict) -> OperatorLibrary:
    """Check each entry and store it in canonical form, as lift() gives it,
    so a hand-written entry saves back as learn would have written it."""
    expect_keys(payload, "library", "vocabulary", "types", "operators")
    vocabulary = vocabulary_from_json(payload["vocabulary"])
    raw_types = expect(payload["types"], dict, "library 'types'")
    types = types_from_json([], raw_types.get("parents", {}), raw_types.get("all", []))

    library = OperatorLibrary(vocabulary=vocabulary, types=types)
    decode = once_per_entry(lambda entry: literal_from_list(entry, vocabulary))
    for i, entry in enumerate(expect(payload["operators"], list, "library 'operators'")):
        with located(f"operator {i}"):
            expect_keys(entry, "entry", "name", "params", "pre", "post", "count")
            name = expect(entry["name"], str, "'name'")
            params = expect(entry["params"], list, "'params'")
            if not all(isinstance(p, list) and list(map(type, p)) == [str, str] for p in params):
                raise ParseError("each parameter must be a [variable, type] pair")
            pre, post = (
                frozenset(map(decode, expect(entry[k], list, f"'{k}'")))
                for k in ("pre", "post")
            )
            count = expect(entry["count"], int, "count")
            op = _entry_schema(name, params, pre, post, count)
            key, ordering = _canonical_order(op)
            if key in library.operators:
                raise SchemaError(f"library file repeats operator {name!r} (key {key!r})")
            merge(library, _renamed(op, ordering), count, key)
    return library


def save_library(library: OperatorLibrary, path: str | Path) -> None:
    write_file(path, json_text(library_to_dict(library)))


def load_library(path: str | Path) -> OperatorLibrary:
    return read_json(path, library_from_dict)
