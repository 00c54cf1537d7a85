"""Operator extraction, lifting, and the counted operator library.

From each segment we read two snapshots, restricted to the objects the
activity touched: every literal holding at the anchor frame becomes a
precondition and every literal holding at the final frame becomes the
post-state.  Negative literals are admitted only for atoms that are true
somewhere in the trace, which keeps never-observed facts out of the operators.
Lifting replaces instances by typed variables and gives an ActionSchema named
by the rule label, whose adds and deletes are what changed; the post-state is
derived from it. Operators are identified up to variable renaming through a
canonical key, and re-observing one increments its count instead of adding a
duplicate. Only lift() and library_from_dict search for the canonical
parameter order; canonical_key() reads the key off the result.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

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


def _check_literals(name: str, literals: frozenset[Literal], allowed_args: set[str]) -> None:
    by_atom: dict[GroundAtom, bool] = {}
    for lit in literals:
        if by_atom.setdefault(lit.atom, lit.positive) != lit.positive:
            raise ValidationError(f"{name} contains {lit.atom!r} with both polarities")
        for arg in lit.atom.args:
            if arg not in allowed_args:
                raise ValidationError(f"{name} literal {lit!r} mentions unknown argument {arg!r}")


@dataclass(frozen=True)
class GroundedOperator:
    """A single observed transition, still expressed over concrete objects."""

    name: str
    objects: tuple[str, ...]
    pre: frozenset[Literal]
    post: frozenset[Literal]

    def __post_init__(self):
        object.__setattr__(self, "objects", tuple(self.objects))
        if len(set(self.objects)) != len(self.objects):
            raise ValidationError(f"operator {self.name!r} repeats an object: {self.objects}")
        allowed = set(self.objects)
        _check_literals(f"{self.name} pre", self.pre, allowed)
        _check_literals(f"{self.name} post", self.post, allowed)


def extract(trace: Trace, seg: Segment) -> GroundedOperator:
    """Read one operator off a segment; raises NoEffectSegment if nothing changed.

    The objects are the actor, then every argument of an atom that changed
    between the anchor and the final frame, in order of first appearance.
    Both snapshots hold one literal per active atom whose arguments are all
    among those objects. This relies on every atom being well typed, which
    load_trace checks.
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
    return GroundedOperator(
        name=seg.label,
        objects=objects,
        pre=frozenset(Literal(atom, atom in start) for atom in atoms),
        post=frozenset(Literal(atom, atom in end) for atom in atoms),
    )


def _substituted(literals: Iterable[Literal], mapping: Mapping[str, str]) -> frozenset[Literal]:
    return frozenset(
        Literal(GroundAtom(l.atom.predicate, tuple(mapping[a] for a in l.atom.args)), l.positive)
        for l in literals
    )


def _key(name: str, ordering: Sequence[tuple[str, str]], *snapshots: frozenset[Literal]) -> str:
    """Name, parameter types and each snapshot's sorted literal reprs, with the
    parameters renamed ?x0, ?x1, ... in ``ordering``; no literal is built."""
    renaming = {token: f"?x{i}" for i, (token, _) in enumerate(ordering)}

    def text(lit: Literal) -> str:
        args = ",".join([renaming[arg] for arg in lit.atom.args])
        return f"{'' if lit.positive else '!'}{lit.atom.name}({args})"

    serialized = (";".join(sorted(map(text, snapshot))) for snapshot in snapshots)
    return "|".join((name, ",".join(t for _, t in ordering), *serialized))


def _post(schema: ActionSchema) -> frozenset[Literal]:
    """The post-state of a learned operator: its preconditions with the delta applied."""
    changed = schema.adds | schema.dels
    return frozenset(
        [l for l in schema.pre if l.atom not in changed]
        + [Literal(a) for a in schema.adds]
        + [Literal(a, False) for a in schema.dels]
    )


def _canonical_form(
    name: str,
    entries: Sequence[tuple[str, str]],
    pre: frozenset[Literal],
    post: frozenset[Literal],
) -> tuple[ActionSchema, str]:
    """The canonical schema of an operator and its key.

    Parameters are grouped by type (types in sorted order), then every
    permutation inside each same-type group is serialized and the
    lexicographically smallest serialization wins.  The result is therefore
    invariant under any type-preserving renaming of the original entries.
    """
    if len(entries) > MAX_PARAMS:
        raise ValidationError(
            f"operator {name!r} touches {len(entries)} objects; only {MAX_PARAMS} supported"
        )
    groups: list[list[tuple[str, str]]] = []
    for type_id in sorted({t for _, t in entries}):
        groups.append([e for e in entries if e[1] == type_id])

    orderings = (
        tuple(itertools.chain.from_iterable(permuted))
        for permuted in itertools.product(*(itertools.permutations(g) for g in groups))
    )
    key, ordering = min(((_key(name, o, pre, post), o) for o in orderings), key=lambda p: p[0])
    letter_counts: dict[str, int] = {}
    final_names = []
    for _, type_id in ordering:
        letter = next((ch for ch in type_id.lower() if ch.isalpha()), "v")
        letter_counts[letter] = letter_counts.get(letter, 0) + 1
        final_names.append(f"?{letter}{letter_counts[letter]}")
    renaming = {token: final_names[i] for i, (token, _) in enumerate(ordering)}
    params = tuple((renaming[token], type_id) for token, type_id in ordering)
    changed = post - pre
    if params != ordering:  # entries that save_library wrote already have these names
        pre, changed = _substituted(pre, renaming), _substituted(changed, renaming)
    adds = frozenset(l.atom for l in changed if l.positive)
    dels = frozenset(l.atom for l in changed if not l.positive)
    return ActionSchema(name, params, pre, adds, dels), key


def lift(op: GroundedOperator, types: TypeTable) -> ActionSchema:
    """Replace instances by typed variables and put the result in canonical form."""
    entries = [(obj, types.type_of(obj)) for obj in op.objects]
    return _canonical_form(op.name, entries, op.pre, op.post)[0]


def canonical_key(schema: ActionSchema) -> str:
    """The renaming-invariant identity of an operator inside a library.

    ``schema`` must be canonical, as lift() and load_library return it: the
    key is read off its parameters in their stored order, without a search.
    """
    return _key(schema.name, schema.params, schema.pre, _post(schema))


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
        """A unique, deterministic name per operator: label, label_2, ..."""
        by_label: dict[str, list[str]] = {}
        for key, op in sorted(self.operators.items()):
            by_label.setdefault(op.name, []).append(key)
        names = {}
        for label, keys in by_label.items():
            for i, key in enumerate(keys):
                names[key] = label if i == 0 else f"{label}_{i + 1}"
        return names

    def schemas(self, costs: Optional[Mapping[str, int]] = None) -> list[ActionSchema]:
        """One action schema per operator under its variant name, sorted by
        name. ``costs`` maps canonical keys to costs; without it every
        action costs 1."""
        names = self.variant_names()
        schemas = [
            replace(op, name=names[key], cost=1 if costs is None else costs[key])
            for key, op in self.operators.items()
        ]
        return sorted(schemas, key=lambda s: s.name)

    def absorb_schema(self, vocabulary: Vocabulary, types: TypeTable) -> None:
        """Extend the library schema; conflicting declarations raise SchemaError
        and change nothing."""
        merged = self.vocabulary.merged(vocabulary)
        hierarchy = TypeTable({}, types.type_to_parent, types.types)
        self.types = self.types.merged(hierarchy)
        self.vocabulary = merged

    def _check_schema(self, op: ActionSchema) -> None:
        for _, type_id in op.params:
            if type_id not in self.types.types:
                raise SchemaError(f"operator {op.name!r} uses unknown type {type_id!r}")
        for sig in {atom.predicate for atom in (*(l.atom for l in op.pre), *op.adds, *op.dels)}:
            if sig.name not in self.vocabulary:
                raise SchemaError(f"operator {op.name!r} uses unknown predicate {sig.name!r}")
            if self.vocabulary.get(sig.name) != sig:
                raise SchemaError(
                    f"operator {op.name!r} disagrees with the library signature of {sig.name!r}"
                )


def merge(library: OperatorLibrary, op: ActionSchema, count: int = 1) -> str:
    """Add a schema seen ``count`` times, or add that to the count of its
    twin, and return its canonical key. ``op`` must be canonical, as lift()
    and load_library return it: a schema built by hand, or renamed and priced
    by schemas(), is stored under a key that no lift() gives."""
    library._check_schema(op)
    key = canonical_key(op)
    library.operators.setdefault(key, op)
    library.counts[key] = library.counts.get(key, 0) + count
    return key


@dataclass
class TraceReport:
    """What cmd_learn did with one trace."""

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

    Every segment is extracted and lifted before the library changes, so a
    trace that raises leaves the library as it was.
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
        operators.append(lift(grounded, cleaned.types))
    library.absorb_schema(trace.vocabulary, trace.types)
    merged = []
    for lifted in operators:
        key = merge(library, lifted)
        merged.append((key, library.counts[key], library.counts[key] > 1))
    # Named once all are merged, so a later variant cannot rename a reported one.
    names = library.variant_names()
    for key, count, known in merged:
        (report.incremented if known else report.added).append(f"{names[key]} (count {count})")
    return report


def build_library(
    traces: Iterable[Trace],
    rules: Sequence[ClassifierRule],
    debounce_config: DebounceConfig = DebounceConfig(),
) -> OperatorLibrary:
    """Learn a fresh library from a sequence of traces."""
    library = OperatorLibrary()
    learned = 0
    for learned, trace in enumerate(traces, 1):
        learn_from_trace(library, trace, rules, debounce_config)
    if not learned:
        raise ValidationError("no traces supplied")
    return library


def library_to_dict(library: OperatorLibrary) -> dict:
    from .pddl import library_name_map  # local import: pddl depends on this module

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
        "pddl_names": library_name_map(library).as_dict(),
    }


def _check_entry(name: str, params: list, pre: frozenset, post: frozenset, count: int) -> None:
    """The checks of a library file entry that no operator lift() returns can fail."""
    variables = [v for v, _ in params]
    if len(set(variables)) != len(variables):
        raise ValidationError(f"operator {name!r} repeats a parameter: {variables}")
    allowed = set(variables)
    _check_literals(f"{name} pre", pre, allowed)
    _check_literals(f"{name} post", post, allowed)
    used = {arg for lit in pre | post for arg in lit.atom.args}
    if allowed - used:
        raise ValidationError(f"operator {name!r} has unused parameter(s) {sorted(allowed - used)}")
    left_out = {l.atom for l in pre} - {l.atom for l in post}
    if left_out:
        raise ValidationError(
            f"operator {name!r} post leaves out {sorted(map(repr, left_out))} of its pre"
        )
    if pre == post:
        raise ValidationError(f"operator {name!r} has no effect")
    if count < 1:
        raise ValidationError(f"operator {name!r} needs a positive count")


def library_from_dict(payload: dict) -> OperatorLibrary:
    """Check each entry and store it in canonical form, as lift() gives it,
    so a hand-written entry saves back as learn would have written it."""
    expect_keys(payload, "library", "vocabulary", "types", "operators")
    vocabulary = vocabulary_from_json(payload["vocabulary"])
    raw_types = expect(payload["types"], dict, "library 'types'")
    types = types_from_json([], raw_types.get("parents"), raw_types.get("all"))

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
            _check_entry(name, params, pre, post, count)
            op, key = _canonical_form(name, [(v, t) for v, t in params], pre, post)
            if key in library.operators:
                raise SchemaError(f"library file repeats operator {name!r} (key {key!r})")
            merge(library, op, count)
    return library


def save_library(library: OperatorLibrary, path: str | Path) -> None:
    write_file(path, json_text(library_to_dict(library)))


def load_library(path: str | Path) -> OperatorLibrary:
    return read_json(path, library_from_dict)
