"""Core symbolic model: typed objects, ground atoms, literals, states, and
lifted action schemas, plus the JSON codecs and file readers every input
format shares.

States follow the closed-world convention: only true atoms are stored, and any
well-typed atom missing from the set is false.  Every type in this module is an
immutable value, so instances can be shared freely across threads.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

from .errors import InvalidEffect, ParseError, SchemaError, ValidationError


@dataclass(frozen=True)
class PredicateSignature:
    """A predicate name together with the ordered types of its arguments."""

    name: str
    arg_types: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "arg_types", tuple(self.arg_types))
        if not self.name:
            raise SchemaError("predicate name must be nonempty")

    @property
    def arity(self) -> int:
        return len(self.arg_types)


@dataclass(frozen=True)
class ObjectInstance:
    """A concrete world object: an id plus the id of its type."""

    id: str
    type_id: str

    def __post_init__(self):
        if not self.id or not self.type_id:
            raise ValidationError(f"object needs nonempty id and type, got {self!r}")


@dataclass(frozen=True)
class GroundAtom:
    """A predicate applied to arguments.

    Arguments are object ids, or variable names like ``?w1`` once an operator
    has been lifted.  The arity is checked at construction time, so an atom
    with the wrong number of arguments can never exist.
    """

    predicate: PredicateSignature
    args: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))
        if len(self.args) != self.predicate.arity:
            raise TypeError(
                f"{self.predicate.name} expects {self.predicate.arity} "
                f"argument(s), got {len(self.args)}: {self.args}"
            )

    @property
    def name(self) -> str:
        return self.predicate.name

    def sort_key(self) -> tuple:
        return (self.predicate.name, self.args)

    def __repr__(self) -> str:
        return f"{self.name}({','.join(self.args)})"


@dataclass(frozen=True)
class Literal:
    """An atom with a polarity."""

    atom: GroundAtom
    positive: bool = True

    def negated(self) -> "Literal":
        return Literal(self.atom, not self.positive)

    def sort_key(self) -> tuple:
        return (*self.atom.sort_key(), not self.positive)

    def __repr__(self) -> str:
        return repr(self.atom) if self.positive else f"!{self.atom!r}"


@dataclass(frozen=True)
class State:
    """The set of atoms that are true; everything else is false."""

    true_atoms: frozenset[GroundAtom] = frozenset()

    @staticmethod
    def of(atoms: Iterable[GroundAtom]) -> "State":
        return State(frozenset(atoms))

    def __contains__(self, atom: GroundAtom) -> bool:
        return atom in self.true_atoms

    def sorted_atoms(self) -> list[GroundAtom]:
        return sorted(self.true_atoms, key=GroundAtom.sort_key)


def holds(state: State, literal: Literal) -> bool:
    """Evaluate one literal against a state under the closed-world rule."""
    return (literal.atom in state.true_atoms) == literal.positive


def satisfies(state: State, literals: Iterable[Literal]) -> bool:
    return all(holds(state, lit) for lit in literals)


def apply(state: State, adds: Iterable[GroundAtom], dels: Iterable[GroundAtom]) -> State:
    """Produce the successor state ``(true \\ dels) | adds``.

    Raises InvalidEffect if the two sets overlap; an effect that adds and
    deletes the same atom has no defined meaning.
    """
    adds = frozenset(adds)
    dels = frozenset(dels)
    clash = adds & dels
    if clash:
        raise InvalidEffect(f"effect both adds and deletes {sorted(map(repr, clash))}")
    return State((state.true_atoms - dels) | adds)


@dataclass(frozen=True)
class ActionSchema:
    """A lifted action: typed parameters, preconditions, add and delete
    effects over the parameter variables, and a positive integer cost.

    A learned library (``OperatorLibrary.schemas``) and a parsed PDDL domain
    (``DomainDoc.actions``) both hold actions in this one form, so both are
    grounded the same way.
    """

    name: str
    params: tuple[tuple[str, str], ...]  # (variable, type_id)
    pre: frozenset[Literal]
    adds: frozenset[GroundAtom]
    dels: frozenset[GroundAtom]
    cost: int = 1

    def __post_init__(self):
        if not isinstance(self.cost, int) or self.cost < 1:
            raise ValidationError(
                f"cost of action {self.name!r} must be a positive integer, got {self.cost!r}"
            )


@dataclass(frozen=True, eq=True)
class TypeTable:
    """Instance-to-type assignments plus an optional parent link per type.

    The table is flat unless parent links are supplied; subtype checks walk
    the parent chain and are reflexive.
    """

    instance_to_type: Mapping[str, str] = field(default_factory=dict)
    type_to_parent: Mapping[str, str] = field(default_factory=dict)
    types: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "instance_to_type", dict(self.instance_to_type))
        object.__setattr__(self, "type_to_parent", dict(self.type_to_parent))
        declared = set(self.types)
        declared.update(self.instance_to_type.values())
        declared.update(self.type_to_parent.keys())
        declared.update(self.type_to_parent.values())
        object.__setattr__(self, "types", frozenset(declared))
        for start in self.type_to_parent:
            seen = {start}
            cur = start
            while cur in self.type_to_parent:
                cur = self.type_to_parent[cur]
                if cur in seen:
                    raise SchemaError(f"type hierarchy contains a cycle through {start!r}")
                seen.add(cur)

    def __hash__(self):
        return hash(
            (
                tuple(sorted(self.instance_to_type.items())),
                tuple(sorted(self.type_to_parent.items())),
                tuple(sorted(self.types)),
            )
        )

    def has_instance(self, obj_id: str) -> bool:
        return obj_id in self.instance_to_type

    def type_of(self, obj_id: str) -> str:
        try:
            return self.instance_to_type[obj_id]
        except KeyError:
            raise ValidationError(f"undeclared object {obj_id!r}") from None

    def ancestors(self, type_id: str) -> Iterator[str]:
        cur: str | None = type_id
        while cur is not None:
            yield cur
            cur = self.type_to_parent.get(cur)

    def is_subtype(self, type_id: str, ancestor: str) -> bool:
        return ancestor in self.ancestors(type_id)

    def objects(self) -> list[ObjectInstance]:
        return [
            ObjectInstance(obj, self.instance_to_type[obj])
            for obj in sorted(self.instance_to_type)
        ]

    def instances_of(self, type_id: str) -> list[str]:
        return [
            obj
            for obj in sorted(self.instance_to_type)
            if self.is_subtype(self.instance_to_type[obj], type_id)
        ]

    def with_instances(self, objects: Iterable[ObjectInstance]) -> "TypeTable":
        """A copy of this table with extra instances registered."""
        merged = dict(self.instance_to_type)
        for obj in objects:
            known = merged.get(obj.id)
            if known is not None and known != obj.type_id:
                raise SchemaError(f"object {obj.id!r} declared as both {known!r} and {obj.type_id!r}")
            merged[obj.id] = obj.type_id
        return TypeTable(merged, self.type_to_parent, self.types)

    def merged(self, other: "TypeTable") -> "TypeTable":
        table = self.with_instances(other.objects())
        parents = dict(table.type_to_parent)
        for child, parent in other.type_to_parent.items():
            known = parents.get(child)
            if known is not None and known != parent:
                raise SchemaError(f"type {child!r} has conflicting parents {known!r} and {parent!r}")
            parents[child] = parent
        return TypeTable(table.instance_to_type, parents, self.types | other.types)


@dataclass(frozen=True, eq=True)
class Vocabulary:
    """The declared predicate signatures, unique by name."""

    signatures: tuple[PredicateSignature, ...]

    def __post_init__(self):
        ordered = tuple(sorted(self.signatures, key=lambda s: s.name))
        names = [s.name for s in ordered]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate predicate names in vocabulary: {names}")
        object.__setattr__(self, "signatures", ordered)

    @cached_property
    def by_name(self) -> dict[str, PredicateSignature]:
        return {s.name: s for s in self.signatures}

    def __contains__(self, name: str) -> bool:
        return name in self.by_name

    def get(self, name: str) -> PredicateSignature:
        try:
            return self.by_name[name]
        except KeyError:
            raise SchemaError(f"unknown predicate {name!r}") from None

    def atom(self, name: str, *args: str) -> GroundAtom:
        return GroundAtom(self.get(name), tuple(args))

    def merged(self, other: "Vocabulary") -> "Vocabulary":
        combined = dict(self.by_name)
        for sig in other.signatures:
            known = combined.get(sig.name)
            if known is not None and known != sig:
                raise SchemaError(
                    f"predicate {sig.name!r} declared with arg types "
                    f"{known.arg_types} and {sig.arg_types}"
                )
            combined[sig.name] = sig
        return Vocabulary(tuple(combined.values()))


def check_atom_types(atom: GroundAtom, types: TypeTable) -> None:
    """Raise TypeError unless every argument is a declared object of a fitting type."""
    for arg, expected in zip(atom.args, atom.predicate.arg_types):
        if not types.has_instance(arg):
            raise TypeError(f"{atom!r}: argument {arg!r} is not a declared object")
        actual = types.instance_to_type[arg]
        if not types.is_subtype(actual, expected):
            raise TypeError(f"{atom!r}: argument {arg!r} has type {actual!r}, expected {expected!r}")


def enumerate_atoms(
    vocabulary: Vocabulary, object_ids: Sequence[str], types: TypeTable
) -> Iterator[GroundAtom]:
    """Yield every well-typed ground atom over the given objects, in sorted order.

    Repeated arguments are included; relevance filtering happens elsewhere.
    """
    pool = sorted(object_ids)
    for sig in vocabulary.signatures:
        candidates = [
            [obj for obj in pool if types.is_subtype(types.type_of(obj), t)]
            for t in sig.arg_types
        ]
        for args in itertools.product(*candidates):
            yield GroundAtom(sig, args)


# JSON codecs for the list-shaped atom and literal encodings used by every
# file format in this package: ["onTop","a","b"], negated ["!","onTop","a","b"].

NEGATION_MARK = "!"


def atom_to_list(atom: GroundAtom) -> list[str]:
    return [atom.name, *atom.args]


def atom_from_list(entry: Sequence[str], vocabulary: Vocabulary) -> GroundAtom:
    if not entry or not all(isinstance(part, str) for part in entry):
        raise SchemaError(f"atom entry must be a list of strings, got {entry!r}")
    return vocabulary.atom(entry[0], *entry[1:])


def literal_to_list(literal: Literal) -> list[str]:
    entry = atom_to_list(literal.atom)
    return entry if literal.positive else [NEGATION_MARK, *entry]


def literal_from_list(entry: Sequence[str], vocabulary: Vocabulary) -> Literal:
    if not entry:
        raise SchemaError("empty literal entry")
    if entry[0] == NEGATION_MARK:
        return Literal(atom_from_list(entry[1:], vocabulary), positive=False)
    return Literal(atom_from_list(entry, vocabulary), positive=True)


# Every input file is read through these two helpers, so a file that is not
# UTF-8 or not JSON is a ParseError that names it, like any other bad input.

T = TypeVar("T")


def read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8: {exc}") from exc


def read_json(path: str | Path, decode: Callable[[Any], T]) -> T:
    """Parse a JSON file and hand the payload to ``decode``; a ParseError,
    SchemaError, ValidationError or TypeError (an ill-typed atom) from
    ``decode`` is re-raised, as the same class, with the file name in front."""
    try:
        payload = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON: {exc}") from exc
    try:
        return decode(payload)
    except (ParseError, SchemaError, ValidationError, TypeError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc
