"""Demonstration traces: timed symbolic frames, file IO, and flicker debouncing.

A trace file is JSON with top-level keys ``vocabulary``, ``objects``, ``frames``,
plus optional ``meta`` (demonstrator id, scenario label) and optional
``types.parents`` when the scenario needs a type hierarchy::

    {
      "meta": {"demonstrator": "p1", "scenario": "stack_single_right"},
      "vocabulary": [{"name": "onTop", "arg_types": ["Wooden_cube", "Table"]}, ...],
      "objects": [{"id": "Cube_green1", "type": "Wooden_cube"}, ...],
      "frames": [{"t": 0.0, "atoms": [["onTop", "Cube_green1", "Table_1"]]}, ...]
    }
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Callable

from .errors import InputError, ValidationError
from .model import (
    GroundAtom,
    ObjectInstance,
    TypeTable,
    Vocabulary,
    atom_from_list,
    atom_to_list,
    check_atom_types,
    expect,
    expect_keys,
    json_text,
    objects_to_json,
    once_per_entry,
    read_json,
    types_from_json,
    vocabulary_from_json,
    vocabulary_to_json,
    write_file,
)


@dataclass(frozen=True)
class Frame:
    """One sampled symbolic snapshot."""

    timestamp: float
    true_atoms: frozenset[GroundAtom]


@dataclass(frozen=True)
class DebounceConfig:
    """Membership changes must persist for ``window`` consecutive frames to stick."""

    window: int = 2

    def __post_init__(self):
        if not isinstance(self.window, int) or self.window < 1:
            raise ValidationError(f"debounce window must be an integer >= 1, got {self.window!r}")


@dataclass(frozen=True)
class Trace:
    """A validated demonstration: vocabulary, typed objects, and >= 2 frames."""

    vocabulary: Vocabulary
    types: TypeTable
    frames: tuple[Frame, ...]
    demonstrator: str = ""
    scenario: str = ""

    def __post_init__(self):
        object.__setattr__(self, "frames", tuple(self.frames))
        if len(self.frames) < 2:
            raise ValidationError(f"a trace needs at least 2 frames, got {len(self.frames)}")
        for i in range(1, len(self.frames)):
            if self.frames[i].timestamp < self.frames[i - 1].timestamp:
                raise ValidationError("timestamps must be monotone non-decreasing", frame=i)

    @property
    def objects(self) -> list[ObjectInstance]:
        return self.types.objects()

    @cached_property
    def active_atoms(self) -> frozenset[GroundAtom]:
        """Atoms true in at least one frame; negative literals are only ever
        reported for these."""
        atoms: set[GroundAtom] = set()
        for frame in self.frames:
            atoms |= frame.true_atoms
        return frozenset(atoms)


def trace_from_dict(payload: dict) -> Trace:
    expect_keys(payload, "trace", "vocabulary", "objects", "frames")
    vocabulary = vocabulary_from_json(payload["vocabulary"])
    extra = expect(payload.get("types", {}), dict, "'types'")
    types = types_from_json(payload["objects"], extra.get("parents", {}), [])

    decode = once_per_entry(lambda entry: check_atom_types(atom_from_list(entry, vocabulary), types))
    frames = []
    for i, raw in enumerate(expect(payload["frames"], list, "'frames'")):
        expect_keys(raw, f"frame {i}", "t", "atoms")
        timestamp = expect(raw["t"], (int, float), f"frame {i} 't'")
        if not math.isfinite(timestamp):
            raise ValidationError(f"timestamp must be finite, got {timestamp}", frame=i)
        atoms = set()
        for entry in expect(raw["atoms"], list, f"frame {i} 'atoms'"):
            try:
                atom = decode(entry)
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


def trace_to_dict(trace: Trace) -> dict:
    payload: dict = {
        "meta": {"demonstrator": trace.demonstrator, "scenario": trace.scenario},
        "vocabulary": vocabulary_to_json(trace.vocabulary),
        "objects": objects_to_json(trace.objects),
        "frames": [
            {
                "t": frame.timestamp,
                "atoms": [atom_to_list(a) for a in sorted(frame.true_atoms, key=GroundAtom.sort_key)],
            }
            for frame in trace.frames
        ],
    }
    if trace.types.type_to_parent:
        payload["types"] = {"parents": dict(sorted(trace.types.type_to_parent.items()))}
    return payload


def load_trace(path: str | Path) -> Trace:
    """Read and fully validate one trace file."""
    return read_json(path, trace_from_dict)


def save_trace(trace: Trace, path: str | Path) -> None:
    write_file(path, json_text(trace_to_dict(trace)))


def _debounced_series(values: list[bool], window: int) -> list[bool]:
    # run_length[i] = how many frames starting at i hold the same raw value
    n = len(values)
    run_length = [1] * n
    for i in range(n - 2, -1, -1):
        if values[i + 1] == values[i]:
            run_length[i] = run_length[i + 1] + 1
    out = [values[0]]
    current = values[0]
    for i in range(1, n):
        if values[i] != current and run_length[i] >= window:
            current = values[i]
        out.append(current)
    return out


def debounce(trace: Trace, config: DebounceConfig = DebounceConfig()) -> Trace:
    """Suppress membership changes that do not persist for ``window`` frames.

    A change at frame i is kept only when frames i..i+window-1 all agree on the
    new membership; otherwise the previous membership is retained.  Window 1 is
    the identity, and the operation is idempotent: every change it keeps
    already persists long enough to be kept again.
    """
    if config.window == 1:
        return trace
    return rewrite_series(trace, lambda values: _debounced_series(values, config.window))


def rewrite_series(trace: Trace, transform: Callable[[list[bool]], list[bool]]) -> Trace:
    """The trace whose frames hold each active atom where ``transform`` of its
    membership series says so. Atoms are visited in sorted order, so a
    transform that draws random numbers gives the same trace every run."""
    frame_sets: list[set[GroundAtom]] = [set() for _ in trace.frames]
    for atom in sorted(trace.active_atoms, key=GroundAtom.sort_key):
        series = transform([atom in frame.true_atoms for frame in trace.frames])
        for atoms, member in zip(frame_sets, series):
            if member:
                atoms.add(atom)
    frames = tuple(
        Frame(frame.timestamp, frozenset(atoms))
        for frame, atoms in zip(trace.frames, frame_sets)
    )
    return replace(trace, frames=frames)
