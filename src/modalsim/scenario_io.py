"""Scenario file format: a versioned JSON document with a canonical
serialization.  The canonical text (sorted keys, two-space indent, trailing
newline) is what gets fingerprinted, so parse -> serialize is a fixed point
for every valid file.

The reference for the canonical text is
`json.dumps(to_document(s), sort_keys=True, indent=2) + "\\n"`; with an
indent, `json` runs its pure-Python encoder.  `serialize` writes the same
bytes by one walk of the document `_document` builds, in the idiom of
`traceio.trace_text`: the values at one place in the document are written
as one column.  Objects are filled from one %-template per key set and
depth, one column of values per key; the items of all arrays at one place
are one column a level deeper; a column of leaves is checked and encoded
in one `_leaves` call.  A leaf may be an exact int, an exact str (written
through `encode_basestring_ascii`) or a finite float (written by
`float.__repr__`), as `json` writes them.  A scenario with any other value
(a bool, a numpy or subclassed int, a str subclass, a non-finite float,
None, a tuple) takes the reference instead; there is no third path.  The
profile's part of the text is written once per profile instance and
spliced into the walk as already-written text.

A document is read by `core`'s one JSON type rule (`json_value`,
`read_record`); each wrongly typed or missing field is its own
`ScenarioFormatError` problem.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from itertools import chain, islice
from json.encoder import encode_basestring_ascii as _string
from operator import itemgetter
from pathlib import Path

from .core import (
    ExecutionMode,
    JSONTypeError,
    LatencyProfile,
    ModalsimError,
    Modality,
    ModelConfig,
    ProfileEntry,
    Scenario,
    SensingConfig,
    json_value,
    memoized,
    read_record,
    validate_scenario,
)

SCENARIO_SCHEMA_VERSION = 1


class ScenarioFormatError(ModalsimError):
    """Malformed scenario document; carries every problem found."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("; ".join(problems))


def _profile_document(p: LatencyProfile) -> dict:
    return {
        "resource_levels": list(p.resource_levels),
        "fusion_us": p.fusion_us,
        "entries": [
            {
                "modality": key[0],
                "sensing_level": key[1],
                "model_level": key[2],
                "resource": key[3],
                "unit_encode_us": entry.unit_encode_us,
                "aggregation_us": entry.aggregation_us,
            }
            for key, entry in sorted(p.entries.items())
        ],
    }


def _document(s: Scenario, profile) -> dict:
    return {
        "schema_version": SCENARIO_SCHEMA_VERSION,
        "name": s.name,
        "modalities": [
            {"id": m.id, "name": m.name, "channels": m.channels} for m in s.modalities
        ],
        "sensing_configs": [
            [
                {"level": c.level, "units_per_window": c.units_per_window, "window_us": c.window_us}
                for c in levels
            ]
            for levels in s.sensing_space
        ],
        "model_configs": [
            [{"level": c.level, "label": c.label} for c in levels] for levels in s.model_space
        ],
        "latency_profile": profile,
        "t_max_us": s.t_max_us,
        "execution_mode": s.execution_mode.value,
        "skip_checkpoints": list(s.skip_checkpoints),
        "tau": s.tau,
        "accuracy_surface_seed": s.accuracy_surface_seed,
        "resource_schedule": [[t, level] for t, level in s.resource_schedule],
    }


def to_document(s: Scenario) -> dict:
    return _document(s, _profile_document(s.latency_profile))


class _Inexact(Exception):
    """A value the walk would not write as `json.dumps` does."""


class _Written(str):
    """Text already written at its place in the document: a leaf that
    `_leaves` passes on as it is."""


_LEAF_KINDS = frozenset((int, float, str, _Written))


def _leaves(values, kinds: set) -> list | tuple:
    """`values`, of the types `kinds` (a subset of `_LEAF_KINDS`), ready for
    a template's `%s`: exact ints, finite floats and written text as they
    are (the str of a number is the repr `json.dumps` writes), exact strs
    JSON-encoded.  A float that is not finite raises _Inexact."""
    if float in kinds and not all(math.isfinite(v) for v in values if type(v) is float):
        raise _Inexact
    if str not in kinds:
        return values
    if kinds == {str}:
        return list(map(_string, values))
    return [_string(v) if type(v) is str else v for v in values]


@functools.cache
def _template(keys: tuple[str, ...], depth: int) -> tuple[str, itemgetter]:
    """%-template of an object with these keys at nesting `depth`, each
    value one `%s` in sorted key order, laid out as
    `json.dumps(sort_keys=True, indent=2)` lays it out; and the getter of an
    object's values in that order."""
    keys = sorted(keys)
    pad = "\n" + "  " * (depth + 1)
    text = "{" + ",".join(f"{pad}{_string(key)}: %s" for key in keys) + "\n" + "  " * depth + "}"
    return text, itemgetter(*keys)


def _texts(values, depth: int) -> list | tuple:
    """What `json.dumps(sort_keys=True, indent=2)` writes for each of
    `values`, the values at one place of the document at nesting `depth`
    (a number may stay a number for the caller's `%s`).  Objects, which
    share the first one's keys (two or more) as every array `_document`
    builds does, are filled from one template, a column per key; the items
    of the arrays are written as one column a level deeper; leaves are
    checked and encoded by one `_leaves` call.  Raises _Inexact on a value
    it would not write as `json.dumps` does."""
    kinds = set(map(type, values))
    if kinds <= _LEAF_KINDS:
        return _leaves(values, kinds)
    if kinds == {dict}:
        template, getter = _template(tuple(values[0]), depth)
        columns = [_texts(column, depth + 1) for column in zip(*map(getter, values))]
        return [template % row for row in zip(*columns)]
    if kinds != {list}:
        raise _Inexact
    items = list(chain.from_iterable(values))
    if not items:
        return ["[]"] * len(values)
    texts = iter(_texts(items, depth + 1))
    pad = "\n" + "  " * (depth + 1)
    start, sep, end = "[" + pad, "," + pad, "\n" + "  " * depth + "]"
    return [start + sep.join(map(str, islice(texts, len(v)))) + end if v else "[]" for v in values]


@memoized
def _profile_text(p: LatencyProfile) -> _Written:
    """The profile's part of the canonical text, written once per profile
    instance: most of the text, and shared by every scenario derived with
    `dataclasses.replace`."""
    return _Written(_texts([_profile_document(p)], 1)[0])


def serialize(s: Scenario) -> str:
    try:
        return _texts([_document(s, _profile_text(s.latency_profile))], 0)[0] + "\n"
    except _Inexact:
        return json.dumps(to_document(s), sort_keys=True, indent=2) + "\n"


@memoized
def fingerprint(s: Scenario) -> str:
    """SHA-256 of the canonical text, computed once per scenario instance."""
    return hashlib.sha256(serialize(s).encode("utf-8")).hexdigest()


def _rows(value, where: str, problems: list[str], read, *kind) -> tuple:
    """read(item, *kind) for each item of the JSON array `value`; a
    non-array value and each problem of an item are recorded as problems."""
    if not isinstance(value, list):
        problems.append(f"{where} should be a list, got {type(value).__name__}")
        return ()
    rows = []
    for i, item in enumerate(value):
        try:
            rows.append(read(item, *kind))
        except JSONTypeError as exc:
            problems += (f"{where}[{i}]: {p}" for p in exc.args)
    return tuple(rows)


def _levels(doc: dict, key: str, cls, problems: list[str]) -> tuple:
    """One tuple of `cls` configs per modality from an array of arrays."""
    return tuple(
        _rows(levels, f"{key}[{i}]", problems, read_record, cls)
        for i, levels in enumerate(_rows(doc.get(key, []), key, problems, json_value, list))
    )


def _scalar(doc: dict, key: str, kind, default, problems: list[str], prefix: str = ""):
    try:
        return json_value(doc.get(key, default), kind)
    except JSONTypeError as exc:
        problems.append(f"{prefix}{key}: {exc}")
        return default


def _profile_entry(
    modality: int, sensing_level: int, model_level: int, resource: str, unit_encode_us: int, aggregation_us: int
) -> tuple[tuple, ProfileEntry]:
    """A latency profile entry's key and entry, from the fields of its object."""
    return (modality, sensing_level, model_level, resource), ProfileEntry(unit_encode_us, aggregation_us)


def _schedule_pair(time: int, level: str) -> tuple[int, str]:
    return time, level


def _schedule_entry(pair) -> tuple[int, str]:
    """A resource schedule's [time, level] pair, each bad item its own problem."""
    if len(json_value(pair, list)) != 2:
        raise JSONTypeError(f"should be a [time, level] pair, got {len(pair)} items")
    return read_record(dict(zip(("time", "level"), pair)), _schedule_pair)


def from_document(doc: dict) -> Scenario:
    problems: list[str] = []
    if not isinstance(doc, dict):
        raise ScenarioFormatError(["scenario document must be a JSON object"])
    version = doc.get("schema_version")
    if version != SCENARIO_SCHEMA_VERSION:
        raise ScenarioFormatError([f"unsupported schema_version {version!r}"])

    problems += [f"missing field {key!r}" for key in ("name", "execution_mode") if key not in doc]
    name = _scalar(doc, "name", str, "unnamed", problems)
    modalities = _rows(doc.get("modalities", []), "modalities", problems, read_record, Modality)
    if not modalities:
        problems.append("no modalities declared")
    sensing_space = _levels(doc, "sensing_configs", SensingConfig, problems)
    model_space = _levels(doc, "model_configs", ModelConfig, problems)

    prof_doc = _scalar(doc, "latency_profile", dict, {}, problems)
    where = "latency_profile."
    levels = _rows(prof_doc.get("resource_levels", []), where + "resource_levels", problems, json_value, str)
    entries = _rows(prof_doc.get("entries", []), where + "entries", problems, read_record, _profile_entry)
    fusion_us = _scalar(prof_doc, "fusion_us", int, 0, problems, where)
    profile = LatencyProfile(resource_levels=levels, fusion_us=fusion_us, entries=dict(entries))

    checkpoints = _rows(doc.get("skip_checkpoints", []), "skip_checkpoints", problems, json_value, float)
    schedule = _rows(doc.get("resource_schedule", []), "resource_schedule", problems, _schedule_entry)
    mode_raw = _scalar(doc, "execution_mode", str, "pipelined", problems)
    try:
        mode = ExecutionMode(mode_raw)
    except ValueError:
        problems.append(f"unknown execution_mode {mode_raw!r}")
        mode = ExecutionMode.PIPELINED

    scenario = Scenario(
        name=name,
        modalities=modalities,
        sensing_space=sensing_space,
        model_space=model_space,
        latency_profile=profile,
        t_max_us=_scalar(doc, "t_max_us", int, 0, problems),
        execution_mode=mode,
        skip_checkpoints=checkpoints,
        tau=_scalar(doc, "tau", float, 0.5, problems),
        accuracy_surface_seed=_scalar(doc, "accuracy_surface_seed", int, 0, problems),
        resource_schedule=schedule,
    )
    if problems:
        raise ScenarioFormatError(problems)
    return scenario


def parse(text: str | bytes) -> Scenario:
    """The scenario of a scenario document, given as text or as UTF-8 bytes."""
    try:
        doc = json.loads(text if isinstance(text, str) else text.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
        raise ScenarioFormatError([f"invalid JSON: {exc}"]) from None
    return from_document(doc)


def load(path: str | Path) -> Scenario:
    """The validated scenario of a scenario file."""
    return validate_scenario(parse(Path(path).read_bytes()))

