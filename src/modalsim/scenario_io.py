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
    LatencyProfile,
    ModalsimError,
    Modality,
    ModelConfig,
    ProfileEntry,
    Scenario,
    SensingConfig,
    memoized,
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


def _exact(value, kind, name: str = "value"):
    """`value` when it has the JSON type `kind`: an int that is no bool, a
    str, or for float any number but a bool, as a float."""
    if type(value) is kind or kind is float and type(value) is int:
        return kind(value)
    raise TypeError(f"{name} should be {kind.__name__}, got {type(value).__name__}")


def _record(build, kinds: dict):
    """A reader of an object whose fields named in `kinds` each have that
    JSON type: `build` of their values, in the order of `kinds`."""
    return lambda row: build(*(_exact(row[key], kind, key) for key, kind in kinds.items()))


# Raised reading a wrongly typed JSON value (a short pair, an infinite number, ...).
_MALFORMED = (KeyError, TypeError, ValueError, IndexError, OverflowError)


def _rows(value, where: str, build, problems: list[str]) -> tuple:
    """build(item) for each item of the JSON array `value`; a non-array value
    and each item that does not convert are recorded as problems."""
    if not isinstance(value, list):
        problems.append(f"{where} should be a list, got {type(value).__name__}")
        return ()
    rows = []
    for i, item in enumerate(value):
        try:
            rows.append(build(item))
        except _MALFORMED as exc:
            problems.append(f"{where}[{i}]: {exc}")
    return tuple(rows)


def _levels(doc: dict, key: str, build, problems: list[str]) -> tuple:
    """One tuple of configs per modality from an array of arrays."""
    return tuple(
        _rows(levels, f"{key}[{i}]", build, problems)
        for i, levels in enumerate(_rows(doc.get(key, []), key, lambda row: row, problems))
    )


def _scalar(doc: dict, key: str, kind, default, problems: list[str], prefix: str = ""):
    try:
        return _exact(doc.get(key, default), kind)
    except _MALFORMED as exc:
        problems.append(f"{prefix}{key}: {exc}")
        return default


def _need(doc: dict, key: str, kind, problems: list[str], default=None):
    if key not in doc:
        problems.append(f"missing field {key!r}")
        return default
    return _scalar(doc, key, kind, default, problems)


_json_str = functools.partial(_exact, kind=str)
_json_float = functools.partial(_exact, kind=float)
_modality = _record(Modality, {"id": int, "name": str, "channels": int})
_sensing_config = _record(SensingConfig, {"level": int, "units_per_window": int, "window_us": int})
_model_config = _record(ModelConfig, {"level": int, "label": str})
_profile_entry = _record(  # the entry's key, then the entry
    lambda *v: (v[:4], ProfileEntry(*v[4:])),
    {"modality": int, "sensing_level": int, "model_level": int, "resource": str,
     "unit_encode_us": int, "aggregation_us": int},
)


def _schedule_entry(pair) -> tuple[int, str]:
    if len(pair) != 2:
        raise ValueError(f"should be a [time, level] pair, got {len(pair)} items")
    return _exact(pair[0], int, "time"), _exact(pair[1], str, "level")


def from_document(doc: dict) -> Scenario:
    problems: list[str] = []
    if not isinstance(doc, dict):
        raise ScenarioFormatError(["scenario document must be a JSON object"])
    version = doc.get("schema_version")
    if version != SCENARIO_SCHEMA_VERSION:
        raise ScenarioFormatError([f"unsupported schema_version {version!r}"])

    name = _need(doc, "name", str, problems, "unnamed")
    modalities = _rows(doc.get("modalities", []), "modalities", _modality, problems)
    if not modalities:
        problems.append("no modalities declared")
    sensing_space = _levels(doc, "sensing_configs", _sensing_config, problems)
    model_space = _levels(doc, "model_configs", _model_config, problems)

    prof_doc = doc.get("latency_profile", {})
    if not isinstance(prof_doc, dict):
        problems.append(f"latency_profile should be an object, got {type(prof_doc).__name__}")
        prof_doc = {}
    where = "latency_profile."
    levels = _rows(prof_doc.get("resource_levels", []), where + "resource_levels", _json_str, problems)
    entries = _rows(prof_doc.get("entries", []), where + "entries", _profile_entry, problems)
    fusion_us = _scalar(prof_doc, "fusion_us", int, 0, problems, where)
    profile = LatencyProfile(resource_levels=levels, fusion_us=fusion_us, entries=dict(entries))

    checkpoints = _rows(doc.get("skip_checkpoints", []), "skip_checkpoints", _json_float, problems)
    schedule = _rows(doc.get("resource_schedule", []), "resource_schedule", _schedule_entry, problems)
    mode_raw = _need(doc, "execution_mode", str, problems, "pipelined")
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

