"""Scenario file format: a versioned JSON document with a canonical
serialization.  The canonical text (sorted keys, two-space indent, trailing
newline) is what gets fingerprinted, so parse -> serialize is a fixed point
for every valid file.

The reference for the canonical text is
`json.dumps(to_document(s), sort_keys=True, indent=2) + "\\n"`; with an
indent, `json` runs its pure-Python encoder.  `serialize` writes the same
bytes from %-templates instead, in the idiom of `traceio.trace_text`: one
template per object shape (profile entry, modality, sensing config, model
config, profile, document), all objects of a shape filled from one
column of values per key.  A template takes exact ints, exact strs (which
it writes through `encode_basestring_ascii`) and finite floats (written
by `float.__repr__`), as `json` writes them.  A scenario with any other
value (a bool, a numpy or subclassed int, a str subclass, a non-finite
float, None, a tuple) takes the reference instead; there is no third
path.  The profile's part of the text is written once per profile
instance.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from itertools import islice
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
    """A value the templates would not write as `json.dumps` does."""


def _leaves(values) -> list | tuple:
    """`values` ready for a template's `%s`: exact ints and finite floats as
    they are (their str is the repr `json.dumps` writes), exact strs
    JSON-encoded.  Any other value raises _Inexact."""
    kinds = set(map(type, values))
    if not kinds <= {int, float, str}:
        raise _Inexact
    if float in kinds and not all(math.isfinite(v) for v in values if type(v) is float):
        raise _Inexact
    if str not in kinds:
        return values
    if kinds == {str}:
        return list(map(_string, values))
    return [_string(v) if type(v) is str else v for v in values]


@functools.cache
def _template(keys: tuple[str, ...], depth: int) -> str:
    """%-template of an object with these sorted keys at nesting `depth`,
    each value one `%s`, laid out as `json.dumps(indent=2)` lays it out."""
    pad = "\n" + "  " * (depth + 1)
    return "{" + ",".join(f"{pad}{_string(key)}: %s" for key in keys) + "\n" + "  " * depth + "}"


def _object(doc: dict, texts: dict, depth: int) -> str:
    """The text of the object `doc` with the values in `texts` already
    written; every other value of `doc` is a leaf."""
    leaves = [key for key in doc if key not in texts]
    texts.update(zip(leaves, _leaves([doc[key] for key in leaves])))
    keys = tuple(sorted(texts))
    return _template(keys, depth) % itemgetter(*keys)(texts)


def _objects(rows: list[dict], depth: int) -> list[str]:
    """The text of objects of leaves that share their keys (two or more):
    each key's values checked and encoded as one column, then one template
    fill per object."""
    if not rows:
        return []
    keys = tuple(sorted(rows[0]))
    columns = [_leaves(column) for column in zip(*map(itemgetter(*keys), rows))]
    return [_template(keys, depth) % values for values in zip(*columns)]


def _array(items, depth: int) -> str:
    """A JSON array at nesting `depth` of items written one level deeper
    (texts, or exact numbers)."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + ("," + pad).join(map(str, items)) + "\n" + "  " * depth + "]"


def _arrays(groups: list[list], items, depth: int) -> list[str]:
    """One array per group, at nesting `depth`, of the groups' items in order."""
    items = iter(items)
    return [_array(list(islice(items, len(group))), depth) for group in groups]


def _nested(groups: list[list[dict]], depth: int) -> str:
    """An array of arrays of objects; the objects are written as one column."""
    items = _objects([row for group in groups for row in group], depth + 2)
    return _array(_arrays(groups, items, depth + 1), depth)


@memoized
def _profile_text(p: LatencyProfile) -> str:
    """The profile's part of the canonical text, written once per profile
    instance: most of the text, and shared by every scenario derived with
    `dataclasses.replace`."""
    doc = _profile_document(p)
    texts = {
        "entries": _array(_objects(doc["entries"], 3), 2),
        "resource_levels": _array(_leaves(doc["resource_levels"]), 2),
    }
    return _object(doc, texts, 1)


def _canonical_text(s: Scenario) -> str:
    """The canonical text, from the templates; raises _Inexact on a value
    they do not take."""
    doc = _document(s, None)
    schedule = doc["resource_schedule"]
    texts = {
        "latency_profile": _profile_text(s.latency_profile),
        "modalities": _array(_objects(doc["modalities"], 2), 1),
        "sensing_configs": _nested(doc["sensing_configs"], 1),
        "model_configs": _nested(doc["model_configs"], 1),
        "skip_checkpoints": _array(_leaves(doc["skip_checkpoints"]), 1),
        "resource_schedule": _array(_arrays(schedule, _leaves([v for pair in schedule for v in pair]), 2), 1),
    }
    return _object(doc, texts, 0) + "\n"


def serialize(s: Scenario) -> str:
    try:
        return _canonical_text(s)
    except _Inexact:
        return json.dumps(to_document(s), sort_keys=True, indent=2) + "\n"


@memoized
def fingerprint(s: Scenario) -> str:
    """SHA-256 of the canonical text, computed once per scenario instance."""
    return hashlib.sha256(serialize(s).encode("utf-8")).hexdigest()


def _need(doc: dict, key: str, kind, problems: list[str], default=None):
    if key not in doc:
        problems.append(f"missing field {key!r}")
        return default
    value = doc[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind):
        problems.append(f"field {key!r} should be {kind.__name__}, got {type(value).__name__}")
        return default
    return value


# Raised converting a wrongly typed JSON value (a short pair, an infinite number, ...).
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


def _scalar(doc: dict, key: str, convert, default, problems: list[str], prefix: str = ""):
    try:
        return convert(doc.get(key, default))
    except _MALFORMED as exc:
        problems.append(f"{prefix}{key}: {exc}")
        return None


def _modality(m) -> Modality:
    return Modality(id=int(m["id"]), name=str(m["name"]), channels=int(m["channels"]))


def _sensing_config(c) -> SensingConfig:
    return SensingConfig(int(c["level"]), int(c["units_per_window"]), int(c["window_us"]))


def _profile_entry(e) -> tuple:
    key = (int(e["modality"]), int(e["sensing_level"]), int(e["model_level"]), str(e["resource"]))
    return key, ProfileEntry(int(e["unit_encode_us"]), int(e["aggregation_us"]))


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
    model_space = _levels(
        doc, "model_configs", lambda c: ModelConfig(int(c["level"]), str(c["label"])), problems
    )

    prof_doc = doc.get("latency_profile", {})
    if not isinstance(prof_doc, dict):
        problems.append(f"latency_profile should be an object, got {type(prof_doc).__name__}")
        prof_doc = {}
    where = "latency_profile."
    levels = _rows(prof_doc.get("resource_levels", []), where + "resource_levels", str, problems)
    entries = _rows(prof_doc.get("entries", []), where + "entries", _profile_entry, problems)
    fusion_us = _scalar(prof_doc, "fusion_us", int, 0, problems, where)
    profile = LatencyProfile(resource_levels=levels, fusion_us=fusion_us, entries=dict(entries))

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
        skip_checkpoints=_rows(doc.get("skip_checkpoints", []), "skip_checkpoints", float, problems),
        tau=_scalar(doc, "tau", float, 0.5, problems),
        accuracy_surface_seed=_scalar(doc, "accuracy_surface_seed", int, 0, problems),
        resource_schedule=_rows(
            doc.get("resource_schedule", []),
            "resource_schedule",
            lambda pair: (int(pair[0]), str(pair[1])),
            problems,
        ),
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

