"""Scenario file format: a versioned JSON document with a canonical
serialization.  The canonical text (sorted keys, two-space indent, trailing
newline) is what gets fingerprinted, so parse -> serialize is a fixed point
for every valid file.
"""

from __future__ import annotations

import hashlib
import json
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
    validate_scenario,
)

SCENARIO_SCHEMA_VERSION = 1


class ScenarioFormatError(ModalsimError):
    """Malformed scenario document; carries every problem found."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("; ".join(problems))


def to_document(s: Scenario) -> dict:
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
        "latency_profile": {
            "resource_levels": list(s.latency_profile.resource_levels),
            "fusion_us": s.latency_profile.fusion_us,
            "entries": [
                {
                    "modality": key[0],
                    "sensing_level": key[1],
                    "model_level": key[2],
                    "resource": key[3],
                    "unit_encode_us": entry.unit_encode_us,
                    "aggregation_us": entry.aggregation_us,
                }
                for key, entry in sorted(s.latency_profile.entries.items())
            ],
        },
        "t_max_us": s.t_max_us,
        "execution_mode": s.execution_mode.value,
        "skip_checkpoints": list(s.skip_checkpoints),
        "tau": s.tau,
        "accuracy_surface_seed": s.accuracy_surface_seed,
        "resource_schedule": [[t, level] for t, level in s.resource_schedule],
    }


def serialize(s: Scenario) -> str:
    return json.dumps(to_document(s), sort_keys=True, indent=2) + "\n"


def fingerprint(s: Scenario) -> str:
    """SHA-256 of the canonical text, computed once per scenario instance."""
    digest = s.__dict__.get("_fingerprint")
    if digest is None:
        digest = hashlib.sha256(serialize(s).encode("utf-8")).hexdigest()
        s.__dict__["_fingerprint"] = digest  # frozen dataclass: bypass __setattr__
    return digest


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


def from_document(doc: dict) -> Scenario:
    problems: list[str] = []
    if not isinstance(doc, dict):
        raise ScenarioFormatError(["scenario document must be a JSON object"])
    version = doc.get("schema_version")
    if version != SCENARIO_SCHEMA_VERSION:
        raise ScenarioFormatError([f"unsupported schema_version {version!r}"])

    name = _need(doc, "name", str, problems, "unnamed")
    modalities = []
    for i, m in enumerate(doc.get("modalities", [])):
        try:
            modalities.append(Modality(id=int(m["id"]), name=str(m["name"]), channels=int(m["channels"])))
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"modalities[{i}]: {exc}")
    if not modalities:
        problems.append("no modalities declared")

    sensing_space = []
    for i, levels in enumerate(doc.get("sensing_configs", [])):
        row = []
        for j, c in enumerate(levels):
            try:
                row.append(
                    SensingConfig(
                        level=int(c["level"]),
                        units_per_window=int(c["units_per_window"]),
                        window_us=int(c["window_us"]),
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                problems.append(f"sensing_configs[{i}][{j}]: {exc}")
        sensing_space.append(tuple(row))

    model_space = []
    for i, levels in enumerate(doc.get("model_configs", [])):
        row = []
        for j, c in enumerate(levels):
            try:
                row.append(ModelConfig(level=int(c["level"]), label=str(c["label"])))
            except (KeyError, TypeError, ValueError) as exc:
                problems.append(f"model_configs[{i}][{j}]: {exc}")
        model_space.append(tuple(row))

    prof_doc = doc.get("latency_profile", {})
    entries = {}
    for i, e in enumerate(prof_doc.get("entries", [])):
        try:
            key = (int(e["modality"]), int(e["sensing_level"]), int(e["model_level"]), str(e["resource"]))
            entries[key] = ProfileEntry(
                unit_encode_us=int(e["unit_encode_us"]), aggregation_us=int(e["aggregation_us"])
            )
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"latency_profile.entries[{i}]: {exc}")
    profile = LatencyProfile(
        resource_levels=tuple(str(r) for r in prof_doc.get("resource_levels", [])),
        fusion_us=int(prof_doc.get("fusion_us", 0)),
        entries=entries,
    )

    mode_raw = _need(doc, "execution_mode", str, problems, "pipelined")
    try:
        mode = ExecutionMode(mode_raw)
    except ValueError:
        problems.append(f"unknown execution_mode {mode_raw!r}")
        mode = ExecutionMode.PIPELINED

    schedule = []
    for i, pair in enumerate(doc.get("resource_schedule", [])):
        try:
            schedule.append((int(pair[0]), str(pair[1])))
        except (TypeError, ValueError, IndexError) as exc:
            problems.append(f"resource_schedule[{i}]: {exc}")

    if problems:
        raise ScenarioFormatError(problems)

    try:
        return Scenario(
            name=name,
            modalities=tuple(modalities),
            sensing_space=tuple(sensing_space),
            model_space=tuple(model_space),
            latency_profile=profile,
            t_max_us=int(doc.get("t_max_us", 0)),
            execution_mode=mode,
            skip_checkpoints=tuple(float(f) for f in doc.get("skip_checkpoints", [])),
            tau=float(doc.get("tau", 0.5)),
            accuracy_surface_seed=int(doc.get("accuracy_surface_seed", 0)),
            resource_schedule=tuple(schedule),
        )
    except (TypeError, ValueError) as exc:
        raise ScenarioFormatError([f"bad scalar field: {exc}"]) from None


def parse(text: str) -> Scenario:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError([f"invalid JSON: {exc}"]) from None
    return from_document(doc)


def load(path: str | Path, validate: bool = True) -> Scenario:
    scenario = parse(Path(path).read_text(encoding="utf-8"))
    return validate_scenario(scenario) if validate else scenario


def save(scenario: Scenario, path: str | Path) -> None:
    Path(path).write_text(serialize(scenario), encoding="utf-8")
