"""Core domain types: modalities, configurations, profiles, scenarios, samples.

All durations are integer microseconds of virtual time; there is no
floating-point time anywhere in the package.  Every type here is immutable
after construction and safe to share across threads.  The package's one
JSON type rule (`json_value`, `read_record`) and its one file writer
(`write_whole`) live here too.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import itertools
import math
import typing
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import rng


# ---------------------------------------------------------------------------
# Errors


class ModalsimError(Exception):
    """Base class for all package errors."""


class MissingProfileEntry(ModalsimError):
    pass


class IncompleteTrace(ModalsimError):
    pass


class GateRequiredButMissing(ModalsimError):
    pass


class NoFeasibleAssignment(ModalsimError):
    pass


@dataclass(frozen=True)
class Violation:
    """One scenario invariant violation: a stable code plus a human message."""

    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


class InvalidScenario(ModalsimError):
    """Raised by validate_scenario with the complete list of violations."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        super().__init__("; ".join(str(v) for v in violations))


# Violation codes used by validate_scenario. Kept as constants so callers can
# match on them without string literals.
INDIVISIBLE_WINDOW = "IndivisibleWindow"
MISSING_PROFILE_ENTRY = "MissingProfileEntry"
BAD_CHECKPOINT_ORDER = "BadCheckpointOrder"
EMPTY_CONFIG_SPACE = "EmptyConfigSpace"
BAD_MODALITY_IDS = "BadModalityIds"
BAD_CHANNELS = "BadChannels"
INCONSISTENT_WINDOW = "InconsistentWindow"
BAD_DURATION = "BadDuration"
BAD_TAU = "BadTau"
BAD_SCHEDULE = "BadResourceSchedule"
BAD_LEVELS = "BadLevels"
SIZE_LIMIT = "SizeLimit"

# A window holds units_per_window x channels floats per modality; these bounds
# keep a scenario document from asking for more memory than a device has.
MAX_CHANNELS = 4096
MAX_UNITS_PER_WINDOW = 1024
# The bound of every duration a scenario gives (window, unit encode,
# aggregation, fusion): a window's times, sums of at most
# MAX_UNITS_PER_WINDOW of these, then stay far inside the engine's int64.
MAX_DURATION_US = 2**40


# ---------------------------------------------------------------------------
# Reading JSON documents


class JSONTypeError(TypeError):
    """Values of the wrong JSON type: `args` holds one problem per value,
    each naming its value.  Each document reader turns it into its own
    error."""

    def __str__(self) -> str:
        return "; ".join(self.args)


MISSING = object()  # the value of a key a JSON object lacks: `obj.get(key, MISSING)`


def json_value(value, kind: type, name: str = "value"):
    """`value` read as the JSON type `kind`: the one type rule of every
    document the package reads.  An int is an int that is no bool; a str, a
    list and a dict are exactly those; a float is a float, or an int (no
    bool) read as a float, unless it is too large for one.  Raises
    JSONTypeError naming `name` otherwise, saying it is missing when
    `value` is MISSING, not of the wrong type as a null is."""
    if type(value) is kind:
        return value
    if kind is float and type(value) is int:
        with contextlib.suppress(OverflowError):
            return float(value)
    if value is MISSING:
        raise JSONTypeError(f"{name} is missing")
    raise JSONTypeError(f"{name} should be {kind.__name__}, got {type(value).__name__}")


@functools.cache
def _record_fields(build) -> tuple[tuple[str, type, type | None, str], ...]:
    """Each annotated name of `build` (a dataclass's fields, a function's
    parameters), the JSON type its value is read as, and for a
    `tuple[k, ...]` hint, read from a list, k and the name of an item.
    Hints are resolved once per class or function."""
    return tuple(
        (key, list, typing.get_args(hint)[0], f"{key} item") if typing.get_origin(hint) is tuple
        else (key, hint, None, key)
        for key, hint in typing.get_type_hints(build).items() if key != "return"
    )


def read_record(obj, build, name: str = ""):
    """The JSON object `obj` read as `build`, a dataclass or a function
    whose parameters are all annotated: `build` called with each of its
    fields read from `obj` by its type hint, by `json_value`, and a
    `tuple[k, ...]` field from a list of k.  Keys `build` does not name are
    ignored.  Raises JSONTypeError with one problem per missing or wrongly
    typed field, which it names `name.field` (`field` without a name)."""
    obj = json_value(obj, dict, name or "value")
    values, problems = [], []
    for key, kind, item, item_name in _record_fields(build):
        try:
            value = json_value(obj.get(key, MISSING), kind, key)
            values.append(tuple([json_value(v, item, item_name) for v in value]) if item else value)
        except JSONTypeError as exc:
            problems += exc.args
    if problems:
        raise JSONTypeError(*(f"{name}.{p}" if name else p for p in problems))
    return build(*values)


# ---------------------------------------------------------------------------
# Writing files


def write_whole(path: str | Path, pieces: typing.Iterable[bytes]) -> None:
    """Write the bytes of `pieces` to `path` whole or not at all; every file
    the package writes goes through here.  `<path>.partial` is opened before
    the first piece is drawn, each piece is written as it is drawn, and the
    file is moved over `path` after the last.  When drawing or writing a
    piece, or the move, raises, the `.partial` file is removed and `path` is
    left as it was: so is a `path` that is a directory, on which the move
    fails."""
    partial = Path(f"{path}.partial")
    f = open(partial, "wb")  # before the try: a file it cannot open is not removed
    try:
        with f:
            f.writelines(pieces)
        partial.replace(path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# Derived values


class _Memo(dict):
    """One function's memo on one instance; it pickles (and copies deeply)
    as an empty memo, so a copy computes its own values.  A pickled array
    would come back writable, and every value is a pure function of the
    instance anyway."""

    def __reduce__(self):
        return _Memo, ()


def memoized(fn):
    """Compute `fn(instance, *args)` once per frozen-dataclass instance and args.

    The result is kept in the instance `__dict__`, outside the dataclass
    fields (like `functools.cached_property`), so equality, repr and
    `dataclasses.replace` ignore it and a replaced instance starts with no
    memo.  The memo is keyed by the function's name, not the function, so an
    instance holding one still pickles, and a `_Memo` so the copy starts
    empty.  A call that raises caches nothing.  An array result, or each
    array of a tuple result, is shared by every caller, so it is made
    read-only.
    """
    key = f"_memo:{fn.__module__}.{fn.__qualname__}"

    @functools.wraps(fn)
    def wrapper(instance, *args):
        memo = instance.__dict__.get(key)
        if memo is None:
            memo = instance.__dict__[key] = _Memo()
        if args not in memo:
            value = fn(instance, *args)
            for item in value if isinstance(value, tuple) else (value,):
                if isinstance(item, np.ndarray):
                    item.setflags(write=False)
            memo[args] = value
        return memo[args]

    return wrapper


# ---------------------------------------------------------------------------
# Domain types


class ExecutionMode(enum.Enum):
    BLOCKING = "blocking"
    NON_BLOCKING = "non_blocking"
    PIPELINED = "pipelined"


class Difficulty(enum.Enum):
    EASY = "easy"
    MEDIUM = "medium"
    HARD = "hard"


@dataclass(frozen=True)
class Modality:
    """One sensor modality: index, label, and feature width per unit."""

    id: int
    name: str
    channels: int


@dataclass(frozen=True)
class SensingConfig:
    """Sensing granularity level: units per window and the window length (µs)."""

    level: int
    units_per_window: int
    window_us: int

    @property
    def interval_us(self) -> int:
        """Sensing interval between unit arrivals; window must divide evenly."""
        if self.window_us % self.units_per_window != 0:
            raise InvalidScenario(
                [
                    Violation(
                        INDIVISIBLE_WINDOW,
                        f"window {self.window_us}µs not divisible by N={self.units_per_window}",
                    )
                ]
            )
        return self.window_us // self.units_per_window


@dataclass(frozen=True)
class ModelConfig:
    """Encoder complexity level."""

    level: int
    label: str


@dataclass(frozen=True)
class ConfigAssignment:
    """One (sensing level, model level) pair per modality, indexed by modality id."""

    pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class ProfileEntry:
    """Offline-measured per-unit encode and aggregation costs (µs)."""

    unit_encode_us: int
    aggregation_us: int


@dataclass(frozen=True)
class LatencyProfile:
    """Lookup table (modality, sensing level, model level, resource) -> costs.

    `fusion_us` is a single figure independent of the assignment, matching an
    offline-profiled fusion-and-prediction stage.
    """

    resource_levels: tuple[str, ...]
    fusion_us: int
    entries: dict[tuple[int, int, int, str], ProfileEntry]

    def lookup(self, modality_id: int, sensing_level: int, model_level: int, resource: str) -> ProfileEntry:
        try:
            return self.entries[(modality_id, sensing_level, model_level, resource)]
        except KeyError:
            raise MissingProfileEntry(
                f"no profile entry for modality={modality_id} sensing={sensing_level} "
                f"model={model_level} resource={resource!r}"
            ) from None


@dataclass(frozen=True)
class FeatureMatrix:
    """N unit-feature rows by C channels; rows beyond valid_prefix are zero."""

    values: np.ndarray
    valid_prefix: int

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2:
            raise ValueError("FeatureMatrix requires a 2-D array")
        if not (0 <= self.valid_prefix <= vals.shape[0]):
            raise ValueError("valid_prefix out of range")
        vals = vals.copy()
        vals[self.valid_prefix :, :] = 0.0
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def channels(self) -> int:
        return int(self.values.shape[1])


@dataclass(frozen=True)
class Sample:
    """One multimodal input sample with seeded payload regeneration.

    Unit payloads are a pure function of (seed, id, modality, unit), so the
    same sample reproduces bit-identical features on every platform.  The
    construction: a per-sample shared latent direction blended with a
    modality-private direction (`consistency_weight` controls the blend), with
    all units equal for `stable` samples and a late feature jump (from
    `jump_fraction` of the window onward, scaled by `jump_scale`) for
    unstable ones.  A window's payload is therefore built from one base row
    and at most one jump row per (sample, modality), which `rows` draws
    once, for every modality of a tuple in one pass.
    """

    id: int
    seed: int
    difficulty: Difficulty
    ground_truth_label: int
    stable: bool = True
    consistency_weight: float = 0.9
    jump_fraction: float = 0.8
    jump_scale: float = 0.0
    jump_nonce: int = 0

    @memoized
    def _draw_state(self) -> tuple[rng.Stream, rng.Stream, dict]:
        """The stream of ("sample", id), folded once per sample, its
        "shared" sub-stream, and the rows `rows` has drawn, by modality.
        Every payload stream is a `.sub` of the first, and labels fold left
        to right, so each key is the one the full label path gives."""
        prefix = rng.stream(self.seed, "sample", self.id)
        return prefix, prefix.sub("shared"), {}

    def rows(self, modalities: tuple[Modality, ...]) -> list[tuple[np.ndarray, np.ndarray]]:
        """Each modality's base row and its row from the jump on (the base
        row again for a stable sample), read-only.  The modalities not drawn
        before are drawn in one pass: the shared row once, at the largest
        width (a narrower modality's shared row is its prefix), and every
        private and jump row, all through one `rng.concat_units` call.  The
        rest is elementwise, so a row has the same bits whichever modalities
        share its pass; one modality is a pass of one."""
        prefix, shared, drawn = self._draw_state()
        new = [m for m in modalities if m not in drawn]
        if new:
            widths = [m.channels for m in new]
            streams = [shared, *(prefix.sub("private", m.id) for m in new)]
            streams += [prefix.sub("jump", self.jump_nonce, m.id) for m in new if not self.stable]
            top, total = max(widths), sum(widths)
            units = rng.concat_units(streams, [top] + widths * (1 if self.stable else 2)) * 2.0 - 1.0
            a = self.consistency_weight
            base = a * np.concatenate([units[:w] for w in widths]) + (1.0 - a) * units[top : top + total]
            jumped = base if self.stable else base + self.jump_scale * units[top + total :]
            for array in (base, jumped):
                array.setflags(write=False)
            ends = list(itertools.accumulate(widths))
            drawn.update((m, (base[e - w : e], jumped[e - w : e])) for m, w, e in zip(new, widths, ends))
        return [drawn[m] for m in modalities]

    def jump_start(self, units_per_window: int) -> int:
        return max(math.ceil(self.jump_fraction * units_per_window), 0)

    def unit_payload(self, modality: Modality, unit: int, units_per_window: int) -> np.ndarray:
        ((base, jumped),) = self.rows((modality,))
        return (jumped if unit >= self.jump_start(units_per_window) else base).copy()

    def window_payload(self, modality: Modality, units_per_window: int) -> np.ndarray:
        """All N unit payloads; row u equals unit_payload(modality, u, N) bitwise."""
        ((base, jumped),) = self.rows((modality,))
        rows = np.repeat(base[None, :], units_per_window, axis=0)
        rows[self.jump_start(units_per_window) :] = jumped
        return rows


@dataclass(frozen=True)
class Scenario:
    """Full experiment description.

    `sensing_space[i]` / `model_space[i]` are the config spaces of modality i.
    `resource_schedule` maps virtual time to profile resource levels; intervals
    are left-closed and the schedule must start at time 0.

    Instances are immutable, so what is derived from one (its fingerprint,
    latency tables, search options, prediction head) is computed once per
    instance through `memoized`; `dataclasses.replace` yields a new instance
    with no memo.
    """

    name: str
    modalities: tuple[Modality, ...]
    sensing_space: tuple[tuple[SensingConfig, ...], ...]
    model_space: tuple[tuple[ModelConfig, ...], ...]
    latency_profile: LatencyProfile
    t_max_us: int
    execution_mode: ExecutionMode = ExecutionMode.PIPELINED
    skip_checkpoints: tuple[float, ...] = ()
    tau: float = 0.5
    accuracy_surface_seed: int = 0
    resource_schedule: tuple[tuple[int, str], ...] = field(default_factory=lambda: ((0, "normal"),))

    @property
    def window_us(self) -> int:
        return self.sensing_space[0][0].window_us

    def sensing(self, modality_id: int, level: int) -> SensingConfig:
        return self.sensing_space[modality_id][level]

    def level_pairs(self, modality_id: int) -> list[tuple[int, int]]:
        """Every (sensing, model) level pair of one modality, in lexicographic order."""
        sensing, model = self.sensing_space[modality_id], self.model_space[modality_id]
        return list(itertools.product(range(len(sensing)), range(len(model))))

    def assignments(self):
        """All config assignments in lexicographic (modality, sensing, model) order."""
        for pairs in itertools.product(*(self.level_pairs(i) for i in range(len(self.modalities)))):
            yield ConfigAssignment(pairs)

    def min_assignment(self) -> ConfigAssignment:
        return ConfigAssignment(tuple((0, 0) for _ in self.modalities))

    def max_assignment(self) -> ConfigAssignment:
        return ConfigAssignment(
            tuple(
                (len(self.sensing_space[i]) - 1, len(self.model_space[i]) - 1)
                for i in range(len(self.modalities))
            )
        )

    def without_skipping(self) -> "Scenario":
        return replace(self, skip_checkpoints=())


# ---------------------------------------------------------------------------
# Validation


def check_assignment(scenario: Scenario, assignment: ConfigAssignment) -> None:
    """Raise if the assignment does not cover the scenario's config space."""
    if len(assignment.pairs) != len(scenario.modalities):
        raise ValueError(
            f"assignment covers {len(assignment.pairs)} modalities, "
            f"scenario has {len(scenario.modalities)}"
        )
    for i, (s, m) in enumerate(assignment.pairs):
        if not (0 <= s < len(scenario.sensing_space[i])):
            raise ValueError(f"sensing level {s} out of range for modality {i}")
        if not (0 <= m < len(scenario.model_space[i])):
            raise ValueError(f"model level {m} out of range for modality {i}")


def scenario_violations(s: Scenario) -> list[Violation]:
    """Collect every invariant violation (not just the first)."""
    out: list[Violation] = []

    ids = [m.id for m in s.modalities]
    if ids != list(range(len(s.modalities))):
        out.append(Violation(BAD_MODALITY_IDS, f"modality ids {ids} are not contiguous 0..{len(ids) - 1}"))
    for m in s.modalities:
        if m.channels < 1:
            out.append(Violation(BAD_CHANNELS, f"modality {m.id} has channels={m.channels}"))
        elif m.channels > MAX_CHANNELS:
            out.append(
                Violation(SIZE_LIMIT, f"modality {m.id} has channels={m.channels} > {MAX_CHANNELS}")
            )

    if len(s.sensing_space) != len(s.modalities) or len(s.model_space) != len(s.modalities):
        out.append(Violation(EMPTY_CONFIG_SPACE, "config spaces must cover every modality"))
        return out

    windows = set()
    for i, levels in enumerate(s.sensing_space):
        if not levels:
            out.append(Violation(EMPTY_CONFIG_SPACE, f"modality {i} has no sensing configs"))
        for j, sc in enumerate(levels):
            if sc.level != j:
                out.append(Violation(BAD_LEVELS, f"modality {i} sensing level {sc.level} at index {j}"))
            if sc.units_per_window < 1:
                out.append(Violation(BAD_DURATION, f"modality {i} sensing level {j}: units_per_window < 1"))
                continue
            if sc.units_per_window > MAX_UNITS_PER_WINDOW:
                out.append(
                    Violation(
                        SIZE_LIMIT,
                        f"modality {i} sensing level {j}: units_per_window={sc.units_per_window} "
                        f"> {MAX_UNITS_PER_WINDOW}",
                    )
                )
            if sc.window_us <= 0:
                out.append(Violation(BAD_DURATION, f"modality {i} sensing level {j}: window_us <= 0"))
                continue
            windows.add(sc.window_us)
            if sc.window_us % sc.units_per_window != 0:
                out.append(
                    Violation(
                        INDIVISIBLE_WINDOW,
                        f"modality {i} sensing level {j}: {sc.window_us}/{sc.units_per_window} "
                        "is not an integer number of µs",
                    )
                )
    if len(windows) > 1:
        out.append(Violation(INCONSISTENT_WINDOW, f"sensing configs disagree on window: {sorted(windows)}"))

    for i, levels in enumerate(s.model_space):
        if not levels:
            out.append(Violation(EMPTY_CONFIG_SPACE, f"modality {i} has no model configs"))
        seen = set()
        for k, mc in enumerate(levels):
            if mc.level != k or mc.level in seen:
                out.append(Violation(BAD_LEVELS, f"modality {i} model level {mc.level} at index {k}"))
            seen.add(mc.level)

    prof = s.latency_profile
    if not prof.resource_levels:
        out.append(Violation(BAD_LEVELS, "latency profile declares no resource levels"))
    if prof.fusion_us < 0:
        out.append(Violation(BAD_DURATION, f"fusion_us={prof.fusion_us} < 0"))
    for i in range(len(s.modalities)):
        for j, k in s.level_pairs(i):
            for r in prof.resource_levels:
                entry = prof.entries.get((i, j, k, r))
                if entry is None:
                    out.append(
                        Violation(
                            MISSING_PROFILE_ENTRY,
                            f"no entry for modality={i} sensing={j} model={k} resource={r!r}",
                        )
                    )
                    continue
                if entry.unit_encode_us <= 0:
                    out.append(Violation(BAD_DURATION, f"unit_encode_us <= 0 at ({i},{j},{k},{r!r})"))
                if entry.aggregation_us < 0:
                    out.append(Violation(BAD_DURATION, f"aggregation_us < 0 at ({i},{j},{k},{r!r})"))
    costs = ((e.unit_encode_us, e.aggregation_us) for e in prof.entries.values())
    longest = max([prof.fusion_us, *windows, *itertools.chain.from_iterable(costs)])
    if longest > MAX_DURATION_US:
        out.append(Violation(SIZE_LIMIT, f"a duration of {longest}µs > {MAX_DURATION_US}µs"))

    if s.t_max_us <= 0:
        out.append(Violation(BAD_DURATION, f"t_max_us={s.t_max_us} <= 0"))
    if not (0.0 <= s.tau <= 1.0):
        out.append(Violation(BAD_TAU, f"tau={s.tau} outside [0, 1]"))

    prev = 0.0
    for f in s.skip_checkpoints:
        if not (0.0 < f < 1.0) or f <= prev:
            out.append(
                Violation(
                    BAD_CHECKPOINT_ORDER,
                    f"checkpoint fractions {s.skip_checkpoints} must be strictly increasing in (0, 1)",
                )
            )
            break
        prev = f

    if not s.resource_schedule or s.resource_schedule[0][0] != 0:
        out.append(Violation(BAD_SCHEDULE, "resource schedule must start at time 0"))
    else:
        last = -1
        for t, level in s.resource_schedule:
            if t <= last:
                out.append(Violation(BAD_SCHEDULE, f"schedule times not strictly increasing at {t}"))
                break
            if level not in prof.resource_levels:
                out.append(Violation(BAD_SCHEDULE, f"schedule references unknown resource {level!r}"))
                break
            last = t

    return out


def validate_scenario(s: Scenario) -> Scenario:
    """Return the scenario unchanged iff every invariant holds."""
    violations = scenario_violations(s)
    if violations:
        raise InvalidScenario(violations)
    return s
