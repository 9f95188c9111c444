"""Seeded synthetic scenarios, accuracy surfaces, and sample corpora.

The named presets are calibrated to reported operating points (for example
the motivation preset's profile is back-solved so blocking mode reports
242 ms and pipelined mode 164 ms); they are calibration targets for the
synthetic generators, not reproductions of any real dataset.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import engine, rng
from .core import (
    ConfigAssignment,
    Difficulty,
    ExecutionMode,
    LatencyProfile,
    ModalsimError,
    Modality,
    ModelConfig,
    ProfileEntry,
    Sample,
    Scenario,
    SensingConfig,
    memoized,
    validate_scenario,
)
from .gating import checkpoints
from .latency import unimodal_table
from .optimizer import probe_indicators, product_levels
from .predictor import ModalityIndicators

# Probability that a sample's window is stable enough for a prefix prediction
# to match the full-window prediction, by difficulty.
BASE_RATES = {Difficulty.EASY: 0.98, Difficulty.MEDIUM: 0.94, Difficulty.HARD: 0.90}
CONSISTENCY_WEIGHT = {Difficulty.EASY: 0.90, Difficulty.MEDIUM: 0.60, Difficulty.HARD: 0.35}


class UnknownPreset(ModalsimError):
    pass


# ---------------------------------------------------------------------------
# Scenario presets


def _preset(
    name: str,
    seed: int,
    window_us: int,
    modalities: Sequence[tuple[str, int]],
    units: Sequence[Sequence[int]],
    labels: Sequence[Sequence[str]],
    encode_us: Sequence[Sequence[int]],
    aggregate_us: Sequence[Sequence[int]],
    resources: Sequence[tuple[str, int, int]],
    fusion_us: int,
    t_max_us: int,
    checkpoints: tuple[float, ...] = (),
) -> Scenario:
    """A pipelined scenario from per-modality (name, channels), sensing unit
    counts, model labels and per-model base costs.  Each resource scales the
    base costs by a rational multiplier (num, den); the first resource is
    active throughout."""
    entries = {}
    for i in range(len(modalities)):
        for j in range(len(units[i])):
            for k in range(len(labels[i])):
                for level, num, den in resources:
                    le = encode_us[i][k] * num
                    la = aggregate_us[i][k] * num
                    if le % den or la % den:
                        raise ValueError("profile base values must divide the resource denominator")
                    entries[(i, j, k, level)] = ProfileEntry(le // den, la // den)
    return Scenario(
        name=name,
        modalities=tuple(Modality(i, label, channels) for i, (label, channels) in enumerate(modalities)),
        sensing_space=tuple(
            tuple(SensingConfig(j, n, window_us) for j, n in enumerate(counts)) for counts in units
        ),
        model_space=tuple(tuple(ModelConfig(k, lab) for k, lab in enumerate(names)) for names in labels),
        latency_profile=LatencyProfile(
            resource_levels=tuple(r[0] for r in resources), fusion_us=fusion_us, entries=entries
        ),
        t_max_us=t_max_us,
        execution_mode=ExecutionMode.PIPELINED,
        skip_checkpoints=checkpoints,
        tau=0.5,
        accuracy_surface_seed=seed,
        resource_schedule=((0, resources[0][0]),),
    )


_THREE_RESOURCES = (("high", 1, 1), ("mid", 25, 16), ("low", 2, 1))
_SIZES = ("small", "medium", "large")

_NAMED = {
    # Back-solved single-assignment profile: blocking reports 242 ms,
    # pipelined 164 ms, blocking waiting time 100 ms.
    "motivation-av": dict(
        window_us=1_000_000,
        modalities=(("video", 16), ("audio", 8)),
        units=([25], [20]),
        labels=(["frame-cnn"], ["chunk-cnn"]),
        encode_us=[[3_120], [6_350]],
        aggregate_us=[[152_000], [3_000]],
        resources=(("normal", 1, 1),),
        fusion_us=12_000,
        t_max_us=1_300_000,
    ),
    "lrw-like": dict(
        window_us=1_000_000,
        modalities=(("video", 16), ("audio", 8)),
        units=([20, 25, 32], [10, 16, 20]),
        labels=(_SIZES, _SIZES),
        encode_us=[[20_000, 44_800, 64_000], [4_800, 8_000, 12_800]],
        aggregate_us=[[9_600, 20_800, 30_080], [3_200, 4_800, 6_400]],
        resources=_THREE_RESOURCES,
        fusion_us=12_000,
        t_max_us=1_180_000,
        checkpoints=(0.5, 0.7),
    ),
    "nuscenes-like": dict(
        window_us=1_000_000,
        modalities=(("camera", 16), ("lidar", 12)),
        units=([2, 5, 10], [2, 10, 20]),
        labels=(_SIZES, _SIZES),
        encode_us=[[60_000, 96_000, 160_000], [16_000, 32_000, 48_000]],
        aggregate_us=[[8_000, 12_800, 16_000], [4_800, 8_000, 9_600]],
        resources=_THREE_RESOURCES,
        fusion_us=20_000,
        t_max_us=1_250_000,
        checkpoints=(0.5,),
    ),
    "uav-like": dict(
        window_us=500_000,
        modalities=(("rgb", 12), ("radar", 6)),
        units=([5, 10, 20], [2, 5, 10]),
        labels=(_SIZES, _SIZES),
        encode_us=[[16_000, 32_000, 48_000], [8_000, 12_800, 19_200]],
        aggregate_us=[[4_800, 8_000, 11_200], [1_600, 3_200, 4_800]],
        resources=_THREE_RESOURCES,
        fusion_us=8_000,
        t_max_us=640_000,
        checkpoints=(0.5, 0.7),
    ),
}
PRESETS = (*_NAMED, "random")


def _divisors_upto(n: int, cap: int) -> list[int]:
    return [d for d in range(1, cap + 1) if n % d == 0]


def _random_scenario(
    seed: int,
    modalities: int = 2,
    sensing_levels: int = 3,
    model_levels: int = 3,
    checkpoints: tuple[float, ...] = (),
) -> Scenario:
    s = rng.stream(seed, "scenario", "random")
    window = [480_000, 720_000, 960_000, 1_200_000][s.u64(0) % 4]
    pool = [d for d in _divisors_upto(window, 64) if d >= 4]

    mods = []
    units = []
    encode_us = []
    aggregate_us = []
    for i in range(modalities):
        ms = s.sub("modality", i)
        mods.append((f"m{i}", 4 + ms.u64(0) % 21))
        order = sorted(range(len(pool)), key=lambda j: (ms.u64(10 + j), j))
        units.append(sorted(pool[j] for j in order[:sensing_levels]))

        min_interval = window // max(units[i])
        base = 2_000 + ms.u64(1) % (2 * min_interval)
        step = 1 + ms.u64(2) % min_interval
        encode_us.append([base + k * step for k in range(model_levels)])
        la0 = 1_000 + ms.u64(3) % 20_000
        aggregate_us.append([la0 + k * (ms.u64(4) % 8_000) for k in range(model_levels)])

    fusion_us = 2_000 + s.u64(1) % 23_000
    scenario = _preset(
        f"random-{seed}",
        seed,
        window,
        mods,
        units,
        [[f"m{i}-l{k}" for k in range(model_levels)] for i in range(modalities)],
        encode_us,
        aggregate_us,
        resources=(("high", 1, 1), ("low", 2, 1)),
        fusion_us=fusion_us,
        t_max_us=1,  # placeholder until the cheapest latency is known
        checkpoints=checkpoints,
    )
    # the slowest modality sets the latency, so each takes its cheapest pair
    cheapest = max(int(row.min()) for row in unimodal_table(scenario, "high")) + fusion_us
    t_max = cheapest + (cheapest // 4) + s.u64(2) % cheapest
    return dataclasses.replace(scenario, t_max_us=t_max)


def gen_scenario(preset: str, seed: int = 0, **kwargs) -> Scenario:
    """Build and validate one of the named presets.

    `random` accepts modalities / sensing_levels / model_levels / checkpoints
    keyword knobs; the named presets take none.
    """
    if preset == "random":
        scenario = _random_scenario(seed, **kwargs)
    elif preset in _NAMED:
        if kwargs:
            raise TypeError(f"preset {preset!r} takes no keyword arguments, got {sorted(kwargs)}")
        scenario = _preset(preset, seed, **_NAMED[preset])
    else:
        raise UnknownPreset(f"unknown preset {preset!r}; choose from {PRESETS}")
    return validate_scenario(scenario)


# ---------------------------------------------------------------------------
# Accuracy surface

CONSISTENCY_SCALE = 10.0  # accuracy points per unit of indicator consistency


@dataclass(frozen=True)
class AccuracySurface:
    """Synthetic accuracy in percent over (indicators, assignment).

    Monotone nondecreasing in every level coordinate with diminishing
    returns, plus a cross-modal interaction on model levels and a
    consistency-dependent offset; values stay inside [40, 97].  `scores`
    is the one formula; it takes the (n, modalities, 2) level arrays the
    optimizer builds, like a predictor does.
    """

    model_norms: tuple[tuple[float, ...], ...]  # per modality, model level / (levels - 1), or 1.0
    base: float
    sensing_gains: tuple[tuple[float, ...], ...]  # cumulative, per modality
    model_gains: tuple[tuple[float, ...], ...]
    pair_weights: tuple[tuple[int, int, float], ...]  # (mod a, mod b, weight)

    def scores(self, ind: ModalityIndicators, levels) -> np.ndarray:
        """The accuracy of each row of an (n, modalities, 2) array of
        (sensing, model) levels.  Every row runs the same float operations
        in the same order, elementwise, so its score does not depend on the
        rows scored with it."""
        levels = np.asarray(levels)
        sensing, model, row = levels[:, :, 0], levels[:, :, 1], self._row
        acc = np.full(len(levels), self.base + CONSISTENCY_SCALE * ind.consistency)
        for i in range(levels.shape[1]):
            acc += row("sensing_gains", i)[sensing[:, i]] + row("model_gains", i)[model[:, i]]
        for a, b, w in self.pair_weights:
            acc += w * np.minimum(row("model_norms", a)[model[:, a]], row("model_norms", b)[model[:, b]])
        return acc

    @memoized
    def _row(self, field: str, modality: int) -> np.ndarray:
        """One modality's row of a per-modality field, as an array, computed
        once per surface instance."""
        return np.array(getattr(self, field)[modality])

    def __call__(self, ind: ModalityIndicators, assignment: ConfigAssignment) -> float:
        """One assignment's accuracy, as a one-row `scores` call."""
        return float(self.scores(ind, [assignment.pairs])[0])


def _cumulative_gains(stream: rng.Stream, levels: int, cap: float) -> tuple[float, ...]:
    if levels <= 1:
        return (0.0,) * max(levels, 1)
    draws = sorted((0.2 + 0.8 * stream.unit(i) for i in range(levels - 1)), reverse=True)
    total = cap * (0.5 + 0.5 * stream.unit(levels))
    scale = total / sum(draws)
    out = [0.0]
    for d in draws:
        out.append(out[-1] + d * scale)
    return tuple(out)


def gen_accuracy_surface(
    scenario: Scenario,
    seed: int | None = None,
    interaction_scale: float = 1.0,
) -> AccuracySurface:
    """Seeded surface for the scenario's config space.

    `interaction_scale=0` yields a purely additive (modular) surface.
    """
    if seed is None:
        seed = scenario.accuracy_surface_seed
    s = rng.stream(seed, "surface")
    n_mod = len(scenario.modalities)
    coords = 2 * n_mod
    coord_cap = 24.0 / coords

    sensing_gains = []
    model_gains = []
    for i in range(n_mod):
        sensing_gains.append(
            _cumulative_gains(s.sub("sensing", i), len(scenario.sensing_space[i]), coord_cap)
        )
        model_gains.append(
            _cumulative_gains(s.sub("model", i), len(scenario.model_space[i]), coord_cap)
        )

    pairs = [(a, b) for a in range(n_mod) for b in range(a + 1, n_mod)]
    pair_weights = []
    if pairs and interaction_scale > 0.0:
        per_pair = 6.0 / len(pairs)
        for idx, (a, b) in enumerate(pairs):
            w = interaction_scale * per_pair * s.sub("pair", idx).unit(0)
            pair_weights.append((a, b, w))

    return AccuracySurface(
        model_norms=tuple(
            tuple(level / (len(x) - 1) if len(x) > 1 else 1.0 for level in range(len(x)))
            for x in scenario.model_space
        ),
        base=52.0,
        sensing_gains=tuple(sensing_gains),
        model_gains=tuple(model_gains),
        pair_weights=tuple(pair_weights),
    )


# ---------------------------------------------------------------------------
# Sample corpora


def gen_samples(*args, **kwargs) -> list[Sample]:
    """The corpus of `iter_samples`, which takes the same arguments, as a list."""
    return list(iter_samples(*args, **kwargs))


def iter_samples(
    scenario: Scenario,
    count: int,
    mix: dict | Difficulty | str = Difficulty.EASY,
    seed: int = 0,
    base_rates: dict | None = None,
) -> Iterator[Sample]:
    """Deterministic sample corpus, made one sample at a time as it is
    iterated (and its arguments checked as the first is made).

    `mix` is a single difficulty or a {difficulty: weight} dict.  Stability
    (whether a prefix prediction provably matches the full-window prediction
    at the scenario's maximum assignment) is drawn per sample at the
    difficulty's base rate; unstable samples get a late feature jump searched
    until it actually flips the prediction.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    weights = _mix_weights(mix)
    rates = dict(BASE_RATES)
    if base_rates:
        rates.update({_as_difficulty(k): v for k, v in base_rates.items()})

    assignment = scenario.max_assignment()
    for i in range(count):
        s = rng.stream(seed, "corpus", i)
        difficulty = _draw_difficulty(weights, s.unit(0))
        stable = s.unit(1) < rates[difficulty]
        cw = CONSISTENCY_WEIGHT[difficulty] + 0.08 * (s.unit(2) * 2.0 - 1.0)
        label = s.u64(3) % engine.NUM_CLASSES
        sample = Sample(
            id=i,
            seed=seed,
            difficulty=difficulty,
            ground_truth_label=int(label),
            stable=stable,
            consistency_weight=float(cw),
        )
        yield sample if stable else _calibrate_jump(scenario, sample, assignment)


def _calibrate_jump(scenario, sample, assignment) -> Sample:
    """Search jump magnitude/direction until the slow modality's prefix up to
    the jump no longer predicts the full window's class."""
    for nonce in range(32):
        candidate = dataclasses.replace(
            sample, jump_nonce=nonce, jump_scale=6.0 * (1.6**nonce)
        )
        oracle = OracleGate(scenario, candidate, assignment)
        _, label = oracle.label(candidate.jump_start(len(oracle.slow_rows)))
        if not label:
            return candidate
    # pathological head; fall back to a stable sample so the label stays honest
    return dataclasses.replace(sample, stable=True)


def _mix_weights(mix) -> dict[Difficulty, float]:
    if isinstance(mix, (Difficulty, str)):
        return {_as_difficulty(mix): 1.0}
    weights = {_as_difficulty(k): float(v) for k, v in mix.items() if v > 0}
    if not weights:
        raise ValueError("difficulty mix has no positive weights")
    total = sum(weights.values())
    return {k: v / total for k, v in weights.items()}


def _as_difficulty(value) -> Difficulty:
    return value if isinstance(value, Difficulty) else Difficulty(value)


def _draw_difficulty(weights: dict[Difficulty, float], u: float) -> Difficulty:
    acc = 0.0
    ordered = sorted(weights.items(), key=lambda kv: kv[0].value)
    for d, w in ordered:
        acc += w
        if u < acc:
            return d
    return ordered[-1][0]


# ---------------------------------------------------------------------------
# Oracle gate and offline training datasets


class OracleGate:
    """Gate returning exactly 1.0 when the prefix prediction matches the
    full-window prediction for this (scenario, sample, assignment), else 0.0;
    `label` applies it to a prefix of the slow modality's units, the one
    place the skip label rule runs on a prefix.

    It also holds the window's skip inputs as the engine builds them: the
    slow modality's id and unit rows, and `f_fast`, the other modalities'
    feature vectors concatenated in modality order.
    """

    def __init__(self, scenario: Scenario, sample: Sample, assignment: ConfigAssignment):
        self.scenario = scenario
        self.slow_id = engine.slow_modality(scenario, assignment, 0)
        sample.rows(scenario.modalities)  # every modality's rows, in one draw pass
        rows = [
            sample.window_payload(m, scenario.sensing(m.id, level).units_per_window)
            for m, (level, _) in zip(scenario.modalities, assignment.pairs)
        ]
        self.slow_rows = rows.pop(self.slow_id)
        fast = [engine.feature_vector(r) for r in rows]
        self.f_fast = np.concatenate(fast) if fast else np.zeros(0)
        # the slow vector's place in the fused vector: after the fast ones before it
        self._offset = sum(len(f) for f in fast[: self.slow_id])
        self._full_slow = engine.feature_vector(self.slow_rows)

    def probability(self, f_fast: np.ndarray, f_slow_prefix: np.ndarray, fraction: float) -> float:
        f_fast = np.asarray(f_fast, dtype=np.float64)
        before, after = f_fast[: self._offset], f_fast[self._offset :]
        partial, full = (
            engine.fused_label(self.scenario, [before, f, after]) for f in (f_slow_prefix, self._full_slow)
        )
        return 1.0 if partial == full else 0.0

    def label(self, prefix: int) -> tuple[np.ndarray, int]:
        """The slow modality's feature vector over its first `prefix` units,
        and 1 if it, with the fast modalities complete, predicts the full
        window's class, else 0."""
        f_slow = engine.feature_vector(self.slow_rows[:prefix])
        return f_slow, int(self.probability(self.f_fast, f_slow, prefix / len(self.slow_rows)))


def gate_dataset(
    scenario: Scenario,
    samples: Sequence[Sample],
    assignments: Sequence[ConfigAssignment] | None = None,
) -> list[tuple[np.ndarray, np.ndarray, float, int]]:
    """Oracle-labelled gate training rows across configurations, one per
    checkpoint a window at that assignment evaluates."""
    if assignments is None:
        assignments = [scenario.min_assignment(), scenario.max_assignment()]
    fractions = scenario.skip_checkpoints or (0.5,)
    rows = []
    for sample in samples:
        for assignment in assignments:
            oracle = OracleGate(scenario, sample, assignment)
            for prefix, fraction in checkpoints(fractions, len(oracle.slow_rows)):
                f_slow, label = oracle.label(prefix)
                rows.append((oracle.f_fast, f_slow, float(fraction), label))
    return rows


ASSIGNMENTS_PER_SAMPLE = 6  # labelled assignments drawn per sample


def predictor_dataset(
    scenario: Scenario,
    surface: AccuracySurface,
    samples: Sequence[Sample],
    seed: int = 0,
    noise_pct: float = 0.0,
) -> list[tuple[ModalityIndicators, ConfigAssignment, float]]:
    """Labelled (indicators, assignment, accuracy) rows from the surface:
    per sample, ASSIGNMENTS_PER_SAMPLE seeded picks from
    `scenario.assignments()`, decoded by `product_levels` without listing
    them and scored in one call."""
    options = [np.array(scenario.level_pairs(i)) for i in range(len(scenario.modalities))]
    count = math.prod(len(pairs) for pairs in options)
    noise = rng.stream(seed, "predictor-noise")
    rows = []
    for sample in samples:
        ind = probe_indicators(scenario, sample)
        picks = rng.stream(seed, "predictor-picks", sample.id)
        levels = product_levels(options, [picks.u64(t) % count for t in range(ASSIGNMENTS_PER_SAMPLE)])
        for pairs, acc in zip(levels.tolist(), surface.scores(ind, levels).tolist()):
            if noise_pct > 0.0:
                # sum of three uniforms: symmetric bell-ish noise without libm
                u = noise.units(3, offset=len(rows) * 3)
                acc += noise_pct * ((u[0] + u[1] + u[2]) * 2.0 - 3.0)
            rows.append((ind, ConfigAssignment(tuple(map(tuple, pairs))), float(np.clip(acc, 0.0, 100.0))))
    return rows
