"""`greedy_search` and `optimizer_step` against the greedy loop they replaced.

The reference below is the loop as it stood before the candidate table: it
rebuilds every move's levels at every step and scores them with
`predict_batch`, or with one call per row of a callable surface, and
`optimizer_step` rescored the choice by encoding it again.  The search now
encodes one table per decision and patches it, so the two must agree on
every assignment, every score bit and every error raised.
"""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from modalsim import optimizer, predictor, workload
from modalsim.core import ConfigAssignment, ModalsimError
from modalsim.predictor import ModalityIndicators, PredictorModel


def _score_many(model, ind, levels):
    assignments = [ConfigAssignment(tuple(map(tuple, row))) for row in levels.tolist()]
    if isinstance(model, PredictorModel):
        return predictor.predict_batch(model, ind, assignments)
    return [float(model(ind, a)) for a in assignments]


def reference_greedy(scenario, ind, model, resource):
    options = optimizer._options(scenario, resource)
    floor = options.latency.min()
    chosen = options.fastest.copy()
    is_move = np.ones(len(options.modality), dtype=bool)
    is_move[chosen] = False
    current = options.levels[chosen]
    current_score = float(_score_many(model, ind, current[None])[0])
    while True:
        moves = is_move.nonzero()[0]
        if not len(moves):
            break
        mids = options.modality[moves]
        levels = current[None].repeat(len(moves), axis=0)
        levels[np.arange(len(moves)), mids] = options.levels[moves]
        unimodal = options.latency[chosen].tolist()
        others = [max(unimodal[:i] + unimodal[i + 1 :], default=floor) for i in range(len(unimodal))]
        added = np.maximum(options.latency[moves], np.array(others)[mids]) - max(unimodal)
        gains = np.asarray(_score_many(model, ind, levels), dtype=np.float64) - current_score
        ratios = gains / np.maximum(added, 1)
        best = gains > 0.0
        if not best.any():
            break
        best &= ratios == ratios.max(where=best, initial=-np.inf)
        best &= gains == gains.max(where=best, initial=-np.inf)
        k = int(best.argmax())
        mid = mids[k]
        is_move[chosen[mid]], is_move[moves[k]] = True, False
        chosen[mid] = moves[k]
        current = levels[k]
        current_score += float(gains[k])
    return ConfigAssignment(tuple(map(tuple, current.tolist())))


def reference_step(sample, scenario, model, resource):
    ind = optimizer.probe_indicators(scenario, sample)
    with np.errstate(all="ignore"):
        assignment = reference_greedy(scenario, ind, model, resource)
        score = float(_score_many(model, ind, np.array([assignment.pairs]))[0])
    if not math.isfinite(score):
        raise optimizer.NonFiniteScore(score)
    return assignment.pairs, score.hex()


def _outcome(fn):
    try:
        return fn()
    except ModalsimError as exc:
        return type(exc).__name__


def _trained(s, seed):
    samples = workload.gen_samples(s, 4, {"easy": 1.0, "hard": 1.0}, seed=seed)
    rows = workload.predictor_dataset(
        s, workload.gen_accuracy_surface(s), samples, seed=seed, noise_pct=1.0
    )
    spec = predictor.EncodingSpec.for_scenario(s)
    return predictor.train(rows, spec, predictor.TrainConfig(seed=seed, epochs=150)), samples[0]


@settings(max_examples=80, deadline=None)
@given(
    modalities=st.integers(2, 4),
    sensing=st.integers(2, 7),
    models=st.integers(2, 7),
    seed=st.integers(0, 10**6),
    scorer=st.sampled_from(["surface", "predictor", "other-shape predictor", "extreme predictor"]),
    high=st.booleans(),
    budget=st.floats(0.0, 1.0),
    consistency=st.floats(-1.0, 1.0),
)
def test_greedy_matches_the_loop_it_replaced(
    modalities, sensing, models, seed, scorer, high, budget, consistency
):
    s = workload.gen_scenario(
        "random", seed, modalities=modalities, sensing_levels=sensing, model_levels=models
    )
    model, sample = _trained(s, seed)
    if scorer == "surface":
        model = workload.gen_accuracy_surface(s, seed=seed)
    elif scorer == "other-shape predictor":  # levels the encoding lacks raise UnknownConfig
        other = workload.gen_scenario(
            "random", seed, modalities=modalities, sensing_levels=sensing - 1, model_levels=models
        )
        model, _ = _trained(other, seed)
    elif scorer == "extreme predictor":  # finite weights, scores that are not
        x_mean = [(-1) ** i * 1e308 for i in range(model.encoding.dim)]
        model = dataclasses.replace(model, mlp=dataclasses.replace(model.mlp, x_mean=np.array(x_mean)))
    # budgets from the preset's own to 10**12, log-uniform
    s = dataclasses.replace(s, t_max_us=int(s.t_max_us * (10**12 / s.t_max_us) ** budget))
    resource = s.latency_profile.resource_levels[0 if high else -1]
    ind = ModalityIndicators(consistency)

    with np.errstate(all="ignore"):
        want = _outcome(lambda: reference_greedy(s, ind, model, resource))
        got = _outcome(lambda: optimizer.greedy_search(s, ind, model, resource))
    assert got == want

    def step():
        d = optimizer.optimizer_step(sample, s, model, resource)
        return d.assignment.pairs, d.score.hex()

    assert _outcome(step) == _outcome(lambda: reference_step(sample, s, model, resource))
