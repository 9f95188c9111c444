"""Byte pins for the random preset generator and the configuration search.

A random preset's `t_max_us` is derived from its cheapest end-to-end
latency, so its fingerprint pins that derivation; each named preset's
canonical document is pinned at three seeds.  The search pin covers
`brute_force` (best pairs, score repr, feasible count) and `greedy_search`
(pairs) across resource levels, budgets from infeasible to unconstrained and
two consistency indicators, recording the error name where one is raised.
It scores with a callable `AccuracySurface`; the predictor pin repeats the
searches, plus `optimizer_step`'s assignment and score repr, with a
`PredictorModel` trained on each scenario.
"""

import dataclasses
import functools
import hashlib

import pytest

from modalsim import optimizer, predictor, scenario_io, workload
from modalsim.core import ModalsimError
from modalsim.predictor import ModalityIndicators

SHAPES = {
    "default": {},
    "modalities=3": {"modalities": 3},
    "modalities=4": {"modalities": 4},
    "sensing=5,model=4": {"sensing_levels": 5, "model_levels": 4},
}
SEEDS = range(40)


@functools.lru_cache(maxsize=None)
def presets(shape: str):
    return tuple(workload.gen_scenario("random", seed, **SHAPES[shape]) for seed in SEEDS)


def test_random_preset_fingerprints_pinned():
    h = hashlib.sha256()
    for shape in SHAPES:
        for seed, s in zip(SEEDS, presets(shape)):
            h.update(f"{shape} {seed} {scenario_io.fingerprint(s)}\n".encode())
    assert h.hexdigest() == (
        "c7cf522a8d0414a14ae29cd0df8d16138c1a57ee7d5d6afb147e68caff5d646c"
    )


NAMED_PRESET_DOCUMENTS = {
    ("motivation-av", 0): "7d9b6ea99e5623b22d725876145b15cc5671ce96566dd86d1a5f737d1e466ffa",
    ("motivation-av", 1): "34c11b0064b5b7ebb8ead1348fa11d734ec9c4847cfad7697f9d94a4cdecab11",
    ("motivation-av", 2): "d906bef9e14be56a024dfec46e83e3db22fd85c8b2df92534e590dd88ee7a27a",
    ("lrw-like", 0): "7bf34ad4cd127ee00a3741f593920953a1fa27be191631ee7e927b999f1a46a2",
    ("lrw-like", 1): "fd8f7c9ebfd2e19291e787604a6824f0f0d8f2cbfb1fb232ad3e2712151d1416",
    ("lrw-like", 2): "c5be239e1554519d940399d60b4c06529018c7d3fa85d1455da497c17e5b2188",
    ("nuscenes-like", 0): "86fe0539886d97dd698969cb24ddc8b1b4da28880f217ceecdcc28fb5725ac6a",
    ("nuscenes-like", 1): "d0115d3e59acd29acb977f8af9378b3dc5ca20d2885f61d9a27a4a6d7369b8cc",
    ("nuscenes-like", 2): "8d223a0918d6cb92ecf3e6649680ebeed8d33599d609c1e79a94a9a77467db9d",
    ("uav-like", 0): "2840eea7a1b3ef3dfa6d07ba2963b5b6e82e84102ab78d8ab32166190709e7d3",
    ("uav-like", 1): "2504b586659a137133ee8ba17827930d4e8df698d0551bc4a325179e31f85b33",
    ("uav-like", 2): "4c69dcd5f803cf6b9ec5cc6eb4b02d97e5e22d353c6e6cdd5daaa488478eb685",
}


@pytest.mark.parametrize("preset, seed", sorted(NAMED_PRESET_DOCUMENTS))
def test_named_preset_documents_pinned(preset, seed):
    text = scenario_io.serialize(workload.gen_scenario(preset, seed=seed))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == NAMED_PRESET_DOCUMENTS[preset, seed]


def _outcome(fn):
    try:
        return fn()
    except ModalsimError as exc:
        return type(exc).__name__


def _searches(s):
    surface = workload.gen_accuracy_surface(s)
    for resource in ("high", "low"):
        for budget in (s.t_max_us, s.t_max_us * 3 // 4, 10**12):
            scenario = dataclasses.replace(s, t_max_us=budget)
            for cons in (0.2, 0.8):
                ind = ModalityIndicators(cons)

                def brute():
                    r = optimizer.brute_force(scenario, ind, surface, resource)
                    return r.best.pairs, repr(r.best_score), r.feasible_count

                def greedy():
                    return optimizer.greedy_search(scenario, ind, surface, resource).pairs

                yield resource, budget, cons, _outcome(brute), _outcome(greedy)


SEARCH_DIGESTS = {
    "default": "9b91d0b9afcc27d65406c70354834c01a7fd76e8565ae350464f117640c435fa",
    "modalities=3": "a83a8d29ac2bbf29545fa55b5ee60f24ccadf169435f829e6364ecb7345addaf",
    "modalities=4": "77e202fab0b475400de90395b64526a74befab6f4957fd3ad96d998c106adbf5",
    "sensing=5,model=4": "31067cf0f647984e8704256257616556ac599eaeabcebb7d3be2cc7f72b70a50",
}


@pytest.mark.parametrize("shape", SHAPES)
def test_search_results_pinned(shape):
    h = hashlib.sha256()
    for seed, s in zip(SEEDS, presets(shape)):
        for row in _searches(s):
            h.update(f"{seed} {row}\n".encode())
    assert h.hexdigest() == SEARCH_DIGESTS[shape]


# The PredictorModel path: a predictor trained on each scenario scores the
# searches, with indicators probed from two samples.
PREDICTOR_SEEDS = range(3)


def _trained(s, seed):
    samples = workload.gen_samples(s, 8, {"easy": 1.0, "hard": 1.0}, seed=seed)
    rows = workload.predictor_dataset(
        s, workload.gen_accuracy_surface(s), samples, seed=seed, noise_pct=1.0
    )
    spec = predictor.EncodingSpec.for_scenario(s)
    return predictor.train(rows, spec, predictor.TrainConfig(seed=seed, epochs=300)), samples[:2]


def _predictor_searches(s, seed):
    model, samples = _trained(s, seed)
    for resource in s.latency_profile.resource_levels:
        for budget in (s.t_max_us, s.t_max_us * 3 // 4, 10**12):
            scenario = dataclasses.replace(s, t_max_us=budget)
            for sample in samples:
                ind = optimizer.probe_indicators(scenario, sample)

                def greedy():
                    return optimizer.greedy_search(scenario, ind, model, resource).pairs

                def step():
                    d = optimizer.optimizer_step(sample, scenario, model, resource)
                    return d.assignment.pairs, repr(d.score)

                def brute():
                    r = optimizer.brute_force(scenario, ind, model, resource)
                    return r.best.pairs, repr(r.best_score), r.feasible_count

                yield resource, budget, sample.id, _outcome(greedy), _outcome(step), _outcome(brute)


PREDICTOR_CASES = {
    **{shape: [(seed, presets(shape)[seed]) for seed in PREDICTOR_SEEDS] for shape in SHAPES},
    "lrw-like": [(0, workload.gen_scenario("lrw-like", seed=0))],
    "uav-like": [(0, workload.gen_scenario("uav-like", seed=0))],
}

PREDICTOR_DIGESTS = {
    "default": "3f0bc08a695b9521e32e8e0fb05b7dd62279753260af3b18ab74285945936626",
    "modalities=3": "fe24d412f7d717c385492556cd3346f87770ed904d0eea1d0bc2b677184e73de",
    "modalities=4": "6861702323ff020ee1dfe18eb5f62a73e8c9aa24af80964df42914facdb10b59",
    "sensing=5,model=4": "fa0723980de9d356c79410d4993c73c36c9c55ada4e00ffdce602a8d65a50488",
    "lrw-like": "00a9e9ed87e8fc2a8dc7e32db4b2366c376573134fa97e068f799bbae51e7656",
    "uav-like": "2741bda42892ce97d3be53b089ad070715460f9d0e59b884ff6fe942115ba72e",
}


@pytest.mark.parametrize("case", PREDICTOR_CASES)
def test_predictor_search_results_pinned(case):
    h = hashlib.sha256()
    for seed, s in PREDICTOR_CASES[case]:
        for row in _predictor_searches(s, seed):
            h.update(f"{seed} {row}\n".encode())
    assert h.hexdigest() == PREDICTOR_DIGESTS[case]
