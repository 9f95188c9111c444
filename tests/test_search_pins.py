"""Byte pins for the random preset generator and the configuration search.

A random preset's `t_max_us` is derived from its cheapest end-to-end
latency, so its fingerprint pins that derivation.  The search pin covers
`brute_force` (best pairs, score repr, feasible count) and `greedy_search`
(pairs) across resource levels, budgets from infeasible to unconstrained and
two consistency indicators, recording the error name where one is raised.
"""

import dataclasses
import functools
import hashlib

import pytest

from modalsim import optimizer, scenario_io, workload
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
                ind = ModalityIndicators.from_consistency(cons)

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
