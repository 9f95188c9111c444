"""The shared MLP: pinned weight-document bytes for both models."""

import hashlib

import numpy as np
import pytest

from modalsim import rng
from modalsim.core import ConfigAssignment
from modalsim.gating import GateTrainConfig, gate_train, save_gate
from modalsim.predictor import EncodingSpec, ModalityIndicators, TrainConfig, save_model, train

SPEC = EncodingSpec(sensing_counts=(3, 2), model_counts=(2, 3))


def predictor_rows(n):
    s = rng.stream(11, "pin", "predictor")
    rows = []
    for i in range(n):
        pairs = tuple(
            (s.u64(4 * i + 2 * m) % SPEC.sensing_counts[m], s.u64(4 * i + 2 * m + 1) % SPEC.model_counts[m])
            for m in range(2)
        )
        cons = s.sub("cons").unit(i) * 2.0 - 1.0
        acc = 55.0 + 10.0 * cons + 4.0 * sum(sl + ml for sl, ml in pairs) + s.sub("noise").unit(i)
        rows.append((ModalityIndicators(cons), ConfigAssignment(pairs), acc))
    return rows


def gate_rows(n):
    s = rng.stream(11, "pin", "gate")
    rows = []
    for i in range(n):
        f_fast = s.sub(i, "fast").symmetric(3)
        f_slow = s.sub(i, "slow").symmetric(2)
        frac = 0.5 if i % 2 else 0.7
        label = int(f_fast[0] - f_slow[1] + 0.3 * frac > 0.1)
        rows.append((f_fast, f_slow, frac, label))
    return rows


def _predictor_doc(path, n, epochs):
    save_model(train(predictor_rows(n), SPEC, TrainConfig(seed=3, epochs=epochs)), path)


def _gate_doc(path, n, dropout):
    save_gate(gate_train(gate_rows(n), GateTrainConfig(seed=4, epochs=300, dropout=dropout)), path)


# SHA-256 of each saved document; any drift in a trained float changes it.
PINNED = {
    "predictor-30-rows": (
        lambda p: _predictor_doc(p, 30, 300),
        "f995244bb4ad8b2dd0cd43fd418e4499d148274e459578a8fbb2c212cca4a5b6",
    ),
    "predictor-4-rows": (
        lambda p: _predictor_doc(p, 4, 30),
        "321ea549f639b23b7c8237aa964d9bd3c7f9aba7842b7456a0c5447031fd57b5",
    ),
    "gate-dropout-0.1": (
        lambda p: _gate_doc(p, 40, 0.1),
        "2987f01955f54cdf9b9d08bdb99977ce8adffc2a04b9ea1d6b13c9519a66f352",
    ),
    "gate-dropout-0.0": (
        lambda p: _gate_doc(p, 40, 0.0),
        "4824584cfda8f8c838b9a4a043e15a984bc395c9e81690ed2a6b816619c1f740",
    ),
    "gate-3-rows": (
        lambda p: _gate_doc(p, 3, 0.1),
        "b99e00e71c2bb29818d8378136b1caa6e232b4d5d451f65b63af257f13cb1448",
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_weight_document_digest_pinned(case, tmp_path):
    build, digest = PINNED[case]
    path = tmp_path / "model.json"
    build(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
