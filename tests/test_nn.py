"""The shared MLP: pinned weight-document bytes for both models, the shared
exp of training against the two-exp reference, the memory of a fit, and a
weight document's missing fields told from its nulls."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from modalsim import nn, rng
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


# 0, -0, near exp's overflow, past its underflow, and near the smallest normals
SPECIAL = np.array([0.0, -0.0, 709.8, -709.8, 745.0, -745.0, 1e-300, -1e-300])


def two_exp_loss_and_grads(params, x, y, loss, mask):
    """`nn.loss_and_grads` as it was before softplus and its derivative
    shared one exp: each computes exp(-|z|) itself."""

    def softplus(v):
        return np.maximum(v, 0.0) + np.log1p(np.exp(-np.abs(v)))

    def sigmoid(v):
        e = np.exp(-np.abs(v))
        return np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    w1, b1, w2, b2 = params
    z = x @ w1 + b1
    h = softplus(z) if mask is None else softplus(z) * mask
    out = h @ w2 + b2
    if loss == "mse":
        value = float(np.mean((out - y) ** 2))
        d_out = 2.0 * (out - y) / x.shape[0]
    else:
        p = sigmoid(out)
        value = float(-np.mean(y * np.log(p + nn.BCE_EPS) + (1.0 - y) * np.log(1.0 - p + nn.BCE_EPS)))
        d_out = (p - y) / x.shape[0]
    d_h = np.outer(d_out, w2) if mask is None else np.outer(d_out, w2) * mask
    d_z = d_h * sigmoid(z)
    return value, (x.T @ d_z, d_z.sum(axis=0), h.T @ d_out, float(np.sum(d_out)))


def bits(values) -> list[bytes]:
    return [np.asarray(v, dtype=np.float64).tobytes() for v in values]


def test_softplus_and_sigmoid_given_the_shared_exp_keep_their_bits():
    draw = np.random.default_rng(0)
    x = np.concatenate([SPECIAL, draw.normal(size=500) * 10.0 ** draw.integers(-3, 4, size=500)])
    e = np.exp(-np.abs(x))
    assert bits([nn.softplus(x, e), nn.sigmoid(x, e)]) == bits([nn.softplus(x), nn.sigmoid(x)])


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("mask_kind", ["none", "dropout"])
@pytest.mark.parametrize("loss", ["mse", "bce"])
def test_loss_and_grads_match_the_two_exp_reference_bitwise(loss, mask_kind, scale):
    draw = np.random.default_rng([int(scale * 1e3), len(loss), len(mask_kind)])
    n, dim, hidden = 13, 5, 8 + len(SPECIAL)
    x = draw.normal(size=(n, dim)) * scale
    y = draw.normal(size=n) * 3.0
    if loss == "bce":
        y = (y > 0.0).astype(np.float64)
    w1 = draw.normal(size=(dim, hidden))
    b1 = draw.normal(size=hidden)
    w1[:, : len(SPECIAL)], b1[: len(SPECIAL)] = 0.0, SPECIAL  # hidden inputs at the special values
    params = [w1, b1, draw.normal(size=hidden), 0.3]
    mask = None
    if mask_kind == "dropout":
        mask = (draw.uniform(size=hidden) >= 0.3) / 0.7
    value, grads = nn.loss_and_grads(params, x, y, loss, mask)
    ref_value, ref_grads = two_exp_loss_and_grads(params, x, y, loss, mask)
    assert bits([value, *grads]) == bits([ref_value, *ref_grads])


def test_a_fit_keeps_only_its_loss_tail():
    # six rows: 2,000 epochs peak where 200 do, with no loss kept per epoch
    x = np.arange(18, dtype=np.float64).reshape(6, 3) ** 0.5
    y = np.array([0.0, 1.0, 1.0, 0.0, 1.0, 0.0])
    peaks, tails = [], []
    for epochs in (200, 2000):
        tracemalloc.start()
        try:
            fit = nn.fit_mlp(x, y, loss="bce", tag="tail", seed=0, epochs=epochs, learning_rate=0.1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        tails.append(fit.loss_tail)
    assert peaks[1] - peaks[0] < 8 * 1024, peaks
    assert [len(tail) for tail in tails] == [5, 5]


def _mlp_doc():
    """A document with a weight block over two inputs, an empty section and a null field."""
    mlp = nn.MLP(np.zeros((2, 2)), np.zeros(2), np.zeros(2), 0.0, np.zeros(2), np.ones(2))
    return {"weights": nn.weight_block(mlp), "layout": {}, "dropout": None}


@pytest.mark.parametrize(
    "path, kind, problem",
    [
        ("training", float, "training is missing"),
        ("dropout", float, "dropout should be float, got NoneType"),
        ("layout.fast_dim", int, "layout.fast_dim is missing"),
        ("section.fast_dim", int, "section is missing"),
        ("training", GateTrainConfig, "training is missing"),
    ],
)
def test_a_weight_document_field_that_is_absent_is_missing_and_a_null_is_of_the_wrong_type(path, kind, problem):
    # as `core.read_record` reads a record: an absent key is missing, not null
    with pytest.raises(nn.WeightFormatError, match=f"^{problem}$"):
        nn.read_field(_mlp_doc(), path, kind)


def test_a_weight_array_that_is_absent_is_missing():
    doc = _mlp_doc()
    del doc["weights"]["x_mean"]
    with pytest.raises(nn.WeightFormatError, match="^weights.x_mean is missing$"):
        nn.read_weight_block(doc, 2)
    doc["weights"]["x_mean"] = None
    with pytest.raises(nn.WeightFormatError, match="^weights.x_mean should be float, got NoneType$"):
        nn.read_weight_block(doc, 2)
