"""Gate training, evaluation, threshold semantics, checkpoint arithmetic."""

import time

import numpy as np
import pytest
from builders import zero_gate

from modalsim import nn, rng, workload
from modalsim.gating import (
    DimensionMismatch,
    GateModel,
    GateTrainConfig,
    checkpoints,
    gate_eval,
    gate_train,
    load_gate,
    save_gate,
)
from modalsim.nn import EmptyDataset


def test_checkpoints_examples():
    assert checkpoints([0.5, 0.7], 30) == [(15, 0.5), (21, 0.7)]
    assert checkpoints([0.5, 0.7], 2) == [(1, 0.5), (2, 0.7)]
    assert checkpoints([0.5, 0.7], 1) == [(1, 0.5)]
    assert checkpoints([], 30) == []


def test_checkpoints_name_a_shared_prefix_once_by_its_first_fraction():
    # ceil(0.5 * 25) = ceil(0.51 * 25) = 13
    assert checkpoints([0.5, 0.51], 25) == [(13, 0.5)]
    assert checkpoints([0.5, 0.51, 0.7], 25) == [(13, 0.5), (18, 0.7)]


def test_checkpoints_use_scenario_fractions():
    s = workload.gen_scenario("lrw-like", seed=0)
    # video level 1 has 25 units: ceil(12.5)=13, ceil(17.5)=18
    assert checkpoints(s.skip_checkpoints, s.sensing(0, 1).units_per_window) == [(13, 0.5), (18, 0.7)]


def test_zero_gate_outputs_half_and_never_commits_at_half():
    gate = zero_gate(fast_dim=3, slow_dim=4)
    decision = gate_eval(gate, np.ones(3), np.ones(4), 0.5, tau=0.5)
    assert decision.probability == 0.5
    assert decision.committed is False  # strict inequality at p == tau


def test_decision_boundary_strict():
    gate = zero_gate(fast_dim=1, slow_dim=1)
    assert gate_eval(gate, [1.0], [1.0], 0.5, tau=0.49).committed is True
    assert gate_eval(gate, [1.0], [1.0], 0.5, tau=0.5).committed is False


def test_hand_built_single_hidden_unit():
    # one hidden softplus unit, all weights known: verify the forward pass
    gate = GateModel(
        fast_dim=1,
        slow_dim=1,
        mlp=nn.MLP(
            w1=np.array([[1.0], [2.0], [0.5]]),
            b1=np.array([0.25]),
            w2=np.array([3.0]),
            b2=-4.0,
            x_mean=np.zeros(3),
            x_scale=np.ones(3),
        ),
        dropout=0.0,
    )
    x = np.array([0.3, -0.2, 0.7])  # [f_fast, f_slow, fraction]
    z1 = 0.3 * 1.0 + (-0.2) * 2.0 + 0.7 * 0.5 + 0.25
    h = np.log1p(np.exp(z1))
    p_want = 1.0 / (1.0 + np.exp(-(3.0 * h - 4.0)))
    p_got = gate.probability([0.3], [-0.2], 0.7)
    assert p_got == pytest.approx(float(p_want), rel=1e-12)


def test_dimension_mismatch():
    gate = zero_gate(fast_dim=2, slow_dim=2)
    with pytest.raises(DimensionMismatch):
        gate.probability(np.ones(3), np.ones(2), 0.5)


def test_empty_dataset():
    with pytest.raises(EmptyDataset):
        gate_train([])


def separable_dataset(n=400, seed=0, flip_fraction=0.0):
    s = rng.stream(seed, "separable")
    w = np.array([1.5, -2.0, 0.75, 0.5, 1.0])
    rows = []
    n_flip = int(round(flip_fraction * n))
    for i in range(n):
        f_fast = s.sub(i, "fast").symmetric(2)
        f_slow = s.sub(i, "slow").symmetric(2)
        frac = 0.5 if s.sub(i, "f").unit(0) < 0.5 else 0.7
        x = np.concatenate([f_fast, f_slow, [frac]])
        label = 1 if float(x @ w) > 0.35 else 0
        if i < n_flip:
            label = 1 - label
        rows.append((f_fast, f_slow, frac, label))
    return rows


def test_separable_dataset_high_accuracy():
    rows = separable_dataset(n=400, seed=1)
    model = gate_train(rows, GateTrainConfig(seed=0, epochs=3000, dropout=0.1))
    assert model.info.holdout_accuracy >= 0.95


def test_all_positive_labels_converge_to_one():
    rows = [(r[0], r[1], r[2], 1) for r in separable_dataset(n=120, seed=2)]
    model = gate_train(rows, GateTrainConfig(seed=0, epochs=1500, dropout=0.0))
    probs = [model.probability(r[0], r[1], r[2]) for r in rows[:20]]
    assert min(probs) > 0.95
    assert model.info.loss_tail[-1] < 0.05  # BCE heading to zero


def test_label_noise_robustness():
    # 10% flipped training labels; accuracy measured on clean labels
    noisy = separable_dataset(n=500, seed=3, flip_fraction=0.10)
    clean = separable_dataset(n=500, seed=3, flip_fraction=0.0)
    model = gate_train(noisy, GateTrainConfig(seed=0, epochs=2500, dropout=0.1))
    correct = sum(
        (model.probability(f, g, fr) > 0.5) == bool(lab) for f, g, fr, lab in clean
    )
    assert correct / len(clean) >= 0.85


def test_training_deterministic():
    rows = separable_dataset(n=150, seed=4)
    m1 = gate_train(rows, GateTrainConfig(seed=5, epochs=400))
    m2 = gate_train(rows, GateTrainConfig(seed=5, epochs=400))
    assert np.array_equal(m1.mlp.w1, m2.mlp.w1) and m1.mlp.b2 == m2.mlp.b2


def test_dropout_changes_training_but_not_eval():
    rows = separable_dataset(n=150, seed=6)
    m_drop = gate_train(rows, GateTrainConfig(seed=5, epochs=400, dropout=0.3))
    m_none = gate_train(rows, GateTrainConfig(seed=5, epochs=400, dropout=0.0))
    assert not np.array_equal(m_drop.mlp.w1, m_none.mlp.w1)
    f, g, fr, _ = rows[0]
    assert m_drop.probability(f, g, fr) == m_drop.probability(f, g, fr)


def test_eval_wall_cost_under_2ms():
    rows = separable_dataset(n=200, seed=7)
    model = gate_train(rows, GateTrainConfig(seed=0, epochs=300))
    f, g, fr, _ = rows[0]
    model.probability(f, g, fr)  # warm up
    times = []
    for _ in range(50):
        t0 = time.perf_counter()
        model.probability(f, g, fr)
        times.append(time.perf_counter() - t0)
    times.sort()
    assert times[len(times) // 2] < 0.002


def test_gate_serialization_round_trip(tmp_path):
    rows = separable_dataset(n=100, seed=8)
    model = gate_train(rows, GateTrainConfig(seed=2, epochs=300))
    path = tmp_path / "gate.json"
    save_gate(model, path)
    back = load_gate(path)
    assert np.array_equal(back.mlp.w1, model.mlp.w1)
    assert back.info == model.info
    f, g, fr, _ = rows[0]
    assert back.probability(f, g, fr) == model.probability(f, g, fr)
    save_gate(back, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
