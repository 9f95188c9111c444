"""Indicators, predictor training/prediction, gradients, serialization."""

import copy
import itertools
import json
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modalsim import nn, optimizer, predictor, rng, workload
from modalsim.core import ConfigAssignment
from modalsim.predictor import (
    EncodingSpec,
    ModalityIndicators,
    PredictorModel,
    SingleModality,
    TrainConfig,
    TrainingInfo,
    UnknownConfig,
    ZeroVector,
    consistency,
    indicators,
    load_model,
    predict,
    save_model,
    train,
)


def test_cosine_self_similarity():
    v = np.array([1.0, 2.0, -3.0])
    assert consistency(v, v) == 1.0


def test_cosine_orthogonal():
    assert consistency(np.array([1.0, 0.0]), np.array([0.0, 2.0])) == 0.0


def test_cosine_antipodal():
    v = np.array([0.5, -1.5, 2.0])
    assert consistency(v, -v) == -1.0


def test_cosine_rejects_zero_vector():
    with pytest.raises(ZeroVector):
        consistency(np.zeros(3), np.ones(3))


def test_cosine_rejects_length_mismatch():
    with pytest.raises(ValueError):
        consistency(np.ones(3), np.ones(4))


def linalg_cosines(vecs):
    """`predictor._cosines` with numpy's own norm, `np.linalg.norm`."""
    norms = [float(np.linalg.norm(v)) for v in vecs]
    if 0.0 in norms:
        raise ZeroVector("cosine similarity undefined for a zero vector")
    pairs = itertools.combinations(range(len(vecs)), 2)
    return [min(max(float(vecs[a] @ vecs[b]) / (norms[a] * norms[b]), -1.0), 1.0) for a, b in pairs]


def outcome(fn, vecs):
    try:
        return np.array(fn(vecs)).tobytes()
    except ZeroVector:
        return "ZeroVector"


@pytest.mark.parametrize("seed", range(5))
def test_cosines_match_the_linalg_norm_formula_bitwise(seed):
    # exponents from 1e-200 to 1e200, so some squared norms overflow or underflow
    draw = np.random.default_rng(seed)
    special = np.array([0.0, -0.0, 709.8, -709.8, 745.0, -745.0, 1e-300, -1e-300])
    for width in (1, 2, 3, 8, 16, 33, 100):
        vecs = [draw.normal(size=width) * 10.0 ** draw.uniform(-200, 200, size=width) for _ in range(4)]
        for case in (vecs, [*vecs, np.resize(special, width)], [np.resize(special, width)[::-1], *vecs]):
            with np.errstate(over="ignore", invalid="ignore"):
                assert outcome(predictor._cosines, case) == outcome(linalg_cosines, case)


def reference_indicators(features) -> float:
    """`indicators` as it was computed before each norm was kept: per pair,
    both norms again and one `np.clip`."""
    width = min(len(np.ravel(f)) for f in features)
    vecs = [np.ravel(np.asarray(f, dtype=np.float64))[:width] for f in features]
    cosines = []
    for a in range(len(vecs)):
        for b in range(a + 1, len(vecs)):
            n1, n2 = float(np.linalg.norm(vecs[a])), float(np.linalg.norm(vecs[b]))
            if n1 == 0.0 or n2 == 0.0:
                raise ZeroVector("cosine similarity undefined for a zero vector")
            cosines.append(float(np.clip(float(vecs[a] @ vecs[b]) / (n1 * n2), -1.0, 1.0)))
    return float(np.mean(cosines))


@settings(max_examples=150, deadline=None)
@given(
    widths=st.lists(st.integers(1, 40), min_size=2, max_size=7),
    seed=st.integers(0, 10**6),
    kind=st.sampled_from(["random", "parallel", "antiparallel", "one zero"]),
)
def test_indicators_match_the_per_pair_loop_bitwise(widths, seed, kind):
    draw = np.random.default_rng(seed)
    features = [draw.normal(size=w) * 10.0 ** draw.integers(-3, 4) for w in widths]
    if kind == "parallel":  # cosines that round past 1 before the clip
        features = [f[: min(widths)] * draw.uniform(0.1, 9.0) for f in [features[0]] * len(widths)]
    elif kind == "antiparallel":
        features = [f[: min(widths)] * (-1.0) ** i for i, f in enumerate([features[0]] * len(widths))]
    elif kind == "one zero":
        features[int(draw.integers(len(widths)))] = np.zeros(widths[0])

    def outcome(fn):
        try:
            return fn(features).hex()
        except ZeroVector as exc:
            return str(exc)

    assert outcome(lambda f: indicators(f).consistency) == outcome(reference_indicators)


def test_indicators_identical_features():
    f = np.array([1.0, 2.0, 3.0])
    ind = indicators([f, f, f])
    assert ind.consistency == 1.0
    assert ind.complementarity == 0.0


def test_indicators_pairwise_mean():
    # pairwise cosines {1, 0, 0} -> mean 1/3
    a = np.array([1.0, 0.0])
    b = np.array([1.0, 0.0])
    c = np.array([0.0, 1.0])
    ind = indicators([a, b, c])
    assert ind.consistency == pytest.approx(1.0 / 3.0)
    assert ind.complementarity == 1.0 - ind.consistency


def test_indicators_min_width_projection():
    # independent scratch computation: truncate to width 2, cosine there
    a = np.array([3.0, 4.0, 100.0])
    b = np.array([3.0, 4.0])
    want = float(np.dot([3, 4], [3, 4]) / (5.0 * 5.0))
    ind = indicators([a, b])
    assert ind.consistency == pytest.approx(want)


def test_indicators_single_modality():
    with pytest.raises(SingleModality):
        indicators([np.ones(3)])


def test_complement_exact_by_construction():
    for cons in (-1.0, -0.25, 0.0, 0.63, 1.0):
        ind = ModalityIndicators(cons)
        assert ind.complementarity == 1.0 - ind.consistency


def make_affine_dataset(spec, n=240, seed=0, noise=0.0, dead_level=False):
    """Accuracy = affine function of consistency and one-hot levels; the last
    model level of modality 1 copies the previous level's weight when
    dead_level is set."""
    s = rng.stream(seed, "affine")
    w_cons = 9.0
    level_w = []
    for counts in (spec.sensing_counts, spec.model_counts):
        for c in counts:
            level_w.append([2.0 * j for j in range(c)])
    if dead_level:
        level_w[-1][-1] = level_w[-1][-2]
    rows = []
    for i in range(n):
        cons = s.unit(3 * i) * 2.0 - 1.0
        pairs = []
        for m in range(len(spec.sensing_counts)):
            pairs.append(
                (
                    s.u64(3 * i + 1) % spec.sensing_counts[m] if m == 0 else s.u64(7 * i + 1) % spec.sensing_counts[m],
                    s.u64(3 * i + 2) % spec.model_counts[m] if m == 0 else s.u64(7 * i + 2) % spec.model_counts[m],
                )
            )
        a = ConfigAssignment(tuple(pairs))
        acc = 60.0 + w_cons * cons
        for m, (sl, ml) in enumerate(a.pairs):
            acc += level_w[m][sl]
            acc += level_w[len(spec.sensing_counts) + m][ml]
        if noise:
            acc += noise * (s.unit(3 * i + 2) * 2.0 - 1.0)
        rows.append((ModalityIndicators(cons), a, float(np.clip(acc, 0, 100))))
    return rows


SPEC = EncodingSpec(sensing_counts=(3, 3), model_counts=(3, 3))


def test_affine_surface_high_r2():
    rows = make_affine_dataset(SPEC, n=300, seed=1)
    model = train(rows, SPEC, TrainConfig(seed=0, epochs=3000))
    assert model.info.holdout_r2 >= 0.99


def test_training_point_residuals():
    rows = make_affine_dataset(SPEC, n=300, seed=2)
    model = train(rows, SPEC, TrainConfig(seed=0, epochs=4000))
    worst = max(abs(predict(model, ind, a) - acc) for ind, a, acc in rows[:50])
    assert worst <= 0.5


def test_constant_dataset_predicts_constant():
    rows = [(ind, a, 70.0) for ind, a, _ in make_affine_dataset(SPEC, n=60, seed=3)]
    early = train(rows, SPEC, TrainConfig(seed=0, epochs=200))
    model = train(rows, SPEC, TrainConfig(seed=0, epochs=2000))
    # MSE tends to zero: tiny already and still shrinking with more epochs
    assert model.info.train_mse < 1e-3
    assert model.info.train_mse < early.info.train_mse
    for ind, a, _ in rows[:5]:
        assert predict(model, ind, a) == pytest.approx(70.0, abs=0.05)


def test_dead_dimension_equal_predictions():
    rows = make_affine_dataset(SPEC, n=400, seed=4, dead_level=True)
    model = train(rows, SPEC, TrainConfig(seed=0, epochs=4000))
    ind = ModalityIndicators(0.2)
    a_mid = ConfigAssignment(((1, 1), (1, 1)))
    a_dead = ConfigAssignment(((1, 1), (1, 2)))
    assert abs(predict(model, ind, a_mid) - predict(model, ind, a_dead)) <= 0.5


def test_prediction_clamped():
    rows = [(ind, a, 99.0) for ind, a, _ in make_affine_dataset(SPEC, n=40, seed=5)]
    model = train(rows, SPEC, TrainConfig(seed=0, epochs=300))
    bumped = PredictorModel(
        encoding=model.encoding,
        mlp=nn.MLP(
            w1=model.mlp.w1,
            b1=model.mlp.b1,
            w2=model.mlp.w2,
            b2=model.mlp.b2 + 50.0,
            x_mean=model.mlp.x_mean,
            x_scale=model.mlp.x_scale,
        ),
        y_mean=model.y_mean,
        info=model.info,
    )
    ind, a, _ = rows[0]
    assert predict(bumped, ind, a) == 100.0


class FixedOutput:
    """An MLP stand-in whose forward pass returns the given values."""

    def __init__(self, values):
        self.values = values

    def output(self, xs):
        return self.values.copy()


def test_score_clamp_keeps_the_bits_of_np_clip():
    eps = np.finfo(np.float64).tiny * np.finfo(np.float64).eps  # the smallest subnormal
    values = np.array([
        np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, eps, -eps, 1e-300, -1e-300,
        np.nextafter(0.0, -1.0), 50.0, 100.0, np.nextafter(100.0, 0.0), np.nextafter(100.0, 200.0),
        -1e308, 1e308,
    ])
    spec = EncodingSpec(sensing_counts=(1,), model_counts=(1,))
    info = TrainingInfo(0, 0, 0.0, 0.0, 0.0, 0.0)
    for y_mean in (0.0, -0.0):
        model = PredictorModel(spec, FixedOutput(values), y_mean, info)
        got = predictor.score_standardized(model, np.zeros((len(values), spec.dim)))
        assert got.tobytes() == np.clip(values + y_mean, 0.0, 100.0).tobytes()
    assert np.signbit(got[3]) and np.signbit(got[1])  # -0.0 and the sign of -nan are kept


def test_empty_dataset_rejected():
    from modalsim.predictor import EmptyDataset

    with pytest.raises(EmptyDataset):
        train([], SPEC, TrainConfig(epochs=1))


def test_divergent_training_raises_non_finite_loss(monkeypatch):
    monkeypatch.setattr(predictor, "LEARNING_RATE", 1e6)
    rows = make_affine_dataset(SPEC, n=60, seed=12)
    with np.errstate(over="ignore"), pytest.raises(nn.NonFiniteLoss):
        train(rows, SPEC, TrainConfig(seed=0, epochs=500))


def test_unknown_config_rejected():
    rows = make_affine_dataset(SPEC, n=40, seed=6)
    model = train(rows, SPEC, TrainConfig(seed=0, epochs=100))
    with pytest.raises(UnknownConfig):
        predict(model, rows[0][0], ConfigAssignment(((5, 1), (1, 1))))


def test_encoding_layout_is_read_only_in_the_spec_and_its_copies():
    # the layout is shared by every encode call, so no caller may write it;
    # a pickled spec carries no memo and computes its own
    spec = EncodingSpec(sensing_counts=(3, 2), model_counts=(2, 3))
    spec.encode(ModalityIndicators(0.5), ConfigAssignment(((0, 0), (1, 2))))
    for each in (spec, pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
        starts, counts = each._layout()
        assert not starts.flags.writeable and not counts.flags.writeable
        assert counts.tolist() == [[3, 2], [2, 3]]


def test_deterministic_training():
    rows = make_affine_dataset(SPEC, n=100, seed=7)
    m1 = train(rows, SPEC, TrainConfig(seed=9, epochs=400))
    m2 = train(rows, SPEC, TrainConfig(seed=9, epochs=400))
    assert np.array_equal(m1.mlp.w1, m2.mlp.w1) and m1.mlp.b2 == m2.mlp.b2


def test_prediction_lipschitz_in_indicators():
    rows = make_affine_dataset(SPEC, n=200, seed=8)
    model = train(rows, SPEC, TrainConfig(seed=0, epochs=1000))
    a = ConfigAssignment(((1, 1), (1, 1)))
    eps = 1e-6
    base = predict(model, ModalityIndicators(0.3), a)
    moved = predict(model, ModalityIndicators(0.3 + eps), a)
    assert abs(moved - base) < 1e-3  # finite perturbation stays bounded


@pytest.mark.parametrize("mask_kind", ["none", "dropout"])
@pytest.mark.parametrize("loss", ["mse", "bce"])
def test_gradient_check_against_finite_differences(loss, mask_kind):
    # "mse" is the predictor's loss; "bce" with a dropout mask is the gate's
    s = rng.stream(0, "gradcheck")
    dim, hidden, n = 5, 4, 12
    x = s.symmetric(n * dim).reshape(n, dim)
    y = s.sub("y").symmetric(n) * 3.0
    if loss == "bce":
        y = (y > 0.0).astype(np.float64)
    mask = None
    if mask_kind == "dropout":
        mask = (np.array([0.9, 0.1, 0.6, 0.8]) >= 0.3).astype(np.float64) / 0.7
    w1 = s.sub("w1").symmetric(dim * hidden).reshape(dim, hidden) * 0.7
    b1 = s.sub("b1").symmetric(hidden) * 0.2
    w2 = s.sub("w2").symmetric(hidden) * 0.9
    b2 = 0.1
    params = [w1, b1, w2, b2]
    _, grads = nn.loss_and_grads(params, x, y, loss, mask)

    h = 3e-6
    worst = 0.0
    for pi in range(len(params)):
        g = np.atleast_1d(np.asarray(grads[pi], dtype=np.float64))
        flat = np.atleast_1d(np.asarray(params[pi], dtype=np.float64)).ravel()
        for j in range(flat.size):
            def loss_at(v):
                p = [np.array(p, dtype=np.float64) if not np.isscalar(p) else p for p in params]
                if np.isscalar(p[pi]):
                    p[pi] = v
                else:
                    p[pi] = p[pi].copy()
                    p[pi].ravel()[j] = v
                return nn.loss_and_grads(p, x, y, loss, mask)[0]

            v0 = flat[j]
            num = (loss_at(v0 + h) - loss_at(v0 - h)) / (2 * h)
            ana = float(g.ravel()[j])
            rel = abs(num - ana) / max(abs(num) + abs(ana), 1e-8)
            worst = max(worst, rel)
    assert worst <= 1e-5


def test_model_serialization_round_trip(tmp_path):
    rows = make_affine_dataset(SPEC, n=80, seed=9)
    model = train(rows, SPEC, TrainConfig(seed=3, epochs=300))
    path = tmp_path / "predictor.json"
    save_model(model, path)
    back = load_model(path)
    assert np.array_equal(back.mlp.w1, model.mlp.w1)
    assert np.array_equal(back.mlp.x_scale, model.mlp.x_scale)
    assert back.mlp.b2 == model.mlp.b2
    assert back.info == model.info
    ind, a, _ = rows[0]
    assert predict(back, ind, a) == predict(model, ind, a)
    # write -> read -> write is byte stable
    save_model(back, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def _edited_model_file(tmp_path, edits):
    """A small saved predictor document with each value of `edits` put at
    its place, a path of keys and indices, in its weights."""
    spec = EncodingSpec(sensing_counts=(2,), model_counts=(2,))
    mlp = nn.MLP(np.zeros((spec.dim, 2)), np.zeros(2), np.zeros(2), 0.0, np.zeros(spec.dim), np.ones(spec.dim))
    path = tmp_path / "predictor.json"
    save_model(PredictorModel(spec, mlp, 50.0, predictor.TrainingInfo(0, 1, 0.1, 0.0, 0.0, 0.0)), path)
    doc = json.loads(path.read_text())
    for (*outer, last), value in edits.items():
        target = doc["weights"]
        for part in outer:
            target = target[part]
        target[last] = value
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize(
    "where, value, problem",
    [
        (("b1", 0), True, "weights.b1 item should be float, got bool"),
        (("w1", 0, 1), "1", "weights.w1 item should be float, got str"),
        (("w1", 0, 1), [0.0], "weights.w1 item should be float, got list"),
        (("b2",), 2**1024, "weights.b2 should be float, got int"),
        (("w2",), "abc", "weights.w2 should be float, got str"),
        (("x_mean",), None, "weights.x_mean should be float, got NoneType"),
        (("w1", 0), [0.0], "weights.w1 is not a rectangular array of finite numbers"),
        (("w2", 0), float("inf"), "weights.w2 is not a rectangular array of finite numbers"),
    ],
    ids=["true-in-b1", "str-in-w1", "list-in-w1", "b2-beyond-float", "w2-str", "x_mean-null", "ragged-w1", "inf-in-w2"],
)
def test_each_weight_array_number_is_read_by_the_json_type_rule(tmp_path, where, value, problem):
    with pytest.raises(nn.WeightFormatError, match=f"^{re.escape(problem)}$"):
        load_model(_edited_model_file(tmp_path, {where: value}))


def test_a_weight_array_reads_an_int_as_a_float_like_every_float_field(tmp_path):
    edits = {("b2",): 2**63, ("y_mean",): 2**63, ("b1", 0): 2**64}
    back = load_model(_edited_model_file(tmp_path, edits))
    assert (back.mlp.b2, back.y_mean, back.mlp.b1[0]) == (2.0**63, 2.0**63, 2.0**64)
    assert type(back.mlp.b2) is type(back.y_mean) is float


def test_fit_floors_on_noisy_surface():
    scenario = workload.gen_scenario("lrw-like", seed=3)
    surface = workload.gen_accuracy_surface(scenario)
    samples = workload.gen_samples(
        scenario, 120, {"easy": 1.0, "medium": 1.0, "hard": 1.0}, seed=5
    )
    dataset = workload.predictor_dataset(scenario, surface, samples, seed=5, noise_pct=2.2)
    spec = EncodingSpec.for_scenario(scenario)
    model = train(dataset, spec, TrainConfig(seed=1, epochs=4000))
    assert model.info.holdout_r2 >= 0.79
    assert model.info.holdout_mse <= 7.15


def one_hot(spec, ind, pairs):
    """The input layout written out: [cons, comp], then per modality a one-hot
    sensing block followed by a one-hot model block."""
    vec = [ind.consistency, ind.complementarity]
    for (s, m), n_s, n_m in zip(pairs, spec.sensing_counts, spec.model_counts):
        vec += [float(k == s) for k in range(n_s)] + [float(k == m) for k in range(n_m)]
    return np.array(vec)


@st.composite
def encodings(draw):
    """An encoding, an (n, modalities, 2) levels list inside it and one
    indicator pair per row."""
    counts = st.lists(st.integers(1, 6), min_size=1, max_size=4)
    sensing = draw(counts)
    model = draw(st.lists(st.integers(1, 6), min_size=len(sensing), max_size=len(sensing)))
    spec = EncodingSpec(sensing_counts=tuple(sensing), model_counts=tuple(model))
    pair = [st.tuples(st.integers(0, s - 1), st.integers(0, m - 1)) for s, m in zip(sensing, model)]
    levels = draw(st.lists(st.tuples(*pair), min_size=1, max_size=8))
    cons = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(levels), max_size=len(levels)))
    return spec, levels, [ModalityIndicators(c) for c in cons]


@given(encodings())
@settings(max_examples=150, deadline=None)
def test_batch_encoder_rows_equal_stacked_encode_rows(case):
    spec, levels, inds = case
    for ind, ind_of in ((inds[0], lambda r: inds[0]), (inds, inds.__getitem__)):
        batch = spec.encode_batch(ind, np.array(levels))
        rows = list(enumerate(levels))
        stacked = np.vstack([spec.encode(ind_of(r), ConfigAssignment(p)) for r, p in rows])
        written = np.vstack([one_hot(spec, ind_of(r), p) for r, p in rows])
        assert batch.shape == (len(levels), spec.dim)
        assert batch.tobytes() == stacked.tobytes() == written.tobytes()


@given(encodings(), st.data())
@settings(max_examples=150, deadline=None)
def test_both_encoders_reject_levels_outside_the_space(case, data):
    spec, levels, inds = case
    row = data.draw(st.integers(0, len(levels) - 1))
    i = data.draw(st.integers(0, len(spec.sensing_counts) - 1))
    which = data.draw(st.integers(0, 1))
    count = (spec.sensing_counts, spec.model_counts)[which][i]
    bad = data.draw(st.one_of(st.integers(-5, -1), st.integers(count, count + 5)))
    pairs = [list(map(list, p)) for p in levels]
    pairs[row][i][which] = bad
    with pytest.raises(UnknownConfig, match=f"outside modality {i}'s space"):
        spec.encode_batch(inds[0], np.array(pairs))
    with pytest.raises(UnknownConfig):
        spec.encode(inds[0], ConfigAssignment(tuple(map(tuple, pairs[row]))))


@given(encodings(), st.sampled_from([-1, 1]))
@settings(max_examples=100, deadline=None)
def test_both_encoders_reject_a_wrong_modality_count(case, delta):
    spec, levels, inds = case
    pairs = [p[:-1] if delta < 0 else p + ((0, 0),) for p in levels]
    with pytest.raises(UnknownConfig):
        spec.encode_batch(inds[0], pairs)
    with pytest.raises(UnknownConfig):
        spec.encode(inds[0], ConfigAssignment(pairs[0]))


def test_greedy_search_rejects_a_predictor_of_another_space():
    s = workload.gen_scenario("random", seed=0, sensing_levels=7, model_levels=7)
    samples = workload.gen_samples(s, 4, "easy", seed=0)
    rows = workload.predictor_dataset(s, workload.gen_accuracy_surface(s), samples, seed=0)
    model = train(rows, EncodingSpec.for_scenario(s), TrainConfig(seed=0, epochs=50))
    wide = workload.gen_scenario("random", seed=0, modalities=4)
    with pytest.raises(UnknownConfig, match="4 modalities, encoding expects 2"):
        optimizer.greedy_search(wide, ModalityIndicators(0.5), model, "high")
