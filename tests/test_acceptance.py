"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.
"""

import dataclasses
import json
import time

import numpy as np
from builders import predicted_label
from spawn import CLI, run

from modalsim import engine, gating, latency, nn, optimizer, predictor, rng, scenario_io, workload
from modalsim.aggregation import (
    DiffSpec,
    ShiftSpec,
    aggregate,
    aggregate_output_dim,
    alternating_shift,
    group_slices,
    temporal_differences,
)
from modalsim.core import ConfigAssignment, ExecutionMode, FeatureMatrix
from modalsim.predictor import EncodingSpec, ModalityIndicators, TrainConfig
from modalsim.workload import OracleGate


def _report(n: int, detail: str):
    print(f"[criterion {n}] PASS  {detail}")


def test_criterion_1_analytic_engine_equivalence():
    t0 = time.perf_counter()
    pairs = 0
    for seed in range(120):
        s = workload.gen_scenario("random", seed=seed)
        sample = workload.gen_samples(s, 1, "medium", seed=seed)[0]
        assignments = list(s.assignments())
        for a in assignments[:: max(1, len(assignments) // 9)]:
            trace = engine.run(s, a, sample)
            want = latency.end_to_end_latency(s, a, "high").total_us - s.window_us
            assert trace.summary.reported_latency_us == want, (seed, a.pairs)
            pairs += 1
    elapsed = time.perf_counter() - t0
    assert pairs >= 1000
    assert elapsed < 10.0
    _report(1, f"{pairs} randomized pairs exact to 0µs in {elapsed:.1f}s")


def test_criterion_2_motivation_calibration():
    s = workload.gen_scenario("motivation-av", seed=0)
    sample = workload.gen_samples(s, 1, "easy", seed=0)[0]
    a = s.max_assignment()
    pipelined = engine.run(s, a, sample).summary.reported_latency_us
    blocking = engine.run(
        dataclasses.replace(s, execution_mode=ExecutionMode.BLOCKING), a, sample
    ).summary.reported_latency_us
    assert blocking == 242_000
    assert pipelined == 164_000
    diff = blocking - pipelined
    assert abs(diff - 80_000) <= 5_000
    _report(2, f"blocking 242ms, pipelined 164ms, reduction {diff / 1000:.0f}ms")


def test_criterion_3_optimizer_soundness():
    t0 = time.perf_counter()
    s = workload.gen_scenario("lrw-like", seed=0)
    ind = ModalityIndicators(0.6)
    assert sum(1 for _ in s.assignments()) == 81
    worst_gap = 0.0
    for seed in range(50):
        additive = workload.gen_accuracy_surface(s, seed=seed, interaction_scale=0.0)
        bf = optimizer.brute_force(s, ind, additive, "high")
        greedy = optimizer.greedy_search(s, ind, additive, "high")
        assert latency.end_to_end_latency(s, greedy, "high").total_us <= s.t_max_us
        g_score = additive(ind, greedy)
        assert g_score <= bf.best_score + 1e-12
        assert abs(g_score - bf.best_score) <= 1e-9  # exact on additive surfaces

        interacting = workload.gen_accuracy_surface(s, seed=seed, interaction_scale=1.0)
        bf2 = optimizer.brute_force(s, ind, interacting, "high")
        greedy2 = optimizer.greedy_search(s, ind, interacting, "high")
        assert latency.end_to_end_latency(s, greedy2, "high").total_us <= s.t_max_us
        score2 = interacting(ind, greedy2)
        assert score2 <= bf2.best_score + 1e-12
        gap = (bf2.best_score - score2) / bf2.best_score
        worst_gap = max(worst_gap, gap)
        assert gap <= 0.10
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(3, f"50 seeds: additive exact, worst interaction gap {worst_gap * 100:.2f}%, {elapsed:.1f}s")


def test_criterion_4_optimizer_scaling():
    medians = {}
    for levels in (3, 7):
        s = workload.gen_scenario("random", seed=11, sensing_levels=levels, model_levels=levels)
        surface = workload.gen_accuracy_surface(s)
        samples = workload.gen_samples(s, 20, {"easy": 1.0, "hard": 1.0}, seed=4)
        dataset = workload.predictor_dataset(s, surface, samples, seed=4, noise_pct=1.0)
        model = predictor.train(
            dataset, EncodingSpec.for_scenario(s), TrainConfig(seed=1, epochs=800)
        )
        optimizer.optimizer_step(samples[0], s, model, "high")  # warm up
        times = sorted(
            optimizer.optimizer_step(samples[0], s, model, "high").decision_latency_us
            for _ in range(9)
        )
        medians[levels] = times[4]
    growth = medians[7] / max(medians[3], 1)
    assert growth < 10.0
    assert medians[7] < 50_000
    _report(
        4,
        f"decision latency {medians[3] / 1000:.2f}ms (3^4) -> {medians[7] / 1000:.2f}ms (7^4), "
        f"growth {growth:.1f}x",
    )


def test_criterion_5_skipping_effectiveness():
    s = workload.gen_scenario("lrw-like", seed=3)
    a = ConfigAssignment(((1, 1), (1, 1)))

    train_samples = workload.gen_samples(s, 40, {"easy": 1.0, "hard": 1.0}, seed=21)
    rows = workload.gate_dataset(s, train_samples, [a, s.min_assignment(), s.max_assignment()])
    gate = gating.gate_train(rows, gating.GateTrainConfig(seed=0, epochs=1500))

    easy = workload.gen_samples(s, 30, "easy", seed=33)
    rep_on, rep_off, wait_on, wait_off = [], [], [], []
    for sample in easy:
        on = engine.run(s, a, sample, gate=gate).summary
        off = engine.run(s.without_skipping(), a, sample).summary
        rep_on.append(on.reported_latency_us)
        rep_off.append(off.reported_latency_us)
        wait_on.append(on.waiting_us)
        wait_off.append(off.waiting_us)
    assert np.mean(rep_off) > np.mean(rep_on)
    wait_growth = float(np.mean(wait_off)) / max(float(np.mean(wait_on)), 1.0)
    assert wait_growth >= 1.5

    # perfect-oracle gate: task accuracy identical to the no-skip run, exactly
    mixed = workload.gen_samples(s, 25, {"easy": 1.0, "hard": 1.0}, seed=34)
    hits_gated = hits_plain = 0
    for sample in mixed:
        gated = engine.run(s, a, sample, gate=OracleGate(s, sample, a))
        plain = engine.run(s.without_skipping(), a, sample)
        assert predicted_label(gated) == predicted_label(plain)
        hits_gated += predicted_label(gated) == sample.ground_truth_label
        hits_plain += predicted_label(plain) == sample.ground_truth_label
    assert hits_gated == hits_plain
    _report(
        5,
        f"disabling skip: latency {np.mean(rep_on) / 1000:.1f}ms -> {np.mean(rep_off) / 1000:.1f}ms, "
        f"waiting x{wait_growth:.1f}; oracle-gate accuracy unchanged",
    )


def test_criterion_6_temporal_aggregation_algebra():
    t0 = time.perf_counter()
    checked = 0
    stream = rng.stream(0, "acceptance", "aggregation")
    for i in range(10_000):
        st = stream.sub(i)
        n = 1 + st.u64(0) % 10
        c = 1 + st.u64(1) % 8
        n_groups = 1 + st.u64(2) % min(4, c)
        k = 1 + st.u64(3) % 4
        vals = st.sub("vals").symmetric(n * c).reshape(n, c)
        fm = FeatureMatrix(vals, n)
        spec = ShiftSpec(n_groups, k)
        out = alternating_shift(fm, spec)

        # boundary retention
        for b in list(range(min(k, n))) + list(range(max(n - k, 0), n)):
            assert np.array_equal(out.values[b], vals[b])
        # identity cases
        if n_groups == 1 or 2 * k >= n:
            assert np.array_equal(out.values, vals)
        # conservation: interior group columns are translated input vectors
        groups = group_slices(c, n_groups)
        for j in range(k, n - k):
            if n_groups > 1:
                assert np.array_equal(out.values[j, groups[0]], vals[j - k, groups[0]])
                assert np.array_equal(out.values[j, groups[-1]], vals[j + k, groups[-1]])

        if n >= 3:
            dspec = DiffSpec(scales=(1, 2) if n > 2 else (1,), encoder_width=4)
            diffs = temporal_differences(fm, DiffSpec(scales=(1,)))
            other = st.sub("other").symmetric(n * c).reshape(n, c)
            # difference linearity
            d_sum = temporal_differences(FeatureMatrix(vals + other, n), DiffSpec(scales=(1,)))
            assert np.allclose(
                d_sum[0].values[: n - 1],
                diffs[0].values[: n - 1]
                + temporal_differences(FeatureMatrix(other, n), DiffSpec(scales=(1,)))[0].values[: n - 1],
                atol=1e-12,
            )
            # aggregate linearity and shape
            agg_x = aggregate(fm, spec, dspec)
            agg_y = aggregate(FeatureMatrix(other, n), spec, dspec)
            agg_sum = aggregate(FeatureMatrix(vals + other, n), spec, dspec)
            assert np.allclose(agg_sum, agg_x + agg_y, atol=1e-10)
            assert agg_x.shape == (aggregate_output_dim(c, dspec),)
        checked += 1
    assert checked == 10_000
    _report(6, f"10^4 random matrices, all properties held, {time.perf_counter() - t0:.1f}s")


def test_criterion_7_predictor_fit():
    scenario = workload.gen_scenario("lrw-like", seed=3)
    surface = workload.gen_accuracy_surface(scenario)
    samples = workload.gen_samples(
        scenario, 120, {"easy": 1.0, "medium": 1.0, "hard": 1.0}, seed=5
    )
    spec = EncodingSpec.for_scenario(scenario)

    noisy = workload.predictor_dataset(scenario, surface, samples, seed=5, noise_pct=2.2)
    m_noisy = predictor.train(noisy, spec, TrainConfig(seed=1, epochs=4000))
    assert m_noisy.info.holdout_r2 >= 0.79
    assert m_noisy.info.holdout_mse <= 7.15

    clean = workload.predictor_dataset(scenario, surface, samples, seed=5, noise_pct=0.0)
    m_clean = predictor.train(clean, spec, TrainConfig(seed=1, epochs=4000))
    assert m_clean.info.holdout_r2 >= 0.99

    # analytic gradients vs central differences on a small random model
    s = rng.stream(1, "acceptance", "grad")
    dim, hidden, n = 4, 3, 10
    x = s.symmetric(n * dim).reshape(n, dim)
    y = s.sub("y").symmetric(n) * 2.0
    params = [
        s.sub("w1").symmetric(dim * hidden).reshape(dim, hidden) * 0.8,
        s.sub("b1").symmetric(hidden) * 0.3,
        s.sub("w2").symmetric(hidden),
        -0.2,
    ]
    _, grads = nn.loss_and_grads(params, x, y)
    h = 3e-6
    worst = 0.0
    for pi in range(4):
        flat = np.atleast_1d(np.asarray(params[pi], dtype=np.float64))
        g = np.atleast_1d(np.asarray(grads[pi], dtype=np.float64))
        for j in range(flat.size):
            def loss_at(v):
                p = [np.array(q, dtype=np.float64) if not np.isscalar(q) else q for q in params]
                if np.isscalar(p[pi]):
                    p[pi] = v
                else:
                    p[pi] = p[pi].copy()
                    p[pi].ravel()[j] = v
                return nn.loss_and_grads(p, x, y)[0]

            v0 = flat.ravel()[j]
            num = (loss_at(v0 + h) - loss_at(v0 - h)) / (2 * h)
            worst = max(worst, abs(num - g.ravel()[j]) / max(abs(num) + abs(g.ravel()[j]), 1e-8))
    assert worst <= 1e-5
    _report(
        7,
        f"noisy R2 {m_noisy.info.holdout_r2:.3f} (>=0.79), MSE {m_noisy.info.holdout_mse:.2f} "
        f"(<=7.15); affine R2 {m_clean.info.holdout_r2:.4f}; grad err {worst:.2e}",
    )


def test_criterion_8_gate_training_and_eval_cost():
    s = rng.stream(0, "acceptance", "gate")
    w = np.array([1.5, -2.0, 0.75, 0.5, 1.0])
    rows = []
    for i in range(400):
        f_fast = s.sub(i, "fast").symmetric(2)
        f_slow = s.sub(i, "slow").symmetric(2)
        frac = 0.5 if s.sub(i, "f").unit(0) < 0.5 else 0.7
        label = 1 if float(np.concatenate([f_fast, f_slow, [frac]]) @ w) > 0.35 else 0
        rows.append((f_fast, f_slow, frac, label))
    model = gating.gate_train(rows, gating.GateTrainConfig(seed=0, epochs=3000, dropout=0.1))
    assert model.info.holdout_accuracy >= 0.95

    f, g, fr, _ = rows[0]
    model.probability(f, g, fr)  # warm up
    times = []
    for _ in range(100):
        t0 = time.perf_counter()
        model.probability(f, g, fr)
        times.append(time.perf_counter() - t0)
    times.sort()
    median = times[50]
    assert median < 0.002
    _report(
        8,
        f"holdout accuracy {model.info.holdout_accuracy:.3f} (>=0.95), "
        f"eval {median * 1e6:.0f}µs (<2ms)",
    )


def test_criterion_9_cli_determinism(tmp_path):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(scenario_io.serialize(workload.gen_scenario("lrw-like", seed=3).without_skipping()))

    def run_twice(args, outputs):
        blobs = []
        for tag in ("x", "y"):
            paths = {k: tmp_path / f"{tag}-{v}" for k, v in outputs.items()}
            full = [a.format(**{k: str(p) for k, p in paths.items()}) for a in args]
            res = run(CLI + full, timeout=300)
            assert res.returncode == 0, res.stderr
            blobs.append((res.stdout, [paths[k].read_bytes() for k in sorted(outputs)]))
        assert blobs[0][1] == blobs[1][1]

    run_twice(
        ["run", "--scenario", str(scenario_path), "--seed", "9", "--samples", "2",
         "--assignment", "1:1,1:1", "--out", "{out}"],
        {"out": "trace.jsonl"},
    )
    run_twice(
        ["sweep", "--scenario", str(scenario_path), "--out", "{out}"],
        {"out": "sweep.csv"},
    )
    run_twice(
        ["train-predictor", "--scenario", str(scenario_path), "--samples", "15",
         "--epochs", "150", "--out", "{out}"],
        {"out": "model.json"},
    )
    _report(9, "run/sweep/train-predictor byte-identical under repeated invocation")
