#!/usr/bin/env python3
"""Cross-check against the ROADMAP baseline table (medians, single thread).

    python3 perfbench/crosscheck.py

Measures the three rows the table and this benchmark share, the way the
table describes them:
  - engine.run on random presets (2 modalities), pipelined, over the
    assignments acceptance criterion 1 samples (about 40 units per window);
  - optimizer_step at 3^4 and 7^4 (random preset seed 11, predictor trained
    for 800 epochs, as in acceptance criterion 4);
  - brute_force with that predictor over the 2401 assignments of 7^4.
Each figure is the median of 5 rounds, with the rounds' range.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from modalsim import engine, optimizer, predictor, workload  # noqa: E402

ROUNDS = 5
BASELINE = {  # ROADMAP "Baseline" table
    "engine.run random pipelined (ms/window)": (3.9, 4.9),
    "optimizer_step 3^4 (ms)": (1.3, 1.3),
    "optimizer_step 7^4 (ms)": (8.0, 8.0),
    "brute_force 2401, predictor (ms)": (80.0, 80.0),
}


def rounds(fn):
    values = sorted(fn() for _ in range(ROUNDS))
    return statistics.median(values), values[0], values[-1]


def engine_case():
    cases = []
    for seed in range(20):
        s = workload.gen_scenario("random", seed=seed)
        sample = workload.gen_samples(s, 1, "medium", seed=seed)[0]
        assignments = list(s.assignments())
        for a in assignments[:: max(1, len(assignments) // 9)]:
            cases.append((s, a, sample))
    units = statistics.fmean(
        sum(s.sensing(m.id, a.pairs[m.id][0]).units_per_window for m in s.modalities)
        for s, a, _ in cases
    )

    def once():
        t0 = time.perf_counter()
        for s, a, sample in cases:
            engine.run(s, a, sample)
        return (time.perf_counter() - t0) * 1e3 / len(cases)

    return rounds(once), units


def optimizer_case(levels):
    s = workload.gen_scenario("random", seed=11, sensing_levels=levels, model_levels=levels)
    samples = workload.gen_samples(s, 20, {"easy": 1.0, "hard": 1.0}, seed=4)
    rows = workload.predictor_dataset(s, workload.gen_accuracy_surface(s), samples, seed=4, noise_pct=1.0)
    model = predictor.train(rows, predictor.EncodingSpec.for_scenario(s), predictor.TrainConfig(seed=1, epochs=800))
    optimizer.optimizer_step(samples[0], s, model, "high")  # warm up

    def step():  # criterion 4's figure: median of 9 decisions on samples[0]
        return statistics.median(
            optimizer.optimizer_step(samples[0], s, model, "high").decision_latency_us / 1e3
            for _ in range(9)
        )

    ind = optimizer.probe_indicators(s, samples[0])

    def oracle():
        t0 = time.perf_counter()
        optimizer.brute_force(s, ind, model, "high")
        return (time.perf_counter() - t0) * 1e3

    feasible = optimizer.brute_force(s, ind, model, "high").feasible_count
    return rounds(step), rounds(oracle), feasible


def main() -> int:
    (run_ms, units) = engine_case()
    step3, _, _ = optimizer_case(3)
    step7, oracle7, feasible = optimizer_case(7)
    measured = {
        "engine.run random pipelined (ms/window)": run_ms,
        "optimizer_step 3^4 (ms)": step3,
        "optimizer_step 7^4 (ms)": step7,
        "brute_force 2401, predictor (ms)": oracle7,
    }
    print(f"{'figure':<42} {'ROADMAP':>10} {'median':>8} {'range':>15} {'ratio':>6}")
    for name, (lo, hi) in BASELINE.items():
        med, low, high = measured[name]
        mid = (lo + hi) / 2
        roadmap = f"{lo:g}" if lo == hi else f"{lo:g}-{hi:g}"
        print(f"{name:<42} {roadmap:>10} {med:8.2f} {low:7.2f}-{high:<7.2f} {med / mid:6.2f}")
    print(f"engine.run case: {units:.1f} units per window on average")
    print(f"brute_force case: {feasible} of 2401 assignments feasible (each one is scored)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
