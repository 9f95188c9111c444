"""Decision latency of `optimizer_step`, measured in-process.

For each shape `<modalities>x<levels>`, a random preset with that many
modalities, each with that many sensing and model levels (so 2x7 searches
7^4 assignments), a predictor trained on it and a fresh corpus of mixed
difficulty: each sample gets one timed `optimizer_step`, after a few
untimed warm-up decisions.  Prints one JSON line on stdout: per shape, the
number of assignments, the decisions timed, and the median and quartiles
of their wall time in µs:

    python tools/decision_latency.py                      # 2x3 2x5 2x7 4x3 5x3
    python tools/decision_latency.py --decisions 50 2x2

The package is imported from the `src/` beside this file, and BLAS runs on
one thread, as in the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from modalsim import engine, optimizer, predictor, workload  # noqa: E402

SHAPES = ("2x3", "2x5", "2x7", "4x3", "5x3")
MIX = {"easy": 1.0, "medium": 1.0, "hard": 1.0}
WARMUP = 5
TRAIN_SAMPLES = 20
EPOCHS = 800
SEED = 0  # of the preset, the training corpus and predictor; the timed corpus uses SEED + 1


def shape_latency(shape: str, decisions: int) -> dict:
    modalities, levels = (int(part) for part in shape.split("x"))
    s = workload.gen_scenario(
        "random", seed=SEED, modalities=modalities, sensing_levels=levels, model_levels=levels
    )
    train = workload.gen_samples(s, TRAIN_SAMPLES, MIX, seed=SEED)
    rows = workload.predictor_dataset(s, workload.gen_accuracy_surface(s), train, seed=SEED, noise_pct=1.0)
    model = predictor.train(rows, predictor.EncodingSpec.for_scenario(s), predictor.TrainConfig(SEED, EPOCHS))
    resource = engine.apply_resource_schedule(s, 0)
    samples = workload.gen_samples(s, WARMUP + decisions, MIX, seed=SEED + 1)
    times = []
    for sample in samples:
        t0 = time.perf_counter()
        optimizer.optimizer_step(sample, s, model, resource)
        times.append((time.perf_counter() - t0) * 1e6)
    q1, median, q3 = statistics.quantiles(times[WARMUP:], n=4)
    return {
        "assignments": (levels * levels) ** modalities,
        "decisions": decisions,
        "median_us": round(median, 1),
        "q1_us": round(q1, 1),
        "q3_us": round(q3, 1),
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("shapes", nargs="*", default=SHAPES, help="<modalities>x<levels>, e.g. 2x7")
    parser.add_argument("--decisions", type=int, default=200, help="timed decisions per shape")
    args = parser.parse_args(argv)
    print(json.dumps({shape: shape_latency(shape, args.decisions) for shape in args.shapes}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
