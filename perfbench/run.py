#!/usr/bin/env python3
"""modalsim benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload online-gated --seed 0 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from `src/`.  The
run builds its inputs from the seed (set-up), warms up, then processes
windows in a single thread for `--seconds` seconds, one window at a time,
checking every output.  Human-readable metrics go to stdout with their units
and sample counts; the last line is one JSON object.

With `--trace 1` the run then processes one more fresh pass with spans
recorded around the public functions of each module (see spans.py), prints
per-layer metrics and writes every span to `.perfbench/spans-<workload>-<seed>.csv`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import Report

# one BLAS thread: the workloads are single-threaded closed loops
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
DEFAULT_SEED = 0
SETUP_REPEATS = 3  # this process plus fresh child processes; the median is reported
WARMUP_PASS = 10**6
TRACED_PASS = 10**6 + 1

# SHA-256 of the first pass's output at the default seed: every trace batch
# file, or for search-wide every decision record.  Gate probabilities and
# predictor scores are floats from numpy, so a different BLAS build may move
# the last bits; the simulated times are integers and cannot move.
PINNED_DIGESTS = {
    "online-gated": "ecd6f7ce2a535d3715da87e7fb51c1538f57e1a2113800dd08b29ac5350a7818",
    "sim-dense": "19b1729fddb856d664d237080b20360905d0ca6156f73cd81969c7c2e2e3bc00",
    "search-wide": "787868c8c753697c3dcbd39b1f52e7c7128d7c6464c4a39e15d4ec6d77609839",
}

# The host's speed drifts by up to half for tens of seconds to minutes at a
# time, longer than a run.  So the bounded window figures are scaled by a
# fixed probe (small numpy operations driven from Python, like the program)
# timed after every batch: `windows_per_ref_s` and `window_p95_ref_ms` are
# what a host on which the probe takes PROBE_REF_S would see.
PROBE_LOOPS = 150
PROBE_REF_S = 2e-3

clock = time.perf_counter


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(PINNED_DIGESTS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="time one set-up and exit")
    return p.parse_args(argv)


def import_program() -> float:
    """Import modalsim from this checkout's src/ and return the time it took."""
    src = ROOT / "src"
    if not (src / "modalsim" / "__init__.py").is_file():
        print(f"perfbench: no modalsim sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    t0 = clock()
    import modalsim  # noqa: F401  (timed: part of set-up)

    elapsed = clock() - t0
    if Path(modalsim.__file__).resolve().parent != (src / "modalsim").resolve():
        print(f"perfbench: imported modalsim from {modalsim.__file__}", file=sys.stderr)
        raise SystemExit(2)
    return elapsed


def set_up(name, seed, tracer=None):
    """Build the workload and its first pass, then warm up; returns the time."""
    from workloads import WORKLOADS, Tally

    t0 = clock()
    wl = WORKLOADS[name](seed, OUT_DIR, tracer)
    wl.build()
    first = wl.make_pass(0)
    for batch in wl.make_pass(WARMUP_PASS, wl.warmup_size):
        wl.run_batch(batch, Tally())
    return wl, first, clock() - t0


def child_setup_s(name, seed) -> float:
    res = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=150,
    )
    if res.returncode != 0:
        raise RuntimeError(f"set-up child failed: {res.stderr.strip()[-400:]}")
    return json.loads(res.stdout.strip().splitlines()[-1])["setup_s"]


def host_probe() -> float:
    """Seconds one fixed loop takes: the host's speed, not the program's."""
    import numpy as np  # loaded with the program by now

    a = np.arange(4096, dtype=float)
    t0 = clock()
    x = 0.0
    for i in range(PROBE_LOOPS):
        y = a * 1.5 + i
        x += float(np.sum(y[::3]))
    return clock() - t0


def timed_loop(wl, first, seconds, tally, digest):
    """Whole first pass (digest and exact figures), then fresh passes until
    `seconds` have gone by; pass generation sits between timed windows."""
    start = clock()
    index, batches = 0, first
    while True:
        for batch in batches:
            if index > 0 and clock() - start >= seconds:
                return clock() - start
            wl.run_batch(batch, tally, digest if index == 0 else None, exact=index == 0)
            tally.probe_s.append(host_probe())
        if clock() - start >= seconds:
            return clock() - start
        index += 1
        batches = wl.make_pass(index)


def end_to_end(tally, elapsed, setup, train_s) -> Report:
    r = Report()
    rate = len(tally.window_ms) / tally.busy_s
    probe = statistics.median(tally.probe_s)
    r.add("windows_per_s", rate, "1/s", len(tally.window_ms), "windows / seconds inside the program")
    r.add("host_probe_ms", probe * 1e3, "ms", len(tally.probe_s), "median, one after every batch")
    ref = f"{PROBE_REF_S * 1e3:g}"
    r.add("windows_per_ref_s", rate * probe / PROBE_REF_S, "1/s", len(tally.window_ms),
          f"windows_per_s x host_probe_ms / {ref}")
    r.percentiles("window", tally.window_ms, "ms")
    if "window_p95_ms" in r.entries:
        r.add("window_p95_ref_ms", r.value("window_p95_ms") * PROBE_REF_S / probe, "ms",
              len(tally.window_ms), f"window_p95_ms x {ref} / host_probe_ms")
    r.percentiles("decision", tally.decision_us, "us")
    r.percentiles("oracle", tally.oracle_ms, "ms")
    r.percentiles("engine_run", tally.engine_ms, "ms")
    if train_s:
        r.add("train_s", train_s, "s", 1, "training in set-up: datasets and fits")
    if setup:
        r.add("setup_s", statistics.median(setup), "s", len(setup),
              "median of " + ", ".join(f"{s:.3f}" for s in setup))
    r.add("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1)
    first = "first pass"
    r.percentiles("sim_latency", [v / 1000 for v in tally.sim_latency_us], "ms", first, exact=True)
    if tally.scores:
        r.add("decision_acc_pct", statistics.fmean(tally.scores), "%", len(tally.scores), first,
              exact=True)
    if tally.oracle_gaps:
        r.add("oracle_gap_pct", statistics.fmean(tally.oracle_gaps), "%", len(tally.oracle_gaps),
              first, exact=True)
    r.add("error_rate", tally.failed / max(tally.attempted, 1), "ratio", tally.attempted)
    r.add("measured_s", elapsed, "s")
    return r


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_program()
    OUT_DIR.mkdir(exist_ok=True)

    if args.setup_only:
        _, _, build_s = set_up(args.workload, args.seed)
        print(json.dumps({"setup_s": import_s + build_s}))
        return 0

    import layers
    from spans import Recorder, Tracer, write_spans
    from workloads import Tally

    setup_tracer = Tracer(Recorder()) if args.trace else None
    if setup_tracer:
        setup_tracer.install()
    wl, first, build_s = set_up(args.workload, args.seed, setup_tracer)
    if setup_tracer:
        setup_tracer.uninstall()
        wl.tracer = None

    tally = Tally()
    digest = hashlib.sha256()
    elapsed = timed_loop(wl, first, args.seconds, tally, digest)

    setup = [import_s + build_s]
    if not args.trace:
        setup += [child_setup_s(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)]
    e2e = end_to_end(tally, elapsed, setup if not args.trace else None, wl.train_s)

    problems = list(tally.problems)
    digest_hex = digest.hexdigest()
    pinned = ""
    if args.seed == DEFAULT_SEED:
        pinned = " matches the pin"
        if digest_hex != PINNED_DIGESTS[args.workload]:
            pinned = " differs from the pin"
            problems.append(f"first-pass digest {digest_hex} != {PINNED_DIGESTS[args.workload]}")

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"  first-pass sha256 {digest_hex}{pinned}")
    print("  checks: " + ", ".join(f"{k}={v}" for k, v in sorted(tally.checks.items())))
    print("end-to-end (tracing off):")
    print("\n".join(e2e.lines()))

    failed, attempted = tally.failed, tally.attempted
    if args.trace:
        recorder = Recorder()
        tracer = Tracer(recorder)
        traced = Tally(keep_traces=True)
        batches = wl.make_pass(TRACED_PASS)
        wl.tracer = tracer
        tracer.install()
        for batch in batches:
            wl.run_batch(batch, traced, exact=True)
        tracer.uninstall()
        failed += traced.failed
        attempted += traced.attempted
        problems += traced.problems
        per_layer = layers.per_layer(setup_tracer.recorder, recorder, traced, e2e)
        print("per-layer (traced pass):")
        print("\n".join(per_layer.lines()))
        coverage = per_layer.entries.get(layers.COVERAGE)
        if coverage and abs(coverage["value"] - 100.0) > 10.0:
            problems.append(f"engine.run span coverage {coverage['value']:.1f}% outside 100±10%")
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.csv"
        write_spans(recorder, spans_path)
        print(f"  spans written to {spans_path.relative_to(ROOT)}")
        metrics = per_layer.json_metrics(k for k in per_layer.entries if k != layers.COVERAGE)
        everything = {**e2e.entries, **per_layer.entries}
    else:
        missing = [k for k in layers.END_TO_END if k not in e2e.entries]
        if missing:
            problems.append(f"too few windows for {missing}; run for more seconds")
        metrics = e2e.json_metrics(k for k in layers.END_TO_END if k in e2e.entries)
        everything = e2e.entries
    side = OUT_DIR / f"metrics-{args.workload}-{args.seed}-trace{args.trace}.json"
    side.write_text(json.dumps({"first_pass_sha256": digest_hex, "metrics": everything}, indent=1))

    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
