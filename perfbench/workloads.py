"""The benchmark's three workloads.

Each workload is built from the seed alone: `build` makes the scenarios and
trains the models, `make_pass(index)` generates a fresh pass of windows, and
`run_batch` processes one batch in a closed loop with one caller, timing the
program's operations and checking their outputs.  Checks run after the timed
calls and outside any span.

Inputs are fresh on every pass: a cache that outlives a pass gets no reuse
from the benchmark repeating itself, only from what real inputs share (the
online-gated scenarios, the search-wide scenarios and models).
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import time
from collections import Counter
from dataclasses import dataclass, field

from modalsim import engine, gating, latency, optimizer, predictor, report, traceio, workload
from modalsim.core import ConfigAssignment, ExecutionMode, validate_scenario
from modalsim.engine import EventKind

clock = time.perf_counter

# The online-gated and search-wide scenarios and their trained models are the
# deployment and stay fixed; the run's seed drives the windows (samples, and
# all of sim-dense's scenarios), so seeds differ in traffic, not in system.
DEPLOYMENT_SEED = 0


def sub_seed(seed: int, *parts: int) -> int:
    """Distinct, reproducible generator seeds for the pieces of one run."""
    out = seed
    for p in parts:
        out = out * 1_000_003 + p + 1
    return out & 0x7FFFFFFF


@dataclass
class Tally:
    """Measurements and check outcomes of one run."""

    window_ms: list = field(default_factory=list)
    decision_us: list = field(default_factory=list)
    oracle_ms: list = field(default_factory=list)
    engine_ms: list = field(default_factory=list)
    busy_s: float = 0.0  # time inside the program's calls, summed over windows
    probe_s: list = field(default_factory=list)  # host-speed probe, after every timed batch
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    checks: Counter = field(default_factory=Counter)  # checks made, by kind
    # exact figures, from pass 0 and the traced pass only, so they repeat
    sim_latency_us: list = field(default_factory=list)
    scores: list = field(default_factory=list)
    oracle_gaps: list = field(default_factory=list)
    trace_bytes: int = 0
    keep_traces: bool = False
    traces: list = field(default_factory=list)

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(what)

    def check(self, kind: str, ok: bool, what: str, count: int = 1) -> bool:
        self.checks[kind] += count
        if not ok:
            self.fail(what, count)
        return ok

    def add_io(self, windows: int, io_s: float, busy_s: float) -> None:
        """Spread a batch's trace I/O evenly over its windows."""
        share = io_s * 1e3 / windows
        for i in range(len(self.window_ms) - windows, len(self.window_ms)):
            self.window_ms[i] += share
        self.busy_s += busy_s + io_s


@dataclass
class Batch:
    scenario: object
    items: list  # per-window inputs
    model: object = None
    gate: object = None


def interleave(groups):
    """Batches of each scenario in turn, so no scenario runs as one block."""
    return [b for row in itertools.zip_longest(*groups) for b in row if b is not None]


def suspended(tracer):
    return tracer.suspended() if tracer is not None else contextlib.nullcontext()


def train_predictor(scenario, samples, seed, epochs):
    rows = workload.predictor_dataset(
        scenario, workload.gen_accuracy_surface(scenario), samples, seed=seed, noise_pct=1.0
    )
    return predictor.train(
        rows, predictor.EncodingSpec.for_scenario(scenario), predictor.TrainConfig(seed=seed, epochs=epochs)
    )


class Workload:
    name = ""

    def __init__(self, seed: int, out_dir, tracer=None):
        self.seed = seed
        self.tracer = tracer
        self.batch_file = out_dir / f"{self.name}-{seed}.jsonl"
        self.windows = 0
        self.batches = 0
        self.train_s = 0.0

    def build(self):
        """Set-up beyond the first pass: scenarios and trained models."""

    def _enter_window(self):
        if self.tracer is not None:
            self.tracer.recorder.window = self.windows
        self.windows += 1

    def _enter_batch_io(self):
        self.batches += 1
        if self.tracer is not None:
            self.tracer.recorder.window = -self.batches

    def _sample_batches(self, index, counts, tag):
        """A fresh corpus of counts[k] samples for deployed scenario k, in batches."""
        groups = []
        for k, ((s, *models), n) in enumerate(zip(self.cases, counts)):
            samples = workload.gen_samples(
                s, n, self.mix, seed=sub_seed(self.seed, tag, index, k), base_rates=self.base_rates
            )
            groups.append(
                [Batch(s, samples[o : o + self.batch_size], *models) for o in range(0, n, self.batch_size)]
            )
        return interleave(groups)

    def _write_and_read(self, traces):
        traceio.write_trace(traces, self.batch_file)
        return traceio.read_trace(self.batch_file)

    def _check_round_trip(self, traces, back, tally, digest, exact) -> bool:
        if not tally.check("round_trip", back == traces,
                           f"{self.name}: trace batch did not round-trip", len(traces)):
            return False
        data = self.batch_file.read_bytes()
        if digest is not None:
            digest.update(data)
        if exact:
            tally.trace_bytes += len(data)
        if tally.keep_traces:
            tally.traces.extend(traces)
        return True


def check_window(tally, trace, scenario, e2e=None) -> None:
    """The summary latency agrees with the events; a pipelined,
    constant-resource window with no skip commit matches the closed form."""
    reported = trace.summary.reported_latency_us
    where = f"{scenario.name} sample {trace.sample_id}"
    if not tally.check("summary_latency", latency.reported_latency(trace, scenario) == reported,
                       f"{where}: summary latency disagrees with the events"):
        return
    if (
        e2e is not None
        and scenario.execution_mode is ExecutionMode.PIPELINED
        and len({level for _, level in scenario.resource_schedule}) == 1
        and not any(ev.kind is EventKind.SKIP_COMMITTED for ev in trace.events)
    ):
        tally.check("closed_form", reported == e2e.total_us - scenario.window_us,
                    f"{where}: {reported}us off the closed form")


# ---------------------------------------------------------------------------


class OnlineGated(Workload):
    """The paper's loop: optimizer_step -> engine.run(gate, decision), then the
    batch is written, read back and summarized as `run` + `report` would."""

    name = "online-gated"
    presets = ("lrw-like", "uav-like")
    # windows per pass from each preset: unequal, so the window-time median
    # falls inside one preset's cluster rather than in the gap between them
    windows_per_preset = (60, 20)
    # half the hard samples are unstable, so the gate both commits and declines
    mix = {"easy": 1.0, "hard": 1.0}
    base_rates = {"hard": 0.5}
    warmup_size = (5, 5)
    batch_size = 20
    train_samples = 40
    predictor_epochs = 800
    gate_epochs = 1500

    def build(self):
        self.cases = []
        for k, preset in enumerate(self.presets):
            s = workload.gen_scenario(preset, seed=sub_seed(DEPLOYMENT_SEED, 1, k))
            pick = sub_seed(DEPLOYMENT_SEED, 2, k)
            samples = workload.gen_samples(
                s, self.train_samples, self.mix, seed=pick, base_rates=self.base_rates
            )
            t0 = clock()
            model = train_predictor(s, samples, pick, self.predictor_epochs)
            mid = tuple((len(x) // 2, len(y) // 2) for x, y in zip(s.sensing_space, s.model_space))
            assignments = [s.min_assignment(), ConfigAssignment(mid), s.max_assignment()]
            gate_rows = workload.gate_dataset(s, samples, assignments)
            gate = gating.gate_train(gate_rows, gating.GateTrainConfig(seed=pick, epochs=self.gate_epochs))
            self.train_s += clock() - t0
            self.cases.append((s, model, gate))

    def make_pass(self, index, size=None):
        return self._sample_batches(index, size or self.windows_per_preset, 3)

    def run_batch(self, batch, tally, digest=None, exact=False):
        s, model, gate = batch.scenario, batch.model, batch.gate
        traces, decisions, busy = [], [], 0.0
        for sample in batch.items:
            tally.attempted += 2  # one decision, one window
            self._enter_window()
            t0 = clock()
            try:
                resource = engine.apply_resource_schedule(s, 0)
                d = optimizer.optimizer_step(sample, s, model, resource)
                t1 = clock()
                trace = engine.run(s, d.assignment, sample, gate=gate, config_decision=d)
            except Exception as exc:  # keep measuring; the failure is counted
                tally.fail(f"{self.name}: {type(exc).__name__}: {exc}", 2)
                continue
            t2 = clock()
            busy += t2 - t0
            tally.decision_us.append((t1 - t0) * 1e6)
            tally.engine_ms.append((t2 - t1) * 1e3)
            tally.window_ms.append((t2 - t0) * 1e3)
            traces.append(trace)
            decisions.append((d, resource))
        if not traces:
            return
        self._enter_batch_io()
        t3 = clock()
        try:
            back = self._write_and_read(traces)
            report.to_csv(report.breakdown(back))
        except Exception as exc:
            tally.fail(f"{self.name}: batch I/O {type(exc).__name__}: {exc}", 2 * len(traces))
            return
        tally.add_io(len(traces), clock() - t3, busy)

        with suspended(self.tracer):
            if not self._check_round_trip(traces, back, tally, digest, exact):
                return
            for trace, (d, resource) in zip(traces, decisions):
                e2e = latency.end_to_end_latency(s, d.assignment, resource)
                tally.check("t_max", e2e.total_us <= s.t_max_us,
                            f"{s.name}: assignment {d.assignment.pairs} over t_max")
                check_window(tally, trace, s, e2e)
                if exact:
                    tally.sim_latency_us.append(trace.summary.reported_latency_us)
                    tally.scores.append(d.score)


class SimDense(Workload):
    """Engine only: 3-modality random presets at the max assignment, a
    mid-window resource change, a hard corpus, modes cycled per window."""

    name = "sim-dense"
    scenarios_per_pass = 8
    warmup_size = 1
    windows_per_scenario = 3
    batch_size = 12
    modes = (ExecutionMode.BLOCKING, ExecutionMode.PIPELINED, ExecutionMode.NON_BLOCKING)

    def make_pass(self, index, size=None):
        windows = []
        for k in range(size or self.scenarios_per_pass):
            seed = sub_seed(self.seed, 4, index, k)
            base = workload.gen_scenario("random", seed=seed, modalities=3)
            switch = base.window_us // 4 + seed % (base.window_us // 2)
            base = validate_scenario(
                dataclasses.replace(base, resource_schedule=((0, "high"), (switch, "low")))
            )
            samples = workload.gen_samples(base, self.windows_per_scenario, "hard", seed=seed)
            assignment = base.max_assignment()
            for j, sample in enumerate(samples):
                mode = self.modes[j % len(self.modes)]
                windows.append((dataclasses.replace(base, execution_mode=mode), assignment, sample))
        return [Batch(None, windows[o : o + self.batch_size]) for o in range(0, len(windows), self.batch_size)]

    def run_batch(self, batch, tally, digest=None, exact=False):
        traces, busy, done = [], 0.0, []
        for s, assignment, sample in batch.items:
            tally.attempted += 1
            self._enter_window()
            t0 = clock()
            try:
                trace = engine.run(s, assignment, sample)
            except Exception as exc:
                tally.fail(f"{self.name}: {type(exc).__name__}: {exc}")
                continue
            t1 = clock()
            busy += t1 - t0
            tally.engine_ms.append((t1 - t0) * 1e3)
            tally.window_ms.append((t1 - t0) * 1e3)
            traces.append(trace)
            done.append(s)
        if not traces:
            return
        self._enter_batch_io()
        t2 = clock()
        try:
            back = self._write_and_read(traces)
        except Exception as exc:
            tally.fail(f"{self.name}: batch I/O {type(exc).__name__}: {exc}", len(traces))
            return
        tally.add_io(len(traces), clock() - t2, busy)

        with suspended(self.tracer):
            if not self._check_round_trip(traces, back, tally, digest, exact):
                return
            for trace, s in zip(traces, done):
                check_window(tally, trace, s)
                if exact:
                    tally.sim_latency_us.append(trace.summary.reported_latency_us)


class SearchWide(Workload):
    """Optimizer only: one optimizer_step per sample on wide search spaces,
    with the brute-force oracle (`optimize --oracle`) on a fixed subset."""

    name = "search-wide"
    samples_per_space = (60, 60)
    warmup_size = (5, 5)
    batch_size = 20
    oracle_every = 20
    predictor_epochs = 800
    train_samples = 20
    mix = {"easy": 1.0, "medium": 1.0, "hard": 1.0}
    # the probe reads unit 0 only, where no sample jumps; all-stable corpora
    # skip the jump calibration and keep generation cheap
    base_rates = {"easy": 1.0, "medium": 1.0, "hard": 1.0}

    def build(self):
        self.cases = []
        shapes = (dict(sensing_levels=7, model_levels=7), dict(modalities=4))
        for k, shape in enumerate(shapes):
            s = workload.gen_scenario("random", seed=sub_seed(DEPLOYMENT_SEED, 5, k), **shape)
            pick = sub_seed(DEPLOYMENT_SEED, 6, k)
            samples = workload.gen_samples(
                s, self.train_samples, self.mix, seed=pick, base_rates=self.base_rates
            )
            t0 = clock()
            model = train_predictor(s, samples, pick, self.predictor_epochs)
            self.train_s += clock() - t0
            self.cases.append((s, model))

    def make_pass(self, index, size=None):
        return self._sample_batches(index, size or self.samples_per_space, 7)

    def run_batch(self, batch, tally, digest=None, exact=False):
        s, model = batch.scenario, batch.model
        busy, records = 0.0, []
        for sample in batch.items:
            tally.attempted += 1
            self._enter_window()
            t0 = clock()
            try:
                resource = engine.apply_resource_schedule(s, 0)
                d = optimizer.optimizer_step(sample, s, model, resource)
            except Exception as exc:
                tally.fail(f"{self.name}: {type(exc).__name__}: {exc}")
                continue
            t1 = clock()
            busy += t1 - t0
            tally.decision_us.append((t1 - t0) * 1e6)
            tally.window_ms.append((t1 - t0) * 1e3)
            oracle = None
            if sample.id % self.oracle_every == 0:
                tally.attempted += 1
                t2 = clock()
                try:
                    ind = optimizer.probe_indicators(s, sample)
                    oracle = optimizer.brute_force(s, ind, model, resource)
                except Exception as exc:
                    tally.fail(f"{self.name}: oracle {type(exc).__name__}: {exc}")
                else:
                    tally.oracle_ms.append((clock() - t2) * 1e3)
            records.append((sample, d, resource, oracle))
        tally.busy_s += busy

        with suspended(self.tracer):
            for sample, d, resource, oracle in records:
                tally.check("t_max",
                            latency.end_to_end_latency(s, d.assignment, resource).total_us <= s.t_max_us,
                            f"{s.name}: assignment {d.assignment.pairs} over t_max")
                record = {"scenario": s.name, "sample": sample.id,
                          "assignment": [list(p) for p in d.assignment.pairs], "score": d.score}
                if oracle is not None:
                    feasible = (
                        latency.end_to_end_latency(s, oracle.best, resource).total_us <= s.t_max_us
                    )
                    tally.check("oracle", oracle.best_score >= d.score and feasible,
                                f"{s.name}: oracle below greedy or infeasible")
                    record.update(oracle_score=oracle.best_score,
                                  oracle_assignment=[list(p) for p in oracle.best.pairs],
                                  feasible_count=oracle.feasible_count)
                    if exact:
                        tally.oracle_gaps.append(oracle.best_score - d.score)
                if exact:
                    tally.scores.append(d.score)
                if digest is not None:
                    digest.update((json.dumps(record, sort_keys=True) + "\n").encode())


WORKLOADS = {w.name: w for w in (OnlineGated, SimDense, SearchWide)}
