"""Byte pins over the engine's schedule, skip and emit paths and the
workload corpora built on them.

Each digest is the SHA-256 of a deterministic text over many windows:
every execution mode, constant and mid-window resource schedules, no gate,
an oracle gate and a gate that declines the 50% checkpoint, with and without
an optimizer decision.  A change to unit timing, skip commits, event
emission, sample calibration or gate training rows changes a digest.
"""

import dataclasses
import hashlib

import pytest

from modalsim import engine, traceio, workload
from modalsim.core import ExecutionMode
from modalsim.optimizer import OptimizerDecision
from modalsim.workload import OracleGate


class LateGate:
    """Declines every checkpoint before 70% and commits from 70% on."""

    def probability(self, f_fast, f_slow, fraction):
        return 0.9 if fraction >= 0.7 else 0.1


def _scenarios():
    return {
        "lrw-like": workload.gen_scenario("lrw-like", seed=0),
        "random-3": workload.gen_scenario(
            "random", seed=5, modalities=3, checkpoints=(0.5, 0.7)
        ),
    }


def _schedules(s):
    return {
        "constant": s.resource_schedule,
        "switch": ((0, "high"), (s.window_us // 2, "low")),
    }


def _gates(s, sample, assignment):
    return {
        "none": None,
        "oracle": OracleGate(s, sample, assignment),
        "late": LateGate(),
    }


def _trace_digest(name):
    base = _scenarios()[name]
    samples = workload.gen_samples(base, 3, {"easy": 1.0, "hard": 1.0}, seed=7)
    h = hashlib.sha256()
    commits = {"oracle": 0, "late": 0}
    for mode in ExecutionMode:
        for schedule in _schedules(base).values():
            s = dataclasses.replace(base, execution_mode=mode, resource_schedule=schedule)
            for assignment in (s.min_assignment(), s.max_assignment()):
                decision = OptimizerDecision(assignment, score=0.0, decision_latency_us=0)
                for sample in samples:
                    for gate_name, gate in _gates(s, sample, assignment).items():
                        scenario = s.without_skipping() if gate is None else s
                        for d in (None, decision):
                            trace = engine.run(
                                scenario, assignment, sample, gate=gate, config_decision=d
                            )
                            h.update(traceio.trace_text(trace).encode())
                            if gate is not None and trace.summary.skipped_unit_count:
                                commits[gate_name] += 1
    return h.hexdigest(), commits


@pytest.mark.parametrize(
    "name, digest",
    [
        ("lrw-like", "1a814463be4239210b6bb788e6c052c084fe1ec83e4b5276b130e4943bd8c3f5"),
        ("random-3", "3fe6022fce0f10986483b0a3b842b7dab1dc8b5e64ef7bf16ac02d2e4d88d7ce"),
    ],
)
def test_window_traces_pinned(name, digest):
    got, commits = _trace_digest(name)
    # the pin covers committed skips from both gates, not only plain windows
    assert commits["oracle"] > 0 and commits["late"] > 0
    assert got == digest


def _hard_corpus():
    s = workload.gen_scenario("lrw-like", seed=0)
    return s, workload.gen_samples(s, 12, "hard", seed=3, base_rates={"hard": 0.3})


def test_hard_corpus_pinned():
    _, samples = _hard_corpus()
    assert sum(not x.stable for x in samples) > 0  # jumps were calibrated
    text = "".join(
        f"{x.id},{x.seed},{x.difficulty.value},{x.ground_truth_label},{x.stable},"
        f"{x.consistency_weight!r},{x.jump_fraction!r},{x.jump_scale!r},{x.jump_nonce}\n"
        for x in samples
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "39eb7932d298a4129e5938b9a9cc63dd050c82b3de598d6ebb5ee0da06217c7c"
    )


def test_gate_dataset_rows_pinned():
    s, samples = _hard_corpus()
    h = hashlib.sha256()
    for f_fast, f_slow, fraction, label in workload.gate_dataset(s, samples):
        h.update(f_fast.tobytes())
        h.update(f_slow.tobytes())
        h.update(f"{fraction!r},{label}\n".encode())
    assert h.hexdigest() == (
        "5cc4b501939a89f0ea82b94d63429597ea69d58b809047e1f776d52e4b3639e8"
    )
