"""modalsim: deterministic virtual-time simulation and control plane for
pipelined multimodal sensing and inference.

The package is organized around a closed-form latency model (`latency`), a
discrete-event engine that matches it exactly (`engine`), temporal feature
operators (`aggregation`), an accuracy predictor and latency-budgeted
configuration optimizer (`predictor`, `optimizer`), confidence-gated
speculative skipping (`gating`), and seeded synthetic workloads calibrated
to reported operating points (`workload`).
"""

from .core import (
    ConfigAssignment,
    Difficulty,
    ExecutionMode,
    FeatureMatrix,
    InvalidScenario,
    LatencyProfile,
    Modality,
    ModelConfig,
    ProfileEntry,
    Sample,
    Scenario,
    SensingConfig,
    validate_scenario,
)
from .aggregation import DiffSpec, ShiftSpec, aggregate, alternating_shift, temporal_differences
from .engine import Event, EventKind, SimTrace, apply_resource_schedule, run
from .gating import GateModel, SkipDecision, gate_eval, gate_train
from .latency import end_to_end_latency, reported_latency, unimodal_latency
from .optimizer import brute_force, greedy_search, optimizer_step
from .predictor import ModalityIndicators, PredictorModel, consistency, indicators, predict, train
from .workload import gen_accuracy_surface, gen_samples, gen_scenario

__version__ = "0.1.0"

__all__ = [
    "ConfigAssignment",
    "DiffSpec",
    "Difficulty",
    "Event",
    "EventKind",
    "ExecutionMode",
    "FeatureMatrix",
    "GateModel",
    "InvalidScenario",
    "LatencyProfile",
    "Modality",
    "ModalityIndicators",
    "ModelConfig",
    "PredictorModel",
    "ProfileEntry",
    "Sample",
    "Scenario",
    "SensingConfig",
    "ShiftSpec",
    "SimTrace",
    "SkipDecision",
    "aggregate",
    "alternating_shift",
    "apply_resource_schedule",
    "brute_force",
    "consistency",
    "end_to_end_latency",
    "gate_eval",
    "gate_train",
    "gen_accuracy_surface",
    "gen_samples",
    "gen_scenario",
    "greedy_search",
    "indicators",
    "optimizer_step",
    "predict",
    "reported_latency",
    "run",
    "temporal_differences",
    "train",
    "unimodal_latency",
    "validate_scenario",
]
