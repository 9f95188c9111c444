"""Speculative-skip gate: a small logistic classifier over the fast
modalities' complete features, the slow modality's prefix features, and the
checkpoint fraction, plus the checkpoint schedule arithmetic.

Training minimizes binary cross-entropy by seeded full-batch gradient
descent (`nn.fit_mlp`); dropout is applied only during training so evaluation
stays deterministic.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import nn
from .core import ModalsimError
from .nn import EmptyDataset


class DimensionMismatch(ModalsimError):
    pass


class NonFiniteProbability(ModalsimError):
    """A gate whose probability at a checkpoint is not a finite number, as a
    gate document with extreme weights can give."""


@dataclass(frozen=True)
class SkipDecision:
    probability: float
    committed: bool

    def __post_init__(self):
        if not (0.0 <= self.probability <= 1.0):
            raise ValueError("probability outside [0, 1]")


LEARNING_RATE = 0.3


@dataclass(frozen=True)
class GateTrainConfig:
    seed: int = 0
    epochs: int = 3000
    dropout: float = 0.1


@dataclass(frozen=True)
class GateTrainingInfo:
    seed: int
    epochs: int
    learning_rate: float
    dropout: float
    train_accuracy: float
    holdout_accuracy: float
    loss_tail: tuple[float, ...]


@dataclass(frozen=True)
class GateModel:
    fast_dim: int
    slow_dim: int
    mlp: nn.MLP
    dropout: float
    info: GateTrainingInfo | None = None

    def probability(self, f_fast: np.ndarray, f_slow_prefix: np.ndarray, fraction: float) -> float:
        z = self.mlp(_gate_input(self.fast_dim, self.slow_dim, f_fast, f_slow_prefix, fraction))
        return float(nn.sigmoid(np.array([z]))[0])


def _gate_input(fast_dim: int, slow_dim: int, f_fast, f_slow, fraction: float) -> np.ndarray:
    f_fast = np.ravel(np.asarray(f_fast, dtype=np.float64))
    f_slow = np.ravel(np.asarray(f_slow, dtype=np.float64))
    if len(f_fast) != fast_dim or len(f_slow) != slow_dim:
        raise DimensionMismatch(
            f"gate expects dims ({fast_dim}, {slow_dim}), "
            f"got ({len(f_fast)}, {len(f_slow)})"
        )
    return np.concatenate([f_fast, f_slow, [fraction]])


def gate_train(
    dataset: Sequence[tuple[np.ndarray, np.ndarray, float, int]],
    hyper: GateTrainConfig = GateTrainConfig(),
) -> GateModel:
    """Train on rows (f_fast, f_slow_prefix, fraction, label in {0,1})."""
    if not dataset:
        raise EmptyDataset("gate training needs a non-empty dataset")
    fast_dim = len(np.ravel(dataset[0][0]))
    slow_dim = len(np.ravel(dataset[0][1]))
    x_rows, y_rows = [], []
    for f_fast, f_slow, fraction, label in dataset:
        if label not in (0, 1):
            raise ValueError(f"gate labels must be 0 or 1, got {label!r}")
        x_rows.append(_gate_input(fast_dim, slow_dim, f_fast, f_slow, fraction))
        y_rows.append(float(label))
    x = np.vstack(x_rows)
    y = np.array(y_rows)
    fit = nn.fit_mlp(x, y, loss="bce", tag="gate", learning_rate=LEARNING_RATE, **dataclasses.asdict(hyper))

    def accuracy(idx) -> float:
        p = nn.sigmoid(fit.mlp(x[idx]))
        return float(np.mean((p > 0.5).astype(np.float64) == y[idx]))

    info = GateTrainingInfo(
        **dataclasses.asdict(hyper),
        learning_rate=LEARNING_RATE,
        train_accuracy=accuracy(fit.train_idx),
        holdout_accuracy=accuracy(fit.hold_idx or fit.train_idx),
        loss_tail=tuple(fit.loss_tail),
    )
    return GateModel(fast_dim, slow_dim, fit.mlp, dropout=hyper.dropout, info=info)


def gate_eval(
    model,
    f_fast: np.ndarray,
    f_slow_prefix: np.ndarray,
    fraction: float,
    tau: float,
) -> SkipDecision:
    """Forward pass plus the strict threshold rule: commit iff p > tau.

    `model` is any object with probability(f_fast, f_slow_prefix, fraction),
    such as a GateModel; the decision record checks that p lies in [0, 1].
    Raises NonFiniteProbability when p is not a finite number.
    """
    with np.errstate(all="ignore"):  # a probability that is not finite raises below
        p = float(model.probability(f_fast, f_slow_prefix, fraction))
    if not math.isfinite(p):
        raise NonFiniteProbability(f"the gate's probability at fraction {fraction} is {p}")
    return SkipDecision(probability=p, committed=p > tau)


def checkpoints(fractions: Sequence[float], units_per_window: int) -> list[tuple[int, float]]:
    """The (prefix, fraction) checkpoints a window evaluates, by increasing
    prefix: each prefix ceil(f * N) in [1, N] once, with the first fraction
    naming it."""
    first: dict[int, float] = {}
    for f in fractions:
        prefix = math.ceil(f * units_per_window)
        if 1 <= prefix <= units_per_window:
            first.setdefault(prefix, f)
    return sorted(first.items())


def save_gate(model: GateModel, path: str | Path) -> None:
    nn.write_weight_doc(
        path,
        "skip_gate",
        {
            "layout": {"fast_dim": model.fast_dim, "slow_dim": model.slow_dim},
            "dropout": model.dropout,
            "weights": nn.weight_block(model.mlp),
            "training": None if model.info is None else dataclasses.asdict(model.info),
        },
    )


def load_gate(path: str | Path) -> GateModel:
    """Read a gate document; nn.WeightFormatError if it is malformed."""
    doc = nn.read_weight_doc(path, "skip_gate")
    fast_dim, slow_dim = (nn.read_field(doc, f"layout.{key}", int) for key in ("fast_dim", "slow_dim"))
    if min(fast_dim, slow_dim) < 0:
        raise nn.WeightFormatError(f"layout dims ({fast_dim}, {slow_dim}) should not be negative")
    dropout = nn.read_field(doc, "dropout", float)
    info = None if doc.get("training") is None else nn.read_field(doc, "training", GateTrainingInfo)
    mlp = nn.read_weight_block(doc, fast_dim + slow_dim + 1)
    return GateModel(fast_dim, slow_dim, mlp, dropout=dropout, info=info)
