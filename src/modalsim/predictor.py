"""Modality indicators and the lightweight accuracy predictor.

Consistency is the mean pairwise cosine similarity of first-unit features
across modalities; complementarity is its complement to one.  The predictor
is a one-hidden-layer feed-forward regressor over (consistency,
complementarity, one-hot configuration code) trained offline by full-batch
gradient descent (`nn.fit_mlp`) against synthetic accuracy labels in percent.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import nn
from .core import ConfigAssignment, ModalsimError, Scenario, memoized
from .nn import EmptyDataset


class ZeroVector(ModalsimError):
    pass


class SingleModality(ModalsimError):
    pass


class UnknownConfig(ModalsimError):
    pass


@dataclass(frozen=True)
class ModalityIndicators:
    consistency: float

    @property
    def complementarity(self) -> float:
        return 1.0 - self.consistency


def _cosines(vecs: Sequence[np.ndarray]) -> list[float]:
    """Cosine similarity of every pair (a, b), a < b in order, of
    equal-length non-zero float vectors, clipped to [-1, 1]; each vector's
    norm is computed once."""
    norms = [float(np.sqrt(nn.dot(v, v))) for v in vecs]
    if 0.0 in norms:
        raise ZeroVector("cosine similarity undefined for a zero vector")
    pairs = itertools.combinations(range(len(vecs)), 2)
    return [min(max(float(nn.dot(vecs[a], vecs[b])) / (norms[a] * norms[b]), -1.0), 1.0) for a, b in pairs]


def consistency(f1: np.ndarray, f2: np.ndarray) -> float:
    """Cosine similarity of two equal-length non-zero vectors, clipped to [-1, 1]."""
    f1 = np.asarray(f1, dtype=np.float64)
    f2 = np.asarray(f2, dtype=np.float64)
    if f1.shape != f2.shape:
        raise ValueError(f"vector shapes differ: {f1.shape} vs {f2.shape}")
    return _cosines([f1, f2])[0]


def indicators(first_unit_features: Sequence[np.ndarray]) -> ModalityIndicators:
    """Mean pairwise cosine over modalities, truncating every vector to the
    minimum width first."""
    if len(first_unit_features) < 2:
        raise SingleModality("indicators need at least two modalities")
    width = min(len(np.ravel(f)) for f in first_unit_features)
    if width == 0:
        raise ZeroVector("empty feature vector")
    vecs = [np.ravel(np.asarray(f, dtype=np.float64))[:width] for f in first_unit_features]
    return ModalityIndicators(float(np.mean(_cosines(vecs))))


@dataclass(frozen=True)
class EncodingSpec:
    """Input layout: [cons, comp] then per-modality one-hot sensing and model levels."""

    sensing_counts: tuple[int, ...]
    model_counts: tuple[int, ...]

    @classmethod
    def for_scenario(cls, scenario: Scenario) -> "EncodingSpec":
        return cls(
            sensing_counts=tuple(len(s) for s in scenario.sensing_space),
            model_counts=tuple(len(m) for m in scenario.model_space),
        )

    @property
    def dim(self) -> int:
        return 2 + sum(self.sensing_counts) + sum(self.model_counts)

    @memoized
    def _layout(self) -> tuple[np.ndarray, np.ndarray]:
        """Per modality, the column of level 0 of its sensing and model one-hot
        blocks, and its sensing and model level counts; both (modalities, 2)
        and read-only, computed once per spec instance."""
        counts = np.column_stack((self.sensing_counts, self.model_counts))
        starts = 2 + np.concatenate(([0], np.cumsum(counts)[:-1]))
        return starts.reshape(counts.shape), counts

    def blocks(self) -> tuple[int, ...]:
        """Modality i's pair sets only the columns [blocks[i], blocks[i + 1]):
        its sensing one-hot block, then its model one-hot block."""
        return (*self._layout()[0][:, 0].tolist(), self.dim)

    def encode(self, ind: ModalityIndicators, assignment: ConfigAssignment) -> np.ndarray:
        return self.encode_batch(ind, [assignment.pairs])[0]

    def encode_batch(
        self, ind: ModalityIndicators | Sequence[ModalityIndicators], levels
    ) -> np.ndarray:
        """One row per assignment of an (n, modalities, 2) array of (sensing,
        model) levels; `ind` is one ModalityIndicators for every row or a
        sequence with one per row.  Raises UnknownConfig for levels outside
        the space or a modality count other than the encoding's."""
        try:
            levels = np.asarray(levels)
        except ValueError:
            raise UnknownConfig("assignments differ in shape") from None
        if levels.ndim != 3 or levels.shape[2] != 2 or levels.dtype.kind not in "iu":
            raise UnknownConfig(f"levels of shape {levels.shape} are not (sensing, model) pairs")
        starts, counts = self._layout()
        if levels.shape[1] != len(counts):
            raise UnknownConfig(
                f"assignment has {levels.shape[1]} modalities, encoding expects {len(counts)}"
            )
        outside = (levels < 0) | (levels >= counts)
        if outside.any():
            row, i, _ = np.argwhere(outside)[0]
            s, m = levels[row, i].tolist()
            raise UnknownConfig(f"levels ({s},{m}) outside modality {i}'s space")
        n = len(levels)
        x = np.zeros((n, self.dim))
        if isinstance(ind, ModalityIndicators):
            x[:, :2] = ind.consistency, ind.complementarity
        else:
            x[:, :2] = [(i.consistency, i.complementarity) for i in ind]
        x[np.arange(n)[:, None], (starts + levels.astype(np.intp, copy=False)).reshape(n, -1)] = 1.0
        return x


LEARNING_RATE = 0.05


@dataclass(frozen=True)
class TrainConfig:
    seed: int = 0
    epochs: int = 4000


@dataclass(frozen=True)
class TrainingInfo:
    seed: int
    epochs: int
    learning_rate: float
    train_mse: float
    holdout_mse: float
    holdout_r2: float


@dataclass(frozen=True)
class PredictorModel:
    encoding: EncodingSpec
    mlp: nn.MLP
    y_mean: float
    info: TrainingInfo


def train(
    dataset: Sequence[tuple[ModalityIndicators, ConfigAssignment, float]],
    encoding: EncodingSpec,
    hyper: TrainConfig = TrainConfig(),
) -> PredictorModel:
    """Fit the predictor by deterministic full-batch gradient descent."""
    if not dataset:
        raise EmptyDataset("predictor training needs a non-empty dataset")
    for _, _, acc in dataset:
        if not (0.0 <= acc <= 100.0):
            raise ValueError(f"accuracy {acc} outside [0, 100]")

    x = encoding.encode_batch([ind for ind, _, _ in dataset], [a.pairs for _, a, _ in dataset])
    y = np.array([acc for _, _, acc in dataset], dtype=np.float64)
    fit = nn.fit_mlp(
        x, y, loss="mse", tag="predictor", learning_rate=LEARNING_RATE, **dataclasses.asdict(hyper)
    )

    if fit.hold_idx:
        yh = y[fit.hold_idx]
        pred_h = fit.mlp(x[fit.hold_idx]) + fit.y_mean
        hold_mse = float(np.mean((pred_h - yh) ** 2))
        var = float(np.var(yh))
        hold_r2 = 1.0 - hold_mse / var if var > 0 else (1.0 if hold_mse == 0.0 else 0.0)
    else:
        hold_mse, hold_r2 = fit.train_loss, float("nan")

    info = TrainingInfo(hyper.seed, hyper.epochs, LEARNING_RATE, fit.train_loss, hold_mse, hold_r2)
    return PredictorModel(encoding, fit.mlp, fit.y_mean, info)


def predict(model: PredictorModel, ind: ModalityIndicators, assignment: ConfigAssignment) -> float:
    """Estimated accuracy in percent, clamped to [0, 100]."""
    return float(predict_batch(model, ind, [assignment])[0])


def predict_batch(
    model: PredictorModel,
    ind: ModalityIndicators,
    assignments: Sequence[ConfigAssignment],
) -> np.ndarray:
    """Estimated accuracies of a sequence of assignments, from one matrix
    product over all rows."""
    x = model.encoding.encode_batch(ind, [a.pairs for a in assignments])
    return score_standardized(model, model.mlp.standardize(x))


def score_standardized(model: PredictorModel, xs: np.ndarray) -> np.ndarray:
    """Estimated accuracies of encoded rows already standardized by
    `model.mlp.standardize`, clamped to [0, 100].  A row's rounding may
    depend on how many rows share its matrix product, so a caller that must
    reproduce a score bitwise scores the same rows, in the same order, in
    one product again; where the rows came from does not matter.

    The clamp has `np.clip`'s bits, NaN, -0.0 and infinities included,
    without its Python wrapper: each bound comes first, so where a score
    equals it (0.0 against -0.0) the score is kept."""
    return np.minimum(100.0, np.maximum(0.0, model.mlp.output(xs) + model.y_mean))


def save_model(model: PredictorModel, path: str | Path) -> None:
    nn.write_weight_doc(
        path,
        "accuracy_predictor",
        {
            "encoding": dataclasses.asdict(model.encoding),
            "weights": {**nn.weight_block(model.mlp), "y_mean": model.y_mean},
            "training": dataclasses.asdict(model.info),
        },
    )


def load_model(path: str | Path) -> PredictorModel:
    """Read a predictor document; nn.WeightFormatError if it is malformed."""
    doc = nn.read_weight_doc(path, "accuracy_predictor")
    enc = nn.read_field(doc, "encoding", EncodingSpec)
    counts = enc.sensing_counts + enc.model_counts
    if len(enc.sensing_counts) != len(enc.model_counts) or min(counts, default=1) < 1:
        raise nn.WeightFormatError("encoding counts should be positive, as many sensing as model counts")
    y_mean = nn.read_field(doc, "weights.y_mean", float)
    mlp = nn.read_weight_block(doc, enc.dim)
    return PredictorModel(enc, mlp, y_mean, nn.read_field(doc, "training", TrainingInfo))
