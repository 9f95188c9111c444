"""The one small feed-forward model behind both the accuracy predictor and the
skip gate: `MLP`, a one-hidden-layer softplus MLP over standardized inputs,
its forward pass, its seeded full-batch gradient-descent trainer
(mean-squared error or binary cross-entropy) with the holdout split, and the
versioned structured-text weight document both models serialize to, with its
shared weight block, written whole or not at all (`core.write_whole`).

It is also the one home of the float kernels whose bits depend on the host:
`dot`, every matrix and vector product of the package, and the exp and log
of `softplus`, `sigmoid` and the cross-entropy.  A BLAS product sums in the
order its kernel picks, and numpy runs other SIMD code for exp and log on
other CPUs, so a fixed order for either is decided here alone.

Weights are written as JSON number literals produced by Python's float repr,
which round-trips every float64 exactly.  A document's fields, and each
number of its weight arrays, are read by `core`'s one JSON type rule
(`read_field`, `read_weight_block`).
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import rng
from .core import MISSING, JSONTypeError, ModalsimError, json_value, read_record, write_whole

WEIGHT_DOC_VERSION = 1
WEIGHT_KEYS = ("w1", "b1", "w2", "b2", "x_mean", "x_scale")
BCE_EPS = 1e-12
HIDDEN = 16  # hidden units of every trained MLP
HOLDOUT_FRACTION = 0.2  # of the rows of a dataset of more than four


class NonFiniteLoss(Exception):
    pass


class EmptyDataset(Exception):
    pass


class WeightFormatError(ModalsimError):
    """A weight document that is not valid JSON, lacks a key, holds a value of
    the wrong type, or has weights whose shapes disagree."""


def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The product of matrices or vectors, `a @ b`: every product of the
    package runs here, so its summation order is decided in one place."""
    return a @ b


def softplus(x: np.ndarray, e: np.ndarray | None = None) -> np.ndarray:
    # log(1 + e^x) computed stably for large |x|; `e` is exp(-|x|) if the caller has it
    e = np.exp(-np.abs(x)) if e is None else e
    return np.maximum(x, 0.0) + np.log1p(e)


def sigmoid(x: np.ndarray, e: np.ndarray | None = None) -> np.ndarray:
    # `e` is exp(-|x|), which never overflows: exp of -x for x >= 0, of x below
    e = np.exp(-np.abs(x)) if e is None else e
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def init_matrix(stream: rng.Stream, rows: int, cols: int) -> np.ndarray:
    """Uniform init scaled by fan-in; built from counter-stream uniforms only."""
    flat = stream.symmetric(rows * cols)
    return flat.reshape(rows, cols) * np.sqrt(3.0 / max(rows, 1))


def shuffled(n: int, stream: rng.Stream) -> list[int]:
    """Fisher-Yates permutation of range(n) driven by the counter stream."""
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        j = stream.u64(i) % (i + 1)
        order[i], order[j] = order[j], order[i]
    return order


def loss_and_grads(params, x: np.ndarray, y: np.ndarray, loss: str = "mse", mask=None):
    """Loss and analytic gradients of (w1, b1, w2, b2).

    `loss` is "mse" (mean squared error of the raw output) or "bce" (binary
    cross-entropy of its sigmoid); `mask` multiplies the hidden units (the
    dropout mask).  Checked against finite differences in the tests.
    """
    w1, b1, w2, b2 = params
    z = dot(x, w1) + b1
    e = np.exp(-np.abs(z))  # shared by softplus(z) and its derivative sigmoid(z)
    h = softplus(z, e)
    if mask is not None:
        h = h * mask
    out = dot(h, w2) + b2
    n = x.shape[0]
    if loss == "mse":
        err = out - y
        value = float(np.mean(err**2))
        d_out = 2.0 * err / n
    elif loss == "bce":
        p = sigmoid(out)
        value = float(-np.mean(y * np.log(p + BCE_EPS) + (1.0 - y) * np.log(1.0 - p + BCE_EPS)))
        d_out = (p - y) / n
    else:
        raise ValueError(f"unknown loss {loss!r}")
    g_w2 = dot(h.T, d_out)
    g_b2 = float(np.sum(d_out))
    d_h = np.outer(d_out, w2)
    if mask is not None:
        d_h = d_h * mask
    d_z = d_h * sigmoid(z, e)  # the derivative of softplus
    g_w1 = dot(x.T, d_z)
    g_b1 = d_z.sum(axis=0)
    return value, (g_w1, g_b1, g_w2, g_b2)


@dataclass(frozen=True)
class MLP:
    """A one-hidden-layer softplus MLP over inputs standardized by `x_mean`
    and `x_scale`; its fields are the WEIGHT_KEYS.

    Calling it standardizes and then runs the forward pass, `output`.
    Standardizing is elementwise, so a caller may standardize rows once,
    ahead of time, and run `output` on any selection of them later: the
    result has the bits of calling the MLP on the selected raw rows, in that
    order, as one batch."""

    w1: np.ndarray  # inputs x hidden
    b1: np.ndarray
    w2: np.ndarray  # hidden
    b2: float
    x_mean: np.ndarray
    x_scale: np.ndarray

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Raw output (regression value or logit) for raw inputs `x`."""
        return self.output(self.standardize(x))

    def standardize(self, x: np.ndarray) -> np.ndarray:
        return (x - self.x_mean) / self.x_scale

    def output(self, xs: np.ndarray) -> np.ndarray:
        """The forward pass: raw output for standardized inputs `xs`."""
        return dot(softplus(dot(xs, self.w1) + self.b1), self.w2) + self.b2


@dataclass(frozen=True)
class MLPFit:
    mlp: MLP
    y_mean: float  # subtracted from the targets for "mse"; 0.0 for "bce"
    train_idx: list[int]
    hold_idx: list[int]
    loss_tail: list[float]  # training loss before each of the last five epochs' steps
    train_loss: float  # training loss after the last step, without dropout


def fit_mlp(
    x: np.ndarray,
    y: np.ndarray,
    *,
    loss: str,
    tag: str,
    seed: int,
    epochs: int,
    learning_rate: float,
    dropout: float = 0.0,
) -> MLPFit:
    """Fit an MLP of HIDDEN units by deterministic full-batch gradient descent.

    Every random draw (holdout split, init, dropout masks) comes from streams
    labelled (seed, tag, ...), so a fit is a pure function of its arguments.
    Datasets of at most four rows train on every row and hold none out.
    `learning_rate` is the predictor's or the gate's LEARNING_RATE, and
    `seed`, `epochs` and `dropout` are the fields of its TrainConfig or
    GateTrainConfig.
    """
    n = len(y)
    order = shuffled(n, rng.stream(seed, tag, "split"))
    n_hold = max(1, int(round(HOLDOUT_FRACTION * n))) if n > 4 else 0
    hold_idx, train_idx = order[:n_hold], order[n_hold:]
    xt, yt = x[train_idx], y[train_idx]

    x_mean, std = xt.mean(axis=0), xt.std(axis=0)
    x_scale = np.where(std < 1e-9, 1.0, std)
    xs = (xt - x_mean) / x_scale
    y_mean = float(yt.mean()) if loss == "mse" else 0.0
    ys = yt - y_mean

    init = rng.stream(seed, tag, "init")
    params = [
        init_matrix(init.sub("w1"), xs.shape[1], HIDDEN),
        np.zeros(HIDDEN),
        init_matrix(init.sub("w2"), HIDDEN, 1)[:, 0],
        0.0,
    ]
    drop_stream = rng.stream(seed, tag, "dropout")
    mask = None
    loss_tail = []
    for epoch in range(epochs):
        if dropout > 0.0:
            keep = drop_stream.sub(epoch).units(HIDDEN) >= dropout
            mask = keep.astype(np.float64) / (1.0 - dropout)
        value, grads = loss_and_grads(params, xs, ys, loss, mask)
        if not math.isfinite(value):
            raise NonFiniteLoss(f"{tag} loss became non-finite ({value})")
        loss_tail = (loss_tail + [value])[-5:]
        params = [p - learning_rate * g for p, g in zip(params, grads)]
    train_loss, _ = loss_and_grads(params, xs, ys, loss)
    return MLPFit(MLP(*params, x_mean, x_scale), y_mean, train_idx, hold_idx, loss_tail, train_loss)


def write_weight_doc(path: str | Path, kind: str, body: dict) -> None:
    doc = {"format_version": WEIGHT_DOC_VERSION, "kind": kind, **body}
    write_whole(path, [(json.dumps(doc, sort_keys=True, indent=1) + "\n").encode()])


def weight_block(mlp: MLP) -> dict:
    """The weight block of an MLP, as `read_weight_block` reads it back."""
    return {k: np.asarray(getattr(mlp, k), dtype=np.float64).tolist() for k in WEIGHT_KEYS}


def read_field(doc: dict, path: str, kind):
    """The value at `path` of a weight document, a key or `section.key`,
    read as `kind`: a JSON type by `core.json_value`, a dataclass by
    `core.read_record`.  Raises WeightFormatError naming each missing or
    wrongly typed field."""
    section, _, key = path.rpartition(".")
    try:
        where = json_value(doc.get(section, MISSING), dict, section) if section else doc
        read = read_record if dataclasses.is_dataclass(kind) else json_value
        return read(where.get(key, MISSING), kind, path)
    except JSONTypeError as exc:
        raise WeightFormatError(str(exc)) from None


def read_weight_doc(path: str | Path, kind: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nesting too deep
        raise WeightFormatError(f"not a JSON weight document: {exc}") from None
    if type(doc) is not dict:
        raise WeightFormatError("a weight document must be a JSON object")
    if doc.get("format_version") != WEIGHT_DOC_VERSION:
        raise WeightFormatError(f"unsupported weight document version (expected {WEIGHT_DOC_VERSION})")
    if doc.get("kind") != kind:
        raise WeightFormatError(f"expected a {kind!r} document")
    return doc


def _floats(value, name: str, depth: int = 2):
    # a weight array's lists, at most a matrix deep, each number in them read
    # as a float and named `name item`
    if depth and type(value) is list:
        return [_floats(v, name, depth - 1) for v in value]
    return json_value(value, float, name if depth == 2 else f"{name} item")


def read_weight_block(doc: dict, input_dim: int) -> MLP:
    """The MLP of `doc["weights"]`: float64 arrays (b2 a float) whose every
    number is read by `core.json_value`, checked to be rectangular and
    finite, with no zero in `x_scale`, and to form an MLP over `input_dim`
    inputs."""
    weights = read_field(doc, "weights", dict)
    block = {}
    for key in WEIGHT_KEYS:
        try:
            block[key] = np.asarray_chkfinite(_floats(weights.get(key, MISSING), f"weights.{key}"), np.float64)
        except JSONTypeError as exc:  # missing, or not a number
            raise WeightFormatError(str(exc)) from None
        except ValueError:  # rows of unequal length, or a number that is not finite
            raise WeightFormatError(f"weights.{key} is not a rectangular array of finite numbers") from None
    hidden = block["b1"].size
    shapes = {"w1": (input_dim, hidden), "b1": (hidden,), "w2": (hidden,), "b2": ()}
    shapes.update(x_mean=(input_dim,), x_scale=(input_dim,))
    if any(block[key].shape != shape for key, shape in shapes.items()):
        raise WeightFormatError(f"weight shapes disagree; expected {shapes}")
    if not np.all(block["x_scale"]):
        raise WeightFormatError("weights.x_scale holds a zero")
    block["b2"] = float(block["b2"])
    return MLP(**block)
