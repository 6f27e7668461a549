"""Feed-forward softmax classifier over register states, written on numpy.

Two rectified hidden layers feed a softmax over all 2**N register states;
training minimises cross-entropy with the adaptive per-parameter step rule
of ADADELTA, so there is no learning-rate schedule to tune.  Gradients are
plain hand-derived backpropagation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .evaluate import confusion, fidelity, labels_to_states, split, state_labels

PROBABILITY_FLOOR = 1e-12
HIDDEN_WIDTH_RANGE = (8, 40)
# ADADELTA's decay rate and conditioning constant, Zeiler's values
# (arXiv:1212.5701), and the stratified share of rows held out for validation
ADADELTA_RHO = 0.95
ADADELTA_EPSILON = 1e-6
VALIDATION_FRACTION = 0.1


class NetworkError(ValueError):
    pass


class TrainingError(RuntimeError):
    pass


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilised by subtracting the row maximum."""
    logits = np.asarray(logits, dtype=float)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


@dataclass
class TrainConfig:
    batch_size: int = 128
    epochs: int = 50
    patience: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.batch_size < 1 or self.epochs < 1 or self.patience < 1:
            raise NetworkError("batch_size, epochs and patience must be >= 1")


class MlpModel:
    """Input -> hidden -> hidden -> softmax classifier.

    Weights start uniform in +-sqrt(6 / (fan_in + fan_out)), biases at zero.
    """

    FORMAT = "ionread.mlp"

    def __init__(self, layer_sizes: Sequence[int], seed: int = 0):
        layer_sizes = [checked_size(s, "layer_sizes") for s in layer_sizes]
        if len(layer_sizes) != 4:
            raise NetworkError(
                f"layer_sizes must be [input, hidden, hidden, output], got {layer_sizes}"
            )
        lo, hi = HIDDEN_WIDTH_RANGE
        for width in layer_sizes[1:3]:
            if not lo <= width <= hi:
                raise NetworkError(f"hidden width {width} outside [{lo}, {hi}]")
        out = layer_sizes[3]
        if out & (out - 1) or out < 2:
            raise NetworkError(f"output width must be a power of two >= 2, got {out}")
        self.layer_sizes = layer_sizes
        self.num_ions = out.bit_length() - 1
        fans = list(zip(layer_sizes[:-1], layer_sizes[1:]))
        self.flat, self.parameters = parameter_slab(fans + [(n,) for _, n in fans])
        self.weights, self.biases = self.parameters[:3], self.parameters[3:]
        rng = np.random.default_rng(seed)
        for w, (fan_in, fan_out) in zip(self.weights, fans):
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            w[...] = rng.uniform(-bound, bound, size=w.shape)

    def to_dict(self) -> dict:
        return {
            "format": self.FORMAT,
            "version": 1,
            "layer_sizes": self.layer_sizes,
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }

    def __reduce__(self):
        # pickle and deepcopy rebuild the record, so the copy's views share
        # the copy's own ``flat``
        return type(self).from_dict, (self.to_dict(),)

    @classmethod
    def from_dict(cls, data: dict) -> "MlpModel":
        if data.get("format") != cls.FORMAT:
            raise NetworkError("not a feed-forward model record")
        model = cls(data["layer_sizes"])
        for name, views in (("weights", model.weights), ("biases", model.biases)):
            values = data[name]
            if not isinstance(values, list) or len(values) != len(views):
                raise NetworkError(f"{name} must be a list of {len(views)} arrays")
            for i, (v, p) in enumerate(zip(values, views)):
                p[...] = checked_array(v, p.shape, f"{name}[{i}]")
        return model


def parameter_slab(shapes) -> tuple[np.ndarray, list[np.ndarray]]:
    """One zeroed float64 vector and, in order, a view of it per shape.

    Every network's parameters, and ``backward``'s gradients, are laid out
    this way, so one vector operation steps, snapshots or checks them all.
    """
    sizes = [math.prod(shape) for shape in shapes]
    flat = np.zeros(sum(sizes))
    views, start = [], 0
    for shape, size in zip(shapes, sizes):
        views.append(flat[start : start + size].reshape(shape))
        start += size
    return flat, views


def checked_size(value, name: str) -> int:
    """A model's size field as a Python int >= 1; a float or a bool is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise NetworkError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def checked_array(values, shape: tuple[int, ...], name: str) -> np.ndarray:
    """``values`` from a model record as a finite float array of ``shape``."""
    try:
        array = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise NetworkError(f"{name} is not a numeric array") from None
    if array.shape != shape:
        raise NetworkError(f"{name} has shape {array.shape}, expected {shape}")
    if not np.all(np.isfinite(array)):
        raise NetworkError(f"{name} holds non-finite values")
    return array


def _validate_input(model: MlpModel, x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != model.layer_sizes[0]:
        raise NetworkError(
            f"expected {model.layer_sizes[0]} features, got {x.shape[1]}"
        )
    if not np.all(np.isfinite(x)):
        raise NetworkError("non-finite feature values")
    return x


def _forward_cached(model: MlpModel, x: np.ndarray):
    a1 = relu(x @ model.weights[0] + model.biases[0])
    a2 = relu(a1 @ model.weights[1] + model.biases[1])
    logits = a2 @ model.weights[2] + model.biases[2]
    return a1, a2, softmax(logits)


def forward(model: MlpModel, x) -> np.ndarray:
    """Class probabilities, shape (batch, 2**N).  Rows sum to one."""
    x = _validate_input(model, x)
    return _forward_cached(model, x)[2]


def cross_entropy(probs: np.ndarray, class_indices) -> float:
    """Mean cross-entropy, with predicted probabilities floored at 1e-12."""
    y = np.asarray(class_indices, dtype=np.int64)
    picked = probs[np.arange(y.size), y]
    return float(-np.log(np.maximum(picked, PROBABILITY_FLOOR)).mean())


def probabilities_to_labels(probs: np.ndarray, num_ions: int) -> list[str]:
    """Most probable register label per row; ties go to the lowest index."""
    return state_labels(num_ions)[np.argmax(probs, axis=1)].tolist()


def backward(model: MlpModel, x, class_indices) -> tuple[float, np.ndarray]:
    """Mean batch loss and its gradient, laid out like ``model.flat``.

    The loss is the cross-entropy of :func:`forward`'s probabilities, read
    off the same forward pass the gradient needs.  The rectifier contributes
    zero gradient at exactly zero input.
    """
    x = _validate_input(model, x)
    y = np.asarray(class_indices, dtype=np.int64)
    a1, a2, probs = _forward_cached(model, x)
    batch_loss = cross_entropy(probs, y)
    batch = x.shape[0]
    delta = probs.copy()
    delta[np.arange(batch), y] -= 1.0
    delta /= batch
    grad, (grad_w1, grad_w2, grad_w3, grad_b1, grad_b2, grad_b3) = parameter_slab(
        [p.shape for p in model.parameters]
    )
    np.matmul(a2.T, delta, out=grad_w3)
    delta.sum(axis=0, out=grad_b3)
    back2 = (delta @ model.weights[2].T) * (a2 > 0.0)
    np.matmul(a1.T, back2, out=grad_w2)
    back2.sum(axis=0, out=grad_b2)
    back1 = (back2 @ model.weights[1].T) * (a1 > 0.0)
    np.matmul(x.T, back1, out=grad_w1)
    back1.sum(axis=0, out=grad_b1)
    return batch_loss, grad


def adadelta_step(
    params: np.ndarray,
    grads: np.ndarray,
    grad_sq: np.ndarray,
    delta_sq: np.ndarray,
) -> None:
    """One in-place ADADELTA update on flat vectors; the moments start at zero.

    g2 <- rho g2 + (1-rho) g**2
    dx = -sqrt(d2 + eps) / sqrt(g2 + eps) * g
    d2 <- rho d2 + (1-rho) dx**2

    with rho = ``ADADELTA_RHO`` and eps = ``ADADELTA_EPSILON``.
    """
    rho, epsilon = ADADELTA_RHO, ADADELTA_EPSILON
    grad_sq *= rho
    grad_sq += (1.0 - rho) * grads * grads
    step = -np.sqrt(delta_sq + epsilon) / np.sqrt(grad_sq + epsilon) * grads
    delta_sq *= rho
    delta_sq += (1.0 - rho) * step * step
    params += step


def predict(model: MlpModel, features) -> list[str]:
    return probabilities_to_labels(forward(model, features), model.num_ions)


def fit(
    model,
    x: np.ndarray,
    labels: Sequence[str],
    config: TrainConfig,
    backward,
    predict,
) -> list[dict]:
    """Train ``model`` in place on labelled rows; returns the epoch history.

    Shared by every network: ``backward`` and ``predict`` are the network's
    own functions, and ``backward`` returns the batch loss and its gradient
    laid out like ``model.flat``, the one vector every step updates.  A
    stratified ``VALIDATION_FRACTION`` of the rows is held out; after each
    epoch the register fidelity on that held-out part is recorded and the
    parameters with the best validation fidelity so far are kept.  Batches
    and the validation rows are gathered from ``x`` in its own dtype, so
    ``backward`` and ``predict`` convert only the rows they are given.  An
    epoch's ``train_loss`` is the mean of its batch losses, each taken
    before that batch's step.  Training stops early once ``patience`` epochs
    pass without improvement, and aborts with diagnostics once the loss or a
    parameter stops being finite.
    """
    labels = np.asarray(labels)
    if len(x) != labels.size:
        raise NetworkError(f"{len(x)} rows of input for {labels.size} labels")
    states, _ = labels_to_states(labels)
    train_idx, val_idx = split(labels, 1.0 - VALIDATION_FRACTION, config.seed)
    x_val, val_labels = x[val_idx], labels[val_idx]

    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 1)))
    params = model.flat
    grad_sq, delta_sq = np.zeros_like(params), np.zeros_like(params)
    best_params = params.copy()
    best_fidelity = -1.0
    best_epoch = -1
    history: list[dict] = []
    for epoch in range(config.epochs):
        order = train_idx[rng.permutation(train_idx.size)]
        epoch_loss = 0.0
        for start in range(0, order.size, config.batch_size):
            batch = order[start : start + config.batch_size]
            batch_loss, grads = backward(model, x[batch], states[batch])
            adadelta_step(params, grads, grad_sq, delta_sq)
            if not math.isfinite(batch_loss) or not np.isfinite(params).all():
                raise TrainingError(
                    f"non-finite loss or parameters at epoch {epoch}, "
                    f"batch offset {start}"
                )
            epoch_loss += batch_loss * batch.size
        epoch_loss /= order.size
        val_fidelity = fidelity(confusion(predict(model, x_val), val_labels)).average
        history.append(
            {"epoch": epoch, "train_loss": epoch_loss, "val_fidelity": val_fidelity}
        )
        if val_fidelity > best_fidelity:
            best_fidelity = val_fidelity
            best_epoch = epoch
            np.copyto(best_params, params)
        elif epoch - best_epoch >= config.patience:
            break
    np.copyto(params, best_params)
    return history


def train(
    features,
    labels: Sequence[str],
    hidden: tuple[int, int],
    config: TrainConfig | None = None,
) -> tuple[MlpModel, list[dict]]:
    """Train on labelled feature rows; returns the best-validation model.

    The epoch protocol is :func:`fit`'s.  ``features`` keep their dtype
    (uint16 counts, say) and are converted to float one batch at a time.
    """
    config = config or TrainConfig()
    features = np.asarray(features)
    _, num_ions = labels_to_states(labels)
    model = MlpModel(
        [features.shape[1], hidden[0], hidden[1], 2**num_ions], seed=config.seed
    )
    return model, fit(model, features, labels, config, backward, predict)
