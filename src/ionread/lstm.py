"""Recurrent register classifier over time-binned photon counts.

A single LSTM layer consumes one count vector per time bin; the final
hidden state feeds a dense softmax over all 2**N register states, so the
network sees photon arrival structure that total counts erase.  Gates are
packed [input, forget, output, candidate] along one axis and the forget
block starts at one so early training does not wipe the cell state.
Training reuses the ADADELTA rule and epoch protocol of the feed-forward
core.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .evaluate import labels_to_bits, labels_to_states, state_labels
from .mlp import (
    NetworkError,
    TrainConfig,
    checked_array,
    cross_entropy,
    fit,
    parameter_slab,
    probabilities_to_labels,
    softmax,
)

DEFAULT_HIDDEN_SIZE = 32
# inference streams this many sequences at a time, bounding its working set
INFERENCE_BLOCK_ROWS = 2048


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function that never takes ``exp`` of a positive number.

    Bit-identical to ``1/(1+exp(-x))`` for ``x >= 0`` and to
    ``exp(x)/(1+exp(x))`` below zero, without branching on the sign.
    """
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0.0, 1.0, e)
    e += 1.0
    return np.divide(out, e, out=out)


class LstmModel:
    """LSTM over count sequences with a dense softmax readout."""

    FORMAT = "ionread.lstm"
    PARAMETER_NAMES = ("w_input", "w_hidden", "bias", "w_readout", "b_readout")

    def __init__(self, input_size: int, hidden_size: int, output_size: int, seed: int = 0):
        if input_size < 1 or hidden_size < 1:
            raise NetworkError("input_size and hidden_size must be >= 1")
        if output_size & (output_size - 1) or output_size < 2:
            raise NetworkError(
                f"output width must be a power of two >= 2, got {output_size}"
            )
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.output_size = output_size
        self.num_ions = output_size.bit_length() - 1
        h = hidden_size
        self.flat, self.parameters = parameter_slab(
            [(input_size, 4 * h), (h, 4 * h), (4 * h,), (h, output_size), (output_size,)]
        )
        self.w_input, self.w_hidden, self.bias, self.w_readout, self.b_readout = (
            self.parameters
        )
        rng = np.random.default_rng(seed)
        for weights, fan_in, fan_out in (
            (self.w_input, input_size, h),
            (self.w_hidden, h, h),
            (self.w_readout, h, output_size),
        ):
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            weights[...] = rng.uniform(-bound, bound, size=weights.shape)
        self.bias[h : 2 * h] = 1.0

    def to_dict(self) -> dict:
        return {
            "format": self.FORMAT,
            "version": 1,
            "input_size": self.input_size,
            "hidden_size": self.hidden_size,
            "output_size": self.output_size,
            **{name: getattr(self, name).tolist() for name in self.PARAMETER_NAMES},
        }

    def __reduce__(self):
        # pickle and deepcopy rebuild the record, so the copy's views share
        # the copy's own ``flat``
        return type(self).from_dict, (self.to_dict(),)

    @classmethod
    def from_dict(cls, data: dict) -> "LstmModel":
        if data.get("format") != cls.FORMAT:
            raise NetworkError("not a recurrent model record")
        model = cls(data["input_size"], data["hidden_size"], data["output_size"])
        for name, view in zip(cls.PARAMETER_NAMES, model.parameters):
            view[...] = checked_array(data[name], view.shape, name)
        return model


def initial_state(model: LstmModel, batch: int) -> tuple[np.ndarray, np.ndarray]:
    """Zero hidden and cell state for a batch of fresh sequences."""
    return np.zeros((batch, model.hidden_size)), np.zeros((batch, model.hidden_size))


def _cell(model: LstmModel, x_t: np.ndarray, h: np.ndarray, c: np.ndarray):
    """One time bin of the LSTM: the activations BPTT needs and the next (h, c).

    The activations are the packed sigmoid gates ``[input, forget, output]``,
    the candidate and ``tanh`` of the next cell state.
    """
    hs = model.hidden_size
    z = x_t @ model.w_input + h @ model.w_hidden + model.bias
    gates = sigmoid(z[:, : 3 * hs])
    candidate = np.tanh(z[:, 3 * hs :])
    c_next = gates[:, hs : 2 * hs] * c + gates[:, :hs] * candidate
    tanh_c = np.tanh(c_next)
    h_next = gates[:, 2 * hs :] * tanh_c
    return (gates, candidate, tanh_c), h_next, c_next


def step(
    model: LstmModel, x_t: np.ndarray, h: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Advance one time bin; use with ``initial_state`` to stream counts."""
    _, h_next, c_next = _cell(model, x_t, h, c)
    return h_next, c_next


def readout(model: LstmModel, h: np.ndarray) -> np.ndarray:
    return softmax(h @ model.w_readout + model.b_readout)


def _validate_sequences(model: LstmModel, sequences) -> np.ndarray:
    x = np.asarray(sequences, dtype=float)
    if x.ndim == 2:
        x = x[np.newaxis]
    if x.ndim != 3 or x.shape[2] != model.input_size:
        raise NetworkError(
            f"expected sequences shaped (batch, bins, {model.input_size}), got {x.shape}"
        )
    if not np.all(np.isfinite(x)):
        raise NetworkError("non-finite count values")
    return x


def _forward_cached(model: LstmModel, x: np.ndarray):
    batch, bins, _ = x.shape
    h, c = initial_state(model, batch)
    cache = []
    for t in range(bins):
        activations, h_next, c_next = _cell(model, x[:, t], h, c)
        cache.append((h, c, *activations))
        h, c = h_next, c_next
    probs = readout(model, h)
    return probs, h, cache


def forward(model: LstmModel, sequences) -> np.ndarray:
    """Class probabilities from full sequences, shape (batch, 2**N).

    An empty sequence (zero bins) yields the readout-bias prior.
    """
    x = _validate_sequences(model, sequences)
    probs = np.empty((x.shape[0], model.output_size))
    # no backward pass follows, so keep only the current state of one block of
    # rows, not every bin's activations for the whole batch
    for start in range(0, x.shape[0], INFERENCE_BLOCK_ROWS):
        block = x[start : start + INFERENCE_BLOCK_ROWS]
        h, c = initial_state(model, block.shape[0])
        for t in range(x.shape[1]):
            _, h, c = _cell(model, block[:, t], h, c)
        probs[start : start + block.shape[0]] = readout(model, h)
    return probs


def backward(model: LstmModel, sequences, class_indices) -> tuple[float, np.ndarray]:
    """Mean batch loss and its gradient, laid out like ``model.flat``, via BPTT.

    The loss is the cross-entropy of :func:`forward`'s probabilities, read
    off the same forward pass the gradient needs.
    """
    x = _validate_sequences(model, sequences)
    y = np.asarray(class_indices, dtype=np.int64)
    batch, bins, _ = x.shape
    probs, h_last, cache = _forward_cached(model, x)
    batch_loss = cross_entropy(probs, y)

    delta = probs.copy()
    delta[np.arange(batch), y] -= 1.0
    delta /= batch
    grad, (grad_w_input, grad_w_hidden, grad_bias, grad_w_readout, grad_b_readout) = (
        parameter_slab([p.shape for p in model.parameters])
    )
    np.matmul(h_last.T, delta, out=grad_w_readout)
    delta.sum(axis=0, out=grad_b_readout)

    hs = model.hidden_size
    d_h = delta @ model.w_readout.T
    d_c = np.zeros((batch, hs))
    for t in range(bins - 1, -1, -1):
        h_prev, c_prev, gates, candidate, tanh_c = cache[t]
        d_c = d_c + d_h * gates[:, 2 * hs :] * (1.0 - tanh_c**2)
        d_gates = np.concatenate([d_c * candidate, d_c * c_prev, d_h * tanh_c], axis=1)
        d_z = np.concatenate(
            [d_gates * gates * (1.0 - gates), d_c * gates[:, :hs] * (1.0 - candidate**2)],
            axis=1,
        )
        grad_w_input += x[:, t].T @ d_z
        grad_w_hidden += h_prev.T @ d_z
        grad_bias += d_z.sum(axis=0)
        d_h = d_z @ model.w_hidden.T
        d_c = d_c * gates[:, hs : 2 * hs]
    return batch_loss, grad


def predict(model: LstmModel, sequences) -> list[str]:
    return probabilities_to_labels(forward(model, sequences), model.num_ions)


def train(
    sequences,
    labels: Sequence[str],
    hidden_size: int = DEFAULT_HIDDEN_SIZE,
    config: TrainConfig | None = None,
) -> tuple[LstmModel, list[dict]]:
    """Same epoch protocol as the feed-forward core, see :func:`mlp.fit`."""
    config = config or TrainConfig()
    x = np.asarray(sequences, dtype=float)
    labels = np.asarray(labels)
    if x.ndim != 3:
        raise NetworkError(f"sequences must be (batch, bins, channels), got {x.shape}")
    if x.shape[0] != len(labels):
        raise NetworkError(f"{x.shape[0]} sequences for {len(labels)} labels")
    _, num_ions = labels_to_states(labels)
    model = LstmModel(x.shape[2], hidden_size, 2**num_ions, seed=config.seed)
    return model, fit(model, x, labels, config, backward, predict)


def bright_marginal(probs: np.ndarray, ion: int, num_ions: int) -> np.ndarray:
    """P(ion bright) summed over all register states with that bit set."""
    if not 0 <= ion < num_ions:
        raise NetworkError(f"ion {ion} outside register of {num_ions}")
    bright = labels_to_bits(state_labels(num_ions))[:, ion] == 1
    return np.atleast_2d(probs)[:, bright].sum(axis=1)


def probe(
    model: LstmModel,
    num_bins: int,
    feature_column: int,
    ion: int,
    photon_value: float = 1.0,
) -> np.ndarray:
    """Bright-state probability assigned to one photon, by arrival bin.

    Feeds the network ``num_bins`` otherwise empty sequences that differ
    only in which bin carries a single count on ``feature_column`` and
    returns the marginal P(ion bright) against arrival time.  Training sees
    scaled counts, so pass the scaled value of one photon.
    """
    if not 0 <= feature_column < model.input_size:
        raise NetworkError(f"feature column {feature_column} out of range")
    x = np.zeros((num_bins, num_bins, model.input_size))
    for t in range(num_bins):
        x[t, t, feature_column] = photon_value
    return bright_marginal(forward(model, x), ion, model.num_ions)

