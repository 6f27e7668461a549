"""Recurrent register classifier over time-binned photon counts.

A single LSTM layer consumes one count vector per time bin; the hidden
state after the last bin, or after each bin for ``forward_by_bin``, feeds a
dense softmax over all 2**N register states, so the network sees photon
arrival structure that total counts erase.  Gates are packed [input,
forget, output, candidate] along one axis and the forget block starts at
one so early training does not wipe the cell state.  The three sigmoid
gates are taken in the tanh form ``(1 + tanh(z/2))/2``, the halving folded
into their weights, so one ``tanh`` call covers all four blocks.  Training
reuses the ADADELTA rule and epoch protocol of the feed-forward core.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .evaluate import labels_to_bits, labels_to_states, state_labels
from .mlp import (
    Network,
    NetworkError,
    TrainConfig,
    checked_array,
    checked_size,
    fit,
    probabilities_to_labels,
    softmax,
    softmax_head,
)

DEFAULT_HIDDEN_SIZE = 32
# inference streams this many sequences at a time, bounding its working set;
# the block size does not change the probabilities
INFERENCE_BLOCK_ROWS = 256


def _gate_rows(model: LstmModel, vector: np.ndarray) -> np.ndarray:
    """``[w_input; w_hidden; bias]`` of a vector laid out like ``model.flat``.

    The three blocks are adjacent, so they read as one (input + hidden + 1,
    4 hidden) matrix view that multiplies ``[x_t; h_t; 1]``.
    """
    rows = model.input_size + model.hidden_size + 1
    return vector[: rows * 4 * model.hidden_size].reshape(rows, 4 * model.hidden_size)


class LstmModel(Network):
    """LSTM over count sequences with a dense softmax readout."""

    FORMAT = "ionread.lstm"
    PARAMETER_NAMES = ("w_input", "w_hidden", "bias", "w_readout", "b_readout")

    def __init__(self, input_size: int, hidden_size: int, output_size: int, seed: int = 0):
        self.input_size = n_in = checked_size(input_size, "input_size")
        self.hidden_size = h = checked_size(hidden_size, "hidden_size")
        self.output_size = out = checked_size(output_size, "output_size")
        # each gate matrix draws with fan_out = hidden_size, one gate's width
        super().__init__(
            [(n_in, 4 * h), (h, 4 * h), (4 * h,), (h, out), (out,)],
            out,
            seed,
            [(0, n_in, h), (1, h, h), (3, h, out)],
        )
        self.w_input, self.w_hidden, self.bias, self.w_readout, self.b_readout = (
            self.parameters
        )
        self.w_gates = _gate_rows(self, self.flat)
        self.bias[h : 2 * h] = 1.0

    def to_dict(self) -> dict:
        return {
            "input_size": self.input_size,
            "hidden_size": self.hidden_size,
            "output_size": self.output_size,
            **{name: getattr(self, name).tolist() for name in self.PARAMETER_NAMES},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LstmModel":
        model = cls(data["input_size"], data["hidden_size"], data["output_size"])
        for name, view in zip(cls.PARAMETER_NAMES, model.parameters):
            view[...] = checked_array(data[name], view.shape, name)
        return model


def _cell(
    w_gates: np.ndarray,
    xh: np.ndarray,
    act: np.ndarray,
    c: np.ndarray,
    c_next: np.ndarray,
    h_next: np.ndarray,
) -> None:
    """One time bin of the LSTM, gate-major: one column per sequence.

    ``xh`` is ``[x_t; h_t; 1]`` and ``w_gates`` the gate rows in the compute
    dtype with the sigmoid gates' columns halved (see :func:`_unroll`).
    Writes the activations BPTT needs into ``act``, as ``[input, forget,
    output, candidate, tanh(c_next)]`` blocks of ``hidden_size`` rows, and
    the next state into ``c_next`` and ``h_next``.
    """
    hs = c.shape[0]
    z = act[: 4 * hs]
    np.matmul(w_gates.T, xh, out=z)
    # sigmoid(v) = (1 + tanh(v/2))/2, v/2 read off the halved weights: one
    # tanh for all four blocks, no overflow
    np.tanh(z, out=z)
    gates = z[: 3 * hs]
    gates *= 0.5
    gates += 0.5
    gate_in, forget, gate_out, candidate, tanh_c = act.reshape(5, hs, xh.shape[1])
    np.multiply(forget, c, out=c_next)
    np.multiply(gate_in, candidate, out=h_next)
    c_next += h_next
    np.tanh(c_next, out=tanh_c)
    np.multiply(gate_out, tanh_c, out=h_next)


def _unroll(w_gates: np.ndarray, x: np.ndarray):
    """Run the cell over every bin of ``x`` (batch, bins, inputs), from zero state.

    ``w_gates`` are the model's gate rows; every slab takes ``x``'s compute
    dtype.  The rows are cast to it with the sigmoid gates' columns halved:
    halving is exact, so ``_cell`` reads each ``v/2`` off its one matmul bit
    for bit as if it had halved ``v`` after it.  Returns the slabs ``xh``
    (``[x_t; h_t; 1]`` per step, the state after ``t`` bins in slot ``t``),
    ``act`` and ``c`` (cell state per step) and the final hidden state, all
    gate-major.  Every step has its own slot, as BPTT and per-bin readouts
    need, and the inputs are copied in at once.
    """
    batch, bins, n_in = x.shape
    hs = w_gates.shape[1] // 4
    w_cell = w_gates.astype(x.dtype)
    w_cell[:, : 3 * hs] *= 0.5
    xh = np.empty((bins + 1, n_in + hs + 1, batch), x.dtype)
    xh[:, -1] = 1.0
    xh[0, n_in:-1] = 0.0
    xh[:bins, :n_in] = x.transpose(1, 2, 0)
    act = np.empty((bins, 5 * hs, batch), x.dtype)
    c = np.empty((bins + 1, hs, batch), x.dtype)
    c[0] = 0.0
    for t in range(bins):
        _cell(w_cell, xh[t], act[t], c[t], c[t + 1], xh[t + 1, n_in:-1])
    return xh, act, c, xh[bins, n_in:-1]


def readout(model: LstmModel, h: np.ndarray) -> np.ndarray:
    return softmax(h @ model.w_readout + model.b_readout)


def _sequence_array(model: LstmModel, sequences) -> np.ndarray:
    """``sequences`` as a (batch, bins, inputs) array, still in its own dtype."""
    x = np.asarray(sequences)
    if x.ndim != 3 or x.shape[2] != model.input_size:
        raise NetworkError(
            f"expected sequences shaped (batch, bins, {model.input_size}), got {x.shape}"
        )
    return x


def _finite_counts(x: np.ndarray) -> np.ndarray:
    """``x`` in the LSTM's compute dtype, checked finite.

    The compute dtype is ``np.result_type(x.dtype, np.float32)``.  Integer
    counts, which every feature this package makes is, run in float32,
    where uint16 counts are exact; float64 input keeps the float64 path that
    the tests hold as the reference.  The MLPs still read counts as float64,
    and the parameters, their gradients, the readout softmax and the model
    files stay float64 for both networks.
    """
    x = np.asarray(x)
    x = x.astype(np.result_type(x.dtype, np.float32), copy=False)
    if not np.all(np.isfinite(x)):
        raise NetworkError("non-finite count values")
    return x


def _block_readouts(model: LstmModel, sequences, by_bin: bool) -> np.ndarray:
    """Readouts after the last bin (1, batch, 2**N), or ``by_bin`` after each.

    No backward pass follows, so one block of rows is converted and
    unrolled at a time.
    """
    x = _sequence_array(model, sequences)
    batch, bins, n_in = x.shape
    read_after = range(bins + 1) if by_bin else [bins]
    probs = np.empty((len(read_after), batch, model.output_size))
    for start in range(0, batch, INFERENCE_BLOCK_ROWS):
        block = _finite_counts(x[start : start + INFERENCE_BLOCK_ROWS])
        rows = slice(start, start + block.shape[0])
        xh = _unroll(model.w_gates, block)[0]
        for i, t in enumerate(read_after):
            probs[i, rows] = readout(model, xh[t, n_in:-1].T)
    return probs


def forward(model: LstmModel, sequences) -> np.ndarray:
    """Class probabilities from full sequences, shape (batch, 2**N).

    An empty sequence (zero bins) yields the readout-bias prior.
    """
    return _block_readouts(model, sequences, by_bin=False)[0]


def forward_by_bin(model: LstmModel, sequences) -> np.ndarray:
    """Class probabilities after 0, 1, ... bins, shape (bins + 1, batch, 2**N).

    Entry ``t`` is bit for bit ``forward(model, sequences[:, :t])``, read
    off one pass over the same blocks.
    """
    return _block_readouts(model, sequences, by_bin=True)


def backward(model: LstmModel, sequences, class_indices) -> tuple[float, np.ndarray]:
    """Mean batch loss and its gradient, laid out like ``model.flat``, via BPTT.

    The loss is the cross-entropy of :func:`forward`'s probabilities, read
    off the same forward pass the gradient needs.
    """
    x = _finite_counts(_sequence_array(model, sequences))
    batch, bins, _ = x.shape
    xh, act, c, h_last = _unroll(model.w_gates, x)
    probs = readout(model, h_last.T)
    batch_loss, delta, grad, (*_, grad_w_readout, grad_b_readout) = softmax_head(
        model, probs, class_indices
    )
    np.matmul(h_last, delta, out=grad_w_readout)
    delta.sum(axis=0, out=grad_b_readout)

    hs = model.hidden_size
    w_hidden = model.w_hidden.astype(x.dtype)
    # each bin's gate gradient is d_z @ [x_t; h_t; 1] over batch-major rows,
    # a plain-layout matmul, summed in the compute dtype and written into the
    # float64 gradient once, transposed
    xh_rows = xh[:bins].transpose(0, 2, 1).copy()
    gate_grad = np.zeros((4 * hs, xh.shape[1]), x.dtype)
    step = np.empty_like(gate_grad)
    d_h = (model.w_readout @ delta.T).astype(x.dtype, copy=False)
    d_c = np.zeros((hs, batch), x.dtype)
    d_z = np.empty((4 * hs, batch), x.dtype)
    d_sig = d_z[: 3 * hs]
    d_in, d_forget, d_out, d_cand = d_z.reshape(4, hs, batch)
    scratch = np.empty((hs, batch), x.dtype)
    for t in range(bins - 1, -1, -1):
        gate_in, forget, gate_out, candidate, tanh_c = act[t].reshape(5, hs, batch)
        # d_c += d_h * gate_out * (1 - tanh_c**2)
        np.multiply(tanh_c, tanh_c, out=scratch)
        np.subtract(1.0, scratch, out=scratch)
        scratch *= gate_out
        scratch *= d_h
        d_c += scratch
        # each sigmoid gate's s * (1 - s), then the factor its output met
        sig = act[t, : 3 * hs]
        np.subtract(1.0, sig, out=d_sig)
        d_sig *= sig
        d_in *= candidate
        d_in *= d_c
        d_forget *= c[t]
        d_forget *= d_c
        d_out *= tanh_c
        d_out *= d_h
        np.multiply(candidate, candidate, out=d_cand)
        np.subtract(1.0, d_cand, out=d_cand)
        d_cand *= gate_in
        d_cand *= d_c
        np.matmul(d_z, xh_rows[t], out=step)
        gate_grad += step
        # the first bin's state is zero, so nothing flows back from it
        if t:
            np.matmul(w_hidden, d_z, out=d_h)
            d_c *= forget
    _gate_rows(model, grad)[...] = gate_grad.T
    return batch_loss, grad


def predict(model: LstmModel, sequences) -> list[str]:
    return probabilities_to_labels(forward(model, sequences), model.num_ions)


def train(
    sequences,
    labels: Sequence[str],
    hidden_size: int = DEFAULT_HIDDEN_SIZE,
    config: TrainConfig | None = None,
) -> tuple[LstmModel, list[dict]]:
    """Same epoch protocol as the feed-forward core, see :func:`mlp.fit`.

    ``sequences`` keep their dtype (uint16 counts, say) and are converted
    one batch or inference block at a time to the compute dtype of
    :func:`_finite_counts`: counts run in float32, float64 input in float64.
    The parameters, the ADADELTA state and the returned model stay float64.
    """
    config = config or TrainConfig()
    x = np.asarray(sequences)
    if x.ndim != 3:
        raise NetworkError(f"sequences must be (batch, bins, channels), got {x.shape}")
    _, num_ions = labels_to_states(labels)
    model = LstmModel(x.shape[2], hidden_size, 2**num_ions, seed=config.seed)
    return model, fit(model, x, labels, config, backward, predict)


def bright_marginal(probs: np.ndarray, ion: int, num_ions: int) -> np.ndarray:
    """P(ion bright) summed over all register states with that bit set."""
    if not 0 <= ion < num_ions:
        raise NetworkError(f"ion {ion} outside register of {num_ions}")
    probs = np.asarray(probs)
    if probs.ndim != 2 or probs.shape[1] != 2**num_ions:
        raise NetworkError(f"expected probabilities (batch, {2**num_ions}), got {probs.shape}")
    bright = labels_to_bits(state_labels(num_ions))[:, ion] == 1
    return probs[:, bright].sum(axis=1)


def probe(model: LstmModel, num_bins: int, feature_column: int, ion: int) -> np.ndarray:
    """Bright-state probability assigned to one photon, by arrival bin.

    Feeds the network ``num_bins`` otherwise empty sequences that differ
    only in which bin carries a single count on ``feature_column`` and
    returns the marginal P(ion bright) against arrival time.  The sequences
    are uint16 counts, so they run at the precision training read.
    """
    if not 0 <= feature_column < model.input_size:
        raise NetworkError(f"feature column {feature_column} out of range")
    x = np.zeros((num_bins, num_bins, model.input_size), dtype=np.uint16)
    x[np.arange(num_bins), np.arange(num_bins), feature_column] = 1
    return bright_marginal(forward(model, x), ion, model.num_ions)

