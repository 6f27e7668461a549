"""Recurrent core: gate arithmetic, BPTT gradients, per-bin readout, training."""
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from ionread import cli, features, lstm
from ionread.evaluate import EvaluationError
from ionread.mlp import cross_entropy
from ionread.lstm import (
    LstmModel,
    NetworkError,
    TrainConfig,
    backward,
    bright_marginal,
    forward,
    forward_by_bin,
    predict,
    probe,
    readout,
    train,
)


def early_late_sequences(n_per_class, bins=6, seed=0):
    """Counts land early for one class and late for the other; totals match."""
    rng = np.random.default_rng(seed)
    x = np.zeros((2 * n_per_class, bins, 1))
    labels = []
    half = bins // 2
    for i in range(2 * n_per_class):
        early = i % 2 == 0
        counts = rng.poisson(2.5, size=half)
        if early:
            x[i, :half, 0] = counts
            labels.append("1")
        else:
            x[i, half:, 0] = counts
            labels.append("0")
    return x, labels


def masked_sigmoid(x):
    """The two-branch logistic: 1/(1+exp(-x)) at x >= 0, e/(1+e) below."""
    out = np.empty_like(x)
    pos = x >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def cell_on(z):
    """``_cell`` run on gate pre-activations ``z`` (4 hidden, batch) as given.

    An identity ``w_gates`` makes the cell's matmul return ``z`` exactly.
    Returns the activation slab: gates, candidate and ``tanh(c_next)``.
    """
    hs, batch = z.shape[0] // 4, z.shape[1]
    act = np.empty((5 * hs, batch), z.dtype)
    state = np.zeros((3, hs, batch), z.dtype)
    lstm._cell(np.eye(4 * hs, dtype=z.dtype), z, act, *state)
    return act


def gate_inputs(dtype):
    """Pre-activations across +-1e4 for a 4 x 256-row cell, ``dtype``."""
    edges = [0.0, -0.0, 1e-30, -1e-30, 36.0, -36.0, 700.0, -700.0, 1e4, -1e4]
    draws = np.random.default_rng(30).normal(scale=6.0, size=20_000)
    z = np.concatenate([edges, np.linspace(-1e4, 1e4, 20_001), np.linspace(-40, 40, 40_001), draws])
    z = np.resize(z, 4 * 256 * (z.size // (4 * 256) + 1))
    return z.reshape(4 * 256, -1).astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestCellGates:
    def test_sigmoid_gates_within_two_eps_of_masked_logistic(self, dtype):
        z = gate_inputs(dtype)
        gates = cell_on(z)[: 3 * 256]
        expected = masked_sigmoid(z[: 3 * 256].astype(np.float64))
        assert gates.dtype == dtype
        assert np.abs(gates - expected).max() <= 2 * np.finfo(dtype).eps

    def test_candidate_is_tanh_exactly(self, dtype):
        z = gate_inputs(dtype)
        np.testing.assert_array_equal(cell_on(z)[3 * 256 : 4 * 256], np.tanh(z[3 * 256 :]))

    def test_gates_are_one_half_at_zero_and_saturate_exactly(self, dtype):
        z = np.tile(np.array([[-1e4, -1e3, 0.0, 1e3, 1e4]], dtype), (8, 1))
        act = cell_on(z)
        np.testing.assert_array_equal(act[:6], np.tile(np.array([0, 0, 0.5, 1, 1], dtype), (6, 1)))
        np.testing.assert_array_equal(act[6:8], np.tile(np.array([-1, -1, 0, 1, 1], dtype), (2, 1)))

    def test_large_weights_raise_no_floating_point_error(self, dtype):
        model = LstmModel(3, 8, 8, seed=33)
        # the gate rows only: logits of 1e4 would underflow the readout's
        # softmax, which the cell does not compute
        model.flat[: model.w_gates.size] *= 1e3
        rng = np.random.default_rng(34)
        x = rng.poisson(3.0, size=(16, 15, 3)).astype(dtype)
        y = rng.integers(0, 8, size=16)
        with np.errstate(all="raise"):
            probs = forward(model, x)
            batch_loss, grad = backward(model, x, y)
        assert np.all(np.isfinite(probs)) and math.isfinite(batch_loss)
        assert np.all(np.isfinite(grad))


class TestForward:
    def test_forget_gate_bias_starts_at_one(self):
        model = LstmModel(3, 5, 4, seed=0)
        h = model.hidden_size
        np.testing.assert_array_equal(model.bias[h : 2 * h], 1.0)
        np.testing.assert_array_equal(model.bias[:h], 0.0)
        np.testing.assert_array_equal(model.bias[2 * h :], 0.0)

    def test_zero_weights_give_uniform(self):
        model = LstmModel(2, 4, 4, seed=1)
        for p in model.parameters:
            p[...] = 0.0
        probs = forward(model, np.random.default_rng(0).poisson(2.0, size=(6, 5, 2)))
        np.testing.assert_allclose(probs, 0.25, atol=1e-15)

    def test_single_unit_hand_oracle(self):
        model = LstmModel(1, 1, 2, seed=0)
        model.w_input[...] = [[0.5, -0.3, 0.8, 1.0]]
        model.w_hidden[...] = [[0.1, 0.2, -0.1, 0.4]]
        model.bias[...] = [0.05, 1.0, -0.2, 0.3]
        model.w_readout[...] = [[1.2, -0.7]]
        model.b_readout[...] = [0.1, -0.1]

        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))

        h = c = 0.0
        for x in (2.0, 0.5):
            gi = sig(0.5 * x + 0.1 * h + 0.05)
            gf = sig(-0.3 * x + 0.2 * h + 1.0)
            go = sig(0.8 * x - 0.1 * h - 0.2)
            cand = math.tanh(1.0 * x + 0.4 * h + 0.3)
            c = gf * c + gi * cand
            h = go * math.tanh(c)
        logits = (h * 1.2 + 0.1, h * -0.7 - 0.1)
        denom = math.exp(logits[0]) + math.exp(logits[1])
        expected = (math.exp(logits[0]) / denom, math.exp(logits[1]) / denom)

        probs = forward(model, np.array([[[2.0], [0.5]]]))
        np.testing.assert_allclose(probs[0], expected, atol=1e-12)

    def test_hidden_state_strictly_inside_unit_box(self):
        model = LstmModel(2, 6, 4, seed=3)
        x = np.random.default_rng(4).normal(scale=50.0, size=(8, 10, 2))
        xh = lstm._unroll(model.w_gates, x, keep=True)[0]
        # every bin's hidden state, rows 2 to 7 of its [x_t; h_t; 1] slot
        assert np.all(np.abs(xh[:, 2:-1]) < 1.0)

    def test_cell_state_bounded_by_bin_count(self):
        model = LstmModel(2, 6, 4, seed=5)
        bins = 7
        x = np.random.default_rng(6).normal(scale=50.0, size=(8, bins, 2))
        c = lstm._unroll(model.w_gates, x, keep=True)[2]
        for t in range(bins + 1):
            assert np.all(np.abs(c[t]) <= t)

    def test_empty_sequence_gives_readout_bias_prior(self):
        model = LstmModel(3, 4, 4, seed=7)
        model.b_readout[...] = [0.0, math.log(2.0), 0.0, math.log(4.0)]
        probs = forward(model, np.zeros((2, 0, 3)))
        np.testing.assert_allclose(probs, [[1 / 8, 2 / 8, 1 / 8, 4 / 8]] * 2, atol=1e-12)

    def test_rejects_bad_shapes_and_values(self):
        model = LstmModel(3, 4, 2, seed=0)
        with pytest.raises(NetworkError):
            forward(model, np.ones((2, 5, 4)))
        with pytest.raises(NetworkError):
            forward(model, np.full((1, 2, 3), np.nan))
        with pytest.raises(NetworkError):
            LstmModel(3, 4, 6)


class TestStreaming:
    """The readout after each bin, as a shot's counts arrive."""

    # one row, a block edge on either side, and several blocks with a ragged
    # last one; the first two widths are small, the last the 3q RNN's
    @pytest.mark.parametrize("dtype", ["uint16", "float64"])
    def test_each_bin_is_forward_over_that_prefix(self, dtype):
        for rows in (1, 4, 511, 512, 513, 812, 1025, 5000):
            for inputs, hidden, outputs in ((2, 5, 4), (3, 6, 4), (5, 32, 8)):
                rng = np.random.default_rng(rows + hidden)
                model = trained_looking(LstmModel(inputs, hidden, outputs), seed=rows)
                x = rng.poisson(1.0, size=(rows, 8, inputs)).astype(dtype)
                by_bin = forward_by_bin(model, x)
                assert by_bin.shape == (9, rows, outputs) and by_bin.dtype == np.float64
                for t in range(9):
                    np.testing.assert_array_equal(by_bin[t], forward(model, x[:, :t]))

    def test_row_blocks_match_one_step_loop_over_all_rows(self, monkeypatch):
        rows = 5000
        assert rows > lstm.INFERENCE_BLOCK_ROWS
        model = LstmModel(3, 6, 4, seed=19)
        x = np.random.default_rng(20).poisson(1.0, size=(rows, 5, 3)).astype(float)
        blocked = forward_by_bin(model, x)
        # one block: a single loop of time steps over all rows
        monkeypatch.setattr(lstm, "INFERENCE_BLOCK_ROWS", rows)
        np.testing.assert_array_equal(forward_by_bin(model, x), blocked)

    def test_empty_batch_keeps_output_width(self):
        model = LstmModel(3, 4, 8, seed=21)
        assert forward(model, np.zeros((0, 5, 3))).shape == (0, 8)
        assert forward_by_bin(model, np.zeros((0, 5, 3))).shape == (6, 0, 8)


def traced_peak(run):
    """Peak bytes that ``run()`` allocates on top of what is already held."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCountInput:
    """uint16 counts are converted one batch or one block at a time."""

    @pytest.fixture(scope="class")
    def counts(self):
        # 20 000 shots of 15 bins on 5 channels, the 3q preset's RNN input
        return np.random.default_rng(40).poisson(0.6, size=(20_000, 15, 5)).astype(np.uint16)

    def test_uint16_trains_like_its_float_copy(self):
        # counts run in float32, where uint16 values are exact
        x, labels = early_late_sequences(40, seed=22)
        config = TrainConfig(epochs=3, seed=8)
        model_a, hist_a = train(x.astype(np.uint16), labels, hidden_size=4, config=config)
        model_b, hist_b = train(x.astype(np.float32), labels, hidden_size=4, config=config)
        np.testing.assert_array_equal(model_a.flat, model_b.flat)
        assert hist_a == hist_b

    def test_inference_holds_less_than_a_float_copy(self, counts):
        model = LstmModel(5, 32, 8, seed=41)
        assert traced_peak(lambda: forward(model, counts)) < counts.size * 8

    def test_training_epoch_holds_less_than_a_float_copy(self, counts):
        labels = [format(i % 8, "03b") for i in range(len(counts))]
        config = TrainConfig(epochs=1, seed=3)
        peak = traced_peak(lambda: train(counts, labels, config=config))
        assert peak < counts.size * 8

    def test_nan_in_the_last_block_raises(self):
        model = LstmModel(3, 4, 2, seed=0)
        x = np.zeros((2 * lstm.INFERENCE_BLOCK_ROWS + 5, 4, 3))
        x[-1, -1, -1] = np.nan
        with pytest.raises(NetworkError, match="non-finite"):
            forward(model, x)

    def test_block_size_keeps_probabilities_bit_identical(self, counts, monkeypatch):
        model = LstmModel(5, 32, 8, seed=42)
        x = counts[:16_800]
        assert lstm.INFERENCE_BLOCK_ROWS == 512
        blocked = forward(model, x)
        monkeypatch.setattr(lstm, "INFERENCE_BLOCK_ROWS", 2048)
        np.testing.assert_array_equal(forward(model, x), blocked)


def trained_looking(model, seed):
    """``model`` with N(0, 0.5) parameters in place of its initial ones."""
    rng = np.random.default_rng(seed)
    for p in model.parameters:
        p[...] = rng.normal(scale=0.5, size=p.shape)
    return model


class TestSinglePrecision:
    """Counts run in float32; the float64 path on the same counts is the oracle."""

    @pytest.fixture(scope="class")
    def counts(self):
        # more rows than one inference block, 15 bins on 5 channels
        rows = lstm.INFERENCE_BLOCK_ROWS + 300
        return np.random.default_rng(50).poisson(1.5, size=(rows, 15, 5)).astype(np.uint16)

    def test_compute_dtype_follows_the_input(self, monkeypatch):
        assert lstm._finite_counts(np.zeros(3, dtype=np.uint16)).dtype == np.float32
        assert lstm._finite_counts(np.zeros(3, dtype=np.float32)).dtype == np.float32
        assert lstm._finite_counts(np.zeros(3)).dtype == np.float64
        unroll, dtypes = lstm._unroll, []

        def recording(*args, **kwargs):
            slabs = unroll(*args, **kwargs)
            dtypes.extend(slab.dtype for slab in slabs)
            return slabs

        monkeypatch.setattr(lstm, "_unroll", recording)
        model = LstmModel(5, 4, 8, seed=0)
        probs = forward_by_bin(model, np.ones((2, 3, 5), dtype=np.uint16))
        # the hidden and cell states run in float32, the readout in float64
        assert dtypes == [np.float32] * 4 and probs.dtype == np.float64

    @pytest.mark.parametrize("hidden", [1, 32])
    def test_gradient_matches_the_float64_path(self, counts, hidden):
        model = trained_looking(LstmModel(5, hidden, 8, seed=51), seed=52)
        x = counts[:64]
        y = np.random.default_rng(53).integers(0, 8, size=64)
        loss32, grad32 = backward(model, x, y)
        loss64, grad64 = backward(model, x.astype(float), y)
        assert grad32.dtype == np.float64
        assert abs(loss32 - loss64) <= 1e-5 * loss64
        ends = np.cumsum([p.size for p in model.parameters])
        for got, want in zip(np.split(grad32, ends[:-1]), np.split(grad64, ends[:-1])):
            assert np.linalg.norm(got - want) <= 1e-5 * np.linalg.norm(want)

    def test_probabilities_match_the_float64_path(self, counts):
        model = trained_looking(LstmModel(5, 32, 8, seed=54), seed=55)
        probs = forward(model, counts)
        assert probs.dtype == np.float64
        np.testing.assert_allclose(probs, forward(model, counts.astype(float)), rtol=0, atol=1e-6)

    # TestStreaming's shapes, and the 3q RNN's widths over more than one block
    @pytest.mark.parametrize("rows, inputs, hidden", [(4, 2, 5), (5000, 3, 6), (812, 5, 32)])
    def test_step_matches_full_forward(self, rows, inputs, hidden):
        model = trained_looking(LstmModel(inputs, hidden, 8, seed=56), seed=57)
        x = np.random.default_rng(rows).poisson(1.0, size=(rows, 8, inputs))
        x = x.astype(np.uint16)
        # the readout after the last bin, streamed bin by bin, is the full forward
        by_bin = forward_by_bin(model, x)
        np.testing.assert_array_equal(by_bin[-1], forward(model, x))

    def test_max_count_raises_no_floating_point_warning(self):
        # float32 exp overflows past 88.7, float64 only past 709.8
        x, labels = early_late_sequences(20, seed=58)
        x = (x > 0).astype(np.uint16) * features.MAX_COUNT
        y = np.asarray(labels).astype(np.int64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model, history = train(x, labels, hidden_size=5, config=TrainConfig(epochs=2))
            probs = forward(model, x)
            batch_loss, grad = backward(model, x, y)
            by_bin = forward_by_bin(model, x)
        assert len(history) == 2 and x.max() == features.MAX_COUNT
        assert np.all(np.isfinite(probs)) and math.isfinite(batch_loss)
        assert np.all(np.isfinite(grad)) and np.all(np.isfinite(by_bin))


class TestGradients:
    @staticmethod
    def finite_difference(model, x, y, h=1e-5):
        flat = model.flat
        grad = np.zeros_like(flat)
        for k in range(flat.size):
            keep = flat[k]
            flat[k] = keep + h
            up = cross_entropy(forward(model, x), y)
            flat[k] = keep - h
            down = cross_entropy(forward(model, x), y)
            flat[k] = keep
            grad[k] = (up - down) / (2.0 * h)
        return grad

    def test_bptt_matches_finite_differences(self):
        for trial in range(6):
            rng = np.random.default_rng(200 + trial)
            d_in = int(rng.integers(1, 4))
            hidden = int(rng.integers(1, 5))
            bins = int(rng.integers(1, 6))
            n_out = int(rng.choice([2, 4]))
            model = LstmModel(d_in, hidden, n_out, seed=trial)
            x = rng.normal(size=(3, bins, d_in))
            y = rng.integers(0, n_out, size=3)
            _, analytic = backward(model, x, y)
            numeric = self.finite_difference(model, x, y)
            ends = np.cumsum([p.size for p in model.parameters])
            for a, n in zip(np.split(analytic, ends[:-1]), np.split(numeric, ends[:-1])):
                err = np.linalg.norm(a - n) / max(
                    np.linalg.norm(a) + np.linalg.norm(n), 1e-12
                )
                assert err < 1e-4

    def test_readout_bias_gradient_is_mean_residual(self):
        model = LstmModel(2, 4, 4, seed=13)
        rng = np.random.default_rng(14)
        x = rng.normal(size=(9, 5, 2))
        y = rng.integers(0, 4, size=9)
        batch_loss, grad = backward(model, x, y)
        residual = forward(model, x)
        assert batch_loss == cross_entropy(residual, y)
        residual[np.arange(9), y] -= 1.0
        # the readout bias is the last block of the layout
        np.testing.assert_allclose(grad[-4:], residual.mean(axis=0), atol=1e-12)


def reference_forward(model, x):
    """Per-bin loop on row-major (batch, features) arrays, one tuple per bin.

    The cell as three matmuls and a bias add with the masked logistic:
    returns the probabilities, the last hidden and cell state and each bin's
    ``(h, c, gates, candidate, tanh_c)``.
    """
    hs = model.hidden_size
    batch, bins, _ = x.shape
    h, c = np.zeros((batch, hs)), np.zeros((batch, hs))
    cache = []
    for t in range(bins):
        z = x[:, t] @ model.w_input + h @ model.w_hidden + model.bias
        gates = masked_sigmoid(z[:, : 3 * hs])
        candidate = np.tanh(z[:, 3 * hs :])
        c_next = gates[:, hs : 2 * hs] * c + gates[:, :hs] * candidate
        tanh_c = np.tanh(c_next)
        cache.append((h, c, gates, candidate, tanh_c))
        h, c = gates[:, 2 * hs :] * tanh_c, c_next
    return readout(model, h), h, c, cache


def reference_backward(model, x, y):
    """Per-bin BPTT over :func:`reference_forward`'s cache.

    The gate derivatives joined by ``np.concatenate`` and the weight
    gradients as ``x.T @ d_z``, ``h.T @ d_z`` and ``d_z.sum``: the reference
    the stacked, gate-major ``backward`` must match to rounding.
    """
    hs = model.hidden_size
    batch, bins, _ = x.shape
    probs, h, _, cache = reference_forward(model, x)
    delta = probs.copy()
    delta[np.arange(batch), y] -= 1.0
    delta /= batch
    grads = [np.zeros_like(p) for p in model.parameters]
    grad_w_input, grad_w_hidden, grad_bias, grad_w_readout, grad_b_readout = grads
    grad_w_readout[...] = h.T @ delta
    grad_b_readout[...] = delta.sum(axis=0)
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
    return cross_entropy(probs, y), grads


class TestLoopReference:
    @pytest.mark.parametrize("hidden", [1, 32])
    @pytest.mark.parametrize("bins", [0, 1, 15])
    @pytest.mark.parametrize("batch", [1, 64])
    def test_backward_matches_per_bin_bptt(self, batch, bins, hidden):
        rng = np.random.default_rng(batch * 1000 + bins * 10 + hidden)
        model = LstmModel(5, hidden, 8, seed=bins + hidden)
        for p in model.parameters:
            p[...] = rng.normal(scale=0.5, size=p.shape)
        x = rng.poisson(1.5, size=(batch, bins, 5)) / 3.0
        y = rng.integers(0, 8, size=batch)
        batch_loss, grad = backward(model, x, y)
        expected_loss, expected = reference_backward(model, x, y)
        assert abs(batch_loss - expected_loss) <= 1e-12 * expected_loss
        ends = np.cumsum([p.size for p in model.parameters])
        for got, want in zip(np.split(grad, ends[:-1]), expected):
            assert np.linalg.norm(got - want.ravel()) <= 1e-12 * np.linalg.norm(want)

    def test_forward_and_by_bin_match_per_bin_loop(self):
        # more rows than one inference block, trained-looking weights
        rng = np.random.default_rng(42)
        model = LstmModel(5, 32, 8, seed=43)
        for p in model.parameters:
            p[...] = rng.normal(scale=0.5, size=p.shape)
        x = rng.poisson(1.5, size=(lstm.INFERENCE_BLOCK_ROWS + 300, 15, 5)) / 3.0
        expected, _, c_expected, cache = reference_forward(model, x)
        np.testing.assert_allclose(forward(model, x), expected, rtol=0, atol=1e-12)
        # each bin's readout, from the hidden state that bin starts with
        by_bin = [readout(model, h) for h, *_ in cache] + [expected]
        np.testing.assert_allclose(forward_by_bin(model, x), by_bin, rtol=0, atol=1e-12)
        c = lstm._unroll(model.w_gates, x[:50], keep=True)[2]
        np.testing.assert_allclose(c[-1].T, c_expected[:50], rtol=0, atol=1e-12)


class TestMarginals:
    def test_bright_marginal_masks(self):
        probs = np.array([[0.1, 0.2, 0.3, 0.4]])
        assert bright_marginal(probs, 0, 2)[0] == pytest.approx(0.7)
        assert bright_marginal(probs, 1, 2)[0] == pytest.approx(0.6)
        with pytest.raises(NetworkError):
            bright_marginal(probs, 2, 2)

    def test_probe_shape_and_bounds(self):
        model = LstmModel(3, 4, 4, seed=15)
        curve = probe(model, num_bins=5, feature_column=1, ion=0)
        assert curve.shape == (5,)
        assert np.all((curve >= 0.0) & (curve <= 1.0))
        with pytest.raises(NetworkError):
            probe(model, 5, feature_column=3, ion=0)


class TestTraining:
    def test_learns_arrival_time_structure(self):
        x, labels = early_late_sequences(150, seed=20)
        model, history = train(
            x, labels, hidden_size=12, config=TrainConfig(epochs=50, seed=2)
        )
        x_check, labels_check = early_late_sequences(50, seed=21)
        correct = sum(p == t for p, t in zip(predict(model, x_check), labels_check))
        assert correct >= 97
        assert all(h["epoch"] == i for i, h in enumerate(history))

    def test_training_is_bit_reproducible(self):
        x, labels = early_late_sequences(40, seed=22)
        config = TrainConfig(epochs=3, seed=8)
        model_a, hist_a = train(x, labels, hidden_size=4, config=config)
        model_b, hist_b = train(x, labels, hidden_size=4, config=config)
        for pa, pb in zip(model_a.parameters, model_b.parameters):
            np.testing.assert_array_equal(pa, pb)
        assert hist_a == hist_b

    def test_huge_inputs_raise_no_floating_point_warning(self):
        # gates far past saturation: an unguarded exp overflow would warn
        rng = np.random.default_rng(23)
        x = rng.uniform(-1e4, 1e4, size=(40, 6, 2))
        labels = ["00", "01", "10", "11"] * 10
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model, history = train(x, labels, hidden_size=5, config=TrainConfig(epochs=2))
            probs = forward(model, x)
            batch_loss, grad = backward(model, x, rng.integers(0, 4, size=40))
        assert len(history) == 2
        assert np.all(np.isfinite(probs)) and math.isfinite(batch_loss)
        assert np.all(np.isfinite(grad))

    def test_label_count_mismatch_raises(self):
        with pytest.raises(NetworkError):
            train(np.zeros((4, 3, 1)), ["0", "1"], hidden_size=4)

    @pytest.mark.parametrize("odd", ["1", "0a"])
    def test_unreadable_labels_raise_before_the_first_step(self, monkeypatch, odd):
        def no_step(*args):
            raise AssertionError("a training step ran on unreadable labels")

        monkeypatch.setattr(lstm, "backward", no_step)
        labels = ["00", "01", "10", "11"] * 10 + [odd] * 20
        with pytest.raises(EvaluationError):
            train(np.zeros((60, 3, 1)), labels, hidden_size=4)


class TestSerialisation:
    def test_round_trip(self, tmp_path):
        model = LstmModel(4, 6, 8, seed=17)
        path = tmp_path / "rnn.json"
        cli.save_model(model, str(path), metadata={"strategy": "RNN"})
        loaded = cli.load_model(str(path))
        x = np.random.default_rng(18).poisson(1.0, size=(3, 6, 4)).astype(float)
        np.testing.assert_array_equal(forward(loaded, x), forward(model, x))
        assert loaded.num_ions == 3

    def test_rejects_foreign_record(self):
        with pytest.raises(NetworkError):
            LstmModel.from_dict({"format": "ionread.mlp"})
