"""Classifier core: softmax, backprop gradients, ADADELTA, training loop."""
import copy
import json
import math
import pickle
import re

import numpy as np
import pytest

from ionread import cli, lstm, mlp, sim, threshold
from ionread.evaluate import EvaluationError, confusion, fidelity, split
from ionread.mlp import (
    MlpModel,
    NetworkError,
    TrainConfig,
    TrainingError,
    adadelta_step,
    backward,
    cross_entropy,
    forward,
    predict,
    softmax,
    train,
)


def adadelta_scalar_oracle(grads, rho=0.95, eps=1e-6):
    """Pure-python transcription of the update rule for one scalar."""
    x, g2, d2 = 0.0, 0.0, 0.0
    trace = []
    for g in grads:
        g2 = rho * g2 + (1.0 - rho) * g * g
        step = -math.sqrt(d2 + eps) / math.sqrt(g2 + eps) * g
        d2 = rho * d2 + (1.0 - rho) * step * step
        x += step
        trace.append(x)
    return trace


class TestSoftmax:
    def test_uniform_on_equal_logits(self):
        out = softmax(np.zeros((3, 4)))
        np.testing.assert_allclose(out, 0.25, atol=1e-15)

    def test_two_class_closed_form(self):
        out = softmax(np.array([[0.0, math.log(2.0)]]))
        np.testing.assert_allclose(out, [[1.0 / 3.0, 2.0 / 3.0]], atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(11)
        logits = rng.normal(size=(6, 5))
        for shift in (-50.0, -1.0, 3.0, 50.0):
            np.testing.assert_allclose(
                softmax(logits + shift), softmax(logits), atol=1e-12
            )

    def test_extreme_logits_stay_finite(self):
        out = softmax(np.array([[1000.0, 0.0, -1000.0]]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out.sum(), 1.0, atol=1e-15)


class TestForwardLoss:
    def test_rows_sum_to_one(self):
        model = MlpModel([5, 8, 8, 4], seed=1)
        probs = forward(model, np.random.default_rng(2).normal(size=(9, 5)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_zero_weights_give_uniform_and_log_c_loss(self):
        model = MlpModel([3, 8, 8, 4], seed=0)
        for w in model.weights:
            w[...] = 0.0
        x = np.ones((5, 3))
        np.testing.assert_allclose(forward(model, x), 0.25, atol=1e-15)
        assert cross_entropy(forward(model, x), [0, 1, 2, 3, 0]) == pytest.approx(
            math.log(4.0), abs=1e-12
        )

    def test_rejects_wrong_width_and_nonfinite(self):
        model = MlpModel([3, 8, 8, 2], seed=0)
        with pytest.raises(NetworkError):
            forward(model, np.ones((2, 4)))
        with pytest.raises(NetworkError):
            forward(model, np.array([[1.0, np.nan, 0.0]]))

    @pytest.mark.parametrize("shape", [(3,), (), (1, 1, 3), (2, 1, 3)])
    def test_input_must_be_a_batch_of_rows(self, shape):
        model = MlpModel([3, 8, 8, 2], seed=0)
        expected = rf"expected features shaped \(batch, 3\), got {re.escape(str(shape))}"
        for call in (
            lambda x: forward(model, x),
            lambda x: predict(model, x),
            lambda x: backward(model, x, [0]),
        ):
            with pytest.raises(NetworkError, match=expected):
                call(np.ones(shape))

    @pytest.mark.parametrize("shape", [(10,), (10, 1, 3)])
    def test_train_checks_the_rank_before_building_the_model(self, shape):
        expected = rf"features must be \(batch, features\), got {re.escape(str(shape))}"
        with pytest.raises(NetworkError, match=expected):
            train(np.zeros(shape), ["0", "1"] * 5, (8, 8))

    def test_hidden_width_bounds_enforced(self):
        with pytest.raises(NetworkError):
            MlpModel([3, 7, 8, 2])
        with pytest.raises(NetworkError):
            MlpModel([3, 8, 41, 2])
        expected = r"layer_sizes must be \[input, hidden, hidden, output\]"
        for sizes in ([3, 8, 2], [3, 8, 8, 8, 2]):
            with pytest.raises(NetworkError, match=expected):
                MlpModel(sizes)

    def test_output_must_be_power_of_two(self):
        with pytest.raises(NetworkError):
            MlpModel([3, 8, 8, 3])


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

    def test_matches_finite_differences(self):
        # ten random small models; norm-relative error per parameter tensor
        for trial in range(10):
            rng = np.random.default_rng(100 + trial)
            d_in = int(rng.integers(2, 6))
            n_out = int(rng.choice([2, 4]))
            model = MlpModel([d_in, 8, 8, n_out], seed=trial)
            x = rng.normal(size=(7, d_in))
            y = rng.integers(0, n_out, size=7)
            _, analytic = backward(model, x, y)
            numeric = self.finite_difference(model, x, y)
            ends = np.cumsum([p.size for p in model.parameters])
            for a, n in zip(np.split(analytic, ends[:-1]), np.split(numeric, ends[:-1])):
                err = np.linalg.norm(a - n) / max(
                    np.linalg.norm(a) + np.linalg.norm(n), 1e-12
                )
                assert err < 1e-4

    def test_output_bias_gradient_is_mean_residual(self):
        model = MlpModel([4, 8, 8, 4], seed=5)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(11, 4))
        y = rng.integers(0, 4, size=11)
        batch_loss, grad = backward(model, x, y)
        probs = forward(model, x)
        assert batch_loss == cross_entropy(probs, y)
        residual = probs.copy()
        residual[np.arange(11), y] -= 1.0
        # the output bias is the last block of the layout
        np.testing.assert_allclose(grad[-4:], residual.mean(axis=0), atol=1e-12)

    def test_zero_input_kills_first_layer_weight_gradient(self):
        model = MlpModel([4, 8, 8, 2], seed=7)
        _, grad = backward(model, np.zeros((3, 4)), [0, 1, 0])
        # the first-layer weights are the first block of the layout
        np.testing.assert_array_equal(grad[: 4 * 8], 0.0)


def adadelta_moments(size):
    """Zeroed running second moments of gradients and updates."""
    return np.zeros(size), np.zeros(size)


class TestAdadelta:
    def test_frozen_first_step(self):
        params = np.array([0.0])
        adadelta_step(params, np.array([1.0]), *adadelta_moments(1))
        assert params[0] == pytest.approx(-4.472091234311e-3, abs=1e-12)

    def test_matches_scalar_oracle_over_many_steps(self):
        rng = np.random.default_rng(21)
        grads = rng.normal(size=50).tolist()
        params = np.array([0.0])
        moments = adadelta_moments(1)
        for g, expected in zip(grads, adadelta_scalar_oracle(grads)):
            adadelta_step(params, np.array([g]), *moments)
            assert params[0] == pytest.approx(expected, abs=1e-12)

    def test_zero_gradient_is_a_no_op(self):
        params = np.full(4, 3.5)
        adadelta_step(params, np.zeros(4), *adadelta_moments(4))
        np.testing.assert_array_equal(params, 3.5)

    def test_step_opposes_gradient(self):
        params = np.array([0.0, 0.0])
        adadelta_step(params, np.array([2.0, -0.5]), *adadelta_moments(2))
        assert params[0] < 0.0 < params[1]

    def test_elementwise_independence(self):
        # a vector update must equal per-component scalar updates
        grads = np.array([0.3, -1.2, 4.0])
        params = grads * 0.0
        moments = adadelta_moments(3)
        for _ in range(3):
            adadelta_step(params, grads, *moments)
        for i, g in enumerate(grads):
            expected = adadelta_scalar_oracle([g, g, g])[-1]
            assert params[i] == pytest.approx(expected, abs=1e-12)


class PerArrayAdadelta:
    """ADADELTA as a loop over the parameter arrays, with per-array moments.

    The reference the flat vector update must match bit for bit: ADADELTA
    works element by element, so the layout must not change any weight.
    """

    def __init__(self, model):
        self.params = model.parameters
        self.grad_sq = [np.zeros_like(p) for p in self.params]
        self.delta_sq = [np.zeros_like(p) for p in self.params]

    def __call__(self, params, grad, grad_sq, delta_sq):
        rho, epsilon = mlp.ADADELTA_RHO, mlp.ADADELTA_EPSILON
        ends = np.cumsum([p.size for p in self.params])
        grads = np.split(grad, ends[:-1])
        for p, g, g2, d2 in zip(self.params, grads, self.grad_sq, self.delta_sq):
            g = g.reshape(p.shape)
            g2 *= rho
            g2 += (1.0 - rho) * g * g
            step = -np.sqrt(d2 + epsilon) / np.sqrt(g2 + epsilon) * g
            d2 *= rho
            d2 += (1.0 - rho) * step * step
            p += step


def tiny_networks():
    """A tiny MLP and LSTM problem each: (network module, model, inputs, labels)."""
    rng = np.random.default_rng(50)
    x = rng.normal(size=(300, 3))
    labels = ["00", "01", "10", "11"] * 75
    sequences = rng.poisson(1.0, size=(200, 4, 2)).astype(float)
    return [
        (mlp, MlpModel([3, 8, 8, 4], seed=51), x, labels),
        (lstm, lstm.LstmModel(2, 3, 2, seed=52), sequences, ["0", "1"] * 100),
    ]


def assert_views_of_flat(model):
    for p in model.parameters:
        assert np.shares_memory(p, model.flat)
    assert sum(p.size for p in model.parameters) == model.flat.size


class TestFlatSlab:
    @pytest.mark.parametrize("case", range(2))
    def test_flat_update_matches_per_array_loop(self, monkeypatch, case):
        config = TrainConfig(batch_size=32, epochs=4, patience=10, seed=53)
        network, model, x, labels = tiny_networks()[case]
        reference = tiny_networks()[case][1]
        history = mlp.fit(model, x, labels, config, network.backward, network.predict)
        monkeypatch.setattr(mlp, "adadelta_step", PerArrayAdadelta(reference))
        expected = mlp.fit(
            reference, x, labels, config, network.backward, network.predict
        )
        assert history == expected
        assert len(history) == 4
        for p, r in zip(model.parameters, reference.parameters):
            np.testing.assert_array_equal(p, r)

    def test_parameters_are_views_of_one_vector(self, tmp_path):
        for network, model, x, labels in tiny_networks():
            assert_views_of_flat(model)
            assert_views_of_flat(type(model).from_dict(model.to_dict()))
            path = tmp_path / "model.json"
            cli.save_model(model, path)
            loaded = cli.load_model(path)
            assert_views_of_flat(loaded)
            np.testing.assert_array_equal(loaded.flat, model.flat)
            mlp.fit(model, x, labels, TrainConfig(epochs=2, seed=54),
                    network.backward, network.predict)
            assert_views_of_flat(model)

    @pytest.mark.parametrize(
        "duplicate",
        [copy.deepcopy, lambda model: pickle.loads(pickle.dumps(model))],
        ids=["deepcopy", "pickle"],
    )
    def test_copies_keep_their_parameters_in_one_vector(self, duplicate):
        for network, model, x, labels in tiny_networks():
            twin = duplicate(model)
            assert_views_of_flat(twin)
            assert not np.shares_memory(twin.flat, model.flat)
            for p, q in zip(model.parameters, twin.parameters):
                np.testing.assert_array_equal(p, q)
            before = [p.copy() for p in twin.parameters]
            mlp.fit(twin, x, labels, TrainConfig(epochs=1, seed=55),
                    network.backward, network.predict)
            # the steps land in the views forward reads, and in no other model
            for old, new, untouched in zip(before, twin.parameters, model.parameters):
                assert not np.array_equal(old, new)
                np.testing.assert_array_equal(old, untouched)


class TestNetworkRecord:
    @pytest.mark.parametrize("width", [1, 3, 6])
    @pytest.mark.parametrize(
        "build",
        [lambda width: MlpModel([2, 8, 8, width]), lambda width: lstm.LstmModel(2, 4, width)],
        ids=["mlp", "lstm"],
    )
    def test_output_width_must_be_a_power_of_two(self, build, width):
        with pytest.raises(
            NetworkError, match=f"output width must be a power of two >= 2, got {width}"
        ):
            build(width)


class TestTraining:
    def test_learns_xor(self):
        base = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        x = np.tile(base, (100, 1))
        y = ["0", "1", "1", "0"] * 100
        model, history = train(x, y, hidden=(8, 8), config=TrainConfig(seed=3))
        assert predict(model, base) == ["0", "1", "1", "0"]
        assert history[0]["epoch"] == 0
        assert len(history) <= 50

    def test_keeps_best_validation_weights(self):
        base = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        x = np.tile(base, (50, 1))
        y = ["0", "1", "1", "0"] * 50
        config = TrainConfig(seed=9)
        model, history = train(x, y, hidden=(8, 8), config=config)
        _, val_idx = split(y, 1.0 - mlp.VALIDATION_FRACTION, config.seed)
        val_fid = fidelity(
            confusion(predict(model, x[val_idx]), [y[i] for i in val_idx])
        ).average
        assert val_fid == pytest.approx(max(h["val_fidelity"] for h in history))

    def test_training_is_bit_reproducible(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(240, 3))
        y = ["0" if v[0] < 0 else "1" for v in x]
        config = TrainConfig(epochs=4, seed=12)
        model_a, hist_a = train(x, y, hidden=(8, 8), config=config)
        model_b, hist_b = train(x, y, hidden=(8, 8), config=config)
        for wa, wb in zip(model_a.parameters, model_b.parameters):
            np.testing.assert_array_equal(wa, wb)
        assert hist_a == hist_b
        model_c, _ = train(x, y, hidden=(8, 8), config=TrainConfig(epochs=4, seed=13))
        assert any(
            not np.array_equal(wa, wc)
            for wa, wc in zip(model_a.parameters, model_c.parameters)
        )

    def test_uint16_counts_train_like_their_float_copy(self):
        rng = np.random.default_rng(32)
        counts = rng.poisson(3.0, size=(300, 4)).astype(np.uint16)
        y = ["1" if row[0] + row[1] > row[2] + row[3] else "0" for row in counts]
        config = TrainConfig(epochs=4, seed=14)
        model_a, hist_a = train(counts, y, hidden=(8, 8), config=config)
        model_b, hist_b = train(counts.astype(float), y, hidden=(8, 8), config=config)
        np.testing.assert_array_equal(model_a.flat, model_b.flat)
        assert hist_a == hist_b

    def test_matches_count_threshold_on_separable_counts(self):
        # single-feature photon counts: the network has to rediscover the cut
        model_params = sim.EmissionModel()
        rng = np.random.default_rng(41)
        n = 3000
        counts = np.concatenate(
            [
                rng.poisson(0.0033, size=n),
                rng.poisson(model_params.bright_rate * model_params.window_us, size=n),
            ]
        ).astype(float)
        labels = ["0"] * n + ["1"] * n
        perm = np.random.default_rng(42).permutation(2 * n)
        counts, labels = counts[perm], [labels[i] for i in perm]
        train_idx, test_idx = split(labels, 0.8, seed=7)
        train_labels = [labels[i] for i in train_idx]
        test_labels = [labels[i] for i in test_idx]

        fixed = threshold.fit_fixed(
            counts[train_idx, None].astype(int), train_labels
        )
        ft_pred = threshold.classify_fixed(fixed, counts[test_idx, None].astype(int))
        ft_fid = fidelity(confusion(ft_pred, test_labels)).average

        scale = counts[train_idx].max()
        model, _ = train(
            counts[train_idx, None] / scale,
            train_labels,
            hidden=(8, 8),
            config=TrainConfig(epochs=20, seed=5),
        )
        nn_pred = predict(model, counts[test_idx, None] / scale)
        nn_fid = fidelity(confusion(nn_pred, test_labels)).average
        assert nn_fid >= ft_fid - 0.002

    def test_prediction_ties_resolve_to_lowest_index(self):
        model = MlpModel([2, 8, 8, 4], seed=0)
        for w in model.weights:
            w[...] = 0.0
        assert predict(model, np.ones((3, 2))) == ["00", "00", "00"]

    def test_divergence_raises(self):
        # inputs near float max overflow the first matmul into nan losses
        x = np.full((64, 16), 1e308)
        y = ["0", "1"] * 32
        with np.errstate(all="ignore"), pytest.raises(TrainingError):
            train(x, y, hidden=(8, 8), config=TrainConfig(epochs=2, seed=0))

    @staticmethod
    def one_batch_problem():
        # 64 training rows after the 10% hold-out, all in one batch: the
        # power-of-two row count keeps the epoch mean of that batch exact
        x = np.random.default_rng(43).normal(size=(72, 3))
        y = ["0", "1"] * 36
        config = TrainConfig(batch_size=64, epochs=1, seed=6)
        return MlpModel([3, 8, 8, 2], seed=6), x, y, config

    def test_history_loss_is_the_pre_step_batch_loss(self):
        model, x, y, config = self.one_batch_problem()
        initial = copy.deepcopy(model)
        batches = []

        def recording_backward(net, xb, yb):
            batches.append((xb, yb))
            return backward(net, xb, yb)

        history = mlp.fit(model, x, y, config, recording_backward, predict)
        [(xb, yb)] = batches
        assert xb.shape[0] == 64
        assert history[0]["train_loss"] == cross_entropy(forward(initial, xb), yb)
        assert history[0]["train_loss"] != cross_entropy(forward(model, xb), yb)

    def test_non_finite_step_on_last_batch_raises(self):
        # finite loss, so only a check of the stepped parameters can catch it
        model, x, y, config = self.one_batch_problem()

        def nan_backward(net, xb, yb):
            batch_loss, grad = backward(net, xb, yb)
            return batch_loss, np.full_like(grad, np.nan)

        with pytest.raises(TrainingError):
            mlp.fit(model, x, y, config, nan_backward, predict)

    def test_label_row_mismatch_raises(self):
        with pytest.raises(NetworkError):
            train(np.ones((4, 2)), ["0", "1"], hidden=(8, 8))

    @pytest.mark.parametrize("odd", ["1", "0a", "012"])
    def test_unreadable_labels_raise_before_the_first_step(self, monkeypatch, odd):
        def no_step(*args):
            raise AssertionError("a training step ran on unreadable labels")

        monkeypatch.setattr(mlp, "backward", no_step)
        labels = ["00", "01", "10", "11"] * 10 + [odd] * 20
        with pytest.raises(EvaluationError):
            train(np.ones((60, 2)), labels, hidden=(8, 8))

    def test_config_validation(self):
        with pytest.raises(NetworkError):
            TrainConfig(batch_size=0)

    @pytest.mark.parametrize("field", ["batch_size", "epochs", "patience"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, "4", 0])
    def test_config_sizes_must_be_integers(self, field, value):
        with pytest.raises(NetworkError, match=f"{field} must be an integer >= 1"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("value", [True, -1, 2.0, "3", None])
    def test_config_seed_must_be_a_non_negative_integer(self, value):
        with pytest.raises(NetworkError, match="seed must be an integer >= 0"):
            TrainConfig(seed=value)

    def test_config_keeps_numpy_sizes_as_python_ints(self):
        config = TrainConfig(
            batch_size=np.int64(32), epochs=np.uint8(3), patience=np.int32(2), seed=np.uint32(7)
        )
        values = (config.batch_size, config.epochs, config.patience, config.seed)
        assert values == (32, 3, 2, 7)
        assert all(type(v) is int for v in values)


class TestSerialisation:
    def test_round_trip(self, tmp_path):
        model = MlpModel([6, 8, 8, 4], seed=17)
        path = tmp_path / "model.json"
        cli.save_model(model, str(path), metadata={"strategy": "NN"})
        loaded = cli.load_model(str(path))
        assert loaded.layer_sizes == model.layer_sizes
        x = np.random.default_rng(3).normal(size=(5, 6))
        np.testing.assert_array_equal(forward(loaded, x), forward(model, x))

    def test_rejects_foreign_record(self, tmp_path):
        # a recurrent model's fields under the feed-forward format
        record = {"format": MlpModel.FORMAT, "version": 1, **lstm.LstmModel(2, 4, 4).to_dict()}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(dict(record, metadata={})))
        with pytest.raises(cli.ModelFileError, match="ionread.mlp record lacks key 'layer_sizes'"):
            cli.load_model(path)
