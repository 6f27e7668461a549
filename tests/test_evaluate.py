"""Fidelity accounting: hand-checked matrices, propagation, splits."""
import csv
import math

import numpy as np
import pytest

from ionread.evaluate import (
    EvaluationError,
    bits_to_labels,
    confusion,
    fidelity,
    improvement,
    labels_to_bits,
    labels_to_states,
    report_to_dict,
    split,
    state_labels,
    write_fidelity_csv,
)


class TestLabelHelpers:
    def test_round_trip(self):
        bits = labels_to_bits(["010", "111", "000"])
        np.testing.assert_array_equal(bits, [[0, 1, 0], [1, 1, 1], [0, 0, 0]])
        assert bits_to_labels(bits) == ["010", "111", "000"]

    def test_index_mapping(self):
        states, num_ions = labels_to_states(["101", "000", "011"])
        assert states.tolist() == [5, 0, 3] and num_ions == 3
        assert state_labels(3)[5] == "101" and state_labels(2)[0] == "00"
        assert state_labels(2).tolist() == ["00", "01", "10", "11"]
        assert state_labels(3) is state_labels(3) and not state_labels(3).flags.writeable

    def test_list_and_unicode_array_agree(self):
        labels = ["010", "111", "000", "010", "101", "111"] * 4
        array = np.array(labels)
        assert array.dtype.kind == "U"
        np.testing.assert_array_equal(labels_to_bits(labels), labels_to_bits(array))
        for a, b in zip(labels_to_states(labels), labels_to_states(array)):
            np.testing.assert_array_equal(a, b)
        predicted = labels[1:] + labels[:1]
        np.testing.assert_array_equal(
            confusion(predicted, labels),
            confusion(np.array(predicted), array),
        )
        for a, b in zip(split(labels, 0.5, seed=2), split(array, 0.5, seed=2)):
            np.testing.assert_array_equal(a, b)
        # a strided view of a U array reads the same labels
        np.testing.assert_array_equal(
            labels_to_bits(array[::2]), labels_to_bits(labels[::2])
        )

    def test_rejects_bad_labels(self):
        with pytest.raises(EvaluationError):
            labels_to_bits(["01", "012"])
        with pytest.raises(EvaluationError):
            labels_to_bits(["0", "01"])
        with pytest.raises(EvaluationError):
            labels_to_bits([])
        with pytest.raises(EvaluationError):
            labels_to_bits([0, 1])
        with pytest.raises(EvaluationError):
            labels_to_bits(["", "0"])


class TestConfusion:
    def test_counts_land_in_prepared_row(self):
        matrix = confusion(
            predicted=["0", "1", "1", "0"], prepared=["0", "0", "1", "1"]
        )
        np.testing.assert_array_equal(matrix, [[1, 1], [1, 1]])
        assert matrix.shape == (2**1, 2**1)

    def test_two_ion_indexing(self):
        matrix = confusion(predicted=["10"], prepared=["01"])
        assert matrix[1, 2] == 1
        assert matrix.sum() == 1

    def test_length_mismatch_raises(self):
        with pytest.raises(EvaluationError):
            confusion(["0"], ["0", "1"])
        with pytest.raises(EvaluationError, match="empty evaluation set"):
            confusion([], [])

    @pytest.mark.parametrize("bad", ["0a1", "01", "0111", "012"])
    def test_bad_predicted_label_raises(self, bad):
        with pytest.raises(EvaluationError):
            confusion(["001", bad], ["001", "011"])


class TestFidelity:
    def test_hand_matrix(self):
        # 98/100 and 96/100 correct: average is exactly 0.97
        report = fidelity(np.array([[98, 2], [4, 96]]), strategy="FT")
        np.testing.assert_allclose(report.per_state, [0.98, 0.96], atol=1e-15)
        assert report.average == pytest.approx(0.97, abs=1e-15)
        np.testing.assert_array_equal(report.shots_per_state, [100, 100])

    def test_binomial_stderr(self):
        report = fidelity(np.array([[98, 2], [4, 96]]))
        se0 = math.sqrt(0.98 * 0.02 / 100)
        se1 = math.sqrt(0.96 * 0.04 / 100)
        np.testing.assert_allclose(report.per_state_stderr, [se0, se1], atol=1e-15)
        assert report.average_stderr == pytest.approx(
            math.sqrt(se0**2 + se1**2) / 2, abs=1e-15
        )

    def test_average_is_unweighted_by_shots(self):
        # 1000 vs 10 shots per state must not tilt the average
        report = fidelity(np.array([[900, 100], [1, 9]]))
        assert report.average == pytest.approx((0.9 + 0.9) / 2, abs=1e-15)

    def test_empty_prepared_state_raises(self):
        with pytest.raises(EvaluationError, match="no shots"):
            fidelity(np.array([[5, 0], [0, 0]]))

    def test_non_square_raises(self):
        with pytest.raises(EvaluationError):
            fidelity(np.ones((2, 3)))

    def test_accepts_confusion_matrix(self):
        labels = state_labels(2).tolist() * 7
        matrix = confusion(labels, labels)
        np.testing.assert_array_equal(matrix, np.eye(4, dtype=np.int64) * 7)
        report = fidelity(matrix)
        assert report.average == 1.0
        assert report.average_stderr == 0.0


class TestImprovement:
    def test_hand_value(self):
        # error 1.0% -> 0.7% is a 30% reduction, exactly
        result = improvement(0.990, 0.993)
        assert result.value == pytest.approx(0.3, abs=1e-12)
        assert result.stderr == 0.0

    def test_propagation_from_reports(self):
        base = fidelity(np.array([[98, 2], [4, 96]]), strategy="FT")
        cand = fidelity(np.array([[99, 1], [2, 98]]), strategy="NN")
        result = improvement(base, cand)
        err_b, err_c = 0.03, 0.015
        assert result.value == pytest.approx((err_b - err_c) / err_b, abs=1e-12)
        expected_var = (cand.average_stderr / err_b) ** 2 + (
            err_c * base.average_stderr / err_b**2
        ) ** 2
        assert result.stderr == pytest.approx(math.sqrt(expected_var), abs=1e-12)

    def test_negative_when_candidate_is_worse(self):
        assert improvement(0.99, 0.98).value == pytest.approx(-1.0, abs=1e-12)

    def test_zero_baseline_error_raises(self):
        with pytest.raises(EvaluationError):
            improvement(1.0, 0.99)


class TestSplit:
    def test_deterministic_and_exhaustive(self):
        labels = ["00", "01", "10", "11"] * 25
        train_a, test_a = split(labels, 0.8, seed=3)
        train_b, test_b = split(labels, 0.8, seed=3)
        np.testing.assert_array_equal(train_a, train_b)
        np.testing.assert_array_equal(test_a, test_b)
        combined = np.sort(np.concatenate([train_a, test_a]))
        np.testing.assert_array_equal(combined, np.arange(100))

    def test_stratified_sizes(self):
        labels = ["0"] * 10 + ["1"] * 10
        train, test = split(labels, 0.8, seed=0)
        train_labels = [labels[i] for i in train]
        assert train_labels.count("0") == 8 and train_labels.count("1") == 8
        assert test.size == 4

    def test_half_split_on_two_per_label(self):
        labels = [format(i, "03b") for i in range(8)] * 2
        train, test = split(labels, 0.5, seed=1)
        assert train.size == test.size == 8
        assert sorted(labels[i] for i in train) == sorted(set(labels))

    def test_seed_changes_assignment(self):
        labels = ["0", "1"] * 50
        train_a, _ = split(labels, 0.5, seed=0)
        train_b, _ = split(labels, 0.5, seed=1)
        assert not np.array_equal(train_a, train_b)

    def test_invalid_fraction_raises(self):
        for fraction in (0.0, 1.0, -0.2):
            with pytest.raises(EvaluationError):
                split(["0", "1"], fraction, seed=0)

    def test_unsplittable_label_raises(self):
        with pytest.raises(EvaluationError, match="cannot be split"):
            split(["0", "0", "1"], 0.5, seed=0)


def loop_split(labels, fraction, seed):
    """Per-shot reference split: group by label, permute each in sorted order."""
    by_label = {}
    for i, label in enumerate(labels):
        by_label.setdefault(label, []).append(i)
    rng = np.random.default_rng(np.random.SeedSequence((seed, len(labels))))
    train, test = [], []
    for label in sorted(by_label):
        indices = np.asarray(by_label[label])
        shuffled = indices[rng.permutation(indices.size)]
        n_train = int(round(fraction * indices.size))
        train.extend(shuffled[:n_train])
        test.extend(shuffled[n_train:])
    return np.sort(train), np.sort(test)


class TestLoopReference:
    """The vectorised codec against per-shot Python loops, exactly."""

    @pytest.fixture
    def labels(self):
        states = np.random.default_rng(5).integers(0, 8, size=2000)
        return [format(int(s), "03b") for s in states]

    def test_bits_states_and_labels(self, labels):
        bits = labels_to_bits(labels)
        assert bits.dtype == np.int8
        expected = [[int(c) for c in label] for label in labels]
        np.testing.assert_array_equal(bits, expected)
        states, num_ions = labels_to_states(labels)
        assert states.dtype == np.int64 and num_ions == 3
        np.testing.assert_array_equal(states, [int(label, 2) for label in labels])
        assert bits_to_labels(bits) == labels
        assert bits_to_labels(bits.astype(bool)) == labels

    def test_confusion(self, labels):
        predicted = labels[7:] + labels[:7]
        expected = np.zeros((8, 8), dtype=np.int64)
        for pred, prep in zip(predicted, labels):
            expected[int(prep, 2), int(pred, 2)] += 1
        counts = confusion(predicted, labels)
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(counts, expected)

    @pytest.mark.parametrize("fraction, seed", [(0.4, 1), (0.8, 7), (0.9, 123)])
    def test_split(self, labels, fraction, seed):
        expected = loop_split(labels, fraction, seed)
        for got, want in zip(split(labels, fraction, seed), expected):
            np.testing.assert_array_equal(got, want)


class TestReporting:
    def test_csv_layout(self, tmp_path):
        reports = [
            fidelity(np.array([[98, 2], [4, 96]]), strategy="FT"),
            fidelity(np.array([[99, 1], [1, 99]]), strategy="NN"),
        ]
        path = tmp_path / "fidelity.csv"
        write_fidelity_csv(reports, str(path))
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["strategy", "state", "fidelity", "stderr", "shots"]
        assert len(rows) == 1 + 2 * 3
        assert rows[1][:3] == ["FT", "0", "0.980000"]
        assert rows[3] == ["FT", "average", "0.970000", rows[3][3], "200"]
        assert rows[6][0] == "NN" and rows[6][1] == "average"

    def test_report_dict(self):
        report = fidelity(np.array([[98, 2], [4, 96]]), strategy="AT")
        data = report_to_dict(report)
        assert data["strategy"] == "AT"
        assert data["average"] == pytest.approx(0.97)
        assert data["per_state"]["1"]["shots"] == 100
        assert data["per_state"]["0"]["fidelity"] == pytest.approx(0.98)
