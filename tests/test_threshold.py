"""Threshold fitting and iteration against exact-CDF and truth-table oracles."""
import numpy as np
import pytest
from scipy.stats import poisson

from ionread import cli, sim, threshold


def cdf_oracle_threshold(mu_bright, mu_dark, top=40):
    """Exact argmin of P(bright <= theta) + P(dark > theta) over integers."""
    thetas = np.arange(top)
    total = poisson.cdf(thetas, mu_bright) + (1.0 - poisson.cdf(thetas, mu_dark))
    return int(np.argmin(total))


def poisson_counts(rng, mus, n):
    return np.column_stack([rng.poisson(mu, size=n) for mu in np.atleast_1d(mus)])


class TestFitFixed:
    def test_matches_exact_cdf_oracle_on_poisson_data(self):
        # bright Poisson(9) against near-dark Poisson(0.003), 1e5 training shots
        rng = np.random.default_rng(100)
        n = 50000
        bright = rng.poisson(9.0, n)
        dark = rng.poisson(0.003, n)
        counts = np.concatenate([dark, bright])[:, None]
        labels = ["0"] * n + ["1"] * n
        fitted = threshold.fit_fixed(counts, labels)
        oracle = cdf_oracle_threshold(9.0, 0.003)
        assert oracle == 1
        assert fitted.thresholds == (oracle,)

    def test_ties_resolve_to_smaller_threshold(self):
        # any theta in 1..4 separates these counts perfectly
        counts = np.array([[0], [1], [5], [6]])
        labels = ["0", "0", "1", "1"]
        fitted = threshold.fit_fixed(counts, labels)
        assert fitted.thresholds == (1,)

    def test_single_class_channel_rejected(self):
        with pytest.raises(threshold.ThresholdError):
            threshold.fit_fixed(np.array([[3], [4]]), ["1", "1"])

    def test_multi_ion_thresholds_rise_with_crosstalk(self):
        # neighbour leakage pushes dark-channel counts up, so the fitted
        # register thresholds sit at or above the isolated-ion threshold
        model = sim.EmissionModel()
        single = sim.generate_dataset(model, sim.adjacent_geometry(1), 4000, seed=50)
        counts_1 = np.array([[s.num_events] for s in single.samples])
        theta_single = threshold.fit_fixed(counts_1, single.labels).thresholds[0]

        geometry = sim.adjacent_geometry(3)
        register = sim.generate_dataset(model, geometry, 3000, seed=51)
        counts_3 = np.array(
            [[np.sum(s.channels == ch) for ch in geometry.ion_channel]
             for s in register.samples]
        )
        fitted = threshold.fit_fixed(counts_3, register.labels)
        assert all(t >= theta_single for t in fitted.thresholds)
        assert fitted.thresholds[1] >= 1  # the middle ion hears two neighbours

    def test_non_integer_counts_rejected(self):
        with pytest.raises(threshold.ThresholdError):
            threshold.fit_fixed(np.array([[0.5], [2.0]]), ["0", "1"])
        with pytest.raises(threshold.ThresholdError, match=r"counts must be 2-d \(shots, ions\)"):
            threshold.fit_fixed(np.array([0, 2]), ["0", "1"])
        with pytest.raises(threshold.ThresholdError, match="counts must be >= 0"):
            threshold.fit_fixed(np.array([[-1], [2]]), ["0", "1"])

    def test_whole_float_counts_rejected(self):
        # counts are integer arrays; a float array is refused, whole or not
        counts = np.array([[0.0, 3.0], [2.0, 1.0]])
        labels = ["01", "10"]
        fixed = threshold.FixedThresholdModel((1, 1))
        adaptive = threshold.AdaptiveThresholdModel(fixed, ({"0": 1, "1": 1},) * 2)
        for call in (
            lambda: threshold.fit_fixed(counts, labels),
            lambda: threshold.fit_adaptive(counts, labels),
            lambda: threshold.classify_fixed(fixed, counts),
            lambda: threshold.classify_adaptive(adaptive, counts),
        ):
            with pytest.raises(threshold.ThresholdError, match="integer dtype, got float64"):
                call()
        for dtype in (np.uint16, np.int64):
            assert threshold.classify_fixed(fixed, counts.astype(dtype)) == ["01", "10"]


class TestClassifyFixed:
    def test_strictly_greater_reads_bright(self):
        model = threshold.FixedThresholdModel((2,))
        assert threshold.classify_fixed(model, [[2]]) == ["0"]
        assert threshold.classify_fixed(model, [[3]]) == ["1"]

    def test_two_ion_truth_table_matches_bitwise_oracle(self):
        model = threshold.FixedThresholdModel((2, 3))
        grid = [[a, b] for a in range(6) for b in range(6)]
        got = threshold.classify_fixed(model, grid)
        expected = [
            ("1" if a > 2 else "0") + ("1" if b > 3 else "0") for a, b in grid
        ]
        assert got == expected


class TestFitAdaptive:
    def test_context_counts_per_position(self):
        rng = np.random.default_rng(7)
        labels = [l for l in sim.all_labels(3) for _ in range(50)]
        bits = np.array([[int(c) for c in l] for l in labels])
        counts = rng.poisson(bits * 9.0 + 0.01).astype(np.int64)
        model = threshold.fit_adaptive(counts, labels)
        assert len(model.context_thresholds[0]) == 2   # edge: one neighbour
        assert len(model.context_thresholds[1]) == 4   # middle: two neighbours
        assert len(model.context_thresholds[2]) == 2

    def test_no_crosstalk_collapses_to_fixed(self):
        # conditional count distributions identical in every context, with a
        # threshold margin far above sampling noise at this size
        rng = np.random.default_rng(8)
        n = 40000
        labels = [l for l in sim.all_labels(2) for _ in range(n // 4)]
        bits = np.array([[int(c) for c in l] for l in labels])
        counts = rng.poisson(bits * 9.0 + 0.003).astype(np.int64)
        model = threshold.fit_adaptive(counts, labels)
        for i in range(2):
            for ctx_threshold in model.context_thresholds[i].values():
                assert ctx_threshold == model.fixed.thresholds[i]

    def test_neighbour_leakage_raises_context_threshold(self):
        # ion 0 receives leak*9 extra mean counts when ion 1 is bright;
        # the context thresholds must match the exact-CDF oracle on the
        # shifted mixtures and be strictly ordered
        leak = 0.3
        rng = np.random.default_rng(9)
        n = 20000
        labels = [l for l in sim.all_labels(2) for _ in range(n)]
        bits = np.array([[int(c) for c in l] for l in labels])
        mu0 = bits[:, 0] * 9.0 + 0.05 + leak * 9.0 * bits[:, 1]
        mu1 = bits[:, 1] * 9.0 + 0.05
        counts = np.column_stack([rng.poisson(mu0), rng.poisson(mu1)])
        model = threshold.fit_adaptive(counts, labels)
        theta_quiet = model.context_thresholds[0]["0"]
        theta_noisy = model.context_thresholds[0]["1"]
        assert theta_quiet == cdf_oracle_threshold(9.0 + 0.05, 0.05)
        assert theta_noisy == cdf_oracle_threshold(9.0 + 0.05 + 2.7, 0.05 + 2.7)
        assert theta_noisy > theta_quiet

    def test_starved_context_inherits_fixed(self):
        rng = np.random.default_rng(10)
        # ion 1 is almost never bright, starving ion 0's "1" context
        labels = (["00"] * 200 + ["10"] * 200 + ["01"] * 3 + ["11"] * 3)
        bits = np.array([[int(c) for c in l] for l in labels])
        counts = rng.poisson(bits * 9.0 + 0.01).astype(np.int64)
        model = threshold.fit_adaptive(counts, labels)
        assert model.starved_contexts
        for ion, ctx in model.starved_contexts:
            assert model.context_thresholds[ion][ctx] == model.fixed.thresholds[ion]


class TestClassifyAdaptive:
    def test_equal_thresholds_collapse_to_fixed_bitwise(self):
        fixed = threshold.FixedThresholdModel((2, 2, 2))
        tables = []
        for i in range(3):
            width = len(threshold.neighbour_indices(3, i))
            tables.append({format(c, f"0{width}b"): 2 for c in range(2**width)})
        model = threshold.AdaptiveThresholdModel(fixed, tuple(tables))
        rng = np.random.default_rng(11)
        counts = rng.integers(0, 12, size=(500, 3))
        got, converged = threshold.classify_adaptive(model, counts)
        assert converged.all()
        assert got == threshold.classify_fixed(fixed, counts)

    def test_two_ion_fixed_point_matches_truth_table_oracle(self):
        # ion 0's context threshold flips its bit once ion 1 resolves bright
        fixed = threshold.FixedThresholdModel((5, 5))
        model = threshold.AdaptiveThresholdModel(
            fixed, ({"0": 5, "1": 1}, {"0": 5, "1": 5})
        )
        counts = np.array([[3, 8]])
        got, converged = threshold.classify_adaptive(model, counts)
        assert converged.all()

        def update(b):
            return (
                int(counts[0, 0] > (1 if b[1] else 5)),
                int(counts[0, 1] > 5),
            )

        fixed_points = [
            (a, b) for a in (0, 1) for b in (0, 1) if update((a, b)) == (a, b)
        ]
        assert fixed_points == [(1, 1)]
        assert got == ["11"]

    def test_oscillation_flagged_as_unconverged(self):
        fixed = threshold.FixedThresholdModel((5, 5))
        model = threshold.AdaptiveThresholdModel(
            fixed, ({"0": 1, "1": 5}, {"0": 1, "1": 5})
        )
        counts = np.array([[3, 3]])
        _, converged = threshold.classify_adaptive(model, counts)
        assert not converged[0]

    def test_high_convergence_rate_on_simulated_register(self):
        model = sim.EmissionModel()
        geometry = sim.alternating_geometry(3)
        ds = sim.generate_dataset(model, geometry, 500, seed=60)
        counts = np.array(
            [[np.sum(s.channels == ch) for ch in geometry.ion_channel]
             for s in ds.samples]
        )
        fitted = threshold.fit_adaptive(counts, ds.labels)
        _, converged = threshold.classify_adaptive(fitted, counts)
        assert converged.mean() >= 0.999


class TestCountColumns:
    FIXED = threshold.FixedThresholdModel((2, 3))

    @pytest.mark.parametrize(
        "classify, model",
        [
            (threshold.classify_fixed, FIXED),
            (
                threshold.classify_adaptive,
                threshold.AdaptiveThresholdModel(FIXED, ({"0": 2, "1": 2}, {"0": 3, "1": 3})),
            ),
        ],
        ids=["fixed", "adaptive"],
    )
    @pytest.mark.parametrize("columns", [1, 3])
    def test_counts_of_another_width_are_refused(self, classify, model, columns):
        counts = np.zeros((4, columns), dtype=np.int64)
        with pytest.raises(
            threshold.ThresholdError, match=f"expected 2 ion columns, got {columns}"
        ):
            classify(model, counts)


class TestSerialisation:
    def test_negative_thresholds_are_refused(self):
        with pytest.raises(threshold.ThresholdError, match="thresholds must be >= 0"):
            threshold.FixedThresholdModel((-3, 2))
        with pytest.raises(threshold.ThresholdError, match=r"context_thresholds\[1\] must be >= 0"):
            threshold.AdaptiveThresholdModel(
                threshold.FixedThresholdModel((1, 2)), ({"0": 1, "1": 3}, {"0": -1, "1": 2})
            )

    def test_fixed_round_trip(self, tmp_path):
        model = threshold.FixedThresholdModel((1, 2, 3))
        path = tmp_path / "fixed.json"
        cli.save_model(model, path)
        assert cli.load_model(path) == model

    def test_adaptive_round_trip(self, tmp_path):
        model = threshold.AdaptiveThresholdModel(
            fixed=threshold.FixedThresholdModel((1, 2)),
            context_thresholds=({"0": 1, "1": 3}, {"0": 2, "1": 2}),
            starved_contexts=((1, "0"),),
        )
        path = tmp_path / "adaptive.json"
        cli.save_model(model, path)
        back = cli.load_model(path)
        assert back.fixed == model.fixed
        assert back.context_thresholds == model.context_thresholds
        assert back.starved_contexts == model.starved_contexts
