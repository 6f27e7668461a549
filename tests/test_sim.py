"""Simulator checks against closed-form and quadrature oracles."""
import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.stats import poisson

from ionread import cli, features, sim


def flip_count_pmf_oracle(k, state, bright_rate, flip_rate, window, background):
    """Independent oracle: count pmf marginalised over the single flip time.

    Uses adaptive quadrature, unlike the library's fixed-node rule.
    """
    if state == 1:
        def integrand(tau):
            return flip_rate * np.exp(-flip_rate * tau) * poisson.pmf(
                k, bright_rate * tau + background
            )
        no_flip = poisson.pmf(k, bright_rate * window + background)
    else:
        def integrand(tau):
            return flip_rate * np.exp(-flip_rate * tau) * poisson.pmf(
                k, bright_rate * (window - tau) + background
            )
        no_flip = poisson.pmf(k, background)
    if flip_rate == 0.0:
        return no_flip
    tail, _ = integrate.quad(integrand, 0.0, window, limit=200)
    return tail + np.exp(-flip_rate * window) * no_flip


class TestSimulateIon:
    def test_bright_counts_poisson_mean_nine(self):
        model = sim.EmissionModel(
            pump_bright_to_dark_rate=0.0, pump_dark_to_bright_rate=0.0
        )
        rng = np.random.default_rng(11)
        counts = np.array(
            [sim.simulate_ion(1, model, rng).size for _ in range(20000)]
        )
        se = 3.0 / np.sqrt(counts.size)
        assert abs(counts.mean() - 9.0) < 3.0 * se
        # variance equals the mean for a Poisson count
        assert abs(counts.var() - 9.0) < 5.0 * se * np.sqrt(2 * 9.0)

    def test_dark_without_pumping_never_emits(self):
        model = sim.EmissionModel(pump_dark_to_bright_rate=0.0)
        rng = np.random.default_rng(3)
        for _ in range(200):
            assert sim.simulate_ion(0, model, rng).size == 0

    def test_arrivals_sorted_inside_window(self):
        model = sim.EmissionModel()
        rng = np.random.default_rng(5)
        for _ in range(500):
            times = sim.simulate_ion(1, model, rng)
            assert np.all(np.diff(times) >= 0.0)
            if times.size:
                assert 0.0 <= times[0] and times[-1] < model.window_us

    def test_bright_flip_low_count_tail_matches_quadrature_oracle(self):
        # A visible bright->dark flip rate produces excess mass at low counts
        # relative to the pure Poisson distribution.
        model = sim.EmissionModel(
            pump_bright_to_dark_rate=2e-3,
            pump_dark_to_bright_rate=0.0,
            background_scatter_rate=0.0,
            detector_dark_rate=0.0,
        )
        rng = np.random.default_rng(42)
        n = 40000
        counts = np.array([sim.simulate_ion(1, model, rng).size for _ in range(n)])
        tail_mass_oracle = sum(
            flip_count_pmf_oracle(k, 1, 0.06, 2e-3, 150.0, 0.0) for k in range(5)
        )
        tail_mass_poisson = poisson.cdf(4, 9.0)
        assert tail_mass_oracle > 2.0 * tail_mass_poisson
        observed = np.mean(counts <= 4)
        se = np.sqrt(tail_mass_oracle * (1 - tail_mass_oracle) / n)
        assert abs(observed - tail_mass_oracle) < 4.0 * se

    def test_dark_flip_high_count_tail_matches_quadrature_oracle(self):
        model = sim.EmissionModel(
            pump_bright_to_dark_rate=0.0,
            pump_dark_to_bright_rate=1e-3,
            background_scatter_rate=0.0,
            detector_dark_rate=0.0,
        )
        rng = np.random.default_rng(43)
        n = 40000
        counts = np.array([sim.simulate_ion(0, model, rng).size for _ in range(n)])
        mass_oracle = 1.0 - sum(
            flip_count_pmf_oracle(k, 0, 0.06, 1e-3, 150.0, 0.0) for k in range(2)
        )
        observed = np.mean(counts >= 2)
        se = np.sqrt(mass_oracle * (1 - mass_oracle) / n)
        assert abs(observed - mass_oracle) < 4.0 * se

    def test_dark_first_arrival_later_than_bright(self):
        # Conditioned on seeing any signal photon, a dark-prepared ion fires
        # later than a bright-prepared one: its photons start at the flip.
        model = sim.EmissionModel(
            pump_bright_to_dark_rate=1e-3, pump_dark_to_bright_rate=1e-2
        )
        rng = np.random.default_rng(7)
        first_bright = []
        first_dark = []
        for _ in range(4000):
            tb = sim.simulate_ion(1, model, rng)
            if tb.size:
                first_bright.append(tb[0])
            td = sim.simulate_ion(0, model, rng)
            if td.size:
                first_dark.append(td[0])
        assert len(first_dark) > 100
        assert np.mean(first_dark) > np.mean(first_bright)

    def test_invalid_state_rejected(self):
        with pytest.raises(sim.SimulationError):
            sim.simulate_ion(2, sim.EmissionModel(), np.random.default_rng(0))


class TestRouteEvents:
    def test_identity_routing_keeps_all_photons(self):
        geometry = sim.single_ion_geometry()
        model = sim.EmissionModel(background_scatter_rate=0.0, detector_dark_rate=0.0)
        rng = np.random.default_rng(1)
        times_in = np.sort(rng.uniform(0, 150.0, 37))
        channels, times = sim.route_events([times_in], geometry, model, rng)
        assert channels.size == 37
        assert np.all(channels == 0)
        assert np.all(np.diff(times) >= 0.0)

    def test_photon_conservation_with_crosstalk(self):
        geometry = sim.alternating_geometry(3)
        model = sim.EmissionModel(background_scatter_rate=0.0, detector_dark_rate=0.0)
        rng = np.random.default_rng(2)
        ion_times = [np.sort(rng.uniform(0, 150.0, n)) for n in (12, 5, 9)]
        channels, _ = sim.route_events(ion_times, geometry, model, rng)
        assert channels.size == 12 + 5 + 9

    def test_crosstalk_thinning_matches_binomial_expectation(self):
        # 5% leak onto one neighbour channel: the neighbour sees a thinned
        # Poisson stream with mean 0.05 * 9 = 0.45.
        geometry = sim.DetectorGeometry(
            num_ions=1,
            num_channels=2,
            ion_channel=(0,),
            crosstalk=((0.95, 0.05),),
            intermediate_channels_present=True,
        )
        model = sim.EmissionModel(
            pump_bright_to_dark_rate=0.0,
            pump_dark_to_bright_rate=0.0,
            background_scatter_rate=0.0,
            detector_dark_rate=0.0,
        )
        rng = np.random.default_rng(8)
        n = 20000
        neighbour = np.empty(n)
        own = np.empty(n)
        for i in range(n):
            times = sim.simulate_ion(1, model, rng)
            channels, _ = sim.route_events([times], geometry, model, rng)
            neighbour[i] = np.sum(channels == 1)
            own[i] = np.sum(channels == 0)
        assert abs(neighbour.mean() - 0.45) < 4.0 * np.sqrt(0.45 / n)
        assert abs(own.mean() - 8.55) < 4.0 * np.sqrt(8.55 / n)

    def test_background_rate_one_false_count_per_300_shots(self):
        geometry = sim.alternating_geometry(2)  # three channels
        model = sim.EmissionModel()
        rng = np.random.default_rng(9)
        n = 100000
        per_channel_mean = model.background_rate * model.window_us
        assert abs(per_channel_mean - 1.0 / 303.0) < 2e-5
        empty = [np.empty(0), np.empty(0)]
        totals = np.empty(n)
        for i in range(n):
            channels, _ = sim.route_events(empty, geometry, model, rng)
            totals[i] = channels.size
        expected = 3 * per_channel_mean
        assert abs(totals.mean() - expected) < 4.0 * np.sqrt(expected / n)

    def test_intermediate_channels_dropped_when_absent(self):
        geometry = sim.DetectorGeometry(
            num_ions=2,
            num_channels=3,
            ion_channel=(0, 2),
            crosstalk=((0.5, 0.5, 0.0), (0.0, 0.5, 0.5)),
            intermediate_channels_present=False,
        )
        model = sim.EmissionModel(background_scatter_rate=0.0, detector_dark_rate=0.0)
        rng = np.random.default_rng(10)
        ion_times = [np.sort(rng.uniform(0, 150.0, 200)), np.sort(rng.uniform(0, 150.0, 200))]
        channels, _ = sim.route_events(ion_times, geometry, model, rng)
        assert channels.size < 400
        assert not np.any(channels == 1)

    def test_times_quantised_and_ties_ordered_by_channel(self):
        geometry = sim.alternating_geometry(2)
        model = sim.EmissionModel()
        rng = np.random.default_rng(12)
        ion_times = [np.sort(rng.uniform(0, 150.0, 300)), np.sort(rng.uniform(0, 150.0, 300))]
        channels, times = sim.route_events(ion_times, geometry, model, rng)
        scaled = times / sim.TIME_RESOLUTION_US
        assert np.allclose(scaled, np.round(scaled), atol=1e-9)
        same_time = np.diff(times) == 0.0
        assert np.all(np.diff(channels)[same_time] >= 0)


class TestGenerateDataset:
    def test_label_balance_and_order(self):
        model = sim.EmissionModel()
        geometry = sim.alternating_geometry(3)
        ds = sim.generate_dataset(model, geometry, samples_per_label=2, seed=1)
        assert len(ds) == 16
        assert ds.labels.tolist() == [l for l in sim.all_labels(3) for _ in range(2)]

    def test_labels_built_once(self):
        ds = sim.generate_dataset(sim.EmissionModel(), sim.single_ion_geometry(), 3, seed=2)
        assert ds.labels is ds.labels
        assert ds.labels.tolist() == [s.label for s in ds.samples]

    def test_single_ion_bright_mean_at_scale(self):
        # 1e5-shot dataset: the bright-state count mean stays within 3 sigma.
        model = sim.EmissionModel(
            pump_bright_to_dark_rate=0.0, pump_dark_to_bright_rate=0.0
        )
        geometry = sim.single_ion_geometry()
        ds = sim.generate_dataset(model, geometry, samples_per_label=50000, seed=77)
        counts = np.array([s.num_events for s in ds.samples if s.label == "1"])
        assert counts.size == 50000
        mean_bg = model.background_rate * model.window_us
        expected = 9.0 + mean_bg
        assert abs(counts.mean() - expected) < 3.0 * 3.0 / np.sqrt(counts.size)

    def test_regeneration_is_bit_identical(self, tmp_path):
        model = sim.EmissionModel()
        geometry = sim.alternating_geometry(2)
        a = sim.generate_dataset(model, geometry, 40, seed=5)
        b = sim.generate_dataset(model, geometry, 40, seed=5)
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        sim.save_dataset(a, pa)
        sim.save_dataset(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_worker_started_by_a_fork_server_keeps_running(self):
        # under forkserver a worker's parent is the fork server, not the pool's
        # caller: the watcher must not take that for the caller's death
        context = multiprocessing.get_context("forkserver")
        with ProcessPoolExecutor(
            1, mp_context=context, initializer=cli.exit_with_parent
        ) as pool:
            worker = pool.submit(os.getpid).result(timeout=60)
            time.sleep(4 * cli.PARENT_POLL_S)
            assert pool.submit(os.getpid).result(timeout=60) == worker
        assert worker != os.getpid()

    def test_seed_changes_output(self, tmp_path):
        model = sim.EmissionModel()
        geometry = sim.single_ion_geometry()
        a = sim.generate_dataset(model, geometry, 50, seed=1)
        b = sim.generate_dataset(model, geometry, 50, seed=2)
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        sim.save_dataset(a, pa)
        sim.save_dataset(b, pb)
        assert pa.read_bytes() != pb.read_bytes()

    def test_pool_mode_deterministic_and_background_stacks(self, tmp_path):
        model = sim.EmissionModel(
            pump_bright_to_dark_rate=0.0, pump_dark_to_bright_rate=0.0
        )
        geometry = sim.alternating_geometry(2)
        a = sim.generate_dataset(model, geometry, 400, seed=9, mode="pool")
        b = sim.generate_dataset(model, geometry, 400, seed=9, mode="pool")
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        sim.save_dataset(a, pa)
        sim.save_dataset(b, pb)
        assert pa.read_bytes() == pb.read_bytes()
        # superimposed recordings accumulate one background pass per ion
        dark = np.array([s.num_events for s in a.samples if s.label == "00"])
        expected = 2 * 3 * model.background_rate * model.window_us
        assert abs(dark.mean() - expected) < 5.0 * np.sqrt(expected / dark.size)

    def test_pool_entry_index_matches_label_scan(self):
        for num_ions in range(1, 8):
            for label_index in range(2**num_ions):
                for ion in range(num_ions):
                    mask = 1 << (num_ions - 1 - ion)
                    for bit in (0, 1):
                        earlier = sum(
                            1 for l in range(label_index) if bool(l & mask) == bool(bit)
                        )
                        got = sim._pool_entry_index(label_index, 3, ion, bit, num_ions, 7)
                        assert got == earlier * 7 + 3

    def test_rejects_too_many_ions(self):
        with pytest.raises(sim.SimulationError):
            sim.alternating_geometry(13)


QUIET = dict(
    pump_bright_to_dark_rate=0.0,
    pump_dark_to_bright_rate=0.0,
    background_scatter_rate=0.0,
    detector_dark_rate=0.0,
)


def channel_counts(dataset):
    """(shots, num_channels) event counts per channel, from the columns."""
    shot = np.repeat(np.arange(len(dataset)), np.diff(dataset.offsets))
    counts = np.zeros((len(dataset), dataset.geometry.num_channels))
    np.add.at(counts, (shot, dataset.channels), 1.0)
    return counts


def label_counts(dataset, label):
    """Events per shot of one label."""
    return np.diff(dataset.offsets)[dataset.labels == label]


class TestBlockSampler:
    """The law of the fresh block sampler, checked on generated datasets."""

    @pytest.mark.parametrize(
        "geometry, per_label",
        [(sim.alternating_geometry(3), 20000), (sim.adjacent_geometry(5), 2000)],
    )
    def test_channel_means_match_analytic_law(self, geometry, per_label):
        model = sim.calibrate_to_fidelity(0.995)
        ds = sim.generate_dataset(model, geometry, per_label, seed=31)
        expected = sim.expected_channel_means(model, geometry, "fresh")
        counts = channel_counts(ds)
        if not geometry.intermediate_channels_present:
            counts = counts[:, list(geometry.ion_channel)]
        counts = counts.reshape(2**geometry.num_ions, per_label, -1)
        sigma = np.sqrt(np.maximum(counts.var(axis=1, ddof=1), expected) / per_label)
        assert np.all(np.abs(counts.mean(axis=1) - expected) < 5.0 * sigma)

    @pytest.mark.parametrize("state", [0, 1])
    def test_single_ion_counts_follow_the_exact_pmf(self, state):
        model = sim.calibrate_to_fidelity(0.995)
        ds = sim.generate_dataset(model, sim.single_ion_geometry(), 50000, seed=32)
        counts = label_counts(ds, str(state))
        pmf = sim.count_distribution(state, model)
        # pool the sparse tail so every expected cell holds at least 5 shots
        expected = pmf * counts.size
        last = int(np.flatnonzero(expected >= 5.0)[-1]) if state else 1
        observed = np.bincount(np.minimum(counts, last), minlength=last + 1)
        cells = np.append(expected[:last], expected[last:].sum())
        assert observed.size == cells.size
        cells *= counts.size / cells.sum()
        assert stats.chisquare(observed, cells).pvalue > 1e-3

    def test_bright_flip_low_count_tail_matches_quadrature_oracle(self):
        model = sim.EmissionModel(**dict(QUIET, pump_bright_to_dark_rate=2e-3))
        counts = label_counts(
            sim.generate_dataset(model, sim.single_ion_geometry(), 40000, seed=33), "1"
        )
        oracle = sum(flip_count_pmf_oracle(k, 1, 0.06, 2e-3, 150.0, 0.0) for k in range(5))
        se = np.sqrt(oracle * (1 - oracle) / counts.size)
        assert abs(np.mean(counts <= 4) - oracle) < 4.0 * se

    def test_dark_flip_high_count_tail_matches_quadrature_oracle(self):
        model = sim.EmissionModel(**dict(QUIET, pump_dark_to_bright_rate=1e-3))
        counts = label_counts(
            sim.generate_dataset(model, sim.single_ion_geometry(), 40000, seed=34), "0"
        )
        oracle = 1.0 - sum(
            flip_count_pmf_oracle(k, 0, 0.06, 1e-3, 150.0, 0.0) for k in range(2)
        )
        se = np.sqrt(oracle * (1 - oracle) / counts.size)
        assert abs(np.mean(counts >= 2) - oracle) < 4.0 * se

    def test_crosstalk_thins_a_poisson_stream_binomially(self):
        # 5% leak onto one neighbour channel: two independent Poisson streams
        # with means 0.05 * 9 and 0.95 * 9
        geometry = sim.DetectorGeometry(1, 2, (0,), ((0.95, 0.05),), True)
        ds = sim.generate_dataset(sim.EmissionModel(**QUIET), geometry, 20000, seed=35)
        counts = channel_counts(ds)[ds.labels == "1"]
        n = counts.shape[0]
        for channel, mean in ((1, 0.45), (0, 8.55)):
            assert abs(counts[:, channel].mean() - mean) < 4.0 * np.sqrt(mean / n)
            assert abs(counts[:, channel].var() - mean) < 5.0 * mean * np.sqrt(2.0 / n)
        assert abs(np.corrcoef(counts.T)[0, 1]) < 4.0 / np.sqrt(n)

    def test_background_one_false_count_per_300_shots(self):
        geometry = sim.alternating_geometry(2)  # three channels
        model = sim.EmissionModel(pump_dark_to_bright_rate=0.0)
        ds = sim.generate_dataset(model, geometry, 100000, seed=36)
        totals = label_counts(ds, "00")
        expected = 3 * model.background_rate * model.window_us
        assert abs(totals.mean() - expected) < 4.0 * np.sqrt(expected / totals.size)

    def test_channels_without_mass_receive_nothing(self):
        # the first and last channels carry no mass in any row, and no
        # background; the middle channels split the photons
        geometry = sim.DetectorGeometry(
            2, 4, (1, 2), ((0.0, 0.7, 0.3, 0.0), (0.0, 0.0, 1.0, 0.0)), True
        )
        ds = sim.generate_dataset(sim.EmissionModel(**QUIET), geometry, 3000, seed=37)
        seen = np.bincount(ds.channels, minlength=4)
        assert seen[0] == 0 and seen[3] == 0
        assert seen[1] > 0 and seen[2] > 0
        only_ion_1 = channel_counts(ds)[ds.labels == "01"]
        assert only_ion_1[:, 1].sum() == 0

    def test_unrecorded_channels_are_dropped(self):
        geometry = sim.DetectorGeometry(
            2, 3, (0, 2), ((0.5, 0.5, 0.0), (0.0, 0.5, 0.5)), False
        )
        ds = sim.generate_dataset(sim.EmissionModel(), geometry, 500, seed=38)
        assert ds.channels.size > 0
        assert not np.any(ds.channels == 1)

    def test_events_quantised_and_ordered_by_time_then_channel(self):
        ds = sim.generate_dataset(
            sim.EmissionModel(), sim.alternating_geometry(3), 2000, seed=39
        )
        assert ds.channels.dtype == np.int16 and ds.times.dtype == np.float64
        ticks = ds.times / sim.TIME_RESOLUTION_US
        np.testing.assert_allclose(ticks, np.round(ticks), rtol=0, atol=1e-9)
        np.testing.assert_array_equal(ds.times, np.round(ds.times, 1))
        shot = np.repeat(np.arange(len(ds)), np.diff(ds.offsets))
        order = np.lexsort((ds.channels, ds.times, shot))
        np.testing.assert_array_equal(order, np.arange(order.size))
        assert np.all((ds.times >= 0.0) & (ds.times < ds.model.window_us))

    def test_blocks_and_remainder_repeat_exactly(self):
        per_label = 2 * sim.BLOCK_SHOTS + 5
        model, geometry = sim.EmissionModel(), sim.alternating_geometry(1)
        serial = sim.generate_dataset(model, geometry, per_label, seed=40)
        repeat = sim.generate_dataset(model, geometry, per_label, seed=40)
        assert len(serial) == 2 * per_label
        for column in ("offsets", "channels", "times", "window_us", "states"):
            np.testing.assert_array_equal(getattr(serial, column), getattr(repeat, column))
        # each block draws from its own stream
        counts = label_counts(serial, "1")
        blocks = counts[: 2 * sim.BLOCK_SHOTS].reshape(2, sim.BLOCK_SHOTS)
        assert not np.array_equal(blocks[0], blocks[1])


class TestSamplesView:
    @pytest.fixture
    def dataset(self):
        return sim.generate_dataset(
            sim.EmissionModel(), sim.alternating_geometry(3), 40, seed=41
        )

    def test_indexing_builds_samples_from_the_columns(self, dataset):
        view = dataset.samples
        assert len(view) == len(dataset) == 320
        for i in (0, np.int64(57), -1, 319):
            sample = view[i]
            k = int(i) % len(dataset)
            lo, hi = dataset.offsets[k], dataset.offsets[k + 1]
            assert sample.label == dataset.labels[k] and type(sample.label) is str
            assert sample.window_us == 150.0 and type(sample.window_us) is float
            np.testing.assert_array_equal(sample.channels, dataset.channels[lo:hi])
            np.testing.assert_array_equal(sample.times, dataset.times[lo:hi])
            assert sample.num_events == hi - lo
            assert np.shares_memory(sample.times, dataset.times) or hi == lo
        with pytest.raises(IndexError):
            view[320]
        with pytest.raises(IndexError):
            view[-321]

    def test_nothing_is_cached_and_nothing_is_writable(self, dataset):
        view = dataset.samples
        assert view[5] is not view[5]
        with pytest.raises(ValueError):
            view[5].times[:] = 0.0
        with pytest.raises(ValueError):
            dataset.labels[0] = "000"

    def test_slices_are_views_and_iteration_walks_every_shot(self, dataset):
        shots = list(dataset.samples)
        assert len(shots) == len(dataset)
        for key in (slice(10, 50), slice(None, None, 7), slice(300, 5, -3), slice(5, 5)):
            part = dataset.samples[key]
            assert isinstance(part, sim.Samples)
            expected = shots[key]
            assert len(part) == len(expected)
            for a, b in zip(part, expected):
                assert a.label == b.label
                np.testing.assert_array_equal(a.times, b.times)
                np.testing.assert_array_equal(a.channels, b.channels)
        assert dataset.samples[10:50][3].label == shots[13].label

    @pytest.mark.parametrize("key", [slice(None), slice(3, 200), slice(None, None, -5)])
    def test_featurizing_a_view_equals_featurizing_its_list(self, dataset, key):
        view = dataset.samples[key]
        for spec in (
            features.FeatureSpec(num_bins=1),
            features.FeatureSpec(num_bins=15, include_intermediate=True),
        ):
            np.testing.assert_array_equal(
                features.featurize_dataset(view, spec, dataset.geometry),
                features.featurize_dataset(list(view), spec, dataset.geometry),
            )
            np.testing.assert_array_equal(
                features.sequence_dataset(view, spec, dataset.geometry),
                features.sequence_dataset(list(view), spec, dataset.geometry),
            )


class TestCountDistribution:
    def test_normalised_and_matches_independent_quadrature(self):
        model = sim.EmissionModel(
            pump_bright_to_dark_rate=4e-4, pump_dark_to_bright_rate=2e-5
        )
        for state in (0, 1):
            pmf = sim.count_distribution(state, model)
            assert abs(pmf.sum() - 1.0) < 1e-9
            flip = (
                model.pump_bright_to_dark_rate
                if state == 1
                else model.pump_dark_to_bright_rate
            )
            bg = model.background_rate * model.window_us
            for k in (0, 1, 5, 12):
                oracle = flip_count_pmf_oracle(k, state, 0.06, flip, 150.0, bg)
                assert abs(pmf[k] - oracle) < 1e-9

    def test_zero_rates_give_pure_poisson(self):
        model = sim.EmissionModel(
            pump_bright_to_dark_rate=0.0, pump_dark_to_bright_rate=0.0
        )
        pmf = sim.count_distribution(1, model)
        bg = model.background_rate * model.window_us
        np.testing.assert_allclose(
            pmf[:20], poisson.pmf(np.arange(20), 9.0 + bg), atol=1e-12
        )

    def test_poisson_pmf_matches_scipy(self):
        k = np.arange(120)[:, None]
        mu = np.concatenate([[0.0, 1e-9, 3e-3], np.linspace(0.01, 60.0, 200)])
        np.testing.assert_allclose(
            sim.poisson_pmf(k, mu[None, :]), poisson.pmf(k, mu[None, :]), rtol=0, atol=1e-12
        )
        assert sim.poisson_pmf(0, 0.0) == 1.0 and sim.poisson_pmf(3, 0.0) == 0.0

    def test_rejects_a_state_other_than_0_or_1(self):
        with pytest.raises(sim.SimulationError, match="state"):
            sim.count_distribution(2, sim.EmissionModel())

    def test_quadrature_nodes_built_once_and_read_only(self, monkeypatch):
        calls = []
        real = np.polynomial.legendre.leggauss

        def counting(degree):
            calls.append(degree)
            return real(degree)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
        sim._gauss_legendre.cache_clear()
        model = sim.EmissionModel()
        first = sim.count_distribution(1, model)
        for _ in range(5):
            np.testing.assert_array_equal(sim.count_distribution(1, model), first)
            sim.count_distribution(0, model)
        assert len(calls) <= 1
        nodes, weights = sim._gauss_legendre()
        assert not nodes.flags.writeable and not weights.flags.writeable


class TestCalibration:
    def test_default_model_hits_target_asymmetry(self):
        model = sim.calibrate_to_fidelity(0.995)
        result = sim.single_ion_fidelity(model)
        assert result.threshold == 0
        assert abs(result.average - 0.995) < 1.5e-4
        assert abs(result.fidelity_bright - 0.994) < 5e-4
        assert abs(result.fidelity_dark - 0.996) < 5e-4

    def test_resimulation_with_fresh_seed_confirms_target(self):
        target = 0.99
        model = sim.calibrate_to_fidelity(target)
        theta = sim.single_ion_fidelity(model).threshold
        geometry = sim.single_ion_geometry()
        ds = sim.generate_dataset(model, geometry, samples_per_label=20000, seed=314)
        counts = np.array([s.num_events for s in ds.samples])
        bits = np.array([int(s.label) for s in ds.samples])
        fid_bright = np.mean(counts[bits == 1] > theta)
        fid_dark = np.mean(counts[bits == 0] <= theta)
        assert abs(0.5 * (fid_bright + fid_dark) - target) < 2.5e-3

    def test_target_one_with_zero_rates(self):
        clean = sim.EmissionModel(
            pump_bright_to_dark_rate=0.0,
            pump_dark_to_bright_rate=0.0,
            background_scatter_rate=0.0,
            detector_dark_rate=0.0,
        )
        model = sim.calibrate_to_fidelity(1.0, model=clean)
        result = sim.single_ion_fidelity(model)
        assert result.threshold == 0
        assert result.fidelity_dark == 1.0
        assert result.average > 0.9999

    def test_unreachable_target_raises(self):
        with pytest.raises(sim.CalibrationError):
            sim.calibrate_to_fidelity(0.9999)  # background alone forbids this

    def test_iteration_cap_reported(self):
        with pytest.raises(sim.CalibrationError):
            sim.calibrate_to_fidelity(0.98, tolerance=1e-15, max_iterations=3)


class TestSerialisation:
    def test_round_trip_preserves_everything(self, tmp_path):
        model = sim.EmissionModel()
        geometry = sim.alternating_geometry(3)
        ds = sim.generate_dataset(model, geometry, 10, seed=21)
        path = tmp_path / "ds.jsonl"
        sim.save_dataset(ds, path)
        back = sim.load_dataset(path)
        assert back.seed == 21
        assert back.samples_per_label == 10
        assert back.model == model
        assert back.geometry == geometry
        np.testing.assert_array_equal(back.labels, ds.labels)
        for s0, s1 in zip(ds.samples, back.samples):
            np.testing.assert_array_equal(s0.channels, s1.channels)
            np.testing.assert_array_equal(s0.times, s1.times)

    @pytest.mark.parametrize("mode", ["fresh", "pool"])
    def test_saving_a_loaded_file_rewrites_it_byte_for_byte(self, tmp_path, mode):
        ds = sim.generate_dataset(
            sim.EmissionModel(), sim.adjacent_geometry(3), 12, seed=22, mode=mode
        )
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        sim.save_dataset(ds, first)
        back = sim.load_dataset(first)
        sim.save_dataset(back, second)
        assert first.read_bytes() == second.read_bytes()
        for column in ("offsets", "channels", "times", "window_us", "states"):
            np.testing.assert_array_equal(getattr(back, column), getattr(ds, column))
            assert getattr(back, column).dtype == getattr(ds, column).dtype

    def test_header_is_json_with_format_marker(self, tmp_path):
        ds = sim.generate_dataset(sim.EmissionModel(), sim.single_ion_geometry(), 2, seed=0)
        path = tmp_path / "ds.jsonl"
        sim.save_dataset(ds, path)
        first = path.read_text().splitlines()[0]
        header = json.loads(first)
        assert header["format"] == "ionread.dataset"
        assert header["seed"] == 0

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format":"other"}\n')
        with pytest.raises(sim.SimulationError):
            sim.load_dataset(path)


@pytest.fixture
def lines(tmp_path):
    """The lines of a small 3-ion dataset file: the header, then one per shot."""
    ds = sim.generate_dataset(sim.EmissionModel(), sim.alternating_geometry(3), 2, seed=4)
    path = tmp_path / "ds.jsonl"
    sim.save_dataset(ds, path)
    return path.read_text().splitlines()


class TestLoadValidation:
    def load_with_shot(self, tmp_path, lines, shot):
        """Replace line 3 (the second shot) and load; return the error text."""
        path = tmp_path / "edited.jsonl"
        text = shot if isinstance(shot, str) else json.dumps(shot)
        path.write_text("\n".join(lines[:2] + [text] + lines[3:]) + "\n")
        with pytest.raises(sim.SimulationError) as excinfo:
            sim.load_dataset(path)
        message = str(excinfo.value)
        assert message.startswith(f"{path}:3:")
        return message

    @pytest.mark.parametrize("label", ["0101", "0a0", "01", 101])
    def test_label_must_be_register_bits(self, tmp_path, lines, label):
        shot = {"label": label, "window_us": 150.0, "events": [[0, 1.0]]}
        assert "label" in self.load_with_shot(tmp_path, lines, shot)

    @pytest.mark.parametrize("channel", [-1, 5, 9])
    def test_channel_must_exist(self, tmp_path, lines, channel):
        shot = {"label": "101", "window_us": 150.0, "events": [[0, 1.0], [channel, 2.0]]}
        assert f"event [{channel}, 2.0]" in self.load_with_shot(tmp_path, lines, shot)

    @pytest.mark.parametrize("time", [-12.0, 150.1, float("nan"), float("inf")])
    def test_time_must_lie_in_window(self, tmp_path, lines, time):
        shot = {"label": "101", "window_us": 150.0, "events": [[0, 1.0], [2, time]]}
        assert f"event [2, {time}]" in self.load_with_shot(tmp_path, lines, shot)

    @pytest.mark.parametrize("channel", [1.7, 1.0, True, "1", None])
    def test_channel_must_be_an_integer(self, tmp_path, lines, channel):
        shot = {"label": "101", "window_us": 150.0, "events": [[0, 1.0], [channel, 2.0]]}
        assert f"channel {channel!r}" in self.load_with_shot(tmp_path, lines, shot)

    @pytest.mark.parametrize("window", [0.0, -150.0, float("nan"), float("inf"), "150"])
    def test_window_must_be_a_finite_number_above_zero(self, tmp_path, lines, window):
        shot = {"label": "101", "window_us": window, "events": [[0, 0.0]]}
        assert "window_us" in self.load_with_shot(tmp_path, lines, shot)

    @pytest.mark.parametrize(
        "events",
        [
            [[0, 1.0], [2, 3.5], [0, 2.0]],  # time goes back
            [[0, 1.0], [2, 2.0], [0, 2.0]],  # equal times, channel goes back
        ],
    )
    def test_events_must_be_in_simulator_order(self, tmp_path, lines, events):
        shot = {"label": "101", "window_us": 150.0, "events": events}
        message = self.load_with_shot(tmp_path, lines, shot)
        assert f"event {events[2]} follows {events[1]}" in message

    def test_equal_events_and_shot_boundaries_are_in_order(self, tmp_path, lines):
        # equal (time, channel) pairs are allowed, and a shot may start
        # earlier than the previous shot ended
        path = tmp_path / "ordered.jsonl"
        shot = {"label": "101", "window_us": 150.0, "events": [[0, 0.0], [0, 0.0]]}
        path.write_text("\n".join(lines[:2] + [json.dumps(shot)] + lines[3:]) + "\n")
        assert len(sim.load_dataset(path)) == len(lines) - 1

    @pytest.mark.parametrize(
        "event, complaint",
        [
            ('[2, "42.7"]', "time '42.7' is not a number"),
            ("[2, true]", "time True is not a number"),
            ("[2, null]", "time None is not a number"),
            ("[2, 4.0, 1]", "too many values to unpack"),
            ("2", "cannot unpack"),
            ('"12"', "channel '1' is not an integer"),
        ],
    )
    def test_event_must_be_channel_and_numeric_time(
        self, tmp_path, lines, event, complaint
    ):
        text = f'{{"label": "101", "window_us": 150.0, "events": [[0, 1.0], {event}]}}'
        message = self.load_with_shot(tmp_path, lines, text)
        assert "malformed shot" in message and complaint in message

    @pytest.mark.parametrize(
        "text",
        [
            '{"label": "101", "window_us": 150.0, "events": [[70000, 1.0]]}',
            '{"label": "101", "window_us": 150.0}',
            '{"label": "101", "window_us": 150.0, "events": [[0]]}',
            "not json",
        ],
    )
    def test_unparsable_shot_is_named(self, tmp_path, lines, text):
        assert "malformed shot" in self.load_with_shot(tmp_path, lines, text)


class TestHeaderValidation:
    def load_with_header(self, tmp_path, lines, header):
        path = tmp_path / "edited.jsonl"
        text = header if isinstance(header, str) else json.dumps(header)
        path.write_text("\n".join([text] + lines[1:]) + "\n")
        with pytest.raises(sim.SimulationError) as excinfo:
            sim.load_dataset(path)
        message = str(excinfo.value)
        assert message.startswith(f"{path}:1:")
        return message

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(sim.SimulationError, match=f"{path}:1: bad header"):
            sim.load_dataset(path)

    @pytest.mark.parametrize("text", ["not json", "[1, 2]", '"ionread.dataset"'])
    def test_header_must_be_a_json_object(self, tmp_path, lines, text):
        self.load_with_header(tmp_path, lines, text)

    @pytest.mark.parametrize(
        "key", ["seed", "samples_per_label", "mode", "model", "geometry"]
    )
    def test_missing_key_is_named(self, tmp_path, lines, key):
        header = json.loads(lines[0])
        del header[key]
        assert f"lacks key '{key}'" in self.load_with_header(tmp_path, lines, header)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("model", "bogus_rate", 1.0),
            ("model", "bright_rate", "0.06"),
            ("geometry", "num_ions", "3"),
            ("geometry", "num_ions", 3.0),
            ("geometry", "num_channels", 5.0),
            ("geometry", "crosstalk", [[1.0]]),
        ],
    )
    def test_bad_model_or_geometry(self, tmp_path, lines, section, key, value):
        header = json.loads(lines[0])
        header[section][key] = value
        self.load_with_header(tmp_path, lines, header)

    def test_mode_must_be_known(self, tmp_path, lines):
        header = json.loads(lines[0])
        header["mode"] = "replay"
        message = self.load_with_header(tmp_path, lines, header)
        assert "unknown generation mode 'replay'" in message

    @pytest.mark.parametrize(
        "key, value",
        [
            ("seed", "abc"),
            ("seed", 1.5),
            ("seed", -1),
            ("seed", True),
            ("seed", None),
            ("samples_per_label", -7),
            ("samples_per_label", 0),
            ("samples_per_label", 2.0),
            ("samples_per_label", False),
        ],
    )
    def test_seed_and_samples_per_label_must_be_counts(self, tmp_path, lines, key, value):
        header = json.loads(lines[0])
        header[key] = value
        message = self.load_with_header(tmp_path, lines, header)
        assert f"{key} must be an integer >= " in message


class TestGeometryValidation:
    def test_rows_must_sum_to_one(self):
        with pytest.raises(sim.SimulationError):
            sim.DetectorGeometry(1, 2, (0,), ((0.9, 0.2),))

    def test_duplicate_ion_channels_rejected(self):
        with pytest.raises(sim.SimulationError):
            sim.DetectorGeometry(2, 3, (1, 1), ((1, 0, 0), (0, 0, 1)))

    def test_negative_rates_rejected(self):
        with pytest.raises(sim.SimulationError):
            sim.EmissionModel(bright_rate=-0.1)
