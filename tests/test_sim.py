"""Simulator checks against closed-form and quadrature oracles."""
import dataclasses
import hashlib
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


class TestGenerationContract:
    """The bytes ``save_dataset`` writes for fixed seeds, pinned across commits.

    Any change to a random draw, its order, the quantisation or the file
    format moves a pin; such a change updates the pins and says so.
    """

    @pytest.mark.parametrize(
        "mode, geometry, digest",
        [
            ("fresh", sim.alternating_geometry(3),
             "7435a0c396641833a5fa45f529ae48baec6fe968cbf8abca1fe368c13aec5041"),
            ("fresh", sim.adjacent_geometry(3),
             "7a4507aaa68a0eb145931e464e8122aa48e562cab23ad557f08851af01dfb3fd"),
            ("pool", sim.alternating_geometry(3),
             "5c4e7e520e7c5318640ab8b55f9cfb436758cee45d574cae4d1ddd56cd3c0b60"),
            ("pool", sim.adjacent_geometry(3),
             "ec7483d9f1d8eecc71b00026cdecbc0ae1ff1444d69787a947fa6f7a0f327fdd"),
        ],
        ids=["fresh-alternating", "fresh-adjacent", "pool-alternating", "pool-adjacent"],
    )
    def test_saved_bytes_match_the_pin(self, tmp_path, mode, geometry, digest):
        ds = sim.generate_dataset(sim.EmissionModel(), geometry, 30, seed=14, mode=mode)
        path = tmp_path / "ds.jsonl"
        sim.save_dataset(ds, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


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
    """The sampler law, checked on datasets that ``generate_dataset`` makes."""

    mode = "fresh"
    # the pool cases draw 1 / shrink of the fresh shots; the bounds scale
    shrink = 1

    def generate(self, model, geometry, per_label, seed):
        return sim.generate_dataset(
            model, geometry, per_label // self.shrink, seed=seed, mode=self.mode
        )

    @pytest.mark.parametrize(
        "geometry, per_label",
        [(sim.alternating_geometry(3), 20000), (sim.adjacent_geometry(5), 2000)],
    )
    def test_channel_means_match_analytic_law(self, geometry, per_label):
        model = sim.calibrate_to_fidelity(0.995)
        ds = self.generate(model, geometry, per_label, seed=31)
        expected = sim.expected_channel_means(model, geometry, self.mode)
        counts = channel_counts(ds)
        if not geometry.intermediate_channels_present:
            counts = counts[:, list(geometry.ion_channel)]
        counts = counts.reshape(2**geometry.num_ions, ds.samples_per_label, -1)
        sigma = np.sqrt(np.maximum(counts.var(axis=1, ddof=1), expected) / ds.samples_per_label)
        assert np.all(np.abs(counts.mean(axis=1) - expected) < 5.0 * sigma)

    @pytest.mark.parametrize("state", [0, 1])
    def test_single_ion_counts_follow_the_exact_pmf(self, state):
        model = sim.calibrate_to_fidelity(0.995)
        ds = self.generate(model, sim.single_ion_geometry(), 50000, seed=32)
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
            self.generate(model, sim.single_ion_geometry(), 40000, seed=33), "1"
        )
        oracle = sum(flip_count_pmf_oracle(k, 1, 0.06, 2e-3, 150.0, 0.0) for k in range(5))
        # the flip shows: far more low counts than a Poisson count of mean 9
        assert oracle > 2.0 * poisson.cdf(4, 9.0)
        se = np.sqrt(oracle * (1 - oracle) / counts.size)
        assert abs(np.mean(counts <= 4) - oracle) < 4.0 * se

    def test_dark_flip_high_count_tail_matches_quadrature_oracle(self):
        model = sim.EmissionModel(**dict(QUIET, pump_dark_to_bright_rate=1e-3))
        counts = label_counts(
            self.generate(model, sim.single_ion_geometry(), 40000, seed=34), "0"
        )
        oracle = 1.0 - sum(
            flip_count_pmf_oracle(k, 0, 0.06, 1e-3, 150.0, 0.0) for k in range(2)
        )
        se = np.sqrt(oracle * (1 - oracle) / counts.size)
        assert abs(np.mean(counts >= 2) - oracle) < 4.0 * se

    def test_dark_without_pumping_or_background_records_nothing(self):
        ds = self.generate(sim.EmissionModel(**QUIET), sim.single_ion_geometry(), 10000, seed=42)
        assert ds.channels.size > 0
        assert not label_counts(ds, "0").any()

    def test_dark_first_arrival_later_than_bright(self):
        # a dark-prepared ion's photons start at its flip, so of the shots
        # with any event the dark ones begin later
        model = sim.EmissionModel(pump_bright_to_dark_rate=1e-3, pump_dark_to_bright_rate=1e-2)
        ds = self.generate(model, sim.single_ion_geometry(), 4000, seed=43)
        seen = np.diff(ds.offsets) > 0
        first = ds.ticks[ds.offsets[:-1][seen]]
        first_dark = first[ds.labels[seen] == "0"]
        first_bright = first[ds.labels[seen] == "1"]
        assert first_dark.size > ds.samples_per_label // 2
        assert first_dark.mean() > first_bright.mean()

    def test_crosstalk_thins_a_poisson_stream_binomially(self):
        # 5% leak onto one neighbour channel: two independent Poisson streams
        # with means 0.05 * 9 and 0.95 * 9
        geometry = sim.DetectorGeometry(1, 2, (0,), ((0.95, 0.05),), True)
        ds = self.generate(sim.EmissionModel(**QUIET), geometry, 20000, seed=35)
        counts = channel_counts(ds)[ds.labels == "1"]
        n = counts.shape[0]
        for channel, mean in ((1, 0.45), (0, 8.55)):
            assert abs(counts[:, channel].mean() - mean) < 4.0 * np.sqrt(mean / n)
            assert abs(counts[:, channel].var() - mean) < 5.0 * mean * np.sqrt(2.0 / n)
        assert abs(np.corrcoef(counts.T)[0, 1]) < 4.0 / np.sqrt(n)

    def test_background_one_false_count_per_300_shots(self):
        geometry = sim.alternating_geometry(2)  # three channels
        model = sim.EmissionModel(pump_dark_to_bright_rate=0.0)
        assert abs(model.background_rate * model.window_us - 1.0 / 303.0) < 2e-5
        ds = self.generate(model, geometry, 100000, seed=36)
        totals = label_counts(ds, "00")
        # a pool shot holds one recording, and so one background pass, per ion
        passes = geometry.num_ions if self.mode == "pool" else 1
        expected = passes * 3 * model.background_rate * model.window_us
        assert abs(totals.mean() - expected) < 4.0 * np.sqrt(expected / totals.size)

    def test_channels_without_mass_receive_nothing(self):
        # the first and last channels carry no mass in any row, and no
        # background; the middle channels split the photons
        geometry = sim.DetectorGeometry(
            2, 4, (1, 2), ((0.0, 0.7, 0.3, 0.0), (0.0, 0.0, 1.0, 0.0)), True
        )
        ds = self.generate(sim.EmissionModel(**QUIET), geometry, 3000, seed=37)
        seen = np.bincount(ds.channels, minlength=4)
        assert seen[0] == 0 and seen[3] == 0
        assert seen[1] > 0 and seen[2] > 0
        only_ion_1 = channel_counts(ds)[ds.labels == "01"]
        assert only_ion_1[:, 1].sum() == 0

    def test_unrecorded_channels_are_dropped(self):
        geometry = sim.DetectorGeometry(
            2, 3, (0, 2), ((0.5, 0.5, 0.0), (0.0, 0.5, 0.5)), False
        )
        ds = self.generate(sim.EmissionModel(), geometry, 500, seed=38)
        assert ds.channels.size > 0
        assert not np.any(ds.channels == 1)

    def test_events_quantised_and_ordered_by_time_then_channel(self):
        ds = self.generate(sim.EmissionModel(), sim.alternating_geometry(3), 2000, seed=39)
        assert ds.channels.dtype == np.int16 and ds.ticks.dtype == np.uint16
        np.testing.assert_array_equal(ds.times, ds.ticks / sim.TICKS_PER_US)
        np.testing.assert_array_equal(ds.times, np.round(ds.times, 1))
        shot = np.repeat(np.arange(len(ds)), np.diff(ds.offsets))
        order = np.lexsort((ds.channels, ds.ticks, shot))
        np.testing.assert_array_equal(order, np.arange(order.size))
        assert np.all((ds.times >= 0.0) & (ds.times < ds.model.window_us))

    def test_blocks_and_remainder_repeat_exactly(self):
        per_label = 2 * sim.BLOCK_SHOTS + 5
        model, geometry = sim.EmissionModel(), sim.alternating_geometry(1)
        serial = sim.generate_dataset(model, geometry, per_label, seed=40)
        repeat = sim.generate_dataset(model, geometry, per_label, seed=40)
        assert len(serial) == 2 * per_label
        for column in ("offsets", "channels", "ticks", "states"):
            np.testing.assert_array_equal(getattr(serial, column), getattr(repeat, column))
        # each block draws from its own stream
        counts = label_counts(serial, "1")
        blocks = counts[: 2 * sim.BLOCK_SHOTS].reshape(2, sim.BLOCK_SHOTS)
        assert not np.array_equal(blocks[0], blocks[1])


class TestPoolSampler(TestBlockSampler):
    """The same law through pool mode, which superimposes single-ion recordings.

    On a one-ion geometry a pool shot is exactly one recording.  A recording
    draws its own random stream, about 100 us, so these cases draw 1/64 of
    the fresh shots and their bounds widen to match.
    """

    mode = "pool"
    shrink = 64
    # blocks are a fresh-mode notion
    test_blocks_and_remainder_repeat_exactly = None


def pool_recordings(bit, model, geometry, count, seed, ion=0):
    """``count`` single-ion pool recordings of ``ion`` prepared in ``bit``."""
    return [sim._pool_recording(ion, bit, e, model, geometry, seed) for e in range(count)]


class TestSimulateIon:
    """The one-ion emission step of a pool recording, ``sim._pool_recording``."""

    def test_bright_counts_poisson_mean_nine(self):
        model = sim.EmissionModel(**QUIET)
        recordings = pool_recordings(1, model, sim.single_ion_geometry(), 20000, seed=11)
        counts = np.array([channels.size for channels, _ in recordings])
        se = 3.0 / np.sqrt(counts.size)
        assert abs(counts.mean() - 9.0) < 3.0 * se
        # variance equals the mean for a Poisson count
        assert abs(counts.var() - 9.0) < 5.0 * se * np.sqrt(2 * 9.0)

    def test_arrivals_sorted_inside_window(self):
        model = sim.EmissionModel()
        for _, ticks in pool_recordings(1, model, sim.single_ion_geometry(), 500, seed=5):
            assert ticks.dtype == np.uint16
            assert np.all(np.diff(ticks.astype(np.int64)) >= 0)
            if ticks.size:
                assert ticks[-1] * sim.TIME_RESOLUTION_US < model.window_us


class TestRouteEvents:
    """The routing of one ion's photons to channels inside a pool recording."""

    def test_identity_routing_keeps_all_photons(self):
        # with no pumping the first draw of a recording's stream is its
        # photon count; identity routing must keep every one of them
        model = sim.EmissionModel(**QUIET)
        for entry in range(200):
            channels, ticks = sim._pool_recording(
                0, 1, entry, model, sim.single_ion_geometry(), 1
            )
            rng = np.random.default_rng(
                np.random.SeedSequence((1, sim._POOL_STREAM_TAG, 0, 1, entry))
            )
            assert channels.size == ticks.size == rng.poisson(9.0)
            assert np.all(channels == 0)

    def test_times_quantised_and_ties_ordered_by_channel(self):
        # a bright rate of 4 per us puts 600 photons on 1500 ticks, so ticks
        # repeat and their channel order shows
        geometry = sim.alternating_geometry(2)
        model = sim.EmissionModel(bright_rate=4.0)
        channels, ticks = sim._pool_recording(0, 1, 0, model, geometry, 12)
        assert channels.dtype == np.int16 and ticks.dtype == np.uint16
        assert np.all(ticks < model.window_us * sim.TICKS_PER_US)
        steps = np.diff(ticks.astype(np.int64))
        assert np.all(steps >= 0)
        same_tick = steps == 0
        assert same_tick.any() and len(set(channels.tolist())) > 1
        assert np.all(np.diff(channels)[same_tick] >= 0)


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
            np.testing.assert_array_equal(sample.times, dataset.ticks[lo:hi] / sim.TICKS_PER_US)
            assert sample.num_events == hi - lo
            assert np.shares_memory(sample.channels, dataset.channels) or hi == lo
        with pytest.raises(IndexError):
            view[320]
        with pytest.raises(IndexError):
            view[-321]

    def test_counting_events_derives_no_times(self, dataset, monkeypatch):
        def no_times(ticks):
            raise AssertionError("times derived for an event count")

        monkeypatch.setattr(sim, "_times", no_times)
        total = sum(sample.num_events for sample in dataset.samples)
        assert total == dataset.channels.size
        assert all(s.ticks.dtype == np.uint16 for s in dataset.samples[:3])

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

    @pytest.mark.parametrize(
        "idx", [[3, 57, 200, 319], [200, 3, 319, 57, 0], [5, 5, 0, 5, -1], []]
    )
    def test_an_index_array_views_those_shots_in_its_order(self, dataset, idx):
        expected = [dataset.samples[i] for i in idx]
        for key in (np.asarray(idx, dtype=np.int64), idx):
            view = dataset.samples[key]
            assert isinstance(view, sim.Samples) and len(view) == len(idx)
            np.testing.assert_array_equal(view.shots, np.arange(len(dataset))[idx])
            for got in (list(view), [view[k] for k in range(len(idx))]):
                assert len(got) == len(expected)
                for a, b in zip(got, expected):
                    assert a.label == b.label
                    np.testing.assert_array_equal(a.channels, b.channels)
                    np.testing.assert_array_equal(a.ticks, b.ticks)
                    assert np.shares_memory(a.ticks, dataset.ticks) or a.num_events == 0
            # a view of a view indexes the shots it holds
            assert [s.label for s in view[::-1]] == [s.label for s in expected[::-1]]
            if idx:
                assert [s.label for s in view[[-1, 0]]] == [expected[-1].label, expected[0].label]
        with pytest.raises(IndexError):
            dataset.samples[np.array([3, 320])]

    @pytest.mark.parametrize("block_shots", [features.BLOCK_SHOTS, 7])
    def test_featurizing_an_indexed_view_gives_those_rows(self, dataset, monkeypatch, block_shots):
        monkeypatch.setattr(features, "BLOCK_SHOTS", block_shots)
        rng = np.random.default_rng(4)
        for idx in (np.arange(0, 320, 3), rng.permutation(320)[:50], rng.integers(0, 320, 90)):
            for spec in (
                features.FeatureSpec(num_bins=1),
                features.FeatureSpec(num_bins=15, include_intermediate=True),
            ):
                for to_images in (features.featurize_dataset, features.sequence_dataset):
                    full = to_images(dataset.samples, spec, dataset.geometry)
                    part = to_images(dataset.samples[idx], spec, dataset.geometry)
                    np.testing.assert_array_equal(part, full[idx])


class TestColumnFootprint:
    """An event costs 4 bytes, an int16 channel and a uint16 tick; a shot 8, its offset."""

    @staticmethod
    def assert_four_bytes_per_event(ds):
        arrays = {k: v for k, v in vars(ds).items() if isinstance(v, np.ndarray)}
        assert set(arrays) == {"offsets", "channels", "ticks"}
        assert ds.channels.dtype == np.int16 and ds.ticks.dtype == np.uint16
        total = sum(a.nbytes for a in arrays.values())
        assert total == 4 * ds.channels.size + 8 * len(ds) + 8
        # the states are derived from the label-major layout, read-only
        np.testing.assert_array_equal(
            ds.states, np.arange(len(ds)) // ds.samples_per_label
        )
        assert ds.states.dtype == np.int64 and not ds.states.flags.writeable
        assert ds.states is ds.states

    def test_offsets_must_fit_the_label_major_layout(self):
        ds = sim.generate_dataset(sim.EmissionModel(), sim.adjacent_geometry(2), 3, seed=5)
        with pytest.raises(sim.SimulationError, match="12 offsets, where 12 label-major"):
            dataclasses.replace(ds, offsets=ds.offsets[:-1])

    @pytest.mark.parametrize("mode", ["fresh", "pool"])
    def test_generated_and_loaded_datasets(self, tmp_path, mode):
        ds = sim.generate_dataset(
            sim.EmissionModel(), sim.adjacent_geometry(3), 20, seed=5, mode=mode
        )
        self.assert_four_bytes_per_event(ds)
        path = tmp_path / "ds.jsonl"
        sim.save_dataset(ds, path)
        self.assert_four_bytes_per_event(sim.load_dataset(path))

    def test_times_are_built_on_access_and_never_kept(self, tmp_path):
        ds = sim.generate_dataset(sim.EmissionModel(), sim.alternating_geometry(2), 30, seed=6)
        for sample in ds.samples:
            assert not sample.times.flags.writeable
        sim.save_dataset(ds, tmp_path / "ds.jsonl")
        assert ds.times is not ds.times and not ds.times.flags.writeable
        assert "times" not in vars(ds)

    def test_every_tick_reads_back_as_the_quantised_time(self):
        # the float the quantiser wrote before times were held as ticks
        ticks = np.arange(sim.MAX_TICKS + 1)
        np.testing.assert_array_equal(
            ticks / sim.TICKS_PER_US, np.round(ticks * sim.TIME_RESOLUTION_US, 1)
        )

    @pytest.mark.parametrize("mode", ["fresh", "pool"])
    def test_the_longest_window_fits_the_ticks(self, mode):
        model = sim.EmissionModel(
            pump_bright_to_dark_rate=0.0, pump_dark_to_bright_rate=0.0, window_us=sim.MAX_WINDOW_US
        )
        ds = sim.generate_dataset(model, sim.single_ion_geometry(), 4, seed=7, mode=mode)
        # a wrapped tick would break the order or fall near 0
        shot = np.repeat(np.arange(len(ds)), np.diff(ds.offsets))
        steps = np.diff(ds.ticks.astype(int))[shot[1:] == shot[:-1]]
        assert steps.size > 1000 and np.all(steps >= 0)
        assert 0.99 * sim.MAX_TICKS < ds.ticks.max() and ds.times.max() <= sim.MAX_WINDOW_US


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

    def test_iteration_cap_reported(self, monkeypatch):
        monkeypatch.setattr(sim, "CALIBRATION_TOLERANCE", 1e-15)
        monkeypatch.setattr(sim, "CALIBRATION_MAX_ITERATIONS", 3)
        with pytest.raises(sim.CalibrationError, match="within 3 bisection steps"):
            sim.calibrate_to_fidelity(0.98)


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
        for column in ("offsets", "channels", "ticks", "states"):
            np.testing.assert_array_equal(getattr(back, column), getattr(ds, column))
            assert getattr(back, column).dtype == getattr(ds, column).dtype

    def test_numpy_scalar_inputs_save_and_load(self, tmp_path):
        half = np.float32(0.5)
        # one crosstalk row of numpy scalars, one float32 array
        rows = ((half, half, 0), np.array([0, 0, 1], dtype=np.float32))
        geometry = sim.DetectorGeometry(
            np.int64(2), np.int64(3), (np.int64(0), np.int64(2)), rows
        )
        model = sim.EmissionModel(bright_rate=np.float32(0.06))
        ds = sim.generate_dataset(model, geometry, 10, seed=23)
        path = tmp_path / "numpy.jsonl"
        sim.save_dataset(ds, path)
        back = sim.load_dataset(path)
        assert back.geometry == geometry and back.model == model
        assert type(geometry.num_ions) is int and type(geometry.ion_channel[1]) is int
        assert type(geometry.crosstalk[0][0]) is float and type(geometry.crosstalk[1][2]) is float
        assert model.bright_rate == float(np.float32(0.06))
        # the same file as from the Python numbers the numpy scalars hold
        plain = sim.generate_dataset(
            sim.EmissionModel(bright_rate=float(np.float32(0.06))),
            sim.DetectorGeometry(2, 3, (0, 2), ((0.5, 0.5, 0), (0.0, 0.0, 1.0))),
            10,
            seed=23,
        )
        sim.save_dataset(plain, tmp_path / "plain.jsonl")
        assert path.read_bytes() == (tmp_path / "plain.jsonl").read_bytes()

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

    def test_channel_must_be_recorded(self, tmp_path):
        # channel 1 exists but carries no ion, and this geometry drops its events
        geometry = sim.DetectorGeometry(
            2, 3, (0, 2), ((0.5, 0.5, 0.0), (0.0, 0.5, 0.5)), intermediate_channels_present=False
        )
        path = tmp_path / "ds.jsonl"
        sim.save_dataset(sim.generate_dataset(sim.EmissionModel(), geometry, 2, seed=4), path)
        shot = {"label": "01", "window_us": 150.0, "events": [[1, 3.0]]}
        message = self.load_with_shot(tmp_path, path.read_text().splitlines(), shot)
        assert "event [1, 3.0]" in message and "[0, 2]" in message

    @pytest.mark.parametrize(
        "window, time", [(150.0, 12.34), (150.0, 0.05), (7000.0, 6553.6), (7000.0, 6999.0)]
    )
    def test_time_must_be_a_tick_in_range(self, tmp_path, lines, window, time):
        shot = {"label": "101", "window_us": window, "events": [[0, 1.0], [2, time]]}
        message = self.load_with_shot(tmp_path, lines, shot)
        if window == 150.0:
            assert f"event [2, {time}]" in message and "ticks" in message
        else:
            # a window past the ticks' range is never the header's, whose
            # model caps it at MAX_WINDOW_US
            assert "window_us 7000.0 is not the header model's 150.0" in message

    @pytest.mark.parametrize("window", [100.0, 150.1, 100, True])
    def test_window_must_be_the_header_models(self, tmp_path, lines, window):
        shot = {"label": "101", "window_us": window, "events": [[0, 1.0], [2, 90.0]]}
        message = self.load_with_shot(tmp_path, lines, shot)
        assert message.endswith(f": window_us {window!r} is not the header model's 150.0")

    def test_a_whole_number_window_is_the_header_models(self, tmp_path, lines):
        path = tmp_path / "whole.jsonl"
        shot = json.loads(lines[2])
        shot["window_us"] = 150
        path.write_text("\n".join(lines[:2] + [json.dumps(shot)] + lines[3:]) + "\n")
        assert sim.load_dataset(path).samples[1].window_us == 150.0

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
        # earlier than the previous shot ended; the edited shot keeps its label
        path = tmp_path / "ordered.jsonl"
        events = [[0, 0.0], [0, 0.0], [2, 149.9]]
        shot = {"label": "000", "window_us": 150.0, "events": events}
        path.write_text("\n".join(lines[:2] + [json.dumps(shot)] + lines[3:]) + "\n")
        assert len(sim.load_dataset(path)) == len(lines) - 1

    def test_every_label_needs_its_samples_per_label(self, tmp_path, lines):
        # 16 shots under a header of 2 per label for 3 ions, cut three short
        path = tmp_path / "truncated.jsonl"
        path.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(sim.SimulationError) as excinfo:
            sim.load_dataset(path)
        assert str(excinfo.value) == (
            f"{path}: 13 shots, where 8 labels of 2 shots each make 16"
        )

    def test_shots_must_be_label_major(self, tmp_path, lines):
        path = tmp_path / "reversed.jsonl"
        path.write_text("\n".join(lines[:1] + lines[:0:-1]) + "\n")
        with pytest.raises(sim.SimulationError) as excinfo:
            sim.load_dataset(path)
        assert str(excinfo.value) == (
            f"{path}:2: shot 0 is labelled 111, where label-major order puts 000"
        )

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


# each ion of the 3-ion ``lines`` fixture routed onto its own channel, as
# JSON booleans: 5-channel rows that sum to 1
HOME_ROWS = [[c == 2 * i for c in range(5)] for i in range(3)]


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
            # JSON types the constructors would take: 1.0, true, "0.5"
            ("geometry", "ion_channel", [0.0, 2.0, 4.0]),
            ("geometry", "intermediate_channels_present", "no"),
            ("geometry", "crosstalk", HOME_ROWS),
            ("geometry", "crosstalk", [[str(float(p)) for p in row] for row in HOME_ROWS]),
            ("model", "detector_dark_rate", True),
        ],
    )
    def test_bad_model_or_geometry(self, tmp_path, lines, section, key, value):
        header = json.loads(lines[0])
        header[section][key] = value
        self.load_with_header(tmp_path, lines, header)

    @pytest.mark.parametrize("version", [True, 1.0, 2])
    def test_version_must_be_the_integer_one(self, tmp_path, lines, version):
        header = json.loads(lines[0])
        header["version"] = version
        assert "unsupported version" in self.load_with_header(tmp_path, lines, header)

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

    @pytest.mark.parametrize(
        "field, geometry_args",
        [
            ("ion_channel", (2, 3, (0.0, 2.0), ((1.0, 0, 0), (0, 0, 1.0)), False)),
            ("ion_channel", (2, 3, (False, 2), ((1, 0, 0), (0, 0, 1)))),
            ("num_ions", (True, 2, (0,), ((1, 0),))),
            ("num_channels", (1, 2.0, (0,), ((1, 0),))),
        ],
    )
    @pytest.mark.parametrize("mode", ["fresh", "pool"])
    def test_counts_and_ion_channels_must_be_integers(self, field, geometry_args, mode):
        with pytest.raises(sim.SimulationError, match=f"geometry {field} must be of integer type"):
            sim.generate_dataset(
                sim.EmissionModel(), sim.DetectorGeometry(*geometry_args), 5, seed=0, mode=mode
            )

    @pytest.mark.parametrize("mode", ["fresh", "pool"])
    def test_channel_ids_must_fit_int16(self, mode):
        row = np.zeros(40_000)
        row[-1] = 1.0
        with pytest.raises(sim.SimulationError, match="int16"):
            sim.generate_dataset(
                sim.EmissionModel(),
                sim.DetectorGeometry(1, 40_000, (39_999,), (tuple(row),), False),
                5,
                seed=0,
                mode=mode,
            )

    @pytest.mark.parametrize("mode", ["fresh", "pool"])
    def test_the_last_int16_channel_records_its_ion(self, mode):
        row = np.zeros(sim.MAX_CHANNELS)
        row[-1] = 1.0
        geometry = sim.DetectorGeometry(1, sim.MAX_CHANNELS, (32_767,), (tuple(row),), False)
        dataset = sim.generate_dataset(sim.EmissionModel(), geometry, 5, seed=0, mode=mode)
        # label 1's shots follow label 0's five, and its ion's photons arrive
        assert dataset.channels.size > dataset.offsets[5]
        np.testing.assert_array_equal(dataset.channels, 32_767)

    def test_numpy_integers_accepted(self):
        geometry = sim.DetectorGeometry(
            np.int64(2), np.int32(3), (np.int64(0), np.uint8(2)), ((1, 0, 0), (0, 0, 1))
        )
        assert geometry.recorded_channels == (0, 1, 2)

    def test_negative_rates_rejected(self):
        with pytest.raises(sim.SimulationError):
            sim.EmissionModel(bright_rate=-0.1)

    def test_window_must_fit_the_ticks(self):
        assert sim.EmissionModel(window_us=6553.5).window_us == sim.MAX_WINDOW_US
        with pytest.raises(sim.SimulationError, match="6553.5"):
            sim.EmissionModel(window_us=6553.6)
