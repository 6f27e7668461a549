"""Binning, layout, and scaling checks, mostly against hand counts."""
import numpy as np
import pytest

from ionread import features, sim


def make_sample(label, channels, times, window=150.0):
    return sim.ReadoutSample(
        label=label,
        window_us=window,
        channels=np.asarray(channels, dtype=np.int16),
        ticks=np.rint(np.asarray(times, dtype=float) * sim.TICKS_PER_US).astype(np.uint16),
    )


def image(sample, spec, geometry):
    """One shot's (channels, bins) count image, via the flat feature row."""
    row = features.featurize_dataset([sample], spec, geometry)[0]
    return row.reshape(len(spec.channel_ids(geometry)), spec.num_bins)


@pytest.fixture
def geometry3():
    return sim.alternating_geometry(3)


class TestBinSample:
    def test_hand_binned_example(self):
        # events at 10, 40 and 149.9 us, five 30 us bins -> [1, 1, 0, 0, 1]
        geometry = sim.adjacent_geometry(1)
        sample = make_sample("1", [0, 0, 0], [10.0, 40.0, 149.9])
        counts = features.featurize_dataset(
            [sample], features.FeatureSpec(num_bins=5), geometry
        )
        np.testing.assert_array_equal(counts, [[1, 1, 0, 0, 1]])

    def test_single_bin_gives_totals(self, geometry3):
        sample = make_sample("101", [0, 0, 2, 4, 4, 4], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        counts = image(sample, features.FeatureSpec(num_bins=1), geometry3)
        np.testing.assert_array_equal(counts, [[2], [1], [3]])

    def test_row_sums_match_independent_recount(self, geometry3):
        spec = features.FeatureSpec(num_bins=7, include_intermediate=True)
        ds = sim.generate_dataset(sim.EmissionModel(), geometry3, 5, seed=10)
        for sample in ds.samples:
            counts = image(sample, spec, geometry3)
            for row, ch in enumerate(spec.channel_ids(geometry3)):
                recount = sum(1 for c in sample.channels if c == ch)
                assert counts[row].sum() == recount

    def test_intermediate_rows_selected(self, geometry3):
        sample = make_sample("111", [0, 1, 2, 3, 4], [1.0, 2.0, 3.0, 4.0, 5.0])
        ions_only = features.FeatureSpec(num_bins=1)
        assert image(sample, ions_only, geometry3).shape == (3, 1)
        assert ions_only.channel_ids(geometry3) == (0, 2, 4)
        everything = image(
            sample, features.FeatureSpec(num_bins=1, include_intermediate=True), geometry3
        )
        assert everything.shape == (5, 1)
        assert everything.sum() == 5

    def test_intermediate_request_needs_recording(self):
        geometry = sim.adjacent_geometry(2)
        sample = make_sample("11", [0, 1], [1.0, 2.0])
        with pytest.raises(features.FeatureError):
            features.featurize_dataset(
                [sample],
                features.FeatureSpec(num_bins=1, include_intermediate=True),
                geometry,
            )

    def test_final_bin_absorbs_window_edge(self):
        geometry = sim.adjacent_geometry(1)
        sample = make_sample("1", [0], [150.0], window=150.0)
        counts = image(sample, features.FeatureSpec(num_bins=4), geometry)
        assert counts[0, 3] == 1


class TestFlatten:
    def test_row_major_order_and_round_trip(self, geometry3):
        # channel 0 in bins 0 and 4, channel 2 in bin 1, channel 4 in bin 2
        sample = make_sample("101", [0, 2, 4, 0], [5.0, 40.0, 70.0, 149.0])
        spec = features.FeatureSpec(num_bins=5)
        flat = features.featurize_dataset([sample], spec, geometry3)[0]
        np.testing.assert_array_equal(flat, [1, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0])
        seq = features.sequence_dataset([sample], spec, geometry3)[0]
        np.testing.assert_array_equal(seq.T.reshape(-1), flat)

    def test_tnn_plus_three_qubit_width_is_25(self, geometry3):
        ds = sim.generate_dataset(sim.EmissionModel(), geometry3, 1, seed=3)
        spec = features.FeatureSpec(num_bins=5, include_intermediate=True)
        mat = features.featurize_dataset(ds.samples, spec, geometry3)
        assert mat.shape == (8, 25)

    def test_empty_sample_list_rejected(self, geometry3):
        with pytest.raises(features.FeatureError):
            features.featurize_dataset([], features.FeatureSpec(), geometry3)

    @pytest.mark.parametrize("num_bins", [2.5, 3.0, True, "5", 0, -1])
    def test_num_bins_must_be_an_integer(self, num_bins):
        with pytest.raises(features.FeatureError, match="num_bins must be an integer >= 1"):
            features.FeatureSpec(num_bins=num_bins)

    @pytest.mark.parametrize("flag", [1, 0, "no", None, np.bool_(True)])
    def test_include_intermediate_must_be_a_bool(self, flag):
        with pytest.raises(features.FeatureError, match="include_intermediate must be a bool"):
            features.FeatureSpec(1, flag)

    def test_numpy_num_bins_is_kept_as_a_python_int(self, geometry3):
        spec = features.FeatureSpec(num_bins=np.int64(5))
        assert spec.num_bins == 5 and type(spec.num_bins) is int
        assert spec == features.FeatureSpec(num_bins=5)
        sample = make_sample("101", [0, 4], [1.0, 149.0])
        assert image(sample, spec, geometry3).shape == (3, 5)


class TestSequences:
    def test_sequence_is_column_traversal(self, geometry3):
        sample = make_sample("101", [0, 2, 2, 4], [5.0, 5.0, 100.0, 149.0])
        spec = features.FeatureSpec(num_bins=5)
        seq = features.sequence_dataset([sample], spec, geometry3)[0]
        assert seq.shape == (5, 3)
        np.testing.assert_array_equal(seq, image(sample, spec, geometry3).T)

    def test_sequence_dataset_shape(self, geometry3):
        ds = sim.generate_dataset(sim.EmissionModel(), geometry3, 2, seed=8)
        spec = features.FeatureSpec(num_bins=15, include_intermediate=True)
        seqs = features.sequence_dataset(ds.samples, spec, geometry3)
        assert seqs.shape == (16, 15, 5)
        flats = features.featurize_dataset(ds.samples, spec, geometry3)
        # same information, different layout
        np.testing.assert_array_equal(
            seqs.transpose(0, 2, 1).reshape(16, -1), flats
        )


class TestLayouts:
    @pytest.mark.parametrize("num_bins", [1, 5, 7, 15])
    def test_flat_rows_are_the_sequences_flattened_channel_major(self, geometry3, num_bins):
        ds = sim.generate_dataset(sim.EmissionModel(), geometry3, 10, seed=9)
        for include in (False, True):
            spec = features.FeatureSpec(num_bins, include_intermediate=include)
            seqs = features.sequence_dataset(ds.samples, spec, geometry3)
            flats = features.featurize_dataset(ds.samples, spec, geometry3)
            np.testing.assert_array_equal(flats, seqs.transpose(0, 2, 1).reshape(len(ds), -1))
            assert flats.dtype == np.uint16 and flats.flags.c_contiguous


class TestManyShots:
    # 7 shots per pass splits the dataset into several blocks, the last short
    @pytest.mark.parametrize("block_shots", [features.BLOCK_SHOTS, 7])
    def test_matches_per_shot_recount(self, geometry3, monkeypatch, block_shots):
        monkeypatch.setattr(features, "BLOCK_SHOTS", block_shots)
        ds = sim.generate_dataset(sim.EmissionModel(), geometry3, 6, seed=12)
        samples = list(ds.samples)
        # a shorter window over the same events, an empty shot, and an
        # event on each window's end
        cut = samples[5].times <= 90.0
        samples.append(
            make_sample("110", samples[5].channels[cut], samples[5].times[cut], window=90.0)
        )
        samples.append(make_sample("000", [], []))
        samples.append(make_sample("011", [4, 1, 3], [150.0, 75.0, 0.0]))
        samples.append(make_sample("001", [2], [90.0], window=90.0))
        for num_bins in (1, 5, 7, 15):
            for include in (False, True):
                spec = features.FeatureSpec(num_bins, include_intermediate=include)
                channel_ids = spec.channel_ids(geometry3)
                flats = features.featurize_dataset(samples, spec, geometry3)
                seqs = features.sequence_dataset(samples, spec, geometry3)
                assert flats.dtype == seqs.dtype == np.uint16
                assert flats.flags.c_contiguous and seqs.flags.c_contiguous
                assert flats.shape == (len(samples), len(channel_ids) * num_bins)
                assert seqs.shape == (len(samples), num_bins, len(channel_ids))
                for k, sample in enumerate(samples):
                    width = sample.window_us / num_bins
                    expected = np.zeros((len(channel_ids), num_bins))
                    for ch, t in zip(sample.channels, sample.times):
                        if ch in channel_ids:
                            b = min(int(t // width), num_bins - 1)
                            expected[channel_ids.index(ch), b] += 1
                    np.testing.assert_array_equal(flats[k], expected.reshape(-1))
                    np.testing.assert_array_equal(seqs[k], expected.T)


class TestCountRange:
    def test_a_count_above_uint16_names_its_shot(self):
        geometry = sim.adjacent_geometry(1)
        full = make_sample("1", np.zeros(features.MAX_COUNT), np.zeros(features.MAX_COUNT))
        over = make_sample("1", np.zeros(features.MAX_COUNT + 1), np.zeros(features.MAX_COUNT + 1))
        spec = features.FeatureSpec(num_bins=3)
        counts = features.featurize_dataset([full, full], spec, geometry)
        np.testing.assert_array_equal(counts, [[features.MAX_COUNT, 0, 0]] * 2)
        for to_images in (features.featurize_dataset, features.sequence_dataset):
            with pytest.raises(features.FeatureError, match="shot 1: 65536 events"):
                to_images([full, over], spec, geometry)

    def test_a_count_above_uint16_in_a_view_names_the_dataset_shot(self):
        geometry = sim.adjacent_geometry(1)
        # shot 4 of six holds one count too many
        lengths = [1, 0, 2, 0, features.MAX_COUNT + 1, 3]
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        ds = sim.Dataset(
            offsets, np.zeros(offsets[-1], dtype=np.int16), np.zeros(offsets[-1], dtype=np.uint16),
            geometry, sim.EmissionModel(), seed=0, samples_per_label=3,
        )
        spec = features.FeatureSpec(num_bins=2)
        for to_images in (features.featurize_dataset, features.sequence_dataset):
            for view in (ds.samples[[5, 0, 4]], ds.samples[3:], ds.samples):
                with pytest.raises(features.FeatureError, match="shot 4: 65536 events"):
                    to_images(view, spec, geometry)
