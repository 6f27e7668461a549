"""Turn photon event streams into count images, vectors, and sequences.

A shot is reduced to an (channels x time-bins) integer count image.  With a
single time bin this collapses to per-channel totals; with several bins the
image keeps arrival-time information; transposed it becomes the per-bin
input sequence for recurrent classifiers.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .sim import DetectorGeometry, ReadoutSample


class FeatureError(ValueError):
    pass


@dataclass(frozen=True)
class FeatureSpec:
    """How to reduce a shot to numbers.

    ``num_bins`` time bins of equal width cover the detection window, the
    final bin absorbing any floating-point remainder.  When
    ``include_intermediate`` is false only ion channels are kept, in ion
    order; otherwise all recorded channels are kept, in channel order.
    """

    num_bins: int = 1
    include_intermediate: bool = False

    def __post_init__(self) -> None:
        if self.num_bins < 1:
            raise FeatureError(f"num_bins must be >= 1, got {self.num_bins}")

    def channel_ids(self, geometry: DetectorGeometry) -> tuple[int, ...]:
        if self.include_intermediate:
            if not geometry.intermediate_channels_present:
                raise FeatureError(
                    "intermediate channels requested but not recorded by this geometry"
                )
            return tuple(range(geometry.num_channels))
        return geometry.ion_channel


@dataclass
class CountImage:
    """Integer click counts per selected channel (rows) and time bin (columns)."""

    counts: np.ndarray
    bin_width_us: float
    channel_ids: tuple[int, ...]


def bin_sample(
    sample: ReadoutSample, spec: FeatureSpec, geometry: DetectorGeometry
) -> CountImage:
    """Histogram one shot's events into a count image.

    An event at time t lands in bin ``floor(t / bin_width)``; bins are
    left-closed, right-open, except the final bin which also takes t equal
    to the window end.
    """
    channel_ids = spec.channel_ids(geometry)
    bin_width = sample.window_us / spec.num_bins
    row_of = np.full(geometry.num_channels, -1, dtype=np.int64)
    for row, ch in enumerate(channel_ids):
        row_of[ch] = row
    counts = np.zeros((len(channel_ids), spec.num_bins), dtype=np.int64)
    if sample.channels.size:
        rows = row_of[sample.channels]
        bins = np.minimum((sample.times // bin_width).astype(np.int64), spec.num_bins - 1)
        keep = rows >= 0
        np.add.at(counts, (rows[keep], bins[keep]), 1)
    return CountImage(counts, bin_width, channel_ids)


def flatten(image: CountImage) -> np.ndarray:
    """Row-major flattening: channel-0 bins first, then channel 1, ..."""
    return image.counts.reshape(-1).astype(float)


def unflatten(vector: np.ndarray, num_channels: int, num_bins: int) -> np.ndarray:
    vector = np.asarray(vector)
    if vector.size != num_channels * num_bins:
        raise FeatureError(
            f"cannot reshape {vector.size} features into ({num_channels}, {num_bins})"
        )
    return vector.reshape(num_channels, num_bins)


def to_sequence(
    sample: ReadoutSample, spec: FeatureSpec, geometry: DetectorGeometry
) -> np.ndarray:
    """Per-bin channel count vectors: element t is the image's column t."""
    return bin_sample(sample, spec, geometry).counts.T.astype(float)


def featurize_dataset(
    samples: Sequence[ReadoutSample], spec: FeatureSpec, geometry: DetectorGeometry
) -> np.ndarray:
    """Flattened count images for every shot, shape (n, channels * bins)."""
    if not samples:
        raise FeatureError("no samples to featurize")
    out = np.empty(
        (len(samples), len(spec.channel_ids(geometry)) * spec.num_bins), dtype=float
    )
    for i, sample in enumerate(samples):
        out[i] = flatten(bin_sample(sample, spec, geometry))
    return out


def sequence_dataset(
    samples: Sequence[ReadoutSample], spec: FeatureSpec, geometry: DetectorGeometry
) -> np.ndarray:
    """Per-bin sequences for every shot, shape (n, bins, channels)."""
    if not samples:
        raise FeatureError("no samples to featurize")
    m = len(spec.channel_ids(geometry))
    out = np.empty((len(samples), spec.num_bins, m), dtype=float)
    for i, sample in enumerate(samples):
        out[i] = to_sequence(sample, spec, geometry)
    return out


class FeatureScaler:
    """Per-feature maximum scaling learned on a training split.

    Features that are identically zero on the training split keep divisor 1
    so unseen non-zero values pass through unscaled rather than exploding.
    """

    def __init__(self) -> None:
        self.maxima: np.ndarray | None = None

    def fit(self, features: np.ndarray) -> "FeatureScaler":
        maxima = np.asarray(features, dtype=float).max(axis=0)
        maxima[maxima == 0.0] = 1.0
        self.maxima = maxima
        return self

    def transform(self, features: np.ndarray) -> np.ndarray:
        if self.maxima is None:
            raise FeatureError("scaler must be fitted before transform")
        features = np.asarray(features, dtype=float)
        if features.shape[1] != self.maxima.size:
            raise FeatureError(
                f"feature width {features.shape[1]} != fitted width {self.maxima.size}"
            )
        return features / self.maxima

    def fit_transform(self, features: np.ndarray) -> np.ndarray:
        return self.fit(features).transform(features)
