"""Turn photon event streams into count images, vectors, and sequences.

A shot is reduced to a (time-bins x channels) count image, one row per bin:
the input sequence of recurrent classifiers.  Flattened channel-major it is
the feature vector of the others: per-channel totals with a single bin,
arrival-time information with several.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .sim import DetectorGeometry, ReadoutSample, Samples, stack_events


# Shots binned per pass: bounds the per-event index arrays, which would
# otherwise add tens of MB on top of the output for a large dataset.
BLOCK_SHOTS = 512
# Count images are uint16; the largest count any preset produces is about 20.
MAX_COUNT = int(np.iinfo(np.uint16).max)


class FeatureError(ValueError):
    pass


@dataclass(frozen=True)
class FeatureSpec:
    """How to reduce a shot to numbers.

    ``num_bins`` equal time bins cover the detection window: tick ``k`` of a
    ``W``-tick window lands in bin ``min(k * num_bins // W, num_bins - 1)``.  When
    ``include_intermediate`` is false only ion channels are kept, in ion
    order; otherwise all recorded channels are kept, in channel order.
    """

    num_bins: int = 1
    include_intermediate: bool = False

    def __post_init__(self) -> None:
        bins = self.num_bins
        if isinstance(bins, bool) or not isinstance(bins, (int, np.integer)) or bins < 1:
            raise FeatureError(f"num_bins must be an integer >= 1, got {bins!r}")
        object.__setattr__(self, "num_bins", int(bins))
        if type(self.include_intermediate) is not bool:
            raise FeatureError(
                f"include_intermediate must be a bool, got {self.include_intermediate!r}"
            )

    def channel_ids(self, geometry: DetectorGeometry) -> tuple[int, ...]:
        if self.include_intermediate:
            if not geometry.intermediate_channels_present:
                raise FeatureError(
                    "intermediate channels requested but not recorded by this geometry"
                )
            return tuple(range(geometry.num_channels))
        return geometry.ion_channel


def _count_images(
    samples: Sequence[ReadoutSample], spec: FeatureSpec, geometry: DetectorGeometry
) -> np.ndarray:
    """uint16 click counts per shot, time bin and selected channel, shape (n, bins, channels).

    Tick ``k`` of a shot whose window is ``W`` ticks lands in bin
    ``min(k * bins // W, bins - 1)``: one division, integer numerator, exact.
    A count above ``MAX_COUNT`` raises :class:`FeatureError` naming the shot:
    its index in the dataset for a :class:`Samples` view, else its position.
    """
    if not samples:
        raise FeatureError("no samples to featurize")
    channel_ids = spec.channel_ids(geometry)
    rows, bins = len(channel_ids), spec.num_bins
    row_of = np.full(geometry.num_channels, -1, dtype=np.int64)
    row_of[list(channel_ids)] = np.arange(rows)
    cells = rows * bins
    counts = np.zeros((len(samples), bins, rows), dtype=np.uint16)
    for start in range(0, len(samples), BLOCK_SHOTS):
        block = samples[start : start + BLOCK_SHOTS]
        shot, channels, ticks, window_ticks = stack_events(block)
        numerator = ticks.astype(np.int64) * bins
        col = np.minimum((numerator // window_ticks[shot]).astype(np.int64), bins - 1)
        row = row_of[channels]
        cell = shot * cells + col * rows + row
        block_counts = np.bincount(cell[row >= 0], minlength=len(block) * cells)
        if block_counts.max() > MAX_COUNT:
            k = start + int(np.argmax(block_counts)) // cells
            if isinstance(samples, Samples):
                k = int(samples.shots[k])
            raise FeatureError(
                f"shot {k}: {block_counts.max()} events in one channel and bin, "
                f"above the {MAX_COUNT} a count image holds"
            )
        counts.reshape(-1)[start * cells : start * cells + block_counts.size] = block_counts
    return counts


def featurize_dataset(
    samples: Sequence[ReadoutSample], spec: FeatureSpec, geometry: DetectorGeometry
) -> np.ndarray:
    """:func:`sequence_dataset` flattened channel-major (channel 0's bins first),
    shape (n, channels * bins)."""
    return _count_images(samples, spec, geometry).transpose(0, 2, 1).reshape(len(samples), -1)


def sequence_dataset(
    samples: Sequence[ReadoutSample], spec: FeatureSpec, geometry: DetectorGeometry
) -> np.ndarray:
    """Per-bin uint16 sequences (step t is image column t), shape (n, bins, channels)."""
    return _count_images(samples, spec, geometry)
