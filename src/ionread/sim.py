"""Phenomenological simulator of state-dependent fluorescence readout.

A register of trapped-ion qubits is read out by collecting state-dependent
fluorescence on an array of detector channels.  An ion in the bright state
scatters photons at a constant rate; an ion in the dark state scatters none.
Two imperfections are modelled on top of that ideal picture:

* optical pumping, as a single irreversible state flip at an exponentially
  distributed time inside the detection window (bright ions can go dark and
  stop scattering, dark ions can be pumped bright and start scattering),
* detection crosstalk, as per-photon multinomial routing of each emitted
  photon over the channel array according to a point-spread row centred on
  the emitting ion's channel.

Each channel additionally registers uniform background counts from laser
scatter and detector dark counts.

:func:`generate_dataset` draws labelled register shots in one of two modes.
Fresh mode samples whole blocks of shots of one state as vectors
(``_fresh_block``); pool mode superimposes independent single-ion
recordings (``_pool_recording``), one per ion, as readout assembled from
single-ion data would.  Both apply the law above and write arrival times as
uint16 ticks of ``TIME_RESOLUTION_US``.
"""
from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, fields, replace
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from .evaluate import labels_to_bits, state_labels

TIME_RESOLUTION_US = 0.1
# Arrival times are held as uint16 ticks of TIME_RESOLUTION_US.  Tick k reads
# back as k / TICKS_PER_US, which is exactly the float np.round(k * 0.1, 1)
# for every uint16 k, so files keep their bytes; k * 0.1 is not (3 * 0.1).
TICKS_PER_US = 10.0
MAX_TICKS = int(np.iinfo(np.uint16).max)
MAX_WINDOW_US = MAX_TICKS / TICKS_PER_US
MAX_IONS = 12
MAX_CHANNELS = 2**15  # channel ids are held in an int16 column

DEFAULT_WINDOW_US = 150.0
# 9 detected photons on average from a bright ion over the default window.
DEFAULT_BRIGHT_RATE = 0.06
# Laser scatter 20 counts/s and detector dark counts 2 counts/s per channel,
# about one false count per channel every 300 shots at the default window.
DEFAULT_SCATTER_RATE = 20e-6
DEFAULT_DARK_COUNT_RATE = 2e-6
# Pump-error rates solved so that single-ion fixed-threshold readout lands at
# 99.4% bright / 99.6% dark fidelity (average 99.5%) at the optimal threshold.
DEFAULT_PUMP_BRIGHT_TO_DARK = 3.563157006e-04
DEFAULT_PUMP_DARK_TO_BRIGHT = 5.310107875e-06

# Default point-spread rows: fraction of an ion's photons registered per
# channel offset.  With alternating imaging most of the leak (5% a side)
# lands on the unused channels between ions and a small tail (2%) reaches
# the neighbouring ions' channels two steps away; with adjacent imaging the
# full 12% leak lands directly on the neighbouring ions' channels.  The
# tail is what couples neighbouring readouts, so shrinking it to zero makes
# every per-ion discriminator equivalent and hides the strategy gaps this
# model exists to show.
ALTERNATING_SPREAD = (0.02, 0.05, 0.86, 0.05, 0.02)
ADJACENT_SPREAD = (0.12, 0.76, 0.12)

_ROW_SUM_TOL = 1e-12
_POOL_STREAM_TAG = 0x9E3779B9
# Shots drawn from one random stream in fresh mode.  Part of the generation
# contract: changing it changes every fresh dataset.
BLOCK_SHOTS = 4096


class SimulationError(ValueError):
    """Raised for invalid physical parameters or impossible requests."""


class CalibrationError(RuntimeError):
    """Raised when rate calibration cannot bracket or reach its target."""


def _store_plain(instance) -> None:
    """Replace numpy scalars in a frozen dataclass's fields by Python numbers.

    Arrays, lists and tuples, nested ones included, become tuples, so a
    header written from the fields is plain JSON; Python numbers are kept as
    they are.
    """

    def plain(value):
        if isinstance(value, np.ndarray):
            value = value.tolist()
        if isinstance(value, (tuple, list)):
            return tuple(plain(v) for v in value)
        return value.item() if isinstance(value, np.generic) else value

    for field in fields(instance):
        object.__setattr__(instance, field.name, plain(getattr(instance, field.name)))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class _FieldRecord:
    """A frozen dataclass whose dict form is its fields, by name."""

    def to_dict(self) -> dict:
        return {field.name: getattr(self, field.name) for field in fields(self)}

    @classmethod
    def from_dict(cls, data: dict):
        """The instance of exactly the fields' keys; a missing one raises ``KeyError``."""
        names = [field.name for field in fields(cls)]
        for key in data:
            if key not in names:
                raise SimulationError(f"{cls.__name__} has unknown key {key!r}")
        return cls(**{name: data[name] for name in names})


@dataclass(frozen=True)
class EmissionModel(_FieldRecord):
    """Per-ion photon emission and error-process rates, all in events/us.

    Parameters
    ----------
    bright_rate : float
        Photon detection rate while the ion is in the bright state.
    pump_bright_to_dark_rate : float
        Rate of the irreversible bright -> dark pumping flip.
    pump_dark_to_bright_rate : float
        Rate of the irreversible dark -> bright pumping flip.
    background_scatter_rate : float
        Laser-scatter background rate per channel.
    detector_dark_rate : float
        Detector dark-count rate per channel.
    window_us : float
        Duration of the detection window in microseconds, at most
        ``MAX_WINDOW_US`` (6553.5), the range of a uint16 tick.
    """

    bright_rate: float = DEFAULT_BRIGHT_RATE
    pump_bright_to_dark_rate: float = DEFAULT_PUMP_BRIGHT_TO_DARK
    pump_dark_to_bright_rate: float = DEFAULT_PUMP_DARK_TO_BRIGHT
    background_scatter_rate: float = DEFAULT_SCATTER_RATE
    detector_dark_rate: float = DEFAULT_DARK_COUNT_RATE
    window_us: float = DEFAULT_WINDOW_US

    def __post_init__(self) -> None:
        _store_plain(self)
        for name, value in self.to_dict().items():
            if not (_is_number(value) and math.isfinite(value) and value >= 0.0):
                raise SimulationError(f"{name} must be a finite number >= 0, got {value!r}")
        if not 0.0 < self.window_us <= MAX_WINDOW_US:
            raise SimulationError(
                f"window_us must be in (0, {MAX_WINDOW_US}] ({MAX_TICKS} ticks of "
                f"{TIME_RESOLUTION_US} us), got {self.window_us!r}"
            )

    @property
    def background_rate(self) -> float:
        """Total uniform background rate per channel."""
        return self.background_scatter_rate + self.detector_dark_rate


@dataclass(frozen=True)
class DetectorGeometry(_FieldRecord):
    """Mapping of ions onto detector channels plus per-ion crosstalk rows.

    ``crosstalk[i, m]`` is the probability that a photon emitted by ion ``i``
    is registered on channel ``m``.  Every row sums to one: photon routing is
    multinomial and photons are never lost, only misassigned.  When
    ``intermediate_channels_present`` is false, events routed to channels
    that carry no ion are dropped from the record.
    """

    num_ions: int
    num_channels: int
    ion_channel: tuple[int, ...]
    crosstalk: tuple[tuple[float, ...], ...]
    intermediate_channels_present: bool = True

    def __post_init__(self) -> None:
        _store_plain(self)
        if not isinstance(self.ion_channel, tuple):
            raise SimulationError(
                f"geometry ion_channel must be a sequence, got {self.ion_channel!r}"
            )
        # a float or bool here would count or index channels wrongly further on
        for name, values in (
            ("num_ions", [self.num_ions]),
            ("num_channels", [self.num_channels]),
            ("ion_channel", self.ion_channel),
        ):
            if any(isinstance(v, bool) or not isinstance(v, int) for v in values):
                raise SimulationError(
                    f"geometry {name} must be of integer type, got {getattr(self, name)!r}"
                )
        if not 1 <= self.num_ions <= MAX_IONS:
            raise SimulationError(f"num_ions must be in [1, {MAX_IONS}], got {self.num_ions}")
        if not self.num_ions <= self.num_channels <= MAX_CHANNELS:
            raise SimulationError(
                f"num_channels must be in [num_ions, {MAX_CHANNELS}] (channel ids are "
                f"stored in an int16 column), got {self.num_channels}"
            )
        if type(self.intermediate_channels_present) is not bool:
            raise SimulationError(
                "geometry intermediate_channels_present must be a bool, got "
                f"{self.intermediate_channels_present!r}"
            )
        if len(self.ion_channel) != self.num_ions:
            raise SimulationError("ion_channel must list one channel per ion")
        if len(set(self.ion_channel)) != self.num_ions:
            raise SimulationError("ion_channel assignments must be distinct")
        for ch in self.ion_channel:
            if not 0 <= ch < self.num_channels:
                raise SimulationError(f"ion channel {ch} outside [0, {self.num_channels})")
        # one row of num_channels entries per ion, before numpy reads any row
        if not (
            isinstance(self.crosstalk, tuple)
            and len(self.crosstalk) == self.num_ions
            and all(isinstance(row, tuple) and len(row) == self.num_channels
                    for row in self.crosstalk)
        ):
            raise SimulationError(
                f"crosstalk must be shaped ({self.num_ions}, {self.num_channels})"
            )
        if not all(_is_number(p) for row in self.crosstalk for p in row):
            raise SimulationError("crosstalk entries must be numbers, not strings or booleans")
        rows = np.asarray(self.crosstalk, dtype=float)
        if not np.all(np.isfinite(rows) & (rows >= 0.0)):
            raise SimulationError("crosstalk entries must be finite and >= 0")
        sums = rows.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > _ROW_SUM_TOL):
            raise SimulationError(f"crosstalk rows must sum to 1, got sums {sums}")

    @property
    def crosstalk_matrix(self) -> np.ndarray:
        return np.asarray(self.crosstalk, dtype=float)

    @property
    def recorded_channels(self) -> tuple[int, ...]:
        """The channels whose events are kept: all of them, or the ions' own."""
        if self.intermediate_channels_present:
            return tuple(range(self.num_channels))
        return self.ion_channel


def _spread_rows(
    num_ions: int, num_channels: int, ion_channel: Sequence[int], spread: Sequence[float]
) -> tuple[tuple[float, ...], ...]:
    """Build crosstalk rows from an odd-length point-spread row.

    Mass that would fall outside the channel array is kept on the emitting
    ion's own channel so every row still sums to one.
    """
    half = len(spread) // 2
    rows = []
    for i in range(num_ions):
        row = [0.0] * num_channels
        centre = ion_channel[i]
        for k, mass in enumerate(spread):
            m = centre + k - half
            row[m if 0 <= m < num_channels else centre] += mass
        rows.append(tuple(row))
    return tuple(rows)


def alternating_geometry(num_ions: int) -> DetectorGeometry:
    """Ions on every other channel with recorded intermediate channels.

    Crosstalk follows ``ALTERNATING_SPREAD``; build a
    :class:`DetectorGeometry` directly for any other.
    """
    num_channels = 2 * num_ions - 1
    ion_channel = tuple(2 * i for i in range(num_ions))
    crosstalk = _spread_rows(num_ions, num_channels, ion_channel, ALTERNATING_SPREAD)
    return DetectorGeometry(num_ions, num_channels, ion_channel, crosstalk, True)


def adjacent_geometry(num_ions: int) -> DetectorGeometry:
    """Ions on adjacent channels; no intermediate channels exist.

    Crosstalk follows ``ADJACENT_SPREAD``; build a :class:`DetectorGeometry`
    directly for any other.
    """
    ion_channel = tuple(range(num_ions))
    crosstalk = _spread_rows(num_ions, num_ions, ion_channel, ADJACENT_SPREAD)
    return DetectorGeometry(num_ions, num_ions, ion_channel, crosstalk, False)


@dataclass
class ReadoutSample:
    """One detection shot: the prepared label plus all recorded events.

    Events are stored as parallel arrays sorted by arrival time, ties broken
    by channel index: int16 ``channels`` and uint16 ``ticks``, the arrival
    times in units of ``TIME_RESOLUTION_US``.
    """

    label: str
    window_us: float
    channels: np.ndarray
    ticks: np.ndarray

    @property
    def num_events(self) -> int:
        return int(self.channels.shape[0])

    @property
    def times(self) -> np.ndarray:
        """Arrival times in microseconds, built on each access, never kept."""
        return _times(self.ticks)


def _times(ticks: np.ndarray) -> np.ndarray:
    """Arrival times in microseconds of ``ticks``, as a new read-only array."""
    times = ticks / TICKS_PER_US
    times.flags.writeable = False
    return times


@dataclass(eq=False)
class Dataset:
    """A labelled collection of readout shots, label-major ordered, held as columns.

    Three arrays are stored: shot ``i``'s events are
    ``channels[offsets[i]:offsets[i + 1]]`` (int16) and the same slice of
    ``ticks`` (uint16 arrival times in units of ``TIME_RESOLUTION_US``),
    sorted by time and then channel, so an event costs 4 bytes and a shot
    8 (its int64 offset).  The arrays are made read-only.  Nothing else is
    kept per shot: every shot's window is ``model.window_us``, and shot
    ``i`` was prepared in state ``i // samples_per_label``, since the shots
    are ``samples_per_label`` of each label in turn.
    """

    offsets: np.ndarray
    channels: np.ndarray
    ticks: np.ndarray
    geometry: DetectorGeometry
    model: EmissionModel
    seed: int
    samples_per_label: int
    mode: str = "fresh"

    def __post_init__(self) -> None:
        shots = 2**self.geometry.num_ions * self.samples_per_label
        if self.offsets.shape != (shots + 1,):
            raise SimulationError(
                f"{self.offsets.size} offsets, where {shots} label-major shots need {shots + 1}"
            )
        for column in (self.offsets, self.channels, self.ticks):
            column.flags.writeable = False

    @cached_property
    def states(self) -> np.ndarray:
        """Per-shot prepared register state (int64, ion 0 the most significant
        bit), read-only, derived once from the label-major layout."""
        states = np.repeat(
            np.arange(2**self.geometry.num_ions, dtype=np.int64), self.samples_per_label
        )
        states.flags.writeable = False
        return states

    @cached_property
    def labels(self) -> np.ndarray:
        """Per-shot labels as a read-only numpy ``U`` array, built once."""
        labels = np.repeat(state_labels(self.geometry.num_ions), self.samples_per_label)
        labels.flags.writeable = False
        return labels

    @property
    def samples(self) -> "Samples":
        """Every shot as a :class:`ReadoutSample`, built on access."""
        return Samples(self, np.arange(len(self), dtype=np.int64))

    def __len__(self) -> int:
        return self.offsets.size - 1


class Samples(Sequence):
    """Read-only sequence view of some of a dataset's shots.

    ``shots`` is an int64 array of dataset shot indices, in any order and
    with repeats.  Indexing with an int builds a :class:`ReadoutSample`
    whose channels and ticks are views into the dataset's columns; nothing
    is cached, so holding the view costs no per-shot memory.  A slice or an
    integer array gives another view.
    """

    __slots__ = ("_dataset", "shots")

    def __init__(self, dataset: Dataset, shots: np.ndarray):
        self._dataset = dataset
        self.shots = shots

    def __len__(self) -> int:
        return len(self.shots)

    def __getitem__(self, key):
        if isinstance(key, (slice, list, np.ndarray)):
            return Samples(self._dataset, self.shots[key])
        return self._sample(self.shots[key])

    def __iter__(self):
        return map(self._sample, self.shots.tolist())

    def _sample(self, i: int) -> ReadoutSample:
        ds = self._dataset
        lo, hi = ds.offsets[i], ds.offsets[i + 1]
        return ReadoutSample(
            str(state_labels(ds.geometry.num_ions)[i // ds.samples_per_label]),
            float(ds.model.window_us),
            ds.channels[lo:hi],
            ds.ticks[lo:hi],
        )


def stack_events(samples: Sequence[ReadoutSample]) -> tuple[np.ndarray, ...]:
    """Every shot's events end to end: ``(shot, channels, ticks, window_ticks)``.

    The first three hold one entry per event: its index into ``samples``, its
    channel and its uint16 tick ``k``.  ``window_ticks`` holds each shot's
    ``W = window_us * TICKS_PER_US``; of ``bins`` bins, ``k`` falls in
    ``min(k * bins // W, bins - 1)``.  A :class:`Samples` view is read from
    its columns; any other sequence is stacked shot by shot, for callers that
    hold shots in a list, such as the readout-3q benchmark's held-out shots.
    """
    if isinstance(samples, Samples):
        ds, index = samples._dataset, samples.shots
        starts = ds.offsets[index]
        lengths = ds.offsets[index + 1] - starts
        shot = np.repeat(np.arange(index.size), lengths)
        event = np.arange(shot.size) + np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
        windows = np.full(index.size, ds.model.window_us * TICKS_PER_US)
        return shot, ds.channels[event], ds.ticks[event], windows
    lengths = [s.channels.shape[0] for s in samples]
    channels = np.concatenate([s.channels for s in samples])
    ticks = np.concatenate([s.ticks for s in samples])
    windows = np.array([s.window_us for s in samples], dtype=float) * TICKS_PER_US
    return np.repeat(np.arange(len(samples)), lengths), channels, ticks, windows


def all_labels(num_ions: int) -> list[str]:
    """All basis-state labels in binary order, ion 0 leftmost."""
    return state_labels(num_ions).tolist()


def _pool_recording(
    ion: int,
    bit: int,
    entry: int,
    model: EmissionModel,
    geometry: DetectorGeometry,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Pool entry ``entry`` of ``ion`` prepared in ``bit``: one single-ion recording.

    The ion flips at most once, at an exponential time, and emits Poisson
    photons while bright; each photon lands on a channel drawn from the ion's
    crosstalk row, and every channel adds its uniform background.  One RNG
    stream per recording.  Returns int16 channels and uint16 ticks sorted by
    tick, then channel.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence((seed, _POOL_STREAM_TAG, ion, bit, entry))
    )
    row = geometry.crosstalk_matrix[ion]
    window = model.window_us
    rate = model.pump_bright_to_dark_rate if bit else model.pump_dark_to_bright_rate
    flip = rng.exponential(1.0 / rate) if rate > 0.0 else math.inf
    start, stop = (0.0, min(flip, window)) if bit else (flip, window)
    chan_parts: list[np.ndarray] = []
    time_parts: list[np.ndarray] = []
    # a dark ion that never flips inside the window emits nothing
    if start < window:
        n = rng.poisson(model.bright_rate * (stop - start))
        times = np.sort(rng.uniform(start, stop, size=n))
        if n:
            chan_parts.append(rng.choice(geometry.num_channels, size=n, p=row).astype(np.int16))
            time_parts.append(times)
    bg_mean = model.background_rate * window
    for m in range(geometry.num_channels):
        n_bg = rng.poisson(bg_mean)
        if n_bg:
            chan_parts.append(np.full(n_bg, m, dtype=np.int16))
            time_parts.append(rng.uniform(0.0, window, size=n_bg))
    if not chan_parts:
        return np.empty(0, dtype=np.int16), np.empty(0, dtype=np.uint16)
    channels = np.concatenate(chan_parts)
    ticks = np.floor(np.concatenate(time_parts) / TIME_RESOLUTION_US).astype(np.uint16)
    if not geometry.intermediate_channels_present:
        keep = np.isin(channels, np.asarray(geometry.ion_channel, dtype=np.int16))
        channels, ticks = channels[keep], ticks[keep]
    order = np.lexsort((np.arange(channels.size), channels, ticks))
    return channels[order], ticks[order]


def _fresh_block(
    bits: np.ndarray,
    shots: int,
    model: EmissionModel,
    geometry: DetectorGeometry,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``shots`` shots of one register state, drawn as whole vectors.

    Every ion follows the one-ion law of :func:`_pool_recording`, but each
    channel's background is drawn once per shot rather than once per ion.
    Returns (events per shot, channels, ticks), the events sorted by shot,
    then time, then channel.
    """
    window = model.window_us
    bright = bits.astype(bool)[:, None]
    rates = np.where(bright, model.pump_bright_to_dark_rate, model.pump_dark_to_bright_rate)
    # one flip time per (ion, shot), ion-major; a zero rate never flips
    flip = rng.standard_exponential((bits.size, shots))
    flip = np.divide(flip, rates, out=np.full_like(flip, np.inf), where=rates > 0.0)
    flip = np.minimum(flip, window)
    start = np.where(bright, 0.0, flip).ravel()
    span = np.where(bright, flip, window).ravel() - start
    counts = rng.poisson(model.bright_rate * span)
    owner = np.repeat(np.arange(counts.size), counts)
    signal_times = start[owner] + span[owner] * rng.random(owner.size)
    # inverse-CDF routing; the last channel with mass absorbs the rounding, so
    # a channel without mass is never chosen
    cum = np.cumsum(geometry.crosstalk_matrix, axis=1)
    cum[cum >= cum[:, -1:]] = 1.0
    u = rng.random(owner.size)
    signal_channels = np.empty(owner.size, dtype=np.int16)
    bounds = np.cumsum(counts.reshape(bits.size, shots).sum(axis=1))
    lo = 0
    for ion, hi in enumerate(bounds):
        signal_channels[lo:hi] = np.searchsorted(cum[ion], u[lo:hi], side="right")
        lo = hi
    background = rng.poisson(model.background_rate * window, (geometry.num_channels, shots))
    bg_owner = np.repeat(np.arange(background.size), background.ravel())
    shot = np.concatenate([owner % shots, bg_owner % shots])
    channels = np.concatenate([signal_channels, (bg_owner // shots).astype(np.int16)])
    times = np.concatenate([signal_times, rng.uniform(0.0, window, bg_owner.size)])
    if not geometry.intermediate_channels_present:
        recorded = np.zeros(geometry.num_channels, dtype=bool)
        recorded[list(geometry.ion_channel)] = True
        keep = recorded[channels]
        shot, channels, times = shot[keep], channels[keep], times[keep]
    ticks = np.floor(times / TIME_RESOLUTION_US).astype(np.uint16)
    order = np.lexsort((channels, ticks, shot))
    return np.bincount(shot, minlength=shots), channels[order], ticks[order]


def _dataset_fields(seed, samples_per_label, mode) -> tuple[int, int, str]:
    """A dataset's ``seed`` and ``samples_per_label``, as Python ints, and ``mode``.

    Both counts must be integers, numpy ones included, but not booleans:
    ``seed`` at least 0 and ``samples_per_label`` at least 1.  ``mode`` must
    be ``"fresh"`` or ``"pool"``.
    """
    for name, value, least in (("seed", seed, 0), ("samples_per_label", samples_per_label, 1)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
            raise SimulationError(f"{name} must be an integer >= {least}, got {value!r}")
    if mode not in ("fresh", "pool"):
        raise SimulationError(f"unknown generation mode {mode!r}")
    return int(seed), int(samples_per_label), mode


def generate_dataset(
    model: EmissionModel,
    geometry: DetectorGeometry,
    samples_per_label: int,
    seed: int,
    mode: str = "fresh",
) -> Dataset:
    """Generate a balanced labelled dataset over all basis states.

    ``mode="fresh"`` simulates every register shot independently with
    :func:`_fresh_block`, in blocks of ``BLOCK_SHOTS`` shots with one RNG
    stream per ``(seed, label index, block index)``.  ``mode="pool"``
    assembles each shot by superimposing one :func:`_pool_recording` per
    ion, drawn without replacement from per-(ion, state) pools, one RNG
    stream per recording, so background enters once per ion.  Either way
    the output is bit-identical across runs.  Labels are simulated one
    after another, in this process.
    """
    seed, samples_per_label, mode = _dataset_fields(seed, samples_per_label, mode)
    parts = []  # (lengths, channels, ticks) of each fresh block or pool label
    drawn = np.zeros((geometry.num_ions, 2), dtype=np.int64)  # pool entries used per (ion, bit)
    for label_index, bits in enumerate(labels_to_bits(state_labels(geometry.num_ions))):
        if mode == "fresh":
            for block, first in enumerate(range(0, samples_per_label, BLOCK_SHOTS)):
                rng = np.random.default_rng(np.random.SeedSequence((seed, label_index, block)))
                shots = min(BLOCK_SHOTS, samples_per_label - first)
                parts.append(_fresh_block(bits, shots, model, geometry, rng))
        else:
            # a shot superimposes the next unused recording of each ion's pool
            # for its bit, so background enters once per ion; the shots are
            # joined per label, so that no per-shot array outlives its label
            pooled = []
            for k in range(samples_per_label):
                recordings = [
                    _pool_recording(ion, bit, drawn[ion, bit] + k, model, geometry, seed)
                    for ion, bit in enumerate(bits.tolist())
                ]
                channels, ticks = (np.concatenate(column) for column in zip(*recordings))
                order = np.lexsort((np.arange(channels.size), channels, ticks))
                pooled.append((channels[order], ticks[order]))
            drawn[np.arange(geometry.num_ions), bits] += samples_per_label
            channels, ticks = (np.concatenate(column) for column in zip(*pooled))
            parts.append((np.array([c.size for c, _ in pooled]), channels, ticks))
    lengths, channels, ticks = (np.concatenate(column) for column in zip(*parts))
    offsets = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return Dataset(offsets, channels, ticks, geometry, model, seed, samples_per_label, mode)


# ---------------------------------------------------------------------------
# Exact per-shot count distribution and threshold fidelity for a single ion.

def poisson_pmf(k: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Poisson pmf ``exp(k log mu - mu - lgamma(k + 1))``, broadcast over k and mu.

    A mean of 0 puts all mass on k = 0.
    """
    k = np.asarray(k, dtype=float)
    mu = np.asarray(mu, dtype=float)
    log_factorial = np.asarray(np.frompyfunc(math.lgamma, 1, 1)(k + 1.0), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        k_log_mu = np.where(k == 0.0, 0.0, k * np.log(mu))
    return np.exp(k_log_mu - mu - log_factorial)


_QUADRATURE_NODES = 400


@cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], built on first use."""
    nodes, weights = np.polynomial.legendre.leggauss(_QUADRATURE_NODES)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def count_distribution(state: int, model: EmissionModel) -> np.ndarray:
    """Exact count pmf on a single isolated ion's channel.

    Marginalises the pumping flip time with Gauss-Legendre quadrature:
    conditioned on a flip at ``tau``, the count is Poisson with mean equal to
    the bright exposure plus the background mean.  The pmf covers counts up
    to ``mu + 12 sqrt(mu + 1) + 20``, ``mu`` being the bright ion's mean.
    """
    if state not in (0, 1):
        raise SimulationError(f"ion state must be 0 or 1, got {state!r}")
    lam = model.bright_rate
    window = model.window_us
    bg = model.background_rate * window
    mu_max = lam * window + bg
    ks = np.arange(int(mu_max + 12.0 * math.sqrt(mu_max + 1.0) + 20.0) + 1)
    rate = (
        model.pump_bright_to_dark_rate if state == 1 else model.pump_dark_to_bright_rate
    )
    no_flip_mu = lam * window + bg if state == 1 else bg
    if rate == 0.0:
        return poisson_pmf(ks, no_flip_mu)
    nodes, weights = _gauss_legendre()
    tau = 0.5 * window * (nodes + 1.0)
    weights = 0.5 * window * weights
    density = rate * np.exp(-rate * tau)
    exposure = tau if state == 1 else window - tau
    mu = lam * exposure + bg
    pmf = poisson_pmf(ks[:, None], mu[None, :]) @ (density * weights)
    pmf += math.exp(-rate * window) * poisson_pmf(ks, no_flip_mu)
    return pmf


def expected_channel_means(
    model: EmissionModel, geometry: DetectorGeometry, mode: str
) -> np.ndarray:
    """Expected events per (label, recorded channel), in ``all_labels`` order.

    A bright ion emits until it pumps dark at rate r, so its exposure is
    E[min(tau, W)] = (1 - exp(-r W)) / r; a dark ion emits from its flip on,
    W minus the same expression at its own rate.  Pool mode superimposes one
    single-ion recording per ion, so background enters once per ion.
    """
    if mode not in ("fresh", "pool"):
        raise SimulationError(f"unknown generation mode {mode!r}")
    window = model.window_us

    def exposure(rate: float) -> float:
        return window if rate == 0.0 else (1.0 - math.exp(-rate * window)) / rate

    bright = exposure(model.pump_bright_to_dark_rate)
    dark = window - exposure(model.pump_dark_to_bright_rate)
    background = model.background_rate * window
    if mode == "pool":
        background *= geometry.num_ions
    bits = labels_to_bits(state_labels(geometry.num_ions))
    exposures = np.where(bits == 1, bright, dark)
    means = model.bright_rate * exposures @ geometry.crosstalk_matrix + background
    return means[:, list(geometry.recorded_channels)]


class SingleIonFidelity(NamedTuple):
    threshold: int
    fidelity_bright: float
    fidelity_dark: float
    average: float


def single_ion_fidelity(model: EmissionModel) -> SingleIonFidelity:
    """Best-threshold readout fidelity of one isolated ion, computed exactly.

    The threshold scan mirrors the empirical fit: a count strictly above the
    threshold reads as bright, ties in total error go to the smaller
    threshold.
    """
    pmf_bright = count_distribution(1, model)
    pmf_dark = count_distribution(0, model)
    cdf_bright = np.cumsum(pmf_bright)
    cdf_dark = np.cumsum(pmf_dark)
    total_error = cdf_bright + (1.0 - cdf_dark)
    theta = int(np.argmin(total_error))
    fid_bright = 1.0 - cdf_bright[theta]
    fid_dark = cdf_dark[theta]
    return SingleIonFidelity(theta, fid_bright, fid_dark, 0.5 * (fid_bright + fid_dark))


# Calibration bisects one pump-rate multiplier inside this range until the
# fidelity lies within the tolerance of its target, in at most this many steps.
CALIBRATION_MULTIPLIERS = (0.0, 64.0)
CALIBRATION_TOLERANCE = 1e-4
CALIBRATION_MAX_ITERATIONS = 200


def calibrate_to_fidelity(target: float, model: EmissionModel | None = None) -> EmissionModel:
    """Scale both pump rates so single-ion readout hits a target fidelity.

    Deterministic bisection on a single scalar multiplier of
    ``model``'s pump rates, inside ``CALIBRATION_MULTIPLIERS``, to within
    ``CALIBRATION_TOLERANCE``; fidelity is evaluated with the exact count
    distributions, so the search itself involves no sampling.  Raises
    :class:`CalibrationError` when the target cannot be bracketed or
    ``CALIBRATION_MAX_ITERATIONS`` steps pass first.
    """
    if model is None:
        model = EmissionModel()
    if not 0.0 < target <= 1.0:
        raise CalibrationError(f"target fidelity must be in (0, 1], got {target}")

    def scaled(mult: float) -> EmissionModel:
        return replace(
            model,
            pump_bright_to_dark_rate=model.pump_bright_to_dark_rate * mult,
            pump_dark_to_bright_rate=model.pump_dark_to_bright_rate * mult,
        )

    lo, hi = CALIBRATION_MULTIPLIERS
    fid_lo = single_ion_fidelity(scaled(lo)).average
    if abs(fid_lo - target) <= CALIBRATION_TOLERANCE:
        return scaled(lo)
    if fid_lo < target:
        raise CalibrationError(
            f"target {target} above reachable fidelity {fid_lo:.6f} at multiplier {lo}"
        )
    fid_hi = single_ion_fidelity(scaled(hi)).average
    if fid_hi > target + CALIBRATION_TOLERANCE:
        raise CalibrationError(
            f"target {target} not bracketed: fidelity {fid_hi:.6f} at multiplier {hi}"
        )
    for _ in range(CALIBRATION_MAX_ITERATIONS):
        mid = 0.5 * (lo + hi)
        fid_mid = single_ion_fidelity(scaled(mid)).average
        if abs(fid_mid - target) <= CALIBRATION_TOLERANCE:
            return scaled(mid)
        if fid_mid > target:
            lo = mid
        else:
            hi = mid
    raise CalibrationError(
        f"no convergence to target {target} within {CALIBRATION_MAX_ITERATIONS} "
        f"bisection steps"
    )


# ---------------------------------------------------------------------------
# Line-oriented dataset serialisation.

_FORMAT_NAME = "ionread.dataset"
_FORMAT_VERSION = 1


def _shot_from_line(line: str) -> tuple[object, object, np.ndarray, np.ndarray]:
    """(label, window_us, channels, times) of one shot line, keys and event types checked."""
    record = json.loads(line)
    label, window_us, events = record["label"], record["window_us"], record["events"]
    # all three keys are there, so any further key is one save_dataset never writes
    if len(record) != 3:
        unknown = next(key for key in record if key not in ("label", "window_us", "events"))
        raise SimulationError(f"unknown key {unknown!r}")
    channels, times = [], []
    # unpacking rejects events of any other length
    for channel, time in events:
        if type(channel) is not int:
            raise ValueError(f"channel {channel!r} is not an integer")
        if type(time) is not float and type(time) is not int:
            raise ValueError(f"time {time!r} is not a number")
        channels.append(channel)
        times.append(time)
    channels = np.asarray(channels, dtype=np.int16)
    times = np.asarray(times, dtype=float)
    return label, window_us, channels, times


def save_dataset(dataset: Dataset, path: str) -> None:
    """Write a dataset as one JSON header line plus one JSON line per shot."""
    header = {
        "format": _FORMAT_NAME,
        "version": _FORMAT_VERSION,
        "seed": dataset.seed,
        "samples_per_label": dataset.samples_per_label,
        "mode": dataset.mode,
        "model": dataset.model.to_dict(),
        "geometry": dataset.geometry.to_dict(),
    }
    bounds = dataset.offsets.tolist()
    labels = all_labels(dataset.geometry.num_ions)
    window_us = dataset.model.window_us
    with open(path, "w") as fh:
        fh.write(json.dumps(header, separators=(",", ":")) + "\n")
        for i in range(len(dataset)):
            label = labels[i // dataset.samples_per_label]
            lo, hi = bounds[i], bounds[i + 1]
            events = [
                list(event)
                for event in zip(
                    dataset.channels[lo:hi].tolist(), _times(dataset.ticks[lo:hi]).tolist()
                )
            ]
            record = {"label": label, "window_us": window_us, "events": events}
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def _read_header(path: str, line: str) -> dict:
    """The header's :class:`Dataset` fields, with geometry and model built."""
    try:
        header = json.loads(line)
        if not isinstance(header, dict) or header.pop("format", None) != _FORMAT_NAME:
            raise SimulationError(f"not a {_FORMAT_NAME} file")
        version = header.pop("version", None)
        if type(version) is not int or version != _FORMAT_VERSION:
            raise SimulationError(f"unsupported version {version!r}")
        names = ("seed", "samples_per_label", "mode")
        run = dict(zip(names, _dataset_fields(*(header.pop(name) for name in names))))
        run["geometry"] = DetectorGeometry.from_dict(header.pop("geometry"))
        run["model"] = EmissionModel.from_dict(header.pop("model"))
        if header:
            raise SimulationError(f"unknown key {next(iter(header))!r}")
        return run
    except KeyError as exc:
        raise SimulationError(f"{path}:1: header lacks key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise SimulationError(f"{path}:1: bad header: {exc}") from None


def load_dataset(path: str) -> Dataset:
    """Read a dataset file; reject any shot the simulator cannot have written.

    The header, its model and its geometry hold exactly the keys
    :func:`save_dataset` writes: the format, version, an integer seed >= 0,
    an integer ``samples_per_label`` >= 1, a generation mode, and a valid
    emission model and geometry.  Each shot holds exactly three keys: a
    label of one 0/1 per ion, the header model's ``window_us`` (a number),
    and events ``[channel, time]`` with integer channels the geometry
    records and finite numeric times in ``[0, window_us]`` on the
    ``TIME_RESOLUTION_US`` grid, sorted by time and then channel.
    The file holds ``samples_per_label`` shots of every label, label-major,
    as the simulator writes them.  So the returned :class:`Dataset` stores
    only offsets, channels and ticks: 4 bytes per event and 8 per shot.
    """
    with open(path) as fh:
        header = _read_header(path, fh.readline())
        geometry = header["geometry"]
        window = header["model"].window_us
        labels = all_labels(geometry.num_ions)
        state_of = {label: k for k, label in enumerate(labels)}
        lengths, states, line_numbers = [], [], []
        channel_parts = [np.empty(0, dtype=np.int16)]
        time_parts = [np.empty(0, dtype=float)]
        for line_number, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                label, window_us, channels, times = _shot_from_line(line)
            except SimulationError as exc:
                raise SimulationError(f"{path}:{line_number}: shot has {exc}") from None
            except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
                raise SimulationError(
                    f"{path}:{line_number}: malformed shot {exc!r}"
                ) from exc
            if not (isinstance(label, str) and label in state_of):
                raise SimulationError(
                    f"{path}:{line_number}: label {label!r} is not one 0/1 per ion"
                )
            if type(window_us) not in (int, float) or window_us != window:
                raise SimulationError(
                    f"{path}:{line_number}: window_us {window_us!r} is not the "
                    f"header model's {window}"
                )
            lengths.append(channels.size)
            states.append(state_of[label])
            channel_parts.append(channels)
            time_parts.append(times)
            line_numbers.append(line_number)
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    channels = np.concatenate(channel_parts)
    times = np.concatenate(time_parts)
    shot = np.repeat(np.arange(len(lengths)), lengths)
    recorded = list(geometry.recorded_channels)
    bad = ~np.isin(channels, recorded)
    bad |= ~((times >= 0.0) & (times <= window))
    if bad.any():
        i = int(np.argmax(bad))
        raise SimulationError(
            f"{path}:{line_numbers[shot[i]]}: event [{channels[i]}, {times[i]}] needs "
            f"a channel the geometry records, one of {recorded}, and a finite time "
            f"in [0, {window}]"
        )
    # the window, at most MAX_WINDOW_US, bounds every tick at MAX_TICKS
    ticks = np.rint(times * TICKS_PER_US)
    off_grid = ticks / TICKS_PER_US != times
    if off_grid.any():
        i = int(np.argmax(off_grid))
        raise SimulationError(
            f"{path}:{line_numbers[shot[i]]}: event [{channels[i]}, {times[i]}] is not "
            f"a whole number of {TIME_RESOLUTION_US} us ticks"
        )
    ticks = ticks.astype(np.uint16)
    # the simulator's order: by time, equal times by channel
    same_shot = shot[1:] == shot[:-1]
    earlier = (ticks[1:] < ticks[:-1]) | (
        (ticks[1:] == ticks[:-1]) & (channels[1:] < channels[:-1])
    )
    unordered = same_shot & earlier
    if unordered.any():
        i = int(np.argmax(unordered)) + 1
        raise SimulationError(
            f"{path}:{line_numbers[shot[i]]}: event [{channels[i]}, {times[i]}] "
            f"follows [{channels[i - 1]}, {times[i - 1]}]; events must be "
            f"sorted by time, then channel"
        )
    # the simulator's shots: samples_per_label of each label, label-major
    states = np.asarray(states, dtype=np.int64)
    per_label = header["samples_per_label"]
    expected = len(labels) * per_label
    if states.size != expected:
        raise SimulationError(
            f"{path}: {states.size} shots, where {len(labels)} labels of "
            f"{per_label} shots each make {expected}"
        )
    misplaced = states != np.arange(expected) // per_label
    if misplaced.any():
        i = int(np.argmax(misplaced))
        raise SimulationError(
            f"{path}:{line_numbers[i]}: shot {i} is labelled {labels[states[i]]}, where "
            f"label-major order puts {labels[i // per_label]}"
        )
    return Dataset(offsets, channels, ticks, **header)
