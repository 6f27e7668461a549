"""The benchmark's three workloads, driven through ionread's public entry points.

Each workload is a class: its constructor is the set-up, which builds the
inputs from the seed, and ``run`` does one timed operation.  The checks of an
operation's output run after its clock stops (``OpResult.check``), and a
failed check fails the operation.  The package sees only the generated
inputs.

experiment-3q
    ``cli.run_experiment`` on preset 3q: simulate with two worker processes,
    train and score all seven strategies, write models and the summary.
    Training runs a fixed number of epochs (patience equals the epoch cap),
    so every seed does the same work and wall time tracks speed, not
    convergence.
dataset-5q
    A 5-ion adjacent register without networks: calibrate, generate fresh
    and pool shots, JSONL save and load, featurize at 1, 5 and 15 bins, fit
    and apply FT and AT, evaluate.
readout-3q
    Online readout in a closed loop, one caller, one shot at a time: FT, AT,
    TNN+ and RNN each featurize the shot and classify it.  The models are
    trained during set-up; their quality does not matter for latency.  Not
    in BENCHMARK.json, because its latency was not steady enough to gate on
    (see run.py).
"""
from __future__ import annotations

import hashlib
import math
import shutil
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from ionread import cli, evaluate, features, lstm, mlp, sim, threshold

NETWORK_STRATEGIES = ("NN", "NN+", "TNN", "TNN+", "RNN")
READOUT_MODELS = ("FT", "AT", "TNN+", "RNN")


@dataclass
class OpResult:
    shots: int
    failures: list[str] = field(default_factory=list)
    quality: dict[str, tuple[float, float]] = field(default_factory=dict)  # error, stderr
    counts: dict[str, float] = field(default_factory=dict)  # repeat exactly
    rates: dict[str, float] = field(default_factory=dict)  # timings
    check: Callable[[], list[str]] | None = None  # untimed output checks


def derived_seeds(seed: int) -> tuple[int, int]:
    """(seed_data, seed_train) for one benchmark seed."""
    data, train = np.random.SeedSequence(seed).generate_state(2)
    return int(data), int(train)


def _error(report: evaluate.FidelityReport) -> tuple[float, float]:
    return 1.0 - report.average, report.average_stderr


def dataset_digest(dataset: sim.Dataset) -> str:
    digest = hashlib.sha256()
    for sample in dataset.samples:
        digest.update(sample.label.encode())
        digest.update(np.ascontiguousarray(sample.channels, dtype=np.int16).tobytes())
        digest.update(np.ascontiguousarray(sample.times, dtype=float).tobytes())
    return digest.hexdigest()[:16]


# ---------------------------------------------------------------------------
# experiment-3q

@dataclass(frozen=True)
class ExperimentSize:
    samples_per_label: int = 3500
    # 11200 training shots train TNN+ and RNN past FT on every seed tried;
    # 16800 test shots keep avg_error steady across seeds.
    train_fraction: float = 0.4
    epochs: int = 10
    batch_size: int = 64
    n_jobs: int = 2


class Experiment:
    def __init__(self, seed: int, size: ExperimentSize, work_dir: Path):
        seed_data, seed_train = derived_seeds(seed)
        self.config = cli.build_config(
            preset="3q",
            overrides={
                "samples_per_label": size.samples_per_label,
                "train_fraction": size.train_fraction,
                "epochs": size.epochs,
                "patience": size.epochs,
                "batch_size": size.batch_size,
                "n_jobs": size.n_jobs,
                "seed_data": seed_data,
                "seed_train": seed_train,
            },
        )
        self.out_dir = work_dir / "experiment"
        self.digest = ""
        self.shots = size.samples_per_label * 2 ** self.config.num_ions

    def run(self) -> OpResult:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        summary = cli.run_experiment(self.config, self.out_dir)
        result = OpResult(self.shots)
        if summary["errors"]:
            result.failures.append(f"strategy errors: {summary['errors']}")
        strategies = summary["strategies"]
        for name, entry in strategies.items():
            error = 1.0 - entry["average"]
            result.quality[name] = (error, entry["average_stderr"])
            if not math.isfinite(error):
                result.failures.append(f"{name}: avg_error {error}")
        ft = strategies.get("FT")
        for name in ("TNN+", "RNN"):
            entry = strategies.get(name)
            if ft is None or entry is None:
                result.failures.append(f"{name} or FT missing from the summary")
                continue
            margin = 2.0 * math.hypot(ft["average_stderr"], entry["average_stderr"])
            if ft["average"] - entry["average"] > margin:
                result.failures.append(
                    f"{name} fidelity {entry['average']:.5f} below FT "
                    f"{ft['average']:.5f} by more than 2 combined SE"
                )
        rows = summary["train_shots"]
        trained = seconds = 0.0
        for name in NETWORK_STRATEGIES:
            entry = strategies.get(name)
            if entry is None:
                continue
            with open(self.out_dir / entry["history_file"]) as fh:
                epochs = sum(1 for _ in fh) - 1
            result.counts[f"epochs.{name}"] = epochs
            trained += epochs * rows
            seconds += entry["seconds"]
        if seconds > 0:
            result.rates["train_samples_per_s"] = trained / seconds
        data = (self.out_dir / "dataset.jsonl").read_bytes()
        result.counts["bytes_per_shot"] = len(data) / self.shots
        shots = data[data.index(b"\n") + 1 :]  # the header names the seed; hash the shots
        self.digest = hashlib.sha256(shots).hexdigest()[:16]
        return result

    def close(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# dataset-5q

@dataclass(frozen=True)
class DatasetSize:
    num_ions: int = 5
    samples_per_label: int = 200
    train_fraction: float = 0.3
    target_fidelity: float = 0.995


def analytic_channel_means(
    model: sim.EmissionModel, geometry: sim.DetectorGeometry, mode: str
) -> np.ndarray:
    """Expected events per (label, recorded channel), in ``all_labels`` order.

    A bright ion emits until it pumps dark at rate r, so its exposure is
    E[min(tau, W)] = (1 - exp(-r W)) / r; a dark ion emits from its flip on,
    W minus the same expression at its own rate.  Pool mode superimposes one
    single-ion recording per ion, so background enters once per ion.
    """
    window = model.window_us

    def exposure(rate: float) -> float:
        return window if rate == 0.0 else (1.0 - math.exp(-rate * window)) / rate

    bright = exposure(model.pump_bright_to_dark_rate)
    dark = window - exposure(model.pump_dark_to_bright_rate)
    background = model.background_rate * window
    if mode == "pool":
        background *= geometry.num_ions
    rows = geometry.crosstalk_matrix
    means = []
    for label in sim.all_labels(geometry.num_ions):
        exposures = np.asarray([bright if bit == "1" else dark for bit in label])
        means.append(model.bright_rate * exposures @ rows + background)
    means = np.asarray(means)
    if not geometry.intermediate_channels_present:
        means = means[:, list(geometry.ion_channel)]
    return means


def channel_mean_failures(dataset: sim.Dataset, expected: np.ndarray, sigmas: float = 5.0):
    """Labels and channels whose observed mean event count is off by > sigmas."""
    geometry = dataset.geometry
    channels = (
        list(range(geometry.num_channels))
        if geometry.intermediate_channels_present
        else list(geometry.ion_channel)
    )
    column = np.full(geometry.num_channels, -1)
    column[channels] = np.arange(len(channels))
    per_label = dataset.samples_per_label
    counts = np.zeros((len(dataset), len(channels)))
    for i, sample in enumerate(dataset.samples):
        np.add.at(counts[i], column[sample.channels], 1.0)
    failures = []
    for k, label in enumerate(sim.all_labels(geometry.num_ions)):
        block = counts[k * per_label : (k + 1) * per_label]
        mean = block.mean(axis=0)
        variance = np.maximum(block.var(axis=0, ddof=1), expected[k])
        sigma = np.sqrt(variance / per_label)
        for c in np.flatnonzero(np.abs(mean - expected[k]) > sigmas * sigma):
            failures.append(
                f"{dataset.mode} label {label} channel {channels[c]}: mean "
                f"{mean[c]:.4f}, analytic {expected[k][c]:.4f} (sigma {sigma[c]:.4f})"
            )
    return failures


def round_trip_failures(original: sim.Dataset, loaded: sim.Dataset) -> list[str]:
    if len(original) != len(loaded):
        return [f"loaded {len(loaded)} shots, saved {len(original)}"]
    for i, (a, b) in enumerate(zip(original.samples, loaded.samples)):
        if (
            a.label != b.label
            or not np.array_equal(a.channels, b.channels)
            or not np.array_equal(a.times, b.times)
        ):
            return [f"shot {i} differs after the JSONL round trip"]
    return []


class DatasetPipeline:
    def __init__(self, seed: int, size: DatasetSize, work_dir: Path):
        self.seed_data, _ = derived_seeds(seed)
        self.size = size
        self.geometry = sim.adjacent_geometry(size.num_ions)
        self.path = work_dir / "dataset-5q.jsonl"
        self.digest = ""

    def run(self) -> OpResult:
        size = self.size
        model = sim.calibrate_to_fidelity(size.target_fidelity)
        made = {
            mode: sim.generate_dataset(
                model, self.geometry, size.samples_per_label, self.seed_data, mode=mode
            )
            for mode in ("fresh", "pool")
        }
        fresh = made["fresh"]
        sim.save_dataset(fresh, str(self.path))
        loaded = sim.load_dataset(str(self.path))
        labels = loaded.labels
        train_idx, test_idx = evaluate.split(labels, size.train_fraction, self.seed_data)
        train_labels = [labels[i] for i in train_idx]
        test_labels = [labels[i] for i in test_idx]
        images = {
            bins: features.featurize_dataset(
                loaded.samples, features.FeatureSpec(num_bins=bins), self.geometry
            )
            for bins in (1, 5, 15)
        }
        counts = images[1].astype(np.int64)
        result = OpResult(sum(len(d) for d in made.values()))
        fixed = threshold.fit_fixed(counts[train_idx], train_labels)
        predicted = threshold.classify_fixed(fixed, counts[test_idx])
        result.quality["FT"] = _error(
            evaluate.fidelity(evaluate.confusion(predicted, test_labels), "FT")
        )
        adaptive = threshold.fit_adaptive(counts[train_idx], train_labels)
        predicted, converged = threshold.classify_adaptive(adaptive, counts[test_idx])
        result.quality["AT"] = _error(
            evaluate.fidelity(evaluate.confusion(predicted, test_labels), "AT")
        )
        result.counts["at_unconverged"] = int((~converged).sum())
        result.counts["bytes_per_shot"] = self.path.stat().st_size / len(fresh)
        events = sum(s.num_events for d in made.values() for s in d.samples)
        result.counts["events_per_shot"] = events / result.shots
        result.check = lambda: self._check(model, made, loaded, images)
        return result

    def _check(self, model, made, loaded, images) -> list[str]:
        failures = []
        calibrated = sim.single_ion_fidelity(model).average
        if abs(calibrated - self.size.target_fidelity) > 1e-4:
            failures.append(f"calibrated fidelity {calibrated:.6f}")
        for mode, dataset in made.items():
            expected = analytic_channel_means(model, self.geometry, mode)
            failures += channel_mean_failures(dataset, expected)
        failures += round_trip_failures(made["fresh"], loaded)
        for bins in (5, 15):
            summed = images[bins].reshape(len(loaded), -1, bins).sum(axis=2)
            if not np.array_equal(summed, images[1]):
                failures.append(f"{bins}-bin image does not sum to the totals")
        self.digest = dataset_digest(made["fresh"])
        return failures

    def close(self) -> None:
        self.path.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# readout-3q

@dataclass(frozen=True)
class ReadoutSize:
    samples_per_label: int = 1600
    train_fraction: float = 0.2
    epochs: int = 2


class Readout:
    """Stream held-out shots one at a time through four trained readouts."""

    def __init__(self, seed: int, size: ReadoutSize, work_dir: Path):
        seed_data, seed_train = derived_seeds(seed)
        config = cli.build_config(
            preset="3q",
            overrides={
                "samples_per_label": size.samples_per_label,
                "train_fraction": size.train_fraction,
                "epochs": size.epochs,
                "patience": size.epochs,
                "seed_data": seed_data,
                "seed_train": seed_train,
            },
        )
        dataset = sim.generate_dataset(
            cli.build_emission_model(config),
            cli.build_geometry(config),
            config.samples_per_label,
            seed_data,
        )
        train_idx, test_idx = evaluate.split(
            dataset.labels, config.train_fraction, seed_data
        )
        # Train on the training split and score only a few held-out shots:
        # the streamed shots are scored by the loop itself.
        probe_idx = test_idx[:: max(1, test_idx.size // 64)]
        self.geometry = dataset.geometry
        self.models = {
            name: cli.run_strategy(cli.STRATEGIES[name], dataset, train_idx, probe_idx, config)
            for name in READOUT_MODELS
        }
        self.stream = [dataset.samples[i] for i in test_idx]
        self.digest = dataset_digest(dataset)
        # What the loop streamed: shot indices plus one label list per model.
        # Strings and floats are not tracked by the garbage collector, so the
        # growing record adds no collection pauses to the timed loop.
        self.streamed_shots = array("i")
        self.streamed: dict[str, list[str]] = {name: [] for name in READOUT_MODELS}
        self.latency_s: dict[str, list[float]] = {name: [] for name in READOUT_MODELS}

    def _labels(self, name: str, shots: list[sim.ReadoutSample]) -> tuple[list[str], int]:
        """Featurize ``shots`` and classify them with one model.

        Returns the labels and the number of AT shots left unconverged.
        """
        result = self.models[name]
        spec = result.feature_spec
        if name == "RNN":
            x = features.sequence_dataset(shots, spec, self.geometry)
            return lstm.predict(result.model, x), 0
        x = features.featurize_dataset(shots, spec, self.geometry)
        if name == "TNN+":
            return mlp.predict(result.model, x), 0
        counts = x.astype(np.int64)
        if name == "FT":
            return threshold.classify_fixed(result.model, counts), 0
        labels, converged = threshold.classify_adaptive(result.model, counts)
        return labels, int((~converged).sum())

    def run(self) -> OpResult:
        """Read out the next shot with every model, timing each one."""
        k = len(self.streamed_shots) % len(self.stream)
        shot = [self.stream[k]]
        labels, seconds = [], []
        for name in READOUT_MODELS:
            started = time.perf_counter()
            labels.append(self._labels(name, shot)[0][0])
            seconds.append(time.perf_counter() - started)
        # Recorded only once every model has answered, so a failed
        # operation leaves the per-model records aligned.
        for name, label, took in zip(READOUT_MODELS, labels, seconds):
            self.streamed[name].append(label)
            self.latency_s[name].append(took)
        self.streamed_shots.append(k)
        return OpResult(1)

    def verify(self) -> OpResult:
        """Check streamed labels against batch labels and score the stream.

        ``failures`` lists the operations whose labels differ from the batch
        labels of the same shot.  Once every shot has been streamed,
        ``quality`` holds each model's error over the first pass.
        """
        seen = min(len(self.streamed_shots), len(self.stream))
        result = OpResult(seen)
        wrong = np.zeros(len(self.streamed_shots), dtype=bool)
        for name in READOUT_MODELS:
            batch, unconverged = self._labels(name, self.stream[:seen])
            if name == "AT":
                result.counts["at_unconverged"] = unconverged
            for op, (k, label) in enumerate(zip(self.streamed_shots, self.streamed[name])):
                wrong[op] |= label != batch[k]
        result.failures += [
            f"operation {op}: a streamed label differs from the batch label"
            for op in np.flatnonzero(wrong)
        ]
        if seen == len(self.stream):
            truth = [s.label for s in self.stream]
            for name in READOUT_MODELS:
                first_pass = self.streamed[name][:seen]
                report = evaluate.fidelity(evaluate.confusion(first_pass, truth), name)
                result.quality[name] = _error(report)
        return result

    def close(self) -> None:
        pass
