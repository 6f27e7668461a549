"""Command line front end.

Subcommands:

``generate``    simulate a labelled dataset and write it as JSON lines
``run``         train and score readout strategies on one shared split
``probe``       trained recurrent model's bright probability per photon arrival bin
``sweep-time``  recurrent readout fidelity as a function of detection time

Configuration is a flat ``key = value`` file; ``preset`` pulls in a named
register layout first and the remaining keys override it.  Every command is
deterministic given the two seeds: ``seed_data`` fixes simulation and the
train/test split, ``seed_train`` fixes network initialisation and batch
order, with one derived stream per strategy so adding or removing
strategies never shifts the others.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import threading
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from . import evaluate, features, lstm, mlp, sim, threshold


class ConfigError(ValueError):
    pass


class ModelFileError(ValueError):
    """A model file that cannot be read back into a model."""


PRESETS: dict[str, dict[str, object]] = {
    "single": {"num_ions": 1, "geometry": "adjacent", "strategies": "FT,NN,TNN,RNN"},
    "3q": {"num_ions": 3, "geometry": "alternating", "strategies": "FT,AT,NN,NN+,TNN,TNN+,RNN"},
    "5q": {"num_ions": 5, "geometry": "adjacent", "strategies": "FT,AT,NN,TNN,RNN"},
}


@dataclass
class ExperimentConfig:
    """One experiment's settings, checked on construction.

    Every field must have its default's type (a bool is no number); numpy
    numbers are stored as Python numbers.  Any failure is a ``ConfigError``
    that names the key.  The split rule is checked by ``_split_dataset``.
    """

    num_ions: int = 1
    geometry: str = "adjacent"
    samples_per_label: int = 1000
    n_jobs: int = 1
    train_fraction: float = 0.8
    seed_data: int = 1
    seed_train: int = 2
    epochs: int = 50
    batch_size: int = 128
    patience: int = 5
    strategies: str = "FT,NN,TNN,RNN"

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, np.generic):
                value = value.item()
            kind = type(field.default)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ConfigError(
                    f"config key {field.name!r} must be {kind.__name__}, got {value!r}"
                )
            setattr(self, field.name, value)
        if self.geometry not in ("alternating", "adjacent"):
            raise ConfigError(f"geometry must be alternating or adjacent, got {self.geometry!r}")
        if not 1 <= self.num_ions <= sim.MAX_IONS:
            raise ConfigError(f"num_ions must be in [1, {sim.MAX_IONS}]")
        if self.geometry == "alternating" and self.num_ions < 2:
            raise ConfigError("geometry 'alternating' needs num_ions >= 2")
        for key, least in (("n_jobs", 1), ("seed_data", 0), ("seed_train", 0),
                           ("epochs", 1), ("batch_size", 1), ("patience", 1)):
            if getattr(self, key) < least:
                raise ConfigError(f"{key} must be >= {least}, got {getattr(self, key)}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError("train_fraction must be inside (0, 1)")
        self.strategy_names()

    def strategy_names(self) -> list[str]:
        names = [s.strip() for s in self.strategies.split(",") if s.strip()]
        if not names:
            raise ConfigError(f"strategies names no strategy: {self.strategies!r}")
        for name in names:
            if name not in STRATEGIES:
                raise ConfigError(
                    f"strategies: unknown strategy {name!r}; known: {', '.join(STRATEGY_ORDER)}"
                )
        # canonical execution order, duplicates collapsed
        return [s for s in STRATEGY_ORDER if s in names]


_FIELD_TYPES = {field.name: type(field.default) for field in fields(ExperimentConfig)}


def parse_config_file(path: str) -> dict[str, str]:
    """Flat ``key = value`` lines; ``#`` comments; duplicates rejected."""
    values: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not sep or not key or not value:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            if key in values:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            values[key] = value
    return values


def _coerce(key: str, text: str):
    """A config file's ``text`` for ``key``, parsed as its default's type."""
    try:
        return _FIELD_TYPES[key](text)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from None


def build_config(
    file_values: dict[str, str] | None = None,
    preset: str | None = None,
    overrides: dict[str, object] | None = None,
) -> ExperimentConfig:
    """Defaults <- preset <- config file <- command line flags.

    A ``preset`` argument (the ``--preset`` flag) beats the file's ``preset`` key.
    """
    file_values = dict(file_values or {})
    file_preset = file_values.pop("preset", None)
    preset = file_preset if preset is None else preset
    overrides = {key: value for key, value in (overrides or {}).items() if value is not None}
    for key in (*file_values, *overrides):
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
    merged: dict[str, object] = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; known: {', '.join(sorted(PRESETS))}")
        merged.update(PRESETS[preset])
    merged.update({key: _coerce(key, text) for key, text in file_values.items()})
    merged.update(overrides)
    return ExperimentConfig(**merged)


def build_emission_model(config: ExperimentConfig) -> sim.EmissionModel:
    """The calibrated default model, the same for every configuration: its
    rates put an isolated ion at 99.5% readout fidelity."""
    return sim.EmissionModel()


def build_geometry(config: ExperimentConfig) -> sim.DetectorGeometry:
    if config.geometry == "alternating":
        return sim.alternating_geometry(config.num_ions)
    return sim.adjacent_geometry(config.num_ions)


# ---------------------------------------------------------------------------
# Strategy table.  Time bins divide the detection window evenly; "+" variants
# additionally read the intermediate channels between ions and therefore
# require a geometry that records them.  The recurrent strategy uses them
# whenever present.

@dataclass(frozen=True)
class StrategySpec:
    name: str
    kind: str  # "fixed" | "adaptive" | "mlp" | "lstm"
    num_bins: int
    include_intermediate: bool
    hidden: tuple[int, int] | int | None


STRATEGIES: dict[str, StrategySpec] = {
    "FT": StrategySpec("FT", "fixed", 1, False, None),
    "AT": StrategySpec("AT", "adaptive", 1, False, None),
    "NN": StrategySpec("NN", "mlp", 1, False, (8, 8)),
    "NN+": StrategySpec("NN+", "mlp", 1, True, (16, 16)),
    "TNN": StrategySpec("TNN", "mlp", 5, False, (24, 24)),
    "TNN+": StrategySpec("TNN+", "mlp", 5, True, (40, 40)),
    "RNN": StrategySpec("RNN", "lstm", 15, True, lstm.DEFAULT_HIDDEN_SIZE),
}
# table order, which fixes each strategy's ``strategy_seed`` stream
STRATEGY_ORDER = tuple(STRATEGIES)
_NETWORKS = {"mlp": mlp, "lstm": lstm}


def strategy_seed(seed_train: int, name: str) -> int:
    """Stable per-strategy stream: position in the table, not in the run."""
    index = STRATEGY_ORDER.index(name)
    return int(np.random.SeedSequence((seed_train, index)).generate_state(1)[0])


def _file_stem(name: str) -> str:
    return name.replace("+", "_plus")


@dataclass
class StrategyResult:
    name: str
    report: evaluate.FidelityReport
    model: object
    history: list[dict] | None
    feature_spec: features.FeatureSpec
    seconds: float
    diagnostics: dict  # extra summary keys: AT convergence, network training


def _images(spec: StrategySpec, fspec, dataset: sim.Dataset, idx: np.ndarray) -> np.ndarray:
    """``spec``'s input for the shots ``idx`` names: sequences for the LSTM, else vectors."""
    to_images = features.sequence_dataset if spec.kind == "lstm" else features.featurize_dataset
    return to_images(dataset.samples[idx], fspec, dataset.geometry)


def _fit(
    spec: StrategySpec, dataset: sim.Dataset, train_idx: np.ndarray, config: ExperimentConfig
) -> tuple[features.FeatureSpec, object, list[dict] | None]:
    """(feature spec, model, epoch history or None) of ``spec`` fit on the train shots."""
    include = spec.include_intermediate
    if spec.name == "RNN":
        include = dataset.geometry.intermediate_channels_present
    fspec = features.FeatureSpec(num_bins=spec.num_bins, include_intermediate=include)
    x_train = _images(spec, fspec, dataset, train_idx)
    train_labels = dataset.labels[train_idx]
    if spec.kind == "fixed":
        return fspec, threshold.fit_fixed(x_train, train_labels), None
    if spec.kind == "adaptive":
        return fspec, threshold.fit_adaptive(x_train, train_labels), None
    train_config = mlp.TrainConfig(
        batch_size=config.batch_size,
        epochs=config.epochs,
        patience=config.patience,
        seed=strategy_seed(config.seed_train, spec.name),
    )
    network = _NETWORKS[spec.kind]
    return fspec, *network.train(x_train, train_labels, spec.hidden, config=train_config)


def run_strategy(
    spec: StrategySpec,
    dataset: sim.Dataset,
    train_idx: np.ndarray,
    test_idx: np.ndarray,
    config: ExperimentConfig,
) -> StrategyResult:
    started = time.perf_counter()
    # count only the shots read: the train shots, then the test shots
    fspec, model, history = _fit(spec, dataset, train_idx, config)
    x_test = _images(spec, fspec, dataset, test_idx)
    diagnostics = {}
    if spec.kind == "fixed":
        predicted = threshold.classify_fixed(model, x_test)
    elif spec.kind == "adaptive":
        predicted, converged = threshold.classify_adaptive(model, x_test)
        diagnostics = {
            "unconverged_shots": int((~converged).sum()),
            "starved_contexts": [list(s) for s in model.starved_contexts],
        }
    else:
        best = max(history, key=lambda row: row["val_fidelity"])  # first maximum
        diagnostics = {
            "epochs_run": len(history),
            "best_epoch": best["epoch"],
            "stop_reason": "patience" if len(history) < config.epochs else "epoch_cap",
            "final_train_loss": float(history[-1]["train_loss"]),
        }
        predicted = _NETWORKS[spec.kind].predict(model, x_test)
    counts = evaluate.confusion(predicted, dataset.labels[test_idx])
    report = evaluate.fidelity(counts, strategy=spec.name)
    # a readout that reads every test shot as one state shows as 1 here
    diagnostics["states_predicted"] = int(np.count_nonzero(counts.sum(axis=0)))
    # always reading one state scores 1 / 2**num_ions; a dead network does no better
    diagnostics["beats_constant_readout"] = bool(report.average > 0.5**dataset.geometry.num_ions)
    seconds = time.perf_counter() - started
    return StrategyResult(spec.name, report, model, history, fspec, seconds, diagnostics)


_MODEL_CLASSES = {
    cls.FORMAT: cls
    for cls in (
        threshold.FixedThresholdModel,
        threshold.AdaptiveThresholdModel,
        mlp.MlpModel,
        lstm.LstmModel,
    )
}


def save_model(model, path: str | Path, metadata: dict | None = None) -> None:
    """Write any strategy's model as one JSON record: the envelope, ``format``
    and ``version`` 1, then the model's ``to_dict`` fields and ``metadata``."""
    record = {"format": model.FORMAT, "version": 1, **model.to_dict(), "metadata": metadata or {}}
    # encoded before the file opens, so a value JSON cannot hold leaves no partial file
    Path(path).write_text(json.dumps(record))


def load_model(path: str | Path):
    """Read a model file back; its ``format`` key selects the model class.

    Only here is the envelope checked: ``version`` must be 1 and ``metadata``
    a JSON object.  The rest must be exactly the keys the class's ``to_dict``
    writes; its ``from_dict`` checks every array's shape and every threshold
    against the declared sizes, so a bad record fails here, not at first use.
    """
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise ModelFileError(f"{path}: not a JSON model file: {exc}") from None
    if not isinstance(data, dict):
        raise ModelFileError(f"{path}: model file must hold a JSON object")
    name = data.pop("format", None)
    cls = _MODEL_CLASSES.get(name) if isinstance(name, str) else None
    if cls is None:
        raise ModelFileError(f"{path}: unknown model format {name!r}")
    version = data.pop("version", None)
    if type(version) is not int or version != 1:
        raise ModelFileError(f"{path}: unsupported {cls.FORMAT} version {version!r}")
    try:
        metadata = data.pop("metadata")
        model = cls.from_dict(data)
    except KeyError as exc:
        raise ModelFileError(f"{path}: {cls.FORMAT} record lacks key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ModelFileError(f"{path}: bad {cls.FORMAT} record: {exc}") from None
    if not isinstance(metadata, dict):
        raise ModelFileError(f"{path}: {cls.FORMAT} metadata must be a JSON object")
    unknown = [key for key in data if key not in model.to_dict()]
    if unknown:
        raise ModelFileError(f"{path}: {cls.FORMAT} record has unknown key {unknown[0]!r}")
    return model


def _save_strategy(result: StrategyResult, out_dir: Path) -> dict:
    models_dir = out_dir / "models"
    models_dir.mkdir(exist_ok=True)
    stem = _file_stem(result.name)
    model_path = models_dir / f"{stem}.json"
    metadata = {
        "strategy": result.name,
        "num_bins": result.feature_spec.num_bins,
        "include_intermediate": result.feature_spec.include_intermediate,
    }
    save_model(result.model, model_path, metadata)
    entry = evaluate.report_to_dict(result.report)
    entry["model_file"] = str(model_path.relative_to(out_dir))
    entry["seconds"] = round(result.seconds, 3)
    entry.update(result.diagnostics)
    if result.history is not None:
        history_dir = out_dir / "history"
        history_dir.mkdir(exist_ok=True)
        history_path = history_dir / f"{stem}.csv"
        with open(history_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "train_loss", "val_fidelity"])
            for row in result.history:
                writer.writerow(
                    [row["epoch"], f"{row['train_loss']:.6f}", f"{row['val_fidelity']:.6f}"]
                )
        entry["history_file"] = str(history_path.relative_to(out_dir))
    return entry


def _make_dataset(config: ExperimentConfig) -> sim.Dataset:
    model, geometry = build_emission_model(config), build_geometry(config)
    return sim.generate_dataset(model, geometry, config.samples_per_label, config.seed_data)


def _split_dataset(
    config: ExperimentConfig, networks: bool
) -> tuple[sim.Dataset, np.ndarray, np.ndarray]:
    """The config's dataset and its train and test shot indices.

    A ``train_fraction`` that ``evaluate.split`` cannot cut is a ``ConfigError``
    raised before any shot is drawn.  When ``networks`` train, ``mlp.fit`` cuts
    each label's training shots again to hold out ``mlp.VALIDATION_FRACTION``
    of them; at 0.1 that takes at least 5 training shots a label.
    """
    where = (
        f"train_fraction {config.train_fraction} of samples_per_label "
        f"{config.samples_per_label} leaves"
    )
    try:
        n_train = evaluate.train_count(config.samples_per_label, config.train_fraction)
    except evaluate.EvaluationError:
        raise ConfigError(f"{where} no train or no test shot") from None
    if networks:
        try:
            evaluate.train_count(n_train, 1.0 - mlp.VALIDATION_FRACTION)
        except evaluate.EvaluationError:
            raise ConfigError(
                f"{where} {n_train} training shots a label, too few for a network "
                f"to hold out {mlp.VALIDATION_FRACTION} of them for validation"
            ) from None
    dataset = _make_dataset(config)
    return dataset, *evaluate.split(dataset.labels, config.train_fraction, config.seed_data)


# Deviation, in standard errors, at which the simulator self-check flags a
# (label, channel) pair.  Preset 3q checks 40 pairs, so a correct simulator
# is flagged about once in 40 000 runs.
CHECK_SIGMAS = 5.0


def simulator_check(dataset: sim.Dataset) -> dict:
    """Events per (label, recorded channel) against ``sim.expected_channel_means``.

    Each shot's count per recorded channel is its 1-bin count image.  A pair
    whose mean count lies more than ``CHECK_SIGMAS`` standard errors from the
    analytic mean is flagged.  The standard error takes the larger of the
    sample and the Poisson variance, because pumping spreads the counts
    wider than Poisson.
    """
    geometry = dataset.geometry
    expected = sim.expected_channel_means(dataset.model, geometry, dataset.mode)
    recorded = list(geometry.recorded_channels)
    # all channels in order when intermediate ones are recorded, else the ions'
    spec = features.FeatureSpec(1, geometry.intermediate_channels_present)
    counts = features.featurize_dataset(dataset.samples, spec, geometry).astype(float)
    # label-major: label k's shots are the k-th block of samples_per_label rows
    counts = counts.reshape(expected.shape[0], dataset.samples_per_label, -1)
    shots = dataset.samples_per_label
    # sums of whole counts are exact in float64, whatever their order
    mean = counts.sum(axis=1) / shots
    variance = ((counts**2).sum(axis=1) - shots * mean**2) / max(shots - 1, 1)
    stderr = np.sqrt(np.maximum(variance, expected) / shots)
    diff = mean - expected
    z = np.divide(diff, stderr, out=np.where(diff == 0.0, 0.0, np.inf), where=stderr > 0.0)
    labels = sim.all_labels(geometry.num_ions)
    flagged = [
        {
            "label": labels[k],
            "channel": recorded[c],
            "mean": float(mean[k, c]),
            "expected": float(expected[k, c]),
            "z": float(z[k, c]),
        }
        for k, c in zip(*np.nonzero(np.abs(z) > CHECK_SIGMAS))
    ]
    return {"sigmas": CHECK_SIGMAS, "max_abs_z": float(np.abs(z).max()), "flagged": flagged}


# How often, in seconds, a pool worker checks that the process that started
# it is still alive.
PARENT_POLL_S = 0.25


def exit_with_parent() -> None:
    """Pool initializer: end this worker once the process that started it is gone.

    A worker waiting on its task queue never sees end-of-file when its parent
    is killed outright, because under fork it inherited the queue's write
    end.  A daemon thread polls ``os.getppid()`` and exits the worker when
    the worker has been re-parented.  The parent is read here, in the worker,
    so it is the pool's caller under fork and spawn and the fork server under
    forkserver, which itself exits with the caller.
    """
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="exit-with-parent", daemon=True).start()


def worker_count(n_jobs: int, tasks: int) -> int:
    """How many processes ``tasks`` independent tasks may run on.

    At most ``n_jobs``, one per task and one per usable CPU.  Where the
    platform cannot say which CPUs this process may use, every CPU counts.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(n_jobs, tasks, cpus or 1)


# Set in each training worker by ``_pool_init``: (dataset, train_idx, test_idx,
# config).  Pool tasks are these private functions, never a public one, so a
# task pickles by name even while a public function is wrapped.
_POOL_TASK: tuple | None = None


def _pool_init(*task) -> None:
    global _POOL_TASK
    _POOL_TASK = task
    exit_with_parent()


def _pool_save(path: str) -> None:
    sim.save_dataset(_POOL_TASK[0], path)


def _pool_run(name: str) -> StrategyResult:
    return run_strategy(STRATEGIES[name], *_POOL_TASK)


def _attempt(name: str, task: tuple) -> StrategyResult | Exception:
    try:
        return run_strategy(STRATEGIES[name], *task)
    except Exception as exc:
        return exc


def _train_all(
    names: list[str], task: tuple, dataset_path: str, n_jobs: int
) -> dict[str, StrategyResult | BaseException]:
    """Write the dataset and train every strategy: its result or its exception.

    ``names`` are in table order, cheapest first.  With one job everything
    runs here, in that order.  Otherwise the caller is one of the ``n_jobs``
    processes and trains the costliest strategy, while a pool writes the
    dataset and then trains the others, costliest first.  A failed dataset
    write raises.
    """
    workers = worker_count(n_jobs, len(names) + 1) - 1
    if workers < 1:
        sim.save_dataset(task[0], dataset_path)
        return {name: _attempt(name, task) for name in names}
    *pooled, own = names
    with ProcessPoolExecutor(workers, initializer=_pool_init, initargs=task) as pool:
        saved = pool.submit(_pool_save, dataset_path)
        futures = {name: pool.submit(_pool_run, name) for name in reversed(pooled)}
        try:
            outcomes = {own: _attempt(own, task)}
            saved.result()
        except BaseException:
            for future in futures.values():
                future.cancel()
            raise
        for name, future in futures.items():
            error = future.exception()
            outcomes[name] = future.result() if error is None else error
    return {name: outcomes[name] for name in names}


def _write_traceback(error: BaseException, path: Path) -> None:
    # a worker's exception carries the worker's traceback as its __cause__
    path.parent.mkdir(exist_ok=True)
    path.write_text("".join(traceback.format_exception(error)))


def run_experiment(config: ExperimentConfig, out_dir: Path) -> dict:
    """Generate, split once, train every strategy, and write all artifacts.

    A failing strategy is recorded under ``errors``, with its traceback in
    ``errors/<strategy>.txt``, and does not stop the others; quantities
    derived from it are simply absent.  With ``n_jobs`` above one, training
    runs in that many processes, the caller included; every artifact is the
    same as with one, but for ``n_jobs`` and the per-strategy ``seconds`` in
    the summary.  Model, history and traceback files and the fidelity report
    and the summary that an earlier run left in ``out_dir`` are deleted
    first, so it holds this run's alone.
    """
    names = config.strategy_names()
    networks = any(STRATEGIES[name].kind in _NETWORKS for name in names)
    dataset, train_idx, test_idx = _split_dataset(config, networks)
    out_dir.mkdir(parents=True, exist_ok=True)
    # artifacts of an earlier run into the same directory
    for pattern in (
        "errors/*.txt", "models/*.json", "history/*.csv", "fidelity_report.csv", "summary.json"
    ):
        for stale in out_dir.glob(pattern):
            stale.unlink()
    task = (dataset, train_idx, test_idx, config)
    outcomes = _train_all(names, task, str(out_dir / "dataset.jsonl"), config.n_jobs)
    results: dict[str, StrategyResult] = {}
    errors: dict[str, str] = {}
    for name, outcome in outcomes.items():
        if isinstance(outcome, StrategyResult):
            results[name] = outcome
        else:
            errors[name] = f"{type(outcome).__name__}: {outcome}"
            _write_traceback(outcome, out_dir / "errors" / f"{_file_stem(name)}.txt")
    summary: dict = {
        "config": asdict(config),
        "seed_data": config.seed_data,
        "seed_train": config.seed_train,
        "train_shots": int(train_idx.size),
        "test_shots": int(test_idx.size),
        "strategies": {},
        "improvements_over_FT": {},
        "errors": errors,
        "diagnostics": {"simulator": simulator_check(dataset)},
    }
    reports = []
    for name, result in results.items():
        summary["strategies"][name] = _save_strategy(result, out_dir)
        reports.append(result.report)
    if reports:
        evaluate.write_fidelity_csv(reports, str(out_dir / "fidelity_report.csv"))
    if "FT" in results:
        baseline = results["FT"].report
        for name, result in results.items():
            if name == "FT":
                continue
            try:
                gain = evaluate.improvement(baseline, result.report)._asdict()
            except evaluate.EvaluationError:
                # baseline error exactly zero: ratio undefined, record as such
                gain = {"value": None, "stderr": None}
            summary["improvements_over_FT"][name] = gain
    # encoded before the file opens, so a value JSON cannot hold leaves no partial file
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2))
    return summary


def run_probe(config: ExperimentConfig, out_dir: Path) -> dict:
    """Where in the window a lone photon pulls the recurrent model bright.

    Trains the recurrent strategy exactly as ``run`` would, reading no test
    shot, then feeds it one photon per (arrival bin, ion channel) and
    records the marginal bright probability of the ion that owns the channel.
    """
    dataset, train_idx, _ = _split_dataset(config, networks=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    spec, model, _ = _fit(STRATEGIES["RNN"], dataset, train_idx, config)
    geometry = dataset.geometry
    channel_ids = spec.channel_ids(geometry)
    bins = spec.num_bins
    bin_width = dataset.model.window_us / bins
    curves = []
    for ion in range(geometry.num_ions):
        column = channel_ids.index(geometry.ion_channel[ion])
        curves.append(lstm.probe(model, bins, column, ion))
    curves = np.asarray(curves)
    mean_curve = curves.mean(axis=0)
    path = out_dir / "probe.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["bin", "time_us"]
            + [f"p_bright_ion{i}" for i in range(geometry.num_ions)]
            + ["p_bright_mean"]
        )
        for t in range(bins):
            writer.writerow(
                [t, f"{(t + 0.5) * bin_width:.1f}"]
                + [f"{curves[i, t]:.6f}" for i in range(geometry.num_ions)]
                + [f"{mean_curve[t]:.6f}"]
            )
    return {
        "probe_file": str(path),
        "bins": bins,
        "bin_width_us": bin_width,
        "mean_curve": mean_curve.tolist(),
    }


def run_sweep(config: ExperimentConfig, out_dir: Path) -> dict:
    """Test fidelity of the recurrent readout truncated after each bin.

    The model is trained once on full windows; scoring then reads the test
    set's readout after 0, 1, ... bins from one ``lstm.forward_by_bin``
    pass, so the full-window row is ``run``'s RNN fidelity.
    """
    dataset, train_idx, test_idx = _split_dataset(config, networks=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    spec, model, _ = _fit(STRATEGIES["RNN"], dataset, train_idx, config)
    sequences = features.sequence_dataset(dataset.samples[test_idx], spec, dataset.geometry)
    test_labels = dataset.labels[test_idx]
    bin_width = dataset.model.window_us / spec.num_bins
    rows = []
    for t, probs in enumerate(lstm.forward_by_bin(model, sequences)):
        predicted = mlp.probabilities_to_labels(probs, model.num_ions)
        report = evaluate.fidelity(
            evaluate.confusion(predicted, test_labels), strategy="RNN"
        )
        rows.append((t * bin_width, report.average, report.average_stderr))
    path = out_dir / "time_sweep.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["detection_time_us", "fidelity", "stderr"])
        for when, fid, stderr in rows:
            writer.writerow([f"{when:.1f}", f"{fid:.6f}", f"{stderr:.6f}"])
    return {
        "sweep_file": str(path),
        "fidelity": [fid for _, fid, _ in rows],
        "stderr": [se for _, _, se in rows],
    }


# ---------------------------------------------------------------------------
# Argument handling.

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ionread",
        description="Simulated trapped-ion readout and classifier comparison.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def common(sub: argparse.ArgumentParser, training: bool) -> None:
        sub.add_argument("--config", help="flat key = value configuration file")
        sub.add_argument("--preset", choices=sorted(PRESETS), help="named register layout")
        sub.add_argument("--out", required=True, help="output directory")
        sub.add_argument("--seed-data", type=int, dest="seed_data")
        if training:
            sub.add_argument("--seed-train", type=int, dest="seed_train")

    generate = commands.add_parser("generate", help="simulate and save a dataset")
    common(generate, training=False)

    run = commands.add_parser("run", help="train and score strategies on one split")
    common(run, training=True)
    run.add_argument(
        "--strategies",
        help="comma separated subset of " + ",".join(STRATEGY_ORDER),
    )

    probe = commands.add_parser(
        "probe", help="single-photon response of the recurrent model"
    )
    common(probe, training=True)

    sweep = commands.add_parser(
        "sweep-time", help="recurrent fidelity against detection time"
    )
    common(sweep, training=True)
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    file_values = parse_config_file(args.config) if args.config else {}
    # the flags named like config keys, as parsed; build_config drops the unset ones
    overrides = {key: value for key, value in vars(args).items() if key in _FIELD_TYPES}
    return build_config(file_values, preset=args.preset, overrides=overrides)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        out_dir = Path(args.out)
        if args.command == "generate":
            dataset = _make_dataset(config)
            out_dir.mkdir(parents=True, exist_ok=True)
            sim.save_dataset(dataset, str(out_dir / "dataset.jsonl"))
            print(f"wrote {len(dataset)} shots to {out_dir / 'dataset.jsonl'}")
            return 0
        if args.command == "run":
            summary = run_experiment(config, out_dir)
            for name, entry in summary["strategies"].items():
                print(
                    f"{name}: fidelity {entry['average']:.4f} "
                    f"+- {entry['average_stderr']:.4f}"
                )
            if summary["errors"]:
                print(
                    json.dumps({"error": "StrategyFailure", "failed": summary["errors"]}),
                    file=sys.stderr,
                )
                return 1
            return 0
        if args.command == "probe":
            info = run_probe(config, out_dir)
            print(f"wrote {info['probe_file']}")
            return 0
        info = run_sweep(config, out_dir)
        print(f"wrote {info['sweep_file']}")
        return 0
    except Exception as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
