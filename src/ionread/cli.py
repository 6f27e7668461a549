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


PRESETS: dict[str, dict[str, str]] = {
    "single": {
        "num_ions": "1",
        "geometry": "single",
        "strategies": "FT,NN,TNN,RNN",
    },
    "3q": {
        "num_ions": "3",
        "geometry": "alternating",
        "strategies": "FT,AT,NN,NN+,TNN,TNN+,RNN",
    },
    "5q": {
        "num_ions": "5",
        "geometry": "adjacent",
        "strategies": "FT,AT,NN,TNN,RNN",
    },
}


@dataclass
class ExperimentConfig:
    num_ions: int = 1
    geometry: str = "single"
    samples_per_label: int = 1000
    mode: str = "fresh"
    n_jobs: int = 1
    window_us: float = sim.DEFAULT_WINDOW_US
    bright_rate: float = sim.DEFAULT_BRIGHT_RATE
    pump_bright_to_dark: float = sim.DEFAULT_PUMP_BRIGHT_TO_DARK
    pump_dark_to_bright: float = sim.DEFAULT_PUMP_DARK_TO_BRIGHT
    scatter_rate: float = sim.DEFAULT_SCATTER_RATE
    dark_count_rate: float = sim.DEFAULT_DARK_COUNT_RATE
    train_fraction: float = 0.8
    seed_data: int = 1
    seed_train: int = 2
    epochs: int = 50
    batch_size: int = 128
    patience: int = 5
    normalization: str = "none"
    strategies: str = "FT,NN,TNN,RNN"

    def strategy_names(self) -> list[str]:
        names = [s.strip() for s in self.strategies.split(",") if s.strip()]
        for name in names:
            if name not in STRATEGIES:
                raise ConfigError(
                    f"unknown strategy {name!r}; known: {', '.join(STRATEGY_ORDER)}"
                )
        # canonical execution order, duplicates collapsed
        return [s for s in STRATEGY_ORDER if s in names]


_DEFAULTS = ExperimentConfig()
_FIELD_NAMES = {f.name for f in fields(ExperimentConfig)}


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


def _coerce(key: str, value: str):
    target = type(getattr(_DEFAULTS, key))
    try:
        if target is int:
            return int(value)
        if target is float:
            return float(value)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from None
    return value


def build_config(
    file_values: dict[str, str] | None = None,
    preset: str | None = None,
    overrides: dict[str, object] | None = None,
) -> ExperimentConfig:
    """Defaults <- preset <- config file <- command line flags."""
    file_values = dict(file_values or {})
    preset = file_values.pop("preset", preset)
    merged: dict[str, object] = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; known: {', '.join(sorted(PRESETS))}")
        merged.update({k: _coerce(k, v) for k, v in PRESETS[preset].items()})
    for key, value in file_values.items():
        if key not in _FIELD_NAMES:
            raise ConfigError(f"unknown config key {key!r}")
        merged[key] = _coerce(key, value)
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value
    config = ExperimentConfig(**merged)
    _validate(config)
    return config


def _validate(config: ExperimentConfig) -> None:
    if config.geometry not in ("single", "alternating", "adjacent"):
        raise ConfigError(f"unknown geometry {config.geometry!r}")
    if config.geometry == "single" and config.num_ions != 1:
        raise ConfigError("geometry 'single' records exactly one ion")
    if config.geometry != "single" and config.num_ions < 2:
        raise ConfigError(f"geometry {config.geometry!r} needs at least two ions")
    if not 1 <= config.num_ions <= sim.MAX_IONS:
        raise ConfigError(f"num_ions must be in [1, {sim.MAX_IONS}]")
    if config.mode not in ("fresh", "pool"):
        raise ConfigError(f"unknown generation mode {config.mode!r}")
    if config.n_jobs < 1:
        raise ConfigError(f"n_jobs must be >= 1, got {config.n_jobs}")
    if not 0.0 < config.train_fraction < 1.0:
        raise ConfigError("train_fraction must be inside (0, 1)")
    if config.samples_per_label < 2:
        raise ConfigError("samples_per_label must be >= 2 to allow a split")
    if config.normalization not in ("none", "max"):
        raise ConfigError(f"unknown normalization {config.normalization!r}")
    config.strategy_names()


def build_emission_model(config: ExperimentConfig) -> sim.EmissionModel:
    return sim.EmissionModel(
        bright_rate=config.bright_rate,
        pump_bright_to_dark_rate=config.pump_bright_to_dark,
        pump_dark_to_bright_rate=config.pump_dark_to_bright,
        background_scatter_rate=config.scatter_rate,
        detector_dark_rate=config.dark_count_rate,
        window_us=config.window_us,
    )


def build_geometry(config: ExperimentConfig) -> sim.DetectorGeometry:
    if config.geometry == "single":
        return sim.single_ion_geometry()
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
STRATEGY_ORDER = ("FT", "AT", "NN", "NN+", "TNN", "TNN+", "RNN")


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
    scale: np.ndarray | None
    feature_spec: features.FeatureSpec
    seconds: float
    diagnostics: dict  # extra summary keys: AT convergence, network training


def run_strategy(
    spec: StrategySpec,
    dataset: sim.Dataset,
    train_idx: np.ndarray,
    test_idx: np.ndarray,
    config: ExperimentConfig,
) -> StrategyResult:
    started = time.perf_counter()
    geometry = dataset.geometry
    labels = np.asarray(dataset.labels)
    train_labels, test_labels = labels[train_idx], labels[test_idx]
    include = spec.include_intermediate
    if spec.name == "RNN":
        include = geometry.intermediate_channels_present
    fspec = features.FeatureSpec(num_bins=spec.num_bins, include_intermediate=include)
    history = None
    scale = None
    diagnostics = {}
    if spec.kind in ("fixed", "adaptive"):
        counts = features.featurize_dataset(dataset.samples, fspec, geometry)
        counts = counts.astype(np.int64)
        if spec.kind == "fixed":
            model = threshold.fit_fixed(counts[train_idx], train_labels)
            predicted = threshold.classify_fixed(model, counts[test_idx])
        else:
            model = threshold.fit_adaptive(counts[train_idx], train_labels)
            predicted, converged = threshold.classify_adaptive(model, counts[test_idx])
            diagnostics = {
                "unconverged_shots": int((~converged).sum()),
                "starved_contexts": [list(s) for s in model.starved_contexts],
            }
    else:
        train_config = mlp.TrainConfig(
            batch_size=config.batch_size,
            epochs=config.epochs,
            patience=config.patience,
            seed=strategy_seed(config.seed_train, spec.name),
        )
        if spec.kind == "mlp":
            network = mlp
            x = features.featurize_dataset(dataset.samples, fspec, geometry)
        else:
            network = lstm
            x = features.sequence_dataset(dataset.samples, fspec, geometry)
        if config.normalization == "max":
            # one divisor per input column; sequences share it across bins
            scale = features.column_maxima(x[train_idx].reshape(-1, x.shape[-1]))
            x = x / scale
        model, history = network.train(
            x[train_idx], train_labels, spec.hidden, config=train_config
        )
        best = max(history, key=lambda row: row["val_fidelity"])  # first maximum
        diagnostics = {
            "epochs_run": len(history),
            "best_epoch": best["epoch"],
            "stop_reason": "patience" if len(history) < config.epochs else "epoch_cap",
            "final_train_loss": float(history[-1]["train_loss"]),
        }
        predicted = network.predict(model, x[test_idx])
    report = evaluate.fidelity(
        evaluate.confusion(predicted, test_labels), strategy=spec.name
    )
    seconds = time.perf_counter() - started
    return StrategyResult(
        spec.name, report, model, history, scale, fspec, seconds, diagnostics
    )


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
    """Write any strategy's model as one JSON record carrying ``metadata``."""
    record = model.to_dict()
    record["metadata"] = metadata or {}
    with open(path, "w") as fh:
        json.dump(record, fh)


def load_model(path: str | Path):
    """Read a model file back; its ``format`` key selects the model class.

    Every array's shape and every threshold's type is checked against the
    record's declared sizes, so a bad record fails here, not at first use.
    """
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise ModelFileError(f"{path}: not a JSON model file: {exc}") from None
    if not isinstance(data, dict):
        raise ModelFileError(f"{path}: model file must hold a JSON object")
    cls = _MODEL_CLASSES.get(data.get("format"))
    if cls is None:
        raise ModelFileError(f"{path}: unknown model format {data.get('format')!r}")
    try:
        return cls.from_dict(data)
    except KeyError as exc:
        raise ModelFileError(f"{path}: {cls.FORMAT} record lacks key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ModelFileError(f"{path}: bad {cls.FORMAT} record: {exc}") from None


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
    if result.scale is not None:
        metadata["scale"] = np.asarray(result.scale).ravel().tolist()
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
    return sim.generate_dataset(
        build_emission_model(config),
        build_geometry(config),
        config.samples_per_label,
        config.seed_data,
        mode=config.mode,
    )


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
    the summary.  Model, history and traceback files that an earlier run left
    in ``out_dir`` are deleted first, so the folders hold this run's alone.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    # artifacts of an earlier run into the same directory
    stale_patterns = (("errors", "*.txt"), ("models", "*.json"), ("history", "*.csv"))
    for folder, pattern in stale_patterns:
        for stale in (out_dir / folder).glob(pattern):
            stale.unlink()
    names = config.strategy_names()
    dataset = _make_dataset(config)
    train_idx, test_idx = evaluate.split(
        dataset.labels, config.train_fraction, config.seed_data
    )
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
                gain = evaluate.improvement(baseline, result.report)
            except evaluate.EvaluationError:
                # baseline error exactly zero: ratio undefined, record as such
                summary["improvements_over_FT"][name] = {"value": None, "stderr": None}
                continue
            summary["improvements_over_FT"][name] = {
                "value": gain.value,
                "stderr": gain.stderr,
            }
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    return summary


def _trained_rnn(config: ExperimentConfig) -> tuple[StrategyResult, sim.Dataset, np.ndarray]:
    dataset = _make_dataset(config)
    train_idx, test_idx = evaluate.split(
        dataset.labels, config.train_fraction, config.seed_data
    )
    result = run_strategy(STRATEGIES["RNN"], dataset, train_idx, test_idx, config)
    return result, dataset, test_idx


def run_probe(config: ExperimentConfig, out_dir: Path) -> dict:
    """Where in the window a lone photon pulls the recurrent model bright.

    Trains the recurrent strategy exactly as ``run`` would, then feeds it
    one photon (in model input units) per (arrival bin, ion channel) and
    records the marginal bright probability of the ion that owns the channel.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    result, dataset, _ = _trained_rnn(config)
    geometry = dataset.geometry
    model: lstm.LstmModel = result.model
    spec = result.feature_spec
    channel_ids = spec.channel_ids(geometry)
    bins = spec.num_bins
    bin_width = config.window_us / bins
    curves = []
    for ion in range(geometry.num_ions):
        column = channel_ids.index(geometry.ion_channel[ion])
        photon = 1.0 if result.scale is None else 1.0 / float(result.scale[column])
        curves.append(lstm.probe(model, bins, column, ion, photon_value=photon))
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

    The model is trained once on full windows; scoring then streams the
    test set and reads the classifier state out after 0, 1, ... bins.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    result, dataset, test_idx = _trained_rnn(config)
    model: lstm.LstmModel = result.model
    spec = result.feature_spec
    sequences = features.sequence_dataset(dataset.samples, spec, dataset.geometry)[test_idx]
    if result.scale is not None:
        sequences = sequences / result.scale
    test_labels = np.asarray(dataset.labels)[test_idx]
    bins = spec.num_bins
    bin_width = config.window_us / bins
    rows = []
    h, c = lstm.initial_state(model, sequences.shape[0])
    for t in range(bins + 1):
        if t > 0:
            h, c = lstm.step(model, sequences[:, t - 1], h, c)
        predicted = mlp.probabilities_to_labels(lstm.readout(model, h), model.num_ions)
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
    overrides: dict[str, object] = {"seed_data": args.seed_data}
    if hasattr(args, "seed_train"):
        overrides["seed_train"] = args.seed_train
    if getattr(args, "strategies", None):
        overrides["strategies"] = args.strategies
    return build_config(file_values, preset=args.preset, overrides=overrides)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        out_dir = Path(args.out)
        if args.command == "generate":
            out_dir.mkdir(parents=True, exist_ok=True)
            dataset = _make_dataset(config)
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
