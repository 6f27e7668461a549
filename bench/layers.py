"""Where the traced run records spans, and the per-layer metrics built from them.

Spans wrap the public functions of each ionread module (and the names other
modules import from it).  Every ``calls`` and ``self_s`` figure is per timed
operation; ``us_per_call`` and ``us_per_shot`` use inclusive span time.
"""
from __future__ import annotations

import os

from ionread import cli, evaluate, features, lstm, mlp, sim, threshold

from tracer import Tracer

STRATEGIES = ("FT", "AT", "NN", "NN+", "TNN", "TNN+", "RNN")
NETWORKS = ("NN", "NN+", "TNN", "TNN+", "RNN")

# (span, per-unit stat): each yields <span>.calls, <span>.self_s, <span>.us_per_<unit>
SPANS = [
    ("sim.simulate_ion", "call"),
    ("sim.route_events", "call"),
    ("sim.save_dataset", "shot"),
    ("sim.load_dataset", "shot"),
    ("features.featurize_dataset.b1", "shot"),
    ("features.featurize_dataset.b5", "shot"),
    ("features.featurize_dataset.b15", "shot"),
    ("features.sequence_dataset", "shot"),
    ("threshold.fit_fixed", "call"),
    ("threshold.fit_adaptive", "call"),
    ("threshold.classify_fixed", "call"),
    ("threshold.classify_adaptive", "call"),
    ("mlp.train", "call"),
    ("mlp.backward", "call"),
    ("mlp.loss", "call"),
    ("mlp.adadelta_step", "call"),
    ("mlp.predict", "call"),
    ("lstm.train", "call"),
    ("lstm.backward", "call"),
    ("lstm.loss", "call"),
    ("lstm.sigmoid", "call"),
    ("lstm.adadelta_step", "call"),
    ("lstm.step", "call"),
    ("lstm.predict", "call"),
    ("evaluate.split", "call"),
    ("evaluate.confusion", "call"),
    ("evaluate.fidelity", "call"),
    ("evaluate.labels_to_bits", "call"),
]


def stem(strategy: str) -> str:
    return strategy.replace("+", "_plus")


def metric_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name -> (unit, better), in report order."""
    out: dict[str, tuple[str, str]] = {}
    for span, unit in SPANS:
        out[f"{span}.calls"] = ("count", "lower")
        out[f"{span}.self_s"] = ("s", "lower")
        out[f"{span}.us_per_{unit}"] = ("us", "lower")
    out["sim.us_per_shot.fresh"] = ("us", "lower")
    out["sim.us_per_shot.pool"] = ("us", "lower")
    out["sim.calibrate_to_fidelity.self_s"] = ("s", "lower")
    out["sim.events_per_shot"] = ("count", "lower")
    out["sim.bytes_per_shot"] = ("B", "lower")
    out["threshold.at_unconverged"] = ("count", "lower")
    out["threshold.at_unconverged_frac"] = ("ratio", "lower")
    out["mlp.epochs"] = ("count", "lower")
    out["mlp.batches"] = ("count", "lower")
    out["lstm.epochs"] = ("count", "lower")
    out["cli.run_experiment.self_s"] = ("s", "lower")
    out["cli.run_experiment.us_per_call"] = ("us", "lower")
    out["cli.train_samples_per_s"] = ("1/s", "higher")
    for name in STRATEGIES:
        out[f"cli.run_strategy.{stem(name)}.self_s"] = ("s", "lower")
        out[f"cli.run_strategy.{stem(name)}.us_per_call"] = ("us", "lower")
    for name in NETWORKS:
        out[f"cli.run_strategy.{stem(name)}.epochs"] = ("count", "lower")
        out[f"cli.run_strategy.{stem(name)}.batches"] = ("count", "lower")
    out["trace_overhead_pct"] = ("%", "lower")
    return out


# ---------------------------------------------------------------------------
# Instrumentation

def _dataset_size(result, *args, **kwargs) -> int:
    return len(result)


def _sample_count(result, samples, *args, **kwargs) -> int:
    return len(samples)


def _generated(tracer: Tracer, dataset, *args, **kwargs) -> None:
    tracer.count("sim.events", sum(s.num_events for s in dataset.samples))
    tracer.count("sim.shots", len(dataset))


def _saved(tracer: Tracer, result, dataset, path) -> None:
    tracer.count("sim.bytes", os.path.getsize(path))
    tracer.count("sim.saved_shots", len(dataset))


def _adaptive(tracer: Tracer, result, *args, **kwargs) -> None:
    _, converged = result
    tracer.count("threshold.at_shots", converged.size)
    tracer.count("threshold.at_unconverged", int((~converged).sum()))


def _trained(module: str):
    def after(tracer: Tracer, result, *args, **kwargs) -> None:
        epochs = len(result[1])
        tracer.count(f"{module}.epochs", epochs)
        strategy = tracer.current("cli.run_strategy.")
        if strategy is not None:
            tracer.count(f"{strategy}.epochs", epochs)

    return after


def _stepped(module: str):
    def after(tracer: Tracer, result, *args, **kwargs) -> None:
        if tracer.current(f"{module}.train") is None:
            return
        tracer.count(f"{module}.batches")
        strategy = tracer.current("cli.run_strategy.")
        if strategy is not None:
            tracer.count(f"{strategy}.batches")

    return after


def instrument(tracer: Tracer) -> None:
    wrap = tracer.wrap
    wrap(
        sim,
        "generate_dataset",
        lambda model, geometry, samples_per_label, seed, mode="fresh", n_jobs=1: (
            f"sim.generate_dataset.{mode}"
        ),
        shots=_dataset_size,
        after=_generated,
    )
    wrap(sim, "simulate_ion", "sim.simulate_ion")
    wrap(sim, "route_events", "sim.route_events")
    wrap(
        sim,
        "save_dataset",
        "sim.save_dataset",
        shots=lambda result, dataset, path: len(dataset),
        after=_saved,
    )
    wrap(sim, "load_dataset", "sim.load_dataset", shots=_dataset_size)
    wrap(sim, "calibrate_to_fidelity", "sim.calibrate_to_fidelity")
    wrap(
        features,
        "featurize_dataset",
        lambda samples, spec, geometry: f"features.featurize_dataset.b{spec.num_bins}",
        shots=_sample_count,
    )
    wrap(features, "sequence_dataset", "features.sequence_dataset", shots=_sample_count)
    for name in ("fit_fixed", "fit_adaptive", "classify_fixed"):
        wrap(threshold, name, f"threshold.{name}")
    wrap(threshold, "classify_adaptive", "threshold.classify_adaptive", after=_adaptive)
    for module in (evaluate, threshold, mlp, lstm):
        for name in ("split", "confusion", "fidelity", "labels_to_bits"):
            if hasattr(module, name):
                wrap(module, name, f"evaluate.{name}")
    for module, label in ((mlp, "mlp"), (lstm, "lstm")):
        wrap(module, "train", f"{label}.train", after=_trained(label))
        wrap(module, "backward", f"{label}.backward", after=_stepped(label))
        for name in ("loss", "adadelta_step", "predict", "sigmoid", "step"):
            if hasattr(module, name):
                wrap(module, name, f"{label}.{name}")
    wrap(cli, "run_experiment", "cli.run_experiment")
    wrap(
        cli,
        "run_strategy",
        lambda spec, *args, **kwargs: f"cli.run_strategy.{stem(spec.name)}",
    )


# ---------------------------------------------------------------------------
# Metrics

def layer_metrics(tracer: Tracer, ops: int, extra: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics for ``ops`` traced operations.

    ``extra`` supplies the figures not taken from spans (trace overhead,
    training throughput).
    """
    spans = tracer.summary()
    counters = tracer.counters
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "shots": 0}

    def per(total: float, count: float) -> float:
        return total / count if count else 0.0

    values: dict[str, float] = {}
    for span, unit in SPANS:
        stats = spans.get(span, empty)
        values[f"{span}.calls"] = stats["calls"] / ops
        values[f"{span}.self_s"] = stats["self_s"] / ops
        divisor = stats["calls"] if unit == "call" else stats["shots"]
        values[f"{span}.us_per_{unit}"] = 1e6 * per(stats["total_s"], divisor)
    for mode in ("fresh", "pool"):
        stats = spans.get(f"sim.generate_dataset.{mode}", empty)
        values[f"sim.us_per_shot.{mode}"] = 1e6 * per(stats["total_s"], stats["shots"])
    values["sim.calibrate_to_fidelity.self_s"] = (
        spans.get("sim.calibrate_to_fidelity", empty)["self_s"] / ops
    )
    values["sim.events_per_shot"] = per(counters["sim.events"], counters["sim.shots"])
    values["sim.bytes_per_shot"] = per(counters["sim.bytes"], counters["sim.saved_shots"])
    values["threshold.at_unconverged"] = counters["threshold.at_unconverged"] / ops
    values["threshold.at_unconverged_frac"] = per(
        counters["threshold.at_unconverged"], counters["threshold.at_shots"]
    )
    for key in ("mlp.epochs", "mlp.batches", "lstm.epochs"):
        values[key] = counters[key] / ops
    stats = spans.get("cli.run_experiment", empty)
    values["cli.run_experiment.self_s"] = stats["self_s"] / ops
    values["cli.run_experiment.us_per_call"] = 1e6 * per(stats["total_s"], stats["calls"])
    for name in STRATEGIES:
        span = f"cli.run_strategy.{stem(name)}"
        stats = spans.get(span, empty)
        values[f"{span}.self_s"] = stats["self_s"] / ops
        values[f"{span}.us_per_call"] = 1e6 * per(stats["total_s"], stats["calls"])
        if name in NETWORKS:
            values[f"{span}.epochs"] = counters[f"{span}.epochs"] / ops
            values[f"{span}.batches"] = counters[f"{span}.batches"] / ops
    values.update(extra)
    return values
