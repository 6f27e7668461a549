"""End-to-end acceptance run for the readout stack.

One test per headline guarantee, each printing a ``[acceptance]`` line with
the numbers it measured before asserting on them:

  1. calibrated single-ion baseline reproduces its target fidelity split
  2. three-qubit register: strategy ordering and TNN+ error reduction
  3. five-qubit adjacent register: TNN beats both threshold methods
  4. recurrent model: parity with TNN+, sensible time trends
  5. numerical invariants of the learning stack
  6. exact fidelity and improvement arithmetic

The register experiments train the real networks; the whole module runs
in a few minutes and is deterministic given the seeds pinned here.
"""
import math
import time

import numpy as np
import pytest
from scipy import stats

from ionread import cli, evaluate, features, lstm, mlp, sim, threshold

SEED_DATA = 1
SEED_TRAIN = 2


def _line(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _combined_se(a: evaluate.FidelityReport, b: evaluate.FidelityReport) -> float:
    return math.hypot(a.average_stderr, b.average_stderr)


def _run_register(config: cli.ExperimentConfig, out_dir) -> dict:
    """Train every strategy as ``run`` does, through its training pool.

    With ``config.n_jobs`` of 2 the costliest strategy trains here while a
    worker writes the dataset into ``out_dir`` and trains the others, so
    the acceptance gates also cover the pool's results.
    """
    dataset = sim.generate_dataset(
        cli.build_emission_model(config),
        cli.build_geometry(config),
        config.samples_per_label,
        config.seed_data,
    )
    train_idx, test_idx = evaluate.split(
        dataset.labels, config.train_fraction, config.seed_data
    )
    started = time.perf_counter()
    results = cli._train_all(
        config.strategy_names(),
        (dataset, train_idx, test_idx, config),
        str(out_dir / "dataset.jsonl"),
        config.n_jobs,
    )
    for outcome in results.values():
        if not isinstance(outcome, cli.StrategyResult):
            raise outcome
    return {
        "config": config,
        "dataset": dataset,
        "train_idx": train_idx,
        "test_idx": test_idx,
        "results": results,
        "seconds": time.perf_counter() - started,
    }


@pytest.fixture(scope="module")
def three_qubit_experiment(tmp_path_factory):
    config = cli.ExperimentConfig(
        num_ions=3,
        geometry="alternating",
        samples_per_label=8000,
        n_jobs=2,
        seed_data=SEED_DATA,
        seed_train=SEED_TRAIN,
        strategies="FT,AT,NN,TNN,TNN+,RNN",
    )
    return _run_register(config, tmp_path_factory.mktemp("three_qubit"))


@pytest.fixture(scope="module")
def five_qubit_experiment(tmp_path_factory):
    config = cli.ExperimentConfig(
        num_ions=5,
        geometry="adjacent",
        samples_per_label=2000,
        n_jobs=2,
        seed_data=SEED_DATA,
        seed_train=SEED_TRAIN,
        strategies="FT,AT,TNN",
    )
    return _run_register(config, tmp_path_factory.mktemp("five_qubit"))


def test_single_ion_calibrated_baseline():
    started = time.perf_counter()
    model = sim.calibrate_to_fidelity(0.995)
    dataset = sim.generate_dataset(
        model, sim.adjacent_geometry(1), samples_per_label=50000, seed=SEED_DATA
    )
    counts = np.diff(dataset.offsets)[:, None]
    fitted = threshold.fit_fixed(counts, dataset.labels)
    report = evaluate.fidelity(
        evaluate.confusion(threshold.classify_fixed(fitted, counts), dataset.labels)
    )
    elapsed = time.perf_counter() - started
    dark, bright = report.per_state[0], report.per_state[1]
    ok = (
        abs(report.average - 0.995) <= 1e-3
        and abs(bright - 0.994) <= 1.5e-3
        and abs(dark - 0.996) <= 1.5e-3
        and elapsed < 60.0
    )
    _line(
        "single-ion baseline",
        ok,
        f"avg {report.average:.5f}, bright {bright:.5f}, dark {dark:.5f}, "
        f"threshold {fitted.thresholds[0]}, {elapsed:.0f}s",
    )
    assert ok


def test_three_qubit_strategy_ordering(three_qubit_experiment):
    results = three_qubit_experiment["results"]
    reports = {name: r.report for name, r in results.items()}
    chain = ["TNN+", "TNN", "NN", "AT", "FT"]
    violations = []
    for better, worse in zip(chain, chain[1:]):
        gap = reports[better].average - reports[worse].average
        if gap < -_combined_se(reports[better], reports[worse]):
            violations.append(f"{better} < {worse} by {-gap:.5f}")
    gain = evaluate.improvement(reports["FT"], reports["TNN+"])
    elapsed = three_qubit_experiment["seconds"]
    ok = not violations and gain.value >= 0.15 and elapsed < 20 * 60
    fids = " ".join(f"{name} {reports[name].average:.5f}" for name in chain[::-1])
    _line(
        "three-qubit ordering",
        ok,
        f"{fids}; TNN+ error reduction {gain.value:.1%} +- {gain.stderr:.1%}, "
        f"{elapsed:.0f}s{'; ' + ', '.join(violations) if violations else ''}",
    )
    assert ok


def test_five_qubit_adjacent_register(five_qubit_experiment):
    reports = {n: r.report for n, r in five_qubit_experiment["results"].items()}
    gain_ft = evaluate.improvement(reports["FT"], reports["TNN"])
    at_gap = reports["TNN"].average - reports["AT"].average
    at_ok = at_gap >= -_combined_se(reports["TNN"], reports["AT"])
    elapsed = five_qubit_experiment["seconds"]
    ok = gain_ft.value >= 0.15 and at_ok and elapsed < 40 * 60
    _line(
        "five-qubit adjacent register",
        ok,
        f"FT {reports['FT'].average:.5f} AT {reports['AT'].average:.5f} "
        f"TNN {reports['TNN'].average:.5f}; TNN over FT {gain_ft.value:.1%}, "
        f"over AT {at_gap:+.5f}, {elapsed:.0f}s",
    )
    assert ok


def test_recurrent_parity_and_time_trends(three_qubit_experiment):
    results = three_qubit_experiment["results"]
    dataset = three_qubit_experiment["dataset"]
    test_idx = three_qubit_experiment["test_idx"]
    rnn = results["RNN"]
    model: lstm.LstmModel = rnn.model
    parity = rnn.report.average - results["TNN+"].report.average

    spec = rnn.feature_spec
    geometry = dataset.geometry
    sequences = features.sequence_dataset(dataset.samples, spec, geometry)[test_idx]
    test_labels = [dataset.labels[i] for i in test_idx]
    curve = []
    for probs in lstm.forward_by_bin(model, sequences):
        predicted = evaluate.state_labels(model.num_ions)[np.argmax(probs, axis=1)]
        curve.append(evaluate.fidelity(evaluate.confusion(predicted, test_labels)))
    sweep_ok = all(
        later.average - earlier.average >= -_combined_se(earlier, later)
        for earlier, later in zip(curve, curve[1:])
    )

    channel_ids = spec.channel_ids(geometry)
    probes = []
    for ion in range(geometry.num_ions):
        column = channel_ids.index(geometry.ion_channel[ion])
        probes.append(lstm.probe(model, spec.num_bins, column, ion))
    mean_probe = np.mean(probes, axis=0)
    rho = stats.spearmanr(np.arange(mean_probe.size), mean_probe).statistic

    ok = abs(parity) <= 3e-3 and sweep_ok and rho <= -0.9
    _line(
        "recurrent parity and trends",
        ok,
        f"RNN-TNN+ {parity:+.5f} (|.|<=0.003), sweep "
        f"{curve[0].average:.3f}->{curve[-1].average:.3f} "
        f"monotone within bars: {sweep_ok}, probe spearman {rho:.3f}",
    )
    assert ok


def worst_gradient_error(network, model, x, y, samples_per_block):
    """Largest relative gap between ``backward`` and central differences.

    Samples about ``samples_per_block`` entries of every parameter block of
    ``model.flat``.
    """
    _, grad = network.backward(model, x, y)
    flat = model.flat
    worst, start = 0.0, 0
    for p in model.parameters:
        for k in range(start, start + p.size, max(1, p.size // samples_per_block)):
            old = flat[k]
            flat[k] = old + 1e-5
            up = network.backward(model, x, y)[0]
            flat[k] = old - 1e-5
            down = network.backward(model, x, y)[0]
            flat[k] = old
            fd = (up - down) / 2e-5
            scale = max(abs(fd), abs(grad[k]), 1e-8)
            worst = max(worst, abs(fd - grad[k]) / scale)
        start += p.size
    return worst


def test_numerical_property_suite(tmp_path):
    started = time.perf_counter()
    checks = {}

    # softmax: rows normalised, shift invariant
    logits = np.array([[0.3, -1.2, 4.0], [50.0, -50.0, 0.0]])
    probs = mlp.softmax(logits)
    shifted = mlp.softmax(logits + 50.0)
    checks["softmax"] = (
        np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-12)
        and np.max(np.abs(shifted - probs)) < 1e-12
    )

    # gradients against central finite differences
    rng = np.random.default_rng(3)
    net = mlp.MlpModel([3, 8, 8, 4], seed=5)
    x = rng.normal(size=(6, 3))
    y = rng.integers(0, 4, size=6)
    checks["mlp gradient"] = (
        worst_gradient_error(mlp, net, x, y, samples_per_block=5) < 1e-4
    )

    seq_net = lstm.LstmModel(input_size=2, hidden_size=3, output_size=4, seed=6)
    xs = rng.normal(size=(3, 4, 2))
    ys = rng.integers(0, 4, size=3)
    checks["lstm gradient"] = (
        worst_gradient_error(lstm, seq_net, xs, ys, samples_per_block=4) < 1e-4
    )

    # one ADADELTA step on unit gradient, against the closed form
    param = np.zeros(1)
    mlp.adadelta_step(param, np.ones(1), np.zeros(1), np.zeros(1))
    expected = -math.sqrt(1e-6) / math.sqrt(0.05 + 1e-6)
    checks["adadelta step"] = abs(param[0] - expected) < 1e-12

    # fitted threshold equals the exact Poisson-CDF argmin
    rng = np.random.default_rng(11)
    n = 200000
    counts = np.concatenate([rng.poisson(9.0, n), rng.poisson(0.4, n)])
    labels = ["1"] * n + ["0"] * n
    fitted = threshold.fit_fixed(counts.reshape(-1, 1), labels)
    thetas = np.arange(0, 40)
    exact_error = stats.poisson.cdf(thetas, 9.0) + stats.poisson.sf(thetas, 0.4)
    checks["threshold argmin"] = fitted.thresholds[0] == int(np.argmin(exact_error))

    # adaptive classifier collapses to the fixed one under equal thresholds
    fixed = threshold.FixedThresholdModel((1, 1, 1))
    flat = threshold.AdaptiveThresholdModel(
        fixed=fixed,
        context_thresholds=(
            {"0": 1, "1": 1},
            {"00": 1, "01": 1, "10": 1, "11": 1},
            {"0": 1, "1": 1},
        ),
    )
    sample_counts = rng.integers(0, 15, size=(500, 3))
    collapsed, converged = threshold.classify_adaptive(flat, sample_counts)
    checks["adaptive collapse"] = (
        collapsed == threshold.classify_fixed(fixed, sample_counts)
        and bool(np.all(converged))
    )

    # the generated counts of a flip-free bright ion are Poisson
    quiet = sim.EmissionModel(
        pump_bright_to_dark_rate=0.0,
        pump_dark_to_bright_rate=0.0,
        background_scatter_rate=0.0,
        detector_dark_rate=0.0,
    )
    quiet_ds = sim.generate_dataset(quiet, sim.adjacent_geometry(1), 100000, seed=13)
    shot_counts = np.diff(quiet_ds.offsets)[quiet_ds.labels == "1"]
    mean = quiet.bright_rate * quiet.window_us
    edges = np.arange(2, 18)
    observed = np.array(
        [np.sum(shot_counts < edges[0])]
        + [np.sum(shot_counts == k) for k in edges]
        + [np.sum(shot_counts > edges[-1])]
    )
    expected_p = np.concatenate(
        [
            [stats.poisson.cdf(edges[0] - 1, mean)],
            stats.poisson.pmf(edges, mean),
            [stats.poisson.sf(edges[-1], mean)],
        ]
    )
    p_value = stats.chisquare(observed, expected_p * shot_counts.size).pvalue
    checks["poisson chi-square"] = p_value > 1e-3

    # generation is bit-identical across runs
    model = sim.EmissionModel()
    geometry = sim.alternating_geometry(2)
    paths = []
    for tag in ("serial", "repeat"):
        ds = sim.generate_dataset(model, geometry, 200, seed=9)
        path = tmp_path / f"{tag}.jsonl"
        sim.save_dataset(ds, path)
        paths.append(path.read_bytes())
    checks["bit reproducible"] = paths[0] == paths[1]

    elapsed = time.perf_counter() - started
    ok = all(checks.values()) and elapsed < 120.0
    failed = [k for k, v in checks.items() if not v]
    _line(
        "numerical properties",
        ok,
        f"{len(checks)} checks, chi-square p {p_value:.4f}, {elapsed:.0f}s"
        + (f"; failed: {', '.join(failed)}" if failed else ""),
    )
    assert ok


def test_fidelity_arithmetic_oracles():
    report = evaluate.fidelity(np.array([[98, 2], [4, 96]]))
    exact_avg = report.average == 0.97
    gain = evaluate.improvement(0.990, 0.993)
    exact_gain = abs(gain.value - 0.30) < 1e-12 and gain.stderr == 0.0
    ok = exact_avg and exact_gain
    _line(
        "fidelity arithmetic",
        ok,
        f"avg([[98,2],[4,96]]) = {report.average}, "
        f"improvement(0.990, 0.993) = {gain.value}",
    )
    assert ok
