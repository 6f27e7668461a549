"""Command line pipeline: config handling, artifacts, failure isolation."""
import csv
import dataclasses
import faulthandler
import json
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from ionread import cli, evaluate, features, lstm, mlp, sim, threshold
from ionread.cli import (
    ConfigError,
    ExperimentConfig,
    ModelFileError,
    build_config,
    build_emission_model,
    build_geometry,
    load_model,
    main,
    parse_config_file,
    strategy_seed,
)


def write_config(path, text):
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_key_value_lines_with_comments(self, tmp_path):
        path = write_config(
            tmp_path / "exp.cfg",
            "# comment\nnum_ions = 2\ngeometry = adjacent  # trailing\n\nseed_data = 7\n",
        )
        values = parse_config_file(path)
        assert values == {"num_ions": "2", "geometry": "adjacent", "seed_data": "7"}

    def test_rejects_malformed_and_duplicate_lines(self, tmp_path):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_file(write_config(tmp_path / "a.cfg", "num_ions\n"))
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_file(write_config(tmp_path / "b.cfg", "seed_data=1\nseed_data=2\n"))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            build_config({"number_of_ions": "3"})
        with pytest.raises(ConfigError, match="unknown config key 'normalization'"):
            build_config({"normalization": "max"})

    def test_readme_config_block_lists_every_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("### Config file", 1)[1].split("```", 2)[1]
        # one key per unindented line; indented lines continue a description
        keys = [line.split()[0] for line in block.splitlines() if line[:1].isalpha()]
        assert keys == [field.name for field in dataclasses.fields(ExperimentConfig)]

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="num_ions"):
            build_config({"num_ions": "three"})

    def test_preset_then_file_then_flags(self):
        config = build_config(
            {"preset": "3q", "samples_per_label": "500"},
            overrides={"seed_data": 99},
        )
        assert config.num_ions == 3
        assert config.geometry == "alternating"
        assert config.samples_per_label == 500
        assert config.seed_data == 99
        assert "TNN+" in config.strategy_names()

    def test_unknown_preset_and_strategy(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            build_config(preset="7q")
        with pytest.raises(ConfigError, match="unknown strategy"):
            build_config({"strategies": "FT,CNN"})

    def test_geometry_constraints(self):
        with pytest.raises(ConfigError):
            build_config({"geometry": "single", "num_ions": "2"})
        with pytest.raises(ConfigError):
            build_config({"geometry": "adjacent", "num_ions": "1"})
        with pytest.raises(ConfigError):
            build_config({"geometry": "ring", "num_ions": "3"})

    @pytest.mark.parametrize("n_jobs", ["0", "-3"])
    def test_n_jobs_must_be_positive(self, n_jobs):
        with pytest.raises(ConfigError, match="n_jobs"):
            build_config({"n_jobs": n_jobs})

    @pytest.mark.parametrize("key", ["epochs", "batch_size", "patience"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_training_sizes_must_be_positive(self, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be >= 1, got {value}"):
            build_config({key: value})
        assert getattr(build_config({key: "1"}), key) == 1

    # evaluate.split cuts each label at round(train_fraction * samples_per_label)
    @pytest.mark.parametrize("samples, fraction", [("3", "0.9"), ("2", "0.2"), ("40", "0.99")])
    def test_train_fraction_must_leave_train_and_test_shots(self, samples, fraction):
        with pytest.raises(ConfigError, match="train_fraction"):
            build_config({"samples_per_label": samples, "train_fraction": fraction})

    def test_train_fraction_accepted_where_split_cuts(self):
        config = build_config({"samples_per_label": "3", "train_fraction": "0.5"})
        labels = [label for label in ("0", "1") for _ in range(config.samples_per_label)]
        train, test = evaluate.split(labels, config.train_fraction, config.seed_data)
        assert len(train) == 4 and len(test) == 2

    def test_empty_strategy_list_rejected(self, capsys, tmp_path):
        with pytest.raises(ConfigError, match="strategies"):
            build_config({"strategies": " , "})
        code = main(["run", "--strategies", ",", "--out", str(tmp_path / "out")])
        assert code == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigError"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["seed_data", "seed_train"])
    def test_seeds_must_be_non_negative(self, key):
        with pytest.raises(ConfigError, match=f"{key} must be >= 0, got -5"):
            build_config({key: "-5"})
        assert getattr(build_config({key: "0"}), key) == 0

    def test_strategy_names_collapse_to_table_order(self):
        config = build_config({"strategies": "RNN,FT,RNN,NN"})
        assert config.strategy_names() == ["FT", "NN", "RNN"]


class TestBuilders:
    def test_emission_model_is_the_library_default(self):
        for preset in ("single", "3q", "5q"):
            assert build_emission_model(build_config({"preset": preset})) == sim.EmissionModel()

    # keys the config once held; other physics is a sim.EmissionModel call
    @pytest.mark.parametrize(
        "key",
        ["window_us", "bright_rate", "pump_bright_to_dark", "pump_dark_to_bright",
         "scatter_rate", "dark_count_rate"],
    )
    def test_removed_emission_key_is_a_config_error(self, capsys, tmp_path, key):
        config = write_config(tmp_path / "old.cfg", f"preset = 3q\n{key} = 1.0\n")
        out = tmp_path / "out"
        assert main(["generate", "--config", config, "--out", str(out)]) == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload == {"error": "ConfigError", "message": f"unknown config key {key!r}"}
        assert not out.exists()

    def test_geometries(self):
        assert build_geometry(ExperimentConfig()).num_channels == 1
        alt = build_geometry(build_config({"preset": "3q"}))
        assert alt.intermediate_channels_present and alt.num_channels == 5
        adj = build_geometry(build_config({"preset": "5q"}))
        assert not adj.intermediate_channels_present and adj.num_channels == 5

    def test_strategy_seeds_do_not_depend_on_selection(self):
        assert strategy_seed(5, "RNN") == strategy_seed(5, "RNN")
        assert strategy_seed(5, "FT") != strategy_seed(5, "RNN")
        assert strategy_seed(5, "NN") != strategy_seed(6, "NN")


class TestSimulatorCheck:
    def test_flags_a_dataset_drawn_from_another_model(self):
        ds = sim.generate_dataset(sim.EmissionModel(), sim.alternating_geometry(3), 500, seed=3)
        own = cli.simulator_check(ds)
        assert own["flagged"] == [] and own["max_abs_z"] < 5.0
        # 9 photons per bright window drawn, 10.5 expected
        other = sim.EmissionModel(bright_rate=0.07)
        check = cli.simulator_check(dataclasses.replace(ds, model=other))
        flagged = {(entry["label"], entry["channel"]): entry for entry in check["flagged"]}
        assert check["max_abs_z"] > 5.0
        assert flagged[("111", 0)]["z"] < -5.0
        assert flagged[("111", 0)]["expected"] > flagged[("111", 0)]["mean"]
        assert all(label != "000" for label, _ in flagged)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    config = write_config(
        tmp_path_factory.mktemp("cfg") / "tiny.cfg",
        "num_ions = 1\ngeometry = single\nsamples_per_label = 60\n"
        "epochs = 3\nstrategies = FT,NN\nseed_data = 11\nseed_train = 12\n",
    )
    code = main(["run", "--config", config, "--out", str(out)])
    return code, out


class TestRunCommand:
    def test_exit_code_and_artifacts(self, tiny_run):
        code, out = tiny_run
        assert code == 0
        for name in ("dataset.jsonl", "fidelity_report.csv", "summary.json"):
            assert (out / name).exists()
        assert (out / "models" / "FT.json").exists()
        assert (out / "models" / "NN.json").exists()
        assert (out / "history" / "NN.csv").exists()

    def test_summary_contents(self, tiny_run):
        _, out = tiny_run
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seed_data"] == 11 and summary["seed_train"] == 12
        assert summary["train_shots"] == 96 and summary["test_shots"] == 24
        assert set(summary["strategies"]) == {"FT", "NN"}
        assert summary["errors"] == {}
        assert "NN" in summary["improvements_over_FT"]
        for entry in summary["strategies"].values():
            assert 0.0 <= entry["average"] <= 1.0
        check = summary["diagnostics"]["simulator"]
        assert check["flagged"] == [] and 0.0 <= check["max_abs_z"] <= check["sigmas"]

    def test_training_diagnostics_at_the_epoch_cap(self, tiny_run):
        _, out = tiny_run
        summary = json.loads((out / "summary.json").read_text())
        entry = summary["strategies"]["NN"]
        with open(out / entry["history_file"]) as fh:
            rows = list(csv.DictReader(fh))
        fidelities = [float(row["val_fidelity"]) for row in rows]
        assert entry["epochs_run"] == len(fidelities) == 3
        assert entry["best_epoch"] == fidelities.index(max(fidelities))
        assert entry["stop_reason"] == "epoch_cap"
        # the history file rounds the same loss to six decimals
        assert entry["final_train_loss"] == pytest.approx(
            float(rows[-1]["train_loss"]), abs=5e-7
        )
        assert "epochs_run" not in summary["strategies"]["FT"]
        assert "final_train_loss" not in summary["strategies"]["FT"]

    def test_training_diagnostics_on_a_patience_stop(self, tmp_path):
        config = write_config(
            tmp_path / "patience.cfg",
            "num_ions = 1\ngeometry = single\nsamples_per_label = 60\n"
            "epochs = 50\npatience = 1\nstrategies = NN,RNN\nseed_data = 11\n",
        )
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        for entry in summary["strategies"].values():
            assert entry["stop_reason"] == "patience"
            assert entry["epochs_run"] < 50
            # patience 1 stops at the first epoch that does not improve
            assert entry["best_epoch"] == entry["epochs_run"] - 2

    def test_threshold_file_says_which_features_it_read(self, tiny_run):
        _, out = tiny_run
        ft = json.loads((out / "models" / "FT.json").read_text())
        assert ft["metadata"] == {
            "strategy": "FT", "num_bins": 1, "include_intermediate": False
        }

    def test_dataset_round_trips(self, tiny_run):
        _, out = tiny_run
        dataset = sim.load_dataset(str(out / "dataset.jsonl"))
        assert len(dataset) == 120
        assert dataset.seed == 11

    def test_report_csv_has_average_rows(self, tiny_run):
        _, out = tiny_run
        with open(out / "fidelity_report.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["strategy", "state", "fidelity", "stderr", "shots"]
        strategies = {row[0] for row in rows[1:]}
        assert strategies == {"FT", "NN"}
        assert sum(1 for row in rows[1:] if row[1] == "average") == 2


def two_cpus(monkeypatch):
    """Let ``n_jobs = 2`` start its pool on any host."""
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1})


class TestFailureIsolation:
    @staticmethod
    def run_inapplicable(tmp_path, capsys, monkeypatch, n_jobs):
        """Run FT, an inapplicable TNN+ and RNN; returns TNN+'s traceback file.

        At two jobs the caller trains RNN and TNN+ fails in the pool.
        """
        two_cpus(monkeypatch)
        config = write_config(
            tmp_path / "bad.cfg",
            "num_ions = 2\ngeometry = adjacent\nsamples_per_label = 40\n"
            f"strategies = FT,TNN+,RNN\nepochs = 1\nn_jobs = {n_jobs}\n",
        )
        out = tmp_path / "out"
        code = main(["run", "--config", config, "--out", str(out)])
        assert code == 1
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["strategies"]) == {"FT", "RNN"}
        assert summary["errors"] == {
            "TNN+": "FeatureError: intermediate channels requested but not "
            "recorded by this geometry"
        }
        stream = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert stream["error"] == "StrategyFailure"
        assert [p.name for p in (out / "errors").iterdir()] == ["TNN_plus.txt"]
        text = (out / "errors" / "TNN_plus.txt").read_text()
        assert "in channel_ids" in text
        assert text.rstrip().endswith("not recorded by this geometry")
        return text

    def test_inapplicable_strategy_is_recorded_not_fatal(
        self, tmp_path, capsys, monkeypatch
    ):
        text = self.run_inapplicable(tmp_path, capsys, monkeypatch, n_jobs=1)
        assert text.startswith("Traceback (most recent call last)")
        assert "in _pool_run" not in text

    def test_failure_in_a_worker_keeps_the_worker_traceback(
        self, tmp_path, capsys, monkeypatch
    ):
        text = self.run_inapplicable(tmp_path, capsys, monkeypatch, n_jobs=2)
        # the worker's own frames, carried across as the exception's cause
        assert "in _pool_run" in text
        assert "direct cause of the following exception" in text

    def test_a_rerun_drops_old_tracebacks(self, tmp_path, capsys, monkeypatch):
        self.run_inapplicable(tmp_path, capsys, monkeypatch, n_jobs=1)
        config = write_config(
            tmp_path / "good.cfg",
            "num_ions = 2\ngeometry = adjacent\nsamples_per_label = 40\n"
            "strategies = FT\n",
        )
        assert main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 0
        assert list((tmp_path / "out" / "errors").iterdir()) == []


class TestStaleArtifacts:
    def test_a_rerun_drops_models_and_histories_it_did_not_write(self, tmp_path):
        out = tmp_path / "out"
        for strategies in ("FT,NN", "FT"):
            config = write_config(
                tmp_path / "run.cfg",
                "num_ions = 2\ngeometry = adjacent\nsamples_per_label = 40\n"
                f"strategies = {strategies}\nepochs = 1\n",
            )
            assert main(["run", "--config", config, "--out", str(out)]) == 0
        assert [p.name for p in (out / "models").iterdir()] == ["FT.json"]
        assert not (out / "history" / "NN.csv").exists()


class TestGenerateCommand:
    def test_writes_reproducible_dataset(self, tmp_path):
        config = write_config(
            tmp_path / "gen.cfg",
            "num_ions = 1\ngeometry = single\nsamples_per_label = 25\nseed_data = 4\n",
        )
        code_a = main(["generate", "--config", config, "--out", str(tmp_path / "a")])
        code_b = main(["generate", "--config", config, "--out", str(tmp_path / "b")])
        assert code_a == 0 and code_b == 0
        first = (tmp_path / "a" / "dataset.jsonl").read_bytes()
        second = (tmp_path / "b" / "dataset.jsonl").read_bytes()
        assert first == second

    def test_seed_flag_overrides_config(self, tmp_path):
        config = write_config(
            tmp_path / "gen.cfg",
            "num_ions = 1\ngeometry = single\nsamples_per_label = 10\nseed_data = 4\n",
        )
        main(["generate", "--config", config, "--out", str(tmp_path / "a"),
              "--seed-data", "9"])
        dataset = sim.load_dataset(str(tmp_path / "a" / "dataset.jsonl"))
        assert dataset.seed == 9


@pytest.fixture(scope="module")
def rnn_config(tmp_path_factory):
    return write_config(
        tmp_path_factory.mktemp("cfg") / "rnn.cfg",
        "num_ions = 1\ngeometry = single\nsamples_per_label = 40\n"
        "epochs = 2\nstrategies = RNN\nseed_data = 3\nseed_train = 5\n",
    )


class TestProbeAndSweep:
    def test_probe_csv_layout(self, rnn_config, tmp_path):
        code = main(["probe", "--config", rnn_config, "--out", str(tmp_path)])
        assert code == 0
        with open(tmp_path / "probe.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["bin", "time_us", "p_bright_ion0", "p_bright_mean"]
        assert len(rows) == 1 + 15
        assert rows[1][1] == "5.0" and rows[-1][1] == "145.0"
        for row in rows[1:]:
            assert 0.0 <= float(row[2]) <= 1.0

    def test_sweep_csv_layout(self, rnn_config, tmp_path):
        code = main(["sweep-time", "--config", rnn_config, "--out", str(tmp_path)])
        assert code == 0
        with open(tmp_path / "time_sweep.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["detection_time_us", "fidelity", "stderr"]
        assert len(rows) == 1 + 16
        assert rows[1][0] == "0.0" and rows[-1][0] == "150.0"

    def test_full_window_sweep_row_is_the_run_fidelity(self, tmp_path):
        # 640 test rows, more than one inference block
        config = write_config(
            tmp_path / "3q.cfg", "preset = 3q\nsamples_per_label = 400\nepochs = 2\n"
        )
        assert main(["sweep-time", "--config", config, "--out", str(tmp_path / "sweep")]) == 0
        assert main(["run", "--config", config, "--strategies", "RNN",
                     "--out", str(tmp_path / "run")]) == 0
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        rnn = summary["strategies"]["RNN"]
        shots = sum(state["shots"] for state in rnn["per_state"].values())
        assert shots > lstm.INFERENCE_BLOCK_ROWS
        with open(tmp_path / "sweep" / "time_sweep.csv") as fh:
            last = list(csv.reader(fh))[-1]
        assert last == ["150.0", f"{rnn['average']:.6f}", f"{rnn['average_stderr']:.6f}"]


MIDDLE_ION_CONTEXTS = [[1, key] for key in ("00", "01", "10", "11")]


class TestAdaptiveDiagnostics:
    @pytest.mark.parametrize(
        "geometry, samples_per_label, starved, unconverged",
        [
            # 48 training shots per label: each of the middle ion's four
            # contexts holds 96 shots, under the 100 needed; the rest fit
            ("alternating", 60, MIDDLE_ION_CONTEXTS, 0),
            # heavy crosstalk between adjacent channels: every context fits
            # and a few test shots still flip at the iteration cap
            ("adjacent", 150, [], 4),
        ],
    )
    def test_summary_keeps_convergence_and_starved_contexts(
        self, tmp_path, geometry, samples_per_label, starved, unconverged
    ):
        config = write_config(
            tmp_path / "adaptive.cfg",
            f"num_ions = 3\ngeometry = {geometry}\n"
            f"samples_per_label = {samples_per_label}\nstrategies = FT,AT\nseed_data = 4\n",
        )
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        entry = summary["strategies"]["AT"]
        assert entry["starved_contexts"] == starved
        assert entry["unconverged_shots"] == unconverged
        assert "unconverged_shots" not in summary["strategies"]["FT"]

        model = load_model(out / entry["model_file"])
        assert [list(s) for s in model.starved_contexts] == starved
        dataset = sim.load_dataset(str(out / "dataset.jsonl"))
        _, test_idx = evaluate.split(dataset.labels, 0.8, 4)
        spec = features.FeatureSpec(num_bins=1)
        counts = features.featurize_dataset(dataset.samples[test_idx], spec, dataset.geometry)
        _, converged = threshold.classify_adaptive(model, counts)
        assert int((~converged).sum()) == unconverged


class TestModelFiles:
    def test_unknown_format(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"format": "ionread.cnn", "version": 1}))
        with pytest.raises(ModelFileError, match="unknown model format"):
            load_model(path)

    @pytest.mark.parametrize("text", ["", '{"format": "ionread.mlp", "lay', "nan?"])
    def test_not_json(self, tmp_path, text):
        path = tmp_path / "m.json"
        path.write_text(text)
        with pytest.raises(ModelFileError, match="not a JSON model file"):
            load_model(path)

    def test_not_an_object(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ModelFileError, match="JSON object"):
            load_model(path)

    def test_missing_key(self, tmp_path):
        record = mlp.MlpModel([2, 8, 8, 4]).to_dict()
        del record["weights"]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(record))
        with pytest.raises(ModelFileError, match="weights"):
            load_model(path)

    @staticmethod
    def write(tmp_path, record):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(record))
        return path

    @pytest.mark.parametrize(
        "model",
        [
            threshold.FixedThresholdModel((3, 4)),
            threshold.AdaptiveThresholdModel(
                fixed=threshold.FixedThresholdModel((1, 2)),
                context_thresholds=({"0": 1, "1": 3}, {"0": 2, "1": 2}),
            ),
            mlp.MlpModel([2, 8, 8, 4]),
            lstm.LstmModel(2, 4, 2),
        ],
        ids=lambda model: model.FORMAT,
    )
    def test_version_must_be_one(self, tmp_path, model):
        record = model.to_dict()
        assert type(load_model(self.write(tmp_path, record))) is type(model)
        for version in (99, 0, 1.0, "1", True, None):
            record["version"] = version
            path = self.write(tmp_path, record)
            with pytest.raises(ModelFileError) as excinfo:
                load_model(path)
            assert str(excinfo.value) == (
                f"{path}: unsupported {model.FORMAT} version {version!r}"
            )

    def test_mlp_weight_shape_contradicts_layer_sizes(self, tmp_path):
        record = mlp.MlpModel([3, 8, 8, 4]).to_dict()
        record["weights"][0] = np.zeros((5, 8)).tolist()
        with pytest.raises(ModelFileError, match=r"weights\[0\] has shape \(5, 8\)"):
            load_model(self.write(tmp_path, record))

    def test_lstm_weight_shape_contradicts_sizes(self, tmp_path):
        record = lstm.LstmModel(3, 4, 4).to_dict()
        record["w_hidden"] = [[0.0]]
        with pytest.raises(ModelFileError, match=r"w_hidden has shape \(1, 1\)"):
            load_model(self.write(tmp_path, record))

    @pytest.mark.parametrize(
        "sizes", [[5.7, 8, 8.9, 8], [3, 8.0, 8, 4], [True, 8, 8, 4], [3, 8, 8, "4"]]
    )
    def test_mlp_layer_sizes_must_be_integers(self, tmp_path, sizes):
        record = mlp.MlpModel([int(s) for s in sizes]).to_dict()
        record["layer_sizes"] = sizes
        with pytest.raises(ModelFileError, match="layer_sizes must be an integer >= 1"):
            load_model(self.write(tmp_path, record))

    @pytest.mark.parametrize(
        "field, value",
        [("input_size", True), ("hidden_size", 4.0), ("output_size", 8.5), ("input_size", "2")],
    )
    def test_lstm_sizes_must_be_integers(self, tmp_path, field, value):
        record = lstm.LstmModel(2, 4, 8).to_dict()
        record[field] = value
        with pytest.raises(ModelFileError, match=f"{field} must be an integer >= 1"):
            load_model(self.write(tmp_path, record))

    def test_numpy_integer_sizes_are_accepted(self, tmp_path):
        for model in (
            mlp.MlpModel([np.int64(3), np.int32(8), 8, np.uint8(4)]),
            lstm.LstmModel(np.int64(2), np.int16(4), np.uint8(8)),
        ):
            loaded = load_model(self.write(tmp_path, model.to_dict()))
            np.testing.assert_array_equal(loaded.flat, model.flat)

    def test_fixed_thresholds_must_be_integer_list(self, tmp_path):
        for thresholds in (5, [1, 2.5], ["3"], []):
            record = {"format": "ionread.threshold_fixed", "version": 1, "thresholds": thresholds}
            with pytest.raises(ModelFileError, match="thresholds"):
                load_model(self.write(tmp_path, record))

    def test_adaptive_tables_must_cover_every_context(self, tmp_path):
        record = threshold.AdaptiveThresholdModel(
            fixed=threshold.FixedThresholdModel((1, 2)),
            context_thresholds=({"0": 1, "1": 3}, {"0": 2, "1": 2}),
        ).to_dict()
        loaded = load_model(self.write(tmp_path, record))
        assert loaded.context_thresholds == ({"0": 1, "1": 3}, {"0": 2, "1": 2})
        for table in ({"0": 1}, {"0": 1, "1": "3"}):
            record["context_thresholds"][0] = table
            with pytest.raises(ModelFileError, match=r"context_thresholds\[0\]"):
                load_model(self.write(tmp_path, record))


class TestErrorReporting:
    def test_missing_config_file_gives_json_error(self, capsys, tmp_path):
        code = main(["run", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "FileNotFoundError"

    def test_negative_seed_flag_is_a_config_error(self, capsys, tmp_path):
        code = main(["generate", "--seed-data", "-1", "--out", str(tmp_path / "out")])
        assert code == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "ConfigError"
        assert "seed_data" in payload["message"]
        assert not (tmp_path / "out").exists()

    def test_config_error_surfaces_as_json(self, capsys, tmp_path):
        config = write_config(tmp_path / "bad.cfg", "bogus_key = 1\n")
        code = main(["run", "--config", config, "--out", str(tmp_path / "out")])
        assert code == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "ConfigError"
        assert "bogus_key" in payload["message"]


@pytest.fixture(scope="module")
def runs_by_jobs(tmp_path_factory):
    cfg = tmp_path_factory.mktemp("cfg")
    out = tmp_path_factory.mktemp("jobs")
    with pytest.MonkeyPatch.context() as monkeypatch:
        two_cpus(monkeypatch)
        for n_jobs in (1, 2):
            config = write_config(
                cfg / f"jobs{n_jobs}.cfg",
                "preset = 3q\nsamples_per_label = 30\nepochs = 2\n"
                f"seed_data = 8\nseed_train = 9\nn_jobs = {n_jobs}\n",
            )
            assert main(["run", "--config", config, "--out", str(out / str(n_jobs))]) == 0
    return out / "1", out / "2"


def artifact_bytes(out):
    return {
        str(path.relative_to(out)): path.read_bytes()
        for path in sorted(out.rglob("*"))
        if path.is_file() and path.name != "summary.json"
    }


def comparable_summary(out):
    summary = json.loads((out / "summary.json").read_text())
    del summary["config"]["n_jobs"]
    for entry in summary["strategies"].values():
        del entry["seconds"]
    return summary


def process_alive(pid):
    """True while ``pid`` exists and is not a zombie waiting to be reaped."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            stat = fh.read()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


class RecordingPool:
    """Stand-in for the process pool that runs each task inline on submit."""

    started: list[int] = []
    submitted: list[str] = []

    def __init__(self, max_workers, initializer, initargs):
        self.started.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.submitted.append(fn.__name__ if fn is cli._pool_save else args[0])
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


class TestTrainingPool:
    def test_two_jobs_write_the_same_artifacts_as_one(self, runs_by_jobs):
        serial, pooled = runs_by_jobs
        serial_files = artifact_bytes(serial)
        assert set(serial_files) == {
            "dataset.jsonl",
            "fidelity_report.csv",
            *(f"models/{cli._file_stem(name)}.json" for name in cli.STRATEGY_ORDER),
            *(f"history/{cli._file_stem(name)}.csv"
              for name in ("NN", "NN+", "TNN", "TNN+", "RNN")),
        }
        assert artifact_bytes(pooled) == serial_files
        assert comparable_summary(pooled) == comparable_summary(serial)
        summary = json.loads((pooled / "summary.json").read_text())
        assert list(summary["strategies"]) == list(cli.STRATEGY_ORDER)

    @pytest.mark.parametrize(
        "n_jobs, cpus, strategies, workers",
        [
            (1, 64, "FT,AT,RNN", None),
            (2, 1, "FT,AT,RNN", None),
            (500, 64, "FT,AT,RNN", 3),  # dataset write, FT and AT
            (500, 3, "FT,AT,RNN", 2),  # the caller is the third process
            (500, 64, "RNN", 1),  # the dataset write alone
        ],
    )
    def test_pool_size_and_task_order(
        self, tmp_path, monkeypatch, n_jobs, cpus, strategies, workers
    ):
        monkeypatch.setattr(RecordingPool, "started", [])
        monkeypatch.setattr(RecordingPool, "submitted", [])
        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli, "_POOL_TASK", None)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        # the stand-in runs the initializer here: record it, start no watcher
        watched = []
        monkeypatch.setattr(cli, "exit_with_parent", lambda: watched.append(True))
        config = build_config(
            preset="3q",
            overrides={"samples_per_label": 20, "epochs": 1, "strategies": strategies,
                       "n_jobs": n_jobs},
        )
        summary = cli.run_experiment(config, tmp_path)
        assert RecordingPool.started == ([] if workers is None else [workers])
        assert watched == ([] if workers is None else [True])
        # the caller keeps RNN; the pool writes first, then costliest first
        pooled = ["_pool_save"] + [s for s in ("AT", "FT") if s in strategies]
        assert RecordingPool.submitted == ([] if workers is None else pooled)
        assert summary["errors"] == {}
        assert list(summary["strategies"]) == config.strategy_names()
        assert (tmp_path / "dataset.jsonl").exists()

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_runs_where_the_platform_has_no_cpu_affinity(self, tmp_path, monkeypatch, n_jobs):
        # macOS and Windows have no os.sched_getaffinity: count every CPU
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert cli.worker_count(500, 64) == 2
        config = write_config(
            tmp_path / "tiny.cfg",
            "preset = 3q\nsamples_per_label = 20\nepochs = 1\nstrategies = FT,RNN\n"
            f"n_jobs = {n_jobs}\n",
        )
        assert main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 0

    def test_worker_exits_when_the_caller_is_killed(self, tmp_path):
        # the caller trains RNN for a minute while its one worker, FT done,
        # waits on the task queue; SIGKILL the caller and watch the worker
        pid_file = tmp_path / "pids.txt"
        script = (
            "import os, sys, time\n"
            "from ionread import cli, sim\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "sim.save_dataset = lambda dataset, path: None\n"
            "def stand_in(spec, *task):\n"
            f"    with open({str(pid_file)!r}, 'a') as fh:\n"
            "        fh.write(f'{spec.name} {os.getpid()}\\n')\n"
            "    if spec.name == 'RNN':\n"
            "        time.sleep(60)\n"
            "    raise RuntimeError('stand-in')\n"
            "cli.run_strategy = stand_in\n"
            "cli._train_all(['FT', 'RNN'], (None,) * 4, 'unused', 2)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        caller = subprocess.Popen([sys.executable, "-c", script], env=env)
        worker = None
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline and caller.poll() is None:
                lines = pid_file.read_text().split() if pid_file.exists() else []
                pids = dict(zip(lines[::2], map(int, lines[1::2])))
                if len(pids) == 2:
                    worker = pids["FT"]
                    break
                time.sleep(0.05)
            assert worker is not None and worker != caller.pid
            caller.kill()
            caller.wait(timeout=10)
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline and process_alive(worker):
                time.sleep(0.05)
            assert not process_alive(worker), "the orphaned worker kept running"
        finally:
            caller.kill()
            caller.wait(timeout=10)
            if worker is not None and process_alive(worker):
                os.kill(worker, signal.SIGKILL)

    def test_a_dead_worker_fails_its_strategies_not_the_run(
        self, tmp_path, monkeypatch, capsys
    ):
        two_cpus(monkeypatch)
        train = cli.run_strategy
        caller = os.getpid()

        def exit_on_ft(spec, *args):
            if spec.name == "FT":
                assert os.getpid() != caller, "FT should train in the pool"
                os._exit(3)  # the forked worker inherits this patch
            return train(spec, *args)

        monkeypatch.setattr(cli, "run_strategy", exit_on_ft)
        config = write_config(
            tmp_path / "dies.cfg",
            "preset = 3q\nsamples_per_label = 20\nepochs = 1\n"
            "strategies = FT,AT,RNN\nn_jobs = 2\n",
        )
        out = tmp_path / "out"
        # fail, never hang
        faulthandler.dump_traceback_later(300, exit=True, file=sys.__stderr__)
        try:
            code = main(["run", "--config", config, "--out", str(out)])
        finally:
            faulthandler.cancel_dump_traceback_later()
        assert code == 1
        summary = json.loads((out / "summary.json").read_text())
        assert "RNN" in summary["strategies"]
        assert (out / "models" / "RNN.json").exists()
        # FT ran last in the pool; anything still queued with it fails the same way
        assert "FT" in summary["errors"]
        for name, message in summary["errors"].items():
            assert message.startswith("BrokenProcessPool: ")
            assert (out / "errors" / f"{cli._file_stem(name)}.txt").exists()
        assert set(summary["errors"]) | set(summary["strategies"]) == {"FT", "AT", "RNN"}
        stream = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert stream["error"] == "StrategyFailure"


class TestWithoutScipy:
    def test_package_runs_with_scipy_unimportable(self, tmp_path):
        # scipy is a test-only dependency: the package must calibrate,
        # generate and run end to end when importing it fails
        config = write_config(
            tmp_path / "tiny.cfg",
            "preset = 3q\nsamples_per_label = 20\nepochs = 1\nstrategies = FT,AT,NN\n"
            "n_jobs = 2\n",
        )
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from ionread import cli, sim\n"
            "model = sim.calibrate_to_fidelity(0.995)\n"
            "geometry = sim.alternating_geometry(2)\n"
            "for mode in ('fresh', 'pool'):\n"
            "    sim.generate_dataset(model, geometry, 5, seed=1, mode=mode)\n"
            f"code = cli.main(['run', '--config', {config!r}, '--out', {str(tmp_path / 'out')!r}])\n"
            "assert sys.modules['scipy'] is None\n"
            "sys.exit(code)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "out" / "summary.json").exists()


class TestCountedShots:
    @pytest.mark.parametrize("name", cli.STRATEGY_ORDER)
    def test_a_strategy_counts_only_its_train_and_test_shots(self, monkeypatch, name):
        dataset = sim.generate_dataset(sim.EmissionModel(), sim.alternating_geometry(3), 30, seed=5)
        train_idx, test_idx = evaluate.split(dataset.labels, 0.8, 5)
        count_images = features._count_images
        counted = []

        def counting(samples, *args):
            counted.append(len(samples))
            return count_images(samples, *args)

        monkeypatch.setattr(features, "_count_images", counting)
        config = ExperimentConfig(num_ions=3, geometry="alternating", epochs=1)
        result = cli.run_strategy(cli.STRATEGIES[name], dataset, train_idx, test_idx, config)
        assert counted == [len(train_idx), len(test_idx)]
        assert result.report.shots_per_state.sum() == len(test_idx)
