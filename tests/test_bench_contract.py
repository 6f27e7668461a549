"""The benchmark harness still runs against the public API.

``bench/workloads.py`` is imported as it is and two of its workloads run at
the sizes of ``bench/run.py --tiny``, so an API change that would break the
harness fails here first.  The package's channel-mean law is checked against
the harness's own copy.
"""
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from ionread import sim

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules["workloads"] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    yield module
    del sys.modules["workloads"]


def test_dataset_pipeline_passes_its_checks(workloads, tmp_path):
    size = workloads.DatasetSize(num_ions=3, samples_per_label=30)
    pipeline = workloads.DatasetPipeline(1, size, tmp_path)
    try:
        result = pipeline.run()
        assert result.failures == []
        assert result.check() == []
    finally:
        pipeline.close()
    assert set(result.quality) == {"FT", "AT"}


def test_readout_streams_every_shot_and_verifies(workloads, tmp_path):
    size = workloads.ReadoutSize(samples_per_label=60, epochs=1)
    readout = workloads.Readout(1, size, tmp_path)
    for _ in readout.stream:
        assert readout.run().failures == []
    result = readout.verify()
    assert result.failures == []
    assert set(result.quality) == set(workloads.READOUT_MODELS)


@pytest.mark.parametrize("mode", ["fresh", "pool"])
@pytest.mark.parametrize(
    "geometry",
    [sim.adjacent_geometry(1), sim.alternating_geometry(3), sim.adjacent_geometry(5)],
    ids=["single", "alternating", "adjacent"],
)
def test_expected_channel_means_match_the_bench_law(workloads, geometry, mode):
    model = sim.calibrate_to_fidelity(0.995)
    np.testing.assert_allclose(
        sim.expected_channel_means(model, geometry, mode),
        workloads.analytic_channel_means(model, geometry, mode),
        rtol=1e-13,
        atol=0,
    )
