"""The benchmark harness still runs against the public API.

``bench/workloads.py`` is imported as it is and two of its workloads run at
the sizes of ``bench/run.py --tiny``, so an API change that would break the
harness fails here first.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

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
