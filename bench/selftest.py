"""Self-test of the benchmark on tiny inputs.

    python3 bench/selftest.py

For every workload of run.py, including readout-3q, which BENCHMARK.json does
not list, it runs ``run.py --tiny`` untraced and traced and checks the result
line against BENCHMARK.json: exactly the declared metrics with their units,
finite values, whole ``attempted`` and ``failed`` counts.  It
then checks that the same seed reproduces the exact counts and the
``avg_error`` figures, that another seed changes the dataset, and that
``run.py`` fails without a result when the ionread sources are missing.
Exits non-zero on the first failed check.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from run import BENCH_DIR, ROOT, WORKLOADS
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Networks trained on tiny inputs do not reach the fidelity of FT, so the
# experiment's quality gate fails there by design; its schema is still checked.
MAY_FAIL_WHEN_TINY = {"experiment-3q"}


class SelfTestError(AssertionError):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestError(message)


def run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, str(cwd / "bench" / "run.py")] + args
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    done = run(["--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace), "--tiny"])
    if done.returncode != 0:
        raise SelfTestError(f"{workload}: exit {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def check_schema(result: dict, declared: list[dict], label: str, must_pass: bool) -> None:
    require(set(result) == RESULT_KEYS, f"{label}: result keys {sorted(result)}")
    require(isinstance(result["correct"], bool), f"{label}: correct is not a boolean")
    require(result["correct"] or not must_pass, f"{label}: not correct")
    for key in ("attempted", "failed"):
        require(isinstance(result[key], int), f"{label}: {key} is not a whole number")
    require(1 <= result["attempted"], f"{label}: nothing attempted")
    require(0 <= result["failed"] <= result["attempted"], f"{label}: failed out of range")
    require(result["correct"] == (result["failed"] == 0), f"{label}: correct != (failed == 0)")
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    require(
        set(metrics) == set(units),
        f"{label}: metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}",
    )
    for name, metric in metrics.items():
        require(set(metric) == {"value", "unit"}, f"{label}: {name} keys")
        require(metric["unit"] == units[name], f"{label}: {name} unit {metric['unit']}")
        value = metric["value"]
        require(
            isinstance(value, (int, float)) and math.isfinite(value),
            f"{label}: {name} = {value!r}",
        )


def exact_part(record: dict, result: dict) -> dict:
    errors = {k: v for k, v in result["metrics"].items() if k.startswith("avg_error.")}
    return {
        "counts": record["counts"],
        "quality": record["quality"],
        "avg_error": errors,
        "digest": record["dataset_digest"],
    }


def check_no_sources() -> None:
    """Only BENCHMARK.json and bench/: run.py must fail without a result."""
    bare = BENCH_DIR / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "bench").mkdir(parents=True)
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in BENCH_DIR.glob("*.py"):
            shutil.copy2(path, bare / "bench" / path.name)
        done = run(["--workload", "dataset-5q", "--seed", "1", "--seconds", "1",
                    "--trace", "0"], cwd=bare)
        require(done.returncode != 0, "run.py succeeded without the ionread sources")
        require('"metrics"' not in done.stdout, "run.py printed a result without sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        must_pass = workload not in MAY_FAIL_WHEN_TINY
        record, result = result_of(workload, 1, 0)
        check_schema(result, spec["end_to_end"], f"{workload} trace 0", must_pass)
        _, traced = result_of(workload, 1, 1)
        check_schema(traced, spec["per_layer"], f"{workload} trace 1", must_pass)
        again = exact_part(*result_of(workload, 1, 0))
        require(exact_part(record, result) == again, f"{workload}: seed 1 did not repeat")
        other = exact_part(*result_of(workload, 2, 0))
        require(other["digest"] != again["digest"], f"{workload}: seed 2 gave the same data")
        print(f"ok {workload}")
    check_no_sources()
    print("ok missing sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
