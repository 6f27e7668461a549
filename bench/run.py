"""ionread benchmark: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload experiment-3q --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

``--trace 0`` prints the end-to-end metrics and ``--trace 1`` the per-layer
metrics of BENCHMARK.json.  ``--workload all`` runs every workload in a fresh
process, one after another, and prints their end-to-end metrics.  The last
line of a single-workload run is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
machine, the seeds, sample counts, quality with standard errors and the
counts that repeat exactly.

A timed operation is one experiment (experiment-3q), one dataset round
(dataset-5q) or one shot read out by FT, AT, TNN+ and RNN (readout-3q).
readout-3q is not listed in BENCHMARK.json: on a shared two-CPU host its
per-shot latency moved with co-tenant load by more than any allowed bound
(p99 medians of two ten-seed sets 2.0 and 2.7 ms).  It stays runnable for
per-model readout latency, which its record line reports.
Operations repeat until ``--seconds`` have been measured.  Set-up is done
three times, and so is importing ionread (here and in two fresh
interpreters); ``setup_s`` is the median import plus the median set-up.  The
garbage collector is frozen after set-up so that collections do not rescan
the inputs during timed operations.  In a traced run half the time is
measured untraced, to give the tracing overhead.
"""
import argparse
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("experiment-3q", "dataset-5q", "readout-3q")
SETUP_REPEATS = 3
IMPORT_WORKLOADS = (
    "import time; t = time.perf_counter(); import workloads; print(time.perf_counter() - t)"
)
BLAS_THREADS = 1
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = {
    "setup_s": "s",
    "shots_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "avg_error.FT": "ratio",
    "avg_error.AT": "ratio",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="small inputs, for the benchmark's self-test"
    )
    return parser.parse_args(argv)


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for workload in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
        ] + (["--tiny"] if args.tiny else [])
        done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or len(lines) < 2:
            print(f"{workload}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        print(describe(json.loads(lines[-2])["record"], result))
        status |= 0 if result["correct"] else 1
    return status


def describe(record: dict, result: dict) -> str:
    """Human-readable summary of one workload's result and record."""
    lines = [
        f"{record['workload']} seed {record['seed']}: correct={result['correct']}, "
        f"failed/attempted {result['failed']}/{result['attempted']}, "
        f"{record['latency_samples']} timed samples"
    ]
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:<48} {metric['value']:>16.6f} {metric['unit']}")
    for name, quality in record["quality"].items():
        lines.append(
            f"  avg_error {name:<5} {quality['avg_error']:.5f} +- {quality['stderr']:.5f}"
        )
    for name, latency in record.get("readout_latency_us", {}).items():
        lines.append(
            f"  readout {name:<5} p50 {latency['p50']:.1f} us, p99 {latency['p99']:.1f} us"
            f" over {latency['samples']} shots"
        )
    for name, value in {**record["counts"], **record["rates"]}.items():
        lines.append(f"  {name} {value:g}")
    lines += [f"  failure: {failure}" for failure in record["failures"]]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Machine record

def machine_record() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = {}
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_VARIABLES},
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            if target.is_file():
                return target.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


# ---------------------------------------------------------------------------
# Measurement

def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    return percentile(values, 50.0)


def make_workload(name: str, seed: int, tiny: bool, work_dir: Path):
    import workloads as w

    if name == "experiment-3q":
        size = w.ExperimentSize(samples_per_label=60, epochs=2) if tiny else w.ExperimentSize()
        return w.Experiment(seed, size, work_dir)
    if name == "dataset-5q":
        size = w.DatasetSize(num_ions=3, samples_per_label=30) if tiny else w.DatasetSize()
        return w.DatasetPipeline(seed, size, work_dir)
    size = w.ReadoutSize(samples_per_label=60, epochs=1) if tiny else w.ReadoutSize()
    return w.Readout(seed, size, work_dir)


class Phase:
    """Timed operations of one kind (untraced or traced)."""

    def __init__(self) -> None:
        self.walls: list[float] = []
        self.shots = 0
        self.failed = 0
        self.failures: list[str] = []
        self.results = []

    def run(self, workload, seconds: float, min_ops: int = 1) -> None:
        began = time.perf_counter()
        while len(self.walls) < min_ops or time.perf_counter() - began < seconds:
            started = time.perf_counter()
            try:
                result = workload.run()
            except Exception as exc:  # a failed operation is counted, not fatal
                self.walls.append(time.perf_counter() - started)
                self.failed += 1
                self.failures.append(f"{type(exc).__name__}: {exc}")
                continue
            self.walls.append(time.perf_counter() - started)
            self.shots += result.shots
            if result.check is not None:
                result.failures += result.check()
            if result.failures:
                self.failed += 1
                self.failures += result.failures
            if result.quality or result.counts:
                self.results.append(result)


def consistency_failures(results) -> list[str]:
    """Repeated operations on the same inputs must give the same quality."""
    qualities = {json.dumps(r.quality, sort_keys=True) for r in results}
    return [] if len(qualities) <= 1 else ["quality differs between repeated operations"]


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (ROOT / "src" / "ionread" / "__init__.py").is_file():
        print(f"ionread sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for name in BLAS_VARIABLES:
        os.environ[name] = str(BLAS_THREADS)
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    started = time.perf_counter()
    import workloads  # imports numpy, scipy and every ionread module

    import_s = [time.perf_counter() - started] + fresh_import_seconds(SETUP_REPEATS - 1)

    out_dir = BENCH_DIR / "out"
    work_dir = out_dir / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, import_s, work_dir, out_dir, workloads)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def fresh_import_seconds(times: int) -> list[float]:
    """Import time of the workloads module in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path[:2]))
    out = []
    for _ in range(times):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_WORKLOADS], env=env, cwd=ROOT,
            capture_output=True, text=True, check=True,
        )
        out.append(float(done.stdout))
    return out


def measure(args, import_s: list[float], work_dir: Path, out_dir: Path, workloads) -> int:
    setups = []
    workload = None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
        started = time.perf_counter()
        workload = make_workload(args.workload, args.seed, args.tiny, work_dir)
        setups.append(time.perf_counter() - started)
    setup_s = median(import_s) + median(setups)
    # Set-up data stays alive for the whole run; freezing it keeps the
    # garbage collector from rescanning it in the middle of timed operations.
    gc.collect()
    gc.freeze()

    is_readout = args.workload == "readout-3q"
    plain = Phase()
    traced = Phase()
    tracer = None
    if args.trace:
        import layers
        from tracer import Tracer

        plain.run(workload, args.seconds / 2)
        tracer = Tracer()
        layers.instrument(tracer)
        try:
            traced.run(workload, args.seconds / 2)
        finally:
            tracer.uninstall()
    else:
        min_ops = len(workload.stream) if is_readout else 1
        plain.run(workload, args.seconds, min_ops)

    phases = [plain, traced] if args.trace else [plain]
    results = plain.results + traced.results
    failures = plain.failures + traced.failures + consistency_failures(results)
    failed = sum(p.failed for p in phases)
    attempted = sum(len(p.walls) for p in phases)
    first = results[0] if results else workloads.OpResult(0)
    if is_readout:
        first = workload.verify()
        failed += len(first.failures)
        failures += first.failures
    quality, counts, rates = first.quality, first.counts, first.rates
    if failed == 0 and failures:
        failed = 1  # a cross-operation check failed
    workload.close()

    # Per-model readout latency from untraced operations only.
    readout_latency = {
        name: {
            "p50": 1e6 * percentile(samples[: len(plain.walls)], 50),
            "p99": 1e6 * percentile(samples[: len(plain.walls)], 99),
            "samples": len(plain.walls),
        }
        for name, samples in getattr(workload, "latency_s", {}).items()
    }
    if args.trace:
        extra = {
            "trace_overhead_pct": 100.0 * (median(traced.walls) / median(plain.walls) - 1.0),
            "cli.train_samples_per_s": rates.get("train_samples_per_s", 0.0),
        }
        values = layers.layer_metrics(tracer, len(traced.walls), extra)
        units = {name: unit for name, (unit, _) in layers.metric_units().items()}
        tracer.save(str(out_dir / f"{args.workload}.spans.npz"))
        timed = traced.walls
    else:
        values = {
            "setup_s": setup_s,
            "shots_per_s": plain.shots / sum(plain.walls),
            "latency_p50_ms": 1e3 * percentile(plain.walls, 50),
            "latency_p99_ms": 1e3 * percentile(plain.walls, 99),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "avg_error.FT": quality.get("FT", (0.0, 0.0))[0],
            "avg_error.AT": quality.get("AT", (0.0, 0.0))[0],
        }
        units = END_TO_END
        timed = plain.walls

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "derived_seeds": workloads.derived_seeds(args.seed),
        "trace": args.trace,
        "tiny": args.tiny,
        "seconds": args.seconds,
        "machine": machine_record(),
        "latency_samples": len(timed),
        "setup_repeats_s": setups,
        "import_repeats_s": import_s,
        "quality": {k: {"avg_error": e, "stderr": se} for k, (e, se) in quality.items()},
        "counts": counts,
        "rates": rates,
        "readout_latency_us": readout_latency,
        "dataset_digest": getattr(workload, "digest", ""),
        "failures": list(dict.fromkeys(failures))[:20],
    }
    if args.trace:
        ops = len(traced.walls)
        spans = tracer.summary()
        by_module: dict[str, float] = {}
        for name, stats in spans.items():
            module = name.split(".")[0]
            by_module[module] = by_module.get(module, 0.0) + stats["self_s"] / ops
        top = sorted(spans.items(), key=lambda item: -item[1]["self_s"])[:10]
        record["traced_wall_s_per_op"] = sum(traced.walls) / ops
        record["traced_span_s_per_op"] = tracer.root_seconds() / ops
        record["self_s_per_op_by_module"] = by_module
        record["top_self_s_per_op"] = {name: stats["self_s"] / ops for name, stats in top}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(describe(record, result))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
