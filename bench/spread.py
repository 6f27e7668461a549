"""Run each workload over several seeds and report the spread of every metric.

    python3 bench/spread.py --seeds 1-10 [--workloads dataset-5q,readout-3q]
                            [--trace 0] [--out bench/out/spread.json]

Each run is a fresh ``run.py`` process with ``run_seconds`` from
BENCHMARK.json.  For every (workload, metric) it prints the median, the
quartiles and the interquartile distance as a share of the median (the
figure BENCHMARK.json's bounds are compared with), and writes the summary,
every value and the machine record to ``--out``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", help="comma separated; default all")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(BENCH_DIR / "out" / "spread.json"))
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report: dict = {
        "seeds": seed_list(args.seeds),
        "trace": args.trace,
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    status = 0
    for workload in names:
        values: dict[str, list[float]] = {}
        runs = []
        for seed in seed_list(args.seeds):
            command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                       "--trace", str(args.trace)]
            started = time.perf_counter()
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            wall = time.perf_counter() - started
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
                status = 1
                continue
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            record = json.loads(lines[-2])["record"]
            runs.append({"seed": seed, "wall_s": wall, "result": result, "record": record})
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect, {record['failures'][:3]}")
                status = 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary = {}
        for name, series in values.items():
            q1, q2, q3 = statistics.quantiles(series, n=4)
            share = (q3 - q1) / q2 if q2 else None
            summary[name] = {"median": q2, "q1": q1, "q3": q3, "iqr_share": share}
            if share is None:
                print(f"{workload:<14} {name:<40} median {q2:14.6g}")
                continue
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound:.2f}  {share / bound:5.2f} of it"
            print(f"{workload:<14} {name:<40} median {q2:14.6g}  iqr/median {share:7.4f}{flag}")
        walls = [r["wall_s"] for r in runs]
        print(f"{workload:<14} {len(runs)} runs, wall per run {statistics.median(walls):.1f} s "
              f"(max {max(walls):.1f} s)")
        report["workloads"][workload] = {
            "metrics": summary,
            "values": values,
            "seeds": [r["seed"] for r in runs],
            "incorrect_runs": sum(not r["result"]["correct"] for r in runs),
            "wall_s": walls,
        }
        if runs:
            report.setdefault("machine", runs[0]["record"]["machine"])
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(report, indent=1))
    return status


if __name__ == "__main__":
    sys.exit(main())
