#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload dense-eval --seeds 1-10 [--out FILE]

Run from the root of a checkout. For every workload given, runs
``perfbench/run.py`` once per seed, one run at a time, with the
``run_seconds`` of BENCHMARK.json, and prints for every end-to-end metric
the median, the quartiles and the interquartile range as a share of the
median (``statistics.quantiles(values, n=4)``), next to a third of the
metric's bound. ``--out`` writes the summary, with every run's environment
record, fail ratio and max_rel_err, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--out")
    args = parser.parse_args()
    bench = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for workload in args.workload:
        runs = []
        for seed in args.seeds:
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            record = json.loads(
                Path(f".perfbench_out/result-{workload}-seed{seed}-trace0.json").read_text()
            )
            runs.append(record)
            print(f"{workload} seed {seed}: correct={record['correct']} "
                  f"failed={record['failed']}/{record['attempted']}", flush=True)
        metrics = {}
        for r in runs:  # metrics printed but not bounded, such as latency_p50_ms
            r["metrics"].update(r.get("reported", {}))
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            metrics[name] = {
                "unit": runs[0]["metrics"][name]["unit"],
                "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median if median else None,
                "values": values,
            }
            limit = f"(bound/3 {bounds[name] / 3:.4f})" if name in bounds else "(not bounded)"
            print(f"  {name:18s} median {median:12.6g}  spread {metrics[name]['spread']:.4f}  {limit}")
        summary[workload] = {
            "metrics": metrics,
            "runs": [{k: r[k] for k in ("env", "correct", "attempted", "failed", "fail_ratio",
                                        "max_rel_err", "tail", "setups_s")} for r in runs],
        }
    if args.out:
        Path(args.out).write_text(json.dumps({"run_seconds": bench["run_seconds"], "workloads": summary},
                                             indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
