#!/usr/bin/env python3
"""legpade benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src and
nowhere else. The seed picks only parameters from fixed ranges (k, Q/M,
grid jitter, CLI parameter grid points); children receive only the
generated inputs. Every workload runs in fresh child interpreters with
OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1, one at a time (closed loop, one
client). Every output is checked against an independent oracle
(oracles.py); failures are counted, never fatal.

--trace 0 prints the end-to-end metrics; --trace 1 makes the traced run
(tracer.py) and prints the per-layer metrics. The last line of stdout is
the JSON result; earlier lines repeat every metric by name and unit with
the environment record. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import gzip
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
from functools import partial
from pathlib import Path
from time import perf_counter

import numpy as np

import oracles
import tracer

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

SETUP_REPEATS = 7  # set-up samples per run, at least; setup_s is their median
IMPORT_REPEATS = 3  # importtime runs per traced run
WARM_SLICE_S = 3.0  # warm closed loop per child, in whole passes
CHILD_TIMEOUT_S = 150.0
THETA_MIN = 0.05  # the CLI's default sweep is [0.05, pi] in 400 steps
SWEEP = np.linspace(THETA_MIN, math.pi, 400)
K_RANGE = (0.5, 2.0)
Q_RANGE = (1e-4, 0.99)
CLI_K = (0.5, 1.0, 2.0)  # grid points inside K_RANGE with recorded reference CSVs
CLI_Q = (1e-4, 0.5, 0.99)  # grid points inside Q_RANGE with recorded reference CSVs
CLI_PASSES = 8
LADDER = (5, 10, 20, 30, 40)
DENSE_L = 10
DENSE_ANGLES = 4000
DENSE_CHUNK = 500
PW_N = 20
PW_PAIRS = 2
# fixed work of the traced run: passes over the workload's inputs, the first cold
TRACE_PASSES = {"cli-demos": 1, "degree-ladder": 3, "dense-eval": 2, "partial-waves": 1}
WORK_UNIT = {
    "cli-demos": "CLI calls",
    "degree-ladder": "constructs (constructs_per_s)",
    "dense-eval": "angle evaluations, evaluate + eval_partial_sum (evals_per_s)",
    "partial-waves": "phase shifts, 21 per op (phase_shifts_per_s)",
}

# the bounded end-to-end metrics, those of BENCHMARK.json
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB"}
# printed and recorded on every run, but unbounded: their ten-seed spread in
# BASELINE.json and BASELINE_RERUN.json is above a third of the widest bound
# on the shared machine the benchmark was defined on (see README)
REPORTED = {"cold_pass_s": "s", "latency_p50_ms": "ms", "latency_tail_ms": "ms", "throughput_per_s": "1/s"}
PER_LAYER = [
    "import.total_s",
    "import.scipy_integrate_s",
    "import.interpreter_s",
    "pade.construct.calls",
    "pade.construct.self_s",
    "pade.build_denominator_system.s",
    "pade.solve_denominator.self_s",
    "pade.compute_numerator.s",
    "special.threej_zero_sq_float.calls",
    "special.threej_nonzero_ratio",
    "pade.evaluate.calls",
    "pade.evaluate.s",
    "series.eval_partial_sum.calls",
    "series.eval_partial_sum.s",
    "special.legendre_eval_all.calls",
    "scattering.coulomb_series.s",
    "scattering.quad.calls",
    "scattering.quad.s",
    "scattering.quad.integrand_evals",
    "scattering.rn_phase_shift.s",
    "scattering.born_phase_shift.s",
    "special.spherical_bessel_j.calls",
    "special.spherical_bessel_j.s",
    "special.spherical_bessel_y.calls",
    "special.spherical_bessel_y.s",
    "special.log_gamma_complex.calls",
    "cli.main.self_s",
    "scattering.oracle.s",
    "trace.overhead_s",
    "trace.overhead_ratio",
]


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


# ---------------------------------------------------------------- inputs

def make_inputs(workload: str, seed: int) -> dict:
    rng = np.random.default_rng(seed)

    def k():
        return float(rng.uniform(*K_RANGE))

    def families():
        return [
            {"name": "unit"},
            {"name": "coulomb", "k": k()},
            {"name": "invr2", "alpha": 1.0, "k": k()},
        ]

    if workload == "cli-demos":
        return {
            "passes": [
                {
                    "coulomb_k": float(rng.choice(CLI_K)),
                    "invr2_k": float(rng.choice(CLI_K)),
                    "rn_q": float(rng.choice(CLI_Q)),
                }
                for _ in range(CLI_PASSES)
            ]
        }
    if workload == "degree-ladder":
        return {"families": families(), "degrees": list(LADDER)}
    if workload == "dense-eval":
        base = np.linspace(THETA_MIN, math.pi, DENSE_ANGLES)
        step = base[1] - base[0]
        grid = np.clip(base + rng.uniform(-0.5 * step, 0.5 * step, base.size), THETA_MIN, math.pi)
        grid[0], grid[-1] = THETA_MIN, math.pi
        return {"families": families(), "L": DENSE_L, "grid": grid.tolist(), "chunk": DENSE_CHUNK}
    if workload == "partial-waves":
        return {
            "rn_q": rng.uniform(*Q_RANGE, PW_PAIRS).tolist(),
            "born_k": rng.uniform(*K_RANGE, PW_PAIRS).tolist(),
            "N": PW_N,
            "mass": 10.0,
            "eta": 1e-4,
            "mu": 1e-6,
            "alpha": 1.0,
        }
    raise HarnessError(f"unknown workload {workload!r}")


def cli_calls(inputs: dict) -> list[tuple[str, list[str]]]:
    """(demo, extra flags) of every call, one pass of four demos per entry."""
    calls = []
    for p in inputs["passes"]:
        calls += [
            ("unit", []),
            ("coulomb", ["--k", repr(p["coulomb_k"])]),
            ("invr2", ["--k", repr(p["invr2_k"])]),
            ("rn", ["--QoverM", repr(p["rn_q"])]),
        ]
    return calls


def reference_path(demo: str, extra: list[str]) -> Path:
    name = demo + (f"_{extra[0].lstrip('-')}{extra[1]}" if extra else "")
    return HERE / "reference" / f"{name}.csv.gz"


# ---------------------------------------------------------------- processes

def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINS)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(job: dict) -> tuple[float, dict]:
    """Start child.py on a job; returns (set-up seconds, its report)."""
    job_path = OUT / "job.json"
    job_path.write_text(json.dumps(job))
    with open(OUT / "child.stderr", "w+", encoding="utf-8") as err_file:
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(job_path)],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err_file,
            env=child_env(), cwd=ROOT, text=True,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            setup_s = perf_counter() - t0
            out = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        err_file.seek(0)
        err = err_file.read()
    if line.strip() != "READY" or proc.returncode != 0:
        raise HarnessError(f"{job['workload']} child failed (exit {proc.returncode}): {err[-2000:]}")
    return setup_s, json.loads(out.strip().splitlines()[-1])


def run_command(cmd: list[str], timeout: float = 60.0) -> tuple[float, int, str, str]:
    """(wall seconds, exit code, stdout, stderr) of one command."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(), cwd=ROOT, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        return perf_counter() - t0, -9, out, err + f"\ntimed out after {timeout} s"
    return perf_counter() - t0, proc.returncode, out, err


def cli_command(demo: str, extra: list[str], traced: bool) -> list[str]:
    launcher = [str(HERE / "child.py"), "--cli"] if traced else ["-m", "legpade.cli"]
    return [sys.executable, *launcher, "compare", "--demo", demo, *extra]


# ---------------------------------------------------------------- checks

def check_report(workload: str, inputs: dict, report: dict) -> dict:
    """Oracle verdicts for one child report.

    Returns attempted/failed counts (ops, plus set-up constructions), the
    first problems seen, and the worst relative error against the closed
    forms where the workload reports one.
    """
    fams = {f["name"]: f for f in inputs.get("families", [])}
    problems: dict[str, str | None] = {}
    max_rel = []

    for name, p in report["setup"].items():  # dense-eval constructions
        c, a, b = (oracles.unpack(p[n]) for n in "cab")
        L = inputs["L"]
        problems["setup:" + name] = oracles.series_mismatch(
            c, oracles.family_coefficients(fams[name], 2 * L + 2)
        ) or oracles.construction_mismatch(c, a, b, L, L)

    for key, p in report["results"].items():
        kind, _, arg = key.partition("/")
        out = {n: oracles.unpack(v) for n, v in p.items()}
        if workload == "degree-ladder":
            L = int(arg)
            problems[key] = oracles.series_mismatch(
                out["c"], oracles.family_coefficients(fams[kind], 2 * L + 2)
            ) or oracles.construction_mismatch(out["c"], out["a"], out["b"], L, L)
            exact = oracles.closed_form(fams[kind], SWEEP)
            if exact is not None:
                approx = oracles.rational(SWEEP, out["a"], out["b"])
                max_rel.append(float(np.max(np.abs(approx - exact) / np.abs(exact))))
        elif workload == "dense-eval":
            j = int(arg) * inputs["chunk"]
            theta = np.asarray(inputs["grid"][j:j + inputs["chunk"]])
            s = report["setup"][kind]
            c, a, b = (oracles.unpack(s[n]) for n in "cab")
            problems[key] = oracles.evaluation_mismatch(
                theta, out["pade"], a, b
            ) or oracles.partial_sum_mismatch(theta, out["partial"], c[: 2 * inputs["L"] + 1])
            exact = oracles.closed_form(fams[kind], theta)
            if exact is not None:
                max_rel.append(float(np.max(np.abs(out["pade"] - exact) / np.abs(exact))))
        elif workload == "partial-waves":
            c, a, b = out["c"], out["a"], out["b"]
            if kind == "rn":
                first = oracles.rn_mismatch(c, a, b)
            else:
                first = oracles.born_mismatch(c, inputs["alpha"], inputs["born_k"][int(arg)])
            problems[key] = first or oracles.construction_mismatch(c, a, b, 3, 3)

    failed = sum(1 for k, v in problems.items() if k.startswith("setup:") and v)
    first_errors = [f"{k}: {v}" for k, v in problems.items() if v]
    for key, _, _, error in report["log"]:
        if error or problems.get(key):
            failed += 1
            if error:
                first_errors.append(f"{key}: {error}")
    return {
        "attempted": len(report["log"]) + len(report["setup"]),
        "failed": failed,
        "errors": first_errors[:5],
        "max_rel_err": max(max_rel) if max_rel else None,
    }


def check_cli_call(demo: str, extra: list[str], code: int, out: str, err: str) -> str | None:
    if code != 0:
        return f"exit code {code}: {err.strip()[-300:]}"
    reference = gzip.decompress(reference_path(demo, extra).read_bytes()).decode()
    return oracles.csv_mismatch(out, reference)


# ---------------------------------------------------------------- metrics

def tail(values: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    for p in range(99, 0, -1):
        i = math.ceil(p * n / 100) - 1
        if n - 1 - i >= 10:
            return p, xs[i]
    return 100, xs[-1]


def latency_metrics(latencies_s: list[float]) -> dict:
    p, t = tail(latencies_s)
    return {
        "latency_p50_ms": statistics.median(latencies_s) * 1e3,
        "latency_tail_ms": t * 1e3,
        "_tail": f"p{p} of {len(latencies_s)} ops",
    }


def fastest(samples: list[tuple[str, float]]) -> dict:
    """Fastest time of each distinct op among (op, seconds) samples."""
    best: dict = {}
    for key, t in samples:
        best[key] = min(t, best.get(key, t))
    return best


def peak_rss_mb() -> float:
    """Largest resident set of any finished child, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def setup_only(workload: str, inputs: dict) -> float:
    """Set-up seconds of a fresh child that does nothing else."""
    job = {"workload": workload, "inputs": inputs, "src": str(SRC), "passes": 0, "seconds": 0, "trace": False}
    return run_child(job)[0]


def measure_cli(inputs: dict, seconds: float) -> tuple[dict, dict]:
    """Whole passes of the four demos for `seconds`, a set-up child before each pass."""
    calls = cli_calls(inputs)
    setups, latencies, samples, errors, failed = [], [], [], [], 0
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if len(latencies) % 4 == 0:
            # stop at the pass boundary nearest to `seconds`
            if (latencies and len(setups) >= SETUP_REPEATS
                    and elapsed + 0.5 * elapsed * 4 / len(latencies) >= seconds):
                break
            setups.append(setup_only("cli-demos", inputs))
        demo, extra = calls[len(latencies) % len(calls)]
        wall, code, out, err = run_command(cli_command(demo, extra, traced=False))
        latencies.append(wall)
        samples.append((demo, wall))
        problem = check_cli_call(demo, extra, code, out, err)
        if problem:
            failed += 1
            errors.append(f"{demo} {' '.join(extra)}: {problem}")
    best_pass_s = sum(fastest(samples).values())  # every call of a CLI user is cold
    metrics = {
        "_setups": setups,
        "cold_pass_s": best_pass_s,
        "throughput_per_s": 4 / best_pass_s,
        **latency_metrics(latencies),
    }
    return metrics, {"attempted": len(latencies), "failed": failed, "errors": errors[:5], "max_rel_err": None}


def work_units(workload: str, inputs: dict, n_ops: int) -> float:
    if workload == "dense-eval":
        return n_ops * inputs["chunk"]  # every chunk is full: DENSE_ANGLES % DENSE_CHUNK == 0
    if workload == "partial-waves":
        return n_ops * (inputs["N"] + 1)
    return n_ops


def merge_checks(checks: list[dict]) -> dict:
    rel = [c["max_rel_err"] for c in checks if c["max_rel_err"] is not None]
    return {
        "attempted": sum(c["attempted"] for c in checks),
        "failed": sum(c["failed"] for c in checks),
        "errors": [e for c in checks for e in c["errors"]][:5],
        "max_rel_err": max(rel) if rel else None,
    }


def measure_ops(workload: str, inputs: dict, seconds: float) -> tuple[dict, dict]:
    """Fresh children, one after another, until `seconds` have passed.

    Each measuring child is timed to READY (set-up), then makes one cold
    pass over the inputs and whole warm passes for WARM_SLICE_S. A set-up-only
    child runs before each, so that set-up is sampled across the whole run.
    The cold pass is the fastest over the children; the warm pass is the sum
    of each op's fastest warm time over all children.
    """
    setups, colds, warm, checks = [], [], [], []
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        # stop at the child boundary nearest to `seconds`
        if len(setups) >= SETUP_REPEATS and elapsed + 0.5 * elapsed / len(colds) >= seconds:
            break
        setups.append(setup_only(workload, inputs))
        job = {"workload": workload, "inputs": inputs, "src": str(SRC), "passes": 1,
               "seconds": WARM_SLICE_S, "trace": False}
        setup_s, report = run_child(job)
        setups.append(setup_s)
        colds.append(sum(ns for _, pass_no, ns, _ in report["log"] if pass_no == 0) * 1e-9)
        warm += [(key, ns * 1e-9) for key, pass_no, ns, _ in report["log"] if pass_no >= 1]
        checks.append(check_report(workload, inputs, report))
    best = fastest(warm)
    metrics = {
        "_setups": setups,
        "cold_pass_s": min(colds),
        "throughput_per_s": work_units(workload, inputs, len(best)) / sum(best.values()),
        **latency_metrics([t for _, t in warm]),
    }
    return metrics, merge_checks(checks)


def measure(workload: str, inputs: dict, seconds: float) -> tuple[dict, dict]:
    measure_workload = measure_cli if workload == "cli-demos" else partial(measure_ops, workload)
    metrics, check = measure_workload(inputs, seconds)
    metrics.update(setup_s=statistics.median(metrics["_setups"]), peak_rss_mb=peak_rss_mb())
    return metrics, check


# ---------------------------------------------------------------- traced run

def import_metrics() -> dict:
    """Medians of `python -X importtime -c "import legpade.cli"` and a bare start."""
    totals, integrate = [], []
    for _ in range(IMPORT_REPEATS):
        _, code, _, err = run_command([sys.executable, "-X", "importtime", "-c", "import legpade.cli"])
        if code != 0:
            raise HarnessError(f"importing legpade.cli failed: {err[-500:]}")
        top, sci = 0, 0
        for line in err.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|")
            if not cumulative.strip().isdigit():
                continue  # the column header
            if not name[1:].startswith(" "):
                top += int(cumulative)
            if name.strip() == "scipy.integrate":
                sci = int(cumulative)
        totals.append(top * 1e-6)
        integrate.append(sci * 1e-6)
    bare = [run_command([sys.executable, "-c", "pass"])[0] for _ in range(IMPORT_REPEATS + 2)]
    return {
        "import.total_s": statistics.median(totals),
        "import.scipy_integrate_s": statistics.median(integrate),
        "import.interpreter_s": statistics.median(bare),
    }


def traced_cli(inputs: dict) -> tuple[dict, dict, float, float]:
    """One pass of the four demos, each call made untraced and then traced."""
    calls = cli_calls(inputs)[:4]
    trace = {"spans": [], "counts": {}, "times_ns": {}}
    walls = {True: 0.0, False: 0.0}
    failed, errors = 0, []
    for demo, extra in calls:
        for traced in (False, True):
            wall, code, out, err = run_command(cli_command(demo, extra, traced))
            walls[traced] += wall
            if traced:
                err, _, dump = err.rpartition(tracer.TRACE_MARK)
                if not dump:
                    raise HarnessError(f"traced CLI call wrote no trace: {err[-500:]}")
                dump = json.loads(dump)
                trace["spans"].append(dump["spans"])
                for field in ("counts", "times_ns"):
                    for k, v in dump[field].items():
                        trace[field][k] = trace[field].get(k, 0) + v
            problem = check_cli_call(demo, extra, code, out, err)
            if problem:
                failed += 1
                errors.append(f"{demo}: {problem}")
    check = {"attempted": 2 * len(calls), "failed": failed, "errors": errors[:5], "max_rel_err": None}
    return trace, check, walls[True], walls[False]


def traced_run(workload: str, inputs: dict) -> tuple[dict, dict, dict]:
    metrics = import_metrics()
    if workload == "cli-demos":
        trace, check, traced_s, plain_s = traced_cli(inputs)
    else:
        runs = {}
        for traced in (False, True):
            job = {"workload": workload, "inputs": inputs, "src": str(SRC),
                   "passes": TRACE_PASSES[workload], "seconds": 0, "trace": traced}
            runs[traced] = run_child(job)[1]
        trace = runs[True]["trace"]
        check = merge_checks([check_report(workload, inputs, r) for r in runs.values()])
        traced_s, plain_s = runs[True]["wall_ns"] * 1e-9, runs[False]["wall_ns"] * 1e-9
    layers = tracer.layer_totals(trace)
    for name in PER_LAYER:
        if name in metrics or name.startswith("trace."):
            continue
        if name == "special.threej_nonzero_ratio":
            calls = layers.get("special.threej_zero_sq_float", {}).get("calls", 0)
            nonzero = layers.get("special.threej_zero_sq_float.nonzero", {}).get("calls", 0)
            metrics[name] = nonzero / calls if calls else 0.0
            continue
        layer, _, field = name.rpartition(".")
        row = layers.get(layer, {"calls": 0, "ns": 0, "self_ns": 0})
        if field == "s":
            metrics[name] = row["ns"] * 1e-9
        elif field == "self_s":
            metrics[name] = row["self_ns"] * 1e-9
        elif field == "calls":
            metrics[name] = row["calls"]
        else:  # a counter of its own, such as scattering.quad.integrand_evals
            metrics[name] = layers.get(name, {}).get("calls", 0)
    metrics["trace.overhead_s"] = traced_s - plain_s
    metrics["trace.overhead_ratio"] = traced_s / plain_s - 1.0
    return metrics, check, trace


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------- record

def environment(seed: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        _, code, out, _ = run_command(["git", "-C", str(ROOT), "rev-parse", "HEAD"], timeout=10)
        sha = out.strip() if code == 0 else None
    digest = hashlib.sha256()
    for path in sorted((SRC / "legpade").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "pins": PINS,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["cli-demos", "degree-ladder", "dense-eval", "partial-waves"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "legpade" / "__init__.py").is_file():
        print(f"perfbench: no legpade sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)  # the build: byte-code once, before any timing
    OUT.mkdir(exist_ok=True)
    inputs = make_inputs(args.workload, args.seed)
    try:
        if args.trace:
            values, check, trace = traced_run(args.workload, inputs)
            (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(trace))
            metrics = {n: {"value": values[n], "unit": layer_unit(n)} for n in PER_LAYER}
        else:
            values, check = measure(args.workload, inputs, args.seconds)
            metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END.items()}
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    env = environment(args.seed)
    print(f"workload {args.workload}, seed {args.seed}, {'traced' if args.trace else 'untraced'}; "
          f"closed loop, 1 client; work unit: {WORK_UNIT[args.workload]}")
    print("env " + json.dumps(env, sort_keys=True))
    shown = {**metrics, **{n: {"value": values[n], "unit": u} for n, u in REPORTED.items() if not args.trace}}
    for name, m in shown.items():
        note = f"  ({values['_tail']})" if name == "latency_tail_ms" else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{note}")
    print(f"fail_ratio = {check['failed']}/{check['attempted']} = {check['failed'] / check['attempted']:.6g}")
    if check["max_rel_err"] is not None:
        print(f"max_rel_err = {check['max_rel_err']:.6e} (unit and invr2 against their closed forms)")
    for line in check["errors"]:
        print(f"failure: {line}")
    result = {
        "correct": check["failed"] == 0,
        "attempted": check["attempted"],
        "failed": check["failed"],
        "metrics": metrics,
    }
    record = {**result, "workload": args.workload, "trace": args.trace, "env": env,
              "fail_ratio": check["failed"] / check["attempted"], "max_rel_err": check["max_rel_err"],
              "tail": values.get("_tail"), "setups_s": values.get("_setups"), "errors": check["errors"],
              "reported": {n: {"value": values[n], "unit": u} for n, u in REPORTED.items() if n in values}}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
