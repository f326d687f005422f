"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest -q perfbench/tests/check_perfbench.py
"""

import gzip
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


@pytest.fixture(scope="module", autouse=True)
def out_dir():
    run.OUT.mkdir(exist_ok=True)


def small_job(workload, trace):
    inputs = run.make_inputs(workload, seed=7)
    if workload == "degree-ladder":
        inputs["degrees"] = [5, 10]
    if workload == "partial-waves":
        inputs.update(rn_q=inputs["rn_q"][:1], born_k=inputs["born_k"][:1], N=6)
    if workload == "dense-eval":
        inputs.update(grid=inputs["grid"][:40], chunk=20)
    return {"workload": workload, "inputs": inputs, "src": str(run.SRC),
            "passes": 2, "seconds": 0, "trace": trace}


def counters(report):
    return {name: row["calls"] for name, row in tracer.layer_totals(report["trace"]).items()}


@pytest.mark.parametrize("workload", ["degree-ladder", "dense-eval", "partial-waves"])
def test_exact_counters_repeat_across_traced_runs(workload):
    first = counters(run.run_child(small_job(workload, True))[1])
    second = counters(run.run_child(small_job(workload, True))[1])
    assert first == second
    assert first["pade.construct" if workload != "dense-eval" else "pade.evaluate"] > 0
    if workload == "partial-waves":
        assert first["scattering.quad.integrand_evals"] > 0


PROBE = """
import json, sys
sys.path.insert(0, {here!r})
import child, tracer, importlib, contextlib, io
job = json.loads({job!r})
with contextlib.redirect_stdout(io.StringIO()):
    child.run(job)
wrapped = [m + "." + a for m, a, _, _ in tracer.BINDINGS
           if hasattr(getattr(importlib.import_module(m), a), "__wrapped__")]
print(json.dumps(wrapped))
"""


@pytest.mark.parametrize("trace", [False, True])
def test_untraced_runs_carry_no_wrappers(trace):
    job = small_job("degree-ladder", trace)
    code = PROBE.format(here=str(HERE), job=json.dumps(job))
    if trace:  # positive control: the probe does see wrappers once they are installed
        code = code.replace("child.run(job)", "child.run(job); tracer.Tracer().install()")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=run.child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    wrapped = json.loads(proc.stdout.strip().splitlines()[-1])
    assert (wrapped != []) is trace


def test_construction_oracle_rejects_a_perturbed_approximant():
    report = run.run_child(small_job("degree-ladder", False))[1]
    p = report["results"]["coulomb/10"]
    c, a, b = (oracles.unpack(p[n]) for n in "cab")
    assert oracles.construction_mismatch(c, a, b, 10, 10) is None
    bad_b = b.copy()
    bad_b[1] *= 1 + 1e-5
    assert oracles.construction_mismatch(c, a, bad_b, 10, 10)
    bad_a = a.copy()
    bad_a[0] += 1e-6 * np.max(np.abs(c))
    assert oracles.construction_mismatch(c, bad_a, b, 10, 10)


def test_csv_oracle_is_exact_on_layout_and_tolerant_on_last_digits():
    ref = gzip.decompress(run.reference_path("coulomb", ["--k", "1.0"]).read_bytes()).decode()
    assert oracles.csv_mismatch(ref, ref) is None
    lines = ref.split("\n")
    row = lines[5].split(",")
    row[3] = repr(float(row[3]) * (1 + 1e-15))
    assert oracles.csv_mismatch("\n".join(lines[:5] + [",".join(row)] + lines[6:]), ref) is None
    row[3] = repr(float(row[3]) * (1 + 1e-6))
    assert oracles.csv_mismatch("\n".join(lines[:5] + [",".join(row)] + lines[6:]), ref)
    assert oracles.csv_mismatch(ref.rstrip("\n"), ref)
    assert oracles.csv_mismatch(ref.replace("theta,", "angle,", 1), ref)
    row = lines[5].split(",")
    row[3] = ""
    assert oracles.csv_mismatch("\n".join(lines[:5] + [",".join(row)] + lines[6:]), ref)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(100))) == (90, 89)
    p, value = run.tail(list(range(22)))
    assert p == 54 and sum(v > value for v in range(22)) >= 10


def test_fastest_keeps_the_least_time_of_each_op():
    assert run.fastest([("a", 2.0), ("b", 1.0), ("a", 1.5), ("b", 3.0)]) == {"a": 1.5, "b": 1.0}


def test_inputs_depend_only_on_the_seed():
    for workload in ("cli-demos", "degree-ladder", "dense-eval", "partial-waves"):
        assert run.make_inputs(workload, 3) == run.make_inputs(workload, 3)
        assert run.make_inputs(workload, 3) != run.make_inputs(workload, 4)
