"""System-under-test side of the benchmark: one fresh interpreter per use.

Reads a job (a JSON file named on the command line), imports legpade,
builds the workload's inputs, prints ``READY`` (the parent times set-up up
to that line), then runs the workload's passes and prints one JSON object with per-op timings and the
first result of every distinct op. Later results of the same op must be
bit-identical to the first; a difference is reported as a failed op. The
parent checks the first results against its oracles.

``child.py --cli ARGS`` instead runs ``legpade.cli.main(ARGS)`` with tracing
installed and appends the trace to stderr; the traced run of the cli-demos
workload uses it in place of ``python -m legpade.cli``.
"""

from __future__ import annotations

import json
import os
import sys
from functools import partial
from time import perf_counter_ns

import numpy as np
from legpade import pade, scattering, series

from tracer import TRACE_MARK, Tracer


def _require_checkout_src(src):
    if not os.path.abspath(pade.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"legpade imported from {pade.__file__}, not from {src}")


def _generators(families):
    def make(fam):
        name = fam["name"]
        if name == "unit":
            return scattering.unit_series
        if name == "coulomb":
            return lambda n: scattering.coulomb_series(n, fam["k"])
        if name == "invr2":
            pot = scattering.PotentialSpec("inverse_r2", fam["alpha"])
            return lambda n: scattering.born_series(pot, n, fam["k"])
        raise ValueError(f"unknown family {name!r}")

    return {fam["name"]: make(fam) for fam in families}


def _construct(full, L, M):
    approx, _ = pade.construct(full, L, M)
    return {"c": full.coefficients, "a": approx.numerator, "b": approx.denominator}


def _evaluate_chunk(approx, partial_series, thetas):
    return {
        "pade": np.array([pade.evaluate(approx, t) for t in thetas]),
        "partial": np.array([series.eval_partial_sum(partial_series, t) for t in thetas]),
    }


def _rn_op(inp, q):
    params = scattering.RNParams(mass=inp["mass"], charge=q * inp["mass"], eta=inp["eta"], mu=inp["mu"])
    return _construct(scattering.rn_series(inp["N"], params), 3, 3)


def _born_op(inp, k):
    pot = scattering.PotentialSpec("inverse_r2", inp["alpha"])
    return _construct(scattering.born_series(pot, inp["N"], k, method="quadrature"), 3, 3)


def degree_ladder(inp):
    gens = _generators(inp["families"])
    ops = []
    for L in inp["degrees"]:
        for fam in inp["families"]:
            full = gens[fam["name"]](2 * L + 2)
            ops.append((f"{fam['name']}/{L}", partial(_construct, full, L, L)))
    return ops, {}


def dense_eval(inp):
    L, grid, size = inp["L"], inp["grid"], inp["chunk"]
    built = {}
    setup = {}
    for name, gen in _generators(inp["families"]).items():
        full = gen(2 * L + 2)
        approx, _ = pade.construct(full, L, L)
        built[name] = (approx, series.ComplexSeries(full.coefficients[: 2 * L + 1]))
        setup[name] = {"c": full.coefficients, "a": approx.numerator, "b": approx.denominator}
    grid = np.asarray(grid)
    ops = []
    for j in range(0, len(grid), size):
        for name, (approx, part) in built.items():
            op = partial(_evaluate_chunk, approx, part, grid[j:j + size])
            ops.append((f"{name}/{j // size}", op))
    return ops, setup


def partial_waves(inp):
    ops = []
    for i, (q, k) in enumerate(zip(inp["rn_q"], inp["born_k"])):
        ops += [(f"rn/{i}", partial(_rn_op, inp, q)), (f"born/{i}", partial(_born_op, inp, k))]
    return ops, {}


WORKLOADS = {"degree-ladder": degree_ladder, "dense-eval": dense_eval, "partial-waves": partial_waves}


def _same(x, y):
    return x.keys() == y.keys() and all(np.array_equal(x[n], y[n]) for n in x)


def _encode(payload):
    return {n: [v.real.tolist(), v.imag.tolist()] for n, v in payload.items()}


def run(job):
    if job["workload"] == "cli-demos":
        import legpade.cli  # noqa: F401  (set-up of a CLI call is its import)

        _require_checkout_src(job["src"])
        print("READY", flush=True)
        print("{}")
        return
    _require_checkout_src(job["src"])
    ops, setup = WORKLOADS[job["workload"]](job["inputs"])
    print("READY", flush=True)

    tracer = None
    if job["trace"]:
        tracer = Tracer()
        tracer.install()
    log, results = [], {}
    deadline = None
    pass_no = 0
    start = perf_counter_ns()
    while True:
        if pass_no >= job["passes"]:
            # after the fixed passes, whole passes until the deadline
            if deadline is None:
                deadline = perf_counter_ns() + int(job["seconds"] * 1e9)
            if perf_counter_ns() >= deadline:
                break
        for key, fn in ops:
            if tracer is not None:
                tracer.op = len(log)
            t0 = perf_counter_ns()
            try:
                out = fn()
                error = None
            except Exception as exc:  # every failure is counted, none aborts the run
                out, error = None, f"{type(exc).__name__}: {exc}"[:300]
            ns = perf_counter_ns() - t0
            if error is None:
                first = results.get(key)
                if first is None:
                    results[key] = out
                elif not _same(first, out):
                    error = "result differs from the first run of this op"
            log.append([key, pass_no, ns, error])
        pass_no += 1
    wall_ns = perf_counter_ns() - start
    report = {
        "log": log,
        "wall_ns": wall_ns,
        "setup": {n: _encode(p) for n, p in setup.items()},
        "results": {k: _encode(p) for k, p in results.items()},
    }
    if tracer is not None:
        tracer.uninstall()
        dump = tracer.dump()
        report["trace"] = {**dump, "spans": [dump["spans"]]}
    print(json.dumps(report))


def run_cli(argv):
    import legpade.cli
    tracer = Tracer()
    tracer.install()
    code = legpade.cli.main(argv)
    sys.stdout.flush()
    tracer.uninstall()
    sys.stderr.write(TRACE_MARK + json.dumps(tracer.dump()) + "\n")
    return code


if __name__ == "__main__":
    if sys.argv[1:2] == ["--cli"]:
        sys.exit(run_cli(sys.argv[2:]))
    with open(sys.argv[1], encoding="utf-8") as fh:
        run(json.load(fh))
