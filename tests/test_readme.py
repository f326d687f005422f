"""The README's library tour and CLI examples run as written, and say what they return."""

import ast
import re
import shlex
from pathlib import Path

import numpy as np

from legpade.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading, language):
    """The first ```language block of the README section under ``heading``."""
    text = README.read_text(encoding="utf-8")
    return re.search(rf"^{re.escape(heading)}\n.*?^```{language}\n(.*?)^```", text, re.S | re.M).group(1)


def test_readme_examples_run(tmp_path, monkeypatch):
    # the tour's bare expressions are evaluated and kept under their source text
    tour = _block("## Library tour", "python")
    namespace, values = {}, {}
    for node in ast.parse(tour).body:
        code = ast.get_source_segment(tour, node)
        if isinstance(node, ast.Expr):
            values[code] = eval(code, namespace)
        else:
            exec(code, namespace)
    assert abs(values["evaluate(approx, np.pi)"] - 0.5) < 1e-4
    assert values["eval_partial_sum(unit_series(6), np.pi)"] == 1
    assert values["exact_half_csc(np.pi)"] == 0.5
    grid = ["evaluate(approx, thetas)", "eval_partial_sum(unit_series(6), thetas)", "exact_half_csc(thetas)"]
    assert [np.shape(values[code]) for code in grid] == [(400,)] * 3
    assert len(values) == 6

    monkeypatch.chdir(tmp_path)
    (tmp_path / "my_series.csv").write_text("l,re,im\n0,1.0,0.0\n1,0.5,0.0\n2,0.25,0.0\n")
    commands = [shlex.split(line) for line in _block("## CLI", "bash").splitlines()]
    assert len(commands) == 4 and all(command[0] == "legpade" for command in commands)
    assert [main(command[1:]) for command in commands] == [0] * 4
