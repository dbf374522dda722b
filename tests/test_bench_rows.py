"""What the benchmark's rows compute, checked in process.

``bench/workloads.py`` writes the CLI configs that the benchmark runs and
``bench/reference.py`` holds their reference values; both are imported,
never edited. The sweep rows of sweep-tabulated and heat-threshold must stay
at one level of 31 nodes per piece, so that a change of the error estimate
leaves their values bit for bit. The solve-source rows must report an
``err_estimate`` that bounds their real error and stays below 1e-8 |u|.
"""

import csv
import importlib
import json
import os

import numpy as np
import pytest

from sharp_parabolic import sharp
from sharp_parabolic.cli import main

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)  # workloads imports its sibling reference
    return importlib.import_module("workloads"), importlib.import_module("reference")


def _rows(path):
    with open(path, newline="") as fh:
        fh.readline()  # the schema line
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("seed", [7, 41])
@pytest.mark.parametrize("name", ["sweep-tabulated", "heat-threshold"])
def test_benchmark_source_rows_take_one_level_of_31_nodes(tmp_path, monkeypatch, bench, name,
                                                           seed):
    levels = []
    tables = sharp._window_tables
    monkeypatch.setattr(sharp, "_window_tables", lambda cs, t, pp, gradient, nodes: (
        levels.append(nodes) or tables(cs, t, pp, gradient, nodes)))
    source_rows = 0
    for invocation in bench[0].WORKLOADS[name](seed, str(tmp_path)).invocations:
        if invocation.command != "sweep":
            continue
        assert main(invocation.argv()) == 0
        source_rows += sum(row["kind"] in ("N", "C_ell", "C") and row["convergent"] == "true"
                           for row in _rows(invocation.out))
    assert source_rows > 0 and levels == [31] * source_rows


@pytest.mark.parametrize("seed", [7, 41])
def test_solve_source_err_estimate_bounds_the_real_error(tmp_path, bench, seed):
    workloads, reference = bench
    for invocation in workloads.WORKLOADS["solve-source"](seed, str(tmp_path)).invocations:
        assert main(invocation.argv()) == 0
        with open(invocation.config) as fh:
            config = json.load(fh)
        coefs, request = config["coefficients"], config["request"]
        data, ell = request["data"], request.get("ell")
        windows = reference.WindowIntegrals.affine(
            coefs["A"]["value"], coefs["A"]["slope"], coefs["C"]["value"])
        for row in _rows(invocation.out):
            x = np.array([float(row["x_1"]), float(row["x_2"])])
            u = np.array([float(row["u_1"]), float(row["u_2"])])
            ref = reference.source_solution(
                windows, float(row["t"]), x, np.array(coefs["b"]["value"]),
                np.array(data["center"]), data["width"], np.array(data["amplitude"]),
                ell=None if ell is None else np.array(ell))
            estimate = float(row["err_estimate"])
            assert np.linalg.norm(u - ref) <= estimate <= 1e-8 * np.linalg.norm(u), row
