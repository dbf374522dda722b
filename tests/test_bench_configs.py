"""Every config that the benchmark writes still loads.

``bench/workloads.py`` writes the CLI configs that the benchmark runs. A
config reader that rejected one of them would fail the benchmark run; this
test fails first. The benchmark module is imported, never edited.
"""

import importlib
import os

import pytest

from sharp_parabolic.config import load_config

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)  # workloads imports its sibling reference
    return importlib.import_module("workloads")


@pytest.mark.parametrize("seed", [7, 41])
@pytest.mark.parametrize("name", ["sweep-tabulated", "heat-threshold", "verify-all",
                                  "solve-source"])
def test_every_benchmark_config_loads(tmp_path, workloads, name, seed):
    workload = workloads.WORKLOADS[name](seed, str(tmp_path))
    assert workload.invocations
    for invocation in workload.invocations:
        cfg = load_config(invocation.config, command=invocation.command)
        assert cfg.request["command"] == invocation.command
