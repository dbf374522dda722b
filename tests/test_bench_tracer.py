"""The benchmark tracer still binds every stage that its metrics read.

``bench/tracer.py`` wraps the package's functions by name. A stage that a
refactor renamed or removed is skipped, and the metrics that read it go
missing from the benchmark's result line. This test installs the tracer on
the package in process and names any lost binding; the tracer module is
imported, never edited.
"""

import importlib
import os

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")

# Names the tracer still wraps that the package no longer defines; no
# per-layer metric reads either.
GONE = {"sharp._joint_polish", "sharp.sphere_max"}


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    return importlib.import_module("tracer")


def test_the_tracer_binds_every_stage_but_the_removed_ones(tracing):
    modules = {name: importlib.import_module(f"sharp_parabolic.{name}")
               for name in tracing.MODULES}
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, modules)
    finally:
        tracer.uninstall()
    assert set(tracer.missing) == GONE
    assert (tracing.layer_metrics([], {}, tracer.missing).keys()
            == tracing.layer_metrics([], {}).keys())
