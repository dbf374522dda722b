"""Tests of the benchmark's own pieces: python3 -m pytest bench/tests -q"""

import math
import os
import sys
import types

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Frozen unit-heat values at n = 1, t = 1 from the package's acceptance tests.
HEAT_N2 = 0.6316187777460647
HEAT_C_INF = 1.1283791670955126


def test_heat_closed_form_matches_frozen_constants():
    assert reference.heat_source_constant(1, "N", 2.0, 1.0) == pytest.approx(HEAT_N2, rel=1e-14)
    assert reference.heat_source_constant(1, "C_ell", math.inf, 1.0) == pytest.approx(
        HEAT_C_INF, rel=1e-14)
    assert reference.heat_source_constant(2, "C_ell", 4.0, 1.0) == math.inf


@pytest.mark.parametrize("kind,p", [("N", 3.5), ("N", math.inf), ("C", 6.0), ("C", math.inf)])
def test_window_rule_reference_matches_heat_closed_form(kind, p):
    # A = I, C = 0 as tabulated samples: the Gauss-Jacobi path must agree
    # with the closed form (C is isotropic, so C_p equals C_{p,l}).
    times = np.linspace(0.0, 1.0, 3)
    wi = reference.WindowIntegrals.tabulated(times, np.stack([np.eye(2)] * 3),
                                             np.zeros((3, 2, 2)))
    got = reference.source_constant(wi, kind, p, 0.75)
    heat_kind = "N" if kind == "N" else "C_ell"
    assert got == pytest.approx(reference.heat_source_constant(2, heat_kind, p, 0.75), rel=1e-12)


def _tree_bytes(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as handle:
            out[name] = handle.read()
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_byte_deterministic(tmp_path, name):
    trees = []
    for label, seed in (("a", 7), ("b", 7), ("c", 8)):
        d = tmp_path / label
        d.mkdir()
        workloads.WORKLOADS[name](seed, str(d))
        trees.append(_tree_bytes(str(d)))
    assert trees[0] == trees[1]
    if name != "verify-all":  # verify-all runs the package's fixed case list
        assert trees[0] != trees[2]


def _span(i, parent, start, end, name="x", thread=1):
    return tracer.Span(i, parent, thread, name, start, end)


def test_self_times_on_synthetic_tree():
    spans = [
        _span(1, None, 0.0, 10.0, "run"),
        _span(2, 1, 1.0, 4.0, "a"),
        _span(3, 1, 3.0, 6.0, "b", thread=2),  # overlaps a on another thread
        _span(4, 2, 2.0, 3.0, "a"),  # nested in a span of the same name
        _span(5, 1, 9.0, 12.0, "c"),  # runs past its parent's end
    ]
    st = tracer.self_times(spans)
    assert st[1] == pytest.approx(10.0 - 5.0 - 1.0)  # covered: [1, 6] and [9, 10]
    assert st[2] == pytest.approx(2.0)
    assert st[3] == pytest.approx(3.0)
    assert st[4] == pytest.approx(1.0)
    assert tracer.outermost_time(spans, {"a"}) == pytest.approx(3.0)
    assert tracer.self_time_by_name(spans)["a"] == pytest.approx(3.0)


def test_missing_private_stage_is_absent_not_an_error():
    calls = []

    def sharp_N(x):
        calls.append(x)
        return x + 1

    fake_sharp = types.SimpleNamespace(sharp_N=sharp_N)  # no private stages at all
    t = tracer.Tracer()
    tracer.install(t, {"sharp": fake_sharp})
    assert fake_sharp.sharp_N(1) == 2 and calls == [1]
    assert "sharp._tau_integral" in t.missing
    assert "coeffs.integrate_coefficients" in t.missing  # whole module absent
    metrics = tracer.layer_metrics(t.spans, t.totals(), t.missing)
    assert "sharp.tau_integral_s" not in metrics
    assert "sharp.node_table_s" not in metrics
    assert "coeffs.windows_computed" not in metrics
    assert metrics["trace.unattributed_frac"] == 0.0
    assert set(metrics) <= set(tracer.LAYER_METRICS)
    t.uninstall()
    assert fake_sharp.sharp_N is sharp_N


def test_times_are_scaled_by_the_calibration():
    plain = [{"run_s": r, "rss": 90.0, "errors": [1e-3, 1e-5]} for r in (4.0, 5.0, 9.0)]
    slow = run.CALIBRATION_REF_S * 2.0  # a host at half the reference speed
    metrics = run.end_to_end(plain, [0.6, 0.8, 0.7], [slow, slow * 0.9, slow * 1.1])
    assert metrics["run_s"] == (pytest.approx(2.5), "s")
    assert metrics["setup_s"] == (pytest.approx(0.35), "s")
    assert metrics["peak_rss_mib"] == (90.0, "MiB")
    assert metrics["max_rel_err"] == (pytest.approx(1e-3), "ratio")
    assert metrics["rel_err_gmean"] == (pytest.approx(1e-4), "ratio")
