import copy
import csv
import io
import json
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import sharp_parabolic
from sharp_parabolic import cli, kernels, sharp
from sharp_parabolic.cli import main
from sharp_parabolic.config import load_config, parse_p
from sharp_parabolic.errors import ConfigError
from sharp_parabolic.solve import SolveSettings


def write_config(tmp_path, body, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body, indent=1))
    return str(path)


def base_config(command, request, n=1, m=1, T=1.0, out=None, **extra):
    body = {
        "problem": {"n": n, "m": m, "T": T},
        "coefficients": {
            "A": {"preset": "constant", "value": np.eye(n).tolist()},
            "b": {"preset": "constant", "value": [0.0] * n},
            "C": {"preset": "constant", "value": np.zeros((m, m)).tolist()},
        },
        "request": {"command": command, **request},
        "numerics": {"quad_tol": 1e-10, "grid_points": 257},
    }
    if out is not None:
        body["output"] = {"path": out, "format": "csv"}
    body.update(extra)
    return body


def read_rows(path):
    with open(path) as handle:
        lines = [line for line in handle if not line.startswith("#")]
    reader = csv.DictReader(lines)
    return list(reader)


def test_parse_p_tokens():
    assert parse_p("inf") == math.inf
    assert parse_p("2") == 2.0
    assert parse_p(3) == 3.0
    for token in ("two", None, [2.0], True, 10**400):
        with pytest.raises(ConfigError):
            parse_p(token)


def test_sharp_command_heat_constant(tmp_path):
    out = str(tmp_path / "out.csv")
    cfg = write_config(
        tmp_path,
        base_config(
            "sharp",
            {"kind": "K_ell", "p": ["inf"], "t": [1.0], "ell": [[1.0]]},
            out=out,
        ),
    )
    assert main(["sharp", "--config", cfg]) == 0
    rows = read_rows(out)
    assert len(rows) == 1
    assert float(rows[0]["value"]) == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-6)
    assert rows[0]["convergent"] == "true"


def test_sharp_command_divergent_row(tmp_path):
    out = str(tmp_path / "out.csv")
    cfg = write_config(
        tmp_path,
        base_config("sharp", {"kind": "N", "p": [1.2], "t": [1.0]}, out=out),
    )
    assert main(["sharp", "--config", cfg]) == 0
    rows = read_rows(out)
    assert rows[0]["value"] == "inf"
    assert rows[0]["convergent"] == "false"


def test_sweep_all_H_infinity_rows_are_one(tmp_path):
    out = str(tmp_path / "out.csv")
    cfg = write_config(
        tmp_path,
        base_config(
            "sweep",
            {"kinds": ["H"], "p": ["inf"], "t": [0.25, 0.5, 1.0]},
            out=out,
        ),
    )
    assert main(["sweep", "--config", cfg]) == 0
    rows = read_rows(out)
    assert len(rows) == 3
    for row in rows:
        assert float(row["value"]) == pytest.approx(1.0, rel=1e-12)


def test_csv_byte_identical_and_thread_invariant(tmp_path, monkeypatch):
    request = {
        "kinds": ["H", "K_ell", "N"],
        "p": ["inf", 2, 3],
        "t": [0.5, 1.0],
        "ell": [[1.0]],
    }
    out1 = str(tmp_path / "a.csv")
    out2 = str(tmp_path / "b.csv")
    out3 = str(tmp_path / "c.csv")
    cfg = write_config(tmp_path, base_config("sweep", request))
    assert main(["sweep", "--config", cfg, "--out", out1]) == 0
    assert main(["sweep", "--config", cfg, "--out", out2]) == 0
    monkeypatch.setenv("SHARP_PARABOLIC_THREADS", "two")  # no longer read
    assert main(["sweep", "--config", cfg, "--out", out3, "--threads", "3"]) == 0
    first = open(out1, "rb").read()
    assert first == open(out2, "rb").read()
    assert first == open(out3, "rb").read()
    assert b"\r" not in first


def _csv_bytes_at_threads(tmp_path, command, body, threads):
    """The CSV of ``command`` run with ``--threads threads``, which is accepted
    and ignored."""
    cfg = write_config(tmp_path, body, name=f"{command}.json")
    out = str(tmp_path / f"{command}_{threads}.csv")
    assert main([command, "--config", cfg, "--out", out, "--threads", str(threads)]) == 0
    with open(out, "rb") as handle:
        return handle.read()


def test_tabulated_sweep_and_verify_csvs_do_not_depend_on_threads(tmp_path):
    (tmp_path / "a.csv").write_text(
        "t,entry_11,entry_12,entry_22\n"
        "0,1.1,0.3,0.7\n0.5,0.9,0.1,0.6\n1,1.3,-0.2,0.8\n"
    )
    (tmp_path / "c.csv").write_text(
        "t,entry_11,entry_12,entry_21,entry_22\n"
        "0,0.2,0.6,-0.3,-0.1\n0.5,0.4,0.5,-0.05,-0.25\n1,0.2,0.6,-0.3,-0.1\n"
    )
    sweep = base_config("sweep", {"kinds": ["N", "C"], "p": ["inf", 3], "t": [0.5, 0.8]},
                        n=2, m=2)
    sweep["coefficients"]["A"] = {"preset": "tabulated", "path": "a.csv"}
    sweep["coefficients"]["C"] = {"preset": "tabulated", "path": "c.csv"}
    verify = base_config("verify", {"cases": "quick"})
    solve = base_config(
        "solve",
        {
            "problem": "nonhomogeneous",
            "data": {"type": "gaussian", "amplitude": [1.0, -0.5], "width": 0.7},
            "points": [[0.3, -0.2], [0.8, 0.4]],
            "t": [0.5, 1.0],
            "p": "inf",
            "ell": [0.6, 0.8],
        },
        n=2, m=2,
    )
    solve["coefficients"]["A"] = {
        "preset": "affine", "value": [[1.0, 0.2], [0.2, 0.7]],
        "slope": [[0.3, -0.1], [-0.1, 0.2]],
    }
    solve["numerics"].update(grid_points=33, sphere_seeds=8)
    solve_value = json.loads(json.dumps(solve))
    del solve_value["request"]["ell"]
    for command, body in (("sweep", sweep), ("verify", verify), ("solve", solve),
                          ("solve", solve_value)):
        single = _csv_bytes_at_threads(tmp_path, command, body, 1)
        assert single.count(b"\n") > 4
        assert _csv_bytes_at_threads(tmp_path, command, body, 3) == single


def test_map_tasks_runs_in_the_calling_thread_in_task_order():
    calls = []

    def record(task):
        calls.append((task, threading.get_ident()))
        return -task

    assert cli._map_tasks(record, range(5), 4) == [0, -1, -2, -3, -4]
    assert calls == [(task, threading.get_ident()) for task in range(5)]


def test_threads_flag_must_still_be_an_integer(tmp_path):
    body = base_config("kernel", {"points": [[0.0]], "t": [1.0]}, out=str(tmp_path / "k.csv"))
    with pytest.raises(SystemExit) as exc:
        main(["kernel", "--config", write_config(tmp_path, body), "--threads", "two"])
    assert exc.value.code == 2
    assert not (tmp_path / "k.csv").exists()


def test_kernel_command_peak_value(tmp_path):
    out = str(tmp_path / "k.csv")
    cfg = write_config(
        tmp_path,
        base_config("kernel", {"points": [[0.0], [1.0]], "t": [1.0]}, out=out),
    )
    assert main(["kernel", "--config", cfg]) == 0
    rows = read_rows(out)
    assert float(rows[0]["g_11"]) == pytest.approx(0.2820947917738781, abs=1e-12)
    assert rows[0]["tau"] == ""


def test_kernel_rows_match_single_points_at_any_thread_count(tmp_path):
    # rows are computed per (t, tau) over all points and keep their order
    (tmp_path / "a.csv").write_text(
        "t,entry_11,entry_12,entry_22\n"
        "0,1.1,0.3,0.7\n0.5,0.9,0.1,0.6\n1,1.3,-0.2,0.8\n"
    )
    points = [[0.3, -0.2], [0.8, 0.4], [-1.1, 0.05]]
    body = base_config("kernel", {"points": points, "t": [1.0, 0.5], "tau": [0.1, 0.37]},
                       n=2, m=2)
    body["coefficients"]["A"] = {"preset": "tabulated", "path": "a.csv"}
    body["coefficients"]["C"]["value"] = [[0.2, 0.6], [-0.3, -0.1]]
    single = _csv_bytes_at_threads(tmp_path, "kernel", body, 1)
    assert _csv_bytes_at_threads(tmp_path, "kernel", body, 3) == single
    cs = load_config(str(tmp_path / "kernel.json"), command="kernel").coefficient_set
    expected = []
    for x in points:
        for t in (1.0, 0.5):
            for tau in (0.1, 0.37):
                kv = kernels.eval_P(cs, np.array(x), t, tau)
                expected.append(x + [t, tau, kv.scalar_part] + list(kv.matrix.reshape(-1)))
    lines = single.decode().splitlines()[2:]
    assert lines == [",".join(cli.format_cell(v) for v in row) for row in expected]


@pytest.mark.parametrize("n, m", [(2, 2), (3, 1), (3, 3)])
def test_data_callables_equal_the_array_expressions_bitwise(n, m):
    rng = np.random.default_rng(10 * n + m)
    pts = rng.uniform(-3.0, 3.0, (17,) * n + (n,))
    amplitude, center, width = rng.uniform(-2.0, 2.0, m), rng.uniform(-0.5, 0.5, n), 0.7
    # the block as load_config checks it: float arrays and a float width
    gaussian = cli._data_callable({"type": "gaussian", "amplitude": amplitude,
                                   "width": width, "center": center}, n, m)
    d2 = np.sum((pts - center) ** 2, axis=-1)
    reference = np.exp(-d2 / (2.0 * width * width))[..., None] * amplitude
    np.testing.assert_array_equal(gaussian(pts), reference)
    value = rng.uniform(-2.0, 2.0, m)
    constant = cli._data_callable({"type": "constant", "value": value}, n, m)
    np.testing.assert_array_equal(constant(pts), np.broadcast_to(value, pts.shape[:-1] + (m,)))


def test_coeffs_command_constant_window(tmp_path):
    out = str(tmp_path / "c.csv")
    body = base_config("coeffs", {"windows": [[0.0, 2.0]]}, T=2.0, out=out)
    body["coefficients"]["A"]["value"] = [[1.5]]
    cfg = write_config(tmp_path, body)
    assert main(["coeffs", "--config", cfg]) == 0
    rows = read_rows(out)
    assert float(rows[0]["ia_11"]) == pytest.approx(3.0, rel=1e-12)


def test_solve_command_constant_data(tmp_path):
    out = str(tmp_path / "s.csv")
    cfg = write_config(
        tmp_path,
        base_config(
            "solve",
            {
                "problem": "homogeneous",
                "data": {"type": "constant", "value": [2.0], "radius": 14.0},
                "points": [[0.0]],
                "t": [1.0],
                "p": "inf",
            },
            out=out,
        ),
    )
    assert main(["solve", "--config", cfg]) == 0
    rows = read_rows(out)
    assert float(rows[0]["u_1"]) == pytest.approx(2.0, rel=1e-9)
    assert float(rows[0]["ratio"]) == pytest.approx(1.0, rel=1e-6)


def test_solve_command_nonhomogeneous_constant_source(tmp_path):
    out = str(tmp_path / "s.csv")
    cfg = write_config(
        tmp_path,
        base_config(
            "solve",
            {
                "problem": "nonhomogeneous",
                "data": {"type": "constant", "value": [1.5]},
                "points": [[0.0]],
                "t": [1.0],
                "p": "inf",
            },
            out=out,
        ),
    )
    assert main(["solve", "--config", cfg]) == 0
    rows = read_rows(out)
    assert float(rows[0]["u_1"]) == pytest.approx(1.5, rel=1e-5)
    assert float(rows[0]["ratio"]) <= 1.0 + 1e-6


def test_a_solve_warning_prints_once_as_a_cli_message(tmp_path, capsys):
    # a data radius of 6 does not cover the kernel's 8-sigma reach at t = 1:
    # each row warns, and stderr carries the message once, without a source path
    out = str(tmp_path / "s.csv")
    cfg = write_config(tmp_path, base_config("solve", {
        "problem": "homogeneous",
        "data": {"type": "gaussian", "amplitude": [1.0], "width": 5.0, "radius": 6.0},
        "points": [[0.0], [0.5]], "t": [1.0], "p": "inf"}, out=out))
    assert main(["solve", "--config", cfg]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: data grid does not cover the kernel's 8-sigma neighborhood; "
        "the convolution is truncated"]
    assert len(read_rows(out)) == 2


def test_solve_command_passes_the_sphere_seeds(tmp_path, monkeypatch):
    # and computes one constant per distinct t, shared by that t's rows
    requests = []
    evaluate = sharp.evaluate_sharp

    def capture(cs, request):
        requests.append(request)
        return evaluate(cs, request)

    monkeypatch.setattr(sharp, "evaluate_sharp", capture)
    out = str(tmp_path / "s.csv")
    body = base_config(
        "solve",
        {
            "problem": "nonhomogeneous",
            "data": {"type": "constant", "value": [1.5]},
            "points": [[0.0], [0.4], [-0.3]],
            "t": [0.5, 1.0, 0.5],
            "p": "inf",
        },
        out=out,
    )
    body["numerics"].update(sphere_seeds=5, grid_points=33)
    assert main(["solve", "--config", write_config(tmp_path, body)]) == 0
    seeds = sharp.SphereSettings(seeds_per_dim=5)
    assert [(r.t, r.sphere) for r in requests] == [(0.5, seeds), (1.0, seeds)]
    assert len(read_rows(out)) == 9


def _nonhomogeneous_solve(**request):
    return {
        "problem": "nonhomogeneous",
        "data": {"type": "constant", "value": [1.5]},
        "points": [[0.0]],
        "t": [1.0],
        "p": "inf",
        **request,
    }


def test_one_solve_row_samples_the_source_once_per_node(tmp_path, monkeypatch):
    # one pass of S - 1 nodes: the solution, its error estimate and the
    # data norm read the same samples
    calls = []
    data_callable = cli._data_callable

    def counting(*args):
        fn = data_callable(*args)

        def counted(pts):
            calls.append(pts.shape)
            return fn(pts)

        return counted

    monkeypatch.setattr(cli, "_data_callable", counting)
    body = base_config("solve", _nonhomogeneous_solve(), out=str(tmp_path / "s.csv"))
    assert main(["solve", "--config", write_config(tmp_path, body)]) == 0
    slices = SolveSettings().sigma_slices
    assert len(calls) == slices - 1


# a valid n = m = 2 solve request with one field of the wrong shape
_SOLVE_2D = {"data": {"type": "constant", "value": [1.0, 2.0]}, "points": [[0.0, 0.0]]}


@pytest.mark.parametrize(
    "command, request_body",
    [
        ("solve", dict(_nonhomogeneous_solve(**_SOLVE_2D), problem="homogeneous",
                       ell=[0.6, 0.8, 0.0])),
        ("solve", _nonhomogeneous_solve(**_SOLVE_2D, ell=[0.6, 0.8, 0.0])),
        ("solve", _nonhomogeneous_solve(**dict(_SOLVE_2D, points=[[0.0, 0.0, 0.0]]))),
        ("solve", _nonhomogeneous_solve(
            **dict(_SOLVE_2D, data={"type": "constant", "value": [1.0, 2.0, 3.0]}))),
        ("kernel", {"points": [[0.0, 0.0, 0.0]], "t": [1.0]}),
    ],
    ids=["homogeneous-ell", "nonhomogeneous-ell", "point", "source-value", "kernel-point"],
)
def test_wrong_shapes_exit_2(tmp_path, capsys, command, request_body):
    body = base_config(command, request_body, n=2, m=2, out=str(tmp_path / "o.csv"))
    assert main([command, "--config", write_config(tmp_path, body)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, request_body",
    [
        ("sharp", {"kind": "N", "p": [3.0], "t": 0.5}),
        ("kernel", {"points": [[0.0]], "t": [1.0], "tau": [0.2, "later"]}),
        ("solve", _nonhomogeneous_solve(
            data={"type": "gaussian", "amplitude": [1.0], "width": "wide"})),
        ("solve", _nonhomogeneous_solve(
            problem="homogeneous", data={"type": "constant", "value": [1.0], "radius": "big"})),
        *[("coeffs", {"windows": windows})
          for windows in ([[0.1]], [[0.1, 0.2, 0.3]], [["a", "b"]], [[None, 0.5]], 5)],
        ("sweep", {"kinds": ["K_ell"], "p": [3.0], "t": [0.5], "ell": [["a", 1]]}),
        ("sweep", {"kinds": ["K_ell"], "p": [3.0], "t": [0.5], "ell": 5}),
        ("sweep", {"kinds": ["H"], "p": 2, "t": [0.5]}),
        ("sweep", {"kinds": "HK", "p": [3.0], "t": [0.5]}),
        ("kernel", {"points": 5, "t": [1.0]}),
        ("verify", {"cases": "quick", "tolerance": "x"}),
    ],
    ids=["t", "tau", "width", "radius", "window-1", "window-3", "window-str", "window-null",
         "windows-scalar", "ell-str", "ell-scalar", "p-scalar", "kinds-str", "points-scalar",
         "tolerance-str"],
)
def test_malformed_numbers_exit_2(tmp_path, capsys, command, request_body):
    body = base_config(command, request_body, out=str(tmp_path / "o.csv"))
    assert main([command, "--config", write_config(tmp_path, body)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: request.")
    assert "Traceback" not in err


@pytest.mark.parametrize("seeds", [0, -3])
def test_nonpositive_sphere_seeds_exit_2(tmp_path, seeds):
    body = base_config("sharp", {"kind": "N", "p": [3.0], "t": [1.0]})
    body["numerics"]["sphere_seeds"] = seeds
    path = write_config(tmp_path, body)
    with pytest.raises(ConfigError, match="sphere_seeds"):
        load_config(path)
    assert main(["sharp", "--config", path]) == 2


@pytest.mark.parametrize(
    "field, value",
    [("quad_tol", math.nan), ("sphere_seeds", 2.7), ("sphere_seeds", True),
     ("truncation_sigmas", math.nan), ("grid_points", 33.5), ("quad_tol", "1e-10")],
    ids=["quad_tol=nan", "seeds=2.7", "seeds=true", "sigmas=nan", "grid=33.5", "tol=str"],
)
def test_numerics_that_would_change_the_run_silently_exit_2(tmp_path, capsys, field, value):
    # NaN passed every bound (a NaN quad_tol ran every doubling to the cap),
    # 2.7 seeds became 2 and true became 1
    body = base_config("sharp", {"kind": "N", "p": [3.0], "t": [1.0]})
    body["numerics"][field] = value
    path = write_config(tmp_path, body)
    with pytest.raises(ConfigError, match=f"numerics.{field}"):
        load_config(path)
    assert main(["sharp", "--config", path]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [("n", 2.7), ("n", True), ("m", 1.5), ("m", False), ("T", math.inf), ("T", "1")],
    ids=["n=2.7", "n=true", "m=1.5", "m=false", "T=inf", "T=str"],
)
def test_problem_sizes_that_would_change_the_run_silently_exit_2(tmp_path, capsys, field, value):
    # int() ran n = 2.7 as n = 2 and n = true as n = 1; float() let T = Infinity in
    body = base_config("sharp", {"kind": "H", "p": [2.0], "t": [0.5]})
    body["problem"][field] = value
    path = write_config(tmp_path, body)
    with pytest.raises(ConfigError, match=f"problem.{field}"):
        load_config(path)
    assert main(["sharp", "--config", path]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sharp", "verify", "sweep", "kernel", "coeffs", "solve"])
@pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf"])
def test_a_tol_that_is_not_finite_and_positive_exits_2(tmp_path, capsys, command, tol):
    # --tol nan ran every doubling of an N row to the cap (sharp) and failed
    # every check with exit 1 (verify); it now meets numerics.quad_tol's rule
    body = base_config(command, {"kind": "N", "p": [3.0], "t": [1.0]})
    assert main([command, "--config", write_config(tmp_path, body), "--tol", tol]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: --tol") and "Traceback" not in err


def _tabulated_A(body):
    body["coefficients"]["A"] = {"preset": "tabulated", "path": "a.csv"}


def _affine_b(body):
    body["coefficients"]["b"] = {"preset": "affine", "value": [0.0], "slope": [0.0]}


def _homogeneous_gaussian(body):
    body["request"].update(problem="homogeneous", data={
        "type": "gaussian", "amplitude": [1.0], "width": 0.5, "center": [0.0], "radius": 6.0})


# a valid n = m = 1 request per command, whose every field is fuzzed
_VALID_REQUESTS = {
    "sharp": {"kind": "K_ell", "p": [2.0], "t": [1.0], "ell": [[1.0]]},
    "sweep": {"kinds": ["H", "K_ell"], "p": [2.0], "t": [1.0], "ell": [[1.0]]},
    "kernel": {"points": [[0.0]], "t": [1.0], "tau": [0.5]},
    "coeffs": {"windows": [[0.0, 1.0]]},
    "solve": _nonhomogeneous_solve(ell=[1.0]),
    "verify": {"cases": "quick", "tolerance": 0.5},
}
# (command, dotted path of the fuzzed field, setup of the config around it)
_FUZZED_FIELDS = [
    ("solve", "coefficients.A", None),
    ("solve", "coefficients.A.value", None),
    ("solve", "coefficients.A.path", _tabulated_A),
    ("solve", "coefficients.b.value", _affine_b),
    ("solve", "coefficients.b.slope", _affine_b),
    ("solve", "coefficients.C.value", None),
    ("solve", "output", None),
    ("solve", "output.path", None),
    *[("sharp", f"problem.{key}", None) for key in ("n", "m", "T")],
    *[("sharp", f"numerics.{key}", None)
      for key in ("quad_tol", "sphere_seeds", "truncation_sigmas", "grid_points")],
    *[(command, f"request.{key}", None)
      for command, request in _VALID_REQUESTS.items() for key in request],
    ("solve", "request.data.type", None),
    ("solve", "request.data.value", None),
    *[("solve", f"request.data.{key}", _homogeneous_gaussian)
      for key in ("amplitude", "width", "center", "radius")],
]
_JUNK = [5, "x", True, [], {}, None, [math.nan], [[math.nan]], [[math.inf]], [1.0, 2.0],
         [True], [[True]], "1", ["0.5"], 10**400]
# junk that is valid for its field (outcome None; None itself is an absent
# optional field, "x" and "1" are output paths), that another field's check
# rejects, or that is well formed and rejected by the library rule it meets:
# an error that starts with the outcome instead of the field
_OTHER_OUTCOMES = {
    (command, field, repr(junk)): outcome
    for command, field, junks, outcome in [
        ("solve", "output", [{}], None),
        ("solve", "output.path", [None, "x", "1"], None),
        ("sharp", "problem.T", [5], None),
        ("sharp", "numerics.quad_tol", [5], None),
        ("sharp", "numerics.sphere_seeds", [5], None),
        ("sharp", "request.p", [[1.0, 2.0]], None),
        ("sweep", "request.p", [[1.0, 2.0]], None),
        ("kernel", "request.tau", [None], None),
        ("solve", "request.p", [5, "1"], None),
        ("solve", "request.ell", [None], None),
        ("solve", "request.data.width", [5], None),
        ("solve", "request.data.radius", [5, None], None),
        ("verify", "request.tolerance", [5, None], None),
        ("solve", "coefficients.A.path", ["x", "1"], "coefficients.A: sample file"),
        ("sharp", "problem.n", [5], "coefficients.A.value"),
        ("sharp", "problem.m", [5], "coefficients.C.value"),
        ("sharp", "request.kind", ["x", "1"], "unknown sharp-coefficient kind"),
        ("sweep", "request.kinds", [["0.5"]], "unknown sharp-coefficient kind"),
        ("sharp", "request.p", [[math.nan], ["0.5"]], "exponent p="),
        ("sweep", "request.p", [[math.nan], ["0.5"]], "exponent p="),
        ("sharp", "request.ell", [None], "kind K_ell requires a direction"),
        ("sweep", "request.ell", [None], "kind K_ell requires a direction"),
        ("sharp", "request.t", [[1.0, 2.0]], "t=2 outside"),
        ("sweep", "request.t", [[1.0, 2.0]], "t=2 outside"),
        ("solve", "request.t", [[1.0, 2.0]], "t=2 outside"),
        ("kernel", "request.t", [[1.0, 2.0]], "window [0.5, 2]"),
        ("kernel", "request.tau", [[1.0, 2.0]], "window [1, 1]"),
    ]
    for junk in junks
}


def _fuzz_id(command, field):
    field = field.removeprefix("coefficients.")
    return field if command == "solve" else f"{command}:{field}"


@pytest.mark.parametrize("command, field, setup", _FUZZED_FIELDS,
                         ids=[_fuzz_id(command, field) for command, field, _ in _FUZZED_FIELDS])
def test_fuzzed_config_blocks_exit_2(tmp_path, capsys, command, field, setup):
    # each of these ended in a traceback (exit 1) or ran on silently: "x" or
    # NaN in a preset value, a NaN affine b (kernel printed nan), a number as
    # the tabulated path, output 5, output.path 7 or true (the CSV went to
    # fd 1, which was then closed), an unhashable solve problem, and true as
    # a number anywhere in the request (tolerance true ran verify at 1.0,
    # t, p, ell, points, data.width and an A value of [[true]] ran at 1);
    # an integer too large for a float ended in an OverflowError
    keys = field.split(".")
    for junk in _JUNK:
        outcome = _OTHER_OUTCOMES.get((command, field, repr(junk)), field)
        if outcome is None:
            continue
        request = copy.deepcopy(_VALID_REQUESTS[command])
        body = base_config(command, request, out=str(tmp_path / "o.csv"))
        if setup is not None:
            setup(body)
        parent = body
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = junk
        code = main([command, "--config", write_config(tmp_path, body)])
        err = capsys.readouterr().err
        assert code == 2, junk
        assert err.startswith(f"configuration error: {outcome}"), (junk, err)
        assert "Traceback" not in err, junk
    assert not (tmp_path / "o.csv").exists()


_IMPORT_GUARD = """
import sys

def heavy():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] == "scipy" or m == "numpy.ma" or m.startswith("numpy.ma."))

from sharp_parabolic import cli
from sharp_parabolic.config import load_config
print("import", heavy())
load_config(sys.argv[1], command="sweep")
print("load", heavy())
assert cli.main(["sweep", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
print("sweep", heavy())
"""


def test_the_cli_path_imports_neither_scipy_nor_numpy_ma(tmp_path):
    # a fresh interpreter: importing scipy costs more than most CLI runs, and
    # numpy's set functions (np.unique, np.union1d) import numpy.ma on first use
    (tmp_path / "a.csv").write_text(
        "t,entry_11,entry_12,entry_22\n"
        "0,1.1,0.3,0.7\n0.5,0.9,0.1,0.6\n1,1.3,-0.2,0.8\n"
    )
    (tmp_path / "c.csv").write_text(
        "t,entry_11,entry_12,entry_21,entry_22\n"
        "0,0.2,0.6,-0.3,-0.1\n0.5,0.4,0.5,-0.05,-0.25\n1,0.2,0.6,-0.3,-0.1\n"
    )
    body = base_config("sweep", {"kinds": ["H", "N", "C"], "p": ["inf", 3], "t": [0.75]},
                       n=2, m=2)
    body["coefficients"]["A"] = {"preset": "tabulated", "path": "a.csv"}
    body["coefficients"]["C"] = {"preset": "tabulated", "path": "c.csv"}
    body["numerics"]["sphere_seeds"] = 8
    src = os.path.dirname(os.path.dirname(os.path.abspath(sharp_parabolic.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_GUARD, write_config(tmp_path, body),
         str(tmp_path / "out.csv")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[:3] == ["import []", "load []", "sweep []"]
    assert len(read_rows(str(tmp_path / "out.csv"))) == 6


def test_tabulated_ingestion(tmp_path):
    ts = np.linspace(0.0, 1.0, 21)
    a_path = tmp_path / "a.csv"
    rows = ["t,entry_11"] + [f"{t},{1.0 + t}" for t in ts]
    a_path.write_text("\n".join(rows) + "\n")
    out = str(tmp_path / "o.csv")
    body = base_config("coeffs", {"windows": [[0.0, 1.0]]}, out=out)
    body["coefficients"]["A"] = {"preset": "tabulated", "path": "a.csv"}
    cfg = write_config(tmp_path, body)
    assert main(["coeffs", "--config", cfg]) == 0
    got = read_rows(out)
    assert float(got[0]["ia_11"]) == pytest.approx(1.5, rel=1e-9)


def test_tabulated_files_fill_A_b_and_C(tmp_path):
    (tmp_path / "a.csv").write_text(
        "t,entry_11,entry_12,entry_22\n0,2,0.5,3\n1,2,0.5,3\n"
    )
    (tmp_path / "b.csv").write_text("t,b_1,b_2\n0,0.1,0.2\n1,0.1,0.2\n")
    (tmp_path / "c.csv").write_text(
        "t,entry_11,entry_12,entry_21,entry_22\n0,1,2,3,4\n1,1,2,3,4\n"
    )
    body = base_config("coeffs", {"windows": [[0.0, 1.0]]}, n=2, m=2)
    for name in ("A", "b", "C"):
        body["coefficients"][name] = {
            "preset": "tabulated", "path": f"{name.lower()}.csv"
        }
    cs = load_config(write_config(tmp_path, body)).coefficient_set
    np.testing.assert_array_equal(cs.A(0.5), [[2.0, 0.5], [0.5, 3.0]])
    np.testing.assert_array_equal(cs.b(0.5), [0.1, 0.2])
    np.testing.assert_array_equal(cs.C(0.5), [[1.0, 2.0], [3.0, 4.0]])


def test_tabulated_A_negative_at_a_sample_time_exits_2(tmp_path):
    (tmp_path / "a.csv").write_text(
        "t,entry_11\n0,1\n0.299,1\n0.3,-1\n0.301,1\n1,1\n"
    )
    body = base_config("coeffs", {"windows": [[0.0, 1.0]]})
    body["coefficients"]["A"] = {"preset": "tabulated", "path": "a.csv"}
    assert main(["coeffs", "--config", write_config(tmp_path, body)]) == 2


def test_tabulated_A_singular_between_samples_exits_2(tmp_path, capsys):
    # SPD at every sample time, singular at t = 0.125883 (see test_coeffs)
    (tmp_path / "a.csv").write_text(
        "t,entry_11,entry_12,entry_22\n"
        "0,0.773375,-0.214626,0.063041\n"
        "0.159474,0.134235,0.108846,0.092205\n"
        "0.213307,0.768709,-0.586369,0.813652\n"
        "0.353258,0.189288,0.184156,0.585749\n"
        "1,3.561443,0.287781,0.099164\n"
    )
    body = base_config("coeffs", {"windows": [[0.0, 1.0]]}, n=2)
    body["coefficients"]["A"] = {"preset": "tabulated", "path": "a.csv"}
    assert main(["coeffs", "--config", write_config(tmp_path, body)]) == 2
    assert "A(0.125883)" in capsys.readouterr().err


def test_missing_tabulated_file_exits_2(tmp_path, capsys):
    body = base_config("coeffs", {"windows": [[0.0, 1.0]]})
    body["coefficients"]["A"] = {"preset": "tabulated", "path": "nope.csv"}
    cfg = write_config(tmp_path, body)
    assert main(["coeffs", "--config", cfg]) == 2
    assert "nope.csv" in capsys.readouterr().err


def test_bad_header_exits_2(tmp_path):
    (tmp_path / "a.csv").write_text("time,a11\n0,1\n1,1\n")
    body = base_config("coeffs", {"windows": [[0.0, 1.0]]})
    body["coefficients"]["A"] = {"preset": "tabulated", "path": "a.csv"}
    cfg = write_config(tmp_path, body)
    assert main(["coeffs", "--config", cfg]) == 2


def test_command_mismatch_exits_2(tmp_path):
    cfg = write_config(tmp_path, base_config("sharp", {"kind": "H"}))
    assert main(["kernel", "--config", cfg]) == 2


def test_invalid_json_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["sharp", "--config", str(path)]) == 2


def test_indefinite_A_exits_2(tmp_path):
    body = base_config("sharp", {"kind": "H", "p": [2]})
    body["coefficients"]["A"]["value"] = [[-1.0]]
    cfg = write_config(tmp_path, body)
    assert main(["sharp", "--config", cfg]) == 2


def test_verify_quick_passes(tmp_path, capsys):
    out = str(tmp_path / "v.csv")
    cfg = write_config(tmp_path, base_config("verify", {"cases": "quick"}, out=out))
    assert main(["verify", "--config", cfg]) == 0
    rows = read_rows(out)
    assert all(row["status"] == "pass" for row in rows)
    assert "checks passed" in capsys.readouterr().err


def test_verify_overtight_tolerance_fails(tmp_path):
    out = str(tmp_path / "v.csv")
    cfg = write_config(tmp_path, base_config("verify", {"cases": "quick"}, out=out))
    assert main(["verify", "--config", cfg, "--tol", "1e-12"]) == 1
    rows = read_rows(out)
    assert any(row["status"] == "FAIL" for row in rows)
    # the quadrature-limited relative differences are reported in the rows
    assert all(float(row["rel_diff"]) >= 0.0 for row in rows)


def test_config_loader_direct_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))
    body = {"problem": {"n": 0, "m": 1, "T": 1.0}, "request": {"command": "sharp"}}
    path = write_config(tmp_path, body)
    with pytest.raises(ConfigError):
        load_config(path)


def _reference_csv(command, header, rows):
    """The writer's bytes as a csv.writer with one format_cell per cell gives them."""
    stream = io.StringIO()
    stream.write(f"# schema: {cli.SCHEMA} command: {command}\n")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([cli.format_cell(cell) for cell in row])
    return stream.getvalue()


_NUMBER_CELLS = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308, 0.1, 7, 0, -3,
                 2**60, np.float64(-2.5e-17), np.float64(math.inf)]
_TEXT_CELLS = [True, False, np.bool_(True), np.bool_(False), None, np.float32(0.1),
               np.int64(-12), "H[n1m1-iso,p=1]", 'say "pass"', "a\nb", "c\rd", ""]


@pytest.mark.parametrize("rows", [
    [_NUMBER_CELLS],
    [[cell] for cell in _NUMBER_CELLS + _TEXT_CELLS],
    [_NUMBER_CELLS + [cell] for cell in _TEXT_CELLS],
    [[], [""], [1.0], []],
    # numeric and text rows interleaved, and two lengths of numeric row
    [[1.0, 2], ["x,y", 3.0], [np.float64(4.0), 5.0, 6.0], [None], [7, 8.5], [True, 1.0],
     [0.25, -0.0], ["", ""]],
], ids=["numbers", "one-cell-rows", "one-text-cell-each", "empty-rows", "interleaved"])
def test_write_csv_gives_the_bytes_of_one_format_cell_per_cell(rows):
    header = [f"c{i}" for i in range(max(map(len, rows)))]
    stream = io.StringIO()
    cli.write_csv(stream, "sweep", header, rows)
    assert stream.getvalue() == _reference_csv("sweep", header, rows)


def test_format_cell_spells_the_non_finite_floats():
    assert [cli.format_cell(x) for x in (math.inf, -math.inf, math.nan, np.float64(-math.inf))] \
        == ["inf", "-inf", "nan", "-inf"]


@pytest.mark.parametrize("flag_target, config_target", [
    ("missing/o.csv", None), ("a_directory", None), (None, "missing/o.csv"),
], ids=["--out in a missing directory", "--out a directory", "output.path in a missing directory"])
def test_an_unwritable_output_path_exits_2_before_computing(tmp_path, capsys, monkeypatch,
                                                            flag_target, config_target):
    (tmp_path / "a_directory").mkdir()
    computed = []
    monkeypatch.setitem(cli._COMMAND_RUNS, "sharp",
                        lambda cfg: computed.append(cfg) or (["value"], [[1.0]]))
    out = None if config_target is None else str(tmp_path / config_target)
    flags = [] if flag_target is None else ["--out", str(tmp_path / flag_target)]
    cfg = write_config(tmp_path, base_config("sharp", {"kind": "H", "p": [2]}, out=out))
    assert main(["sharp", "--config", cfg] + flags) == 2
    assert computed == []
    assert capsys.readouterr().err.startswith("output error: ")
    assert not (tmp_path / "missing").exists()


def test_an_output_error_while_writing_exits_2(tmp_path, capsys, monkeypatch):
    def fail(stream, command, header, rows):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "write_csv", fail)
    out = str(tmp_path / "o.csv")
    cfg = write_config(tmp_path, base_config("sharp", {"kind": "H", "p": [2]}, out=out))
    assert main(["sharp", "--config", cfg]) == 2
    assert "output error: [Errno 28] No space left on device" in capsys.readouterr().err
