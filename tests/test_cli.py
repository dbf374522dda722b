import csv
import json
import math

import numpy as np
import pytest

from sharp_parabolic.cli import main
from sharp_parabolic.config import load_config, parse_p
from sharp_parabolic.errors import ConfigError


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
    with pytest.raises(ConfigError):
        parse_p("two")


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
    monkeypatch.setenv("SHARP_PARABOLIC_THREADS", "4")
    assert main(["sweep", "--config", cfg, "--out", out3]) == 0
    first = open(out1, "rb").read()
    assert first == open(out2, "rb").read()
    assert first == open(out3, "rb").read()
    assert b"\r" not in first


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
