"""Run-configuration loading for the command-line tool.

The configuration is a single JSON file with the field tree::

    problem:      {n, m, T}
    coefficients: {A, b, C}   each {preset: constant|affine|tabulated, ...}
    request:      command-specific parameters
    numerics:     {quad_tol, sphere_seeds, truncation_sigmas, grid_points}
    output:       {path, format}

Tabulated coefficients come from CSV files: row-major upper triangle for A
(symmetry enforced), full rows for C, plain columns for b, all with a
leading t column.

Every field is checked when the config loads, and ``RunConfig.request``
holds the checked request of its command with its defaults filled in. A
number meets the package's rule (``errors.checked``): a finite JSON number,
never a boolean or a string; only exponents ``p`` also take the tokens of
``parse_p``. The config checks form and the bounds only it defines; the
settings it builds check the numerics, and the library the rest (sharp
kinds, case selections, t in (0, T], p >= 1, unit directions, windows).
"""

import csv
import json
import os
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .coeffs import Affine, Constant, Tabulated, coefficient_set
from .errors import COUNT, POSITIVE, ConfigError, DomainError, checked, is_number
from .quadrature import DEFAULT_TOL
from .sharp import SphereSettings
from .solve import SolveSettings

COMMANDS = ("coeffs", "kernel", "sharp", "solve", "verify", "sweep")


@dataclass
class RunConfig:
    n: int
    m: int
    T: float
    coefficient_set: object
    request: dict  # the checked fields of its command, defaults filled in
    numerics: dict  # quad_tol, and the settings "sphere" and "solve"
    output_path: str | None


def parse_p(token, context="p"):
    """Exponent from a config/CSV token: a number or a numeric string such as
    "2" or "inf", never a boolean; holder_conjugate judges its value."""
    if isinstance(token, str):
        try:
            return float(token)
        except ValueError:
            pass
    elif is_number(token) or isinstance(token, float):  # NaN and infinities too
        return float(token)
    raise ConfigError(f"{context}: cannot parse exponent p from {token!r}")


def _require(mapping, key, context):
    if key not in mapping:
        raise ConfigError(f"{context}: missing required field '{key}'")
    return mapping[key]


def _read_table(path, expected_columns, context):
    if not os.path.exists(path):
        raise ConfigError(f"{context}: sample file {path!r} does not exist")
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        rows = [row for row in reader if row and not row[0].startswith("#")]
    if not rows:
        raise ConfigError(f"{context}: sample file {path!r} is empty")
    header = [c.strip() for c in rows[0]]
    if header != expected_columns:
        raise ConfigError(
            f"{context}: header {header} does not match expected {expected_columns}"
        )
    try:
        data = np.array([[float(c) for c in row] for row in rows[1:]], dtype=float)
    except ValueError as exc:
        raise ConfigError(f"{context}: non-numeric value in {path!r}") from exc
    if data.ndim != 2 or data.shape[0] < 2:
        raise ConfigError(f"{context}: need at least two sample rows in {path!r}")
    return data[:, 0], data[:, 1:]


def _tabulated(path, name, shape, context):
    """Samples of A (row-major upper triangle, mirrored), b or C (full rows)."""
    cells = [c for c in np.ndindex(*shape) if name != "A" or c[0] <= c[1]]
    prefix = "b_" if name == "b" else "entry_"
    labels = [prefix + "".join(str(i + 1) for i in c) for c in cells]
    times, flat = _read_table(path, ["t"] + labels, context)
    values = np.empty((times.size,) + shape)
    for k, cell in enumerate(cells):
        values[(slice(None),) + cell] = flat[:, k]
        if name == "A":
            values[(slice(None),) + cell[::-1]] = flat[:, k]
    return Tabulated(times, values)


_number = partial(checked, error=ConfigError)  # the number rule, naming a config field


def _array(value, shape, context):
    """``value`` as a float array of ``shape`` whose entries are numbers; a
    None in ``shape`` is any length >= 1."""
    try:
        cells = np.array(value, dtype=object)
    except ValueError:  # ragged below the first axis
        cells = np.empty(0, dtype=object)
    if cells.ndim != len(shape) or not all(
        d == s or (s is None and d > 0) for d, s in zip(cells.shape, shape)
    ) or not all(map(is_number, cells.flat)):
        expected = str(tuple(shape)).replace("None", "k")
        raise ConfigError(f"{context}: expected finite numbers of shape {expected}, got {value!r}")
    return cells.astype(float)


def _list(value, context):
    """A nonempty JSON list, or ConfigError."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{context}: expected a nonempty list, got {value!r}")
    return value


def _string(value, context):
    if not isinstance(value, str):
        raise ConfigError(f"{context}: expected a string, got {value!r}")
    return value


def _parse_preset(block, name, shape, base_dir):
    context = f"coefficients.{name}"
    if not isinstance(block, dict):
        raise ConfigError(f"{context}: expected an object with a 'preset' field")
    kind = _require(block, "preset", context)

    def array(key):
        return _array(_require(block, key, context), shape, f"{context}.{key}")

    if kind == "constant":
        return Constant(array("value"))
    if kind == "affine":
        return Affine(array("value"), array("slope"))
    if kind == "tabulated":
        path = _string(_require(block, "path", context), f"{context}.path")
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        try:
            return _tabulated(path, name, shape, context)
        except DomainError as exc:
            raise ConfigError(f"{context}: {exc}") from exc
    raise ConfigError(f"{context}: unknown preset kind {kind!r}")


def _optional(value, read, *args):
    return None if value is None else read(value, *args)


def _data(block, n, m):
    """request.data of ``solve``: the data function's parameters, plus the
    grid ``width`` and ``radius`` (None: derived from the kernel)."""
    if not isinstance(block, dict):
        raise ConfigError(f"request.data: expected an object, got {block!r}")
    kind = block.get("type")
    data = {
        "type": kind,
        "width": _number(block.get("width", 1.0), "request.data.width", *POSITIVE),
        "radius": _optional(block.get("radius"), _number, "request.data.radius", *POSITIVE),
    }
    if kind == "constant":
        data["value"] = _array(block.get("value"), (m,), "request.data.value")
    elif kind == "gaussian":
        data["amplitude"] = _array(block.get("amplitude"), (m,), "request.data.amplitude")
        data["center"] = _array(block.get("center", [0.0] * n), (n,), "request.data.center")
    else:
        raise ConfigError(f"request.data.type: unknown data type {kind!r}")
    return data


def _request(raw, command, n, m, T):
    """The request fields of ``command``, checked, with their defaults."""
    req = {"command": command}
    if command in ("sharp", "sweep", "kernel", "solve"):
        req["t"] = _array(raw.get("t", [T]), (None,), "request.t").tolist()
    if command in ("kernel", "solve"):
        req["points"] = _array(raw.get("points", [[0.0] * n]), (None, n), "request.points")
    if command in ("sharp", "sweep"):
        if command == "sweep":
            req["kinds"] = [_string(k, "request.kinds")
                            for k in _list(raw.get("kinds"), "request.kinds")]
        else:
            req["kinds"] = [_string(raw.get("kind", "H"), "request.kind")]
        req["p"] = [parse_p(tok, "request.p") for tok in _list(raw.get("p", [2.0]), "request.p")]
        req["ell"] = _optional(raw.get("ell"), _array, (None, n), "request.ell")
    elif command == "kernel":
        tau = raw.get("tau")
        req["tau"] = [None] if tau is None else _array(tau, (None,), "request.tau").tolist()
    elif command == "coeffs":
        req["windows"] = _array(raw.get("windows"), (None, 2), "request.windows").tolist()
    elif command == "solve":
        req["problem"] = raw.get("problem", "homogeneous")
        if req["problem"] not in ("homogeneous", "nonhomogeneous"):
            raise ConfigError("request.problem must be homogeneous or nonhomogeneous")
        req["data"] = _data(raw.get("data"), n, m)
        req["p"] = parse_p(raw.get("p", "inf"), "request.p")
        req["ell"] = _optional(raw.get("ell"), _array, (n,), "request.ell")
    else:
        req["cases"] = raw.get("cases", "quick")
        req["tolerance"] = _optional(raw.get("tolerance"), _number, "request.tolerance", *POSITIVE)
    return req


def _numerics(block, n):
    """The numerics block as ``quad_tol`` and the settings ``sphere`` and
    ``solve``, each field checked and defaulted by its owner: quad_tol's rule
    with DEFAULT_TOL, SphereSettings and SolveSettings. The solve grid is an
    odd integer >= 17, cut to its cap, which is also its default: 257 cells
    per axis at n = 1 and SolveSettings' default 129 beyond."""
    if not isinstance(block, dict):
        raise ConfigError("numerics: expected an object")
    numerics = {"quad_tol": _number(block.get("quad_tol", DEFAULT_TOL), "numerics.quad_tol",
                                    *POSITIVE),
                "sphere": SphereSettings(), "solve": SolveSettings()}
    for key, name, field in (("sphere_seeds", "sphere", "seeds_per_dim"),
                             ("truncation_sigmas", "solve", "truncation_sigmas")):
        if key in block:
            try:
                numerics[name] = replace(numerics[name], **{field: block[key]})
            except DomainError as exc:
                raise ConfigError(f"numerics.{key}: {exc}") from exc
    cap = 257 if n == 1 else SolveSettings.grid_points
    grid = _number(block.get("grid_points", cap), "numerics.grid_points",
                   lambda v: v >= 17 and v % 2 == 1, "must be an odd integer >= 17", int)
    numerics["solve"] = replace(numerics["solve"], grid_points=min(grid, cap))
    return numerics


def load_config(path, command=None) -> RunConfig:
    """Parse and validate a JSON run configuration, its request included."""
    if not os.path.exists(path):
        raise ConfigError(f"config file {path!r} does not exist")
    with open(path) as handle:
        try:
            raw = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    base_dir = os.path.dirname(os.path.abspath(path))

    problem = _require(raw, "problem", "config")
    if not isinstance(problem, dict):
        raise ConfigError("problem: expected an object with n, m, T")
    n, m = (_number(_require(problem, key, "problem"), f"problem.{key}", *COUNT) for key in "nm")
    T = _number(_require(problem, "T", "problem"), "problem.T", *POSITIVE)

    coeffs_block = raw.get("coefficients", {})
    if not isinstance(coeffs_block, dict):
        raise ConfigError("coefficients: expected an object")
    presets = {}
    for name, shape in (("A", (n, n)), ("b", (n,)), ("C", (m, m))):
        if name in coeffs_block:
            presets[name] = _parse_preset(coeffs_block[name], name, shape, base_dir)
    try:
        cs = coefficient_set(n=n, m=m, T=T, **presets)
    except (DomainError, ArithmeticError) as exc:
        raise ConfigError(f"coefficients: {exc}") from exc

    request = raw.get("request", {})
    if not isinstance(request, dict):
        raise ConfigError("request: expected an object")
    cfg_command = request.get("command", command)
    if command is not None and cfg_command != command:
        raise ConfigError(
            f"request.command {cfg_command!r} does not match invoked command {command!r}"
        )
    if cfg_command not in COMMANDS:
        raise ConfigError(f"request.command must be one of {COMMANDS}")
    request = _request(request, cfg_command, n, m, T)
    numerics = _numerics(raw.get("numerics", {}), n)

    output = raw.get("output", {})
    if not isinstance(output, dict):
        raise ConfigError("output: expected an object")
    output_path = _optional(output.get("path"), _string, "output.path")
    if output.get("format", "csv") != "csv":
        raise ConfigError("output.format: only 'csv' is supported")

    return RunConfig(
        n=n,
        m=m,
        T=T,
        coefficient_set=cs,
        request=request,
        numerics=numerics,
        output_path=output_path,
    )
