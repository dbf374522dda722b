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
"""

import csv
import json
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from .coeffs import Affine, Constant, Tabulated, coefficient_set
from .errors import ConfigError, DomainError

COMMANDS = ("coeffs", "kernel", "sharp", "solve", "verify", "sweep")


@dataclass
class Numerics:
    quad_tol: float = 1e-10
    sphere_seeds: int = 64  # per sphere dimension
    truncation_sigmas: float = 8.0
    grid_points: int = 257


@dataclass
class RunConfig:
    n: int
    m: int
    T: float
    coefficient_set: object
    request: dict
    numerics: Numerics
    output_path: str | None


def parse_p(token):
    """Exponent from a config/CSV token; the literal string 'inf' is infinity."""
    if isinstance(token, str) and token.strip().lower() == "inf":
        return math.inf
    try:
        return float(token)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"cannot parse exponent p from {token!r}") from exc


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


def _array(block, key, shape, context):
    """<context>.<key>: finite numbers of the given shape, as a float array."""
    try:
        value = np.asarray(_require(block, key, context), dtype=float)
    except (TypeError, ValueError):
        value = None
    if value is None or value.shape != shape or not np.all(np.isfinite(value)):
        raise ConfigError(f"{context}.{key}: expected finite numbers of shape {shape}, "
                          f"got {block[key]!r}")
    return value


def _parse_preset(block, name, shape, base_dir):
    context = f"coefficients.{name}"
    if not isinstance(block, dict):
        raise ConfigError(f"{context}: expected an object with a 'preset' field")
    kind = _require(block, "preset", context)
    if kind == "constant":
        return Constant(_array(block, "value", shape, context))
    if kind == "affine":
        return Affine(_array(block, "value", shape, context),
                      _array(block, "slope", shape, context))
    if kind == "tabulated":
        path = _require(block, "path", context)
        if not isinstance(path, str):
            raise ConfigError(f"{context}.path: expected a string, got {path!r}")
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        try:
            return _tabulated(path, name, shape, context)
        except DomainError as exc:
            raise ConfigError(f"{context}: {exc}") from exc
    raise ConfigError(f"{context}: unknown preset kind {kind!r}")


def _numeric(block, key, default, ok, rule, kind=float, context="numerics"):
    """<context>.<key>: a finite number (an integer if ``kind`` is int; never a
    boolean) for which ``ok`` holds, required if ``default`` is None. NaN
    fails every bound."""
    value = _require(block, key, context) if default is None else block.get(key, default)
    number = numbers.Integral if kind is int else numbers.Real
    if isinstance(value, bool) or not isinstance(value, number) or not (
        math.isfinite(value) and ok(value)
    ):
        raise ConfigError(f"{context}.{key} must be {rule}, got {value!r}")
    return kind(value)


def load_config(path, command=None) -> RunConfig:
    """Parse and validate a JSON run configuration."""
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
    n = _numeric(problem, "n", None, lambda v: v >= 1, "an integer >= 1", int, "problem")
    m = _numeric(problem, "m", None, lambda v: v >= 1, "an integer >= 1", int, "problem")
    T = _numeric(problem, "T", None, lambda v: v > 0, "> 0", float, "problem")

    coeffs_block = raw.get("coefficients", {})
    if not isinstance(coeffs_block, dict):
        raise ConfigError("coefficients: expected an object")
    presets = {}
    for name, shape in (("A", (n, n)), ("b", (n,)), ("C", (m, m))):
        if name in coeffs_block:
            presets[name] = _parse_preset(coeffs_block[name], name, shape, base_dir)
    try:
        cs = coefficient_set(
            n=n,
            m=m,
            T=T,
            A=presets.get("A"),
            b=presets.get("b"),
            C=presets.get("C"),
        )
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

    block = raw.get("numerics", {})
    if not isinstance(block, dict):
        raise ConfigError("numerics: expected an object")
    numerics = Numerics(
        quad_tol=_numeric(block, "quad_tol", 1e-10, lambda v: v > 0, "> 0"),
        sphere_seeds=_numeric(block, "sphere_seeds", 64, lambda v: v >= 1, "an integer >= 1", int),
        truncation_sigmas=_numeric(block, "truncation_sigmas", 8.0, lambda v: v >= 6, ">= 6"),
        grid_points=_numeric(block, "grid_points", 257, lambda v: v >= 17 and v % 2 == 1,
                             "an odd integer >= 17", int),
    )

    output = raw.get("output", {})
    if not isinstance(output, dict):
        raise ConfigError("output: expected an object")
    output_path = output.get("path")
    if output_path is not None and not isinstance(output_path, str):
        raise ConfigError(f"output.path: expected a string, got {output_path!r}")
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
