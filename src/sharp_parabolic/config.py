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
import os
from dataclasses import dataclass, field

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
    command: str
    request: dict
    numerics: Numerics
    output_path: str | None
    base_dir: str = field(default=".")


def parse_p(token):
    """Exponent from a config/CSV token; the literal string 'inf' is infinity."""
    if isinstance(token, str):
        if token.strip().lower() == "inf":
            return math.inf
        try:
            return float(token)
        except ValueError as exc:
            raise ConfigError(f"cannot parse exponent p from {token!r}") from exc
    return float(token)


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


def _parse_preset(block, name, shape, base_dir):
    context = f"coefficients.{name}"
    if not isinstance(block, dict):
        raise ConfigError(f"{context}: expected an object with a 'preset' field")
    kind = _require(block, "preset", context)
    if kind == "constant":
        value = np.asarray(_require(block, "value", context), dtype=float)
        if value.shape != shape:
            raise ConfigError(f"{context}: value shape {value.shape}, expected {shape}")
        return Constant(value)
    if kind == "affine":
        value = np.asarray(_require(block, "value", context), dtype=float)
        slope = np.asarray(_require(block, "slope", context), dtype=float)
        if value.shape != shape or slope.shape != shape:
            raise ConfigError(f"{context}: value/slope shape must be {shape}")
        return Affine(value, slope)
    if kind == "tabulated":
        path = _require(block, "path", context)
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        try:
            return _tabulated(path, name, shape, context)
        except DomainError as exc:
            raise ConfigError(f"{context}: {exc}") from exc
    raise ConfigError(f"{context}: unknown preset kind {kind!r}")


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
    try:
        n = int(_require(problem, "n", "problem"))
        m = int(_require(problem, "m", "problem"))
        T = float(_require(problem, "T", "problem"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"problem: {exc}") from exc
    if n < 1 or m < 1 or not T > 0:
        raise ConfigError("problem: need n >= 1, m >= 1 and T > 0")

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

    numerics_block = raw.get("numerics", {})
    if not isinstance(numerics_block, dict):
        raise ConfigError("numerics: expected an object")
    try:
        numerics = Numerics(
            quad_tol=float(numerics_block.get("quad_tol", 1e-10)),
            sphere_seeds=int(numerics_block.get("sphere_seeds", 64)),
            truncation_sigmas=float(numerics_block.get("truncation_sigmas", 8.0)),
            grid_points=int(numerics_block.get("grid_points", 257)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"numerics: {exc}") from exc
    if numerics.quad_tol <= 0 or numerics.truncation_sigmas < 6.0:
        raise ConfigError("numerics: quad_tol must be > 0, truncation_sigmas >= 6")
    if numerics.grid_points < 17 or numerics.grid_points % 2 == 0:
        raise ConfigError("numerics.grid_points must be odd and >= 17")

    output = raw.get("output", {})
    output_path = output.get("path")
    if output.get("format", "csv") != "csv":
        raise ConfigError("output.format: only 'csv' is supported")

    return RunConfig(
        n=n,
        m=m,
        T=T,
        coefficient_set=cs,
        command=cfg_command,
        request=request,
        numerics=numerics,
        output_path=output_path,
        base_dir=base_dir,
    )
