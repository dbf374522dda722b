"""Command-line interface: config-driven sweeps and verification runs.

Commands: coeffs, kernel, sharp, solve, verify, sweep. Output is CSV with a
versioned schema comment, 17 significant digits and '\\n' line endings, so
identical configurations produce byte-identical files.

Exit codes: 0 success, 1 verification failure, 2 configuration or output error
(an output path that is a directory or in a missing directory is refused first;
a failed write leaves the file at the path as it was).
"""

import argparse
import csv
import math
import os
import sys
import warnings

import numpy as np

from . import kernels, matfun, sharp, solve, verification
from .config import COMMANDS, _number, load_config
from .errors import POSITIVE, ConfigError, DomainError
from .solve import GridFunction, SourceFunction

SCHEMA = "sharp-parabolic-csv/1"
_NUMBER_TYPES = frozenset((float, int, np.float64))  # "%.17g" cells that need no quoting


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return f"{float(value):.17g}"


def write_csv(stream, command, header, rows):
    stream.write(f"# schema: {SCHEMA} command: {command}\n")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    formats = {}  # one "%.17g,...\n" row format per length of all-number rows
    for row in rows:
        if _NUMBER_TYPES.issuperset(map(type, row)):
            if len(row) not in formats:
                formats[len(row)] = ",".join(["%.17g"] * len(row)) + "\n"
            stream.write(formats[len(row)] % tuple(row))
        else:
            writer.writerow([format_cell(cell) for cell in row])


# ``threads`` is unused; it stays because bench/tracer.py wraps this signature
def _map_tasks(fn, tasks, threads):
    return [fn(task) for task in tasks]


def _vector_cells(vec, size):
    if vec is None:
        return [None] * size
    return [float(v) for v in np.asarray(vec, dtype=float)]


# ---------------------------------------------------------------------------
# sharp / sweep


def cmd_sharp(cfg):
    req = cfg.request
    ells = [None] if req["ell"] is None else list(req["ell"])
    # every request is built, and so checked, before any is evaluated
    requests = [
        sharp.SharpRequest(kind=kind, p=p, t=t, ell=ell, quad_tol=cfg.numerics["quad_tol"],
                           sphere=cfg.numerics["sphere"])
        for kind in req["kinds"] for p in req["p"] for t in req["t"]
        for ell in (ells if kind in ("K_ell", "C_ell") else [None])
    ]

    def evaluate(request):
        result = sharp.evaluate_sharp(cfg.coefficient_set, request)
        return (
            [request.kind, request.p, request.t]
            + _vector_cells(request.ell, cfg.n)
            + [result.value, result.convergent]
            + _vector_cells(result.maximizer_z, cfg.m)
            + _vector_cells(result.maximizer_ell, cfg.n)
            + [result.diagnostics.quad_error, result.diagnostics.search_residual]
        )

    header = (
        ["kind", "p", "t"]
        + [f"ell_{i + 1}" for i in range(cfg.n)]
        + ["value", "convergent"]
        + [f"maximizer_z_{i + 1}" for i in range(cfg.m)]
        + [f"maximizer_ell_{i + 1}" for i in range(cfg.n)]
        + ["quad_error", "search_residual"]
    )
    return header, _map_tasks(evaluate, requests, 1)


# ---------------------------------------------------------------------------
# kernel / coeffs


def cmd_kernel(cfg):
    req = cfg.request
    points, ts, tau_list = req["points"], req["t"], req["tau"]
    # one window and one kernel call per distinct (t, tau), over all points
    windows = list(dict.fromkeys((t, tau) for t in ts for tau in tau_list))

    def evaluate(window):
        t, tau = window
        if tau is None:
            kv = kernels.eval_G(cfg.coefficient_set, points, t)
        else:
            kv = kernels.eval_P(cfg.coefficient_set, points, t, tau)
        return [
            [t, tau, scalar] + [float(v) for v in matrix.reshape(-1)]
            for scalar, matrix in zip(kv.scalar_part, kv.matrix)
        ]

    cells = dict(zip(windows, _map_tasks(evaluate, windows, 1)))
    rows = [
        list(x) + cells[t, tau][i]
        for i, x in enumerate(points) for t in ts for tau in tau_list
    ]
    header = (
        [f"x_{i + 1}" for i in range(cfg.n)]
        + ["t", "tau", "scalar_part"]
        + [f"g_{i + 1}{j + 1}" for i in range(cfg.m) for j in range(cfg.m)]
    )
    return header, rows


def cmd_coeffs(cfg):
    cs = cfg.coefficient_set
    spans = np.array(cfg.request["windows"])
    if (below := spans[:, 0] < 0.0).any():  # t - tau drops a start below 0 by under an ulp of t
        tau, t = spans[np.argmax(below)]
        raise DomainError(f"window [{tau:g}, {t:g}] must satisfy 0 <= tau < t <= T={cs.T:g}")
    batch = cs.windows(spans[:, 1], spans[:, 1] - spans[:, 0])
    upper = np.triu_indices(cfg.n)
    rows = np.column_stack((spans, batch.ia[:, upper[0], upper[1]], batch.ib,
                            batch.ic.reshape(len(batch), -1), batch.det_ia_sqrt,
                            batch.quad_error)).tolist()
    header = (
        ["tau", "t"]
        + [f"ia_{i + 1}{j + 1}" for i in range(cfg.n) for j in range(i, cfg.n)]
        + [f"ib_{i + 1}" for i in range(cfg.n)]
        + [f"ic_{i + 1}{j + 1}" for i in range(cfg.m) for j in range(cfg.m)]
        + ["det_ia_sqrt", "quad_error"]
    )
    return header, rows


# ---------------------------------------------------------------------------
# solve


def _data_callable(block, n, m):
    """The data function of a ``request.data`` block that the config checked
    for n dimensions and m components."""
    if block["type"] == "constant":
        value = block["value"]

        def fn(pts):
            return np.broadcast_to(value, pts.shape[:-1] + value.shape)

        return fn
    amplitude, width, center = block["amplitude"], block["width"], block["center"]

    def fn(pts):
        g = np.exp(matfun.squared_norms(pts - center) / (-2.0 * width * width))
        out = np.empty(g.shape + amplitude.shape)
        for k, a_k in enumerate(amplitude):  # one pass per component
            np.multiply(g, a_k, out=out[..., k])
        return out

    return fn


# sharp kind of the bound: (without ell, with ell) per problem
_SOLVE_KINDS = {"homogeneous": ("H", "K_ell"), "nonhomogeneous": ("N", "C_ell")}


def cmd_solve(cfg):
    req = cfg.request
    problem, block, ts, p, ell = req["problem"], req["data"], req["t"], req["p"], req["ell"]
    fn = _data_callable(block, cfg.n, cfg.m)
    kind = _SOLVE_KINDS[problem][ell is not None]

    cs, settings = cfg.coefficient_set, cfg.numerics["solve"]
    if problem == "homogeneous":
        radius = block["radius"]
        if radius is None:
            std = kernels.kernel_std(cs.accumulated(0.0, max(ts)))
            radius = settings.truncation_sigmas * std + 3.0 * block["width"]
        data = GridFunction.from_callable(fn, center=np.zeros(cfg.n), radius=radius,
                                          points_per_axis=settings.grid_points)
    else:
        data = SourceFunction(evaluator=lambda pts, tau: fn(pts))
    coefs = {  # one sharp constant per distinct t, shared by its rows
        t: sharp.evaluate_sharp(cs, sharp.SharpRequest(
            kind=kind, p=p, t=t, ell=ell, quad_tol=cfg.numerics["quad_tol"],
            sphere=cfg.numerics["sphere"],
        )).value
        for t in dict.fromkeys(ts)
    }

    def evaluate(task):
        x, t = task
        res, data_norm = solve.solve_with_norm(
            cs, problem, data, x, t, p, ell=ell, settings=settings
        )
        bound_val = coefs[t] * data_norm
        mag = float(np.linalg.norm(res.value))
        ratio = mag / bound_val if bound_val > 0 else math.inf
        values = [float(v) for v in res.value]
        return list(x) + [t] + values + [res.error_estimate, bound_val, ratio]

    tasks = [(x, t) for x in req["points"] for t in ts]
    header = (
        [f"x_{i + 1}" for i in range(cfg.n)]
        + ["t"]
        + [f"u_{i + 1}" for i in range(cfg.m)]
        + ["err_estimate", "bound", "ratio"]
    )
    return header, _map_tasks(evaluate, tasks, 1)


# ---------------------------------------------------------------------------
# verify


def cmd_verify(cfg):
    try:
        cases = verification.cases_for(cfg.request["cases"])
    except ValueError as exc:
        raise ConfigError(f"request.cases: {exc}") from exc
    tol = cfg.request["tolerance"]

    def evaluate(family):
        return [
            [row.name, row.closed_form, row.oracle, row.rel_diff, row.tol,
             "pass" if row.passed else "FAIL"]
            for row in verification.run_cases(family, tol_override=tol)
        ]

    families = verification.families(cases)
    rows = [row for chunk in _map_tasks(evaluate, families, 1) for row in chunk]
    header = ["name", "closed_form", "oracle", "rel_diff", "tol", "status"]
    return header, rows


# ---------------------------------------------------------------------------
# entry point

_COMMAND_RUNS = {"sharp": cmd_sharp, "sweep": cmd_sharp, "kernel": cmd_kernel,
                 "coeffs": cmd_coeffs, "solve": cmd_solve, "verify": cmd_verify}


def _output_problem(path):
    """Why the CSV cannot be written to ``path``, or None; asked before computing."""
    if os.path.isdir(path):
        return f"{path!r} is a directory"
    if not os.path.isdir(os.path.dirname(path) or "."):
        return f"the directory of {path!r} does not exist"
    return None


def _write_file(path, command, header, rows):
    """Write the CSV into a temporary file beside ``path`` and rename it into
    place, so a failed write leaves whatever ``path`` held before."""
    temporary = f"{path}.{os.getpid()}.tmp"
    try:
        with open(temporary, "w", newline="") as handle:
            write_csv(handle, command, header, rows)
        os.replace(temporary, path)
    finally:
        if os.path.exists(temporary):
            os.remove(temporary)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sharp-parabolic",
        description="Kernels, solutions and sharp pointwise-estimate constants "
        "for weakly coupled parabolic systems.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--out", help="output CSV path (overrides output.path)")
    parser.add_argument("--threads", type=int, default=None,
                        help="ignored: every command runs sequentially")
    parser.add_argument("--tol", type=float, default=None,
                        help="override quad_tol (verify: the pass tolerance)")
    args = parser.parse_args(argv)

    with warnings.catch_warnings(record=True) as caught:  # reported as CLI messages
        warnings.simplefilter("always")
        try:
            tol = None if args.tol is None else _number(args.tol, "--tol", *POSITIVE)
            cfg = load_config(args.config, command=args.command)
            if tol is not None and args.command == "verify":
                cfg.request["tolerance"] = tol
            elif tol is not None:
                cfg.numerics["quad_tol"] = tol
            out_path = args.out or cfg.output_path
            if out_path and (problem := _output_problem(out_path)):
                print(f"output error: {problem}", file=sys.stderr)
                return 2
            header, rows = _COMMAND_RUNS[args.command](cfg)
        except (ConfigError, DomainError) as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return 2
        finally:
            for message in dict.fromkeys(str(w.message) for w in caught):
                print(f"warning: {message}", file=sys.stderr)

    try:
        if out_path:
            _write_file(out_path, args.command, header, rows)
        else:
            write_csv(sys.stdout, args.command, header, rows)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2

    if args.command == "verify":
        failures = sum(1 for row in rows if row[-1] == "FAIL")
        print(f"verify: {len(rows) - failures}/{len(rows)} checks passed", file=sys.stderr)
        return 1 if failures else 0
    return 0


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
