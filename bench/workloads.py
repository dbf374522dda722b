"""Seeded workload fixtures, their reference values and per-row checks.

Each workload writes CLI configs (and sample files) into a directory and
returns the CLI invocations to run plus a checker for their CSV outputs. The
program only ever sees these files; the seed stays in the benchmark.
"""

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator

import reference

# Per-row relative errors are floored at the default quad_tol: below the
# requested tolerance an error is roundoff or tolerance noise that changes
# from seed to seed, and would make rel_err_gmean unsteady on rows the
# program computes to its stated accuracy.
REL_ERR_FLOOR = 1e-10
SOLVE_RATIO_MARGIN = 2e-3  # acceptance criterion 9's margin on |u| / bound


@dataclass
class Invocation:
    command: str
    config: str
    out: str
    threads: int

    def argv(self):
        return [self.command, "--config", self.config, "--out", self.out,
                "--threads", str(self.threads)]


@dataclass
class RowCheck:
    """Outcome of checking one CSV row."""

    ok: bool
    rel_err: float | None = None  # None: the row has no reference value


@dataclass
class Workload:
    invocations: list
    check: object  # callable(list of row lists per invocation) -> list[RowCheck]
    expected_rows: int | None = None  # None: whatever a passing run prints


def read_csv(path):
    """Header and rows of a CLI CSV, skipping the schema comment."""
    with open(path, newline="") as handle:
        rows = [r for r in csv.reader(handle) if r and not r[0].startswith("#")]
    return rows[0], rows[1:]


def _write_json(path, obj):
    with open(path, "w") as handle:
        json.dump(obj, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _write_samples(path, header, times, rows):
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\n")
        for t, row in zip(times, rows):
            handle.write(",".join(f"{v:.17g}" for v in [t, *row]) + "\n")


def _rel_err(value, ref):
    return max(abs(value - ref) / abs(ref), REL_ERR_FLOOR)


def _p_token(p):
    return "inf" if math.isinf(p) else p


def _parse_p(token):
    return math.inf if token == "inf" else float(token)


# ---------------------------------------------------------------------------
# sweep-tabulated

SWEEP_KINDS = ("H", "K", "N", "C")
SWEEP_PS = (math.inf, 3.0)
SWEEP_TS = (0.5,)
SAMPLE_TIMES = np.linspace(0.0, 1.0, 3)
COEFFS_WINDOWS = 1500


def tabulated_samples(rng):
    """Smooth SPD A(t) and coupling C(t) samples for n = m = 2.

    A is a rotation of positive eigenvalues, so every sample is SPD; the
    interpolant is checked on a fine grid as well. The seed perturbs a fixed
    shape by a few percent, which changes every input without changing how
    hard the workload is.
    """
    t = SAMPLE_TIMES
    jitter = rng.uniform(0.97, 1.03, 6)
    lam1 = 1.0 + 0.25 * jitter[0] * np.sin(2.0 * np.pi * t + 0.5 * jitter[1])
    lam2 = 0.6 + 0.15 * jitter[2] * np.cos(np.pi * t + 1.0 * jitter[3])
    theta = 0.4 * jitter[4] + 0.8 * jitter[5] * t
    rot = np.stack([np.stack([np.cos(theta), -np.sin(theta)], -1),
                    np.stack([np.sin(theta), np.cos(theta)], -1)], -2)
    a = rot @ (np.stack([lam1, lam2], -1)[..., None] * np.swapaxes(rot, -1, -2))
    a = 0.5 * (a + np.swapaxes(a, -1, -2))
    c0 = np.array([[0.2, 0.6], [-0.3, -0.1]]) * rng.uniform(0.97, 1.03, (2, 2))
    c1 = np.array([[0.2, -0.1], [0.25, -0.15]]) * rng.uniform(0.97, 1.03, (2, 2))
    c = c0 + c1 * np.sin(np.pi * t)[:, None, None]
    fine = PchipInterpolator(t, a, axis=0)(np.linspace(0.0, 1.0, 401))
    if np.linalg.eigvalsh(fine)[:, 0].min() <= 0.1:
        raise AssertionError("generated A(t) is not safely SPD")
    return t, a, c


def sweep_tabulated(seed, workdir):
    """A sweep of all four kinds plus a batch of window integrals, on tabulated data.

    The sweep keeps to t = 0.5, inside one interpolation piece: windows that
    contain a sample time make the source-time quadrature's cost vary
    several-fold between seeds (see bench/README.md). The ``coeffs`` batch
    measures those windows directly, at a cost that is steady in the seed.
    """
    rng = np.random.default_rng([seed, 1])
    times, a, c = tabulated_samples(rng)
    _write_samples(os.path.join(workdir, "a.csv"), ["t", "entry_11", "entry_12", "entry_22"],
                   times, [[m[0, 0], m[0, 1], m[1, 1]] for m in a])
    _write_samples(os.path.join(workdir, "c.csv"),
                   ["t", "entry_11", "entry_12", "entry_21", "entry_22"],
                   times, [m.reshape(-1) for m in c])
    base = {
        "problem": {"n": 2, "m": 2, "T": 1.0},
        "coefficients": {"A": {"preset": "tabulated", "path": "a.csv"},
                         "C": {"preset": "tabulated", "path": "c.csv"}},
    }
    sweep_config = os.path.join(workdir, "sweep.json")
    _write_json(sweep_config, dict(base, request={
        "command": "sweep", "kinds": list(SWEEP_KINDS),
        "p": [_p_token(p) for p in SWEEP_PS], "t": list(SWEEP_TS)}))
    # a fixed lattice of windows: the seed moves the data, not the windows
    ends, fracs = np.meshgrid(np.linspace(0.05, 1.0, 50), np.linspace(0.02, 1.0, 30))
    ends = ends.reshape(-1)
    starts = ends * (1.0 - fracs.reshape(-1))
    coeffs_config = os.path.join(workdir, "coeffs.json")
    _write_json(coeffs_config, dict(base, request={
        "command": "coeffs", "windows": [[float(lo), float(hi)] for lo, hi in zip(starts, ends)]}))

    wi = reference.WindowIntegrals.tabulated(times, a, c)
    expected = [(k, p, t) for k in SWEEP_KINDS for p in SWEEP_PS for t in SWEEP_TS]
    ref_ia, ref_ic = wi.windows(ends, ends - starts)
    refs = {}

    def ref(kind, p, t):
        key = (kind, p, t)
        if key not in refs:
            if kind in ("H", "K"):
                refs[key] = reference.initial_constant(wi, kind, p, t)
            else:
                refs[key] = reference.source_constant(wi, kind, p, t)
        return refs[key]

    def check_sweep(header, rows):
        col = {name: i for i, name in enumerate(header)}
        got = [(r[col["kind"]], _parse_p(r[col["p"]]), float(r[col["t"]])) for r in rows]
        if got != expected:
            return [RowCheck(False) for _ in expected]
        out = []
        for (kind, p, t), r in zip(expected, rows):
            value = float(r[col["value"]])
            convergent = r[col["convergent"]] == "true"
            if convergent:
                ok = math.isfinite(value) and value > 0.0
            else:
                ok = r[col["value"]] == "inf"
            expect = ref(kind, p, t)
            err = None
            if ok and convergent and math.isfinite(expect):
                err = _rel_err(value, expect)
            ok = ok and convergent == math.isfinite(expect)
            out.append(RowCheck(ok, err))
        return out

    def check_windows(header, rows):
        if len(rows) != COEFFS_WINDOWS:
            return [RowCheck(False) for _ in range(COEFFS_WINDOWS)]
        col = {name: i for i, name in enumerate(header)}
        out = []
        for r, lo, hi, ia, ic in zip(rows, starts, ends, ref_ia, ref_ic):
            got_ia = np.array([[float(r[col["ia_11"]]), float(r[col["ia_12"]])],
                               [float(r[col["ia_12"]]), float(r[col["ia_22"]])]])
            got_ic = np.array([float(r[col[f"ic_{i}{j}"]]) for i in (1, 2) for j in (1, 2)])
            ok = (float(r[col["tau"]]) == lo and float(r[col["t"]]) == hi
                  and np.all(np.isfinite(got_ia)) and np.all(np.isfinite(got_ic))
                  and float(r[col["det_ia_sqrt"]]) > 0.0)
            err = None
            if ok:
                err = max(np.linalg.norm(got_ia - ia) / np.linalg.norm(ia),
                          np.linalg.norm(got_ic - ic.reshape(-1)) / np.linalg.norm(ic))
                err = max(float(err), REL_ERR_FLOOR)
            out.append(RowCheck(ok, err))
        return out

    def check(outputs):
        return check_sweep(*outputs[0]) + check_windows(*outputs[1])

    return Workload([
        Invocation("sweep", sweep_config, os.path.join(workdir, "sweep.csv"), 1),
        Invocation("coeffs", coeffs_config, os.path.join(workdir, "coeffs.csv"), 1),
    ], check, len(expected) + COEFFS_WINDOWS)


# ---------------------------------------------------------------------------
# heat-threshold

HEAT_DISTANCES = (0.1, 0.4)  # above the threshold, scaled by a seeded jitter
HEAT_BELOW = 0.2  # one divergent exponent below each threshold
HEAT_KINDS = ("N", "C_ell")


def heat_exponents(rng, n, kind):
    thr = reference.threshold(n, kind)
    jitter = rng.uniform(0.98, 1.02, len(HEAT_DISTANCES) + 1)
    below = thr - HEAT_BELOW * jitter[0]
    return [round(below, 6)] + [round(thr + d * j, 6) for d, j in zip(HEAT_DISTANCES, jitter[1:])]


def heat_threshold(seed, workdir):
    rng = np.random.default_rng([seed, 2])
    invocations = []
    expected = []
    for n in (1, 2):
        ps = {kind: heat_exponents(rng, n, kind) for kind in HEAT_KINDS}
        # the sweep command shares one p list across kinds: run one per kind
        for kind in HEAT_KINDS:
            config = os.path.join(workdir, f"heat_n{n}_{kind}.json")
            _write_json(config, {
                "problem": {"n": n, "m": 1, "T": 1.0},
                "request": {"command": "sweep", "kinds": [kind], "p": ps[kind],
                            "t": [1.0], "ell": [[1.0] + [0.0] * (n - 1)]},
            })
            invocations.append(Invocation("sweep", config,
                               os.path.join(workdir, f"heat_n{n}_{kind}.csv"), 1))
            expected.append([(n, kind, p) for p in ps[kind]])

    def check(outputs):
        out = []
        for (header, rows), exp in zip(outputs, expected):
            col = {name: i for i, name in enumerate(header)}
            if [(r[col["kind"]], float(r[col["p"]])) for r in rows] != [e[1:] for e in exp]:
                out.extend(RowCheck(False) for _ in exp)
                continue
            for (n, kind, p), r in zip(exp, rows):
                value = float(r[col["value"]])
                convergent = r[col["convergent"]] == "true"
                ok = convergent == (p > reference.threshold(n, kind))
                err = None
                if convergent:
                    ok = ok and math.isfinite(value) and value > 0.0
                    if ok:
                        err = _rel_err(value, reference.heat_source_constant(n, kind, p, 1.0))
                out.append(RowCheck(ok, err))
        return out

    return Workload(invocations, check, sum(len(e) for e in expected))


# ---------------------------------------------------------------------------
# verify-all


def verify_all(seed, workdir):
    config = os.path.join(workdir, "verify.json")
    _write_json(config, {"problem": {"n": 1, "m": 1, "T": 1.0},
                         "request": {"command": "verify", "cases": "all"}})

    def check(outputs):
        header, rows = outputs[0]
        col = {name: i for i, name in enumerate(header)}
        out = []
        for r in rows:
            ok = r[col["status"]] == "pass"
            out.append(RowCheck(ok, max(float(r[col["rel_diff"]]), REL_ERR_FLOOR) if ok else None))
        return out if rows else [RowCheck(False)]

    return Workload([Invocation("verify", config,
                    os.path.join(workdir, "verify.csv"), 2)], check)


# ---------------------------------------------------------------------------
# solve-source

SOLVE_TS = (0.5, 1.0)


def solve_source(seed, workdir):
    rng = np.random.default_rng([seed, 4])

    def jitter(shape=None):
        return rng.uniform(0.97, 1.03, shape)

    a0 = np.array([[1.0, 0.2], [0.2, 0.7]]) * jitter()
    a1 = np.array([[0.3, -0.1], [-0.1, 0.2]]) * jitter()
    b = np.array([0.2, -0.15]) * jitter(2)
    c = np.array([[-0.2, 0.5], [0.1, -0.4]]) * jitter((2, 2))
    center = np.array([0.1, -0.2]) * jitter(2)
    width = 0.7 * float(jitter())
    amplitude = np.array([1.0, -0.5]) * jitter(2)
    # points in one wedge with ell along it, so no row's derivative is near zero
    angles = np.array([0.2, 0.7, 1.2]) * jitter(3)
    points = [center + r * np.array([np.cos(a), np.sin(a)])
              for r, a in zip((0.5, 1.0, 1.5), angles)]
    ell = np.array([np.cos(angles[1]), np.sin(angles[1])])
    base = {
        "problem": {"n": 2, "m": 2, "T": 1.0},
        "coefficients": {"A": {"preset": "affine", "value": a0.tolist(), "slope": a1.tolist()},
                         "b": {"preset": "constant", "value": b.tolist()},
                         "C": {"preset": "constant", "value": c.tolist()}},
        "numerics": {"grid_points": 129},
    }
    request = {"command": "solve", "problem": "nonhomogeneous", "p": "inf",
               "points": [p.tolist() for p in points], "t": list(SOLVE_TS),
               "data": {"type": "gaussian", "amplitude": amplitude.tolist(),
                        "width": width, "center": center.tolist()}}
    invocations = []
    for label, direction in (("value", None), ("gradient", ell)):
        req = dict(request)
        if direction is not None:
            req["ell"] = direction.tolist()
        config = os.path.join(workdir, f"solve_{label}.json")
        _write_json(config, dict(base, request=req))
        invocations.append(Invocation("solve", config,
                           os.path.join(workdir, f"solve_{label}.csv"), 1))
    wi = reference.WindowIntegrals.affine(a0, a1, c)
    expected = [(x, t) for x in points for t in SOLVE_TS]
    refs = [[reference.source_solution(wi, t, x, b, center, width, amplitude, ell=d)
             for x, t in expected] for d in (None, ell)]

    def check(outputs):
        out = []
        for (header, rows), ref_rows in zip(outputs, refs):
            col = {name: i for i, name in enumerate(header)}
            if len(rows) != len(expected):
                out.extend(RowCheck(False) for _ in expected)
                continue
            for r, (x, t), ref in zip(rows, expected, ref_rows):
                u = np.array([float(r[col["u_1"]]), float(r[col["u_2"]])])
                ratio = float(r[col["ratio"]])
                pos_ok = np.allclose([float(r[col["x_1"]]), float(r[col["x_2"]]),
                                      float(r[col["t"]])], [*x, t], rtol=0, atol=1e-12)
                ok = (pos_ok and np.all(np.isfinite(u)) and math.isfinite(ratio)
                      and ratio <= 1.0 + SOLVE_RATIO_MARGIN)
                err = None
                if ok:
                    err = max(float(np.linalg.norm(u - ref) / np.linalg.norm(ref)), REL_ERR_FLOOR)
                out.append(RowCheck(ok, err))
        return out

    return Workload(invocations, check, 2 * len(expected))


WORKLOADS = {
    "sweep-tabulated": sweep_tabulated,
    "heat-threshold": heat_threshold,
    "verify-all": verify_all,
    "solve-source": solve_source,
}
