"""Benchmark of the sharp-parabolic CLI on seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. The benchmark writes the workload's configs under
``.bench_work/``, then repeats the workload in fresh interpreters for about
``--seconds`` seconds, checks every CSV row against its reference, and
prints one JSON object as the last line of standard output.

With ``--trace 0`` it reports the end-to-end metrics (medians over the
repetitions, times scaled to a reference host speed); with ``--trace 1``
it alternates plain and traced repetitions and reports the per-layer
metrics. See bench/README.md for the metric definitions and which layer
should move which end-to-end metric.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5  # fewest setup samples behind the setup_s median
# The reference host speed, as child.calibration()'s time there. run_s and
# setup_s are wall medians times CALIBRATION_REF_S over the run's median
# calibration time: a shared host that slows everything down for minutes
# moves the wall times and the calibration alike, and the ratio stays.
CALIBRATION_REF_S = 0.25
RUN_DEADLINE_S = 165.0  # a run must end within 180 s; children are killed by then
# One thread per BLAS/OpenMP pool, so a workload runs exactly --threads threads.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
    }


class Runner:
    """Starts children in fresh interpreters and collects their results."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.count = 0
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.env = {k: v for k, v in os.environ.items() if k != "SHARP_PARABOLIC_THREADS"}
        self.env.update(THREAD_ENV)

    def run(self, argv_list, trace=False, setup_only=False):
        """(result dict or None, peak RSS in MiB, setup seconds or None).

        Setup is the time from starting the child to its first config
        loaded: interpreter start, imports and ``load_config``.
        """
        self.count += 1
        spec_path = os.path.join(self.workdir, f"spec{self.count}.json")
        result_path = os.path.join(self.workdir, f"result{self.count}.json")
        with open(spec_path, "w") as handle:
            json.dump({"src": SRC, "argv_list": argv_list, "trace": trace,
                       "setup_only": setup_only}, handle)
        log_path = os.path.join(self.workdir, f"child{self.count}.log")
        with open(log_path, "w") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "child.py"), spec_path, result_path],
                cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT,
            )
            timeout = max(1.0, self.deadline - time.perf_counter())
            watchdog = threading.Timer(timeout, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
        rss = usage.ru_maxrss / 1024.0
        if os.waitstatus_to_exitcode(status) != 0:
            with open(log_path) as log:
                sys.stderr.write(log.read()[-2000:])
            return None, rss, None
        with open(result_path) as handle:
            result = json.load(handle)
        setup = None if result["loaded_at"] is None else result["loaded_at"] - spawned
        return result, rss, setup


def check_rep(workload, result):
    """Row checks of one repetition; a failed command fails all its rows."""
    if result is None or any(code != 0 for code in result["codes"]):
        return None
    outputs = []
    for inv in workload.invocations:
        if not os.path.exists(inv.out):
            return None
        outputs.append(workloads.read_csv(inv.out))
    return workload.check(outputs)


def gmean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values))


def measure(workload, runner, seconds, trace):
    """Repeat the workload for about ``seconds``.

    A plain run makes at least two repetitions, a traced run at least one
    plain and one traced; no repetition starts that would end past the
    budget at the pace so far. Each plain repetition also gives a setup
    sample, since its child starts, imports and loads a config first, and
    one calibration time per command.
    """
    argv_list = [inv.argv() for inv in workload.invocations]
    plain, traced, setups, calibrations = [], [], [], []
    attempted = failed = 0
    rows_per_rep = workload.expected_rows
    start = time.perf_counter()
    durations = []
    while True:
        for mode in ([False, True] if trace else [False]):
            for inv in workload.invocations:
                if os.path.exists(inv.out):
                    os.remove(inv.out)
            t0 = time.perf_counter()
            result, rss, setup = runner.run(argv_list, trace=mode)
            durations.append(time.perf_counter() - t0)
            if not mode and result is not None:
                setups.append(setup)
                calibrations.extend(result["calibration"])
            checks = check_rep(workload, result)
            if checks is None:
                attempted += rows_per_rep or 1
                failed += rows_per_rep or 1
                continue
            rows_per_rep = rows_per_rep or len(checks)
            attempted += len(checks)
            failed += sum(1 for c in checks if not c.ok)
            errors = [c.rel_err for c in checks if c.rel_err is not None]
            rep = {"run_s": sum(result["run_s"]), "rss": rss, "errors": errors, "result": result}
            (traced if mode else plain).append(rep)
        elapsed = time.perf_counter() - start
        reps = len(durations) // (2 if trace else 1)
        per_rep = elapsed / reps
        if reps >= (1 if trace else 2) and elapsed + per_rep > seconds:
            break
        if time.perf_counter() + per_rep > runner.deadline:
            break
    return plain, traced, setups, calibrations, attempted, failed


def end_to_end(plain, setups, calibrations):
    scale = CALIBRATION_REF_S / statistics.median(calibrations)
    metrics = {"setup_s": (statistics.median(setups) * scale, "s")}
    if plain:
        metrics["run_s"] = (statistics.median(r["run_s"] for r in plain) * scale, "s")
        metrics["peak_rss_mib"] = (statistics.median(r["rss"] for r in plain), "MiB")
        with_errors = [r["errors"] for r in plain if r["errors"]]
        if with_errors:
            metrics["max_rel_err"] = (statistics.median(max(e) for e in with_errors), "ratio")
            metrics["rel_err_gmean"] = (statistics.median(gmean(e) for e in with_errors), "ratio")
    return metrics


def per_layer(plain, traced):
    per_rep = []
    for rep in traced:
        res = rep["result"]
        spans = [tracer.Span(*s) for s in res["spans"]]
        per_rep.append(tracer.layer_metrics(spans, res["counters"], res["missing"]))
    metrics = {}
    for name, unit in tracer.LAYER_METRICS.items():
        values = [m[name] for m in per_rep if name in m]
        if values:
            metrics[name] = (statistics.median(values), unit)
    if plain and traced:
        ratio = statistics.median(r["run_s"] for r in traced) / statistics.median(
            r["run_s"] for r in plain)
        metrics["trace.overhead_frac"] = (ratio - 1.0, "ratio")
    return {k: metrics[k] for k in tracer.LAYER_METRICS if k in metrics}


def self_time_summary(traced):
    """Self time per span name of the first traced rep, largest first."""
    if not traced:
        return []
    spans = [tracer.Span(*s) for s in traced[0]["result"]["spans"]]
    by_name = tracer.self_time_by_name(spans)
    return sorted(((round(v, 4), k) for k, v in by_name.items()), reverse=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # on SIGTERM, unwind so the running child is killed and the work dir removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "sharp_parabolic", "__init__.py")):
        print(f"no package source at {SRC}/sharp_parabolic", file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        runner = Runner(workdir)
        print("# env: " + json.dumps(environment(), sort_keys=True))
        print(f"# workload: {args.workload} seed: {args.seed} trace: {args.trace}")
        plain, traced, setups, calibrations, attempted, failed = measure(
            workload, runner, args.seconds, args.trace)
        if args.trace:
            metrics = per_layer(plain, traced)
            print("# self time by span: " + json.dumps(self_time_summary(traced)))
        else:
            # workloads with few, long repetitions get extra setup-only children
            first = workload.invocations[0].argv()
            while len(setups) < SETUP_REPEATS:
                result, _, setup = runner.run([first], setup_only=True)
                if result is None:
                    raise RuntimeError("setup-only child failed")
                setups.append(setup)
                calibrations.extend(result["calibration"])
            metrics = end_to_end(plain, setups, calibrations)
            print("# wall setup_s samples: " + json.dumps([round(s, 4) for s in setups]))
            print("# calibration samples: " + json.dumps([round(c, 4) for c in calibrations]))
        print(f"# reps: plain {len(plain)} traced {len(traced)}; wall run_s per rep: "
              + json.dumps([round(r["run_s"], 4) for r in plain + traced]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
