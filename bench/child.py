"""One measured repetition, run in a fresh interpreter.

    python3 bench/child.py SPEC.json RESULT.json

SPEC holds ``src`` (the package's source directory), ``argv_list`` (one CLI
argument list per command), ``trace`` and ``setup_only``. With
``setup_only`` the child imports the package, loads the first config and
exits. Otherwise each command runs through ``cli.main`` in this process,
timed from the moment its config is loaded to the moment its CSV is
written, and the result file gets the exit codes, the run times and, when
tracing, the spans and counters. Either way the result file records
``loaded_at``, the ``time.monotonic()`` reading (CLOCK_MONOTONIC, so the
parent can compare it with its own) when the first config was loaded.

Untraced children also time a fixed calibration kernel after the config
load (setup only) or after each command, outside every timed interval, and
record the times as ``calibration``: the parent divides its wall times by
them to take out the host's speed (see ``run.py``).
"""

import importlib
import json
import os
import sys
import time

CALIBRATION_LOOPS = 2_500_000  # about 0.25 s on a 2.1 GHz Xeon vCPU


def calibration():
    """Wall seconds of a fixed pure-Python loop.

    Timed next to the workloads on a shared 2-vCPU host, this loop's time
    tracked theirs more closely than a loop of small numpy calls or of
    200x200 matrix products, which slowed down more than the workloads did.
    """
    acc = 0
    start = time.perf_counter()
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


def main(spec_path, result_path):
    with open(spec_path) as handle:
        spec = json.load(handle)
    src = os.path.realpath(spec["src"])
    sys.path.insert(0, src)
    import sharp_parabolic
    from sharp_parabolic import cli, config

    if not os.path.realpath(sharp_parabolic.__file__).startswith(src + os.sep):
        raise SystemExit(f"sharp_parabolic was imported from {sharp_parabolic.__file__}")
    if spec.get("setup_only"):
        config.load_config(spec["argv_list"][0][2], command=spec["argv_list"][0][0])
        loaded_at = time.monotonic()
        with open(result_path, "w") as handle:
            json.dump({"loaded_at": loaded_at, "calibration": [calibration()]}, handle)
        return

    tracer = None
    if spec.get("trace"):
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracing

        modules = {}
        for name in tracing.MODULES:
            try:
                modules[name] = importlib.import_module(f"sharp_parabolic.{name}")
            except ModuleNotFoundError:  # a module a refactor removed: its metrics are absent
                pass
        tracer = tracing.Tracer()
        tracing.install(tracer, modules)

    loaded = []
    first_loaded_at = []
    load_config = cli.load_config

    def timed_load(*args, **kwargs):
        cfg = load_config(*args, **kwargs)
        loaded.append(time.perf_counter())
        if not first_loaded_at:
            first_loaded_at.append(time.monotonic())
        return cfg

    cli.load_config = timed_load
    codes, run_s, calibrations = [], [], []
    for argv in spec["argv_list"]:
        loaded.clear()
        if tracer is not None:
            code = tracer.call_in_span("run", cli.main, (argv,), {})
        else:
            code = cli.main(argv)
        end = time.perf_counter()
        codes.append(code)
        run_s.append(end - loaded[0] if loaded else None)
        if tracer is None:
            calibrations.append(calibration())

    result = {"codes": codes, "run_s": run_s, "calibration": calibrations,
              "loaded_at": first_loaded_at[0] if first_loaded_at else None}
    if tracer is not None:
        result["spans"] = [
            [s.id, s.parent, s.thread, s.name, s.start, s.end] for s in tracer.spans
        ]
        result["counters"] = tracer.totals()
        result["missing"] = tracer.missing
    with open(result_path, "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
