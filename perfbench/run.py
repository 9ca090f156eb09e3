#!/usr/bin/env python3
"""The repository benchmark: one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload train-resgcn --seed 0 \\
        --seconds 30 --trace 0

Workloads: ``train-resgcn``, ``sweep-dse`` and ``serve-mixed`` (see
:mod:`workloads` and BENCHMARK.json; README.md lists what each metric
means on each workload). With
``--trace 0`` the run is untimed by any tracing and reports the end-to-end
metrics; with ``--trace 1`` it measures half the time untraced, then sets
up and measures again with span recorders around the program's public
entry points, and reports the per-layer metrics, the wall share no span
claims, and the tracing overhead on each timing metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (environment, sample counts, output digests, errors).
"""

from __future__ import annotations

import os
import sys

# One BLAS thread per process: OpenBLAS otherwise starts a pool per
# process, and the server subprocess inherits this environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")



def declared_metrics(kind: str):
    """(name, unit) of every ``kind`` metric BENCHMARK.json lists."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


def report(values, kind: str, default=None):
    """The declared ``kind`` metrics with their units, taken from
    ``values``. A value no metric declares is an error; a declared metric
    without a value reads ``default`` (an error when that is None)."""
    declared = declared_metrics(kind)
    undeclared = set(values) - {name for name, _ in declared}
    if undeclared:
        raise KeyError(f"metrics missing from BENCHMARK.json {kind}: "
                       f"{sorted(undeclared)}")
    out = {}
    for name, unit in declared:
        if name not in values and default is None:
            raise KeyError(f"no value for the {kind} metric {name}")
        out[name] = {"value": float(values.get(name, default)),
                     "unit": unit}
    return out


def openblas_threads():
    """OpenBLAS's thread count as the loaded library reports it."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def environment():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": openblas_threads(),
        "machine": platform.machine(),
    }


def end_to_end(setup_s, m):
    from workloads import peak_rss_mb

    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb() + m.child_rss_mb,
        "success_ratio": 1.0 - m.failed / max(m.attempted, 1),
        "result_s": m.result_s,
    }


def run(args, workdir):
    import threading

    from stats import median
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, workdir)
    details = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace}
    try:
        setup_times = []
        for _ in range(wl.setup_reps):
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
        setup_s = median(setup_times)
        details["setup_times_s"] = setup_times
        seconds = args.seconds / 2.0 if args.trace else args.seconds
        m0 = wl.measure(seconds)
        e2e = end_to_end(setup_s, m0)
        attempted, failed = m0.attempted, m0.failed
        details["measure"] = m0.details
        details["output_digest"] = m0.output_digest
        details["bench_threads"] = threading.active_count()
        if not args.trace:
            metrics = report(e2e, "end_to_end")
        else:
            metrics, traced = trace_run(wl, seconds, m0, e2e)
            attempted += traced["attempted"]
            failed += traced["failed"]
            details["traced"] = traced
    finally:
        wl.close()
    details["errors"] = wl.errors[:20]
    details["environment"] = environment()
    return details, {"correct": failed == 0, "attempted": attempted,
                     "failed": failed, "metrics": metrics}


def trace_run(wl, seconds, m0, untraced):
    """Set up and measure once more with the span recorders installed.
    The traced outputs must match the untraced ones (``m0``): both runs
    use the same seeds, so a difference counts as a failure."""
    from layers import LAYER_MAP, OVERHEAD_METRICS, TARGETS, per_layer_metrics
    from spans import Recorder, Span, install, uninstall

    recorder = Recorder()
    undo = install(recorder, TARGETS)
    try:
        t_setup = time.perf_counter()
        wl.setup(traced=True)
        t_measure = time.perf_counter()
        # train/sweep: exactly one round, so per-layer totals are the work
        # of one fixed unit; serve runs its rate search and mixed phase.
        m1 = wl.measure(seconds, rounds=None if wl.name == "serve-mixed"
                        else 1)
    finally:
        uninstall(undo)
    spans = recorder.spans + [Span.from_jsonable(s)
                              for s in wl.remote_spans()]

    def within(lo, hi):
        return [s for s in spans if s.start >= lo and s.end <= hi]

    # Layers are measured over the traced measurement; graph generation,
    # which moves setup_s, over the traced set-up.
    window = (t_measure, m1.work_end)
    layer = per_layer_metrics(within(*window), window)
    setup_layer = per_layer_metrics(within(t_setup, t_measure),
                                    (t_setup, t_measure))
    for name in ("graphs.load_dataset.s", "graphs.load_dataset.self_s"):
        layer[name] = setup_layer[name]
    layer.update(m1.layer)
    setup_s = t_measure - t_setup
    traced = end_to_end(setup_s, m1)
    for name in OVERHEAD_METRICS:
        base = untraced[name]
        layer[f"trace.overhead.{name}"] = (traced[name] / base - 1.0
                                           if base else 0.0)
    failed = m1.failed
    if m1.output_digest != m0.output_digest:
        failed += 1
        wl.errors.append(f"traced outputs differ: {m1.output_digest} "
                         f"untraced {m0.output_digest}")
    # Layers a workload does not run (serve.* off serve-mixed) read 0.
    metrics = report(layer, "per_layer", default=0.0)
    return metrics, {"attempted": m1.attempted, "failed": failed,
                     "output_digest": m1.output_digest,
                     "end_to_end": traced, "untraced_end_to_end": untraced,
                     "spans": len(spans), "measure": m1.details,
                     "layer_map": LAYER_MAP}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-resgcn", "sweep-dse",
                                 "serve-mixed"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: the program sources are missing "
              f"({os.path.join('src', 'repro')} under {ROOT}); run from a "
              "full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, SRC]
    workdir = os.path.join(ROOT, ".perfbench_work",
                           f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        details, result = run(args, workdir)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"details": details}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
