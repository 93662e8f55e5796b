"""Measuring process of the benchmark.

Runs the commands of one plan through ``mfquad.cli.main`` again and again
for a fixed time, checks every iteration's outputs, and writes one JSON
result.  run.py starts it as a fresh process, so its peak memory is the
program's alone:

    PYTHONPATH=src python3 perfbench/worker.py --plan P --seconds S --trace 0|1 --result R

run.py also limits BLAS to one thread in its environment.  With
``--trace 0`` only the spans of each command's units of work (epochs,
trials or counts) are timed, at most a few dozen calls per command.  With
``--trace 1`` every layer boundary in ``LAYER_WRAPS`` is.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from array import array
from pathlib import Path
from statistics import median

import calibrate
from tracer import Tracer
import workloads


def _vectors(args, result) -> int:
    return int(result.shape[0]) if getattr(result, "ndim", 1) == 2 else 1


def _file_bytes(args, result) -> int:
    return os.path.getsize(args[0])


# (module or module:Class, attribute, span, work units per call).
# Each public function is wrapped at every name a caller looks it up by.
LAYER_WRAPS = [
    ("mfquad.quadrature", "cross_polytope_signs", "quadrature.signs", _vectors),
    ("mfquad.projection", "cross_polytope_signs", "quadrature.signs", _vectors),
    ("mfquad.quadrature", "sign_sequence", "quadrature.signs", _vectors),
    ("mfquad.cli", "sign_sequence", "quadrature.signs", _vectors),
    ("mfquad.quadrature", "blocked_simplex_standard", "quadrature.blocked_simplex", None),
    ("mfquad.cli", "blocked_simplex_standard", "quadrature.blocked_simplex", None),
    ("mfquad.cli", "count_exact_pairs", "quadrature.count_exact_pairs", None),
    ("mfquad.cli", "trial_rng", "quadrature.trial_rng", None),
    ("mfquad.cli", "mc_nodes", "quadrature.sampling", None),
    ("mfquad.cli", "mean_matched_nodes", "quadrature.sampling", None),
    ("mfquad.cli", "moment_matched_nodes", "quadrature.sampling", None),
    ("mfquad.meanfield:OrthonormalBasis", "evaluate", "meanfield.basis_evaluate", None),
    ("mfquad.cli", "preset", "meanfield.setup", None),
    ("mfquad.cli", "orthonormal_basis", "meanfield.setup", None),
    ("mfquad.cli", "basis_product_expectation", "meanfield.setup", None),
    ("mfquad.models:LogisticModel", "evaluate", "models.evaluate", None),
    ("mfquad.models:MlpModel", "evaluate", "models.evaluate", None),
    ("mfquad.models:LogisticModel", "predict", "models.predict", None),
    ("mfquad.models:MlpModel", "predict", "models.predict", None),
    ("mfquad.cli", "read_idx", "models.read_idx", _file_bytes),
    ("mfquad.cli", "synth_sparse_logistic", "models.synth_data", None),
    ("mfquad.trainer", "quadratic_approx", "projection.quadratic_approx", None),
    ("mfquad.trainer", "variational_update", "trainer.variational_update", None),
    ("mfquad.trainer", "sieve_map", "trainer.sieve_map", None),
    ("mfquad.trainer", "zero_logits", "trainer.zero_logits", None),
    ("mfquad.cli", "run_epoch", "trainer.run_epoch", None),
    ("mfquad.trainer", "run_epoch", "trainer.run_epoch", None),
    ("mfquad.cli", "init_state", "trainer.init_state", None),
    ("mfquad.trainer", "init_state", "trainer.init_state", None),
    ("mfquad.cli", "save_checkpoint", "trainer.save_checkpoint", _file_bytes),
    ("mfquad.cli", "main", "cli.main", None),
]

# Spans of each command's units of work; the first call ends set-up.  Timed
# in untraced runs too.
UNIT_SPANS = {"trainer.run_epoch", "quadrature.trial_rng", "quadrature.count_exact_pairs"}

# Spans whose per-call self time is summarized (per sign vector for signs).
PER_CALL_SPANS = ("models.evaluate", "projection.quadratic_approx",
                  "trainer.sieve_map", "quadrature.signs")

PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def install(tracer: Tracer, traced: bool) -> None:
    for target, attr, span, count in LAYER_WRAPS:
        if not traced and span not in UNIT_SPANS:
            continue
        module_name, _, class_name = target.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name, None)
            if owner is None:
                tracer.missing.append(target)
                continue
        tracer.wrap(owner, attr, span, count)


def per_call_summary(samples, counts) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    values = sorted(s / c * 1e6 for s, c in zip(samples, counts) if c > 0)
    n = len(values)
    out = {"n": n}
    if not n:
        return out
    out["median_us"] = median(values)
    for p in PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            out[f"p{p:g}_us"] = values[max(math.ceil(p / 100.0 * n) - 1, 0)]
            break
    return out


def machine_info() -> dict:
    import numpy as np

    info = {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_env": {k: os.environ[k] for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    info["blas_threads"] = _blas_threads()
    return info


def _blas_threads():
    """Thread count the loaded OpenBLAS will use, or None if not OpenBLAS."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def run_iteration(plan: dict, tracer: Tracer, cli, clock, samples: dict) -> dict:
    """Runs every command once; adds per-call samples of PER_CALL_SPANS to ``samples``.

    The reference kernel runs before the first command, after each command,
    and after a unit of work once ``calibrate.EVERY_S`` has passed since it
    last ran.  A command's ``wall_s`` excludes the kernel runs inside it;
    ``ref`` holds its times in reference seconds.  In a traced run every
    unit span sits inside the traced ``cli.main``, so there the kernel runs
    inside a command only once ``cli.main`` has returned.
    """
    commands, codes, spans = [], [], {}
    marks = [calibrate.mark()]
    for cmd in plan["commands"]:
        tracer.reset()
        first, units = len(marks) - 1, []

        def on_exit(start, end):
            units.append((start, end))
            if end - marks[-1][1] >= calibrate.EVERY_S:
                marks.append(calibrate.mark())

        tracer.on_exit = on_exit
        t0 = clock()
        try:
            code = cli.main(list(cmd["argv"]))
        except Exception:  # a crash is a failed command, not a failed benchmark
            traceback.print_exc()
            code = "exception"
        t1 = clock()
        tracer.on_exit = None
        marks.append(calibrate.mark())
        own = marks[first:]
        inside = sum(e - b for b, e, _ in own[1:-1])
        stats = tracer.stats.get(cmd["unit_span"])  # epochs, trials or counts
        setup_end = t1 if stats is None else stats.first_start

        def ref(a, b):
            return calibrate.reference_seconds(own, a, b)

        commands.append({
            "wall_s": t1 - t0 - inside,
            "setup_s": None if stats is None else setup_end - t0,
            "units_s": None if stats is None else stats.total_s,
            "ref": {
                "wall_s": ref(t0, t1),
                "setup_s": None if stats is None else ref(t0, setup_end),
                "units_s": sum(ref(a, b) for a, b in units) if units else None,
            },
        })
        codes.append(code)
        for name, st in tracer.stats.items():
            acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                          "count": 0})
            acc["calls"] += st.calls
            acc["total_s"] += st.total_s
            acc["self_s"] += st.self_s
            acc["count"] += st.count
            if name in samples:
                samples[name][0].extend(st.samples)
                samples[name][1].extend(st.sample_counts)
    result = {"wall_s": sum(c["wall_s"] for c in commands),
              "kernel_s": [k for _, _, k in marks], "commands": commands,
              "exit_codes": codes, "spans": spans}
    result["check"] = workloads.check(plan, codes)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    import mfquad
    import mfquad.cli as cli

    src = (Path.cwd() / "src").resolve()
    if src not in Path(mfquad.__file__).resolve().parents:
        print(f"mfquad imported from {mfquad.__file__}, not from {src}", file=sys.stderr)
        return 2

    with open(args.plan) as fh:
        plan = json.load(fh)
    tracer = Tracer()
    install(tracer, traced=bool(args.trace))
    clock = time.perf_counter

    def new_samples():
        return {name: (array("d"), array("d")) for name in PER_CALL_SPANS}

    samples = new_samples()
    start = clock()
    # The first iteration warms caches and lazy imports up: it is checked,
    # but neither it nor its per-call samples are timed.
    iterations = [run_iteration(plan, tracer, cli, clock, new_samples())]
    iterations[0]["warmup"] = True
    durations = [clock() - start]  # with the kernel runs and the checks
    # Start another iteration only if it should end within --seconds, so a
    # run lasts about --seconds however long one iteration takes.
    while len(iterations) < 2 or clock() - start + median(durations) <= args.seconds:
        t0 = clock()
        iterations.append(run_iteration(plan, tracer, cli, clock, samples))
        durations.append(clock() - t0)
    tracer.unwrap_all()

    out = {
        "traced": bool(args.trace),
        "iterations": iterations,
        "missing": tracer.missing,
        "per_call": {name: per_call_summary(*samples[name]) for name in PER_CALL_SPANS}
        if args.trace else {},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine_info(),
    }
    with open(args.result, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
