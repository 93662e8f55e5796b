"""mfquad benchmark: the command that runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-mlp --seed 1 --seconds 25 --trace 0

It writes the workload's inputs from ``--seed`` under ``.perfbench/``, runs
them through ``mfquad.cli.main`` in a fresh measuring process
(``worker.py``) for ``--seconds``, checks every output, and prints one line
per metric, a JSON report line (machine, artifact digests, per-call
percentiles, absent spans, failures) and, last, the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

End-to-end times are in reference seconds: each stretch of a command is
scaled by how fast the host ran a fixed kernel at its ends (``calibrate.py``).
``--trace 0`` gives the end-to-end metrics.  ``--trace 1`` spends half the
time untraced and half traced, and gives the per-layer metrics, including
the tracing overhead.  ``--smoke`` shrinks every workload to run in seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from operator import truediv
from statistics import median
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
TIME_LIMIT_S = 170.0

# BLAS on one thread.  With a worker thread per core on a small shared
# machine, each BLAS call waits for the slowest core, and identical runs of
# one ladder command took 3.9 s to 6.1 s; on one thread, 3.9 s to 4.4 s.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# name -> unit.  BENCHMARK.json holds the same names with their bounds.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cases_per_s": "1/s",
    "ladder_cells_per_s": "1/s",
    "exactness_count_s": "s",
    "peak_rss_mb": "MB",
    "val_accuracy": "fraction",
    "exact_zero_frac": "fraction",
    "commands_ok_frac": "fraction",
}

# name -> (unit, span, field); field "median_us" is the per-call median.
PER_LAYER_SPANS = {
    "quadrature.sign_vectors": ("count", "quadrature.signs", "count"),
    "quadrature.signs_s": ("s", "quadrature.signs", "self_s"),
    "quadrature.signs_us_per_vector": ("us", "quadrature.signs", "median_us"),
    "quadrature.blocked_simplex_s": ("s", "quadrature.blocked_simplex", "self_s"),
    "quadrature.count_exact_pairs_s": ("s", "quadrature.count_exact_pairs", "self_s"),
    "quadrature.sampling_s": ("s", "quadrature.sampling", "self_s"),
    "meanfield.basis_evaluate_calls": ("count", "meanfield.basis_evaluate", "calls"),
    "meanfield.basis_evaluate_s": ("s", "meanfield.basis_evaluate", "self_s"),
    "meanfield.setup_s": ("s", "meanfield.setup", "self_s"),
    "models.evaluate_calls": ("count", "models.evaluate", "calls"),
    "models.evaluate_s": ("s", "models.evaluate", "self_s"),
    "models.evaluate_us_per_call": ("us", "models.evaluate", "median_us"),
    "models.predict_s": ("s", "models.predict", "self_s"),
    "models.read_idx_s": ("s", "models.read_idx", "self_s"),
    "models.read_idx_bytes": ("bytes", "models.read_idx", "count"),
    "models.synth_data_s": ("s", "models.synth_data", "self_s"),
    "projection.quadratic_approx_calls": ("count", "projection.quadratic_approx", "calls"),
    "projection.self_s": ("s", "projection.quadratic_approx", "self_s"),
    "projection.self_us_per_call": ("us", "projection.quadratic_approx", "median_us"),
    "trainer.variational_update_calls": ("count", "trainer.variational_update", "calls"),
    "trainer.variational_update_self_s": ("s", "trainer.variational_update", "self_s"),
    "trainer.sieve_map_calls": ("count", "trainer.sieve_map", "calls"),
    "trainer.sieve_map_s": ("s", "trainer.sieve_map", "self_s"),
    "trainer.sieve_map_us_per_call": ("us", "trainer.sieve_map", "median_us"),
    "trainer.zero_logits_s": ("s", "trainer.zero_logits", "self_s"),
    "trainer.run_epoch_self_s": ("s", "trainer.run_epoch", "self_s"),
    "trainer.init_state_s": ("s", "trainer.init_state", "self_s"),
    "trainer.save_checkpoint_s": ("s", "trainer.save_checkpoint", "self_s"),
    "trainer.checkpoint_bytes": ("bytes", "trainer.save_checkpoint", "count"),
    "cli.self_s": ("s", "cli.main", "self_s"),
}
PER_LAYER = {name: unit for name, (unit, _, _) in PER_LAYER_SPANS.items()}
PER_LAYER.update({
    "cli.output_bytes": "bytes",
    "trace.overhead_frac": "fraction",
    "trace.unattributed_frac": "fraction",
})


def run_worker(plan_path: Path, result_path: Path, seconds: float, traced: bool,
               deadline: float) -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    cmd = [sys.executable, str(HERE / "worker.py"), "--plan", str(plan_path),
           "--seconds", repr(seconds), "--trace", str(int(traced)),
           "--result", str(result_path)]
    proc = subprocess.run(cmd, env=env, timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"measuring process exited {proc.returncode}")
    with open(result_path) as fh:
        return json.load(fh)


def timed(result: dict) -> list:
    """The iterations of a worker run after its warm-up iteration."""
    return [it for it in result["iterations"] if not it.get("warmup")]


def count_failures(plan: dict, result: dict) -> tuple[int, int, dict]:
    """Commands attempted and failed over all iterations of one worker run.

    Beyond the per-iteration checks, a command fails when its artifacts
    differ from the first iteration's (the CLI is deterministic) and, in a
    traced run of a training workload, when the model evaluations differ
    from 2 * n_pairs_per_case * cases trained.
    """
    attempted = failed = 0
    messages = {}
    first = result["iterations"][0]["check"]["digests"]
    for k, it in enumerate(result["iterations"]):
        check = it["check"]
        for i, cmd in enumerate(plan["commands"]):
            attempted += 1
            msgs = list(check["failures"].get(str(i), []))
            for path in cmd["outputs"]:
                name = Path(path).name
                if name in check["digests"] and check["digests"][name] != first.get(name):
                    msgs.append(f"{name} differs from iteration 0")
            evals = it["spans"].get("models.evaluate")
            if result["traced"] and "evaluations" in plan and evals is not None \
                    and evals["calls"] != plan["evaluations"]:
                msgs.append(f"models.evaluate_calls {evals['calls']} != "
                            f"{plan['evaluations']}")
            if msgs:
                failed += 1
                messages[f"iteration {k} command {i}"] = msgs
    return attempted, failed, messages


def end_to_end(plan: dict, result: dict, ok_frac: float, absent: list) -> tuple[dict, dict]:
    """End-to-end metrics over the timed untraced iterations, and their values.

    Times are in reference seconds (``calibrate.reference_seconds``).  Each
    metric is the median over the iterations after the warm-up one, so an
    iteration slowed by a burst of load elsewhere on the host moves it
    little.
    """
    roles = [c["role"] for c in plan["commands"]]
    per_it = {name: [] for name in ("setup_s", "wall_s", "work_s", "cases", "cells",
                                    "cells_s", "exactness_count_s", "raw_wall_s",
                                    "kernel_s")}
    quality = {}
    for it in timed(result):
        commands = [cmd["ref"] for cmd in it["commands"]]
        setups = []
        for cmd in commands:
            if cmd["setup_s"] is None:  # no set-up marker fired: count it all as set-up
                absent.append("setup marker")
            setups.append(cmd["wall_s"] if cmd["setup_s"] is None else cmd["setup_s"])
        units = it["check"]["units"]
        wall_s = sum(c["wall_s"] for c in commands)
        work_s = wall_s - sum(setups)
        per_it["setup_s"].append(sum(setups))
        per_it["wall_s"].append(wall_s)
        per_it["work_s"].append(work_s)
        per_it["raw_wall_s"].append(it["wall_s"])
        per_it["kernel_s"].append(median(it["kernel_s"]))
        if "cases" in units:
            # each case trained is one cell: one case at a budget of 2 * n_pairs
            per_it["cases"].append(units["cases"])
            per_it["cells"].append(units["cases"])
            per_it["cells_s"].append(work_s)
            # the epochs, which sieve coordinates to the exact zeros that
            # exact_zero_frac counts
            if commands[0]["units_s"] is not None:
                per_it["exactness_count_s"].append(commands[0]["units_s"])
        else:
            per_it["cases"].append(units["trials"])
            per_it["cells"].append(units["cells"])
            per_it["cells_s"].append(sum(c["wall_s"] - s for c, s, r in
                                         zip(commands, setups, roles) if r == "bench"))
            per_it["exactness_count_s"].append(
                sum(c["wall_s"] for c, r in zip(commands, roles) if r == "count"))
        for name, value in it["check"]["quality"].items():
            quality.setdefault(name, []).append(value)
    metrics = {
        "setup_s": median(per_it["setup_s"]),
        "wall_s": median(per_it["wall_s"]),
        "cases_per_s": median(map(truediv, per_it["cases"], per_it["work_s"])),
        "ladder_cells_per_s": median(map(truediv, per_it["cells"], per_it["cells_s"])),
        "exactness_count_s": (median(per_it["exactness_count_s"])
                              if per_it["exactness_count_s"] else None),
        "peak_rss_mb": result["peak_rss_mb"],
        "commands_ok_frac": ok_frac,
    }
    metrics.update({name: median(values) for name, values in quality.items()})
    return metrics, per_it


def per_layer(base: dict, traced: dict) -> dict:
    """Per-layer metrics: medians over the timed traced iterations."""
    its = timed(traced)
    metrics = {}
    for name, (unit, span, field) in PER_LAYER_SPANS.items():
        if field == "median_us":
            metrics[name] = traced["per_call"].get(span, {}).get("median_us", 0.0)
        else:
            metrics[name] = median([it["spans"].get(span, {}).get(field, 0) for it in its])
    metrics["cli.output_bytes"] = median([it["check"]["output_bytes"] for it in its])
    # the two halves ran at different times, so compare them in reference seconds
    untraced_wall = median([sum(c["ref"]["wall_s"] for c in it["commands"])
                            for it in timed(base)])
    traced_wall = median([sum(c["ref"]["wall_s"] for c in it["commands"]) for it in its])
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    metrics["trace.unattributed_frac"] = median([
        (it["wall_s"] - sum(s["self_s"] for s in it["spans"].values())) / it["wall_s"]
        for it in its])
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mfquad benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own test")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    root = Path.cwd()
    if not (root / "src" / "mfquad" / "__init__.py").is_file():
        print("perfbench: src/mfquad not found; run from the root of an mfquad "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    work = root / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        t0 = time.perf_counter()
        plan = workloads.prepare(args.workload, args.seed, work, args.smoke)
        inputs_s = time.perf_counter() - t0
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan))
        halves = [False, True] if args.trace else [False]
        seconds = args.seconds / len(halves)
        results = [run_worker(plan_path, work / f"result-{int(t)}.json", seconds, t,
                              deadline) for t in halves]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    attempted = failed = 0
    failures = {}
    for res in results:
        a, f, msgs = count_failures(plan, res)
        attempted += a
        failed += f
        failures.update({f"{'traced' if res['traced'] else 'untraced'} {k}": v
                         for k, v in msgs.items()})
    absent = list(results[-1]["missing"])
    per_iteration = None
    if args.trace:
        values, units = per_layer(results[0], results[1]), PER_LAYER
        spans = set().union(*(it["spans"] for it in results[1]["iterations"]))
        absent += {span for _, span, _ in PER_LAYER_SPANS.values()} - spans
    else:
        values, per_iteration = end_to_end(plan, results[0], 1.0 - failed / attempted,
                                           absent)
        units = END_TO_END
        absent += [name for name in units if values.get(name) is None]

    metrics = {}
    for name, unit in units.items():
        value = values.get(name)
        metrics[name] = {"value": 0.0 if value is None else value, "unit": unit}
        print(f"{name:36s} {metrics[name]['value']:>16.6g} {unit}")
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} commands)")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "iterations": [len(timed(r)) for r in results],
        "warmup_iterations": [len(r["iterations"]) - len(timed(r)) for r in results],
        "input_generation_s": inputs_s,
        "machine": results[0]["machine"],
        "digests": results[0]["iterations"][0]["check"]["digests"],
        "per_call": results[-1]["per_call"],
        "per_iteration": per_iteration,
        "absent": sorted(set(absent)),
        "failures": failures,
    }
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
