"""Tests of the benchmark itself: smoke runs of every workload, the metric
names against BENCHMARK.json, and the tracer's accounting.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# Every metric the benchmark's definition names, with its unit.
NAMED_END_TO_END = {
    "setup_s": "s", "wall_s": "s", "cases_per_s": "1/s", "ladder_cells_per_s": "1/s",
    "exactness_count_s": "s", "peak_rss_mb": "MB", "val_accuracy": "fraction",
    "exact_zero_frac": "fraction", "commands_ok_frac": "fraction",
}
NAMED_PER_LAYER = [
    "quadrature.sign_vectors", "quadrature.signs_s", "quadrature.signs_us_per_vector",
    "quadrature.blocked_simplex_s", "quadrature.count_exact_pairs_s",
    "quadrature.sampling_s", "meanfield.basis_evaluate_calls",
    "meanfield.basis_evaluate_s", "meanfield.setup_s", "models.evaluate_calls",
    "models.evaluate_s", "models.evaluate_us_per_call", "models.predict_s",
    "models.read_idx_s", "models.read_idx_bytes", "projection.quadratic_approx_calls",
    "projection.self_s", "projection.self_us_per_call",
    "trainer.variational_update_calls", "trainer.variational_update_self_s",
    "trainer.sieve_map_calls", "trainer.sieve_map_s", "trainer.sieve_map_us_per_call",
    "trainer.zero_logits_s", "trainer.run_epoch_self_s", "trainer.init_state_s",
    "trainer.save_checkpoint_s", "trainer.checkpoint_bytes", "cli.self_s",
    "cli.output_bytes", "trace.overhead_frac", "trace.unattributed_frac",
]


def bench(cwd, workload, trace, *extra):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
           "--seconds", "0.05", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


def test_benchmark_json_matches_run_py():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert NAMED_END_TO_END == run.END_TO_END
    assert set(NAMED_PER_LAYER) <= set(run.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = bench(ROOT, workload, trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        assert any(line.split()[:1] == [name] for line in lines), name
    assert any(line.startswith("failed_frac ") for line in lines)
    report = json.loads(next(l for l in lines if l.startswith("report "))[7:])
    assert report["machine"]["nproc"] >= 1 and report["digests"]
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert all(k > 0 for k in report["per_iteration"]["kernel_s"])


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "train-logistic", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


class Toy:
    def outer(self, n):
        return self.inner(n) + self.inner(n)

    def inner(self, n):
        return n


def test_tracer_self_time_and_missing_names():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    assert tracer.wrap(Toy, "outer", "toy.outer")
    assert tracer.wrap(Toy, "inner", "toy.inner", count=lambda args, result: result)
    assert not tracer.wrap(Toy, "gone", "toy.gone")
    assert tracer.missing == ["Toy.gone"]
    exits = []
    tracer.on_exit = lambda start, end: exits.append((start, end))
    assert Toy().outer(3) == 6
    assert exits == [(0.0, 5.0)]  # the outermost span only
    outer, inner = tracer.stats["toy.outer"], tracer.stats["toy.inner"]
    # clock: outer 0..5, inner 1..2 and 3..4
    assert (outer.calls, outer.total_s, outer.self_s) == (1, 5.0, 3.0)
    assert (inner.calls, inner.total_s, inner.count) == (2, 2.0, 6)
    tracer.unwrap_all()
    assert not hasattr(Toy.outer, "__wrapped__")


def test_tracer_folds_reentry_of_the_same_span():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.wrap(Toy, "outer", "toy.both")
    tracer.wrap(Toy, "inner", "toy.both")
    Toy().outer(1)
    st = tracer.stats["toy.both"]
    assert (st.calls, st.total_s, st.self_s) == (1, 1.0, 1.0)
    tracer.unwrap_all()


def test_reference_seconds_scale_each_stretch_by_the_kernel_at_its_ends():
    import calibrate

    ref = calibrate.REF_KERNEL_S
    # kernel runs at [0, 1] and [3, 4] and [6, 7]: stretches [1, 3] and [4, 6]
    marks = [(0.0, 1.0, ref), (3.0, 4.0, ref), (6.0, 7.0, 2 * ref)]
    assert calibrate.reference_seconds(marks, 1.0, 6.0) == pytest.approx(2 + 2 * 2 / 3)
    assert calibrate.reference_seconds(marks, 2.0, 5.0) == pytest.approx(1 + 2 / 3)
    assert calibrate.kernel_s() > 0


def test_per_call_summary_percentile_has_ten_samples_beyond():
    import worker

    summary = worker.per_call_summary([i * 1e-6 for i in range(1, 1001)], [1] * 1000)
    assert summary["n"] == 1000
    assert summary["median_us"] == pytest.approx(500.5)
    assert summary["p99_us"] == pytest.approx(990.0)
    assert set(worker.per_call_summary([1e-6] * 15, [1] * 15)) == {"n", "median_us"}
