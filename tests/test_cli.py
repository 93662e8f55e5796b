"""CLI contract: CSV schemas, frozen counts, exit codes, determinism."""

import base64
import contextlib
import copy
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import mfquad.cli
import mfquad.models
import mfquad.quadrature
import mfquad.trainer
import oracles
from mfquad.cli import (
    ConfigError,
    _build_model,
    _resolve_data,
    load_run_config,
    main,
    parse_basis,
)
from mfquad.meanfield import OrthonormalBasis, orthonormal_basis, preset
from mfquad.models import write_idx
from mfquad.trainer import (
    TrainConfig,
    init_state,
    load_checkpoint,
    load_resume,
    run_epoch,
    save_checkpoint,
)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ------------------------------------------------------------ basis spec


def test_parse_basis():
    assert parse_basis("phi2:0", 4) == [(0, 2)]
    assert parse_basis("phi1:0*phi1:3", 4) == [(0, 1), (3, 1)]
    with pytest.raises(ConfigError, match="expected"):
        parse_basis("phi:0", 4)
    with pytest.raises(ConfigError, match="coordinate 5"):
        parse_basis("phi1:5", 4)


# -------------------------------------------------------- integrate-bench


def bench(tmp_path, *extra):
    tmp_path.mkdir(parents=True, exist_ok=True)
    out = tmp_path / "bench.csv"
    code = main(
        ["integrate-bench", "--out", str(out), *extra]
    )
    return code, out


def test_bench_cross_polytope_pair_product_exact(tmp_path):
    code, out = bench(
        tmp_path,
        "--dist", "gauss", "--method", "cross-polytope", "--d", "4",
        "--basis", "phi1:0*phi1:1", "--trials", "40", "--max-evals", "32",
        "--seed", "1",
    )
    assert code == 0
    rows = read_rows(out)
    assert rows[0] == ["n_evals", "q05", "q50", "q95", "mean_abs_err"]
    assert [r[0] for r in rows[1:]] == ["4", "8", "16", "32"]
    for row in rows[1:]:
        assert all(abs(float(v)) < 1e-12 for v in row[1:])


def test_bench_cross_polytope_cubic_exact(tmp_path):
    for dist in ("gauss", "laplace"):
        code, out = bench(
            tmp_path,
            "--dist", dist, "--method", "cross-polytope", "--d", "4",
            "--basis", "phi3:0", "--trials", "30", "--max-evals", "16",
        )
        assert code == 0
        for row in read_rows(out)[1:]:
            assert all(abs(float(v)) < 1e-12 for v in row[1:])


def test_bench_mc_error_shrinks(tmp_path):
    code, out = bench(
        tmp_path,
        "--dist", "gauss", "--method", "mc", "--d", "2",
        "--basis", "phi2:0", "--trials", "300", "--max-evals", "256",
        "--seed", "7",
    )
    assert code == 0
    rows = {int(r[0]): r for r in read_rows(out)[1:]}
    assert set(rows) == {2, 4, 8, 16, 32, 64, 128, 256}
    assert float(rows[16][4]) / float(rows[256][4]) > 1.5


def test_bench_qmc_var_spike_slab_anomaly(tmp_path):
    # With two spike-and-slab samples, both land on the spike 25% of the
    # time; deviation matching is skipped and both nodes sit at the mean,
    # so the signed error equals the degree-2 factor at that point.
    code, out = bench(
        tmp_path,
        "--dist", "spikeslab", "--method", "qmc-var", "--d", "2",
        "--basis", "phi2:0", "--trials", "200", "--max-evals", "8",
        "--seed", "3",
    )
    assert code == 0
    first = read_rows(out)[1]
    assert first[0] == "2"
    dist = preset("spikeslab", 2)
    basis = orthonormal_basis(dist)
    anomaly = float(basis.evaluate(0, 2, np.array([dist.mean[0]]))[0])
    assert abs(anomaly) > 0.5
    assert float(first[1]) == pytest.approx(anomaly, abs=1e-12)  # q05
    assert float(first[2]) == pytest.approx(0.0, abs=1e-12)      # q50


def test_bench_blocked_simplex_within_block_exact(tmp_path):
    code, out = bench(
        tmp_path,
        "--dist", "laplace", "--method", "blocked-simplex", "--d", "4",
        "--basis", "phi1:0*phi1:1", "--trials", "25", "--max-evals", "24",
        "--block-size", "2",
    )
    assert code == 0
    rows = read_rows(out)[1:]
    assert [r[0] for r in rows] == ["3", "6", "12", "24"]
    for row in rows:
        assert all(abs(float(v)) < 1e-12 for v in row[1:])


def test_bench_deterministic(tmp_path):
    args = (
        "--dist", "gauss", "--method", "qmc-mean", "--d", "3",
        "--basis", "phi2:1", "--trials", "50", "--max-evals", "16",
        "--seed", "11",
    )
    _, out_a = bench(tmp_path / "a", *args)
    _, out_b = bench(tmp_path / "b", *args)
    assert out_a.read_bytes() == out_b.read_bytes()


def test_bench_config_errors(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    base = ["integrate-bench", "--dist", "gauss", "--method", "mc", "--out", out]
    assert main(base + ["--basis", "phi1:9", "--d", "4"]) == 2
    assert main(base + ["--basis", "junk", "--d", "4"]) == 2
    assert main(base + ["--basis", "phi1:0", "--trials", "0"]) == 2
    assert main(base + ["--basis", "phi1:0", "--max-evals", "1"]) == 2
    # numpy refuses these 7.11 PiB before allocating anything
    capsys.readouterr()
    assert main(base + ["--basis", "phi1:0", "--d", "1000000000000000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1, err
    # argparse rejects unknown choices with exit code 2
    assert main(["integrate-bench", "--dist", "gauss", "--method", "bogus",
                 "--basis", "phi1:0", "--out", out]) == 2


@pytest.mark.parametrize("dist, degree", [
    ("gauss", 25), ("gauss", 30), ("gauss", 40), ("gauss", 200), ("laplace", 40),
    ("laplace", 200), ("spikeslab", 25),
])
def test_bench_basis_the_moments_cannot_resolve_exits_2_on_one_line(tmp_path, capsys,
                                                                    dist, degree):
    # The basis factored from the raw moments is off orthonormal by max
    # |C H C^T - I| = 1.1e-6 at Gaussian degree 25, 2.9e-4 at 30 and 1.23 at
    # 40, 199 at Laplace degree 40 and 0.19 at spike-slab degree 25: errors
    # against it mean nothing.  At degree 200 the Gaussian moments overflow
    # without a warning and their Hankel matrix does not factor, and the
    # Laplace moments' factorials overflow.
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["integrate-bench", "--dist", dist, "--method", "mc", "--d", "2",
                     "--basis", f"phi{degree}:1", "--trials", "3", "--max-evals", "4",
                     "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("config error:") and err.count("\n") == 1, err
    if degree < 200:
        assert f"degree-{degree} basis of coordinate 1 " in err, err
    assert not out.exists()
    # Gaussian degree 20 is orthonormal to 2.5e-9, inside the 1e-8 bound
    assert main(["integrate-bench", "--dist", "gauss", "--method", "mc", "--d", "2",
                 "--basis", "phi20:1", "--trials", "3", "--max-evals", "4",
                 "--out", str(out)]) == 0


@pytest.mark.parametrize("block_size", ["0", "-1", "-5"])
@pytest.mark.parametrize("command", [
    ["integrate-bench", "--dist", "gauss", "--basis", "phi1:0", "--trials", "2"],
    ["exactness-count", "--d", "8"],
], ids=["integrate-bench", "exactness-count"])
def test_blocked_simplex_block_size_below_1_exits_2(tmp_path, capsys, command, block_size):
    out = tmp_path / "out.csv"
    assert main([*command, "--method", "blocked-simplex", "--block-size", block_size,
                 "--max-evals", "16", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: --block-size must be >= 1, got {block_size}\n", err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", "-5"])
@pytest.mark.parametrize("command", [
    ["integrate-bench", "--dist", "gauss", "--method", "mc", "--basis", "phi1:0"],
    ["exactness-count", "--method", "cross-polytope", "--d", "8"],
], ids=["integrate-bench", "exactness-count"])
def test_negative_seed_flag_exits_2_naming_it(tmp_path, capsys, command, seed):
    out = tmp_path / "out.csv"
    assert main([*command, "--seed", seed, "--max-evals", "16", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: --seed must be >= 0, got {seed}\n", err
    assert not out.exists()


def test_negative_train_seeds_exit_2_naming_their_key(tmp_path, capsys):
    out = tmp_path / "run"
    config = tmp_path / "config.json"
    config.write_text('{"seed": -1}')
    # the config's seed is refused before the data is read
    assert main(["train", "--config", str(config), "--data",
                 f"mnist:{tmp_path / 'no-such-dir'}", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {config}: seed must be >= 0, got -1\n", err
    assert main(["train", "--data", "synth:d=8,k=2,n=40,nval=5,seed=-1",
                 "--epochs", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: synth spec seed must be >= 0, got -1\n", err
    assert not out.exists()


def test_bench_non_finite_estimate_exits_4(tmp_path, monkeypatch, capsys):
    def nan_evaluate(self, coord, degree, x):
        return np.full(np.shape(x), np.nan)

    monkeypatch.setattr(OrthonormalBasis, "evaluate", nan_evaluate)
    code, _ = bench(
        tmp_path,
        "--dist", "gauss", "--method", "cross-polytope", "--d", "4",
        "--basis", "phi1:0", "--trials", "2", "--max-evals", "8",
    )
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and err.count("\n") == 1, err


def _bench_grid(method):
    """integrate-bench argument lists over presets, block sizes 1-3,
    dimensions 1, 3, 7 and 64 and two seeds, cycling through a one-factor
    basis, a three-factor one and one with a repeated coordinate."""
    for d in (1, 3, 7, 64):
        bases = (f"phi3:{d - 1}", f"phi1:0*phi2:{d // 2}*phi1:{d - 1}",
                 f"phi2:{d // 2}*phi1:{d // 2}")
        for i, (dist, block_size, seed) in enumerate(
            (dist, b, s) for dist in ("gauss", "laplace", "spikeslab")
            for b in (1, 2, 3) for s in (0, 5)
        ):
            yield ["integrate-bench", "--dist", dist, "--method", method, "--d", str(d),
                   "--basis", bases[i % 3], "--trials", "4", "--max-evals", "48",
                   "--seed", str(seed), "--block-size", str(block_size)]


@pytest.mark.parametrize("method", mfquad.cli.BENCH_METHODS)
def test_bench_matches_the_per_cell_oracle(tmp_path, method):
    # Only the basis's columns, and one evaluation per trial, give the CSV
    # that full node sets evaluated one (trial, budget) cell at a time give.
    fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
    for argv in _bench_grid(method):
        assert main(argv + ["--out", str(fast)]) == 0
        args = mfquad.cli.build_parser().parse_args(argv + ["--out", str(slow)])
        oracles.cmd_integrate_bench(args)
        assert fast.read_bytes() == slow.read_bytes(), argv


def test_bench_evaluates_each_term_once_per_block(tmp_path, monkeypatch):
    calls = []
    evaluate = OrthonormalBasis.evaluate

    def counted(self, coord, degree, x):
        calls.append((coord, degree, np.shape(x)))
        return evaluate(self, coord, degree, x)

    monkeypatch.setattr(OrthonormalBasis, "evaluate", counted)
    argv = ["--dist", "laplace", "--method", "blocked-simplex", "--d", "9", "--basis",
            "phi1:7*phi2:2*phi1:7", "--trials", "5", "--max-evals", "24", "--block-size", "2"]
    assert bench(tmp_path, *argv)[0] == 0
    # the ladder 3, 6, 12, 24 is 45 nodes a trial, at two coordinates: one
    # block holds all five trials
    terms = [(7, 1), (2, 2), (7, 1)]
    assert calls == [(*term, (5, 45)) for term in terms]
    # a block of at most two trials' 2 x 45 values: 2 + 2 + 1 trials
    calls.clear()
    monkeypatch.setattr(mfquad.cli, "_CHUNK_VALUES", 2 * 45 * 2 + 1)
    assert bench(tmp_path, *argv)[0] == 0
    assert calls == [(*term, (t, 45)) for t in (2, 2, 1) for term in terms]


@pytest.mark.parametrize("method", mfquad.cli.BENCH_METHODS)
def test_bench_blocks_of_trials_match_the_per_cell_oracle(tmp_path, monkeypatch, method):
    # Blocks of 2 + 2 + 1 trials give the bytes that one (trial, budget)
    # cell at a time gives, for every rule and preset.
    fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
    block_size = 3 if method == "blocked-simplex" else 2
    budgets = mfquad.cli._ladder(method, block_size, 48)
    # two basis coordinates: a trial is 2 * sum(budgets) values
    monkeypatch.setattr(mfquad.cli, "_CHUNK_VALUES", 5 * sum(budgets) - 1)
    shapes = []
    evaluate = OrthonormalBasis.evaluate
    monkeypatch.setattr(OrthonormalBasis, "evaluate", lambda self, coord, degree, x: (
        shapes.append(np.shape(x)) or evaluate(self, coord, degree, x)))
    for dist in ("gauss", "laplace", "spikeslab"):
        argv = ["integrate-bench", "--dist", dist, "--method", method, "--d", "7",
                "--basis", "phi1:0*phi2:3*phi1:0", "--trials", "5", "--max-evals", "48",
                "--seed", "9", "--block-size", str(block_size)]
        shapes.clear()
        assert main(argv + ["--out", str(fast)]) == 0
        assert [n for n, _ in shapes] == [2] * 6 + [1] * 3
        args = mfquad.cli.build_parser().parse_args(argv + ["--out", str(slow)])
        oracles.cmd_integrate_bench(args)
        assert fast.read_bytes() == slow.read_bytes(), argv


def test_bench_non_finite_estimate_names_the_first_trial_in_order(tmp_path, monkeypatch,
                                                                   capsys):
    # One block holds all five trials.  Trial 3 fails at every budget, trial
    # 1 only at the last (16 nodes, values 12..27), and trial 4 overflows:
    # the error names trial 1, and trial 4 warns of nothing.
    evaluate = OrthonormalBasis.evaluate

    def failing(self, coord, degree, x):
        x = np.array(x)
        x[4] = 1e300
        out = evaluate(self, coord, degree, x)
        out[1, 12:] = np.nan
        out[3] = np.nan
        return out

    monkeypatch.setattr(OrthonormalBasis, "evaluate", failing)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = bench(tmp_path, "--dist", "gauss", "--method", "cross-polytope",
                          "--d", "4", "--basis", "phi3:0", "--trials", "5",
                          "--max-evals", "16")
    err = capsys.readouterr().err
    assert code == 4 and err == "numerical failure: non-finite estimate at n_evals=16, " \
        "trial 1\n", err
    assert not out.exists()


def test_bench_estimate_is_the_in_order_sum_of_bounded_ddots(monkeypatch):
    rng = np.random.default_rng(3)
    w, v = rng.random(20000), rng.standard_normal(20000)
    # up to _DOT_CHUNK values, w @ v itself
    assert mfquad.cli._dot(w[:8192], v[:8192]) == float(w[:8192] @ v[:8192])
    parts = [float(w[a:a + 8192] @ v[a:a + 8192]) for a in (0, 8192, 16384)]
    assert mfquad.cli._dot(w, v) == (parts[0] + parts[1]) + parts[2]
    monkeypatch.setattr(mfquad.cli, "_DOT_CHUNK", 10000)
    assert mfquad.cli._dot(w, v) == float(w[:10000] @ v[:10000]) + float(w[10000:] @ v[10000:])


def test_bench_csv_is_the_same_at_one_and_two_blas_threads(tmp_path):
    # OpenBLAS splits a ddot of over 10,000 values across its threads: the
    # rungs from 16,384 nodes on differed between one and two threads.
    root = Path(__file__).resolve().parents[1]
    outs = []
    for threads in ("1", "2"):
        outs.append(tmp_path / f"threads-{threads}.csv")
        env = {**os.environ, "PYTHONPATH": str(root / "src"), "OPENBLAS_NUM_THREADS": threads}
        subprocess.run(
            [sys.executable, "-m", "mfquad.cli", "integrate-bench", "--dist", "gauss",
             "--method", "mc", "--d", "4", "--basis", "phi1:0*phi1:3", "--trials", "3",
             "--max-evals", "262144", "--out", str(outs[-1])],
            env=env, check=True, timeout=120,
        )
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_bench_builds_one_sign_table_per_command(tmp_path, monkeypatch):
    # Every trial's windows are rows of one period of signs, built once.
    calls = []
    sign_sequence = mfquad.cli.sign_sequence

    def counted(*args):
        calls.append(args[:3])
        return sign_sequence(*args)

    monkeypatch.setattr(mfquad.cli, "sign_sequence", counted)
    code, _ = bench(tmp_path, "--dist", "gauss", "--method", "cross-polytope",
                    "--d", "12", "--basis", "phi1:3*phi2:10", "--trials", "6",
                    "--max-evals", "64")
    assert code == 0
    assert calls == [(12, 0, 16)]


def test_train_non_finite_node_exits_4_on_one_line(tmp_path, monkeypatch, capsys):
    # a NaN gradient at every node with margin above 1: the snapshot check
    # fails, and the error names the first such node, with no warning
    sigmoid = mfquad.models._sigmoid
    monkeypatch.setattr(
        mfquad.models, "_sigmoid", lambda z: np.where(z > 1.0, np.nan, sigmoid(z))
    )
    args = ["train", "--data", "synth:d=16,k=2,n=512,nval=16,seed=4",
            "--out", str(tmp_path / "run")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args) == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: non-finite loss evaluation"), err
    assert err.count("\n") == 1 and "at node array([" in err, err


# -------------------------------------------------------- exactness-count


def test_count_cross_polytope_frozen(tmp_path):
    out = tmp_path / "count.csv"
    code = main([
        "exactness-count", "--d", "64", "--method", "cross-polytope",
        "--max-evals", "128", "--out", str(out),
    ])
    assert code == 0
    rows = read_rows(out)
    assert rows[0] == ["method", "n_evals", "mean_exact_pairs", "exact_per_eval"]
    by_n = {int(r[1]): r for r in rows[1:]}
    assert float(by_n[4][2]) == 1024.0
    assert float(by_n[8][2]) == 1536.0
    assert float(by_n[128][2]) == 2016.0
    assert float(by_n[4][3]) == pytest.approx(256.0)


def test_count_cross_polytope_at_a_million_coordinates(tmp_path):
    # frozen: at 4 evaluations the pairs whose indices differ in bit 0 are
    # exact, floor(d/2) * ceil(d/2) of them, over half of C(d, 2).  The count
    # is closed-form, so no d x d guard applies.
    out = tmp_path / "count.csv"
    assert main(["exactness-count", "--method", "cross-polytope", "--d", "1000000",
                 "--max-evals", "4", "--out", str(out)]) == 0
    assert read_rows(out)[1] == ["cross-polytope", "4", "250000000000", "62500000000"]
    assert 250_000_000_000 > math.comb(10**6, 2) / 2


@pytest.mark.parametrize("argv", [
    ["--d", "3", "--max-evals", "1" + "0" * 400],  # budgets up to 2**1330
    ["--d", str(2**27 + 1)],  # 2**53 + 2**26 pairs
], ids=["budget-10**400", "d-2**27+1"])
def test_count_cross_polytope_past_exact_doubles_exits_2(tmp_path, capsys, argv):
    # Past 2**53 the CSV's floats would no longer be exact counts.
    out = tmp_path / "count.csv"
    argv = ["exactness-count", "--method", "cross-polytope", "--out", str(out)] + argv
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1, err
    assert "below 2**53" in err, err
    assert not out.exists()


def test_count_blocked_simplex(tmp_path):
    out = tmp_path / "count.csv"
    code = main([
        "exactness-count", "--d", "8", "--method", "blocked-simplex",
        "--block-size", "2", "--max-evals", "6", "--trials", "5",
        "--seed", "2", "--out", str(out),
    ])
    assert code == 0
    rows = read_rows(out)[1:]
    assert rows[0][0] == "blocked-simplex"
    assert int(rows[0][1]) == 3
    # four within-block pairs are deterministically exact at one group
    assert float(rows[0][2]) >= 4.0


def test_count_deterministic(tmp_path):
    args = ["exactness-count", "--d", "16", "--method", "blocked-simplex",
            "--max-evals", "12", "--trials", "3", "--seed", "5"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv, digest", [
    (["exactness-count", "--method", "blocked-simplex", "--d", "300", "--max-evals", "1024",
      "--trials", "2", "--block-size", "2"],
     "6ad8e03654971148407f944c133f425c91705bb6093205a700aba2b2d6376f8b"),
    (["exactness-count", "--method", "blocked-simplex", "--d", "300", "--max-evals", "1024",
      "--trials", "2", "--block-size", "5"],
     "4c323c6e633ea0c865eb47e5bf3146e9f9164692915d26b55dcb6e2a442123d2"),
    # 298 = 59 * 5 + 3: coordinate 297 is in a tail block
    (["integrate-bench", "--dist", "gauss", "--method", "blocked-simplex", "--d", "298",
      "--basis", "phi2:3*phi2:297", "--trials", "20", "--max-evals", "256",
      "--block-size", "5"],
     "844b599cf9a022f2e366335fa8782f6201be7c1d41882cf4e08bb5831305aa75"),
], ids=["count-b2", "count-b5", "bench-b5"])
def test_blocked_csvs_keep_their_bytes(tmp_path, argv, digest):
    # frozen: the count's integer codes and the rule's float nodes come from
    # one shuffle path, and these CSVs keep the float64 node Gram's bytes
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("argv, what", [
    # block size 1: the ladder 2, 4, ..., 2**29 adds 2**28 nodes at its last rung
    (["exactness-count", "--method", "blocked-simplex", "--block-size", "1", "--d", "3",
      "--max-evals", "1000000000"], "a rung of 268435456 nodes"),
    (["exactness-count", "--method", "blocked-simplex", "--d", "100000"],
     "a second-moment matrix"),
    (["integrate-bench", "--dist", "gauss", "--method", "mc", "--basis", "phi1:0",
      "--d", "100000000"], "256 nodes of dimension 100000000"),
    (["integrate-bench", "--dist", "gauss", "--method", "mc", "--basis", "phi1:0",
      "--d", "1000", "--max-evals", "1000000000"], "nodes of dimension 1000"),
    (["integrate-bench", "--dist", "laplace", "--method", "cross-polytope",
      "--basis", "phi100000:0", "--d", "8", "--max-evals", "8"], "a degree-100000 basis"),
    # the largest rung's 2**27 x 1 nodes fit; a trial's ladder of them does not
    (["integrate-bench", "--dist", "gauss", "--method", "mc", "--basis", "phi1:0",
      "--d", "1", "--max-evals", str(2**27)], "a trial's 268435454 x 1 node block"),
    # one blocked call shuffles every block of the trial's 2**18 - 2 nodes
    (["integrate-bench", "--dist", "gauss", "--method", "blocked-simplex", "--block-size", "1",
      "--basis", "phi1:0", "--d", "1024", "--max-evals", str(2**17)],
     "a trial's 262142 x 1024 block shuffle"),
    # the nodes (4 x 2**23) and the basis (2**23 x 16) fit; a period of signs
    # at 17 coordinates does not
    (["integrate-bench", "--dist", "gauss", "--method", "cross-polytope", "--d", str(2**23),
      "--basis", "*".join(f"phi1:{i}" for i in range(17)), "--max-evals", "4"],
     "a 8388608 x 17 sign table"),
    # the blocked rule's simplex point set is block_size x (block_size + 1)
    # whatever d is
    (["exactness-count", "--method", "blocked-simplex", "--d", "1", "--block-size", "11585",
      "--max-evals", "11586"], "a 11585 x 11586 simplex point set"),
    (["integrate-bench", "--dist", "gauss", "--method", "blocked-simplex", "--d", "1",
      "--basis", "phi1:0", "--block-size", "11585", "--max-evals", "11586"],
     "a 11585 x 11586 simplex point set"),
    # the rule gathers each node's blocks padded to block_size columns: at
    # d = 1 a rung of nodes fits, its gather does not
    (["exactness-count", "--method", "blocked-simplex", "--d", "1", "--block-size", "1000",
      "--max-evals", str(1001 * 2**9)], "a 256256 x 1 x 1000 padded block gather"),
    (["integrate-bench", "--dist", "gauss", "--method", "blocked-simplex", "--d", "1",
      "--basis", "phi1:0", "--block-size", "1000", "--max-evals", str(1001 * 2**7)],
     "a 255255 x 1 x 1000 padded block gather"),
    # one error per trial and rung
    (["integrate-bench", "--dist", "gauss", "--method", "mc", "--d", "1", "--basis", "phi1:0",
      "--trials", str(2**24), "--max-evals", "512"], "a 16777216 x 9 error table"),
])
def test_oversized_runs_exit_2_before_allocating(tmp_path, monkeypatch, capsys, argv, what):
    # The size guard refuses from the flags alone: neither the rule nor the
    # distribution is ever built.
    def never(*args, **kwargs):
        raise AssertionError("allocated past the size guard")

    for name in ("count_exact_pairs", "preset", "sign_sequence", "_blocked_nodes"):
        monkeypatch.setattr(mfquad.cli, name, never)
    assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1, err
    assert what in err and "GiB limit" in err, err
    assert not (tmp_path / "out.csv").exists()


def test_size_guard_admits_the_largest_array_at_the_limit(tmp_path, monkeypatch):
    # At d = 200 the sums of the tile pairs (0, 0), (0, 1) and (1, 1) of
    # 128 and 72 coordinates are 30,784 float32 values: exactly
    # MAX_ARRAY_BYTES pass, and one more coordinate fails.  The blocked
    # rule's other arrays (3 x 200 nodes, a 2 x 3 simplex point set, a
    # 3 x 100 x 2 gather) are far smaller.
    calls = []
    monkeypatch.setattr(mfquad.cli, "count_exact_pairs",
                        lambda d, method, budgets, **kw: calls.append(d) or [0.0] * len(budgets))
    monkeypatch.setattr(mfquad.cli, "MAX_ARRAY_BYTES", 4 * (128 * 128 + 128 * 72 + 72 * 72))
    argv = ["exactness-count", "--method", "blocked-simplex", "--max-evals", "3",
            "--out", str(tmp_path / "count.csv")]
    assert main(argv + ["--d", "200"]) == 0 and calls == [200]
    assert main(argv + ["--d", "201"]) == 2 and calls == [200]


@pytest.mark.parametrize("d, code", [(12000, 0), (23000, 0), (24000, 2)])
def test_count_guard_sizes_the_sums_the_count_keeps(tmp_path, monkeypatch, capsys, d, code):
    # At 3 evaluations the sums are float32 on the upper block triangle: 291
    # MB at d = 12,000 and 1.06 GB at 23,000 pass the 1 GiB limit, 1.16 GB
    # at 24,000 does not.  The count is stubbed: nothing is allocated.
    calls = []
    monkeypatch.setattr(mfquad.cli, "count_exact_pairs",
                        lambda d, method, budgets, **kw: calls.append(d) or [0.0] * len(budgets))
    out = tmp_path / "count.csv"
    assert main(["exactness-count", "--method", "blocked-simplex", "--d", str(d),
                 "--max-evals", "3", "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code == 0:
        assert calls == [d] and err == ""
    else:
        assert calls == [] and not out.exists()
        assert err == ("config error: the float32 sums on the upper block triangle of a "
                       "second-moment matrix of dimension 24000 would take 1.08 GiB, over "
                       "the 1 GiB limit of one array\n"), err


@pytest.mark.parametrize("argv", [
    ["exactness-count", "--method", "blocked-simplex", "--d", "1024", "--max-evals", "1024",
     "--trials", "10"],
    ["exactness-count", "--method", "cross-polytope", "--d", "64"],
    ["integrate-bench", "--dist", "gauss", "--method", "blocked-simplex", "--basis",
     "phi1:0*phi1:3", "--trials", "400"],
    ["integrate-bench", "--dist", "gauss", "--method", "cross-polytope", "--basis", "phi2:1"],
])
@pytest.mark.parametrize("out, parent", [
    ("missing/c.csv", "missing"),  # no parent directory
    ("file/c.csv", "file"),  # the parent is a file
    ("dir", None),  # --out is itself a directory
])
def test_unusable_out_exits_3_before_any_node_is_built(tmp_path, monkeypatch, capsys,
                                                         argv, out, parent):
    def never(*args, **kwargs):
        raise AssertionError("built nodes before checking --out")

    for name in ("count_exact_pairs", "preset", "sign_sequence", "_blocked_nodes"):
        monkeypatch.setattr(mfquad.cli, name, never)
    monkeypatch.setattr(mfquad.quadrature, "_blocked_nodes", never)
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    before = sorted(tmp_path.rglob("*"))
    assert main(argv + ["--out", str(tmp_path / out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: --out ") and err.count("\n") == 1, err
    want = f"{tmp_path / parent} is not a directory" if parent else "is a directory"
    assert want in err, err
    assert sorted(tmp_path.rglob("*")) == before


# ------------------------------------------------------------------ train


def test_train_synth_end_to_end(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "frac_zero_target": 0.5, "frac_held_target": 0.125, "seed": 3,
    }))
    out_dir = tmp_path / "run"
    code = main([
        "train", "--config", str(config),
        "--data", "synth:d=8,k=2,n=64,nval=32,noise=0.3,seed=1",
        "--out", str(out_dir), "--epochs", "3",
    ])
    assert code == 0
    rows = read_rows(out_dir / "epochs.csv")
    assert rows[0] == ["epoch", "J_train", "frac_zero_realizable", "frac_held",
                       "accuracy_val"]
    assert [r[0] for r in rows[1:]] == ["1", "2", "3"]
    for row in rows[1:]:
        assert 0.0 <= float(row[4]) <= 1.0

    state, cfg = load_checkpoint(out_dir / "checkpoint.json")
    assert cfg.n_epochs == 3
    assert cfg.frac_zero_target == 0.5
    zeros = state.realized_nonzero == 0
    assert zeros.sum() >= 4  # ceil(0.5 * 8) scheduled zeros
    assert np.all(state.mu[zeros] == 0.0)

    hist = read_rows(out_dir / "sieve_histogram.csv")
    assert hist[0] == ["epoch", "bin_low", "bin_high", "count", "log10_count"]
    for epoch in ("1", "2", "3"):
        total = sum(int(r[3]) for r in hist[1:] if r[0] == epoch)
        assert total == 8  # every coordinate lands in some bin


def test_train_epochs_zero_writes_init_only(tmp_path):
    out_dir = tmp_path / "run"
    code = main([
        "train", "--data", "synth:d=4,k=1,n=32,nval=8,seed=0",
        "--out", str(out_dir), "--epochs", "0",
    ])
    assert code == 0
    assert read_rows(out_dir / "epochs.csv") == [
        ["epoch", "J_train", "frac_zero_realizable", "frac_held", "accuracy_val"]
    ]
    state, _ = load_checkpoint(out_dir / "checkpoint.json")
    assert np.all(state.p_nonzero == 1.0)
    assert state.cur.n == 0


def test_train_deterministic_reruns(tmp_path):
    args = ["train", "--data", "synth:d=8,k=2,n=64,nval=16,seed=4",
            "--epochs", "2"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    for name in ("epochs.csv", "sieve_histogram.csv", "checkpoint.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_train_config_errors(tmp_path, capsys):
    out = str(tmp_path / "run")
    data = "synth:d=4,k=1,n=32,nval=8"
    bad_key = tmp_path / "bad.json"
    bad_key.write_text('{"learning_rate": 0.1}')
    assert main(["train", "--config", str(bad_key), "--data", data,
                 "--out", out]) == 2
    bad_json = tmp_path / "broken.json"
    bad_json.write_text("{not json")
    assert main(["train", "--config", str(bad_json), "--data", data,
                 "--out", out]) == 2
    assert main(["train", "--config", str(tmp_path / "missing.json"),
                 "--data", data, "--out", out]) == 3
    assert main(["train", "--data", "synth:bogus=1", "--out", out]) == 2
    assert main(["train", "--data", data + ",noise=nan", "--out", out]) == 2
    assert main(["train", "--data", "webscale:hi", "--out", out]) == 2
    # too many epochs for the case count starves the first epoch
    assert main(["train", "--data", data, "--out", out, "--epochs", "10"]) == 2
    # mistyped values: booleans are neither integers nor numbers
    mistyped = tmp_path / "mistyped.json"
    for doc in (
        {"n_epochs": "3"},
        {"n_epochs": 2.5},
        {"n_epochs": True},
        {"frac_zero_target": "0.5"},
        {"lr_init": None},
        {"lr_max": False},
        {"max_cases": 1.5},
        {"model": 3},
    ):
        mistyped.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["train", "--config", str(mistyped), "--data", data,
                     "--out", out]) == 2, doc
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1, err
    # an epoch count too large for a float starves the first epoch, too
    huge = tmp_path / "huge.json"
    huge.write_text('{"n_epochs": 1' + "0" * 400 + "}")
    capsys.readouterr()
    assert main(["train", "--config", str(huge), "--data", data, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1, err
    # config errors are reported before any data is read
    out_of_range = tmp_path / "out_of_range.json"
    for doc in ({"lr_init": 0.5}, {"max_cases": 0}):
        out_of_range.write_text(json.dumps(doc))
        assert main(["train", "--config", str(out_of_range),
                     "--data", f"mnist:{tmp_path / 'no-such-dir'}",
                     "--out", out]) == 2, doc


@pytest.mark.parametrize("noise", ["inf", "-inf", "nan", "-1"])
def test_train_synth_noise_must_be_finite_and_nonnegative(tmp_path, capsys, noise):
    out = tmp_path / "run"
    assert main(["train", "--data", f"synth:d=8,k=2,n=40,nval=5,noise={noise}",
                 "--epochs", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1, err
    assert "noise must be finite and nonnegative" in err, err
    assert not out.exists()


def test_train_synth_tiny_noise_runs_without_warnings(tmp_path, capsys):
    # signal / 1e-320 overflows to +-inf, whose sigmoid is exactly 0 or 1:
    # the labels are the noise-free sign labels, with no RuntimeWarning
    runs = {}
    for noise in ("1e-320", "0"):
        out = tmp_path / noise
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["train", "--data", f"synth:d=8,k=2,n=40,nval=5,noise={noise}",
                         "--epochs", "1", "--out", str(out)]) == 0
        runs[noise] = (out / "epochs.csv").read_bytes()
    assert capsys.readouterr().err == ""
    assert runs["1e-320"] == runs["0"]


@pytest.mark.parametrize("spec, message", [
    # a negative n once sliced 30 training cases from the end and exited 0
    ("d=8,k=2,n=-5,nval=40", "synth spec n must be >= 1, got -5"),
    ("d=8,k=2,n=0,nval=40", "synth spec n must be >= 1, got 0"),
    ("d=8,k=2,n=40,nval=0", "synth spec nval must be >= 1, got 0"),
    ("d=8,k=2,n=40,nval=-1", "synth spec nval must be >= 1, got -1"),
    ("d=-3,k=0,n=40,nval=5", "synth spec d must be >= 1, got -3"),
    ("d=0,n=40,nval=5", "synth spec d must be >= 1, got 0"),
    ("d=8,k=9,n=40,nval=5", "synth spec k must lie in 0..8, got 9"),
    ("d=8,k=-1,n=40,nval=5", "synth spec k must lie in 0..8, got -1"),
])
def test_train_synth_sizes_out_of_range_exit_2_naming_the_key(tmp_path, monkeypatch,
                                                             capsys, spec, message):
    def never(*args, **kwargs):
        raise AssertionError("drew data from a refused spec")

    monkeypatch.setattr(mfquad.cli, "synth_sparse_logistic", never)
    out = tmp_path / "run"
    assert main(["train", "--data", f"synth:{spec}", "--epochs", "2",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


_SIZES = st.integers(-32, 32)


@settings(deadline=None, max_examples=50, database=None)
@given(
    sizes=st.fixed_dictionaries({"d": _SIZES, "n": _SIZES, "nval": _SIZES}),
    extra=st.dictionaries(st.sampled_from(["k", "noise", "seed"]), _SIZES),
)
@example(sizes={"d": 1, "n": 1, "nval": 1}, extra={"k": 1})
@example(sizes={"d": 8, "n": -5, "nval": 32}, extra={"k": 2})
def test_train_synth_spec_fuzz_exits_0_or_2_on_at_most_one_line(sizes, extra):
    # Every small synth spec trains, or is refused with one config error
    # line if and only if a size, k, noise or seed is out of range; none
    # ends in a traceback or a warning.
    keys = {"k": 16, "noise": 1, "seed": 0, **sizes, **extra}
    valid = (min(sizes.values()) >= 1 and 0 <= keys["k"] <= keys["d"]
             and keys["noise"] >= 0 and keys["seed"] >= 0)
    spec = ",".join(f"{key}={value}" for key, value in {**sizes, **extra}.items())
    with tempfile.TemporaryDirectory() as tmp:
        stderr = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("error")
            code = main(["train", "--data", f"synth:{spec}", "--epochs", "1",
                         "--out", str(Path(tmp) / "run")])
    err = stderr.getvalue()
    event(f"exit {code}")
    assert code == (0 if valid else 2), (spec, code, err)
    if code == 0:
        assert err == "", (spec, err)
    else:
        assert err.startswith("config error: ") and err.count("\n") == 1, (spec, err)


# Sizes past 2**47 bytes, which numpy refuses at once even without the guard.
@pytest.mark.parametrize("doc, data, what", [
    ({"hidden_units": 10**15, "model": "mlp"}, "synth:d=8,k=2,n=40,nval=5",
     "a state array of 11000000000000002 parameters"),
    ({"n_pairs_per_case": 10**15}, "synth:d=8,k=2,n=40,nval=5",
     "a block of 1000000000000000 sign vectors of 8 parameters"),
    ({}, "synth:d=100000000,n=100000000",
     "a 100000500 x 100000000 synth feature matrix"),
])
def test_oversized_train_exits_2_before_allocating(tmp_path, monkeypatch, capsys,
                                                   doc, data, what):
    def never(*args, **kwargs):
        raise AssertionError("allocated past the size guard")

    for name in ("LogisticModel", "MlpModel", "init_state", "train"):
        monkeypatch.setattr(mfquad.cli, name, never)
    if not doc:  # the refused array is the data itself
        monkeypatch.setattr(mfquad.cli, "synth_sparse_logistic", never)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert main(["train", "--config", str(config), "--data", data,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1, err
    assert what in err and "GiB limit" in err, err
    assert not out.exists()


@pytest.mark.parametrize("doc", [
    {"slab_std_max": 1e-200},  # slab_std_max**2 underflows to 0
    {"slab_std_max": 1e200},  # slab_std_max**2 overflows
    {"lr_init": 1e-320, "n_epochs": 2},  # 1/lr_init overflows
    {"p_sieve_zero": 1e-310},  # 1/p_sieve_zero overflows: an infinite sieve target
])
def test_train_out_of_range_config_exits_2_on_one_line(tmp_path, capsys, doc):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    args = ["train", "--config", str(config), "--data", "synth:d=8,k=2,n=40,nval=5",
            "--out", str(tmp_path / "run")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1, err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("slab_std_max", [1e-154, 1e154])
def test_train_overflowing_update_exits_4_on_one_line(tmp_path, capsys, slab_std_max):
    # The config is in range, but the update's curvature overflows (or the
    # sieve meets inf - inf): the epoch's floating-point errors raise, so
    # the run ends with the one numerical-failure line and no warning.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"slab_std_max": slab_std_max, "n_epochs": 2}))
    args = ["train", "--config", str(config), "--data", "synth:d=8,k=2,n=40,nval=5",
            "--out", str(tmp_path / "run")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args) == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and err.count("\n") == 1, err
    # the message names where it happened: the epoch and the case's position
    assert re.match(r"numerical failure: epoch [12], case \d+ of 40: ", err), err
    assert not (tmp_path / "run" / "checkpoint.json").exists()


# Float fields at their edges: signed zeros, subnormals, the largest
# doubles, infinities and NaN, and the wrong JSON types; squares of 1e±154
# are near the float range's ends.  Values inside [0, 1] are mostly valid.
_EDGE_VALUES = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e308, -1e308, math.inf, -math.inf, math.nan,
    1e-154, 1e154, True, False, "0.5", None,
]) | st.floats(0.0, 1.0) | st.floats(allow_nan=True, allow_infinity=True)
_FLOAT_FIELDS = [f.name for f in fields(TrainConfig) if f.type == "float"]
_PREFIXES = {2: "config error: ", 4: "numerical failure: "}


@settings(deadline=None, max_examples=1000)
@given(
    floats=st.dictionaries(st.sampled_from(_FLOAT_FIELDS), _EDGE_VALUES, max_size=3),
    n_epochs=st.sampled_from([1, 2, 3] * 3 + [0, -1, 2.0, True, "2", None]),
    n_pairs=st.sampled_from([1, 2] * 3 + [0, -3, 1.5, False]),
)
@example(floats={}, n_epochs=3, n_pairs=2)
@example(floats={"slab_std_max": 1e154}, n_epochs=2, n_pairs=2)
@example(floats={"slab_std_max": 1e-154, "lr_max": 1e308}, n_epochs=2, n_pairs=1)
def test_train_config_fuzz_exits_0_2_or_4_on_at_most_one_line(floats, n_epochs, n_pairs):
    # The trainer's per-case loop relies on TrainConfig's guarantees, so
    # every config ends in success, a config error or a numerical failure,
    # each with at most one documented line, never a traceback or warning.
    doc = {**floats, "n_epochs": n_epochs, "n_pairs_per_case": n_pairs}
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(doc))
        stderr = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("error")
            code = main(["train", "--config", str(config), "--data",
                         "synth:d=8,k=2,n=16,nval=8", "--out", str(Path(tmp) / "run")])
    err = stderr.getvalue()
    event(f"exit {code}")
    assert code in (0, 2, 4), (code, err)
    if code == 0:
        assert err == ""
    else:
        assert err.startswith(_PREFIXES[code]) and err.count("\n") == 1, err


def make_idx_dir(root, n_train=24, n_val=8, side=7, n_classes=3, seed=0):
    rng = np.random.Generator(np.random.Philox(seed))
    root.mkdir(parents=True, exist_ok=True)
    write_idx(root / "train-images-idx3-ubyte", rng.random((n_train, side, side)))
    write_idx(root / "train-labels-idx1-ubyte",
              rng.integers(0, n_classes, size=n_train))
    write_idx(root / "t10k-images-idx3-ubyte", rng.random((n_val, side, side)))
    write_idx(root / "t10k-labels-idx1-ubyte",
              rng.integers(0, n_classes, size=n_val))


def test_train_mnist_style_idx_dir(tmp_path):
    data_dir = tmp_path / "idx"
    make_idx_dir(data_dir)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "hidden_units": 4, "frac_zero_target": 0.6, "frac_held_target": 0.05,
    }))
    out_dir = tmp_path / "run"
    code = main([
        "train", "--config", str(config), "--data", f"mnist:{data_dir}",
        "--out", str(out_dir), "--epochs", "2",
    ])
    assert code == 0
    rows = read_rows(out_dir / "epochs.csv")
    assert len(rows) == 3
    state, _ = load_checkpoint(out_dir / "checkpoint.json")
    assert state.dim == 7 * 7 * 4 + 4 + 4 * 3 + 3


def test_train_mnist_missing_file(tmp_path):
    data_dir = tmp_path / "idx"
    make_idx_dir(data_dir)
    (data_dir / "train-labels-idx1-ubyte").unlink()
    assert main(["train", "--data", f"mnist:{data_dir}",
                 "--out", str(tmp_path / "run")]) == 3
    assert main(["train", "--data", "mnist:",
                 "--out", str(tmp_path / "run")]) == 2


@pytest.mark.parametrize("damage, needle", [
    # label and image counts differ, in either split, with or without max_cases
    (lambda d: write_idx(d / "train-labels-idx1-ubyte", np.zeros(23, int)), "23 labels"),
    (lambda d: write_idx(d / "t10k-labels-idx1-ubyte", np.zeros(9, int)), "9 labels"),
    # files with no items
    (lambda d: write_idx(d / "train-images-idx3-ubyte", np.zeros((0, 7, 7))), "no images"),
    (lambda d: write_idx(d / "t10k-labels-idx1-ubyte", np.zeros(0, int)), "no labels"),
    # validation images of another size than the training images
    (lambda d: write_idx(d / "t10k-images-idx3-ubyte", np.zeros((8, 3, 3))), "(3, 3)"),
    (lambda d: write_idx(d / "t10k-images-idx3-ubyte", np.zeros((8, 1, 49))), "(1, 49)"),
    # a labels file where images belong, and the other way round
    (lambda d: write_idx(d / "train-images-idx3-ubyte", np.zeros(24, int)), "no images in a file of shape (24,)"),
    (lambda d: write_idx(d / "t10k-labels-idx1-ubyte", np.zeros((8, 2, 2))), "no labels in a file of shape (8, 2, 2)"),
])
@pytest.mark.parametrize("max_cases", [None, 5])
def test_idx_data_faults_exit_3_before_training(tmp_path, capsys, damage, needle, max_cases):
    data_dir = tmp_path / "idx"
    make_idx_dir(data_dir)
    damage(data_dir)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"hidden_units": 4, "max_cases": max_cases}))
    out = tmp_path / "run"
    assert main(["train", "--config", str(config), "--data", f"mnist:{data_dir}",
                 "--out", str(out), "--epochs", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1, err
    assert needle in err, err
    assert not out.exists()  # refused while loading, before any epoch


def test_idx_corpus_fuzz_exits_0_or_3(tmp_path, capsys):
    # One file of a tiny IDX corpus truncated, extended, or with one byte or
    # one header count changed: the run succeeds or exits 3 with one line.
    # Damage to the header or the length is refused even where it lies past
    # max_cases; a changed pixel or label is data like any other.
    data_dir = tmp_path / "idx"
    make_idx_dir(data_dir, n_train=6, n_val=3, side=2, n_classes=2)
    files = {p.name: p.read_bytes() for p in sorted(data_dir.iterdir())}
    config = tmp_path / "config.json"
    argv = ["train", "--config", str(config), "--data", f"mnist:{data_dir}",
            "--out", str(tmp_path / "run"), "--epochs", "1"]
    counts = st.integers(0, 2**32 - 1) | st.integers(0, 40)

    @settings(max_examples=300, deadline=None, database=None)
    @given(name=st.sampled_from(sorted(files)), max_cases=st.sampled_from([None, 1, 4]),
           op=st.sampled_from(["truncate", "extend", "byte", "count"]),
           where=st.integers(0, 2**16), value=counts, extra=st.binary(min_size=1, max_size=9))
    def check(name, max_cases, op, where, value, extra):
        raw = files[name]
        header = 16 if "images" in name else 8
        if op == "truncate":
            new = raw[: where % len(raw)]
        elif op == "extend":
            new = raw + extra
        elif op == "byte":
            at = where % len(raw)
            new = raw[:at] + bytes([value % 256]) + raw[at + 1:]
        else:  # one big-endian count of the header
            at = 4 + 4 * (where % ((header - 4) // 4))
            new = raw[:at] + value.to_bytes(4, "big") + raw[at + 4:]
        for other, data in files.items():
            (data_dir / other).write_bytes(new if other == name else data)
        config.write_text(json.dumps({"hidden_units": 2, "max_cases": max_cases}))
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err
        changed = [i for i, (a, b) in enumerate(zip(raw, new)) if a != b]
        damaged = len(new) != len(raw) or any(i < header for i in changed)
        assert code == (3 if damaged else 0), (name, op, max_cases, code, err)
        if code:
            assert err.startswith("data error:") and err.count("\n") == 1, err
        else:
            assert err == "", err

    check()


def test_train_logistic_rejects_multiclass(tmp_path):
    data_dir = tmp_path / "idx"
    make_idx_dir(data_dir)
    config = tmp_path / "config.json"
    config.write_text('{"model": "logistic"}')
    assert main(["train", "--config", str(config),
                 "--data", f"mnist:{data_dir}",
                 "--out", str(tmp_path / "run"), "--epochs", "1"]) == 2


def test_train_max_cases_limits_training_set(tmp_path):
    out_dir = tmp_path / "run"
    config = tmp_path / "config.json"
    config.write_text('{"max_cases": 32}')
    code = main([
        "train", "--config", str(config),
        "--data", "synth:d=4,k=1,n=64,nval=8,seed=2",
        "--out", str(out_dir), "--epochs", "2",
    ])
    assert code == 0
    state, _ = load_checkpoint(out_dir / "checkpoint.json")
    # first-epoch restart target = floor(32 * 2**-1) = 16 cases
    assert state.prev.n in (16, 32)


# ----------------------------------------------------------- resume


def _resume_setup(tmp_path, kind, n_epochs=4):
    """Config path and --data argument of a small run of ``kind``."""
    doc = {"n_epochs": n_epochs, "frac_zero_target": 0.6, "frac_held_target": 0.05,
           "seed": 3}
    if kind == "logistic":
        data = "synth:d=12,k=3,n=96,nval=24,noise=0.5,seed=4"
    else:
        make_idx_dir(tmp_path / "idx", n_train=32)
        data = f"mnist:{tmp_path / 'idx'}"
        doc["hidden_units"] = 4
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    return config, data


def _library_head(config, data, k, path):
    """Epochs 1..k of the run the CLI makes of ``config`` and ``data``, saved."""
    cf, run = load_run_config(config)
    train_data, val_data, default = _resolve_data(data)
    model = _build_model(run["model"] or default, train_data, val_data, cf,
                         run["hidden_units"])
    rng = np.random.Generator(np.random.Philox(run["seed"]))
    state = init_state(model, train_data.n_cases, cf, rng)
    for epoch in range(1, k + 1):
        run_epoch(state, model, train_data.n_cases, cf, epoch, rng)
    save_checkpoint(path, state, cf, k, rng)


@pytest.mark.parametrize("kind", ["logistic", "mlp"])
@pytest.mark.parametrize("k", [0, 2])
def test_train_resume_is_bit_identical(tmp_path, kind, k):
    # Stopped after epoch k of 4 and resumed: the final checkpoint and the
    # rows of epochs k+1..4 equal those of the uninterrupted run.
    config, data = _resume_setup(tmp_path, kind)
    whole, resumed, head = tmp_path / "whole", tmp_path / "resumed", tmp_path / "head.json"
    assert main(["train", "--config", str(config), "--data", data, "--out", str(whole)]) == 0
    _library_head(config, data, k, head)
    assert main(["train", "--config", str(config), "--data", data, "--out", str(resumed),
                 "--resume", str(head)]) == 0
    ckpt = (whole / "checkpoint.json").read_bytes()
    assert (resumed / "checkpoint.json").read_bytes() == ckpt
    for name in ("epochs.csv", "sieve_histogram.csv"):
        rows = read_rows(whole / name)
        tail = [rows[0]] + [r for r in rows[1:] if int(r[0]) > k]
        assert read_rows(resumed / name) == tail, name
    # a finished run resumes to itself and runs no epoch
    again = tmp_path / "again"
    assert main(["train", "--config", str(config), "--data", data, "--out", str(again),
                 "--resume", str(whole / "checkpoint.json")]) == 0
    assert (again / "checkpoint.json").read_bytes() == ckpt
    assert len(read_rows(again / "epochs.csv")) == 1


def test_train_resume_errors(tmp_path, capsys):
    config, data = _resume_setup(tmp_path, "mlp", n_epochs=2)
    run = tmp_path / "run"
    assert main(["train", "--config", str(config), "--data", data, "--out", str(run)]) == 0
    ckpt = str(run / "checkpoint.json")
    other = tmp_path / "other.json"
    base = ["train", "--data", data, "--out", str(tmp_path / "resumed")]
    cases = [
        # a config that differs from the checkpoint's, naming the field
        ({"n_epochs": 3, "hidden_units": 4}, [], ckpt, "n_epochs"),
        ({"n_epochs": 2, "frac_zero_target": 0.5, "frac_held_target": 0.05,
          "hidden_units": 4}, [], ckpt, "frac_zero_target"),
        # a model whose parameter count differs
        ({**json.loads(config.read_text()), "hidden_units": 5}, [], ckpt, "parameters"),
        # --resume with --epochs
        (json.loads(config.read_text()), ["--epochs", "2"], ckpt, "--epochs"),
    ]
    for doc, extra, path, match in cases:
        other.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(base + ["--config", str(other), "--resume", path] + extra) == 2, match
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1, err
        assert match in err, err
    assert main(base + ["--config", str(config), "--resume", str(tmp_path / "nope.json")]) == 3


def test_train_resume_rejects_other_data(tmp_path, capsys):
    # A checkpoint records its run's case count: data with another count
    # exits 2 with one line, also when it keeps the first restart target and
    # so hess_min (n = 71).  A file written before the count was stored
    # exits 2 naming the missing field, also on the run's own data.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_epochs": 4}))
    run, ckpt = tmp_path / "run", tmp_path / "run" / "checkpoint.json"
    data = "synth:d=8,k=2,n=64,nval=16"
    assert main(["train", "--config", str(config), "--data", data, "--out", str(run)]) == 0
    payload = json.loads(ckpt.read_text())
    assert payload["state"].pop("n_cases") == 64
    uncounted = tmp_path / "uncounted.json"
    uncounted.write_text(json.dumps(payload))
    cases = [(ckpt, "n=71,nval=16,seed=5", "64 cases, not 71"),
             (ckpt, "n=32,nval=16", "64 cases, not 32"),
             (ckpt, "n=4,nval=16", "empty accumulator"),
             (uncounted, "n=32,nval=16", "'n_cases'"),
             (uncounted, "n=64,nval=16", "'n_cases'")]
    for path, spec, match in cases:
        capsys.readouterr()
        assert main(["train", "--config", str(config), "--data", f"synth:d=8,k=2,{spec}",
                     "--out", str(tmp_path / "resumed"), "--resume", str(path)]) == 2, spec
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1, err
        assert match in err, err
    out = tmp_path / "from-run"
    assert main(["train", "--config", str(config), "--data", data,
                 "--out", str(out), "--resume", str(ckpt)]) == 0
    assert (out / "checkpoint.json").read_bytes() == ckpt.read_bytes()


def test_retired_checkpoint_layouts_exit_2(tmp_path, capsys):
    # Only format 2 with the case count loads.  A format-1 file (float lists
    # that also hold the derived mu/sigma) and a format-2 file written
    # before the count was stored raise ValueError naming the tag or the
    # field, and --resume exits 2 with one config error line.
    config, data = _resume_setup(tmp_path, "logistic", n_epochs=2)
    run, ckpt = tmp_path / "run", tmp_path / "run" / "checkpoint.json"
    assert main(["train", "--config", str(config), "--data", data, "--out", str(run)]) == 0
    payload = json.loads(ckpt.read_text())
    state, _ = load_checkpoint(ckpt)
    arrays = ("slab_mean", "slab_std", "zero_logit", "p_nonzero", "realized_nonzero",
              "grad_prev", "hess_prev")
    format_1 = {"format": "mfvi-ckpt-1", "config": payload["config"], "state": {
        "mu": state.mu.tolist(), "sigma": state.sigma.tolist(),
        **{k: np.frombuffer(base64.b64decode(payload["state"][k]), "<f8").tolist()
           for k in arrays},
        **{k: payload["state"][k] for k in ("n_prev", "seq_index", "hess_min")}}}
    uncounted = copy.deepcopy(payload)
    del uncounted["state"]["n_cases"]
    path = tmp_path / "retired.json"
    for doc, match in ((format_1, "mfvi-ckpt-1"), (uncounted, "'n_cases'")):
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=match):
            load_checkpoint(path)
        capsys.readouterr()
        assert main(["train", "--config", str(config), "--data", data,
                     "--out", str(tmp_path / "resumed"), "--resume", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1, err
        assert match in err, err


def test_checkpoint_2_rejects_invalid_state(tmp_path, capsys):
    # Each bad field of a format-2 file raises ValueError naming it, and
    # through --resume exits 2 with one config error line.
    config, data = _resume_setup(tmp_path, "logistic", n_epochs=2)
    run = tmp_path / "run"
    assert main(["train", "--config", str(config), "--data", data, "--out", str(run)]) == 0
    payload = json.loads((run / "checkpoint.json").read_text())
    d = 12

    def b64(values):
        return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode()

    def put(key, value):
        return lambda st: st.__setitem__(key, value)

    def set_entry(key, i, value):
        a = np.frombuffer(base64.b64decode(payload["state"][key]), "<f8").copy()
        a[i] = value
        return put(key, b64(a))

    def rng_edit(edit):
        def apply(st):
            edit(st["rng"])
        return apply

    nan_at_2 = np.zeros(d)
    nan_at_2[2] = np.nan
    cases = [
        (put("slab_mean", "not base64!"), "slab_mean"),
        (put("slab_std", payload["state"]["slab_std"][:-1]), "slab_std"),  # bad padding
        (put("hess_prev", 17), "hess_prev"),
        (put("grad_prev", base64.b64encode(b"\0" * 7).decode()), "grad_prev"),
        (put("hess_prev", b64(np.ones(d + 1))), "hess_prev"),
        (put("grad_prev", b64(np.ones(d - 1))), "grad_prev"),
        (put("zero_logit", b64(nan_at_2)), "zero_logit"),
        (put("slab_mean", b64(np.full(d, np.inf))), "slab_mean"),
        (put("p_nonzero", b64(np.full(d, 7.0))), "p_nonzero"),
        (set_entry("realized_nonzero", 1, -1.0), "realized_nonzero"),
        (set_entry("slab_std", 3, -0.5), "slab_std"),
        # a curvature or slab deviation that no run writes
        (put("hess_prev", b64(np.full(d, -1.0))), "hess_prev"),
        (put("hess_prev", b64(np.zeros(d))), "hess_prev"),
        (put("slab_std", b64(np.zeros(d))), "slab_std"),
        (put("hess_min", float("nan")), "hess_min"),
        (put("hess_min", 10**400), "hess_min"),
        (put("n_prev", 2.5), "n_prev"),
        (put("n_prev", 97), "n_prev"),  # more than the run's 96 cases
        (lambda st: st.pop("seq_index"), "seq_index"),
        (lambda st: st.pop("epoch"), "epoch"),
        (put("epoch", "2"), "epoch"),
        (put("epoch", 2.0), "epoch"),
        (put("epoch", True), "epoch"),
        (put("epoch", -1), "epoch"),
        (put("epoch", 3), "epoch"),
        (put("n_cases", 0), "n_cases"),
        (put("n_cases", 96.0), "n_cases"),
        (put("n_cases", True), "n_cases"),
        (lambda st: st.pop("rng"), "rng"),
        (put("rng", "philox"), "rng"),
        (rng_edit(lambda r: r.__setitem__("bit_generator", "PCG64")), "rng"),
        (rng_edit(lambda r: r["state"]["counter"].pop()), "rng"),
        (rng_edit(lambda r: r["state"]["key"].__setitem__(0, 1.5)), "rng"),
        (rng_edit(lambda r: r["state"]["key"].__setitem__(0, -1)), "rng"),
        (rng_edit(lambda r: r["state"]["key"].__setitem__(0, 2**64)), "rng"),
        (rng_edit(lambda r: r.__setitem__("buffer_pos", 99)), "rng"),
        (rng_edit(lambda r: r.__setitem__("has_uint32", True)), "rng"),
        (rng_edit(lambda r: r.pop("uinteger")), "rng"),
    ]
    path = tmp_path / "edited.json"
    argv = ["train", "--config", str(config), "--data", data,
            "--out", str(tmp_path / "resumed"), "--resume", str(path)]
    for edit, field in cases:
        doc = copy.deepcopy(payload)
        edit(doc["state"])
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"'{field}'"):
            load_checkpoint(path)
        capsys.readouterr()
        assert main(argv) == 2, field
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1, err
        assert f"'{field}'" in err, err
    path.write_text(json.dumps(payload))
    assert main(argv) == 0


def test_checkpoint_fuzz_one_field(tmp_path, capsys):
    # One state field of a real format-2 file, stopped after epoch 1 of 2,
    # replaced by any JSON value: loading returns or raises ValueError
    # naming the field, and --resume exits 0 or 2 with one stderr line.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_epochs": 2, "frac_zero_target": 0.5, "seed": 3}))
    data, d = "synth:d=6,k=2,n=16,nval=8,seed=2", 6
    head = tmp_path / "head.json"
    _library_head(config, data, 1, head)
    payload = json.loads(head.read_text())
    path = tmp_path / "edited.json"
    argv = ["train", "--config", str(config), "--data", data,
            "--out", str(tmp_path / "resumed"), "--resume", str(path)]
    wrong_length = st.binary(max_size=8 * d + 16).filter(lambda b: len(b) != 8 * d)
    values = st.one_of(
        st.integers(-2, 40), st.integers(-(2**70), 2**70), st.just(10**400),
        st.floats(), st.just(float("nan")),
        st.booleans(), st.text(max_size=8), st.lists(st.integers(-2, 2), max_size=3),
        st.none(), wrong_length.map(lambda b: base64.b64encode(b).decode()),
    )

    @settings(max_examples=200, deadline=None, database=None)
    @given(field=st.sampled_from(sorted(payload["state"])), value=values)
    def check(field, value):
        doc = copy.deepcopy(payload)
        doc["state"][field] = value
        path.write_text(json.dumps(doc))
        try:
            load_resume(path)
        except ValueError as err:
            assert f"'{field}'" in str(err), (field, value, err)
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 2) and err.count("\n") == (code == 2), (field, value, err)

    check()


@pytest.mark.parametrize("edit, field", [
    # a finished run relabelled as stopped before its final epoch, which
    # would otherwise rerun that epoch from the final state
    (lambda st: st.__setitem__("epoch", 2), "realized_nonzero"),
    # a finished run whose probabilities no longer match its decisions
    (lambda st: st.__setitem__(
        "p_nonzero", base64.b64encode(np.full(8, 0.75, dtype="<f8").tobytes()).decode()),
     "p_nonzero"),
])
def test_checkpoint_2_fields_must_agree_with_the_epoch(tmp_path, capsys, edit, field):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_epochs": 3}))
    data, run = "synth:d=8,k=2,n=40,nval=5", tmp_path / "run"
    argv = ["train", "--config", str(config), "--data", data,
            "--out", str(tmp_path / "resumed"), "--resume"]
    assert main(["train", "--config", str(config), "--data", data, "--out", str(run)]) == 0
    payload = json.loads((run / "checkpoint.json").read_text())
    realized = np.frombuffer(base64.b64decode(payload["state"]["realized_nonzero"]), "<f8")
    assert not realized.all()  # the final epoch decided some zeros
    edit(payload["state"])
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=f"'{field}'"):
        load_checkpoint(path)
    capsys.readouterr()
    assert main(argv + [str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1, err
    assert f"'{field}'" in err, err
    assert not (tmp_path / "resumed").exists()
    assert main(argv + [str(run / "checkpoint.json")]) == 0


@pytest.mark.parametrize("field", ["hess_min", "slab_mean"])
def test_train_non_finite_state_exits_4(tmp_path, monkeypatch, capsys, field):
    # A state the checkpoint writer refuses ends in one numerical failure
    # line, and the run writes no file at all.
    real = mfquad.trainer.save_checkpoint

    def poisoned(path, state, *rest):
        if field == "hess_min":
            state.hess_min = float("inf")
        else:
            state.slab_mean[0] = float("nan")
        return real(path, state, *rest)

    monkeypatch.setattr(mfquad.cli, "save_checkpoint", poisoned)
    out = tmp_path / "run"
    assert main(["train", "--data", "synth:d=8,k=2,n=64,nval=16,seed=4",
                 "--out", str(out), "--epochs", "2"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and err.count("\n") == 1, err
    assert f"'{field}'" in err, err
    assert list(out.iterdir()) == []


# ------------------------------------------------------------------ misc


def test_unit_spans_keep_their_lookup_names(tmp_path, monkeypatch):
    # perfbench/worker.py times and counts each command's units of work
    # through these module attributes; each must be called once per unit.
    calls = {}

    def count(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    count(mfquad.trainer, "run_epoch")
    count(mfquad.cli, "trial_rng")
    count(mfquad.cli, "count_exact_pairs")
    assert main(["train", "--data", "synth:d=4,k=1,n=32,nval=8,seed=0",
                 "--out", str(tmp_path / "run"), "--epochs", "3"]) == 0
    assert calls == {"run_epoch": 3}
    code, _ = bench(tmp_path, "--dist", "gauss", "--method", "mc", "--d", "2",
                    "--basis", "phi1:0", "--trials", "5", "--max-evals", "8")
    assert code == 0 and calls == {"run_epoch": 3, "trial_rng": 5}
    assert main(["exactness-count", "--d", "16", "--method", "cross-polytope",
                 "--max-evals", "16", "--out", str(tmp_path / "count.csv")]) == 0
    assert calls == {"run_epoch": 3, "trial_rng": 5, "count_exact_pairs": 1}


def test_main_usage_errors():
    assert main([]) == 2
    assert main(["no-such-command"]) == 2
    with pytest.raises(SystemExit):  # --help prints and exits inside argparse
        raise SystemExit(0)
    assert main(["--help"]) == 0


def test_run_config_defaults():
    cfg, run = load_run_config(None)
    assert cfg == TrainConfig()
    assert cfg.n_epochs == 10
    assert cfg.n_pairs_per_case == 2
    assert cfg.lr_init == 1e-5
    assert cfg.lr_max == 0.1
    assert cfg.slab_std_max == 0.3
    assert cfg.frac_zero_target == 0.97
    assert cfg.frac_held_target == 0.01
    assert cfg.p_sieve_zero == 0.001
    assert cfg.p_sieve_one == 0.999
    assert run == {"seed": 0, "model": None, "hidden_units": 32, "max_cases": None}
