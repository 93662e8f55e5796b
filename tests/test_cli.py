"""CLI contract: CSV schemas, frozen counts, exit codes, determinism."""

import csv
import json

import numpy as np
import pytest

import mfquad.cli
import mfquad.trainer
from mfquad.cli import main, parse_basis, load_run_config, ConfigError
from mfquad.meanfield import OrthonormalBasis, orthonormal_basis, preset
from mfquad.models import write_idx
from mfquad.trainer import TrainConfig, load_checkpoint


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
    assert calls == {"run_epoch": 3, "trial_rng": 5, "count_exact_pairs": 3}


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
