"""CLI contract: CSV schemas, frozen counts, exit codes, determinism."""

import base64
import copy
import csv
import json
import warnings

import numpy as np
import pytest

import mfquad.cli
import mfquad.models
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
from mfquad.trainer import TrainConfig, init_state, load_checkpoint, run_epoch, save_checkpoint


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
    model = _build_model(run["model"] or default, train_data, val_data,
                         cf.slab_std_max, run["hidden_units"])
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
    v1 = tmp_path / "v1.json"
    oracles.save_checkpoint_v1(v1, *load_checkpoint(ckpt))
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
        # a format-1 checkpoint has nothing to resume from
        (json.loads(config.read_text()), [], str(v1), "mfvi-ckpt-1"),
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
    # still has hess_min checked, and resumes the run's own data to the
    # bytes a file with the count gives.
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
             (uncounted, "n=32,nval=16", "hess_min")]
    for path, spec, match in cases:
        capsys.readouterr()
        assert main(["train", "--config", str(config), "--data", f"synth:d=8,k=2,{spec}",
                     "--out", str(tmp_path / "resumed"), "--resume", str(path)]) == 2, spec
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1, err
        assert match in err, err
    for path in (ckpt, uncounted):
        out = tmp_path / f"from-{path.stem}"
        assert main(["train", "--config", str(config), "--data", data,
                     "--out", str(out), "--resume", str(path)]) == 0
        assert (out / "checkpoint.json").read_bytes() == ckpt.read_bytes()


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
