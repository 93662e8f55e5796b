"""Command-line experiment harness.

Three subcommands:

``integrate-bench``
    Quantiles of signed integration error for products of orthonormal
    basis factors under a chosen node rule, over seeded trials.
``exactness-count``
    Mean number of coordinate pairs whose mixed second moment a rule
    reproduces exactly, along a ladder of evaluation budgets.
``train``
    The sparsifying variational trainer on synthetic or IDX-file data,
    with per-epoch CSV diagnostics, a JSON checkpoint, and a histogram
    of the nonzero probabilities.

Every command is a pure function of its flags, config, and input files:
identical invocations produce byte-identical outputs.  Floats are printed
with 17 significant digits.  Exit codes: 0 success, 2 configuration error,
3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .meanfield import (
    PRESET_NAMES,
    basis_product_expectation,
    orthonormal_basis,
    preset,
)
from .models import (
    Dataset,
    IdxFormatError,
    LogisticModel,
    MlpModel,
    read_idx,
    synth_sparse_logistic,
)
from .projection import EvaluationError, full_period
from .quadrature import (
    NodeSet,
    blocked_simplex_standard,
    count_exact_pairs,
    mc_nodes,
    mean_matched_nodes,
    moment_matched_nodes,
    reflected_nodes,
    trial_rng,
)
from .trainer import TrainConfig, init_state, save_checkpoint, train

__all__ = ["main", "ConfigError", "DataError"]

BENCH_METHODS = ("mc", "qmc-mean", "qmc-var", "blocked-simplex", "cross-polytope")
COUNT_METHODS = ("cross-polytope", "blocked-simplex")
HISTOGRAM_BINS = 50


class ConfigError(ValueError):
    """Bad flags, config keys, or values (exit code 2)."""


class DataError(ValueError):
    """Missing or malformed input data (exit code 3)."""


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------- basis


def parse_basis(spec: str, d: int) -> list[tuple[int, int]]:
    """Parse ``"phi2:0*phi1:3"`` into (coordinate, degree) factors."""
    terms = []
    for part in spec.split("*"):
        m = re.fullmatch(r"phi(\d+):(\d+)", part.strip())
        if m is None:
            raise ConfigError(
                f"bad basis term {part.strip()!r}; expected phiDEGREE:COORD"
            )
        degree, coord = int(m.group(1)), int(m.group(2))
        if coord >= d:
            raise ConfigError(f"basis coordinate {coord} outside dimension {d}")
        terms.append((coord, degree))
    return terms


def _ladder(method: str, block_size: int, max_evals: int) -> list[int]:
    """Budgets group, 2*group, 4*group, ... up to max_evals, where group is the
    method's smallest: two reflected pairs, one blocked group, or two samples."""
    group = {"cross-polytope": 4, "blocked-simplex": block_size + 1}.get(method, 2)
    if max_evals < group:
        raise ConfigError(f"max-evals {max_evals} below the smallest budget {group}")
    return [group * 2**i for i in range((max_evals // group).bit_length())]


# -------------------------------------------------------- integrate-bench


def _bench_nodes(method, dist, n, rng, block_size):
    """Node set for one trial at one evaluation budget."""
    if method == "mc":
        return mc_nodes(dist, n, rng)
    if method == "qmc-mean":
        return mean_matched_nodes(dist, n, rng)
    if method == "qmc-var":
        return moment_matched_nodes(dist, n, rng)[0]
    d = dist.dim
    if method == "cross-polytope":
        n_pairs = n // 2
        n_windows = max(full_period(d) // n_pairs, 1)
        k_start = int(rng.integers(n_windows)) * n_pairs
        _, nodes = reflected_nodes(dist.mean, dist.std, k_start, n_pairs)
        return NodeSet(
            nodes.reshape(2 * n_pairs, d), np.full(2 * n_pairs, 0.5 / n_pairs)
        )
    if method == "blocked-simplex":
        base = blocked_simplex_standard(
            d, block_size, rng, n_groups=n // (block_size + 1)
        )
        return NodeSet(dist.mean + dist.std * base.nodes, base.weights)
    raise ConfigError(f"unknown method {method!r}")


def cmd_integrate_bench(args) -> int:
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    if args.d < 1:
        raise ConfigError(f"--d must be >= 1, got {args.d}")
    d = args.d
    dist = preset(args.dist, d)
    terms = parse_basis(args.basis, d)
    max_degree = max(3, *(deg for _, deg in terms)) if terms else 3
    basis = orthonormal_basis(dist, max_degree=max_degree)
    truth = basis_product_expectation(dist, basis, terms)

    budgets = _ladder(args.method, args.block_size, args.max_evals)

    errors = np.empty((args.trials, len(budgets)))
    for trial in range(args.trials):
        rng = trial_rng(args.seed, trial)
        for j, n in enumerate(budgets):
            ns = _bench_nodes(args.method, dist, n, rng, args.block_size)
            vals = np.ones(ns.n_nodes)
            for coord, degree in terms:
                vals *= basis.evaluate(coord, degree, ns.nodes[:, coord])
            estimate = float(ns.weights @ vals)
            if not math.isfinite(estimate):
                raise EvaluationError(
                    f"non-finite estimate at n_evals={n}, trial {trial}", ns.nodes
                )
            errors[trial, j] = estimate - truth

    t = args.trials
    rows = []
    for j, n in enumerate(budgets):
        signed = np.sort(errors[:, j])
        rows.append(
            [
                n,
                _fmt(signed[math.floor(0.05 * t)]),
                _fmt(signed[math.floor(0.5 * t)]),
                _fmt(signed[min(math.ceil(0.95 * t), t - 1)]),
                _fmt(np.mean(np.abs(signed))),
            ]
        )
    _write_csv(args.out, ["n_evals", "q05", "q50", "q95", "mean_abs_err"], rows)
    return 0


# -------------------------------------------------------- exactness-count


def cmd_exactness_count(args) -> int:
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    rows = []
    for n in _ladder(args.method, args.block_size, args.max_evals):
        mean_pairs = count_exact_pairs(
            args.d,
            args.method,
            n,
            block_size=args.block_size,
            n_trials=args.trials,
            seed=args.seed,
        )
        rows.append([args.method, n, _fmt(mean_pairs), _fmt(mean_pairs / n)])
    _write_csv(
        args.out, ["method", "n_evals", "mean_exact_pairs", "exact_per_eval"], rows
    )
    return 0


# ------------------------------------------------------------------ train


TRAIN_CONFIG_EXTRAS = {
    "seed": 0,
    "model": None,  # "logistic" or "mlp"; default depends on the data kind
    "hidden_units": 32,
    "max_cases": None,
}
_INTEGER_KEYS = ("seed", "hidden_units", "max_cases")


def load_run_config(path) -> tuple[TrainConfig, dict]:
    """JSON config: trainer hyperparameters plus run knobs.

    Returns ``(TrainConfig, run)``, where ``run`` holds the keys of
    ``TRAIN_CONFIG_EXTRAS``.  Unknown keys, mistyped run knobs and
    hyperparameters that ``TrainConfig`` rejects raise ConfigError.
    """
    run = dict(TRAIN_CONFIG_EXTRAS)
    if path is None:
        return TrainConfig(), run
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as err:
        raise DataError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: invalid JSON ({err})") from err
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    trainer_keys = {f.name for f in fields(TrainConfig)}
    hyper = {}
    # JSON booleans are not integers: type() is exact
    for key, value in doc.items():
        if key in trainer_keys:
            hyper[key] = value
            continue
        if key == "model":
            ok, want = value is None or type(value) is str, "null or a string"
        elif key in _INTEGER_KEYS:
            ok = type(value) is int or (key == "max_cases" and value is None)
            want = "an integer"
        else:
            raise ConfigError(f"{path}: unknown config key {key!r}")
        if not ok:
            raise ConfigError(f"{path}: {key} must be {want}, got {value!r}")
        run[key] = value
    if run["max_cases"] is not None and run["max_cases"] < 1:
        raise ConfigError(f"{path}: max_cases must be >= 1, got {run['max_cases']}")
    try:
        return TrainConfig(**hyper), run
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from err


def _parse_synth_spec(spec: str) -> dict:
    out = {"d": 256, "k": 16, "n": 2000, "nval": 500, "noise": 1.0, "seed": 0}
    if spec:
        for item in spec.split(","):
            if "=" not in item:
                raise ConfigError(f"bad synth spec item {item!r}; expected key=value")
            key, value = item.split("=", 1)
            key = key.strip()
            if key not in out:
                raise ConfigError(f"unknown synth spec key {key!r}")
            try:
                out[key] = float(value) if key == "noise" else int(value)
            except ValueError as err:
                raise ConfigError(f"bad synth spec value {item!r}") from err
    return out


def _load_mnist_dir(directory) -> tuple[Dataset, Dataset]:
    directory = Path(directory)
    names = {
        "train_images": "train-images-idx3-ubyte",
        "train_labels": "train-labels-idx1-ubyte",
        "val_images": "t10k-images-idx3-ubyte",
        "val_labels": "t10k-labels-idx1-ubyte",
    }
    arrays = {}
    for key, name in names.items():
        path = directory / name
        if not path.exists():
            raise DataError(f"missing IDX file {path}")
        try:
            arrays[key] = read_idx(path)
        except IdxFormatError as err:
            raise DataError(str(err)) from err
    train = Dataset(
        arrays["train_images"].reshape(arrays["train_images"].shape[0], -1),
        arrays["train_labels"],
    )
    val = Dataset(
        arrays["val_images"].reshape(arrays["val_images"].shape[0], -1),
        arrays["val_labels"],
    )
    return train, val


def _resolve_data(data_arg: str) -> tuple[Dataset, Dataset, str]:
    """Returns (train, validation, default model kind)."""
    kind, _, rest = data_arg.partition(":")
    if kind == "synth":
        spec = _parse_synth_spec(rest)
        total = spec["n"] + spec["nval"]
        data, _ = synth_sparse_logistic(
            d=spec["d"],
            k_true=spec["k"],
            n_cases=total,
            noise=spec["noise"],
            seed=spec["seed"],
        )
        return data.subset(0, spec["n"]), data.subset(spec["n"], total), "logistic"
    if kind == "mnist":
        if not rest:
            raise ConfigError("mnist data needs a directory: --data mnist:DIR")
        train, val = _load_mnist_dir(rest)
        return train, val, "mlp"
    raise ConfigError(f"unknown data source {data_arg!r}; use synth:SPEC or mnist:DIR")


def _build_model(kind, train_data, val_data, slab_std_max, hidden_units):
    h_prior = 1.0 / slab_std_max**2
    if kind == "logistic":
        if train_data.labels.max() > 1:
            raise ConfigError("logistic model needs binary labels; use model=mlp")
        return LogisticModel(train_data, h_prior=h_prior)
    if kind == "mlp":
        n_classes = int(max(train_data.labels.max(), val_data.labels.max())) + 1
        layers = (train_data.n_features, hidden_units, n_classes)
        return MlpModel(train_data, layer_sizes=layers, h_prior=h_prior)
    raise ConfigError(f"unknown model kind {kind!r}; use logistic or mlp")


def _histogram_rows(epoch: int, p_nonzero: np.ndarray) -> list[list]:
    counts, edges = np.histogram(p_nonzero, bins=HISTOGRAM_BINS, range=(0.0, 1.0))
    rows = []
    for i, count in enumerate(counts):
        if count > 0:
            rows.append(
                [epoch, _fmt(edges[i]), _fmt(edges[i + 1]), int(count),
                 _fmt(math.log10(count))]
            )
    return rows


def cmd_train(args) -> int:
    config, run = load_run_config(args.config)
    if args.epochs is not None:
        if args.epochs < 0:
            raise ConfigError(f"--epochs must be >= 0, got {args.epochs}")
        config = replace(config, n_epochs=max(args.epochs, 1))
    train_data, val_data, default_model = _resolve_data(args.data)
    if run["max_cases"] is not None:
        train_data = train_data.subset(0, min(run["max_cases"], train_data.n_cases))
    model = _build_model(
        run["model"] or default_model, train_data, val_data,
        config.slab_std_max, run["hidden_units"],
    )

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    epoch_header = ["epoch", "J_train", "frac_zero_realizable", "frac_held",
                    "accuracy_val"]
    hist_header = ["epoch", "bin_low", "bin_high", "count", "log10_count"]
    epoch_rows, hist_rows = [], []

    def record(state, stats):
        preds = model.predict(state.mu, val_data.features)
        accuracy = float(np.mean(preds == val_data.labels))
        epoch_rows.append(
            [
                stats.epoch,
                _fmt(stats.epoch_loss),
                _fmt(stats.frac_zero_realizable),
                _fmt(stats.frac_held),
                _fmt(accuracy),
            ]
        )
        hist_rows.extend(_histogram_rows(stats.epoch, state.p_nonzero))

    n_cases = train_data.n_cases
    if args.epochs == 0:
        rng = np.random.Generator(np.random.Philox(run["seed"]))
        state = init_state(model, n_cases, config, rng)
    else:
        state, _ = train(model, n_cases, config, run["seed"], callback=record)

    _write_csv(out_dir / "epochs.csv", epoch_header, epoch_rows)
    _write_csv(out_dir / "sieve_histogram.csv", hist_header, hist_rows)
    save_checkpoint(out_dir / "checkpoint.json", state, config)
    return 0


# ------------------------------------------------------------------ main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfquad",
        description="Quadrature benchmarks and the sparsifying variational trainer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser(
        "integrate-bench", help="integration-error quantiles over seeded trials"
    )
    bench.add_argument("--dist", choices=PRESET_NAMES, required=True)
    bench.add_argument("--method", choices=BENCH_METHODS, required=True)
    bench.add_argument("--d", type=int, default=8)
    bench.add_argument("--basis", required=True, metavar="SPEC",
                       help="e.g. phi2:0 or phi1:0*phi1:1")
    bench.add_argument("--trials", type=int, default=1000)
    bench.add_argument("--max-evals", type=int, default=256)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--block-size", type=int, default=2)
    bench.add_argument("--out", required=True)
    bench.set_defaults(func=cmd_integrate_bench)

    count = sub.add_parser(
        "exactness-count", help="exactly integrated coordinate pairs per budget"
    )
    count.add_argument("--d", type=int, default=512)
    count.add_argument("--method", choices=COUNT_METHODS, required=True)
    count.add_argument("--max-evals", type=int, default=1024)
    count.add_argument("--trials", type=int, default=1)
    count.add_argument("--seed", type=int, default=0)
    count.add_argument("--block-size", type=int, default=2)
    count.add_argument("--out", required=True)
    count.set_defaults(func=cmd_exactness_count)

    tr = sub.add_parser("train", help="run the sparsifying variational trainer")
    tr.add_argument("--config", default=None, help="JSON hyperparameter file")
    tr.add_argument("--data", required=True, metavar="{synth:SPEC|mnist:DIR}")
    tr.add_argument("--out", required=True, help="output directory")
    tr.add_argument("--epochs", type=int, default=None,
                    help="override n_epochs; 0 writes only the initial checkpoint")
    tr.set_defaults(func=cmd_train)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors, 0 for --help
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (DataError, IdxFormatError, OSError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return 3
    except (EvaluationError, FloatingPointError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 4
    except (ValueError, MemoryError) as err:  # ConfigError, bad values, impossible sizes
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
