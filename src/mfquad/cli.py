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
    with per-epoch CSV diagnostics, a JSON checkpoint that a later run
    can resume from, and a histogram of the nonzero probabilities.

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
import os
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
    idx_shape,
    read_idx,
    synth_sparse_logistic,
)
from .projection import EvaluationError, full_period
from .quadrature import (
    _TILE,
    _blocked_nodes,
    count_exact_pairs,
    mean_matched_nodes,
    moment_matched_nodes,
    sign_sequence,
    simplex_sigma_points,
    trial_rng,
)
from .trainer import TrainConfig, init_state, load_resume, save_checkpoint, train

__all__ = ["main", "ConfigError", "DataError"]

BENCH_METHODS = ("mc", "qmc-mean", "qmc-var", "blocked-simplex", "cross-polytope")
COUNT_METHODS = ("cross-polytope", "blocked-simplex")
HISTOGRAM_BINS = 50
# Every command refuses, as a config error, a run whose largest array would
# exceed this many bytes.  The estimate is made before anything is
# allocated: numpy's allocations succeed under memory overcommit and fail
# only when their pages are touched, by which time the kernel may kill the
# process.  A run's peak is a small multiple of its largest array.
MAX_ARRAY_BYTES = 1 << 30
# integrate-bench runs its trials in blocks of at most this many node values
_CHUNK_VALUES = 1 << 16
# OpenBLAS splits a ddot of over 10,000 values across its threads
_DOT_CHUNK = 8192


class ConfigError(ValueError):
    """Bad flags, config keys, or values (exit code 2)."""


class DataError(ValueError):
    """Missing or malformed input data (exit code 3)."""


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _check_out(path) -> None:
    """DataError unless ``path`` is no directory and its parent is one."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise DataError(f"--out {path} is a directory")
    if not os.path.isdir(parent):
        raise DataError(f"--out {path}: {parent} is not a directory")


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


def _check_size(*arrays: tuple) -> None:
    """ConfigError naming the first ``(what, n_values)`` array of float64
    values, or ``(what, n_values, itemsize)`` array, that would exceed
    MAX_ARRAY_BYTES."""
    for what, n_values, *itemsize in arrays:
        n_bytes = n_values * (itemsize[0] if itemsize else 8)
        if n_bytes > MAX_ARRAY_BYTES:
            raise ConfigError(
                f"{what} would take {n_bytes / 2**30:.3g} GiB, over the "
                f"{MAX_ARRAY_BYTES / 2**30:g} GiB limit of one array"
            )


def _blocked_arrays(b: int, rows: int, n_blocks: int) -> list[tuple[str, int]]:
    """The blocked rule's own arrays for ``rows`` nodes: its simplex point set
    of block size ``b``, and the gather of ``n_blocks`` blocks per node, each
    padded to ``b`` columns."""
    return [(f"a {b} x {b + 1} simplex point set", b * (b + 1)),
            (f"a {rows} x {n_blocks} x {b} padded block gather", rows * n_blocks * b)]


def _ladder(method: str, block_size: int, max_evals: int) -> list[int]:
    """Budgets group, 2*group, 4*group, ... up to max_evals, where group is the
    method's smallest: two reflected pairs, one blocked group, or two samples."""
    if method == "blocked-simplex" and block_size < 1:
        raise ConfigError(f"--block-size must be >= 1, got {block_size}")
    group = {"cross-polytope": 4, "blocked-simplex": block_size + 1}.get(method, 2)
    if max_evals < group:
        raise ConfigError(f"max-evals {max_evals} below the smallest budget {group}")
    return [group * 2**i for i in range((max_evals // group).bit_length())]


# -------------------------------------------------------- integrate-bench


def _trial_ladder(method, dist, budgets, block_size, index):
    """The function ``nodes(rngs)`` giving columns ``index`` of the nodes of
    one trial per generator of ``rngs`` at every budget of the ladder.

    It returns a ``(len(rngs), sum(budgets), len(index))`` block holding
    each trial's budgets' nodes in turn.  Each budget draws what a full build
    of its node set would, in ladder order, so every value is the full
    build's.  Only the draws are made per trial; the rest once per block.

    The reflected rule's budget of ``n`` nodes is a window of ``n // 2`` rows
    of one period of ``sigma * s``, at a start drawn per trial (one call
    draws all of a trial's starts), its plus nodes, then its minus nodes.  A
    block gathers every trial's rows with one index and negates the minus
    rows: ``mu + -(sigma * s)`` is the same double as ``mu - sigma * s``.
    """
    mean, std = dist.mean[index], dist.std[index]
    if method == "blocked-simplex":
        # Groups are shuffled one after another from the one generator, so
        # a single call draws every budget's groups in turn.
        points = simplex_sigma_points(block_size).nodes
        n_groups = sum(budgets) // (block_size + 1)
        return lambda rngs: mean + std * np.stack(
            [_blocked_nodes(points, dist.dim, rng, n_groups, index) for rng in rngs])
    if method == "cross-polytope":
        period = full_period(dist.dim)
        steps = sign_sequence(dist.dim, 0, period, index)  # a fresh array
        steps *= std
        pairs = np.array(budgets) // 2
        highs = np.maximum(period // pairs, 1)
        # each budget's window, once for its plus nodes and once for its minus nodes
        offsets = np.concatenate([np.tile(np.arange(p), 2) for p in pairs.tolist()])
        flips = np.concatenate([np.repeat([1.0, -1.0], p) for p in pairs.tolist()])[:, None]

        def nodes(rngs):
            rows = np.repeat(np.array([rng.integers(highs) for rng in rngs]) * pairs,
                             budgets, axis=1)
            rows += offsets
            rows &= period - 1
            block = np.take(steps, rows, axis=0)
            block *= flips
            block += mean
            return block

        return nodes
    samplers = {
        # the variates of every coordinate, transformed at index only
        "mc": lambda n, rng: dist.sample(n, rng, index),
        # the sample moments are reduced over every coordinate: a reduction
        # over the basis's columns alone rounds differently
        "qmc-mean": lambda n, rng: mean_matched_nodes(dist, n, rng).nodes[:, index],
        "qmc-var": lambda n, rng: moment_matched_nodes(dist, n, rng)[0].nodes[:, index],
    }
    if method not in samplers:
        raise ConfigError(f"unknown method {method!r}")
    draw = samplers[method]
    return lambda rngs: np.stack(
        [np.concatenate([draw(n, rng) for n in budgets]) for rng in rngs])


def _dot(w, vals) -> float:
    """``w @ vals`` as in-order ddots of ``_DOT_CHUNK`` values: alike on any BLAS thread count."""
    total = float(w[:_DOT_CHUNK] @ vals[:_DOT_CHUNK])
    for a in range(_DOT_CHUNK, w.size, _DOT_CHUNK):
        total += float(w[a:a + _DOT_CHUNK] @ vals[a:a + _DOT_CHUNK])
    return total


def _check_orthonormal(dist, basis, index) -> None:
    """ConfigError naming the first coordinate of ``index`` where ``basis`` is
    off orthonormal by over 1e-8 in ``max |C H C^T - I|`` (``C`` its
    coefficients, ``H`` the Hankel matrix of raw moments it was factored from)."""
    n = basis.max_degree + 1
    hankel = np.lib.stride_tricks.sliding_window_view(
        dist.raw_moments(2 * basis.max_degree)[index], n, axis=1)
    c = basis.coeffs[index]
    with np.errstate(over="ignore", invalid="ignore"):
        err = np.abs(c @ hankel @ c.swapaxes(1, 2) - np.eye(n)).max(axis=(1, 2))
    for coord, e in zip(index.tolist(), err.tolist()):
        if not e <= 1e-8:
            raise ConfigError(f"the degree-{n - 1} basis of coordinate {coord} is off orthonormal "
                              f"by {e:.3g} (over 1e-8): its raw moments cannot resolve that degree")


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed}")


def cmd_integrate_bench(args) -> int:
    _check_seed(args.seed)
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    if args.d < 1:
        raise ConfigError(f"--d must be >= 1, got {args.d}")
    d = args.d
    terms = parse_basis(args.basis, d)
    max_degree = max(3, *(deg for _, deg in terms)) if terms else 3
    budgets = _ladder(args.method, args.block_size, args.max_evals)
    # the nodes are built only in the coordinates the basis reads (np.unique
    # would import numpy.ma, about 1 MB of the run's peak memory)
    index = np.array(sorted({coord for coord, _ in terms}))
    arrays = [
        (f"{budgets[-1]} nodes of dimension {d}", budgets[-1] * d),
        (f"a trial's {sum(budgets)} x {index.size} node block", sum(budgets) * index.size),
        (f"a {args.trials} x {len(budgets)} error table", args.trials * len(budgets)),
    ]
    if args.method == "blocked-simplex":  # a shuffled row order per node and block
        n_blocks = -(-d // args.block_size)
        arrays += [(f"a trial's {sum(budgets)} x {n_blocks} block shuffle",
                    sum(budgets) * n_blocks),
                   *_blocked_arrays(args.block_size, sum(budgets), index.size)]
    if args.method == "cross-polytope":  # one period of signs, at the basis's columns
        arrays.append(
            (f"a {full_period(d)} x {index.size} sign table", full_period(d) * index.size)
        )
    # the basis coefficients outgrow the 2 * max_degree + 1 raw moments
    arrays.append((f"a degree-{max_degree} basis in dimension {d}", d * (max_degree + 1) ** 2))
    _check_size(*arrays)
    _check_out(args.out)
    dist = preset(args.dist, d)
    try:
        basis = orthonormal_basis(dist, max_degree=max_degree)
    except OverflowError as err:  # a Laplace moment's factorial
        raise ConfigError(f"the degree-{max_degree} basis's raw moments overflow") from err
    _check_orthonormal(dist, basis, index)
    truth = basis_product_expectation(dist, basis, terms)
    column = {coord: j for j, coord in enumerate(index.tolist())}
    block_nodes = _trial_ladder(args.method, dist, budgets, args.block_size, index)
    # every rule weighs a budget's n nodes alike; 0.5 / n_pairs is the same double
    weights = [np.full(n, 1.0 / n) for n in budgets]
    ends = np.cumsum(budgets).tolist()
    cells = list(zip(weights, [0] + ends[:-1], ends))
    # trials per block: at most _CHUNK_VALUES node values, or one trial's
    per_block = max(_CHUNK_VALUES // (sum(budgets) * index.size), 1)

    errors = np.empty((args.trials, len(budgets)))
    for first in range(0, args.trials, per_block):
        rngs = [trial_rng(args.seed, trial)
                for trial in range(first, min(first + per_block, args.trials))]
        nodes = block_nodes(rngs)
        vals = np.ones(nodes.shape[:2])
        # a later trial's overflow must not warn before an earlier trial fails
        with np.errstate(over="ignore", invalid="ignore"):
            for coord, degree in terms:
                vals *= basis.evaluate(coord, degree, nodes[:, :, column[coord]])
        # each budget's own slice, summed as its node set alone would be
        estimates = np.array([[_dot(w, row[a:b]) for w, a, b in cells] for row in vals])
        bad = np.argwhere(~np.isfinite(estimates))
        if bad.size:  # the first in trial order
            i, j = bad[0].tolist()
            raise EvaluationError(f"non-finite estimate at n_evals={budgets[j]}, "
                                  f"trial {first + i}", nodes[i, cells[j][1]:cells[j][2]])
        errors[first:first + len(rngs)] = estimates - truth

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
    _check_seed(args.seed)
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    budgets = _ladder(args.method, args.block_size, args.max_evals)
    if args.method == "blocked-simplex":  # the cross-polytope is counted in closed form
        new = max(n - prev for prev, n in zip([0] + budgets, budgets))
        # count_exact_pairs keeps the sums of _TILE-wide tile pairs p <= q only
        size = 4 if budgets[-1] * args.block_size**2 < 1 << 24 else 8
        _check_size((f"the float{8 * size} sums on the upper block triangle of a second-"
                     f"moment matrix of dimension {args.d}",
                     (args.d**2 + args.d // _TILE * _TILE**2 + (args.d % _TILE)**2) // 2, size),
                    (f"a rung of {new} nodes of dimension {args.d}", new * args.d),
                    *_blocked_arrays(args.block_size, new, -(-args.d // args.block_size)))
    _check_out(args.out)
    means = count_exact_pairs(
        args.d,
        args.method,
        budgets,
        block_size=args.block_size,
        n_trials=args.trials,
        seed=args.seed,
    )
    rows = [[args.method, n, _fmt(m), _fmt(m / n)] for n, m in zip(budgets, means)]
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
    if run["seed"] < 0:
        raise ConfigError(f"{path}: seed must be >= 0, got {run['seed']}")
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
    for key in ("d", "n", "nval"):
        if out[key] < 1:
            raise ConfigError(f"synth spec {key} must be >= 1, got {out[key]}")
    if not 0 <= out["k"] <= out["d"]:
        raise ConfigError(f"synth spec k must lie in 0..{out['d']}, got {out['k']}")
    if out["seed"] < 0:
        raise ConfigError(f"synth spec seed must be >= 0, got {out['seed']}")
    return out


def _load_mnist_dir(directory, limit=None) -> tuple[Dataset, Dataset]:
    """The training and validation splits of an IDX directory, the training
    split cut to its first ``limit`` cases.  Every file's header and length
    are checked, and the splits checked against each other, before any
    file is decoded; training rows past ``limit`` are never decoded."""
    directory = Path(directory)
    names = {
        "train_images": "train-images-idx3-ubyte",
        "train_labels": "train-labels-idx1-ubyte",
        "val_images": "t10k-images-idx3-ubyte",
        "val_labels": "t10k-labels-idx1-ubyte",
    }
    paths = {key: directory / name for key, name in names.items()}
    shapes = {}
    for key, path in paths.items():
        if not path.exists():
            raise DataError(f"missing IDX file {path}")
        shapes[key] = shape = idx_shape(path)
        kind = key.partition("_")[2]
        if len(shape) != (3 if kind == "images" else 1) or 0 in shape:
            raise DataError(f"{path}: no {kind} in a file of shape {shape}")
    for split in ("train", "val"):
        images, labels = f"{split}_images", f"{split}_labels"
        if shapes[images][0] != shapes[labels][0]:
            raise DataError(
                f"{paths[images]} holds {shapes[images][0]} images but {paths[labels]} "
                f"holds {shapes[labels][0]} labels"
            )
    if shapes["val_images"][1:] != shapes["train_images"][1:]:
        raise DataError(
            f"{paths['val_images']}: images of shape {shapes['val_images'][1:]}, but the "
            f"training images are {shapes['train_images'][1:]}"
        )

    def split(prefix, limit):
        images = read_idx(paths[f"{prefix}_images"], limit)
        labels = read_idx(paths[f"{prefix}_labels"], limit)
        return Dataset(images.reshape(images.shape[0], -1), labels)

    return split("train", limit), split("val", None)


def _resolve_data(data_arg: str, max_cases=None) -> tuple[Dataset, Dataset, str]:
    """Returns (train, validation, default model kind); the training split
    holds at most ``max_cases`` cases."""
    kind, _, rest = data_arg.partition(":")
    if kind == "synth":
        spec = _parse_synth_spec(rest)
        total = spec["n"] + spec["nval"]
        _check_size((f"a {total} x {spec['d']} synth feature matrix", total * spec["d"]))
        data, _ = synth_sparse_logistic(
            d=spec["d"],
            k_true=spec["k"],
            n_cases=total,
            noise=spec["noise"],
            seed=spec["seed"],
        )
        n_train = spec["n"] if max_cases is None else min(max_cases, spec["n"])
        return data.subset(0, n_train), data.subset(spec["n"], total), "logistic"
    if kind == "mnist":
        if not rest:
            raise ConfigError("mnist data needs a directory: --data mnist:DIR")
        train, val = _load_mnist_dir(rest, max_cases)
        return train, val, "mlp"
    raise ConfigError(f"unknown data source {data_arg!r}; use synth:SPEC or mnist:DIR")


def _build_model(kind, train_data, val_data, config, hidden_units):
    """The model of ``kind`` on ``train_data``.  Its parameter count ``d`` is
    taken from the layer sizes first, and a state array or a case's block
    of sign vectors too large for one array is refused before the model is
    built."""
    n_in = train_data.n_features
    if kind == "logistic":
        if train_data.labels.max() > 1:
            raise ConfigError("logistic model needs binary labels; use model=mlp")
        layers, d = None, n_in
    elif kind == "mlp":
        n_out = int(max(train_data.labels.max(), val_data.labels.max())) + 1
        layers = (n_in, hidden_units, n_out)
        d = n_in * hidden_units + hidden_units + hidden_units * n_out + n_out
    else:
        raise ConfigError(f"unknown model kind {kind!r}; use logistic or mlp")
    n_pairs = config.n_pairs_per_case
    _check_size(
        (f"a state array of {d} parameters", d),
        (f"a block of {n_pairs} sign vectors of {d} parameters", n_pairs * d),
    )
    h_prior = 1.0 / config.slab_std_max**2
    if layers is None:
        return LogisticModel(train_data, h_prior=h_prior)
    return MlpModel(train_data, layer_sizes=layers, h_prior=h_prior)


def _histogram_rows(epoch: int, p_nonzero: np.ndarray) -> list[list]:
    counts, edges = np.histogram(p_nonzero, bins=HISTOGRAM_BINS, range=(0.0, 1.0))
    return [[epoch, _fmt(edges[i]), _fmt(edges[i + 1]), int(count), _fmt(math.log10(count))]
            for i, count in enumerate(counts) if count > 0]


def cmd_train(args) -> int:
    config, run = load_run_config(args.config)
    if args.epochs is not None:
        if args.resume is not None:
            raise ConfigError("--resume continues the checkpoint's schedule; drop --epochs")
        if args.epochs < 0:
            raise ConfigError(f"--epochs must be >= 0, got {args.epochs}")
        config = replace(config, n_epochs=max(args.epochs, 1))
    if args.resume is not None:
        state, saved, done, rng = load_resume(args.resume)
        differ = [f.name for f in fields(config)
                  if getattr(config, f.name) != getattr(saved, f.name)]
        if differ:
            raise ConfigError(
                f"{args.resume}: the run's config differs from the checkpoint's in "
                + ", ".join(differ)
            )
    train_data, val_data, default_model = _resolve_data(args.data, run["max_cases"])
    model = _build_model(
        run["model"] or default_model, train_data, val_data, config, run["hidden_units"]
    )
    n_cases = train_data.n_cases
    if args.resume is None:
        rng = np.random.Generator(np.random.Philox(run["seed"]))
        state, done = init_state(model, n_cases, config, rng), 0

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    epoch_header = ["epoch", "J_train", "frac_zero_realizable", "frac_held",
                    "accuracy_val"]
    hist_header = ["epoch", "bin_low", "bin_high", "count", "log10_count"]
    epoch_rows, hist_rows = [], []

    def record(state, stats):
        preds = model.predict(state.mu, val_data.features)
        accuracy = float(np.mean(preds == val_data.labels))
        epoch_rows.append([stats.epoch] + [_fmt(v) for v in (
            stats.epoch_loss, stats.frac_zero_realizable, stats.frac_held, accuracy)])
        hist_rows.extend(_histogram_rows(stats.epoch, state.p_nonzero))

    if args.epochs != 0:
        train(model, n_cases, config, callback=record, start=(state, done, rng))
        done = config.n_epochs

    # The checkpoint first: a state it refuses (non-finite) leaves no new file.
    save_checkpoint(out_dir / "checkpoint.json", state, config, done, rng)
    _write_csv(out_dir / "epochs.csv", epoch_header, epoch_rows)
    _write_csv(out_dir / "sieve_histogram.csv", hist_header, hist_rows)
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
    tr.add_argument("--resume", default=None, metavar="CKPT",
                    help="continue the run saved in a checkpoint.json, with the "
                         "same --config and --data")
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
