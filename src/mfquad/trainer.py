"""Sparsifying mean-field variational trainer.

Fits a spike-and-slab mean field over model parameters from streamed
quadratic snapshots of per-case losses.  Each case contributes a loss,
gradient, and diagonal-curvature estimate obtained by antithetic
sign-vector quadrature; the trainer blends a completed pass of such
snapshots with the accumulating current pass, takes a damped diagonal
Newton step on the slab means, and converts curvatures into per-coordinate
zero-vs-keep logits.  A rank-based "sieve" rescales those logits so that a
scheduled fraction of coordinates becomes confidently zero while a held
fraction stays confidently nonzero, annealing toward the target sparsity
over the epochs.  The final epoch freezes the zero/nonzero decisions and
polishes the surviving slab means.

All per-coordinate state lives in flat arrays indexed like the model's
parameter vector.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .meanfield import spike_slab_moments
from .projection import quadratic_approx

__all__ = [
    "TrainConfig",
    "TrainState",
    "EpochStats",
    "hybrid_coeffs",
    "anneal_target",
    "sparsity_schedule",
    "zero_logits",
    "sieve_map",
    "init_state",
    "variational_update",
    "run_epoch",
    "train",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_FORMAT = "mfvi-ckpt-1"


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of the sparsifying trainer."""

    n_epochs: int = 10
    n_pairs_per_case: int = 2
    lr_init: float = 1e-5
    lr_max: float = 0.1
    slab_std_max: float = 0.3
    frac_zero_target: float = 0.97
    frac_held_target: float = 0.01
    p_sieve_zero: float = 0.001
    p_sieve_one: float = 0.999

    def __post_init__(self):
        # Types first, never coerced: bool is neither an integer nor a number.
        for f in fields(self):
            v = getattr(self, f.name)
            if f.type == "int":
                ok, want = isinstance(v, (int, np.integer)), "an integer"
            else:
                ok = isinstance(v, (int, float, np.integer, np.floating)) and math.isfinite(v)
                want = "a finite number"
            if isinstance(v, bool) or not ok:
                raise ValueError(f"{f.name} must be {want}, got {v!r}")
        if self.n_epochs < 1:
            raise ValueError(f"n_epochs must be >= 1, got {self.n_epochs}")
        if self.n_pairs_per_case < 1:
            raise ValueError(
                f"n_pairs_per_case must be >= 1, got {self.n_pairs_per_case}"
            )
        if not 0 < self.lr_init <= self.lr_max:
            raise ValueError("need 0 < lr_init <= lr_max")
        if self.slab_std_max <= 0:
            raise ValueError("slab_std_max must be positive")
        if not 0 <= self.frac_zero_target <= 1 or not 0 <= self.frac_held_target <= 1:
            raise ValueError("sparsity fractions must lie in [0, 1]")
        if self.frac_zero_target + self.frac_held_target > 1:
            raise ValueError("frac_zero_target + frac_held_target must be <= 1")
        if not 0 < self.p_sieve_zero < 0.5 < self.p_sieve_one < 1:
            raise ValueError("need 0 < p_sieve_zero < 0.5 < p_sieve_one < 1")

    @property
    def target_logit_zero(self) -> float:
        """Zero-logit pinned onto coordinates scheduled to vanish."""
        return math.log(1.0 / self.p_sieve_zero - 1.0)

    @property
    def target_logit_one(self) -> float:
        """Zero-logit pinned onto coordinates held confidently nonzero."""
        return math.log(1.0 / self.p_sieve_one - 1.0)


@dataclass
class Accumulator:
    """Running sum of quadratic snapshots: count, gradient, curvature, loss."""

    n: int
    grad: np.ndarray
    hess: np.ndarray
    loss: float

    def add(self, loss: float, grad: np.ndarray, hess: np.ndarray, hess_floor: float) -> None:
        """Fold in one snapshot; the summed curvature is floored at ``hess_floor``."""
        self.n += 1
        self.grad += grad
        self.loss += loss
        self.hess += hess
        np.maximum(self.hess, hess_floor, out=self.hess)

    def recenter(self, delta: np.ndarray) -> None:
        """Re-express the summed quadratic around a mean moved by ``delta``.

        The surrogate it represents is unchanged as a function.
        """
        # loss += grad @ delta + 0.5 * (hess * delta) @ delta; grad += hess * delta
        step = self.hess * delta
        step *= 0.5
        self.loss += float(self.grad @ delta + step @ delta)
        np.multiply(self.hess, delta, out=step)
        self.grad += step

    def reset(self) -> None:
        """Empty the sum."""
        self.n = 0
        self.grad.fill(0.0)
        self.hess.fill(0.0)
        self.loss = 0.0


@dataclass
class TrainState:
    """Mutable per-coordinate posterior and accumulator state.

    The marginal used for quadrature, ``mu``/``sigma``, is derived from the
    spike-and-slab parameters rather than stored.
    """

    slab_mean: np.ndarray     # mean of the nonzero (slab) component
    slab_std: np.ndarray      # deviation of the slab component
    zero_logit: np.ndarray    # sieved log-odds that a coordinate is zero
    p_nonzero: np.ndarray     # probability a coordinate is nonzero
    realized_nonzero: np.ndarray  # frozen 0/1 decisions (final epoch)
    prev: Accumulator         # snapshots of the completed pass
    cur: Accumulator          # snapshots of the accumulating pass
    seq_index: int            # next sign-vector index to consume
    hess_min: float           # per-snapshot curvature floor scale

    @property
    def mu(self) -> np.ndarray:
        """Mean of the spike-and-slab marginal."""
        return spike_slab_moments(self.p_nonzero, self.slab_mean, self.slab_std)[0]

    @property
    def sigma(self) -> np.ndarray:
        """Standard deviation of the spike-and-slab marginal."""
        return spike_slab_moments(self.p_nonzero, self.slab_mean, self.slab_std)[1]

    @property
    def dim(self) -> int:
        return self.slab_mean.shape[0]


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    epoch_loss: float
    frac_zero_realizable: float  # coordinates currently rounding to zero
    frac_held: float             # coordinates pinned at the keep anchor


def hybrid_coeffs(n_prev: int, n_cur: int) -> tuple[float, float]:
    """Blend weights for completed-pass and current-pass accumulators.

    Chosen so that ``a0 * prev + a1 * cur`` has the mean and variance of a
    sum of ``max(n_prev, n_cur)`` i.i.d. snapshots whenever the two passes
    draw from the same distribution.
    """
    total = n_prev + n_cur
    if total <= 0:
        raise ValueError("hybrid_coeffs needs n_prev + n_cur >= 1")
    a0 = max(0.0, (n_prev - n_cur) / total)
    a1 = max(1.0, 2.0 * n_prev / total)
    return a0, a1


def anneal_target(epoch: int, n_epochs: int, n_cases: int) -> int:
    """Snapshot count per accumulator restart; doubles every epoch.

    Reaches the full dataset size in the last epoch.
    """
    # ldexp is exact wherever n_cases * 2.0**(epoch - n_epochs) is finite, and
    # underflows to 0.0 instead of overflowing for a huge n_epochs.
    return math.floor(math.ldexp(n_cases, int(epoch - n_epochs)))


def sparsity_schedule(
    t: float, n_epochs: int, frac_zero_target: float, frac_held_target: float
) -> tuple[float, float]:
    """Scheduled (frac_zero, frac_held) at continuous epoch time ``t``.

    The zeroed fraction ramps from 0 at ``t = 1`` to the full target at
    ``t = n_epochs - 1`` with exponentially slowing growth; mass not yet
    scheduled to vanish is added to the held fraction, so the two always
    sum to ``frac_zero_target + frac_held_target``.
    """
    denom = 1.0 - math.ldexp(1.0, int(2 - n_epochs))
    if denom <= 0.0:
        share = 1.0 if t >= n_epochs - 1 else 0.0
    else:
        share = (1.0 - 2.0 ** (1.0 - t)) / denom
        share = min(1.0, max(0.0, share))
    frac_zero = share * frac_zero_target
    frac_held = frac_held_target + frac_zero_target - frac_zero
    return frac_zero, frac_held


def zero_logits(hess, slab_mean, slab_std_max: float) -> np.ndarray:
    """Log-odds that a coordinate is zero, from curvature and slab mean.

    ``0.5 * (log(hess * slab_std_max**2) - hess * slab_mean**2)`` per
    coordinate: flat directions with large means are confidently nonzero,
    sharp directions with small means are confidently zero.  Requires
    strictly positive ``hess``.
    """
    hess = np.asarray(hess, dtype=np.float64)
    mean = np.asarray(slab_mean, dtype=np.float64)
    if np.any(hess <= 0):
        raise ValueError("zero_logits needs strictly positive curvature")
    out = hess * slab_std_max**2
    np.log(out, out=out)
    penalty = np.square(mean)
    penalty *= hess
    out -= penalty
    out *= 0.5
    return out


def sieve_map(
    values,
    frac_zero: float,
    frac_held: float,
    target_zero: float = math.log(999.0),
    target_held: float = -math.log(999.0),
) -> np.ndarray:
    """Monotone piecewise-linear rescaling of zero-logits.

    Shifts the top ``ceil(frac_zero * d)`` values (by rank, ties resolved
    by index) to land at or above ``target_zero`` — the confident zeros —
    and the bottom ``ceil(frac_held * d)`` to land at or below
    ``target_held`` — the confident keeps — interpolating the middle ranks
    linearly between the two hinge values.  Both anchor segments keep unit
    slope, the output is nondecreasing along the sorted order, and the map
    is continuous whenever the hinges are distinct.  Degenerate cases:
    with one fraction zero the whole vector shifts uniformly onto the
    remaining anchor; with both zero the values pass through unchanged;
    ties straddling coincident hinges sit at the undecided midpoint.
    """
    values = np.asarray(values, dtype=np.float64)
    d = values.size
    if not 0 <= frac_zero <= 1 or not 0 <= frac_held <= 1:
        raise ValueError("sieve fractions must lie in [0, 1]")
    if target_held > target_zero:
        raise ValueError("target_held must not exceed target_zero")
    n_zero = math.ceil(frac_zero * d)
    n_held = min(math.ceil(frac_held * d), d - n_zero)

    if n_zero == 0 and n_held == 0:
        return values.copy()
    if np.isnan(values).any():  # a NaN has no rank among the ties below
        raise FloatingPointError("sieve_map needs zero-logits without NaN")
    # Select the hinge ranks instead of sorting: partition at the zero hinge,
    # then the part below it at the held hinge (one two-rank partition call
    # is several times slower).
    scratch = np.partition(values, d - n_zero if n_zero else n_held - 1)
    if n_zero and n_held:
        scratch[: d - n_zero].partition(n_held - 1)
    # Each hinge is read back from values at the index the stable sort would
    # rank there, which also keeps the sign of a zero hinge.
    if n_zero == 0:
        _, ties, j = _rank_ties(values, scratch[n_held - 1], n_held - 1)
        out = values - values[ties[j]]
        out += target_held
        return out
    below, ties0, j0 = _rank_ties(values, scratch[d - n_zero], d - n_zero)
    z0 = values[ties0[j0]]  # smallest value scheduled to zero
    if n_held == 0:
        out = values - z0
        out += target_zero
        return out
    low, ties1, j1 = _rank_ties(values, scratch[n_held - 1], n_held - 1)
    z1 = values[ties1[j1]]  # largest value scheduled to hold
    low[ties1[: j1 + 1]] = True
    top = np.logical_not(below, out=below)
    top[ties0[:j0]] = False

    out = values - z1
    np.add(out, target_held, out=scratch)
    if z0 > z1:
        slope = (target_zero - target_held) / (z0 - z1)
        out *= slope
        out += target_held
    else:
        out.fill(0.5 * (target_zero + target_held))
    np.copyto(out, scratch, where=low)
    np.subtract(values, z0, out=scratch)
    scratch += target_zero
    np.copyto(out, scratch, where=top)
    return out


def _rank_ties(values: np.ndarray, z: float, rank: int):
    """Where ``z``, the value of ascending ``rank`` in a stable sort, sits.

    Returns the mask of entries below ``z``, the indices of the entries
    equal to ``z`` in increasing order, and the offset of ``rank`` among
    those ties: the stable sort orders equal values by index, so the entry
    of that rank is ``ties[offset]``.
    """
    below = values < z
    ties = np.flatnonzero(values == z)
    return below, ties, rank - int(np.count_nonzero(below))


def init_state(model, n_cases: int, config: TrainConfig, rng) -> TrainState:
    """Fresh trainer state with a tight isotropic marginal around the init.

    The virtual completed pass is seeded with ``1/lr_init`` curvature so
    the first Newton steps have size ``lr_init``; its snapshot count is the
    first epoch's restart target.
    """
    d = model.n_params
    n_prev = anneal_target(1, config.n_epochs, n_cases)
    if n_prev < 1:
        raise ValueError(
            f"{n_cases} cases over {config.n_epochs} epochs leaves the first "
            "epoch with an empty accumulator; reduce n_epochs or add cases"
        )
    # A copy: the state's arrays are updated in place.
    slab_mean = np.array(model.init_params(rng), dtype=np.float64)
    n_q = config.n_pairs_per_case
    seq_index = int(math.floor(rng.random() * d / n_q)) * n_q
    return TrainState(
        slab_mean=slab_mean,
        slab_std=np.full(d, math.sqrt(config.lr_init)),
        zero_logit=np.zeros(d),
        p_nonzero=np.ones(d),
        realized_nonzero=np.ones(d),
        prev=Accumulator(n_prev, np.zeros(d), np.full(d, 1.0 / config.lr_init), 0.0),
        cur=Accumulator(0, np.zeros(d), np.zeros(d), 0.0),
        seq_index=seq_index,
        hess_min=1.0 / (n_prev * config.lr_max),
    )


def variational_update(
    state: TrainState,
    config: TrainConfig,
    loss: float,
    grad: np.ndarray,
    hess: np.ndarray,
    mu: np.ndarray,
    t: float,
    final_epoch: bool = False,
) -> None:
    """Fold one quadratic snapshot into the state and refresh the marginal.

    Accumulates the snapshot, blends both passes, takes a damped diagonal
    Newton step on the slab means, re-derives slab deviations from the
    blended curvature, sieves the zero-logits per the sparsity schedule
    (or applies the frozen decisions in the final epoch), and re-centers
    the accumulated gradients and losses at the moved marginal mean.
    ``mu`` is the mean the snapshot was expanded around (``state.mu``).
    """
    st, cf = state, config
    prev, cur = st.prev, st.cur
    cur.add(loss, grad, hess, cf.slab_std_max**-2)

    # Every full-length result below lands in the state's own arrays or in
    # the local vectors hess_hat, work and term, with the float operations
    # of the formulas in the comments, in their order (operands of + and *
    # may swap: that is exact).
    a0, a1 = hybrid_coeffs(prev.n, cur.n)
    hess_hat = np.multiply(prev.hess, a0)  # a0 * prev.hess + a1 * cur.hess
    term = np.multiply(cur.hess, a1)
    hess_hat += term
    work = np.multiply(prev.grad, a0)  # grad_hat = a0 * prev.grad + a1 * cur.grad
    np.multiply(cur.grad, a1, out=term)
    work += term

    # slab_mean -= (grad_hat + hess_hat * (slab_mean - mu))
    #              / max(hess_hat, step_floor)
    step_floor = max(prev.n, cur.n) * st.hess_min
    np.subtract(st.slab_mean, mu, out=term)
    term *= hess_hat
    work += term
    np.maximum(hess_hat, step_floor, out=term)
    work /= term
    st.slab_mean -= work
    np.power(hess_hat, -0.5, out=st.slab_std)

    if final_epoch:
        np.copyto(st.p_nonzero, st.realized_nonzero)
    else:
        raw = zero_logits(hess_hat, st.slab_mean, cf.slab_std_max)
        frac_zero, frac_held = sparsity_schedule(
            t, cf.n_epochs, cf.frac_zero_target, cf.frac_held_target
        )
        st.zero_logit = sieve_map(
            raw, frac_zero, frac_held, cf.target_logit_zero, cf.target_logit_one
        )
        p = np.logaddexp(0.0, st.zero_logit, out=st.p_nonzero)
        np.negative(p, out=p)
        np.exp(p, out=p)

    delta = np.multiply(st.p_nonzero, st.slab_mean, out=work)  # new mean - old mu
    delta -= mu
    prev.recenter(delta)
    cur.recenter(delta)


def run_epoch(
    state: TrainState,
    model,
    n_cases: int,
    config: TrainConfig,
    epoch: int,
    rng,
) -> EpochStats:
    """One pass over a random permutation of the cases.

    The current accumulator restarts (promoting itself to the completed
    pass) every ``anneal_target(epoch, ...)`` snapshots.  In the final
    epoch the zero/nonzero decisions freeze to the rounded ``p_nonzero``
    before any case is visited.
    """
    st, cf = state, config
    st.cur.reset()
    target = anneal_target(epoch, cf.n_epochs, n_cases)
    final = epoch == cf.n_epochs
    if final:
        st.realized_nonzero = (st.p_nonzero >= 0.5).astype(np.float64)

    epoch_loss = 0.0
    for i, case in enumerate(rng.permutation(n_cases)):
        mu, sigma = spike_slab_moments(st.p_nonzero, st.slab_mean, st.slab_std)
        snap = quadratic_approx(model, int(case), mu, sigma, st.seq_index, cf.n_pairs_per_case)
        st.seq_index += cf.n_pairs_per_case
        epoch_loss += snap.loss
        t = (epoch - 1) + i / n_cases
        variational_update(st, cf, snap.loss, snap.grad, snap.hess, mu, t, final)
        if st.cur.n == target:
            st.prev, st.cur = st.cur, st.prev
            st.cur.reset()

    tol = 1e-12
    return EpochStats(
        epoch=epoch,
        epoch_loss=epoch_loss,
        frac_zero_realizable=float(np.mean(st.p_nonzero < 0.5)),
        frac_held=float(np.mean(st.zero_logit <= cf.target_logit_one + tol)),
    )


def train(
    model,
    n_cases: int,
    config: TrainConfig,
    seed: int = 0,
    callback=None,
) -> tuple[TrainState, list[EpochStats]]:
    """Run the full schedule; returns the final state and per-epoch stats.

    ``callback(state, stats)``, if given, runs after every epoch.  After
    the final epoch, coordinates decided zero have exactly ``mu = 0`` and
    ``sigma = 0``; survivors carry their polished slab mean and deviation.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    state = init_state(model, n_cases, config, rng)
    history = []
    for epoch in range(1, config.n_epochs + 1):
        stats = run_epoch(state, model, n_cases, config, epoch, rng)
        history.append(stats)
        if callback is not None:
            callback(state, stats)
    return state, history


# ------------------------------------------------------------ checkpoints

_ARRAY_FIELDS = (
    "mu",
    "sigma",
    "slab_mean",
    "slab_std",
    "zero_logit",
    "p_nonzero",
    "realized_nonzero",
    "grad_prev",
    "grad_cur",
    "hess_prev",
    "hess_cur",
)
_SCALAR_FIELDS = (
    "n_prev",
    "n_cur",
    "loss_prev",
    "loss_cur",
    "seq_index",
    "hess_min",
)

# Allowed entry ranges; every other array only needs finite entries.
_ARRAY_RANGES = {
    "p_nonzero": (0.0, 1.0),
    "realized_nonzero": (0.0, 1.0),
    "slab_std": (0.0, math.inf),
}


def _checkpoint_value(state: TrainState, key: str):
    """Value stored under checkpoint ``key``: ``<name>_prev`` and
    ``<name>_cur`` are fields of that accumulator."""
    name, _, acc = key.rpartition("_")
    if acc in ("prev", "cur"):
        return getattr(getattr(state, acc), name)
    return getattr(state, key)


def _plain(value):
    """A numpy scalar as the Python number JSON can write."""
    return value.item() if isinstance(value, np.generic) else value


def save_checkpoint(path, state: TrainState, config: TrainConfig) -> None:
    """JSON checkpoint; floats at full round-trip precision."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "config": {f.name: _plain(getattr(config, f.name)) for f in fields(config)},
        "state": {
            **{k: _checkpoint_value(state, k).tolist() for k in _ARRAY_FIELDS},
            **{k: _checkpoint_value(state, k) for k in _SCALAR_FIELDS},
        },
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def _checked_state(raw: dict) -> TrainState:
    """TrainState from a checkpoint's ``state`` object.

    Raises ValueError naming the first field that is missing, mistyped, of
    the wrong length, non-finite or out of range, or, for ``mu`` and
    ``sigma``, unequal to the moments the stored slab parameters imply.
    """
    arrays = {k: np.asarray(raw.get(k), dtype=np.float64) for k in _ARRAY_FIELDS}
    d = arrays["slab_mean"].size
    for key, a in arrays.items():
        lo, hi = _ARRAY_RANGES.get(key, (-math.inf, math.inf))
        if a.shape != (d,) or not np.all(np.isfinite(a) & (a >= lo) & (a <= hi)):
            raise ValueError(
                f"checkpoint field {key!r} must hold {d} finite values in [{lo}, {hi}]"
            )
    for key in _SCALAR_FIELDS:
        v = raw.get(key)
        if key in ("n_prev", "n_cur", "seq_index"):
            ok, want = type(v) is int and v >= 0, "a nonnegative integer"
        else:
            ok, want = type(v) in (int, float) and math.isfinite(v), "a finite number"
        if not ok:
            raise ValueError(f"checkpoint field {key!r} must be {want}, got {v!r}")
    state = TrainState(
        slab_mean=arrays["slab_mean"],
        slab_std=arrays["slab_std"],
        zero_logit=arrays["zero_logit"],
        p_nonzero=arrays["p_nonzero"],
        realized_nonzero=arrays["realized_nonzero"],
        prev=Accumulator(
            raw["n_prev"], arrays["grad_prev"], arrays["hess_prev"], raw["loss_prev"]
        ),
        cur=Accumulator(raw["n_cur"], arrays["grad_cur"], arrays["hess_cur"], raw["loss_cur"]),
        seq_index=raw["seq_index"],
        hess_min=raw["hess_min"],
    )
    for key in ("mu", "sigma"):
        if not np.array_equal(arrays[key], getattr(state, key)):
            raise ValueError(
                f"checkpoint field {key!r} differs from the moments of "
                "p_nonzero, slab_mean and slab_std"
            )
    return state


def load_checkpoint(path) -> tuple[TrainState, TrainConfig]:
    """Read and validate a checkpoint written by ``save_checkpoint``."""
    with open(path) as fh:
        payload = json.load(fh)
    tag = payload.get("format")
    if tag != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: unsupported checkpoint format {tag!r}")
    try:
        config = TrainConfig(**payload["config"])
    except (TypeError, ValueError) as err:  # unknown key, bad type or range
        raise ValueError(f"{path}: bad checkpoint config ({err})") from err
    return _checked_state(payload["state"]), config
