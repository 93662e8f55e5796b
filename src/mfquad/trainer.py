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
polishes the surviving slab means: its updates run on the survivors'
entries alone, while the coordinates decided zero sit at ``mu = sigma = 0``.

All per-coordinate state lives in flat arrays indexed like the model's
parameter vector.
"""

from __future__ import annotations

import base64
import json
import math
import os
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .meanfield import _spike_slab_std, spike_slab_moments
from .projection import _all_finite, _quadratic_approx

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
    "load_resume",
]

CHECKPOINT_FORMAT = "mfvi-ckpt-2"


def _power(x: float, exponent: int) -> float:
    """``x ** exponent`` in float arithmetic, inf where it overflows."""
    try:
        return float(x) ** exponent
    except OverflowError:
        return math.inf


def _check_slab_std_max(value) -> None:
    """ValueError unless ``value`` is positive and its prior precision
    ``value**-2``, formed as ``1/value**2`` too, is a finite positive number."""
    if value <= 0:
        raise ValueError("slab_std_max must be positive")
    if not (0 < _power(value, -2) < math.inf and 0 < _power(value, 2) < math.inf):
        raise ValueError(f"slab_std_max {value!r} is out of range: its prior precision "
                         "slab_std_max**-2 is not a finite positive number")


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
        # the initial curvature 1/lr_init, and the prior precision
        # slab_std_max**-2 (formed as 1/slab_std_max**2 too), must be finite
        # and positive
        if not 1.0 / self.lr_init < math.inf:
            raise ValueError(f"lr_init {self.lr_init!r} is too small: 1/lr_init overflows")
        _check_slab_std_max(self.slab_std_max)
        if not 0 <= self.frac_zero_target <= 1 or not 0 <= self.frac_held_target <= 1:
            raise ValueError("sparsity fractions must lie in [0, 1]")
        if self.frac_zero_target + self.frac_held_target > 1:
            raise ValueError("frac_zero_target + frac_held_target must be <= 1")
        if not 0 < self.p_sieve_zero < 0.5 < self.p_sieve_one < 1:
            raise ValueError("need 0 < p_sieve_zero < 0.5 < p_sieve_one < 1")

    @cached_property
    def target_logit_zero(self) -> float:
        """Zero-logit pinned onto coordinates scheduled to vanish."""
        return math.log(1.0 / self.p_sieve_zero - 1.0)

    @cached_property
    def target_logit_one(self) -> float:
        """Zero-logit pinned onto coordinates held confidently nonzero."""
        return math.log(1.0 / self.p_sieve_one - 1.0)


@dataclass
class Accumulator:
    """Running sum of quadratic snapshots: count, gradient, curvature (no
    step reads their constant terms, so they are not kept)."""

    n: int
    grad: np.ndarray
    hess: np.ndarray

    def add(self, grad: np.ndarray, hess: np.ndarray, hess_floor: float) -> None:
        """Fold in one snapshot; the summed curvature is floored at ``hess_floor``."""
        self.n += 1
        self.grad += grad
        self.hess += hess
        np.maximum(self.hess, hess_floor, out=self.hess)

    def recenter(self, delta: np.ndarray) -> None:
        """Re-express the summed gradient around a mean moved by ``delta``;
        as a function of the point, the surrogate's gradient is unchanged."""
        self.grad += self.hess * delta

    def reset(self) -> None:
        """Empty the sum."""
        self.n = 0
        self.grad.fill(0.0)
        self.hess.fill(0.0)


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
    n_cases: int              # cases of the run's data

    @property
    def mu(self) -> np.ndarray:
        """Mean of the spike-and-slab marginal."""
        return self.p_nonzero * self.slab_mean

    @property
    def sigma(self) -> np.ndarray:
        """Standard deviation of the spike-and-slab marginal."""
        return _spike_slab_std(self.p_nonzero, self.slab_mean, self.slab_std)

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
    strictly positive ``hess`` and a ``slab_std_max`` that ``TrainConfig``
    accepts (ValueError).
    """
    hess = np.asarray(hess, dtype=np.float64)
    mean = np.asarray(slab_mean, dtype=np.float64)
    _check_slab_std_max(slab_std_max)
    # one reduction; a NaN minimum is refused as well
    if hess.size and not hess.min() > 0:
        raise ValueError("zero_logits needs strictly positive curvature")
    return _zero_logits(hess, mean, slab_std_max)


def _zero_logits(hess: np.ndarray, mean: np.ndarray, slab_std_max: float) -> np.ndarray:
    out = hess * slab_std_max**2
    np.log(out, out=out)
    penalty = np.square(mean)
    penalty *= hess
    out -= penalty
    out *= 0.5
    return out


def sieve_map(values, frac_zero: float, frac_held: float, target_zero: float = math.log(999.0),
              target_held: float = -math.log(999.0)) -> np.ndarray:
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
    the middle ranks between coincident hinges, or hinges too close for a
    finite slope, sit at the undecided midpoint; hinges more than DBL_MAX
    apart interpolate on halved values.

    Checks: fractions in [0, 1], finite targets with ``target_held <=
    target_zero``, and no NaN where an anchor is set (FloatingPointError: a
    NaN has no rank).
    An overflow is reported only in an entry that the output keeps.
    """
    values = np.asarray(values, dtype=np.float64)
    if not 0 <= frac_zero <= 1 or not 0 <= frac_held <= 1:
        raise ValueError("sieve fractions must lie in [0, 1]")
    if not (math.isfinite(target_zero) and math.isfinite(target_held)):
        raise ValueError("sieve targets must be finite")
    if target_held > target_zero:
        raise ValueError("target_held must not exceed target_zero")
    if (frac_zero or frac_held) and np.isnan(values).any():
        raise FloatingPointError("sieve_map needs zero-logits without NaN")
    return _sieve_map(values, frac_zero, frac_held, target_zero, target_held)


def _sieve_map(values, frac_zero, frac_held, target_zero, target_held) -> np.ndarray:
    d = values.size
    n_zero = math.ceil(frac_zero * d)
    n_held = min(math.ceil(frac_held * d), d - n_zero)

    if n_zero == 0 and n_held == 0:
        return values.copy()
    # Select the hinge ranks instead of sorting: partition at the zero hinge,
    # then the part below it at the held hinge (one two-rank partition call
    # is several times slower).
    scratch = values.copy()
    scratch.partition(d - n_zero if n_zero else n_held - 1)
    if n_zero and n_held:
        scratch[: d - n_zero].partition(n_held - 1)
    # Each hinge is the entry the stable sort would rank there, read back from
    # values when ties make it matter, which also keeps the sign of a zero
    # hinge.  Hinges are Python floats: their division overflows to inf
    # without a warning.
    if not (n_zero and n_held):  # one anchor: the whole vector shifts onto it
        rank, target = (d - n_zero, target_zero) if n_zero else (n_held - 1, target_held)
        _, ties, j = _rank_ties(values, scratch[rank], rank)
        out = values - values[ties[j]]
        out += target
        return out
    z0 = float(scratch[d - n_zero])  # smallest value scheduled to zero
    z1 = float(scratch[n_held - 1])  # largest value scheduled to hold
    top, low = values >= z0, values <= z1
    # A nonzero hinge tied with no entry outside its set gives its set by
    # one comparison.
    if not (z0 and z1 and np.count_nonzero(top) == n_zero
            and np.count_nonzero(low) == n_held):
        top, ties0, j0 = _rank_ties(values, z0, d - n_zero)
        z0 = float(values[ties0[j0]])
        low, ties1, j1 = _rank_ties(values, z1, n_held - 1)
        z1 = float(values[ties1[j1]])
        low[ties1[: j1 + 1]] = True
        np.logical_not(top, out=top)
        top[ties0[:j0]] = False

    # Each segment's formula runs over every entry with overflow silenced.
    # A middle entry lands between the targets, so an infinity left in out
    # is an anchored one: its segment's formula then runs again at the
    # entries it keeps, where an overflow is reported.
    with np.errstate(over="ignore"):
        out = values - z1
        np.add(out, target_held, out=scratch)
        if z0 - z1 == math.inf:  # hinges more than DBL_MAX apart: halve values
            np.multiply(values, 0.5, out=out)
            out -= 0.5 * z1
            slope = (target_zero - target_held) / (0.5 * z0 - 0.5 * z1)
        else:
            slope = (target_zero - target_held) / (z0 - z1) if z0 > z1 else math.inf
        if math.isfinite(slope):
            out *= slope
            out += target_held
        else:  # hinges coincide, or lie too close for a finite slope
            out.fill(0.5 * (target_zero + target_held))
        _copy_where(out, scratch, low, n_held)
        np.subtract(values, z0, out=scratch)
        scratch += target_zero
        _copy_where(out, scratch, top, n_zero)
        finite = math.isfinite(out @ out)
    if not finite:
        out[low] = values[low] - z1 + target_held
        out[top] = values[top] - z0 + target_zero
    return out


def _copy_where(dst: np.ndarray, src: np.ndarray, mask: np.ndarray, count: int) -> None:
    """``dst[mask] = src[mask]`` for a mask with ``count`` true entries.

    ``np.copyto(where=)`` branches per entry, so on a long mask it is
    fastest when nearly all entries are false or nearly all true; in
    between, gathering the indices first is faster (96 against 279 us on
    random 50% masks at d = 25,450).  Below about a thousand entries the two
    extra calls of the gather cost more than the branches.
    """
    n = mask.size
    if n >= 1024 and 0.05 * n < count < 0.8 * n:
        idx = mask.nonzero()[0]
        dst[idx] = src[idx]
    else:
        np.copyto(dst, src, where=mask)


def _rank_ties(values: np.ndarray, z: float, rank: int):
    """Where ``z``, the value of ascending ``rank`` in a stable sort, sits.

    Returns the mask of entries below ``z``, the indices of the entries
    equal to ``z`` in increasing order, and the offset of ``rank`` among
    those ties: the stable sort orders equal values by index, so the entry
    of that rank is ``ties[offset]``.
    """
    below = values < z
    ties = (values == z).nonzero()[0]
    return below, ties, rank - int(np.count_nonzero(below))


def _first_pass(n_cases: int, config: TrainConfig) -> tuple[int, float]:
    """The snapshot count of a fresh run's virtual completed pass (the first
    epoch's restart target, at least 1 or ValueError) and its ``hess_min``."""
    n_prev = anneal_target(1, config.n_epochs, n_cases)
    if n_prev < 1:
        raise ValueError(
            f"{n_cases} cases over {config.n_epochs} epochs leaves the first "
            "epoch with an empty accumulator; reduce n_epochs or add cases"
        )
    return n_prev, 1.0 / (n_prev * config.lr_max)


def init_state(model, n_cases: int, config: TrainConfig, rng) -> TrainState:
    """Fresh trainer state with a tight isotropic marginal around the init.

    The virtual completed pass is seeded with ``1/lr_init`` curvature so
    the first Newton steps have size ``lr_init``; its snapshot count is the
    first epoch's restart target.
    """
    d = model.n_params
    n_prev, hess_min = _first_pass(n_cases, config)
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
        prev=Accumulator(n_prev, np.zeros(d), np.full(d, 1.0 / config.lr_init)),
        cur=Accumulator(0, np.zeros(d), np.zeros(d)),
        seq_index=seq_index,
        hess_min=hess_min,
        n_cases=n_cases,
    )


def variational_update(state: TrainState, config: TrainConfig, grad: np.ndarray,
                       hess: np.ndarray, mu: np.ndarray, t: float,
                       final_epoch: bool = False) -> None:
    """Fold one quadratic snapshot into the state and refresh the marginal.

    Accumulates the snapshot's gradient and curvature, blends both passes,
    takes a damped diagonal Newton step on the slab means, re-derives slab
    deviations from the blended curvature, sieves the zero-logits per the
    sparsity schedule (or applies the frozen decisions in the final epoch),
    and re-centers the accumulated gradients at the moved marginal mean.
    ``mu`` is the mean the snapshot was expanded around (``state.mu``).

    A snapshot with a non-finite entry is refused (ValueError).
    """
    grad, hess = np.asarray(grad, dtype=np.float64), np.asarray(hess, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        if not _all_finite(grad, hess):
            raise ValueError("variational_update needs a snapshot of finite grad and hess")
    _variational_update(state, config, grad, hess, mu, t, final_epoch, checked=True)


def _variational_update(state, config, grad, hess, mu, t, final_epoch=False,
                        checked=False) -> None:
    """``variational_update`` behind its snapshot check.  A ``checked`` call
    sieves through the public ``zero_logits`` and ``sieve_map``, which
    refuse a state without positive curvature or with NaN; the case loop,
    whose state is valid, calls ``_zero_logits`` and ``_sieve_map``."""
    st, cf = state, config
    prev, cur = st.prev, st.cur
    cur.add(grad, hess, cf.slab_std_max**-2)

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
    np.sqrt(hess_hat, out=st.slab_std)  # slab_std = 1 / sqrt(hess_hat)
    np.divide(1.0, st.slab_std, out=st.slab_std)

    if final_epoch:
        np.copyto(st.p_nonzero, st.realized_nonzero)
    else:
        logits, sieve = (zero_logits, sieve_map) if checked else (_zero_logits, _sieve_map)
        raw = logits(hess_hat, st.slab_mean, cf.slab_std_max)
        frac_zero, frac_held = sparsity_schedule(
            t, cf.n_epochs, cf.frac_zero_target, cf.frac_held_target
        )
        st.zero_logit = sieve(raw, frac_zero, frac_held, cf.target_logit_zero, cf.target_logit_one)
        # p_nonzero = 1 / (1 + exp(zero_logit)); where exp overflows
        # (zero_logit > 709.78) p = 0, less than 2**-1022 from the exact value
        p = st.p_nonzero
        with np.errstate(over="ignore"):
            np.exp(st.zero_logit, out=p)
        p += 1.0
        np.divide(1.0, p, out=p)

    delta = np.multiply(st.p_nonzero, st.slab_mean, out=work)  # new mean - old mu
    delta -= mu
    prev.recenter(delta)
    cur.recenter(delta)


def _gather(state: TrainState, keep: np.ndarray) -> TrainState:
    """A state of its own holding copies of ``state``'s entries ``keep``."""
    def acc(a: Accumulator) -> Accumulator:
        return Accumulator(a.n, a.grad[keep], a.hess[keep])

    return TrainState(
        slab_mean=state.slab_mean[keep],
        slab_std=state.slab_std[keep],
        zero_logit=state.zero_logit[keep],
        p_nonzero=state.p_nonzero[keep],
        realized_nonzero=state.realized_nonzero[keep],
        prev=acc(state.prev),
        cur=acc(state.cur),
        seq_index=state.seq_index,
        hess_min=state.hess_min,
        n_cases=state.n_cases,
    )


def _scatter(part: TrainState, state: TrainState, keep: np.ndarray) -> None:
    """Write the final epoch's survivors ``part`` back into ``state`` at
    ``keep``, and round every keep probability to its frozen decision."""
    np.copyto(state.p_nonzero, state.realized_nonzero)
    state.slab_mean[keep] = part.slab_mean
    state.slab_std[keep] = part.slab_std
    for src, dst in ((part.prev, state.prev), (part.cur, state.cur)):
        dst.n = src.n
        dst.grad[keep] = src.grad
        dst.hess[keep] = src.hess


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
    before any case is visited; its first case still expands around the
    unrounded marginal, and that case's update does the rounding.  The
    epoch's updates run on a gathered copy of the survivors' entries,
    written back when it ends, and from its second case on the projection
    forms its summary at the survivors alone.  The update is elementwise, so each survivor
    ends bit for bit where an update of every coordinate would leave it; a
    dead coordinate keeps the slab parameters and completed-pass sums it
    had at the freeze, and an empty current pass.  An overflow, invalid
    operation or division by zero in a case raises FloatingPointError,
    whose message names the epoch and the case's position in it.

    The loop calls ``_quadratic_approx`` and ``_variational_update``, the
    kernels behind the per-case public functions' checks, by their names in
    this module, and guarantees those checks' conditions: flat float64
    moments of length d; pair counts, fractions, targets and
    ``slab_std_max`` from ``TrainConfig``; in the final epoch,
    ``mu = sigma = 0`` outside the sorted survivors; blended curvature at
    least ``slab_std_max**-2``; and snapshots checked finite per case, so no
    zero-logit is NaN.
    """
    st, cf = state, config
    st.cur.reset()
    target = anneal_target(epoch, cf.n_epochs, n_cases)
    final = epoch == cf.n_epochs
    part, keep = st, None  # the state the update runs on, and its entries
    if final:
        st.realized_nonzero = (st.p_nonzero >= 0.5).astype(np.float64)
        keep = st.realized_nonzero.nonzero()[0]
        part = _gather(st, keep)

    epoch_loss = 0.0
    i = 0
    # the deliberate overflows are ignored where they happen
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        try:
            for i, case in enumerate(rng.permutation(n_cases).tolist()):
                index = None  # the coordinates whose summary the update reads
                if keep is None or i == 0:
                    # The final epoch's first case expands around the unrounded
                    # marginal too: its update rounds p_nonzero.
                    mu, sigma = spike_slab_moments(st.p_nonzero, st.slab_mean, st.slab_std)
                    center = mu if keep is None else mu[keep]
                else:
                    if i == 1:  # from here on the coordinates decided zero sit at 0
                        mu.fill(0.0)
                        sigma.fill(0.0)
                    center, sigma_keep = spike_slab_moments(
                        part.p_nonzero, part.slab_mean, part.slab_std
                    )
                    mu[keep] = center
                    sigma[keep] = sigma_keep
                    index = keep
                snap = _quadratic_approx(model, case, mu, sigma, st.seq_index,
                                         cf.n_pairs_per_case, index)
                st.seq_index += cf.n_pairs_per_case
                epoch_loss += snap.loss
                t = (epoch - 1) + i / n_cases
                grad, hess = snap.grad, snap.hess
                if keep is not None and index is None:
                    grad, hess = grad[keep], hess[keep]
                _variational_update(part, cf, grad, hess, center, t, final)
                if part.cur.n == target:
                    part.prev, part.cur = part.cur, part.prev
                    part.cur.reset()
        except FloatingPointError as err:
            raise FloatingPointError(
                f"epoch {epoch}, case {i + 1} of {n_cases}: {err}"
            ) from err
    if keep is not None:
        _scatter(part, st, keep)

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
    start=None,
) -> tuple[TrainState, list[EpochStats]]:
    """Run the full schedule; returns the final state and per-epoch stats.

    ``callback(state, stats)``, if given, runs after every epoch.  After
    the final epoch, coordinates decided zero have exactly ``mu = 0`` and
    ``sigma = 0`` (their slab parameters and completed-pass sums are the
    ones they had when the decisions froze); survivors carry their polished
    slab mean and deviation.
    ``start = (state, epoch, rng)`` continues a run whose first ``epoch``
    epochs are done (as ``load_resume`` returns it) in place of a fresh one
    from ``seed``; the run then ends bit-identical to the uninterrupted one.
    Raises ValueError when ``state.n_cases`` is not ``n_cases``, or when
    ``state.hess_min`` is not the one a fresh run on ``n_cases`` cases under
    ``config`` starts with.
    """
    if start is None:
        rng = np.random.Generator(np.random.Philox(seed))
        start = (init_state(model, n_cases, config, rng), 0, rng)
    state, done, rng = start
    _, hess_min = _first_pass(n_cases, config)
    if state.n_cases != n_cases:
        raise ValueError(
            f"the state is of a run on {state.n_cases} cases, not {n_cases}; "
            "resume on the run's own data"
        )
    if state.hess_min != hess_min:
        raise ValueError(
            f"the state's hess_min {state.hess_min!r} is not {hess_min!r}, the one "
            f"of a run on {n_cases} cases; resume on the run's own data"
        )
    history = []
    for epoch in range(done + 1, config.n_epochs + 1):
        stats = run_epoch(state, model, n_cases, config, epoch, rng)
        history.append(stats)
        if callback is not None:
            callback(state, stats)
    return state, history


# ------------------------------------------------------------ checkpoints

# Format 2 stores each array as base64 of its little-endian float64 bytes.
# The current pass is not stored: run_epoch empties it before its first case.
_ARRAY_FIELDS = (
    "slab_mean",
    "slab_std",
    "zero_logit",
    "p_nonzero",
    "realized_nonzero",
    "grad_prev",
    "hess_prev",
)
_SCALAR_FIELDS = ("n_prev", "seq_index", "hess_min", "n_cases")

# Allowed entry ranges, "(" excluding the low end; every other array only
# needs finite entries.  The completed-pass curvature starts at 1 / lr_init
# and is floored at slab_std_max**-2, and slab_std = 1 / sqrt(hess_hat), so
# no run writes a curvature or a slab deviation that is not positive.
_ARRAY_RANGES = {
    "p_nonzero": ("[", 0.0, 1.0),
    "realized_nonzero": ("[", 0.0, 1.0),
    "slab_std": ("(", 0.0, math.inf),
    "hess_prev": ("(", 0.0, math.inf),
}


def _checkpoint_value(state: TrainState, key: str):
    """Value stored under checkpoint ``key``: ``<name>_prev`` is a field of
    the completed pass."""
    name, _, acc = key.rpartition("_")
    return getattr(state.prev, name) if acc == "prev" else getattr(state, key)


def _plain(value):
    """numpy scalars and arrays, also inside a dict, as the Python numbers
    and lists JSON can write."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value.tolist() if isinstance(value, (np.generic, np.ndarray)) else value


def save_checkpoint(path, state: TrainState, config: TrainConfig, epoch: int, rng) -> None:
    """JSON checkpoint of a run after ``epoch`` completed epochs.

    Format ``mfvi-ckpt-2``: each state array is base64 of its little-endian
    float64 bytes, so it loads bit for bit; ``mu``/``sigma`` are derived,
    and the current pass, which the next epoch empties, is not stored; the
    scalars, among them the run's case count ``n_cases``, are JSON numbers;
    ``epoch`` and the Philox state of ``rng``, the run's generator, let
    ``load_resume`` continue the run.  After the final epoch, a coordinate
    decided zero stores the slab parameters and completed-pass sums it had
    when the decisions froze, since no step updates or reads them.  Raises
    FloatingPointError naming the first non-finite field before anything is
    written.  The file is written under a temporary name in the same
    directory and renamed over ``path``, so ``path`` holds either its old
    content or the whole new checkpoint.
    """
    arrays = {k: _checkpoint_value(state, k) for k in _ARRAY_FIELDS}
    scalars = {k: _plain(_checkpoint_value(state, k)) for k in _SCALAR_FIELDS}
    for key, value in (*arrays.items(), *scalars.items()):
        if type(value) is not int and not np.all(np.isfinite(value)):
            raise FloatingPointError(f"checkpoint field {key!r} holds a non-finite value")
    rng_state = _plain(rng.bit_generator.state)
    if rng_state["bit_generator"] != "Philox":
        raise ValueError(f"checkpoints store a Philox generator, not {rng_state['bit_generator']}")
    payload = {
        "format": CHECKPOINT_FORMAT,
        "config": {f.name: _plain(getattr(config, f.name)) for f in fields(config)},
        "state": {
            **{k: base64.b64encode(a.astype("<f8", copy=False).tobytes()).decode("ascii")
               for k, a in arrays.items()},
            **scalars,
            "epoch": _plain(epoch),
            "rng": rng_state,
        },
    }
    _write_atomic(path, (json.dumps(payload, indent=1, allow_nan=False) + "\n").encode("ascii"))


def _write_atomic(path, data: bytes) -> None:
    """Writes ``data`` to a new file beside ``path``, syncs it and renames it
    over ``path``; on any failure the new file is removed and ``path`` is
    left as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _decoded(raw: dict, key: str) -> np.ndarray:
    """The float64 array a format-2 field holds as base64 text."""
    try:
        buf = base64.b64decode(raw.get(key), validate=True)
    except (TypeError, ValueError) as err:  # not text, or not base64
        raise ValueError(f"checkpoint field {key!r} must be base64 text ({err})") from err
    if len(buf) % 8:
        raise ValueError(
            f"checkpoint field {key!r} holds {len(buf)} bytes, not whole float64 values"
        )
    return np.frombuffer(buf, dtype="<f8").astype(np.float64)


def _checked_state(raw: dict) -> TrainState:
    """TrainState from a checkpoint's ``state`` object, with an empty current
    pass.

    Raises ValueError naming the first field that is missing, mistyped, of
    the wrong length, non-finite or out of range.
    """
    arrays = {k: _decoded(raw, k) for k in _ARRAY_FIELDS}
    d = int(np.median([a.size for a in arrays.values()]))  # a lone damaged field is outvoted
    for key, a in arrays.items():
        low_end, lo, hi = _ARRAY_RANGES.get(key, ("[", -math.inf, math.inf))
        above = a > lo if low_end == "(" else a >= lo
        if a.shape != (d,) or not np.all(np.isfinite(a) & above & (a <= hi)):
            raise ValueError(
                f"checkpoint field {key!r} must hold {d} finite values in {low_end}{lo}, {hi}]"
            )
    for key in _SCALAR_FIELDS:
        v = raw.get(key)
        if key == "hess_min":
            ok, want = type(v) is float and math.isfinite(v), "a finite float"
        elif key == "n_cases":
            ok, want = type(v) is int and v >= 1, "a positive integer"
        else:
            ok, want = type(v) is int and v >= 0, "a nonnegative integer"
        if not ok:
            raise ValueError(f"checkpoint field {key!r} must be {want}, got {v!r}")
    if raw["n_prev"] > raw["n_cases"]:  # a completed pass holds one restart target
        raise ValueError(f"checkpoint field 'n_prev' exceeds 'n_cases', got {raw['n_prev']!r}")
    return TrainState(
        slab_mean=arrays["slab_mean"],
        slab_std=arrays["slab_std"],
        zero_logit=arrays["zero_logit"],
        p_nonzero=arrays["p_nonzero"],
        realized_nonzero=arrays["realized_nonzero"],
        prev=Accumulator(raw["n_prev"], arrays["grad_prev"], arrays["hess_prev"]),
        cur=Accumulator(0, np.zeros(d), np.zeros(d)),
        seq_index=raw["seq_index"],
        hess_min=raw["hess_min"],
        n_cases=raw["n_cases"],
    )


def _checked_rng(raw: dict) -> np.random.Generator:
    """The generator a format-2 ``rng`` field holds: exactly a state that
    ``np.random.Philox`` reports, with ``buffer_pos`` inside its buffer."""
    v = raw.get("rng")
    bit_gen = np.random.Philox()
    try:
        bit_gen.state = {
            **v,
            "state": {k: np.array(v["state"][k], dtype=np.uint64) for k in ("counter", "key")},
            "buffer": np.array(v["buffer"], dtype=np.uint64),
        }
        back = _plain(bit_gen.state)
        ok = json.dumps(back, sort_keys=True) == json.dumps(v, sort_keys=True)
        ok = ok and 0 <= back["buffer_pos"] <= len(back["buffer"])
    except (TypeError, ValueError, KeyError, IndexError, OverflowError):
        ok = False
    if not ok:
        raise ValueError(f"checkpoint field 'rng' must be a Philox generator state, got {v!r}")
    return np.random.Generator(bit_gen)


def load_resume(path) -> tuple[TrainState, TrainConfig, int, np.random.Generator]:
    """A checkpoint as a run to continue: its state, config, completed epoch
    count and generator (pass ``(state, epoch, rng)`` to ``train`` as
    ``start``).  Raises ValueError naming the format tag or the first field
    that is missing or invalid."""
    try:
        with open(path, "rb") as fh:
            payload = json.loads(fh.read())
    except ValueError as err:  # not JSON, or not text
        raise ValueError(f"{path}: not a JSON checkpoint ({err})") from err
    tag = payload.get("format") if isinstance(payload, dict) else None
    if tag != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: unsupported checkpoint format {tag!r}")
    try:
        config = TrainConfig(**payload["config"])
    except (KeyError, TypeError, ValueError) as err:  # missing, unknown key, bad type or range
        raise ValueError(f"{path}: bad checkpoint config ({err})") from err
    raw = payload.get("state")
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: checkpoint field 'state' must be a JSON object")
    state = _checked_state(raw)
    epoch = raw.get("epoch")
    if type(epoch) is not int or not 0 <= epoch <= config.n_epochs:
        raise ValueError(
            f"checkpoint field 'epoch' must be an integer in [0, {config.n_epochs}], "
            f"got {epoch!r}"
        )
    # Only the final epoch freezes decisions, and it leaves p_nonzero equal to them.
    if epoch < config.n_epochs and not np.all(state.realized_nonzero == 1.0):
        raise ValueError(
            f"checkpoint field 'realized_nonzero' must be all ones before the final "
            f"epoch, but 'epoch' is {epoch} of {config.n_epochs}"
        )
    if epoch == config.n_epochs and not np.array_equal(state.p_nonzero, state.realized_nonzero):
        raise ValueError(
            "checkpoint field 'p_nonzero' must equal 'realized_nonzero' when 'epoch' is "
            f"the final {epoch}"
        )
    return state, config, epoch, _checked_rng(raw)


def load_checkpoint(path) -> tuple[TrainState, TrainConfig]:
    """The state and config of a checkpoint, validated as ``load_resume`` does."""
    return load_resume(path)[:2]
