"""Trainer oracles: blend identities, schedules, sieve, update invariants."""

import base64
import collections
import contextlib
import copy
import decimal
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import mfquad.projection
import mfquad.trainer
import oracles
from mfquad.meanfield import spike_slab_moments
from mfquad.models import (
    Dataset,
    LogisticModel,
    MlpModel,
    QuadraticOracleModel,
    synth_sparse_logistic,
)
from mfquad.projection import QuadraticSummary, quadratic_approx
from mfquad.trainer import (
    Accumulator,
    EpochStats,
    TrainConfig,
    TrainState,
    _sieve_map,
    _variational_update,
    _zero_logits,
    anneal_target,
    hybrid_coeffs,
    init_state,
    load_checkpoint,
    load_resume,
    run_epoch,
    save_checkpoint,
    sparsity_schedule,
    train,
)

LOG999 = math.log(999.0)
TARGETS = (LOG999, -LOG999)  # the sieve's targets under TrainConfig's defaults
DBL_MAX = sys.float_info.max


# ------------------------------------------------------------- blending


def test_hybrid_coeffs_frozen():
    assert hybrid_coeffs(4, 1) == (0.6, 1.6)
    assert hybrid_coeffs(4, 4) == (0.0, 1.0)
    assert hybrid_coeffs(0, 5) == (0.0, 1.0)
    assert hybrid_coeffs(8, 1) == (7 / 9, 16 / 9)
    with pytest.raises(ValueError):
        hybrid_coeffs(0, 0)


@pytest.mark.parametrize("n_prev", [1, 2, 5, 8, 117])
@pytest.mark.parametrize("n_cur", [0, 1, 3, 8, 20])
def test_hybrid_matches_max_count_sum_moments(n_prev, n_cur):
    # a0*prev + a1*cur must behave like a sum of max(n_prev, n_cur) i.i.d.
    # snapshots: both the implied count (mean) and the implied squared
    # count (variance) equal max(n_prev, n_cur) exactly.
    a0, a1 = hybrid_coeffs(n_prev, n_cur)
    peak = max(n_prev, n_cur)
    assert a0 * n_prev + a1 * n_cur == pytest.approx(peak, rel=1e-12)
    assert a0**2 * n_prev + a1**2 * n_cur == pytest.approx(peak, rel=1e-12)


def test_anneal_target_frozen():
    assert anneal_target(1, 10, 60000) == 117
    assert anneal_target(1, 10, 1000) == 1
    assert anneal_target(5, 10, 512) == 16
    assert anneal_target(10, 10, 60000) == 60000
    assert anneal_target(3, 3, 7) == 7
    # an epoch count beyond any float underflows to an empty restart
    assert anneal_target(1, 10**400, 200) == 0


# ------------------------------------------------------------- schedules


def test_sparsity_schedule_frozen():
    f0, f1 = sparsity_schedule(2.0, 10, 0.97, 0.01)
    assert f0 == pytest.approx(0.97 * 128 / 255, abs=1e-15)
    assert f0 == pytest.approx(0.48690196078431373, abs=1e-15)
    assert f0 + f1 == pytest.approx(0.98, abs=1e-15)


def test_sparsity_schedule_endpoints():
    assert sparsity_schedule(1.0, 10, 0.97, 0.01) == (0.0, 0.98)
    f0, f1 = sparsity_schedule(9.0, 10, 0.97, 0.01)
    assert f0 == pytest.approx(0.97, abs=1e-15)
    assert f1 == pytest.approx(0.01, abs=1e-15)
    # clamped beyond the ramp, and never negative before it
    assert sparsity_schedule(9.7, 10, 0.97, 0.01)[0] == pytest.approx(0.97)
    assert sparsity_schedule(0.0, 10, 0.97, 0.01)[0] == 0.0


def test_sparsity_schedule_short_runs():
    # n_epochs <= 2 degenerates to a step at t = n_epochs - 1
    assert sparsity_schedule(0.5, 2, 0.8, 0.1) == pytest.approx((0.0, 0.9))
    assert sparsity_schedule(1.0, 2, 0.8, 0.1) == pytest.approx((0.8, 0.1))
    assert sparsity_schedule(0.0, 1, 0.8, 0.1) == pytest.approx((0.8, 0.1))
    assert sparsity_schedule(5.0, 10**400, 0.8, 0.1) == pytest.approx((0.8 * 15 / 16, 0.15))


def test_sparsity_schedule_monotone():
    E = 10
    prev = -1.0
    for t in np.linspace(0, E, 201):
        f0, f1 = sparsity_schedule(float(t), E, 0.9, 0.05)
        assert f0 >= prev
        assert f0 + f1 == pytest.approx(0.95)
        prev = f0


def test_zero_logits_frozen():
    # curvature 1, mean 0, cap 0.3: 0.5 * log(0.09)
    out = _zero_logits(np.array([1.0]), np.array([0.0]), 0.3)
    assert out[0] == pytest.approx(-1.2039728043259361, abs=1e-15)
    # large mean on a sharp coordinate is confidently nonzero (very negative)
    out = _zero_logits(np.array([100.0]), np.array([2.0]), 0.3)
    assert out[0] == pytest.approx(0.5 * (np.log(9.0) - 400.0))


def test_config_target_logits():
    cf = TrainConfig()
    assert cf.target_logit_zero == pytest.approx(LOG999, rel=1e-12)
    assert cf.target_logit_one == pytest.approx(-LOG999, rel=1e-12)
    assert cf.target_logit_zero > 0 > cf.target_logit_one


# ------------------------------------------------------------------ sieve


def test_sieve_identity_when_unconstrained():
    v = np.array([3.0, -1.0, 2.0])
    assert_array_equal(_sieve_map(v, 0.0, 0.0, *TARGETS), v)


def test_sieve_frozen_four_values():
    # d=4, one pinned zero, one pinned keep: hinges z0=3, z1=0.
    v = np.array([3.0, 1.0, 2.0, 0.0])
    out = _sieve_map(v, 0.25, 0.25, *TARGETS)
    slope = 2 * LOG999 / 3.0
    assert_allclose(
        out, [LOG999, -LOG999 + slope, -LOG999 + 2 * slope, -LOG999], atol=1e-12
    )


def test_sieve_held_count_with_zero_frac():
    # frac_zero = 0: uniform shift anchored at the keep hinge, even when
    # every raw value sits far above the zero target.
    v = np.array([10.0, 11.0, 12.0, 13.0])
    out = _sieve_map(v, 0.0, 0.5, *TARGETS)
    assert_allclose(out, [-LOG999 - 1, -LOG999, -LOG999 + 1, -LOG999 + 2])
    assert np.sum(out <= -LOG999) == 2


def test_sieve_zero_count_with_zero_held():
    v = np.array([-5.0, -4.0, -3.0, -2.0])
    out = _sieve_map(v, 0.5, 0.0, *TARGETS)
    assert np.sum(out >= LOG999) == 2
    assert_allclose(out, [LOG999 - 2, LOG999 - 1, LOG999, LOG999 + 1])


def test_sieve_all_zero():
    v = np.array([1.0, 5.0, -2.0])
    out = _sieve_map(v, 1.0, 0.5, *TARGETS)  # held clamps to zero slots available
    assert np.all(out >= LOG999)


def test_sieve_ties_split_deterministically():
    v = np.zeros(4)
    out = _sieve_map(v, 0.25, 0.25, *TARGETS)
    # stable order: index 3 is the top rank, index 0 the bottom
    assert out[3] == pytest.approx(LOG999)
    assert out[0] == pytest.approx(-LOG999)
    assert_allclose(out[1:3], 0.0, atol=1e-15)  # straddling ties undecided
    assert_array_equal(out, _sieve_map(v, 0.25, 0.25, *TARGETS))


def test_sieve_custom_targets():
    v = np.array([0.0, 1.0, 2.0, 3.0])
    out = _sieve_map(v, 0.25, 0.25, target_zero=5.0, target_held=-7.0)
    assert out[3] == pytest.approx(5.0)
    assert out[0] == pytest.approx(-7.0)


@settings(deadline=None, max_examples=200)
@given(
    vals=st.lists(
        st.floats(-50, 50, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=40,
    ),
    frac_zero=st.floats(0, 1),
    frac_held=st.floats(0, 1),
)
def test_sieve_monotone_and_counts(vals, frac_zero, frac_held):
    values = np.asarray(vals)
    d = values.size
    out = _sieve_map(values, frac_zero, frac_held, *TARGETS)
    order = np.argsort(values, kind="stable")
    assert np.all(np.diff(out[order]) >= -1e-12)
    n_zero = math.ceil(frac_zero * d)
    n_held = min(math.ceil(frac_held * d), d - n_zero)
    assert np.sum(out >= LOG999 - 1e-12) >= n_zero
    assert np.sum(out <= -LOG999 + 1e-12) >= n_held


# The sieve's kernel, then its stable-sort oracle.
_KERNEL_AND_ORACLE = pytest.mark.parametrize(
    "sieve", [_sieve_map, oracles.sieve_map], ids=["sieve_map0", "sieve_map1"]
)


@_KERNEL_AND_ORACLE
def test_sieve_hinges_too_close_for_a_finite_slope(sieve):
    # Hinges one subnormal apart overflow the middle segment's slope; the
    # middle ranks then sit at the midpoint, as between coincident hinges,
    # instead of computing 0 * inf for the entry tied with the held hinge.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = sieve(np.array([0.0, 0.0, 5e-324]), 1 / 3, 1 / 3, *TARGETS)
    assert np.isfinite(out).all()
    assert out.tolist() == [-LOG999, 0.0, LOG999]


@_KERNEL_AND_ORACLE
def test_sieve_steep_slope_overflows_only_discarded_entries(sieve):
    # Hinges 4e-307 apart give a finite slope near 3.5e307; the top entry 6
    # overflows under it before its anchor segment replaces it, which must
    # raise no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = sieve(np.array([0.0, 6.0, 3.9519674218568144e-307]), 0.5, 1.0, *TARGETS)
    assert np.isfinite(out).all()
    assert out.tolist() == [-LOG999, 6.0 - 3.9519674218568144e-307 + LOG999, LOG999]


# Hinges less than DBL_MAX apart, with an entry whose gap to the other
# hinge overflows where an anchor segment replaces it: the top entry 1e308
# against the held hinge -1e308, and the low entry -1.7e308 against the zero
# hinge 0.9e308.
_DISCARDED_OVERFLOWS = [
    ([-1e308, 0.0, 1e308], 2 / 3, 1 / 3),
    ([-1.7e308, -0.5e308, 0.0, 0.9e308], 0.25, 0.5),
]


@_KERNEL_AND_ORACLE
@pytest.mark.parametrize("values, frac_zero, frac_held", _DISCARDED_OVERFLOWS)
def test_sieve_overflow_in_a_discarded_entry_is_silent(sieve, values, frac_zero, frac_held):
    values = np.array(values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = sieve(values, frac_zero, frac_held, *TARGETS)
    with np.errstate(over="raise", invalid="raise"):  # as run_epoch runs it
        assert sieve(values, frac_zero, frac_held, *TARGETS).tobytes() == out.tobytes()
    assert out.tobytes() == oracles.sieve_map(values, frac_zero, frac_held, *TARGETS).tobytes()
    assert np.isfinite(out).all()
    if len(values) == 3:
        assert out.tolist() == [-LOG999, LOG999, 1e308]


@_KERNEL_AND_ORACLE
def test_sieve_overflow_in_a_kept_entry_warns_once(sieve):
    # The top entry 1e308 is 2e308 above the zero hinge -1e308: its anchored
    # value overflows to inf, which is reported once, and raises under
    # run_epoch's errstate.
    values = np.array([-1.5e308, -1e308, 1e308])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = sieve(values, 2 / 3, 1 / 3, *TARGETS)
    assert [str(w.message) for w in caught] == ["overflow encountered in subtract"]
    assert out.tolist() == [-LOG999, LOG999, math.inf]
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        sieve(values, 2 / 3, 1 / 3, *TARGETS)


# Integer-valued entries from a narrow range: most vectors tie at the hinges.
_TIED_VALUES = st.lists(
    st.integers(-3, 3).map(float) | st.sampled_from([0.0, -0.0]), min_size=1, max_size=40
)
_EDGE_FRACS = st.sampled_from([0.0, 1.0, 0.25, 0.5, 0.75]) | st.floats(0, 1)


# 2,000 tied values; the zero and held masks hold ~3%, ~50% or ~97% of them,
# so either anchor is the larger one, whose formula runs over every entry.
_MASK_VALUES = [float(i * 37 % 11 - 5) for i in range(2000)]


@settings(deadline=None, max_examples=500)
@given(
    vals=_TIED_VALUES | st.builds(lambda v, n: [v] * n, st.integers(-2, 2).map(float),
                                  st.integers(1, 20)),
    frac_zero=_EDGE_FRACS,
    frac_held=_EDGE_FRACS,
    targets=st.sampled_from([(LOG999, -LOG999), (5.0, -7.0), (0.0, 0.0), (-0.0, -0.0)]),
)
@example(vals=_MASK_VALUES, frac_zero=0.03, frac_held=0.5, targets=(LOG999, -LOG999))
@example(vals=_MASK_VALUES, frac_zero=0.5, frac_held=0.03, targets=(LOG999, -LOG999))
@example(vals=_MASK_VALUES, frac_zero=0.97, frac_held=0.03, targets=(5.0, -7.0))
@example(vals=_MASK_VALUES, frac_zero=0.02, frac_held=0.97, targets=(5.0, -7.0))
@example(vals=_MASK_VALUES, frac_zero=0.5, frac_held=0.49, targets=(0.0, 0.0))
def test_sieve_matches_stable_sort_oracle(vals, frac_zero, frac_held, targets):
    # Selection with index-ordered ties reproduces the stable argsort bit for
    # bit, including all-equal vectors, coincident hinges and signed zeros.
    values = np.asarray(vals)
    out = _sieve_map(values, frac_zero, frac_held, *targets)
    assert out.tobytes() == oracles.sieve_map(values, frac_zero, frac_held, *targets).tobytes()
    assert not np.shares_memory(out, values)


def _largest_finite(f, x: float) -> float:
    """The largest float at which ``f``, in Python floats, is finite, from an
    estimate ``x`` within a few ulps of it."""
    while math.isfinite(f(math.nextafter(x, math.inf))):
        x = math.nextafter(x, math.inf)
    while not math.isfinite(f(x)):
        x = math.nextafter(x, 0.0)
    return x


@pytest.mark.parametrize("slab_std_max", [0.3, 1.0, 1e-100, 1e100])
def test_sieve_of_zero_logits_stays_finite(slab_std_max):
    # Zero-logits at the curvature floor and at the largest curvature whose
    # log term is finite, with means of ±0, ±1 and the largest whose penalty
    # is finite: the extremes of the domain the sieve's docstring states.
    # No formula of the sieve overflows there, whichever anchor is larger.
    floor = slab_std_max**-2
    hess, mean = [], []
    for h in (floor, _largest_finite(lambda x: x * slab_std_max**2,
                                     min(DBL_MAX, DBL_MAX / slab_std_max**2))):
        m = _largest_finite(lambda x: x * x * h, math.sqrt(DBL_MAX / max(h, 1.0)))
        for mu in (0.0, -0.0, 1.0, -1.0, m, -m, m / 2):
            hess.append(h)
            mean.append(mu)
    with np.errstate(all="raise"):
        values = _zero_logits(np.array(hess), np.array(mean), slab_std_max)
    assert values.min() >= -DBL_MAX / 2 and values.max() <= math.log(DBL_MAX) / 2
    assert values.min() < -DBL_MAX / 4  # the penalty reaches DBL_MAX's order
    extreme = TrainConfig(p_sieve_zero=5.6e-309, p_sieve_one=1 - 2**-53)
    for frac_zero, frac_held in ((0.97, 0.01), (0.5, 0.3), (0.1, 0.8), (0.3, 0.7),
                                 (1 / 3, 1 / 3), (0.0, 0.5), (0.5, 0.0)):
        for targets in (TARGETS, (5.0, -7.0),
                        (extreme.target_logit_zero, extreme.target_logit_one)):
            with np.errstate(all="raise"):
                out = _sieve_map(values, frac_zero, frac_held, *targets)
            assert np.isfinite(out).all()
            expected = oracles.sieve_map(values, frac_zero, frac_held, *targets)
            assert out.tobytes() == expected.tobytes()


def test_sieve_matches_oracle_at_model_scale():
    rng = np.random.Generator(np.random.Philox(12))
    values = rng.standard_normal(25_450)
    values[::7] = np.round(values[::7], 1)  # long runs of ties
    for frac_zero, frac_held in ((0.0, 0.96), (0.5, 0.46), (0.95, 0.01), (0.3, 0.0)):
        out = _sieve_map(values, frac_zero, frac_held, *TARGETS)
        expected = oracles.sieve_map(values, frac_zero, frac_held, *TARGETS)
        assert out.tobytes() == expected.tobytes()


@settings(deadline=None, max_examples=100)
@given(
    seed=st.integers(0, 10_000),
    d=st.integers(2, 60),
    frac_zero=st.floats(0.01, 0.95),
    frac_held=st.floats(0.01, 0.95),
)
def test_sieve_exact_counts_distinct_values(seed, d, frac_zero, frac_held):
    rng = np.random.Generator(np.random.Philox(seed))
    values = rng.standard_normal(d) * 10
    out = _sieve_map(values, frac_zero, frac_held, *TARGETS)
    n_zero = math.ceil(frac_zero * d)
    n_held = min(math.ceil(frac_held * d), d - n_zero)
    assert np.sum(out >= LOG999) == n_zero
    if n_zero < d:  # with distinct values the counts are tight
        assert np.sum(out <= -LOG999) == n_held


# ----------------------------------------------------------- valid configs


# Mistyped or non-finite hyperparameters: bool is not an integer.
BAD_CONFIG_VALUES = (
    ("slab_std_max", float("nan")),
    ("lr_max", float("inf")),
    ("n_epochs", 2.5),
    ("n_epochs", True),
    ("n_pairs_per_case", 1.5),
)


def test_config_validation():
    with pytest.raises(ValueError, match="n_epochs"):
        TrainConfig(n_epochs=0)
    with pytest.raises(ValueError, match="n_pairs"):
        TrainConfig(n_pairs_per_case=0)
    with pytest.raises(ValueError, match="lr_init"):
        TrainConfig(lr_init=0.2, lr_max=0.1)
    with pytest.raises(ValueError, match="slab_std_max"):
        TrainConfig(slab_std_max=0.0)
    # the prior precision slab_std_max**-2 and the first curvature 1/lr_init
    # must be finite and positive, and 1/slab_std_max**2 with them
    for value in (1e-200, 7e-155, 1.35e154, 1e200, np.float64(1e-160), -0.3, -math.inf):
        with pytest.raises(ValueError, match="slab_std_max"):
            TrainConfig(slab_std_max=value)
    for value in (1e-154, 1e154):
        assert 0 < 1.0 / TrainConfig(slab_std_max=value).slab_std_max**2 < math.inf
    with pytest.raises(ValueError, match="lr_init"):
        TrainConfig(lr_init=1e-320)
    assert TrainConfig(lr_init=1e-308).lr_init == 1e-308
    with pytest.raises(ValueError, match="<= 1"):
        TrainConfig(frac_zero_target=0.9, frac_held_target=0.2)
    with pytest.raises(ValueError, match="p_sieve"):
        TrainConfig(p_sieve_zero=0.7)
    # the sieve's zero target log(1/p - 1) must be finite: 1/p overflows for
    # a subnormal p, which gave every middle rank an infinite zero-logit
    for value in (5e-324, 1e-310, 5.5e-309):
        with pytest.raises(ValueError, match="p_sieve_zero"):
            TrainConfig(p_sieve_zero=value)
    assert TrainConfig(p_sieve_zero=5.6e-309).target_logit_zero < math.inf
    for field, value in BAD_CONFIG_VALUES:
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})
    # numpy scalars pass, and values are kept as given
    cf = TrainConfig(n_epochs=np.int64(3), lr_init=np.float64(0.01), lr_max=1)
    assert type(cf.lr_max) is int and cf.n_epochs == 3


def test_init_state_copies_model_params():
    # The state is updated in place, so it must not alias the model's arrays.
    class StoredInit(QuadraticOracleModel):
        def init_params(self, rng):
            return self.start

    model = StoredInit(c=0.0, b=np.ones(4), a=np.eye(4))
    model.start = np.linspace(-1.0, 1.0, 4)
    kept = model.start.copy()
    train(model, 8, TrainConfig(n_epochs=2), seed=0)
    assert_array_equal(model.start, kept)


# ------------------------------------------------------------- init state


def test_init_state_frozen():
    model = QuadraticOracleModel(c=0.0, b=np.zeros(6), a=np.eye(6))
    cf = TrainConfig(n_epochs=10)
    rng = np.random.Generator(np.random.Philox(3))
    state = init_state(model, 60000, cf, rng)
    assert state.prev.n == 117
    assert state.cur.n == 0
    assert_array_equal(state.sigma, np.full(6, 0.0031622776601683794))
    assert_allclose(state.prev.hess, np.full(6, 1e5), rtol=1e-15)
    assert state.hess_min == pytest.approx(1.0 / (117 * 0.1))
    assert state.seq_index % cf.n_pairs_per_case == 0
    assert 0 <= state.seq_index < 6
    assert_array_equal(state.p_nonzero, np.ones(6))
    assert_array_equal(state.mu, state.slab_mean)


def test_init_state_rejects_starved_first_epoch():
    model = QuadraticOracleModel(c=0.0, b=np.zeros(2), a=np.eye(2))
    rng = np.random.Generator(np.random.Philox(0))
    with pytest.raises(ValueError, match="empty"):
        init_state(model, 100, TrainConfig(n_epochs=10), rng)


# ------------------------------------------------------- update mechanics


def hand_state(d=1):
    """Single-coordinate state with round-number accumulators."""
    return TrainState(
        slab_mean=np.full(d, 0.5),
        slab_std=np.full(d, 0.1),
        zero_logit=np.zeros(d),
        p_nonzero=np.ones(d),
        realized_nonzero=np.ones(d),
        prev=Accumulator(4, np.full(d, 2.0), np.full(d, 10.0)),
        cur=Accumulator(0, np.zeros(d), np.zeros(d)),
        seq_index=0,
        hess_min=0.25,
        n_cases=16,
    )


def test_variational_update_hand_computed():
    # Chosen so the blended quantities are exact: blend (4,1) -> (0.6, 1.6),
    # grad_hat = 0.6*2 + 1.6*1.25 = 3.2, hess_hat = 0.6*10 + 1.6*6.25 = 16,
    # slab step 0.5 - 3.2/16 = 0.3, slab deviation 1/sqrt(16) = 0.25.  At
    # t = 1 the schedule pins nothing to zero and everything to the keep
    # anchor, so p_nonzero = 0.999 for the single coordinate.
    cf = TrainConfig(slab_std_max=0.5, frac_zero_target=0.97, frac_held_target=0.01)
    state = hand_state()
    _variational_update(
        state,
        cf,
        grad=np.array([1.25]),
        hess=np.array([6.25]),
        mu=state.mu,
        t=1.0,
    )
    assert state.cur.n == 1
    assert state.cur.hess[0] == 6.25  # above the 1/0.25 floor
    assert state.slab_mean[0] == pytest.approx(0.3, abs=1e-15)
    assert state.slab_std[0] == pytest.approx(0.25, abs=1e-15)
    assert state.zero_logit[0] == pytest.approx(-LOG999, rel=1e-12)
    assert state.p_nonzero[0] == pytest.approx(0.999, abs=1e-12)
    assert state.mu[0] == pytest.approx(0.999 * 0.3, rel=1e-12)


def test_variational_update_curvature_floor():
    # A tiny snapshot curvature is lifted to slab_std_max**-2.
    cf = TrainConfig(slab_std_max=0.5)
    state = hand_state()
    _variational_update(
        state, cf, grad=np.array([0.0]), hess=np.array([1e-9]), mu=state.mu, t=1.0
    )
    assert state.cur.hess[0] == pytest.approx(4.0)
    # slab deviation respects the cap thanks to the floor and a1 >= 1
    assert state.slab_std[0] <= 0.5 + 1e-12


def test_variational_update_step_floor_limits_step():
    # An almost-flat blended curvature cannot produce a step larger than
    # grad / (max(n_prev, n_cur) * hess_min).
    cf = TrainConfig(slab_std_max=1e3)  # effectively no curvature floor
    state = hand_state()
    state.prev.hess[:] = 0.0
    state.prev.grad[:] = 0.0
    _variational_update(
        state, cf, grad=np.array([1.0]), hess=np.array([1e-8]), mu=state.mu, t=1.0
    )
    # blended grad = 1.6, floor = 4 * 0.25 = 1.0 -> step exactly 1.6
    assert state.slab_mean[0] == pytest.approx(0.5 - 1.6, rel=1e-12)


def test_variational_update_spike_slab_moments_match():
    # After the update, (mu, sigma) must be exactly the mean/deviation of
    # the spike-and-slab marginal with the stored (p, slab_mean, slab_std).
    cf = TrainConfig()
    state = hand_state(d=5)
    rng = np.random.Generator(np.random.Philox(8))
    state.prev.grad = rng.standard_normal(5)
    state.prev.hess = np.full(5, 10.0) + rng.random(5)
    _variational_update(
        state,
        cf,
        grad=rng.standard_normal(5),
        hess=rng.random(5) + 0.5,
        mu=state.mu,
        t=5.5,
    )
    mean, std = spike_slab_moments(state.p_nonzero, state.slab_mean, state.slab_std)
    assert_array_equal(state.mu, mean)
    assert_array_equal(state.sigma, std)


def test_state_moments_are_spike_slab_moments_bit_for_bit():
    # each property computes only its own moment, as the same double
    rng = np.random.Generator(np.random.Philox(12))
    state = hand_state(d=9)
    state.p_nonzero = np.concatenate([[0.0, 1.0, 0.5], rng.random(6)])
    state.slab_mean = np.concatenate([[3.0, -0.0, 1e150], rng.standard_normal(6)])
    state.slab_std = np.concatenate([[0.0, 2.0, 1e-300], rng.random(6)])
    mean, std = spike_slab_moments(state.p_nonzero, state.slab_mean, state.slab_std)
    assert state.mu.tobytes() == mean.tobytes()
    assert state.sigma.tobytes() == std.tobytes()


def test_variational_update_recentering_invariance():
    # The stored accumulators represent quadratic surrogates; re-centering
    # at the moved mean must not change their gradient at any fixed point.
    cf = TrainConfig()
    state = hand_state(d=3)
    rng = np.random.Generator(np.random.Philox(4))
    state.prev.grad = rng.standard_normal(3)
    state.prev.hess = 5.0 + rng.random(3)
    state.slab_mean = rng.standard_normal(3)  # p_nonzero = 1, so mu = slab_mean

    probes = [rng.standard_normal(3) for _ in range(3)]

    def prev_gradient(at):
        return state.prev.grad + state.prev.hess * (at - state.mu)

    before = [prev_gradient(p) for p in probes]
    _variational_update(
        state,
        cf,
        grad=rng.standard_normal(3),
        hess=rng.random(3) + 0.2,
        mu=state.mu,
        t=3.2,
    )
    after = [prev_gradient(p) for p in probes]
    assert_allclose(after, before, rtol=1e-10, atol=1e-10)


def test_variational_update_final_epoch_uses_frozen_decisions():
    cf = TrainConfig()
    state = hand_state(d=4)
    state.realized_nonzero = np.array([1.0, 0.0, 1.0, 0.0])
    _variational_update(
        state,
        cf,
        grad=np.zeros(4),
        hess=np.ones(4),
        mu=state.mu,
        t=9.5,
        final_epoch=True,
    )
    assert_array_equal(state.p_nonzero, [1.0, 0.0, 1.0, 0.0])
    assert state.mu[1] == 0.0 and state.mu[3] == 0.0
    assert state.sigma[1] == 0.0 and state.sigma[3] == 0.0
    # survivors carry the slab exactly
    assert state.mu[0] == pytest.approx(state.slab_mean[0], rel=1e-15)
    assert state.sigma[0] == pytest.approx(state.slab_std[0], rel=1e-14)


def _first_update(monkeypatch, hess, zero_logit=None, slab_std_max=0.3):
    """The state after one update from an empty completed pass, so that
    ``hess_hat = max(hess, slab_std_max**-2)``; ``zero_logit``, if given,
    stands in for the sieve's output.  Any warning raises."""
    d = hess.size
    state = TrainState(
        slab_mean=np.zeros(d),
        slab_std=np.ones(d),
        zero_logit=np.zeros(d),
        p_nonzero=np.ones(d),
        realized_nonzero=np.ones(d),
        prev=Accumulator(0, np.zeros(d), np.zeros(d)),
        cur=Accumulator(0, np.zeros(d), np.zeros(d)),
        seq_index=0,
        hess_min=1.0,
        n_cases=1,
    )
    if zero_logit is not None:
        monkeypatch.setattr(mfquad.trainer, "_sieve_map", lambda raw, *rest: zero_logit.copy())
    cf = TrainConfig(slab_std_max=slab_std_max)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _variational_update(state, cf, np.zeros(d), hess, np.zeros(d), t=0.5)
    return state


def _ulps(a, b) -> np.ndarray:
    """Distance in units in the last place between nonnegative doubles."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return np.abs(a.view(np.int64) - b.view(np.int64))


def _decimal_reference(fn, values) -> np.ndarray:
    """``fn`` of each double, computed to 50 digits and rounded once."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        return np.array([float(fn(decimal.Decimal(float(v)))) for v in values])


def _keep_probability(z):
    e = (-abs(z)).exp()  # exp(-|z|) cannot overflow
    return e / (1 + e) if z > 0 else 1 / (1 + e)


def test_keep_probability_accuracy_and_edges(monkeypatch):
    # p_nonzero = 1 / (1 + exp(z)) stays within 2 ULP of the exact value
    # wherever exp(z) is finite.  Above log(DBL_MAX) ~ 709.78 it overflows
    # and p is 0, as is the exact value rounded to a normal double (it lies
    # below 2**-1022).  On |z| > 20 its largest and mean errors are no worse
    # than those of the earlier exp(-logaddexp(0, z)), whose exp scales the
    # rounding error of softplus(z) by |z|.
    edges = [0.0, 1e-300, 20.0, 37.0, 40.0, 709.0, 709.78, 710.0, 745.0, 800.0, 1e300]
    rng = np.random.Generator(np.random.Philox(12))
    tails = rng.uniform(20.0, 709.0, size=100)
    z = np.concatenate([edges, np.negative(edges), rng.normal(0.0, 8.0, 200), tails, -tails])
    p = _first_update(monkeypatch, np.ones(z.size), zero_logit=z).p_nonzero
    ref = _decimal_reference(_keep_probability, z)

    assert p[0] == p[len(edges)] == 0.5  # z = +0.0 and -0.0
    overflow = z > math.log(np.finfo(np.float64).max)
    assert_array_equal(p[overflow], 0.0)
    assert np.all(ref[overflow] < np.finfo(np.float64).smallest_normal)
    err = _ulps(p, ref)[~overflow]
    assert err.max() <= 2, z[~overflow][err.argmax()]

    tail = (np.abs(z) > 20)[~overflow]
    earlier = _ulps(oracles.keep_probability_logaddexp(z), ref)[~overflow]
    assert err[tail].max() <= earlier[tail].max()
    assert err[tail].mean() <= earlier[tail].mean()


def test_slab_deviation_at_the_floor_and_at_the_top(monkeypatch):
    # slab_std = 1 / sqrt(hess_hat) is within 1 ULP of the exact value, at
    # the curvature floor slab_std_max**-2, where it is slab_std_max, and at
    # hess_hat = 1e308.
    for slab_std_max in (0.3, 0.5, 1e-3):
        floor = slab_std_max**-2
        hess = np.array([0.0, floor, 2.0 * floor, 1e308])
        state = _first_update(monkeypatch, hess, slab_std_max=slab_std_max)
        hess_hat = np.maximum(hess, floor)
        ref = _decimal_reference(lambda h: 1 / h.sqrt(), hess_hat)
        assert _ulps(state.slab_std, ref).max() <= 1, slab_std_max
        assert _ulps(state.slab_std[:2], slab_std_max).max() <= 1, slab_std_max
    assert state.slab_std[-1] == pytest.approx(1e-154, rel=1e-15)
    assert _first_update(monkeypatch, np.array([4.0]), slab_std_max=0.5).slab_std[0] == 0.5


# ---------------------------------------------------------------- epochs


def test_run_epoch_restart_bookkeeping():
    model = QuadraticOracleModel(
        c=1.0, b=[0.5, -0.5], a=np.diag([2.0, 3.0]), x0=[0.2, -0.1]
    )
    cf = TrainConfig(n_epochs=2, n_pairs_per_case=2)
    rng = np.random.Generator(np.random.Philox(7))
    state = init_state(model, 4, cf, rng)
    assert state.prev.n == 2  # floor(4 * 2**-1)
    stats = run_epoch(state, model, 4, cf, epoch=1, rng=rng)
    # two restarts of size 2 fit exactly into 4 cases
    assert state.prev.n == 2
    assert state.cur.n == 0
    assert isinstance(stats, EpochStats)
    assert np.isfinite(stats.epoch_loss)
    assert stats.epoch == 1


def test_run_epoch_advances_sequence_index():
    model = QuadraticOracleModel(c=0.0, b=np.zeros(3), a=np.eye(3))
    cf = TrainConfig(n_epochs=1, n_pairs_per_case=3)
    rng = np.random.Generator(np.random.Philox(1))
    state = init_state(model, 5, cf, rng)
    start = state.seq_index
    run_epoch(state, model, 5, cf, epoch=1, rng=rng)
    assert state.seq_index == start + 5 * 3


def test_train_deterministic_and_seed_sensitive():
    data, _ = synth_sparse_logistic(d=8, k_true=2, n_cases=32, noise=0.2, seed=5)
    model = LogisticModel(data, h_prior=1.0 / 0.09)
    cf = TrainConfig(n_epochs=3, frac_zero_target=0.5, frac_held_target=0.125)
    state_a, hist_a = train(model, 32, cf, seed=0)
    state_b, _ = train(model, 32, cf, seed=0)
    state_c, _ = train(model, 32, cf, seed=1)
    assert_array_equal(state_a.mu, state_b.mu)
    assert_array_equal(state_a.sigma, state_b.sigma)
    assert not np.array_equal(state_a.mu, state_c.mu)
    assert len(hist_a) == 3
    assert [h.epoch for h in hist_a] == [1, 2, 3]


def test_train_final_epoch_hard_zeros():
    data, w = synth_sparse_logistic(d=16, k_true=3, n_cases=64, noise=0.1, seed=9)
    model = LogisticModel(data, h_prior=1.0 / 0.09)
    cf = TrainConfig(n_epochs=4, frac_zero_target=0.75, frac_held_target=0.0625)
    state, history = train(model, 64, cf, seed=2)
    zeros = state.realized_nonzero == 0.0
    # scheduled: at least ceil(0.75 * 16) = 12 zeros, at least 1 survivor
    assert np.sum(zeros) >= 12
    assert np.sum(~zeros) >= 1
    assert_array_equal(state.mu[zeros], np.zeros(np.sum(zeros)))
    assert_array_equal(state.sigma[zeros], np.zeros(np.sum(zeros)))
    assert np.all(state.sigma[~zeros] > 0)
    # the last epoch's realizable-zero fraction matches the frozen decisions
    assert history[-1].frac_zero_realizable == pytest.approx(np.mean(zeros))


def test_train_callback_sees_every_epoch():
    data, _ = synth_sparse_logistic(d=4, k_true=1, n_cases=16, noise=0.5, seed=0)
    model = LogisticModel(data)
    seen = []
    cf = TrainConfig(n_epochs=3, frac_zero_target=0.5, frac_held_target=0.25)
    train(model, 16, cf, seed=0, callback=lambda s, st: seen.append(st.epoch))
    assert seen == [1, 2, 3]


def test_train_recovers_sparse_signal():
    # Strong separable signal on 2 of 12 coordinates: the survivors should
    # be the true support and the trained mean should classify well.
    data, w = synth_sparse_logistic(d=12, k_true=2, n_cases=256, noise=0.0, seed=14)
    model = LogisticModel(data, h_prior=1.0 / 0.09)
    cf = TrainConfig(
        n_epochs=5, frac_zero_target=10 / 12, frac_held_target=1 / 12
    )
    state, _ = train(model, 256, cf, seed=3)
    support = np.flatnonzero(w)
    survivors = np.flatnonzero(state.realized_nonzero)
    assert set(support) == set(survivors)
    preds = model.predict(state.mu, data.features)
    assert np.mean(preds == data.labels) > 0.9


# ------------------------------------------------- in-place hot path

STATE_ARRAYS = ("slab_mean", "slab_std", "zero_logit", "p_nonzero", "realized_nonzero")


def _state_buffers(state):
    named = {name: getattr(state, name) for name in STATE_ARRAYS}
    for acc in ("prev", "cur"):
        named[f"{acc}.grad"] = getattr(state, acc).grad
        named[f"{acc}.hess"] = getattr(state, acc).hess
    return named


def _small_mlp(n_cases=64, n_hid=4):
    rng = np.random.Generator(np.random.Philox(21))
    data = Dataset(rng.random((n_cases, 784)), rng.integers(0, 10, size=n_cases))
    return MlpModel(data, layer_sizes=(784, n_hid, 10))


def _small_logistic(n_cases=64):
    data, _ = synth_sparse_logistic(d=16, k_true=3, n_cases=n_cases, noise=0.3, seed=6)
    return LogisticModel(data)


# The kernels the case loop calls.
_KERNEL_FUNCTIONS = (
    mfquad.projection._quadratic_approx,
    mfquad.trainer._variational_update,
    mfquad.trainer._zero_logits,
    mfquad.trainer._sieve_map,
)


@contextlib.contextmanager
def _entered(functions):
    """The set of ``functions`` names entered inside the block."""
    codes = {f.__code__: f.__name__ for f in functions}
    entered = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            entered.add(codes[frame.f_code])

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield entered
    finally:
        sys.setprofile(previous)


@pytest.mark.parametrize("make_model", [_small_mlp, _small_logistic])
def test_training_matches_allocating_oracles(make_model, monkeypatch):
    # The in-place hot path keeps the oracles' float operations and their
    # order, so a whole run, final epoch included, is bit-identical.
    model = make_model()
    cf = TrainConfig(n_epochs=3, frac_zero_target=0.9, frac_held_target=0.05)
    fast, fast_hist = train(model, 64, cf, seed=3)
    substitutes = (oracles.pair_quadratic_approx, oracles.variational_update)
    with monkeypatch.context() as patch, _entered(_KERNEL_FUNCTIONS + substitutes) as entered:
        oracles.patch_all(patch)
        slow, slow_hist = train(model, 64, cf, seed=3)
    # the patched names reach every step run_epoch takes: no kernel ran, and
    # the oracles in their place did
    assert entered == {f.__name__ for f in substitutes}
    assert fast_hist == slow_hist
    for name in STATE_ARRAYS + ("mu", "sigma"):
        a, b = getattr(fast, name), getattr(slow, name)
        assert np.array_equal(a, b) and a.tobytes() == b.tobytes(), name
    for acc in ("prev", "cur"):
        a, b = getattr(fast, acc), getattr(slow, acc)
        assert a.n == b.n, acc
        assert a.grad.tobytes() == b.grad.tobytes(), acc
        assert a.hess.tobytes() == b.hess.tobytes(), acc
    assert (fast.seq_index, fast.hess_min) == (slow.seq_index, slow.hess_min)
    assert np.mean(fast.realized_nonzero == 0.0) >= 0.9


@pytest.mark.parametrize("make_model", [_small_mlp, _small_logistic])
def test_case_loop_guarantees_what_its_kernels_skip(make_model, monkeypatch):
    # run_epoch calls kernels that check nothing.  At every case of a run,
    # sieved epochs and the final one, the conditions they rely on hold, and
    # the projection's kernel gives the public quadratic_approx's summary,
    # byte for byte.
    model = make_model()
    cf = TrainConfig(n_epochs=3, frac_zero_target=0.9, frac_held_target=0.05)
    rng = np.random.Generator(np.random.Philox(3))
    state = init_state(model, 64, cf, rng)
    kernels = {name: getattr(mfquad.trainer, name) for name in (
        "_quadratic_approx", "_variational_update", "_zero_logits", "_sieve_map")}
    calls = collections.Counter()

    def approx(model_, case, mu, sigma, k_start, n_pairs, index=None):
        d = model.n_params
        assert mu.dtype == sigma.dtype == np.float64 and mu.shape == sigma.shape == (d,)
        assert n_pairs == cf.n_pairs_per_case and sigma.min() >= 0
        got = kernels["_quadratic_approx"](model_, case, mu, sigma, k_start, n_pairs, index)
        want = quadratic_approx(model_, case, mu, sigma, k_start, n_pairs)
        if index is not None:  # the final epoch's survivors, and 0 elsewhere
            assert index.tolist() == state.realized_nonzero.nonzero()[0].tolist()
            dead = np.ones(d, dtype=bool)
            dead[index] = False
            assert not sigma[dead].any() and not mu[dead].any()
            want = QuadraticSummary(want.loss, want.grad[index], want.hess[index])
        assert (got.loss, got.grad.tobytes(), got.hess.tobytes()) == (
            want.loss, want.grad.tobytes(), want.hess.tobytes())
        calls["approx", index is not None] += 1
        return got

    def update(part, config, grad, hess, mu, t, final_epoch):
        # a finite float64 snapshot, and curvature sums that are not negative
        assert config is cf and grad.dtype == hess.dtype == np.float64
        assert np.isfinite(grad).all() and np.isfinite(hess).all()
        assert part.prev.hess.min() >= 0 and part.cur.hess.min() >= 0
        kernels["_variational_update"](part, config, grad, hess, mu, t, final_epoch)
        calls["update", final_epoch] += 1

    def logits(hess, mean, slab_std_max):
        assert slab_std_max == cf.slab_std_max
        assert hess.min() >= slab_std_max**-2  # hess_hat
        got = kernels["_zero_logits"](hess, mean, slab_std_max)
        assert not np.isnan(got).any()
        calls["logits"] += 1
        return got

    def sieve(values, frac_zero, frac_held, target_zero, target_held):
        assert 0 <= frac_zero <= 1 and 0 <= frac_held <= 1 and not np.isnan(values).any()
        assert (target_zero, target_held) == (cf.target_logit_zero, cf.target_logit_one)
        assert math.isfinite(target_zero) and math.isfinite(target_held)
        assert target_held <= target_zero
        # the domain on which no formula of the sieve overflows
        assert values.min() >= -DBL_MAX / 2 and values.max() <= math.log(DBL_MAX) / 2
        calls["sieve"] += 1
        return kernels["_sieve_map"](values, frac_zero, frac_held, target_zero, target_held)

    for name, check in (("_quadratic_approx", approx), ("_variational_update", update),
                        ("_zero_logits", logits), ("_sieve_map", sieve)):
        monkeypatch.setattr(mfquad.trainer, name, check)
    for epoch in (1, 2, 3):
        run_epoch(state, model, 64, cf, epoch, rng)
    # 64 cases per epoch; the final epoch's first case projects every
    # coordinate
    assert calls == {("approx", False): 129, ("approx", True): 63, ("update", False): 128,
                     ("update", True): 64, "logits": 128, "sieve": 128}
    assert np.mean(state.realized_nonzero == 0.0) >= 0.9


@pytest.mark.parametrize("final_epoch", [False, True])
def test_variational_update_leaves_caller_arrays_alone(final_epoch):
    # The snapshot and its mean passed in are read, never written; the
    # update writes only into the state's own arrays, which stay pairwise
    # distinct.
    cf = TrainConfig()
    state = hand_state(d=5)
    state.realized_nonzero = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
    rng = np.random.Generator(np.random.Philox(2))
    grad, hess, mu = rng.standard_normal(5), rng.random(5) + 0.5, state.mu
    kept = grad.copy(), hess.copy(), mu.copy()
    _variational_update(state, cf, grad, hess, mu, t=2.5, final_epoch=final_epoch)
    for arg, before in zip((grad, hess, mu), kept):
        assert_array_equal(arg, before)
    for buf in _state_buffers(state).values():
        assert not any(np.shares_memory(buf, arg) for arg in (grad, hess, mu))


def test_run_epoch_derives_the_marginal_once_per_case(monkeypatch):
    # One spike_slab_moments call gives each case both the quadrature's
    # (mu, sigma) and the update's expansion point; TrainState.mu is not read.
    model = QuadraticOracleModel(c=0.0, b=np.ones(3), a=np.eye(3))
    cf = TrainConfig(n_epochs=2)
    rng = np.random.Generator(np.random.Philox(5))
    state = init_state(model, 16, cf, rng)
    calls = {"moments": 0, "mu": 0}

    def counting_moments(*args):
        calls["moments"] += 1
        return spike_slab_moments(*args)

    def counting_mu(self):
        calls["mu"] += 1
        return spike_slab_moments(self.p_nonzero, self.slab_mean, self.slab_std)[0]

    monkeypatch.setattr("mfquad.trainer.spike_slab_moments", counting_moments)
    monkeypatch.setattr(TrainState, "mu", property(counting_mu))
    for epoch in (1, 2):
        run_epoch(state, model, 16, cf, epoch, rng)
        assert calls == {"moments": 16 * epoch, "mu": 0}


def _small_mlp_3(n_cases=64):
    return _small_mlp(n_cases, n_hid=3)


@pytest.mark.parametrize(
    "make_model, n_pairs",
    [(_small_logistic, 2), (_small_mlp, 2), (_small_mlp, 3), (_small_mlp_3, 2), (_small_mlp_3, 3)],
)
def test_run_epoch_model_calls_per_case(make_model, n_pairs, monkeypatch):
    # The logistic model and an MLP whose hidden size is a power of two give
    # each case's pair sums in one call, with no evaluate call; an MLP with
    # three hidden units returns None from pair_sums, and the case is then
    # evaluated one node at a time.
    model = make_model(n_cases=16)
    cf = TrainConfig(n_epochs=2, n_pairs_per_case=n_pairs)
    rng = np.random.Generator(np.random.Philox(5))
    state = init_state(model, 16, cf, rng)
    factored = model.pair_sums(0, state.mu, state.sigma, 0, 1) is not None
    calls = {"evaluate": 0, "pair_sums": 0}

    def counted(name, method):
        def counting(self, *args):
            calls[name] += 1
            return method(self, *args)

        return counting

    for name in calls:
        monkeypatch.setattr(type(model), name, counted(name, getattr(type(model), name)))
    run_epoch(state, model, 16, cf, 1, rng)
    if factored:
        assert calls == {"evaluate": 0, "pair_sums": 16}
    else:
        assert calls == {"evaluate": 16 * 2 * n_pairs, "pair_sums": 16}
    assert factored != (make_model is _small_mlp_3)


def test_per_case_path_calls_no_numpy_wrapper():
    # Each of numpy's module-level wrappers (np.any, np.all, np.partition,
    # the np.flatnonzero that calls two of them, ...) costs several Python
    # calls where the ndarray method costs one; the per-case path (the three
    # calls run_epoch makes per case, and all they call) uses the methods.
    # Those calls are kernels: the projection's runs once per case, its
    # public entry never.
    model = _small_logistic(n_cases=16)
    cf = TrainConfig(n_epochs=2)
    rng = np.random.Generator(np.random.Philox(5))
    state = init_state(model, 16, cf, rng)
    entered = {"wrappers": [], "quadratic_approx": 0, "public": 0}
    approx = mfquad.projection._quadratic_approx.__code__
    public = mfquad.projection.quadratic_approx.__code__
    kernels = (spike_slab_moments, mfquad.trainer._variational_update)
    per_case = {f.__code__ for f in kernels} | {approx}

    def profile(frame, event, arg):
        if event != "call":
            return
        path = Path(frame.f_code.co_filename)
        if path.name == "fromnumeric.py" and "numpy" in path.parts:
            caller = frame.f_back
            while caller is not None and caller.f_code not in per_case:
                caller = caller.f_back
            if caller is not None:
                entered["wrappers"].append(frame.f_code.co_name)
        entered["quadratic_approx"] += frame.f_code is approx
        entered["public"] += frame.f_code is public

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for epoch in (1, 2):  # a sieved epoch, then the final one
            run_epoch(state, model, 16, cf, epoch, rng)
    finally:
        sys.setprofile(previous)
    assert entered == {"wrappers": [], "quadratic_approx": 32, "public": 0}


def test_restart_swap_keeps_accumulators_apart():
    # After every restart the emptied pass must not share a buffer with the
    # completed one, or zeroing it in place would wipe the completed sums.
    model = QuadraticOracleModel(c=0.0, b=np.ones(3), a=np.eye(3))
    cf = TrainConfig(n_epochs=3)
    rng = np.random.Generator(np.random.Philox(5))
    state = init_state(model, 16, cf, rng)
    for epoch in (1, 2, 3):
        run_epoch(state, model, 16, cf, epoch, rng)
        assert state.prev.n > 0 and np.all(state.prev.hess > 0)
        buffers = list(_state_buffers(state).items())
        for i, (name_a, a) in enumerate(buffers):
            for name_b, b in buffers[i + 1 :]:
                assert not np.shares_memory(a, b), (epoch, name_a, name_b)


@pytest.mark.parametrize("make_model", [_small_mlp, _small_mlp_3, _small_logistic])
@pytest.mark.parametrize("resume", [False, True])
def test_final_epoch_matches_full_length_oracle(make_model, resume, tmp_path):
    # The final epoch updates only the survivors.  Against the oracle that
    # updates every coordinate it gives the same stats, keep probabilities,
    # decisions and zero-logits bit for bit, the same marginal by value (a
    # dead p * m may be -0.0), and the same survivor entries bit for bit;
    # dead entries keep their values from the freeze.
    model = make_model()
    cf = TrainConfig(n_epochs=3, frac_zero_target=0.9, frac_held_target=0.05)
    rng = np.random.Generator(np.random.Philox(3))
    frozen = init_state(model, 64, cf, rng)
    for epoch in range(1, cf.n_epochs):
        run_epoch(frozen, model, 64, cf, epoch, rng)
    slow, slow_rng = copy.deepcopy(frozen), copy.deepcopy(rng)
    if resume:
        save_checkpoint(tmp_path / "ckpt.json", frozen, cf, cf.n_epochs - 1, rng)
        state, _, epoch, resumed_rng = load_resume(tmp_path / "ckpt.json")
        start = state, epoch, resumed_rng
    else:
        start = copy.deepcopy(frozen), cf.n_epochs - 1, copy.deepcopy(rng)
    fast, fast_hist = train(model, 64, cf, start=start)
    assert fast_hist == [oracles.run_epoch(slow, model, 64, cf, cf.n_epochs, slow_rng)]

    for name in ("p_nonzero", "realized_nonzero", "zero_logit"):
        assert getattr(fast, name).tobytes() == getattr(slow, name).tobytes(), name
    assert_array_equal(fast.mu, slow.mu)
    assert_array_equal(fast.sigma, slow.sigma)
    keep = slow.realized_nonzero == 1.0
    dead = ~keep
    assert keep.any() and dead.any()
    for name in ("slab_mean", "slab_std"):
        a, b, before = getattr(fast, name), getattr(slow, name), getattr(frozen, name)
        assert a[keep].tobytes() == b[keep].tobytes(), name
        assert a[dead].tobytes() == before[dead].tobytes(), name
    for acc in ("prev", "cur"):
        a, b = getattr(fast, acc), getattr(slow, acc)
        assert a.n == b.n, acc
        for name in ("grad", "hess"):
            assert getattr(a, name)[keep].tobytes() == getattr(b, name)[keep].tobytes(), acc
    # dead entries: the completed pass as it was at the freeze, the current
    # one empty
    for name in ("grad", "hess"):
        assert getattr(fast.prev, name)[dead].tobytes() == getattr(frozen.prev, name)[dead].tobytes()
        assert_array_equal(getattr(fast.cur, name)[dead], 0.0)
    assert fast.seq_index == slow.seq_index


# ------------------------------------------------------------ checkpoints


def _trained_run(epochs_done=2, seed=4):
    """A d = 6 logistic run after ``epochs_done`` epochs, with its generator."""
    data, _ = synth_sparse_logistic(d=6, k_true=2, n_cases=16, noise=0.3, seed=1)
    model = LogisticModel(data)
    cf = TrainConfig(n_epochs=2, frac_zero_target=0.5, frac_held_target=0.125)
    rng = np.random.Generator(np.random.Philox(seed))
    state = init_state(model, 16, cf, rng)
    for epoch in range(1, epochs_done + 1):
        run_epoch(state, model, 16, cf, epoch, rng)
    return state, cf, rng


def _assert_same_state(a, b):
    for name in STATE_ARRAYS + ("mu", "sigma"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    for acc in ("prev", "cur"):
        x, y = getattr(a, acc), getattr(b, acc)
        assert x.grad.tobytes() == y.grad.tobytes(), acc
        assert x.hess.tobytes() == y.hess.tobytes(), acc
        assert x.n == y.n, acc
    assert (a.seq_index, a.hess_min) == (b.seq_index, b.hess_min)


def test_checkpoint_roundtrip(tmp_path):
    data, _ = synth_sparse_logistic(d=6, k_true=2, n_cases=16, noise=0.3, seed=1)
    model = LogisticModel(data)
    cf = TrainConfig(n_epochs=2, frac_zero_target=0.5, frac_held_target=0.125)
    state, _ = train(model, 16, cf, seed=4)
    path = tmp_path / "ckpt.json"
    rng = np.random.Generator(np.random.Philox(9))
    rng.random(3)
    save_checkpoint(path, state, cf, 2, rng)
    loaded, loaded_cf = load_checkpoint(path)
    assert loaded_cf == cf
    for name in (
        "mu",
        "sigma",
        "slab_mean",
        "slab_std",
        "zero_logit",
        "p_nonzero",
        "realized_nonzero",
    ):
        assert_array_equal(getattr(loaded, name), getattr(state, name)), name
    for acc in ("prev", "cur"):
        a, b = getattr(loaded, acc), getattr(state, acc)
        assert_array_equal(a.grad, b.grad)
        assert_array_equal(a.hess, b.hess)
        assert a.n == b.n
    assert loaded.seq_index == state.seq_index
    assert loaded.hess_min == state.hess_min
    _, _, epoch, loaded_rng = load_resume(path)
    assert epoch == 2
    assert loaded_rng.random(5).tobytes() == rng.random(5).tobytes()
    assert loaded.n_cases == state.n_cases == 16
    # the loaded arrays are the state's own, writable and unshared
    buffers = list(_state_buffers(loaded).values())
    assert all(b.flags.writeable and b.flags.owndata for b in buffers)


def test_checkpoint_formats_load_bit_identical(tmp_path):
    # Each array is stored as base64 of its bytes, so a state loads to the
    # same bits, signed zeros included; the derived mu/sigma are not stored.
    state, cf, rng = _trained_run(epochs_done=1)
    state.prev.grad[0], state.slab_mean[0] = -0.0, -0.0
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, state, cf, 1, rng)
    loaded, loaded_cf = load_checkpoint(path)
    assert loaded_cf == cf
    _assert_same_state(loaded, state)
    assert math.copysign(1.0, loaded.prev.grad[0]) == -1.0
    assert math.copysign(1.0, loaded.slab_mean[0]) == -1.0
    doc = json.loads(path.read_text())
    assert doc["format"] == "mfvi-ckpt-2"
    assert "mu" not in doc["state"] and "sigma" not in doc["state"]


def test_checkpoint_numpy_scalar_config(tmp_path):
    # numpy scalars in a config are written as the plain numbers they equal
    data, _ = synth_sparse_logistic(d=6, k_true=2, n_cases=16, noise=0.3, seed=1)
    model = LogisticModel(data)
    plain = TrainConfig(n_epochs=2, frac_zero_target=0.5, frac_held_target=0.125)
    numpy_cf = TrainConfig(
        n_epochs=np.int64(2), frac_zero_target=np.float64(0.5), frac_held_target=0.125
    )
    paths = []
    for cf in (plain, numpy_cf):
        state, _ = train(model, 16, cf, seed=4)
        paths.append(tmp_path / f"ckpt{len(paths)}.json")
        rng = np.random.Generator(np.random.Philox(4))
        save_checkpoint(paths[-1], state, cf, cf.n_epochs, rng)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert load_checkpoint(paths[1])[1] == plain


def test_checkpoint_rejects_unknown_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "mfvi-ckpt-9", "config": {}, "state": {}}')
    with pytest.raises(ValueError, match="mfvi-ckpt-9"):
        load_checkpoint(path)
    for text, match in (("[1, 2]", "format"), ("{not json", "JSON"),
                        ('{"format": "mfvi-ckpt-2", "state": {}}', "config"),
                        ('{"format": "mfvi-ckpt-2", "config": {}, "state": []}', "state")):
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            load_checkpoint(path)
    # a config TrainConfig rejects, in an otherwise valid file
    state, cf, rng = _trained_run()
    save_checkpoint(path, state, cf, 2, rng)
    payload = json.loads(path.read_text())
    bad_configs = [{"bogus": 1}, {"n_epochs": "3"}]
    bad_configs += [{field: value} for field, value in BAD_CONFIG_VALUES]
    for bad_config in bad_configs:
        path.write_text(json.dumps({**payload, "config": {**payload["config"], **bad_config}}))
        with pytest.raises(ValueError, match="config"):
            load_checkpoint(path)


@pytest.mark.parametrize("field", ["hess_min", "slab_mean"])
def test_checkpoint_refuses_non_finite_state(tmp_path, field):
    # JSON would write NaN/Infinity tokens that no loader accepts; the writer
    # names the field and writes nothing, not even a temporary file.
    state, cf, rng = _trained_run()
    if field == "hess_min":
        state.hess_min = math.inf
    else:
        state.slab_mean[3] = math.nan
    with pytest.raises(FloatingPointError, match=f"'{field}'"):
        save_checkpoint(tmp_path / "checkpoint.json", state, cf, 2, rng)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("failing", ["fsync", "replace"])
def test_checkpoint_write_is_atomic(tmp_path, monkeypatch, failing):
    # A write that fails partway leaves the old checkpoint byte for byte and
    # no temporary file beside it.
    state, cf, rng = _trained_run()
    path = tmp_path / "checkpoint.json"
    save_checkpoint(path, state, cf, 2, rng)
    before = path.read_bytes()
    state.slab_mean += 1.0

    def fail(*args):
        raise OSError(f"{failing} failed")

    monkeypatch.setattr(mfquad.trainer.os, failing, fail)
    with pytest.raises(OSError, match=failing):
        save_checkpoint(path, state, cf, 2, rng)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.json"]
    save_checkpoint(path, state, cf, 2, rng)
    assert load_checkpoint(path)[0].slab_mean.tobytes() == state.slab_mean.tobytes()


def test_train_resumes_bit_identical():
    # Epochs 1..k, then train(start=...) for k+1..n, equal n epochs in one go.
    model = _small_logistic()
    cf = TrainConfig(n_epochs=4, frac_zero_target=0.9, frac_held_target=0.05)
    whole, whole_hist = train(model, 64, cf, seed=3)
    rng = np.random.Generator(np.random.Philox(3))
    state = init_state(model, 64, cf, rng)
    head = [run_epoch(state, model, 64, cf, epoch, rng) for epoch in (1, 2)]
    resumed, tail = train(model, 64, cf, seed=99, start=(state, 2, rng))
    assert resumed is state and head + tail == whole_hist
    _assert_same_state(resumed, whole)


def test_train_refuses_a_state_of_another_dimension():
    # A d = 8 state on a d = 10 model failed inside numpy's matmul; it is
    # refused by name, as another case count or hess_min is.
    def model(d):
        data, _ = synth_sparse_logistic(d=d, k_true=2, n_cases=16, noise=0.3, seed=1)
        return LogisticModel(data)

    cf = TrainConfig(n_epochs=2)
    rng = np.random.Generator(np.random.Philox(3))
    state = init_state(model(8), 16, cf, rng)
    with pytest.raises(ValueError, match="^the state has 8 parameters, the model 10;"):
        train(model(10), 16, cf, start=(state, 0, rng))


def test_checkpoint_drops_the_current_pass(tmp_path):
    # Each epoch empties the current pass before its first case, so the
    # checkpoint does not store it.  A run saved with a partial current
    # pass resumes to the uninterrupted run's bits.  The earlier format-2
    # layout, which also stored the current pass and the accumulated losses
    # but not the case count, is refused for the missing count.
    model = _small_logistic(n_cases=22)
    cf = TrainConfig(n_epochs=3, frac_zero_target=0.9, frac_held_target=0.05)
    whole, whole_hist = train(model, 22, cf, seed=3)
    rng = np.random.Generator(np.random.Philox(3))
    state = init_state(model, 22, cf, rng)
    head = [run_epoch(state, model, 22, cf, 1, rng)]
    assert state.cur.n == 2  # restarts every floor(22 / 4) = 5 cases
    path, earlier = tmp_path / "checkpoint.json", tmp_path / "earlier.json"
    save_checkpoint(path, state, cf, 1, rng)
    doc = json.loads(path.read_text())
    dropped = {"grad_cur": state.cur.grad, "hess_cur": state.cur.hess}
    assert not {*dropped, "n_cur", "loss_prev", "loss_cur"} & set(doc["state"])
    for key, a in dropped.items():
        doc["state"][key] = base64.b64encode(a.astype("<f8").tobytes()).decode("ascii")
    doc["state"].update(n_cur=state.cur.n, loss_prev=1.5, loss_cur=-0.25)
    assert doc["state"].pop("n_cases") == 22
    earlier.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="'n_cases'"):
        load_resume(earlier)
    loaded, loaded_cf, epoch, loaded_rng = load_resume(path)
    cur = loaded.cur
    assert (cur.n, cur.grad.any(), cur.hess.any()) == (0, False, False)
    assert loaded.n_cases == 22
    resumed, tail = train(model, 22, loaded_cf, start=(loaded, epoch, loaded_rng))
    assert head + tail == whole_hist
    _assert_same_state(resumed, whole)
