"""Trainer oracles: blend identities, schedules, sieve, update invariants."""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import oracles
from mfquad.meanfield import spike_slab_moments
from mfquad.models import (
    Dataset,
    LogisticModel,
    MlpModel,
    QuadraticOracleModel,
    synth_sparse_logistic,
)
from mfquad.trainer import (
    Accumulator,
    EpochStats,
    TrainConfig,
    TrainState,
    anneal_target,
    hybrid_coeffs,
    init_state,
    load_checkpoint,
    run_epoch,
    save_checkpoint,
    sieve_map,
    sparsity_schedule,
    train,
    variational_update,
    zero_logits,
)

LOG999 = math.log(999.0)


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
    out = zero_logits(np.array([1.0]), np.array([0.0]), 0.3)
    assert out[0] == pytest.approx(-1.2039728043259361, abs=1e-15)
    # large mean on a sharp coordinate is confidently nonzero (very negative)
    out = zero_logits(np.array([100.0]), np.array([2.0]), 0.3)
    assert out[0] == pytest.approx(0.5 * (np.log(9.0) - 400.0))
    with pytest.raises(ValueError, match="positive"):
        zero_logits(np.array([0.0]), np.array([1.0]), 0.3)


def test_config_target_logits():
    cf = TrainConfig()
    assert cf.target_logit_zero == pytest.approx(LOG999, rel=1e-12)
    assert cf.target_logit_one == pytest.approx(-LOG999, rel=1e-12)
    assert cf.target_logit_zero > 0 > cf.target_logit_one


# ------------------------------------------------------------------ sieve


def test_sieve_identity_when_unconstrained():
    v = np.array([3.0, -1.0, 2.0])
    assert_array_equal(sieve_map(v, 0.0, 0.0), v)


def test_sieve_frozen_four_values():
    # d=4, one pinned zero, one pinned keep: hinges z0=3, z1=0.
    v = np.array([3.0, 1.0, 2.0, 0.0])
    out = sieve_map(v, 0.25, 0.25)
    slope = 2 * LOG999 / 3.0
    assert_allclose(
        out, [LOG999, -LOG999 + slope, -LOG999 + 2 * slope, -LOG999], atol=1e-12
    )


def test_sieve_held_count_with_zero_frac():
    # frac_zero = 0: uniform shift anchored at the keep hinge, even when
    # every raw value sits far above the zero target.
    v = np.array([10.0, 11.0, 12.0, 13.0])
    out = sieve_map(v, 0.0, 0.5)
    assert_allclose(out, [-LOG999 - 1, -LOG999, -LOG999 + 1, -LOG999 + 2])
    assert np.sum(out <= -LOG999) == 2


def test_sieve_zero_count_with_zero_held():
    v = np.array([-5.0, -4.0, -3.0, -2.0])
    out = sieve_map(v, 0.5, 0.0)
    assert np.sum(out >= LOG999) == 2
    assert_allclose(out, [LOG999 - 2, LOG999 - 1, LOG999, LOG999 + 1])


def test_sieve_all_zero():
    v = np.array([1.0, 5.0, -2.0])
    out = sieve_map(v, 1.0, 0.5)  # held clamps to zero slots available
    assert np.all(out >= LOG999)


def test_sieve_ties_split_deterministically():
    v = np.zeros(4)
    out = sieve_map(v, 0.25, 0.25)
    # stable order: index 3 is the top rank, index 0 the bottom
    assert out[3] == pytest.approx(LOG999)
    assert out[0] == pytest.approx(-LOG999)
    assert_allclose(out[1:3], 0.0, atol=1e-15)  # straddling ties undecided
    assert_array_equal(out, sieve_map(v, 0.25, 0.25))


def test_sieve_custom_targets():
    v = np.array([0.0, 1.0, 2.0, 3.0])
    out = sieve_map(v, 0.25, 0.25, target_zero=5.0, target_held=-7.0)
    assert out[3] == pytest.approx(5.0)
    assert out[0] == pytest.approx(-7.0)


def test_sieve_validation():
    with pytest.raises(ValueError, match="fractions"):
        sieve_map(np.ones(3), 1.5, 0.0)
    with pytest.raises(ValueError, match="target_held"):
        sieve_map(np.ones(3), 0.5, 0.5, target_zero=-1.0, target_held=1.0)
    # a diverged run's NaN is a numerical failure, not a rank
    with pytest.raises(FloatingPointError, match="NaN"):
        sieve_map(np.array([0.0, np.nan, 1.0]), 0.5, 0.0)


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
    out = sieve_map(values, frac_zero, frac_held)
    order = np.argsort(values, kind="stable")
    assert np.all(np.diff(out[order]) >= -1e-12)
    n_zero = math.ceil(frac_zero * d)
    n_held = min(math.ceil(frac_held * d), d - n_zero)
    assert np.sum(out >= LOG999 - 1e-12) >= n_zero
    assert np.sum(out <= -LOG999 + 1e-12) >= n_held


# Integer-valued entries from a narrow range: most vectors tie at the hinges.
_TIED_VALUES = st.lists(
    st.integers(-3, 3).map(float) | st.sampled_from([0.0, -0.0]), min_size=1, max_size=40
)
_EDGE_FRACS = st.sampled_from([0.0, 1.0, 0.25, 0.5, 0.75]) | st.floats(0, 1)


@settings(deadline=None, max_examples=500)
@given(
    vals=_TIED_VALUES | st.builds(lambda v, n: [v] * n, st.integers(-2, 2).map(float),
                                  st.integers(1, 20)),
    frac_zero=_EDGE_FRACS,
    frac_held=_EDGE_FRACS,
    targets=st.sampled_from([(LOG999, -LOG999), (5.0, -7.0), (0.0, 0.0), (-0.0, -0.0)]),
)
def test_sieve_matches_stable_sort_oracle(vals, frac_zero, frac_held, targets):
    # Selection with index-ordered ties reproduces the stable argsort bit for
    # bit, including all-equal vectors, coincident hinges and signed zeros.
    values = np.asarray(vals)
    out = sieve_map(values, frac_zero, frac_held, *targets)
    assert out.tobytes() == oracles.sieve_map(values, frac_zero, frac_held, *targets).tobytes()
    assert not np.shares_memory(out, values)


def test_sieve_matches_oracle_at_model_scale():
    rng = np.random.Generator(np.random.Philox(12))
    values = rng.standard_normal(25_450)
    values[::7] = np.round(values[::7], 1)  # long runs of ties
    for frac_zero, frac_held in ((0.0, 0.96), (0.5, 0.46), (0.95, 0.01), (0.3, 0.0)):
        out = sieve_map(values, frac_zero, frac_held)
        expected = oracles.sieve_map(values, frac_zero, frac_held)
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
    out = sieve_map(values, frac_zero, frac_held)
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
    with pytest.raises(ValueError, match="<= 1"):
        TrainConfig(frac_zero_target=0.9, frac_held_target=0.2)
    with pytest.raises(ValueError, match="p_sieve"):
        TrainConfig(p_sieve_zero=0.7)
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
        prev=Accumulator(4, np.full(d, 2.0), np.full(d, 10.0), 1.0),
        cur=Accumulator(0, np.zeros(d), np.zeros(d), 0.0),
        seq_index=0,
        hess_min=0.25,
    )


def test_variational_update_hand_computed():
    # Chosen so the blended quantities are exact: blend (4,1) -> (0.6, 1.6),
    # grad_hat = 0.6*2 + 1.6*1.25 = 3.2, hess_hat = 0.6*10 + 1.6*6.25 = 16,
    # slab step 0.5 - 3.2/16 = 0.3, slab deviation 16**-0.5 = 0.25.  At
    # t = 1 the schedule pins nothing to zero and everything to the keep
    # anchor, so p_nonzero = 0.999 for the single coordinate.
    cf = TrainConfig(slab_std_max=0.5, frac_zero_target=0.97, frac_held_target=0.01)
    state = hand_state()
    variational_update(
        state,
        cf,
        loss=3.0,
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
    variational_update(
        state, cf, loss=0.0, grad=np.array([0.0]), hess=np.array([1e-9]), mu=state.mu, t=1.0
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
    variational_update(
        state, cf, loss=0.0, grad=np.array([1.0]), hess=np.array([1e-8]), mu=state.mu, t=1.0
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
    variational_update(
        state,
        cf,
        loss=1.0,
        grad=rng.standard_normal(5),
        hess=rng.random(5) + 0.5,
        mu=state.mu,
        t=5.5,
    )
    mean, std = spike_slab_moments(state.p_nonzero, state.slab_mean, state.slab_std)
    assert_array_equal(state.mu, mean)
    assert_array_equal(state.sigma, std)


def test_variational_update_recentering_invariance():
    # The stored accumulators represent quadratic surrogates; re-centering
    # at the moved mean must not change their value at any fixed point.
    cf = TrainConfig()
    state = hand_state(d=3)
    rng = np.random.Generator(np.random.Philox(4))
    state.prev.grad = rng.standard_normal(3)
    state.prev.hess = 5.0 + rng.random(3)
    state.slab_mean = rng.standard_normal(3)  # p_nonzero = 1, so mu = slab_mean

    probes = [rng.standard_normal(3) for _ in range(3)]

    def prev_surrogate(at):
        z = at - state.mu
        prev = state.prev
        return prev.loss + prev.grad @ z + 0.5 * (prev.hess * z) @ z

    before = [prev_surrogate(p) for p in probes]
    variational_update(
        state,
        cf,
        loss=0.7,
        grad=rng.standard_normal(3),
        hess=rng.random(3) + 0.2,
        mu=state.mu,
        t=3.2,
    )
    after = [prev_surrogate(p) for p in probes]
    assert_allclose(after, before, rtol=1e-10, atol=1e-10)


def test_variational_update_final_epoch_uses_frozen_decisions():
    cf = TrainConfig()
    state = hand_state(d=4)
    state.realized_nonzero = np.array([1.0, 0.0, 1.0, 0.0])
    variational_update(
        state,
        cf,
        loss=0.0,
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


def _small_mlp(n_cases=64):
    rng = np.random.Generator(np.random.Philox(21))
    data = Dataset(rng.random((n_cases, 784)), rng.integers(0, 10, size=n_cases))
    return MlpModel(data, layer_sizes=(784, 4, 10))


def _small_logistic(n_cases=64):
    data, _ = synth_sparse_logistic(d=16, k_true=3, n_cases=n_cases, noise=0.3, seed=6)
    return LogisticModel(data)


@pytest.mark.parametrize("make_model", [_small_mlp, _small_logistic])
def test_training_matches_allocating_oracles(make_model, monkeypatch):
    # The in-place hot path keeps the oracles' float operations and their
    # order, so a whole run, final epoch included, is bit-identical.
    model = make_model()
    cf = TrainConfig(n_epochs=3, frac_zero_target=0.9, frac_held_target=0.05)
    fast, fast_hist = train(model, 64, cf, seed=3)
    with monkeypatch.context() as patch:
        oracles.patch_all(patch)
        slow, slow_hist = train(model, 64, cf, seed=3)
    assert fast_hist == slow_hist
    for name in STATE_ARRAYS + ("mu", "sigma"):
        a, b = getattr(fast, name), getattr(slow, name)
        assert np.array_equal(a, b) and a.tobytes() == b.tobytes(), name
    for acc in ("prev", "cur"):
        a, b = getattr(fast, acc), getattr(slow, acc)
        assert (a.n, a.loss) == (b.n, b.loss), acc
        assert a.grad.tobytes() == b.grad.tobytes(), acc
        assert a.hess.tobytes() == b.hess.tobytes(), acc
    assert (fast.seq_index, fast.hess_min) == (slow.seq_index, slow.hess_min)
    assert np.mean(fast.realized_nonzero == 0.0) >= 0.9


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
    variational_update(state, cf, 1.0, grad, hess, mu, t=2.5, final_epoch=final_epoch)
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


# ------------------------------------------------------------ checkpoints


def test_checkpoint_roundtrip(tmp_path):
    data, _ = synth_sparse_logistic(d=6, k_true=2, n_cases=16, noise=0.3, seed=1)
    model = LogisticModel(data)
    cf = TrainConfig(n_epochs=2, frac_zero_target=0.5, frac_held_target=0.125)
    state, _ = train(model, 16, cf, seed=4)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, state, cf)
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
        assert (a.n, a.loss) == (b.n, b.loss)
    assert loaded.seq_index == state.seq_index
    assert loaded.hess_min == state.hess_min


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
        save_checkpoint(paths[-1], state, cf)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert load_checkpoint(paths[1])[1] == plain


def test_checkpoint_rejects_unknown_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "mfvi-ckpt-9", "config": {}, "state": {}}')
    with pytest.raises(ValueError, match="mfvi-ckpt-9"):
        load_checkpoint(path)


def test_checkpoint_rejects_invalid_state(tmp_path):
    data, _ = synth_sparse_logistic(d=6, k_true=2, n_cases=16, noise=0.3, seed=1)
    model = LogisticModel(data)
    cf = TrainConfig(n_epochs=2, frac_zero_target=0.5, frac_held_target=0.125)
    state, _ = train(model, 16, cf, seed=4)
    good = tmp_path / "good.json"
    save_checkpoint(good, state, cf)
    payload = json.loads(good.read_text())

    def edited(edit):
        doc = copy.deepcopy(payload)
        edit(doc["state"])
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        return path

    def set_entry(key, i, value):
        return lambda st: st[key].__setitem__(i, value)

    cases = [
        (lambda st: st.__setitem__("mu", st["mu"][:3]), "mu"),
        (lambda st: st.__setitem__("grad_cur", st["grad_cur"] + [0.0]), "grad_cur"),
        (lambda st: st.__setitem__("slab_mean", [st["slab_mean"]]), "slab_mean"),
        (set_entry("hess_prev", 2, float("nan")), "hess_prev"),
        (set_entry("zero_logit", 0, float("inf")), "zero_logit"),
        (set_entry("p_nonzero", 0, 7.0), "p_nonzero"),
        (set_entry("realized_nonzero", 1, -1.0), "realized_nonzero"),
        (set_entry("slab_std", 3, -state.slab_std[3]), "slab_std"),
        (lambda st: st.__setitem__("loss_cur", float("nan")), "loss_cur"),
        (lambda st: st.__setitem__("n_prev", 2.5), "n_prev"),
        (lambda st: st.pop("seq_index"), "seq_index"),
        (set_entry("mu", 0, payload["state"]["mu"][0] + 1e-3), "mu"),
        (set_entry("sigma", 5, payload["state"]["sigma"][5] + 1e-3), "sigma"),
    ]
    for edit, field in cases:
        with pytest.raises(ValueError, match=f"'{field}'"):
            load_checkpoint(edited(edit))
    bad_configs = [{"bogus": 1}, {"n_epochs": "3"}]
    bad_configs += [{field: value} for field, value in BAD_CONFIG_VALUES]
    for bad_config in bad_configs:
        path = tmp_path / "bad_config.json"
        path.write_text(json.dumps({**payload, "config": {**payload["config"], **bad_config}}))
        with pytest.raises(ValueError, match="config"):
            load_checkpoint(path)
    # the unedited file loads
    load_checkpoint(edited(lambda st: None))
