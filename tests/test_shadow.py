"""One-step shadow check: the pair-sum projection against the per-node one.

Differential testing (McKeeman, 1998).  Short seeded runs of a 784-32-10
MLP and of a d = 256 logistic regression record the ``(case, mu, sigma,
k_start)`` that every few of their projections received.  At each recorded
state ``quadratic_approx``, which forms its three sums with the model's
``pair_sums``, is compared with ``oracles.quadratic_approx``, which
evaluates every node: for 1, 2 and 3 pairs, at the recorded sign index and
at indices beyond the sign sequence's period.  Both sides see the same
state, so the sieve's chaos, which makes whole runs drift apart, does not
blur the comparison.  The final epoch of each run gives states whose sigma
has exact zeros.

Grad and hess are bounded by their largest difference relative to the
oracle's largest entry, the loss by its absolute difference.  Each bound is
eight times the largest difference that a last-bit change of the inputs
(``mu`` or ``sigma`` scaled by ``1 + 2**-52``, or ``mu`` by
``1 - 2**-53``) makes to the per-node oracle itself on these same states:

    ===========  ========  ========  ========
    workload     loss      grad      hess
    ===========  ========  ========  ========
    mlp          5.7e-14   8.7e-16   5.2e-15
    logistic     1.3e-15   2.3e-15   4.3e-14
    ===========  ========  ========  ========

A later change may not raise a bound to admit its own differences.
"""

import numpy as np
import pytest

import mfquad.trainer
import oracles
from mfquad.models import Dataset, LogisticModel, MlpModel, synth_sparse_logistic
from mfquad.projection import quadratic_approx
from mfquad.trainer import TrainConfig, train

# Largest allowed (|loss difference|, relative grad, relative hess difference).
BOUNDS = {"mlp": (4.6e-13, 7e-15, 4.2e-14), "logistic": (1.1e-14, 1.9e-14, 3.5e-13)}

PERIOD_MLP = 2**15  # the sign sequence's period at d = 25,450


def _mlp():
    """784-32-10 MLP (d = 25,450) on 48 noisy binary templates."""
    rng = np.random.Generator(np.random.Philox(3))
    templates = (rng.random((10, 784)) < 0.2) * 0.9
    labels = rng.integers(0, 10, size=48)
    noisy = templates[labels] + rng.normal(0.0, 0.1, size=(48, 784))
    model = MlpModel(Dataset(np.clip(noisy, 0.0, 1.0), labels), layer_sizes=(784, 32, 10))
    return model, TrainConfig(n_epochs=3, frac_zero_target=0.9, frac_held_target=0.01), 6


def _logistic():
    """d = 256 logistic regression on 120 cases."""
    data, _ = synth_sparse_logistic(d=256, k_true=10, n_cases=120, noise=1.0, seed=4)
    model = LogisticModel(data, h_prior=1 / 0.3**2)
    return model, TrainConfig(n_epochs=4, frac_zero_target=0.9, frac_held_target=0.01), 20


WORKLOADS = {"mlp": _mlp, "logistic": _logistic}


@pytest.fixture(scope="module")
def trajectories():
    """``get(workload)``: the model and the states recorded from one run,
    every ``every``-th projection of it."""
    cache = {}

    def get(workload):
        if workload not in cache:
            model, config, every = WORKLOADS[workload]()
            states = []

            def recording(model_, case, mu, sigma, k_start, n_pairs, *index):
                if (k_start // n_pairs) % every == 0:
                    states.append((case, mu.copy(), sigma.copy(), k_start))
                return quadratic_approx(model_, case, mu, sigma, k_start, n_pairs, *index)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(mfquad.trainer, "quadratic_approx", recording)
                train(model, model.dataset.n_cases, config, seed=5)
            cache[workload] = model, states
        return cache[workload]

    return get


def _differences(got, want) -> np.ndarray:
    return np.array([
        abs(got.loss - want.loss),
        np.abs(got.grad - want.grad).max() / np.abs(want.grad).max(),
        np.abs(got.hess - want.hess).max() / np.abs(want.hess).max(),
    ])


def _probes(states):
    """Every recorded state at 1, 2 and 3 pairs, from the recorded sign
    index and from two indices beyond the period."""
    for case, mu, sigma, k in states:
        for n_pairs in (1, 2, 3):
            for k_start in (k, k + 3 * PERIOD_MLP + 1, 2**40 + k):
                yield case, mu, sigma, k_start, n_pairs


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_pair_sums_shadow_the_per_node_projection(workload, trajectories):
    model, states = trajectories(workload)
    assert len(states) >= 20
    # the final epoch's states leave the zeroed coordinates undisplaced
    assert any((sigma == 0.0).sum() > 0.8 * sigma.size for _, _, sigma, _ in states)
    worst = np.zeros(3)
    for case, mu, sigma, k_start, n_pairs in _probes(states):
        got = quadratic_approx(model, case, mu, sigma, k_start, n_pairs)
        want = oracles.quadratic_approx(model, case, mu, sigma, k_start, n_pairs)
        assert np.all(got.hess[sigma == 0.0] == 0.0)
        worst = np.maximum(worst, _differences(got, want))
    assert np.all(worst <= BOUNDS[workload]), (worst, BOUNDS[workload])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_bounds_admit_a_last_bit_change_of_the_inputs(workload, trajectories):
    # the per-node oracle against itself, on inputs one rounding apart:
    # differences of this size are harmless, and they stay well inside the
    # bounds
    model, states = trajectories(workload)
    eps = 2.0**-52
    worst = np.zeros(3)
    for case, mu, sigma, k_start, n_pairs in _probes(states[::3]):
        want = oracles.quadratic_approx(model, case, mu, sigma, k_start, n_pairs)
        for m, s in ((mu * (1 + eps), sigma), (mu, sigma * (1 + eps))):
            moved = oracles.quadratic_approx(model, case, m, s, k_start, n_pairs)
            worst = np.maximum(worst, _differences(moved, want))
    assert np.all(worst > 0.0)
    assert np.all(worst <= np.array(BOUNDS[workload]) / 4), (worst, BOUNDS[workload])
