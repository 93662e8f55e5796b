"""Drift budget: a last-bit change to the trainer's arithmetic, judged over seeds.

The sieve ranks the coordinates, so a change in the last bits of one update
can hand a run a different zero set and with it another validation
accuracy: a bound on each run cannot hold.  These tests instead train short
seeded logistic and MLP runs through the package and through a reference
path, and bound the shift of the seed means of the validation accuracy and
of the exact-zero fraction.  One reference is ``oracles.variational_update``
with the update's earlier formulas for the keep-probability
(``exp(-logaddexp(0, z))``) and the slab deviation (``hess_hat**-0.5``);
the other projects every case through ``oracles.quadratic_approx``, one
``evaluate`` call per node, in place of the models' ``pair_sums``.

Each bound was set from measurements of these same runs: five harmless
perturbations of the package's update (``p`` scaled by ``1 ± 1e-12``, the
zero-logits moved by ``± 1e-9``, the slab deviation scaled by
``1 + 1e-12``) shifted the logistic means by at most 0.0069 (accuracy) and
0.0020 (zeros), and the MLP zero-fraction mean by at most 0.0056, with every
MLP run at accuracy 1.0.  The bounds sit near twice those shifts, and a
planted systematic shift (every sieved zero-logit + 1.0) exceeds both
logistic bounds.  A later change may not raise a bound to admit its own
drift.
"""

import numpy as np
import pytest

import mfquad.trainer
import oracles
from mfquad.models import Dataset, LogisticModel, MlpModel, synth_sparse_logistic
from mfquad.trainer import TrainConfig, train

METRICS = ("val_accuracy", "exact_zero_frac")

# Largest allowed |shift| of the seed mean of each metric in METRICS.
BOUNDS = {"logistic": (0.012, 0.004), "mlp": (0.01, 0.01)}

PLANTED_LOGIT_SHIFT = 1.0


def _metrics(model, state, val: Dataset) -> tuple[float, float]:
    accuracy = float(np.mean(model.predict(state.mu, val.features) == val.labels))
    return accuracy, float(np.mean(state.realized_nonzero == 0.0))


def _logistic_run(seed: int) -> tuple[float, float]:
    """d = 64 logistic regression on 120 training cases, 5 epochs."""
    data, _ = synth_sparse_logistic(d=64, k_true=8, n_cases=1120, noise=1.0, seed=seed)
    train_data, val = data.subset(0, 120), data.subset(120, 1120)
    model = LogisticModel(train_data, h_prior=1 / 0.3**2)
    cf = TrainConfig(n_epochs=5, frac_zero_target=0.9, frac_held_target=0.01)
    state, _ = train(model, 120, cf, seed=7)
    return _metrics(model, state, val)


def _mlp_run(seed: int) -> tuple[float, float]:
    """256-8-3 MLP (d = 2,083) on noisy 16x16 templates, 150 cases, 3 epochs."""
    rng = np.random.Generator(np.random.Philox(seed))
    templates = (rng.random((3, 256)) < 0.35) * 0.8

    def make(n):
        labels = rng.integers(0, 3, size=n)
        noisy = templates[labels] + rng.normal(0.0, 0.1, size=(n, 256))
        return Dataset(np.clip(noisy, 0.0, 1.0), labels)

    train_data, val = make(150), make(120)
    model = MlpModel(train_data, layer_sizes=(256, 8, 3), h_prior=1 / 0.3**2)
    cf = TrainConfig(n_epochs=3, frac_zero_target=0.8, frac_held_target=0.01)
    state, _ = train(model, 150, cf, seed=11)
    return _metrics(model, state, val)


WORKLOADS = {"logistic": (_logistic_run, range(1, 41)), "mlp": (_mlp_run, range(1, 9))}


def _package(patch):
    pass


def _earlier_formulas(patch):
    patch.setattr(mfquad.trainer, "variational_update", oracles.variational_update)
    patch.setattr(oracles, "keep_probability", oracles.keep_probability_logaddexp)
    patch.setattr(oracles, "slab_deviation", oracles.slab_deviation_power)


def _planted_shift(patch):
    keep_probability = oracles.keep_probability
    patch.setattr(mfquad.trainer, "variational_update", oracles.variational_update)
    patch.setattr(oracles, "keep_probability",
                  lambda z: keep_probability(z + PLANTED_LOGIT_SHIFT))


def _per_node(patch):
    patch.setattr(mfquad.trainer, "quadratic_approx", oracles.quadratic_approx)


PATHS = {
    "package": _package,
    "earlier": _earlier_formulas,
    "planted": _planted_shift,
    "per_node": _per_node,
}


@pytest.fixture(scope="module")
def seed_metrics():
    """``get(workload, path)``: the (n_seeds, 2) array of METRICS of every
    seed's run, each computed once per module."""
    cache = {}

    def get(workload, path):
        if (workload, path) not in cache:
            run, seeds = WORKLOADS[workload]
            with pytest.MonkeyPatch.context() as patch:
                PATHS[path](patch)
                cache[workload, path] = np.array([run(s) for s in seeds])
        return cache[workload, path]

    return get


def _violations(workload, changed, reference) -> list[str]:
    shift = changed.mean(axis=0) - reference.mean(axis=0)
    return [
        f"{workload} {name}: seed mean shifted by {s:+.5f}, bound {b}"
        for name, s, b in zip(METRICS, shift, BOUNDS[workload])
        if abs(s) > b
    ]


@pytest.mark.parametrize("workload", ["logistic", "mlp"])
def test_update_formulas_drift_within_budget(workload, seed_metrics):
    package = seed_metrics(workload, "package")
    earlier = seed_metrics(workload, "earlier")
    # the two paths really differ: some seed's run moved
    assert not np.array_equal(package, earlier)
    assert _violations(workload, package, earlier) == []


@pytest.mark.parametrize("workload", ["logistic", "mlp"])
def test_pair_sums_drift_within_budget(workload, seed_metrics):
    package = seed_metrics(workload, "package")
    per_node = seed_metrics(workload, "per_node")
    assert not np.array_equal(package, per_node)
    assert _violations(workload, package, per_node) == []


def test_planted_shift_exceeds_the_budget(seed_metrics):
    planted = seed_metrics("logistic", "planted")
    earlier = seed_metrics("logistic", "earlier")
    violations = _violations("logistic", planted, earlier)
    assert [v.split(":")[0] for v in violations] == [
        f"logistic {name}" for name in METRICS
    ], violations
