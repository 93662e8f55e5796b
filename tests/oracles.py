"""Reference versions of the per-case hot path, kept as test oracles.

Each function restates a fast path of the package in its plain, allocating
form: a full stable sort for the sieve, a shift-XOR bit parity for the
signs, one shuffle call per block for the blocked simplex rule, one checked
model call per node, fresh arrays for every intermediate result.  The fast
paths must agree with them bit for bit, because they keep the same
floating-point operations (and random draws) in the same order.  ``patch_all`` swaps every hot-path oracle into the
package for a whole training run.  ``save_checkpoint_v1`` keeps the writer
of the first checkpoint format, which ``load_checkpoint`` still reads.
"""

import json
import math
from dataclasses import fields

import numpy as np

import mfquad.meanfield
import mfquad.models
import mfquad.quadrature
import mfquad.trainer
from mfquad.models import LogisticModel, MlpModel
from mfquad.projection import QuadraticSummary, _evaluate
from mfquad.quadrature import NodeSet, simplex_sigma_points
from mfquad.trainer import Accumulator, _plain, hybrid_coeffs, sparsity_schedule


def sieve_map(
    values,
    frac_zero: float,
    frac_held: float,
    target_zero: float = math.log(999.0),
    target_held: float = -math.log(999.0),
) -> np.ndarray:
    """``trainer.sieve_map`` through a full stable argsort."""
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
    order = np.argsort(values, kind="stable")
    if n_zero == 0:
        return values - values[order[n_held - 1]] + target_held
    if n_held == 0:
        return values - values[order[d - n_zero]] + target_zero

    z0 = values[order[d - n_zero]]
    z1 = values[order[n_held - 1]]
    out = np.empty_like(values)
    top, low, mid = order[d - n_zero :], order[:n_held], order[n_held : d - n_zero]
    out[top] = values[top] - z0 + target_zero
    out[low] = values[low] - z1 + target_held
    # in Python floats, which overflow to inf without a warning; a gap that
    # overflows is interpolated on halved values
    z0, z1 = float(z0), float(z1)
    h = 0.5 if z0 - z1 == math.inf else 1.0
    slope = (target_zero - target_held) / (h * z0 - h * z1) if z0 > z1 else math.inf
    if math.isfinite(slope):
        out[mid] = target_held + (values[mid] * h - h * z1) * slope
    else:  # coincident hinges, or too close for a finite slope
        out[mid] = 0.5 * (target_zero + target_held)
    return out


def _bit_parity(x: np.ndarray) -> np.ndarray:
    """Parity of the set bits of each uint64 entry (0 or 1)."""
    x = x.astype(np.uint64, copy=True)
    for shift in (32, 16, 8, 4, 2, 1):
        x ^= x >> np.uint64(shift)
    return (x & np.uint64(1)).astype(np.int64)


def sign_sequence(d: int, k_start: int, n_vectors: int) -> np.ndarray:
    """``quadrature.sign_sequence`` through a shift-XOR parity of ``i & k``."""
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    if k_start < 0 or n_vectors < 0:
        raise ValueError("sequence indices must be nonnegative")
    i = np.arange(d, dtype=np.uint64)
    k = (np.uint64(k_start) + np.arange(n_vectors, dtype=np.uint64))[:, None]
    parity = _bit_parity(i[None, :] & k)
    return (2.0 * parity - 1.0).astype(np.float64)


def blocked_simplex_standard(d, block_size, rng, n_groups=1) -> NodeSet:
    """``quadrature.blocked_simplex_standard`` with one ``rng.permutation``
    per group and block."""
    full = simplex_sigma_points(block_size).nodes
    m = full.shape[0]
    total = n_groups * m
    nodes = np.empty((total, d))
    for g in range(n_groups):
        group = nodes[g * m : (g + 1) * m]
        for start in range(0, d, block_size):
            size = min(block_size, d - start)
            group[:, start : start + size] = full[rng.permutation(m), :size]
    return NodeSet(nodes, np.full(total, 1.0 / total))


def reflect(mu: np.ndarray, sigma: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """``quadrature._reflect`` as a stack of two fresh node arrays."""
    if not (mu.ndim == 1 and mu.shape == sigma.shape == signs.shape[-1:]):
        raise ValueError(
            f"shape mismatch: mu {mu.shape}, sigma {sigma.shape}, signs {signs.shape}"
        )
    if np.any(sigma < 0):
        raise ValueError("sigma must be nonnegative")
    step = sigma * signs
    return np.stack([mu + step, mu - step])


def spike_slab_moments(p_nonzero, slab_mean, slab_std):
    """``meanfield.spike_slab_moments`` by its textbook formula."""
    p = np.asarray(p_nonzero, dtype=np.float64)
    m = np.asarray(slab_mean, dtype=np.float64)
    s = np.asarray(slab_std, dtype=np.float64)
    mu = p * m
    var = p * (1.0 - p) * m**2 + p * s**2
    return mu, np.sqrt(var)


def mlp_evaluate(self, theta: np.ndarray, case: int):
    """``MlpModel.evaluate`` with the gradient blocks concatenated."""
    w1, b1, w2, b2 = self._unpack(theta)
    x = self.dataset.features[case]
    y = int(self.dataset.labels[case])

    hidden = np.tanh(x @ w1 + b1)
    logits = hidden @ w2 + b2
    shifted = logits - logits.max()
    log_norm = np.log(np.sum(np.exp(shifted)))
    loss = log_norm - shifted[y]

    p = np.exp(shifted - log_norm)
    dlogits = p
    dlogits[y] -= 1.0
    dw2 = np.outer(hidden, dlogits)
    db2 = dlogits
    dhidden = w2 @ dlogits
    dpre = (1.0 - hidden**2) * dhidden
    dw1 = np.outer(x, dpre)
    db1 = dpre

    grad = np.concatenate([dw1.ravel(), db1, dw2.ravel(), db2])
    n = self.dataset.n_cases
    loss += 0.5 * self.h_prior / n * float(theta @ theta)
    grad += (self.h_prior / n) * theta
    return float(loss), grad


def sigmoid(z: np.ndarray) -> np.ndarray:
    """``models._sigmoid`` through boolean masks of each sign."""
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logistic_evaluate(self, theta: np.ndarray, case: int):
    """``LogisticModel.evaluate`` on one node, in scalar arithmetic."""
    x = self.dataset.features[case]
    y = float(self.dataset.labels[case])
    z = float(x @ theta)
    # softplus(z) - y*z, stable on both tails
    loss = np.logaddexp(0.0, -abs(z)) + max(z, 0.0) - y * z
    grad = (float(sigmoid(np.asarray([z]))[0]) - y) * x
    n = self.dataset.n_cases
    loss += 0.5 * self.h_prior / n * float(theta @ theta)
    grad = grad + (self.h_prior / n) * theta
    return float(loss), grad


def quadratic_approx(model, case, mu, sigma, k_start, n_pairs) -> QuadraticSummary:
    """``projection.quadratic_approx`` with a checked ``evaluate`` call per
    node and fresh arrays for every sum."""
    mu = np.asarray(mu, dtype=np.float64).ravel()
    sigma = np.asarray(sigma, dtype=np.float64).ravel()
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be positive, got {n_pairs}")
    d = mu.shape[0]
    signs = sign_sequence(d, k_start, n_pairs)
    nodes = reflect(mu, sigma, signs)
    loss_sum = 0.0
    grad_sum = np.zeros(d)
    curv_sum = np.zeros(d)
    for s, plus, minus in zip(signs, nodes[0], nodes[1]):
        loss_p, grad_p = _evaluate(model, plus, case)
        loss_m, grad_m = _evaluate(model, minus, case)
        loss_sum += loss_p + loss_m
        grad_sum += grad_p + grad_m
        curv_sum += (grad_p - grad_m) * s

    n_evals = 2.0 * n_pairs
    grad = grad_sum / n_evals
    hess = np.divide(curv_sum, n_evals * sigma, out=np.zeros(d), where=sigma > 0)
    loss = loss_sum / n_evals - 0.5 * float(hess @ sigma**2)
    return QuadraticSummary(loss, grad, hess)


def zero_logits(hess, slab_mean, slab_std_max: float) -> np.ndarray:
    """``trainer.zero_logits`` in one expression."""
    hess = np.asarray(hess, dtype=np.float64)
    mean = np.asarray(slab_mean, dtype=np.float64)
    if np.any(hess <= 0):
        raise ValueError("zero_logits needs strictly positive curvature")
    return 0.5 * (np.log(hess * slab_std_max**2) - hess * mean**2)


# Accumulator.add, .recenter and .reset, rebinding fresh arrays.


def accumulator_add(self, grad, hess, hess_floor) -> None:
    self.n += 1
    self.grad = self.grad + grad
    self.hess = np.maximum(self.hess + hess, hess_floor)


def accumulator_recenter(self, delta) -> None:
    self.grad = self.grad + self.hess * delta


def accumulator_reset(self) -> None:
    self.n = 0
    self.grad = np.zeros_like(self.grad)
    self.hess = np.zeros_like(self.hess)


def keep_probability(zero_logit):
    """``p_nonzero = 1 / (1 + exp(zero_logit))``; an overflowing exp gives 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(zero_logit))


def slab_deviation(hess_hat):
    """``slab_std = 1 / sqrt(hess_hat)``."""
    return 1.0 / np.sqrt(hess_hat)


# The update's earlier forms of the two formulas above, which differ from
# them in the last bits: the reference that tests/test_drift.py patches in.


def keep_probability_logaddexp(zero_logit):
    return np.exp(-np.logaddexp(0.0, zero_logit))


def slab_deviation_power(hess_hat):
    return hess_hat**-0.5


def variational_update(state, config, grad, hess, mu, t, final_epoch=False) -> None:
    """``trainer.variational_update`` with a fresh array for every step."""
    st, cf = state, config
    prev, cur = st.prev, st.cur
    cur.add(grad, hess, cf.slab_std_max**-2)

    a0, a1 = hybrid_coeffs(prev.n, cur.n)
    grad_hat = a0 * prev.grad + a1 * cur.grad
    hess_hat = a0 * prev.hess + a1 * cur.hess

    step_floor = max(prev.n, cur.n) * st.hess_min
    slab_grad = grad_hat + hess_hat * (st.slab_mean - mu)
    st.slab_mean = st.slab_mean - slab_grad / np.maximum(hess_hat, step_floor)
    st.slab_std = slab_deviation(hess_hat)

    if final_epoch:
        st.p_nonzero = st.realized_nonzero.copy()
    else:
        raw = zero_logits(hess_hat, st.slab_mean, cf.slab_std_max)
        frac_zero, frac_held = sparsity_schedule(
            t, cf.n_epochs, cf.frac_zero_target, cf.frac_held_target
        )
        st.zero_logit = sieve_map(
            raw, frac_zero, frac_held, cf.target_logit_zero, cf.target_logit_one
        )
        st.p_nonzero = keep_probability(st.zero_logit)

    delta = st.mu - mu
    prev.recenter(delta)
    cur.recenter(delta)


def patch_all(monkeypatch) -> None:
    """Route every hot-path name of the package to its oracle."""
    for module, name, oracle in (
        (mfquad.trainer, "sieve_map", sieve_map),
        (mfquad.trainer, "zero_logits", zero_logits),
        (mfquad.trainer, "variational_update", variational_update),
        (mfquad.trainer, "quadratic_approx", quadratic_approx),
        (mfquad.trainer, "spike_slab_moments", spike_slab_moments),
        (mfquad.meanfield, "spike_slab_moments", spike_slab_moments),
        (mfquad.quadrature, "sign_sequence", sign_sequence),
        (mfquad.quadrature, "_reflect", reflect),
        (Accumulator, "add", accumulator_add),
        (Accumulator, "recenter", accumulator_recenter),
        (Accumulator, "reset", accumulator_reset),
        (MlpModel, "evaluate", mlp_evaluate),
        (LogisticModel, "evaluate", logistic_evaluate),
        (mfquad.models, "_sigmoid", sigmoid),
    ):
        monkeypatch.setattr(module, name, oracle)


# Format 1 stored both passes, their summed snapshot losses and the derived
# marginal; the loader reads none of the current pass and no loss.
_V1_ARRAYS = ("mu", "sigma", "slab_mean", "slab_std", "zero_logit", "p_nonzero",
              "realized_nonzero", "grad_prev", "grad_cur", "hess_prev", "hess_cur")
_V1_SCALARS = ("n_prev", "n_cur", "loss_prev", "loss_cur", "seq_index", "hess_min")


def _v1_value(state, key):
    name, _, acc = key.rpartition("_")
    if acc not in ("prev", "cur"):
        return getattr(state, key)
    return 0.0 if name == "loss" else getattr(getattr(state, acc), name)


def save_checkpoint_v1(path, state, config) -> None:
    """Format ``mfvi-ckpt-1``: indented JSON float lists at full round-trip
    precision, with the derived ``mu`` and ``sigma``, no epoch, no generator;
    the losses, which the state no longer keeps, are written as 0."""
    payload = {
        "format": "mfvi-ckpt-1",
        "config": {f.name: _plain(getattr(config, f.name)) for f in fields(config)},
        "state": {
            **{k: _v1_value(state, k).tolist() for k in _V1_ARRAYS},
            **{k: _plain(_v1_value(state, k)) for k in _V1_SCALARS},
        },
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
