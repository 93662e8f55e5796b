"""Reference versions of the per-case hot path, kept as test oracles.

Each function restates a fast path of the package in its plain, allocating
form: a full stable sort for the sieve, a shift-XOR bit parity for the
signs, one shuffle call per block for the blocked simplex rule, one checked
model call per node, fresh arrays for every intermediate result.  The fast
paths must agree with them bit for bit, because they keep the same
floating-point operations (and random draws) in the same order.
``patch_all`` swaps every hot-path oracle into the package for a whole
training run, at the names the package calls: for the case loop's
kernels, ``_quadratic_approx`` and ``_variational_update`` in
``mfquad.trainer``.

Two references are not restatements.  ``quadratic_approx`` evaluates every
node one by one, the definition the models' ``pair_sums`` reorganize; they
agree with it up to rounding.  ``block_sums`` sums a block of nodes that
one ``evaluate_nodes`` call evaluates (``logistic_evaluate_nodes`` for the
logistic model) in the per-node loop's order, so bit for bit.
``run_epoch`` keeps the final epoch that updates every coordinate; the
package's, which updates the survivors alone, matches it on every value a
later step reads.  ``count_exact_pairs`` builds every node of one budget
anew, where the package counts a whole ladder in one pass; the counts are
integers and must agree exactly.  ``count_exact_ladder`` is the package's
earlier ladder loop, which built the cross-polytope's nodes, took numpy's
syrk product and divided by the budget, where the package takes one gemm
per pair of column tiles on the upper block triangle, of the signs in
float32, and compares with a precomputed bound; the counts must agree
exactly.  ``orthonormal_basis`` factors one coordinate's moment
matrix at a time, where the package factors them all in one batched call,
bit for bit.  ``cmd_integrate_bench`` builds every column
of every (trial, budget) cell's node set and evaluates each cell apart,
where the package builds only the columns the basis reads and evaluates a
trial's whole ladder at once; the CSVs must agree byte for byte.
``read_idx`` reads and decodes a whole IDX file, where the package decodes
only the items a run asks for; the items must agree bit for bit.

``gradient_check`` is no restatement but a test tool: it compares a model's
analytic gradient with central finite differences.
"""

import math
import struct

import numpy as np

import mfquad.cli as cli
import mfquad.meanfield
import mfquad.models
import mfquad.projection
import mfquad.quadrature
import mfquad.trainer
from mfquad.meanfield import (
    GaussianMeanField,
    LaplaceMeanField,
    OrthonormalBasis,
    basis_product_expectation,
    preset,
)
from mfquad.models import IdxFormatError, LogisticModel, MlpModel
from mfquad.projection import QuadraticSummary, _evaluate, full_period
from mfquad.quadrature import (
    _EXACT_TOL,
    NodeSet,
    mc_nodes,
    mean_matched_nodes,
    moment_matched_nodes,
    reflected_nodes,
    simplex_sigma_points,
    trial_rng,
)
from mfquad.trainer import (
    Accumulator,
    EpochStats,
    anneal_target,
    hybrid_coeffs,
    sparsity_schedule,
)


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


def sign_sequence(d: int, k_start: int, n_vectors: int, index=None) -> np.ndarray:
    """``quadrature.sign_sequence`` through a shift-XOR parity of ``i & k``,
    every column built and ``index`` sliced out of them."""
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    if k_start < 0 or n_vectors < 0:
        raise ValueError("sequence indices must be nonnegative")
    i = np.arange(d, dtype=np.uint64)
    k = (np.uint64(k_start) + np.arange(n_vectors, dtype=np.uint64))[:, None]
    parity = _bit_parity(i[None, :] & k)
    signs = (2.0 * parity - 1.0).astype(np.float64)
    return signs if index is None else signs[:, index]


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


def count_exact_pairs(d, method, n_evals, *, block_size=2, n_trials=1, seed=0) -> float:
    """``quadrature.count_exact_pairs`` at one budget, every node built anew:
    the weighted second-moment matrix of the whole rule, counted on its
    strict upper triangle."""
    group = {"cross-polytope": 2, "blocked-simplex": block_size + 1}[method]
    counts = []
    for trial in range(n_trials if method == "blocked-simplex" else 1):
        if method == "blocked-simplex":
            ns = mfquad.quadrature.blocked_simplex_standard(
                d, block_size, trial_rng(seed, trial), n_evals // group
            )
        else:
            _, nodes = reflected_nodes(np.zeros(d), np.ones(d), 0, n_evals // 2)
            ns = NodeSet(nodes.reshape(n_evals, d), np.full(n_evals, 1.0 / n_evals))
        second = ns.nodes.T @ (ns.weights[:, None] * ns.nodes)
        off = np.abs(second[np.triu_indices(d, k=1)])
        counts.append(int(np.count_nonzero(off < _EXACT_TOL)))
    return float(np.mean(counts))


def count_exact_ladder(d, method, budgets, *, block_size=2, n_trials=1, seed=0) -> list[float]:
    """``quadrature.count_exact_pairs`` on a ladder, by its earlier loop:
    every rung's nodes built (``reflected_nodes`` for the cross-polytope),
    their ``block.T @ block`` (numpy's syrk, mirrored) added to a float64
    sum, the sum divided by the budget, and the exact off-diagonal entries
    counted once per pair as ``(count - diagonal) // 2``."""
    blocked = method == "blocked-simplex"
    group = block_size + 1 if blocked else 2
    trials = n_trials if blocked else 1
    counts = np.zeros(len(budgets))
    for trial in range(trials):
        rng = trial_rng(seed, trial) if blocked else None
        second = np.zeros((d, d))
        prev = 0
        for j, n in enumerate(budgets):
            if blocked:
                block = mfquad.quadrature.blocked_simplex_standard(
                    d, block_size, rng, (n - prev) // group
                ).nodes
            else:
                _, nodes = reflected_nodes(np.zeros(d), np.ones(d), prev // 2, (n - prev) // 2)
                block = nodes.reshape(n - prev, d)
            second += block.T @ block
            exact = np.abs(second / n) < _EXACT_TOL
            counts[j] += (np.count_nonzero(exact) - np.count_nonzero(exact.diagonal())) // 2
            prev = n
    return (counts / trials).tolist()


def reflect(mu: np.ndarray, sigma: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """``quadrature._reflect`` as a stack of two fresh node arrays."""
    if not (mu.ndim == 1 and mu.shape == sigma.shape == signs.shape[-1:]):
        raise ValueError(
            f"shape mismatch: mu {mu.shape}, sigma {sigma.shape}, signs {signs.shape}"
        )
    if (sigma < 0).any():
        raise ValueError("sigma must be nonnegative")
    step = sigma * signs
    return np.array((mu + step, mu - step))


def spike_slab_moments(p_nonzero, slab_mean, slab_std):
    """``meanfield.spike_slab_moments`` by its textbook formula."""
    p = np.asarray(p_nonzero, dtype=np.float64)
    m = np.asarray(slab_mean, dtype=np.float64)
    s = np.asarray(slab_std, dtype=np.float64)
    mu = p * m
    var = p * (1.0 - p) * m**2 + p * s**2
    return mu, np.sqrt(var)


def mean_field_sample(dist, n: int, rng: np.random.Generator) -> np.ndarray:
    """``sample(n, rng)`` of the three mean-field families by their textbook
    formulas: ``mu + sigma * z``, numpy's own ``laplace(loc, scale)``, and
    the spike-slab ``np.where`` on normals drawn before uniforms."""
    if isinstance(dist, GaussianMeanField):
        return dist.mu + dist.sigma * rng.standard_normal((n, dist.dim))
    if isinstance(dist, LaplaceMeanField):
        return rng.laplace(dist.loc, dist.scale, size=(n, dist.dim))
    z = rng.standard_normal((n, dist.dim))
    u = rng.random((n, dist.dim))
    return np.where(u < dist.p_zero, 0.0, dist.slab_mean + dist.slab_std * z)


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


def logistic_evaluate_nodes(self, nodes: np.ndarray, case: int):
    """``LogisticModel.evaluate`` at every row of the ``(m, d)`` block
    ``nodes``, row for row bit-identical to ``logistic_evaluate``."""
    x = self.dataset.features[case]
    y = float(self.dataset.labels[case])
    # One dot per row, as ``x @ t`` takes it (a matrix-vector product
    # rounds differently).
    z = np.vecdot(nodes, x)
    # softplus(z) - y*z, stable on both tails
    losses = np.logaddexp(0.0, -np.abs(z)) + np.maximum(z, 0.0) - y * z
    n = self.dataset.n_cases
    losses += 0.5 * self.h_prior / n * np.vecdot(nodes, nodes)
    grads = np.multiply.outer(sigmoid(z) - y, x)
    grads += (self.h_prior / n) * nodes
    return losses, grads


def _pairs(mu, sigma, k_start, n_pairs):
    mu = np.asarray(mu, dtype=np.float64).ravel()
    sigma = np.asarray(sigma, dtype=np.float64).ravel()
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be positive, got {n_pairs}")
    signs = sign_sequence(mu.shape[0], k_start, n_pairs)
    return mu, sigma, signs, reflect(mu, sigma, signs)


def summary(sums, sigma, n_pairs) -> QuadraticSummary:
    """The quadratic of ``projection.quadratic_approx`` from its three sums."""
    loss_sum, grad_sum, curv_sum = sums
    n_evals = 2.0 * n_pairs
    grad = grad_sum / n_evals
    hess = np.divide(curv_sum, n_evals * sigma, out=np.zeros(sigma.size), where=sigma > 0)
    loss = loss_sum / n_evals - 0.5 * float(hess @ sigma**2)
    return QuadraticSummary(loss, grad, hess)


def node_sums(model, case, mu, sigma, k_start, n_pairs):
    """The three sums from a checked ``evaluate`` call per node, pair by
    pair, plus node first."""
    mu, sigma, signs, nodes = _pairs(mu, sigma, k_start, n_pairs)
    loss_sum = 0.0
    grad_sum = np.zeros(mu.shape[0])
    curv_sum = np.zeros(mu.shape[0])
    for s, plus, minus in zip(signs, nodes[0], nodes[1]):
        loss_p, grad_p = _evaluate(model, plus, case)
        loss_m, grad_m = _evaluate(model, minus, case)
        loss_sum += loss_p + loss_m
        grad_sum += grad_p + grad_m
        curv_sum += (grad_p - grad_m) * s
    return loss_sum, grad_sum, curv_sum


def block_sums(evaluate_nodes, case, mu, sigma, k_start, n_pairs):
    """The three sums from one ``evaluate_nodes`` call on the ``(2 *
    n_pairs, d)`` block, plus nodes first, each pair's row added in turn
    into zeroed sums as ``node_sums`` adds them."""
    mu, sigma, signs, nodes = _pairs(mu, sigma, k_start, n_pairs)
    d = mu.shape[0]
    losses, grads = evaluate_nodes(nodes.reshape(2 * n_pairs, d), case)
    loss_sum = 0.0
    for loss in (losses[:n_pairs] + losses[n_pairs:]).tolist():
        loss_sum += loss
    plus, minus = grads[:n_pairs], grads[n_pairs:]
    grad_sum = np.zeros(d)
    for row in plus + minus:
        grad_sum += row
    curv_sum = np.zeros(d)
    for row in (plus - minus) * signs:
        curv_sum += row
    return loss_sum, grad_sum, curv_sum


def quadratic_approx(model, case, mu, sigma, k_start, n_pairs, index=None):
    """``projection._quadratic_approx`` by its definition: a checked
    ``evaluate`` call per node and fresh arrays for every sum, whether or
    not the model has ``pair_sums``; with ``index``, the full summary's
    grad and hess gathered there."""
    sigma = np.asarray(sigma, dtype=np.float64).ravel()
    full = summary(node_sums(model, case, mu, sigma, k_start, n_pairs), sigma, n_pairs)
    return full if index is None else _gathered(full, index)


def pair_quadratic_approx(model, case, mu, sigma, k_start, n_pairs, index=None):
    """``projection._quadratic_approx`` with fresh arrays for every step:
    the sums of ``model.pair_sums`` where it gives them, else ``node_sums``;
    with ``index``, the full summary's grad and hess gathered there."""
    mu = np.asarray(mu, dtype=np.float64).ravel()
    sigma = np.asarray(sigma, dtype=np.float64).ravel()
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be positive, got {n_pairs}")
    pair_sums = getattr(model, "pair_sums", None)
    sums = None if pair_sums is None else pair_sums(case, mu, sigma, k_start, n_pairs)
    if sums is None:
        sums = node_sums(model, case, mu, sigma, k_start, n_pairs)
    full = summary(sums, sigma, n_pairs)
    return full if index is None else _gathered(full, index)


def _gathered(full: QuadraticSummary, index) -> QuadraticSummary:
    return QuadraticSummary(full.loss, full.grad[index], full.hess[index])


def mlp_pair_sums(self, case, mu, sigma, k_start, n_pairs):
    """``MlpModel.pair_sums`` with fresh arrays for every step, its signs
    cut from whole sign vectors, whose W1 blocks are checked to be the
    rank-one products the package relies on."""
    n_in, n_hid, n_out = self.layer_sizes
    if n_hid & (n_hid - 1):
        return None
    a = n_in * n_hid
    x = self.dataset.features[case]
    y = int(self.dataset.labels[case])
    signs = sign_sequence(mu.shape[0], k_start, n_pairs)
    w1_signs = signs[:, :a].reshape(n_pairs, n_in, n_hid)
    col, row = w1_signs[:, :, 0], w1_signs[:, 0, :]
    assert np.array_equal(w1_signs, -col[:, :, None] * row[:, None, :])
    rest_signs = signs[:, a:]

    step = sigma[a:] * rest_signs
    rest = np.stack([mu[a:] + step, mu[a:] - step])
    b1 = rest[..., :n_hid]
    w2 = rest[..., n_hid : n_hid * (1 + n_out)].reshape(2, n_pairs, n_hid, n_out)
    b2 = rest[..., n_hid * (1 + n_out) :]
    w1_step = ((col * x) @ sigma[:a].reshape(n_in, n_hid)) * -row
    mean_pre = x @ mu[:a].reshape(n_in, n_hid)
    hidden = np.tanh(np.stack([mean_pre + w1_step, mean_pre - w1_step]) + b1)
    logits = (hidden[..., None, :] @ w2)[..., 0, :] + b2
    shifted = logits - logits.max(axis=2, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=2, keepdims=True))
    loss_sum = float((log_norm[..., 0] - shifted[..., y]).sum())

    dlogits = np.exp(shifted - log_norm)
    dlogits[..., y] -= 1.0
    dhidden = (w2 @ dlogits[..., None])[..., 0]
    dpre = (1.0 - hidden**2) * dhidden
    dw2 = hidden[..., None] * dlogits[..., None, :]
    grads = np.concatenate((dpre, dw2.reshape(2, n_pairs, -1), dlogits), axis=2)
    rest_sum = grads.sum(axis=(0, 1))
    diff = grads[0] - grads[1]

    prior = self.h_prior / self.dataset.n_cases
    loss_sum += n_pairs * prior * float(mu @ mu + sigma @ sigma)
    grad_w1 = np.dot(x.reshape(n_in, 1), rest_sum[:n_hid].reshape(1, n_hid))
    grad_sum = mu * (2 * n_pairs * prior) + np.concatenate([grad_w1.ravel(), rest_sum])
    curv_w1 = (col * x).T @ (diff[:, :n_hid] * -row)
    curv_sum = sigma * (2 * n_pairs * prior) + np.concatenate(
        [curv_w1.ravel(), (diff * rest_signs).sum(axis=0)]
    )
    return loss_sum, grad_sum, curv_sum


def logistic_pair_sums(self, case, mu, sigma, k_start, n_pairs):
    """``LogisticModel.pair_sums`` with fresh arrays for every step."""
    x = self.dataset.features[case]
    y = float(self.dataset.labels[case])
    signs = sign_sequence(mu.shape[0], k_start, n_pairs)
    dz = signs @ (sigma * x)
    z0 = x @ mu
    z = np.stack([z0 + dz, z0 - dz])
    slopes = sigmoid(z) - y
    prior = self.h_prior / self.dataset.n_cases
    loss_sum = float(np.logaddexp(0.0, z).sum()) - y * float(z.sum())
    loss_sum += n_pairs * prior * float(mu @ mu + sigma @ sigma)
    grad_sum = mu * (2 * n_pairs * prior) + float(slopes.sum()) * x
    curv_sum = sigma * (2 * n_pairs * prior) + ((slopes[0] - slopes[1]) @ signs) * x
    return loss_sum, grad_sum, curv_sum


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


def run_epoch(state, model, n_cases, config, epoch, rng) -> EpochStats:
    """``trainer.run_epoch`` with every case of the final epoch updating
    every coordinate, the ones decided zero included, through the package's
    moments, projection and update."""
    st, cf = state, config
    st.cur.reset()
    target = anneal_target(epoch, cf.n_epochs, n_cases)
    final = epoch == cf.n_epochs
    if final:
        st.realized_nonzero = (st.p_nonzero >= 0.5).astype(np.float64)

    epoch_loss = 0.0
    for i, case in enumerate(rng.permutation(n_cases).tolist()):
        mu, sigma = mfquad.trainer.spike_slab_moments(st.p_nonzero, st.slab_mean, st.slab_std)
        snap = mfquad.projection.quadratic_approx(
            model, case, mu, sigma, st.seq_index, cf.n_pairs_per_case
        )
        st.seq_index += cf.n_pairs_per_case
        epoch_loss += snap.loss
        t = (epoch - 1) + i / n_cases
        mfquad.trainer.variational_update(st, cf, snap.grad, snap.hess, mu, t, final)
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


def patch_all(monkeypatch) -> None:
    """Route every hot-path name of the package to its oracle: the case
    loop's two kernels, which ``run_epoch`` calls by their names in
    ``mfquad.trainer``, and what the loop calls besides them.  The update's
    oracle sieves through this module's ``zero_logits`` and ``sieve_map``."""
    for module, name, oracle in (
        (mfquad.trainer, "_variational_update", variational_update),
        (mfquad.trainer, "_quadratic_approx", pair_quadratic_approx),
        (mfquad.trainer, "spike_slab_moments", spike_slab_moments),
        (mfquad.meanfield, "spike_slab_moments", spike_slab_moments),
        (mfquad.quadrature, "sign_sequence", sign_sequence),
        (mfquad.quadrature, "_reflect", reflect),
        (Accumulator, "add", accumulator_add),
        (Accumulator, "recenter", accumulator_recenter),
        (Accumulator, "reset", accumulator_reset),
        (MlpModel, "evaluate", mlp_evaluate),
        (LogisticModel, "evaluate", logistic_evaluate),
        (MlpModel, "pair_sums", mlp_pair_sums),
        (LogisticModel, "pair_sums", logistic_pair_sums),
        (mfquad.models, "_sigmoid", sigmoid),
    ):
        monkeypatch.setattr(module, name, oracle)


def orthonormal_basis(dist, max_degree: int = 3) -> OrthonormalBasis:
    """``meanfield.orthonormal_basis`` by one Hankel build, ``cholesky`` and
    ``inv`` per coordinate."""
    m = dist.raw_moments(2 * max_degree)
    n = max_degree + 1
    coeffs = np.zeros((dist.dim, n, n))
    for c in range(dist.dim):
        hankel = np.empty((n, n))
        for a in range(n):
            hankel[a] = m[c, a : a + n]
        try:
            chol = np.linalg.cholesky(hankel)
        except np.linalg.LinAlgError as err:
            raise ValueError(
                f"degenerate marginal at coordinate {c}: "
                "moment matrix is not positive definite"
            ) from err
        coeffs[c] = np.tril(np.linalg.inv(chol))
    return OrthonormalBasis(coeffs)


def _bench_nodes(method, dist, n, rng, block_size):
    """Every column of one trial's node set at one evaluation budget."""
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
    base = mfquad.quadrature.blocked_simplex_standard(
        d, block_size, rng, n_groups=n // (block_size + 1)
    )
    return NodeSet(dist.mean + dist.std * base.nodes, base.weights)


def cmd_integrate_bench(args) -> int:
    """``cli.cmd_integrate_bench`` one (trial, budget) cell at a time: a full
    ``d``-column node set per cell and one ``basis.evaluate`` call per term
    and cell."""
    d = args.d
    terms = cli.parse_basis(args.basis, d)
    max_degree = max(3, *(deg for _, deg in terms))
    budgets = cli._ladder(args.method, args.block_size, args.max_evals)
    dist = preset(args.dist, d)
    basis = mfquad.meanfield.orthonormal_basis(dist, max_degree=max_degree)
    truth = basis_product_expectation(dist, basis, terms)

    errors = np.empty((args.trials, len(budgets)))
    for trial in range(args.trials):
        rng = trial_rng(args.seed, trial)
        for j, n in enumerate(budgets):
            ns = _bench_nodes(args.method, dist, n, rng, args.block_size)
            vals = np.ones(ns.n_nodes)
            for coord, degree in terms:
                vals *= basis.evaluate(coord, degree, ns.nodes[:, coord])
            errors[trial, j] = float(ns.weights @ vals) - truth

    t = args.trials
    rows = []
    for j, n in enumerate(budgets):
        signed = np.sort(errors[:, j])
        rows.append(
            [
                n,
                cli._fmt(signed[math.floor(0.05 * t)]),
                cli._fmt(signed[math.floor(0.5 * t)]),
                cli._fmt(signed[min(math.ceil(0.95 * t), t - 1)]),
                cli._fmt(np.mean(np.abs(signed))),
            ]
        )
    cli._write_csv(args.out, ["n_evals", "q05", "q50", "q95", "mean_abs_err"], rows)
    return 0


def read_idx(path) -> np.ndarray:
    """``models.read_idx`` reading and decoding the whole file at once."""
    with open(path, "rb") as fh:
        raw = fh.read()

    def take(offset: int, count: int) -> bytes:
        if offset + count > len(raw):
            raise IdxFormatError(
                f"{path}: truncated at byte {len(raw)}, "
                f"needed {offset + count} bytes"
            )
        return raw[offset : offset + count]

    (magic,) = struct.unpack(">I", take(0, 4))
    if magic == 0x00000803:
        n, rows, cols = struct.unpack(">III", take(4, 12))
        data = np.frombuffer(take(16, n * rows * cols), dtype=np.uint8)
        if len(raw) != 16 + n * rows * cols:
            raise IdxFormatError(
                f"{path}: {len(raw)} bytes, expected {16 + n * rows * cols}"
            )
        return data.reshape(n, rows, cols).astype(np.float64) / 255.0
    if magic == 0x00000801:
        (n,) = struct.unpack(">I", take(4, 4))
        data = np.frombuffer(take(8, n), dtype=np.uint8)
        if len(raw) != 8 + n:
            raise IdxFormatError(f"{path}: {len(raw)} bytes, expected {8 + n}")
        return data.astype(np.int64)
    raise IdxFormatError(
        f"{path}: bad magic 0x{magic:08x} at byte 0; expected "
        f"0x{0x00000803:08x} (images) or 0x{0x00000801:08x} (labels)"
    )


def gradient_check(
    model, case=0, n_probes: int = 3, seed: int = 0, scale: float = 1.0
) -> float:
    """Max mixed deviation of the analytic gradient from central differences.

    Steps are ``1e-5 * (1 + |theta_i|)`` per coordinate; the deviation is
    ``|fd - grad| / (1 + |grad|)``, so absolute near zero and relative for
    large entries.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    worst = 0.0
    for _ in range(n_probes):
        theta = scale * rng.standard_normal(model.n_params)
        _, grad = model.evaluate(theta, case)
        fd = np.empty_like(grad)
        for i in range(theta.size):
            step = 1e-5 * (1.0 + abs(theta[i]))
            up, down = theta.copy(), theta.copy()
            up[i] += step
            down[i] -= step
            fd[i] = (model.evaluate(up, case)[0] - model.evaluate(down, case)[0]) / (
                2.0 * step
            )
        worst = max(worst, float(np.max(np.abs(fd - grad) / (1.0 + np.abs(grad)))))
    return worst
