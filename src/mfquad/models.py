"""Loss models and datasets for the trainer and its experiments.

Every model satisfies one contract: ``evaluate(theta, case) -> (loss, grad)``
where ``case`` indexes a training example (models that hold no data ignore
it).  Per-case losses include the continuous prior component
``h_prior/(2*N) * |theta|^2`` so that summing over the dataset reproduces
the full regularized objective.  Gradients are hand-derived; the tests
check them against central finite differences.

A model may also offer one optional method,
``pair_sums(case, mu, sigma, k_start, n_pairs, index=None) -> (loss_sum,
grad_sum, curv_sum)``.  Over the reflected pairs ``mu +- sigma * s_k`` of
the sign vectors ``k = k_start .. k_start + n_pairs - 1`` it returns the
three sums that ``projection.quadratic_approx`` reduces the evaluations to:
the summed losses, the summed gradients ``sum(g+ + g-)``, and the signed
gradient differences ``sum((g+ - g-) * s_k)``, as a float and two fresh
length-``d`` arrays.  With ``index``, a list of coordinates, the two arrays
hold only those entries, bit for bit the full sums' ``[index]``.  They equal
the sums of ``evaluate`` at the nodes up to rounding, not bit for bit.
Taking ``k_start`` rather than the signs lets a model build only the signs
it needs.  ``pair_sums`` may return None, and
the caller then evaluates the nodes one by one.  ``LogisticModel`` and
``MlpModel`` have it; ``MlpModel`` returns None unless its hidden size is a
power of two.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .quadrature import _reflect, sign_sequence

__all__ = [
    "Dataset",
    "QuadraticOracleModel",
    "LogisticModel",
    "MlpModel",
    "synth_sparse_logistic",
    "idx_shape",
    "read_idx",
    "write_idx",
    "IdxFormatError",
]

DEFAULT_H_PRIOR = 1.0 / 0.09  # precision of a slab with deviation cap 0.3


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _prior_sums(model, mu, sigma, n_pairs, index=None):
    """The prior's loss term and fresh gradient and curvature sums for
    ``pair_sums``, the sums at ``index`` only when it is given:
    ``|mu +- sigma*s|^2`` summed over a pair adds to ``2|mu|^2 +
    2|sigma|^2``, its gradients to 2*mu, their difference to 2*sigma*s."""
    prior = model.h_prior / model.dataset.n_cases
    loss = n_pairs * prior * float(mu @ mu + sigma @ sigma)
    if index is not None:
        mu, sigma = mu[index], sigma[index]
    return loss, np.multiply(mu, 2 * n_pairs * prior), np.multiply(sigma, 2 * n_pairs * prior)


@dataclass(frozen=True)
class Dataset:
    """Feature rows with integer labels."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.features, dtype=np.float64)
        y = np.asarray(self.labels, dtype=np.int64).ravel()
        if f.ndim != 2:
            raise ValueError(f"features must be 2-d, got shape {f.shape}")
        if f.shape[0] != y.shape[0]:
            raise ValueError(f"{f.shape[0]} feature rows but {y.shape[0]} labels")
        if f.shape[0] == 0:
            raise ValueError("dataset is empty")
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "labels", y)

    @property
    def n_cases(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, start: int, stop: int) -> "Dataset":
        return Dataset(self.features[start:stop], self.labels[start:stop])


class QuadraticOracleModel:
    """Known quadratic loss; the test oracle for curvature extraction.

    ``loss = c + b.(theta - x0) + 0.5 (theta - x0).A.(theta - x0)``,
    identical for every case.
    """

    def __init__(self, c: float, b, a, x0=None):
        self.c = float(c)
        self.b = np.asarray(b, dtype=np.float64).ravel()
        self.a = np.atleast_2d(np.asarray(a, dtype=np.float64))
        if self.a.shape != (self.b.size, self.b.size):
            raise ValueError(
                f"A must be {self.b.size}x{self.b.size}, got {self.a.shape}"
            )
        self.x0 = (
            np.zeros_like(self.b) if x0 is None else np.asarray(x0, dtype=np.float64)
        )

    @property
    def n_params(self) -> int:
        return self.b.size

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        return np.zeros(self.n_params)

    def evaluate(self, theta: np.ndarray, case=None) -> tuple[float, np.ndarray]:
        z = theta - self.x0
        az = self.a @ z
        return self.c + self.b @ z + 0.5 * z @ az, self.b + az


class LogisticModel:
    """Binary logistic regression over a held dataset; case = row index."""

    def __init__(self, dataset: Dataset, h_prior: float = DEFAULT_H_PRIOR):
        if not np.all((dataset.labels == 0) | (dataset.labels == 1)):
            raise ValueError("logistic labels must be 0 or 1")
        self.dataset = dataset
        self.h_prior = float(h_prior)

    @property
    def n_params(self) -> int:
        return self.dataset.n_features

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        return np.zeros(self.n_params)

    def evaluate(self, theta: np.ndarray, case: int) -> tuple[float, np.ndarray]:
        x = self.dataset.features[case]
        y = float(self.dataset.labels[case])
        z = float(x @ theta)
        # softplus(z) - y*z, stable on both tails
        loss = np.logaddexp(0.0, -abs(z)) + max(z, 0.0) - y * z
        grad = (float(_sigmoid(np.float64(z))) - y) * x
        n = self.dataset.n_cases
        loss += 0.5 * self.h_prior / n * float(theta @ theta)
        grad += (self.h_prior / n) * theta
        return float(loss), grad

    def pair_sums(self, case, mu, sigma, k_start, n_pairs, index=None):
        """``pair_sums`` of the module's contract for this case.

        The margins of the nodes are ``x @ mu +- (sigma * x) @ s_k``, one
        product for all of them, and each node's data gradient is a
        multiple of ``x``.
        """
        x = self.dataset.features[case]
        y = float(self.dataset.labels[case])
        signs = sign_sequence(mu.shape[0], k_start, n_pairs)
        z0, dz = x @ mu, signs @ (sigma * x)
        z = np.empty((2, n_pairs))  # plus nodes first
        np.add(z0, dz, out=z[0])
        np.subtract(z0, dz, out=z[1])
        slopes = _sigmoid(z)
        slopes -= y
        loss_sum = float(np.logaddexp(0.0, z).sum()) - y * float(z.sum())
        prior_loss, grad_sum, curv_sum = _prior_sums(self, mu, sigma, n_pairs, index)
        loss_sum += prior_loss
        signed = (slopes[0] - slopes[1]) @ signs
        if index is not None:
            x, signed = x[index], signed[index]
        grad_sum += float(slopes.sum()) * x
        curv_sum += signed * x
        return loss_sum, grad_sum, curv_sum

    def predict(self, theta: np.ndarray, features: np.ndarray) -> np.ndarray:
        return (features @ theta > 0).astype(np.int64)


class MlpModel:
    """One-hidden-layer tanh network with a softmax cross-entropy head.

    Parameters are a single flat vector laid out as
    ``[W1 (in*hidden), b1 (hidden), W2 (hidden*out), b2 (out)]``.
    Forward and backward passes are hand-written.
    """

    def __init__(
        self,
        dataset: Dataset,
        layer_sizes: tuple[int, int, int] = (784, 32, 10),
        h_prior: float = DEFAULT_H_PRIOR,
    ):
        n_in, n_hid, n_out = layer_sizes
        if min(layer_sizes) < 1:
            raise ValueError(f"layer sizes must be positive, got {layer_sizes}")
        if dataset.n_features != n_in:
            raise ValueError(
                f"dataset has {dataset.n_features} features, network expects {n_in}"
            )
        if np.any(dataset.labels < 0) or np.any(dataset.labels >= n_out):
            raise ValueError(f"labels must lie in 0..{n_out - 1}")
        self.dataset = dataset
        self.layer_sizes = (int(n_in), int(n_hid), int(n_out))
        self.h_prior = float(h_prior)
        self._splits = np.cumsum([n_in * n_hid, n_hid, n_hid * n_out])
        # pair_sums' parameter indices whose signs it builds: W1's first
        # column and first row, then every parameter after W1
        a = int(self._splits[0])
        self._sign_index = np.concatenate(
            (np.arange(0, a, n_hid), np.arange(n_hid), np.arange(a, self.n_params))
        )

    @property
    def n_params(self) -> int:
        n_in, n_hid, n_out = self.layer_sizes
        return n_in * n_hid + n_hid + n_hid * n_out + n_out

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        n_in, n_hid, n_out = self.layer_sizes
        w1 = rng.standard_normal(n_in * n_hid) / np.sqrt(n_in)
        w2 = rng.standard_normal(n_hid * n_out) / np.sqrt(n_hid)
        return np.concatenate([w1, np.zeros(n_hid), w2, np.zeros(n_out)])

    def _unpack(self, theta: np.ndarray):
        """Views of the four parameter blocks of the flat vector ``theta``."""
        n_in, n_hid, n_out = self.layer_sizes
        a, b, c = self._splits
        return (
            theta[:a].reshape(n_in, n_hid),
            theta[a:b],
            theta[b:c].reshape(n_hid, n_out),
            theta[c:],
        )

    def evaluate(self, theta: np.ndarray, case: int) -> tuple[float, np.ndarray]:
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
        # the gradient blocks are written straight into their slots of grad
        grad = np.empty(self.n_params)
        dw1, db1, dw2, db2 = self._unpack(grad)
        np.multiply.outer(hidden, dlogits, out=dw2)
        db2[:] = dlogits
        dhidden = w2 @ dlogits
        dpre = (1.0 - hidden**2) * dhidden
        np.multiply.outer(x, dpre, out=dw1)
        db1[:] = dpre

        n = self.dataset.n_cases
        loss += 0.5 * self.h_prior / n * float(theta @ theta)
        grad += (self.h_prior / n) * theta
        return float(loss), grad

    def pair_sums(self, case, mu, sigma, k_start, n_pairs, index=None):
        """``pair_sums`` of the module's contract for this case, or None
        unless the hidden size is a power of two.

        With ``n_hid = 2**bits`` the index ``i*n_hid + j`` of W1 entry
        ``(i, j)`` is the bitwise OR of ``i*n_hid`` and ``j``, so every sign
        vector's W1 block is rank one: ``S[i, j] = -S[i, 0] * S[0, j]``.
        With ``C`` and ``R`` the pairs' first columns and first rows, the
        first layer's step ``x @ (sigma_W1 * S)`` is
        ``((x * C) @ sigma_W1) * -R``, one product for all pairs, and the
        W1 curvature sum ``sum_k outer(x, dpre+ - dpre-) * S_k`` is
        ``(x * C).T @ ((dpre+ - dpre-) * -R)``: W1's d-length signs are
        never built.  Every parameter after W1 is evaluated as a small
        block of nodes.  With ``index`` the W1 gradient sum is formed only
        at those entries; the curvature product stays whole, since its
        summation order depends on its shape.
        """
        n_in, n_hid, n_out = self.layer_sizes
        if n_hid & (n_hid - 1):
            return None
        a = self._splits[0]
        x = self.dataset.features[case]
        y = int(self.dataset.labels[case])
        signs = sign_sequence(self.n_params, k_start, n_pairs, self._sign_index)
        xc = signs[:, :n_in] * x
        neg_row = -signs[:, n_in : n_in + n_hid]
        rest_signs = signs[:, n_in + n_hid :]

        # the nodes of b1, W2 and b2: (2, n_pairs, d - a), plus nodes first
        rest = _reflect(mu[a:], sigma[a:], rest_signs)
        b1 = rest[..., :n_hid]
        w2 = rest[..., n_hid : n_hid * (1 + n_out)].reshape(2, n_pairs, n_hid, n_out)
        b2 = rest[..., n_hid * (1 + n_out) :]

        w1_step = xc @ sigma[:a].reshape(n_in, n_hid)
        w1_step *= neg_row
        mean_pre = x @ mu[:a].reshape(n_in, n_hid)
        pre = np.empty((2, n_pairs, n_hid))
        np.add(mean_pre, w1_step, out=pre[0])
        np.subtract(mean_pre, w1_step, out=pre[1])
        pre += b1
        hidden = np.tanh(pre, out=pre)
        logits = (hidden[..., None, :] @ w2)[..., 0, :]
        logits += b2
        shifted = logits - logits.max(axis=2, keepdims=True)
        log_norm = np.log(np.exp(shifted).sum(axis=2, keepdims=True))
        loss_sum = float((log_norm[..., 0] - shifted[..., y]).sum())

        dlogits = np.exp(shifted - log_norm)
        dlogits[..., y] -= 1.0
        dhidden = (w2 @ dlogits[..., None])[..., 0]
        dpre = 1.0 - hidden**2
        dpre *= dhidden
        # each node's gradient of b1, W2 and b2, laid out like rest
        dw2 = hidden[..., None] * dlogits[..., None, :]
        grads = np.concatenate((dpre, dw2.reshape(2, n_pairs, -1), dlogits), axis=2)
        rest_sum = grads.sum(axis=(0, 1))
        diff = grads[0] - grads[1]

        prior_loss, grad_sum, curv_sum = _prior_sums(self, mu, sigma, n_pairs, index)
        loss_sum += prior_loss
        w1_curv = (xc.T @ (diff[:, :n_hid] * neg_row)).ravel()
        diff *= rest_signs
        rest_curv = diff.sum(axis=0)
        if index is None:
            # the outer product outer(x, sum of dpre) as a matrix product,
            # which takes half the time of np.multiply.outer's n_hid-long rows
            grad_sum[:a] += np.dot(x.reshape(n_in, 1), rest_sum[:n_hid].reshape(1, n_hid)).ravel()
            grad_sum[a:] += rest_sum
            curv_sum[:a] += w1_curv
            curv_sum[a:] += rest_curv
        else:  # each outer-product entry is one rounded product, as above
            in_w1 = index < a
            w1, rest = index[in_w1], index[~in_w1] - a
            grad_sum[in_w1] += x[w1 // n_hid] * rest_sum[w1 % n_hid]
            grad_sum[~in_w1] += rest_sum[rest]
            curv_sum[in_w1] += w1_curv[w1]
            curv_sum[~in_w1] += rest_curv[rest]
        return loss_sum, grad_sum, curv_sum

    def predict(self, theta: np.ndarray, features: np.ndarray) -> np.ndarray:
        w1, b1, w2, b2 = self._unpack(theta)
        hidden = np.tanh(features @ w1 + b1)
        return np.argmax(hidden @ w2 + b2, axis=1).astype(np.int64)


def synth_sparse_logistic(
    d: int, k_true: int, n_cases: int, noise: float, seed: int
) -> tuple[Dataset, np.ndarray]:
    """Sparse-signal binary classification task.

    Draws a weight vector with ``k_true`` unit-magnitude nonzeros on a random
    support, standard normal features, and Bernoulli labels through the
    logistic link on ``features @ w / noise``; ``noise = 0`` yields exactly
    separable sign labels.  ``noise`` must be finite: an infinite one would
    give labels that carry no signal.  Returns the dataset and the true
    weights.
    """
    if n_cases < 1:
        raise ValueError(f"invalid dataset: need n_cases >= 1, got {n_cases}")
    if not 0 <= k_true <= d:
        raise ValueError(f"k_true must lie in 0..{d}, got {k_true}")
    if not (math.isfinite(noise) and noise >= 0):
        raise ValueError(f"noise must be finite and nonnegative, got {noise}")
    rng = np.random.Generator(np.random.Philox(seed))
    w = np.zeros(d)
    support = rng.choice(d, size=k_true, replace=False)
    w[support] = rng.choice([-1.0, 1.0], size=k_true)
    features = rng.standard_normal((n_cases, d))
    signal = features @ w
    if noise == 0.0:
        labels = (signal > 0).astype(np.int64)
    else:
        with np.errstate(over="ignore"):  # a tiny noise gives +-inf: _sigmoid's exact limits
            z = signal / noise
        labels = (rng.random(n_cases) < _sigmoid(z)).astype(np.int64)
    return Dataset(features, labels), w


# ------------------------------------------------------------------ IDX i/o


class IdxFormatError(ValueError):
    """Malformed IDX byte stream."""


_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801


def idx_shape(path) -> tuple[int, ...]:
    """Shape of what ``read_idx(path)`` returns, from the file's header:
    ``(n, rows, cols)`` for images, ``(n,)`` for labels.  Checks the magic,
    the header and the exact file length, and decodes nothing."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        header = fh.read(16)

    def need(count: int) -> None:
        if count > size:
            raise IdxFormatError(f"{path}: truncated at byte {size}, needed {count} bytes")

    need(4)
    (magic,) = struct.unpack(">I", header[:4])
    ndim = {_IDX_IMAGES_MAGIC: 3, _IDX_LABELS_MAGIC: 1}.get(magic)
    if ndim is None:
        raise IdxFormatError(
            f"{path}: bad magic 0x{magic:08x} at byte 0; expected "
            f"0x{_IDX_IMAGES_MAGIC:08x} (images) or 0x{_IDX_LABELS_MAGIC:08x} (labels)"
        )
    need(4 + 4 * ndim)
    shape = struct.unpack(f">{ndim}I", header[4 : 4 + 4 * ndim])
    expected = 4 + 4 * ndim + math.prod(shape)
    need(expected)
    if size != expected:
        raise IdxFormatError(f"{path}: {size} bytes, expected {expected}")
    return shape


def read_idx(path, limit=None) -> np.ndarray:
    """Parse one IDX file of unsigned bytes.

    Image files (magic 0x00000803) return ``(n, rows, cols)`` float64 arrays
    scaled to [0, 1]; label files (magic 0x00000801) return ``(n,)`` int64.
    All header integers are big-endian.  Truncated or mislabeled input
    raises ``IdxFormatError`` naming the byte offset.  With ``limit`` only
    the first ``limit`` items are read and decoded; the header and the
    length of the whole file are checked all the same.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be nonnegative, got {limit}")
    n, *item = idx_shape(path)
    n = n if limit is None else min(limit, n)
    count = n * math.prod(item)
    data = np.fromfile(path, dtype=np.uint8, count=count, offset=4 + 4 * (1 + len(item)))
    if data.size != count:  # the file shrank after the check
        raise IdxFormatError(f"{path}: truncated while reading")
    if not item:
        return data.astype(np.int64)
    images = data.reshape(n, *item).astype(np.float64)
    images /= 255.0
    return images


def write_idx(path, array: np.ndarray) -> None:
    """Write images (3-d, values in [0, 1]) or labels (1-d ints) as IDX bytes."""
    array = np.asarray(array)
    with open(path, "wb") as fh:
        if array.ndim == 3:
            data = np.clip(np.rint(array * 255.0), 0, 255).astype(np.uint8)
            fh.write(struct.pack(">IIII", _IDX_IMAGES_MAGIC, *data.shape))
            fh.write(data.tobytes())
        elif array.ndim == 1:
            data = array.astype(np.uint8)
            if np.any(array < 0) or np.any(array > 255):
                raise ValueError("labels must fit in a byte")
            fh.write(struct.pack(">II", _IDX_LABELS_MAGIC, data.shape[0]))
            fh.write(data.tobytes())
        else:
            raise ValueError(f"expected 3-d images or 1-d labels, got shape {array.shape}")
