"""Loss models and datasets for the trainer and its experiments.

Every model satisfies one contract: ``evaluate(theta, case) -> (loss, grad)``
where ``case`` indexes a training example (models that hold no data ignore
it).  Per-case losses include the continuous prior component
``h_prior/(2*N) * |theta|^2`` so that summing over the dataset reproduces
the full regularized objective.  Gradients are hand-derived; a central
finite-difference checker validates them.

A model may also offer the batched form
``evaluate_nodes(nodes, case) -> (losses, grads)`` for an ``(m, d)`` block
of nodes, returning ``(m,)`` losses and ``(m, d)`` gradients.  Row ``i``
must be bit-identical to ``evaluate(nodes[i], case)``, so that a caller may
use either form without changing a result.  ``projection.quadratic_approx``
hands a model that has it (``LogisticModel``) each case's whole block of
reflected nodes in one call.  It evaluates a model without it (the
quadratic oracle, the MLP) one node at a time, which keeps at most three
of the MLP's long gradients alive.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dataset",
    "QuadraticOracleModel",
    "LogisticModel",
    "MlpModel",
    "synth_sparse_logistic",
    "gradient_check",
    "read_idx",
    "write_idx",
    "IdxFormatError",
]

DEFAULT_H_PRIOR = 1.0 / 0.09  # precision of a slab with deviation cap 0.3


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


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
        losses, grads = self.evaluate_nodes(theta[None, :], case)
        return float(losses[0]), grads[0]

    def evaluate_nodes(
        self, nodes: np.ndarray, case: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """``evaluate`` at every row of the ``(m, d)`` block ``nodes``."""
        x = self.dataset.features[case]
        y = float(self.dataset.labels[case])
        # One dot per row, as ``x @ t`` takes it (a matrix-vector product
        # rounds differently).
        z = np.vecdot(nodes, x)
        # softplus(z) - y*z, stable on both tails
        losses = np.logaddexp(0.0, -np.abs(z)) + np.maximum(z, 0.0) - y * z
        n = self.dataset.n_cases
        losses += 0.5 * self.h_prior / n * np.vecdot(nodes, nodes)
        grads = np.multiply.outer(_sigmoid(z) - y, x)
        grads += (self.h_prior / n) * nodes
        return losses, grads

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
    separable sign labels.  Returns the dataset and the true weights.
    """
    if n_cases < 1:
        raise ValueError(f"invalid dataset: need n_cases >= 1, got {n_cases}")
    if not 0 <= k_true <= d:
        raise ValueError(f"k_true must lie in 0..{d}, got {k_true}")
    if not noise >= 0:
        raise ValueError(f"noise must be nonnegative, got {noise}")
    rng = np.random.Generator(np.random.Philox(seed))
    w = np.zeros(d)
    support = rng.choice(d, size=k_true, replace=False)
    w[support] = rng.choice([-1.0, 1.0], size=k_true)
    features = rng.standard_normal((n_cases, d))
    signal = features @ w
    if noise == 0.0:
        labels = (signal > 0).astype(np.int64)
    else:
        labels = (rng.random(n_cases) < _sigmoid(signal / noise)).astype(np.int64)
    return Dataset(features, labels), w


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


# ------------------------------------------------------------------ IDX i/o


class IdxFormatError(ValueError):
    """Malformed IDX byte stream."""


_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801


def read_idx(path) -> np.ndarray:
    """Parse one IDX file of unsigned bytes.

    Image files (magic 0x00000803) return ``(n, rows, cols)`` float64 arrays
    scaled to [0, 1]; label files (magic 0x00000801) return ``(n,)`` int64.
    All header integers are big-endian.  Truncated or mislabeled input
    raises ``IdxFormatError`` naming the byte offset.
    """
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
    if magic == _IDX_IMAGES_MAGIC:
        n, rows, cols = struct.unpack(">III", take(4, 12))
        data = np.frombuffer(take(16, n * rows * cols), dtype=np.uint8)
        if len(raw) != 16 + n * rows * cols:
            raise IdxFormatError(
                f"{path}: {len(raw)} bytes, expected {16 + n * rows * cols}"
            )
        return data.reshape(n, rows, cols).astype(np.float64) / 255.0
    if magic == _IDX_LABELS_MAGIC:
        (n,) = struct.unpack(">I", take(4, 4))
        data = np.frombuffer(take(8, n), dtype=np.uint8)
        if len(raw) != 8 + n:
            raise IdxFormatError(f"{path}: {len(raw)} bytes, expected {8 + n}")
        return data.astype(np.int64)
    raise IdxFormatError(
        f"{path}: bad magic 0x{magic:08x} at byte 0; expected "
        f"0x{_IDX_IMAGES_MAGIC:08x} (images) or 0x{_IDX_LABELS_MAGIC:08x} (labels)"
    )


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
