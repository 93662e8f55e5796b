"""Quadrature node constructions for mean-field expectations.

Everything here produces small sets of evaluation points (nodes) with weights
that integrate low-degree polynomials exactly against a product measure with
known per-coordinate mean and standard deviation.  The workhorse is a
deterministic sequence of antithetic sign vectors: consecutive sign vectors
are columns of a Walsh pattern, so averages over aligned windows of the
sequence recover tensor-product cubatures in every pair of coordinates.

Sign-vector construction for sequence index ``k``: with ``nbit`` the number
of bits needed to index ``d`` coordinates, coordinate ``i`` gets the parity
of ``popcount(i AND k)``, mapped to {-1, +1}.  Bits of ``k`` above ``nbit``
never meet a set bit of ``i``, so the sequence is periodic in ``k`` with
period ``2**nbit``.  Parities are read from a 16-bit lookup table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NodeSet",
    "AntitheticPair",
    "cross_polytope_signs",
    "sign_sequence",
    "exactness_period",
    "reflected_nodes",
    "antithetic_pair",
    "simplex_sigma_points",
    "blocked_simplex_standard",
    "mc_nodes",
    "mean_matched_nodes",
    "moment_matched_nodes",
    "count_exact_pairs",
    "trial_rng",
]

_WEIGHT_TOL = 1e-12
_EXACT_TOL = 1e-10  # count_exact_pairs: a |mixed second moment| below this is exact


def trial_rng(seed: int, trial: int = 0) -> np.random.Generator:
    """Counter-based generator for one trial: seed ``seed + trial``."""
    return np.random.Generator(np.random.Philox(seed + trial))


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.float64, copy=True)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class NodeSet:
    """Weighted evaluation points: ``nodes[m, d]`` with ``weights[m]``.

    Weights must sum to 1; arrays are copied and frozen on construction.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.atleast_2d(np.asarray(self.nodes, dtype=np.float64))
        weights = np.asarray(self.weights, dtype=np.float64).ravel()
        if nodes.shape[0] != weights.shape[0]:
            raise ValueError(
                f"{nodes.shape[0]} nodes but {weights.shape[0]} weights"
            )
        if abs(weights.sum() - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"weights sum to {weights.sum()!r}, expected 1")
        object.__setattr__(self, "nodes", _freeze(nodes))
        object.__setattr__(self, "weights", _freeze(weights))

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def dim(self) -> int:
        return self.nodes.shape[1]


@dataclass(frozen=True)
class AntitheticPair:
    """A reflected pair of nodes, each carrying weight 1/2."""

    plus: np.ndarray
    minus: np.ndarray
    weight: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "plus", _freeze(np.asarray(self.plus).ravel()))
        object.__setattr__(self, "minus", _freeze(np.asarray(self.minus).ravel()))
        if self.plus.shape != self.minus.shape:
            raise ValueError("pair nodes must have equal length")

    def as_node_set(self) -> NodeSet:
        return NodeSet(np.stack([self.plus, self.minus]), [self.weight, self.weight])


def _parity_table(bits: int) -> np.ndarray:
    """Parity (0 or 1) of the set bits of every integer below ``2**bits``."""
    table = np.zeros(1, dtype=np.uint8)
    for _ in range(bits):
        table = np.concatenate([table, table ^ 1])  # a new top bit flips the parity
    return table


_PARITY16 = _parity_table(16)


def sign_sequence(d: int, k_start: int, n_vectors: int) -> np.ndarray:
    """Consecutive sign vectors ``k_start .. k_start + n_vectors - 1``.

    Returns an ``(n_vectors, d)`` array with entries in {-1.0, +1.0}.
    Row ``r`` is ``cross_polytope_signs(d, k_start + r)``.
    """
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    if k_start < 0 or n_vectors < 0:
        raise ValueError("sequence indices must be nonnegative")
    # Index bits above those of d - 1 never meet a set bit of i, so k is
    # reduced to them and every i & k fits in ceil(nbit / 16) 16-bit chunks,
    # whose table parities XOR together.
    nbit = int(d - 1).bit_length()
    mask = (1 << nbit) - 1
    k = ((k_start & mask) + np.arange(n_vectors)) & mask
    x = np.arange(d) & k[:, None]
    parity = _PARITY16[x & 0xFFFF]
    for _ in range(16, nbit, 16):
        x >>= 16
        parity ^= _PARITY16[x & 0xFFFF]
    signs = parity.astype(np.float64)
    signs *= 2.0
    signs -= 1.0
    return signs


def cross_polytope_signs(d: int, k: int) -> np.ndarray:
    """Sign vector number ``k`` of the antithetic cross-polytope sequence.

    Coordinate ``i`` carries ``2*parity(popcount(i & k)) - 1``.  The
    sequence has period ``2**ceil(log2 d)`` in ``k``; larger indices wrap
    implicitly because index bits above that width never overlap ``i``.
    """
    return sign_sequence(d, k, 1)[0]


def exactness_period(i1: int, i2: int) -> int:
    """Window length (in pairs) over which coordinates ``i1``, ``i2`` average
    to the four-node tensor-product cubature.

    Equals ``2**b`` where ``b`` is the 1-based position of the lowest bit on
    which the two coordinate indices differ.  Every aligned window of this
    many consecutive pairs integrates all polynomials of per-coordinate
    degree <= 2 in the two coordinates exactly.
    """
    if i1 == i2:
        raise ValueError(f"need two distinct coordinates, got {i1} == {i2}")
    if min(i1, i2) < 0:
        raise ValueError("coordinate indices must be nonnegative")
    x = i1 ^ i2
    return 2 * (x & -x)


def _reflect(mu: np.ndarray, sigma: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """``mu + sigma * signs`` stacked over ``mu - sigma * signs`` along axis 0.

    ``signs`` is one sign vector or a block of them, one per row.  Raises
    ValueError unless the lengths agree and ``sigma`` is nonnegative.
    """
    if not (mu.ndim == 1 and mu.shape == sigma.shape == signs.shape[-1:]):
        raise ValueError(
            f"shape mismatch: mu {mu.shape}, sigma {sigma.shape}, signs {signs.shape}"
        )
    if np.any(sigma < 0):
        raise ValueError("sigma must be nonnegative")
    nodes = np.empty((2,) + signs.shape)
    step = np.multiply(sigma, signs, out=nodes[1])
    np.add(mu, step, out=nodes[0])
    np.subtract(mu, step, out=nodes[1])
    return nodes


def reflected_nodes(
    mu: np.ndarray, sigma: np.ndarray, k_start: int, n_pairs: int
) -> tuple[np.ndarray, np.ndarray]:
    """Reflected pairs ``mu +- sigma * s_k`` for ``k = k_start .. k_start + n_pairs - 1``.

    Returns ``(signs, nodes)``: ``signs`` is ``sign_sequence(d, k_start,
    n_pairs)`` and ``nodes`` has shape ``(2, n_pairs, d)``, the plus nodes
    ``mu + sigma * signs`` first and the minus nodes second.  ``mu`` and
    ``sigma`` are float arrays of length ``d``; ``sigma`` must be
    nonnegative.
    """
    signs = sign_sequence(mu.shape[0], k_start, n_pairs)
    return signs, _reflect(mu, sigma, signs)


def antithetic_pair(mu: np.ndarray, sigma: np.ndarray, signs: np.ndarray) -> AntitheticPair:
    """Reflected node pair ``mu +- sigma * signs``, each with weight 1/2.

    Integrates 1, every ``theta_i``, and every ``theta_i**2`` exactly for
    any product measure with mean ``mu`` and standard deviation ``sigma``;
    centered odd powers are exact as well when the marginals are symmetric.
    """
    arrays = (np.asarray(a, dtype=np.float64).ravel() for a in (mu, sigma, signs))
    return AntitheticPair(*_reflect(*arrays))


def simplex_sigma_points(n: int) -> NodeSet:
    """The ``n+1`` equal-weight simplex sigma points in ``n`` dimensions.

    Vertices of a regular simplex scaled so the node set has zero mean and
    identity second moment; the unique minimal equal-weight construction
    exact for all polynomials of total degree <= 2 against a standardized
    product measure.
    """
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    x = np.zeros((n, n + 1))
    r = np.sqrt(float(n))
    for i in range(n):
        m = n - i  # coordinates remaining after this row
        x[i, i] = r
        x[i, i + 1:] = -r / m
        r = r * np.sqrt(m * m - 1.0) / m
    return NodeSet(x.T, np.full(n + 1, 1.0 / (n + 1)))


def blocked_simplex_standard(
    d: int,
    block_size: int,
    rng: np.random.Generator,
    n_groups: int = 1,
) -> NodeSet:
    """Blocked simplex rule for a standardized ``d``-dimensional measure.

    Partitions the coordinates into contiguous blocks of ``block_size`` and
    gives each block the ``block_size + 1`` simplex sigma points, in an
    independently shuffled order.  Each block's within-block moments
    survive any shuffle, and the expectation over independent uniform
    shuffles equals the full tensor-product cubature across blocks.  A tail
    block of size ``r < block_size`` takes the first ``r`` columns of the
    full-size point set, which keeps zero mean and identity second moment
    while matching the shared node count.  ``n_groups`` independent
    replicates are pooled with equal weights.
    """
    if n_groups < 1:
        raise ValueError(f"n_groups must be positive, got {n_groups}")
    if d < 1 or block_size < 1:
        raise ValueError(f"need d >= 1 and block_size >= 1, got {d}, {block_size}")
    full = simplex_sigma_points(block_size).nodes
    m = full.shape[0]
    total, n_blocks = n_groups * m, -(-d // block_size)
    # Row g * n_blocks + b shuffles block b of group g, as rng.permutation(m) would.
    order = rng.permuted(np.broadcast_to(np.arange(m), (n_groups * n_blocks, m)), axis=1)
    nodes = full[order.reshape(n_groups, n_blocks, m).swapaxes(1, 2)].reshape(total, -1)
    return NodeSet(nodes[:, :d], np.full(total, 1.0 / total))


def mc_nodes(dist, n: int, rng: np.random.Generator) -> NodeSet:
    """``n`` independent samples of ``dist``, equal weights."""
    if n < 1:
        raise ValueError(f"need n >= 1 samples, got {n}")
    return NodeSet(dist.sample(n, rng), np.full(n, 1.0 / n))


def mean_matched_nodes(dist, n: int, rng: np.random.Generator) -> NodeSet:
    """Samples translated per coordinate so the sample mean equals the exact mean."""
    if n < 1:
        raise ValueError(f"need n >= 1 samples, got {n}")
    x = dist.sample(n, rng)
    return NodeSet(x - x.mean(axis=0) + dist.mean, np.full(n, 1.0 / n))


def moment_matched_nodes(
    dist, n: int, rng: np.random.Generator
) -> tuple[NodeSet, np.ndarray]:
    """Samples affinely corrected to the exact mean and standard deviation.

    Centered samples are rescaled per coordinate by ``sigma / sigma_hat``
    (population convention for ``sigma_hat``) and recentered on the exact
    mean.  A coordinate whose sample standard deviation is exactly zero
    cannot be rescaled; it is left mean-matched and flagged in the returned
    boolean mask.  Requires ``n >= 2``.
    """
    if n < 2:
        raise ValueError(f"variance matching needs n >= 2 samples, got {n}")
    x = dist.sample(n, rng)
    centered = x - x.mean(axis=0)
    s_hat = np.sqrt(np.mean(centered**2, axis=0))
    skipped = s_hat == 0.0
    scale = np.where(skipped, 1.0, dist.std / np.where(skipped, 1.0, s_hat))
    return NodeSet(centered * scale + dist.mean, np.full(n, 1.0 / n)), skipped


def count_exact_pairs(
    d: int,
    method: str,
    n_evals: int,
    *,
    block_size: int = 2,
    n_trials: int = 1,
    seed: int = 0,
) -> float:
    """Mean number of coordinate pairs whose mixed second moment is exact.

    Builds the requested rule for a standardized measure (zero mean, unit
    variance) as a NodeSet, forms its weighted second-moment matrix, and
    counts unordered pairs ``i < j`` with ``|estimate| < 1e-10`` (the exact
    value is 0).  For ``method='blocked-simplex'`` the count is averaged
    over ``n_trials`` independent shuffles with per-trial seed ``seed +
    trial``; the deterministic cross-polytope rule is counted once.

    ``n_evals`` must be a multiple of the rule's natural group size: 2 for
    ``'cross-polytope'`` (one pair), ``block_size + 1`` per blocked group.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be positive, got {n_trials}")
    group = {"cross-polytope": 2, "blocked-simplex": block_size + 1}.get(method)
    if group is None:
        raise ValueError(f"unknown method {method!r}")
    if n_evals < group or n_evals % group:
        raise ValueError(f"n_evals must be a positive multiple of {group}, got {n_evals}")

    counts = []
    for trial in range(n_trials if method == "blocked-simplex" else 1):
        if method == "blocked-simplex":
            ns = blocked_simplex_standard(
                d, block_size, trial_rng(seed, trial), n_evals // group
            )
        else:
            _, nodes = reflected_nodes(np.zeros(d), np.ones(d), 0, n_evals // 2)
            ns = NodeSet(nodes.reshape(n_evals, d), np.full(n_evals, 1.0 / n_evals))
        second = ns.nodes.T @ (ns.weights[:, None] * ns.nodes)
        off = np.abs(second[np.triu_indices(d, k=1)])
        counts.append(int(np.count_nonzero(off < _EXACT_TOL)))
    return float(np.mean(counts))
