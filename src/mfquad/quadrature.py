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
period ``2**nbit``.  Parities are the low bits of ``np.bitwise_count``.
For ``d <= 1024`` one period is cached as a small int8 table, and windows
of every coordinate that do not wrap are read from it.
"""

from __future__ import annotations

import functools
import math
import operator
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
    "mean_matched_nodes",
    "moment_matched_nodes",
    "count_exact_pairs",
    "trial_rng",
]

_WEIGHT_TOL = 1e-12
_EXACT_TOL = 1e-10  # count_exact_pairs: a |mixed second moment| below this is exact
_TILE = 128  # count_exact_pairs: coordinates per column tile of its Gram sums
# sign_sequence caches one period of signs where it holds at most this many
# int8 entries (1 MiB): every d up to 1024
_TABLE_MAX_SIGNS = 1 << 20


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

    def __post_init__(self):
        object.__setattr__(self, "plus", _freeze(np.asarray(self.plus).ravel()))
        object.__setattr__(self, "minus", _freeze(np.asarray(self.minus).ravel()))
        if self.plus.shape != self.minus.shape:
            raise ValueError("pair nodes must have equal length")

    def as_node_set(self) -> NodeSet:
        return NodeSet(np.stack([self.plus, self.minus]), [0.5, 0.5])


def _coordinates(index, d: int) -> np.ndarray:
    """``index`` as an integer array of coordinates in ``0 .. d - 1``."""
    index = np.asarray(index)
    if index.ndim != 1 or (
        index.size and (index.dtype.kind not in "iu" or index.min() < 0 or index.max() >= d)
    ):
        raise ValueError(f"index must be a list of coordinates in 0..{d - 1}")
    return index.astype(np.intp, copy=False)


def _parity_signs(i: np.ndarray, k: np.ndarray) -> np.ndarray:
    """``(len(k), len(i))`` int8 signs: -1 where ``popcount(i & k)`` is even."""
    signs = np.bitwise_count(i & k[:, None]).view(np.int8)
    signs &= 1
    signs += signs
    signs -= 1
    return signs


@functools.lru_cache(maxsize=4)
def _sign_table(d: int) -> np.ndarray:
    """One period of the sign sequence of dimension ``d``, read-only int8."""
    # int16 holds every i and k of a table within _TABLE_MAX_SIGNS
    period = 1 << (d - 1).bit_length()
    table = _parity_signs(np.arange(d, dtype=np.int16), np.arange(period, dtype=np.int16))
    table.flags.writeable = False
    return table


def sign_sequence(d: int, k_start: int, n_vectors: int, index=None) -> np.ndarray:
    """Consecutive sign vectors ``k_start .. k_start + n_vectors - 1``.

    Returns a fresh ``(n_vectors, d)`` array with entries in {-1.0, +1.0}.
    Row ``r`` is ``cross_polytope_signs(d, k_start + r)``.  With ``index``,
    a list of coordinates below ``d``, only those columns are built, in that
    order: the result is the full one's ``[:, index]``.
    """
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    if k_start < 0 or n_vectors < 0:
        raise ValueError("sequence indices must be nonnegative")
    # Index bits above those of d - 1 never meet a set bit of i, so k is
    # reduced to them.
    period = 1 << int(d - 1).bit_length()
    k_start &= period - 1
    if index is None and k_start + n_vectors <= period and period * d <= _TABLE_MAX_SIGNS:
        return _sign_table(int(d))[k_start:k_start + n_vectors].astype(np.float64)
    # int32 (where period - 1 fits) halves i & k; both die before the float64 cast
    dtype = np.int32 if period <= 1 << 31 else np.int64
    i = np.arange(d, dtype=dtype) if index is None else _coordinates(index, d).astype(dtype)
    k = (np.arange(k_start, k_start + n_vectors) & (period - 1)).astype(dtype)
    return _parity_signs(i, k).astype(np.float64)


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
    if (sigma < 0).any():
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
    replicates are pooled with equal weights.  The groups are shuffled one
    after another from ``rng``, so one call for ``g1 + g2`` groups gives the
    nodes of a call for ``g1`` followed by one for ``g2``.
    """
    if n_groups < 1:
        raise ValueError(f"n_groups must be positive, got {n_groups}")
    if d < 1 or block_size < 1:
        raise ValueError(f"need d >= 1 and block_size >= 1, got {d}, {block_size}")
    nodes = _blocked_nodes(simplex_sigma_points(block_size).nodes, d, rng, n_groups)
    return NodeSet(nodes, np.full(nodes.shape[0], 1.0 / nodes.shape[0]))


def _simplex_codes(block_size: int, dtype) -> np.ndarray:
    """The integer codes of ``simplex_sigma_points(block_size)``: column ``c``
    holds ``block_size - c`` in row ``c``, -1 below it and 0 above."""
    codes = -np.tri(block_size + 1, block_size, -1, dtype=dtype)
    np.fill_diagonal(codes, np.arange(block_size, 0, -1))
    return codes


def _blocked_nodes(points, d, rng, n_groups, index=None) -> np.ndarray:
    """``blocked_simplex_standard``'s nodes for checked arguments, unfrozen (a
    column view of a fresh array), gathered from ``points``: the point set, or
    its codes (the draws are the same).  With ``index``, integer coordinates
    below ``d``, only those columns are built, in that order, with the full
    build's values and generator draws."""
    m, block_size = points.shape
    if index is None:
        blocks, columns = slice(None), slice(0, d)
    else:
        # the gathered blocks are index // block_size, each block_size wide
        blocks = index // block_size
        columns = np.arange(index.size) * block_size + index % block_size
    total, n_blocks = n_groups * m, -(-d // block_size)
    # Row g * n_blocks + b shuffles block b of group g, as rng.permutation(m) would.
    order = rng.permuted(np.broadcast_to(np.arange(m), (n_groups * n_blocks, m)), axis=1)
    rows = order.reshape(n_groups, n_blocks, m).swapaxes(1, 2)[:, :, blocks]
    # np.take copies each row of block_size values far faster than fancy indexing
    return np.take(points, rows, axis=0).reshape(total, -1)[:, columns]


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


def _exact_bound(n: int) -> float:
    """The least double ``t`` with ``t / n >= _EXACT_TOL``, for ``n >= 1``.

    Correctly rounded division is monotone in its numerator, so for every
    double ``x``, ``abs(x) / n < _EXACT_TOL`` exactly when ``abs(x) < t``;
    NaN fails both.  ``t`` is a few ulps from ``_EXACT_TOL * n``.
    """
    t = _EXACT_TOL * n
    while t / n >= _EXACT_TOL:
        t = math.nextafter(t, 0.0)
    while t / n < _EXACT_TOL:
        t = math.nextafter(t, math.inf)
    return t


def _budget(n) -> int:
    """``n`` as an int; ValueError unless it is an integer (bools are not)."""
    if not isinstance(n, bool):
        try:
            return operator.index(n)
        except TypeError:
            pass
    raise ValueError(f"n_evals must hold integers, got {n!r}")


def _alike_pairs(d: int, r: int) -> int:
    """The pairs ``i < j < d`` with ``i % r == j % r``."""
    q, rem = divmod(d, r)  # rem residues hold q + 1 coordinates, the rest q
    return (rem * (q + 1) * q + (r - rem) * q * (q - 1)) // 2


def count_exact_pairs(
    d: int,
    method: str,
    n_evals: int | list[int],
    *,
    block_size: int = 2,
    n_trials: int = 1,
    seed: int = 0,
) -> float | list[float]:
    """Mean number of coordinate pairs whose mixed second moment is exact.

    Counts the pairs ``i < j`` whose mixed second moment under the rule, for
    a standardized measure (zero mean, unit variance), has ``|estimate| <
    1e-10`` (the exact value is 0).  The blocked rule's count is averaged
    over ``n_trials`` shuffles with per-trial seed ``seed + trial``; the
    deterministic cross-polytope rule is counted once.

    ``n_evals`` is one budget, which gives one float, or a strictly
    increasing ladder of budgets, which gives one mean per budget.  Every
    budget must be a multiple of the rule's group size: 2 for
    ``'cross-polytope'`` (one pair), ``block_size + 1`` for the blocked
    rule.  Budgets and the ``d (d - 1) / 2`` pairs must be below 2**53, so
    that every count is an exact double, and a blocked ladder's
    ``_exact_bound(n_evals[-1])`` below ``0.5 / block_size`` (about ``5e9 /
    block_size`` evaluations; the CLI's size guards refuse such rungs first).

    The cross-polytope is counted in closed form, building nothing:
    ``s_k[i] s_k[j] = (-1)**popcount((i ^ j) & k)`` runs in alternating
    blocks of ``2**b`` equal signs, ``2**b`` the lowest set bit of ``i ^ j``,
    so over the first ``m`` pairs it sums to ``S`` with ``|S| = min(r, w -
    r)``, ``w = 2**(b + 1)``, ``r = m % w``; the rule's unweighted mixed
    second moment is ``2 S``, and ``|2 S / n| < 1e-10`` is tested as ``2 |S|
    < _exact_bound(n)``, the same answer for every double, with no division.
    The blocked rule's column ``c`` is ``s_c = F[c, c] / (block_size - c)``,
    with ``s_c**2 >= 1 / block_size``, times the integer code ``(0, ..., 0,
    block_size - c, -1, ..., -1)``, so below the cap a pair passes the 1e-10
    test exactly when the integer Gram ``K`` of the codes has ``K_ij == 0``.
    A blocked ladder is counted in one pass: each rung draws only its further
    groups from the trial's one generator, so its codes are those of a call
    at its budget alone, and adds their Gram to running sums on the upper
    block triangle of ``_TILE``-wide column tiles, in float32 while
    ``n_evals[-1] * block_size**2 < 2**24``, else float64: exact in any order.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be positive, got {n_trials}")
    d = operator.index(d)
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    blocked = method == "blocked-simplex"
    if blocked and block_size < 1:
        raise ValueError(f"block_size must be positive, got {block_size}")
    group = {"cross-polytope": 2, "blocked-simplex": block_size + 1}.get(method)
    if group is None:
        raise ValueError(f"unknown method {method!r}")
    scalar = np.ndim(n_evals) == 0
    budgets = [_budget(n) for n in ([n_evals] if scalar else n_evals)]
    if not budgets:
        raise ValueError("need at least one budget")
    for prev, n in zip([0] + budgets, budgets):
        if n <= prev or n % group:
            raise ValueError(
                f"n_evals must be positive multiples of {group}, each above the last, "
                f"got {n_evals}"
            )
    if max(budgets[-1], d * (d - 1) // 2) >= 1 << 53:
        raise ValueError("n_evals and the d (d - 1) / 2 pairs must be below 2**53")

    if blocked and _exact_bound(budgets[-1]) >= 0.5 / block_size:
        raise ValueError(f"blocked n_evals must be below about {5e9 / block_size:.3g}, "
                         "where the 1e-10 test still tells a nonzero moment from 0")
    if not blocked:
        # the pairs whose lowest differing bit is b: alike mod 2**b, not mod 2**(b + 1)
        classes = [(2 << b, _alike_pairs(d, 1 << b) - _alike_pairs(d, 2 << b))
                   for b in range((d - 1).bit_length())]
        means = [float(sum(size for w, size in classes
                           if 2 * min(n // 2 % w, w - n // 2 % w) < t))
                 for n, t in zip(budgets, map(_exact_bound, budgets))]
        return means[0] if scalar else means
    # partial sums are integers of at most n * b**2 (under the cap, below 2**53)
    dtype = np.float32 if budgets[-1] * block_size**2 < 1 << 24 else np.float64
    codes = _simplex_codes(block_size, dtype)
    counts = np.zeros(len(budgets))
    tiles = [slice(a, min(a + _TILE, d)) for a in range(0, d, _TILE)]
    cells = [(p, q, np.empty((p.stop - p.start, q.stop - q.start), dtype))
             for i, p in enumerate(tiles) for q in tiles[i:]]
    # the first (widest) tile's product and mask, reused while in cache
    work = np.empty_like(cells[0][2])
    exact = np.empty(work.shape, dtype=bool)
    for trial in range(n_trials):
        rng = trial_rng(seed, trial)
        for _, _, second in cells:
            second.fill(0)  # the code Gram of the rule's nodes so far
        prev = 0
        for j, n in enumerate(budgets):
            block = _blocked_nodes(codes, d, rng, (n - prev) // group)
            for p, q, second in cells:
                rows, cols = second.shape
                product, hit = work[:rows, :cols], exact[:rows, :cols]
                # numpy hands a.T @ a on one buffer to syrk and a scalar mirror
                # loop; on a copy, a gemm timed alike on large rungs, faster on small
                right = block[:, q] if p != q else np.ascontiguousarray(block[:, q])
                np.matmul(block[:, p].T, right, out=product)
                second += product
                zeros = np.count_nonzero(np.equal(second, 0, out=hit))
                # a diagonal tile is symmetric, and K_ii > 0: half its zeros are i < j
                counts[j] += zeros // 2 if p == q else zeros
            prev = n
    means = (counts / n_trials).tolist()
    return means[0] if scalar else means
