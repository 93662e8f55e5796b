"""Unit and property tests for the quadrature node constructions.

Expected values marked as frozen were derived by hand from the parity
definition (sign vectors), the lowest-differing-bit rule (window lengths),
and direct moment algebra (simplex points, pair exactness) before the
implementation existed; they must not be regenerated from the code under
test.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfquad.quadrature
import oracles
from mfquad.projection import full_period
from mfquad.quadrature import (
    _EXACT_TOL,
    _TILE,
    NodeSet,
    _blocked_nodes,
    _exact_bound,
    _sign_table,
    _simplex_codes,
    antithetic_pair,
    blocked_simplex_standard,
    count_exact_pairs,
    cross_polytope_signs,
    exactness_period,
    mean_matched_nodes,
    moment_matched_nodes,
    reflected_nodes,
    sign_sequence,
    simplex_sigma_points,
    trial_rng,
)


class _StdGauss:
    """Minimal sampling distribution for the node baselines."""

    def __init__(self, d, mu=None, sigma=None):
        self.mean = np.zeros(d) if mu is None else np.asarray(mu, float)
        self.std = np.ones(d) if sigma is None else np.asarray(sigma, float)

    def sample(self, n, rng):
        return self.mean + self.std * rng.standard_normal((n, len(self.mean)))


# ---------------------------------------------------------------- signs


def test_signs_frozen_vectors():
    # frozen: hand evaluation of the parity of popcount(i & k)
    np.testing.assert_array_equal(cross_polytope_signs(4, 3), [-1, 1, 1, -1])
    np.testing.assert_array_equal(
        cross_polytope_signs(8, 1), [-1, 1, -1, 1, -1, 1, -1, 1]
    )
    np.testing.assert_array_equal(cross_polytope_signs(6, 0), [-1] * 6)
    np.testing.assert_array_equal(cross_polytope_signs(1, 7), [-1])


def test_signs_period_wraps_implicitly():
    # the sequence repeats every 2**ceil(log2 d) indices
    for d in (4, 6, 16):
        period = 1 << (d - 1).bit_length()
        for k in (0, 1, 5):
            np.testing.assert_array_equal(
                cross_polytope_signs(d, k), cross_polytope_signs(d, k + 3 * period)
            )


def test_sign_sequence_matches_scalar():
    block = sign_sequence(10, 7, 5)
    for r in range(5):
        np.testing.assert_array_equal(block[r], cross_polytope_signs(10, 7 + r))


@pytest.mark.parametrize("d", [7, 64, 25_450, 70_000, 200_000])
@pytest.mark.parametrize("k_start", [0, 12_345, 2**16 + 3, 2**40 + 3])
def test_sign_sequence_matches_shift_xor_oracle(d, k_start):
    # the 16-bit parity table, folded over every chunk that i & k can reach,
    # reproduces the shift-XOR parity bit for bit
    n = 3
    assert sign_sequence(d, k_start, n).tobytes() == oracles.sign_sequence(d, k_start, n).tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 5, 255, 256, 257, 1024, 1025])
def test_sign_windows_match_the_parity_oracle(d):
    # Windows through the cached table (d <= 1024) and the build past it,
    # wrapping ones included.  Every start over two periods is checked
    # with every window of up to three vectors, against the oracle at that
    # start, and with the two windows that meet the period's end.  For d up
    # to 5 every start goes with every length up to a period plus one; the
    # larger d take every start on a stride coprime to the period, and a few
    # starts with lengths on that stride, since the whole product is about
    # 10**10 entries at d = 1024.
    period = full_period(d)
    one = oracles.sign_sequence(d, 0, period)
    for k in range(2 * period):
        for n in range(4):
            assert sign_sequence(d, k, n).tobytes() == oracles.sign_sequence(d, k, n).tobytes()
    if period <= 8:
        windows = [(k, n) for k in range(2 * period) for n in range(period + 2)]
    else:
        stride = period // 32 + 1
        starts = {*range(0, 2 * period, stride), period - 1, period, 2 * period - 1}
        lengths = {*range(0, period + 2, stride), period - 1, period, period + 1}
        windows = [(k, n) for k in (0, 1, period - 1, period + 1) for n in sorted(lengths)]
        windows += [(k, period - k % period + e) for k in sorted(starts) for e in (0, 1)]
    for k, n in windows:
        want = one[(k + np.arange(n)) % period]
        assert sign_sequence(d, k, n).tobytes() == want.tobytes(), (k, n)


@pytest.mark.parametrize("d", [1025, 25_450])
def test_uncached_sign_windows_match_the_parity_oracle(d, monkeypatch):
    # Past the cached table the parities come from int32 coordinates and
    # sequence indices: windows at the period's start and end, wrapped ones,
    # ones far past the period, and index lists in any order, repeats too.
    period = full_period(d)
    index = [d - 1, 0, 17, d // 2, 17, period // 2 - 1]
    kinds = []
    real = mfquad.quadrature._parity_signs
    monkeypatch.setattr(mfquad.quadrature, "_parity_signs",
                        lambda i, k: kinds.append((i.dtype, k.dtype)) or real(i, k))
    for k, n in [(0, 3), (5, 1), (period - 2, 2), (period - 2, 5), (period - 1, 3),
                 (2 * period - 3, 7), (2**40 + 3, 4)]:
        want = oracles.sign_sequence(d, k, n)
        assert sign_sequence(d, k, n).tobytes() == want.tobytes(), (k, n)
        assert sign_sequence(d, k, n, index=index).tobytes() == (
            np.ascontiguousarray(want[:, index]).tobytes()), (k, n)
    assert set(kinds) == {(np.dtype(np.int32), np.dtype(np.int32))}


@pytest.mark.parametrize("d", [2**31, 2**31 + 5])
def test_sign_index_past_int32_keeps_its_parities(d):
    # At d = 2**31 the period's last index still fits int32; one more
    # coordinate doubles the period and takes int64 coordinates.
    index = [0, 1, 2**31 - 1, d - 1]
    for k_start in (2**31 - 2, 2**32 + 3, 2**40 - 1):
        got = sign_sequence(d, k_start, 3, index=index)
        want = [[1.0 if bin(i & k).count("1") % 2 else -1.0 for i in index]
                for k in range(k_start, k_start + 3)]
        assert got.tolist() == want, k_start


def test_sign_table_is_read_only_and_never_handed_out():
    _sign_table.cache_clear()
    first = sign_sequence(256, 3, 4)
    want = first.copy()
    table = _sign_table(256)
    assert table.dtype == np.int8 and table.shape == (256, 256)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1
    # a caller's writes to a window change no later window
    for signs in (first, cross_polytope_signs(256, 3), reflected_nodes(
            np.zeros(256), np.ones(256), 3, 4)[0]):
        assert not np.shares_memory(signs, table)
        signs *= 3.0
        assert sign_sequence(256, 3, 4).tobytes() == want.tobytes()
    # past the 1 MiB bound, and for a column subset, nothing is cached
    sign_sequence(1025, 0, 2)
    sign_sequence(512, 0, 2, index=[3, 1])
    assert _sign_table.cache_info().currsize == 1


@pytest.mark.parametrize("d", [2, 4, 8, 16, 32, 64])
def test_sign_balance_over_period(d):
    # for power-of-two d, every index except 0 splits the signs evenly,
    # and distinct indices within one period give distinct vectors
    period = 1 << (d - 1).bit_length()
    block = sign_sequence(d, 0, period)
    sums = block.sum(axis=1)
    assert sums[0] == -d
    np.testing.assert_array_equal(sums[1:], np.zeros(period - 1))
    assert len({tuple(row) for row in block}) == period


def test_exactness_period_frozen():
    # frozen: 2**position of lowest differing bit (1-based)
    assert exactness_period(0, 1) == 2
    assert exactness_period(0, 2) == 4
    assert exactness_period(0, 7) == 2
    assert exactness_period(5, 13) == 16
    assert exactness_period(12, 4) == 16
    with pytest.raises(ValueError):
        exactness_period(3, 3)


@given(
    st.integers(min_value=0, max_value=2**20),
    st.integers(min_value=0, max_value=2**20),
)
def test_exactness_period_is_aligned_power_of_two(i1, i2):
    if i1 == i2:
        return
    p = exactness_period(i1, i2)
    assert p & (p - 1) == 0 and p >= 2
    # indices agree on all bits below the window scale
    assert (i1 ^ i2) % p == p // 2


# ---------------------------------------------------------------- pairs


def test_antithetic_pair_frozen_nodes():
    pair = antithetic_pair([0.0, 1.0], [1.0, 2.0], [-1.0, 1.0])
    np.testing.assert_array_equal(pair.plus, [-1.0, 3.0])
    np.testing.assert_array_equal(pair.minus, [1.0, -1.0])
    ns = pair.as_node_set()
    assert ns.n_nodes == 2 and ns.dim == 2
    np.testing.assert_array_equal(ns.weights, [0.5, 0.5])


def test_reflected_nodes_match_antithetic_pairs():
    # row r of each half is the pair built from sign vector k + r; zero
    # deviations leave their coordinates on the mean
    rng = np.random.default_rng(3)
    for d, k, n in ((1, 0, 1), (5, 3, 4), (16, 7, 9), (33, 60, 8)):
        mu = rng.normal(size=d)
        sigma = rng.uniform(0.1, 2.0, size=d)
        sigma[::3] = 0.0
        signs, nodes = reflected_nodes(mu, sigma, k, n)
        assert nodes.shape == (2, n, d)
        np.testing.assert_array_equal(signs, sign_sequence(d, k, n))
        np.testing.assert_array_equal(nodes[0], mu + sigma * signs)
        np.testing.assert_array_equal(nodes[1], mu - sigma * signs)
        for r in range(n):
            pair = antithetic_pair(mu, sigma, cross_polytope_signs(d, k + r))
            np.testing.assert_array_equal(nodes[0, r], pair.plus)
            np.testing.assert_array_equal(nodes[1, r], pair.minus)
        assert np.all(nodes[:, :, ::3] == mu[::3])
    with pytest.raises(ValueError):
        reflected_nodes(np.zeros(3), np.ones(2), 0, 1)
    with pytest.raises(ValueError):
        reflected_nodes(np.zeros(2), -np.ones(2), 0, 1)


def test_pair_moment_exactness_random():
    # one pair integrates 1, theta_i, theta_i^2 exactly for any (mu, sigma)
    rng = np.random.default_rng(7)
    for _ in range(50):
        d = int(rng.integers(1, 20))
        mu = rng.normal(size=d)
        sigma = rng.uniform(0.3, 2.5, size=d)
        signs = cross_polytope_signs(d, int(rng.integers(0, 64)))
        ns = antithetic_pair(mu, sigma, signs).as_node_set()
        est_mean = ns.weights @ ns.nodes
        est_second = ns.weights @ ns.nodes**2
        np.testing.assert_allclose(est_mean, mu, rtol=0, atol=1e-12 * (1 + np.abs(mu)).max())
        np.testing.assert_allclose(
            est_second, mu**2 + sigma**2, rtol=1e-12, atol=1e-12
        )
        # centered cubes vanish, matching any symmetric marginal
        est_cube = ns.weights @ (ns.nodes - mu) ** 3
        np.testing.assert_allclose(est_cube, 0.0, atol=1e-12 * (1 + sigma**3).max())


def test_pair_window_exactness_matches_period():
    # averaging aligned windows of pairs integrates mixed products exactly;
    # the window one pair short of the period does not (generic case)
    d = 16
    i1, i2 = 2, 6  # differ at bit 3 -> period 8
    p = exactness_period(i1, i2)
    assert p == 8
    prods = np.array(
        [
            cross_polytope_signs(d, k)[i1] * cross_polytope_signs(d, k)[i2]
            for k in range(3 * p)
        ]
    )
    for z in range(3):
        assert prods[z * p : (z + 1) * p].sum() == 0.0
    assert prods[:p - 1].sum() != 0.0


def test_sign_vector_validation():
    with pytest.raises(ValueError):
        cross_polytope_signs(0, 1)
    with pytest.raises(ValueError):
        cross_polytope_signs(4, -1)
    with pytest.raises(ValueError):
        antithetic_pair([0.0], [-1.0], [1.0])
    with pytest.raises(ValueError):
        antithetic_pair([0.0, 1.0], [1.0], [1.0])


# ---------------------------------------------------------------- simplex


def test_simplex_frozen_n2():
    # frozen: hand evaluation of the recursion for two dimensions
    ns = simplex_sigma_points(2)
    expected = np.array(
        [
            [np.sqrt(2.0), 0.0],
            [-1.0 / np.sqrt(2.0), np.sqrt(1.5)],
            [-1.0 / np.sqrt(2.0), -np.sqrt(1.5)],
        ]
    )
    np.testing.assert_allclose(ns.nodes, expected, atol=1e-15)
    np.testing.assert_allclose(ns.weights, np.full(3, 1 / 3), atol=1e-16)


def test_simplex_frozen_n1_is_antithetic_pair():
    ns = simplex_sigma_points(1)
    np.testing.assert_allclose(np.sort(ns.nodes.ravel()), [-1.0, 1.0], atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 40])
def test_simplex_standardized_moments(n):
    ns = simplex_sigma_points(n)
    assert ns.nodes.shape == (n + 1, n)
    mean = ns.weights @ ns.nodes
    second = ns.nodes.T @ (ns.weights[:, None] * ns.nodes)
    np.testing.assert_allclose(mean, np.zeros(n), atol=1e-13)
    np.testing.assert_allclose(second, np.eye(n), atol=1e-12)
    # vertices are equidistant from the origin (regular simplex)
    radii = np.linalg.norm(ns.nodes, axis=1)
    np.testing.assert_allclose(radii, np.sqrt(n), rtol=1e-12)


# ---------------------------------------------------------------- blocked


def test_blocked_partition():
    # blocks of 3, 3 and a tail of 1: within each block the node rows are a
    # row permutation of the simplex points' leading columns
    full = simplex_sigma_points(3).nodes
    ns = blocked_simplex_standard(7, 3, trial_rng(4), n_groups=2)
    assert ns.nodes.shape == (8, 7)
    np.testing.assert_array_equal(ns.weights, np.full(8, 1 / 8))
    for g in (0, 4):
        for start, size in ((0, 3), (3, 3), (6, 1)):
            block = ns.nodes[g : g + 4, start : start + size]
            assert sorted(map(tuple, block)) == sorted(map(tuple, full[:, :size]))
    with pytest.raises(ValueError):
        blocked_simplex_standard(0, 2, trial_rng(0))
    with pytest.raises(ValueError):
        blocked_simplex_standard(4, 0, trial_rng(0))
    with pytest.raises(ValueError):
        blocked_simplex_standard(4, 2, trial_rng(0), n_groups=0)


def test_blocked_simplex_preserves_block_moments():
    ns = blocked_simplex_standard(6, 2, trial_rng(11))
    assert ns.nodes.shape == (3, 6)
    second = ns.nodes.T @ (ns.weights[:, None] * ns.nodes)
    # within-block entries stay exact under any shuffle
    for off in (0, 2, 4):
        np.testing.assert_allclose(
            second[off : off + 2, off : off + 2], np.eye(2), atol=1e-12
        )
    np.testing.assert_allclose(ns.weights @ ns.nodes, np.zeros(6), atol=1e-13)


def test_blocked_tail_block_standardized():
    rng = trial_rng(3)
    ns = blocked_simplex_standard(5, 3, rng)  # tail block of size 2
    assert ns.nodes.shape == (4, 5)
    second = ns.nodes.T @ (ns.weights[:, None] * ns.nodes)
    np.testing.assert_allclose(np.diag(second), np.ones(5), atol=1e-12)
    np.testing.assert_allclose(ns.weights @ ns.nodes, np.zeros(5), atol=1e-13)
    # the tail block's own mixed moment is exact too
    np.testing.assert_allclose(second[3:, 3:], np.eye(2), atol=1e-12)


@pytest.mark.parametrize(
    "d,block_size,n_groups",
    [(1, 2, 1), (1, 1, 3), (3, 5, 2), (7, 3, 4), (64, 2, 85), (513, 2, 7), (512, 4, 3),
     (512, 2, 341)],
)
def test_blocked_simplex_matches_per_block_oracle(d, block_size, n_groups):
    # one shuffle call draws what one permutation per group and block drew,
    # tail blocks included, and leaves the generator in the same state
    fast_rng, slow_rng = trial_rng(d + n_groups), trial_rng(d + n_groups)
    fast = blocked_simplex_standard(d, block_size, fast_rng, n_groups=n_groups)
    slow = oracles.blocked_simplex_standard(d, block_size, slow_rng, n_groups=n_groups)
    assert fast.nodes.shape == slow.nodes.shape == (n_groups * (block_size + 1), d)
    assert fast.nodes.tobytes() == slow.nodes.tobytes()
    assert fast.weights.tobytes() == slow.weights.tobytes()
    assert fast_rng.integers(2**62) == slow_rng.integers(2**62)


@pytest.mark.parametrize(
    "d,index",
    [(1, [0]), (1, [0, 0]), (3, [2, 0]), (7, [6, 3, 3, 0]), (64, [9, 59]), (513, [512, 1, 256])],
)
def test_index_builds_the_full_builds_columns(d, index):
    # the sign sequence and the blocked rule build only the listed columns,
    # in that order, with the full build's values, and the blocked rule draws
    # what the full build draws
    for k_start, n_vectors in ((0, 1), (5, 3), (2 * d + 1, 2 * d)):
        full = sign_sequence(d, k_start, n_vectors)
        signs = sign_sequence(d, k_start, n_vectors, index=index)
        assert signs.tobytes() == full[:, index].tobytes()
    for block_size, n_groups in ((1, 2), (2, 5), (3, 3)):
        full_rng, rng = trial_rng(d, block_size), trial_rng(d, block_size)
        full = blocked_simplex_standard(d, block_size, full_rng, n_groups)
        ns = blocked_simplex_standard(d, block_size, rng, n_groups, index=index)
        assert ns.nodes.tobytes() == full.nodes[:, index].tobytes()
        assert ns.weights.tobytes() == full.weights.tobytes()
        assert rng.integers(2**62) == full_rng.integers(2**62)
        # groups come one after another: two calls draw what one call does
        split_rng = trial_rng(d, block_size)
        parts = [blocked_simplex_standard(d, block_size, split_rng, g, index=index).nodes
                 for g in (1, n_groups - 1)]
        assert np.concatenate(parts).tobytes() == ns.nodes.tobytes()


@pytest.mark.parametrize("index", [[4], [-1], [0.0], [[0]]])
def test_index_outside_the_dimension_is_refused(index):
    with pytest.raises(ValueError, match="index"):
        sign_sequence(4, 0, 1, index=index)
    with pytest.raises(ValueError, match="index"):
        blocked_simplex_standard(4, 2, trial_rng(0), index=index)


def test_blocked_expectation_over_shuffles():
    # the shuffle average of a cross-block mixed moment estimate converges
    # to the tensor-product value (zero here); Monte Carlo check at 3 SE
    n_draws = 100_000
    rng = trial_rng(2024)
    tri = simplex_sigma_points(2).nodes  # (3, 2)
    perms = np.array([[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]])
    pa = perms[rng.integers(0, 6, size=n_draws)]
    pb = perms[rng.integers(0, 6, size=n_draws)]
    # estimate of E[theta_0 * theta_2] from each shuffled 4-dim rule
    est = np.mean(tri[pa, 0] * tri[pb, 0], axis=1)
    se = est.std(ddof=1) / np.sqrt(n_draws)
    assert abs(est.mean()) < 3 * se


# ---------------------------------------------------------------- baselines


def test_mean_matched_exact_mean():
    dist = _StdGauss(5, mu=[1.0, -2.0, 0.0, 3.0, 0.5], sigma=[1.0, 2.0, 0.5, 1.5, 3.0])
    ns = mean_matched_nodes(dist, 13, trial_rng(5))
    np.testing.assert_allclose(ns.weights @ ns.nodes, dist.mean, atol=1e-12)


def test_moment_matched_exact_mean_and_std():
    dist = _StdGauss(4, mu=[1.0, -2.0, 0.0, 3.0], sigma=[1.0, 2.0, 0.5, 1.5])
    ns, skipped = moment_matched_nodes(dist, 8, trial_rng(6))
    assert not skipped.any()
    np.testing.assert_allclose(ns.weights @ ns.nodes, dist.mean, atol=1e-12)
    var = ns.weights @ (ns.nodes - dist.mean) ** 2
    np.testing.assert_allclose(np.sqrt(var), dist.std, rtol=1e-12)


def test_moment_matched_flags_zero_variance():
    class Degenerate:
        mean = np.array([2.0, 0.0])
        std = np.array([1.0, 1.0])

        def sample(self, n, rng):
            x = rng.standard_normal((n, 2))
            x[:, 1] = 5.0  # constant coordinate: sample variance exactly zero
            return x

    ns, skipped = moment_matched_nodes(Degenerate(), 6, trial_rng(7))
    np.testing.assert_array_equal(skipped, [False, True])
    # the flagged coordinate is still mean-matched
    np.testing.assert_allclose(ns.weights @ ns.nodes, [2.0, 0.0], atol=1e-12)
    with pytest.raises(ValueError):
        moment_matched_nodes(Degenerate(), 1, trial_rng(8))


def test_mc_law_of_large_numbers():
    # second moment of a standard normal from 1e5 samples: CLT bound at 3 SE
    dist = _StdGauss(1)
    n = 100_000
    ns = NodeSet(dist.sample(n, trial_rng(9)), np.full(n, 1.0 / n))
    est = float(ns.weights @ ns.nodes[:, 0] ** 2)
    assert 0.98 < est < 1.02


# ---------------------------------------------------------------- counting


def test_count_exact_pairs_frozen_small():
    # frozen: lowest-differing-bit census for d=4
    assert count_exact_pairs(4, "cross-polytope", 4) == 4.0
    assert count_exact_pairs(4, "cross-polytope", 8) == 6.0
    # one blocked group always integrates its within-block pairs
    assert count_exact_pairs(4, "blocked-simplex", 3, block_size=2, seed=0) >= 2.0


def test_count_exact_pairs_census_d64():
    # frozen: d^2/4, d^2*3/8, and all d(d-1)/2 pairs at the full period
    assert count_exact_pairs(64, "cross-polytope", 4) == 1024.0
    assert count_exact_pairs(64, "cross-polytope", 8) == 1536.0
    assert count_exact_pairs(64, "cross-polytope", 128) == 2016.0
    # the deterministic rule gives the same count for any number of trials
    assert count_exact_pairs(64, "cross-polytope", 8, n_trials=3) == count_exact_pairs(
        64, "cross-polytope", 8, n_trials=1
    )


def test_count_exact_pairs_blocked_mean():
    # frozen: relative-shuffle census for one 2+2 block pair gives 2 + 2/3
    mean = count_exact_pairs(4, "blocked-simplex", 3, block_size=2, n_trials=600, seed=1)
    assert abs(mean - (2 + 2 / 3)) < 0.2


def test_count_exact_pairs_validation():
    with pytest.raises(ValueError):
        count_exact_pairs(8, "cross-polytope", 5)
    with pytest.raises(ValueError):
        count_exact_pairs(8, "blocked-simplex", 4, block_size=2)
    with pytest.raises(ValueError):
        count_exact_pairs(8, "metropolis", 4)


def _ladders(group):
    # doubling from the smallest budget, uneven steps, and a single budget
    return ([group * 2**i for i in range(7)], [group, 3 * group, 4 * group, 9 * group],
            [5 * group])


@pytest.mark.parametrize("d", [1, 2, 3, 5, 17, 37, 64, 100, 512])
def test_count_exact_pairs_ladder_matches_per_budget_oracle(d):
    # One pass over a ladder counts exactly what a rebuild of every node at
    # each budget counts: the rungs add nodes to one continuing sequence.
    # It also counts what the earlier ladder loop counted with built nodes,
    # numpy's syrk and a division by the budget, where the package takes
    # one gemm per pair of column tiles and rung and a precomputed bound for
    # the blocked rule, and a closed form for the cross-polytope.
    cases = [("cross-polytope", 2, 1)] + [
        ("blocked-simplex", block_size, trials)
        for block_size in (1, 2, 3, 4, 5) for trials in (1, 2, 3)
    ]
    for method, block_size, trials in cases:
        group = 2 if method == "cross-polytope" else block_size + 1
        for ladder in _ladders(group):
            if d == 512:
                ladder = [n for n in ladder if n <= 128 * group]
            for seed in (0, 11, 2**31 - 5):
                kw = dict(block_size=block_size, n_trials=trials, seed=seed)
                got = count_exact_pairs(d, method, ladder, **kw)
                want = [oracles.count_exact_pairs(d, method, n, **kw) for n in ladder]
                assert got == want, (method, block_size, trials, ladder, seed)
                assert got == oracles.count_exact_ladder(d, method, ladder, **kw)
                # the scalar form is the one-rung ladder
                for n, count in zip(ladder, want):
                    assert count_exact_pairs(d, method, n, **kw) == count, (
                        method, block_size, trials, n, seed)
    if d == 512:  # the exactness-count command's ladder, to the full period
        ladder = [4 * 2**i for i in range(9)]
        assert count_exact_pairs(d, "cross-polytope", ladder) == (
            oracles.count_exact_ladder(d, "cross-polytope", ladder))


def test_count_exact_pairs_ladder_validation():
    for ladder in ([4, 4], [8, 4], [4, 6, 5], [0, 4], [-2, 4], []):
        with pytest.raises(ValueError):
            count_exact_pairs(8, "cross-polytope", ladder)
    for ladder in ([3, 4], [3, 6, 10], [2]):
        with pytest.raises(ValueError):
            count_exact_pairs(8, "blocked-simplex", ladder, block_size=2)
    with pytest.raises(ValueError):
        count_exact_pairs(0, "cross-polytope", [2, 4])


def test_count_exact_pairs_closed_form_at_the_largest_cached_table(monkeypatch):
    # frozen: d = 1024 is the largest d whose sign period (1024 pairs, 2048
    # evals) is cached.  The full period integrates all d(d-1)/2 = 523,776
    # pairs; half of it misses only the 512 pairs whose lowest differing
    # bit is bit 9, the pairs whose window is the full period.  The
    # cross-polytope is counted in closed form: no product is taken and no
    # sign row is built, cached or fresh.
    def never(*args, **kwargs):
        raise AssertionError("the cross-polytope count built a Gram or sign rows")

    monkeypatch.setattr(np, "matmul", never)
    for name in ("sign_sequence", "_sign_table", "_parity_signs", "_blocked_nodes"):
        monkeypatch.setattr(mfquad.quadrature, name, never)
    assert count_exact_pairs(1024, "cross-polytope", 2048) == 523_776.0
    assert count_exact_pairs(1024, "cross-polytope", [1024, 2048]) == [523_264.0, 523_776.0]


@pytest.mark.parametrize("d", [1, 2, 3, 5, 7, 64, _TILE - 1, _TILE, _TILE + 1, 300, 513, 1024])
def test_count_exact_pairs_closed_form_matches_the_gram_oracle(d):
    # The closed form counts what the earlier loop counts from built nodes,
    # numpy's syrk and a division by the budget: every even budget to 78,
    # the powers of two to 2,048, and budgets past the period.
    ladders = [list(range(2, 80, 2)), [2**i for i in range(1, 12)],
               [6, 10, 22, 2048, 2050, 4096]]
    for ladder in ladders:
        assert count_exact_pairs(d, "cross-polytope", ladder) == (
            oracles.count_exact_ladder(d, "cross-polytope", ladder)), ladder


def test_count_exact_pairs_keeps_the_tolerance_past_2e10_evaluations():
    # frozen: at d = 2 the one pair's sign products alternate, so an odd
    # number m of pairs leaves |S| = 1 and the mixed moment 2 / (2 m) = 1 / m.
    # That passes 1e-10 once m exceeds 10**10, without being 0.
    for m, count in [(2**30 + 1, 0.0), (10**10 - 1, 0.0), (10**10, 1.0), (10**10 + 1, 1.0),
                     (2**35 + 1, 1.0), (2**52 - 1, 1.0)]:
        assert count_exact_pairs(2, "cross-polytope", 2 * m) == count, m
    assert count_exact_pairs(2, "cross-polytope", [2 * (2**30 + 1), 2 * (2**35 + 1)]) == [
        0.0, 1.0]


def test_count_exact_pairs_caps_budgets_and_pairs_below_2_53():
    # Past 2**53 a budget, and a count, would no longer be an exact double.
    for method, n_evals in [("cross-polytope", 2**53), ("cross-polytope", [2, 2**53]),
                            ("blocked-simplex", 3 * 2**52)]:
        with pytest.raises(ValueError, match=r"below 2\*\*53"):
            count_exact_pairs(2, method, n_evals)
    # 2**27 coordinates hold 2**53 - 2**26 pairs; one more holds 2**53 + 2**26
    assert count_exact_pairs(2**27, "cross-polytope", 2**53 - 2) == math.comb(2**27, 2)
    with pytest.raises(ValueError, match=r"below 2\*\*53"):
        count_exact_pairs(2**27 + 1, "cross-polytope", 4)


@settings(deadline=None, max_examples=200)
@given(i=st.integers(0, 2**11), x=st.integers(1, 2**11), m=st.integers(0, 2**12 + 7))
def test_sign_product_sums_are_triangle_waves(i, x, m):
    # Over the first m sign vectors, coordinates i != j have sign products
    # summing to |S| = min(r, w - r), w their exactness period, r = m mod w:
    # the closed form's one fact, checked on the package's own signs.
    j = i ^ x
    signs = sign_sequence(max(i, j) + 1, 0, m, index=[i, j])
    w = exactness_period(i, j)
    assert abs(signs[:, 0] @ signs[:, 1]) == min(m % w, w - m % w)


@pytest.mark.parametrize("d", [1, 2, 5, _TILE - 1, _TILE, _TILE + 1, 2 * _TILE + 3, 300])
def test_count_exact_pairs_tile_edges_match_the_oracles(d):
    # Dimensions below, at and past a column tile's edge, most with a partial
    # last tile, count what the float64 Gram loop and a rebuild at every
    # budget count: the integer code Gram's zeros are the pairs that pass the
    # 1e-10 test.  At every d here some block size up to 7 leaves a tail block.
    cases = [("cross-polytope", 2, 1)] + [
        ("blocked-simplex", block_size, trials)
        for block_size in range(1, 8) for trials in (1, 3)
    ]
    for method, block_size, trials in cases:
        group = 2 if method == "cross-polytope" else block_size + 1
        ladder = [group * 2**i for i in range(8)]
        kw = dict(block_size=block_size, n_trials=trials, seed=d)
        got = count_exact_pairs(d, method, ladder, **kw)
        assert got == oracles.count_exact_ladder(d, method, ladder, **kw), (
            method, block_size, trials)
        assert got == [oracles.count_exact_pairs(d, method, n, **kw) for n in ladder], (
            method, block_size, trials)


@pytest.mark.parametrize("block_size", [1, 2, 3, 5, 8, 64])
def test_simplex_codes_scale_to_the_point_set(block_size):
    # column c of the point set is F[c, c] / (b - c) times code column c, so
    # the rule's nodes are a per-column scale of the codes drawn alike
    full = simplex_sigma_points(block_size).nodes
    codes = _simplex_codes(block_size, np.float32)
    scale = np.diag(full) / np.arange(block_size, 0, -1)
    np.testing.assert_allclose(codes * scale, full, rtol=1e-13, atol=1e-15)
    assert (scale**2 >= (1 - 1e-15) / block_size).all()
    d, rng, code_rng = 2 * block_size + 1, trial_rng(3), trial_rng(3)
    nodes = blocked_simplex_standard(d, block_size, rng, 4).nodes
    gathered = _blocked_nodes(codes, d, code_rng, 4)
    np.testing.assert_allclose(gathered * scale[np.arange(d) % block_size], nodes,
                               rtol=1e-13, atol=1e-15)
    assert rng.integers(2**62) == code_rng.integers(2**62)  # the same draws


def test_count_exact_pairs_sums_codes_in_float64_from_2_24(monkeypatch):
    # Float32 sums of the codes are exact while n * b**2 < 2**24.  At b = 64
    # the ladder to 65 * 63 nodes stays below it, and the one to 65 * 128
    # (crossing it at 65 * 64) sums in float64; both count what the float64
    # Gram of the nodes counts.
    kinds = []
    real = np.matmul
    monkeypatch.setattr(np, "matmul", lambda a, b, out: kinds.append(out.dtype) or real(
        a, b, out=out))
    for last, dtype in [(63, np.float32), (128, np.float64)]:
        ladder = [65 * m for m in (1, 2, 4, 8, 16, 32, last)]
        kinds.clear()
        kw = dict(block_size=64, n_trials=2)
        assert count_exact_pairs(130, "blocked-simplex", ladder, **kw) == (
            oracles.count_exact_ladder(130, "blocked-simplex", ladder, **kw)), last
        assert set(kinds) == {np.dtype(dtype)}, last


def test_count_exact_pairs_caps_blocked_budgets_before_allocating(monkeypatch):
    # At 1001 * 2**13 evaluations the 1e-10 test's bound, about 8.2e-4, is
    # past half the block-size-1000 rule's least nonzero moment, 1e-3, where
    # K == 0 is no longer sure to be that test: the count refuses, from
    # scalars alone.
    def never(*args, **kwargs):
        raise AssertionError("allocated before refusing")

    for name in ("empty", "zeros", "ones", "tri"):
        monkeypatch.setattr(np, name, never)
    for name in ("_blocked_nodes", "_simplex_codes", "simplex_sigma_points"):
        monkeypatch.setattr(mfquad.quadrature, name, never)
    assert _exact_bound(1001 * 2**13) >= 0.5 / 1000
    for n_evals in (1001 * 2**13, [1001, 1001 * 2**13]):
        with pytest.raises(ValueError, match="1e-10 test"):
            count_exact_pairs(2, "blocked-simplex", n_evals, block_size=1000)


@pytest.mark.parametrize("method, group, bytes_per_d2", [
    ("blocked-simplex", 3, 20),
])
def test_count_exact_pairs_peak_memory(method, group, bytes_per_d2):
    # numpy reports its buffers to tracemalloc.  The count keeps Gram sums
    # for the upper block triangle of the column tiles only, and neither a
    # transposed copy of a rung nor a NodeSet copy of it: the full d x d
    # sum, product and mask with those copies took 27.0 d**2 bytes.  Float32
    # code sums and rungs take 7.7 d**2 bytes, float64 ones 12.4.
    d = 1024
    tracemalloc.start()
    try:
        count_exact_pairs(d, method, [group * 2**i for i in range(9)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bytes_per_d2 * d**2, peak / d**2


def test_count_exact_pairs_cross_polytope_memory_at_a_million_coordinates():
    # The closed form holds a few Python ints per bit of d, not d x d sums.
    tracemalloc.start()
    try:
        count = count_exact_pairs(10**6, "cross-polytope", [4 * 2**i for i in range(40)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count[0] == 250_000_000_000.0 and count[-1] == math.comb(10**6, 2)
    assert peak < 64 * 1024, peak


@settings(deadline=None, max_examples=300)
@given(n=st.integers(1, 2**40), a=st.floats(allow_nan=True, allow_infinity=True))
def test_exact_bound_replaces_the_division(n, a):
    # |x / n| < tol holds exactly when |x| < bound, at the bound's
    # neighbours within 4 ulps on both sides, for either sign, and at random.
    bound = _exact_bound(n)
    near = [bound]
    for toward in (0.0, math.inf):
        x = bound
        for _ in range(4):
            x = math.nextafter(x, toward)
            near.append(x)
    x = np.array(near + [-v for v in near] + [a, a * 1e-10, a * 1e-20])
    np.testing.assert_array_equal(np.abs(x) / n < _EXACT_TOL, np.abs(x) < bound)
    assert bound / n >= _EXACT_TOL > math.nextafter(bound, 0.0) / n


@pytest.mark.parametrize("method, n_evals, block_size, match", [
    ("blocked-simplex", 3, -1, "block_size must be positive, got -1"),
    ("blocked-simplex", 3, 0, "block_size must be positive, got 0"),
    ("cross-polytope", 4.0, 2, "n_evals must hold integers, got 4.0"),
    ("cross-polytope", np.float64(4), 2, "n_evals must hold integers"),
    ("cross-polytope", "4", 2, "n_evals must hold integers"),
    ("cross-polytope", [2, 4.0], 2, "n_evals must hold integers, got 4.0"),
    ("cross-polytope", [2, True], 2, "n_evals must hold integers, got True"),
    ("blocked-simplex", 3.0, 2, "n_evals must hold integers, got 3.0"),
    ("blocked-simplex", [3, 6.0], 2, "n_evals must hold integers, got 6.0"),
    ("blocked-simplex", True, 0, "block_size must be positive, got 0"),
    ("blocked-simplex", np.array([2.0, 4.0]), 1, "n_evals must hold integers"),
])
def test_count_exact_pairs_refuses_bad_arguments_before_allocating(
        monkeypatch, method, n_evals, block_size, match):
    def never(*args, **kwargs):
        raise AssertionError("allocated before refusing")

    for name in ("empty", "zeros", "ones"):
        monkeypatch.setattr(np, name, never)
    with pytest.raises(ValueError, match=match):
        count_exact_pairs(10**6, method, n_evals, block_size=block_size)


def test_count_exact_pairs_accepts_numpy_integers():
    want = count_exact_pairs(8, "cross-polytope", [2, 4, 8])
    assert count_exact_pairs(8, "cross-polytope", np.array([2, 4, 8])) == want
    assert count_exact_pairs(8, "cross-polytope", np.array([2, 4, 8], np.uint8)) == want
    assert count_exact_pairs(8, "cross-polytope", np.int32(8)) == want[-1]
    assert count_exact_pairs(8, "cross-polytope", np.array(8)) == want[-1]
    assert count_exact_pairs(np.int64(8), "cross-polytope", [2, 4, 8]) == want
    assert count_exact_pairs(8, "blocked-simplex", np.array([3, 6]), seed=4) == (
        count_exact_pairs(8, "blocked-simplex", [3, 6], seed=4))


def test_trial_rng_is_counter_based_and_offsettable():
    a = trial_rng(100, 3).standard_normal(4)
    b = trial_rng(103, 0).standard_normal(4)
    np.testing.assert_array_equal(a, b)
