"""Unit and property tests for the quadrature node constructions.

Expected values marked as frozen were derived by hand from the parity
definition (sign vectors), the lowest-differing-bit rule (window lengths),
and direct moment algebra (simplex points, pair exactness) before the
implementation existed; they must not be regenerated from the code under
test.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from mfquad.quadrature import (
    antithetic_pair,
    blocked_simplex_standard,
    count_exact_pairs,
    cross_polytope_signs,
    exactness_period,
    mc_nodes,
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
    ns = mc_nodes(dist, 100_000, trial_rng(9))
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


def test_trial_rng_is_counter_based_and_offsettable():
    a = trial_rng(100, 3).standard_normal(4)
    b = trial_rng(103, 0).standard_normal(4)
    np.testing.assert_array_equal(a, b)
