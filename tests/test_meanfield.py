"""Tests for mean-field distributions, moments, and orthonormal bases.

Frozen expected values were derived before implementation: Gaussian raw
moments from the standard recursion, Laplace central moments k!*scale^k,
spike-slab moments from the mixture algebra, and the normalized probabilists'
polynomials for the Gaussian basis.
"""

import numpy as np
import pytest

import oracles
from mfquad.cli import _restrict
from mfquad.meanfield import (
    GaussianMeanField,
    LaplaceMeanField,
    SpikeSlabMeanField,
    basis_product_expectation,
    orthonormal_basis,
    preset,
    spike_slab_moments,
)
from mfquad.quadrature import antithetic_pair, sign_sequence, trial_rng

PRESETS = ["gauss", "laplace", "spikeslab"]


# ---------------------------------------------------------------- moments


def test_gaussian_raw_moments_frozen():
    g = GaussianMeanField([0.0], [1.0])
    np.testing.assert_allclose(g.raw_moments(6)[0], [1, 0, 1, 0, 3, 0, 15], atol=0)
    g2 = GaussianMeanField([2.0], [1.0])
    # recursion by hand: 1, 2, 5, 14, 43
    np.testing.assert_allclose(g2.raw_moments(4)[0], [1, 2, 5, 14, 43], atol=0)


def test_laplace_moments_frozen():
    l = LaplaceMeanField([0.0], [1.0])
    np.testing.assert_allclose(l.raw_moments(6)[0], [1, 0, 2, 0, 24, 0, 720], atol=0)
    np.testing.assert_allclose(l.std, [np.sqrt(2.0)])
    shifted = LaplaceMeanField([1.0], [1.0])
    # binomial shift of the central table: m2 = 3, m3 = 7
    np.testing.assert_allclose(shifted.raw_moments(3)[0], [1, 1, 3, 7], atol=0)


def test_spike_slab_moments_frozen():
    s = SpikeSlabMeanField([0.5], [2.0], [1.0])
    np.testing.assert_allclose(s.mean, [1.0])
    np.testing.assert_allclose(s.std, [np.sqrt(1.5)])
    np.testing.assert_allclose(s.raw_moments(4)[0], [1, 1, 2.5, 7, 21.5], atol=0)
    # degenerate corners of the mixture
    all_zero = SpikeSlabMeanField([1.0], [2.0], [1.0])
    np.testing.assert_allclose(all_zero.mean, [0.0])
    np.testing.assert_allclose(all_zero.std, [0.0])
    all_slab = SpikeSlabMeanField([0.0], [2.0], [1.0])
    np.testing.assert_allclose(all_slab.mean, [2.0])
    np.testing.assert_allclose(all_slab.std, [1.0])


def test_spike_slab_moments_match_formula_oracle():
    # the in-place evaluation keeps the formula's operations and their order
    rng = trial_rng(3)
    p = np.concatenate([rng.random(97), [0.0, 1.0, 0.5]])
    m = np.concatenate([rng.standard_normal(97) * 4, [-0.0, 2.0, 0.0]])
    s = np.concatenate([rng.random(97), [0.3, 0.0, 0.0]])
    for got, want in zip(spike_slab_moments(p, m, s), oracles.spike_slab_moments(p, m, s)):
        assert got.tobytes() == want.tobytes()


def test_spike_slab_moments_helper_matches_mixture_mc():
    rng = trial_rng(42)
    p_nz, m, s = np.array([0.7]), np.array([1.5]), np.array([0.8])
    mu, sd = spike_slab_moments(p_nz, m, s)
    dist = SpikeSlabMeanField(1.0 - p_nz, m, s)
    x = dist.sample(400_000, rng)[:, 0]
    assert abs(x.mean() - mu[0]) < 3 * sd[0] / np.sqrt(400_000)
    assert abs(x.std() - sd[0]) < 0.01
    # samples from the point mass are exactly zero
    assert np.mean(x == 0.0) == pytest.approx(0.3, abs=0.005)


@pytest.mark.parametrize("name", PRESETS)
def test_sampling_matches_moments(name):
    dist = preset(name, 4)
    x = dist.sample(200_000, trial_rng(1))
    se = dist.std / np.sqrt(200_000.0)
    assert np.all(np.abs(x.mean(axis=0) - dist.mean) < 4 * se)
    assert np.all(np.abs(x.std(axis=0) - dist.std) < 0.02)


def _random_families(d, seed):
    """One field of each family with varied per-coordinate parameters."""
    r = np.random.default_rng(seed)
    scale = r.choice([1e-3, 1.0, 1e3], size=d)
    return [
        GaussianMeanField(r.normal(size=d) * scale, r.exponential(size=d) * scale),
        LaplaceMeanField(r.normal(size=d) * scale, r.exponential(size=d) * scale),
        SpikeSlabMeanField(r.uniform(size=d), r.normal(size=d) * scale,
                           r.exponential(size=d) * scale),
    ]


def _signed_zero_families(d, seed):
    """One field of each family whose parameters mix magnitudes from 1e-300
    to 1e300 with zeros and negative zeros."""
    r = np.random.default_rng(seed)
    mags = np.array([0.0, -0.0, 1e-300, 1e-3, 1.0, 1e3, 1e300])

    def pick(signed):
        x = r.choice(mags, size=d)
        return x * r.choice([-1.0, 1.0], size=d) if signed else np.abs(x)

    p_zero = r.choice([0.0, -0.0, 0.25, 0.5, 1.0], size=d)
    return [
        GaussianMeanField(pick(True), pick(False)),
        LaplaceMeanField(pick(True), pick(False)),
        SpikeSlabMeanField(p_zero, pick(True), pick(False)),
    ]


@pytest.mark.parametrize("family", range(3))
@pytest.mark.parametrize(
    "index", [[5], [0, 63], [40, 3, 40, 17], list(range(63, -1, -1)), None]
)
def test_sample_at_index_is_the_full_sample_gathered(family, index):
    # Columns `index` only (all of them for None), in that order and with
    # repeats, bit for bit those of the textbook formula's full draw, and the
    # generator left where that draw leaves it.
    at = slice(None) if index is None else index
    for dist in (_random_families(64, family)[family],
                 _signed_zero_families(64, family)[family]):
        for n in (1, 2, 37, 256):
            full_rng, rng = trial_rng(11, n), trial_rng(11, n)
            full = oracles.mean_field_sample(dist, n, full_rng)[:, at]
            part = dist.sample(n, rng, None if index is None else np.array(index))
            assert part.shape == full.shape
            assert part.tobytes() == full.tobytes()
            assert rng.random(8).tobytes() == full_rng.random(8).tobytes()


def test_validation():
    with pytest.raises(ValueError):
        GaussianMeanField([0.0, 0.0], [1.0])
    with pytest.raises(ValueError):
        GaussianMeanField([0.0], [-1.0])
    with pytest.raises(ValueError):
        SpikeSlabMeanField([1.5], [0.0], [1.0])
    with pytest.raises(ValueError):
        LaplaceMeanField([np.inf], [1.0])
    with pytest.raises(ValueError):
        preset("cauchy", 3)


# ---------------------------------------------------------------- basis


def test_gaussian_basis_closed_form():
    # frozen: normalized probabilists' polynomials
    b = orthonormal_basis(preset("gauss", 1))
    np.testing.assert_allclose(b.coeffs[0, 0], [1, 0, 0, 0], atol=1e-14)
    np.testing.assert_allclose(b.coeffs[0, 1], [0, 1, 0, 0], atol=1e-14)
    r2, r6 = np.sqrt(2.0), np.sqrt(6.0)
    np.testing.assert_allclose(b.coeffs[0, 2], [-1 / r2, 0, 1 / r2, 0], atol=1e-14)
    np.testing.assert_allclose(b.coeffs[0, 3], [0, -3 / r6, 0, 1 / r6], atol=1e-14)


def test_laplace_basis_first_degree():
    # frozen: variance 2 normalizes the linear polynomial by 1/sqrt(2)
    b = orthonormal_basis(preset("laplace", 1))
    np.testing.assert_allclose(b.coeffs[0, 1], [0, 1 / np.sqrt(2.0), 0, 0], atol=1e-14)


@pytest.mark.parametrize("name", PRESETS)
def test_basis_orthonormal_under_exact_moments(name):
    dist = preset(name, 3)
    b = orthonormal_basis(dist)
    m = dist.raw_moments(6)
    for c in range(dist.dim):
        hankel = np.array([[m[c, i + j] for j in range(4)] for i in range(4)])
        gram = b.coeffs[c] @ hankel @ b.coeffs[c].T
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-10)


def test_basis_orthonormal_against_mc():
    # independent check: sample moments of basis products at 3 SE
    dist = preset("spikeslab", 2)
    b = orthonormal_basis(dist)
    x = dist.sample(1_000_000, trial_rng(17))[:, 0]
    for a in range(4):
        for c in range(a, 4):
            vals = b.evaluate(0, a, x) * b.evaluate(0, c, x)
            target = 1.0 if a == c else 0.0
            se = vals.std(ddof=1) / np.sqrt(vals.size)
            # the constant-constant cell has zero variance: exact match
            assert abs(vals.mean() - target) <= 3 * se + 1e-12, (a, c)


def test_basis_first_degree_is_standardization():
    # phi_1 = (x - mean)/std for every family
    for name in PRESETS:
        dist = preset(name, 2)
        b = orthonormal_basis(dist)
        x = np.linspace(-3, 3, 7)
        for c in range(2):
            np.testing.assert_allclose(
                b.evaluate(c, 1, x),
                (x - dist.mean[c]) / dist.std[c],
                atol=1e-12,
            )


def test_degenerate_marginal_raises():
    with pytest.raises(ValueError, match="degenerate marginal at coordinate 1"):
        orthonormal_basis(GaussianMeanField([0.0, 1.0], [1.0, 0.0]))
    with pytest.raises(ValueError, match="degenerate"):
        orthonormal_basis(SpikeSlabMeanField([1.0], [2.0], [1.0]))
    # the batched factorization names the first degenerate coordinate
    sigma = np.ones(6)
    sigma[[2, 4]] = 0.0
    with pytest.raises(ValueError, match="degenerate marginal at coordinate 2:"):
        orthonormal_basis(GaussianMeanField(np.zeros(6), sigma))


def _random_fields(rng, d):
    loc, scale = rng.normal(0.0, 2.0, d), rng.uniform(0.1, 3.0, d)
    return [GaussianMeanField(loc, scale), LaplaceMeanField(loc, scale),
            SpikeSlabMeanField(rng.uniform(0.0, 0.9, d), loc, scale)]


@pytest.mark.parametrize("max_degree", range(1, 7))
def test_batched_basis_matches_per_coordinate_oracle(max_degree):
    # one batched cholesky and inv give the per-coordinate loop's bits
    rng = np.random.Generator(np.random.Philox(max_degree))
    for dist in [preset(name, 3) for name in PRESETS] + _random_fields(rng, 40):
        got = orthonormal_basis(dist, max_degree).coeffs
        want = oracles.orthonormal_basis(dist, max_degree).coeffs
        assert got.tobytes() == want.tobytes(), (type(dist).__name__, max_degree)


@pytest.mark.parametrize("max_degree", [3, 6])
def test_basis_at_some_coordinates_is_the_full_basis_rows(max_degree):
    # integrate-bench factors the basis on the mean field restricted to the
    # basis's coordinates: each coordinate's moments, Cholesky factor and
    # inverse are its own, so the rows and the truth are the full basis's
    rng = np.random.Generator(np.random.Philox(10 + max_degree))
    for dist in [preset(name, 9) for name in PRESETS] + _random_fields(rng, 40):
        full = orthonormal_basis(dist, max_degree)
        for index in (np.array([0]), np.array([2, 7]), np.arange(0, dist.dim, 3),
                      np.sort(rng.choice(dist.dim, size=5, replace=False))):
            field = _restrict(dist, index)
            assert type(field) is type(dist) and field.dim == index.size
            basis = orthonormal_basis(field, max_degree)
            assert basis.coeffs.tobytes() == full.coeffs[index].tobytes()
            terms = [(int(index[-1]), 1), (int(index[0]), max_degree), (int(index[-1]), 2)]
            column = {int(c): j for j, c in enumerate(index)}
            truth = basis_product_expectation(
                field, basis, [(column[c], degree) for c, degree in terms])
            assert truth == basis_product_expectation(dist, full, terms)


def test_basis_product_expectation():
    dist = preset("spikeslab", 3)
    b = orthonormal_basis(dist)
    # distinct nonconstant factors integrate to zero by independence
    assert basis_product_expectation(dist, b, [(0, 1), (1, 1)]) == pytest.approx(0.0, abs=1e-12)
    assert basis_product_expectation(dist, b, [(0, 2), (2, 1)]) == pytest.approx(0.0, abs=1e-12)
    # repeated coordinate: orthonormality gives unit second moment
    assert basis_product_expectation(dist, b, [(1, 1), (1, 1)]) == pytest.approx(1.0, rel=1e-10)
    assert basis_product_expectation(dist, b, [(1, 3), (1, 3)]) == pytest.approx(1.0, rel=1e-10)
    assert basis_product_expectation(dist, b, [(1, 1), (1, 2)]) == pytest.approx(0.0, abs=1e-10)
    assert basis_product_expectation(dist, b, []) == 1.0


@pytest.mark.parametrize("name", PRESETS)
def test_full_period_mixed_moments_exact(name):
    # averaging one full period of antithetic pairs integrates every mixed
    # second-moment basis product exactly, for every marginal family
    d = 32
    dist = preset(name, d)
    b = orthonormal_basis(dist)
    period = 1 << (d - 1).bit_length()
    signs = sign_sequence(d, 0, period)
    acc = np.zeros((d, d))
    for s in signs:
        pair = antithetic_pair(dist.mean, dist.std, s)
        for node in (pair.plus, pair.minus):
            phi = np.array([b.evaluate(c, 1, node[c]) for c in range(d)])
            acc += 0.5 * np.outer(phi, phi)
    est = acc / period
    off = est[np.triu_indices(d, k=1)]
    assert np.max(np.abs(off)) < 1e-12
