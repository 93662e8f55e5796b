"""Product (mean-field) distributions, their moments, and orthonormal bases.

Three marginal families cover the integration experiments: Gaussian,
Laplace, and a spike-slab mixture placing probability mass exactly at zero
with a Gaussian slab elsewhere.  Every family exposes per-coordinate mean
and standard deviation (the only inputs the quadrature constructions need),
sampling, and exact raw moments.  ``sample(n, rng, index)`` draws every
coordinate's variates, so ``rng`` advances as in a full draw, but transforms
only the columns ``index``: it returns ``sample(n, rng)[:, index]`` bit for
bit.  From the raw moments a per-coordinate orthonormal polynomial basis is
built by Cholesky factorization of the Hankel moment matrix; products of
these basis polynomials are the test integrands throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GaussianMeanField",
    "LaplaceMeanField",
    "SpikeSlabMeanField",
    "OrthonormalBasis",
    "spike_slab_moments",
    "orthonormal_basis",
    "basis_product_expectation",
    "preset",
    "PRESET_NAMES",
]


def _vec(x, name: str) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64).ravel()
    if a.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite")
    return a


def _gaussian_raw_moments(mean: np.ndarray, std: np.ndarray, max_power: int) -> np.ndarray:
    """Raw moments of independent normals, columns 0..max_power.

    Recursion m_k = mean*m_{k-1} + (k-1)*std^2*m_{k-2}.
    """
    d = mean.shape[0]
    out = np.empty((d, max_power + 1))
    out[:, 0] = 1.0
    if max_power >= 1:
        out[:, 1] = mean
    var = std**2
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(2, max_power + 1):
            out[:, k] = mean * out[:, k - 1] + (k - 1) * var * out[:, k - 2]
    return out


def spike_slab_moments(
    p_nonzero: np.ndarray, slab_mean: np.ndarray, slab_std: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard deviation of the point-mass/Gaussian mixture.

    With nonzero probability p, slab mean m and slab standard deviation s:
    mean = p*m and variance = p*(1-p)*m**2 + p*s**2.
    """
    p = np.asarray(p_nonzero, dtype=np.float64)
    m = np.asarray(slab_mean, dtype=np.float64)
    return p * m, _spike_slab_std(p, m, slab_std)


def _spike_slab_std(
    p_nonzero: np.ndarray, slab_mean: np.ndarray, slab_std: np.ndarray
) -> np.ndarray:
    """The standard deviation of ``spike_slab_moments`` alone."""
    p = np.asarray(p_nonzero, dtype=np.float64)
    m = np.asarray(slab_mean, dtype=np.float64)
    s = np.asarray(slab_std, dtype=np.float64)
    # p * (1 - p) * m**2 + p * s**2, in place and in that order
    var = np.subtract(1.0, p)
    var *= p
    term = np.square(m)
    var *= term
    np.square(s, out=term)
    term *= p
    var += term
    return np.sqrt(var, out=var)


@dataclass(frozen=True)
class GaussianMeanField:
    """Independent normal marginals with the given means and deviations."""

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        mu = _vec(self.mu, "mu")
        sigma = _vec(self.sigma, "sigma")
        if mu.shape != sigma.shape:
            raise ValueError(f"mu has {mu.size} entries, sigma has {sigma.size}")
        if np.any(sigma < 0):
            raise ValueError("sigma must be nonnegative")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)

    @property
    def dim(self) -> int:
        return self.mu.shape[0]

    @property
    def mean(self) -> np.ndarray:
        return self.mu

    @property
    def std(self) -> np.ndarray:
        return self.sigma

    def sample(self, n: int, rng: np.random.Generator, index=None) -> np.ndarray:
        at = slice(None) if index is None else index
        z = rng.standard_normal((n, self.dim))[:, at]
        return self.mu[at] + self.sigma[at] * z

    def raw_moments(self, max_power: int) -> np.ndarray:
        return _gaussian_raw_moments(self.mu, self.sigma, max_power)


@dataclass(frozen=True)
class LaplaceMeanField:
    """Independent Laplace marginals; standard deviation is scale*sqrt(2)."""

    loc: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        loc = _vec(self.loc, "loc")
        scale = _vec(self.scale, "scale")
        if loc.shape != scale.shape:
            raise ValueError(f"loc has {loc.size} entries, scale has {scale.size}")
        if np.any(scale < 0):
            raise ValueError("scale must be nonnegative")
        object.__setattr__(self, "loc", loc)
        object.__setattr__(self, "scale", scale)

    @property
    def dim(self) -> int:
        return self.loc.shape[0]

    @property
    def mean(self) -> np.ndarray:
        return self.loc

    @property
    def std(self) -> np.ndarray:
        return self.scale * np.sqrt(2.0)

    def sample(self, n: int, rng: np.random.Generator, index=None) -> np.ndarray:
        # numpy's laplace is loc +- scale * log(...) per draw, so a standard
        # draw scaled afterwards rounds alike and advances rng alike
        at = slice(None) if index is None else index
        z = rng.laplace(size=(n, self.dim))[:, at]
        return self.loc[at] + self.scale[at] * z

    def raw_moments(self, max_power: int) -> np.ndarray:
        # central moments: k! * scale^k for even k, zero for odd k
        central = np.zeros((self.dim, max_power + 1))
        central[:, 0] = 1.0
        for k in range(2, max_power + 1, 2):
            central[:, k] = math.factorial(k) * self.scale**k
        out = np.zeros_like(central)
        for k in range(max_power + 1):
            for j in range(k + 1):
                out[:, k] += math.comb(k, j) * self.loc ** (k - j) * central[:, j]
        return out


@dataclass(frozen=True)
class SpikeSlabMeanField:
    """Mixture marginals: probability ``p_zero`` of exactly zero, otherwise
    a normal slab with the given mean and deviation."""

    p_zero: np.ndarray
    slab_mean: np.ndarray
    slab_std: np.ndarray

    def __post_init__(self):
        p = _vec(self.p_zero, "p_zero")
        m = _vec(self.slab_mean, "slab_mean")
        s = _vec(self.slab_std, "slab_std")
        if not (p.shape == m.shape == s.shape):
            raise ValueError("p_zero, slab_mean, slab_std must have equal length")
        if np.any((p < 0) | (p > 1)):
            raise ValueError("p_zero must lie in [0, 1]")
        if np.any(s < 0):
            raise ValueError("slab_std must be nonnegative")
        object.__setattr__(self, "p_zero", p)
        object.__setattr__(self, "slab_mean", m)
        object.__setattr__(self, "slab_std", s)

    @property
    def dim(self) -> int:
        return self.p_zero.shape[0]

    @property
    def mean(self) -> np.ndarray:
        return (1.0 - self.p_zero) * self.slab_mean

    @property
    def std(self) -> np.ndarray:
        return _spike_slab_std(1.0 - self.p_zero, self.slab_mean, self.slab_std)

    def sample(self, n: int, rng: np.random.Generator, index=None) -> np.ndarray:
        at = slice(None) if index is None else index
        z = rng.standard_normal((n, self.dim))[:, at]
        u = rng.random((n, self.dim))[:, at]
        return np.where(u < self.p_zero[at], 0.0, self.slab_mean[at] + self.slab_std[at] * z)

    def raw_moments(self, max_power: int) -> np.ndarray:
        slab = _gaussian_raw_moments(self.slab_mean, self.slab_std, max_power)
        out = (1.0 - self.p_zero)[:, None] * slab
        out[:, 0] = 1.0  # the point mass contributes only to the zeroth moment
        return out


@dataclass(frozen=True)
class OrthonormalBasis:
    """Per-coordinate orthonormal polynomials up to a fixed degree.

    ``coeffs[c, a, p]`` is the coefficient of ``x**p`` in the degree-``a``
    polynomial for coordinate ``c``; degree 0 is the constant 1.
    """

    coeffs: np.ndarray

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0]

    @property
    def max_degree(self) -> int:
        return self.coeffs.shape[1] - 1

    def evaluate(self, coord: int, degree: int, x) -> np.ndarray:
        if not 0 <= degree <= self.max_degree:
            raise ValueError(f"degree {degree} outside 0..{self.max_degree}")
        c = self.coeffs[coord, degree]
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros_like(x)
        for p in range(self.max_degree, -1, -1):  # Horner, in place
            out *= x
            out += c[p]
        return out


def orthonormal_basis(dist, max_degree: int = 3) -> OrthonormalBasis:
    """Gram-Schmidt basis for each marginal from its exact raw moments.

    Factorizes the Hankel matrices H[a, b] = E[x**(a+b)], windows of each
    coordinate's moment row, in one batched call; the rows of the inverse
    Cholesky factor are the polynomial coefficients.  Raises for degenerate
    marginals (zero-variance coordinates make the Hankel matrix singular).
    """
    if max_degree < 1:
        raise ValueError(f"max_degree must be >= 1, got {max_degree}")
    n = max_degree + 1
    hankel = np.lib.stride_tricks.sliding_window_view(dist.raw_moments(2 * max_degree), n, axis=1)
    try:
        chol = np.linalg.cholesky(hankel)
    except np.linalg.LinAlgError:
        for c in range(dist.dim):  # one at a time, to name the first degenerate one
            try:
                np.linalg.cholesky(hankel[c])
            except np.linalg.LinAlgError as err:
                raise ValueError(
                    f"degenerate marginal at coordinate {c}: "
                    "moment matrix is not positive definite"
                ) from err
        raise
    coeffs = np.linalg.inv(chol)
    # the inverse of a lower-triangular factor is lower-triangular;
    # zero the numerical fuzz in the structural zeros, in place
    coeffs[:, ~np.tri(n, dtype=bool)] = 0.0
    return OrthonormalBasis(coeffs)


def basis_product_expectation(
    dist, basis: OrthonormalBasis, terms: list[tuple[int, int]]
) -> float:
    """Exact expectation of a product of basis factors.

    ``terms`` lists ``(coordinate, degree)`` factors; repeated coordinates
    multiply out as polynomials before taking moments, and independence
    factorizes across coordinates.
    """
    by_coord: dict[int, np.ndarray] = {}
    for coord, degree in terms:
        poly = basis.coeffs[coord, degree, : degree + 1]
        if coord in by_coord:
            by_coord[coord] = np.convolve(by_coord[coord], poly)
        else:
            by_coord[coord] = poly.copy()
    if not by_coord:
        return 1.0
    top = max(p.shape[0] - 1 for p in by_coord.values())
    m = dist.raw_moments(top)
    out = 1.0
    for coord, poly in by_coord.items():
        out *= float(poly @ m[coord, : poly.shape[0]])
    return out


PRESET_NAMES = ("gauss", "laplace", "spikeslab")


def preset(name: str, d: int):
    """Named standard mean-fields used by the integration experiments."""
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    if name == "gauss":
        return GaussianMeanField(np.zeros(d), np.ones(d))
    if name == "laplace":
        return LaplaceMeanField(np.zeros(d), np.ones(d))
    if name == "spikeslab":
        return SpikeSlabMeanField(np.full(d, 0.5), np.full(d, 2.0), np.ones(d))
    raise ValueError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
