"""Tests for the quadratic projection of losses onto diagonal summaries.

Frozen values were worked out by hand before implementation: for the
isotropic bowl in two dimensions one pair gives (0, [0,0], [1,1]); for the
pure cross term theta_0*theta_1 one pair gives curvature [1,1] (fully
contaminated) while two pairs cancel it to [0,0].
"""

import numpy as np
import pytest

import oracles
from mfquad.models import QuadraticOracleModel
from mfquad.projection import (
    EvaluationError,
    QuadraticSummary,
    full_period,
    quadratic_approx,
)


class DenseQuadratic:
    """loss = c + b.(theta-x0) + 0.5 (theta-x0).A.(theta-x0)"""

    def __init__(self, c, b, a, x0=None):
        self.c = float(c)
        self.b = np.asarray(b, dtype=float)
        self.a = np.asarray(a, dtype=float)
        self.x0 = np.zeros_like(self.b) if x0 is None else np.asarray(x0, dtype=float)

    def evaluate(self, theta, case):
        z = theta - self.x0
        return self.c + self.b @ z + 0.5 * z @ self.a @ z, self.b + self.a @ z


class Callable1D:
    def __init__(self, f, fp):
        self.f, self.fp = f, fp

    def evaluate(self, theta, case):
        return np.sum(self.f(theta)), self.fp(theta)


def test_frozen_isotropic_bowl():
    model = DenseQuadratic(0.0, [0.0, 0.0], np.eye(2))
    s = quadratic_approx(model, None, np.zeros(2), np.ones(2), 0, 1)
    assert s.loss == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_allclose(s.grad, [0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(s.hess, [1.0, 1.0], atol=1e-15)


def test_frozen_cross_term_contamination_and_cancellation():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])  # loss = theta_0 * theta_1
    model = DenseQuadratic(0.0, [0.0, 0.0], a)
    one = quadratic_approx(model, None, np.zeros(2), np.ones(2), 0, 1)
    np.testing.assert_allclose(one.hess, [1.0, 1.0], atol=1e-15)
    two = quadratic_approx(model, None, np.zeros(2), np.ones(2), 0, 2)
    np.testing.assert_allclose(two.hess, [0.0, 0.0], atol=1e-15)
    assert two.loss == pytest.approx(0.0, abs=1e-15)


def test_diagonal_quadratic_recovered_exactly():
    # any diagonal quadratic comes back as (value, gradient, curvature) at mu
    rng = np.random.default_rng(3)
    for n_pairs in (1, 2, 3, 8):
        d = int(rng.integers(2, 30))
        c = rng.normal()
        g = rng.normal(size=d)
        h = rng.uniform(0.5, 3.0, size=d)
        mu = rng.normal(size=d)
        sigma = rng.uniform(0.2, 2.0, size=d)
        model = DenseQuadratic(c, g, np.diag(h), x0=mu)
        s = quadratic_approx(model, None, mu, sigma, int(rng.integers(0, 50)), n_pairs)
        assert s.loss == pytest.approx(c, rel=1e-10, abs=1e-10)
        np.testing.assert_allclose(s.grad, g, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(s.hess, h, rtol=1e-10, atol=1e-12)


def test_full_period_extracts_dense_diagonal():
    rng = np.random.default_rng(11)
    for d in (8, 32):
        r = rng.normal(size=(d, d))
        a = r + r.T
        a[np.diag_indices(d)] += 4.0 * np.sign(a[np.diag_indices(d)])
        mu = rng.normal(size=d)
        sigma = rng.uniform(0.3, 2.0, size=d)
        model = DenseQuadratic(0.0, rng.normal(size=d), a, x0=rng.normal(size=d))
        s = quadratic_approx(model, None, mu, sigma, 0, full_period(d))
        np.testing.assert_allclose(s.hess, np.diag(a), rtol=1e-10)


def test_single_pair_contamination_bound():
    rng = np.random.default_rng(5)
    d = 12
    for _ in range(100):
        r = rng.normal(size=(d, d))
        a = r + r.T
        sigma = rng.uniform(0.3, 2.0, size=d)
        model = DenseQuadratic(0.0, rng.normal(size=d), a)
        k = int(rng.integers(0, 64))
        s = quadratic_approx(model, None, rng.normal(size=d), sigma, k, 1)
        err = np.abs(s.hess - np.diag(a))
        bound = (np.abs(a) - np.diag(np.abs(np.diag(a)))) @ sigma / sigma
        assert np.all(err <= bound * (1 + 1e-12) + 1e-12)


def test_gradient_is_exact_node_average():
    # the linear term is the plain average of evaluated gradients
    rng = np.random.default_rng(9)
    d, n_pairs, k0 = 6, 3, 7
    model = Callable1D(lambda t: np.exp(0.3 * t), lambda t: 0.3 * np.exp(0.3 * t))
    mu, sigma = rng.normal(size=d), rng.uniform(0.5, 1.5, size=d)
    s = quadratic_approx(model, None, mu, sigma, k0, n_pairs)
    from mfquad.quadrature import cross_polytope_signs

    acc = np.zeros(d)
    for k in range(k0, k0 + n_pairs):
        step = sigma * cross_polytope_signs(d, k)
        acc += model.evaluate(mu + step, None)[1] + model.evaluate(mu - step, None)[1]
    np.testing.assert_array_equal(s.grad, acc / (2 * n_pairs))


@pytest.mark.parametrize("n_pairs", [1, 2, 5])
def test_quadratic_approx_matches_allocating_oracle(n_pairs):
    # the scratch-vector sums keep the oracle's operations and their order,
    # including the zero curvature of undisplaced coordinates
    rng = np.random.default_rng(n_pairs)
    d = 9
    a = rng.standard_normal((d, d))
    model = DenseQuadratic(0.4, rng.standard_normal(d), a @ a.T, rng.standard_normal(d))
    mu = rng.standard_normal(d)
    sigma = rng.uniform(0.1, 1.5, size=d)
    sigma[[1, 4]] = 0.0
    got = quadratic_approx(model, 0, mu, sigma, 11, n_pairs)
    want = oracles.quadratic_approx(model, 0, mu, sigma, 11, n_pairs)
    assert got.loss == want.loss
    assert got.grad.tobytes() == want.grad.tobytes()
    assert got.hess.tobytes() == want.hess.tobytes()
    assert np.all(got.hess[[1, 4]] == 0.0)


def test_zero_sigma_coordinate_gets_zero_curvature():
    model = DenseQuadratic(0.0, [0.0, 0.0], np.diag([2.0, 3.0]))
    s = quadratic_approx(model, None, np.zeros(2), np.array([1.0, 0.0]), 0, 2)
    assert s.hess[0] == pytest.approx(2.0, rel=1e-12)
    assert s.hess[1] == 0.0


def test_small_sigma_matches_second_derivative():
    # smooth nonquadratic loss: curvature estimate within 5% of f'' at mu
    model = Callable1D(np.cosh, np.sinh)
    mu = np.array([0.3, -0.8, 1.1, 0.0])
    sigma = np.full(4, 1e-4)
    s = quadratic_approx(model, None, mu, sigma, 0, full_period(4))
    np.testing.assert_allclose(s.hess, np.cosh(mu), rtol=0.05)


def test_evaluation_error_carries_node():
    class Exploding:
        def evaluate(self, theta, case):
            if theta[0] > 0:
                return np.inf, np.zeros_like(theta)
            return 0.0, np.zeros_like(theta)

    with pytest.raises(EvaluationError) as exc_info:
        quadratic_approx(Exploding(), None, np.zeros(2), np.ones(2), 0, 2)
    node = exc_info.value.node
    assert node.shape == (2,)
    assert node[0] > 0


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_overflowing_summary_is_an_evaluation_error():
    # every evaluation is finite, but the gradient difference along the step
    # overflows; that is a numerical failure (exit 4), not a config error
    model = QuadraticOracleModel(0.0, [0.0, 0.0], [[1e308, 0.0], [0.0, 1.0]])
    mu = np.zeros(2)
    with pytest.raises(EvaluationError, match="non-finite quadratic summary") as exc_info:
        quadratic_approx(model, None, mu, np.array([1.5, 1.0]), 0, 1)
    np.testing.assert_array_equal(exc_info.value.node, mu)


def test_summary_validation():
    with pytest.raises(ValueError):
        QuadraticSummary(np.nan, np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        QuadraticSummary(0.0, np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError):
        quadratic_approx(DenseQuadratic(0, [0], [[1]]), None, np.zeros(1), np.ones(1), 0, 0)
    with pytest.raises(ValueError):
        quadratic_approx(
            DenseQuadratic(0, [0], [[1]]), None, np.zeros(1), -np.ones(1), 0, 1
        )


def test_full_period_values():
    # frozen: next power of two at or above d
    assert full_period(1) == 1
    assert full_period(2) == 2
    assert full_period(3) == 4
    assert full_period(512) == 512
    assert full_period(6000) == 8192
    with pytest.raises(ValueError):
        full_period(0)
