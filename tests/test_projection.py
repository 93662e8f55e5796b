"""Tests for the quadratic projection of losses onto diagonal summaries.

Frozen values were worked out by hand before implementation: for the
isotropic bowl in two dimensions one pair gives (0, [0,0], [1,1]); for the
pure cross term theta_0*theta_1 one pair gives curvature [1,1] (fully
contaminated) while two pairs cancel it to [0,0].
"""

import warnings

import numpy as np
import pytest

import oracles
from mfquad.models import Dataset, LogisticModel, MlpModel, QuadraticOracleModel
from mfquad.projection import (
    EvaluationError,
    _all_finite,
    _quadratic_approx,
    full_period,
    quadratic_approx,
)
from mfquad.quadrature import reflected_nodes


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


class FixedSums:
    """A model whose ``pair_sums`` gives the same three sums for every case."""

    def __init__(self, loss_sum, grad_sum, curv_sum):
        self.sums = loss_sum, grad_sum, curv_sum

    def pair_sums(self, case, mu, sigma, k_start, n_pairs):
        loss_sum, grad_sum, curv_sum = self.sums
        return loss_sum, grad_sum.copy(), curv_sum.copy()


@pytest.mark.parametrize("displaced", ["all", "none", "mixed", "one"])
@pytest.mark.parametrize("n_pairs", [1, 3])
def test_curvature_divides_where_sigma_is_positive(displaced, n_pairs):
    # quadratic_approx divides all of the curvature sum when every sigma is
    # positive and gathers the displaced entries otherwise; either way each
    # entry gets the masked division of oracles.summary, bit for bit, and
    # an undisplaced one +0.0 whatever its sum holds.
    rng = np.random.Generator(np.random.Philox(40 + n_pairs))
    d = 3000
    sigma = 10.0 ** rng.uniform(-6.0, 2.0, size=d)
    if displaced == "none":
        sigma[:] = 0.0
    elif displaced == "mixed":
        sigma[rng.random(d) < 0.97] = 0.0
    elif displaced == "one":
        sigma[np.arange(d) != 1234] = 0.0
    curv_sum = rng.standard_normal(d)
    curv_sum[::7] = -0.0
    model = FixedSums(rng.standard_normal(), rng.standard_normal(d), curv_sum)
    got = quadratic_approx(model, 0, rng.standard_normal(d), sigma, 5, n_pairs)
    want = oracles.summary(model.sums, sigma, n_pairs)
    assert np.float64(got.loss).tobytes() == np.float64(want.loss).tobytes()
    assert got.grad.tobytes() == want.grad.tobytes()
    assert got.hess.tobytes() == want.hess.tobytes()
    assert np.count_nonzero(got.hess) == np.count_nonzero(sigma[curv_sum != 0.0])


class WeightedBowl:
    """loss = 0.5 * sum(w * theta**2), batched; a negative weight at a zero
    coordinate gives -0.0 gradients, whose pair sum stays -0.0."""

    def __init__(self, w):
        self.w = np.asarray(w, dtype=float)

    def evaluate(self, theta, case):
        losses, grads = self.evaluate_nodes(theta[None, :], case)
        return float(losses[0]), grads[0]

    def evaluate_nodes(self, nodes, case):
        return 0.5 * np.vecdot(nodes * nodes, self.w), nodes * self.w


def _block_models():
    rng = np.random.Generator(np.random.Philox(31))
    features = rng.standard_normal((5, 7))
    features[:, 2] = 0.0  # a zero feature column
    logistic = LogisticModel(Dataset(features, np.array([1, 0, 1, 1, 0])))
    w = rng.uniform(-2.0, 2.0, size=7)
    w[[2, 5]] = -1.0
    return {"logistic": logistic, "bowl": WeightedBowl(w)}


@pytest.mark.parametrize("name", ["logistic", "bowl"])
@pytest.mark.parametrize("n_pairs", [1, 2, 3, 5])
def test_block_sums_match_per_node_oracle(name, n_pairs, monkeypatch):
    # A block of nodes evaluated in one call and summed whole, row by row
    # into zeroed sums, keeps the per-node loop's order, so every bit and
    # every signed zero matches, at zero features, zero means and
    # undisplaced coordinates; the model's own pair_sums agrees to rounding.
    model = _block_models()[name]
    rng = np.random.Generator(np.random.Philox(n_pairs))
    mu = rng.standard_normal(7)
    sigma = rng.uniform(0.1, 1.5, size=7)
    mu[[2, 4]] = 0.0
    mu[5] = -0.0
    sigma[[2, 5, 6]] = 0.0
    if name == "logistic":
        evaluate_nodes = lambda nodes, case: oracles.logistic_evaluate_nodes(model, nodes, case)
    else:
        evaluate_nodes = model.evaluate_nodes
    sums = oracles.block_sums(evaluate_nodes, 1, mu, sigma, 6, n_pairs)
    got = oracles.summary(sums, sigma, n_pairs)
    # the oracle calls evaluate node by node, the logistic model's in scalar
    # arithmetic
    monkeypatch.setattr(LogisticModel, "evaluate", oracles.logistic_evaluate)
    want = oracles.quadratic_approx(model, 1, mu, sigma, 6, n_pairs)
    assert np.float64(got.loss).tobytes() == np.float64(want.loss).tobytes()
    assert got.grad.tobytes() == want.grad.tobytes()
    assert got.hess.tobytes() == want.hess.tobytes()
    fast = quadratic_approx(model, 1, mu, sigma, 6, n_pairs)
    assert fast.loss == pytest.approx(want.loss, rel=1e-14)
    np.testing.assert_allclose(fast.grad, want.grad, rtol=1e-14, atol=1e-15)
    np.testing.assert_allclose(fast.hess, want.hess, rtol=1e-14, atol=1e-15)
    assert np.all(fast.hess[[2, 5, 6]] == 0.0)


def _index_models():
    """A logistic model, a power-of-two MLP (pair sums) and an MLP whose
    hidden size is no power of two (evaluated node by node)."""
    rng = np.random.Generator(np.random.Philox(21))
    data = Dataset(rng.random((6, 9)), np.array([0, 1, 1, 0, 1, 0]))
    multi = Dataset(rng.random((6, 9)), np.array([0, 2, 1, 2, 1, 0]))
    return {
        "logistic": LogisticModel(data, h_prior=3.0),
        "mlp": MlpModel(multi, layer_sizes=(9, 4, 3)),
        "mlp-per-node": MlpModel(multi, layer_sizes=(9, 3, 3)),
    }


@pytest.mark.parametrize("name", ["logistic", "mlp", "mlp-per-node"])
@pytest.mark.parametrize("n_pairs", [1, 3])
def test_indexed_summary_is_the_full_one_gathered(name, n_pairs):
    # The final epoch asks the kernel for the survivors' entries only: they,
    # and the loss, are bit for bit those of the full summary.  Coordinates outside
    # the index sit at sigma = 0; some inside it do too.
    model = _index_models()[name]
    d = model.n_params
    rng = np.random.Generator(np.random.Philox(n_pairs))
    for trial in range(4):
        index = rng.permutation(d)[: max(1, d // 4)]  # unsorted, W1 and later
        mu = np.zeros(d)
        sigma = np.zeros(d)
        mu[index] = rng.standard_normal(index.size)
        sigma[index] = rng.uniform(0.05, 0.5, index.size) * (rng.random(index.size) < 0.9)
        k_start = int(rng.integers(0, 2**40))
        full = quadratic_approx(model, trial, mu, sigma, k_start, n_pairs)
        part = _quadratic_approx(model, trial, mu, sigma, k_start, n_pairs, index)
        assert part.loss == full.loss
        assert part.grad.tobytes() == full.grad[index].tobytes()
        assert part.hess.tobytes() == full.hess[index].tobytes()


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


def test_overflowing_summary_is_an_evaluation_error():
    # every evaluation is finite, but the gradient difference along the step
    # overflows; that is a numerical failure (exit 4), not a config error,
    # and it is reported by the error alone, with no RuntimeWarning
    model = QuadraticOracleModel(0.0, [0.0, 0.0], [[1e308, 0.0], [0.0, 1.0]])
    mu = np.zeros(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError, match="non-finite quadratic summary") as exc_info:
            quadratic_approx(model, None, mu, np.array([1.5, 1.0]), 0, 1)
    np.testing.assert_array_equal(exc_info.value.node, mu)


class TwoBadNodes:
    """Finite bowl except at two nodes; its pair sums come from one block."""

    def __init__(self, bad):
        self.bad = bad
        self.pair_sums_calls = 0

    def evaluate(self, theta, case):
        if any(np.array_equal(theta, b) for b in self.bad):
            return np.nan, np.full_like(theta, np.inf)
        return float(theta @ theta), 2.0 * theta

    def evaluate_nodes(self, nodes, case):
        losses, grads = zip(*(self.evaluate(t, case) for t in nodes))
        return np.array(losses), np.array(grads)

    def pair_sums(self, case, mu, sigma, k_start, n_pairs):
        self.pair_sums_calls += 1
        return oracles.block_sums(self.evaluate_nodes, case, mu, sigma, k_start, n_pairs)


def test_batched_error_names_the_node_of_the_per_node_loop():
    # the pair sums see every node at once; the error must still name the
    # first bad node in pair order, plus before minus
    rng = np.random.default_rng(4)
    mu, sigma = rng.standard_normal(5), rng.uniform(0.5, 1.5, size=5)
    _, nodes = reflected_nodes(mu, sigma, 3, 3)
    model = TwoBadNodes([nodes[0, 2], nodes[1, 1]])  # plus of pair 2, minus of pair 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError, match="non-finite loss evaluation") as got:
            quadratic_approx(model, None, mu, sigma, 3, 3)
    assert model.pair_sums_calls == 1
    with pytest.raises(EvaluationError) as want:
        oracles.quadratic_approx(model, None, mu, sigma, 3, 3)
    assert got.value.node.tobytes() == want.value.node.tobytes() == nodes[1, 1].tobytes()
    assert str(got.value) == str(want.value)


def test_non_finite_mlp_pair_sums_name_the_first_bad_node(monkeypatch):
    # an MLP whose pair sums are not finite is re-evaluated node by node,
    # and the error names the node that the per-node oracle names
    rng = np.random.Generator(np.random.Philox(12))
    data = Dataset(rng.random((4, 6)), np.array([0, 1, 2, 1]))
    model = MlpModel(data, layer_sizes=(6, 4, 3))
    mu = rng.standard_normal(model.n_params)
    sigma = rng.uniform(0.1, 0.5, size=model.n_params)
    tanh = np.tanh
    monkeypatch.setattr(np, "tanh", lambda z, **kw: tanh(np.where(z > 1.6, np.nan, z), **kw))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError, match="non-finite loss evaluation") as got:
            quadratic_approx(model, 2, mu, sigma, 5, 2)
    with pytest.raises(EvaluationError) as want:
        oracles.quadratic_approx(model, 2, mu, sigma, 5, 2)
    assert got.value.node.tobytes() == want.value.node.tobytes()


def test_summary_validation():
    with pytest.raises(ValueError):
        quadratic_approx(DenseQuadratic(0, [0], [[1]]), None, np.zeros(1), np.ones(1), 0, 0)
    with pytest.raises(ValueError):
        quadratic_approx(
            DenseQuadratic(0, [0], [[1]]), None, np.zeros(1), -np.ones(1), 0, 1
        )


class FixedSummary(FixedSums):
    """Pair sums whose summary over one pair at ``sigma = 1`` has gradient
    ``grad`` and curvature ``hess``; every node evaluates finite."""

    def __init__(self, grad, hess):
        super().__init__(0.0, 2.0 * grad, 2.0 * hess)

    def evaluate(self, theta, case):
        return 0.0, np.zeros_like(theta)


def _summarize(grad, hess):
    d = grad.shape[0]
    return quadratic_approx(FixedSummary(grad, hess), 0, np.zeros(d), np.ones(d), 0, 1)


def test_summary_finiteness_check_is_exact():
    # finite entries whose dot overflows, or is inf - inf, are accepted,
    # also under the trainer's overflow-raising errstate
    big = np.array([1e300, 1e300, -1e300])
    for grad, hess in ((big, big), (np.array([1e300, 1e300]), np.array([1e300, -1e300]))):
        with np.errstate(over="raise", invalid="raise"):
            got = _summarize(grad, hess)
        assert got.grad.tobytes() == grad.tobytes() and got.hess.tobytes() == hess.tobytes()
    # a single non-finite entry of either vector is refused, also beside a
    # 0 of the other one
    for bad in (np.inf, -np.inf, np.nan):
        for at in (0, 2, 4):
            for other in (np.ones(5), np.zeros(5)):
                vec = np.ones(5)
                vec[at] = bad
                for grad, hess in ((vec, other), (other, vec)):
                    with np.errstate(over="ignore", invalid="ignore"):
                        assert not _all_finite(grad, hess)
                    with np.errstate(over="raise", invalid="raise"):
                        with pytest.raises(EvaluationError, match="non-finite quadratic summary"):
                            _summarize(grad, hess)
    with np.errstate(over="raise", invalid="raise"):
        assert _summarize(np.zeros(0), np.zeros(0)).grad.shape == (0,)


def test_full_period_values():
    # frozen: next power of two at or above d
    assert full_period(1) == 1
    assert full_period(2) == 2
    assert full_period(3) == 4
    assert full_period(512) == 512
    assert full_period(6000) == 8192
    with pytest.raises(ValueError):
        full_period(0)
