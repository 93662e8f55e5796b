"""Quadratic loss summaries from antithetic gradient evaluations.

Evaluating a loss and its gradient at reflected node pairs of the sign
sequence yields, per pair, an unbiased-by-construction average gradient and
a diagonal curvature estimate from the gradient difference along the step.
Averaged over one aligned full period of the sequence, the curvature
estimate is exactly the Hessian diagonal for any quadratic loss; a single
pair sees it contaminated by off-diagonal terms, bounded coordinate-wise by
``sum_j |A_ij| sigma_j / sigma_i``.

The summary needs only three sums over the pairs: of the losses, of the
gradients ``g+ + g-``, and of the signed differences ``(g+ - g-) * s_k``
(the Hadamard-probe diagonal estimator of Bekas, Kokiopoulou and Saad,
2007).  A model with ``pair_sums`` (the logistic model, and the MLP when
its hidden size is a power of two) forms them itself; any other model is
evaluated one ``evaluate`` call per node.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .quadrature import _coordinates, reflected_nodes

__all__ = ["QuadraticSummary", "EvaluationError", "quadratic_approx", "full_period"]


class EvaluationError(RuntimeError):
    """Loss evaluation produced a non-finite value; carries the node."""

    def __init__(self, message: str, node: np.ndarray):
        super().__init__(message)
        self.node = np.asarray(node, dtype=np.float64)


@dataclass(frozen=True)
class QuadraticSummary:
    """Loss value, gradient, and Hessian diagonal at an expansion point."""

    loss: float
    grad: np.ndarray
    hess: np.ndarray

    def __post_init__(self):
        grad = np.asarray(self.grad, dtype=np.float64).ravel()
        hess = np.asarray(self.hess, dtype=np.float64).ravel()
        if grad.shape != hess.shape:
            raise ValueError("grad and hess must have equal length")
        loss = float(self.loss)
        with np.errstate(over="ignore", invalid="ignore"):
            if not (math.isfinite(loss) and _all_finite(grad, hess)):
                raise ValueError("summary entries must be finite")
        object.__setattr__(self, "loss", loss)
        object.__setattr__(self, "grad", grad)
        object.__setattr__(self, "hess", hess)


def _all_finite(grad: np.ndarray, hess: np.ndarray) -> bool:
    """Whether every entry of two equal-length vectors is finite; the
    caller ignores overflow and invalid operations.

    A non-finite entry makes ``grad @ hess`` non-finite (an infinity times
    0 is NaN), so one product settles the common case.  Only a non-finite
    product, which finite entries give when it overflows, is settled by
    scanning both vectors.
    """
    if math.isfinite(grad @ hess):
        return True
    return bool(np.isfinite(grad).all() and np.isfinite(hess).all())


def full_period(d: int) -> int:
    """Pairs in one full period of the sign sequence: ``2**ceil(log2 d)``.

    Averaging this many consecutive aligned pairs integrates every mixed
    second moment exactly, so curvature contamination cancels completely.
    """
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    return 1 << (d - 1).bit_length()


def _one_line(a: np.ndarray) -> str:
    """``repr(a)`` on a single line, summarized beyond 1000 entries."""
    return np.array_repr(a, max_line_width=sys.maxsize)


def _evaluate(model, theta: np.ndarray, case) -> tuple[float, np.ndarray]:
    loss, grad = model.evaluate(theta, case)
    loss = float(loss)
    grad = np.asarray(grad, dtype=np.float64)
    if not (np.isfinite(loss) and np.isfinite(grad).all()):
        raise EvaluationError(
            f"non-finite loss evaluation (loss={loss!r}) at node {_one_line(theta)}",
            theta,
        )
    return loss, grad


def quadratic_approx(model, case, mu: np.ndarray, sigma: np.ndarray, k_start: int,
                     n_pairs: int, index=None) -> QuadraticSummary:
    """Project one case's loss onto a diagonal quadratic around ``mu``.

    Evaluates ``(loss, grad)`` at the reflected nodes ``mu +- sigma * s_k``
    for ``n_pairs`` consecutive sign vectors starting at ``k_start``.  The
    averaged gradients give the linear term; the gradient differences along
    the signed step give the curvature diagonal; the loss constant is the
    node average minus the curvature's own contribution, so that for any
    quadratic with matching diagonal the returned triple reproduces the
    loss value, gradient, and curvature at ``mu`` exactly.

    Coordinates with ``sigma == 0`` are never displaced and get curvature 0;
    only the displaced ones are divided.

    With ``index``, a list of coordinates, ``grad`` and ``hess`` hold only
    those entries, bit for bit the full summary's ``[index]``, and the loss
    is the full summary's.  Every coordinate outside ``index`` must then
    have ``sigma == 0`` (ValueError otherwise), so that its curvature is 0.

    The sums come from ``model.pair_sums`` where the model has it and it
    does not return None.  Otherwise the nodes are evaluated one by one,
    pair by pair, keeping at most three of the model's gradients alive,
    and the full sums are gathered at ``index``.

    A non-finite evaluation makes the sums non-finite, so one check of the
    summary covers every node.  Only when it fails are the nodes evaluated
    again one by one, plus before minus, pair by pair, and the first
    non-finite one is named in the ``EvaluationError``.

    This entry checks ``n_pairs``, the lengths, ``sigma >= 0`` and
    ``index``, then calls the kernel, which ``trainer.run_epoch`` calls
    directly; the summary's finiteness check is the kernel's own.
    """
    mu = np.asarray(mu, dtype=np.float64).ravel()
    sigma = np.asarray(sigma, dtype=np.float64).ravel()
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be positive, got {n_pairs}")
    if mu.shape != sigma.shape:
        raise ValueError(f"shape mismatch: mu {mu.shape}, sigma {sigma.shape}")
    if (sigma < 0).any():
        raise ValueError("sigma must be nonnegative")
    if index is not None:
        index = _coordinates(index, sigma.shape[0])
        displaced = sigma > 0
        displaced[index] = False
        if displaced.any():
            raise ValueError("sigma must be 0 at every coordinate outside index")
    return _quadratic_approx(model, case, mu, sigma, k_start, n_pairs, index)


def _quadratic_approx(model, case, mu, sigma, k_start, n_pairs, index=None):
    """``quadratic_approx`` behind its checks, which the caller guarantees."""
    part = sigma if index is None else sigma[index]  # sigma at the summary's coordinates
    # one reduction in the common case, where every sigma is positive; the
    # displaced coordinates are gathered only when it is not
    every = not part.size or part.min() > 0
    pair_sums = getattr(model, "pair_sums", None)
    # Overflow and NaN are caught by the summary check below, not warned of.
    with np.errstate(over="ignore", invalid="ignore"):
        args = (case, mu, sigma, k_start, n_pairs) + (() if index is None else (index,))
        sums = None if pair_sums is None else pair_sums(*args)
        if sums is None:
            sums = _node_sums(model, case, mu, sigma, k_start, n_pairs)
            if index is not None:
                sums = sums[0], sums[1][index], sums[2][index]
        loss_sum, grad_sum, curv_sum = sums

        # the sums are fresh arrays, so grad and hess are formed in them:
        # scratch is the only other long array of a pair_sums case
        n_evals = 2.0 * n_pairs
        scratch = np.multiply(part, n_evals)
        grad = np.divide(grad_sum, n_evals, out=grad_sum)
        # the division runs only where sigma > 0: a masked pass over a
        # mostly false mask costs more than gathering its few true entries
        hess = curv_sum
        if every:
            np.divide(hess, scratch, out=hess)
        else:
            idx = (part > 0).nonzero()[0]
            hess_displaced = hess[idx] / scratch[idx]
            hess.fill(0.0)
            hess[idx] = hess_displaced
        if index is None:
            full_hess, square = hess, np.square(sigma, out=scratch)
        else:  # a dot over all of d sums in the full summary's order
            full_hess, square = np.zeros(sigma.shape[0]), np.square(sigma)
            full_hess[index] = hess
        loss = float(loss_sum) / n_evals - 0.5 * float(full_hess @ square)
        if math.isfinite(loss) and _all_finite(grad, hess):
            # built once, without repeating these checks in __post_init__
            summary = object.__new__(QuadraticSummary)
            summary.__dict__.update(loss=loss, grad=grad, hess=hess)
            return summary
        _, nodes = reflected_nodes(mu, sigma, k_start, n_pairs)
        for node in nodes.swapaxes(0, 1).reshape(2 * n_pairs, -1):
            _evaluate(model, node, case)
        # every node is finite, but the sums overflowed
        raise EvaluationError(f"non-finite quadratic summary around mean {_one_line(mu)}", mu)


def _node_sums(model, case, mu, sigma, k_start, n_pairs):
    """The three sums of ``quadratic_approx`` from one ``evaluate`` call per
    node, added pair by pair in order into zeroed sums."""
    d = mu.shape[0]
    signs, nodes = reflected_nodes(mu, sigma, k_start, n_pairs)
    loss_sum = 0.0
    grad_sum = np.zeros(d)
    curv_sum = np.zeros(d)
    # Each new plus node is evaluated while the last pair's gradients are
    # alive, so at most three are: a fourth long gradient moves the heap top
    # and costs minor page faults on every case.
    pair = np.empty(d)  # grad_p + grad_m, then (grad_p - grad_m) * s
    for s, plus, minus in zip(signs, nodes[0], nodes[1]):
        loss_p, grad_p = model.evaluate(plus, case)
        loss_m, grad_m = model.evaluate(minus, case)
        loss_sum += float(loss_p) + float(loss_m)
        grad_sum += np.add(grad_p, grad_m, out=pair)
        np.subtract(grad_p, grad_m, out=pair)
        curv_sum += np.multiply(pair, s, out=pair)
    return loss_sum, grad_sum, curv_sum
