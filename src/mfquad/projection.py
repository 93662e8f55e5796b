"""Quadratic loss summaries from antithetic gradient evaluations.

Evaluating a loss and its gradient at reflected node pairs of the sign
sequence yields, per pair, an unbiased-by-construction average gradient and
a diagonal curvature estimate from the gradient difference along the step.
Averaged over one aligned full period of the sequence, the curvature
estimate is exactly the Hessian diagonal for any quadratic loss; a single
pair sees it contaminated by off-diagonal terms, bounded coordinate-wise by
``sum_j |A_ij| sigma_j / sigma_i``.

A model with ``evaluate_nodes`` (the logistic model) is evaluated on each
case's whole block of nodes in one call; any other model (the MLP, the
quadratic oracle) one ``evaluate`` call per node.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .quadrature import reflected_nodes

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
        if not (math.isfinite(loss) and np.isfinite(grad).all() and np.isfinite(hess).all()):
            raise ValueError("summary entries must be finite")
        object.__setattr__(self, "loss", loss)
        object.__setattr__(self, "grad", grad)
        object.__setattr__(self, "hess", hess)


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


def quadratic_approx(
    model,
    case,
    mu: np.ndarray,
    sigma: np.ndarray,
    k_start: int,
    n_pairs: int,
) -> QuadraticSummary:
    """Project one case's loss onto a diagonal quadratic around ``mu``.

    Evaluates ``(loss, grad)`` at the reflected nodes ``mu +- sigma * s_k``
    for ``n_pairs`` consecutive sign vectors starting at ``k_start``.  The
    averaged gradients give the linear term; the gradient differences along
    the signed step give the curvature diagonal; the loss constant is the
    node average minus the curvature's own contribution, so that for any
    quadratic with matching diagonal the returned triple reproduces the
    loss value, gradient, and curvature at ``mu`` exactly.

    Coordinates with ``sigma == 0`` are never displaced and get curvature 0.

    A model with ``evaluate_nodes`` gets the ``(2 * n_pairs, d)`` block of
    nodes, plus nodes first, in one call, and the sums are formed over the
    block.  Any other model is evaluated node by node, pair by pair, keeping
    at most three of its gradients alive.  Both paths add each pair's terms
    in pair order into zeroed sums, so they give the same bits.

    A non-finite evaluation makes the sums non-finite, so one check of the
    summary covers every node.  Only when it fails are the nodes evaluated
    again one by one, plus before minus, pair by pair, and the first
    non-finite one is named in the ``EvaluationError``.
    """
    mu = np.asarray(mu, dtype=np.float64).ravel()
    sigma = np.asarray(sigma, dtype=np.float64).ravel()
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be positive, got {n_pairs}")
    d = mu.shape[0]

    signs, nodes = reflected_nodes(mu, sigma, k_start, n_pairs)
    loss_sum = 0.0
    grad_sum = np.zeros(d)
    curv_sum = np.zeros(d)
    evaluate_nodes = getattr(model, "evaluate_nodes", None)
    # Overflow and NaN are caught by the summary check below, not warned of.
    with np.errstate(over="ignore", invalid="ignore"):
        if evaluate_nodes is None:
            # Each new plus node is evaluated while the last pair's gradients
            # are alive, so at most three are: a fourth d = 25,450 gradient
            # moves the heap top and costs the MLP minor page faults on every
            # case.
            pair = np.empty(d)  # grad_p + grad_m, then (grad_p - grad_m) * s
            for s, plus, minus in zip(signs, nodes[0], nodes[1]):
                loss_p, grad_p = model.evaluate(plus, case)
                loss_m, grad_m = model.evaluate(minus, case)
                loss_sum += float(loss_p) + float(loss_m)
                grad_sum += np.add(grad_p, grad_m, out=pair)
                np.subtract(grad_p, grad_m, out=pair)
                curv_sum += np.multiply(pair, s, out=pair)
        else:
            # The same sums over the whole block: each pair's row is added
            # in turn into the zeroed sums, as above.
            losses, grads = evaluate_nodes(nodes.reshape(2 * n_pairs, d), case)
            for loss in (losses[:n_pairs] + losses[n_pairs:]).tolist():
                loss_sum += loss
            plus, minus = grads[:n_pairs], grads[n_pairs:]
            for row in plus + minus:
                grad_sum += row
            diff = plus - minus
            diff *= signs
            for row in diff:
                curv_sum += row
            pair = diff[0]  # scratch for the lines below

        # The returned arrays are allocated last, so they sit above this
        # call's temporaries in the heap.  Were they below, freeing the node
        # block on return would leave a large free heap top, which glibc's
        # malloc gives back to the kernel, and the next case would fault
        # those pages in again (about 400 minor page faults per case at
        # d = 25,450, a third of its time).
        n_evals = 2.0 * n_pairs
        grad = grad_sum / n_evals
        hess = np.divide(
            curv_sum, np.multiply(sigma, n_evals, out=pair), out=np.zeros(d), where=sigma > 0
        )
        loss = loss_sum / n_evals - 0.5 * float(hess @ np.square(sigma, out=pair))
        try:
            return QuadraticSummary(loss, grad, hess)
        except ValueError as err:
            for node in nodes.swapaxes(0, 1).reshape(2 * n_pairs, d):
                _evaluate(model, node, case)
            # every node is finite, but the sums overflowed
            raise EvaluationError(
                f"non-finite quadratic summary around mean {_one_line(mu)}", mu
            ) from err
