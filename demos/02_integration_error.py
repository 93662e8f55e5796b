"""Head-to-head integration error of the five node constructions.

Task: estimate E[f(theta)] for theta with independent coordinates, using a
handful of function evaluations.  We compare plain Monte Carlo, mean- and
moment-matched Monte Carlo, randomized block simplex rules, and the
deterministic reflected-pair rule, on two integrands:

  * a pure second moment  f(theta) = theta_0**2         (hard for MC)
  * a pair product        f(theta) = phi1(theta_1) * phi1(theta_2)

phi1 is the standardized first-degree polynomial, so both integrands have
a known exact answer under the sampled law.  Matched and reflected rules
hit these targets exactly; sampling noise only shrinks like 1/sqrt(n).
"""

import numpy as np

from mfquad import (
    NodeSet,
    blocked_simplex_standard,
    mean_matched_nodes,
    moment_matched_nodes,
    orthonormal_basis,
    preset,
    reflected_nodes,
    trial_rng,
)

d = 4
dist = preset("gauss", d)
basis = orthonormal_basis(dist, max_degree=2)
n_trials = 300
budgets = [4, 16, 64]

second_moment_truth = dist.mean[0] ** 2 + dist.std[0] ** 2


def f_second(nodes):
    return nodes[:, 0] ** 2


def f_pair(nodes):
    # coordinates 1 and 2 straddle the blocked rule's {0,1} | {2,3} cut
    return basis.evaluate(1, 1, nodes[:, 1]) * basis.evaluate(2, 1, nodes[:, 2])


def build(method, n, rng):
    if method == "mc":
        return NodeSet(dist.sample(n, rng), np.full(n, 1.0 / n))
    if method == "qmc-mean":
        return mean_matched_nodes(dist, n, rng)
    if method == "qmc-var":
        return moment_matched_nodes(dist, n, rng)[0]
    if method == "blocked-simplex":
        raw = blocked_simplex_standard(d, 2, rng, n_groups=n // 3)
        return NodeSet(dist.mean + dist.std * raw.nodes, raw.weights)
    _, nodes = reflected_nodes(dist.mean, dist.std, 0, n // 2)
    return NodeSet(nodes.reshape(n, d), np.full(n, 1.0 / n))


for label, func, truth in [
    ("f = theta_0^2", f_second, second_moment_truth),
    ("f = phi1(theta_1) phi1(theta_2)", f_pair, 0.0),
]:
    print(f"\nmean |error| for {label}  (truth = {truth:g}, {n_trials} trials)")
    header = "  method          " + "".join(f"  n={n:<4d}" for n in budgets)
    print(header)
    for method in ("mc", "qmc-mean", "qmc-var", "blocked-simplex", "cross-polytope"):
        cells = []
        for n in budgets:
            n_use = (n // 3) * 3 if method == "blocked-simplex" else n
            errs = []
            for trial in range(n_trials):
                ns = build(method, n_use, trial_rng(7, trial))
                errs.append(abs(float(ns.weights @ func(ns.nodes)) - truth))
            cells.append(f"  {np.mean(errs):.1e}")
        print(f"  {method:<16s}" + "".join(cells))

print(
    "\nReadings: the matched rules are exact for theta^2 by construction.  A\n"
    "product across the block boundary defeats the blocked rule, but the\n"
    "reflected-pair rule stays exact once the window covers the pair's\n"
    "cancellation period (n >= 4).  Monte Carlo improves ~2x per 4x budget;\n"
    "exact rules have nothing left to improve."
)
