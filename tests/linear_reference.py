"""Directly coded classic parallel packing scheme for linear objectives.

Kept as a test fixture: the multiplicative-update solver restricted to a
linear objective, fixed threshold M, and eta = eps/(2 ln m) must produce
the same iterates as solve_packing_monotone run in figure1_lambda mode.
"""

import math

import numpy as np

from drsubmax.softmax import smax_grad


def linear_packing_reference(weights, A, eps, M, max_iters=100_000):
    """Iterates of the classic scheme; returns the list of x vectors."""
    weights = np.asarray(weights, dtype=float)
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    eta = eps / (2.0 * math.log(max(m, 2)))
    x = eps / (n * A.max(axis=0))
    iterates = [x.copy()]
    for _ in range(max_iters):
        fx = float(weights @ np.minimum(x, 1.0))
        if fx > (1.0 - math.exp(-1.0 + 10.0 * eps)) * M:
            break
        c = weights.copy()
        c[x > 1.0] = 0.0
        score = A.T @ smax_grad(A @ x, eta)
        mvec = np.zeros(n)
        live = c > 1e-15 * M
        mvec[live] = np.maximum(1.0 - M * score[live] / c[live], 0.0)
        d = eta * x * mvec
        if float(d.sum()) <= 0.0:
            break
        x = x + d
        iterates.append(x.copy())
    return iterates
