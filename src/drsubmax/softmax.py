"""Smooth-max potential used by the packing solvers.

smax_eta(z) = eta * ln(sum_j exp(z_j / eta)) is a smooth upper bound on
max_j z_j.  All computations are max-shifted so that small eta (large
z/eta) never overflows.  The paper's second-order bound on the increase
of smax is a step of its analysis, not of the solvers, so it is checked
by the tests and not shipped here.

The public `smax` and `smax_grad` check their input (eta > 0, finite
entries) and then run the one kernel `_smax_dist`, which returns both from
the same exponentials; the packing loop calls it once per iteration.
"""

from __future__ import annotations

import numpy as np


def _check_z(z, eta: float) -> np.ndarray:
    if not (eta > 0):
        raise ValueError(f"eta must be positive, got {eta}")
    z = np.asarray(z, dtype=float)
    if z.size == 0:
        raise ValueError("empty input vector")
    if z.ndim not in (1, 2):
        raise ValueError(f"expected a vector or a matrix, got shape {z.shape}")
    if not np.isfinite(z).all():
        raise ValueError("non-finite entries in input vector")
    return z


def smax(z, eta: float):
    """eta * ln(sum exp(z/eta)), max-shifted for stability.

    A float for a vector z; for a (k, m) matrix, the k row values.
    """
    z = _check_z(z, eta)
    s = _smax_dist(z, eta)[0]
    return float(s) if z.ndim == 1 else s


def smax_grad(z, eta: float) -> np.ndarray:
    """Softmax distribution exp(z_j/eta) / sum_l exp(z_l/eta), row by row.

    Entries are non-negative and renormalized to sum to 1 exactly.
    """
    return _smax_dist(_check_z(z, eta), eta)[1]


def _smax_dist(z: np.ndarray, eta: float):
    """(smax, smax_grad) of each row of a checked z (a vector or a (k, m)
    matrix), from one exponential of the max-shifted rows, computed in
    place in one buffer."""
    zmax = np.maximum.reduce(z, axis=-1)
    w = z - zmax[..., None]
    np.divide(w, eta, out=w)
    np.exp(w, out=w)
    total = np.add.reduce(w, axis=-1)
    return zmax + eta * np.log(total), np.divide(w, total[..., None], out=w)
