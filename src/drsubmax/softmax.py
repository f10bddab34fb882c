"""Smooth-max potential used by the packing solvers.

smax_eta(z) = eta * ln(sum_j exp(z_j / eta)) is a smooth upper bound on
max_j z_j.  All computations are max-shifted so that small eta (large
z/eta) never overflows.  The paper's second-order bound on the increase
of smax is a step of its analysis, not of the solvers, so it is checked
by the tests and not shipped here.

The public `smax` and `smax_grad` check their input (shape and finite
entries) and then run the one kernel `_smax_dist`, which returns both from
the same exponentials; the packing loop calls it once per iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SoftmaxParams:
    """Smoothing parameter and expected row count."""

    eta: float
    m: int

    def __post_init__(self):
        if not (self.eta > 0):
            raise ValueError(f"eta must be positive, got {self.eta}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")


def _check_z(z, p: SoftmaxParams) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.size == 0:
        raise ValueError("empty input vector")
    if z.ndim not in (1, 2) or z.shape[-1] != p.m:
        raise ValueError(f"expected vectors of length {p.m}, got shape {z.shape}")
    if not np.isfinite(z).all():
        raise ValueError("non-finite entries in input vector")
    return z


def smax(z, p: SoftmaxParams):
    """eta * ln(sum exp(z/eta)), max-shifted for stability.

    A float for a vector z; for a (k, m) matrix, the k row values.
    """
    z = _check_z(z, p)
    s = _smax_dist(z, p)[0]
    return float(s) if z.ndim == 1 else s


def smax_grad(z, p: SoftmaxParams) -> np.ndarray:
    """Softmax distribution exp(z_j/eta) / sum_l exp(z_l/eta), row by row.

    Entries are non-negative and renormalized to sum to 1 exactly.
    """
    return _smax_dist(_check_z(z, p), p)[1]


def _smax_dist(z: np.ndarray, p: SoftmaxParams):
    """(smax, smax_grad) of each row of a checked z (a vector or a (k, m)
    matrix), from one exponential of the max-shifted rows."""
    zmax = z.max(axis=-1)
    w = np.exp((z - zmax[..., None]) / p.eta)
    total = w.sum(axis=-1)
    return zmax + p.eta * np.log(total), w / total[..., None]
