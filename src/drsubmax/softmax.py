"""Smooth-max potential used by the packing solvers.

smax_eta(z) = eta * ln(sum_j exp(z_j / eta)) is a smooth upper bound on
max_j z_j.  All computations are max-shifted so that small eta (large
z/eta) never overflows.
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
    zmax = z.max(axis=-1)
    s = zmax + p.eta * np.log(np.exp((z - zmax[..., None]) / p.eta).sum(axis=-1))
    return float(s) if z.ndim == 1 else s


def smax_grad(z, p: SoftmaxParams) -> np.ndarray:
    """Softmax distribution exp(z_j/eta) / sum_l exp(z_l/eta), row by row.

    Entries are non-negative and renormalized to sum to 1 exactly.
    """
    z = _check_z(z, p)
    w = np.exp((z - z.max(axis=-1)[..., None]) / p.eta)
    return w / w.sum(axis=-1)[..., None]


def increment_bound(x, d, A, p: SoftmaxParams) -> float:
    """Second-order upper bound on smax(A(x+d)).

    Returns smax(Ax) + <A^T grad smax(Ax), d + ||Ax||_inf * (1/eta) *
    pinv(x) * (d o d)>, where pinv inverts nonzero entries of x and maps
    zero to zero.  Valid under the hypothesis (1/eta) * ||Ad||_inf <= 1/2,
    which is checked and reported if violated.
    """
    x = np.asarray(x, dtype=float)
    d = np.asarray(d, dtype=float)
    A = np.asarray(A, dtype=float)
    if A.shape != (p.m, x.size) or d.shape != x.shape:
        raise ValueError("inconsistent dimensions")
    if np.any(x < 0) or np.any(d < 0) or np.any(A < 0):
        raise ValueError("x, d and A must be non-negative")
    Ad = A @ d
    if Ad.size and float(np.abs(Ad).max()) / p.eta > 0.5 + 1e-12:
        raise ValueError(
            "hypothesis violated: (1/eta) * ||A d||_inf = "
            f"{float(np.abs(Ad).max()) / p.eta:.6g} > 1/2"
        )
    Ax = A @ x
    g = smax_grad(Ax, p)
    ax_inf = float(Ax.max()) if Ax.size else 0.0
    pinv = np.zeros_like(x)
    nz = x > 0
    pinv[nz] = 1.0 / x[nz]
    correction = ax_inf * (1.0 / p.eta) * pinv * (d * d)
    return smax(Ax, p) + float((A.T @ g) @ (d + correction))
