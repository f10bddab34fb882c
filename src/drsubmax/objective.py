"""DR-submodular objective oracles.

Closed-form multilinear extensions (coverage, directed cut, linear) plus a
Monte-Carlo multilinear wrapper around an arbitrary set function.  Every
objective exposes a value oracle, a gradient oracle, and singleton values.

Values are extended beyond [0,1]^n by clamping at 1 (f(x) = f(x ^ 1)); the
gradient of a clamped coordinate is 0.  Negative entries are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

COVERAGE = "coverage"
DIRECTED_CUT = "directed-cut"
LINEAR = "linear"
SAMPLED = "sampled-set-function"

_CLOSED_FORM = (COVERAGE, DIRECTED_CUT, LINEAR)


@dataclass
class ObjectiveSpec:
    """A DR-submodular objective with value and gradient oracles.

    Use the classmethod constructors; the payload fields depend on `kind`.
    """

    kind: str
    n: int
    monotone: bool
    # coverage payload: universe weights and, per universe item, the list of
    # elements covering it (element-major `covers` is accepted on input).
    weights: Optional[np.ndarray] = None
    covered_by: Optional[list] = None
    covers: Optional[list] = None
    # directed cut payload
    arcs: Optional[list] = None
    # sampled payload
    set_fn: Optional[Callable] = None
    samples: int = 10_000
    seed: int = 0
    _out_arcs: list = field(default_factory=list, repr=False)
    _in_arcs: list = field(default_factory=list, repr=False)

    # -- constructors -----------------------------------------------------

    @classmethod
    def coverage(cls, weights: Sequence[float], covers: Sequence[Sequence[int]]):
        """Weighted coverage: element i covers the universe items covers[i]."""
        weights = np.asarray(weights, dtype=float)
        if not np.all(weights >= 0):
            raise ValueError("coverage weights must be non-negative")
        n = len(covers)
        u = len(weights)
        covered_by = [[] for _ in range(u)]
        for i, items in enumerate(covers):
            for item in items:
                if not (0 <= item < u):
                    raise ValueError(f"covers[{i}]: universe index {item} out of range")
                covered_by[item].append(i)
        return cls(kind=COVERAGE, n=n, monotone=True, weights=weights,
                   covered_by=covered_by, covers=[list(c) for c in covers])

    @classmethod
    def directed_cut(cls, n: int, arcs: Sequence[tuple]):
        """Weighted directed cut: sum over arcs (u, v, w) of w * x_u * (1 - x_v)."""
        out_arcs = [[] for _ in range(n)]
        in_arcs = [[] for _ in range(n)]
        clean = []
        for (u, v, w) in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u},{v}) out of range")
            if u == v:
                raise ValueError(f"self-loop ({u},{u}) not allowed")
            if not w >= 0:
                raise ValueError(f"arc ({u},{v}): negative weight {w}")
            out_arcs[u].append((v, float(w)))
            in_arcs[v].append((u, float(w)))
            clean.append((int(u), int(v), float(w)))
        return cls(kind=DIRECTED_CUT, n=n, monotone=False, arcs=clean,
                   _out_arcs=out_arcs, _in_arcs=in_arcs)

    @classmethod
    def linear(cls, weights: Sequence[float]):
        weights = np.asarray(weights, dtype=float)
        if not np.all(weights >= 0):
            raise ValueError("linear weights must be non-negative")
        return cls(kind=LINEAR, n=weights.size, monotone=True, weights=weights)

    @classmethod
    def sampled(cls, n: int, set_fn: Callable, monotone: bool,
                samples: int = 10_000, seed: int = 0):
        """Monte-Carlo multilinear wrapper around a black-box set function.

        `set_fn` maps a frozenset of element indices to a non-negative real.
        The estimator draws `samples` independent random sets R(x) with a
        fixed seed, so calls are pure and reproducible.
        """
        if samples < 1:
            raise ValueError("samples must be >= 1")
        return cls(kind=SAMPLED, n=n, monotone=monotone, set_fn=set_fn,
                   samples=samples, seed=seed)

    # -- helpers ----------------------------------------------------------

    def _prep(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"expected vector of length {self.n}, got shape {x.shape}")
        if np.any(x < 0):
            raise ValueError("negative entries are not allowed")
        return np.minimum(x, 1.0)

    def _sample_matrix(self, x: np.ndarray) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        return rng.random((self.samples, self.n)) < x

    # -- oracles ----------------------------------------------------------

    def eval(self, x) -> float:
        """Multilinear extension value F(x); entries above 1 are clamped."""
        x = self._prep(x)
        if self.kind == LINEAR:
            return float(self.weights @ x)
        if self.kind == COVERAGE:
            total = 0.0
            for w, elems in zip(self.weights, self.covered_by):
                miss = 1.0
                for i in elems:
                    miss *= 1.0 - x[i]
                total += w * (1.0 - miss)
            return total
        if self.kind == DIRECTED_CUT:
            total = 0.0
            for (u, v, w) in self.arcs:
                total += w * x[u] * (1.0 - x[v])
            return total
        # sampled
        rows = self._sample_matrix(x)
        vals = [self.set_fn(frozenset(np.flatnonzero(r))) for r in rows]
        return float(np.mean(vals))

    def eval_many(self, X) -> np.ndarray:
        """Vectorized eval for closed-form kinds; X has shape (k, n)."""
        X = np.minimum(np.asarray(X, dtype=float), 1.0)
        if self.kind == LINEAR:
            return X @ self.weights
        if self.kind == COVERAGE:
            total = np.zeros(X.shape[0])
            for w, elems in zip(self.weights, self.covered_by):
                miss = np.ones(X.shape[0])
                for i in elems:
                    miss *= 1.0 - X[:, i]
                total += w * (1.0 - miss)
            return total
        if self.kind == DIRECTED_CUT:
            total = np.zeros(X.shape[0])
            for (u, v, w) in self.arcs:
                total += w * X[:, u] * (1.0 - X[:, v])
            return total
        raise ValueError("eval_many is only available for closed-form kinds")

    def grad(self, x) -> np.ndarray:
        """Gradient of F at x ^ 1; coordinates clamped at 1 get gradient 0."""
        raw = np.asarray(x, dtype=float)
        if raw.shape != (self.n,):
            raise ValueError(f"expected vector of length {self.n}, got shape {raw.shape}")
        if np.any(raw < 0):
            raise ValueError("negative entries are not allowed")
        clamped = raw > 1.0
        x = np.minimum(raw, 1.0)
        if self.kind == LINEAR:
            g = self.weights.copy()
        elif self.kind == COVERAGE:
            g = np.zeros(self.n)
            for w, elems in zip(self.weights, self.covered_by):
                for i in elems:
                    prod = 1.0
                    for j in elems:
                        if j != i:
                            prod *= 1.0 - x[j]
                    g[i] += w * prod
        elif self.kind == DIRECTED_CUT:
            g = np.zeros(self.n)
            for u in range(self.n):
                for (v, w) in self._out_arcs[u]:
                    g[u] += w * (1.0 - x[v])
                for (src, w) in self._in_arcs[u]:
                    g[u] -= w * x[src]
        else:
            g = self._sampled_grad(x)
        g[clamped] = 0.0
        return g

    def _sampled_grad(self, x: np.ndarray) -> np.ndarray:
        # Common random numbers: the same sampled sets R are shared by all
        # coordinates, which removes most of the between-coordinate noise.
        rows = self._sample_matrix(x)
        g = np.zeros(self.n)
        for r in rows:
            base = frozenset(np.flatnonzero(r))
            for i in range(self.n):
                with_i = base | {i}
                without_i = base - {i}
                g[i] += self.set_fn(with_i) - self.set_fn(without_i)
        return g / self.samples

    def singleton_values(self) -> np.ndarray:
        """(f(1_1), ..., f(1_n)), evaluated exactly for every kind."""
        vals = np.zeros(self.n)
        for i in range(self.n):
            vals[i] = self.set_value(frozenset([i]))
        return vals

    def set_value(self, S) -> float:
        """Exact value at the 0/1 point 1_S (the underlying set function)."""
        S = frozenset(S)
        if self.kind == SAMPLED:
            return float(self.set_fn(S))
        ind = np.zeros(self.n)
        for i in S:
            ind[i] = 1.0
        return self.eval(ind)
