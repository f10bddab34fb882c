"""DR-submodular objective oracles.

Closed-form multilinear extensions (coverage, directed cut, linear) plus a
Monte-Carlo multilinear wrapper around an arbitrary set function.  Every
objective exposes a value oracle, a gradient oracle, and singleton values.
The closed forms are stored as index arrays, so each oracle is one array
formula over all universe items or arcs.

Values are extended beyond [0,1]^n by clamping at 1 (f(x) = f(x ^ 1)); the
gradient of a clamped coordinate is 0.

Each oracle has two layers: the public method (`eval`, `eval_many`,
`grad`, `grad_many`) checks the point, then the kernel (`_values`,
`_clamped_grad`) clamps it at 1, and coverage's gradient also handles a
zero complement there.  Below 1 both kernels skip the clamp, and the
gradient runs the formula alone (`_interior_grad`).  The constructors
have already rejected negative or non-finite weights.  Both solver loops
call the kernels.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

COVERAGE = "coverage"
DIRECTED_CUT = "directed-cut"
LINEAR = "linear"
SAMPLED = "sampled-set-function"

# the _copies kept besides the newest hold at most this many entries
# (rows * (n + incidences)): the few chain lengths a matroid solve meets
# again (where its fills stop, epoch after epoch) fit, while a packing
# ladder, whose live count only falls, keeps about one
COPIES_KEPT_ENTRIES = 1 << 14


@dataclass
class ObjectiveSpec:
    """A DR-submodular objective with value and gradient oracles.

    Use the classmethod constructors; the payload fields depend on `kind`.
    """

    kind: str
    n: int
    monotone: bool
    # linear: per-element weights; coverage: weights of the covered universe
    # items; directed cut: arc weights
    weights: Optional[np.ndarray] = None
    # coverage: the distinct (element, item) incidences in item-major order,
    # as element and covered-item index arrays, and the offset where each
    # covered item's run starts
    elems: Optional[np.ndarray] = None
    item: Optional[np.ndarray] = None
    starts: Optional[np.ndarray] = None
    # directed cut: tail and head of each arc
    tail: Optional[np.ndarray] = None
    head: Optional[np.ndarray] = None
    # sampled payload
    set_fn: Optional[Callable] = None
    samples: int = 10_000
    seed: int = 0
    # _copies(k) by k > 1, oldest first
    _batches: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    # -- constructors -----------------------------------------------------

    @classmethod
    def coverage(cls, weights: Sequence[float], covers: Sequence[Sequence[int]]):
        """Weighted coverage: element i covers the universe items covers[i].

        Each covers[i] is a set: an item listed twice is covered once.
        """
        weights = _weights(weights, "coverage")
        u = len(weights)
        pairs = set()
        for i, items in enumerate(covers):
            for item in items:
                if not (0 <= item < u):
                    raise ValueError(f"covers[{i}]: universe index {item} out of range")
                pairs.add((operator.index(item), i))
        items, elems = np.array(sorted(pairs), dtype=np.intp).reshape(-1, 2).T
        covered, starts, item = np.unique(items, return_index=True,
                                          return_inverse=True)
        return cls(kind=COVERAGE, n=len(covers), monotone=True,
                   weights=weights[covered], elems=elems, item=item, starts=starts)

    @classmethod
    def directed_cut(cls, n: int, arcs: Sequence[tuple]):
        """Weighted directed cut: sum over arcs (u, v, w) of w * x_u * (1 - x_v)."""
        tail, head, weights = [], [], []
        for (u, v, w) in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u},{v}) out of range")
            if u == v:
                raise ValueError(f"self-loop ({u},{u}) not allowed")
            if not 0 <= w < math.inf:
                raise ValueError(f"arc ({u},{v}): weight {w} is negative "
                                 "or not finite")
            tail.append(operator.index(u))
            head.append(operator.index(v))
            weights.append(float(w))
        return cls(kind=DIRECTED_CUT, n=n, monotone=False,
                   weights=np.array(weights), tail=np.array(tail, dtype=np.intp),
                   head=np.array(head, dtype=np.intp))

    @classmethod
    def linear(cls, weights: Sequence[float]):
        weights = _weights(weights, "linear")
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

    def _check(self, x, ndim: int = 1) -> np.ndarray:
        """x as C-ordered floats: a vector of length n (ndim 1) or a (k, n)
        matrix."""
        x = np.asarray(x, dtype=float, order="C")
        if x.ndim != ndim or x.shape[-1] != self.n:
            raise ValueError(f"expected {'vector' if ndim == 1 else 'rows'} of "
                             f"length {self.n}, got shape {x.shape}")
        if x.min(initial=0.0) < 0:
            raise ValueError("negative entries are not allowed")
        return x

    def _copies(self, k: int) -> "ObjectiveSpec":
        """k disjoint copies of this closed form, as one objective on k * n
        elements: copy j's elements are j * n .. j * n + n - 1.

        The sizes built last are kept, within COPIES_KEPT_ENTRIES entries
        besides the newest.
        """
        if k == 1:
            return self
        batch = self._batches.get(k)
        if batch is None:
            batch = self._batches[k] = self._build_copies(k)
            row = self.n + self._incidences()
            while (sum(self._batches) - k) * row > COPIES_KEPT_ENTRIES:
                del self._batches[next(iter(self._batches))]
        return batch

    def _build_copies(self, k: int) -> "ObjectiveSpec":
        shift = np.arange(k)[:, None]
        offset = {}
        if self.kind == COVERAGE:
            offset = {"elems": self.n, "item": self.weights.size,
                      "starts": self.elems.size}
        elif self.kind == DIRECTED_CUT:
            offset = {"tail": self.n, "head": self.n}
        arrays = {name: (getattr(self, name) + size * shift).ravel()
                  for name, size in offset.items()}
        return replace(self, n=k * self.n, weights=np.tile(self.weights, k),
                       **arrays)

    def _incidences(self) -> int:
        """The entries, beyond the point's n, that a gradient touches:
        coverage incidences, arcs, or every sampled set's n coordinates."""
        if self.kind == COVERAGE:
            return self.elems.size
        if self.kind == DIRECTED_CUT:
            return self.tail.size
        return self.samples * self.n if self.kind == SAMPLED else 0

    def _sample_matrix(self, x: np.ndarray) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        return rng.random((self.samples, self.n)) < x

    def _values(self, X: np.ndarray) -> np.ndarray:
        """F at each row of a checked (k, n) matrix X, clamped at 1.

        Row i is F(X[i]) exactly, whatever k: each closed form ends in a
        row-by-row dot product of C-ordered rows, whose rounding does not
        depend on the other rows (a matrix product's may).
        """
        # the clamp copies X only where it changes it: on a large batch
        # the copy costs more than the test
        if np.maximum.reduce(X, axis=None, initial=0.0) > 1.0:
            X = np.minimum(X, 1.0)
        if self.kind == LINEAR:
            return np.vecdot(X, self.weights)
        if self.kind == COVERAGE:
            if not self.elems.size:
                return np.zeros(X.shape[0])
            miss = np.multiply.reduceat(1.0 - X.take(self.elems, axis=1),
                                        self.starts, axis=1)
            return np.vecdot(1.0 - miss, self.weights)
        if self.kind == DIRECTED_CUT:
            return np.vecdot(X.take(self.tail, axis=1)
                             * (1.0 - X.take(self.head, axis=1)), self.weights)
        return np.array([np.mean([self.set_fn(frozenset(np.flatnonzero(r)))
                                  for r in self._sample_matrix(x)]) for x in X])

    def _grad(self, x: np.ndarray) -> np.ndarray:
        """Gradient of F at x in [0, 1)^n."""
        if self.kind == LINEAR:
            return self.weights.copy()
        if self.kind == COVERAGE:
            # dF/dx_i sums, over the items i covers, the item weight times
            # the product of the other coverers' complements, none of
            # which is 0 below 1
            comp = 1.0 - x[self.elems]
            part = self.weights * np.multiply.reduceat(comp, self.starts)
            return _scatter(self.elems, part[self.item] / comp, self.n)
        if self.kind == DIRECTED_CUT:
            w = self.weights
            return (_scatter(self.tail, w * (1.0 - x[self.head]), self.n)
                    - _scatter(self.head, w * x[self.tail], self.n))
        # Common random numbers: the same sampled sets R are shared by all
        # coordinates, which removes most of the between-coordinate noise.
        g = np.zeros(self.n)
        for r in self._sample_matrix(x):
            base = frozenset(np.flatnonzero(r))
            for i in range(self.n):
                g[i] += self.set_fn(base | {i}) - self.set_fn(base - {i})
        return g / self.samples

    def _coverage_grad_at_ones(self, x: np.ndarray) -> np.ndarray:
        """Coverage gradient at x in [0, 1]^n, where a complement may be 0.

        Zero complements are left out of the product and counted instead:
        a term is 0 when another coverer of its item has one.  With no
        zero complement this gives the bits of `_grad`.
        """
        comp = 1.0 - x[self.elems]
        zero = comp == 0.0
        safe = comp + zero
        part = (self.weights * np.multiply.reduceat(safe, self.starts))[self.item]
        alone = np.bincount(self.item, zero, self.weights.size)[self.item] == zero
        return _scatter(self.elems, part / safe * alone, self.n)

    def _interior_grad(self, X: np.ndarray) -> np.ndarray:
        """Gradient at X, a vector or (k, n) matrix in [0, 1)^n.

        A closed form takes the gradient of k disjoint copies of itself at
        the rows laid end to end, so row i is the gradient at X[i] exactly.
        """
        if X.ndim == 1:
            return self._grad(X)
        if self.kind == SAMPLED:
            return np.array([self._grad(x) for x in X]).reshape(X.shape)
        return self._copies(X.shape[0])._grad(X.ravel()).reshape(X.shape)

    def _clamped_grad(self, X: np.ndarray) -> np.ndarray:
        """Gradient at X clamped at 1, with 0 where X is above 1; X is a
        checked vector or (k, n) matrix.  Below 1 that is the interior
        gradient."""
        if np.maximum.reduce(X, axis=None, initial=0.0) < 1.0:
            return self._interior_grad(X)
        clamped = np.minimum(X, 1.0)
        if self.kind == COVERAGE and np.count_nonzero(clamped == 1.0):
            k = 1 if X.ndim == 1 else X.shape[0]
            g = self._copies(k)._coverage_grad_at_ones(
                clamped.ravel()).reshape(X.shape)
        else:
            g = self._interior_grad(clamped)
        g[X > 1.0] = 0.0
        return g

    # -- oracles ----------------------------------------------------------

    def eval(self, x) -> float:
        """Multilinear extension value F(x); entries above 1 are clamped."""
        return float(self._values(self._check(x)[None])[0])

    def eval_many(self, X) -> np.ndarray:
        """eval of every row of X, which has shape (k, n); row i equals
        eval(X[i]) exactly."""
        return self._values(self._check(X, ndim=2))

    def grad(self, x) -> np.ndarray:
        """Gradient of F at x ^ 1; coordinates clamped at 1 get gradient 0."""
        return self._clamped_grad(self._check(x))

    def grad_many(self, X) -> np.ndarray:
        """grad of every row of X, which has shape (k, n); row i equals
        grad(X[i]) exactly."""
        return self._clamped_grad(self._check(X, ndim=2))

    def singleton_values(self) -> np.ndarray:
        """(f(1_1), ..., f(1_n)), evaluated exactly for every kind."""
        if self.kind == SAMPLED:
            return np.array([float(self.set_fn(frozenset([i])))
                             for i in range(self.n)])
        # a closed form is multilinear with F(0) = 0, so f({i}) = dF/dx_i(0)
        return self._grad(np.zeros(self.n))

    def set_value(self, S) -> float:
        """Exact value at the 0/1 point 1_S (the underlying set function)."""
        S = frozenset(S)
        if self.kind == SAMPLED:
            return float(self.set_fn(S))
        ind = np.zeros(self.n)
        ind[list(S)] = 1.0
        return self.eval(ind)


def _weights(weights, kind: str) -> np.ndarray:
    """`weights` as floats, each non-negative and finite."""
    weights = np.asarray(weights, dtype=float)
    if not np.all((weights >= 0) & (weights < np.inf)):
        raise ValueError(f"{kind} weights must be non-negative and finite")
    return weights


def _scatter(index: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Sum of `values` per index, as floats even when there are none."""
    return np.bincount(index, values, n).astype(float, copy=False)
