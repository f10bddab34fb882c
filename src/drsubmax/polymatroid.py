"""Polymatroid rank oracles, tight sets, water-filling and exchange vectors.

Shipped rank functions are uniform, partition, and laminar; all three are
represented internally as a laminar family of capacitated sets plus an
implicit per-element capacity of 1, so membership and tight sets are exact
without general submodular minimization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Optional, Sequence

import numpy as np

TIGHT_TOL = 1e-9

UNIFORM = "uniform"
PARTITION = "partition"
LAMINAR = "laminar"


class RankOracleError(RuntimeError):
    """Signals an internal inconsistency in a rank oracle computation."""


@dataclass
class PolymatroidInstance:
    """P = {x >= 0 : x(S) <= r(S) for all S}, for a structured rank r.

    `family` is a laminar list of (members, capacity) pairs; every element
    additionally carries the implicit capacity 1 (so r({i}) <= 1).
    """

    kind: str
    n: int
    family: list  # list of (frozenset, float)
    # forest structure over family sets, built in __post_init__
    _children: list = field(default_factory=list, repr=False)
    _roots: list = field(default_factory=list, repr=False)
    _sets_of: list = field(default_factory=list, repr=False)

    @classmethod
    def uniform(cls, n: int, k: float):
        if not k >= 0:
            raise ValueError("budget must be non-negative")
        return cls(kind=UNIFORM, n=n, family=[(frozenset(range(n)), float(k))])

    @classmethod
    def partition(cls, n: int, parts: Sequence[Iterable[int]], caps: Sequence[float]):
        if len(parts) != len(caps):
            raise ValueError("parts and caps must have equal length")
        seen = set()
        family = []
        for part, cap in zip(parts, caps):
            part = frozenset(part)
            if not cap >= 0:
                raise ValueError("capacities must be non-negative")
            if any(not (0 <= i < n) for i in part):
                raise ValueError("part element out of range")
            if part & seen:
                raise ValueError("parts must be disjoint")
            seen |= part
            family.append((part, float(cap)))
        return cls(kind=PARTITION, n=n, family=family)

    @classmethod
    def laminar(cls, n: int, sets: Sequence[Iterable[int]], caps: Sequence[float]):
        if len(sets) != len(caps):
            raise ValueError("sets and caps must have equal length")
        family = []
        for members, cap in zip(sets, caps):
            members = frozenset(members)
            if not cap >= 0:
                raise ValueError("capacities must be non-negative")
            if any(not (0 <= i < n) for i in members):
                raise ValueError("set element out of range")
            family.append((members, float(cap)))
        for (a, _), (b, _) in combinations(family, 2):
            if a & b and not (a <= b or b <= a):
                raise ValueError(f"family is not laminar: {sorted(a)} vs {sorted(b)}")
        return cls(kind=LAMINAR, n=n, family=family)

    def __post_init__(self):
        # parent of a family set = its smallest strict superset in the family
        order = sorted(range(len(self.family)), key=lambda i: len(self.family[i][0]))
        parent = [None] * len(self.family)
        for pos, i in enumerate(order):
            mi = self.family[i][0]
            for j in order[pos + 1:]:
                if mi <= self.family[j][0]:
                    parent[i] = j
                    break
        self._children = [[] for _ in self.family]
        self._roots = []
        for i, p in enumerate(parent):
            if p is None:
                self._roots.append(i)
            else:
                self._children[p].append(i)
        self._sets_of = [[] for _ in range(self.n)]
        for idx, (members, _) in enumerate(self.family):
            for e in members:
                self._sets_of[e].append(idx)

    # -- rank -------------------------------------------------------------

    def rank(self, S: Iterable[int]) -> float:
        """r(S), computed bottom-up over the laminar forest."""
        S = frozenset(S)
        if any(not (0 <= i < self.n) for i in S):
            raise ValueError("element index out of range")

        def node_rank(idx):
            members, cap = self.family[idx]
            covered = frozenset().union(*(self.family[c][0] for c in self._children[idx])) \
                if self._children[idx] else frozenset()
            total = sum(node_rank(c) for c in self._children[idx])
            total += len(S & (members - covered))
            return min(cap, total)

        total = sum(node_rank(r) for r in self._roots)
        covered = frozenset().union(*(self.family[r][0] for r in self._roots)) \
            if self._roots else frozenset()
        total += len(S - covered)
        return float(total)

    # -- membership and tight sets ---------------------------------------

    def membership(self, x, scale: float = 1.0, tol: float = TIGHT_TOL) -> bool:
        """True iff x(S) <= scale * r(S) for all S (exact for these kinds)."""
        x = self._vec(x)
        if np.any(x > scale + tol):
            return False
        for members, cap in self.family:
            if sum(x[i] for i in members) > scale * cap + tol:
                return False
        return True

    def tight_set(self, x, scale: float = 1.0, tol: float = TIGHT_TOL) -> frozenset:
        """The unique maximal S with x(S) = scale * r(S)."""
        x = self._vec(x)
        if not self.membership(x, scale, tol):
            raise ValueError("x is not in scale * P")
        tight = set(int(i) for i in np.flatnonzero(x >= scale - tol))
        for members, cap in self.family:
            if sum(x[i] for i in members) >= scale * cap - tol:
                tight |= members
        return frozenset(tight)

    # -- water-filling ----------------------------------------------------

    def waterfill(self, x, eligible: Iterable[int], eps: float,
                  tol: float = TIGHT_TOL) -> np.ndarray:
        """Sequential maximal increase of Algorithm-style updates.

        Coordinates are processed in ascending index order.  For eligible i,
        y_i is the largest value with y_i <= eps * x_i and
        (1+eps)(x + y) in eps*P; other coordinates stay 0.
        """
        x = self._vec(x)
        scale = eps / (1.0 + eps)
        if not self.membership(x, scale, tol):
            raise ValueError("(1+eps) * x is not in eps * P")
        eligible = set(eligible)
        y = np.zeros(self.n)
        set_sums = [sum(x[i] for i in members) for members, _ in self.family]
        for i in range(self.n):
            if i not in eligible:
                continue
            step = min(eps * x[i], scale - x[i])
            for idx in self._sets_of[i]:
                members, cap = self.family[idx]
                step = min(step, scale * cap - set_sums[idx])
            step = max(step, 0.0)
            if step > 0:
                y[i] = step
                for idx in self._sets_of[i]:
                    set_sums[idx] += step
        return y

    # -- exchange vector (test-support oracle) ----------------------------

    def exchange_vector(self, a, b, c, tol: float = TIGHT_TOL) -> np.ndarray:
        """Constructive exchange: d with 0 <= d <= c, b + d in P, and
        ||c - d||_1 <= ||b - a||_1, given a + c in P, b in P, a <= b.

        Minimal tight sets and residual capacities are found by exhaustive
        subset enumeration, which is exact for every shipped kind; this
        oracle is test support, not on the solve path, so n is capped at 16.
        """
        a = self._vec(a)
        b = self._vec(b)
        c = self._vec(c)
        if self.n > 16:
            raise ValueError("exchange_vector supports n <= 16")
        if not self.membership(a + c, 1.0, tol):
            raise ValueError("a + c is not in P")
        if not self.membership(b, 1.0, tol):
            raise ValueError("b is not in P")
        if np.any(a > b + tol):
            raise ValueError("a <= b is required")

        ranks = {}
        for mask in range(1 << self.n):
            S = frozenset(i for i in range(self.n) if mask >> i & 1)
            ranks[S] = self.rank(S)

        def min_slack(v, contain, exclude=None):
            best = np.inf
            best_sets = []
            for S, r in ranks.items():
                if contain not in S:
                    continue
                if exclude is not None and exclude in S:
                    continue
                slack = r - sum(v[i] for i in S)
                if slack < best - tol:
                    best, best_sets = slack, [S]
                elif slack <= best + tol:
                    best_sets.append(S)
            return best, best_sets

        bh = a.copy()
        dh = c.copy()
        max_iter = 4 * self.n * self.n + 8
        for _ in range(max_iter):
            todo = [i for i in range(self.n) if bh[i] < b[i] - tol]
            if not todo:
                break
            i = todo[0]
            v = bh + dh
            slack, _ = min_slack(v, i)
            step = min(max(slack, 0.0), b[i] - bh[i])
            bh[i] += step
            if bh[i] >= b[i] - tol:
                continue
            v = bh + dh
            _, tight_sets = min_slack(v, i)
            tmin = frozenset.intersection(*tight_sets)
            donors = [j for j in tmin if dh[j] > tol]
            if not donors:
                raise RankOracleError(
                    "no donor coordinate in the minimal tight set; "
                    "rank oracle inconsistency")
            j = donors[0]
            if j == i:
                gamma = np.inf
            else:
                gamma, _ = min_slack(v, i, exclude=j)
            delta = min(b[i] - bh[i], gamma, dh[j])
            if delta <= tol:
                raise RankOracleError("exchange procedure stalled")
            bh[i] += delta
            dh[j] -= delta
        else:
            raise RankOracleError("exchange procedure exceeded 4n^2 iterations")
        return np.clip(dh, 0.0, c)

    # -- misc -------------------------------------------------------------

    def _vec(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"expected vector of length {self.n}, got shape {x.shape}")
        if np.any(x < 0):
            raise ValueError("negative entries are not allowed")
        return x

    def membership_bruteforce(self, x, scale: float = 1.0,
                              tol: float = TIGHT_TOL) -> bool:
        """2^n reference check of x(S) <= scale * r(S); n <= 16."""
        x = self._vec(x)
        if self.n > 16:
            raise ValueError("brute-force membership supports n <= 16")
        for mask in range(1 << self.n):
            S = [i for i in range(self.n) if mask >> i & 1]
            if sum(x[i] for i in S) > scale * self.rank(S) + tol:
                return False
        return True
