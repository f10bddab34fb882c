"""Polymatroid rank oracles, tight sets, water-filling and exchange vectors.

Shipped rank functions are uniform, partition, and laminar; all three are
represented internally as a laminar family of capacitated sets plus an
implicit per-element capacity of 1, so membership and tight sets are exact
without general submodular minimization.

The family is an incidence matrix plus caps, and, built once with it, the
list of family rows that hold each element.  The matroid solver's step
uses `tight_mask`, which checks its point once and returns the set sums
x(S) with the tight set, and hands those sums to `waterfill`; `tight_set`
and a `waterfill` without sums check their point themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Sequence

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

    The rank is given by a laminar family of capacitated sets, stored as a
    (sets x n) 0/1 `incidence` matrix and a `caps` vector; every element
    additionally carries the implicit capacity 1 (so r({i}) <= 1).
    `rows_of[i]` lists, in ascending order, the family rows that hold i.
    """

    kind: str
    n: int
    incidence: np.ndarray
    caps: np.ndarray
    rows_of: list = field(init=False, repr=False)

    def __post_init__(self):
        self.rows_of = [np.flatnonzero(col).tolist() for col in self.incidence.T]

    @classmethod
    def uniform(cls, n: int, k: float):
        if not k >= 0:
            raise ValueError("budget must be non-negative")
        return cls._of_family(UNIFORM, n, [(frozenset(range(n)), float(k))])

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
        return cls._of_family(PARTITION, n, family)

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
        return cls._of_family(LAMINAR, n, family)

    @classmethod
    def _of_family(cls, kind: str, n: int, family: list):
        """The instance for a checked list of (members, capacity) pairs."""
        incidence = np.zeros((len(family), n))
        for row, (members, _) in zip(incidence, family):
            row[list(members)] = 1.0
        return cls(kind=kind, n=n, incidence=incidence,
                   caps=np.array([cap for _, cap in family], dtype=float))

    # -- rank -------------------------------------------------------------

    def rank(self, S: Iterable[int]) -> float:
        """r(S), the total of a greedy fill of S from 0 in P.

        Exact: in a polymatroid every maximal point of P restricted to S
        has x(S) = r(S).
        """
        S = frozenset(S)
        if any(not (0 <= i < self.n) for i in S):
            raise ValueError("element index out of range")
        return float(self._fill(sorted(S), [1.0] * self.n,
                                np.zeros(self.caps.size), self.caps).sum())

    # -- membership and tight sets ---------------------------------------

    def membership(self, x, scale: float = 1.0, tol: float = TIGHT_TOL) -> bool:
        """True iff x(S) <= scale * r(S) for all S (exact for these kinds)."""
        x = self._vec(x)
        return self._fits(x, self.incidence @ x, scale, tol)

    def tight_set(self, x, scale: float = 1.0, tol: float = TIGHT_TOL) -> frozenset:
        """The unique maximal S with x(S) = scale * r(S)."""
        return frozenset(np.flatnonzero(self.tight_mask(x, scale, tol)[0]).tolist())

    def tight_mask(self, x, scale: float = 1.0, tol: float = TIGHT_TOL):
        """(tight, sums): the tight set of x as a boolean mask, and the set
        sums x(S) of the family, which `waterfill` takes at scale
        eps / (1 + eps).  Raises ValueError unless x >= 0 lies in scale * P.
        """
        x = self._vec(x)
        sums = self.incidence @ x
        if not self._fits(x, sums, scale, tol):
            raise ValueError("x is not in scale * P")
        in_tight_set = (sums >= scale * self.caps - tol) @ self.incidence > 0
        return (x >= scale - tol) | in_tight_set, sums

    def slack(self, x) -> float:
        """Minimum residual capacity, over element caps and family sets."""
        x = self._vec(x)
        return float(min((1.0 - x).min(initial=np.inf),
                         (self.caps - self.incidence @ x).min(initial=np.inf)))

    def fit_factor(self, x, scale: float = 1.0) -> float:
        """Largest t <= 1 with t * x within every cap of scale * P."""
        x = self._vec(x)
        loads = np.concatenate([x, self.incidence @ x])
        caps = scale * np.concatenate([np.ones(self.n), self.caps])
        used = loads > 0
        return float(min(1.0, (caps[used] / loads[used]).min(initial=np.inf)))

    # -- water-filling ----------------------------------------------------

    def waterfill(self, x, eligible: Iterable[int], eps: float,
                  tol: float = TIGHT_TOL, sums=None) -> np.ndarray:
        """Sequential maximal increase of Algorithm-style updates.

        Coordinates are processed in ascending index order.  For eligible i,
        y_i is the largest value with y_i <= eps * x_i and
        (1+eps)(x + y) in eps*P; other coordinates stay 0.

        `sums` is the second result of tight_mask(x, eps / (1 + eps)): a
        caller that has it passes it, and x, already checked there, is not
        checked again.
        """
        scale = eps / (1.0 + eps)
        if sums is None:
            x = self._vec(x)
            sums = self.incidence @ x
            if not self._fits(x, sums, scale, tol):
                raise ValueError("(1+eps) * x is not in eps * P")
        bound = np.minimum(eps * x, scale - x).tolist()
        return self._fill(sorted(set(eligible)), bound, sums, scale * self.caps)

    def _fill(self, order: list, bounds: list, sums, caps) -> np.ndarray:
        """Raise each coordinate i of `order` (ascending) as far as bounds[i]
        and the residuals caps - sums of its sets allow.

        The fill is sequential, so it runs on Python floats, which are
        cheaper per step than numpy scalars.
        """
        sums, caps = sums.tolist(), caps.tolist()
        y = [0.0] * self.n
        for i in order:
            rows = self.rows_of[i]
            step = min([bounds[i]] + [caps[r] - sums[r] for r in rows])
            if step > 0:
                y[i] = step
                for r in rows:
                    sums[r] += step
        return np.array(y)

    def _fits(self, x, sums, scale, tol) -> bool:
        return not (x.max(initial=0.0) > scale + tol
                    or (sums > scale * self.caps + tol).any())

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
        if x.min(initial=0.0) < 0:
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
