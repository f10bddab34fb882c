"""Polymatroid rank oracles, tight sets and water-filling.

Shipped rank functions are uniform, partition, and laminar; all three are
represented internally as a laminar family of capacitated sets plus an
implicit per-element capacity of 1, so membership and tight sets are exact
without general submodular minimization.  The family is an incidence
matrix plus caps, and, built once with it, the family rows of each element.

Validation happens at the boundary: the constructors check the family,
and each public method checks its point (shape, sign and, where it
matters, membership in scale * P) and then runs a private kernel.  The
matroid solver calls the kernels directly, with the bounds scale * caps
-/+ tol computed once per solve; only its first fill goes through the
checked `waterfill`.  One kernel, `_fits`, tests scale * P for
`membership`, `waterfill` and the solver's checks; it and the tight set
(`_tight`) answer for a point or for each row of points.  Every set sum
comes from `_sums`, whose rows have the bits of their own one-row calls.
The fill kernels return the step sparsely, as the coordinates that rose
and their steps: `waterfill` and `rank` build their dense results from
them, and the matroid solver adds them to a copy of its state or, when
each rose by exactly eps * x_i, builds the states that repeat the step
as one block (`_geometric_run`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

TIGHT_TOL = 1e-9

UNIFORM = "uniform"
PARTITION = "partition"
LAMINAR = "laminar"

# largest (sets or parts) * n accepted from an instance file: the family is
# held as a dense incidence matrix, and building it walks every column
MAX_POLYMATROID_ENTRIES = 1_000_000


@dataclass
class PolymatroidInstance:
    """P = {x >= 0 : x(S) <= r(S) for all S}, for a structured rank r.

    The rank is given by a laminar family of capacitated sets, stored as a
    (sets x n) 0/1 `incidence` matrix and a `caps` vector; every element
    additionally carries the implicit capacity 1 (so r({i}) <= 1).
    `rows_of[i]` lists, in ascending order, the family rows that hold i.
    """

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
        return cls._of_family(n, [(frozenset(range(n)), float(k))])

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
        return cls._of_family(n, family)

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
        # largest sets first: a set is laminar with the sets before it iff
        # its elements all have the same owner, the last set that took them
        owner = [None] * n
        for k in sorted(range(len(family)), key=lambda k: -len(family[k][0])):
            members = family[k][0]
            owners = {owner[i] for i in members}
            if len(owners) > 1:
                j = next(j for j in owners
                         if j is not None and not members <= family[j][0])
                a, b = sorted((j, k))
                raise ValueError(f"family is not laminar: "
                                 f"{sorted(family[a][0])} vs {sorted(family[b][0])}")
            for i in members:
                owner[i] = k
        return cls._of_family(n, family)

    @classmethod
    def _of_family(cls, n: int, family: list):
        """The instance for a checked list of (members, capacity) pairs."""
        incidence = np.zeros((len(family), n))
        for row, (members, _) in zip(incidence, family):
            row[list(members)] = 1.0
        return cls(n=n, incidence=incidence,
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
        return float(self._dense(*self._fill(
            sorted(S), [1.0] * self.n, [0.0] * self.caps.size,
            self.caps.tolist())).sum())

    def singleton_ranks(self) -> np.ndarray:
        """r({i}) for each i: the least of 1 and the caps of i's sets."""
        return np.where(self.incidence > 0, self.caps[:, None],
                        1.0).min(axis=0, initial=1.0)

    # -- membership and tight sets ---------------------------------------

    def membership(self, x, scale: float = 1.0, tol: float = TIGHT_TOL) -> bool:
        """True iff x(S) <= scale * r(S) for all S (exact for these kinds)."""
        x = self._vec(x)
        return bool(self._fits(x, self._sums(x), scale + tol,
                               scale * self.caps + tol))

    def slack(self, x) -> float:
        """Minimum residual capacity, over element caps and family sets."""
        x = self._vec(x)
        return float(min((1.0 - x).min(initial=np.inf),
                         (self.caps - self._sums(x)).min(initial=np.inf)))

    def fit_factor(self, x, scale: float = 1.0) -> float:
        """Largest t <= 1 with t * x within every cap of scale * P."""
        x = self._vec(x)
        loads = np.concatenate([x, self._sums(x)])
        caps = scale * np.concatenate([np.ones(self.n), self.caps])
        used = loads > 0
        return float(min(1.0, (caps[used] / loads[used]).min(initial=np.inf)))

    # -- water-filling ----------------------------------------------------

    def waterfill(self, x, eligible: Iterable[int], eps: float) -> np.ndarray:
        """Sequential maximal increase of Algorithm-style updates.

        Coordinates are processed in ascending index order.  For eligible i,
        y_i is the largest value with y_i <= eps * x_i and
        (1+eps)(x + y) in eps*P; other coordinates stay 0.
        """
        scale = eps / (1.0 + eps)
        x = self._vec(x)
        caps = scale * self.caps
        sums = self._sums(x)
        if not self._fits(x, sums, scale + TIGHT_TOL, caps + TIGHT_TOL):
            raise ValueError("(1+eps) * x is not in eps * P")
        return self._dense(*self._step_fill(x, sorted(set(eligible)), sums,
                                            eps, caps.tolist()))

    # -- kernels: the caller has checked x, and built the bounds ----------

    def _sums(self, X) -> np.ndarray:
        """The set sums x(S) of x, or of each row of X: a stack of one-row
        products, each the matrix-vector product incidence @ x, so a row
        has the bits of its own one-row call."""
        return np.matmul(X[..., None, :], self.incidence.T)[..., 0, :]

    def _fits(self, x, sums, x_hi, caps_hi):
        """x <= x_hi and x(S) = sums <= caps_hi: x is in scale * P, for
        x_hi = scale + tol and caps_hi = scale * caps + tol.  x and sums
        may be rows of points, with one answer per row."""
        return ~((x.max(axis=-1, initial=0.0) > x_hi)
                 | (sums > caps_hi).any(axis=-1))

    def _tight(self, x, sums, x_lo, caps_lo) -> np.ndarray:
        """The tight set of x, whose set sums are `sums`, as a boolean mask:
        the elements at x_lo = scale - tol or in a set at its cap
        caps_lo = scale * caps - tol.  x and sums may be rows of points.
        The sets at their caps reach their elements through a float
        product, which numpy hands to BLAS, as it does not a boolean one."""
        return (x >= x_lo) | ((sums >= caps_lo) @ self.incidence > 0.0)

    def _step_fill(self, x, order: list, sums, eps: float, caps: list) -> tuple:
        """`_fill`'s sparse water-fill step from x, whose set sums are
        `sums`: each i of `order` rises by at most min(eps * x_i, scale -
        x_i) within caps = scale * self.caps, scale = eps/(1+eps)."""
        scale = eps / (1.0 + eps)
        x = x.tolist()
        bounds = {i: min(eps * x[i], scale - x[i]) for i in order}
        return self._fill(order, bounds, sums.tolist(), caps)

    def _geometric_run(self, x, raised: list, eps: float, caps,
                       room: int) -> tuple:
        """x, which a fill step reached by raising each i of `raised` by
        exactly eps * x_i, then the states that repeat the step for as long
        as `_step_fill` would, at most `room` rows in all, with their set
        sums.  A fill repeats the step while each i of `raised` has
        eps * x_i within scale - x_i, where its recurrence stops, and within
        the residual of each of its sets after the steps before it there,
        `_fill`'s sequential sums, here a cumsum; the other eligible
        coordinates stay put, as their bounds are fixed and their residuals
        only shrink.  caps is scale * self.caps."""
        scale, values = eps / (1.0 + eps), []
        for v in x[raised].tolist():  # _fill's x_i + eps * x_i, in floats
            values.append(column := [v])
            while len(column) < room and eps * v <= scale - v:
                v += eps * v
                column.append(v)
            room = len(column)  # the block ends here or sooner
        V = np.array([column[:room] for column in values]).T
        X = np.repeat(x[None], room, axis=0)
        X[:, raised] = V
        S = self._sums(X)
        # the fills from each row but the last, each within its own bound
        steps, starts = eps * V[:-1], S[:-1]
        repeats = np.ones(room - 1, dtype=bool)
        raised_in = {}
        for c, i in enumerate(raised):
            for r in self.rows_of[i]:
                raised_in.setdefault(r, []).append(c)
        for r, cols in raised_in.items():
            sums = np.cumsum(np.concatenate((starts[:, [r]], steps[:, cols]),
                                            axis=1), axis=1)
            repeats &= (steps[:, cols] <= caps[r] - sums[:, :-1]).all(axis=1)
        q = room if repeats.all() else 1 + int(repeats.argmin())
        return X[:q], S[:q]

    def _fill(self, order: list, bounds: list | dict, sums: list,
              caps: list) -> tuple:
        """Raise each coordinate i of `order` (ascending, no repeats) as far
        as bounds[i] and the residuals caps - sums of its sets allow.
        Returns the coordinates that rose, ascending, and their positive
        steps, as lists.  The fill is sequential, so it runs on Python
        floats, cheaper per step than numpy scalars; `sums` is updated in
        place."""
        raised, steps = [], []
        for i in order:
            rows = self.rows_of[i]
            step = min([bounds[i]] + [caps[r] - sums[r] for r in rows])
            if step > 0:
                raised.append(i)
                steps.append(step)
                for r in rows:
                    sums[r] += step
        return raised, steps

    def _dense(self, raised: list, steps: list) -> np.ndarray:
        """The length-n vector with `steps` at `raised` and 0 elsewhere."""
        y = np.zeros(self.n)
        y[raised] = steps
        return y

    # -- misc -------------------------------------------------------------

    def _vec(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"expected vector of length {self.n}, got shape {x.shape}")
        if x.min(initial=0.0) < 0:
            raise ValueError("negative entries are not allowed")
        return x
