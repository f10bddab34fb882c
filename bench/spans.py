"""Outside-in span tracer: wraps named functions at run time.

A span is (name, start, end, parent).  Spans live in flat arrays while the
traced pass runs, since a packing ladder makes about a million oracle
calls, and are written out once at the end.  Nothing in the program is
edited: `Tracer.patch` swaps a module or class attribute for a timing
wrapper and `Tracer.uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

NO_PARENT = -1


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name_idx = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        # per-span annotations from `annotate` hooks, keyed by span index
        self.info: dict = {}
        self._stack: list = []
        self._patches: list = []  # (owner, attr, original)

    # -- recording --------------------------------------------------------

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def wrapper(self, fn, name: str, annotate=None):
        """`fn` recording one span per call; `annotate(result)` adds info."""
        name_id = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_idx.append(name_id)
            self.parent.append(stack[-1] if stack else NO_PARENT)
            stack.append(idx)
            self.end.append(0.0)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if annotate is not None:
                self.info[idx] = annotate(result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, annotate=None):
        """Replace owner.attr (a module function or a class method)."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrapper(original, name, annotate))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------

    def arrays(self):
        """(name index, parent, start, end) as numpy arrays (copies)."""
        return (np.array(self.name_idx, dtype=np.int32),
                np.array(self.parent, dtype=np.int32),
                np.array(self.start, dtype=np.float64),
                np.array(self.end, dtype=np.float64))

    def save(self, path):
        """Write the spans (and annotations, one row per annotated span)."""
        name_idx, parent, start, end = self.arrays()
        with open(path, "wb") as fh:
            np.savez(fh, names=np.array(self.names), name_idx=name_idx,
                     parent=parent, start=start, end=end,
                     info_span=np.array(list(self.info), dtype=np.int64),
                     info=np.array(list(self.info.values()), dtype=float))


def self_times(parent, start, end) -> np.ndarray:
    """Each span's duration minus the part of it its children cover.

    Spans come from one thread, so siblings never overlap and a child lies
    inside its parent: the covered part is the sum of the children's
    durations, each clipped to the parent's interval.
    """
    parent = np.asarray(parent)
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    dur = end - start
    child = np.flatnonzero(parent >= 0)
    p = parent[child]
    clipped = (np.minimum(end[child], end[p])
               - np.maximum(start[child], start[p])).clip(min=0.0)
    covered = np.bincount(p, weights=clipped, minlength=dur.size)
    return dur - covered
