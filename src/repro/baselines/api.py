"""Common query API for every index in the reproduction, plus the shared
search-region-expansion kNN algorithm (paper Algorithm 3), which both RSMI
and ZM use (the paper adapts RSMI's kNN algorithm for ZM, Section 6.2.4).
"""
from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from repro.ml.pmf import PiecewiseCDF
from repro.storage.blocks import BlockFile


class SpatialIndex:
    """Base class: block-file ownership, stats, and the query interface.

    Coordinates are floats; ``point_query`` matches exact coordinates and
    returns the point id or ``None``. ``window_query`` returns a numpy
    array of ids inside the closed rectangle. ``knn_query`` returns the
    ids of (approximate) k nearest neighbours, nearest first.
    """

    name = "base"

    def __init__(self, cap: int) -> None:
        self.bf = BlockFile(cap)
        self.build_seconds = 0.0
        self.n_points = 0

    # -- queries (implemented by subclasses) -------------------------------
    def point_query(self, x: float, y: float):
        raise NotImplementedError

    def window_query(self, xlo: float, ylo: float, xhi: float, yhi: float) -> np.ndarray:
        raise NotImplementedError

    def knn_query(self, x: float, y: float, k: int) -> np.ndarray:
        raise NotImplementedError

    # -- updates -----------------------------------------------------------
    def insert(self, pid: int, x: float, y: float) -> None:
        raise NotImplementedError(f"{self.name} does not support insert")

    def delete(self, x: float, y: float):
        raise NotImplementedError(f"{self.name} does not support delete")

    # -- stats -------------------------------------------------------------
    @property
    def block_accesses(self) -> int:
        return self.bf.accesses

    def reset_stats(self) -> None:
        self.bf.reset_stats()

    def size_bytes(self) -> int:
        raise NotImplementedError

    @property
    def height(self) -> int:
        raise NotImplementedError


def center_out(j: int, lo: int, hi: int) -> Iterable[int]:
    """Positions ``lo..hi`` ordered by distance from ``j`` — scanning the
    predicted block first keeps the average access count near 1 when the
    model is accurate, while still covering the full error range."""
    j = min(max(j, lo), hi)
    yield j
    for d in range(1, max(j - lo, hi - j) + 1):
        if j + d <= hi:
            yield j + d
        if j - d >= lo:
            yield j - d


# Type of a window-query callable used by the expansion kNN: returns
# (ids, xs, ys) arrays for the closed rectangle.
WindowFn = Callable[[float, float, float, float], tuple[np.ndarray, np.ndarray, np.ndarray]]


def expansion_knn(
    x: float,
    y: float,
    k: int,
    n: int,
    pmf_x: PiecewiseCDF,
    pmf_y: PiecewiseCDF,
    window_fn: WindowFn,
    max_rounds: int = 40,
) -> np.ndarray:
    """Paper Algorithm 3: expanding-window approximate kNN.

    The initial region is ``alpha * sqrt(k/n)`` per side, with the skew
    parameters alpha estimated from the piecewise CDFs (Eq. 6). Each round
    runs a window query; the region doubles while fewer than k candidates
    are known, or grows to ``2 * dist(q, Q[k])`` while the k-th candidate
    could still be beaten by a point outside the region.
    """
    if k <= 0 or n == 0:
        return np.empty(0, dtype=np.int64)
    k_eff = min(k, n)
    base = np.sqrt(k_eff / max(n, 1))
    width = max(1e-9, pmf_x.slope_alpha(x) * base)
    height = max(1e-9, pmf_y.slope_alpha(y) * base)

    best_ids = np.empty(0, dtype=np.int64)
    best_d = np.empty(0)
    seen: set[int] = set()
    for _ in range(max_rounds):
        ids, xs, ys = window_fn(x - width / 2, y - height / 2, x + width / 2, y + height / 2)
        if ids.size:
            fresh = np.fromiter(
                (i for i, pid in enumerate(ids) if int(pid) not in seen),
                dtype=np.int64,
                count=-1,
            )
            if fresh.size:
                seen.update(int(p) for p in ids[fresh])
                d = np.hypot(xs[fresh] - x, ys[fresh] - y)
                best_ids = np.concatenate([best_ids, ids[fresh]])
                best_d = np.concatenate([best_d, d])
                keep = np.argsort(best_d, kind="stable")[:k_eff]
                best_ids, best_d = best_ids[keep], best_d[keep]
        if best_ids.size < k_eff:
            width *= 2
            height *= 2
        elif best_d[-1] > min(width, height) / 2:
            # Paper line 12 tests against the half-diagonal; with the
            # alpha-scaled (possibly very elongated) initial region that
            # exits while the k-NN circle pokes out of the short side, so
            # we test the inscribed half-extent instead — at most one
            # extra round, and the final region always covers the circle.
            width = height = 2 * best_d[-1]
        else:
            break
    return best_ids

