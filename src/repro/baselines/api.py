"""Common query API for every index in the reproduction, plus the two
shared kNN algorithms: search-region expansion (paper Algorithm 3), which
both RSMI and ZM use (the paper adapts RSMI's kNN algorithm for ZM,
Section 6.2.4), and the exact best-first search [40] of the tree indices,
Grid and RSMIa.
"""
from __future__ import annotations

import heapq
import math
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


def as_points(ids, xy) -> tuple[np.ndarray, np.ndarray]:
    """``ids`` as int64 and ``xy`` as float64 arrays, for a build. Raises
    ValueError naming the first row with a NaN or infinite coordinate: no
    index can place one, and a NaN that reaches a block MBR fails every
    test against it, so the block's other points are lost to queries."""
    ids = np.asarray(ids, dtype=np.int64)
    xy = np.asarray(xy, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(xy).all(axis=1))
    if len(bad):
        i = bad[0]
        raise ValueError(f"row {i} (id {ids[i]}) is not finite: {tuple(xy[i].tolist())}")
    return ids, xy


def as_point(x, y) -> tuple[float, float]:
    """``(x, y)`` as Python floats, for an insert. Raises ValueError naming
    the point when a coordinate is NaN or infinite, before the index writes
    anything: as in a build, no index can place one."""
    x, y = float(x), float(y)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"point {(x, y)} is not finite")
    return x, y


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


# Safety cap on Algorithm 3's rounds; the region at least doubles each
# round, so real queries stop after a few.
MAX_ROUNDS = 40


def expansion_knn(
    x: float,
    y: float,
    k: int,
    n: int,
    pmf_x: PiecewiseCDF,
    pmf_y: PiecewiseCDF,
    window_fn: WindowFn,
) -> np.ndarray:
    """Paper Algorithm 3: expanding-window approximate kNN.

    The initial region is ``alpha * sqrt(k/n)`` per side, with the skew
    parameters alpha estimated from the piecewise CDFs (Eq. 6). Each round
    runs a window query; the region doubles while fewer than k candidates
    are known, or grows to ``2 * dist(q, Q[k])`` while the k-th candidate
    could still be beaten by a point outside the region.

    Each round's points are merged into the best-k set: once it holds k
    entries only points nearer than the k-th can enter, and of those the
    ones already in the set are dropped. That keeps exactly the points a
    merge of every point seen so far would keep. A point that left the set,
    or never entered a full one, is no nearer than the k-th, which never
    grows; one that ties the k-th would sort after the set in the stable
    sort, as it does when it arrives fresh.

    The query point and the region are Python floats (``math.sqrt``, and
    the k-th distance read with ``float``), so every window round's corners
    reach the index's models as floats, not numpy scalars.
    """
    if k <= 0 or n == 0:
        return np.empty(0, dtype=np.int64)
    x, y = float(x), float(y)
    k_eff = min(k, n)
    base = math.sqrt(k_eff / max(n, 1))
    width = max(1e-9, pmf_x.slope_alpha(x) * base)
    height = max(1e-9, pmf_y.slope_alpha(y) * base)

    best_ids = np.empty(0, dtype=np.int64)
    best_d = np.empty(0)
    for _ in range(MAX_ROUNDS):
        ids, xs, ys = window_fn(x - width / 2, y - height / 2, x + width / 2, y + height / 2)
        d = np.hypot(xs - x, ys - y)
        if best_ids.size == k_eff:
            m = d < best_d[-1]
            ids, d = ids[m], d[m]
        if best_ids.size and ids.size:
            have = set(best_ids.tolist())
            m = [pid not in have for pid in ids.tolist()]
            ids, d = ids[m], d[m]
        if ids.size:
            best_ids = np.concatenate([best_ids, ids])
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
            width = height = 2 * float(best_d[-1])
        else:
            break
    return best_ids


def best_first_knn(x: float, y: float, k: int, root, expand) -> np.ndarray:
    """Exact best-first kNN [40], nearest first.

    ``expand(node)`` returns the node's points as ``(ids, xs, ys)`` (or
    None) and an iterable of ``(mindist, child)`` pairs; it charges the
    node's accesses. Nodes leave the queue in MINDIST order, ties by push
    order, until the next one is farther than the k-th nearest point seen.
    ``root`` None means an empty index.
    """
    if root is None or k <= 0:
        return np.empty(0, dtype=np.int64)
    cnt = 0
    heap = [(0.0, cnt, root)]
    result: list[tuple[float, int]] = []
    while heap:
        d, _, node = heapq.heappop(heap)
        if len(result) >= k and d > result[k - 1][0]:
            break
        pts, children = expand(node)
        if pts is not None:
            ids, xs, ys = pts
            pd = np.hypot(xs - x, ys - y)
            result.extend((float(dd), int(pid)) for dd, pid in zip(pd, ids))
            result.sort()
            del result[k:]
        for md, child in children:
            cnt += 1
            heapq.heappush(heap, (md, cnt, child))
    return np.asarray([pid for _, pid in result], dtype=np.int64)
