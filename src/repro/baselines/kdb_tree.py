"""K-D-B-tree baseline [39]: a kd-tree materialised as a block tree.

The paper implements it from the original description; ours is the
bulk-loaded equivalent (VAMSplit-style): recursive median cuts on
alternating dimensions produce disjoint slabs sized so that every
internal page has at most ``fanout`` children and every leaf is one data
block. This yields the behaviour the paper observes — non-overlapping
partitions that are great for queries on small data, but degenerate into
long, thin regions on large skewed data.

Inserts descend to the (unique) containing region and chain overflow
blocks (full K-D-B page splitting is out of scope; documented in
DESIGN.md). Queries remain exact.
"""
from __future__ import annotations

import time

import numpy as np

from repro.baselines.rtree import TNode, TreeIndex


class KDBTree(TreeIndex):
    name = "KDB"

    def build(self, ids: np.ndarray, xy: np.ndarray) -> "KDBTree":
        t0 = time.perf_counter()
        ids = np.asarray(ids, dtype=np.int64)
        xy = np.asarray(xy, dtype=np.float64)
        self.n_points = len(ids)
        n = len(ids)
        B, F = self.bf.cap, self.fanout
        nblk = max(1, -(-n // B))
        levels = 1
        while F**levels < nblk:
            levels += 1
        self.root = self._build(ids, xy, levels, 0)
        self.build_seconds = time.perf_counter() - t0
        return self

    def _build(self, ids, xy, level, dim) -> TNode:
        B, F = self.bf.cap, self.fanout
        n = len(ids)
        if level == 0 or n <= B:
            blk = self.bf.pack(ids, xy[:, 0], xy[:, 1])
            node = TNode(True, blk)
            node.recompute_mbr(self.bf)
            return node
        child_cap = B * F ** (level - 1)
        k = -(-n // child_cap)  # number of children needed (<= F)
        slabs = self._slabs(ids, xy, k, child_cap, dim)
        node = TNode(False)
        node.children = [
            self._build(sid, sxy, level - 1, dim + 1) for sid, sxy in slabs
        ]
        node.recompute_mbr(self.bf)
        return node

    def _slabs(self, ids, xy, k, child_cap, dim):
        """Split into k slabs of <= child_cap points by recursive median
        cuts, alternating the cut dimension."""
        if k <= 1:
            return [(ids, xy)]
        kl = k // 2
        left_n = min(len(ids), kl * child_cap)
        d = dim % 2
        order = np.lexsort((xy[:, 1 - d], xy[:, d]))
        li, ri = order[:left_n], order[left_n:]
        return self._slabs(ids[li], xy[li], kl, child_cap, dim + 1) + self._slabs(
            ids[ri], xy[ri], k - kl, child_cap, dim + 1
        )
