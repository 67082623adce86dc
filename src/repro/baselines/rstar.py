"""R*-tree baseline — our stand-in for the paper's RR* [4].

The revised R*-tree implementation the paper uses is closed C source; we
implement the classic R*-tree [3] it revises: top-down insertion with

* ChooseSubtree — minimal *overlap* enlargement at the leaf level
  (restricted to the 16 best area-enlargement candidates, the standard
  R*-tree optimisation), minimal area enlargement above;
* forced reinsertion — on the first leaf overflow of an insertion, the
  30% of entries farthest from the node centre are reinserted;
* topological split — axis by minimum margin sum, distribution by
  minimum overlap, ties by minimum area.

This preserves what the paper's experiments show about RR*: built by
individual inserts (slowest construction), biggest index, and query
performance comparable to HRR. DESIGN.md documents the substitution.
"""
from __future__ import annotations

import time

import numpy as np

from repro.baselines.rtree import TNode, TreeIndex
from repro.geo import mbr as M

_REINSERT_FRAC = 0.3
_MIN_FILL = 0.4
_CANDIDATES = 16


def _split_mbrs(mbrs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R* topological split over an (n, 4) MBR array; returns index arrays
    for the two groups."""
    n = len(mbrs)
    m = max(1, int(np.ceil(_MIN_FILL * n)))
    best = None
    for axis in (0, 1):
        order = np.lexsort((mbrs[:, axis + 2], mbrs[:, axis]))
        s = mbrs[order]
        # prefix/suffix aggregated MBRs
        pre = np.empty((n, 4))
        suf = np.empty((n, 4))
        run = (np.inf, np.inf, -np.inf, -np.inf)
        for i in range(n):
            run = M.merge(run, s[i])
            pre[i] = run
        run = (np.inf, np.inf, -np.inf, -np.inf)
        for i in range(n - 1, -1, -1):
            run = M.merge(run, s[i])
            suf[i] = run
        ks = np.arange(m, n - m + 1)
        if len(ks) == 0:
            ks = np.array([n // 2])
        lm = pre[ks - 1]
        rm = suf[ks]
        margin = float((M.v_margin(lm) + M.v_margin(rm)).sum())
        ix_lo = np.maximum(lm[:, 0], rm[:, 0])
        iy_lo = np.maximum(lm[:, 1], rm[:, 1])
        ix_hi = np.minimum(lm[:, 2], rm[:, 2])
        iy_hi = np.minimum(lm[:, 3], rm[:, 3])
        overlap = np.maximum(ix_hi - ix_lo, 0) * np.maximum(iy_hi - iy_lo, 0)
        area = M.v_area(lm) + M.v_area(rm)
        pick = int(np.lexsort((area, overlap))[0])
        cand = (margin, float(overlap[pick]), float(area[pick]), order, int(ks[pick]))
        if best is None or cand[0] < best[0]:
            best = cand
    _, _, _, order, k = best
    return order[:k], order[k:]


class RStarTree(TreeIndex):
    name = "RR*"

    def build(self, ids: np.ndarray, xy: np.ndarray) -> "RStarTree":
        """Construction *is* repeated insertion — that is the experiment
        (paper Fig. 7b shows RR* as the slowest traditional build)."""
        t0 = time.perf_counter()
        ids = np.asarray(ids, dtype=np.int64)
        xy = np.asarray(xy, dtype=np.float64)
        blk = self.bf.pack(
            np.empty(0, dtype=np.int64), np.empty(0), np.empty(0)
        )
        self.root = TNode(True, blk)
        for pid, (x, y) in zip(ids, xy):
            self.insert(int(pid), float(x), float(y))
        self.build_seconds = time.perf_counter() - t0
        return self

    # ------------------------------------------------------------------
    def insert(self, pid: int, x: float, y: float) -> None:
        self._reinsert_done = False
        self._grow_root(self._insert(self.root, pid, x, y))
        self.n_points += 1

    def _grow_root(self, split: TNode | None) -> None:
        """A split root becomes the first child of a new root."""
        if split is not None:
            old = self.root
            self.root = TNode(False)
            self.root.children = [old, split]
            self.root.mbr = M.merge(old.mbr, split.mbr)

    def _choose_child(self, node: TNode, x: float, y: float) -> TNode:
        mbrs = node.child_mbrs()
        enlarged = M.v_merge_point(mbrs, x, y)
        delta = M.v_area(enlarged) - M.v_area(mbrs)
        if node.children[0].is_leaf:
            cand = np.argsort(delta, kind="stable")[:_CANDIDATES]

            def pairwise_overlap(boxes: np.ndarray) -> np.ndarray:
                # Sum over ALL children of the intersection area with each
                # candidate box; the self term appears in both the "new"
                # and "old" sums and cancels in their difference.
                w = np.minimum(boxes[:, None, 2], mbrs[None, :, 2]) - np.maximum(
                    boxes[:, None, 0], mbrs[None, :, 0]
                )
                h = np.minimum(boxes[:, None, 3], mbrs[None, :, 3]) - np.maximum(
                    boxes[:, None, 1], mbrs[None, :, 1]
                )
                return (np.maximum(w, 0) * np.maximum(h, 0)).sum(axis=1)

            ov_delta = pairwise_overlap(enlarged[cand]) - pairwise_overlap(mbrs[cand])
            pick = int(
                np.lexsort((M.v_area(mbrs[cand]), delta[cand], ov_delta))[0]
            )
            return node.children[int(cand[pick])]
        return node.children[int(np.lexsort((M.v_area(mbrs), delta))[0])]

    def _insert(self, node: TNode, pid: int, x: float, y: float) -> TNode | None:
        if node.is_leaf:
            b = self.bf.blocks[node.blk]
            if b.add(pid, x, y):
                node.mbr = M.expand(node.mbr, x, y) if b.count > 1 else (x, y, x, y)
                return None
            if not self._reinsert_done and node is not self.root:
                self._forced_reinsert(node, pid, x, y)
                return None
            return self._split_leaf(node, pid, x, y)
        child = self._choose_child(node, x, y)
        split = self._insert(child, pid, x, y)
        node.mbr = M.expand(node.mbr, x, y)
        if split is not None:
            node.children.append(split)
            node.mbr = M.merge(node.mbr, split.mbr)
            if len(node.children) > self.fanout:
                return self._split_inner(node)
        return None

    def _forced_reinsert(self, leaf: TNode, pid: int, x: float, y: float) -> None:
        self._reinsert_done = True
        b = self.bf.blocks[leaf.blk]
        pts_id = np.append(b.live_ids.copy(), pid)
        pts_x = np.append(b.live_xs.copy(), x)
        pts_y = np.append(b.live_ys.copy(), y)
        cx = (pts_x.min() + pts_x.max()) / 2
        cy = (pts_y.min() + pts_y.max()) / 2
        order = np.argsort(np.hypot(pts_x - cx, pts_y - cy), kind="stable")
        n_re = max(1, int(_REINSERT_FRAC * len(pts_id)))
        keep, re = order[: len(order) - n_re], order[len(order) - n_re :]
        b.count = 0
        for i in keep:
            b.add(int(pts_id[i]), float(pts_x[i]), float(pts_y[i]))
        leaf.recompute_mbr(self.bf)
        for i in re:
            pid_i, x_i, y_i = int(pts_id[i]), float(pts_x[i]), float(pts_y[i])
            self._grow_root(self._insert(self.root, pid_i, x_i, y_i))

    def _split_leaf(self, leaf: TNode, pid: int, x: float, y: float) -> TNode:
        b = self.bf.blocks[leaf.blk]
        pts_id = np.append(b.live_ids.copy(), pid)
        pts_x = np.append(b.live_xs.copy(), x)
        pts_y = np.append(b.live_ys.copy(), y)
        mbrs = np.stack([pts_x, pts_y, pts_x, pts_y], axis=1)
        li, ri = _split_mbrs(mbrs)
        b.count = 0
        for i in li:
            b.add(int(pts_id[i]), float(pts_x[i]), float(pts_y[i]))
        leaf.recompute_mbr(self.bf)
        blk = self.bf.pack(pts_id[ri], pts_x[ri], pts_y[ri])
        new = TNode(True, blk)
        new.recompute_mbr(self.bf)
        return new

    def _split_inner(self, node: TNode) -> TNode:
        mbrs = node.child_mbrs()
        li, ri = _split_mbrs(mbrs)
        kids = node.children
        node.children = [kids[i] for i in li]
        node.recompute_mbr(self.bf)
        new = TNode(False)
        new.children = [kids[i] for i in ri]
        new.recompute_mbr(self.bf)
        return new
