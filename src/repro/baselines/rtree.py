"""Hierarchical tree substrate + HRR (rank-space Hilbert packed R-tree).

``TreeIndex`` provides the query machinery shared by every tree-shaped
baseline (HRR, K-D-B-tree, R*-tree): containment descent for point
queries, intersection recursion for window queries, and best-first kNN
[40]. Inner-node visits are charged to the same access counter as data
blocks, as in the paper's accounting (tree depths of 3–4 show up directly
in its block-access numbers).

``HRRTree`` is the paper's HRR competitor [37, 38]: bulk-loaded by the
rank-space + Hilbert-curve ordering (the same ordering RSMI learns) with
fanout-100 internal levels built bottom-up over consecutive runs.
"""
from __future__ import annotations

import time

import numpy as np

from repro.baselines.api import SpatialIndex, best_first_knn
from repro.geo import mbr as M
from repro.geo.rank_space import rank_space_order_np


class TNode:
    """One tree node: a leaf owns a primary block id, an inner node owns
    children. MBRs are index-resident."""

    __slots__ = ("is_leaf", "blk", "children", "mbr")

    def __init__(self, is_leaf: bool, blk: int = -1):
        self.is_leaf = is_leaf
        self.blk = blk
        self.children: list[TNode] = []
        self.mbr = M.EMPTY

    def child_mbrs(self) -> np.ndarray:
        return np.array([c.mbr for c in self.children])

    def recompute_mbr(self, bf) -> None:
        if self.is_leaf:
            self.mbr = bf.mbr_of(self.blk)
        else:
            m = M.EMPTY
            for c in self.children:
                m = M.merge(m, c.mbr)
            self.mbr = m


class TreeIndex(SpatialIndex):
    """Shared queries for MBR trees over the block file."""

    def __init__(self, cap: int = 100, fanout: int = 100):
        super().__init__(cap)
        self.fanout = fanout
        self.root: TNode | None = None

    # -- queries -----------------------------------------------------------
    def _blocks_meeting(self, rect):
        """Blocks of the leaves whose MBR meets ``rect``, depth first,
        charging each inner node as it is inspected. A point query and a
        delete pass the degenerate rectangle ``(x, y, x, y)``: containment
        descent."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield node.blk
                continue
            self.bf.charge()
            hit = M.v_intersects(node.child_mbrs(), rect)
            for i in np.flatnonzero(hit):
                stack.append(node.children[i])

    def point_query(self, x: float, y: float):
        return self.bf.find(self._blocks_meeting((x, y, x, y)), x, y)

    def window_query(self, xlo, ylo, xhi, yhi) -> np.ndarray:
        rect = (xlo, ylo, xhi, yhi)
        return self.bf.scan(self._blocks_meeting(rect), rect)[0]

    def knn_query(self, x: float, y: float, k: int) -> np.ndarray:
        """Exact best-first search [40]."""

        def expand(node):
            if node.is_leaf:
                return self.bf.scan((node.blk,)), ()
            self.bf.charge()
            dd = M.v_mindist(node.child_mbrs(), x, y)
            return None, zip(dd.tolist(), node.children)

        return best_first_knn(x, y, k, self.root, expand)

    # -- updates -------------------------------------------------------------
    def delete(self, x: float, y: float):
        pid = self.bf.remove(self._blocks_meeting((x, y, x, y)), x, y)
        if pid is not None:
            self.n_points -= 1
        return pid

    def insert(self, pid: int, x: float, y: float) -> None:
        """Descend to the child whose MBR needs least area enlargement
        (classic R-tree ChooseLeaf); a full leaf grows an overflow chain.
        HRR and KDB are bulk-loaded, and the paper inserts into them via
        new linked blocks checked by tree traversal."""
        path = [self.root]
        node = self.root
        while not node.is_leaf:
            mbrs = node.child_mbrs()
            enlarged = M.v_merge_point(mbrs, x, y)
            delta = M.v_area(enlarged) - M.v_area(mbrs)
            node = node.children[int(np.lexsort((M.v_area(mbrs), delta))[0])]
            path.append(node)
        self.bf.insert_into(node.blk, pid, x, y)
        for n in path:
            n.mbr = M.expand(n.mbr, x, y)
        self.n_points += 1

    # -- bookkeeping -------------------------------------------------------
    @property
    def height(self) -> int:
        h, node = 1, self.root
        while node is not None and not node.is_leaf:
            h += 1
            node = node.children[0]
        return h

    def _count_nodes(self) -> tuple[int, int]:
        inner = leaves = 0
        stack = [self.root]
        while stack:
            n = stack.pop()
            if n.is_leaf:
                leaves += 1
            else:
                inner += 1
                stack.extend(n.children)
        return inner, leaves

    def size_bytes(self) -> int:
        inner, leaves = self._count_nodes()
        # 40 bytes per directory entry (MBR + pointer), one per child /
        # leaf reference, plus a header per inner page.
        entries = leaves
        stack = [self.root]
        while stack:
            n = stack.pop()
            if not n.is_leaf:
                entries += len(n.children)
                stack.extend(n.children)
        return self.bf.size_bytes() + entries * 40 + inner * 32


class HRRTree(TreeIndex):
    """Rank-space Hilbert-packed R-tree (the paper's HRR [37, 38])."""

    name = "HRR"

    def build(self, ids: np.ndarray, xy: np.ndarray) -> "HRRTree":
        t0 = time.perf_counter()
        ids = np.asarray(ids, dtype=np.int64)
        xy = np.asarray(xy, dtype=np.float64)
        self.n_points = len(ids)
        order = rank_space_order_np(xy[:, 0], xy[:, 1], "hilbert")
        ids_s, xy_s = ids[order], xy[order]
        base = self.bf.pack(ids_s, xy_s[:, 0], xy_s[:, 1])
        level: list[TNode] = []
        for i in range(base, self.bf.n_primary):
            leaf = TNode(True, i)
            leaf.recompute_mbr(self.bf)
            level.append(leaf)
        while len(level) > 1:
            nxt = []
            for s in range(0, len(level), self.fanout):
                node = TNode(False)
                node.children = level[s : s + self.fanout]
                node.recompute_mbr(self.bf)
                nxt.append(node)
            level = nxt
        self.root = level[0]
        self.build_seconds = time.perf_counter() - t0
        return self

    def size_bytes(self) -> int:
        # Two rank-mapping B-trees over the coordinates ([37, 38]) make
        # HRR larger than RSMI in the paper's Fig. 7a; account ~16 bytes
        # per point per tree (key + pointer).
        return super().size_bytes() + 2 * self.n_points * 16
