"""Grid File baseline [33] (static component, as the paper uses [22]).

A regular ``ceil(sqrt(n/B))^2`` grid over the data bbox; each cell owns
the blocks storing its points (one block per cell under uniform data, the
paper's sizing). A cell table maps cells to block lists. Under skew many
cells are empty while dense cells own long block lists, which is exactly
why Grid degrades on non-uniform data in the paper's experiments.
"""
from __future__ import annotations

import heapq
import time

import numpy as np

from repro import workloads
from repro.baselines.api import SpatialIndex
from repro.geo import mbr as M


class GridFile(SpatialIndex):
    name = "Grid"

    def __init__(self, cap: int = 100):
        super().__init__(cap)

    # ------------------------------------------------------------------
    def build(self, ids: np.ndarray, xy: np.ndarray) -> "GridFile":
        t0 = time.perf_counter()
        ids = np.asarray(ids, dtype=np.int64)
        xy = np.asarray(xy, dtype=np.float64)
        n = len(ids)
        self.n_points = n
        self.nc = max(1, int(np.ceil(np.sqrt(n / self.bf.cap))))
        self.bbox = (
            float(xy[:, 0].min()),
            float(xy[:, 1].min()),
            float(xy[:, 0].max()),
            float(xy[:, 1].max()),
        )
        cx, cy = self._cell_of(xy[:, 0], xy[:, 1])
        cell = cx * self.nc + cy
        order = np.lexsort((ids, cell))
        cell_s, ids_s, xy_s = cell[order], ids[order], xy[order]
        self.cell_blocks: dict[int, list[int]] = {}
        starts = np.flatnonzero(np.diff(cell_s, prepend=cell_s[0] - 1)) if n else []
        bounds = list(starts) + [n]
        for i in range(len(bounds) - 1):
            s, e = bounds[i], bounds[i + 1]
            base = self.bf.pack(ids_s[s:e], xy_s[s:e, 0], xy_s[s:e, 1])
            nb = self.bf.n_primary - base
            self.cell_blocks[int(cell_s[s])] = list(range(base, base + nb))
        self.build_seconds = time.perf_counter() - t0
        return self

    def _cell_of(self, x, y):
        xlo, ylo, xhi, yhi = self.bbox
        cx = np.clip(
            ((np.asarray(x) - xlo) / ((xhi - xlo) or 1.0) * self.nc).astype(np.int64),
            0,
            self.nc - 1,
        )
        cy = np.clip(
            ((np.asarray(y) - ylo) / ((yhi - ylo) or 1.0) * self.nc).astype(np.int64),
            0,
            self.nc - 1,
        )
        return cx, cy

    def _cell_rect(self, cx: int, cy: int):
        xlo, ylo, xhi, yhi = self.bbox
        w = ((xhi - xlo) or 1.0) / self.nc
        h = ((yhi - ylo) or 1.0) / self.nc
        return (xlo + cx * w, ylo + cy * h, xlo + (cx + 1) * w, ylo + (cy + 1) * h)

    # ------------------------------------------------------------------
    def _cell_blocks_of(self, x: float, y: float) -> list[int]:
        cx, cy = self._cell_of(x, y)
        return self.cell_blocks.get(int(cx) * self.nc + int(cy), [])

    def point_query(self, x: float, y: float):
        return self.bf.find(self._cell_blocks_of(x, y), x, y)

    def window_query(self, xlo, ylo, xhi, yhi) -> np.ndarray:
        cx0, cy0 = self._cell_of(xlo, ylo)
        cx1, cy1 = self._cell_of(xhi, yhi)
        blocks = (
            i
            for cx in range(int(cx0), int(cx1) + 1)
            for cy in range(int(cy0), int(cy1) + 1)
            for i in self.cell_blocks.get(cx * self.nc + cy, ())
        )
        return self.bf.scan(blocks, (xlo, ylo, xhi, yhi))[0]

    def knn_query(self, x: float, y: float, k: int) -> np.ndarray:
        """Best-first over cells by MINDIST (the paper notes the kNNs may
        spread over multiple cells, making Grid uncompetitive)."""
        if self.n_points == 0 or k <= 0:
            return np.empty(0, dtype=np.int64)
        cx0, cy0 = self._cell_of(x, y)
        heap = [(0.0, int(cx0), int(cy0))]
        seen = {(int(cx0), int(cy0))}
        cand_i, cand_x, cand_y = [], [], []
        kth = np.inf
        found = 0
        while heap:
            d, cx, cy = heapq.heappop(heap)
            if found >= k and d > kth:
                break
            ids, xs, ys = self.bf.scan(self.cell_blocks.get(cx * self.nc + cy, ()))
            if ids.size:
                cand_i.append(ids)
                cand_x.append(xs)
                cand_y.append(ys)
                found += ids.size
            if found >= k:
                ax = np.concatenate(cand_x)
                ay = np.concatenate(cand_y)
                dd = np.sort(np.hypot(ax - x, ay - y))
                kth = dd[min(k, len(dd)) - 1]
            for nx, ny in ((cx + 1, cy), (cx - 1, cy), (cx, cy + 1), (cx, cy - 1)):
                if 0 <= nx < self.nc and 0 <= ny < self.nc and (nx, ny) not in seen:
                    seen.add((nx, ny))
                    heapq.heappush(
                        heap, (M.mindist(self._cell_rect(nx, ny), x, y), nx, ny)
                    )
        if not cand_i:
            return np.empty(0, dtype=np.int64)
        xy = np.column_stack([np.concatenate(cand_x), np.concatenate(cand_y)])
        return workloads.knn_truth(np.concatenate(cand_i), xy, (x, y), k)

    # ------------------------------------------------------------------
    def insert(self, pid: int, x: float, y: float) -> None:
        cx, cy = self._cell_of(x, y)
        cell = int(cx) * self.nc + int(cy)
        blocks = self.cell_blocks.get(cell)
        if blocks is None:
            base = self.bf.pack(
                np.array([pid]), np.array([float(x)]), np.array([float(y)])
            )
            self.cell_blocks[cell] = [base]
        else:
            # Paper: "Grid adds a new point p to the last block in the
            # cell enclosing p".
            self.bf.insert_into(blocks[-1], pid, x, y)
        self.n_points += 1

    def delete(self, x: float, y: float):
        pid = self.bf.remove(self._cell_blocks_of(x, y), x, y)
        if pid is not None:
            self.n_points -= 1
        return pid

    # ------------------------------------------------------------------
    @property
    def height(self) -> int:
        return 1

    def size_bytes(self) -> int:
        # Cell table: one 8-byte entry per grid cell plus the block lists.
        table = self.nc * self.nc * 8 + sum(
            8 * len(v) for v in self.cell_blocks.values()
        )
        return self.bf.size_bytes() + table
