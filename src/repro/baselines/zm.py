"""ZM — the Z-order model baseline [46], as implemented by the paper.

Points are quantised to a ``2^bits x 2^bits`` grid over the data bbox and
ordered by the Z-value (Morton code) of their cell; a 3-level RMI with
(1, ceil(sqrt(n/B^2)), ceil(n/B^2)) MLP sub-models learns Z-value ->
rank. The fixed-resolution grid is precisely ZM's weakness that RSMI
fixes: under skew the Z-value gaps are wildly uneven, so the CDF is hard
to fit and the error bounds blow up (paper Table 4). Within the error
range, point lookups binary-search the per-block Z boundaries (Section
6.2.2 notes ZM does this), so its block-access count grows with
log2(error range).

Window queries use the Z-curve property that the bottom-left/top-right
corners carry the min/max Z-value of the window; kNN reuses the shared
expansion algorithm (Section 6.2.4: "ZM does not come with a kNN
algorithm, so we use our kNN algorithm for it").
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.baselines.api import SpatialIndex, as_point, as_points, expansion_knn
from repro.geo import mbr as M
from repro.geo.sfc import z_encode, z_encode_one
from repro.ml.mlp import MLP, hidden_for
from repro.ml.pmf import PiecewiseCDF


@dataclass
class ZMParams:
    B: int = 100
    bits: int = 16  # grid resolution per dimension
    epochs: int = 150
    lr: float = 0.03
    seed: int = 0
    gamma: int = 100


class ZM(SpatialIndex):
    name = "ZM"

    def __init__(self, params: ZMParams | None = None):
        self.params = params or ZMParams()
        super().__init__(self.params.B)

    # ------------------------------------------------------------------
    def _to_z(self, x, y) -> np.ndarray:
        bits = self.params.bits
        return z_encode(*M.cells(self.bbox, 1 << bits, x, y), bits)

    def _z_of(self, x: float, y: float) -> int:
        """:meth:`_to_z` of one point, on Python numbers: the same cell and
        the same bits, without numpy's per-call cost."""
        return z_encode_one(*M.cell(self.bbox, 1 << self.params.bits, x, y))

    def build(self, ids: np.ndarray, xy: np.ndarray) -> "ZM":
        t0 = time.perf_counter()
        p = self.params
        ids, xy = as_points(ids, xy)
        n = len(ids)
        self.n_points = n
        self.bbox = M.of_points(xy[:, 0], xy[:, 1])
        self._n0 = n  # rank-denormalisation base, frozen at build time
        z = self._to_z(xy[:, 0], xy[:, 1])
        order = np.lexsort((ids, z))
        self._z_sorted = z[order]
        xy_s, ids_s = xy[order], ids[order]
        self.bf.pack(ids_s, xy_s[:, 0], xy_s[:, 1])
        self.nblk = self.bf.n_primary
        # Index-resident per-block Z boundaries for the binary search.
        self._blk_zmin = self._z_sorted[:: p.B].copy()
        self._zmax_norm = float(4 ** p.bits)
        zn = self._z_sorted / self._zmax_norm
        rank = np.arange(n) / max(1, n - 1)

        # 3-level RMI: 1, ceil(sqrt(n/B^2)), ceil(n/B^2) sub-models.
        m2 = max(1, -(-n // (p.B * p.B)))
        m1 = max(1, int(np.ceil(np.sqrt(n / (p.B * p.B)))))
        self.m1, self.m2 = m1, m2
        hid = hidden_for(100)

        def fit(mask: np.ndarray, seed: int) -> MLP:
            m = MLP(1, hid, seed=seed)
            if mask.any():
                m.fit(zn[mask, None], rank[mask], epochs=p.epochs, lr=p.lr)
            return m

        all_mask = np.ones(n, dtype=bool)
        self.l0 = fit(all_mask, p.seed)
        pred0 = np.clip(self.l0.predict(zn[:, None]), 0.0, 1.0)
        a1 = np.minimum((pred0 * m1).astype(np.int64), m1 - 1)
        self.l1 = [fit(a1 == i, p.seed + 1 + i) for i in range(m1)]
        pred1 = np.empty(n)
        for i in range(m1):
            mask = a1 == i
            if mask.any():
                pred1[mask] = self.l1[i].predict(zn[mask, None])
        pred1 = np.clip(pred1, 0.0, 1.0)
        a2 = np.minimum((pred1 * m2).astype(np.int64), m2 - 1)
        self.l2 = [fit(a2 == i, p.seed + 1000 + i) for i in range(m2)]
        # Per-leaf-model error bounds, in blocks.
        self.err_l = np.zeros(m2, dtype=np.int64)
        self.err_a = np.zeros(m2, dtype=np.int64)
        true_blk = np.arange(n, dtype=np.int64) // p.B
        for i in range(m2):
            mask = a2 == i
            if not mask.any():
                continue
            pr = np.clip(self.l2[i].predict(zn[mask, None]), 0.0, 1.0)
            pblk = np.minimum((pr * max(1, n - 1)).astype(np.int64) // p.B, self.nblk - 1)
            d = pblk - true_blk[mask]
            self.err_l[i] = max(0, d.max(initial=0))
            self.err_a[i] = max(0, (-d).max(initial=0))
        self.pmf_x = PiecewiseCDF(xy[:, 0], p.gamma)
        self.pmf_y = PiecewiseCDF(xy[:, 1], p.gamma)
        self.build_seconds = time.perf_counter() - t0
        return self

    # ------------------------------------------------------------------
    def _descend(self, z: int) -> tuple[int, int]:
        """(leaf model, predicted block) of the 3-level RMI for a Z-value."""
        zn = z / self._zmax_norm
        r0 = min(max(self.l0.predict_one(zn), 0.0), 1.0)
        i1 = min(int(r0 * self.m1), self.m1 - 1)
        r1 = min(max(self.l1[i1].predict_one(zn), 0.0), 1.0)
        i2 = min(int(r1 * self.m2), self.m2 - 1)
        r2 = min(max(self.l2[i2].predict_one(zn), 0.0), 1.0)
        blk = min(int(r2 * max(1, self._n0 - 1)) // self.params.B, self.nblk - 1)
        return i2, blk

    def _predict(self, z: int) -> tuple[int, int, int]:
        """(predicted block, err_l, err_a) for a Z-value."""
        i2, blk = self._descend(z)
        return blk, int(self.err_l[i2]), int(self.err_a[i2])

    def _candidate_blocks(self, z: int):
        """Primary block ids that can contain Z-value ``z``, found by a
        leftmost binary search over the per-block Z boundaries within the
        predicted error range. Every probe is charged as a block access
        (the boundary lives in the block); duplicate Z-values shared by a
        grid cell may span several blocks, all of which are yielded."""
        blk, errl, erra = self._predict(z)
        lo0 = max(0, blk - errl)
        lo, hi = lo0, min(self.nblk - 1, blk + erra) + 1
        while lo < hi:
            mid = (lo + hi) // 2
            self.bf.charge()  # probing block `mid`'s boundary
            if self._blk_zmin[mid] < z:
                lo = mid + 1
            else:
                hi = mid
        # lo = first in-range block with zmin >= z; the previous block's
        # tail may also hold z (its zmin is < z but its max may reach z).
        j = max(lo0, lo - 1)
        while j < self.nblk and (j <= lo or self._blk_zmin[j] <= z):
            yield j
            j += 1

    def point_query(self, x: float, y: float):
        z = self._z_of(x, y)
        return self.bf.find(self._candidate_blocks(z), x, y)

    # ------------------------------------------------------------------
    def _window_pts(self, xlo, ylo, xhi, yhi):
        zl = self._z_of(xlo, ylo)
        zh = self._z_of(xhi, yhi)
        bl, el, _ = self._predict(zl)
        bh, _, ea = self._predict(zh)
        begin = max(0, min(bl - el, bh))
        end = min(self.nblk - 1, bh + ea)
        return self.bf.scan(range(begin, end + 1), (xlo, ylo, xhi, yhi))

    def window_query(self, xlo, ylo, xhi, yhi) -> np.ndarray:
        return self._window_pts(xlo, ylo, xhi, yhi)[0]

    def knn_query(self, x: float, y: float, k: int) -> np.ndarray:
        return expansion_knn(
            x, y, k, self.n_points, self.pmf_x, self.pmf_y, self._window_pts
        )

    # ------------------------------------------------------------------
    def insert(self, pid: int, x: float, y: float) -> None:
        """Insert at the true Z-sorted block and, when that lands outside
        the responsible sub-model's error range, widen the range — the
        update-handling policy the paper describes (Section 2: error
        ranges must grow to stay valid under insertions). Keeps point,
        window, and kNN queries correct at the cost of gradually wider
        scans, which is exactly the degradation the paper measures."""
        x, y = as_point(x, y)
        z = self._z_of(x, y)
        pos = int(np.searchsorted(self._blk_zmin, z, side="right")) - 1
        blk = max(0, pos)
        self.bf.charge(max(1, int(np.log2(self.nblk + 1))))  # locate cost
        self.bf.insert_into(blk, pid, x, y)
        i2, pred = self._descend(z)
        self.err_l[i2] = max(self.err_l[i2], pred - blk)
        self.err_a[i2] = max(self.err_a[i2], blk - pred)
        self.n_points += 1

    def delete(self, x: float, y: float):
        z = self._z_of(x, y)
        pid = self.bf.remove(self._candidate_blocks(z), x, y)
        if pid is not None:
            self.n_points -= 1
        return pid

    # ------------------------------------------------------------------
    def max_errors(self) -> tuple[int, int]:
        return int(self.err_l.max(initial=0)), int(self.err_a.max(initial=0))

    @property
    def height(self) -> int:
        return 3

    @property
    def n_models(self) -> int:
        return 1 + self.m1 + self.m2

    def size_bytes(self) -> int:
        models = self.l0.size_bytes() + sum(m.size_bytes() for m in self.l1)
        models += sum(m.size_bytes() for m in self.l2) + 16 * self.m2
        return (
            self.bf.size_bytes()
            + models
            + self._blk_zmin.size * 8
            + self.pmf_x.size_bytes()
            + self.pmf_y.size_bytes()
        )
