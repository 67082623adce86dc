"""RSMI — the Recursive Spatial Model Index (the paper's contribution).

Structure (Section 3): a tree of MLP sub-models. Inner models map a
point's coordinates to the curve value of its cell in a non-regular
``2^k x 2^k`` equi-depth grid (``k = floor(log4 N/B)``); points are then
grouped by the *model's prediction* (not the true cell) and each group is
indexed recursively. Groups of at most N points get a *leaf model*: the
points are ordered by rank-space curve value ([37, 38]), packed into
blocks of B, and an MLP learns coords -> block id with recorded maximum
under/over-prediction errors.

The build is expressed as a list of independent *training tasks* per
level, executed by a pluggable ``runner`` — serially here, or fanned out
over Spark executors by :mod:`repro.core.rsmi_spark`. Both runners call
:func:`run_task` with per-task deterministic seeds, so they produce the
same index up to the BLAS summation order of the training process.

Error-bound convention: ``err_l`` is the maximum amount the model
*over*-predicts (so the search extends ``err_l`` blocks to the left of
the prediction) and ``err_a`` the maximum it *under*-predicts (search to
the right); scanning ``[pred - err_l, pred + err_a]`` therefore never
misses an indexed point, which is what Algorithm 1 requires. Within that
range a point query, delete or window reads only the blocks whose chain
MBR can hold an answer: an MBR covers every live point of its chain, so
the filter drops reads, never answers (a deviation from Algorithm 1; see
DESIGN.md section 3).
"""
from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.baselines.api import (
    SpatialIndex,
    as_point,
    as_points,
    best_first_knn,
    center_out,
    expansion_knn,
)
from repro.geo import mbr as M
from repro.geo import sfc
from repro.geo.rank_space import rank_space_order_np
from repro.ml.mlp import MLP, hidden_for
from repro.ml.pmf import PiecewiseCDF


@dataclass
class RSMIParams:
    """Paper defaults: B=100, N=10,000, Hilbert curve."""

    B: int = 100
    N: int = 10_000
    curve: str = "hilbert"
    epochs_leaf: int = 500  # paper's epoch count
    epochs_inner: int = 150
    lr: float = 0.05
    seed: int = 0
    max_depth: int = 12
    gamma: int = 100  # piecewise-CDF pieces for kNN alpha estimation


def path_seed(path: tuple, seed: int) -> int:
    """Stable per-sub-model RNG seed shared by serial and Spark builds."""
    return zlib.crc32(f"{seed}:{path}".encode()) & 0x7FFFFFFF


def _norm(xy: np.ndarray, bbox: tuple) -> np.ndarray:
    """Normalise coordinates into the node's bbox unit square (training
    and inference must use the same transform)."""
    xlo, ylo, xhi, yhi = bbox
    sx = (xhi - xlo) or 1.0
    sy = (yhi - ylo) or 1.0
    out = np.empty_like(xy, dtype=np.float64)
    out[:, 0] = (xy[:, 0] - xlo) / sx
    out[:, 1] = (xy[:, 1] - ylo) / sy
    return out


def _slots(mlp: MLP, bbox: tuple, xy: np.ndarray, n: int) -> np.ndarray:
    """The slot in ``[0, n)`` (child group or block) the model predicts for
    each row of ``xy``: :func:`_slot` over rows, for the build."""
    p = mlp.predict(_norm(xy, bbox))
    return np.clip(np.rint(p * max(1, n - 1)), 0, n - 1).astype(np.int64)


# Where an infinite (or overflowing) coordinate makes ``_forward`` sum
# infinite terms of opposite sign into NaN, :func:`_slot` evaluates the
# model again with the normalised coordinates clamped to this many node
# widths; a built node's points normalise into [0, 1].
_FAR = 1e12


def _slot(mlp: MLP, bbox: tuple, x: float, y: float, n: int) -> int:
    """The slot of one point. The same IEEE operations as :func:`_norm`
    and :func:`_slots` (``round`` and ``np.rint`` both round half to even),
    so a query computes bit for bit what the build grouped and bounded.

    Every query-time model call passes here, so this is where coordinates
    become Python floats: ``float`` of a numpy scalar is exact, and numpy
    scalar arithmetic would cost twice as much per operation."""
    xn = (float(x) - bbox[0]) / ((bbox[2] - bbox[0]) or 1.0)
    yn = (float(y) - bbox[1]) / ((bbox[3] - bbox[1]) or 1.0)
    p = mlp.predict_one(xn, yn)
    if p != p:
        p = mlp.predict_one(min(max(xn, -_FAR), _FAR), min(max(yn, -_FAR), _FAR))
    return min(max(round(p * max(1, n - 1)), 0), n - 1)


def grid_cell_values(
    xy: np.ndarray, N: int, B: int, curve: str
) -> tuple[np.ndarray, int]:
    """Paper Section 3.2 partitioning grid: cut into ``2^k`` equi-depth
    columns by x (ties by y), then each column into ``2^k`` equi-depth
    cells by y (ties by x); number the cells by an order-k SFC. Returns
    the per-point cell curve value and the cell count ``4^k``."""
    n = len(xy)
    k = max(1, int(np.floor(np.log2(max(N // B, 4)) / 2)))
    ncols = 1 << k
    col = np.empty(n, dtype=np.int64)
    order_x = np.lexsort((xy[:, 1], xy[:, 0]))
    col[order_x] = np.arange(n) * ncols // n
    row = np.empty(n, dtype=np.int64)
    for c in range(ncols):
        in_col = np.flatnonzero(col == c)
        if in_col.size == 0:
            continue
        sub = in_col[np.lexsort((xy[in_col, 0], xy[in_col, 1]))]
        row[sub] = np.arange(len(sub)) * ncols // len(sub)
    return sfc.curve_encode(col, row, k, curve), 1 << (2 * k)


# ---------------------------------------------------------------------------
# Training tasks — pure functions usable on Spark executors
# ---------------------------------------------------------------------------

def run_inner_task(xy: np.ndarray, params: RSMIParams, seed: int) -> dict:
    """Train one inner (routing) model; returns its state + metadata."""
    bbox = M.of_points(xy[:, 0], xy[:, 1])
    cv, C = grid_cell_values(xy, params.N, params.B, params.curve)
    mlp = MLP(2, hidden_for(C), seed=seed)
    Xn = _norm(xy, bbox)
    mlp.fit(Xn, cv / max(1, C - 1), epochs=params.epochs_inner, lr=params.lr)
    return {"kind": "inner", "state": mlp.state(), "bbox": bbox, "C": C}


def run_leaf_task(ids: np.ndarray, xy: np.ndarray, params: RSMIParams, seed: int) -> dict:
    """Rank-space order + pack targets + train one leaf model."""
    n = len(ids)
    order = rank_space_order_np(xy[:, 0], xy[:, 1], params.curve)
    ids_s, xy_s = ids[order], xy[order]
    nblk = max(1, -(-n // params.B))
    target = np.arange(n, dtype=np.int64) // params.B
    bbox = M.of_points(xy[:, 0], xy[:, 1])
    mlp = MLP(2, hidden_for(nblk), seed=seed)
    denom = max(1, nblk - 1)
    mlp.fit(_norm(xy_s, bbox), target / denom, epochs=params.epochs_leaf, lr=params.lr)
    diff = _slots(mlp, bbox, xy_s, nblk) - target
    err_l = int(max(0, diff.max(initial=0)))  # over-prediction -> search left
    err_a = int(max(0, (-diff).max(initial=0)))  # under-prediction -> search right
    return {
        "kind": "leaf",
        "state": mlp.state(),
        "bbox": bbox,
        "nblk": int(nblk),
        "err_l": err_l,
        "err_a": err_a,
        "ids": ids_s,
        "xy": xy_s,
    }


def run_task(task: dict, params: RSMIParams) -> dict:
    """Train the model of one build task (the one function both runners
    execute), seeded by the task's path."""
    seed = path_seed(task["path"], params.seed)
    if task["kind"] == "inner":
        return run_inner_task(task["xy"], params, seed)
    return run_leaf_task(task["ids"], task["xy"], params, seed)


def serial_runner(tasks: list[dict], params: RSMIParams) -> list[dict]:
    """Execute one level's training tasks in-process (no Spark)."""
    return [run_task(t, params) for t in tasks]


# ---------------------------------------------------------------------------
# Index nodes
# ---------------------------------------------------------------------------

@dataclass
class _Inner:
    mlp: MLP
    bbox: tuple
    C: int
    children: dict = field(default_factory=dict)  # group id -> node
    mbr: tuple = M.EMPTY

    def route(self, x: float, y: float) -> int:
        return _slot(self.mlp, self.bbox, x, y, self.C)


@dataclass
class _Leaf:
    mlp: MLP
    bbox: tuple
    base: int  # global id of the first primary block
    nblk: int
    err_l: int
    err_a: int
    mbr: tuple = M.EMPTY
    n_points: int = 0

    def predict_block(self, x: float, y: float) -> int:
        return _slot(self.mlp, self.bbox, x, y, self.nblk)

    def search_range(self, x: float, y: float) -> tuple[int, int, int]:
        """Absolute ids of the predicted block and of the first and last
        block its error bounds allow for (x, y)."""
        j = self.predict_block(x, y)
        lo = max(0, j - self.err_l)
        hi = min(self.nblk - 1, j + self.err_a)
        return self.base + j, self.base + lo, self.base + hi


class RSMI(SpatialIndex):
    """The learned spatial index, with approximate (paper default) and
    exact (RSMIa: MBR-guided traversal) query paths, plus updates."""

    name = "RSMI"

    def __init__(self, params: RSMIParams | None = None):
        self.params = params or RSMIParams()
        super().__init__(self.params.B)
        self.root = None
        self.pmf_x = None
        self.pmf_y = None

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def build(self, ids: np.ndarray, xy: np.ndarray, runner=None) -> "RSMI":
        """Level-synchronous recursive build. ``runner(tasks, params)``
        executes one level's training tasks; defaults to in-process."""
        t0 = time.perf_counter()
        runner = runner or serial_runner
        ids, xy = as_points(ids, xy)
        self.n_points = len(ids)
        self.pmf_x = PiecewiseCDF(xy[:, 0], self.params.gamma)
        self.pmf_y = PiecewiseCDF(xy[:, 1], self.params.gamma)

        nodes: dict[tuple, _Inner] = {}
        leaf_records: list[tuple[tuple, dict]] = []
        frontier = [((), np.arange(len(ids)), 0, False)]
        while frontier:
            tasks = []
            for path, idx, depth, force_leaf in frontier:
                if (
                    len(idx) <= self.params.N
                    or depth >= self.params.max_depth
                    or force_leaf
                ):
                    tasks.append(
                        {"kind": "leaf", "path": path, "ids": ids[idx], "xy": xy[idx]}
                    )
                else:
                    tasks.append({"kind": "inner", "path": path, "xy": xy[idx]})
            payloads = runner(tasks, self.params)
            nxt = []
            for (path, idx, depth, _), payload in zip(frontier, payloads):
                if payload["kind"] == "leaf":
                    leaf_records.append((path, payload))
                    continue
                inner = _Inner(
                    MLP.from_state(payload["state"]), payload["bbox"], payload["C"]
                )
                nodes[path] = inner
                if path:
                    nodes[path[:-1]].children[path[-1]] = inner
                preds = _slots(inner.mlp, inner.bbox, xy[idx], inner.C)
                for g in np.unique(preds):
                    sub = idx[preds == g]
                    # Guard: a model that fails to split its input would
                    # recurse forever; force such a child to be a leaf.
                    nxt.append(
                        (path + (int(g),), sub, depth + 1, len(sub) == len(idx))
                    )
            frontier = nxt

        # Pack leaves into the block file in recursive-partition order so
        # global block ids follow the paper's linked-block layout.
        leaf_records.sort(key=lambda r: r[0])
        for path, payload in leaf_records:
            base = self.bf.pack(payload["ids"], payload["xy"][:, 0], payload["xy"][:, 1])
            leaf = _Leaf(
                MLP.from_state(payload["state"]),
                payload["bbox"],
                base,
                payload["nblk"],
                payload["err_l"],
                payload["err_a"],
                n_points=len(payload["ids"]),
            )
            leaf.mbr = payload["bbox"]
            if path == ():
                self.root = leaf
            else:
                nodes[path[:-1]].children[path[-1]] = leaf
        if self.root is None:
            self.root = nodes[()]
        self._recompute_mbrs(self.root)
        self.build_seconds = time.perf_counter() - t0
        return self

    def _recompute_mbrs(self, node) -> tuple:
        if isinstance(node, _Leaf):
            return node.mbr
        m = M.EMPTY
        for child in node.children.values():
            m = M.merge(m, self._recompute_mbrs(child))
        node.mbr = m
        return m

    # ------------------------------------------------------------------
    # Descent helpers
    # ------------------------------------------------------------------
    def _descend(self, x: float, y: float):
        """Walk to the leaf for (x, y), the one routing rule of every
        operation. A predicted group with no sub-model falls back to the
        nearest existing group: an insert lands there, so a lookup must
        look there too, and a point that is not indexed is still not found
        by the error-bounded scan of that leaf."""
        node = self.root
        path = []
        while isinstance(node, _Inner):
            path.append(node)
            g = node.route(x, y)
            child = node.children.get(g)
            if child is None:
                keys = np.fromiter(node.children.keys(), dtype=np.int64)
                child = node.children[int(keys[np.argmin(np.abs(keys - g))])]
            node = child
        return node, path

    def _error_range(self, leaf: _Leaf, x: float, y: float):
        """The blocks of ``leaf``'s error range for (x, y) whose chain MBR
        contains it, predicted block first, then outward (lazily, so a
        lookup stops reading at its hit)."""
        j, lo, hi = leaf.search_range(x, y)
        return self.bf.meeting((x, y, x, y), lo, hi, center_out(j, lo, hi))

    # ------------------------------------------------------------------
    # Point query (Algorithm 1)
    # ------------------------------------------------------------------
    def point_query(self, x: float, y: float):
        leaf, _ = self._descend(x, y)
        return self.bf.find(self._error_range(leaf, x, y), x, y)

    # ------------------------------------------------------------------
    # Window query (Algorithm 2, four-corner Hilbert heuristic)
    # ------------------------------------------------------------------
    def _corner_bounds(self, xlo, ylo, xhi, yhi) -> tuple[int, int]:
        begin, end = None, None
        for cx, cy in ((xlo, ylo), (xhi, yhi), (xhi, ylo), (xlo, yhi)):
            leaf, _ = self._descend(cx, cy)
            _, lo, hi = leaf.search_range(cx, cy)
            begin = lo if begin is None else min(begin, lo)
            end = hi if end is None else max(end, hi)
        return begin, end

    def window_query_blocks(self, xlo, ylo, xhi, yhi):
        """Candidate points of the blocks in the corners' range whose chain
        MBR meets the window (before the final containment filter); shared
        by window and kNN paths. The rect is read as Python floats."""
        rect = float(xlo), float(ylo), float(xhi), float(yhi)
        begin, end = self._corner_bounds(*rect)
        return self.bf.scan(self.bf.meeting(rect, begin, end))

    def _window_pts(self, xlo, ylo, xhi, yhi):
        ids, xs, ys = self.window_query_blocks(xlo, ylo, xhi, yhi)
        m = M.v_points_in(xs, ys, (xlo, ylo, xhi, yhi))
        return ids[m], xs[m], ys[m]

    def window_query(self, xlo, ylo, xhi, yhi) -> np.ndarray:
        return self._window_pts(xlo, ylo, xhi, yhi)[0]

    # ------------------------------------------------------------------
    # kNN query (Algorithm 3)
    # ------------------------------------------------------------------
    def knn_query(self, x: float, y: float, k: int) -> np.ndarray:
        return expansion_knn(
            x, y, k, self.n_points, self.pmf_x, self.pmf_y, self._window_pts
        )

    # ------------------------------------------------------------------
    # Exact variants (RSMIa): MBR-guided traversal
    # ------------------------------------------------------------------
    def window_query_exact(self, xlo, ylo, xhi, yhi) -> np.ndarray:
        rect = (xlo, ylo, xhi, yhi)
        return self.bf.scan(self._blocks_meeting(rect), rect)[0]

    def _blocks_meeting(self, rect):
        """Blocks whose MBR meets ``rect``, found by MBR-guided traversal."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, _Inner):
                self.bf.charge()  # an inner "page" of MBRs is inspected
                for child in node.children.values():
                    if M.intersects(child.mbr, rect):
                        stack.append(child)
                continue
            yield from self.bf.meeting(rect, node.base, node.base + node.nblk - 1)

    def knn_query_exact(self, x: float, y: float, k: int) -> np.ndarray:
        """Best-first search [40] over sub-model and block MBRs; a block
        is queued as the 1-tuple of its id."""

        def expand(node):
            if isinstance(node, _Inner):
                self.bf.charge()
                kids = node.children.values()
                return None, [(M.mindist(c.mbr, x, y), c) for c in kids]
            if isinstance(node, _Leaf):
                mbrs = self.bf.mbrs[node.base : node.base + node.nblk]
                dd = M.v_mindist(mbrs, x, y).tolist()
                return None, zip(dd, ((node.base + j,) for j in range(node.nblk)))
            return self.bf.scan(node), ()

        return best_first_knn(x, y, k, self.root if self.n_points else None, expand)

    # ------------------------------------------------------------------
    # Updates (Section 5)
    # ------------------------------------------------------------------
    def insert(self, pid: int, x: float, y: float) -> None:
        x, y = as_point(x, y)
        leaf, path = self._descend(x, y)
        self.bf.insert_into(leaf.base + leaf.predict_block(x, y), pid, x, y)
        leaf.mbr = M.expand(leaf.mbr, x, y)
        leaf.n_points += 1
        for node in path:
            node.mbr = M.expand(node.mbr, x, y)
        self.n_points += 1

    def delete(self, x: float, y: float):
        leaf, _ = self._descend(x, y)
        pid = self.bf.remove(self._error_range(leaf, x, y), x, y)
        if pid is not None:
            leaf.n_points -= 1
            self.n_points -= 1
            # MBRs are not shrunk (correct, possibly loose), as in the
            # paper's "keep error bounds valid" policy.
        return pid

    # ------------------------------------------------------------------
    # RSMIr periodic rebuild (Section 6.2.5)
    # ------------------------------------------------------------------
    def rebuild_oversized(self) -> int:
        """Rebuild every leaf whose live population exceeds N (grown via
        inserts): retrain it as a fresh sub-tree whose blocks are appended
        to the file (old blocks are retired from the size accounting).
        Returns the number of leaves rebuilt."""
        rebuilt = 0
        oversized = [
            (parent, key, node)
            for parent, key, node in self._walk()
            if isinstance(node, _Leaf) and node.n_points > self.params.N
        ]
        for parent, key, leaf in oversized:
            ids, xs, ys = self.bf.retire(range(leaf.base, leaf.base + leaf.nblk))
            xy = np.stack([xs, ys], axis=1)
            sub = RSMI(self.params)
            # Build the replacement sub-tree against *this* block file so
            # its new leaves get fresh block ids at the end of the file.
            sub.bf = self.bf
            sub.build(ids, xy)
            if parent is None:
                self.root = sub.root
            else:
                parent.children[key] = sub.root
            rebuilt += 1
        if rebuilt:
            self._recompute_mbrs(self.root)
        return rebuilt

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _walk(self):
        """Yield ``(parent, key, node)`` for every node of the live tree:
        pop the last, push the children in insertion order."""
        stack = [(None, None, self.root)]
        while stack:
            parent, key, node = stack.pop()
            yield parent, key, node
            if isinstance(node, _Inner):
                stack.extend((node, g, c) for g, c in node.children.items())

    @property
    def height(self) -> int:
        def h(node):
            if isinstance(node, _Leaf):
                return 1
            return 1 + max((h(c) for c in node.children.values()), default=0)

        return h(self.root)

    @property
    def n_models(self) -> int:
        return sum(1 for _ in self._walk())

    def max_errors(self) -> tuple[int, int]:
        """Max (err_l, err_a) across the live leaf models (paper Table 4)."""
        leaves = [n for _, _, n in self._walk() if isinstance(n, _Leaf)]
        errl = max((lf.err_l for lf in leaves), default=0)
        erra = max((lf.err_a for lf in leaves), default=0)
        return errl, erra

    def size_bytes(self) -> int:
        model_b = 0
        for _, _, node in self._walk():
            model_b += node.mlp.size_bytes() + 32  # MBR per sub-model
            if isinstance(node, _Inner):
                model_b += 12 * len(node.children)  # child table entries
            else:
                model_b += 16 + 32 * node.nblk  # base/nblk/errs, block MBRs
        pmf_b = self.pmf_x.size_bytes() + self.pmf_y.size_bytes()
        return self.bf.size_bytes() + model_b + pmf_b
