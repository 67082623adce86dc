"""Seeded inputs for the benchmark workloads.

The base data of a workload are fixed (``synth_data.spatial_points_np(dist,
n, 0)``); the run seed draws only the operations. Each operation carries the
answer it is checked against, computed by brute force over the live point
set at that place in the sequence with ``repro.workloads.window_truth`` /
``knn_truth``.

Operations run against one of two targets: the freshly built index, which
reads never change, or a copy of it that a pass's writes mutate in order
(``Op.on_copy``). Every pass starts from a new copy, so each replay of an
operation sees the same index state.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import synth_data, workloads
from repro.core.rsmi import RSMIParams

K = workloads.DEFAULT_K

# Reads on the built index, and the writes beside them on a copy. The
# contract asks every workload for insert and delete latencies, so the
# read-only workloads write only to the copy, never to the index they read.
READ_MIX = {"point": 1000, "window": 300, "knn": 400}
WRITE_PROBE = {"insert": 300, "delete": 150}


@dataclass(frozen=True)
class Workload:
    name: str
    dist: str
    n: int
    spark: bool
    reads: dict  # kind -> count, against the built index
    stream: dict  # kind -> count, in order against the per-pass copy
    # Timed builds per run. A serial build is cheap enough to repeat; the
    # Spark build runs once, after an untimed warm-up, to fit the time budget.
    builds: int = 2
    params: RSMIParams = field(default_factory=RSMIParams)


# Why each workload exists is recorded in BENCHMARK.json and design.json.
INGEST_STREAM = {
    "point": 300,
    "point_inserted": 120,
    "point_deleted": 100,
    "window": 200,
    "knn": 500,
    "insert": 600,
    "delete": 300,
}
WORKLOADS = {
    w.name: w
    for w in (
        Workload("query-skewed", "skewed", 20_000, False, READ_MIX, WRITE_PROBE),
        Workload("ingest-osm", "osm", 20_000, False, {}, INGEST_STREAM),
        Workload("build-spark", "skewed", 40_000, True, READ_MIX, WRITE_PROBE, builds=1),
    )
}

# Every PACE_EVERY-th operation, from the first, is the reference operation
# ``replay.pace``; see replay.py.
PACE_EVERY = 10

METHOD = {
    "point": "point_query",
    "window": "window_query",
    "knn": "knn_query",
    "insert": "insert",
    "delete": "delete",
}


@dataclass
class Op:
    kind: str  # a key of METHOD, or "pace"
    on_copy: bool
    args: tuple
    expect: object  # point/delete: id or None; window/knn: truth ids; insert: None
    pos: int  # place in the copy's write order (liveness), -1 on the built index


@dataclass
class Inputs:
    ids: np.ndarray  # base ids 0..n-1
    xy: np.ndarray  # base points
    ops: list[Op]
    born: np.ndarray  # per id: stream position of its insert, -1 for base points
    died: np.ndarray  # per id: stream position of its delete, else len(stream)
    live_at_end: int  # live points on the copy after a full pass (n without writes)


def _insert_pool(wl: Workload, xy: np.ndarray, count: int, seed: int) -> np.ndarray:
    """New points from the workload's distribution: the public generator
    ties the cluster layout to its seed, so fresh draws from the base
    layout (base seed 0) come from the chunk generator. Points whose
    coordinates repeat an earlier point are dropped, since delete and the
    point query address a point by its coordinates."""
    pts = synth_data._gen_spatial_chunk(
        wl.dist, 2 * count, 7_000_003 + seed, 0
    )[["x", "y"]].to_numpy()
    seen = set(map(tuple, xy.tolist()))
    keep = []
    for i, p in enumerate(map(tuple, pts.tolist())):
        if p not in seen:
            seen.add(p)
            keep.append(i)
    if len(keep) < count:
        raise ValueError("insert pool too small after removing duplicates")
    return pts[keep[:count]]


def _spread_bits(v: np.ndarray) -> np.ndarray:
    v = v.astype(np.uint64)
    v = (v | (v << np.uint64(8))) & np.uint64(0x00FF00FF)
    v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F0F0F)
    v = (v | (v << np.uint64(2))) & np.uint64(0x33333333)
    return (v | (v << np.uint64(1))) & np.uint64(0x55555555)


def spatial_order(xy: np.ndarray) -> np.ndarray:
    """Point indices in Z-order of their ranks: any run of consecutive
    entries is one neighbourhood, at every density."""
    n = len(xy)
    q = [np.argsort(np.argsort(c, kind="stable"), kind="stable") * 65536 // n for c in xy.T]
    return np.argsort(_spread_bits(q[0]) | (_spread_bits(q[1]) << np.uint64(1)), kind="stable")


def stratified(order: np.ndarray, count: int, rng) -> list[int]:
    """``count`` points spaced evenly along ``order`` from a random offset,
    in random order. Every seed then queries each neighbourhood in
    proportion to its data, so mean access counts vary little from seed to
    seed while the queries still follow the data distribution."""
    picks = order[((np.arange(count) + rng.random()) * len(order) / count).astype(np.int64)]
    rng.shuffle(picks)
    return picks.tolist()


def make_inputs(wl: Workload, seed: int) -> Inputs:
    rng = np.random.default_rng(seed)
    n = wl.n
    ids, xy = np.arange(n, dtype=np.int64), synth_data.spatial_points_np(wl.dist, n, 0)
    order = spatial_order(xy)
    xlo, ylo, xhi, yhi = workloads.data_bbox(xy)
    area = (xhi - xlo) * (yhi - ylo) * workloads.DEFAULT_WINDOW_PCT / 100.0
    half_w = np.sqrt(area * workloads.DEFAULT_ASPECT) / 2
    half_h = np.sqrt(area / workloads.DEFAULT_ASPECT) / 2

    def read_op(kind, live_ids, live_xy, on_copy, pos, j=None, centre=None):
        """A read at live point ``j``, or centred at ``centre``."""
        x, y = map(float, live_xy[j] if centre is None else centre)
        if kind == "point":
            return Op("point", on_copy, (x, y), int(live_ids[j]), pos)
        if kind == "window":
            rect = (x - half_w, y - half_h, x + half_w, y + half_h)
            truth = np.sort(workloads.window_truth(live_ids, live_xy, rect))
            return Op("window", on_copy, rect, truth, pos)
        truth = workloads.knn_truth(live_ids, live_xy, (x, y), K)
        return Op("knn", on_copy, (x, y, K), truth, pos)

    reads = []
    for kind, count in wl.reads.items():
        reads += [read_op(kind, ids, xy, False, -1, j) for j in stratified(order, count, rng)]
    rng.shuffle(reads)

    kinds = [k for k, c in wl.stream.items() for _ in range(c)]
    rng.shuffle(kinds)
    centres = {
        k: iter(stratified(order, wl.stream.get(k, 0), rng))
        for k in ("point", "window", "knn", "delete")
    }
    n_ins = wl.stream.get("insert", 0)
    all_xy = np.vstack([xy, _insert_pool(wl, xy, n_ins, seed)]) if n_ins else xy
    all_ids = np.arange(len(all_xy), dtype=np.int64)
    born = np.full(len(all_xy), -1, dtype=np.int64)
    born[n:] = len(kinds)  # not yet inserted
    died = np.full(len(all_xy), len(kinds), dtype=np.int64)
    alive = np.zeros(len(all_xy), dtype=bool)
    alive[:n] = True
    next_new = n
    stream = []
    deleted = []  # not yet looked up
    for pos, kind in enumerate(kinds):
        live = np.flatnonzero(alive)
        if kind == "insert":
            pid = next_new
            next_new += 1
            x, y = float(all_xy[pid, 0]), float(all_xy[pid, 1])
            stream.append(Op("insert", True, (pid, x, y), None, pos))
            alive[pid] = True
            born[pid] = pos
        elif kind == "delete":  # a base point, or any live point once it is gone
            pid = next(centres["delete"])
            if not alive[pid]:
                pid = int(live[rng.integers(len(live))])
            x, y = float(all_xy[pid, 0]), float(all_xy[pid, 1])
            stream.append(Op("delete", True, (x, y), pid, pos))
            alive[pid] = False
            died[pid] = pos
            deleted.append(pid)
        elif kind == "point_inserted" and (alive[n:next_new]).any():
            pid = n + int(rng.choice(np.flatnonzero(alive[n:next_new])))
            stream.append(read_op("point", all_ids, all_xy, True, pos, pid))
        elif kind == "point_deleted" and deleted:  # the latest delete, as deletes are spread
            pid = deleted.pop()
            x, y = float(all_xy[pid, 0]), float(all_xy[pid, 1])
            stream.append(Op("point", True, (x, y), None, pos))
        elif kind in ("window", "knn"):  # centred on a data point, live or not
            stream.append(
                read_op(kind, all_ids[live], all_xy[live], True, pos, None, all_xy[next(centres[kind])])
            )
        else:  # a live base point; also the lookup when nothing is inserted/deleted yet
            j = next(centres["point"], None) if kind == "point" else None
            if j is None or not alive[j]:
                j = int(live[rng.integers(len(live))])
            stream.append(read_op("point", all_ids, all_xy, True, pos, j))

    # Interleave reads with the copy's ordered stream.
    slots = np.zeros(len(reads) + len(stream), dtype=bool)
    slots[: len(stream)] = True
    rng.shuffle(slots)
    it_s, it_r = iter(stream), iter(reads)
    ops = []
    for i, s in enumerate(slots):
        if i % (PACE_EVERY - 1) == 0:
            ops.append(Op("pace", False, (), None, -1))
        ops.append(next(it_s) if s else next(it_r))
    return Inputs(ids, xy, ops, born, died, int(alive.sum()))
