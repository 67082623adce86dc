"""Pinned answers and block accesses for all six indices.

Every index reads, filters and deletes through the same block file, so a
change to how a block chain is read must leave both what each query
returns (in order) and what it costs in block accesses untouched. For
each index on the conftest ``skewed`` and ``osm`` datasets, one fixed
sequence of operations is run and, per operation kind, the total block
accesses and a digest of the answers are compared to recorded values:

* ``point``: every 7th base point, in order;
* ``absent``: the same points nudged by 1e-7 in x (never indexed);
* ``window``: 30 windows of 0.5% of the data space;
* ``knn``: 20 query points, k = 10;
* ``window_exact`` / ``knn_exact``: the same, through RSMIa (RSMI only);
* ``insert``: 400 new points (digest: the whole block file afterwards);
* ``delete``: every 5th base point, after the inserts.
"""
from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import workloads
from tests.conftest import _build

INDICES = ("RSMI", "ZM", "Grid", "KDB", "HRR", "RR*")
K = 10


def _digest(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        a = np.asarray([-1 if p is None else p] if np.ndim(p) == 0 else p)
        h.update(np.int64(a.size).tobytes())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def new_points(ids: np.ndarray, xy: np.ndarray) -> np.ndarray:
    """The 400 inserted points, as ``(pid, x, y)`` rows: base points
    jittered by N(0, 1e-3), clipped to the unit square."""
    rng = np.random.default_rng(13)
    new_xy = np.clip(xy[rng.integers(0, len(xy), 400)] + rng.normal(0, 1e-3, (400, 2)), 0, 1)
    return np.column_stack([np.arange(len(ids), len(ids) + 400), new_xy])


def measure(name: str, ids: np.ndarray, xy: np.ndarray) -> dict:
    """``op -> (block accesses, answer digest)`` for one fresh index."""
    idx = _build(name, ids, xy)
    out = {}

    def run(op, fn, args):
        idx.reset_stats()
        answers = [fn(*map(float, a)) for a in args]
        out[op] = (idx.block_accesses, _digest(answers))

    probes = xy[::7]
    run("point", idx.point_query, probes)
    run("absent", idx.point_query, probes + [1e-7, 0.0])
    rects = workloads.window_queries(xy, 30, size_pct=0.5, seed=11)
    run("window", idx.window_query, rects)
    qs = workloads.knn_query_points(xy, 20, seed=12)
    run("knn", lambda x, y: idx.knn_query(x, y, K), qs)
    if name == "RSMI":
        run("window_exact", idx.window_query_exact, rects)
        run("knn_exact", lambda x, y: idx.knn_query_exact(x, y, K), qs)

    run("insert", lambda pid, x, y: idx.insert(int(pid), x, y), new_points(ids, xy))
    out["insert"] = (out["insert"][0], _digest(idx.bf.all_points()))
    run("delete", idx.delete, xy[::5])
    return out


# Recorded before the block-read path was unified; see CHANGES.md.
PINNED = {
    ("RSMI", "skewed"): {
        "point": (518, "471132481522e959"),
        "absent": (596, "822b3054d3166027"),
        "window": (212, "32647d706ae21baf"),
        "knn": (222, "d9a28f563b72c7c9"),
        "window_exact": (249, "9b40896098b747d5"),
        "knn_exact": (113, "d9a28f563b72c7c9"),
        "insert": (0, "617e12ec0d4d6ad1"),
        "delete": (1236, "7317b738e08feaf7"),
    },
    ("ZM", "skewed"): {
        "point": (2608, "471132481522e959"),
        "absent": (3009, "822b3054d3166027"),
        "window": (1072, "1e5629f609d26a28"),
        "knn": (1462, "d9a28f563b72c7c9"),
        "insert": (2800, "1287727ba2bd774b"),
        "delete": (3612, "7317b738e08feaf7"),
    },
    ("Grid", "skewed"): {
        "point": (1045, "471132481522e959"),
        "absent": (1695, "822b3054d3166027"),
        "window": (278, "5a7217712893d26d"),
        "knn": (132, "d9a28f563b72c7c9"),
        "insert": (0, "f273da20198c8b83"),
        "delete": (1363, "7317b738e08feaf7"),
    },
    ("KDB", "skewed"): {
        "point": (1287, "471132481522e959"),
        "absent": (1270, "822b3054d3166027"),
        "window": (266, "b303fa8ae5bfe1b6"),
        "knn": (105, "d9a28f563b72c7c9"),
        "insert": (0, "0d77c06f5904b4a4"),
        "delete": (1801, "7317b738e08feaf7"),
    },
    ("HRR", "skewed"): {
        "point": (1423, "471132481522e959"),
        "absent": (1486, "822b3054d3166027"),
        "window": (290, "23d5c259c62f7b01"),
        "knn": (119, "d9a28f563b72c7c9"),
        "insert": (0, "fce5bbf841efc309"),
        "delete": (2032, "7317b738e08feaf7"),
    },
    ("RR*", "skewed"): {
        "point": (1308, "471132481522e959"),
        "absent": (1308, "822b3054d3166027"),
        "window": (253, "a77c5adef9af2770"),
        "knn": (89, "d9a28f563b72c7c9"),
        "insert": (0, "4db24fdc0b1ccbf5"),
        "delete": (1855, "7317b738e08feaf7"),
    },
    ("RSMI", "osm"): {
        "point": (500, "471132481522e959"),
        "absent": (596, "822b3054d3166027"),
        "window": (383, "84c115d5551a96a2"),
        "knn": (292, "8afc9106fee0c4af"),
        "window_exact": (493, "05a140f2bd33f68d"),
        "knn_exact": (141, "8afc9106fee0c4af"),
        "insert": (0, "66c5d4baabe4f29c"),
        "delete": (1171, "7317b738e08feaf7"),
    },
    ("ZM", "osm"): {
        "point": (2632, "471132481522e959"),
        "absent": (3033, "822b3054d3166027"),
        "window": (1373, "c0e63692e0be1fd8"),
        "knn": (1027, "8afc9106fee0c4af"),
        "insert": (2800, "e31c6c8f2e46a2c8"),
        "delete": (3737, "7317b738e08feaf7"),
    },
    ("Grid", "osm"): {
        "point": (2566, "471132481522e959"),
        "absent": (4732, "822b3054d3166027"),
        "window": (382, "407b2014db0dd897"),
        "knn": (351, "8afc9106fee0c4af"),
        "insert": (0, "0455a09fa5b1a214"),
        "delete": (3795, "7317b738e08feaf7"),
    },
    ("KDB", "osm"): {
        "point": (1287, "471132481522e959"),
        "absent": (1271, "822b3054d3166027"),
        "window": (409, "70fbc7c913bac721"),
        "knn": (102, "8afc9106fee0c4af"),
        "insert": (0, "9192779369eb967b"),
        "delete": (1800, "7317b738e08feaf7"),
    },
    ("HRR", "osm"): {
        "point": (1552, "471132481522e959"),
        "absent": (1666, "822b3054d3166027"),
        "window": (406, "21dfc53507a9f94f"),
        "knn": (111, "8afc9106fee0c4af"),
        "insert": (0, "bbcb7b99aa2be127"),
        "delete": (2186, "7317b738e08feaf7"),
    },
    ("RR*", "osm"): {
        "point": (1325, "471132481522e959"),
        "absent": (1491, "822b3054d3166027"),
        "window": (490, "0edf9615cf97975c"),
        "knn": (110, "8afc9106fee0c4af"),
        "insert": (0, "3abbb0730f771995"),
        "delete": (1886, "7317b738e08feaf7"),
    },
}


@pytest.mark.parametrize("dist", ("skewed", "osm"))
@pytest.mark.parametrize("name", INDICES)
def test_answers_and_accesses_pinned(datasets, name, dist):
    ids, xy = datasets[dist]
    assert measure(name, ids, xy) == PINNED[name, dist]
