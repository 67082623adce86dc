"""RSMI update handling (Section 5) + RSMIr rebuilds."""
import numpy as np
import pytest

from repro import workloads
from repro.core.rsmi import RSMI, _Inner
from tests.conftest import make_dataset, small_rsmi_params
from tests.test_block_accesses import _digest


@pytest.fixture()
def rsmi_with_data(index_factory):
    idx, ids, xy = index_factory("RSMI", "skewed", n=1500)
    return idx, ids, xy


def _new_points(n, seed=99):
    _, xy = make_dataset("skewed", n, seed)
    ids = np.arange(10_000, 10_000 + n, dtype=np.int64)
    return ids, xy


def test_insert_then_point_query_finds_it(rsmi_with_data):
    idx, ids, xy = rsmi_with_data
    nids, nxy = _new_points(200)
    for pid, (x, y) in zip(nids, nxy):
        idx.insert(int(pid), float(x), float(y))
    for pid, (x, y) in zip(nids, nxy):
        assert idx.point_query(float(x), float(y)) == pid


def test_insert_keeps_existing_points_findable(rsmi_with_data):
    idx, ids, xy = rsmi_with_data
    nids, nxy = _new_points(300)
    for pid, (x, y) in zip(nids, nxy):
        idx.insert(int(pid), float(x), float(y))
    for i in range(0, len(ids), 11):
        assert idx.point_query(float(xy[i, 0]), float(xy[i, 1])) == ids[i]


def test_insert_updates_cardinality_and_blocks(rsmi_with_data):
    idx, ids, xy = rsmi_with_data
    n0 = idx.n_points
    nids, nxy = _new_points(500)
    for pid, (x, y) in zip(nids, nxy):
        idx.insert(int(pid), float(x), float(y))
    assert idx.n_points == n0 + 500
    assert idx.bf.n_overflow > 0
    got, _, _ = idx.bf.all_points()
    assert len(got) == n0 + 500


def test_window_after_insertions_sees_new_points(rsmi_with_data):
    idx, ids, xy = rsmi_with_data
    nids, nxy = _new_points(300)
    for pid, (x, y) in zip(nids, nxy):
        idx.insert(int(pid), float(x), float(y))
    all_ids = np.concatenate([ids, nids])
    all_xy = np.concatenate([xy, nxy])
    rects = workloads.window_queries(all_xy, 15, size_pct=1.0, seed=1)
    recs = []
    for r in rects:
        got = set(idx.window_query(*map(float, r)).tolist())
        truth = set(workloads.window_truth(all_ids, all_xy, r).tolist())
        assert not (got - truth)
        if truth:
            recs.append(len(got & truth) / len(truth))
    assert np.mean(recs) >= 0.85


def test_knn_after_insertions(rsmi_with_data):
    idx, ids, xy = rsmi_with_data
    nids, nxy = _new_points(300)
    for pid, (x, y) in zip(nids, nxy):
        idx.insert(int(pid), float(x), float(y))
    all_ids = np.concatenate([ids, nids])
    all_xy = np.concatenate([xy, nxy])
    recs = []
    for q in workloads.knn_query_points(all_xy, 10, seed=2):
        got = idx.knn_query(float(q[0]), float(q[1]), 10)
        truth = workloads.knn_truth(all_ids, all_xy, q, 10)
        recs.append(len(set(got.tolist()) & set(truth.tolist())) / 10)
    assert np.mean(recs) >= 0.85


def test_insert_expands_mbrs(rsmi_with_data):
    idx, _, _ = rsmi_with_data
    idx.insert(99999, 0.999999, 0.999999)
    assert idx.root.mbr[2] >= 0.999999 and idx.root.mbr[3] >= 0.999999
    assert idx.point_query(0.999999, 0.999999) == 99999


def test_delete_removes_point(rsmi_with_data):
    idx, ids, xy = rsmi_with_data
    for i in range(0, 200, 3):
        assert idx.delete(float(xy[i, 0]), float(xy[i, 1])) == ids[i]
        assert idx.point_query(float(xy[i, 0]), float(xy[i, 1])) is None


def test_delete_missing_returns_none(rsmi_with_data):
    idx, _, _ = rsmi_with_data
    assert idx.delete(-1.0, -1.0) is None


def test_delete_then_reinsert(rsmi_with_data):
    idx, ids, xy = rsmi_with_data
    x, y = float(xy[0, 0]), float(xy[0, 1])
    idx.delete(x, y)
    idx.insert(55555, x, y)
    assert idx.point_query(x, y) == 55555


def test_delete_updates_cardinality(rsmi_with_data):
    idx, ids, xy = rsmi_with_data
    n0 = idx.n_points
    for i in range(50):
        idx.delete(float(xy[i, 0]), float(xy[i, 1]))
    assert idx.n_points == n0 - 50


def test_error_bounds_survive_updates(rsmi_with_data):
    """Inserted (overflow) blocks must not invalidate the learned error
    bounds for the original points."""
    idx, ids, xy = rsmi_with_data
    nids, nxy = _new_points(400)
    for pid, (x, y) in zip(nids, nxy):
        idx.insert(int(pid), float(x), float(y))
    for i in range(0, len(ids), 13):
        assert idx.point_query(float(xy[i, 0]), float(xy[i, 1])) == ids[i]


def test_rsmir_rebuild_oversized(rsmi_with_data):
    """RSMIr: after enough inserts a leaf exceeds N and gets rebuilt;
    all points stay findable and overflow pressure drops."""
    idx, ids, xy = rsmi_with_data
    # Concentrate inserts around one existing point so a single leaf's
    # population blows past N=500.
    rng = np.random.default_rng(42)
    cx, cy = xy[7]
    nxy = np.clip(
        np.stack([cx + rng.normal(0, 1e-4, 700), cy + rng.normal(0, 1e-4, 700)], 1),
        0.0,
        1.0,
    )
    nids = np.arange(10_000, 10_700, dtype=np.int64)
    for pid, (x, y) in zip(nids, nxy):
        idx.insert(int(pid), float(x), float(y))
    rebuilt = idx.rebuild_oversized()
    assert rebuilt >= 1
    for pid, (x, y) in zip(nids, nxy):
        assert idx.point_query(float(x), float(y)) == pid
    for i in range(0, len(ids), 17):
        assert idx.point_query(float(xy[i, 0]), float(xy[i, 1])) == ids[i]


def test_rebuild_noop_when_no_oversized(rsmi_with_data):
    idx, _, _ = rsmi_with_data
    assert idx.rebuild_oversized() == 0


def test_inserted_points_found_and_deleted_on_osm():
    """Point queries and deletes route exactly as inserts do: on OSM some
    inserted points fall in groups the inner models never predicted for
    build data, and those must still be found and deleted."""
    ids, xy = make_dataset("osm")
    idx = RSMI(small_rsmi_params()).build(ids, xy)
    nxy = np.random.default_rng(5).random((3000, 2))
    nids = np.arange(len(ids), len(ids) + len(nxy))
    for pid, (x, y) in zip(nids, nxy):
        idx.insert(int(pid), float(x), float(y))
    lost = [
        pid for pid, (x, y) in zip(nids, nxy)
        if idx.point_query(float(x), float(y)) != pid
        or idx.delete(float(x), float(y)) != pid
    ]
    assert lost == []


@pytest.fixture(scope="module")
def rebuilt():
    """The conftest skewed RSMI after 3000 more skewed inserts and one
    RSMIr pass: ``(index, all ids, all points, sizes before/after, leaves
    rebuilt)``."""
    ids, xy = make_dataset("skewed")
    idx = RSMI(small_rsmi_params()).build(ids, xy)
    _, nxy = make_dataset("skewed", 3000, 7)
    for pid, (x, y) in enumerate(nxy, start=len(ids)):
        idx.insert(pid, float(x), float(y))
    size0 = idx.size_bytes()
    n = idx.rebuild_oversized()
    all_ids = np.arange(len(ids) + len(nxy), dtype=np.int64)
    return idx, all_ids, np.concatenate([xy, nxy]), (size0, idx.size_bytes()), n


def test_max_errors_reads_only_live_leaves(rebuilt):
    """After RSMIr rebuilds, Table 4's bounds come from the leaves reachable
    from the root, not from the leaves the rebuilds replaced."""
    idx, _, _, _, n = rebuilt
    assert n > 0
    live, stack = [], [idx.root]
    while stack:
        node = stack.pop()
        if isinstance(node, _Inner):
            stack.extend(node.children.values())
        else:
            live.append(node)
    assert idx.max_errors() == (
        max(lf.err_l for lf in live),
        max(lf.err_a for lf in live),
    )


def test_rsmir_rebuild_pinned(rebuilt):
    """The block file retires a rebuilt leaf's chains: what a rebuild
    returns, what it does to the size, and what RSMIa then answers and
    costs stay as recorded before the block MBRs moved into storage. The
    sizes include 32 bytes per live primary block's MBR (157 blocks
    before the rebuild, 276 after)."""
    idx, all_ids, all_xy, sizes, n = rebuilt
    assert n == 6
    assert sizes == (201172, 211476)
    assert idx.max_errors() == (5, 5)
    idx.reset_stats()
    rects = workloads.window_queries(all_xy, 30, size_pct=0.5, seed=11)
    answers = [idx.window_query_exact(*map(float, r)) for r in rects]
    answers += [idx.knn_query_exact(float(x), float(y), 10) for x, y in all_xy[::50]]
    assert (idx.block_accesses, _digest(answers)) == (3007, "60efdd60152b36fc")
    for r, got in zip(rects, answers):
        truth = workloads.window_truth(all_ids, all_xy, r)
        assert sorted(got.tolist()) == sorted(truth.tolist())
