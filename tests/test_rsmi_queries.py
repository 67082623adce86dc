"""RSMI point / window / kNN query tests (Algorithms 1–3 + RSMIa)."""
import copy
from collections import defaultdict

import numpy as np
import pytest

from repro import workloads
from repro.baselines.api import center_out
from repro.core.rsmi import RSMI
from repro.ml.mlp import MLP
from tests.conftest import DISTS, make_dataset, small_rsmi_params
from tests.test_block_accesses import new_points


# ---------------------------------------------------------------------------
# Point queries (Algorithm 1)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dist", DISTS)
def test_point_query_finds_every_indexed_point(built_indices, datasets, dist):
    idx = built_indices("RSMI", dist)
    ids, xy = datasets[dist]
    for i in range(0, len(ids), 7):  # dense sample
        assert idx.point_query(float(xy[i, 0]), float(xy[i, 1])) == ids[i]


@pytest.mark.parametrize("dist", ["uniform", "skewed"])
def test_point_query_absent_point_returns_none(built_indices, dist):
    idx = built_indices("RSMI", dist)
    assert idx.point_query(-0.5, -0.5) is None
    assert idx.point_query(0.123456789, 0.987654321) is None


def test_point_query_access_count_bounded(built_indices, datasets):
    idx = built_indices("RSMI", "skewed")
    ids, xy = datasets["skewed"]
    errl, erra = idx.max_errors()
    idx.reset_stats()
    nq = 200
    for i in range(nq):
        idx.point_query(float(xy[i, 0]), float(xy[i, 1]))
    avg = idx.block_accesses / nq
    assert avg <= errl + erra + 1
    assert avg < 25  # should be far below the worst case


# ---------------------------------------------------------------------------
# Window queries (Algorithm 2)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dist", DISTS)
def test_window_no_false_positives(built_indices, datasets, dist):
    idx = built_indices("RSMI", dist)
    ids, xy = datasets[dist]
    rects = workloads.window_queries(xy, 25, size_pct=0.5, seed=1)
    for r in rects:
        got = set(idx.window_query(*map(float, r)).tolist())
        truth = set(workloads.window_truth(ids, xy, r).tolist())
        assert not (got - truth), "approximate windows must never return outsiders"


@pytest.mark.parametrize("dist", DISTS)
def test_window_recall_above_paper_floor(built_indices, datasets, dist):
    """Paper: recall consistently above 87% across settings."""
    idx = built_indices("RSMI", dist)
    ids, xy = datasets[dist]
    rects = workloads.window_queries(xy, 30, size_pct=1.0, seed=2)
    recs = []
    for r in rects:
        got = set(idx.window_query(*map(float, r)).tolist())
        truth = set(workloads.window_truth(ids, xy, r).tolist())
        if truth:
            recs.append(len(got & truth) / len(truth))
    assert np.mean(recs) >= 0.87


def test_window_empty_region(built_indices):
    idx = built_indices("RSMI", "uniform")
    out = idx.window_query(2.0, 2.0, 3.0, 3.0)
    assert len(out) == 0


def test_window_whole_space_high_recall(built_indices, datasets):
    idx = built_indices("RSMI", "uniform")
    ids, _ = datasets["uniform"]
    got = idx.window_query(0.0, 0.0, 1.0, 1.0)
    assert len(set(got.tolist())) >= 0.95 * len(ids)


@pytest.mark.parametrize("dist", DISTS)
def test_window_exact_rsmia_matches_truth(built_indices, datasets, dist):
    idx = built_indices("RSMI", dist)
    ids, xy = datasets[dist]
    rects = workloads.window_queries(xy, 20, size_pct=0.8, seed=3)
    for r in rects:
        got = sorted(idx.window_query_exact(*map(float, r)).tolist())
        truth = sorted(workloads.window_truth(ids, xy, r).tolist())
        assert got == truth


@pytest.mark.parametrize("aspect", workloads.ASPECT_RATIOS)
def test_window_aspect_ratios(built_indices, datasets, aspect):
    idx = built_indices("RSMI", "skewed")
    ids, xy = datasets["skewed"]
    rects = workloads.window_queries(xy, 15, size_pct=0.5, aspect=aspect, seed=4)
    recs = []
    for r in rects:
        got = set(idx.window_query(*map(float, r)).tolist())
        truth = set(workloads.window_truth(ids, xy, r).tolist())
        assert not (got - truth)
        if truth:
            recs.append(len(got & truth) / len(truth))
    assert np.mean(recs) >= 0.85


# ---------------------------------------------------------------------------
# kNN queries (Algorithm 3)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dist", DISTS)
@pytest.mark.parametrize("k", [1, 5, 25])
def test_knn_recall(built_indices, datasets, dist, k):
    idx = built_indices("RSMI", dist)
    ids, xy = datasets[dist]
    qs = workloads.knn_query_points(xy, 15, seed=5)
    recs = []
    for q in qs:
        got = idx.knn_query(float(q[0]), float(q[1]), k)
        truth = workloads.knn_truth(ids, xy, q, k)
        recs.append(len(set(got.tolist()) & set(truth.tolist())) / k)
    assert np.mean(recs) >= 0.87  # paper's floor


def test_knn_returns_k_results(built_indices):
    idx = built_indices("RSMI", "normal")
    got = idx.knn_query(0.5, 0.5, 25)
    assert len(got) == 25
    assert len(set(got.tolist())) == 25


def test_knn_k_larger_than_n(built_indices, datasets):
    idx = built_indices("RSMI", "uniform")
    ids, _ = datasets["uniform"]
    got = idx.knn_query(0.5, 0.5, len(ids) + 100)
    assert len(got) <= len(ids)


def test_knn_k_zero(built_indices):
    idx = built_indices("RSMI", "uniform")
    assert len(idx.knn_query(0.5, 0.5, 0)) == 0


@pytest.mark.parametrize("dist", ["uniform", "skewed", "osm"])
def test_knn_exact_rsmia_matches_truth(built_indices, datasets, dist):
    idx = built_indices("RSMI", dist)
    ids, xy = datasets[dist]
    for q in workloads.knn_query_points(xy, 10, seed=6):
        got = idx.knn_query_exact(float(q[0]), float(q[1]), 10)
        truth = workloads.knn_truth(ids, xy, q, 10)
        # Equal distance ties can permute; compare distances.
        gd = np.hypot(xy[got, 0] - q[0], xy[got, 1] - q[1])
        td = np.hypot(xy[truth, 0] - q[0], xy[truth, 1] - q[1])
        assert np.allclose(np.sort(gd), np.sort(td))


def test_knn_results_sorted_by_distance(built_indices, datasets):
    idx = built_indices("RSMI", "tiger")
    _, xy = datasets["tiger"]
    got = idx.knn_query(0.4, 0.6, 25)
    d = np.hypot(xy[got, 0] - 0.4, xy[got, 1] - 0.6)
    assert np.all(np.diff(d) >= -1e-12)


# ---------------------------------------------------------------------------
# The block-MBR filter: it drops reads, never answers
# ---------------------------------------------------------------------------

def _costed(idx, fn, *args):
    """``fn(*args)`` and the block accesses it made."""
    idx.reset_stats()
    out = fn(*args)
    return out, idx.block_accesses


def _alg1_range(idx, x, y):
    """Algorithm 1's whole error range for (x, y), predicted block first."""
    leaf, _ = idx._descend(x, y)
    return center_out(*leaf.search_range(x, y))


def _check_points(idx, pts, live):
    """Each point query returns what a lookup over the whole error range
    returns, a live id at (x, y) or None when there is none, and reads no
    more blocks than that lookup."""
    for x, y in pts:
        got, cost = _costed(idx, idx.point_query, x, y)
        want, width = _costed(idx, idx.bf.find, _alg1_range(idx, x, y), x, y)
        assert got == want and cost <= width
        assert got in live[x, y] if live[x, y] else got is None


def _check_windows(idx, rects):
    """Each window returns what a scan of Algorithm 1's block range returns,
    in the same order, and reads no more blocks than that scan."""
    for r in rects:
        got, cost = _costed(idx, idx.window_query, *r)
        begin, end = idx._corner_bounds(*r)
        want, width = _costed(idx, idx.bf.scan, range(begin, end + 1), r)
        assert np.array_equal(got, want[0]) and cost <= width


def _check_deletes(idx, pts, live):
    """Each delete removes what a removal over the whole error range of a
    copy removes, a live id at (x, y), and probes no more blocks."""
    ref = copy.deepcopy(idx)
    for x, y in pts:
        want, width = _costed(ref, ref.bf.remove, _alg1_range(ref, x, y), x, y)
        got, cost = _costed(idx, idx.delete, x, y)
        assert got == want and cost <= width and got in live[x, y]
        live[x, y].discard(got)


@pytest.mark.parametrize("dist", DISTS)
def test_mbr_filter_drops_reads_not_answers(datasets, dist):
    """Point queries, windows and deletes answer as Algorithm 1's whole
    range does, at build, after the pinned inserts, after every 5th base
    point is deleted, and over the live leaves after an RSMIr rebuild."""
    ids, xy = datasets[dist]
    idx = RSMI(small_rsmi_params()).build(ids, xy)
    live = defaultdict(set)
    for pid, (x, y) in zip(ids.tolist(), xy.tolist()):
        live[x, y].add(pid)
    probes = [tuple(p) for p in xy[::7].tolist()]
    probes += [(x + 1e-7, y) for x, y in probes]  # never indexed
    rects = [tuple(r) for r in workloads.window_queries(xy, 30, size_pct=0.5, seed=11).tolist()]

    def check(pts):
        _check_points(idx, pts, live)
        _check_windows(idx, rects)

    check(probes)
    added = [(int(pid), x, y) for pid, x, y in new_points(ids, xy).tolist()]
    for pid, x, y in added:
        idx.insert(pid, x, y)
        live[x, y].add(pid)
    check(probes + [(x, y) for _, x, y in added])
    _check_deletes(idx, [tuple(p) for p in xy[::5].tolist()], live)
    check(probes + [(x, y) for _, x, y in added])
    _, nxy = make_dataset(dist, 3000, 7)
    for pid, (x, y) in enumerate(nxy.tolist(), start=2 * len(ids)):
        idx.insert(pid, x, y)
        live[x, y].add(pid)
    assert idx.rebuild_oversized() > 0
    check(probes + [(x, y) for _, x, y in added] + [tuple(p) for p in nxy[::7].tolist()])


# ---------------------------------------------------------------------------
# numpy scalars in, the same answers out; the models see Python floats
# ---------------------------------------------------------------------------

def _f64(args):
    """``args`` with every float as a numpy scalar."""
    return [np.float64(a) if isinstance(a, float) else a for a in args]


def _same_on_f64(a, b, method, calls):
    """``a.method(*args)`` on Python floats and ``b.method`` on numpy
    scalars give the same answer, ids in the same order, at the same block
    accesses."""
    for args in calls:
        want, wcost = _costed(a, getattr(a, method), *args)
        got, gcost = _costed(b, getattr(b, method), *_f64(args))
        if isinstance(want, np.ndarray):
            assert got.tolist() == want.tolist(), (method, args)
        else:
            assert got == want, (method, args)
        assert gcost == wcost, (method, args)


def test_numpy_scalars_same_as_floats(index_factory):
    """Point, window, kNN, insert and delete on ``np.float64`` arguments
    answer and read exactly as on Python floats: RSMI for every operation,
    ZM for kNN, which shares Algorithm 3."""
    a, ids, xy = index_factory("RSMI")
    b = copy.deepcopy(a)
    pts = [tuple(p) for p in xy[::23].tolist()]
    pts += [(x + 1e-7, y) for x, y in pts[:20]]  # never indexed
    rects = [tuple(r) for r in workloads.window_queries(xy, 25, size_pct=0.5, seed=6).tolist()]
    rects += [(-np.inf, -np.inf, np.inf, np.inf), (0.2, -np.inf, 0.3, np.inf)]
    knn = [(x, y, k) for (x, y), k in zip(pts[:30], [1, 7, 25] * 10)]

    def reads():
        _same_on_f64(a, b, "point_query", pts)
        _same_on_f64(a, b, "window_query", rects)
        _same_on_f64(a, b, "knn_query", knn)

    reads()
    added = [(int(pid), x, y) for pid, x, y in new_points(ids, xy).tolist()]
    _same_on_f64(a, b, "insert", added)
    pts += [(x, y) for _, x, y in added[::9]]
    reads()
    _same_on_f64(a, b, "delete", pts[::2])
    reads()
    zm, _, _ = index_factory("ZM")
    _same_on_f64(zm, copy.deepcopy(zm), "knn_query", knn)


def test_models_see_python_floats(built_indices, datasets, monkeypatch):
    """Every model call of a window on ``np.float64`` corners and of a kNN
    query gets Python floats, so no query runs on numpy scalar arithmetic."""
    idx = built_indices("RSMI", "skewed")
    _, xy = datasets["skewed"]
    seen = set()
    predict_one = MLP.predict_one

    def spy(self, x, y=0.0):
        seen.add((type(x), type(y)))
        return predict_one(self, x, y)

    monkeypatch.setattr(MLP, "predict_one", spy)
    for r in workloads.window_queries(xy, 10, size_pct=0.5, seed=7):
        idx.window_query(*r)
    assert seen == {(float, float)}
    seen.clear()
    for q in workloads.knn_query_points(xy, 10, seed=8):
        idx.knn_query(float(q[0]), float(q[1]), 10)
        idx.knn_query(q[0], q[1], 10)
    assert seen == {(float, float)}
