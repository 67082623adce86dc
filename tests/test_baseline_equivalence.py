"""Cross-index result equivalence: every exact index must return the
ground truth for every query type, on every distribution."""
import numpy as np
import pytest

from repro import workloads
from tests.conftest import DISTS

EXACT = ("Grid", "KDB", "HRR", "RR*", "ZM")  # ZM point/window are exact too


@pytest.mark.parametrize("dist", DISTS)
@pytest.mark.parametrize("name", EXACT)
def test_point_queries_exact(built_indices, datasets, name, dist):
    idx = built_indices(name, dist)
    ids, xy = datasets[dist]
    for i in range(0, len(ids), 23):
        assert idx.point_query(float(xy[i, 0]), float(xy[i, 1])) == ids[i]
    assert idx.point_query(-2.0, -2.0) is None


@pytest.mark.parametrize("dist", DISTS)
@pytest.mark.parametrize("name", ("Grid", "KDB", "HRR", "RR*"))
def test_window_queries_exact(built_indices, datasets, name, dist):
    idx = built_indices(name, dist)
    ids, xy = datasets[dist]
    for r in workloads.window_queries(xy, 12, size_pct=1.0, seed=7):
        got = sorted(idx.window_query(*map(float, r)).tolist())
        truth = sorted(workloads.window_truth(ids, xy, r).tolist())
        assert got == truth


@pytest.mark.parametrize("dist", ["uniform", "skewed", "osm"])
def test_zm_window_high_recall_no_fp(built_indices, datasets, dist):
    """ZM windows bound via corner Z-values: no false positives and
    near-perfect recall (paper Fig. 10b shows ZM recall ~= 1)."""
    idx = built_indices("ZM", dist)
    ids, xy = datasets[dist]
    recs = []
    for r in workloads.window_queries(xy, 15, size_pct=1.0, seed=8):
        got = set(idx.window_query(*map(float, r)).tolist())
        truth = set(workloads.window_truth(ids, xy, r).tolist())
        assert not (got - truth)
        if truth:
            recs.append(len(got & truth) / len(truth))
    assert np.mean(recs) >= 0.95


@pytest.mark.parametrize("dist", ["uniform", "skewed", "tiger"])
@pytest.mark.parametrize("name", ("Grid", "KDB", "HRR", "RR*"))
@pytest.mark.parametrize("k", [1, 10])
def test_knn_exact_trees_and_grid(built_indices, datasets, name, dist, k):
    idx = built_indices(name, dist)
    ids, xy = datasets[dist]
    for q in workloads.knn_query_points(xy, 8, seed=9):
        got = idx.knn_query(float(q[0]), float(q[1]), k)
        truth = workloads.knn_truth(ids, xy, q, k)
        gd = np.sort(np.hypot(xy[got, 0] - q[0], xy[got, 1] - q[1]))
        td = np.sort(np.hypot(xy[truth, 0] - q[0], xy[truth, 1] - q[1]))
        assert np.allclose(gd, td), f"{name} kNN mismatch"


@pytest.mark.parametrize("dist", ["skewed", "osm"])
@pytest.mark.parametrize("k", [5, 25])
def test_zm_knn_recall(built_indices, datasets, dist, k):
    idx = built_indices("ZM", dist)
    ids, xy = datasets[dist]
    recs = []
    for q in workloads.knn_query_points(xy, 10, seed=10):
        got = idx.knn_query(float(q[0]), float(q[1]), k)
        truth = workloads.knn_truth(ids, xy, q, k)
        recs.append(len(set(got.tolist()) & set(truth.tolist())) / k)
    assert np.mean(recs) >= 0.85


@pytest.mark.parametrize("name", EXACT + ("RSMI",))
def test_empty_window_everywhere(built_indices, name):
    idx = built_indices(name, "uniform")
    assert len(idx.window_query(5.0, 5.0, 6.0, 6.0)) == 0


UNBOUNDED = [
    (0.2, 0.0, np.inf, 0.3),
    (-np.inf, -np.inf, 0.3, 0.3),
    (0.2, 0.0, 1e300, 0.3),
    (-1e300, 0.0, 0.4, 0.3),
]


@pytest.mark.parametrize("rect", UNBOUNDED)
@pytest.mark.parametrize("name", EXACT + ("RSMI", "RSMIa"))
def test_unbounded_window_corners(built_indices, datasets, name, rect):
    """A window with an infinite or huge corner: the exact indices and
    RSMIa return exactly the points inside, RSMI and ZM no point outside."""
    ids, xy = datasets["skewed"]
    truth = set(workloads.window_truth(ids, xy, rect).tolist())
    if name == "RSMIa":
        got = built_indices("RSMI", "skewed").window_query_exact(*rect).tolist()
    else:
        got = built_indices(name, "skewed").window_query(*rect).tolist()
    assert len(got) == len(set(got))
    if name in ("RSMI", "ZM"):
        assert set(got) <= truth
    else:
        assert set(got) == truth
