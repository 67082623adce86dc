"""Harness smoke tests (the machinery behind jobs/)."""
import numpy as np
import pytest

from repro import harness, workloads
from tests.conftest import make_dataset


@pytest.fixture(scope="module")
def small():
    return make_dataset("skewed", 1500, 13)


@pytest.mark.parametrize("name", harness.INDEX_NAMES)
def test_build_index_all_names(small, name):
    ids, xy = small
    idx = harness.build_index(name, ids, xy)
    assert idx.point_query(float(xy[3, 0]), float(xy[3, 1])) == ids[3]


def test_build_index_unknown():
    with pytest.raises(ValueError):
        harness.build_index("nope", np.arange(1), np.zeros((1, 2)))


def test_measure_point_queries(small):
    ids, xy = small
    idx = harness.build_index("Grid", ids, xy)
    r = harness.measure_point_queries(idx, xy[:50])
    assert r["hit_rate"] == 1.0
    assert r["time_us"] > 0 and r["accesses"] >= 1


def test_measure_window_queries(small):
    ids, xy = small
    idx = harness.build_index("KDB", ids, xy)
    rects = workloads.window_queries(xy, 10, size_pct=1.0, seed=0)
    truths = [workloads.window_truth(ids, xy, r) for r in rects]
    r = harness.measure_window_queries(idx, rects, truths)
    assert r["recall"] == 1.0 and r["false_positives"] == 0


def test_measure_knn_queries(small):
    ids, xy = small
    idx = harness.build_index("HRR", ids, xy)
    qs = workloads.knn_query_points(xy, 10, seed=1)
    truths = [workloads.knn_truth(ids, xy, q, 5) for q in qs]
    r = harness.measure_knn_queries(idx, qs, 5, truths)
    assert r["recall"] >= 0.99


def test_measure_insertions(small):
    ids, xy = small
    idx = harness.build_index("Grid", ids, xy)
    nids = np.arange(90_000, 90_020)
    nxy = make_dataset("skewed", 20, 77)[1]
    r = harness.measure_insertions(idx, nids, nxy)
    assert r["time_us"] > 0
    assert idx.n_points == len(ids) + 20


def test_fmt_table():
    s = harness.fmt_table("T", ["a", "bb"], [[1, 2.5], [3, 4.0]])
    assert "T" in s and "bb" in s and "2.5" in s


def test_save_results(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path)
    out = harness.save_results("smoke", {"x": 1})
    assert out.exists() and "smoke" in out.name


def test_dataset_helper():
    ids, xy = harness.dataset("uniform", 500, 3)
    assert len(ids) == 500 and xy.shape == (500, 2)
