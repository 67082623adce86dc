"""Spark-parallel build: equivalence with the serial build."""
import numpy as np
import pytest

from repro import synth_data, workloads
from repro.core.rsmi import RSMI, _Inner, _Leaf
from repro.core.rsmi_spark import build_rsmi_spark, spark_runner
from tests.conftest import make_dataset, small_rsmi_params

N = 2000


@pytest.fixture(scope="module")
def pair(spark):
    """(spark-built, serially-built) RSMI over the same skewed points."""
    params = small_rsmi_params()
    df = synth_data.spatial_points(spark, "skewed", N, 3)
    sidx = build_rsmi_spark(spark, df, params)
    ids, xy = make_dataset("skewed", N, 3)
    lidx = RSMI(params).build(ids, xy)
    return sidx, lidx, ids, xy


def test_same_structure(pair):
    sidx, lidx, _, _ = pair
    assert sidx.height == lidx.height
    assert sidx.n_models == lidx.n_models
    assert sidx.bf.n_primary == lidx.bf.n_primary


def test_same_block_layout(pair):
    """Every point lands in the same global block in both builds."""
    sidx, lidx, _, _ = pair
    sa, sx, sy = sidx.bf.all_points()
    la, lx, ly = lidx.bf.all_points()
    assert np.array_equal(sa, la)
    assert np.array_equal(sx, lx)


def test_same_weights_up_to_blas_noise(pair):
    """Both builds give every node the same bbox, routing table, block
    layout and error bounds. Weights agree up to the summation order of
    the driver's multithreaded BLAS (~6e-16 on the root model)."""
    sidx, lidx, _, _ = pair

    def walk(a, b):
        assert type(a) is type(b)
        assert a.bbox == b.bbox
        for w in ("W1", "b1", "W2", "b2"):
            assert np.allclose(getattr(a.mlp, w), getattr(b.mlp, w), rtol=0, atol=1e-12)
        if isinstance(a, _Inner):
            assert a.C == b.C
            assert sorted(a.children) == sorted(b.children)
            for g in a.children:
                walk(a.children[g], b.children[g])
        else:
            assert (a.base, a.nblk) == (b.base, b.nblk)
            assert (a.err_l, a.err_a) == (b.err_l, b.err_a)

    walk(sidx.root, lidx.root)


def test_point_query_parity(pair):
    sidx, lidx, ids, xy = pair
    for i in range(0, N, 17):
        x, y = float(xy[i, 0]), float(xy[i, 1])
        assert sidx.point_query(x, y) == lidx.point_query(x, y) == ids[i]


def test_window_query_parity(pair):
    sidx, lidx, ids, xy = pair
    for r in workloads.window_queries(xy, 10, size_pct=1.0, seed=5):
        a = sorted(sidx.window_query(*map(float, r)).tolist())
        b = sorted(lidx.window_query(*map(float, r)).tolist())
        assert a == b


def test_spark_build_from_unsorted_dataframe(spark):
    """The build must be invariant to Spark scan/partition order."""
    params = small_rsmi_params()
    df = synth_data.spatial_points(spark, "uniform", 800, 9)
    shuffled = df.orderBy("y").repartition(7)
    a = build_rsmi_spark(spark, shuffled, params)
    b = build_rsmi_spark(spark, df, params)
    ga, _, _ = a.bf.all_points()
    gb, _, _ = b.bf.all_points()
    assert np.array_equal(ga, gb)


def test_spark_runner_empty_tasks(spark):
    assert spark_runner(spark)([], small_rsmi_params()) == []


def test_spark_build_rejects_non_finite(spark):
    """The Spark build goes through ``RSMI.build``, so it refuses a NaN row
    by id before shipping any training task."""
    df = spark.createDataFrame([(1, 0.5, 0.5), (2, float("nan"), 0.1)], ["id", "x", "y"])
    with pytest.raises(ValueError, match=r"\(id 2\) is not finite"):
        build_rsmi_spark(spark, df, small_rsmi_params())
