"""Model cost: one ``MLP.predict_one`` call and ``MLP.predict`` over 10k
rows, at the hidden widths RSMI uses (4 for small leaves, 33 for the root
of a 20k-40k build, 51 at the paper's cap), and ``MLP.fit`` at the two
shapes a 20k ``rsmi_bench`` build trains.

A point query makes one model call per level of the tree (two on a
two-level RSMI) and a window query four times as many, one descent per
corner, so these figures give what model evaluation costs an operation.
Training is most of a build: one root fit (n = 20k, H = 33, 150 epochs)
and about 54 leaf fits (a few hundred rows, H = 4, 500 epochs).
``PiecewiseCDF.slope_alpha`` at γ = 100 sizes every kNN query's first
window, twice per query (α_x and α_y).
Run with ``OPENBLAS_NUM_THREADS=1 pytest benchmarks/bench_model.py
--benchmark-only``; one BLAS thread is what ``rsmi_bench`` pins.
"""
import itertools

import numpy as np
import pytest

from repro.ml.mlp import MLP
from repro.ml.pmf import PiecewiseCDF

WIDTHS = (4, 33, 51)


@pytest.fixture(scope="module")
def points():
    return np.random.default_rng(0).random((10_000, 2))


@pytest.mark.parametrize("hidden", WIDTHS)
def test_predict_one(benchmark, points, hidden):
    m = MLP(2, hidden, seed=0)
    it = itertools.cycle(points[:1000].tolist())

    def op():
        return m.predict_one(*next(it))

    benchmark.group = "predict_one"
    benchmark(op)


@pytest.mark.parametrize("hidden", WIDTHS)
def test_predict_10k_rows(benchmark, points, hidden):
    m = MLP(2, hidden, seed=0)
    benchmark.group = "predict-10k"
    benchmark(m.predict, points)


# (rows, hidden units, epochs) of a leaf and of the root of a 20k build.
FITS = {"leaf": (370, 4, 500), "root": (20_000, 33, 150)}


@pytest.mark.parametrize("shape", FITS)
def test_fit(benchmark, shape):
    n, hidden, epochs = FITS[shape]
    X = np.random.default_rng(1).random((n, 2))
    y = np.argsort(np.argsort(X.sum(axis=1))) / (n - 1)  # a rank target in [0, 1]
    benchmark.group = "fit"
    benchmark.pedantic(
        lambda m: m.fit(X, y, epochs=epochs),
        setup=lambda: ((MLP(2, hidden, seed=0),), {}),
        rounds=10 if shape == "leaf" else 3,
    )


def test_slope_alpha(benchmark, points):
    cdf = PiecewiseCDF(points[:, 1] ** 4, gamma=100)  # a skewed dimension
    it = itertools.cycle(points[:1000, 0].tolist())

    def op():
        return cdf.slope_alpha(next(it))

    benchmark.group = "slope_alpha"
    benchmark(op)
