"""Model-call cost: one ``MLP.predict_one`` call and ``MLP.predict`` over
10k rows, at the hidden widths RSMI uses (4 for small leaves, 33 for the
root of a 20k-40k build, 51 at the paper's cap).

A point query makes one model call per level of the tree (two on a
two-level RSMI) and a window query four times as many, one descent per
corner, so these figures give what model evaluation costs an operation.
Run with ``pytest benchmarks/bench_model.py --benchmark-only``.
"""
import itertools

import numpy as np
import pytest

from repro.ml.mlp import MLP

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
