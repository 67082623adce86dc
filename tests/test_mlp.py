"""Numpy MLP tests (the learned-model substrate)."""
import copy
import pickle

import numpy as np
import pytest

from repro.ml.mlp import MLP, hidden_for


def test_hidden_for_matches_paper():
    # 2 coordinate inputs + 100 block-id classes -> 51 hidden units.
    assert hidden_for(100) == 51
    assert hidden_for(4) == 4  # floored for tiny leaves
    assert hidden_for(10_000) == 51  # capped at the paper's width


def test_deterministic_init():
    a, b = MLP(2, 8, seed=42), MLP(2, 8, seed=42)
    assert np.array_equal(a.W1, b.W1) and np.array_equal(a.W2, b.W2)
    c = MLP(2, 8, seed=43)
    assert not np.array_equal(a.W1, c.W1)


def test_fit_linear_1d():
    rng = np.random.default_rng(0)
    X = rng.random((500, 1))
    y = 0.8 * X[:, 0] + 0.1
    m = MLP(1, 8, seed=0)
    m.fit(X, y, epochs=400, lr=0.05)
    pred = m.predict(X)
    assert np.max(np.abs(pred - y)) < 0.05


def test_fit_linear_2d():
    rng = np.random.default_rng(1)
    X = rng.random((500, 2))
    y = 0.5 * X[:, 0] + 0.4 * X[:, 1]
    m = MLP(2, 8, seed=0)
    m.fit(X, y, epochs=400, lr=0.05)
    assert np.mean((m.predict(X) - y) ** 2) < 1e-3


def test_fit_monotone_cdf_like():
    """The actual shape RSMI learns: a skewed CDF."""
    X = np.sort(np.random.default_rng(2).random(1000) ** 4)[:, None]
    y = np.arange(1000) / 999
    m = MLP(1, 16, seed=0)
    m.fit(X, y, epochs=500, lr=0.05)
    assert np.mean((m.predict(X) - y) ** 2) < 5e-3


def test_loss_decreases():
    rng = np.random.default_rng(3)
    X = rng.random((300, 2))
    y = X[:, 0] * X[:, 1]
    m = MLP(2, 16, seed=0)
    l_early = m.fit(X, y, epochs=5, lr=0.03)
    l_late = m.fit(X, y, epochs=300, lr=0.03)
    assert l_late < l_early


def test_fit_deterministic():
    rng = np.random.default_rng(4)
    X = rng.random((200, 2))
    y = X.sum(axis=1) / 2
    a, b = MLP(2, 8, seed=7), MLP(2, 8, seed=7)
    a.fit(X, y, epochs=50)
    b.fit(X, y, epochs=50)
    assert np.array_equal(a.W1, b.W1) and np.array_equal(a.b2, b.b2)


def _fitted(n_in, hidden, seed=5, epochs=30):
    X = np.random.default_rng(seed).random((200, n_in))
    m = MLP(n_in, hidden, seed=0)
    m.fit(X, X[:, 0], epochs=epochs)
    return m, X


def test_predict_one_matches_predict():
    """One inference rule: the batch and the scalar pass are bit-equal."""
    for n_in in (1, 2):
        for hidden in (4, 33, 51):
            m, X = _fitted(n_in, hidden)
            singles = np.array([m.predict_one(*map(float, row)) for row in X])
            assert np.array_equal(m.predict(X), singles), (n_in, hidden)


def test_predict_one_uses_weights_of_latest_fit():
    m, X = _fitted(2, 8)
    before = m.predict_one(0.3, 0.7)
    m.fit(X, X[:, 1], epochs=30)
    assert m.predict_one(0.3, 0.7) != before
    fresh = MLP.from_state(m.state())
    assert m.predict_one(0.3, 0.7) == fresh.predict_one(0.3, 0.7)


def test_empty_fit_is_noop():
    m = MLP(2, 4, seed=0)
    w = m.W1.copy()
    assert m.fit(np.empty((0, 2)), np.empty(0)) == 0.0
    assert np.array_equal(m.W1, w)


def test_state_roundtrip():
    """``from_state``, ``deepcopy`` and pickling keep predictions bit-equal."""
    m, X = _fitted(2, 8, seed=6, epochs=40)
    for c in (MLP.from_state(m.state()), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert np.array_equal(m.predict(X), c.predict(X))
        assert all(m.predict_one(*map(float, r)) == c.predict_one(*map(float, r)) for r in X)


def test_n_params_and_size():
    m = MLP(2, 51, seed=0)
    assert m.n_params == 2 * 51 + 51 + 51 + 1
    assert m.size_bytes() == m.n_params * 4


def test_extreme_inputs_do_not_overflow():
    m = MLP(2, 8, seed=0)
    v = m.predict_one(1e6, -1e6)
    assert np.isfinite(v)
    out = m.predict(np.array([[1e6, -1e6], [0.0, 0.0]]))
    assert np.all(np.isfinite(out))
    m1 = MLP(1, 8, seed=0)
    assert np.isfinite(m1.predict_one(1e6)) and np.isfinite(m1.predict_one(-1e6))
    assert np.all(np.isfinite(m1.predict(np.array([[1e6], [-1e6], [0.0]]))))
